from fractions import Fraction

import pytest

from lacasse import identity
from lacasse.exact import binomial
from lacasse.identity import (
    CompositionCursor,
    IdentityFailureError,
    RouteDisagreementError,
    alpha_closed,
    alpha_direct,
    beta_closed,
    beta_direct,
    brute_force_admitted,
    ramanujan_q,
    s_d_closed,
    telescoping_difference,
    verify_lacasse,
    verify_range,
    xi,
    xi2,
    xi_scaled_brute,
)
from lacasse.series import egf_coeff, geom_power, tree_series

F = Fraction


# --- alpha ------------------------------------------------------------------


def test_alpha_direct_examples():
    assert alpha_direct(0) == 1
    assert alpha_direct(1) == 2  # k=0 term 1 + k=1 term 1
    assert alpha_direct(2) == 10  # 4 + 2 + 4


def test_alpha_closed_examples():
    assert alpha_closed(0) == 1
    assert alpha_closed(1) == 2  # 1 + 1
    assert alpha_closed(2) == 10  # 2 + 4 + 4
    assert alpha_closed(3) == 78  # 6 + 18 + 27 + 27


def test_alpha_routes_agree_midrange():
    for n in range(61):
        assert alpha_direct(n) == alpha_closed(n)


def test_alpha_rejects_negative():
    with pytest.raises(ValueError):
        alpha_direct(-1)
    with pytest.raises(ValueError):
        alpha_closed(-1)


# --- beta -------------------------------------------------------------------


def test_beta_direct_examples():
    assert beta_direct(0) == 1  # single composition (0,0,0)
    assert beta_direct(1) == 3  # three compositions, each contributing 1
    assert beta_direct(2) == 18  # all 6 compositions


def test_beta_closed_examples():
    assert beta_closed(0) == 1
    assert beta_closed(1) == 3  # 2 + 1
    assert beta_closed(2) == 18  # 6 + 8 + 4
    assert beta_closed(2) - alpha_closed(2) == 8 == 2**3


def test_beta_routes_agree_midrange():
    for n in range(41):
        assert beta_direct(n) == beta_closed(n) == xi_scaled_brute(n, 3)


# --- s_d --------------------------------------------------------------------


def test_s_d_closed_examples():
    for n in range(9):
        assert s_d_closed(n, 1) == (1 if n == 0 else n**n)
    assert s_d_closed(2, 2) == 10 == alpha_closed(2)
    assert s_d_closed(2, 3) == 18 == beta_closed(2)


def test_s_d_closed_specializes_to_alpha_and_beta():
    for n in range(41):
        assert s_d_closed(n, 2) == alpha_closed(n)
        assert s_d_closed(n, 3) == beta_closed(n)


def test_s_d_routes_agree_small_grid():
    for d in range(1, 6):
        t = tree_series(15)
        s = geom_power(t, d, 15)
        for n in range(16):
            closed = s_d_closed(n, d)
            assert closed == xi_scaled_brute(n, d)
            assert closed == egf_coeff(s, n)


def test_s_d_strictly_increasing_in_d():
    for n in range(1, 26):
        for d in range(1, 6):
            assert s_d_closed(n, d + 1) > s_d_closed(n, d)


def test_s_d_validation():
    with pytest.raises(ValueError):
        s_d_closed(-1, 2)
    with pytest.raises(ValueError):
        s_d_closed(3, 0)
    with pytest.raises(ValueError):
        xi_scaled_brute(-1, 2)
    with pytest.raises(ValueError):
        xi_scaled_brute(3, 0)


def test_xi_scaled_brute_examples():
    assert xi_scaled_brute(2, 2) == 10  # (0,2),(1,1),(2,0) -> 4+2+4
    assert xi_scaled_brute(1, 3) == 3 == beta_direct(1)
    for d in range(1, 7):
        assert xi_scaled_brute(0, d) == 1


# --- xi, xi2 ----------------------------------------------------------------


def test_xi_examples():
    assert xi(1) == 2
    assert xi2(2) == F(9, 2)  # 18/4
    assert xi2(2) - xi(2) == 2


def test_xi_identity_form():
    for n in range(1, 101):
        assert xi2(n) - xi(n) == n


def test_xi_rejects_zero():
    with pytest.raises(ValueError):
        xi(0)
    with pytest.raises(ValueError):
        xi2(0)


# --- telescoping ------------------------------------------------------------


def test_telescoping_examples():
    assert telescoping_difference(0) == 0  # single k=0 term has factor n-k = 0
    assert telescoping_difference(1) == 1
    assert telescoping_difference(2) == 8


def test_telescoping_equals_power_midrange():
    for n in range(81):
        assert telescoping_difference(n) == n ** (n + 1)
        assert telescoping_difference(n) == beta_closed(n) - alpha_closed(n)


def test_telescoping_rejects_negative():
    with pytest.raises(ValueError):
        telescoping_difference(-1)


# --- ramanujan_q ------------------------------------------------------------


def test_ramanujan_q_examples():
    assert ramanujan_q(1) == 1
    assert ramanujan_q(2) == F(3, 2)
    assert ramanujan_q(3) == F(17, 9)
    assert 4 * (1 + ramanujan_q(2)) == 10 == alpha_closed(2)
    assert 27 * (1 + ramanujan_q(3)) == 78 == alpha_closed(3)


def test_ramanujan_q_alpha_link_midrange():
    for n in range(1, 81):
        assert n**n * (1 + ramanujan_q(n)) == alpha_closed(n)


def test_ramanujan_q_rejects_zero():
    with pytest.raises(ValueError):
        ramanujan_q(0)


# --- composition cursor -----------------------------------------------------


def test_cursor_visits_each_composition_once():
    for n in range(9):
        for d in range(1, 5):
            seen = list(CompositionCursor(n, d))
            assert len(seen) == binomial(n + d - 1, d - 1)
            assert len(set(seen)) == len(seen)
            assert all(len(c) == d and sum(c) == n and min(c) >= 0 for c in seen)


def test_cursor_order_is_deterministic():
    assert list(CompositionCursor(2, 3)) == [
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    ]


def test_cursor_current_tracks_last_yield():
    cur = CompositionCursor(2, 2)
    assert cur.current is None
    first = next(cur)
    assert cur.current == first == (2, 0)


def test_cursor_validation():
    with pytest.raises(ValueError):
        CompositionCursor(-1, 2)
    with pytest.raises(ValueError):
        CompositionCursor(2, 0)


# --- verify -----------------------------------------------------------------


def test_verify_examples():
    r1 = verify_lacasse(1)
    assert (r1.alpha, r1.beta, r1.difference, r1.expected) == (2, 3, 1, 1)
    assert r1.passed
    r2 = verify_lacasse(2)
    assert (r2.alpha, r2.beta, r2.difference, r2.expected) == (10, 18, 8, 8)
    r5 = verify_lacasse(5)
    assert r5.difference == 5**6 == 15625
    assert r5.routes_compared == ("closed", "brute", "series")


def test_verify_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_lacasse(0)
    with pytest.raises(ValueError):
        verify_lacasse(3, routes=("closed", "magic"))


def test_verify_drops_brute_above_cutoff():
    # cutoff 1 admits nothing beyond the trivial enumeration
    report = verify_lacasse(6, cutoff=1)
    assert report.routes_compared == ("closed", "series")
    assert report.passed


def test_brute_force_admitted_boundary():
    n = 10
    terms = binomial(n + 2, 2)
    assert brute_force_admitted(n, 3, cutoff=terms)
    assert not brute_force_admitted(n, 3, cutoff=terms - 1)


def test_verify_closed_only_route():
    report = verify_lacasse(12, routes=("closed",))
    assert report.routes_compared == ("closed",)
    assert report.passed


def test_verify_detects_route_disagreement(monkeypatch):
    monkeypatch.setattr(identity, "alpha_direct", lambda n: alpha_closed(n) + 1)
    with pytest.raises(RouteDisagreementError) as exc:
        verify_lacasse(4)
    assert exc.value.quantity == "alpha"
    assert set(exc.value.routes) == {"closed", "brute"}
    assert exc.value.n == 4


def test_verify_detects_identity_failure(monkeypatch):
    monkeypatch.setattr(identity, "beta_closed", lambda n: alpha_closed(n))
    with pytest.raises(IdentityFailureError):
        verify_lacasse(4, routes=("closed",))


def test_verify_rejects_disagreeing_injected_series_values():
    with pytest.raises(RouteDisagreementError):
        verify_lacasse(3, _series_values=(77, 159))


def test_verify_range_ordering_and_contents():
    reports = verify_range(1, 10)
    assert [r.n for r in reports] == list(range(1, 11))
    assert all(r.passed for r in reports)
    assert all(r.difference == r.n ** (r.n + 1) for r in reports)


def test_verify_range_invalid():
    with pytest.raises(ValueError):
        verify_range(5, 3)
    with pytest.raises(ValueError):
        verify_range(0, 3)
    with pytest.raises(ValueError):
        verify_range(1, 3, jobs=0)


def test_verify_range_jobs_independent():
    sequential = verify_range(1, 12)
    parallel = verify_range(1, 12, jobs=3)
    assert sequential == parallel


def test_verify_range_clamps_jobs(monkeypatch):
    # a pool would start every requested worker at once, so the count is
    # checked on a stand-in that records it and maps in this process
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(identity, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(identity.os, "cpu_count", lambda: 4)
    want = verify_range(1, 6, routes=("closed",))
    assert pools == []
    assert verify_range(1, 6, routes=("closed",), jobs=5000) == want
    assert pools == [4]  # one worker per CPU
    assert verify_range(1, 2, routes=("closed",), jobs=5000) == want[:2]
    assert pools == [4, 2]  # one worker per value of n
    assert verify_range(3, 3, routes=("closed",), jobs=5000) == want[2:3]
    monkeypatch.setattr(identity.os, "cpu_count", lambda: None)
    assert verify_range(1, 6, routes=("closed",), jobs=5000) == want
    assert pools == [4, 2]  # a single worker runs inline, without a pool
