import concurrent.futures
import pickle
import sys
from fractions import Fraction
from math import comb, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacasse import identity
from lacasse.identity import (
    ConsistencyError,
    DomainError,
    IdentityFailureError,
    RouteDisagreementError,
    alpha_closed,
    beta_closed,
    brute_force_admitted,
    geom_power,
    ramanujan_q,
    s_d_closed,
    telescoping_difference,
    tree_series,
    verify_lacasse,
    verify_range,
    xi,
    xi2,
)
from oracles import comp_sum, compositions, q_formula, s_d_formula

F = Fraction


# --- alpha and beta ---------------------------------------------------------


def test_alpha_direct_examples():
    # alpha enumerated composition by composition is comp_sum at d = 2
    assert comp_sum(0, 2) == 1
    assert comp_sum(1, 2) == 2  # k=0 term 1 + k=1 term 1
    assert comp_sum(2, 2) == 10  # 4 + 2 + 4


def test_beta_direct_examples():
    # beta enumerated composition by composition is comp_sum at d = 3
    assert comp_sum(0, 3) == 1  # single composition (0,0,0)
    assert comp_sum(1, 3) == 3  # three compositions, each contributing 1
    assert comp_sum(2, 3) == 18  # all 6 compositions


# --- s_d --------------------------------------------------------------------


def test_s_d_closed_specializes_to_alpha_and_beta():
    # alpha_closed and beta_closed are s_d_closed at d = 2, 3; check them
    # against the README sum with factorial division instead, past the
    # 4300-digit mark at the last two n
    for n in [*range(41), 300, 1500]:
        assert alpha_closed(n) == s_d_formula(n, 2)
        assert beta_closed(n) == s_d_formula(n, 3)


# a single Horner block, one split, and several levels of splitting (the
# blocks hold at most 64 terms, and s_d sums n + 1 of them, Q n)
BLOCK_EDGES = [0, 1, 63, 64, 65, 127, 128, 129, 300, 700]


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_s_d_closed_matches_formula_across_blocks(n):
    # the weights are prefix sums up to d = 4 and one comb each from d = 5
    large = (7, 40, 10**6) if n <= 300 else ()
    for d in [*range(1, 7), *large]:
        assert s_d_closed(n, d) == s_d_formula(n, d)


# Lengths 0..200 reach every leftover count (0, 1, 2) of a leaf's three-step
# passes, and up to two splits; the weights are arbitrary, unlike those of
# s_d, Q and diff.
@given(data=st.data(), n=st.integers(min_value=0, max_value=50),
       length=st.integers(min_value=0, max_value=200))
@settings(deadline=None)
def test_falling_sum_matches_direct_sum(data, n, length):
    word = st.integers(min_value=-(2**200), max_value=2**200)
    weights = data.draw(st.lists(word, min_size=length, max_size=length))
    top = length - 1
    direct = sum(perm(top, top - j) * w * n**j for j, w in enumerate(weights))
    assert identity._falling_sum(n, weights) == direct


# The Lacasse family k (s_(k+2)(n) - s_(k+1)(n)) = n s_k(n), from
# zD (1-y)^(-k) = k ((1-y)^(-k-2) - (1-y)^(-k-1)); k = 1 is the paper's
# identity, as s_1(n) = n^n.  Each route is checked by itself, not against
# another.


def test_lacasse_family_closed():
    for n in range(201):
        s = [None] + [s_d_closed(n, d) for d in range(1, 9)]
        for k in range(1, 7):
            assert k * (s[k + 2] - s[k + 1]) == n * s[k]


def test_lacasse_family_series():
    # the series power at d = 1..8 through order 200; no other test runs
    # it at d = 4..8 past n = 30
    t = tree_series(200)
    s = [None] + [geom_power(t, d) for d in range(1, 9)]
    for k in range(1, 7):
        for n in range(201):
            assert k * (s[k + 2][n] - s[k + 1][n]) == n * s[k][n]


@given(data=st.data(), n=st.integers(min_value=0, max_value=60))
@settings(deadline=None)
def test_s_d_knuth_pittel_convolution(data, n):
    # s_d(n) are the Knuth-Pittel tree polynomials t_n(d), so
    # s_{a+b}(n) = sum_k C(n,k) s_a(k) s_b(n-k); needs no enumeration
    a = data.draw(st.integers(min_value=1, max_value=7), label="a")
    b = data.draw(st.integers(min_value=1, max_value=8 - a), label="b")
    want = sum(
        comb(n, k) * s_d_closed(k, a) * s_d_closed(n - k, b) for k in range(n + 1)
    )
    assert s_d_closed(n, a + b) == want


def test_s_d_validation():
    with pytest.raises(DomainError):
        s_d_closed(-1, 2)
    with pytest.raises(DomainError):
        s_d_closed(3, 0)


# --- xi, xi2 ----------------------------------------------------------------


def test_xi_examples():
    assert xi(1) == 2
    assert xi2(2) == F(9, 2)  # 18/4
    assert xi2(2) - xi(2) == 2


def test_xi_identity_form():
    for n in range(1, 101):
        assert xi2(n) - xi(n) == n


def test_xi_rejects_zero():
    with pytest.raises(DomainError):
        xi(0)
    with pytest.raises(DomainError):
        xi2(0)


# --- telescoping ------------------------------------------------------------


def test_telescoping_rejects_negative():
    with pytest.raises(DomainError):
        telescoping_difference(-1)


# --- ramanujan_q ------------------------------------------------------------


@pytest.mark.parametrize("n", [n for n in BLOCK_EDGES if n])
def test_ramanujan_q_matches_formula_across_blocks(n):
    assert ramanujan_q(n) == q_formula(n)


def test_ramanujan_q_rejects_zero():
    with pytest.raises(DomainError):
        ramanujan_q(0)


# --- weak compositions ------------------------------------------------------


def test_compositions_examples():
    assert list(compositions(2, 3)) == [
        (0, 0, 2),
        (0, 1, 1),
        (0, 2, 0),
        (1, 0, 1),
        (1, 1, 0),
        (2, 0, 0),
    ]
    assert list(compositions(0, 4)) == [(0, 0, 0, 0)]
    assert list(compositions(5, 1)) == [(5,)]


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
    for n in (0, -3):  # verify_range's own message
        message = rf"^invalid range \[{n}, {n}\]; need 1 <= from <= to$"
        with pytest.raises(DomainError, match=message):
            verify_lacasse(n)
    with pytest.raises(DomainError):
        verify_lacasse(3, routes=("closed", "magic"))


def test_verify_drops_brute_above_cutoff():
    # cutoff 1 admits nothing beyond the trivial enumeration
    report = verify_lacasse(6, cutoff=1)
    assert report.routes_compared == ("closed", "series")
    assert report.passed


def test_brute_force_admitted_boundary():
    n = 10
    terms = comb(n + 2, 2)
    assert brute_force_admitted(n, 3, cutoff=terms)
    assert not brute_force_admitted(n, 3, cutoff=terms - 1)
    assert brute_force_admitted(0, 3)  # one empty composition; n = 0 is in the domain


def test_series_route_table_pairs_adjacent_powers(monkeypatch):
    # d and d - 1 come from one pass, any other d from its own; the values
    # are the closed route's whatever the pairing
    calls = []
    real = identity.egf_geom_power

    def spy(y, d, lower=False):
        calls.append((d, lower))
        return real(y, d, lower)

    monkeypatch.setattr(identity, "egf_geom_power", spy)
    for ds, want in [
        ((2, 3), [(3, True)]),
        ((3,), [(3, False)]),
        ((3, 2, 3), [(3, True)]),
        ((2, 4), [(4, False), (2, False)]),
        ((1, 2, 3, 4, 5), [(5, True), (3, True), (1, False)]),
    ]:
        calls.clear()
        assert identity.route_table("series", 1, 12, ds) == identity.route_table(
            "closed", 1, 12, ds
        )
        assert calls == want


def test_verify_closed_only_route():
    report = verify_lacasse(12, routes=("closed",))
    assert report.routes_compared == ("closed",)
    assert report.passed


# --- route independence ---------------------------------------------------
# An oracle must not become the thing it checks: each route's table is built
# from code no other route runs.  That a fault in one route's code shows in
# that route's table alone is checked for every row of test_faults.FAULTS.

ROUTE_REACH = {
    "closed": {"identity.s_d_closed", "identity._falling_sum", "identity.block"},
    "brute": {"identity.brute_force_admitted", "identity.comp_power_sum"},
    "series": {
        "identity.tree_series", "identity.tree_egf", "identity.egf_geom_power",
        "identity._palindrome_dot",
    },
}


def _reached(route: str) -> set[str]:
    """The lacasse functions route_table(route, 1, 60, (2, 3)) calls, as module.co_name."""
    reached = set()

    def profile(frame, event, arg):
        module, name = frame.f_globals.get("__name__", ""), frame.f_code.co_name
        # comprehensions get no frame of their own from Python 3.12 (PEP 709)
        if event == "call" and module.startswith("lacasse.") and not name.startswith("<"):
            reached.add(f"{module.removeprefix('lacasse.')}.{name}")

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        identity.route_table(route, 1, 60, (2, 3))
    finally:
        sys.setprofile(old)
    return reached - {"identity.route_table"}


def test_routes_reach_disjoint_code():
    assert {route: _reached(route) for route in ROUTE_REACH} == ROUTE_REACH
    closed, brute, series = ROUTE_REACH.values()
    assert not (closed & brute or closed & series or brute & series)


def test_route_disagreement_message_past_digit_limit():
    # 10^5000 has 5001 digits, past the 4300-digit int-to-str limit
    exc = RouteDisagreementError(2000, "alpha", ("closed", "series"), (10**5000, 10**5000 + 1))
    assert str(exc).endswith(": 1" + "0" * 5000 + " vs 1" + "0" * 4999 + "1")


def _failure_state(exc):
    return type(exc), exc.args, vars(exc), str(exc)


@pytest.mark.parametrize(
    "cls, args, attrs",
    [
        (RouteDisagreementError, (3, "alpha", ("closed", "brute"), (1, 2)),
         ("n", "quantity", "routes", "values")),
        (IdentityFailureError, (3, 1, 81), ("n", "difference", "expected")),
        (IdentityFailureError, (2000, 10**5000, 10**5000 + 1), ("n", "difference", "expected")),
    ],
    ids=["route-disagreement", "identity-failure", "identity-failure-past-digit-limit"],
)
def test_failure_errors_cross_processes(cls, args, attrs):
    # a library caller may run verify_lacasse in its own process pool,
    # which pickles whatever the worker raises or returns
    exc = cls(*args)
    assert isinstance(exc, ConsistencyError)
    assert exc.args == args
    assert tuple(getattr(exc, name) for name in attrs) == args
    assert _failure_state(pickle.loads(pickle.dumps(exc))) == _failure_state(exc)


def test_verify_range_invalid():
    with pytest.raises(DomainError):
        verify_range(5, 3)
    with pytest.raises(DomainError):
        verify_range(0, 3)
    with pytest.raises(DomainError):
        verify_range(1, 3, jobs=0)


def test_verify_range_rejects_negative_cutoff():
    with pytest.raises(DomainError, match="cutoff must be >= 0, got -1"):
        verify_range(1, 2, cutoff=-1)
    assert verify_range(1, 2, cutoff=0)[0].routes_compared == ("closed", "series")


def test_verify_range_clamps_jobs(monkeypatch):
    # a pool would start every requested worker at once, so the count is
    # checked on a stand-in that records it and maps in this process
    pools = []

    class RecordingPool:
        def __init__(self, max_workers, **options):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # verify_range imports the pool class at call time, from here
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(identity.os, "cpu_count", lambda: 4)
    want = verify_range(1, 6)
    assert pools == []
    assert verify_range(1, 6, jobs=5000) == want
    assert pools == [3]  # one worker per route
    monkeypatch.setattr(identity.os, "cpu_count", lambda: 2)
    assert verify_range(1, 6, jobs=5000) == want
    assert pools == [3, 2]  # one worker per CPU
    closed = verify_range(1, 6, routes=("closed",))
    assert verify_range(1, 6, routes=("closed",), jobs=5000) == closed
    monkeypatch.setattr(identity.os, "cpu_count", lambda: None)
    assert verify_range(1, 6, jobs=5000) == want
    assert pools == [3, 2]  # a single worker runs inline, without a pool
