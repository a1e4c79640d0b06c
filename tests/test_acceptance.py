"""Acceptance gate: every criterion at its stated range and tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the test
name carries the criterion number.
"""

import json
import math
import time
from fractions import Fraction

from lacasse import cli
from lacasse.identity import (
    alpha_closed,
    beta_closed,
    geom_power,
    ramanujan_q,
    s_d_closed,
    telescoping_difference,
    tree_series,
    verify_range,
)
from lacasse.kernels import comp_power_sum
from oracles import comp_sum, exp_trunc, mul, to_fractions, z
from test_cli import run_cli


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_main_identity_1_to_300_under_30s():
    t0 = time.perf_counter()
    reports = verify_range(1, 300, routes=("closed",))
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports)
    ok = ok and all(r.difference == r.n ** (r.n + 1) for r in reports)
    ok = ok and len(reports) == 300 and elapsed < 30.0
    _report("1", ok, f"beta-alpha = n^(n+1) bit-exact for n=1..300 in {elapsed:.2f}s")
    assert ok


def test_criterion_02_alpha_triple_route_0_to_100():
    t = tree_series(100)
    s2 = geom_power(t, 2)
    ok = True
    for n in range(101):
        closed = alpha_closed(n)
        series_val = s2[n]
        ok = ok and comp_sum(n, 2) == closed
        ok = ok and series_val == closed
    _report("2", ok, "alpha: definitional sum = closed form = n![z^n](1/(1-y))^2, n=0..100")
    assert ok


def test_criterion_03_beta_triple_route_0_to_60():
    t = tree_series(60)
    s3 = geom_power(t, 3)
    ok = True
    for n in range(61):
        closed = beta_closed(n)
        series_val = s3[n]
        ok = ok and comp_sum(n, 3) == closed
        ok = ok and series_val == closed
    _report("3", ok, "beta: 3-part enumeration = closed form = n![z^n](1/(1-y))^3, n=0..60")
    assert ok


def test_criterion_04_general_d_coefficient_formula():
    t = tree_series(30)
    ok = True
    for d in range(1, 6):
        s = geom_power(t, d)
        brute = comp_power_sum(0, 30, d)[-1]
        for n in range(31):
            closed = s_d_closed(n, d)
            series_val = s[n]
            ok = ok and closed == brute[n]
            ok = ok and series_val == closed
    _report("4", ok, "s_d closed form = brute composition sum = series, d=1..5, n<=30")
    assert ok


def test_criterion_05_q_link_exact_1_to_200():
    ok = all(
        Fraction(alpha_closed(n)) == n**n * (1 + ramanujan_q(n)) for n in range(1, 201)
    )
    _report("5", ok, "alpha(n) = n^n (1 + Q(n)) exactly for n=1..200")
    assert ok


def test_criterion_06_tree_self_consistency_order_200():
    y = tree_series(200)  # raises ConsistencyError if the two routes split
    ok = all(y[n] == n ** (n - 1) for n in range(1, 201))
    coeffs = to_fractions(y)
    ok = ok and mul(z(200), exp_trunc(coeffs)) == coeffs  # y - z*e^y == 0 termwise
    _report("6", ok, "tree routes agree to order 200 and y - z*e^y vanishes termwise")
    assert ok


def test_criterion_07_telescoping_0_to_300():
    ok = all(telescoping_difference(n) == n ** (n + 1) for n in range(301))
    _report("7", ok, "telescoping sum collapses to n^(n+1) term-exactly for n=0..300")
    assert ok


def test_criterion_08c_q_growth_window():
    # Q(n) = sqrt(pi*n/2) - 1/3 + O(1/sqrt(n)), so the ratio climbs to 1 from below
    ratios = [float(ramanujan_q(n)) / math.sqrt(math.pi * n / 2) for n in range(1, 401)]
    ok = all(a < b < 1 for a, b in zip(ratios, ratios[1:]))
    ok = ok and all(0.97 <= r <= 1.01 for r in ratios[99:])
    _report("8c", ok, "Q(n)/sqrt(pi*n/2) rising below 1 over n=1..400, in [0.97, 1.01] from n=100")
    assert ok


def test_criterion_09_cli_contract(capsys):
    ok = cli.main(["value", "alpha", "2"]) == 0
    ok = ok and cli.main(["value", "xi", "0"]) == 2
    ok = ok and cli.main(["verify", "--from", "5", "--to", "3"]) == 2
    ok = ok and cli.main(["bench", "--repetitions", "0"]) == 2
    capsys.readouterr()

    code = cli.main(["value", "beta", "9", "--format", "json"])
    record = json.loads(capsys.readouterr().out)
    ok = ok and code == 0 and int(record["value"]) == beta_closed(9)

    code = cli.main(["value", "beta", "9", "--format", "plain"])
    plain = capsys.readouterr().out.strip()
    ok = ok and code == 0 and plain == record["value"]

    sequential = cli.main(["verify", "--from", "1", "--to", "8", "--format", "json"])
    out_seq = capsys.readouterr().out
    parallel = cli.main(
        ["verify", "--from", "1", "--to", "8", "--format", "json", "--jobs", "2"]
    )
    out_par = capsys.readouterr().out
    ok = ok and sequential == 0 and parallel == 0 and out_seq == out_par

    proc = run_cli("value", "diff", "4", timeout=120)
    ok = ok and proc.returncode == 0 and proc.stdout.strip() == str(4**5)

    _report("9", ok, "exit codes 0/2, plain/json equivalence, jobs-independent output")
    assert ok
