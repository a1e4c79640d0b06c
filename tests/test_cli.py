import csv
import functools
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lacasse
from lacasse import cli, identity
from lacasse.identity import VerificationReport, alpha_closed, beta_closed, ramanujan_q


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    src = str(Path(lacasse.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "lacasse", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def main_out(capsys, *args: str) -> tuple[int, str, str]:
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- value ------------------------------------------------------------------


def test_value_alpha_plain(capsys):
    code, out, _ = main_out(capsys, "value", "alpha", "2")
    assert code == 0
    assert out == "10\n"


def test_value_q_rational(capsys):
    code, out, _ = main_out(capsys, "value", "q", "2")
    assert code == 0
    assert out == "3/2\n"


def test_value_s_d_with_d(capsys):
    code, out, _ = main_out(capsys, "value", "s_d", "2", "--d", "3")
    assert code == 0
    assert out == "18\n"


def test_value_s_d_defaults_to_d2(capsys):
    code, out, _ = main_out(capsys, "value", "s_d", "2")
    assert code == 0
    assert out == "10\n"


def test_value_diff(capsys):
    code, out, _ = main_out(capsys, "value", "diff", "2")
    assert code == 0
    assert out == "8\n"


def test_value_xi_zero_is_domain_error(capsys):
    code, out, err = main_out(capsys, "value", "xi", "0")
    assert code == 2
    assert out == ""
    assert "xi(0)" in err and "undefined" in err


def test_value_unknown_quantity_usage_error(capsys):
    assert cli.main(["value", "bogus", "3"]) == 2


def test_value_strings_round_trip(capsys):
    # rendered value strings must parse back to the exact quantities
    code, out, _ = main_out(capsys, "value", "alpha", "40", "--format", "json")
    assert code == 0
    assert int(json.loads(out)["value"]) == alpha_closed(40)
    code, out, _ = main_out(capsys, "value", "q", "7", "--format", "json")
    assert code == 0
    assert Fraction(json.loads(out)["value"]) == ramanujan_q(7)


def test_value_format_equivalence(capsys):
    _, plain, _ = main_out(capsys, "value", "alpha", "7")
    _, out_json, _ = main_out(capsys, "value", "alpha", "7", "--format", "json")
    _, out_csv, _ = main_out(capsys, "value", "alpha", "7", "--format", "csv")
    plain_value = plain.strip()
    record = json.loads(out_json)
    assert record["value"] == plain_value
    assert record["n"] == 7 and record["quantity"] == "alpha"
    rows = list(csv.reader(io.StringIO(out_csv)))
    assert rows[0] == ["n", "quantity", "d", "value", "passed"]
    assert rows[1][3] == plain_value
    assert int(plain_value) == alpha_closed(7)


# --- large n: full decimal output past the int-to-str digit limit ----------


def _str_unlimited(x) -> str:
    """str(x) with Python's int-to-str digit limit lifted, then restored."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # before Python 3.11 there is no limit
        return str(x)
    old = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(old)


@functools.lru_cache(maxsize=None)
def _value_text(quantity: str, n: int) -> str:
    compute = {"alpha": alpha_closed, "beta": beta_closed, "q": ramanujan_q}
    return _str_unlimited(compute[quantity](n))


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("quantity", ["alpha", "q"])
def test_value_large_n_full_digits(capsys, quantity, fmt):
    text = _value_text(quantity, 2000)
    assert max(len(part) for part in text.split("/")) > 4300
    code, out, err = main_out(capsys, "value", quantity, "2000", "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "plain":
        assert out == text + "\n"
    elif fmt == "json":
        assert json.loads(out) == {
            "n": 2000, "quantity": quantity, "d": None,
            "value": text, "passed": None, "routes": None,
        }
    else:
        assert out == f'n,quantity,d,value,passed\n"2000","{quantity}","","{text}",""\n'


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_verify_large_n_full_digits(capsys, fmt):
    code, out, _ = main_out(
        capsys, "verify", "--from", "1500", "--to", "1501", "--routes", "closed",
        "--format", fmt,
    )
    assert code == 0
    rows = []
    for n in (1500, 1501):
        alpha, beta = _value_text("alpha", n), _value_text("beta", n)
        diff = _str_unlimited(n ** (n + 1))
        assert len(alpha) > 4300
        rows.append((n, alpha, beta, diff))
    if fmt == "plain":
        assert out.splitlines() == [
            f"n={n} alpha={a} beta={b} diff={d} expected={d} routes=closed PASS"
            for n, a, b, d in rows
        ] + ["verify [1500,1501]: 2/2 passed"]
    elif fmt == "json":
        assert [json.loads(line) for line in out.splitlines()] == [
            {
                "n": n, "quantity": "diff", "d": None, "value": d, "passed": True,
                "routes": ["closed"], "alpha": a, "beta": b, "expected": d,
            }
            for n, a, b, d in rows
        ]
    else:
        assert list(csv.reader(io.StringIO(out))) == [
            ["n", "quantity", "d", "value", "passed"]
        ] + [[str(n), "diff", "", d, "true"] for n, a, b, d in rows]


# --- verify -----------------------------------------------------------------


def test_verify_json_record(capsys):
    code, out, err = main_out(
        capsys, "verify", "--from", "2", "--to", "2", "--format", "json"
    )
    assert code == 0
    record = json.loads(out.strip())
    assert record["n"] == 2
    assert record["alpha"] == "10"
    assert record["beta"] == "18"
    assert record["value"] == "8"
    assert record["expected"] == "8"
    assert record["passed"] is True
    assert record["routes"] == ["closed", "brute", "series"]
    assert "1/1 passed" in err


def test_verify_plain_pass_lines(capsys):
    code, out, _ = main_out(capsys, "verify", "--from", "1", "--to", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # three records + summary
    assert lines[0] == (
        "n=1 alpha=2 beta=3 diff=1 expected=1 routes=closed,brute,series PASS"
    )
    assert lines[-1] == "verify [1,3]: 3/3 passed"


def test_verify_1_to_50_all_pass(capsys):
    code, out, _ = main_out(capsys, "verify", "--from", "1", "--to", "50")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 51  # 50 records + summary
    assert sum(line.endswith(" PASS") for line in lines) == 50
    assert lines[-1] == "verify [1,50]: 50/50 passed"


def test_verify_invalid_range(capsys):
    code, _, err = main_out(capsys, "verify", "--from", "5", "--to", "3")
    assert code == 2
    assert "invalid range" in err


def test_verify_unknown_route(capsys):
    code, _, err = main_out(
        capsys, "verify", "--from", "1", "--to", "2", "--routes", "closed,psychic"
    )
    assert code == 2
    assert "unknown routes" in err


def test_verify_failure_exit_code(monkeypatch, capsys):
    fake = VerificationReport(
        n=7, alpha=1, beta=2, difference=1, expected=7**8,
        routes_compared=("closed",), passed=False,
    )
    monkeypatch.setattr(identity, "verify_range", lambda *a, **k: [fake])
    code, out, _ = main_out(capsys, "verify", "--from", "7", "--to", "7")
    assert code == 1
    assert "FAIL" in out


def test_verify_route_disagreement_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise identity.RouteDisagreementError(3, "alpha", ("closed", "brute"), (78, 79))

    monkeypatch.setattr(identity, "verify_range", boom)
    code, _, err = main_out(capsys, "verify", "--from", "3", "--to", "3")
    assert code == 1
    assert "verification failure" in err


def test_verify_csv_format(capsys):
    code, out, _ = main_out(
        capsys, "verify", "--from", "2", "--to", "3", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "quantity", "d", "value", "passed"]
    assert rows[1] == ["2", "diff", "", "8", "true"]
    assert rows[2] == ["3", "diff", "", "81", "true"]


# --- series -----------------------------------------------------------------


def test_series_tree_table(capsys):
    code, out, _ = main_out(capsys, "series", "tree", "--order", "4")
    assert code == 0
    assert out.splitlines() == ["0 0 0", "1 1 1", "2 1 2", "3 3/2 9", "4 8/3 64"]


def test_series_geom_d1_egf_column(capsys):
    code, out, _ = main_out(capsys, "series", "geom", "--order", "3", "--d", "1")
    assert code == 0
    egf = [line.split()[2] for line in out.splitlines()]
    assert egf == ["1", "1", "4", "27"]


def test_series_geom_d2_egf_column(capsys):
    code, out, _ = main_out(capsys, "series", "geom", "--order", "2", "--d", "2")
    assert code == 0
    egf = [line.split()[2] for line in out.splitlines()]
    assert egf == ["1", "2", "10"]


def test_series_json_rows(capsys):
    code, out, _ = main_out(
        capsys, "series", "tree", "--order", "3", "--format", "json"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[3] == {
        "n": 3,
        "quantity": "tree",
        "d": None,
        "value": "3/2",
        "passed": None,
        "routes": None,
        "egf": "9",
    }


def test_series_bad_arguments(capsys):
    assert cli.main(["series", "tree", "--order", "-1"]) == 2
    capsys.readouterr()
    assert cli.main(["series", "geom", "--order", "3", "--d", "0"]) == 2
    capsys.readouterr()


# --- bench ------------------------------------------------------------------


def test_bench_smoke(capsys):
    code, out, _ = main_out(
        capsys, "bench", "--n-max", "6", "--d", "3", "--repetitions", "1"
    )
    assert code == 0
    assert "values agree across routes: yes" in out
    for route in ("closed", "series", "brute"):
        assert route in out


def test_bench_json(capsys):
    code, out, _ = main_out(
        capsys, "bench", "--n-max", "4", "--repetitions", "1", "--format", "json"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[-1] == {"values_agree": True}
    assert {r["route"] for r in rows[:-1]} == {"closed", "series", "brute"}


def test_bench_single_row_range(capsys):
    code, out, _ = main_out(capsys, "bench", "--n-max", "1", "--repetitions", "1")
    assert code == 0
    assert "values agree across routes: yes" in out


def test_bench_zero_repetitions_rejected(capsys):
    code, _, err = main_out(capsys, "bench", "--repetitions", "0")
    assert code == 2
    assert "repetitions" in err


def test_bench_bad_n_max(capsys):
    code, _, _ = main_out(capsys, "bench", "--n-max", "0", "--repetitions", "1")
    assert code == 2


# --- subprocess end-to-end ---------------------------------------------------


def test_subprocess_value():
    proc = run_cli("value", "alpha", "2")
    assert proc.returncode == 0
    assert proc.stdout == "10\n"


def test_subprocess_usage_error_exit_2():
    proc = run_cli("value", "xi", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_subprocess_help_exit_0():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "verify" in proc.stdout


def test_subprocess_verify_jobs_independence():
    base = run_cli("verify", "--from", "1", "--to", "10", "--format", "json")
    twin = run_cli(
        "verify", "--from", "1", "--to", "10", "--format", "json", "--jobs", "3"
    )
    assert base.returncode == 0 and twin.returncode == 0
    assert base.stdout == twin.stdout
    assert base.stderr == twin.stderr


def test_subprocess_verify_plain_jobs_independence():
    base = run_cli("verify", "--from", "1", "--to", "8")
    twin = run_cli("verify", "--from", "1", "--to", "8", "--jobs", "2")
    assert base.stdout == twin.stdout
