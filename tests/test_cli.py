"""The CLI beyond its output bytes, which golden.json pins (test_golden.py).

Here: the parser reused across calls; each subcommand's options in
``--help`` order; the same full digits past the int-to-str limit at any
setting of it; the order of stdout and stderr; and runs in real
processes, closed pipes and interrupts among them.  Verification failures
are injected from the one table in test_faults.py.
"""

import argparse
import ast
import contextlib
import io
import json
import os
import shlex
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import lacasse
from lacasse import cli, identity
from lacasse.identity import VerificationReport
from test_faults import FAULTS, assert_reported


def child(*args: str, site: Path | None = None, code: str | None = None) -> dict:
    """The keywords that make subprocess run ``python -m lacasse *args`` on
    this package's path, in text mode.  site: a directory put first on the
    child's path, as for a sitecustomize.py; code: run ``python -S -c code
    *args`` in place of ``python -m lacasse *args``."""
    env = os.environ.copy()
    src = str(Path(lacasse.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if site is not None:
        env["PYTHONPATH"] = str(site) + os.pathsep + env["PYTHONPATH"]
    argv = [sys.executable, *(("-S", "-c", code) if code else ("-m", "lacasse")), *args]
    return dict(args=argv, env=env, text=True)


def run_cli(
    *args: str, site: Path | None = None, timeout: float = 300, code: str | None = None
) -> subprocess.CompletedProcess:
    # past timeout seconds the child is killed and TimeoutExpired raised
    return subprocess.run(**child(*args, site=site, code=code), capture_output=True,
                          timeout=timeout)


def redirected_main(*args: str, merge: bool = False) -> tuple:
    """cli.main(args) in process: (code, stdout, stderr), or with ``merge``
    (code, text) with both streams in one buffer, so a line's stream
    position shows.  The streams are fresh per call: the reused parser must
    write to whichever sys.stdout and sys.stderr are current, not the ones
    it was built under."""
    out = io.StringIO()
    err = out if merge else io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return (code, out.getvalue()) if merge else (code, out.getvalue(), err.getvalue())


# --- one parser per process ---------------------------------------------------


@pytest.fixture
def fresh_parser():
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def test_reused_parser_restores_defaults(fresh_parser):
    assert redirected_main("value", "s_d", "5", "--d", "4") == (0, "54020\n", "")
    assert redirected_main("value", "s_d", "5") == (0, "10970\n", "")  # default d = 2


def test_reused_parser_recovers_from_usage_error(fresh_parser):
    code, out, err = redirected_main("value", "nope", "1")
    assert (code, out) == (2, "")
    assert err.startswith("usage: lacasse value") and "invalid choice: 'nope'" in err
    assert redirected_main("value", "alpha", "2") == (0, "10\n", "")


def test_reused_parser_restores_default_format(fresh_parser):
    code, out, _ = redirected_main("value", "alpha", "3", "--format", "json")
    assert code == 0 and json.loads(out)["value"] == "78"
    assert redirected_main("value", "alpha", "3") == (0, "78\n", "")


def test_parser_built_once_for_many_calls(monkeypatch, fresh_parser):
    built = []

    def counting_parser(*args, **kwargs):
        built.append(kwargs["prog"])
        return argparse.ArgumentParser(*args, **kwargs)

    monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=counting_parser))
    calls = [("value", "alpha", "2"), ("value", "q", "2"), ("verify", "--from", "1", "--to", "2")]
    for args in calls:
        assert redirected_main(*args)[0] == 0
    assert built == ["lacasse"]


@pytest.mark.parametrize(
    "command, options",
    [
        ("value", ["--d D"]),
        ("verify", ["--from N", "--to N", "--routes ROUTES", "--jobs JOBS",
                    "--brute-cutoff BRUTE_CUTOFF"]),
        ("series", ["--order ORDER", "--d D"]),
        ("bench", ["--n-max N_MAX", "--d D", "--repetitions REPETITIONS"]),
    ],
    ids=["value", "verify", "series", "bench"],
)
def test_help_lists_each_subcommands_options_in_order(command, options):
    # each option line's invocation, indented two spaces where a wrapped
    # usage line is indented more; not the whole text, as argparse's layout
    # differs across Python versions and terminal widths
    code, out, err = redirected_main(command, "--help")
    assert (code, err) == (0, "")
    listed = [line[2:].split("  ")[0] for line in out.splitlines() if line.startswith("  -")]
    assert listed == ["-h, --help", *options, "--format {plain,json,csv}"]


# --- large n: full decimal output past the int-to-str digit limit ----------


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
@pytest.mark.parametrize(
    "command",
    [
        "value alpha 2000",
        "value alpha 5000",
        "value q 2000",
        "verify --from 1500 --to 1501 --routes closed",
    ],
)
def test_subprocess_full_digits_under_any_int_str_limit(command):
    # past 4300 digits, printed in process with the limit at its default,
    # at 640 (the lowest Python accepts) and lifted (0): ints print as
    # pieces of at most 600 digits, so every limit gives the same bytes and
    # none raises
    old = sys.get_int_max_str_digits()
    runs = []
    try:
        for limit in (sys.int_info.default_max_str_digits, 640, 0):
            sys.set_int_max_str_digits(limit)
            runs.append(redirected_main(*command.split()))
    finally:
        sys.set_int_max_str_digits(old)
    code, out, err = runs[0]
    assert (code, err) == (0, "")
    assert max(map(len, out.replace("/", " ").split())) > 4300
    assert runs[1:] == [runs[0]] * 2


# --- verify -----------------------------------------------------------------


def test_verify_failure_exit_code(monkeypatch):
    # the one pin of cmd_verify's FAIL row (passed=False), through a stub:
    # verify_range raises on a failed check, as README says, so no real
    # fault reaches this branch until ROADMAP item 4
    fake = VerificationReport(
        n=7, alpha=1, beta=2, difference=1, expected=7**8,
        routes_compared=("closed",), passed=False,
    )
    monkeypatch.setattr(identity, "verify_range", lambda *a, **k: [fake])
    code, out, _ = redirected_main("verify", "--from", "7", "--to", "7")
    assert code == 1
    assert out.splitlines() == [
        "n=7 alpha=1 beta=2 diff=1 expected=5764801 routes=closed FAIL",
        "verify [7,7]: 0/1 passed",
    ]


def test_verify_brute_cutoff_boundary(monkeypatch):
    # C(11+2, 2) = 78 compositions admits n = 11; n = 12 has 91
    calls = []
    real = identity.comp_power_sum

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(identity, "comp_power_sum", spy)
    code, out, _ = redirected_main(
        "verify", "--from", "5", "--to", "12", "--brute-cutoff", "78"
    )
    assert code == 0
    assert calls == [(5, 11, 3)]  # one sweep over the admitted prefix
    lines = out.splitlines()
    for line in lines[:7]:
        assert " routes=closed,brute,series PASS" in line
    assert lines[7].startswith("n=12 ") and " routes=closed,series PASS" in lines[7]
    assert lines[8] == "verify [5,12]: 8/8 passed"


def test_verify_series_fault_names_route(monkeypatch):
    # asked for the series route alone, verify still checks it against the
    # closed forms and names it
    fault = FAULTS["series-alpha-4"]
    fault.install(monkeypatch.setattr)
    assert_reported(fault, *redirected_main(*fault.command.split(), "--routes", "series"))


@pytest.mark.parametrize(
    "row, fmt", [("series-alpha-4", "json"), ("series-beta-4", "csv")], ids=["lower", "top"]
)
def test_verify_series_row_fault_names_quantity(monkeypatch, row, fmt):
    # a fault in the lower or top row of the one series pass shows as alpha
    # or beta in every format, with stdout left empty
    fault = FAULTS[row]
    fault.install(monkeypatch.setattr)
    assert_reported(fault, *redirected_main(*fault.command.split(), "--format", fmt))


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    # only DomainError means bad input; any other ValueError is a fault
    def boom(order):
        raise ValueError("internal fault")

    monkeypatch.setattr(identity, "tree_egf", boom)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["series", "tree", "--order", "3"])


def test_entry_point_exits_70_on_internal_fault(monkeypatch, capsys):
    def boom(order):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(identity, "tree_egf", boom)
    monkeypatch.setattr(sys, "argv", ["lacasse", "series", "tree", "--order", "3"])
    with pytest.raises(SystemExit) as exc:
        cli.main_entry()
    assert exc.value.code == 70
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: internal fault" in err


# --- series -----------------------------------------------------------------


def test_series_bad_d_rejected_before_the_tree(monkeypatch):
    # at order 700 the tree alone takes seconds; a bad d must not wait for it
    def boom(order):
        raise AssertionError("the tree was built")

    monkeypatch.setattr(identity, "tree_egf", boom)
    code, out, err = redirected_main("series", "geom", "--order", "700", "--d", "0")
    assert code == 2
    assert out == ""
    assert err == "error: geom_power requires d >= 1, got 0\n"


# --- bench ------------------------------------------------------------------


def test_bench_reports_disagreement(monkeypatch):
    # the brute s_3 one too large at n = 5; a disagreement is reported,
    # never asserted
    FAULTS["brute-beta-5-from-1"].install(monkeypatch.setattr)
    args = ("bench", "--n-max", "6", "--d", "3", "--repetitions", "1")
    code, out, _ = redirected_main(*args)
    assert code == 0
    assert "values agree across routes: NO" in out
    code, out, _ = redirected_main(*args, "--format", "json")
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {"values_agree": False}


def test_bench_notes_brute_route_admitted_nothing(monkeypatch):
    # at d = 3000000 the cutoff admits no n; the note is plain's alone
    args = ("bench", "--n-max", "2", "--d", "3000000", "--repetitions", "1")
    code, out, err = redirected_main(*args, "--format", "csv")
    assert code == 0 and "note:" not in out + err
    assert err == "values agree across routes: yes\n"
    code, out, err = redirected_main(*args, "--format", "json")
    assert code == 0 and "note:" not in out + err
    assert json.loads(out.splitlines()[-1]) == {"values_agree": True}
    monkeypatch.setattr(identity, "brute_force_admitted", lambda *args: False)
    code, out, _ = redirected_main("bench", "--n-max", "3", "--repetitions", "1")
    assert code == 0
    assert out.splitlines()[-2:] == [
        "values agree across routes: yes",
        "note: brute-force route admitted no n at this cutoff",
    ]


# --- stdout and stderr in the order written ----------------------------------


@pytest.mark.parametrize(
    "command, rows, last",
    [
        ("verify --from 2 --to 3 --format json", 2, "verify [2,3]: 2/2 passed"),
        ("bench --n-max 4 --repetitions 1 --format csv", 4, "values agree across routes: yes"),
    ],
    ids=["verify-summary", "bench-verdict"],
)
def test_stderr_follows_the_rows(command, rows, last):
    # the golden corpus pins each stream apart, and these stdouts as `rows`
    # lines; here the one stderr line must come after all of them
    code, text = redirected_main(*shlex.split(command), merge=True)
    assert code == 0
    assert text.splitlines()[rows:] == [last]


@pytest.mark.parametrize(
    "command, rows, per_row",
    [
        ("verify --from 1 --to 5", 5, 3),
        ("verify --from 1 --to 5 --format json", 5, 3),
        ("series tree --order 5", 6, 2),
    ],
    ids=["verify-plain", "verify-json", "series-plain"],
)
def test_rows_are_written_as_they_are_made(monkeypatch, command, rows, per_row):
    # each row is one write, made after its own per_row values are
    # formatted and before any value of the next row is
    real, formatted = cli.exact_str, 0

    def counting_exact_str(x):
        nonlocal formatted
        formatted += 1
        return real(x)

    monkeypatch.setattr(cli, "exact_str", counting_exact_str)
    counts = []
    out = types.SimpleNamespace(write=lambda text: counts.append(formatted))
    with contextlib.redirect_stdout(out):
        code = cli.main(shlex.split(command))
    assert code == 0
    assert counts[:rows] == [per_row * (k + 1) for k in range(rows)]


# --- subprocess end-to-end ---------------------------------------------------


# reads sys.modules before it imports anything itself, so every watched
# module it reports was loaded by lacasse; run with -S, so no site hook
# loads one first
IMPORT_SET_CODE = """
import sys
from lacasse import cli
watched = (
    "json", "csv", "traceback", "decimal", "fractions",
    "concurrent.futures", "multiprocessing", "dataclasses", "__future__",
)
report = []
for command in sys.argv[1:]:
    code = cli.main(command.split())
    report.append((code, [m for m in watched if m in sys.modules]))
import os
print(repr((report, os.cpu_count())))
"""


def loaded_after(*commands: str) -> tuple[list[tuple[int, list[str]]], int | None]:
    """Run ``commands`` in turn in one fresh process; after each, its exit
    code and which watched modules are loaded, and the process's CPU count."""
    proc = run_cli(*commands, code=IMPORT_SET_CODE)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_subprocess_loads_the_pool_only_for_jobs():
    # a count of loaded modules, not a timing: one-worker commands, and
    # --jobs 2 with one route table to build, never import the process
    # pool, and --jobs 2 over all routes still starts a real one; no
    # command loads __future__, which the package never imports
    report, cpus = loaded_after(
        "verify --from 1 --to 5",
        "value alpha 50",
        "verify --from 1 --to 5 --routes closed --jobs 2",
        "verify --from 1 --to 5 --jobs 2",
    )
    assert [code for code, _ in report] == [0, 0, 0, 0]
    assert all("__future__" not in loaded for _, loaded in report)
    heavy = {"concurrent.futures", "multiprocessing", "dataclasses"}
    assert heavy.isdisjoint(report[2][1])
    if (cpus or 1) > 1:
        assert "concurrent.futures" in report[3][1]


FRACTIONS = {"decimal", "fractions"}


@pytest.mark.parametrize(
    "commands, expected",
    [
        (("verify --from 1 --to 5", "value alpha 50", "value s_d 50 --d 4"), set()),
        (("value q 50",), FRACTIONS),
        (("value xi 50",), FRACTIONS),
        (("series geom --order 4 --d 3",), FRACTIONS),
        # exact_str splits alpha(2000)'s 6,604 digits on int powers of ten
        # and imports nothing, but from Python 3.12 CPython's own divmod
        # hands a quotient that large to _pylong, which imports decimal
        (("value alpha 2000",), {"decimal"} if sys.version_info >= (3, 12) else set()),
        (("value alpha 7 --format json",), {"json"}),
        (("bench --n-max 4 --repetitions 1 --format json",), {"json"} | FRACTIONS),
        (("value alpha 7 --format csv",), {"csv"}),
        (("verify --from 1 --to 5 --format csv",), {"csv"}),
    ],
    ids=["int-values", "value-q", "value-xi", "series", "past-str-limit",
         "value-json", "bench-json", "value-csv", "verify-csv"],
)
def test_subprocess_loads_decimal_and_fractions_only_where_used(commands, expected):
    # each of the five modules only where used: json and csv by the one
    # format that writes with each, traceback only by a crash, and decimal
    # and fractions only by a command that builds a Fraction (fractions
    # imports decimal itself; bench's statistics imports fractions), never
    # by exact_str to print an int.  The process first runs an int command,
    # which must load none of them, so the last command is what loads the
    # expected set.
    watched = {"json", "csv", "traceback"} | FRACTIONS
    report, _ = loaded_after("value diff 50", *commands)
    assert [code for code, _ in report] == [0] * (len(commands) + 1)
    assert watched & set(report[0][1]) == set()
    assert watched & set(report[-1][1]) == expected


CRASH_CODE = """
import sys
from lacasse import cli, identity

def boom(order):
    raise RuntimeError("internal fault")

identity.tree_egf = boom
print("traceback loaded before the crash:", "traceback" in sys.modules)
sys.argv = ["lacasse", *sys.argv[1:]]
cli.main_entry()
"""


def test_subprocess_crash_imports_traceback_and_exits_70():
    # the in-process twin cannot see the import on the crash path: pytest
    # has loaded traceback long before
    proc = run_cli("series", "tree", "--order", "3", code=CRASH_CODE)
    assert proc.returncode == 70, proc.stderr
    assert proc.stdout == "traceback loaded before the crash: False\n"
    assert "Traceback" in proc.stderr
    assert "RuntimeError: internal fault" in proc.stderr


# sitecustomize.py runs at every interpreter start, so the row's fault
# reaches each pool worker under any start method
SITECUSTOMIZE = """
import sys
sys.path.insert(0, {tests!r})
from test_faults import FAULTS
FAULTS[{row!r}].install()
"""


@pytest.mark.parametrize("row", ["brute-alpha-5-from-1", "tree-3"], ids=["brute-round", "tree"])
def test_subprocess_fault_crosses_the_pool(tmp_path, row):
    tests = str(Path(__file__).resolve().parent)
    (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE.format(tests=tests, row=row))
    fault = FAULTS[row]
    run = run_cli(*fault.command.split(), "--jobs", "2", site=tmp_path)
    assert_reported(fault, run.returncode, run.stdout, run.stderr)


@pytest.mark.parametrize(
    "command",
    ["verify --from 1 --to 400 --routes closed", "series tree --order 500"],
    ids=["verify", "series"],
)
def test_subprocess_closed_pipe_exits_141_quietly(command):
    # a reader that stops after the first row, as `| head -1` does: with
    # 790 and 800 kB to write, far past a pipe's buffer, the child meets the
    # closed pipe mid-stream; rows stream as they are made, so that is
    # normal use, not a crash (70)
    with subprocess.Popen(**child(*command.split()), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=300)
    assert (code, err) == (141, "")



# the series table touches a flag file, then stalls
STALL = """
import pathlib, time
from lacasse import identity
identity.egf_geom_power = lambda *a, **k: (pathlib.Path({flag!r}).touch(), time.sleep(60))
"""


JOBS_2 = "verify --from 1 --to 5 --routes closed,series --jobs 2"


@pytest.mark.parametrize(
    "command, kill",
    [("verify --from 1 --to 5", os.killpg), (JOBS_2, os.killpg), (JOBS_2, os.kill)],
    ids=["jobs-1", "jobs-2", "jobs-2-parent"],
)
def test_subprocess_interrupt_exits_130_with_one_line(tmp_path, command, kill):
    # Ctrl-C, as a terminal sends it: SIGINT to the child's whole process
    # group, mid-run; at --jobs 2 the closed route's worker is idle by then.
    # Or `kill -INT <pid>`, to the child alone: its stalled worker must not
    # hold the exit for the 60 s of the stall.  No worker may print a
    # traceback or outlive the child
    flag = tmp_path / "stalled"
    (tmp_path / "sitecustomize.py").write_text(STALL.format(flag=str(flag)))
    with subprocess.Popen(**child(*command.split(), site=tmp_path), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, start_new_session=True) as proc:
        try:
            while not flag.exists():
                assert proc.poll() is None  # the child ran to its end without stalling
                time.sleep(0.01)
            kill(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=10)
            assert (proc.returncode, out, err) == (130, "", "interrupted\n")
            with pytest.raises(ProcessLookupError):  # the group is empty
                os.killpg(proc.pid, 0)
        finally:  # a failing run leaves no process either
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
