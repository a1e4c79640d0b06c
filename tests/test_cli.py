"""The CLI beyond its output bytes, which golden.json pins (test_golden.py).

Here: the canonical forms read without argparse as argparse reads them,
and argparse reading the other forms, call after call; each subcommand's
options in ``--help`` order; the same full digits past the int-to-str limit
at any setting of it; the order of stdout and stderr; and runs in real
processes, closed pipes and interrupts among them.  Verification failures
are injected from the one table in test_faults.py.
"""

import ast
import contextlib
import io
import json
import multiprocessing
import os
import resource
import shlex
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    position shows.  The streams are fresh per call."""
    out = io.StringIO()
    err = out if merge else io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return (code, out.getvalue()) if merge else (code, out.getvalue(), err.getvalue())


# --- the canonical forms without argparse, argparse for the rest -------------


PARSER = cli.build_parser()  # parsing leaves it unchanged, so one serves every call


def fast_parsed(argv: list[str]) -> bool:
    """Whether cli._parse_fast reads ``argv``; where it does, its namespace
    must be the one argparse makes of the same argv."""
    fast = cli._parse_fast(argv)
    if fast is not None:
        assert vars(fast) == vars(PARSER.parse_args(argv)), argv
    return fast is not None


def _value(keywords: dict):
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    if keywords.get("type") is int:
        return st.integers(min_value=0, max_value=10**6).map(str)
    return st.sampled_from(["closed", "closed,series", "brute, series", ""])  # --routes


# each takes the argv, the index of one of its flags and a token from TOKENS
FLAG_MUTATIONS = {
    "abbreviate": lambda argv, i, _: [*argv[:i], argv[i][:3], *argv[i + 1 :]],  # ambiguous --f
    "equals": lambda argv, i, _: [*argv[:i], f"{argv[i]}={argv[i + 1]}", *argv[i + 2 :]],
    "repeat": lambda argv, i, token: [*argv, argv[i], token],
    "options-first": lambda argv, i, _: [argv[0], *argv[i:], *argv[1:i]],
    "drop": lambda argv, i, _: argv[:i] + argv[i + 2 :],
    "drop-value": lambda argv, i, _: argv[: i + 1] + argv[i + 2 :],
}
TOKENS = ("-h", "--help", "--", "-1", "--bogus", "--to", "extra", "json", "7", "0x7", "")


@st.composite
def grammar_argv(draw) -> tuple[list[str], bool]:
    """A canonical argv drawn from cli._GRAMMAR, with every required flag and
    any others in any order, and whether it was then mutated: one flag
    abbreviated, joined to its value by =, repeated, put before the
    positionals, or dropped with or without its value; the last token
    dropped; or one token inserted anywhere or put in place of another."""
    command = draw(st.sampled_from(sorted(cli._GRAMMAR)))
    arguments = cli._GRAMMAR[command][2]
    argv = [command, *(draw(_value(kw)) for name, kw in arguments if name[0] != "-")]
    first_flag = len(argv)
    for name, kw in draw(st.permutations([arg for arg in arguments if arg[0][0] == "-"])):
        if kw.get("required") or draw(st.booleans()):
            argv += [name, draw(_value(kw))]
    mutation = draw(st.sampled_from([None, "insert", "replace", "truncate", *FLAG_MUTATIONS]))
    token = draw(st.sampled_from(TOKENS))
    if mutation == "truncate":
        argv.pop()
    elif mutation == "insert":
        argv.insert(draw(st.integers(0, len(argv))), token)
    elif mutation == "replace" and len(argv) > 1:
        argv[draw(st.integers(1, len(argv) - 1))] = token
    elif mutation in FLAG_MUTATIONS and first_flag < len(argv):
        i = draw(st.sampled_from(range(first_flag, len(argv), 2)))
        argv = FLAG_MUTATIONS[mutation](argv, i, token)
    else:
        mutation = None
    return argv, mutation is not None


@given(grammar_argv())
@settings(max_examples=300)
@example((["verify", "--from", "1", "--to", "2", "--routes", "--to"], True))  # a flag as a value
@example((["verify", "--to", "2"], True))  # a required flag left out
@example((["series", "tree", "--order"], True))  # a flag without its value
@example((["value", "alpha"], True))  # a positional left out
@example((["value", "nope", "2"], True))  # a choice not offered
def test_fast_parser_reads_canonical_forms_as_argparse_does(drawn):
    # every canonical argv is read without argparse, into argparse's own
    # namespace; a mutated one is read the same, or left to argparse, which
    # then prints its help or usage error as it always has
    argv, mutated = drawn
    assert fast_parsed(argv) or mutated, argv


# Each argv below is a form that _parse_fast leaves to argparse, and each
# test a pair of calls: the second must not see the first's options, defaults
# or usage error.  The names date from when one cached parser served them all.


def test_reused_parser_restores_defaults():
    assert redirected_main("value", "s_d", "5", "--d=4") == (0, "54020\n", "")
    assert redirected_main("value", "--format", "plain", "s_d", "5") == (0, "10970\n", "")


def test_reused_parser_recovers_from_usage_error():
    code, out, err = redirected_main("value", "nope", "1")
    assert (code, out) == (2, "")
    assert err.startswith("usage: lacasse value") and "invalid choice: 'nope'" in err
    assert redirected_main("value", "alpha", "2", "--format=plain") == (0, "10\n", "")


def test_reused_parser_restores_default_format():
    code, out, err = redirected_main("value", "alpha", "3", "--format=json")
    assert (code, err) == (0, "")
    assert json.loads(out) == dict(n=3, quantity="alpha", d=None, value="78", passed=None,
                                   routes=None)
    assert redirected_main("value", "--d", "2", "alpha", "3") == (0, "78\n", "")


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
    "concurrent.futures", "multiprocessing", "dataclasses", "__future__", "argparse",
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


@pytest.mark.parametrize(
    "other, code", [("value alpha 7 --format=json", 0), ("value nope 7", 2)],
    ids=["equals-form", "invalid-choice"],
)
def test_subprocess_loads_argparse_only_for_other_forms(other, code):
    # the canonical forms of value, verify and series are read without
    # argparse; a --flag=value form, or any usage error, loads it
    report, _ = loaded_after("value alpha 50", "verify --from 1 --to 5 --format csv",
                             "series geom --order 4 --d 3", other)
    assert [(c, "argparse" in loaded) for c, loaded in report] == [(0, False)] * 3 + [(code, True)]


def test_subprocess_import_loads_no_argparse():
    proc = run_cli(code="import sys, lacasse.cli; print('argparse' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


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


def test_subprocess_out_of_memory_exits_2_with_one_line():
    # s_d_closed's n + 1 weights alone need 1.6 GB of pointers at n = 2 * 10^8;
    # under a 1 GiB address space, set on the child alone, that fails at once:
    # an input out of reach, not a crash (70)
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(**child("value", "alpha", "200000000"), capture_output=True,
                          timeout=60, preexec_fn=cap)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: out of memory computing value\n")


def under_each_start_method(case: str, *values) -> list:
    """pytest params of ``values`` and each start method of the --jobs pool:
    the platform's default, which multiprocessing lists first, under the id
    ``case``, and every other under ``case-method``."""
    default, *others = multiprocessing.get_all_start_methods()
    return [pytest.param(*values, default, id=case),
            *(pytest.param(*values, method, id=f"{case}-{method}") for method in others)]


# sitecustomize.py runs at every interpreter start, so the start method is
# the pool's, and the row's fault reaches each pool worker, under any method
SITECUSTOMIZE = """
import multiprocessing, sys
multiprocessing.set_start_method({method!r}, force=True)
sys.path.insert(0, {tests!r})
from test_faults import FAULTS
FAULTS[{row!r}].install()
"""


@pytest.mark.parametrize(
    "row, method",
    [*under_each_start_method("brute-round", "brute-alpha-5-from-1"),
     *under_each_start_method("tree", "tree-3")],
)
def test_subprocess_fault_crosses_the_pool(tmp_path, row, method):
    tests = str(Path(__file__).resolve().parent)
    (tmp_path / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(method=method, tests=tests, row=row))
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



# the pool takes the given start method, and the series table touches a
# flag file, then stalls
STALL = """
import multiprocessing, pathlib, time
multiprocessing.set_start_method({method!r}, force=True)
from lacasse import identity
identity.egf_geom_power = lambda *a, **k: (pathlib.Path({flag!r}).touch(), time.sleep(60))
"""


JOBS_2 = "verify --from 1 --to 5 --routes closed,series --jobs 2"


def live_group_members(pgid: int) -> list[int]:
    """The pids in process group ``pgid`` that are not zombies, from /proc."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process ended while /proc was read
            continue
        state, _, group = text.rsplit(")", 1)[1].split()[:3]  # past the name
        if state != "Z" and int(group) == pgid:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.parametrize(
    "command, kill, method",
    [pytest.param("verify --from 1 --to 5", os.killpg,
                  multiprocessing.get_all_start_methods()[0], id="jobs-1"),
     *under_each_start_method("jobs-2", JOBS_2, os.killpg),
     *under_each_start_method("jobs-2-parent", JOBS_2, os.kill)],
)
def test_subprocess_interrupt_exits_130_with_one_line(tmp_path, command, kill, method):
    # Ctrl-C, as a terminal sends it: SIGINT to the child's whole process
    # group, mid-run; at --jobs 2 the closed route's worker is idle by then.
    # Or `kill -INT <pid>`, to the child alone: its stalled worker must not
    # hold the exit for the 60 s of the stall.  No worker may print a
    # traceback or outlive the child
    flag = tmp_path / "stalled"
    (tmp_path / "sitecustomize.py").write_text(STALL.format(method=method, flag=str(flag)))
    with subprocess.Popen(**child(*command.split(), site=tmp_path), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, start_new_session=True) as proc:
        try:
            while not flag.exists():
                assert proc.poll() is None  # the child ran to its end without stalling
                time.sleep(0.01)
            kill(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=10)
            assert (proc.returncode, out, err) == (130, "", "interrupted\n")
            if Path("/proc/self/stat").exists():
                # outside fork, multiprocessing's helpers (the resource
                # tracker, the fork server) end on their own just after the
                # child, and may linger as zombies; no live member may stay
                deadline = time.monotonic() + 5
                while members := live_group_members(proc.pid):
                    assert time.monotonic() < deadline, members
                    time.sleep(0.01)
            else:
                with pytest.raises(ProcessLookupError):  # the group is empty
                    os.killpg(proc.pid, 0)
        finally:  # a failing run leaves no process either
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
