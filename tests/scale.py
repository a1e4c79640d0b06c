"""README's large-n promises, one row each, run by the CLI in real processes.

A row is one promise: its commands, the wall seconds they may take together
(run_cli's 300 s where it sets none), the peak RSS each may reach, and one
check of their stdout.  Tier-1 skips this file, not being named test_*; run
``python -m pytest -q tests/scale.py`` from a checkout, or from outside one
against an installed copy.  Comments give one run on a 2-core VM, Python 3.11.7.
"""

import re
import time
from collections import namedtuple
from decimal import Decimal

import pytest

from oracles import s_d_formula, str_unlimited
from test_cli import run_cli

Row = namedtuple("Row", "commands check budget_s peak_mb", defaults=(300, None))
AGREE = "\nvalues agree across routes: yes\n"

ROWS = {
    # the same bytes from one worker and from a real process pool of two: 0.47 s
    "jobs": Row(["verify --from 1 --to 60 --jobs 1", "verify --from 1 --to 60 --jobs 2",
                 "verify --from 1 --to 300 --format json --jobs 1",
                 "verify --from 1 --to 300 --format json --jobs 2"],
                lambda a, b, c, d: a == b and c == d
                and b.endswith("\nverify [1,60]: 60/60 passed\n")),
    # every value, in full past the 4300-digit str limit: 0.34 s of 20 s
    "n-5000": Row([f"value {q} 5000" for q in ("alpha", "beta", "q", "xi", "xi2")]
                  + ["value s_d 5000 --d 6", "value diff 5000"],
                  lambda *outs: re.fullmatch(r"([0-9]+\n){2}([0-9]+/[0-9]+\n){3}[0-9]+\n",
                                             "".join(outs[:6]))
                  and outs[6] == str_unlimited(5000**5001) + "\n", 20),
    # 86,000-digit values, which Decimal reads past the str limit: 0.20 s of 15 s
    "n-20000": Row(["value beta 20000", "value alpha 20000"],
                   lambda beta, alpha: int(Decimal(beta)) - int(Decimal(alpha)) == 20000**20001,
                   15),
    # 500,007 bytes of output: 1.32 s of 40 s
    "diff-100000": Row(["value diff 100000"],
                       lambda out: out == str_unlimited(100000**100001) + "\n", 40),
    # 1801 digits, one math.comb per weight at any d: 0.06 s of 5 s
    "s_d-d1000000": Row(["value s_d 300 --d 1000000"],
                        lambda out: int(out) == s_d_formula(300, 10**6), 5),
    # geom_power at a d that no benchmark workload runs: 0.05 s
    "bench-d7": Row(["bench --n-max 40 --d 7 --repetitions 1"], lambda out: AGREE in out),
    # at d = 2, round 2 of the brute sweep is the output round, which no verify reaches: 0.09 s
    "bench-d2": Row(["bench --n-max 300 --d 2 --repetitions 1"], lambda out: AGREE in out),
    # every route, brute force included: 1.56 s of 60 s
    "verify-600": Row(["verify --from 1 --to 600"],
                      lambda out: re.search(r"^n=600 .* routes=closed,brute,series PASS\n"
                                            r"verify \[1,600\]: 600/600 passed\n\Z", out, re.M),
                      60),
    # the series alpha and beta are one power pass at order 1000: 5.65 s of 25 s
    "verify-1000": Row(["verify --from 1 --to 1000 --routes closed,series"],
                       lambda out: out.endswith("\nverify [1,1000]: 1000/1000 passed\n"), 25),
    # each series kernel carries one Pascal row; a whole table would pass 70 MB: 19.1 MB of 40 MB
    "series-1000-peak": Row(["series geom --order 1000 --d 3"],
                            lambda out: out.count("\n") == 1001, peak_mb=40),
    # the 2,000 rows are written as they are made, never held at once, and a
    # passed row's diff and expected are one int, converted once: 1.55 s of 10 s,
    # 25.3 MB of 40 MB
    "verify-2000-peak": Row(["verify --from 1 --to 2000 --routes closed --format json"],
                            lambda out: out.count('"passed": true') == 2000, 10, peak_mb=40),
}

# A peak row's sitecustomize.py runs the command again in a child and prints
# the child's peak RSS, read in an interpreter that holds nothing else.  A
# child's peak starts from its parent's at spawn, so a child of the test
# runner would report the runner's peak.
PEAK = """import os, resource, subprocess, sys
path = os.environ["PYTHONPATH"].split(os.pathsep, 1)[1]  # without this file's directory
run = subprocess.run([sys.executable, *sys.orig_argv[1:]], env=dict(os.environ, PYTHONPATH=path))
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, file=sys.stderr, flush=True)
os._exit(run.returncode)
"""


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS)
def test_promise_holds(row, tmp_path):
    if row.peak_mb:
        (tmp_path / "sitecustomize.py").write_text(PEAK)
    start = time.monotonic()
    outs = []
    for command in row.commands:
        timeout = row.budget_s - (time.monotonic() - start)
        run = run_cli(*command.split(), site=tmp_path if row.peak_mb else None, timeout=timeout)
        assert run.returncode == 0, run.stderr
        assert not row.peak_mb or float(run.stderr.split()[-1]) < row.peak_mb, run.stderr
        outs.append(run.stdout)
    assert row.check(*outs)
