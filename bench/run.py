"""Benchmark of the ``lacasse`` CLI: one workload per call, results as JSON.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is taken from ``src/`` next to this
directory, with the pure-Python kernels pinned.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it record the environment and the run.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import check
import workloads
from worker import TRACED

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 6  # per batch; one batch runs before the passes, one after
RUN_TIMEOUT_S = 150  # shared by the request processes of one run
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
    "import lacasse, lacasse.cli; print(time.process_time() - t, lacasse.__file__)"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["LACASSE_KERNELS"] = "py"  # a built C extension must not shift the baseline
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # setup_s is timed with the bytecode cache written
    return env


def measure_setup() -> list[float]:
    """CPU time to import lacasse and lacasse.cli in fresh interpreters, after one warm-up.

    CPU time, not wall time: on a shared VM the wall time of an import swings
    up to fourfold with the host's I/O and scheduling, while its CPU time,
    which is the part the package controls, mostly stays within 15%.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            env=child_env(),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout.split(maxsplit=1)
        if SRC not in Path(out[1].strip()).resolve().parents:
            raise SystemExit(f"lacasse was imported from {out[1]}, not from {SRC}")
        if i:
            times.append(float(out[0]))
    return times


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill ``seconds`` at the workload's nominal pass time, at least one.

    The count depends on the arguments alone, never on a clock, so two runs
    with the same arguments make the same requests and can be compared
    request for request, failures included.
    """
    return max(1, round(seconds / workloads.PASS_S[workload]))


def run_worker(requests: list[list[str]], passes: int, trace: bool, timeout: float) -> dict:
    job = {"src": str(SRC), "requests": requests, "passes": passes, "trace": trace}
    proc = subprocess.run(
        [sys.executable, str(WORKER)],
        input=json.dumps(job),
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise SystemExit(f"request process failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def judge(requests: list[list[str]], report: dict) -> tuple[int, int, int, Counter]:
    """Check every request of every pass: (attempted, failed, wrong, failure reasons)."""
    first = report["passes"][0]["results"]
    verdicts: dict[tuple[int, str], str | None] = {}
    attempted = failed = wrong = 0
    reasons: Counter = Counter()
    for p in report["passes"]:
        for i, (code, stdout, _, _, error) in enumerate(p["results"]):
            stdout = first[i][1] if stdout is None else stdout
            key = (i, stdout)
            if code == 0 and key not in verdicts:
                verdicts[key] = check.check(requests[i], 0, stdout)
            reason = verdicts[key] if code == 0 else f"exit {code}: {error}"
            attempted += 1
            if reason is not None:
                failed += 1
                wrong += code == 0
                reasons[reason[:120]] += 1
    return attempted, failed, wrong, reasons


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_figures(report: dict, field: str, column: int) -> tuple[float, float, float]:
    """Median pass time, and p50 and p90 over the requests of each request's median time."""
    passes = report["passes"]
    # each request's median over the passes, so one slow pass cannot set a percentile
    per_request = [
        statistics.median(p["results"][i][column] for p in passes)
        for i in range(len(passes[0]["results"]))
    ]
    return (
        statistics.median(p[field] for p in passes),
        percentile(per_request, 50),
        percentile(per_request, 90),
    )


def environment(report: dict, requests: list[list[str]], seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
            )
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "lacasse").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": report["python"],
        "backend": report["backend"],
        "int_max_str_digits": report["int_max_str_digits"],
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "git_commit": commit,
        "src_digest": src_digest.hexdigest()[:16],
        "seed": seed,
        "requests": len(requests),
        "request_digest": workloads.digest(requests),
    }


def layer_metrics(traced: dict, plain: dict) -> dict[str, float]:
    passes = len(traced["passes"])
    totals = traced["trace"]
    metrics = {}
    for layer, (_, functions) in TRACED.items():
        for fn in functions:
            calls, incl, self_s = totals.get(f"{layer}.{fn}", (0, 0.0, 0.0))
            metrics[f"{layer}.{fn}.calls"] = calls / passes
            metrics[f"{layer}.{fn}.s"] = incl / passes
            metrics[f"{layer}.{fn}.self_s"] = self_s / passes
    self_sum = sum(row[2] for row in totals.values())
    root = totals.get("cli.main", (0, 0.0, 0.0))[1]
    if abs(self_sum - root) > 1e-6 * max(1.0, root):
        raise SystemExit(f"span accounting broke: self times sum to {self_sum}, cli.main.s is {root}")
    stdout_bytes = sum(
        len((r[1] if r[1] is not None else traced["passes"][0]["results"][i][1]).encode())
        for p in traced["passes"]
        for i, r in enumerate(p["results"])
    )
    metrics["cli.stdout_bytes"] = stdout_bytes / passes
    cpu = [statistics.median(p["cpu_s"] for p in r["passes"]) for r in (traced, plain)]
    metrics["trace.overhead_frac"] = cpu[0] / cpu[1] - 1
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lacasse" / "cli.py").is_file():
        print(f"error: no lacasse package under {SRC}", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # for the checker in this process only
    check.self_test()
    requests = workloads.build(args.workload, args.seed)

    t0 = time.perf_counter()
    if args.trace:
        half = pass_count(args.workload, args.seconds / 2)
        plain = run_worker(requests, half, False, RUN_TIMEOUT_S / 2)
        traced = run_worker(requests, half, True, RUN_TIMEOUT_S / 2)
        reports = [plain, traced]
    else:
        setup = measure_setup()
        passes = pass_count(args.workload, args.seconds)
        plain = run_worker(requests, passes, False, RUN_TIMEOUT_S)
        setup += measure_setup()
        reports = [plain]
    measured_s = time.perf_counter() - t0

    attempted = failed = wrong = 0
    reasons: Counter = Counter()
    for report in reports:
        a, f, w, r = judge(requests, report)
        attempted, failed, wrong = attempted + a, failed + f, wrong + w
        reasons.update(r)
    over_limit = sum(
        check.value_over_limit(argv) for argv in requests if argv[0] == "value"
    )

    env = environment(plain, requests, args.seed)
    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {
                "workload": args.workload,
                "trace": args.trace,
                "passes": [len(r["passes"]) for r in reports],
                "measured_s": measured_s,
                "over_limit_requests_per_pass": over_limit,
                "failure_reasons": reasons,
                "wall_clock": dict(
                    zip(("pass_s", "req_p50_s", "req_p90_s"), pass_figures(plain, "wall_s", 3))
                ),
            }
        )
    )

    if args.trace:
        metrics = layer_metrics(traced, plain)
        metrics["failed_frac"] = failed / attempted
        units = {"calls": "count", "s": "s", "self_s": "s", "stdout_bytes": "bytes"}
        result = {
            name: {"value": value, "unit": units.get(name.rsplit(".", 1)[-1], "fraction")}
            for name, value in metrics.items()
        }
    else:
        cpu_s, p50, p90 = pass_figures(plain, "cpu_s", 2)
        result = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cpu_s": {"value": cpu_s, "unit": "s"},
            "req_cpu_p50_s": {"value": p50, "unit": "s"},
            "req_cpu_p90_s": {"value": p90, "unit": "s"},
            "peak_rss_mb": {"value": plain["peak_rss_kb"] / 1024, "unit": "MiB"},
            "ok_frac": {"value": 1 - failed / attempted, "unit": "fraction"},
        }
    print(
        json.dumps(
            {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": result}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
