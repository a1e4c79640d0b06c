"""Request process of the benchmark: one client calling ``lacasse.cli.main``
in a closed loop, in a fresh interpreter.

Reads a job from stdin as JSON::

    {"src": "<dir holding the lacasse package>", "requests": [[argv...], ...],
     "passes": 5, "trace": false}

and writes one JSON report to stdout.  The request list is run as a pass,
``passes`` times over, and each request's stdout and stderr are captured
in memory.  The number of passes is fixed by the caller, not by a clock,
so the same job always makes the same requests.  A pass's stdout is kept
only where it differs from the first pass's, so the report, and the
process's memory, stay the size of one pass.

Times are CPU seconds of this process (``time.process_time``), with wall
seconds alongside.  The process is single-threaded, makes no child
processes (``--jobs 1``) and does no I/O while a request runs, so its CPU
time is its wall time minus the time the host withheld the CPU.  On a
shared VM that withheld time comes and goes in bursts of tens of seconds,
so wall time there measures the host rather than the package.

With ``trace`` set, the functions in ``TRACED`` are rebound to timing
wrappers before the first request.  That works because every cross-module
call in the package goes through a module attribute or a module-global
name.  Spans stay in memory and are summed when the loop ends.

This process never touches ``sys.set_int_max_str_digits``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

EXIT_CRASH = 70  # an exception escaped cli.main
CLOCK = time.process_time

TRACED = {
    "cli": ("lacasse.cli", ("main",)),
    "identity": (
        "lacasse.identity",
        (
            "verify_range",
            "verify_lacasse",
            "alpha_closed",
            "beta_closed",
            "s_d_closed",
            "alpha_direct",
            "ramanujan_q",
            "telescoping_difference",
            "xi",
            "xi2",
        ),
    ),
    "series": ("lacasse.series", ("tree_series", "geom_power", "egf_coeff")),
    "kernels": (
        "lacasse.backend:kernels",
        ("tree_egf", "egf_recip", "egf_pow", "comp_power_sum", "pascal_rows"),
    ),
}


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


class Tracer:
    """Rebinds module attributes to wrappers that record one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.request = 0
        self._stack: list[int] = []
        for layer, (target, functions) in TRACED.items():
            try:
                module = _resolve(target)
            except (ImportError, AttributeError):
                continue  # a layer the package no longer has reports zero calls
            for fn in functions:
                if hasattr(module, fn):
                    setattr(module, fn, self._wrap(f"{layer}.{fn}", getattr(module, fn)))

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, CLOCK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.request)

        return traced

    def summary(self) -> dict[str, list[float]]:
        """Per function: [calls, inclusive seconds, self seconds], summed over all spans."""
        child = [0.0] * len(self.spans)
        for fn, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0, 0.0, 0.0] for name in self.names}
        for slot, (fn, start, end, _, _) in enumerate(self.spans):
            row = totals[self.names[fn]]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[slot]
        return totals


def run(job: dict) -> dict:
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import lacasse
    import lacasse.cli

    if src not in Path(lacasse.__file__).resolve().parents:
        raise SystemExit(f"lacasse was imported from {lacasse.__file__}, not from {src}")
    tracer = Tracer() if job["trace"] else None

    requests = job["requests"]
    first_stdout: list[str] = []
    passes = []
    for _ in range(job["passes"]):
        results = []
        pass_start, pass_wall = CLOCK(), time.perf_counter()
        for i, argv in enumerate(requests):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.request += 1
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t, wall = CLOCK(), time.perf_counter()
                try:
                    code = lacasse.cli.main(list(argv))
                except Exception:
                    traceback.print_exc()
                    code = EXIT_CRASH
                cpu, wall = CLOCK() - t, time.perf_counter() - wall
            text = out.getvalue()
            if not passes:
                first_stdout.append(text)
            same = bool(passes) and text == first_stdout[i]
            error = err.getvalue().strip().splitlines()[-1:] if code else []
            results.append([code, None if same else text, cpu, wall, error[0][:200] if error else ""])
        passes.append(
            {"cpu_s": CLOCK() - pass_start, "wall_s": time.perf_counter() - pass_wall, "results": results}
        )

    return {
        "python": sys.version.split()[0],
        "backend": getattr(lacasse, "BACKEND_NAME", None),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
        "trace": tracer.summary() if tracer is not None else None,
    }


if __name__ == "__main__":
    report = run(json.load(sys.stdin))
    json.dump(report, sys.stdout)
