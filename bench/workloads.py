"""The benchmark's workloads: each is a list of ``lacasse`` argv lists.

The program only ever sees these argv lists; the seed, the strata and the
digest stay on the benchmark side.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

from check import value_over_limit

# README headline command; the only workload on which the brute route runs.
VERIFY_ALL = [["verify", "--from", "1", "--to", "200", "--jobs", "1"]]

# The series route used for rational display rather than integer extraction.
SERIES_TABLE = [["series", "geom", "--order", "300", "--d", "3"]]

# value-mix: one request per (quantity, n-bin) cell.  Variant j % 12 owns
# bin j, so every variant gets ten bins spread over the whole range and the
# bins a variant owns never change with the seed.  The seed only moves n
# inside its bin, which is 1/120 of the log range (under 3% in n), so it
# changes which n are drawn but barely moves the total cost.  A cell's
# answer is over the 4300-digit limit exactly when the answer at its bin's
# midpoint is, so the requests that hit that limit are the same cells, and
# as many, on every seed.
VALUE_VARIANTS = (
    [("alpha", None), ("beta", None)]
    + [("s_d", d) for d in range(1, 7)]
    + [("q", None), ("xi", None), ("xi2", None), ("diff", None)]
)
VALUE_FORMATS = ("plain", "json", "csv")
VALUE_BINS = 120
VALUE_N_LO = 100
VALUE_N_HI = 2000  # crosses the 4300-digit int-to-str limit near n = 1370


def value_mix(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    lo = math.log(VALUE_N_LO)
    width = (math.log(VALUE_N_HI) - lo) / VALUE_BINS
    requests = []
    for j in range(VALUE_BINS):
        quantity, d = VALUE_VARIANTS[j % len(VALUE_VARIANTS)]
        fmt = VALUE_FORMATS[(j // len(VALUE_VARIANTS)) % len(VALUE_FORMATS)]

        def argv(n: int) -> list[str]:
            a = ["value", quantity, str(n)]
            return a + (["--d", str(d)] if d is not None else []) + ["--format", fmt]

        n = round(math.exp(lo + (j + rng.random()) * width))
        mid = round(math.exp(lo + (j + 0.5) * width))
        over = value_over_limit(argv(mid))
        # the digit count of a reduced fraction is not monotone in n, so walk
        # from the draw towards the midpoint to the first n on its side
        step = 1 if mid > n else -1
        while value_over_limit(argv(n)) != over:
            n += step
        requests.append(argv(n))
    rng.shuffle(requests)
    return requests


# CPU seconds of one pass at the seed commit (2-core shared x86-64 VM,
# Python 3.11.7, py backend); a run makes --seconds / PASS_S passes.
PASS_S = {"verify-all": 6.0, "series-table": 6.0, "value-mix": 6.5}

WORKLOADS = {
    "verify-all": lambda seed: [list(a) for a in VERIFY_ALL],
    "series-table": lambda seed: [list(a) for a in SERIES_TABLE],
    "value-mix": value_mix,
}


def build(name: str, seed: int) -> list[list[str]]:
    return WORKLOADS[name](seed)


def digest(requests: list[list[str]]) -> str:
    return hashlib.sha256(json.dumps(requests).encode()).hexdigest()[:16]
