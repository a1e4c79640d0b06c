"""Independent output checker for the benchmark's requests.

Every expected value is computed here from its own formula, never through
``lacasse``: the closed sums are evaluated by Horner's rule over the
falling factorials (the package accumulates forwards), Q comes from
alpha = n^n (1 + Q), and diff is n^(n+1).  ``self_test`` pins these
formulas against definitional brute-force sums at small n.

The checker runs in the benchmark's own process, which lifts the
int-to-str digit limit for itself.  The request process keeps the default
limit, so the package's large-n defect stays visible there.

Run ``python3 bench/check.py`` to run the self-test alone.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial

INT_STR_LIMIT = 4300  # CPython's default int-to-str digit limit


def s_d(n: int, d: int) -> int:
    """sum_i n!/(n-i)! C(i+d-2, d-2) n^(n-i), by Horner's rule in i."""
    if d == 1:
        return n**n
    acc = 0
    power = 1  # n^(n-i)
    for i in range(n, -1, -1):
        acc = comb(i + d - 2, d - 2) * power + (n - i) * acc
        power *= n
    return acc


@lru_cache(maxsize=None)
def value_of(quantity: str, n: int, d: int | None):
    """The exact value ``lacasse value <quantity> <n> [--d d]`` must print."""
    if quantity == "alpha":
        return s_d(n, 2)
    if quantity == "beta":
        return s_d(n, 3)
    if quantity == "s_d":
        return s_d(n, d)
    if quantity == "diff":
        return n ** (n + 1)
    nn = n**n
    if quantity == "q":
        return Fraction(s_d(n, 2) - nn, nn)
    if quantity == "xi":
        return Fraction(s_d(n, 2), nn)
    if quantity == "xi2":
        return Fraction(s_d(n, 3), nn)
    raise ValueError(f"unknown quantity {quantity!r}")


def _digits(value) -> int:
    parts = (value.numerator, value.denominator) if isinstance(value, Fraction) else (value,)
    return max(len(str(abs(p))) for p in parts)


def _parse_value_argv(argv: list[str]) -> tuple[str, int, int | None, str]:
    quantity, n = argv[1], int(argv[2])
    d = int(argv[argv.index("--d") + 1]) if "--d" in argv else 2
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "plain"
    return quantity, n, (d if quantity == "s_d" else None), fmt


def expected_value_stdout(argv: list[str]) -> str:
    quantity, n, d, fmt = _parse_value_argv(argv)
    text = str(value_of(quantity, n, d))
    if fmt == "plain":
        return text + "\n"
    if fmt == "json":
        record = {"n": n, "quantity": quantity, "d": d, "value": text, "passed": None, "routes": None}
        return json.dumps(record) + "\n"
    d_field = "" if d is None else str(d)
    return f'n,quantity,d,value,passed\n"{n}","{quantity}","{d_field}","{text}",""\n'


def value_over_limit(argv: list[str]) -> bool:
    """True when the exact answer has a part longer than the int-to-str limit."""
    quantity, n, d, _ = _parse_value_argv(argv)
    return _digits(value_of(quantity, n, d)) > INT_STR_LIMIT


_VERIFY_LINE = re.compile(
    r"n=(\d+) alpha=(\d+) beta=(\d+) diff=(\d+) expected=(\d+) routes=(\S+) (PASS|FAIL)"
)


def check_verify(argv: list[str], stdout: str) -> str | None:
    first = int(argv[argv.index("--from") + 1])
    last = int(argv[argv.index("--to") + 1])
    lines = stdout.split("\n")
    if lines[-1] != "":
        return "output does not end with a newline"
    records, summary = lines[:-2], lines[-2]
    if len(records) != last - first + 1:
        return f"{len(records)} records for {last - first + 1} values of n"
    for n, line in zip(range(first, last + 1), records):
        m = _VERIFY_LINE.fullmatch(line)
        if m is None:
            return f"unparsable record for n={n}: {line[:80]!r}"
        rn, alpha, beta, diff, expected = (int(g) for g in m.groups()[:5])
        if rn != n:
            return f"record for n={rn} where n={n} was due"
        if m.group(6) != "closed,brute,series" or m.group(7) != "PASS":
            return f"n={n}: routes={m.group(6)} {m.group(7)}"
        if not beta - alpha == diff == expected == n ** (n + 1):
            return f"n={n}: beta - alpha, diff, expected and n^(n+1) differ"
        if alpha != s_d(n, 2) or beta != s_d(n, 3):
            return f"n={n}: alpha or beta is wrong"
    count = last - first + 1
    if summary != f"verify [{first},{last}]: {count}/{count} passed":
        return f"summary reads {summary!r}"
    return None


def check_series(argv: list[str], stdout: str) -> str | None:
    order = int(argv[argv.index("--order") + 1])
    d = int(argv[argv.index("--d") + 1]) if "--d" in argv else 2
    lines = stdout.split("\n")
    if lines[-1] != "" or len(lines) != order + 2:
        return f"{len(lines) - 1} rows for order {order}"
    for m, line in enumerate(lines[:-1]):
        egf = s_d(m, d)
        want = f"{m} {Fraction(egf, factorial(m))} {egf}"
        if line != want:
            return f"row {m} reads {line[:80]!r}"
    return None


def check_value(argv: list[str], stdout: str) -> str | None:
    if stdout != expected_value_stdout(argv):
        return f"value output differs: {stdout[:80]!r}"
    return None


CHECKERS = {"verify": check_verify, "series": check_series, "value": check_value}


def check(argv: list[str], code: int, stdout: str) -> str | None:
    """None when the request succeeded with correct output, else the reason it failed."""
    if code != 0:
        return f"exit {code}"
    return CHECKERS[argv[0]](argv, stdout)


def _brute_s_d(n: int, d: int) -> int:
    # the definitional weak-composition sum, 0^0 == 1
    total = 0
    for parts in product(range(n + 1), repeat=d):
        if sum(parts) == n:
            w = factorial(n)
            for k in parts:
                w = w // factorial(k) * k**k
            total += w
    return total


def self_test() -> None:
    """Raise AssertionError unless the formulas and the failure accounting hold."""
    for n in range(0, 7):
        for d in range(1, 5):
            if s_d(n, d) != _brute_s_d(n, d):
                raise AssertionError(f"s_d({n},{d}) disagrees with brute force")
    for n in range(1, 30):
        q = sum(Fraction(factorial(n), factorial(n - k) * n**k) for k in range(1, n + 1))
        if value_of("q", n, None) != q or s_d(n, 3) - s_d(n, 2) != n ** (n + 1):
            raise AssertionError(f"Q or the identity fails at n={n}")

    verify = ["verify", "--from", "1", "--to", "3"]
    series = ["series", "geom", "--order", "4", "--d", "3"]
    cases = [
        (["value", "alpha", "12", "--format", "json"], None),
        (["value", "q", "9", "--format", "csv"], None),
        (
            verify,
            "".join(
                f"n={n} alpha={s_d(n, 2)} beta={s_d(n, 3)} diff={n ** (n + 1)} "
                f"expected={n ** (n + 1)} routes=closed,brute,series PASS\n"
                for n in range(1, 4)
            )
            + "verify [1,3]: 3/3 passed\n",
        ),
        (
            series,
            "".join(f"{m} {Fraction(s_d(m, 3), factorial(m))} {s_d(m, 3)}\n" for m in range(5)),
        ),
    ]
    for argv, out in cases:
        out = out if out is not None else expected_value_stdout(argv)
        if check(argv, 0, out) is not None:
            raise AssertionError(f"correct output rejected: {check(argv, 0, out)}")
        if check(argv, 2, out) is None:
            raise AssertionError(f"a nonzero exit counted as success for {argv}")
        longest = max(re.finditer(r"\d+", out), key=lambda m: len(m.group()))
        i = (longest.start() + longest.end()) // 2
        corrupted = out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1 :]
        if check(argv, 0, corrupted) is None:
            raise AssertionError(f"a one-digit corruption passed the check for {argv}")
    if not value_over_limit(["value", "diff", "1400"]) or value_over_limit(["value", "diff", "1300"]):
        raise AssertionError("over-limit accounting is off")


if __name__ == "__main__":
    import sys

    sys.set_int_max_str_digits(0)
    self_test()
    print("checker self-test passed")
