"""Command-line interface.

Subcommands: ``value`` (one exact quantity), ``verify`` (the identity over a
range, machine-readable, parallelizable), ``series`` (coefficient tables),
``bench`` (route timings).

Exit codes: 0 success, 1 verification failure (an arithmetic bug, the
identity being a theorem), 2 usage or domain error.  Exact values print as
full decimal strings, rationals as p/q; never scientific notation.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from . import identity
from . import series as series_mod

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

FORMATS = ("plain", "json", "csv")
VALUE_QUANTITIES = ("alpha", "beta", "s_d", "q", "xi", "xi2", "diff")
CSV_HEADER = "n,quantity,d,value,passed"


@dataclass
class Record:
    """One output row; renders identically-valued fields in every format."""

    n: int
    quantity: str
    d: int | None
    value: str
    passed: bool | None = None
    routes: tuple[str, ...] | None = None
    extra: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        obj = {
            "n": self.n,
            "quantity": self.quantity,
            "d": self.d,
            "value": self.value,
            "passed": self.passed,
            "routes": list(self.routes) if self.routes is not None else None,
        }
        obj.update(self.extra)
        return json.dumps(obj)

    def to_csv_row(self) -> list[str]:
        return [
            str(self.n),
            self.quantity,
            "" if self.d is None else str(self.d),
            self.value,
            "" if self.passed is None else ("true" if self.passed else "false"),
        ]


def _exact_str(x: int | Fraction) -> str:
    """Full decimal digits of an int, or ``p/q`` of a Fraction, at any size.

    ``str(int)`` refuses ints longer than ``sys.get_int_max_str_digits()``
    (4300 digits by default from Python 3.11 on); ``Decimal`` prints the
    same digits with no such limit, and leaves the process-wide limit alone.
    """
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return _exact_str(x.numerator)
        return f"{_exact_str(x.numerator)}/{_exact_str(x.denominator)}"
    return str(Decimal(x))


def _emit(records: list[Record], fmt: str, plain_lines: list[str], out=None) -> None:
    out = out if out is not None else sys.stdout
    if fmt == "plain":
        for line in plain_lines:
            out.write(line + "\n")
    elif fmt == "json":
        for rec in records:
            out.write(rec.to_json() + "\n")
    else:
        out.write(CSV_HEADER + "\n")
        writer = csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\n")
        for rec in records:
            writer.writerow(rec.to_csv_row())


def _parse_routes(raw: str) -> tuple[str, ...]:
    labels = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not labels:
        raise ValueError("at least one route is required")
    return labels  # validated by identity._normalize_routes


def cmd_value(args) -> int:
    quantity = args.quantity
    n = args.n
    d = args.d if quantity == "s_d" else None
    compute = {
        "alpha": identity.alpha_closed,
        "beta": identity.beta_closed,
        "q": identity.ramanujan_q,
        "xi": identity.xi,
        "xi2": identity.xi2,
        "diff": identity.telescoping_difference,
    }
    value = identity.s_d_closed(n, d) if quantity == "s_d" else compute[quantity](n)
    text = _exact_str(value)
    rec = Record(n=n, quantity=quantity, d=d, value=text)
    _emit([rec], args.format, [text])
    return EXIT_OK


def cmd_verify(args) -> int:
    routes = _parse_routes(args.routes)
    reports = identity.verify_range(
        args.from_, args.to, routes=routes, cutoff=args.brute_cutoff, jobs=args.jobs
    )
    records = []
    plain_lines = []
    for rep in reports:
        alpha, beta = _exact_str(rep.alpha), _exact_str(rep.beta)
        diff, expected = _exact_str(rep.difference), _exact_str(rep.expected)
        records.append(
            Record(
                n=rep.n,
                quantity="diff",
                d=None,
                value=diff,
                passed=rep.passed,
                routes=rep.routes_compared,
                extra={"alpha": alpha, "beta": beta, "expected": expected},
            )
        )
        plain_lines.append(
            f"n={rep.n} alpha={alpha} beta={beta} diff={diff} "
            f"expected={expected} routes={','.join(rep.routes_compared)} "
            f"{'PASS' if rep.passed else 'FAIL'}"
        )
    failed = sum(1 for rep in reports if not rep.passed)
    summary = (
        f"verify [{args.from_},{args.to}]: {len(reports) - failed}/{len(reports)} passed"
    )
    if args.format == "plain":
        plain_lines.append(summary)
        _emit(records, args.format, plain_lines)
    else:
        _emit(records, args.format, plain_lines)
        print(summary, file=sys.stderr)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_series(args) -> int:
    order = args.order
    tree = series_mod.tree_series(order)
    if args.which == "tree":
        label, d, s = "tree", None, tree
    else:
        label, d = "geom", args.d
        s = series_mod.geom_power(tree, args.d, order)
    records = []
    plain_lines = []
    for m in range(order + 1):
        coeff = _exact_str(s[m])
        egf = _exact_str(series_mod.egf_coeff(s, m))
        records.append(Record(n=m, quantity=label, d=d, value=coeff, extra={"egf": egf}))
        plain_lines.append(f"{m} {coeff} {egf}")
    _emit(records, args.format, plain_lines)
    return EXIT_OK


def _median_time(fn, repetitions: int) -> tuple[float, object]:
    times = []
    result = None
    for _ in range(repetitions):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def cmd_bench(args) -> int:
    if args.repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {args.repetitions}")
    if args.n_max < 1:
        raise ValueError(f"n-max must be >= 1, got {args.n_max}")
    n_max, d = args.n_max, args.d
    admitted = [n for n in range(1, n_max + 1) if identity.brute_force_admitted(n, d)]

    def run_closed():
        return [identity.s_d_closed(n, d) for n in range(1, n_max + 1)]

    def run_series():
        t = series_mod.tree_series(n_max)
        p = series_mod.geom_power(t, d, n_max)
        return [series_mod.egf_coeff(p, n).numerator for n in range(1, n_max + 1)]

    def run_brute():
        return [identity.xi_scaled_brute(n, d) for n in admitted]

    rows = []
    values = {}
    for route, fn in (("closed", run_closed), ("series", run_series), ("brute", run_brute)):
        median, result = _median_time(fn, args.repetitions)
        rows.append((route, "py", median))  # the backend field keeps the row schema
        values[route] = result
    agree = values["closed"] == values["series"] and all(
        values["brute"][i] == values["closed"][n - 1] for i, n in enumerate(admitted)
    )

    if args.format == "json":
        for route, name, median in rows:
            print(
                json.dumps(
                    {
                        "route": route,
                        "backend": name,
                        "median_seconds": median,
                        "n_max": n_max,
                        "d": d,
                        "repetitions": args.repetitions,
                    }
                )
            )
        print(json.dumps({"values_agree": agree}))
    elif args.format == "csv":
        print("route,backend,median_seconds")
        writer = csv.writer(sys.stdout, quoting=csv.QUOTE_ALL, lineterminator="\n")
        for route, name, median in rows:
            writer.writerow([route, name, f"{median:.6f}"])
    else:
        print(f"s_d benchmark: d={d}, n=1..{n_max}, {args.repetitions} repetition(s), median wall times")
        width = max(len(r[0]) for r in rows)
        for route, name, median in rows:
            print(f"  {route:<{width}}  backend={name:<3}  {median:.6f}s")
        print(f"values agree across routes: {'yes' if agree else 'NO'}")
        if not admitted:
            print("note: brute-force route admitted no n at this cutoff")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lacasse",
        description=(
            "Exact computation and verification of the Lacasse identity "
            "beta(n) - alpha(n) = n^(n+1) via closed forms, brute-force "
            "enumeration, and tree-function series."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser("value", help="print one exact quantity")
    p_value.add_argument("quantity", choices=VALUE_QUANTITIES)
    p_value.add_argument("n", type=int)
    p_value.add_argument("--d", type=int, default=2, help="part count for s_d (default 2)")
    p_value.add_argument("--format", choices=FORMATS, default="plain")
    p_value.set_defaults(func=cmd_value)

    p_verify = sub.add_parser("verify", help="verify the identity over a range of n")
    p_verify.add_argument("--from", dest="from_", type=int, required=True, metavar="N")
    p_verify.add_argument("--to", type=int, required=True, metavar="N")
    p_verify.add_argument(
        "--routes",
        default="closed,brute,series",
        help="comma-separated subset of closed,brute,series (closed is always on)",
    )
    p_verify.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")
    p_verify.add_argument(
        "--brute-cutoff",
        type=int,
        default=identity.DEFAULT_BRUTE_CUTOFF,
        help="max enumeration terms before the brute route is dropped",
    )
    p_verify.add_argument("--format", choices=FORMATS, default="plain")
    p_verify.set_defaults(func=cmd_verify)

    p_series = sub.add_parser("series", help="print series coefficient tables")
    p_series.add_argument("which", choices=("tree", "geom"))
    p_series.add_argument("--order", type=int, required=True)
    p_series.add_argument("--d", type=int, default=2, help="power for geom (default 2)")
    p_series.add_argument("--format", choices=FORMATS, default="plain")
    p_series.set_defaults(func=cmd_series)

    p_bench = sub.add_parser("bench", help="time the closed/series/brute routes")
    p_bench.add_argument("--n-max", type=int, default=20)
    p_bench.add_argument("--d", type=int, default=2)
    p_bench.add_argument("--repetitions", type=int, default=3)
    p_bench.add_argument("--format", choices=FORMATS, default="plain")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        identity.RouteDisagreementError,
        identity.IdentityFailureError,
        series_mod.ConsistencyError,
    ) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
