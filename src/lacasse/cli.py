"""Command-line interface.

Subcommands: ``value`` (one exact quantity), ``verify`` (the identity over a
range, machine-readable, parallelizable), ``series`` (coefficient tables),
``bench`` (route timings).

Exit codes: 0 success, 1 verification failure (an arithmetic bug, the
identity being a theorem), 2 usage or domain error, 70 (EX_SOFTWARE) an
internal fault that escaped ``main``, 130 (128 + SIGINT) an interrupt,
with one line on stderr, 141 (128 + SIGPIPE) a reader that closed stdout
early, with nothing on stderr.  Exact values print as full decimal
strings, rationals as p/q; never scientific notation.
Only ``--format json`` loads ``json``, only ``--format csv`` loads ``csv``,
and only a crash loads ``traceback``.  Ints of any size print by
``exact_str``'s split at powers of ten, which loads no module and never
reads or changes Python's int-to-str digit limit (from Python 3.12 the
``divmod`` of an int past about 6,150 digits loads ``decimal`` inside
CPython's ``_pylong``); a rational (``q``, ``xi``, ``xi2``, ``series``)
and ``bench``, through ``statistics``, load ``decimal`` with
``fractions``.
"""

import argparse
import os
import sys
import time
from functools import cache

from . import identity
from .exact import DomainError, exact_str

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CRASH = 70
EXIT_INTERRUPT = 130
EXIT_PIPE = 141

FORMATS = ("plain", "json", "csv")
VALUE_QUANTITIES = ("alpha", "beta", "s_d", "q", "xi", "xi2", "diff")
CSV_FIELDS = ("n", "quantity", "d", "value", "passed")


def _row(n, quantity, d, value, passed=None, routes=None, **extra) -> dict:
    """One row of value, verify or series: its JSON object, keys in output order."""
    return dict(n=n, quantity=quantity, d=d, value=value, passed=passed, routes=routes, **extra)


def _cell(x):
    # csv writes None as "" and an int as str(); booleans and the bench
    # medians print in the form every CSV row of this CLI uses
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.6f}"
    return x


def _emit(fmt: str, rows, plain, fields=CSV_FIELDS, after=()) -> None:
    """Write each row as it is drawn: its ``plain`` line, JSON object or CSV ``fields``.

    Then each line of ``after``: to stdout under ``plain``, and to stderr
    otherwise, so JSON and CSV stdout stay pure.  Every DomainError and
    ConsistencyError is raised before the first row, so exits 1 and 2 leave
    stdout empty; only an internal crash (exit 70) can leave rows on it.
    """
    out = sys.stdout
    if fmt == "plain":
        for row in rows:
            out.write(plain(row) + "\n")
    elif fmt == "json":
        import json

        for row in rows:
            out.write(json.dumps(row) + "\n")
    else:
        import csv

        out.write(",".join(fields) + "\n")
        writer = csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\n")
        for row in rows:
            writer.writerow([_cell(row[field]) for field in fields])
    for line in after:
        print(line, file=out if fmt == "plain" else sys.stderr)


def _parse_routes(raw: str) -> tuple[str, ...]:
    labels = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not labels:
        raise DomainError("at least one route is required")
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
    _emit(args.format, [_row(n, quantity, d, exact_str(value))], lambda r: r["value"])
    return EXIT_OK


def cmd_verify(args) -> int:
    routes = _parse_routes(args.routes)
    reports = identity.verify_range(
        args.from_, args.to, routes=routes, cutoff=args.brute_cutoff, jobs=args.jobs
    )

    def rows():
        for rep in reports:
            diff = exact_str(rep.difference)  # a passed report's expected is the same int
            expected = diff if rep.expected == rep.difference else exact_str(rep.expected)
            yield _row(rep.n, "diff", None, diff, rep.passed, rep.routes_compared,
                       alpha=exact_str(rep.alpha), beta=exact_str(rep.beta), expected=expected)

    failed = sum(1 for rep in reports if not rep.passed)
    summary = f"verify [{args.from_},{args.to}]: {len(reports) - failed}/{len(reports)} passed"
    _emit(args.format, rows(), lambda r: (
        f"n={r['n']} alpha={r['alpha']} beta={r['beta']} diff={r['value']} "
        f"expected={r['expected']} routes={','.join(r['routes'])} "
        f"{'PASS' if r['passed'] else 'FAIL'}"
    ), after=[summary])
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_series(args) -> int:
    from fractions import Fraction  # the only command that builds its own rationals

    order = args.order
    if args.which == "geom" and args.d < 1:  # before the tree, seconds at large order
        raise DomainError(f"geom_power requires d >= 1, got {args.d}")
    d = None if args.which == "tree" else args.d
    tree = identity.tree_series(order)
    s = identity.geom_power(tree, d) if d else tree

    def rows():
        f = 1  # m!, the only division out of the n!-scaled vector
        for m in range(order + 1):
            if m:
                f *= m
            e = s[m]
            yield _row(m, args.which, d, exact_str(Fraction(e, f)), egf=exact_str(e))

    _emit(args.format, rows(), lambda r: f"{r['n']} {r['value']} {r['egf']}")
    return EXIT_OK


def cmd_bench(args) -> int:
    import statistics  # only bench times anything

    if args.repetitions < 1:
        raise DomainError(f"repetitions must be >= 1, got {args.repetitions}")
    if args.n_max < 1:
        raise DomainError(f"n-max must be >= 1, got {args.n_max}")
    n_max, d = args.n_max, args.d
    rows = []
    tables = {}
    for route in ("closed", "series", "brute"):  # closed first: s_d_closed rejects a bad d
        times = []
        for _ in range(args.repetitions):
            t0 = time.perf_counter()
            tables[route] = identity.route_table(route, 1, n_max, (d,))
            times.append(time.perf_counter() - t0)
        rows.append(dict(route=route, median_seconds=statistics.median(times), n_max=n_max, d=d,
                         repetitions=args.repetitions))
    closed = tables["closed"]
    agree = all(row == closed[n] for table in tables.values() for n, row in table.items())
    after = [f"values agree across routes: {'yes' if agree else 'NO'}"]
    if args.format == "json":
        rows.append({"values_agree": agree})
        after = []
    elif args.format == "plain":
        print(f"s_d benchmark: d={d}, n=1..{n_max}, {args.repetitions} repetition(s), "
              "median wall times")
        if not tables["brute"]:
            after.append("note: brute-force route admitted no n at this cutoff")
    _emit(args.format, rows, lambda r: f"  {r['route']:<6}  {r['median_seconds']:.6f}s",
          fields=("route", "median_seconds"), after=after)
    return EXIT_OK


@cache  # built on the first main call, then reused: parsing leaves it unchanged
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
    p_value.add_argument("--d", type=int, default=2,
                         help="part count for s_d (default %(default)s)")
    p_value.set_defaults(func=cmd_value)

    p_verify = sub.add_parser("verify", help="verify the identity over a range of n")
    p_verify.add_argument("--from", dest="from_", type=int, required=True, metavar="N")
    p_verify.add_argument("--to", type=int, required=True, metavar="N")
    p_verify.add_argument(
        "--routes",
        default=",".join(identity.ALL_ROUTES),
        help="comma-separated subset of %(default)s (closed is always on)",
    )
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="parallel workers (default %(default)s)")
    p_verify.add_argument(
        "--brute-cutoff",
        type=int,
        default=identity.DEFAULT_BRUTE_CUTOFF,
        help="max enumeration terms before the brute route is dropped",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_series = sub.add_parser("series", help="print series coefficient tables")
    p_series.add_argument("which", choices=("tree", "geom"))
    p_series.add_argument("--order", type=int, required=True)
    p_series.add_argument("--d", type=int, default=2, help="power for geom (default %(default)s)")
    p_series.set_defaults(func=cmd_series)

    p_bench = sub.add_parser("bench", help="time the closed/series/brute routes")
    p_bench.add_argument("--n-max", type=int, default=20)
    p_bench.add_argument("--d", type=int, default=2)
    p_bench.add_argument("--repetitions", type=int, default=3)
    p_bench.set_defaults(func=cmd_bench)

    for p in (p_value, p_verify, p_series, p_bench):  # last in each --help
        p.add_argument("--format", choices=FORMATS, default="plain")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except identity.ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


def main_entry() -> None:
    # a crash must not exit 1, which means the identity check failed
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # a reader that stops early is normal use; the rest goes to devnull,
        # so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    except KeyboardInterrupt:  # Ctrl-C is normal use too
        print("interrupted", file=sys.stderr)
        code = EXIT_INTERRUPT
    except Exception:
        import traceback  # only a crash prints one

        traceback.print_exc()
        code = EXIT_CRASH
    sys.exit(code)
