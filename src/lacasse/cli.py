"""Command-line interface.

Subcommands: ``value`` (one exact quantity), ``verify`` (the identity over a
range, machine-readable, parallelizable), ``series`` (coefficient tables),
``bench`` (route timings).

Exit codes: 0 success, 1 verification failure (an arithmetic bug, the
identity being a theorem), 2 usage or domain error, or an input past the
memory at hand, with one line on stderr, 70 (EX_SOFTWARE) an
internal fault that escaped ``main``, 130 (128 + SIGINT) an interrupt,
with one line on stderr, 141 (128 + SIGPIPE) a reader that closed stdout
early, with nothing on stderr.  Exact values print as full decimal
strings, rationals as p/q; never scientific notation.
The canonical argv forms (the subcommand, its positionals, then each flag
at most once, spelt out in full and followed by its value) are read
without ``argparse``; only ``--help``, a usage error and any other form,
such as ``--flag=value`` or an option before a positional, load it.
Only ``--format json`` loads ``json``, only ``--format csv`` loads ``csv``,
and only a crash loads ``traceback``.  Ints of any size print by
``exact_str``'s split at powers of ten, which loads no module and never
reads or changes Python's int-to-str digit limit (from Python 3.12 the
``divmod`` of an int past about 6,150 digits loads ``decimal`` inside
CPython's ``_pylong``); a rational (``q``, ``xi``, ``xi2``, ``series``)
and ``bench``, through ``statistics``, load ``decimal`` with
``fractions``.
"""

import os
import sys
import time
from types import SimpleNamespace

from . import identity
from .identity import DomainError, exact_str

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


# The one CLI grammar, read by build_parser and by _parse_fast.  Per
# subcommand: its help line, its handler and its arguments in the order
# argparse adds them, each as (name, the keywords of add_argument).  An
# option's name is its flag, and its keywords give its dest; a positional's
# name is its dest.
_FORMAT_OPTION = ("--format", dict(dest="format", choices=FORMATS, default="plain"))
_GRAMMAR = {
    "value": ("print one exact quantity", cmd_value, [
        ("quantity", dict(choices=VALUE_QUANTITIES)),
        ("n", dict(type=int)),
        ("--d", dict(dest="d", type=int, default=2,
                     help="part count for s_d (default %(default)s)")),
        _FORMAT_OPTION,
    ]),
    "verify": ("verify the identity over a range of n", cmd_verify, [
        ("--from", dict(dest="from_", type=int, required=True, metavar="N")),
        ("--to", dict(dest="to", type=int, required=True, metavar="N")),
        ("--routes", dict(dest="routes", default=",".join(identity.ALL_ROUTES),
                          help="comma-separated subset of %(default)s (closed is always on)")),
        ("--jobs", dict(dest="jobs", type=int, default=1,
                        help="parallel workers (default %(default)s)")),
        ("--brute-cutoff", dict(dest="brute_cutoff", type=int,
                                default=identity.DEFAULT_BRUTE_CUTOFF,
                                help="max enumeration terms before the brute route is dropped")),
        _FORMAT_OPTION,
    ]),
    "series": ("print series coefficient tables", cmd_series, [
        ("which", dict(choices=("tree", "geom"))),
        ("--order", dict(dest="order", type=int, required=True)),
        ("--d", dict(dest="d", type=int, default=2, help="power for geom (default %(default)s)")),
        _FORMAT_OPTION,
    ]),
    "bench": ("time the closed/series/brute routes", cmd_bench, [
        ("--n-max", dict(dest="n_max", type=int, default=20)),
        ("--d", dict(dest="d", type=int, default=2)),
        ("--repetitions", dict(dest="repetitions", type=int, default=3)),
        _FORMAT_OPTION,
    ]),
}


def build_parser():
    import argparse  # only --help, a usage error or a form _parse_fast declines needs it

    parser = argparse.ArgumentParser(
        prog="lacasse",
        description=(
            "Exact computation and verification of the Lacasse identity "
            "beta(n) - alpha(n) = n^(n+1) via closed forms, brute-force "
            "enumeration, and tree-function series."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, func, arguments) in _GRAMMAR.items():
        p = sub.add_parser(command, help=help_line)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
        p.set_defaults(func=func)
    return parser


def _parse_fast(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would make of ``argv``, read without argparse,
    when ``argv`` has the canonical form: the exact subcommand, its
    positionals in order, then exact flags, each at most once and followed
    by one value, with every required flag present.  None for any other
    form, and for a value that int() or the choices reject, so argparse
    parses it and prints its help or usage error."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, func, arguments = _GRAMMAR[argv[0]]
    positionals = [arg for arg in arguments if arg[0][0] != "-"]
    options = {arg[0]: arg for arg in arguments if arg[0][0] == "-"}
    k = len(positionals)
    tokens, flags, values = argv[1 : k + 1], argv[k + 1 :: 2], argv[k + 2 :: 2]
    if len(tokens) < k or len(flags) != len(values) or len(set(flags)) < len(flags):
        return None
    if not options.keys() >= set(flags):  # an unknown flag, abbreviated or with =value
        return None
    parsed = {"command": argv[0], "func": func}
    for (name, keywords), token in [*zip(positionals, tokens),
                                    *zip(map(options.get, flags), values)]:
        if token.startswith("-"):  # argparse reads -1 as a value, -x as a flag
            return None
        if "type" in keywords:
            try:
                token = keywords["type"](token)
            except ValueError:
                return None
        if "choices" in keywords and token not in keywords["choices"]:
            return None
        parsed[keywords.get("dest", name)] = token
    for flag, (_, keywords) in options.items():
        if flag not in flags:
            if keywords.get("required"):
                return None
            parsed[keywords["dest"]] = keywords.get("default")
    return SimpleNamespace(**parsed)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_fast(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
    except MemoryError:  # an input past this machine's memory, not a bug
        print(f"error: out of memory computing {args.command}", file=sys.stderr)
        return EXIT_USAGE


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
