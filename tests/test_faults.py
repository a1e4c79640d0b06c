"""Every verification failure the tests inject, as one table.

The identity is a theorem (Prodinger, arXiv 1301.3669), so ``verify`` can
only fail through an arithmetic bug.  Each row of ``FAULTS`` is one such
bug: the function it rebinds, a factory from the real function to the
broken one, the command that must then exit 1, and the one line it prints
on stderr.  One test per surface reads every row: the CLI in-process, the
library and the route tables.  test_cli.py runs two rows through the real
process pool and one through ``bench``.  A new route function adds a row.
"""

import sys
from collections.abc import Callable
from decimal import Decimal
from functools import partial
from typing import NamedTuple

import pytest

from lacasse import cli, identity, series
from lacasse.identity import IdentityFailureError, RouteDisagreementError
from lacasse.series import ConsistencyError

PREFIX = "verification failure: "


class Fault(NamedTuple):
    site: str  # "module.function" in lacasse
    factory: Callable  # real -> broken
    command: str
    line: str  # stderr's one line, or its start when ``tail`` checks the rest
    route: str  # the one route whose table the fault changes
    error: type = ConsistencyError  # the exact class the library raises
    attrs: dict = {}  # and the attributes it carries
    tail: Callable | None = None

    def install(self, rebind=setattr):  # a test passes monkeypatch.setattr, to undo it
        module, name = self.site.split(".")
        module = sys.modules[f"lacasse.{module}"]
        rebind(module, name, self.factory(getattr(module, name)))


def sweep_fault(real, n, d):
    # comp_power_sum with its s_d one too large at n
    def broken(first, last, top):
        rounds = real(first, last, top)
        rounds[d - 1][n - first] += 1
        return rounds

    return broken


def entry_fault(real, index, row=None):
    # entry ``index`` one too large: of the list real returns, or of its list ``row``
    def broken(*args, **kwargs):
        out = real(*args, **kwargs)
        (out if row is None else out[row])[index] += 1
        return out

    return broken


def disagreement(route, quantity, n, value, first=1):
    """``route`` reads one more than the closed forms' ``value`` of ``quantity`` at n."""
    d = {"alpha": 2, "beta": 3}[quantity]
    if route == "brute":
        site, factory = "kernels.comp_power_sum", partial(sweep_fault, n=n, d=d)
    else:  # verify's series beta and alpha are the top and lower rows of one pass
        site, factory = "kernels.egf_geom_power", partial(entry_fault, index=n, row=3 - d)
    line = (f"{PREFIX}routes 'closed' and {route!r} disagree on {quantity}({n}): "
            f"{value} vs {value + 1}\n")
    attrs = dict(n=n, quantity=quantity, routes=("closed", route), values=(value, value + 1))
    command = f"verify --from {first} --to 8"
    return Fault(site, factory, command, line, route, RouteDisagreementError, attrs)


def cayley_stand_in(real):
    # at order 1700 the fixed point takes seconds: the formula stands in for
    # it, its last entry one too large
    return lambda order: [0] + [n ** (n - 1) for n in range(1, order)] + [order**(order - 1) + 1]


# The telescoping faults reach the splitting that alpha and beta share.  One
# weight n - k off by one breaks t + f == n^(b-k) at that Horner step.  A sum
# one term short still keeps every block's invariant, so only the root
# comparison with n^(n+1) can catch it.
def middle_weight_fault(real):
    def broken(n, weights, certify=False):
        weights = list(weights)
        weights[len(weights) // 2] += 1
        return real(n, weights, certify)

    return broken


def diff_fault(n, message, factory=middle_weight_fault, tail=None):
    line = PREFIX + message
    return Fault("identity._falling_sum", factory, f"value diff {n}", line, "closed", tail=tail)


FAULTS = {
    # from 3, an n read off the sweep at the wrong offset would miss n = 5
    "brute-alpha-5-from-1": disagreement("brute", "alpha", 5, 10970),
    "brute-alpha-5-from-3": disagreement("brute", "alpha", 5, 10970, first=3),
    "brute-beta-5-from-1": disagreement("brute", "beta", 5, 26595),
    "brute-beta-5-from-3": disagreement("brute", "beta", 5, 26595, first=3),
    "series-alpha-4": disagreement("series", "alpha", 4, 824),
    "series-beta-4": disagreement("series", "beta", 4, 1848),
    "tree-3": Fault(
        "kernels.tree_egf", partial(entry_fault, index=3), "verify --from 1 --to 8",
        PREFIX + "tree series constructions disagree at z^3: formula 9, fixed point 10\n",
        "series",
    ),
    # past the 4300-digit int-to-str limit, a message must still quote its
    # values in full: the run exits 1, a verification failure, not 70, a crash
    "tree-1700": Fault(
        "kernels.tree_egf", cayley_stand_in, "series tree --order 1700",
        PREFIX + "tree series constructions disagree at z^1700: formula ", "series",
        tail=lambda rest: [Decimal(x) for x in rest.split(", fixed point ")]
        == [1700**1699, 1700**1699 + 1],  # 5489 digits each
    ),
    # the closed beta reads back as the closed alpha
    "identity-2000": Fault(
        "identity.s_d_closed", lambda real: lambda n, d: real(n, 2 if d == 3 else d),
        "verify --from 2000 --to 2000 --routes closed",
        PREFIX + "beta(2000) - alpha(2000) = 0 != n^(n+1) = ",
        "closed", IdentityFailureError, dict(n=2000, difference=0, expected=2000**2001),
        tail=lambda rest: Decimal(rest) == 2000**2001,  # 6606 digits
    ),
    "diff-2": diff_fault(
        2, "telescoping sum at n=2 is 4, expected n^(n+1) = 8\n",
        lambda real: lambda n, weights, certify=False: real(n, weights[:-1], certify)),
    # weights 3, 2, 2, 0: from j = 3, (t, f) = (0, 3), then (6, 6)
    "diff-3": diff_fault(3, "telescoping cancellation broke at n=3, k=2: 12 != n^2 = 9\n"),
    "diff-5": diff_fault(5, "telescoping cancellation broke at n=5, k=3: 145 != n^3 = 125\n"),
    "diff-10": diff_fault(
        10, "telescoping cancellation broke at n=10, k=5: 1030240 != n^6 = 1000000\n"),
    # caught at a step of a Horner block of at most 64 terms: its ints have 205 digits
    "diff-2000": diff_fault(
        2000, "telescoping cancellation broke at n=2000, k=1000: ",
        tail=lambda rest: Decimal(rest.split(" != n^62 = ")[1]) == 2000**62,
    ),
}


def assert_reported(fault, code, out, err):
    """Exit 1, nothing on stdout, and the row's one line on stderr."""
    assert (code, out) == (1, ""), err
    assert err.startswith(fault.line) and err.count("\n") == 1 and err.endswith("\n"), err
    if fault.tail is not None:
        assert fault.tail(err[len(fault.line) : -1]), err


@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS)
def test_cli_exits_1_with_the_rows_line(monkeypatch, capsys, fault):
    fault.install(monkeypatch.setattr)
    code = cli.main(fault.command.split())
    assert_reported(fault, code, *capsys.readouterr())


def library_call(command):
    """Call the library function whose failure ``command`` reports, with its arguments."""
    args = cli.build_parser().parse_args(command.split())
    if args.command == "verify":
        return identity.verify_range(args.from_, args.to, args.routes.split(","))
    if args.command == "series":
        return series.tree_series(args.order)
    return identity.telescoping_difference(args.n)  # value diff


@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS)
def test_library_raises_the_rows_error(monkeypatch, fault):
    fault.install(monkeypatch.setattr)
    with pytest.raises(ConsistencyError) as caught:
        library_call(fault.command)
    exc = caught.value
    assert type(exc) is fault.error
    assert {name: getattr(exc, name) for name in fault.attrs} == fault.attrs
    assert f"{PREFIX}{exc}\n".startswith(fault.line)


def table(route):
    # the route's table for n = 1..60, or the failure that building it raised
    try:
        return identity.route_table(route, 1, 60, (2, 3))
    except ConsistencyError as exc:
        return exc


@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS)
def test_fault_changes_only_its_routes_table(monkeypatch, fault):
    # the routes stay independent: a fault in one route's code shows in
    # that route's table alone
    clean = {route: table(route) for route in identity.ALL_ROUTES}
    fault.install(monkeypatch.setattr)
    assert [route for route in clean if table(route) != clean[route]] == [fault.route]
