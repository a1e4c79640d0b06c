import ast
import importlib
import re
import shlex
import sys
from pathlib import Path

import pytest

import lacasse
from lacasse import cli
from test_cli import fast_parsed

ROOT = Path(__file__).resolve().parents[1]

# The names the README's Library section and the CLI need; anything more
# is surface to maintain, so the list grows only on purpose.
PUBLIC_NAMES = [
    "ConsistencyError",
    "DEFAULT_BRUTE_CUTOFF",
    "DomainError",
    "IdentityFailureError",
    "RouteDisagreementError",
    "VerificationReport",
    "alpha_closed",
    "beta_closed",
    "geom_power",
    "ramanujan_q",
    "s_d_closed",
    "telescoping_difference",
    "tree_series",
    "verify_lacasse",
    "verify_range",
    "xi",
    "xi2",
]


def test_public_api_is_pinned():
    assert sorted(lacasse.__all__) == PUBLIC_NAMES
    for name in lacasse.__all__:
        assert hasattr(lacasse, name)


def _readme_block(section: str, fence: str) -> str:
    """The first ``fence`` code block under README's ``## section`` heading."""
    readme = (ROOT / "README.md").read_text()
    text = readme.split(f"\n## {section}\n", 1)[1]
    return text.split(f"```{fence}\n", 1)[1].split("\n```", 1)[0]


def test_readme_cli_block_holds(capsys):
    # each "$ lacasse ARGS" with lines under it prints those lines on
    # stdout; across the "..." that elides the middle of the verify run,
    # the lines before and after it are compared
    checked = 0
    for command in _readme_block("CLI", "sh").split("$ lacasse ")[1:]:
        args, *shown = command.splitlines()
        if not shown:
            continue
        assert cli.main(shlex.split(args, comments=True)) == 0, args
        out = capsys.readouterr().out.splitlines()
        if "..." in shown:
            cut = shown.index("...")
            head, tail = shown[:cut], shown[cut + 1 :]
            assert (out[: len(head)], out[len(out) - len(tail) :]) == (head, tail), args
        else:
            assert out == shown, args
        checked += 1
    assert checked == 5


def test_readme_library_block_holds():
    # the import runs as written, every == line is True, and the
    # verify_range line returns its 300 passing reports
    namespace = {}
    checked = 0
    for stmt in ast.parse(_readme_block("Library", "python")).body:
        if isinstance(stmt, ast.ImportFrom):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(stmt, ast.Expr), ast.unparse(stmt)
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        expr = stmt.value
        if isinstance(expr, ast.Compare) and all(isinstance(op, ast.Eq) for op in expr.ops):
            assert value is True, ast.unparse(stmt)
        elif isinstance(expr, ast.Call) and ast.unparse(expr.func) == "verify_range":
            assert [r.n for r in value] == list(range(1, 301))
            assert all(r.passed for r in value)
        else:
            pytest.fail(f"README line with nothing to check: {ast.unparse(stmt)}")
        checked += 1
    assert checked == 4


def test_readme_names_only_files_in_the_repo():
    # every BENCH file, CHANGES.md or path under tests/, bench/ or src/
    # that README quotes in backticks, code blocks included, is in the
    # checkout, so no figure cites a file that is not committed
    readme = (ROOT / "README.md").read_text()
    quoted = "\n".join(span for _, span in re.findall(r"(`+)(.+?)\1", readme, re.S))
    pattern = r"\b(?:BENCH_\d+\.json|CHANGES\.md|(?:tests|bench|src)/[\w./-]*)"
    named = set(re.findall(pattern, quoted))
    assert any(name.startswith("BENCH_") for name in named)
    assert sorted(name for name in named if not (ROOT / name).exists()) == []


def test_scale_rows_are_cli_commands():
    # a renamed flag fails here, not only in the scale run, and every row is
    # read without argparse; importing the rows builds no reference, so it
    # leaves the int-to-str limit as it was
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    scale = importlib.reload(importlib.import_module("scale"))
    assert limit() == before
    for row in scale.ROWS.values():
        for command in row.commands:
            assert fast_parsed(command.split()), command


def test_every_oracle_is_named_by_a_test():
    # an oracle that no test file names checks nothing; the oracles only
    # earn their place by being compared with lacasse, and never call it
    tests = Path(__file__).resolve().parent
    oracles = ast.parse((tests / "oracles.py").read_text())
    imports = [
        ast.unparse(node)
        for node in ast.walk(oracles)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert [line for line in imports if "lacasse" in line] == []
    defined = {
        node.name for node in oracles.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    named = set()
    for path in tests.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "oracles":
                named.add(node.attr)
    assert sorted(defined - named) == []
