"""The golden corpus: each command in golden.json prints the bytes it pins.

golden.json holds one entry per line: the argv, the exit code, the whole
stderr text, and stdout's length and sha256, with stdout itself when it is
at most 400 bytes.  Every entry runs in-process through ``cli.main``, each
stream captured on its own.  Bench medians are timings, so they are masked
in both streams before anything is pinned.

The corpus holds the exit-2 domain errors too, whose one stderr line the
package writes.  argparse's own usage errors stay out, as their bytes
depend on the Python version and the terminal: an invalid choice prints
``(choose from 'alpha', ...)`` on Python 3.11.7 and ``(choose from alpha,
...)`` on 3.13.13, and the usage line re-wraps with ``COLUMNS``.

``python tests/test_golden.py``, with the package importable (installed, or
``PYTHONPATH=src``), runs every argv in the file again and rewrites it.  To
add a command, add a line ``{"argv": [...]}`` and regenerate.  A change
that alters an entry names it in CHANGES.md and says why.
"""

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from test_cli import fast_parsed, redirected_main

GOLDEN = Path(__file__).with_name("golden.json")
SHORT = 400  # stdout up to this many bytes is kept as text
# a bench median: to 6 decimals at the end of a plain or CSV row, and
# after its JSON key as json.dumps writes a float (0.000123, 1.23e-05, 5e-06)
MEDIAN = re.compile(r'\d+\.\d{6}(?=s$|"$)|(?<="median_seconds": )\d+(\.\d+(e-\d+)?|e-\d+)', re.M)

ENTRIES = json.loads(GOLDEN.read_text())


def run(argv: list[str]) -> dict:
    """One corpus entry: argv run through cli.main, stdout and stderr apart."""
    code, out, err = redirected_main(*argv)
    if argv[0] == "bench":
        out, err = MEDIAN.sub("<median>", out), MEDIAN.sub("<median>", err)
    data = out.encode()
    entry = {
        "argv": argv,
        "exit": code,
        "stderr": err,
        "stdout_len": len(data),
        "stdout_sha256": hashlib.sha256(data).hexdigest(),
    }
    if len(data) <= SHORT:
        entry["stdout"] = out
    return entry


@pytest.mark.parametrize("entry", ENTRIES, ids=[shlex.join(e["argv"]) for e in ENTRIES])
def test_golden(entry):
    assert run(entry["argv"]) == entry
    # every argv that exits 0 is read without argparse, into its namespace
    assert fast_parsed(entry["argv"]) or entry["exit"] == 2


if __name__ == "__main__":
    entries = [run(entry["argv"]) for entry in ENTRIES]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
