"""Lets the test suite run from a source checkout without installing.

An installed (or editable-installed) package wins; otherwise src/ goes on
sys.path.
"""

import sys
from pathlib import Path

try:
    import lacasse  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))
