"""Puts the benchmark's modules and the program under test on ``sys.path``.

Run from the repo root, outside tier-1::

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
for path in (E2E, E2E.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
