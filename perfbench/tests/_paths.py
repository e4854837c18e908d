"""Puts the benchmark, the program's sources and the repository's test
oracles on the import path for the benchmark's own tests."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for _p in (ROOT / "tests", ROOT / "src", ROOT / "perfbench"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))
