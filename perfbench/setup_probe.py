"""One set-up as a user pays it: a fresh interpreter imports conicrig and
reads the workload's generated inputs, then exits.

    python3 perfbench/setup_probe.py .perfbench_work/<workload>
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import conicrig  # noqa: E402,F401

workdir = Path(sys.argv[1])
for ops in json.loads((workdir / "manifest.json").read_text()):
    for op in ops:
        if op["command"] != "design":
            json.loads((workdir / op["file"]).read_text())
