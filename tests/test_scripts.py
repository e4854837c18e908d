"""The experiment scripts run against the installed library API."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def test_savings_table_prints_the_limit_rows():
    done = run_script("savings_table.py")
    assert done.returncode == 0, done.stderr
    limits = [line.split()[-1] for line in done.stdout.splitlines()
              if line.split()[:1] == ["limit"]]
    assert limits == ["25.00%", "33.33%"]  # d = 2, then d = 3


def test_verdict_agreement_counts_and_exit_status():
    done = run_script("verdict_agreement.py", "--trials", "30", "--max-n", "9")
    assert done.returncode in (0, 1), done.stderr
    out = done.stdout
    trials = re.search(r"^trials: 30  rigid: (\d+)  flexible: (\d+)$", out, re.M)
    assert trials is not None, out
    counts = [
        int(re.search(rf"^{label}: (\d+)$", out, re.M).group(1))
        for label in ("disagreements", "DecompositionInvariantError", "CrossCheckError")
    ]
    assert int(trials.group(1)) + int(trials.group(2)) + sum(counts) == 30
    assert re.search(r"^decomposition time: .*s  numeric time: .*s$", out, re.M)
    assert done.returncode == (1 if any(counts) else 0)


def test_verdict_agreement_in_space():
    # the modular independence game end to end, against the numeric conic rank
    done = run_script("verdict_agreement.py", "--d", "3", "--trials", "100", "--max-n", "12")
    assert done.returncode == 0, done.stdout + done.stderr
    out = done.stdout
    assert re.search(r"^trials: 100  rigid: \d+  flexible: \d+$", out, re.M), out
    for label in ("disagreements", "DecompositionInvariantError", "CrossCheckError"):
        assert re.search(rf"^{label}: 0$", out, re.M), out


def test_output_digest_is_a_function_of_workload_and_seed():
    runs = [run_script("output_digest.py", "--workload", "decompose-plane", "--seed", "5",
                       "--cycles", "1") for _ in range(2)]
    for done in runs:
        assert done.returncode == 0, done.stderr
    lines = runs[0].stdout.splitlines()
    assert runs[1].stdout.splitlines() == lines
    assert len(lines) == 51  # one per input of a decompose-plane cycle
    assert all(re.fullmatch(r"c0-\S+\.json -?\d [0-9a-f]{16}", line) for line in lines)


def test_reach_lists_the_functions_no_command_enters():
    done = run_script("reach.py", "--workloads")  # the CLI commands alone
    assert done.returncode == 0, done.stderr
    unreached = done.stdout.splitlines()
    assert "conicrig.matroid.swap" in unreached  # only the paper's tests call it
    assert "conicrig.cli.cmd_compare" not in unreached
    assert "conicrig.rigidity.conic_rigidity_matrix" not in unreached
    assert unreached == sorted(unreached)
    assert all(re.fullmatch(r"conicrig(\.[\w<>]+)+", name) for name in unreached)
