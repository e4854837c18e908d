"""Machine-speed references for the end-to-end time figures.

On a shared machine the same operation can run half again as slow, in spells
that last from seconds to minutes, whatever the program does. After every
operation the benchmark times a short fixed reference task that does the
kind of work the workload does, and scales each cycle's times by REFERENCE_S
over the median reference time of that cycle: the figures read as seconds on
a machine where the reference task takes REFERENCE_S. Raw times stay in
record.json.

There are two tasks, because the two kinds of work do not slow down
together. "python" (graph searches with sets and dicts, small SVDs) tracks
the pebble games, circuits and small rank tests of the decompose workloads,
and the interpreter start-up and imports of every set-up probe. "dense" (one
300 x 300 SVD) tracks the large rank and flex SVDs of check-fleet. Timed
alternately with the same n = 300 `check` for 90 s, that check's times varied
by 10% (coefficient of variation); scaled by the Python task by 15%, scaled
by the dense task by 8%.
"""

from __future__ import annotations

import time

import numpy as np

# calm reference time on the two-core VM the benchmark was tuned on, one BLAS thread
REFERENCE_S = 0.01

_DENSE = np.random.default_rng(20240601).random((300, 300))


def python_task() -> int:
    """Fixed Python and small-matrix work, independent of the program under test."""
    rng = np.random.default_rng(20240601)
    n = 120
    adj = [set() for _ in range(n)]
    for u, w in rng.integers(n, size=(3 * n, 2)).tolist():
        if u != w:
            adj[u].add(w)
            adj[w].add(u)
    reached = 0
    for root in range(0, n, 4):
        parent = {root: None}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in sorted(adj[x]):
                if y not in parent:
                    parent[y] = x
                    stack.append(y)
        reached += len(parent)
    for m in rng.random((40, 20, 30)):
        np.linalg.svd(m, compute_uv=False)
    np.linalg.svd(rng.random((120, 120)), compute_uv=False)
    return reached


def dense_task() -> float:
    """One large dense SVD, independent of the program under test."""
    return float(np.linalg.svd(_DENSE, compute_uv=False)[0])


TASKS = {"python": python_task, "dense": dense_task}


def reference_seconds(kind: str = "python") -> float:
    """Wall time of one run of the reference task of that kind."""
    task = TASKS[kind]
    t = time.perf_counter()
    task()
    return time.perf_counter() - t
