"""Stress the constructive rigidity test against the numeric one.

Samples random conic graphs with arc counts straddling the rigidity
threshold, runs the decomposition search and the generic rank check on
each, and reports agreement plus wall-clock totals. The rank check uses
configurations of its own (seeds 1000 to 1004), not the oracle's: those
are the ones `decompose` already cross-checks against, so comparing with
them could never disagree. A disagreement, an invariant error or a
cross-check error is printed with the offending graph and counted on
its own line; the exit code is 1 when any occurred.

Usage: python3 scripts/verdict_agreement.py [--trials 500] [--max-n 30]
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass

import numpy as np

from conicrig import (
    Configuration,
    ConicFramework,
    ConicGraph,
    CrossCheckError,
    DecompositionInvariantError,
    DirectedGraph,
    RigidityOracle,
    conic_class,
    conic_rigidity_matrix,
    decompose,
    is_decomposition_of,
    numeric_rank,
    orient,
    random_generic_configuration,
    s_conic,
)

# configurations per numeric rank, seeded _SEED, _SEED + 1, ...
_TRIALS = 5
_SEED = 1000


@dataclass(frozen=True)
class ExperimentConfig:
    trials: int = 500
    min_n: int = 3
    max_n: int = 30
    d: int = 2
    seed: int = 42


def random_conic_graph(rng: np.random.Generator, n: int, d: int) -> ConicGraph:
    # arc counts within +-3 of the threshold keep both verdicts likely
    spread = int(rng.integers(-3, 4))
    count = max(0, min(s_conic(n, d) + spread, n * (n - 1)))
    ordered = [(u, w) for u in range(n) for w in range(n) if u != w]
    idx = rng.choice(len(ordered), size=count, replace=False)
    return conic_class(DirectedGraph(n, [ordered[i] for i in idx]))


def generic_conic_rank(cg: ConicGraph, configs: list[Configuration]) -> int:
    """Largest numeric conic rank over configs, stopping at the first that
    reaches min(s_conic(n, d), arc count)."""
    ceiling = min(s_conic(cg.n, configs[0].d), cg.edge_count)
    dg = orient(cg)
    rank = 0
    for p in configs:
        rank = max(rank, numeric_rank(conic_rigidity_matrix(ConicFramework(dg, p))).rank)
        if rank == ceiling:
            break
    return rank


def run(cfg: ExperimentConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    sizes = range(cfg.min_n, cfg.max_n + 1)
    oracles = {n: RigidityOracle(n, cfg.d) for n in sizes}
    configs = {
        n: [random_generic_configuration(n, cfg.d, _SEED + i) for i in range(_TRIALS)]
        for n in sizes
    }
    rigid = flexible = disagreements = 0
    errors = {DecompositionInvariantError: 0, CrossCheckError: 0}
    t_decompose = t_numeric = 0.0
    for _ in range(cfg.trials):
        n = int(rng.integers(cfg.min_n, cfg.max_n + 1))
        cg = random_conic_graph(rng, n, cfg.d)

        t0 = time.perf_counter()
        try:
            dec, trace = decompose(cg, oracles[n])
        except tuple(errors) as exc:
            errors[type(exc)] += 1
            print(f"{type(exc).__name__} n={n} simple={cg.simple_edges} "
                  f"double={cg.double_edges}: {exc}")
            continue
        finally:
            t_decompose += time.perf_counter() - t0

        t0 = time.perf_counter()
        numeric = generic_conic_rank(cg, configs[n]) == s_conic(n, cfg.d)
        t_numeric += time.perf_counter() - t0

        if (dec is not None) != numeric:
            disagreements += 1
            print(f"DISAGREE n={n} simple={cg.simple_edges} double={cg.double_edges}")
            continue
        if dec is None:
            flexible += 1
        else:
            rigid += 1
            assert is_decomposition_of(dec, cg)
            assert trace.numeric_rank == s_conic(n, cfg.d)

    print(f"trials: {cfg.trials}  rigid: {rigid}  flexible: {flexible}")
    print(f"disagreements: {disagreements}")
    for kind, count in errors.items():
        print(f"{kind.__name__}: {count}")
    print(f"decomposition time: {t_decompose:.2f}s  numeric time: {t_numeric:.2f}s")
    return disagreements + sum(errors.values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--min-n", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=30)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    cfg = ExperimentConfig(args.trials, args.min_n, args.max_n, args.d, args.seed)
    if cfg.min_n < 2 or cfg.max_n < cfg.min_n or cfg.d < 2:
        parser.error("need 2 <= min-n <= max-n and d >= 2")
    raise SystemExit(1 if run(cfg) else 0)


if __name__ == "__main__":
    main()
