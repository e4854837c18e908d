"""Sample the reference flex curves, or place the pinned agent twice.

`hyperbola` and `ellipse` move agent 2 of the three-agent fixtures along
its curve, the rest held fixed, and write the samples as t,x,y,beta CSV
to --out (default stdout); the curve and its largest pseudo-range drift
go to stderr, or to stdout when --out is given. `intersection` prints
both placements of agent 3 of the pinned fixture and the constraint
residuals at the second.

Usage: python3 scripts/flex_demo.py hyperbola|ellipse|intersection [--samples 100] [--out FILE]
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from conicrig import Configuration, ConicFramework, arc_pseudo_ranges
from conicrig.flexcurves import (
    build_flex_curve,
    locate_second_intersection,
    make_ellipse_framework,
    make_hyperbola_framework,
    make_pinned_framework,
    sample_flex,
)


def curve_drift(fw: ConicFramework, moving: int, samples) -> float:
    """Largest pseudo-range deviation across the samples."""
    base = arc_pseudo_ranges(fw)
    worst = 0.0
    for s in samples:
        positions = fw.config.positions.copy()
        biases = fw.config.biases.copy()
        positions[moving] = s.position
        biases[moving] = s.bias
        moved = ConicFramework(fw.graph, Configuration(positions, biases))
        worst = max(worst, float(np.max(np.abs(arc_pseudo_ranges(moved) - base))))
    return worst


def intersection() -> None:
    fw = make_pinned_framework()
    found = locate_second_intersection(fw, 3)
    xm = fw.config.positions[3]
    print(f"placement A: position ({xm[0]:g}, {xm[1]:g})  bias {fw.config.biases[3]:g}")
    print(
        f"placement B: position ({found.position[0]:.9g}, {found.position[1]:.9g})  "
        f"bias {found.bias:.9g}"
    )
    residuals = "  ".join(f"{r:.2e}" for r in found.residuals)
    print(f"constraint residuals at B: {residuals}")
    if found.degenerate:
        print("no second placement")


def curve_csv(kind: str, count: int, out: str | None) -> None:
    report = sys.stdout if out is not None else sys.stderr
    if kind == "hyperbola":
        fw, span = make_hyperbola_framework(), 0.5
    else:
        fw, span = make_ellipse_framework(), np.pi
    curve = build_flex_curve(fw, 2)
    samples = sample_flex(curve, count, span=span)
    drift = curve_drift(fw, curve.moving, samples)
    print(f"curve: {curve.kind}  constant: {curve.constant:g}", file=report)
    print(f"samples: {len(samples)}  max pseudo-range drift: {drift:.3e}", file=report)

    lines = ["t,x,y,beta"]
    for s in samples:
        row = (float(s.t), float(s.position[0]), float(s.position[1]), float(s.bias))
        lines.append(",".join(repr(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"samples written to {out}", file=report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("hyperbola", "ellipse", "intersection"))
    parser.add_argument("--samples", type=int, default=100, help="sample count (default 100)")
    parser.add_argument("--out", default=None, help="CSV output file (default stdout)")
    args = parser.parse_args(argv)
    try:
        if args.kind == "intersection":
            intersection()
        else:
            curve_csv(args.kind, args.samples, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
