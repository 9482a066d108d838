#!/usr/bin/env python3
"""Sweep the Morse index of a height-only solution over base dilations.

Prints the (t, m) table with degeneracy markers and the predicted jump
locations; optionally writes the sweep to CSV.
"""

import argparse

import numpy as np

from cylbif import (
    Disk,
    Interval,
    LaneEmden,
    Rectangle,
    degeneracy_times,
    extrapolated_alphas,
    find_one_dim_solution,
    morse_vs_t,
    neumann_eigenvalues,
)


def parse_base(text):
    kind, *dims = text.split(":")
    if kind == "interval":
        return Interval(float(dims[0]))
    if kind == "rectangle":
        a, b = dims[0].split("x")
        return Rectangle(float(a), float(b))
    if kind == "disk":
        return Disk(float(dims[0]))
    raise SystemExit(f"unknown base {text!r} (use interval:L, rectangle:AxB, disk:R)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=float, default=4.0, help="reaction exponent")
    parser.add_argument("--n", type=int, default=1, help="nodal domains")
    parser.add_argument("--base", type=parse_base, default="interval:1.0")
    parser.add_argument("--t-max", type=float, default=6.0)
    parser.add_argument("--samples", type=int, default=60)
    parser.add_argument("--csv", type=str, default=None, help="optional output CSV path")
    args = parser.parse_args()

    model = LaneEmden(p=args.p)
    sol = find_one_dim_solution(model, args.n)
    alphas = extrapolated_alphas(model, sol.amplitude, 2000, max(args.n + 5, 12))
    print(f"amplitude {sol.amplitude:.10f}, leading eigenvalues {np.round(alphas[:args.n + 2], 6)}")

    base = neumann_eigenvalues(args.base, cutoff=1.05 * (-alphas[0]) * args.t_max**2)
    points = degeneracy_times(alphas, base, args.t_max)
    print(f"{len(points)} degeneracy scalings below t = {args.t_max}:")
    for p in points:
        print(f"  t = {p.t_bar:.8f}  multiplicity {p.kernel_multiplicity}  pairs {p.pairs}")

    ts = np.linspace(0.3, args.t_max, args.samples)
    samples = morse_vs_t(alphas, base, ts)
    print("\n   t        m")
    last_m = None
    for s in samples:
        marker = " *" if s.degenerate else ("  <- jump" if last_m is not None and s.m > last_m else "")
        print(f"{s.t:8.4f}  {s.m:4d}{marker}")
        last_m = s.m

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("t,m,degenerate\n")
            for s in samples:
                fh.write(f"{s.t:.17g},{s.m},{str(s.degenerate).lower()}\n")
        print(f"\nwrote {args.csv}")


if __name__ == "__main__":
    main()
