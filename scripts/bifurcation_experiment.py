#!/usr/bin/env python3
"""End-to-end desk experiment for the cubic reaction term on a unit-interval base.

Pipeline: shoot for the height-only solution, compute its linearization
spectrum, locate the degeneracy scalings, verify the 2D spectrum
decomposition, then switch onto the first bifurcating branch and follow
it both away from and back toward the crossing.
"""

import argparse
import time

import numpy as np

from cylbif import (
    Grid2D,
    Interval,
    LaneEmden,
    assemble_linearized,
    backtrack_branch,
    compose_spectrum,
    continue_branch,
    degeneracy_times,
    embed_one_dim,
    eval_energy,
    extrapolated_alphas,
    find_one_dim_solution,
    integrate_ivp,
    make_branch_context,
    morse_index,
    neumann_eigenvalues,
    smallest_eigenvalues,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1, help="nodal domains of the parent solution")
    parser.add_argument("--grid", type=int, default=120, help="2D grid nodes per side")
    parser.add_argument("--steps", type=int, default=8, help="continuation steps past the crossing")
    parser.add_argument("--length", type=float, default=1.0, help="interval base length")
    args = parser.parse_args()

    model = LaneEmden(p=4.0)
    t_start = time.perf_counter()

    print(f"== height-only solution, n = {args.n} ==")
    sol = find_one_dim_solution(model, args.n)
    print(f"amplitude {sol.amplitude:.12f}, residual {sol.residual:.2e}")

    print("\n== linearization spectrum (Richardson over M = 500/1000/2000) ==")
    alphas = extrapolated_alphas(model, sol.amplitude, 2000, max(args.n + 5, 12))
    print("alpha:", np.array2string(alphas[: args.n + 3], precision=8))

    base = neumann_eigenvalues(Interval(args.length), cutoff=1.05 * (-alphas[0]) * 25.0)
    report = morse_index(alphas, base)
    print(f"Morse index at t = 1: m = {report.m} (height-only part {report.m_xn})")

    points = degeneracy_times(alphas, base, t_max=5.0)
    print("\n== degeneracy scalings up to t = 5 ==")
    for p in points[:6]:
        tag = "simple" if p.simple else f"multiplicity {p.kernel_multiplicity}"
        print(f"t = {p.t_bar:.8f}  pairs {p.pairs}  ({tag})")

    grid = Grid2D(args.grid, args.grid)
    print(f"\n== decomposition check on a {args.grid} x {args.grid} grid ==")
    u1d, _ = integrate_ivp(model, sol.amplitude, grid.ny - 1)
    op = assemble_linearized(embed_one_dim(u1d, grid), 1.0, model, grid, args.length)
    direct = smallest_eigenvalues(op, 8)
    top = float(alphas[-1])
    full = neumann_eigenvalues(Interval(args.length), cutoff=top - float(alphas[0]) + 1.0)
    composed = compose_spectrum(alphas, full, cutoff=top).values()[:8]
    print("direct  :", np.array2string(direct, precision=6))
    print("composed:", np.array2string(composed, precision=6))
    print(f"max rel mismatch: {np.max(np.abs(direct - composed) / np.abs(composed)):.2e}")

    simple = [p for p in points if p.simple]
    if not simple:
        print("no simple crossing found; stopping before the branch stage")
        return
    point = simple[0]
    i, j = point.pairs[0]
    print(f"\n== branch switching at t = {point.t_bar:.8f} ==")
    ctx = make_branch_context(model, grid, args.length, sol.amplitude, i=i, j=j)
    for direction in (+1, -1):
        try:
            branch = continue_branch(ctx, point, direction, steps=args.steps)
        except Exception as exc:
            print(f"direction {direction:+d}: {exc}")
            continue
        print(f"direction {direction:+d}: {len(branch)} points")
        for bp in branch:
            energy = eval_energy(bp.solution, bp.t, model, grid, args.length)
            print(
                f"  t = {bp.t:.6f}  deviation {bp.deviation:.3e}  "
                f"distance {bp.distance_to_1d:.3e}  nodal {bp.nodal_count_2d}  energy {energy:.8f}"
            )
        back = backtrack_branch(ctx, branch[0])
        dists = ", ".join(f"{bp.distance_to_1d:.2e}" for bp in back)
        print(f"  backtrack toward t = {ctx.t_bar_discrete:.8f}: distances {dists}")

    print(f"\ntotal {time.perf_counter() - t_start:.1f} s")


if __name__ == "__main__":
    main()
