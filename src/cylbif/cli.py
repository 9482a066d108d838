"""Command-line entry point.

Subcommands: check-f, solve-1d, spectrum-1d, base-eigs, morse,
bifurcation-points, verify-decomposition, continue.  Every run reads one
JSON configuration file, writes its artifacts (CSV plus summary.json with
provenance) into the output directory, and exits 0 on success, 2 on
validation failure, 3 on numerical non-convergence, 4 when no
solution/branch exists, 64 on usage errors.

Identical configurations produce bitwise-identical CSV output: iteration
orders are fixed and nothing is seeded from the clock.  Only `continue` depends
on the BLAS thread count, which changes how BLAS sums the Krylov norms and dot
products and the inverse x'-transform `modes @ z` of the separable solve: at
200 x 200 it writes other last digits under one thread than under two.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from . import pde_rectangle as pde  # registered lazily: scipy loads on the first pde.<name> read
from .base_spectrum import BaseDomain, BaseSpectrum, Interval, domain_from_dict, neumann_eigenvalues
from .errors import (
    CylbifError,
    NoSolutionError,
    NonConvergenceError,
    ValidationError,
    finite_number,
)
from .morse_bifurcation import (
    compose_spectrum,
    coverage_cutoff,
    degeneracy_times,
    morse_index,
    morse_vs_t,
)
from .nonlinearity import (
    NonlinearityModel,
    check_hypotheses,
    default_hypothesis_samples,
    eval_F,
    eval_f,
    eval_fprime,
    model_from_dict,
)
from .ode_shooting import OneDimSolution, ShootingConfig, find_one_dim_solution, integrate_ivp
from .sturm_liouville import extrapolated_alphas, nondegeneracy_margin, one_dim_morse, oscillation_check

log = logging.getLogger("cylbif.cli")

SUBCOMMANDS = (
    "check-f",
    "solve-1d",
    "spectrum-1d",
    "base-eigs",
    "morse",
    "bifurcation-points",
    "verify-decomposition",
    "continue",
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_NO_SOLUTION = 4
EXIT_USAGE = 64

SCHEMA_VERSION = 1

# single defaults table; every entry can be overridden per run
DEFAULT_GRIDS = {"ode_M": 2000, "eig_M": 2000, "nx": 200, "ny": 200}
DEFAULT_TOLERANCES = {
    "tol_terminal": 1e-10,
    "tol_amplitude": 1e-12,
    # two decades above the 2D residual's inf-norm rounding floor
    # max|u| * (2/(t l h_x)^2 + 2/h_y^2) * eps, 3.5e-11 * max|u| at 200 x 200 with t = l = 1
    "newton_tol": 1e-8,
}
DEFAULT_OPTIONS = {
    "cutoff": 120.0,
    "k_eigs": 12,
    "emit_eigenfunctions": False,
    "t_verify": 1.0,
    "rotation_invariant": False,
    "branch_steps": 10,
    "dump_solutions": True,
    "max_modes": 200_000,
}


@dataclass
class RunConfig:
    model: NonlinearityModel
    base: BaseDomain
    nodal_n: int
    grids: dict
    tolerances: dict
    t_range: tuple[float, float, int]
    output_dir: Path
    options: dict
    alphas: list[float] | None = None
    seed: int = 0
    raw: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _section(raw: dict, name: str, defaults: dict) -> dict:
    """The defaults overridden by the map ``raw[name]``, whose keys and value types must match them;
    an integer default takes integral numbers only, and every number must be positive, as every
    default is.  Each value is stored as its default's type."""
    given = raw.get(name, {})
    if not isinstance(given, dict):
        raise ValidationError(f"{name} must be a JSON object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ValidationError(f"unknown {name} keys: {sorted(unknown)}")
    typed = dict(defaults)
    for key, value in given.items():
        if not isinstance(defaults[key], bool):
            value = finite_number(value, f"{name}.{key}", type(defaults[key]))
            if value <= 0:
                raise ValidationError(f"{name}.{key} must be positive, got {value!r}")
        elif not isinstance(value, bool):
            raise ValidationError(f"{name}.{key} must be true or false, got {value!r}")
        typed[key] = value
    return typed


def load_config(path: str, out_override: str | None = None, seed_override: int | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION}")

    known = {
        "schema_version",
        "model",
        "base",
        "nodal_n",
        "grids",
        "tolerances",
        "t_range",
        "output_dir",
        "options",
        "alphas",
        "seed",
    }
    unknown = set(raw) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")

    model = model_from_dict(raw.get("model", {"type": "lane_emden", "p": 4.0}))
    base = domain_from_dict(raw.get("base", {"type": "interval", "length": 1.0}))
    nodal_n = finite_number(raw.get("nodal_n", 1), "nodal_n", int)
    if nodal_n < 1:
        raise ValidationError(f"nodal_n must be >= 1, got {nodal_n}")

    grids = _section(raw, "grids", DEFAULT_GRIDS)
    tolerances = _section(raw, "tolerances", DEFAULT_TOLERANCES)
    options = _section(raw, "options", DEFAULT_OPTIONS)

    tr = raw.get("t_range", {"t_min": 0.5, "t_max": 3.0, "samples": 40})
    unknown = set(tr) - {"t_min", "t_max", "samples"} if isinstance(tr, dict) else set()
    if unknown:
        raise ValidationError(f"unknown t_range keys: {sorted(unknown)}")
    try:
        t_range = (
            finite_number(tr["t_min"], "t_range.t_min"),
            finite_number(tr["t_max"], "t_range.t_max"),
            finite_number(tr["samples"], "t_range.samples", int),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"t_range must provide t_min, t_max, samples: {exc}") from exc
    if not (0.0 < t_range[0] < t_range[1]) or t_range[2] < 2:
        raise ValidationError(f"need 0 < t_min < t_max and samples >= 2, got {t_range}")

    alphas = raw.get("alphas")
    if alphas is not None:
        if not isinstance(alphas, list):
            raise ValidationError("config alphas must be a list of numbers")
        alphas = [finite_number(a, "alphas entry") for a in alphas]
        if sorted(alphas) != alphas:
            raise ValidationError("config alphas must be sorted ascending")

    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ValidationError(f"output_dir must be a string, got {output_dir!r}")
    out_dir = Path(out_override or output_dir)
    seed = seed_override if seed_override is not None else finite_number(raw.get("seed", 0), "seed", int)
    return RunConfig(
        model=model,
        base=base,
        nodal_n=nodal_n,
        grids=grids,
        tolerances=tolerances,
        t_range=t_range,
        output_dir=out_dir,
        options=options,
        alphas=alphas,
        seed=seed,
        raw=raw,
    )


def _conversion(kind: type) -> str:
    """The ``%`` conversion of CSV values of type ``kind``; booleans are mapped to strings first."""
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (bool, np.bool_)):
        return "bool"
    return "%d" if issubclass(kind, (int, np.integer)) else "%.17g"


def format_rows(header: list[str], rows) -> str:
    """``rows`` as CSV lines under ``header``, rendered by one ``%`` operation.

    The first row fixes each column's kind: strings as they are, booleans as
    ``true``/``false``, integers in decimal, anything else as ``%.17g`` of the
    float (``-0``, ``nan``, ``inf``).  A later value of another kind raises TypeError.
    """
    rows = list(rows)
    if not rows:
        return ""
    kinds = [_conversion(type(v)) for v in rows[0]]
    line = ",".join("%s" if kind == "bool" else kind for kind in kinds) + "\n"
    flat = list(chain.from_iterable(rows))
    for c, kind in enumerate(kinds):
        column = flat[c :: len(kinds)]
        found = {_conversion(t) for t in set(map(type, column))}
        if found != {kind}:
            raise TypeError(f"column {header[c]} mixes {sorted(found)} values")
        if kind == "bool":
            flat[c :: len(kinds)] = ["true" if v else "false" for v in column]
    return (line * len(rows)) % tuple(flat)


def write_csv(path: Path, header: list[str], body: str) -> None:
    """Write the CSV file ``path``: the ``header`` line, then ``body``, its lines as
    ``format_rows`` or ``write_solution_dumps`` render them."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(body)


def _u_strings(solution: np.ndarray) -> np.ndarray:
    """``solution``'s values as ``format_rows`` writes floats, in its shape, converted by one ``%`` operation."""
    values = solution.ravel().tolist()
    strings = (("%.17g\n" * len(values)) % tuple(values)).split("\n")[:-1]
    return np.array(strings, dtype=object).reshape(solution.shape)


def write_solution_dumps(out_dir: Path, k_index: int, grid: pde.Grid2D, plus: list, minus: list) -> None:
    """``solution_<sign>_<k_index>_<idx>.csv`` with columns x', x_N, u for each (ny, nx) solution of
    the two half-branches, written in plus/minus pairs so that one dump's strings are held at a time.

    Every dump is the grid's one row template, each node's fixed ``x',x_N,`` text and a
    ``%s``, filled with the solution's strings.  A minus solution whose bits are those of
    the mirrored plus solution of its pair is written from the plus strings in mirrored
    order, which are the strings it formats to; equal values are not enough, since
    -0.0 == 0.0 formats differently."""
    xs = [f"{x:.17g}" for x in grid.x_nodes().tolist()]
    rows = (f",{y:.17g},%s\n" for y in grid.y_nodes().tolist())
    template = "".join(row.join(xs) + row for row in rows)  # row-major like u: each x then its row's text
    for idx in range(max(len(plus), len(minus))):
        strings = None
        for sign_name, solutions in (("plus", plus), ("minus", minus)):
            if idx >= len(solutions):
                continue
            u = solutions[idx]
            if strings is not None and u.tobytes() == plus[idx][:, ::-1].tobytes():
                strings = strings[:, ::-1]
            else:
                strings = _u_strings(u)
            body = template % tuple(strings.ravel().tolist())
            write_csv(out_dir / f"solution_{sign_name}_{k_index}_{idx}.csv", ["xprime", "xn", "u"], body)


def write_summary(cfg: RunConfig, subcommand: str, results: dict) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "subcommand": subcommand,
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "grids": cfg.grids,
        "tolerances": cfg.tolerances,
        "results": results,
    }
    with open(cfg.output_dir / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _shooting_config(cfg: RunConfig) -> ShootingConfig:
    return ShootingConfig(
        steps=cfg.grids["ode_M"],
        tol_terminal=cfg.tolerances["tol_terminal"],
        tol_amplitude=cfg.tolerances["tol_amplitude"],
    )


def _alphas_for(cfg: RunConfig, sol: OneDimSolution | None = None) -> np.ndarray:
    """The Morse chain's alphas: synthetic ones from the config if given, otherwise the first nodal_n + 1
    extrapolated around ``sol``, shooting for it first when the caller has none.  Those are the n-nodal
    profile's n negative alphas, which ``extrapolated_alphas`` counts, and the positive witness after them."""
    if cfg.alphas is not None:
        return np.asarray(cfg.alphas, dtype=float)
    if sol is None:
        sol = find_one_dim_solution(cfg.model, cfg.nodal_n, _shooting_config(cfg))
    return extrapolated_alphas(cfg.model, sol.amplitude, cfg.grids["eig_M"], cfg.nodal_n + 1)[0]


def _two_dim_length(cfg: RunConfig) -> float:
    """Base length of the 2D subcommands: they need an interval base, and they work on
    the operator at the solved 1D profile, which config alphas do not describe."""
    if not isinstance(cfg.base, Interval):
        raise ValidationError("this subcommand needs an interval base")
    if cfg.alphas is not None:
        raise ValidationError("the 2D subcommands work on the solved 1D spectrum; config alphas would replace it")
    return cfg.base.length


def cmd_check_f(cfg: RunConfig) -> dict:
    # a sample where f, f' or F overflows is written as inf, its true float value
    with np.errstate(over="ignore"):
        rows = [
            (s, eval_f(cfg.model, s), eval_fprime(cfg.model, s), eval_F(cfg.model, s))
            for s in default_hypothesis_samples()
        ]
    header = ["s", "f", "fprime", "F"]
    write_csv(cfg.output_dir / "check-f.csv", header, format_rows(header, rows))
    return asdict(check_hypotheses(cfg.model))


def cmd_solve_1d(cfg: RunConfig) -> dict:
    sol = find_one_dim_solution(cfg.model, cfg.nodal_n, _shooting_config(cfg))
    rows = zip(sol.grid, sol.values, sol.derivative_values)
    header = ["x", "u", "uprime"]
    write_csv(cfg.output_dir / "solve-1d.csv", header, format_rows(header, rows))
    return {
        "amplitude": sol.amplitude,
        "nodal_count": sol.nodal_count,
        "residual": sol.residual,
    }


def cmd_spectrum_1d(cfg: RunConfig) -> dict:
    sol = find_one_dim_solution(cfg.model, cfg.nodal_n, _shooting_config(cfg))
    k = cfg.options["k_eigs"]
    # the chain's alphas; zero counts and eigenfunctions are those of the eig_M grid
    alphas, spec = extrapolated_alphas(cfg.model, sol.amplitude, cfg.grids["eig_M"], k)
    m_xn = one_dim_morse(alphas)  # before any artifact: a spectrum with no positive witness writes none
    rows = [(i + 1, alpha, int(count)) for i, (alpha, count) in enumerate(zip(alphas, spec.zero_counts))]
    header = ["i", "alpha_i", "zero_count_i"]
    write_csv(cfg.output_dir / "spectrum-1d.csv", header, format_rows(header, rows))
    if cfg.options["emit_eigenfunctions"]:
        nodes = np.linspace(0.0, 1.0, spec.eigenfunctions.shape[1])
        header = ["x", "z"]
        for i in range(k):
            body = format_rows(header, zip(nodes, spec.eigenfunctions[i]))
            write_csv(cfg.output_dir / f"eigenfunction_{i + 1}.csv", header, body)
    return {
        "amplitude": sol.amplitude,
        "alphas": list(alphas),
        "m_xn": m_xn,
        "nondegeneracy_margin": nondegeneracy_margin(alphas),
        "oscillation_ok": oscillation_check(spec),
    }


def _base_spectrum(cfg: RunConfig, cutoff: float) -> BaseSpectrum:
    """The configured base's Neumann spectrum up to ``cutoff``."""
    return neumann_eigenvalues(
        cfg.base,
        cutoff,
        max_modes=cfg.options["max_modes"],
        rotation_invariant=cfg.options["rotation_invariant"],
    )


def cmd_base_eigs(cfg: RunConfig) -> dict:
    spec = _base_spectrum(cfg, cfg.options["cutoff"])
    # one CSV field: a mode's indices joined by spaces, the modes of one eigenvalue by "|"
    rows = [
        (j, lam, int(mult), "|".join(" ".join(map(str, lab)) for lab in labs))
        for j, (lam, mult, labs) in enumerate(zip(spec.lambdas, spec.multiplicities, spec.labels))
    ]
    header = ["j", "lambda_j", "multiplicity", "label"]
    write_csv(cfg.output_dir / "base-eigs.csv", header, format_rows(header, rows))
    return {"count": len(spec.lambdas), "total_multiplicity": int(spec.multiplicities.sum())}


def _base_with_coverage(cfg: RunConfig, alphas: np.ndarray) -> BaseSpectrum:
    """Base spectrum that the Morse and degeneracy queries accept for every t <= t_max and at t = 1."""
    return _base_spectrum(cfg, coverage_cutoff(alphas, max(1.0, cfg.t_range[1])))


def cmd_morse(cfg: RunConfig) -> dict:
    alphas = _alphas_for(cfg)
    base = _base_with_coverage(cfg, alphas)
    report = morse_index(alphas, base)
    t_min, t_max, samples = cfg.t_range
    sweep = [(s.t, s.m, s.degenerate) for s in morse_vs_t(alphas, base, np.linspace(t_min, t_max, samples))]
    header = ["t", "m", "degenerate"]
    write_csv(cfg.output_dir / "morse.csv", header, format_rows(header, sweep))
    return asdict(report)


def cmd_bifurcation_points(cfg: RunConfig) -> dict:
    alphas = _alphas_for(cfg)
    points = degeneracy_times(alphas, _base_with_coverage(cfg, alphas), cfg.t_range[1])
    rows = []
    for p in points:
        for i, j in p.pairs:
            rows.append((p.t_bar, i, j, p.kernel_multiplicity, p.simple))
    header = ["t_bar", "i", "j", "multiplicity", "simple"]
    write_csv(cfg.output_dir / "bifurcation-points.csv", header, format_rows(header, rows))
    return {"count": len(points), "t_bars": [p.t_bar for p in points]}


def cmd_verify_decomposition(cfg: RunConfig) -> dict:
    length = _two_dim_length(cfg)
    t = cfg.options["t_verify"]
    sol = find_one_dim_solution(cfg.model, cfg.nodal_n, _shooting_config(cfg))
    k = 10
    # lambda_0 = 0 makes alpha_1..alpha_k sums, so the k smallest sums lie at or below alpha_k and use no later alpha
    alphas = extrapolated_alphas(cfg.model, sol.amplitude, cfg.grids["eig_M"], k)[0]
    top = float(alphas[-1])
    base = _base_spectrum(cfg, coverage_cutoff(alphas, t, top))
    # the sums up to the largest alpha are complete; interval eigenvalues are simple
    composed = compose_spectrum(alphas, base, cutoff=top, t=t).values[:k]

    grid = pde.Grid2D(cfg.grids["nx"], cfg.grids["ny"])
    u1d, _ = integrate_ivp(cfg.model, sol.amplitude, grid.ny - 1)
    spectrum = pde.certified_spectrum(u1d, t, cfg.model, grid, length, k)
    direct = spectrum.values
    rel = np.abs(direct - composed) / np.abs(composed)
    rows = [(i + 1, composed[i], direct[i], rel[i]) for i in range(k)]
    header = ["idx", "composed", "direct_2d", "rel_mismatch"]
    write_csv(cfg.output_dir / "verify-decomposition.csv", header, format_rows(header, rows))
    return {
        "t": t,
        "max_rel_mismatch": float(np.max(rel)),
        "k": k,
        "certificate": {
            "shift": spectrum.shift,
            "negative_pivots": spectrum.negative_pivots,
            "max_residual": spectrum.max_residual,
        },
    }


def cmd_continue(cfg: RunConfig) -> dict:
    length = _two_dim_length(cfg)
    sol = find_one_dim_solution(cfg.model, cfg.nodal_n, _shooting_config(cfg))
    alphas = _alphas_for(cfg, sol)
    t_max = cfg.t_range[1]
    points = degeneracy_times(alphas, _base_with_coverage(cfg, alphas), t_max)
    simple_points = [p for p in points if p.simple]
    if not simple_points:
        raise NoSolutionError(f"no simple degeneracy scaling below t_max = {t_max}")
    point = simple_points[0]
    k_index = points.index(point) + 1
    log.info("switching at t_bar = %.8g (pair %s)", point.t_bar, point.pairs[0])

    grid = pde.Grid2D(cfg.grids["nx"], cfg.grids["ny"])
    ctx = pde.make_branch_context(cfg.model, grid, length, sol.amplitude, point, tol=cfg.tolerances["newton_tol"])
    steps = cfg.options["branch_steps"]

    results = {
        "t_bar": ctx.t_bar,
        "t_bar_discrete": ctx.t_bar_discrete,
        "kernel_pair": list(point.pairs[0]),
        "energy_one_dim": pde.eval_energy(ctx.u_ref, ctx.t_bar, cfg.model, grid, length),
    }
    halves = pde.continue_half_branches(ctx, steps=steps, t_max=t_max)
    header = ["t", "deviation", "distance_to_1d", "nodal_count", "newton_iters", "energy"]
    for sign_name, branch in halves.branches.items():
        results[f"outcome_{sign_name}"] = halves.outcomes[sign_name]
        rows = [
            (
                bp.t,
                bp.deviation,
                bp.distance_to_1d,
                bp.nodal_count_2d,
                bp.newton_iters,
                pde.eval_energy(bp.solution, bp.t, cfg.model, grid, length),
            )
            for bp in branch
        ]
        write_csv(cfg.output_dir / f"branch_{sign_name}_{k_index}.csv", header, format_rows(header, rows))
        if branch:
            results[f"deviation_first_{sign_name}"] = branch[0].deviation
            results[f"points_{sign_name}"] = len(branch)
    plus, minus = halves.branches["plus"], halves.branches["minus"]
    if cfg.options["dump_solutions"]:
        write_solution_dumps(cfg.output_dir, k_index, grid, [bp.solution for bp in plus], [bp.solution for bp in minus])
    if halves.reflections is not None:
        results["half_branches_are_reflections"] = halves.reflections
    if plus:
        back = pde.backtrack_branch(ctx, plus[0])
        results["backtrack_distances"] = [bp.distance_to_1d for bp in back]
    if not plus and not minus:
        raise NoSolutionError("no bifurcating branch found on either half-branch")
    return results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylbif",
        description="Height-only solutions on bounded cylinders: Morse indices, "
        "degeneracy scalings, and symmetry-breaking branches.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    parser.add_argument("--seed", type=int, default=None, help="seed recorded in the provenance block")
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("CYLBIF_LOG", "info").lower()
    if level not in ("error", "info", "debug"):
        level = "info"
    logging.basicConfig(level=getattr(logging, level.upper()), stream=sys.stderr, format="%(name)s: %(message)s")

    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        return EXIT_USAGE

    try:
        if args.threads < 1:
            raise ValidationError("--threads must be >= 1")
        cfg = load_config(args.config, out_override=args.out, seed_override=args.seed)
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        log.info("running %s into %s", args.subcommand, cfg.output_dir)
        # cmd_<subcommand>, looked up at call time so that a wrapper bound to that name is called
        results = globals()["cmd_" + args.subcommand.replace("-", "_")](cfg)
        write_summary(cfg, args.subcommand, results)
    except ValidationError as exc:
        log.error("validation failure: %s", exc)
        return EXIT_VALIDATION
    except NonConvergenceError as exc:
        log.error("non-convergence: %s", exc)
        return EXIT_NONCONVERGENCE
    except NoSolutionError as exc:
        log.error("no solution: %s", exc)
        return EXIT_NO_SOLUTION
    except CylbifError as exc:
        log.error("error: %s", exc)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
