"""Command-line entry point.

Subcommands: check-f, solve-1d, spectrum-1d, base-eigs, morse,
bifurcation-points, verify-decomposition, continue.  Every run reads one
JSON configuration file, writes its artifacts (CSV plus summary.json with
provenance) into the output directory, and exits 0 on success, 2 on
validation failure, 3 on numerical non-convergence, 4 when no
solution/branch exists, 64 on usage errors.

Identical configurations produce bitwise-identical CSV output: iteration
orders are fixed, the sparse eigensolver starts from a fixed-seed vector and
nothing is seeded from the clock.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .base_spectrum import (
    BaseDomain,
    BaseSpectrum,
    Interval,
    domain_from_dict,
    neumann_eigenvalues,
    scale_spectrum,
)
from .errors import (
    CylbifError,
    InsufficientSpectrumError,
    NoSolutionError,
    NonConvergenceError,
    ValidationError,
)
from .morse_bifurcation import compose_spectrum, degeneracy_times, ground_state_flag, morse_index, morse_vs_t
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
from .pde_rectangle import (
    Grid2D,
    assemble_linearized,
    backtrack_branch,
    continue_branch,
    embed_one_dim,
    eval_energy,
    make_branch_context,
    smallest_eigenvalues,
)
from .sturm_liouville import (
    extrapolated_alphas,
    linearized_spectrum,
    nondegeneracy_margin,
    one_dim_morse,
    oscillation_check,
)

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


def _number(value, what: str, kind=float):
    """``value`` as ``kind`` if it is a finite JSON number, integral when ``kind`` is int;
    anything else, booleans included, fails."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValidationError(f"{what} must be a finite number, got {value!r}")
    if kind is int and not float(value).is_integer():
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return kind(value)


def _section(raw: dict, name: str, defaults: dict) -> dict:
    """The defaults overridden by the map ``raw[name]``, whose keys and value types must match them;
    an integer default takes integral numbers only."""
    given = raw.get(name, {})
    if not isinstance(given, dict):
        raise ValidationError(f"{name} must be a JSON object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ValidationError(f"unknown {name} keys: {sorted(unknown)}")
    for key, value in given.items():
        if isinstance(defaults[key], bool):
            if not isinstance(value, bool):
                raise ValidationError(f"{name}.{key} must be true or false, got {value!r}")
        else:
            _number(value, f"{name}.{key}", type(defaults[key]))
    return {**defaults, **given}


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
    nodal_n = _number(raw.get("nodal_n", 1), "nodal_n", int)
    if nodal_n < 1:
        raise ValidationError(f"nodal_n must be >= 1, got {nodal_n}")

    grids = _section(raw, "grids", DEFAULT_GRIDS)
    tolerances = _section(raw, "tolerances", DEFAULT_TOLERANCES)
    if any(v <= 0 for v in tolerances.values()):
        raise ValidationError("all tolerances must be positive")
    options = _section(raw, "options", DEFAULT_OPTIONS)

    tr = raw.get("t_range", {"t_min": 0.5, "t_max": 3.0, "samples": 40})
    try:
        t_range = (
            _number(tr["t_min"], "t_range.t_min"),
            _number(tr["t_max"], "t_range.t_max"),
            _number(tr["samples"], "t_range.samples", int),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"t_range must provide t_min, t_max, samples: {exc}") from exc
    if not (0.0 < t_range[0] < t_range[1]) or t_range[2] < 2:
        raise ValidationError(f"need 0 < t_min < t_max and samples >= 2, got {t_range}")

    alphas = raw.get("alphas")
    if alphas is not None:
        if not isinstance(alphas, list):
            raise ValidationError("config alphas must be a list of numbers")
        alphas = [_number(a, "alphas entry") for a in alphas]
        if sorted(alphas) != alphas:
            raise ValidationError("config alphas must be sorted ascending")

    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ValidationError(f"output_dir must be a string, got {output_dir!r}")
    out_dir = Path(out_override or output_dir)
    seed = seed_override if seed_override is not None else _number(raw.get("seed", 0), "seed", int)
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


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


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
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")


def _shooting_config(cfg: RunConfig) -> ShootingConfig:
    return ShootingConfig(
        steps=int(cfg.grids["ode_M"]),
        tol_terminal=cfg.tolerances["tol_terminal"],
        tol_amplitude=cfg.tolerances["tol_amplitude"],
    )


def _alphas_for(cfg: RunConfig, sol: OneDimSolution | None = None) -> np.ndarray:
    """Synthetic alphas from the config if given, otherwise extrapolate around
    ``sol``, shooting for it first when the caller has none."""
    if cfg.alphas is not None:
        return np.asarray(cfg.alphas, dtype=float)
    if sol is None:
        sol = find_one_dim_solution(cfg.model, cfg.nodal_n, _shooting_config(cfg))
    return extrapolated_alphas(cfg.model, sol.amplitude, int(cfg.grids["eig_M"]), int(cfg.options["k_eigs"]))


def _interval_length(cfg: RunConfig) -> float:
    if not isinstance(cfg.base, Interval):
        raise ValidationError("this subcommand needs an interval base")
    return cfg.base.length


def cmd_check_f(cfg: RunConfig) -> dict:
    samples = default_hypothesis_samples()
    report = check_hypotheses(cfg.model, samples)
    rows = [
        (s, eval_f(cfg.model, s), eval_fprime(cfg.model, s), eval_F(cfg.model, s))
        for s in samples
    ]
    write_csv(cfg.output_dir / "check-f.csv", ["s", "f", "fprime", "F"], rows)
    return {
        "superlinear": report.superlinear,
        "sign": report.sign,
        "superlinear_failures": report.superlinear_failures,
        "sign_failures": report.sign_failures,
    }


def cmd_solve_1d(cfg: RunConfig) -> dict:
    sol = find_one_dim_solution(cfg.model, cfg.nodal_n, _shooting_config(cfg))
    rows = zip(sol.grid, sol.values, sol.derivative_values)
    write_csv(cfg.output_dir / "solve-1d.csv", ["x", "u", "uprime"], rows)
    return {
        "amplitude": sol.amplitude,
        "nodal_count": sol.nodal_count,
        "residual": sol.residual,
    }


def cmd_spectrum_1d(cfg: RunConfig) -> dict:
    sol = find_one_dim_solution(cfg.model, cfg.nodal_n, _shooting_config(cfg))
    k = int(cfg.options["k_eigs"])
    spec = linearized_spectrum(cfg.model, sol.amplitude, int(cfg.grids["eig_M"]), k)
    rows = [(i + 1, spec.alphas[i], int(spec.zero_counts[i])) for i in range(k)]
    write_csv(cfg.output_dir / "spectrum-1d.csv", ["i", "alpha_i", "zero_count_i"], rows)
    if cfg.options["emit_eigenfunctions"]:
        nodes = np.linspace(0.0, 1.0, spec.grid_size + 1)
        for i in range(k):
            write_csv(
                cfg.output_dir / f"eigenfunction_{i + 1}.csv",
                ["x", "z"],
                zip(nodes, spec.eigenfunctions[i]),
            )
    return {
        "amplitude": sol.amplitude,
        "alphas": list(spec.alphas),
        "m_xn": one_dim_morse(spec),
        "nondegeneracy_margin": nondegeneracy_margin(spec),
        "oscillation_ok": oscillation_check(spec),
    }


def cmd_base_eigs(cfg: RunConfig) -> dict:
    spec = neumann_eigenvalues(
        cfg.base,
        float(cfg.options["cutoff"]),
        max_modes=int(cfg.options["max_modes"]),
        rotation_invariant=bool(cfg.options["rotation_invariant"]),
    )
    rows = [
        (j, lam, int(mult), "|".join(str(lab) for lab in labs))
        for j, (lam, mult, labs) in enumerate(zip(spec.lambdas, spec.multiplicities, spec.labels))
    ]
    write_csv(cfg.output_dir / "base-eigs.csv", ["j", "lambda_j", "multiplicity", "label"], rows)
    return {"count": len(spec.lambdas), "total_multiplicity": int(spec.multiplicities.sum())}


def _base_with_coverage(cfg: RunConfig, alphas: np.ndarray) -> BaseSpectrum:
    """Base spectrum enumerated past every lambda that meets -alpha_1 * t^2 for t <= t_max."""
    t_max = cfg.t_range[1]
    cutoff = max(float(cfg.options["cutoff"]), 1.05 * max(0.0, -float(alphas[0])) * t_max**2, 1.0)
    return neumann_eigenvalues(
        cfg.base,
        cutoff,
        max_modes=int(cfg.options["max_modes"]),
        rotation_invariant=bool(cfg.options["rotation_invariant"]),
    )


def cmd_morse(cfg: RunConfig) -> dict:
    alphas = _alphas_for(cfg)
    base = _base_with_coverage(cfg, alphas)
    report = morse_index(alphas, base)
    t_min, t_max, samples = cfg.t_range
    sweep = [(s.t, s.m, s.degenerate) for s in morse_vs_t(alphas, base, np.linspace(t_min, t_max, samples))]
    write_csv(cfg.output_dir / "morse.csv", ["t", "m", "degenerate"], sweep)
    return {
        "m": report.m,
        "m_xn": report.m_xn,
        "contributions": report.contributions,
        "degenerate": report.degenerate,
        "zero_multiplicity": report.zero_multiplicity,
        "ground_state_flag": ground_state_flag(alphas, base) if alphas[0] < 0 else False,
    }


def cmd_bifurcation_points(cfg: RunConfig) -> dict:
    alphas = _alphas_for(cfg)
    points = degeneracy_times(alphas, _base_with_coverage(cfg, alphas), cfg.t_range[1])
    rows = []
    for p in points:
        for i, j in p.pairs:
            rows.append((p.t_bar, i, j, p.kernel_multiplicity, p.simple))
    write_csv(
        cfg.output_dir / "bifurcation-points.csv",
        ["t_bar", "i", "j", "multiplicity", "simple"],
        rows,
    )
    return {"count": len(points), "t_bars": [p.t_bar for p in points]}


def cmd_verify_decomposition(cfg: RunConfig) -> dict:
    length = _interval_length(cfg)
    t = float(cfg.options["t_verify"])
    sol = find_one_dim_solution(cfg.model, cfg.nodal_n, _shooting_config(cfg))
    alphas = _alphas_for(cfg, sol)
    k = 10
    top = float(alphas[-1])
    base = neumann_eigenvalues(Interval(length), cutoff=(top - float(alphas[0])) * t**2 + 1.0)
    # the sums up to the largest alpha are complete; interval eigenvalues are simple
    composed = compose_spectrum(alphas, scale_spectrum(base, t), cutoff=top).values()[:k]
    if composed.size < k:
        raise InsufficientSpectrumError(
            f"only {composed.size} composed eigenvalues lie below alpha_max = {top}; raise options.k_eigs"
        )

    grid = Grid2D(int(cfg.grids["nx"]), int(cfg.grids["ny"]))
    u1d, _ = integrate_ivp(cfg.model, sol.amplitude, grid.ny - 1)
    op = assemble_linearized(embed_one_dim(u1d, grid), t, cfg.model, grid, length)
    direct = smallest_eigenvalues(op, k)
    rel = np.abs(direct - composed) / np.abs(composed)
    rows = [(i + 1, composed[i], direct[i], rel[i]) for i in range(k)]
    write_csv(
        cfg.output_dir / "verify-decomposition.csv",
        ["idx", "composed", "direct_2d", "rel_mismatch"],
        rows,
    )
    return {"t": t, "max_rel_mismatch": float(np.max(rel)), "k": k}


def cmd_continue(cfg: RunConfig) -> dict:
    length = _interval_length(cfg)
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

    grid = Grid2D(int(cfg.grids["nx"]), int(cfg.grids["ny"]))
    i, j = point.pairs[0]
    ctx = make_branch_context(cfg.model, grid, length, sol.amplitude, i=i, j=j, tol=cfg.tolerances["newton_tol"])
    steps = int(cfg.options["branch_steps"])
    energy_ref = eval_energy(ctx.u_ref, point.t_bar, cfg.model, grid, length)

    results = {
        "t_bar": point.t_bar,
        "t_bar_discrete": ctx.t_bar_discrete,
        "kernel_pair": [i, j],
        "energy_one_dim": energy_ref,
    }
    eps0 = 1e-1 * ctx.ref_norm
    branches = {}
    for sign_name, eps in (("plus", eps0), ("minus", -eps0)):
        try:
            branch = continue_branch(ctx, point, direction=+1, steps=steps, eps0=eps)
        except NoSolutionError:
            branch = []
        branches[sign_name] = branch
        rows = [
            (
                bp.t,
                bp.deviation,
                bp.distance_to_1d,
                bp.nodal_count_2d,
                bp.newton_iters,
                eval_energy(bp.solution, bp.t, cfg.model, grid, length),
            )
            for bp in branch
        ]
        write_csv(
            cfg.output_dir / f"branch_{sign_name}_{k_index}.csv",
            ["t", "deviation", "distance_to_1d", "nodal_count", "newton_iters", "energy"],
            rows,
        )
        if cfg.options["dump_solutions"]:
            xs = grid.x_nodes()
            ys = grid.y_nodes()
            for idx, bp in enumerate(branch):
                dump_rows = (
                    (xs[ix], ys[iy], bp.solution[iy, ix])
                    for iy in range(grid.ny)
                    for ix in range(grid.nx)
                )
                write_csv(
                    cfg.output_dir / f"solution_{sign_name}_{k_index}_{idx}.csv",
                    ["xprime", "xn", "u"],
                    dump_rows,
                )
        if branch:
            outcome = "stalled" if len(branch) < steps else "reached_t_limit"
            if branch[-1].distance_to_1d < 10 * ctx.tol:
                outcome = "returned_to_one_dimensional"
            results[f"outcome_{sign_name}"] = outcome
            results[f"deviation_first_{sign_name}"] = branch[0].deviation
            results[f"points_{sign_name}"] = len(branch)
        else:
            results[f"outcome_{sign_name}"] = "branch_not_found"

    plus, minus = branches["plus"], branches["minus"]
    if plus and minus:
        refl = plus[0].solution[:, ::-1]
        scale = float(np.max(np.abs(refl)))
        results["half_branches_are_reflections"] = bool(
            np.max(np.abs(minus[0].solution - refl)) / scale < 1e-6
        )
    if plus:
        back = backtrack_branch(ctx, plus[0])
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
        cfg = load_config(args.config, out_override=args.out, seed_override=args.seed)
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        if args.threads < 1:
            raise ValidationError("--threads must be >= 1")
        log.info("running %s into %s", args.subcommand, cfg.output_dir)
        if args.subcommand == "check-f":
            results = cmd_check_f(cfg)
        elif args.subcommand == "solve-1d":
            results = cmd_solve_1d(cfg)
        elif args.subcommand == "spectrum-1d":
            results = cmd_spectrum_1d(cfg)
        elif args.subcommand == "base-eigs":
            results = cmd_base_eigs(cfg)
        elif args.subcommand == "morse":
            results = cmd_morse(cfg)
        elif args.subcommand == "bifurcation-points":
            results = cmd_bifurcation_points(cfg)
        elif args.subcommand == "verify-decomposition":
            results = cmd_verify_decomposition(cfg)
        else:
            results = cmd_continue(cfg)
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
