"""Workload batches: the fixed list of CLI invocations each workload runs.

The seed draws only the sampled model parameters named below; grids,
subcommand mix and batch size are fixed, so two seeds cost about the same
and the run-to-run spread of a workload measures the machine, not the draw.
Every invocation also passes ``--seed`` to the CLI, which records it in the
provenance block of ``summary.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

INTERVAL = {"type": "interval", "length": 1.0}
RECTANGLE = {"type": "rectangle", "a": 1.0, "b": 0.8}
DISK = {"type": "disk", "radius": 1.0}
GRID_200 = {"ode_M": 2000, "eig_M": 2000, "nx": 200, "ny": 200}


@dataclass
class Invocation:
    """One fresh-process ``cylbif`` call and what its outputs must satisfy.

    ``group`` ties together invocations on the same model whose outputs are
    checked against each other (the 1D spectrum feeds the Morse counts).
    """

    label: str
    subcommand: str
    config: dict
    group: str
    extra_args: list[str] = field(default_factory=list)

    @property
    def model(self) -> dict:
        return self.config["model"]

    @property
    def nodal_n(self) -> int:
        return self.config["nodal_n"]


def _config(model: dict, base: dict, n: int, **extra) -> dict:
    cfg = {"schema_version": 1, "model": model, "base": base, "nodal_n": n, "grids": dict(GRID_200)}
    cfg.update(extra)
    return cfg


def _lane_emden(p: float) -> dict:
    return {"type": "lane_emden", "p": p}


def _cubic(c1: float, c3: float) -> dict:
    return {"type": "cubic", "c1": c1, "c3": c3}


def branch_200(rng: random.Random) -> list[Invocation]:
    # one continuation at the default 200 x 200 grid, 10 steps per half-branch,
    # solution dumps on; the model is fixed because the Newton and
    # factorization counts, hence the cost, change with p
    cfg = _config(
        _lane_emden(4.0),
        INTERVAL,
        1,
        t_range={"t_min": 0.5, "t_max": 3.0, "samples": 40},
        options={"branch_steps": 10, "dump_solutions": True},
    )
    return [Invocation("continue le4 n1", "continue", cfg, "branch")]


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of ``count`` equal parts of [lo, hi], shuffled."""
    width = (hi - lo) / count
    draws = [round(lo + (k + rng.random()) * width, 4) for k in range(count)]
    rng.shuffle(draws)
    return draws


def decomp_200(rng: random.Random) -> list[Invocation]:
    # every parameter is drawn once from each part of its range, so that
    # each seed's batch spans the ranges alike and costs about the same
    p = _strata(rng, 3.0, 6.0, 2)
    c1 = _strata(rng, 0.0, 2.0, 2)
    c3 = _strata(rng, 0.5, 2.0, 2)
    t_verify = _strata(rng, 0.5, 2.0, 4)
    nodal = [1, 1, 2, 2]
    rng.shuffle(nodal)
    batch = []
    for k, family in enumerate(("le", "cubic", "le", "cubic")):
        model = _lane_emden(p[k // 2]) if family == "le" else _cubic(c1[k // 2], c3[k // 2])
        cfg = _config(model, INTERVAL, nodal[k], options={"t_verify": t_verify[k]})
        batch.append(Invocation(f"verify-decomposition {family} #{k}", "verify-decomposition", cfg, f"decomp{k}"))
    return batch


# admissible inputs that fail today (fixed shooting bracket); they stay in the
# batch so that a fix shows up as a lower failed share
KNOWN_FAILING = (
    (_lane_emden(2.05), 1),
    (_lane_emden(2.5), 2),
    (_cubic(0.0, 1e4), 1),
)


def sweep_1d(rng: random.Random) -> list[Invocation]:
    t_range = {"t_min": 0.5, "t_max": 3.0, "samples": 40}
    batch = []
    models = (("le", INTERVAL), ("le", RECTANGLE), ("cubic", INTERVAL), ("cubic", RECTANGLE))
    for k, (family, base) in enumerate(models):
        if family == "le":
            model = _lane_emden(round(rng.uniform(3.0, 8.0), 4))
        else:
            model = _cubic(round(rng.uniform(0.0, 2.0), 4), round(rng.uniform(0.5, 2.0), 4))
        n = rng.choice((1, 2, 3))
        cfg = _config(model, base, n, t_range=t_range)
        for sub in ("solve-1d", "spectrum-1d", "bifurcation-points", "morse"):
            batch.append(Invocation(f"{sub} {family}/{base['type']} #{k}", sub, cfg, f"sweep{k}"))
    for k, (model, n) in enumerate(KNOWN_FAILING):
        cfg = _config(model, INTERVAL, n, t_range=t_range)
        batch.append(Invocation(f"solve-1d known-failing #{k}", "solve-1d", cfg, f"failing{k}"))
    return batch


def morse_disk(rng: random.Random) -> list[Invocation]:
    # nothing is sampled: the cost of the sweep grows with the number of
    # base eigenvalues, which the model fixes.  The serial morse call is in
    # the batch twice so that the median lands on it rather than between
    # call kinds.
    cfg = _config(_lane_emden(4.0), DISK, 3, t_range={"t_min": 0.5, "t_max": 8.0, "samples": 400})
    return [
        Invocation("morse disk", "morse", cfg, "disk"),
        Invocation("bifurcation-points disk", "bifurcation-points", cfg, "disk"),
        Invocation("morse disk (repeat)", "morse", cfg, "disk"),
        Invocation("morse disk --threads 2", "morse", cfg, "disk", ["--threads", "2"]),
    ]


WORKLOADS = {
    "branch-200": branch_200,
    "decomp-200": decomp_200,
    "sweep-1d": sweep_1d,
    "morse-disk": morse_disk,
}


def make_batch(workload: str, seed: int) -> list[Invocation]:
    return WORKLOADS[workload](random.Random(seed))


def warmup_for(workload: str, batch: list[Invocation]) -> Invocation:
    """A short invocation that loads the code the batch runs, made once untimed.

    branch-200 is warmed up by a verify-decomposition on its model and grid,
    which loads the 2D code in a tenth of the time of one continuation.
    """
    if workload == "branch-200":
        cfg = dict(batch[0].config, options={"t_verify": 1.0})
        return Invocation("warm-up verify-decomposition", "verify-decomposition", cfg, "warmup")
    if workload == "morse-disk":
        return next(inv for inv in batch if inv.subcommand == "bifurcation-points")
    return batch[0]
