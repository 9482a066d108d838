"""Traced replay of one cylbif CLI invocation, and the per-layer metrics.

Run as a script it replaces the public functions of each cylbif module with
timing wrappers at every module binding that refers to them, runs
``cylbif.cli.main`` on the given arguments and writes the spans when the
process ends:

    PYTHONPATH=src python3 benchmarks/tracing.py --spans spans.json -- \\
        morse --config run.json --out out

A span is (id, parent id, name, start, end); spans of a worker thread take
the main thread's open span as their parent.  Counts (RK4 steps, LU fill,
Newton outcomes, bytes written) are taken at the same boundaries.  Sparse
LU factorizations are wrapped where scipy binds ``splu``, which covers the
Newton factors and the shift-invert factor inside ``eigsh``.  LU fill is read
from ``SuperLU.nnz``: ``.L`` and ``.U`` build fresh sparse copies, which
would change the work being measured.

Imported as a module it turns span files into per-layer metrics.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = (
    "cli",
    "nonlinearity",
    "ode_shooting",
    "sturm_liouville",
    "base_spectrum",
    "morse_bifurcation",
    "pde_rectangle",
)

# public functions wrapped per layer
TRACED = {
    "cli": (
        "main",
        "load_config",
        "cmd_check_f",
        "cmd_solve_1d",
        "cmd_spectrum_1d",
        "cmd_base_eigs",
        "cmd_morse",
        "cmd_bifurcation_points",
        "cmd_verify_decomposition",
        "cmd_continue",
        "write_csv",
        "write_summary",
    ),
    "nonlinearity": ("check_hypotheses",),
    "ode_shooting": ("find_one_dim_solution", "integrate_ivp"),
    "sturm_liouville": ("linearized_spectrum", "sl_eigenpairs"),
    "base_spectrum": ("neumann_eigenvalues", "scale_spectrum"),
    "morse_bifurcation": ("compose_spectrum", "morse_index", "morse_vs_t", "degeneracy_times"),
    "pde_rectangle": (
        "assemble_linearized",
        "smallest_eigenvalues",
        "newton_solve",
        "make_branch_context",
        "continue_branch",
        "backtrack_branch",
        "eval_energy",
    ),
}

# SuperLU stores one double and one int32 row index per nonzero of L and U,
# plus two int32 column-pointer arrays; the fill estimate is computed, not measured
_LU_BYTES_PER_NNZ = 8 + 4


class Recorder:
    """Spans and counts of one process, held in memory until it ends."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._lock = threading.Lock()  # hooks also run in the CLI's worker threads

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn, hook=None):
        """Call ``fn`` inside a span; ``hook(counts, args, kwargs, result)`` runs on success."""

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans.append((sid, parent, name, t0, time.perf_counter()))
            if hook is not None:
                with self._lock:
                    hook(self.counts, args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _binder(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _hooks(modules) -> dict:
    """Counts taken when a wrapped function returns, keyed by (layer, name)."""
    hooks = {}

    def file_size(counts, path):
        counts["cli.files_written"] += 1
        counts["cli.bytes_written"] += os.path.getsize(path)

    bind_csv = _binder(modules["cli"].write_csv)
    hooks["cli", "write_csv"] = lambda c, a, k, r: file_size(c, bind_csv(a, k)["path"])
    bind_summary = _binder(modules["cli"].write_summary)
    hooks["cli", "write_summary"] = lambda c, a, k, r: file_size(
        c, bind_summary(a, k)["cfg"].output_dir / "summary.json"
    )

    bind_ivp = _binder(modules["ode_shooting"].integrate_ivp)

    def rk4(counts, args, kwargs, result):
        counts["ode_shooting.rk4_steps"] += int(bind_ivp(args, kwargs)["steps"])

    hooks["ode_shooting", "integrate_ivp"] = rk4

    def modes(counts, args, kwargs, result):
        counts["base_spectrum.modes"] += len(result.lambdas)

    hooks["base_spectrum", "neumann_eigenvalues"] = modes

    def pairs_hook(fn):
        bind = _binder(fn)

        def pairs(counts, args, kwargs, result):
            arguments = bind(args, kwargs)
            counts["morse_bifurcation.pairs_scanned"] += len(arguments["alphas"]) * len(arguments["base"].lambdas)

        return pairs

    for name in ("compose_spectrum", "morse_index", "degeneracy_times"):
        hooks["morse_bifurcation", name] = pairs_hook(getattr(modules["morse_bifurcation"], name))

    bind_newton = _binder(modules["pde_rectangle"].newton_solve)

    def newton(counts, args, kwargs, result):
        arguments = bind_newton(args, kwargs)
        counts["pde_rectangle.newton_converged"] += 1
        counts["pde_rectangle.newton_iters"] += result.newton_iters
        # a solve aimed at a branch is wasted when it falls back onto the
        # height-only solution (the same threshold continue_branch uses)
        on_branch = arguments["reference_1d"] is None or result.distance_to_1d > 10.0 * arguments["tol"]
        counts["pde_rectangle.newton_useful"] += int(on_branch)

    hooks["pde_rectangle", "newton_solve"] = newton
    return hooks


class _TracedLU:
    def __init__(self, lu, recorder: Recorder):
        self._lu = lu
        self.solve = recorder.span("pde_rectangle.lu_solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _traced_splu(recorder: Recorder, splu):
    def factor(counts, args, kwargs, lu):
        counts["pde_rectangle.factorizations"] += 1
        counts["pde_rectangle.lu_nnz"] += lu.nnz
        n = args[0].shape[0]
        counts["pde_rectangle.lu_bytes"] += _LU_BYTES_PER_NNZ * lu.nnz + 2 * 4 * (n + 1)

    traced = recorder.span("pde_rectangle.splu", splu, factor)
    return lambda *args, **kwargs: _TracedLU(traced(*args, **kwargs), recorder)


def install(recorder: Recorder):
    """Wrap every traced function at each cylbif module binding that holds it."""
    import cylbif.cli  # noqa: F401 - loads every layer

    modules = {layer: sys.modules[f"cylbif.{layer}"] for layer in LAYERS}
    loaded = [m for name, m in list(sys.modules.items()) if name == "cylbif" or name.startswith("cylbif.")]
    hooks = _hooks(modules)
    replacement = {}
    for layer, names in TRACED.items():
        for name in names:
            original = getattr(modules[layer], name)
            replacement[id(original)] = recorder.span(f"{layer}.{name}", original, hooks.get((layer, name)))
    for module in loaded:
        for attr, value in list(vars(module).items()):
            if id(value) in replacement:
                setattr(module, attr, replacement[id(value)])
    # LU factorizations: pde_rectangle's Newton ones go through
    # scipy.sparse.linalg.splu, eigsh's shift-invert one through scipy's ARPACK wrapper
    spla = sys.modules["scipy.sparse.linalg"]
    original = spla.splu
    traced_splu = _traced_splu(recorder, original)
    for name in ("scipy.sparse.linalg", "scipy.sparse.linalg._eigen.arpack.arpack"):
        module = sys.modules.get(name)
        if module is not None and getattr(module, "splu", None) is original:
            module.splu = traced_splu
    return modules["cli"]


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or "--" not in argv:
        print("usage: tracing.py --spans FILE -- SUBCOMMAND ARGS...", file=sys.stderr)
        return 64
    spans_path = argv[1]
    cli_args = argv[argv.index("--") + 1 :]
    recorder = Recorder()
    cli = install(recorder)
    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(spans_path)


# --------------------------------------------------------------------------
# aggregation, run in the benchmark process


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def invocation_profile(path) -> dict:
    """Per-name call counts and times, per-layer self times and counts of one traced invocation."""
    with open(path) as fh:
        data = json.load(fh)
    spans = data["spans"]
    children = defaultdict(list)
    for _, parent, _, t0, t1 in spans:
        children[parent].append((t0, t1))
    calls: dict[str, int] = defaultdict(int)
    time_in: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for sid, _, name, t0, t1 in spans:
        calls[name] += 1
        time_in[name] += t1 - t0
        self_s[name.split(".")[0]] += (t1 - t0) - _covered(children.get(sid, []), t0, t1)
    top = sum(t1 - t0 for _, parent, _, t0, t1 in spans if parent is None)
    return {"calls": calls, "time": time_in, "self": self_s, "counts": data["counts"], "top_level_s": top}


def _metric_table():
    """name -> function(profile) for every per-layer metric taken from spans."""

    def t(*names):
        return lambda p: sum(p["time"].get(n, 0.0) for n in names)

    def c(name):
        return lambda p: p["calls"].get(name, 0)

    def n(key):
        return lambda p: p["counts"].get(key, 0.0)

    def useful(p):
        calls = p["calls"].get("pde_rectangle.newton_solve", 0)
        return p["counts"].get("pde_rectangle.newton_useful", 0.0) / calls if calls else 0.0

    table = {
        "cli.write_s": t("cli.write_csv", "cli.write_summary"),
        "cli.files_written": n("cli.files_written"),
        "cli.bytes_written": n("cli.bytes_written"),
        "nonlinearity.check_s": t("nonlinearity.check_hypotheses"),
        "ode_shooting.solve_calls": c("ode_shooting.find_one_dim_solution"),
        "ode_shooting.solve_s": t("ode_shooting.find_one_dim_solution"),
        "ode_shooting.ivp_calls": c("ode_shooting.integrate_ivp"),
        "ode_shooting.rk4_steps": n("ode_shooting.rk4_steps"),
        "ode_shooting.ivp_s": t("ode_shooting.integrate_ivp"),
        "sturm_liouville.spectrum_calls": c("sturm_liouville.linearized_spectrum"),
        "sturm_liouville.spectrum_s": t("sturm_liouville.linearized_spectrum"),
        "sturm_liouville.eig_s": t("sturm_liouville.sl_eigenpairs"),
        "base_spectrum.enum_calls": c("base_spectrum.neumann_eigenvalues"),
        "base_spectrum.enum_s": t("base_spectrum.neumann_eigenvalues"),
        "base_spectrum.modes": n("base_spectrum.modes"),
        "base_spectrum.scale_calls": c("base_spectrum.scale_spectrum"),
        "morse_bifurcation.index_calls": c("morse_bifurcation.morse_index"),
        "morse_bifurcation.index_s": t("morse_bifurcation.morse_index"),
        "morse_bifurcation.compose_calls": c("morse_bifurcation.compose_spectrum"),
        "morse_bifurcation.compose_s": t("morse_bifurcation.compose_spectrum"),
        "morse_bifurcation.sweep_s": t("morse_bifurcation.morse_vs_t"),
        "morse_bifurcation.degeneracy_s": t("morse_bifurcation.degeneracy_times"),
        "morse_bifurcation.pairs_scanned": n("morse_bifurcation.pairs_scanned"),
        "pde_rectangle.assemble_s": t("pde_rectangle.assemble_linearized"),
        "pde_rectangle.eigsh_s": t("pde_rectangle.smallest_eigenvalues"),
        "pde_rectangle.newton_calls": c("pde_rectangle.newton_solve"),
        "pde_rectangle.newton_converged": n("pde_rectangle.newton_converged"),
        "pde_rectangle.newton_useful_ratio": useful,
        "pde_rectangle.newton_iters": n("pde_rectangle.newton_iters"),
        "pde_rectangle.newton_s": t("pde_rectangle.newton_solve"),
        "pde_rectangle.factorizations": n("pde_rectangle.factorizations"),
        "pde_rectangle.factor_s": t("pde_rectangle.splu"),
        "pde_rectangle.lu_solve_s": t("pde_rectangle.lu_solve"),
        "pde_rectangle.lu_nnz": n("pde_rectangle.lu_nnz"),
        "pde_rectangle.lu_bytes": n("pde_rectangle.lu_bytes"),
        "pde_rectangle.context_s": t("pde_rectangle.make_branch_context"),
        "pde_rectangle.continue_s": t("pde_rectangle.continue_branch"),
        "pde_rectangle.backtrack_s": t("pde_rectangle.backtrack_branch"),
        "pde_rectangle.energy_s": t("pde_rectangle.eval_energy"),
    }
    for layer in LAYERS:
        table[f"{layer}.self_s"] = (lambda name: lambda p: p["self"].get(name, 0.0))(layer)
    return table


METRICS = _metric_table()


def layer_metrics(profiles: list[dict]) -> dict[str, float]:
    """Mean over traced invocations of every per-layer metric."""
    return {name: math.fsum(fn(p) for p in profiles) / len(profiles) for name, fn in METRICS.items()}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
