"""Output checks against references that do not use cylbif's code paths.

* Shooting amplitudes: the quarter period of -u'' = f(u) from amplitude a
  is T(a) = int_0^a du / sqrt(2 (F(a) - F(u))), and n nodal domains on
  [0, 1] need (2n - 1) T(a) = 1.  For f = |u|^(p-2) u this is closed form
  (a Beta function; K(1/2) from the arithmetic-geometric mean at p = 4); for
  the cubic family u = a sin(theta) turns it into a smooth integral done by
  Gauss-Legendre quadrature.
* Base spectra: interval and rectangle eigenvalues in closed form, disk
  eigenvalues from ``scipy.special.jnp_zeros``.
* Morse indices and bifurcation pairs: brute-force pair counts over those
  reference eigenvalues.
* 1D Morse index and oscillation: m_xn = n and Sturm oscillation, which hold
  for every admissible odd superlinear f.

Each check returns a list of problems; an empty list means the output is
correct.  Values are compared to a tolerance, never byte for byte.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np

AMPLITUDE_RTOL = 1e-8
LAMBDA_RTOL = 1e-8
MERGE_RTOL = 1e-9  # eigenvalues closer than this are one eigenvalue
ALPHA_RTOL = 1e-4  # 1D spectrum at eig_M vs the extrapolated one
CROSSING_RTOL = 1e-4  # Morse samples this close to a crossing are not judged
DECOMP_TOL = 2e-3
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _agm(a: float, b: float) -> float:
    for _ in range(64):  # quadratic convergence; the last steps only round
        if a == b:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a


#: complete elliptic integral of the first kind at parameter m = 1/2
K_HALF = math.pi / (2.0 * _agm(1.0, math.sqrt(0.5)))


def _cubic_quarter_period(c1: float, c3: float, a: float) -> float:
    theta = 0.25 * math.pi * (_GL_NODES + 1.0)
    integrand = 1.0 / np.sqrt(c1 + 0.5 * c3 * a * a * (1.0 + np.sin(theta) ** 2))
    return 0.25 * math.pi * float(np.dot(_GL_WEIGHTS, integrand))


def reference_amplitude(model: dict, n: int) -> float:
    """Amplitude u(0) of the solution with n nodal domains."""
    if model["type"] == "lane_emden":
        p = float(model["p"])
        if p == 4.0:
            return (2 * n - 1) * K_HALF
        log_beta = math.lgamma(1.0 / p) + math.lgamma(0.5) - math.lgamma(1.0 / p + 0.5)
        scale = (2 * n - 1) * math.sqrt(p / 2.0) * math.exp(log_beta) / p
        return scale ** (2.0 / (p - 2.0))
    c1, c3 = float(model["c1"]), float(model["c3"])
    target = 1.0 / (2 * n - 1)  # T(a) decreases in a
    lo, hi = 1e-8, 1.0
    while _cubic_quarter_period(c1, c3, hi) > target:
        hi *= 2.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if _cubic_quarter_period(c1, c3, mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def _merge(values: list[tuple[float, int]]) -> tuple[np.ndarray, np.ndarray]:
    values.sort()
    lams: list[float] = []
    mults: list[int] = []
    for lam, mult in values:
        if lams and lam - lams[-1] <= MERGE_RTOL * max(1.0, lams[-1]):
            mults[-1] += mult
        else:
            lams.append(lam)
            mults.append(mult)
    return np.array(lams), np.array(mults)


def _disk_jprime_zeros(nu: int, upper: float) -> list[float]:
    from scipy.special import jnp_zeros

    nt = int(upper / math.pi) + 3
    while True:
        zeros = jnp_zeros(nu, nt)
        if zeros[-1] > upper:
            return [float(z) for z in zeros if z <= upper]
        nt *= 2


def reference_base(base: dict, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Distinct Neumann eigenvalues up to ``cutoff`` with multiplicities."""
    return _reference_base(json.dumps(base, sort_keys=True), float(cutoff))


@functools.lru_cache(maxsize=16)
def _reference_base(base_json: str, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    base = json.loads(base_json)
    raw: list[tuple[float, int]] = []
    if base["type"] == "interval":
        length = float(base["length"])
        j = 0
        while (j * math.pi / length) ** 2 <= cutoff:
            raw.append(((j * math.pi / length) ** 2, 1))
            j += 1
    elif base["type"] == "rectangle":
        a, b = float(base["a"]), float(base["b"])
        m_max = int(a * math.sqrt(cutoff) / math.pi) + 1
        n_max = int(b * math.sqrt(cutoff) / math.pi) + 1
        for m in range(m_max + 1):
            for k in range(n_max + 1):
                lam = (m * math.pi / a) ** 2 + (k * math.pi / b) ** 2
                if lam <= cutoff:
                    raw.append((lam, 1))
    else:
        radius = float(base["radius"])
        upper = math.sqrt(cutoff) * radius
        raw.append((0.0, 1))
        nu = 0
        while nu <= upper:  # the first zero of J_nu' exceeds nu
            for z in _disk_jprime_zeros(nu, upper):
                raw.append(((z / radius) ** 2, 1 if nu == 0 else 2))
            nu += 1
    return _merge(raw)


def _summary(out: Path) -> dict:
    with open(out / "summary.json") as fh:
        return json.load(fh)["results"]


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def _check_amplitude(amplitude: float, model: dict, n: int) -> list[str]:
    ref = reference_amplitude(model, n)
    if _rel(amplitude, ref) > AMPLITUDE_RTOL:
        return [f"amplitude {amplitude!r} vs reference {ref!r}"]
    return []


def check_solve_1d(inv, out: Path) -> list[str]:
    res = _summary(out)
    n = inv.nodal_n
    problems = _check_amplitude(res["amplitude"], inv.model, n)
    if res["nodal_count"] != n:
        problems.append(f"nodal_count {res['nodal_count']} != {n}")
    u = np.array([float(r["u"]) for r in _rows(out / "solve-1d.csv")])
    a = res["amplitude"]
    if u.size != inv.config["grids"]["ode_M"] + 1 or u[0] != a:
        problems.append("profile does not start at the amplitude on the ode_M grid")
    if abs(u[-1]) > 1e-6 * max(1.0, a):
        problems.append(f"terminal value {u[-1]!r} is not 0")
    live = np.sign(u[np.abs(u) > 1e-9 * a])
    if int(np.count_nonzero(live[1:] != live[:-1])) != n - 1:
        problems.append("profile sign changes != n - 1")
    return problems


def check_spectrum_1d(inv, out: Path) -> list[str]:
    res = _summary(out)
    n = inv.nodal_n
    problems = _check_amplitude(res["amplitude"], inv.model, n)
    alphas = res["alphas"]
    if res["m_xn"] != n or not (alphas[n - 1] < 0.0 < alphas[n]):
        problems.append(f"1D Morse index {res['m_xn']} != nodal count {n}")
    if res["oscillation_ok"] is not True or alphas != sorted(alphas):
        problems.append("eigenvalues unsorted or oscillation check failed")
    rows = _rows(out / "spectrum-1d.csv")
    if [int(r["zero_count_i"]) for r in rows] != list(range(len(alphas))):
        problems.append("eigenfunction zero counts are not 0, 1, 2, ...")
    return problems


def bifurcation_alphas(inv, out: Path) -> dict[int, float]:
    """alpha_i implied by the bifurcation rows: -lambda_j(ref) / t_bar^2 at the smallest j."""
    first: dict[int, tuple[int, float]] = {}
    for r in _rows(out / "bifurcation-points.csv"):
        i, j, t = int(r["i"]), int(r["j"]), float(r["t_bar"])
        if i not in first or j < first[i][0]:
            first[i] = (j, t)
    if not first:
        return {}
    j_needed = max(j for j, _ in first.values())
    cutoff = 120.0
    lams, _ = reference_base(inv.config["base"], cutoff)
    while lams.size <= j_needed:
        cutoff *= 4.0
        lams, _ = reference_base(inv.config["base"], cutoff)
    return {i: -lams[j] / (t * t) for i, (j, t) in first.items()}


def check_bifurcation_points(inv, out: Path, alphas: dict[int, float]) -> list[str]:
    rows = _rows(out / "bifurcation-points.csv")
    t_max = float(inv.config["t_range"]["t_max"])
    negative = {i: a for i, a in alphas.items() if a < 0.0}
    if not negative:
        return ["no reference alphas"]
    cutoff = 1.1 * max(-a for a in negative.values()) * t_max**2 + 1.0
    lams, _ = reference_base(inv.config["base"], cutoff)
    problems = []
    listed = set()
    for r in rows:
        i, j, t = int(r["i"]), int(r["j"]), float(r["t_bar"])
        listed.add((i, j))
        if i not in negative or not 0 < j < lams.size:
            problems.append(f"row (i={i}, j={j}) outside the reference pairs")
        elif _rel(-negative[i] * t * t, lams[j]) > LAMBDA_RTOL:
            problems.append(f"t_bar(i={i}, j={j}) gives lambda {-negative[i] * t * t!r}, reference {lams[j]!r}")
    expected = set()
    for i, a in negative.items():
        for j in range(1, lams.size):
            t = math.sqrt(lams[j] / -a)
            if t <= t_max * (1.0 - 1e-9):
                expected.add((i, j))
            elif t <= t_max * (1.0 + 1e-9):
                listed.discard((i, j))  # on the t_max boundary: either way is right
    if expected != listed:
        problems.append(f"{len(expected ^ listed)} (i, j) pairs differ from the brute-force list")
    res = _summary(out)
    if res["count"] != len(res["t_bars"]) or res["t_bars"] != sorted(res["t_bars"]):
        problems.append("summary t_bars inconsistent")
    return problems[:5]


def _morse_count(negative: dict[int, float], lams: np.ndarray, mults: np.ndarray, t: float):
    """Brute-force m(t) = m_xn + sum_i #{j : lambda_j / t^2 < -alpha_i}, or None near a crossing."""
    total = len(negative)
    scaled = lams[1:] / (t * t)
    for a in negative.values():
        if np.any(np.abs(scaled + a) <= CROSSING_RTOL * -a):
            return None
        total += int(mults[1:][scaled < -a].sum())
    return total


def check_morse(inv, out: Path, alphas: dict[int, float]) -> list[str]:
    n = inv.nodal_n
    negative = {i: a for i, a in alphas.items() if a < 0.0}
    if sorted(negative) != list(range(1, n + 1)):
        return [f"reference alphas do not give exactly {n} negative eigenvalues"]
    t_min, t_max, samples = (inv.config["t_range"][k] for k in ("t_min", "t_max", "samples"))
    cutoff = 1.1 * max(-a for a in negative.values()) * max(1.0, t_max) ** 2 + 1.0
    lams, mults = reference_base(inv.config["base"], cutoff)
    problems = []
    res = _summary(out)
    if res["m_xn"] != n:
        problems.append(f"m_xn {res['m_xn']} != {n}")
    ref_m = _morse_count(negative, lams, mults, 1.0)
    if ref_m is not None and (res["m"] != ref_m or res["degenerate"]):
        problems.append(f"Morse index at t = 1 is {res['m']}, brute force {ref_m}")
    rows = _rows(out / "morse.csv")
    if len(rows) != samples or _rel(float(rows[0]["t"]), t_min) > 1e-12 or _rel(float(rows[-1]["t"]), t_max) > 1e-12:
        problems.append("sweep samples do not span t_range")
    for r in rows:
        t = float(r["t"])
        ref_m = _morse_count(negative, lams, mults, t)
        if ref_m is not None and (int(r["m"]) != ref_m or r["degenerate"] != "false"):
            problems.append(f"m({t:.6g}) = {r['m']}, brute force {ref_m}")
    return problems[:5]


def check_verify_decomposition(inv, out: Path) -> list[str]:
    # The bound scales with the largest |composed| eigenvalue: the stencil's
    # error follows |alpha_i| + lambda_j, not their sum, so a relative
    # measure blows up at composed eigenvalues near 0 on correct output.
    res = _summary(out)
    rows = _rows(out / "verify-decomposition.csv")
    composed = np.array([float(r["composed"]) for r in rows])
    direct = np.array([float(r["direct_2d"]) for r in rows])
    rel = np.array([float(r["rel_mismatch"]) for r in rows])
    problems = []
    if len(rows) != res["k"] or np.any(np.diff(composed) < 0.0) or np.any(np.diff(direct) < 0.0):
        problems.append("eigenvalue lists missing or unsorted")
    scale = float(np.max(np.abs(composed)))
    worst = float(np.max(np.abs(direct - composed)))
    if worst > DECOMP_TOL * scale:
        problems.append(f"direct vs composed differ by {worst:.3g} > {DECOMP_TOL} x {scale:.3g}")
    if not np.allclose(rel, np.abs(direct - composed) / np.abs(composed), rtol=1e-12, atol=0.0) or res["max_rel_mismatch"] != float(np.max(rel)):
        problems.append("rel_mismatch column inconsistent with the eigenvalues")
    return problems


def check_continue(inv, out: Path) -> list[str]:
    res = _summary(out)
    problems = []
    for side in ("plus", "minus"):
        if res.get(f"outcome_{side}") != "reached_t_limit":
            problems.append(f"outcome_{side} = {res.get(f'outcome_{side}')}")
    if res.get("half_branches_are_reflections") is not True:
        problems.append("half-branches are not reflections of each other")
    back = res.get("backtrack_distances", [])
    if not back or any(b >= a for a, b in zip(back, back[1:])) or back[-1] >= 1e-3:
        problems.append(f"backtrack distances {back} not strictly decreasing below 1e-3")
    if _rel(res["t_bar_discrete"], res["t_bar"]) > 1e-4:
        problems.append("discrete and continuum t_bar differ by more than 1e-4")
    steps = inv.config["options"]["branch_steps"]
    for side in ("plus", "minus"):
        branch = list(out.glob(f"branch_{side}_*.csv"))
        rows = _rows(branch[0]) if len(branch) == 1 else []
        ts = [float(r["t"]) for r in rows]
        if len(rows) != steps or res.get(f"points_{side}") != steps or ts != sorted(ts) or ts[0] <= res["t_bar"]:
            problems.append(f"branch_{side} CSV does not hold {steps} points beyond t_bar")
        if len(list(out.glob(f"solution_{side}_*.csv"))) != steps:
            problems.append(f"missing solution dumps on the {side} half-branch")
    return problems


def check_group(items) -> list[list[str]]:
    """Check every (invocation, output dir, exit code) of one model group.

    Returns one problem list per item.  An item that exited non-zero gets
    no output check: its failure is counted from the exit code.
    """
    alphas: dict[int, float] = {}
    problems: list[list[str]] = [[] for _ in items]
    ok = [k for k, (_, _, rc) in enumerate(items) if rc == 0]

    def guarded(k, fn, *args):
        inv, out, _ = items[k]
        try:
            problems[k].extend(fn(inv, out, *args))
        except (OSError, KeyError, ValueError, IndexError, TypeError, json.JSONDecodeError) as exc:
            problems[k].append(f"unreadable output: {exc!r}")

    for k in ok:
        inv, out, _ = items[k]
        if inv.subcommand == "spectrum-1d":
            try:
                alphas.update(enumerate(_summary(out)["alphas"], start=1))
            except (OSError, KeyError, json.JSONDecodeError):
                pass
    from_spectrum = dict(alphas)
    for k in ok:
        inv, out, _ = items[k]
        if inv.subcommand == "bifurcation-points":
            try:
                derived = bifurcation_alphas(inv, out)
            except (OSError, KeyError, ValueError, IndexError):
                derived = {}
            for i, a in derived.items():
                if i in from_spectrum and _rel(a, from_spectrum[i]) > ALPHA_RTOL:
                    problems[k].append(f"alpha_{i} implied by t_bar {a!r} vs 1D spectrum {from_spectrum[i]!r}")
            alphas.update(derived)

    checks = {
        "solve-1d": check_solve_1d,
        "spectrum-1d": check_spectrum_1d,
        "verify-decomposition": check_verify_decomposition,
        "continue": check_continue,
    }
    for k in ok:
        sub = items[k][0].subcommand
        if sub in checks:
            guarded(k, checks[sub])
        elif sub == "bifurcation-points":
            guarded(k, check_bifurcation_points, alphas)
        elif sub == "morse":
            guarded(k, check_morse, alphas)
    return problems
