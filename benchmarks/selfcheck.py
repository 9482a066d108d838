"""Shows that the benchmark's output checks catch a fast wrong answer.

    python3 benchmarks/selfcheck.py

Runs one model group of the sweep-1d workload (solve-1d, spectrum-1d,
bifurcation-points and morse on the same model) and checks its outputs
first against the true references, where nothing may fail, then once per
injected wrong reference value, where the failed share must rise.  Exits 0
when all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from unittest import mock

import checks
import run
from workloads import make_batch

SEED = 0


def _shifted_base(original):
    def shifted(base_json, cutoff):
        lams, mults = original(base_json, cutoff)
        lams = lams.copy()
        lams[2] *= 1.0 + 1e-6
        return lams, mults

    return shifted


def _off_by_one(original):
    def count(*args):
        m = original(*args)
        return None if m is None else m + 1

    return count


INJECTIONS = {
    "amplitude reference 1e-6 high": mock.patch.object(
        checks, "reference_amplitude", lambda model, n, f=checks.reference_amplitude: f(model, n) * (1.0 + 1e-6)
    ),
    "third base eigenvalue 1e-6 high": mock.patch.object(checks, "_reference_base", _shifted_base(checks._reference_base)),
    "brute-force Morse count one high": mock.patch.object(checks, "_morse_count", _off_by_one(checks._morse_count)),
}


def failed_frac(records) -> float:
    verdicts, _ = run.evaluate(records, SEED)
    return sum(v is not None for v in verdicts) / len(verdicts)


def main() -> int:
    if not (run.SRC / "cylbif" / "cli.py").is_file():
        print(f"no cylbif sources under {run.SRC}", file=sys.stderr)
        return 2
    batch = [inv for inv in make_batch("sweep-1d", SEED) if inv.group == "sweep0"]
    run.WORK.mkdir(exist_ok=True)
    run_dir = run.WORK / f"selfcheck-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        paths = []
        for i, inv in enumerate(batch):
            paths.append(run_dir / f"config-{i:02d}.json")
            paths[-1].write_text(json.dumps(inv.config))
        _, records, _ = run.measure(batch, paths, SEED, 0.0, False, run_dir)
        baseline = failed_frac(records)
        print(f"true references: failed_frac {baseline:.3f} over {len(records)} invocations")
        ok = baseline == 0.0
        for name, patch in INJECTIONS.items():
            with patch:
                frac = failed_frac(records)
            print(f"{name}: failed_frac {frac:.3f}")
            ok = ok and frac > baseline
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
