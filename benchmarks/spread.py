"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 benchmarks/spread.py --workloads decomp-200 morse-disk --seeds 1-5
    python3 benchmarks/spread.py --seeds 1-10 --out benchmarks/baseline.json

Each run is ``run.py --workload W --seed S --seconds N --trace 0`` in a
fresh process, one after another.  For every end-to-end metric it prints
the median of the runs and the spread, (q3 - q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``, beside the bound from
BENCHMARK.json.  ``--out`` also writes every value and every run's
provenance record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    provenance = next(json.loads(l[len("provenance "):]) for l in lines if l.startswith("provenance "))
    return {"result": json.loads(lines[-1]), "provenance": provenance}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary, runs = {}, []
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds)
            runs.append({**run["provenance"], "correct": run["result"]["correct"], "metrics": run["result"]["metrics"]})
            for name, m in run["result"]["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k} {v[-1]:.4g}" for k, v in values.items()), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": vals}
            print(f"  {workload:<11} {name:<12} median {med:<10.4g} spread {(q3 - q1) / med:.3f}"
                  f"  (bound {bounds.get(name, float('nan'))})")
    if args.out:
        note = (f"end_to_end holds {len(args.seeds)} plain runs per workload (seeds {args.seeds[0]}-{args.seeds[-1]}, "
                f"--seconds {args.seconds}) with median, quartiles and spread = (q3 - q1) / median; "
                "runs holds each run's provenance record")
        args.out.write_text(json.dumps({"note": note, "end_to_end": summary, "runs": runs}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
