"""Benchmark of the cylbif command line, one workload per run.

    python3 benchmarks/run.py --workload branch-200 --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all

One client drives fresh-process ``python3 -m cylbif`` invocations in a closed
loop: the next starts when the previous has exited.  A run times a bare
``import cylbif.cli`` (``setup_s``), makes one untimed warm-up invocation,
repeats the workload's fixed batch (see workloads.py) for the whole number of
batches that comes nearest to ``--seconds``, timing the import again after
each batch, then checks every output (see checks.py).

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
each invocation runs twice, once plain and once under tracing.py, in
alternating order, and the run reports the per-layer metrics, the tracing
overhead and the share of traced wall time the layer spans account for.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the run
writes goes under ``.bench_work/`` at the repository root; the digests of
each invocation's artifacts stay there, so that a later run of the same
code that writes different bytes is counted as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

from checks import check_group
from tracing import LAYERS, invocation_profile, layer_metrics
from workloads import WORKLOADS, Invocation, make_batch, warmup_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_FIRST = 3
INVOCATION_TIMEOUT_S = 120.0
BLAS_THREADS = 1  # pinned so that runs on a shared machine do not contend for cores

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "CYLBIF_LOG")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


ENV = _child_env()


def spawn(argv: list[str], log_path: Path) -> tuple[float, int, float]:
    """Run ``argv`` to completion: (wall seconds from spawn to exit, exit code, peak RSS in MB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


@dataclass
class Record:
    inv: Invocation
    repeat: int
    traced: bool
    wall: float
    rc: int
    rss_mb: float
    out: Path
    spans: Path | None


def run_invocation(inv, config_path: Path, seed: int, run_dir: Path, repeat: int, index: int, traced: bool) -> Record:
    base = run_dir / f"{repeat:03d}-{index:02d}-{'traced' if traced else 'plain'}"
    base.mkdir()
    out = base / "artifacts"
    cli_args = [inv.subcommand, "--config", str(config_path), "--out", str(out), "--seed", str(seed), *inv.extra_args]
    spans = base / "spans.json" if traced else None
    if traced:
        argv = [sys.executable, str(BENCH / "tracing.py"), "--spans", str(spans), "--", *cli_args]
    else:
        argv = [sys.executable, "-m", "cylbif", *cli_args]
    wall, rc, rss = spawn(argv, base / "log.txt")
    return Record(inv, repeat, traced, wall, rc, rss, out, spans)


def time_import(run_dir: Path, k: int) -> float:
    """Wall time of a fresh interpreter importing cylbif.cli."""
    log = run_dir / f"setup-{k}.txt"
    wall, rc, _ = spawn([sys.executable, "-c", "import cylbif.cli"], log)
    if rc != 0:
        sys.stderr.write(log.read_text())
        raise SystemExit(f"import cylbif.cli failed with exit code {rc}")
    return wall


def measure(batch, config_paths, seed: int, seconds: float, trace: bool, run_dir: Path, warmup=None):
    """Repeat the batch for about ``seconds`` of batch time, in whole batches.

    The import is timed three times before the first batch, after one
    warm-up that fills __pycache__, and once after every batch, so that the
    set-up samples span the same stretch of time as the invocations.  The
    ``warmup`` invocation, if given, runs once untimed and unchecked before
    the first batch, so that no timed call pays for a cold file cache.
    Batches stop at the whole number of batches nearest to ``seconds`` (at
    least one), so a run lasts about ``seconds`` whatever the batch costs.
    Returns (set-up walls, records, seconds spent in batches).
    """
    setup = [time_import(run_dir, k) for k in range(SETUP_FIRST + 1)][1:]
    if warmup is not None:
        config = run_dir / "config-warmup.json"
        config.write_text(json.dumps(warmup.config, indent=1, sort_keys=True))
        run_invocation(warmup, config, seed, run_dir, 0, 99, False)
    records = []
    busy = 0.0
    repeat = 0
    while repeat == 0 or busy + 0.5 * busy / repeat < seconds:
        start = time.perf_counter()
        for i, inv in enumerate(batch):
            order = (False, True) if (i + repeat) % 2 == 0 else (True, False)
            for traced in order if trace else (False,):
                records.append(run_invocation(inv, config_paths[i], seed, run_dir, repeat, i, traced))
        busy += time.perf_counter() - start
        setup.append(time_import(run_dir, len(setup) + 1))
        repeat += 1
    return setup, records, busy


def _sha256_files(paths, root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def code_digest() -> str:
    return _sha256_files([p for p in SRC.rglob("*.py")], SRC)


def invocation_key(inv, seed: int) -> str:
    # --threads is left out: the CLI promises the same bytes for any thread count
    canon = json.dumps([inv.subcommand, inv.config, seed], sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def evaluate(records: list[Record], seed: int) -> tuple[list[str | None], int]:
    """Verdict per record (None when it passed) and the number of outputs with wrong values."""
    verdicts: list[str | None] = [None if r.rc == 0 else f"exit code {r.rc}" for r in records]
    wrong = 0
    groups: dict[tuple, list[int]] = {}
    for k, r in enumerate(records):
        groups.setdefault((r.inv.group, r.repeat, r.traced), []).append(k)
    for members in groups.values():
        problems = check_group([(records[k].inv, records[k].out, records[k].rc) for k in members])
        for k, found in zip(members, problems):
            if found:
                verdicts[k] = "; ".join(found)
                wrong += 1

    store_path = WORK / "artifact_digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    known = store.setdefault(code_digest(), {})
    for k, r in enumerate(records):
        if r.rc != 0:
            continue
        key = invocation_key(r.inv, seed)
        digest = _sha256_files([p for p in r.out.iterdir() if p.is_file()], r.out)
        # irreproducible bytes fail the invocation, but the values were
        # checked above, so they do not make the output wrong
        if known.setdefault(key, digest) != digest and verdicts[k] is None:
            verdicts[k] = "artifact bytes differ from an earlier run of the same code and config"
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)
    return verdicts, wrong


def tail(walls: list[float]) -> float:
    """p90 of the run's invocation times, interpolated between order statistics.

    A run holds 1 to about 40 invocations, too few for a percentile with ten
    samples above it; the run prints how many samples lie above the p90.
    """
    if len(walls) == 1:
        return walls[0]
    return statistics.quantiles(walls, n=10, method="inclusive")[-1]


def provenance(workload: str, seed: int, seconds: float, trace: bool, batch) -> dict:
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "configs": {
            inv.label: hashlib.sha256(json.dumps(inv.config, sort_keys=True).encode()).hexdigest()[:16]
            for inv in batch
        },
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "code_digest": code_digest()[:16],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    batch = make_batch(workload, seed)
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        config_paths = []
        for i, inv in enumerate(batch):
            path = run_dir / f"config-{i:02d}.json"
            path.write_text(json.dumps(inv.config, indent=1, sort_keys=True))
            config_paths.append(path)
        setup, records, loop_s = measure(batch, config_paths, seed, seconds, trace, run_dir, warmup_for(workload, batch))
        verdicts, wrong = evaluate(records, seed)
        failed = sum(v is not None for v in verdicts)
        plain = [r for r in records if not r.traced]
        walls = [r.wall for r in plain]
        setup_s = statistics.median(setup)
        tail_s = tail(walls)

        print(f"workload {workload}  seed {seed}  invocations {len(records)}  batch {len(batch)}  loop {loop_s:.2f} s")
        for r, verdict in zip(records, verdicts):
            if verdict is not None:
                print(f"  FAILED {r.inv.label}{' (traced)' if r.traced else ''}: {verdict}")
        print(f"  setup_s      {setup_s:.4f} s   (median of {len(setup)})")
        print(f"  op_p50_s     {statistics.median(walls):.4f} s   (n = {len(walls)})")
        print(f"  op_tail_s    {tail_s:.4f} s   (p90 of {len(walls)} samples, {sum(w > tail_s for w in walls)} above it)")
        print(f"  ops_per_s    {len(plain) / loop_s:.4f} 1/s")
        print(f"  peak_rss_mb  {max(r.rss_mb for r in records):.1f} MB")
        print(f"  failed_frac  {failed / len(records):.4f}   ({failed} of {len(records)})")

        if trace:
            traced = [r for r in records if r.traced]
            profiles = [invocation_profile(r.spans) for r in traced]
            metrics = layer_metrics(profiles)
            traced_p50 = statistics.median(r.wall for r in traced)
            metrics["trace_overhead_frac"] = traced_p50 / statistics.median(walls) - 1.0
            metrics["trace_coverage_frac"] = math.fsum(p["top_level_s"] + setup_s for p in profiles) / math.fsum(
                r.wall for r in traced
            )
            (WORK / f"trace-{workload}.json").write_text(json.dumps({"metrics": metrics, "profiles": profiles}))
            shares = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
            total = sum(shares.values()) + setup_s
            print(f"  traced p50 {traced_p50:.4f} s; overhead {metrics['trace_overhead_frac']:+.4f}; "
                  f"spans + setup cover {metrics['trace_coverage_frac']:.4f} of traced wall time")
            print("  self time share: " + ", ".join(f"{k} {v / total:.3f}" for k, v in shares.items()) + f", setup {setup_s / total:.3f}")
            units = {}
        else:
            metrics = {
                "setup_s": setup_s,
                "op_p50_s": statistics.median(walls),
                "op_tail_s": tail_s,
                "ops_per_s": len(plain) / loop_s,
                "peak_rss_mb": max(r.rss_mb for r in records),
            }
            units = END_TO_END_UNITS
        record = provenance(workload, seed, seconds, trace, batch)
        record.update(attempted=len(records), failed=failed, metrics=metrics)
        with open(WORK / "runs.jsonl", "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        print("provenance " + json.dumps({k: v for k, v in record.items() if k != "metrics"}, sort_keys=True))
        return {
            "correct": wrong == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units.get(name, _layer_unit(name))} for name, value in metrics.items()},
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "B"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "1"
    return "count"


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cylbif" / "cli.py").is_file():
        print(f"no cylbif sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for name, result in results.items():
            print(f"{name} " + json.dumps(result))
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
