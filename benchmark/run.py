#!/usr/bin/env python3
"""Benchmark of the contact-barcodes library and its `cpv` command.

    python3 benchmark/run.py --workload isometry --seed 1 --seconds 20 --trace 0

Runs one workload (or `all` of them, one child process each) in whole
rounds until --seconds have passed, checks every output, and prints one
JSON object as its last line: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  The program is imported
from src/ of the checkout that holds this file; nothing is installed.
See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "benchmark" / "out"
NAMES = ("cli-ellipsoid", "module-reduce", "isometry")
SETUP_REPEATS = 7

# per-layer time metric -> the span whose self time it sums, per op
LAYER_TIMES = {
    "serialization.loads_s": "serialization.loads",
    "serialization.dumps_s": "serialization.dumps",
    "scalar.parse_s": "scalar.parse",
    "scalar.compare_s": "scalar.compare",
    "gf2.rank_s": "gf2.rank",
    "gf2.matmul_s": "gf2.matmul",
    "persistence.module_from_barcode_s": "persistence.module_from_barcode",
    "persistence.validate_module_s": "persistence.validate_module",
    "persistence.decompose_s": "persistence.decompose",
    "distances.bottleneck_s": "distances.bottleneck",
    "distances.interleaving_s": "distances.interleaving",
    "ellipsoid.barcode_s": "ellipsoid.barcode",
    "invariants.s": "invariants",
}
LAYER_COUNTS = {
    "serialization.bytes": "bytes",
    "scalar.values": "count",
    "gf2.bits": "count",
    "persistence.samples": "count",
    "distances.bottleneck_bars": "count",
    "distances.regions": "count",
    "ellipsoid.bars": "count",
}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer
    from speed import Speed

    tracer = Tracer(traced)
    speed = Speed(*workloads.WORKLOADS[name].SPEED)
    workdir = OUT / f"work-{name}-{seed}-{int(traced)}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            wl = workloads.WORKLOADS[name](seed, tracer, SRC, workdir)
            speed.sample(speed.window or 1)
            t0 = time.perf_counter()
            wl.setup()
            setups.append((time.perf_counter() - t0, speed.mark()))
        gc.collect()

        walls = {label: [] for label in workloads.LABELS}  # (wall s, speed mark)
        attempted = failed = 0
        problems, faults = [], set()
        start = time.perf_counter()
        while attempted == 0 or time.perf_counter() - start < seconds:
            if traced:
                wl.cli_start()
            for label in workloads.LABELS:
                for inp in wl.inputs[label]:
                    tracer.next_op()
                    attempted += 1
                    speed.sample()
                    t0 = time.perf_counter()
                    try:
                        out = wl.op(inp)
                    except Exception:  # the program failed this op; count it
                        failed += 1
                        print(f"{name} {label}: op failed\n{traceback.format_exc()}",
                              file=sys.stderr)
                        continue
                    wall = time.perf_counter() - t0
                    problems += [f"{name} {label}: {p}" for p in wl.check(inp, out)]
                    fault = wl.fault(inp, out)
                    if fault:  # a known fault of the program: failed, not wrong
                        failed += 1
                        faults.add(f"{name} {label}: op failed: {fault}")
                        continue
                    walls[label].append((wall, speed.mark()))
                    if traced:
                        wl.probe(inp, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = attempted - failed
    times = {label: [speed.scale(*w) for w in ws] for label, ws in walls.items()}
    for f in sorted(faults):
        print(f, file=sys.stderr)
    for p in problems[:20]:
        print(f"WRONG {p}", file=sys.stderr)
    for label, ts in times.items():
        if ts:
            print(f"{name} {'traced ' if traced else ''}op {label}: median "
                  f"{statistics.median(ts):.6f} s scaled, "
                  f"{statistics.median(w for w, _ in walls[label]):.6f} s wall, "
                  f"over {len(ts)} ops")

    if not traced:
        own = resource.RUSAGE_CHILDREN if name == "cli-ellipsoid" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": metric(statistics.median(speed.scale(*s) for s in setups), "s"),
            "ops_per_s": metric(done / sum(sum(ts) for ts in times.values()), "ops/s"),
            **{f"op_s.{label}": metric(statistics.median(ts), "s")
               for label, ts in times.items()},
            "peak_rss_mb": metric(resource.getrusage(own).ru_maxrss / 1024, "MB"),
        }
    else:
        self_time = tracer.self_times()
        metrics = {
            "cli.start_s": metric(statistics.median(tracer.durations("cli.start")), "s"),
            "cli.overhead_s": metric(
                sum(tracer.durations("cli.pipeline")) / done
                - sum(tracer.durations("cli.replica")) / done, "s"),
            "cli.processes": metric(len(tracer.durations("cli.process")) / done, "count"),
        }
        for key, span in LAYER_TIMES.items():
            metrics[key] = metric(self_time.get(span, 0.0) / done, "s")
        for key, unit in LAYER_COUNTS.items():
            metrics[key] = metric(wl.counts[key] / done, unit)
        metrics["persistence.max_dim"] = metric(wl.max_dim, "count")
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(str(OUT / f"trace-{name}-{seed}.json"))

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, traced: bool) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    results, status = {}, 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        if not lines:
            continue
        res = json.loads(lines[-1])
        results[name] = res
        print(f"== {name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for key, m in res["metrics"].items():
            print(f"   {key:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()) and len(results) == len(NAMES),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "contact_barcodes" / "__init__.py").is_file():
        print(f"error: no contact_barcodes package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
