"""Benchmark of the four gravcat CLI experiments, end to end and per layer.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
`src/`.  For `--seconds` seconds the run repeats its workload, each
repetition a fresh `python3 benchmarks/child.py` process, so every cache
inside the program starts empty as in a user's run.  After each repetition
the artifacts are checked against closed forms (`checks.py`).

`--trace 0` prints the median over repetitions of every end-to-end metric
named in BENCHMARK.json.  `--trace 1` alternates untraced and traced
repetitions and prints the per-layer metrics from the traced ones (see
tracer.py), plus `trace.overhead_s`, the traced minus the untraced median
wall time.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

The BLAS thread pool is left at its default and GRAVCAT_THREADS unset, as
a user runs the program: those variables are removed from the children's
environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

# name -> (CLI experiment, flat config).  Why each was chosen is in
# BENCHMARK.json and README.md.
WORKLOADS = {
    "force-ensemble": ("force-trajectories", {
        "force.nu": 0.1, "force.tau": 1.0, "force.steps": 200, "force.count": 100000,
    }),
    "probe-dynamics": ("jc-suite", {
        "jc.g_over_omega": 1.0, "jc.nu_over_omega": 0.05, "jc.dim": 64,
        "jc.samples": 61, "jc.nu_t_max": 0.5 * math.pi * math.e**2,
    }),
    "g2s-grid": ("g2s-correlations", {
        "g2s.c_plus_re": 0.6, "g2s.c_minus_im": 0.8, "g2s.nu": 0.3,
        "grid.t_max": 20.0, "grid.t_count": 200,
    }),
    "density-phase-space": ("density-suite", {
        "density.state": "cat", "density.sigma": 1.0, "density.L": 6.0,
    }),
}

# Variables that would change the thread counts a user gets by default.
THREAD_VARS = ("GRAVCAT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], env: dict) -> tuple[int, dict | None, str]:
    """Run child.py with `args`; return (exit code, its record, stderr)."""
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return proc.returncode, None, proc.stderr
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["t_setup"] - t_spawn
    rec["wall_s"] = rec["t_end"] - rec["t_ready"]
    rec["peak_rss_mb"] = rec["peak_rss_kb"] / 1024.0
    return rec["exit_code"], rec, proc.stderr


def layer_metrics(spans_path: Path) -> dict:
    """calls, self_s (span minus its direct children) and counters by name."""
    dump = json.loads(spans_path.read_text())
    spans = dump["spans"]
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + end - start - child_time[i]
    out.update(dump["counters"])
    out["trace.spans"] = len(spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gravcat" / "cli.py").is_file():
        print(f"benchmark: no gravcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from checks import run_checks
    from tracer import ALLOC_TRACED

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    experiment, inputs = WORKLOADS[args.workload]
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps(inputs))
    outdir = work / "out"
    spans = work / "spans.json"
    env = child_env()
    base = [experiment, str(config), str(args.seed), str(outdir)]

    # Untimed: compiles bytecode on a fresh checkout and warms the file cache.
    subprocess.run([sys.executable, "-c", "import gravcat.cli"], env=env, cwd=ROOT,
                   check=True, timeout=170)

    attempted = failed = 0
    correct = True
    plain, traced, alloc = [], [], {}

    def repetition(mode: str):
        nonlocal attempted, failed, correct
        attempted += 1
        code, rec, err = spawn(base + ([mode, str(spans)] if mode != "time" else []), env)
        if code != 0:
            failed += 1
            print(f"benchmark: {args.workload} exited {code}: {err.strip()[-400:]}",
                  file=sys.stderr)
            return None
        for name, ok, detail in run_checks(experiment, outdir, inputs):
            if not ok:
                correct = False
                print(f"benchmark: check {name} failed: {detail}", file=sys.stderr)
        return rec

    start = time.monotonic()
    while not attempted or time.monotonic() - start < args.seconds:
        rec = repetition("time")
        if rec is not None:
            plain.append(rec)
        if args.trace:
            rec = repetition("spans")
            if rec is not None:
                rec["layers"] = layer_metrics(spans)
                traced.append(rec)
    if args.trace and traced and any(
            f"{name}.calls" in traced[0]["layers"] for name in ALLOC_TRACED):
        # tracemalloc slows allocation-heavy code several-fold, so allocation
        # peaks come from one extra repetition whose times are not used.
        if repetition("alloc") is not None:
            alloc = layer_metrics(spans)

    (work / ("reps-trace.json" if args.trace else "reps.json")).write_text(json.dumps(
        {"plain": plain, "traced": [{k: v for k, v in r.items() if k != "layers"} for r in traced]},
        indent=1))
    if not plain or (args.trace and not traced):
        print("benchmark: no repetition completed", file=sys.stderr)
        return 1

    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "setup.import_s":
                value = statistics.median(r["t_import"] - r["t_ready"] for r in traced)
            elif name == "trace.overhead_s":
                value = (statistics.median(r["wall_s"] for r in traced)
                         - statistics.median(r["wall_s"] for r in plain))
            elif name.endswith(".peak_alloc_mb"):
                value = alloc.get(name, 0.0)
            else:
                value = statistics.median(r["layers"].get(name, 0) for r in traced)
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            value = statistics.median(r[m["name"]] for r in plain)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
