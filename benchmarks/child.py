"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 benchmarks/child.py <experiment> <config.json> <seed> <outdir> [spans|alloc <spans.json>]

Runs `gravcat.cli.main` once and prints, as its last stdout line, a JSON
object with its timestamps (CLOCK_MONOTONIC, shared by every process on the
host, so the parent can subtract its spawn time), CPU time of all threads
and peak RSS.  With `spans` or `alloc` the run is traced (see tracer.py) and
the spans are written to the given path when the run ends.
"""

import time

T_READY = time.monotonic()
CPU_READY = time.process_time()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv):
    experiment, config, seed, outdir = argv[:4]
    mode, spans_path = argv[4:6] if len(argv) > 4 else (None, None)
    import gravcat
    from gravcat import cli
    from gravcat.harness import load_config, resolve_config

    t_import = time.monotonic()
    resolve_config(experiment, load_config(config), seed=int(seed), output_dir=outdir)
    t_setup = time.monotonic()
    tracer = None
    if mode:
        from tracer import Tracer

        tracer = Tracer(alloc=mode == "alloc")
        tracer.install(gravcat)
    code = cli.main([experiment, "--config", config, "--seed", seed, "--out", outdir])
    t_end = time.monotonic()
    cpu_end = time.process_time()
    if tracer is not None:
        tracer.dump(spans_path)
    print(json.dumps({
        "exit_code": code,
        "t_ready": T_READY,
        "t_import": t_import,
        "t_setup": t_setup,
        "t_end": t_end,
        "cpu_s": cpu_end - CPU_READY,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
