"""Command-line front end: `gravcat <command> --config <path> [--seed S] [--out DIR]`.

Commands: g2s-correlations | force-trajectories | jc-suite | density-suite.
Exit codes: 0 success, 2 config error, 3 numerical-regime rejection,
4 internal invariant failure (with its traceback).
"""

from __future__ import annotations

import argparse
import os
import sys

# OpenBLAS reads this as numpy loads it, so it is set before harness imports
# numpy.  At OpenBLAS's default, 28, each idle worker busy-waits 2^28 cycles
# (about 0.1 s) at load and after every threaded call: 30-45% of the CPU time
# of a benchmark run on 2 CPUs.  At 24 it waits a few ms.  Shorter waits
# did not speed a large eigh, whose many BLAS calls must wake the workers
# again (jc-suite at jc.dim 512: 0.247 s at 24, 0.245 s at 20, 0.253 s at
# 4).  A value already in the environment is kept.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "24")

from .harness import (  # noqa: E402 - numpy loads OpenBLAS here
    SCHEMAS,
    ConfigError,
    GravcatError,
    RegimeError,
    load_config,
    resolve_config,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravcat",
        description="Reproducible experiments on a gravitational two-state system",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCHEMAS:
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument("--config", required=True, help="path to a flat JSON config")
        cmd.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
        cmd.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        cfg = resolve_config(args.command, raw, seed=args.seed, output_dir=args.out)
        manifest = run_experiment(cfg)
    except ConfigError as exc:
        print(f"gravcat: config error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"gravcat: regime rejection: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - map anything unexpected to code 4
        kind = "internal invariant failure" if isinstance(exc, GravcatError) else "internal failure"
        print(f"gravcat: {kind}: {exc}", file=sys.stderr)
        sys.excepthook(*sys.exc_info())  # the traceback, to stderr
        return 4
    print(f"gravcat: wrote {len(manifest['artifacts'])} artifacts to {cfg.output_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
