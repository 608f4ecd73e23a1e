"""Command-line front end: `gravcat <command> --config <path> [--seed S] [--out DIR]`.

Commands: g2s-correlations | force-trajectories | jc-suite | density-suite.
Exit codes: 0 success, 2 config error, 3 numerical-regime rejection,
4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
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
    except GravcatError as exc:
        print(f"gravcat: internal invariant failure: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - map anything unexpected to code 4
        print(f"gravcat: internal failure: {exc}", file=sys.stderr)
        return 4
    print(f"gravcat: wrote {len(manifest['artifacts'])} artifacts to {cfg.output_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
