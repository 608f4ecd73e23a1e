"""Sweep gravcat's CSV writer against Python's %.17g, byte for byte.

    PYTHONPATH=src python tests/sweep_csv_format.py [--values N] [--seed S]

Writes N float64 values (default 10^7) through `harness.write_csv`, one
1-D column per chunk of 10^6, and compares every line with `"%.17g" % v`.
The values are random bit patterns (NaN payloads, infinities and subnormals
included), random decimal grids (values rounded to a few decimals, scaled
by a power of ten, and evenly spaced grids) and constructed exact ties:
m / 2^j with m odd and m 5^j of 18 digits, whose exact decimal has a 5 as
its 18th and last significant digit, so that the 17-digit rounding goes to
the even neighbour.  Exits 1 at the first chunk with a differing byte.
Not a pytest module: it takes about half a minute.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from gravcat import harness

CHUNK = 1_000_000


def bit_patterns(rng, n):
    return rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)


def decimal_grids(rng, n):
    half = n // 2
    digits = rng.integers(0, 18, size=half)
    rounded = np.round(rng.uniform(-1.0, 1.0, half) * 10.0**digits) / 10.0**digits
    scaled = rounded * 10.0 ** rng.integers(-30, 31, size=half)
    lo, hi = np.sort(rng.uniform(-1e3, 1e3, 2))
    return np.concatenate([scaled, np.linspace(lo, hi, n - half)])


def exact_ties(rng, n):
    """m / 2^j for odd m < 2^53 with m 5^j of 18 digits, j in [2, 25]."""
    j = rng.integers(2, 26, size=n)
    low = np.ceil(1e17 / 5.0**j)
    high = np.minimum(np.floor((1e18 - 1) / 5.0**j), 2.0**53 - 1)
    m = np.floor(low + rng.random(n) * (high - low + 1))
    m = np.minimum(m + (m % 2 == 0), high - (high % 2 == 0))  # odd, in range
    ties = m / 2.0**j
    return np.where(rng.random(n) < 0.5, ties, -ties)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", type=int, default=10_000_000)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    sources = [bit_patterns, decimal_grids, exact_ties]
    counts = [0, 0, 0]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        for index, lo in enumerate(range(0, args.values, CHUNK)):
            source = sources[index % len(sources)]
            values = source(rng, min(CHUNK, args.values - lo))
            counts[index % len(sources)] += values.size
            got = harness.write_csv(path, ["v"], [[values]]).read_bytes().split(b"\n")[1:-1]
            want = [b"%.17g" % v for v in values.tolist()]
            if got != want:
                bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w] or [len(got)]
                i = bad[0]
                print(f"{source.__name__}: {len(bad)} of {values.size} lines differ; first "
                      f"{values[i]!r}: wrote {got[i] if i < len(got) else None!r}, "
                      f"% gives {want[i]!r}")
                return 1
    print(f"{args.values} values match %.17g: {counts[0]} bit patterns, "
          f"{counts[1]} decimal grid values, {counts[2]} constructed ties")
    return 0


if __name__ == "__main__":
    sys.exit(main())
