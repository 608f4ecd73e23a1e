"""Continuous measurement of the Newtonian force from a two-well particle.

A classical probe that reads the force at temporal resolution tau performs
repeated projective well measurements: the record is a dichotomic +/-1
series whose joint law depends only on the number of jumps, with per-step
flip probability sin^2(nu tau / 2).  This module provides a seedable
vectorized Monte Carlo sampler that streams the records as blocks of
packed sign bits, a row of uint64 words a record, ensemble estimators of
the mean force and its two-time correlation that take the stream a block
at a time into a fixed-size table of distinct records, so memory does not
grow with the record count, and the exponential fit of their decay
constant Gamma = nu^2 tau / 2.  The closed forms the estimates are
checked against (record probabilities, conditionals, the discrete and
continuum force laws and the Kolmogorov defect) are in `tests/oracles.py`.

Bookkeeping: lambda = nu^2 tau^2 / 4 is the per-step jump weight in the
small-angle regime and Gamma = 2 lambda / tau the continuum rate; the two
are never conflated.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

# Most record words, force.count ceil((N+1)/64), that a run may draw.  On a
# 2-CPU machine sampling and estimating took 3.9e5 (nu tau 0.5, 1000 steps)
# to 1.9e7 (nu tau 0.01, one step) words a second, so a run at the bound
# takes 4 hours to 8 days.
MAX_RECORD_WORDS = 1 << 38
# Trajectories per random stream; fixed, so a smaller draw is a prefix of a larger.
_STREAM_BLOCK = 4096
# Rarer-outcome probability at or below which the sampler draws geometric
# gaps instead of one uniform per step.  Gap / uniform time (2-CPU machine):
# 200 steps 0.8 at q = 0.08, 1.0 at 0.10, 1.2 at 0.12, 1.5 at 0.15, 1.8-2.0 at
# 0.20; 1000 steps 0.9 to 1.8 over the same q; 20 steps 0.6 to 1.1; 1 to 5
# steps 0.5 to 0.7.  A lower value would change the records drawn between it
# and 0.2 and slow short records, so it stays.
_GAP_CROSSOVER = 0.2
# Complex-spectrum bytes per estimator FFT block, small enough to stay in
# cache: 128 records of 201 readings, transformed into two arrays made once
# per table.  At nu tau 0.5 the lag sums took 2% longer at 2^19 and 12%
# longer at 2^18, and force-ensemble's peak RSS was 0.4 MB higher at 2^19.
_FFT_BLOCK_BYTES = 1 << 20
# Bytes of the float32 flip rows of each uniform-route draw; its uniforms
# take at most twice that.
_UNIFORM_BYTES = 1 << 18
# Weights that sum 16 float32 0/1 flips into one exact 16-bit quarter word.
_QUARTER_WORD = 2.0 ** np.arange(16, dtype=np.float32)
# Bytes of the estimator's record table, which takes the lag sums of its
# distinct records and empties when full.  A record costs its key words and
# 24 B for its multiplicity and the hash and sort index of a merge: 56 B at
# 201 readings, so 18,724 records, where force-ensemble's 100,000 records
# hold about 7,900 distinct.
_TABLE_BYTES = 1 << 20
# Odd 64-bit multiplier (2^64 / golden ratio) of the record-key hash.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


@dataclass(frozen=True)
class ProbeGeometry:
    """Source mass m in wells split by L; probe mass m0 at transverse offset y."""

    G: float = 1.0
    m: float = 1.0
    m0: float = 1.0
    L: float = 1.0
    y: float = 0.0


def force_amplitude(geo: ProbeGeometry) -> float:
    """Magnitude f0 of the along-axis force: G m m0 L / (2 (y^2 + L^2/4)^(3/2)).

    The force operator on the well qubit is -f0 sigma_3: reading +1 (right
    well) means force -f0 on the probe.  A geometry whose f0 leaves the
    float range gives inf or 0 (or nan), never an exception.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r2 = np.float64(geo.y) ** 2 + np.float64(geo.L) ** 2 / 4.0
        return float(geo.G * geo.m * geo.m0 * geo.L / (2.0 * r2**1.5))


@dataclass(frozen=True)
class MeasurementSchedule:
    """Temporal resolution tau, subinterval count N, tunneling rate nu.

    Readings happen at the N+1 steps 0, tau, ..., N tau; the N transitions
    between them each flip with probability sin^2(nu tau / 2).
    """

    tau: float
    n_steps: int
    nu: float

    @property
    def gamma(self) -> float:
        """Continuum decay rate Gamma = 2 lambda / tau = nu^2 tau / 2."""
        return self.nu**2 * self.tau / 2.0

    @property
    def flip_probability(self) -> float:
        return float(np.sin(0.5 * self.nu * self.tau) ** 2)

    @property
    def times(self) -> np.ndarray:
        return self.tau * np.arange(self.n_steps + 1)


def _rare_cells(rng: np.random.Generator, cells: int, q: float) -> np.ndarray:
    """Ascending indices, in [0, cells), of the cells hit by an event of
    per-cell probability 0 < q < 1, each cell independently.

    The gaps between successive hits are geometric, ceil(E / -log1p(-q))
    with E ~ Exp(1) (Devroye 1986, ch. X), consumed from `rng` in sequence,
    so the hits among the first k cells do not depend on `cells` >= k.
    """
    rate = -np.log1p(-q)
    chunks, end = [], 0  # end: 1-based position of the last hit drawn
    while end < cells:
        expected = (cells - end) * q
        with np.errstate(over="ignore"):  # a subnormal rate gives inf gaps
            gaps = np.ceil(rng.standard_exponential(int(expected + 4.0 * np.sqrt(expected)) + 16)
                           / rate)
        # E = 0 gives a zero gap; a gap past the block's end is cut to one
        # cell past it before the sum, so no tiny q overflows int64.
        np.clip(gaps, 1.0, cells + 1.0, out=gaps)
        chunks.append(end + np.cumsum(gaps.astype(np.int64)))
        end = int(chunks[-1][-1])
    hits = np.concatenate(chunks)
    return hits[: np.searchsorted(hits, cells, side="right")] - 1


def _set_flips(words: np.ndarray, cells: np.ndarray, n: int) -> None:
    """Set bit k + 1 of record i in the (rows, width) uint64 `words` for
    each flat step index i n + k, 0 <= k < n, in `cells`."""
    bits_per_row = 64 * words.shape[1]
    pos = cells // n  # the record, then the bit's index in the flat words
    pos *= bits_per_row - n
    pos += cells
    pos += 1
    bits = np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64))
    pos >>= 6
    np.bitwise_or.at(words.reshape(-1), pos, bits)


def sample_trajectories(sched: MeasurementSchedule, count: int,
                        seed: int) -> Iterator[np.ndarray]:
    """Draw `count` i.i.d. records starting from +1, yielded as C-contiguous
    (rows, ceil((N+1)/64)) uint64 blocks, one row per record: reading t is
    -1 where bit t % 64 of word t // 64 is set, and padding bits are 0.

    Block b holds the next _STREAM_BLOCK records (fewer in the last), drawn
    row by row from the PCG64 stream of SeedSequence(seed, spawn_key=(b,)),
    so results are bit-reproducible and a draw is the prefix of any larger
    one with the same seed.  Each step flips with p = sin^2(nu tau / 2).
    When the rarer outcome, of probability q = min(p, 1 - p), has
    q <= _GAP_CROSSOVER, only its steps are drawn, as geometric gaps over
    the block's row-major steps (the flips, or the stays when p > 1/2,
    whose bits are then inverted); otherwise one uniform draw per step
    decides each flip against p, drawn a few rows at a time, which takes
    the same numbers from the stream as one draw of the block.  Flip k is
    set at bit k + 1: the gap route sets each marked step's bit, and the
    uniform route sums each 16 float32 0/1 flips against powers of two
    into an exact 16-bit quarter of a word (little-endian, as
    `unpack_readings` reads the words).  The readings are the prefix xor
    of the flip bits: a ladder of shifts inside each word (Warren,
    Hacker's Delight, 5-2), each word then xored with the parity carried
    out of the one before.  The routes' times are compared at _GAP_CROSSOVER.
    """
    n = sched.n_steps
    width = -(-(n + 1) // 64)
    p_flip = sched.flip_probability
    q = min(p_flip, 1.0 - p_flip)
    stays = np.array([((1 << n + 1) - 2) >> 64 * j & (1 << 64) - 1  # bits 1..N set
                      for j in range(width)], dtype=np.uint64)
    if q > _GAP_CROSSOVER:  # flip rows of one draw, padded to whole words
        padded = np.zeros((min(_STREAM_BLOCK, max(1, _UNIFORM_BYTES // (256 * width))),
                           64 * width), dtype=np.float32)
    for b, lo in enumerate(range(0, count, _STREAM_BLOCK)):
        rows = min(_STREAM_BLOCK, count - lo)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))))
        words = np.zeros((rows, width), dtype=np.uint64)
        if q > _GAP_CROSSOVER:
            for r in range(0, rows, padded.shape[0]):
                flips = padded[: rows - r]
                np.less(rng.random((flips.shape[0], n)), p_flip, out=flips[:, 1 : n + 1])
                quarters = (flips.reshape(-1, 16) @ _QUARTER_WORD).astype(np.uint16)
                words[r : r + flips.shape[0]] = quarters.view(np.uint64).reshape(-1, width)
        else:
            if q > 0.0:
                _set_flips(words, _rare_cells(rng, rows * n, q), n)
            if p_flip > 0.5:  # the marks are the stays
                words ^= stays
        for shift in (1, 2, 4, 8, 16, 32):
            words ^= words << np.uint64(shift)
        for j in range(1, width):  # all ones where the parity so far is odd
            words[:, j] ^= -(words[:, j - 1] >> np.uint64(63))
        words[:, -1] &= np.uint64((1 << (n % 64 + 1)) - 1)  # clear the padding bits
        yield words


def unpack_readings(words: np.ndarray, length: int) -> np.ndarray:
    """The (rows, length) int8 +/-1 readings of the packed records `words`."""
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=length, bitorder="little")
    return 1 - 2 * bits.view(np.int8)


@dataclass
class ForceStatistics:
    """Ensemble force statistics with per-lag standard errors.

    Correlation estimates average over all pairs at fixed lag, not only
    pairs anchored at t = 0; since the ensemble starts deterministically
    from one well, the underlying process is not stationary in its mean and
    the pooled estimate is a lag-average (see metadata).
    """

    time: np.ndarray
    mean: np.ndarray
    mean_stderr: np.ndarray
    lag_steps: np.ndarray
    lag_time: np.ndarray
    corr: np.ndarray
    corr_stderr: np.ndarray
    metadata: dict = field(default_factory=dict)


def _group(words: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the (count, width) uint64 keys `words` and the
    summed `weight` of each.  Rows are sorted by a polynomial hash of the key
    and a group starts wherever the full key differs from the row before: a
    hash collision can only split a group, never merge two."""
    digest = words[:, 0].copy()
    for column in words.T[1:]:
        digest *= _HASH_MULTIPLIER
        digest += column
    order = np.argsort(digest)
    del digest  # each temporary goes before the next is made
    new_key = np.zeros(order.size, dtype=bool)
    new_key[:1] = True
    for column in words.T:  # one word at a time: no sorted copy of all keys
        ordered = column[order]
        new_key[1:] |= ordered[1:] != ordered[:-1]
    del ordered
    starts = np.flatnonzero(new_key)
    return words[order[starts]], np.add.reduceat(weight[order], starts)


def _distinct_records(blocks: Iterable[np.ndarray],
                      length: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Tables of distinct records' keys, in hash order, and multiplicities,
    which together count each record once.

    A key is the record's packed sign bits, as `sample_trajectories` yields
    them.  Each block is checked to be a 2-D uint64 array of
    `length`-reading records with no padding bit set, then grouped, and its
    groups are copied into a table of fixed size, about _TABLE_BYTES.
    When a block's groups do not fit, the table's groups are merged; if
    they still do not fit, the merged table is yielded and the table
    emptied.  A block with more distinct records than the table holds is
    yielded alone, and what the table holds after the last block is yielded
    merged.  So memory does not grow with the record count."""
    width, padding = -(-length // 64), ~np.uint64((1 << ((length - 1) % 64 + 1)) - 1)
    capacity = max(1, _TABLE_BYTES // (8 * width + 24))
    keys = np.empty((capacity, width), dtype=np.uint64)
    weight = np.empty(capacity, dtype=np.int64)
    held = count = 0
    for block in blocks:
        if not (isinstance(block, np.ndarray) and block.dtype == np.uint64 and block.ndim == 2
                and block.shape[1] == width):
            raise ValueError(f"each block must be a 2-D uint64 array of {width}-word records")
        if np.any(block[:, -1] & padding):
            raise ValueError(f"padding bits past reading {length - 1} must be 0")
        count += block.shape[0]
        group = _group(block, np.ones(block.shape[0], dtype=np.int64))
        size = group[1].size
        if held and held + size > capacity:  # no room: merge the table's groups
            merged = _group(keys[:held], weight[:held])
            held = merged[1].size
            if held + size > capacity:  # still no room: sum the table and empty it
                held = 0
                yield merged
            else:
                keys[:held], weight[:held] = merged
            del merged
        if size > capacity:
            yield group
        else:
            keys[held : held + size], weight[held : held + size] = group
            held += size
        del group
    if not count:
        raise ValueError("need at least one record")
    if held:
        table = _group(keys[:held], weight[:held])
        del keys, weight  # the buffer goes before the last table is transformed
        yield table


def _lag_sums(blocks: Iterable[np.ndarray], length: int,
              max_lag: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Record count, column sums of the readings (int64), and sums over
    records of each record's all-pairs lag sum a_k and of a_k^2,
    k = 0..max_lag, by FFT once per distinct record of each table, each
    weighted by its multiplicity.  Every sum is an integer below 2^53, so
    float64 BLAS products give it exactly, whatever the tables."""
    count, col_sum = 0, np.zeros(length)
    sum_a, sum_a2 = np.zeros((2, max_lag + 1))
    for keys, weight in _distinct_records(blocks, length):
        count += int(weight.sum())
        _add_table_sums(keys, weight, col_sum, sum_a, sum_a2)
        del keys, weight  # before the next table is merged
    return count, col_sum.astype(np.int64), sum_a, sum_a2


def _add_table_sums(keys: np.ndarray, weight: np.ndarray, col_sum: np.ndarray,
                    sum_a: np.ndarray, sum_a2: np.ndarray) -> None:
    """Add one table's weighted column sums and lag sums into `col_sum`,
    `sum_a` and `sum_a2`, transforming _FFT_BLOCK_BYTES of spectra at a
    time in two arrays made once."""
    length, max_lag = col_sum.size, sum_a.size - 1
    n_fft = 1 << int(np.ceil(np.log2(2 * length)))
    block = min(weight.size, max(1, _FFT_BLOCK_BYTES // (16 * n_fft)))
    spec, auto = np.empty((block, n_fft // 2 + 1), dtype=complex), np.empty((block, n_fft))
    for lo in range(0, weight.size, block):
        rows = unpack_readings(keys[lo : lo + block], length)
        w = weight[lo : lo + block].astype(float)
        col_sum += w @ rows
        power = np.fft.rfft(rows, n=n_fft, axis=1, out=spec[: w.size])
        re, im = np.square(power.real, out=power.real), np.square(power.imag, out=power.imag)
        re += im  # the power spectrum, in place
        im[...] = 0.0
        lag = np.fft.irfft(power, n=n_fft, axis=1, out=auto[: w.size])[:, : max_lag + 1]
        np.rint(lag, out=lag)
        sum_a += w @ lag
        sum_a2 += w @ np.square(lag, out=lag)


def estimate_force_statistics(blocks: Iterable[np.ndarray], sched: MeasurementSchedule,
                              f0: float, max_lag: int | None = None) -> ForceStatistics:
    """Sample mean series and two-time correlation of the force readings.

    `blocks` yields 2-D uint64 arrays of packed sign bits, a row a
    trajectory of N+1 readings, as `sample_trajectories` does; each is
    reduced to its distinct records, which go into a fixed-size table, and
    dropped, so memory does not grow with the record count.  The
    per-trajectory autocorrelation is computed by FFT over all pairs at
    each lag, and its lag sums, sums of +/-1 products, are rounded to the
    integers they are.  Each distinct record of a table is transformed
    once, its lag sums and readings weighted by its multiplicity.  Every
    product and partial sum is an integer, below 2^53 whenever
    count (N+1)^2 is, so the totals do not depend on the grouping, the
    tables, the block split or the summation order.  Standard errors come
    from the spread across independent trajectories, in integer sums: a
    +/-1 column with sum S has sample variance (count - S^2/count) /
    (count - 1).
    """
    length = sched.n_steps + 1
    max_lag = sched.n_steps if max_lag is None else min(max_lag, sched.n_steps)
    count, col_sum, sum_a, sum_a2 = _lag_sums(blocks, length, max_lag)
    dof = max(count - 1, 1)  # a single record has zero spread
    mean = f0 * -col_sum / count
    mean_stderr = f0 * np.sqrt((count**2 - col_sum**2) / dof) / count

    lags = np.arange(max_lag + 1)
    scale = f0**2 / (count * (length - lags))  # pairs at lag k: N + 1 - k
    corr = scale * sum_a
    corr_stderr = scale * np.sqrt(np.maximum(count * sum_a2 - sum_a**2, 0.0) / dof)
    return ForceStatistics(
        time=sched.times, mean=mean, mean_stderr=mean_stderr, lag_steps=lags,
        lag_time=lags * sched.tau, corr=corr, corr_stderr=corr_stderr,
        metadata={"count": count,
                  "estimator": "all pairs at fixed lag, pooled over start times",
                  "stationarity": "ensemble starts from one well; mean decays with time"},
    )


def fit_exponential_rate(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of |y| = amplitude * exp(-rate * t).

    Returns (rate, amplitude); requires strictly nonzero samples of one sign,
    at times whose squares sum to a normal float: polyfit scales the time
    column by that norm, and an underflowing or overflowing one fails
    inside LAPACK or gives a rank-deficient fit.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y == 0.0) or (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("exponential fit needs nonzero samples of a single sign")
    with np.errstate(over="ignore"):
        if not np.finfo(float).tiny <= t @ t < np.inf:
            raise ValueError(f"sample times up to {np.max(np.abs(t)):.3g} are outside "
                             "the range a least-squares fit resolves")
    slope, intercept = np.polyfit(t, np.log(np.abs(y)), 1)
    return float(-slope), float(np.exp(intercept))
