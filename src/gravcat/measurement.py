"""Continuous measurement of the Newtonian force from a two-well particle.

A classical probe that reads the force at temporal resolution tau performs
repeated projective well measurements: the record is a dichotomic +/-1
series whose joint law depends only on the number of jumps, with per-step
flip probability sin^2(nu tau / 2).  This module provides the exact record
probabilities, conditional statistics in two closed forms (the
enumeration-exact one and a small-angle variant whose two-time correlation
acquires a non-stationary prefactor), the continuum exponential law with
decay constant Gamma = nu^2 tau / 2, a seedable vectorized Monte Carlo
sampler, ensemble estimators, and the marginalization (Kolmogorov) defect
of the projective record probabilities.

Bookkeeping: lambda = nu^2 tau^2 / 4 is the per-step jump weight in the
small-angle regime and Gamma = 2 lambda / tau the continuum rate; the two
are never conflated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .two_state import TunnelingParams, tunneling_propagator

_FORMS = ("exact", "approximate")

# Trajectories per random stream; fixed, so a smaller draw is a prefix of a larger.
_STREAM_BLOCK = 4096
# Complex-spectrum bytes per estimator FFT block, small enough to stay in cache.
_FFT_BLOCK_BYTES = 1 << 20
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

    def __post_init__(self):
        for name in ("G", "m", "m0", "L"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.y < np.inf:
            raise ValueError("transverse offset must be nonnegative and finite")


def force_amplitude(geo: ProbeGeometry) -> float:
    """Magnitude f0 of the along-axis force: G m m0 L / (2 (y^2 + L^2/4)^(3/2)).

    The force operator on the well qubit is -f0 sigma_3: reading +1 (right
    well) means force -f0 on the probe.
    """
    return geo.G * geo.m * geo.m0 * geo.L / (2.0 * (geo.y**2 + geo.L**2 / 4.0) ** 1.5)


@dataclass(frozen=True)
class MeasurementSchedule:
    """Temporal resolution tau, subinterval count N, tunneling rate nu.

    Readings happen at the N+1 steps 0, tau, ..., N tau; the N transitions
    between them each flip with probability sin^2(nu tau / 2).
    """

    tau: float
    n_steps: int
    nu: float

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise ValueError(f"temporal resolution must be positive and finite, got {self.tau}")
        if not self.n_steps >= 1:
            raise ValueError(f"need at least one subinterval, got {self.n_steps}")
        if not 0 <= self.nu < np.inf:
            raise ValueError(f"tunneling rate must be nonnegative and finite, got {self.nu}")

    @property
    def lam(self) -> float:
        """Per-step jump weight lambda = nu^2 tau^2 / 4 (small-angle regime)."""
        return self.nu**2 * self.tau**2 / 4.0

    @property
    def gamma(self) -> float:
        """Continuum decay rate Gamma = 2 lambda / tau = nu^2 tau / 2."""
        return self.nu**2 * self.tau / 2.0

    @property
    def flip_probability(self) -> float:
        return float(np.sin(0.5 * self.nu * self.tau) ** 2)

    @property
    def small_angle(self) -> bool:
        return self.nu * self.tau < 0.3

    @property
    def times(self) -> np.ndarray:
        return self.tau * np.arange(self.n_steps + 1)


@dataclass
class TrajectoryRecord:
    """A +/-1 reading series of length N+1 with its jump count."""

    readings: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        r = np.asarray(self.readings)
        if not np.all(np.isin(r, (1, -1))):
            raise ValueError("readings must be +1 or -1")
        self.readings = r.astype(np.int8)

    @property
    def jump_count(self) -> int:
        return int(np.count_nonzero(self.readings[1:] != self.readings[:-1]))

    def __len__(self) -> int:
        return self.readings.size


@dataclass
class TrajectoryEnsemble:
    """Stack of i.i.d. trajectory records with the seed that produced them."""

    readings: np.ndarray  # (count, N+1) int8
    seed: int
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.readings.shape[0]

    def __getitem__(self, i: int) -> TrajectoryRecord:
        return TrajectoryRecord(self.readings[i], seed=self.seed)

    def jump_counts(self) -> np.ndarray:
        return np.count_nonzero(self.readings[:, 1:] != self.readings[:, :-1], axis=1)


def sequence_probability(record: TrajectoryRecord, sched: MeasurementSchedule,
                         small_angle: bool = False) -> float:
    """Probability of a full record starting from the right well.

    Exact: (cos^2(nu tau/2))^(N-n) (sin^2(nu tau/2))^n for n jumps over N
    transitions.  With small_angle=True, the nu tau << 1 law
    lambda^n exp(-lambda (N-n)) is returned instead.
    """
    if len(record) != sched.n_steps + 1:
        raise ValueError(
            f"record has {len(record)} readings, schedule expects {sched.n_steps + 1}"
        )
    if record.readings[0] != 1:
        raise ValueError("records start from the right well (+1 first reading)")
    n = record.jump_count
    big_n = sched.n_steps
    if small_angle:
        return float(sched.lam**n * np.exp(-sched.lam * (big_n - n)))
    p_flip = sched.flip_probability
    return float((1.0 - p_flip) ** (big_n - n) * p_flip**n)


def _check_form(form: str):
    if form not in _FORMS:
        raise ValueError(f"form must be one of {_FORMS}, got {form!r}")


def conditional_g(a2: int, a1: int, m_steps: int, sched: MeasurementSchedule,
                  form: str = "exact") -> float:
    """Conditional probability g(a2, a1; m) of reading a2 a lag of m steps
    after reading a1.

    form="exact" sums the record law directly: (1 +/- cos^m(nu tau)) / 2,
    a properly normalized telegraph conditional.  form="approximate" is the
    small-angle closed form
        (cos^2(nu tau/2))^m [ (1 + sin^2(nu tau)/4)^m +/- (1 - sin^2(nu tau)/4)^m ] / 2
    whose per-jump weight sin^2(nu tau)/4 only matches the exact
    tan^2(nu tau / 2) to leading order; its conditional law is not
    normalized at finite nu tau.  Symmetric wells: g(-,-) = g(+,+) and
    g(+,-) = g(-,+).
    """
    if a1 not in (1, -1) or a2 not in (1, -1):
        raise ValueError("well labels must be +1 or -1")
    if m_steps < 0:
        raise ValueError(f"step lag must be nonnegative, got {m_steps}")
    _check_form(form)
    same = a1 == a2
    if form == "exact":
        base = np.cos(sched.nu * sched.tau) ** m_steps
        return float(0.5 * (1.0 + base) if same else 0.5 * (1.0 - base))
    c2m = np.cos(0.5 * sched.nu * sched.tau) ** (2 * m_steps)
    x = 0.25 * np.sin(sched.nu * sched.tau) ** 2
    plus, minus = (1.0 + x) ** m_steps, (1.0 - x) ** m_steps
    return float(0.5 * c2m * (plus + minus if same else plus - minus))


def force_mean_steps(m_step: int, sched: MeasurementSchedule, f0: float,
                     form: str = "exact") -> float:
    """Discrete mean force at step m for a right-well start.

    exact: -f0 cos^m(nu tau); approximate:
    -f0 [cos^2(nu tau/2) (1 - sin^2(nu tau)/4)]^m.
    """
    _check_form(form)
    if form == "exact":
        return float(-f0 * np.cos(sched.nu * sched.tau) ** m_step)
    base = np.cos(0.5 * sched.nu * sched.tau) ** 2 * (
        1.0 - 0.25 * np.sin(sched.nu * sched.tau) ** 2
    )
    return float(-f0 * base**m_step)


def force_corr_steps(m1: int, m2: int, sched: MeasurementSchedule, f0: float,
                     form: str = "exact") -> float:
    """Discrete two-time force correlation <F(m2) F(m1)>, m1 <= m2.

    exact: f0^2 cos^(m2-m1)(nu tau) -- stationary in the lag alone.
    approximate: f0^2 (cos^2(nu tau/2))^m2 (1 - sin^2(nu tau)/4)^(m2-m1)
    (1 + sin^2(nu tau)/4)^m1, which carries an m1-dependent prefactor
    (cos^2(nu tau/2))^m1 (1 + sin^2(nu tau)/4)^m1 and is therefore not a
    function of the lag alone.
    """
    if m2 < m1:
        raise ValueError(f"steps must be ordered m1 <= m2, got {m1} > {m2}")
    _check_form(form)
    if form == "exact":
        return float(f0**2 * np.cos(sched.nu * sched.tau) ** (m2 - m1))
    c2 = np.cos(0.5 * sched.nu * sched.tau) ** 2
    x = 0.25 * np.sin(sched.nu * sched.tau) ** 2
    return float(f0**2 * c2**m2 * (1.0 - x) ** (m2 - m1) * (1.0 + x) ** m1)


def analytic_force_mean(t: float, sched: MeasurementSchedule, f0: float) -> float:
    """Continuum mean force -f0 exp(-Gamma t), Gamma = nu^2 tau / 2."""
    return float(-f0 * np.exp(-sched.gamma * t))


def analytic_force_corr(t1: float, t2: float, sched: MeasurementSchedule,
                        f0: float) -> float:
    """Continuum two-time force correlation f0^2 exp(-Gamma |t2 - t1|)."""
    return float(f0**2 * np.exp(-sched.gamma * abs(t2 - t1)))


def sample_trajectories(sched: MeasurementSchedule, count: int,
                        seed: int) -> TrajectoryEnsemble:
    """Draw `count` i.i.d. records starting from +1.

    Block b of _STREAM_BLOCK rows is filled row by row from the PCG64 stream
    of SeedSequence(seed, spawn_key=(b,)), so results are bit-reproducible
    and a draw is the prefix of any larger one with the same seed.  One
    uniform draw per step decides each flip against sin^2(nu tau / 2).
    """
    if count < 1:
        raise ValueError(f"need at least one trajectory, got {count}")
    n = sched.n_steps
    p_flip = sched.flip_probability
    readings = np.empty((count, n + 1), dtype=np.int8)
    readings[:, 0] = 1
    for b, lo in enumerate(range(0, count, _STREAM_BLOCK)):
        hi = min(lo + _STREAM_BLOCK, count)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))))
        parity = rng.random((hi - lo, n)) < p_flip
        np.bitwise_xor.accumulate(parity, axis=1, out=parity)
        # reading = 1 - 2 * (number of flips so far mod 2)
        out = readings[lo:hi, 1:]
        np.multiply(parity.view(np.int8), -2, out=out)
        out += 1
    return TrajectoryEnsemble(readings, seed=seed, metadata={"count": count})


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


def _distinct_records(readings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row index of each distinct record, ascending, and its multiplicity.

    Rows are keyed by their sign bits packed into whole uint64 words,
    _STREAM_BLOCK rows at a time, and every row is checked to hold only
    +/-1, repeats included.  Rows are sorted by a polynomial hash of the key
    and a group starts wherever the full key differs from the row before; a
    hash collision can only split a group, never merge two.
    """
    count, length = readings.shape
    keys = np.zeros((count, 8 * -(-length // 64)), dtype=np.uint8)
    for lo in range(0, count, _STREAM_BLOCK):
        chunk = readings[lo : lo + _STREAM_BLOCK]
        if np.any(np.abs(chunk) != 1):
            raise ValueError("readings must be +1 or -1")
        keys[lo : lo + _STREAM_BLOCK, : -(-length // 8)] = np.packbits(chunk < 0, axis=1)
    words = keys.view(np.uint64)
    digest = words[:, 0].copy()
    for column in words.T[1:]:
        digest *= _HASH_MULTIPLIER
        digest += column
    order = np.argsort(digest)
    new_key = np.zeros(count, dtype=bool)
    new_key[0] = True
    for column in words.T:  # one word at a time: no sorted copy of all keys
        ordered = column[order]
        new_key[1:] |= ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new_key)
    first, weight = order[starts], np.diff(starts, append=count)
    ascending = np.argsort(first)
    return first[ascending], weight[ascending]


def _lag_sums(readings: np.ndarray, max_lag: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column sums of the readings (int64), and sums over records of each
    record's all-pairs lag sum a_k and of a_k^2, k = 0..max_lag, by FFT once
    per distinct record, each weighted by its multiplicity.  Nothing is
    summed before _distinct_records has checked every reading."""
    first, weight = _distinct_records(readings)
    float_weight = weight.astype(float)
    n_fft = 1 << int(np.ceil(np.log2(2 * readings.shape[1])))
    col_sum = np.zeros(readings.shape[1], dtype=np.int64)
    sum_a = np.zeros(max_lag + 1)
    sum_a2 = np.zeros(max_lag + 1)
    block = max(1, _FFT_BLOCK_BYTES // (16 * n_fft))
    for lo in range(0, first.size, block):
        rows = readings[first[lo : lo + block]]
        col_sum += weight[lo : lo + block] @ rows
        spec = np.fft.rfft(rows, n=n_fft, axis=1)
        power = spec.real**2 + spec.imag**2
        auto = np.rint(np.fft.irfft(power, n=n_fft, axis=1)[:, : max_lag + 1])
        w = float_weight[lo : lo + block]
        sum_a += w @ auto
        sum_a2 += w @ (auto * auto)
    return col_sum, sum_a, sum_a2


def estimate_force_statistics(records, sched: MeasurementSchedule, f0: float,
                              max_lag: int | None = None) -> ForceStatistics:
    """Sample mean series and two-time correlation of the force readings.

    `records` is a TrajectoryEnsemble or a 2-D int8 array of +/-1 readings,
    one row per trajectory.  The per-trajectory autocorrelation is computed
    by FFT over all pairs at each lag; its lag sums are sums of +/-1
    products, so they are rounded to the integers they are.  Identical
    records have identical autocorrelations, so the records are grouped by
    their packed sign bits and each distinct record is transformed once,
    its lag sums and its readings weighted by its multiplicity.  Every
    product and partial sum is an integer, below 2^53 whenever count
    (N+1)^2 is, so the totals do not depend on the grouping or the
    summation order.  Standard errors come from the spread across
    independent trajectories, in integer sums: a +/-1 column with sum S
    has sample variance (count - S^2/count) / (count - 1).
    """
    readings = records.readings if isinstance(records, TrajectoryEnsemble) else records
    if not (isinstance(readings, np.ndarray) and readings.dtype == np.int8
            and readings.ndim == 2):
        raise ValueError("readings must be a 2-D int8 array of +/-1")
    if readings.size == 0:
        raise ValueError("need at least one record")
    count, length = readings.shape
    if length != sched.n_steps + 1:
        raise ValueError("record length does not match the schedule")
    if max_lag is None:
        max_lag = sched.n_steps
    max_lag = min(max_lag, sched.n_steps)

    dof = max(count - 1, 1)  # a single record has zero spread
    col_sum, sum_a, sum_a2 = _lag_sums(readings, max_lag)
    mean = f0 * -col_sum / count
    mean_stderr = f0 * np.sqrt((count**2 - col_sum**2) / dof) / count

    lags = np.arange(max_lag + 1)
    pair_counts = length - lags
    scale = f0**2 / (count * pair_counts)
    corr = scale * sum_a
    corr_stderr = scale * np.sqrt(np.maximum(count * sum_a2 - sum_a**2, 0.0) / dof)

    return ForceStatistics(
        time=sched.times,
        mean=mean,
        mean_stderr=mean_stderr,
        lag_steps=lags,
        lag_time=lags * sched.tau,
        corr=corr,
        corr_stderr=corr_stderr,
        metadata={
            "count": count,
            "estimator": "all pairs at fixed lag, pooled over start times",
            "stationarity": "ensemble starts from one well; mean decays with time",
        },
    )


def fit_exponential_rate(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of |y| = amplitude * exp(-rate * t).

    Returns (rate, amplitude); requires strictly nonzero samples of one sign.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y == 0.0) or (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("exponential fit needs nonzero samples of a single sign")
    slope, intercept = np.polyfit(t, np.log(np.abs(y)), 1)
    return float(-slope), float(np.exp(intercept))


def kolmogorov_defect(sched: MeasurementSchedule, n_steps: int) -> float:
    """Marginalization defect of projective well-measurement records.

    Records at times tau, 2 tau, ..., n tau from a right-well start:
    max over later outcomes of | Sum_{a1} P_n - P_{n-1} |, where P_{n-1}
    drops the first measurement.  Vanishes when the evolution commutes with
    the well projectors (nu = 0) and shrinks as nu tau -> 0.
    """
    if n_steps < 2:
        raise ValueError(f"need at least two measurements, got {n_steps}")
    from itertools import product

    params = TunnelingParams(sched.nu, 0.0)
    u_tau = tunneling_propagator(params, sched.tau)
    u_2tau = tunneling_propagator(params, 2.0 * sched.tau)
    idx = {1: 0, -1: 1}
    # transition[b, a] = |<b| U_tau |a>|^2 ; start vectors from |+>
    trans = np.abs(u_tau) ** 2
    v1 = np.abs(u_tau[:, 0]) ** 2        # first measurement at tau
    v2 = np.abs(u_2tau[:, 0]) ** 2       # first measurement at 2 tau instead
    worst = 0.0
    for tail in product((1, -1), repeat=n_steps - 1):
        ids = [idx[a] for a in tail]
        chain = 1.0
        for prev, nxt in zip(ids, ids[1:]):
            chain *= trans[nxt, prev]
        with_first = sum(v1[a1] * trans[ids[0], a1] for a1 in (0, 1)) * chain
        without_first = v2[ids[0]] * chain
        worst = max(worst, abs(with_first - without_first))
    return worst
