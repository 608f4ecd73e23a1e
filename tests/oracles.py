"""Independent routes that exist only to check the library.

Each function here is an alternative to a route in `gravcat`: a
scaling-and-squaring matrix exponential (against the `eigh`-built
displacement), a step integrator of the full probe Hamiltonian (against
the spectral `jc.evolve_rows`), a stationarity residual of the pointer
states, a direct binomial sum for the small-angle conditional law, one
FFT autocorrelation per force record (against the estimator's one per
distinct record), a record-by-record flip count of the geometric-gap
marks (against the sampler's running xor over a boolean block), an
enumeration of all 2^(n-1) later-outcome tails (against the closed-form
Kolmogorov defect), multi-time record probabilities propagated record by
record and the FFT comb route on a spatial grid (against the closed-form
`histories.additivity_defect`), the Gauss-Legendre Wigner transform and
its interpolating spline (against the closed-form
`wigner.wigner_function`), and Gauss-Legendre quadrature over that spline
of the finite-width smeared mean and two-point function, and a 2D
trapezoid over the written-out cat W (against the delta-limit mean and the
closed-form `density.smeared_corr_quadrature`), and the static-limit
two-point function from the 3D smearing profile (against the second moment
that `density.fluctuation_ratio` takes from the sampling-profile identity).
None of them runs in a CLI experiment.
"""

from dataclasses import dataclass, field
from itertools import product
from math import comb

import numpy as np
from scipy.linalg import expm

from gravcat.fock import FockOperator, FockSpace
from gravcat.histories import SpatialGrid, _comb_weight, auto_grid, free_evolve
from gravcat.jc import (
    CompositeState,
    JCParams,
    pointer_state,
    total_hamiltonian,
)
from gravcat.measurement import _STREAM_BLOCK, MeasurementSchedule, _rare_cells
from gravcat.two_state import TunnelingParams, tunneling_propagator
from gravcat.wigner import (
    MAX_GRID_ELEMENTS,
    GridAliasingError,
    PhaseSpaceGrid,
    _axis_state,
    default_axes,
)

MAX_STEP_NORM = 0.1

# Bytes of the first-sampling comb that `comb_additivity_defect` propagates
# at once; a 49 x 4096 complex comb (3.2 MB) is one block.
_COMB_BLOCK_BYTES = 1 << 22


# ---------------------------------------------------------------------------
# composite Gauss-Legendre quadrature

_RULE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _RULE_CACHE:
        _RULE_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _RULE_CACHE[order]


def gauss_legendre(lo: float, hi: float, n_panels: int, order: int = 16):
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi].

    The interval is split into `n_panels` equal panels with an
    `order`-point rule on each; total node count is n_panels * order.
    """
    if hi <= lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if n_panels < 1:
        raise ValueError("need at least one panel")
    base_x, base_w = _rule(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    nodes = (centers[:, None] + half * base_x[None, :]).ravel()
    weights = np.broadcast_to(half * base_w, (n_panels, order)).ravel()
    return nodes, weights


# Panels every oscillation rule starts from, and the nodes it spends per
# cycle of the fastest oscillation on top of them.
_MIN_PANELS = 8
_NODES_PER_CYCLE = 6.0


def panels_for_oscillation(lo: float, hi: float, max_wavenumber: float,
                           order: int = 16) -> int:
    """Panel count so an integrand oscillating up to e^{i k x}, |k| <=
    max_wavenumber, is resolved with at least _NODES_PER_CYCLE nodes per
    cycle."""
    cycles = abs(max_wavenumber) * (hi - lo) / (2.0 * np.pi)
    needed = int(np.ceil(cycles * _NODES_PER_CYCLE / order)) + _MIN_PANELS
    return max(_MIN_PANELS, needed)


def matrix_exponential(op: FockOperator, scale: complex = 1.0) -> FockOperator:
    """exp(scale * op) by scaling-and-squaring (Pade); no eigendecomposition.

    Raises OverflowError if the result is not finite (pathological norms).
    """
    result = expm(scale * op.matrix)
    if not np.all(np.isfinite(result.view(float))):
        raise OverflowError("matrix exponential overflowed; rescale the operator")
    return FockOperator(result, op.space)


def stationary_state_check(params: JCParams, space: FockSpace, t: float,
                           sign: int) -> float:
    """Residual || e^{-i H0 t} |s zeta_0, s> - e^{i g^2 t / omega} |s zeta_0, s> ||.

    H0 is the nu = 0 Hamiltonian integrated by matrix exponential; the
    residual is a pure truncation diagnostic (<= 1e-8 at D = 64 for
    |zeta_0| <= 2).
    """
    h0 = total_hamiltonian(JCParams(0.0, params.omega, params.g), space)
    psi = pointer_state(params, space, sign).as_vector()
    evolved = expm(-1j * h0 * t) @ psi
    expected = np.exp(1j * params.g**2 * t / params.omega) * psi
    return float(np.linalg.norm(evolved - expected))


def hamiltonian_step_count(params: JCParams, space: FockSpace, t: float,
                           max_step_norm: float = MAX_STEP_NORM) -> int:
    """Smallest step count with ||H|| t / steps <= max_step_norm."""
    h_norm = float(np.linalg.norm(total_hamiltonian(params, space), 2))
    return max(1, int(np.ceil(h_norm * abs(t) / max_step_norm)))


def exact_propagate(params: JCParams, space: FockSpace, state: CompositeState,
                    t: float, steps: int) -> CompositeState:
    """Integrate the full H by repeated application of exp(-i H t / steps).

    Requires ||H|| (t / steps) <= 0.1 (step-size contract); the step
    exponential is exactly unitary, so the norm is preserved.  Its cost
    grows as ||H|| t.
    """
    h = total_hamiltonian(params, space)
    h_norm = float(np.linalg.norm(h, 2))
    if h_norm * abs(t) / steps > MAX_STEP_NORM * (1.0 + 1e-9):
        raise ValueError(
            f"step too large: ||H|| t / steps = {h_norm * abs(t) / steps:.3g} "
            f"> {MAX_STEP_NORM}; need steps >= {hamiltonian_step_count(params, space, t)}"
        )
    u_step = expm(-1j * h * (t / steps))
    vec = state.as_vector()
    for _ in range(steps):
        vec = u_step @ vec
    return CompositeState.from_vector(space, vec)


def conditional_g_series(a2: int, a1: int, m_steps: int,
                         sched: MeasurementSchedule) -> float:
    """Direct binomial-sum evaluation of the approximate conditional:
    sum over even (same outcome) or odd (flipped) jump numbers n of
    C(m, n) (sin^2(nu tau)/4)^n, times cos^(2m)(nu tau/2)."""
    if m_steps < 0:
        raise ValueError(f"step lag must be nonnegative, got {m_steps}")
    x = 0.25 * np.sin(sched.nu * sched.tau) ** 2
    start = 0 if a1 == a2 else 1
    total = sum(comb(m_steps, n) * x**n for n in range(start, m_steps + 1, 2))
    return float(np.cos(0.5 * sched.nu * sched.tau) ** (2 * m_steps) * total)


def per_record_force_corr(readings: np.ndarray, f0: float, max_lag: int):
    """The estimator's lag sums, correlation and its standard error with one
    FFT autocorrelation per record, summed row by row in 1 MiB blocks.

    Returns (sum_a, sum_a2, corr, corr_stderr) for `measurement`'s
    `_lag_sums` and `estimate_force_statistics` to match exactly.
    """
    count, length = readings.shape
    n_fft = 1 << int(np.ceil(np.log2(2 * length)))
    sum_a = np.zeros(max_lag + 1)
    sum_a2 = np.zeros(max_lag + 1)
    block = max(1, (1 << 20) // (16 * n_fft))
    for lo in range(0, count, block):
        chunk = readings[lo : lo + block]
        if np.any(np.abs(chunk) != 1):
            raise ValueError("readings must be +1 or -1")
        spec = np.fft.rfft(chunk, n=n_fft, axis=1)
        power = spec.real**2 + spec.imag**2
        auto = np.rint(np.fft.irfft(power, n=n_fft, axis=1)[:, : max_lag + 1])
        sum_a += auto.sum(axis=0)
        sum_a2 += (auto**2).sum(axis=0)
    scale = f0**2 / (count * (length - np.arange(max_lag + 1)))
    corr = scale * sum_a
    dof = max(count - 1, 1)
    corr_stderr = scale * np.sqrt(np.maximum(count * sum_a2 - sum_a**2, 0.0) / dof)
    return sum_a, sum_a2, corr, corr_stderr


def gap_route_records(sched: MeasurementSchedule, count: int, seed: int) -> np.ndarray:
    """Records of `sample_trajectories` on its geometric-gap route (q <= 0.2).

    The marks come from the sampler's own per-block streams and its mark
    generator `_rare_cells`, so this checks only how marks become readings,
    not the marks themselves.  Record by record, the marks are split off
    by row, taken as the flips (p <= 1/2) or the stays (p > 1/2), and the
    reading after step k is (-1) ** (number of flips in steps 1..k).
    """
    n, p = sched.n_steps, sched.flip_probability
    q = min(p, 1.0 - p)
    readings = np.ones((count, n + 1), dtype=np.int8)
    for b, lo in enumerate(range(0, count, _STREAM_BLOCK)):
        rows = min(_STREAM_BLOCK, count - lo)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))))
        marks = _rare_cells(rng, rows * n, q) if q > 0.0 else np.empty(0, dtype=np.int64)
        row_of, step_of = np.divmod(marks, n)
        bounds = np.searchsorted(row_of, np.arange(rows + 1))
        for r in range(rows):
            marked = np.zeros(n, dtype=np.int64)
            marked[step_of[bounds[r] : bounds[r + 1]]] = 1
            flips = 1 - marked if p > 0.5 else marked
            readings[lo + r, 1:] = np.where(np.cumsum(flips) % 2 == 0, 1, -1)
    return readings


def kolmogorov_defect_enumerated(sched: MeasurementSchedule, n_steps: int) -> float:
    """max over every tail of n - 1 later outcomes of
    | Sum_{a1} P_n - P_{n-1} |, each record probability a product of
    transition probabilities along the tail."""
    if n_steps < 2:
        raise ValueError(f"need at least two measurements, got {n_steps}")
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


def _record_probabilities(state, sampling, r1_values, t1: float, events_tail, m: float,
                          grid: SpatialGrid | None) -> np.ndarray:
    """P(r1, t1; tail...) for every first-sampling center r1, the records
    propagated together as one (len(r1_values), n_x) array."""
    times = [t1] + [t for _, t in events_tail]
    if any(t_next <= t_prev for t_prev, t_next in zip(times, times[1:])):
        raise ValueError(f"sampling times must be strictly increasing, got {times}")
    if grid is None:
        grid = auto_grid(state, sampling, max(times), m)
    r1_values = np.asarray(r1_values, dtype=float)
    cur = state.psi(grid.x, t1, m) * sampling.sqrt_g(grid.x - r1_values[:, None])
    t_prev = t1
    for r_i, t_i in events_tail:
        cur = free_evolve(cur, grid, t_i - t_prev, m)
        cur = cur * sampling.sqrt_g(grid.x - r_i)
        t_prev = t_i
    return np.sum(np.abs(cur) ** 2, axis=1) * grid.dx


def n_time_probability(state, sampling, events, m: float = 1.0,
                       grid: SpatialGrid | None = None) -> float:
    """Probability of the record ((r_1, t_1), ..., (r_n, t_n)).

    Square-root sampling rule: the state is multiplied by sqrt(g)(x - r_i)
    at each strictly increasing t_i, freely evolving in between; the final
    squared norm is the record probability.
    """
    events = list(events)
    if not events:
        raise ValueError("need at least one sampling event")
    (r1, t1), *tail = events
    return float(_record_probabilities(state, sampling, [r1], t1, tail, m, grid)[0])


def partition_probability_sum(state, sampling, events_tail, r1_values: np.ndarray,
                              t1: float, m: float = 1.0,
                              grid: SpatialGrid | None = None) -> float:
    """Sum_{r1} w P(r1, t1; tail...) over an exhaustive first-sampling comb.

    `events_tail` may be empty, in which case this is the total single-
    sampling probability of the partition (1 up to comb truncation error).
    """
    r1_values = np.asarray(r1_values, dtype=float)
    w = _comb_weight(sampling, r1_values)
    total = 0.0
    for prob in _record_probabilities(state, sampling, r1_values, t1, events_tail, m,
                                      grid).tolist():
        total += w * prob
    return total


# ---------------------------------------------------------------------------
# the numerical Wigner transform and its interpolating spline


@dataclass
class SplineGrid(PhaseSpaceGrid):
    """A sampled W(x, p) read off the nodes through its tensor-product cubic
    interpolating spline, the one FITPACK's regrid fits at s = 0 (Dierckx,
    Curve and Surface Fitting with Splines, 1993), with B-splines from de
    Boor's recursion (A Practical Guide to Splines, 1978)."""

    _spline: object = field(default=None, repr=False, compare=False)

    def evaluate(self, x, p):
        """Tensor-product cubic interpolating spline (the s = 0 spline of
        FITPACK's regrid); `x` and `p` broadcast, zero outside the grid."""
        if self._spline is None:
            tx, tp = _knots(self.x), _knots(self.p)
            coef = _collocation_solve(tx, self.x, self.values)
            coef = _collocation_solve(tp, self.p, coef.T).T
            self._spline = (tx, tp, coef.ravel())
        tx, tp, coef = self._spline
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        # B-splines of each input as given; the sum broadcasts them
        ix, bx = _basis(tx, x)
        ip, bp = _basis(tp, p)
        # coef is the row-major (x, p) coefficient table, flattened
        corner = ix * self.p.size + ip
        out = np.zeros(corner.shape)
        for i in range(4):
            for j in range(4):
                out += coef[corner + (i * self.p.size + j)] * bx[i] * bp[j]
        inside = (
            (x >= self.x[0]) & (x <= self.x[-1]) & (p >= self.p[0]) & (p <= self.p[-1])
        )
        return np.where(inside, out, 0.0)


def _knots(axis: np.ndarray) -> np.ndarray:
    """Knots of the cubic interpolating spline on `axis` that FITPACK's
    regrid builds at s = 0: axis[2:-2] between the two end points, each
    end point repeated four times."""
    if axis.size < 4:
        raise ValueError(f"cubic spline needs at least 4 points per axis, got {axis.size}")
    return np.concatenate([np.repeat(axis[0], 4), axis[2:-2], np.repeat(axis[-1], 4)])


def _basis(t: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, list]:
    """The four cubic B-splines that can be nonzero at each of `x`: the
    index of the first and their four value arrays, by de Boor's recursion
    in the form of FITPACK's fpbspl.  Points are clamped to the knot span."""
    n_coef = t.size - 4
    x = np.clip(x, t[3], t[n_coef])
    # interval t[l] <= x < t[l + 1]; the right end joins the last interval
    left = np.clip(np.searchsorted(t, x, side="right") - 1, 3, n_coef - 1)
    knot = {d: t[left + d] for d in range(-2, 4)}
    h = [np.ones(x.shape)]
    for j in range(1, 4):
        nxt = [np.zeros(x.shape)]
        for i in range(j):
            t_right, t_left = knot[i + 1], knot[i + 1 - j]
            f = h[i] / (t_right - t_left)
            nxt[i] += f * (t_right - x)
            nxt.append(f * (x - t_left))
        h = nxt
    return left - 3, h


def _collocation_solve(t: np.ndarray, nodes: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Coefficients c with sum_j c[j] B_j(nodes[i]) = rhs[i] for every row
    of `rhs`.  The collocation matrix has at most four nonzeros per row and
    a band of three on either side of the diagonal; it is totally positive,
    so Gaussian elimination without pivoting is stable (de Boor and Pinkus,
    1977) and costs O(n) per right-hand side."""
    n = nodes.size
    first, vals = _basis(t, nodes)
    rows = np.arange(n)[:, None]
    band = np.zeros((n, 7))  # band[i, 3 + j - i] = B_j(nodes[i])
    band[rows, 3 + first[:, None] + np.arange(4) - rows] = np.column_stack(vals)
    c = np.array(rhs, dtype=float)
    for k in range(n - 1):
        for i in range(k + 1, min(k + 4, n)):
            f = band[i, 3 + k - i] / band[k, 3]
            if f != 0.0:
                band[i, 3 + k - i:7 + k - i] -= f * band[k, 3:]
                c[i] -= f * c[k]
    for k in range(n - 1, -1, -1):
        for j in range(k + 1, min(k + 4, n)):
            c[k] -= band[k, 3 + j - k] * c[j]
        c[k] /= band[k, 3]
    return c


def wigner_transform(
    state,
    x_axis: np.ndarray | None = None,
    p_axis: np.ndarray | None = None,
    axis: int = 0,
) -> SplineGrid:
    """Numerical Wigner transform of a pure 1D state (or the 1D factor of a
    separable 3D state along `axis`), by composite Gauss-Legendre
    quadrature in y with the panel count tied to the largest requested |p|,
    so under-resolved grids fail the normalization check rather than
    silently aliasing.

    Raises GridAliasingError when the result is not real within 1e-9 or its
    normalization misses 1 by more than 1e-6 (both symptoms
    of an inadequate grid), and, before allocating, when a psi array or the
    phase matrix would exceed MAX_GRID_ELEMENTS.
    """
    st = _axis_state(state, axis)
    if x_axis is None or p_axis is None:
        xd, pd = default_axes(state, axis)
        x_axis = xd if x_axis is None else np.asarray(x_axis, dtype=float)
        p_axis = pd if p_axis is None else np.asarray(p_axis, dtype=float)
    else:
        x_axis = np.asarray(x_axis, dtype=float)
        p_axis = np.asarray(p_axis, dtype=float)

    lo, hi = st.support()
    y_half = hi - lo
    p_max = float(np.max(np.abs(p_axis))) if p_axis.size else 0.0
    order = 16  # Gauss-Legendre nodes per y panel
    panels = panels_for_oscillation(-y_half, y_half, p_max, order=order)
    n_y = panels * order
    if max(x_axis.size, p_axis.size) * n_y > MAX_GRID_ELEMENTS:
        raise GridAliasingError(
            f"transform needs a {x_axis.size} x {n_y} psi array and a {n_y} x "
            f"{p_axis.size} phase matrix, beyond the bound of {MAX_GRID_ELEMENTS} "
            "elements; the state is too fine for its support"
        )
    y, wy = gauss_legendre(-y_half, y_half, panels, order)

    psi_minus = st.psi(x_axis[:, None] - 0.5 * y[None, :])
    psi_plus = st.psi(x_axis[:, None] + 0.5 * y[None, :])
    integrand = psi_minus * np.conj(psi_plus) * wy[None, :]
    phases = np.exp(1j * np.outer(y, p_axis))
    w_complex = integrand @ phases

    imag_max = float(np.max(np.abs(w_complex.imag)))
    if imag_max > 1e-9:
        raise GridAliasingError(
            f"Wigner transform has imaginary residue {imag_max:.3g}; "
            "grid or quadrature under-resolved"
        )
    grid = SplineGrid(
        x_axis,
        p_axis,
        w_complex.real,
        meta={"axis": axis, "state": repr(state), "y_panels": panels},
    )
    norm = grid.normalization()
    if abs(norm - 1.0) > 1e-6:
        raise GridAliasingError(
            f"Wigner normalization {norm!r} deviates from 1 beyond 1e-6; "
            "grid does not capture the state"
        )
    grid.meta["normalization"] = norm
    return grid


def smeared_mean_quadrature(w0: SplineGrid, smear, r: float, t: float,
                            m: float = 1.0) -> float:
    """1D smeared mean density with the finite-width Gaussian sampling
    kernel integrated against the initial Wigner function W0."""
    s = smear.s_x
    ell = smear.ell

    # Mean: (m / ell) (1/2pi) Int dx dp W0(x, p) g(r - x - p t / m).
    # The x integral is a Gaussian window of width s riding along x = r - p t / m.
    p_nodes, p_weights = gauss_legendre(w0.p[0], w0.p[-1], 32)
    u_nodes, u_weights = gauss_legendre(-8.0 * s, 8.0 * s, 8)
    xx = (r - p_nodes[:, None] * t / m) + u_nodes[None, :]
    g_vals = np.exp(-(u_nodes**2) / (2.0 * s**2))
    integrand = w0.evaluate(xx, p_nodes[:, None]) * g_vals[None, :]
    return m / ell * float(p_weights @ integrand @ u_weights) / (2.0 * np.pi)


def corr_quadrature_on_grid(w0: SplineGrid, smear, r: float, t: float, r2: float,
                            t2: float, m: float = 1.0) -> float:
    """`density.smeared_corr_quadrature` by Gauss-Legendre quadrature of the
    spline of W0: 12 panels in p over p* +/- 8 momentum widths, 8 in
    x over +/- 8 s_x around the time-of-flight line."""
    if t == t2:
        raise ValueError("two-point quadrature needs distinct times")
    s = smear.s_x
    p_star = m * (r - r2) / (t - t2)
    p_width = 2.0 * m * s / abs(t - t2)
    p_nodes, p_weights = gauss_legendre(p_star - 8.0 * p_width, p_star + 8.0 * p_width, 12)
    u_nodes, u_weights = gauss_legendre(-8.0 * s, 8.0 * s, 8)
    c_coef = (t - t2) ** 2 / (4.0 * m**2 * s**2)
    xx = (0.5 * (r + r2) - p_nodes[:, None] * (t + t2) / (2.0 * m)) + u_nodes[None, :]
    f_vals = np.exp(-(u_nodes[None, :] ** 2) / s**2 - c_coef * (p_nodes[:, None] - p_star) ** 2)
    integrand = w0.evaluate(xx, p_nodes[:, None]) * f_vals
    return m**2 / smear.ell**2 * float(p_weights @ integrand @ u_weights) / (2.0 * np.pi)


def cat_wigner(x, p, sigma, sep):
    """W of the even two-branch cat at +/- sep/2, written out (Schleich);
    sep = 0 is the Gaussian."""
    a = 0.5 * sep
    n2 = 1.0 / (1.0 + np.exp(-(a**2) / (2.0 * sigma**2)))
    lobes = np.exp(-((x - a) ** 2) / (2 * sigma**2)) + np.exp(-((x + a) ** 2) / (2 * sigma**2))
    fringe = 2.0 * np.exp(-(x**2) / (2 * sigma**2)) * np.cos(2.0 * a * p)
    return n2 * (lobes + fringe) * np.exp(-2 * sigma**2 * p**2)


def trapezoid_corr(sigma, sep, s, r, t, r2, t2, m=1.0):
    """The finite-width two-point function by a 2D trapezoid over the exact
    W, in (u, p) with u = x - (r + r2)/2 + p (t + t2) / 2m, on p* +/- 4 and
    u in +/- 8 s."""
    p_star = m * (r - r2) / (t - t2)
    u = np.linspace(-8.0 * s, 8.0 * s, 801)[:, None]
    p = np.linspace(p_star - 4.0, p_star + 4.0, 4001)[None, :]
    x = u + 0.5 * (r + r2) - p * (t + t2) / (2.0 * m)
    c_coef = (t - t2) ** 2 / (4.0 * m**2 * s**2)
    f = cat_wigner(x, p, sigma, sep) * np.exp(-(u**2) / s**2 - c_coef * (p - p_star) ** 2)
    ell = np.sqrt(2.0 * np.pi) * s
    return m**2 / ell**2 * np.trapezoid(np.trapezoid(f, u[:, 0], axis=0), p[0]) / (2.0 * np.pi)


def static_limit_corr(state, smear, r, r2, m: float = 1.0) -> float:
    """Static-limit smeared two-point function m^2 |psi(r)|^2 f(r - r2) of a
    zero-mean-momentum 3D state, the sharp-density delta replaced by the
    3D smearing profile f(u) = exp(-u^2 / 2 s_x^2) / ell^3; at r = r2 it is
    the second moment that `density.fluctuation_ratio` takes as
    (m / ell^3) x mean."""
    u_sq = float(np.sum((np.asarray(r, dtype=float) - np.asarray(r2, dtype=float)) ** 2))
    profile = np.exp(-u_sq / (2.0 * smear.s_x**2)) / smear.ell3
    return m**2 * float(np.abs(state.psi(r, 0.0)) ** 2) * float(profile)


# ---------------------------------------------------------------------------
# the additivity defect by comb propagation on a spatial grid


def _comb_marginal_density(state, sampling, r1_values: np.ndarray, t1: float, t2: float,
                           m: float, grid: SpatialGrid) -> np.ndarray:
    """rho(x) = w Sum_{r1} |U(t2 - t1)[sqrt_g(x - r1) psi(x, t1)]|^2, the
    comb propagated _COMB_BLOCK_BYTES at a time."""
    psi1 = state.psi(grid.x, t1, m)
    rows = max(1, _COMB_BLOCK_BYTES // (16 * grid.x.size))
    rho = np.zeros(grid.x.size)
    for lo in range(0, r1_values.size, rows):
        cur = psi1 * sampling.sqrt_g(grid.x - r1_values[lo:lo + rows, None])
        cur = free_evolve(cur, grid, t2 - t1, m)
        rho += np.sum(cur.real**2 + cur.imag**2, axis=0)
    return rho * _comb_weight(sampling, r1_values)


def comb_additivity_defect(state, sampling, t1: float, t2: float, r1_values: np.ndarray,
                           r2_values, m: float = 1.0,
                           grid: SpatialGrid | None = None) -> float:
    """`histories.additivity_defect` on a spatial grid, for any sampling
    profile: the comb is propagated once by FFT into its marginal density
    rho(x) (_comb_marginal_density); each r2 then reads Integral
    sqrt_g(x - r2)^2 rho dx against Integral sqrt_g(x - r2)^2 |psi(x, t2)|^2 dx.
    """
    if not t2 > t1:
        raise ValueError(f"sampling times must be strictly increasing, got {[t1, t2]}")
    if grid is None:
        grid = auto_grid(state, sampling, t2, m)
    rho = _comb_marginal_density(state, sampling, np.asarray(r1_values, dtype=float), t1, t2,
                                 m, grid)
    psi2 = state.psi(grid.x, t2, m)
    density2 = psi2.real**2 + psi2.imag**2
    worst = 0.0
    for r2 in np.atleast_1d(np.asarray(r2_values, dtype=float)).tolist():
        g2 = sampling.sqrt_g(grid.x - r2) ** 2
        summed = float(np.sum(g2 * rho) * grid.dx)
        worst = max(worst, abs(summed - float(np.sum(g2 * density2) * grid.dx)))
    return worst
