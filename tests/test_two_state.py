"""Closed-form two-well qubit dynamics against explicit matrix oracles."""

import numpy as np
import pytest

from gravcat.two_state import (
    QubitState,
    SmearedDensityParams,
    TunnelingParams,
    mean_density,
    two_time_correlations,
)
from oracles import heisenberg_projector, tunneling_hamiltonian, tunneling_propagator

DENS = SmearedDensityParams(m=2.0, ell=1.3)
M_OVER_ELL3 = DENS.m / DENS.ell**3
PLUS = QubitState(1.0, 0.0)  # right well
BALANCED = QubitState(1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))


def amplitudes(state: QubitState) -> np.ndarray:
    """The state as a (2,) complex vector (c_plus, c_minus)."""
    return np.array([state.c_plus, state.c_minus], dtype=complex)


def propagator_oracle(nu, chi, t):
    """Independent reconstruction of the evolution matrix."""
    half = 0.5 * nu * t
    return np.array(
        [
            [np.cos(half), np.sin(half) * np.exp(1j * chi)],
            [-np.sin(half) * np.exp(-1j * chi), np.cos(half)],
        ]
    )


def projector_oracle(a, nu, chi, t):
    """U_t^dag P_a U_t built from raw matrix products."""
    u = propagator_oracle(nu, chi, t)
    p = np.diag([1.0, 0.0]) if a == 1 else np.diag([0.0, 1.0])
    return u.conj().T @ p @ u


def random_state(rng):
    vec = rng.normal(size=4)
    c = (vec[0] + 1j * vec[1], vec[2] + 1j * vec[3])
    norm = np.sqrt(abs(c[0]) ** 2 + abs(c[1]) ** 2)
    return QubitState(c[0] / norm, c[1] / norm)


class TestQubitState:
    @pytest.mark.parametrize("amps", [(float("nan"), 0.0), (1.0, complex(0.0, float("inf")))])
    def test_non_finite_amplitudes_rejected(self, amps):
        with pytest.raises(ValueError):
            QubitState(*amps)

    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            QubitState(1.0, 1.0)

    def test_bloch_parameters_on_sphere(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = random_state(rng)
            chi = rng.uniform(-np.pi, np.pi)
            d, b, g = s.bloch(chi)
            assert abs(d**2 + b**2 + g**2 - 1.0) < 1e-12

    def test_balanced_state_beta(self):
        d, b, g = BALANCED.bloch(0.0)
        assert abs(d) < 1e-15 and abs(b - 1.0) < 1e-15 and abs(g) < 1e-15


class TestHamiltonian:
    def test_chi_zero(self):
        h = tunneling_hamiltonian(TunnelingParams(1.0, 0.0))
        assert np.array_equal(h, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_zero_rate(self):
        h = tunneling_hamiltonian(TunnelingParams(0.0, 1.234))
        assert np.array_equal(h, np.zeros((2, 2), dtype=complex))

    def test_eigenvalues_chi_half_pi(self):
        h = tunneling_hamiltonian(TunnelingParams(1.0, np.pi / 2))
        vals = np.linalg.eigvalsh(h)
        assert np.allclose(sorted(vals), [-1.0, 1.0], atol=1e-12)


class TestPropagator:
    def test_identity_at_zero_time(self):
        u = tunneling_propagator(TunnelingParams(3.0, 0.7), 0.0)
        assert np.allclose(u, np.eye(2), atol=0.0)

    def test_antidiagonal_at_half_period(self):
        u = tunneling_propagator(TunnelingParams(1.0, 0.0), np.pi)
        assert np.allclose(u, [[0, 1], [-1, 0]], atol=1e-15)

    def test_semigroup(self):
        p = TunnelingParams(2.0, 0.4)
        lhs = tunneling_propagator(p, 0.3) @ tunneling_propagator(p, 0.7)
        rhs = tunneling_propagator(p, 1.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_unitarity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            nu, chi, t = rng.uniform(0, 5), rng.uniform(-np.pi, np.pi), rng.uniform(0, 10)
            u = tunneling_propagator(TunnelingParams(nu, chi), t)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            tunneling_propagator(TunnelingParams(1.0), -0.1)


class TestHeisenbergProjector:
    def test_unevolved(self):
        p = heisenberg_projector(1, TunnelingParams(2.0, 0.5), 0.0)
        assert np.allclose(p, np.diag([1.0, 0.0]), atol=0.0)

    def test_projector_algebra_random(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            params = TunnelingParams(rng.uniform(0, 4), rng.uniform(-np.pi, np.pi))
            t = rng.uniform(0, 8)
            p_plus = heisenberg_projector(1, params, t)
            p_minus = heisenberg_projector(-1, params, t)
            s = 2.0 * p_plus - np.eye(2)
            assert abs(np.trace(p_plus) - 1.0) < 1e-12
            assert np.max(np.abs(s @ s - np.eye(2))) < 1e-12
            assert np.max(np.abs(p_plus @ p_plus - p_plus)) < 1e-12
            assert np.max(np.abs(p_plus.conj().T - p_plus)) < 1e-14
            assert np.max(np.abs(p_plus + p_minus - np.eye(2))) < 1e-15

    def test_matches_conjugated_projector(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            nu, chi, t = rng.uniform(0, 4), rng.uniform(-np.pi, np.pi), rng.uniform(0, 8)
            for a in (1, -1):
                lhs = heisenberg_projector(a, TunnelingParams(nu, chi), t)
                assert np.max(np.abs(lhs - projector_oracle(a, nu, chi, t))) < 1e-12

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            heisenberg_projector(0, TunnelingParams(1.0), 0.0)


class TestMeanDensity:
    def test_plus_state_at_zero(self):
        val = mean_density(PLUS, DENS, 1, TunnelingParams(1.0), 0.0)
        assert abs(val - M_OVER_ELL3) < 1e-15

    def test_completeness(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            s = random_state(rng)
            params = TunnelingParams(rng.uniform(0, 4), rng.uniform(-np.pi, np.pi))
            t = rng.uniform(0, 8)
            total = sum(mean_density(s, DENS, a, params, t) for a in (1, -1))
            assert abs(total - M_OVER_ELL3) < 1e-12

    def test_balanced_state_quarter_period(self):
        # delta = 0, beta = 1 at chi = 0; nu t = pi/2 drives the bracket to 2
        val = mean_density(BALANCED, DENS, 1, TunnelingParams(1.0, 0.0), np.pi / 2)
        assert abs(val - M_OVER_ELL3) < 1e-12

    def test_trace_formula_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            s = random_state(rng)
            nu, chi, t = rng.uniform(0, 4), rng.uniform(-np.pi, np.pi), rng.uniform(0, 8)
            psi = amplitudes(s)
            for a in (1, -1):
                proj = projector_oracle(a, nu, chi, t)
                expected = M_OVER_ELL3 * (psi.conj() @ proj @ psi).real
                got = mean_density(s, DENS, a, TunnelingParams(nu, chi), t)
                assert abs(got - expected) < 1e-12


class TestQuantumCorrelator:
    def test_frozen_dynamics_plus_state(self):
        params = TunnelingParams(0.0, 0.3)
        scale = DENS.m**2 / DENS.ell**6
        same = two_time_correlations(PLUS, DENS, 1, 1, params, 0.2, 1.1)[0]
        cross = two_time_correlations(PLUS, DENS, 1, -1, params, 0.2, 1.1)[0]
        assert abs(same - scale) < 1e-14
        assert abs(cross) < 1e-14

    def test_equal_time_same_sign_is_real(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            s = random_state(rng)
            params = TunnelingParams(rng.uniform(0, 4), rng.uniform(-np.pi, np.pi))
            t = rng.uniform(0, 5)
            for a in (1, -1):
                val = two_time_correlations(s, DENS, a, a, params, t, t)[0]
                assert val.imag == 0.0

    def test_operator_product_oracle(self):
        rng = np.random.default_rng(31)
        scale = DENS.m**2 / DENS.ell**6
        for _ in range(20):
            s = random_state(rng)
            nu, chi = rng.uniform(0, 4), rng.uniform(-np.pi, np.pi)
            t1 = rng.uniform(0, 5)
            t2 = t1 + rng.uniform(0, 5)
            psi = amplitudes(s)
            for a1 in (1, -1):
                for a2 in (1, -1):
                    expected = scale * (
                        psi.conj()
                        @ projector_oracle(a2, nu, chi, t2)
                        @ projector_oracle(a1, nu, chi, t1)
                        @ psi
                    )
                    params = TunnelingParams(nu, chi)
                    got, _ = two_time_correlations(s, DENS, a1, a2, params, t1, t2)
                    assert abs(got - expected) < 1e-12

    def test_imaginary_part_closed_form(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            s = random_state(rng)
            nu, chi = rng.uniform(0, 4), rng.uniform(-np.pi, np.pi)
            t1 = rng.uniform(0, 5)
            t2 = t1 + rng.uniform(0, 5)
            _, _, gamma = s.bloch(chi)
            for a1 in (1, -1):
                for a2 in (1, -1):
                    params = TunnelingParams(nu, chi)
                    val, _ = two_time_correlations(s, DENS, a1, a2, params, t1, t2)
                    expected = -DENS.m**2 / (4 * DENS.ell**6) * gamma * a1 * a2 * np.sin(nu * (t2 - t1))
                    assert abs(val.imag - expected) < 1e-13

    def test_unordered_times_rejected(self):
        with pytest.raises(ValueError):
            two_time_correlations(PLUS, DENS, 1, 1, TunnelingParams(1.0), 1.0, 0.5)


def born_rule_two_step(state, nu, chi, a1, a2, t1, t2):
    """Sequential projective measurement: || P_a2 U(t2-t1) P_a1 U(t1) psi ||^2."""
    proj = {1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])}
    u1 = propagator_oracle(nu, chi, t1)
    u12 = propagator_oracle(nu, chi, t2 - t1)
    vec = proj[a2] @ u12 @ proj[a1] @ u1 @ amplitudes(state)
    return float(np.vdot(vec, vec).real)


class TestStatisticalCorrelator:
    def test_frozen_dynamics_plus_state(self):
        params = TunnelingParams(0.0, 0.0)
        scale = DENS.m**2 / DENS.ell**6
        val = two_time_correlations(PLUS, DENS, 1, 1, params, 0.1, 0.9)[1]
        assert abs(val - scale) < 1e-14

    def test_quarter_period_value(self):
        # delta = 1, beta = 0; nu t1 = pi/2 and nu (t2 - t1) = pi/2
        params = TunnelingParams(1.0, 0.0)
        val = two_time_correlations(PLUS, DENS, 1, 1, params, np.pi / 2, np.pi)[1]
        assert abs(val - DENS.m**2 / (4 * DENS.ell**6)) < 1e-13

    def test_born_rule_oracle(self):
        rng = np.random.default_rng(41)
        scale = DENS.m**2 / DENS.ell**6
        for _ in range(20):
            s = random_state(rng)
            nu, chi = rng.uniform(0, 4), rng.uniform(-np.pi, np.pi)
            t1 = rng.uniform(0, 5)
            t2 = t1 + rng.uniform(0, 5)
            for a1 in (1, -1):
                for a2 in (1, -1):
                    expected = scale * born_rule_two_step(s, nu, chi, a1, a2, t1, t2)
                    params = TunnelingParams(nu, chi)
                    _, got = two_time_correlations(s, DENS, a1, a2, params, t1, t2)
                    assert abs(got - expected) < 1e-12

    def test_marginal_over_second_outcome(self):
        rng = np.random.default_rng(43)
        scale = DENS.m**2 / DENS.ell**6
        for _ in range(20):
            s = random_state(rng)
            nu, chi = rng.uniform(0, 4), rng.uniform(-np.pi, np.pi)
            params = TunnelingParams(nu, chi)
            t1 = rng.uniform(0, 5)
            t2 = t1 + rng.uniform(0, 5)
            for a1 in (1, -1):
                total = sum(
                    two_time_correlations(s, DENS, a1, a2, params, t1, t2)[1]
                    for a2 in (1, -1)
                )
                psi = amplitudes(s)
                p1 = (psi.conj() @ projector_oracle(a1, nu, chi, t1) @ psi).real
                assert abs(total - scale * p1) < 1e-12

    def test_unordered_times_rejected(self):
        with pytest.raises(ValueError):
            two_time_correlations(PLUS, DENS, 1, 1, TunnelingParams(1.0), 2.0, 1.0)


class TestArrayForms:
    def test_elements_equal_scalar_calls(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            s = random_state(rng)
            params = TunnelingParams(rng.uniform(0.1, 4), rng.uniform(0.1, np.pi))
            t1 = rng.uniform(0, 5, size=40)
            t2 = t1 + rng.uniform(0, 5, size=40)
            t2[::7] = t1[::7]
            a1, a2 = rng.choice([1, -1], size=(2, 40))
            mean = mean_density(s, DENS, a1, params, t1)
            quantum, stat = two_time_correlations(s, DENS, a1, a2, params, t1, t2)
            for k in range(40):
                args = (int(a1[k]), int(a2[k]), params, float(t1[k]), float(t2[k]))
                assert mean[k] == mean_density(s, DENS, args[0], params, args[3])
                assert (quantum[k], stat[k]) == two_time_correlations(s, DENS, *args)

    def test_label_rows_by_time_columns_equal_scalar_calls(self):
        # the runner's layout: a (pairs, 1) column of times against a (1, 4)
        # row of labels; both outputs of the one call match each scalar call
        s, params = QubitState(0.6 + 0.48j, 0.64j), TunnelingParams(1.3, 0.7)
        a1, a2 = np.array([[1, 1, -1, -1]]), np.array([[1, -1, 1, -1]])
        t1 = np.array([[-1.0], [0.0], [0.5], [2.0]])
        t2 = t1 + np.array([[0.0], [0.3], [4.0], [1e-9]])
        quantum, stat = two_time_correlations(s, DENS, a1, a2, params, t1, t2)
        assert quantum.shape == stat.shape == (4, 4)
        assert quantum.dtype == complex and stat.dtype == float
        for i in range(4):
            for j in range(4):
                q, st = two_time_correlations(s, DENS, int(a1[0, j]), int(a2[0, j]), params,
                                              float(t1[i, 0]), float(t2[i, 0]))
                assert quantum[i, j] == q and stat[i, j] == st

    def test_arguments_broadcast(self):
        s, params = QubitState(0.6, 0.8j), TunnelingParams(0.7, 0.4)
        times = np.linspace(0.0, 3.0, 5)
        grid, stat = two_time_correlations(s, DENS, 1, np.array([[1], [-1]])[..., None], params,
                                           times[:, None], times[:, None] + times[None, :])
        assert grid.shape == stat.shape == (2, 5, 5)
        assert (grid[1, 2, 3], stat[1, 2, 3]) == two_time_correlations(
            s, DENS, 1, -1, params, times[2], times[2] + times[3])
        assert mean_density(s, DENS, np.array([1, -1]), params, 0.5).shape == (2,)

    def test_scalar_calls_return_python_scalars(self):
        s, params = QubitState(0.6, 0.8j), TunnelingParams(0.7, 0.4)
        assert type(mean_density(s, DENS, 1, params, 0.5)) is float
        quantum, stat = two_time_correlations(s, DENS, 1, -1, params, 0.5, 0.9)
        assert type(quantum) is complex
        assert type(stat) is float
        assert type(mean_density(s, DENS, np.int64(-1), params, np.float64(0.5))) is float

    def test_bad_element_rejected(self):
        s, params = QubitState(0.6, 0.8j), TunnelingParams(0.7, 0.4)
        t1, t2 = np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.6, 0.7])
        with pytest.raises(ValueError, match="well label"):
            two_time_correlations(s, DENS, np.array([1, 0, -1]), 1, params, t1, t2)
        with pytest.raises(ValueError, match="well label"):
            two_time_correlations(s, DENS, 1, np.array([1, -1, 2]), params, t1, t2)
        with pytest.raises(ValueError, match="ordered"):
            two_time_correlations(s, DENS, 1, 1, params, t1, np.array([0.5, 0.15, 0.7]))
        with pytest.raises(ValueError, match="ordered"):
            two_time_correlations(s, DENS, 1, 1, params, t1, np.array([0.5, np.nan, 0.7]))
        with pytest.raises(ValueError, match="well label"):
            mean_density(s, DENS, np.array([1, -1, 3]), params, t1)
