"""Truncated oscillator space: ladder algebra, displacements, coherent states."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammainc

from gravcat.fock import (
    TruncationInadequateWarning,
    coherent_state,
    displacement,
    quadrature,
    vacuum_truncation_leak,
)
from oracles import (
    displacement_matrix,
    generator_displacement,
    ladder_operators,
    matrix_exponential,
    number_operator,
    vacuum,
)

ORACLE_CUTOFFS = (2, 8, 32, 64, 128)


def random_unit_vector(dim: int, rng) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


class TestLadder:
    def test_two_level_annihilator(self):
        a, _ = ladder_operators(2)
        assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_number_operator(self):
        dim = 6
        a, ad = ladder_operators(dim)
        n = ad @ a
        assert np.allclose(n, np.diag(np.arange(6)), atol=1e-14)

    def test_commutator_truncation(self):
        dim = 12
        a, ad = ladder_operators(dim)
        comm = a @ ad - ad @ a
        assert np.allclose(np.diag(comm)[:-1], 1.0, atol=1e-12)
        assert abs(comm[-1, -1] + (dim - 1)) < 1e-12  # broken top entry

    def test_dagger_is_conjugate_transpose(self):
        a, ad = ladder_operators(5)
        assert np.array_equal(ad, a.conj().T)

    @pytest.mark.parametrize("dim", [1, 2, 7, 64])
    def test_quadrature_is_real_a_plus_adag(self, dim):
        a, ad = ladder_operators(dim)
        x = quadrature(dim)
        assert x.dtype == float and np.array_equal(x, (a + ad).real)


class TestDisplacement:
    def test_zero_displacement(self):
        d = displacement_matrix(16, 0.0)
        assert np.array_equal(d, np.eye(16))

    def test_zero_displacement_returns_the_vector(self):
        vec = random_unit_vector(16, np.random.default_rng(3))
        out = displacement(16, 0.0, vec)
        assert out is not vec
        assert out.tobytes() == vec.tobytes()

    def test_inverse_property(self):
        dim = 32
        for w in (0.3, 1.0, 0.5 + 0.5j):
            prod = displacement_matrix(dim, w) @ displacement_matrix(dim, -w)
            assert np.max(np.abs(prod - np.eye(32))) < 1e-10

    def test_unitarity(self):
        dim = 64
        for w in (0.5, 1.0 + 1.0j, 2.0):
            d = displacement_matrix(dim, w)
            assert np.max(np.abs(d.conj().T @ d - np.eye(64))) < 1e-8

    def test_mean_occupation(self):
        dim = 32
        w = 0.7 + 0.3j
        vec = displacement(dim, w, vacuum(dim))
        n_mean = np.vdot(vec, number_operator(dim) @ vec).real
        assert abs(n_mean - abs(w) ** 2) < 1e-8

    def test_composition_phase(self):
        # Identity with the explicit phase e^{(u v* - u* v)/2}; compared on
        # the faithful columns n < D/2 (states displaced near the cutoff are
        # corrupted by any truncation).
        dim = 48
        u, v = 0.6 + 0.2j, -0.3 + 0.5j
        lhs = displacement_matrix(dim, u) @ displacement_matrix(dim, v)
        phase = np.exp(0.5 * (u * np.conj(v) - np.conj(u) * v))
        rhs = phase * displacement_matrix(dim, u + v)
        assert np.max(np.abs(lhs - rhs)[:, : dim // 2]) < 1e-8
        with pytest.raises(AssertionError):
            # the phase really is there: dropping it breaks the identity
            assert np.max(np.abs(lhs - rhs / phase)[:, : dim // 2]) < 1e-8

    def test_truncation_warning(self):
        # the warning fires on every call, not only on the first
        for _ in range(2):
            with pytest.warns(TruncationInadequateWarning):
                displacement(8, 2.5, vacuum(8))

    def test_leak_estimate(self):
        # Poisson tail beyond the cutoff, checked against direct summation
        lam = 6.25
        direct = 1.0 - sum(math.exp(-lam) * lam**n / math.factorial(n) for n in range(8))
        assert abs(vacuum_truncation_leak(8, 2.5) - direct) < 1e-12


class TestDisplacementOracles:
    """The eigh-built displacement against scipy's scaling-and-squaring
    exponential of its generator, and the summed Poisson tail against the
    regularized incomplete gamma function."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(d=st.sampled_from(ORACLE_CUTOFFS), radius=st.floats(0.0, 1.0),
           angle=st.floats(-np.pi, np.pi))
    def test_matches_matrix_exponential(self, d, radius, angle):
        w = complex(radius * math.sqrt(d / 4) * np.exp(1j * angle))  # |w|^2 <= D/4
        a, adag = ladder_operators(d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationInadequateWarning)
            mat = displacement_matrix(d, w)
        assert np.max(np.abs(mat - expm(w * adag - np.conj(w) * a))) < 1e-13
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(d))) < 1e-13

    @pytest.mark.parametrize("d", [8, 32, 64])
    @pytest.mark.parametrize("w", [1.0, -1.0, 2.0, 0.3 + 0.4j])
    def test_matches_complex_generator_build(self, d, w):
        # the real eigh of a + a^dag, carried by diag(i^n), against the
        # complex eigh of K = i (a^dag - a)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationInadequateWarning)
            mat = displacement_matrix(d, w)
        assert np.max(np.abs(mat - generator_displacement(d, w))) <= 1e-13

    @pytest.mark.parametrize("d", [16, 64])
    @pytest.mark.parametrize("w", [1.0, -1.0, 2.0, 0.3 + 0.4j])
    @pytest.mark.parametrize("state", ["vacuum", "random"])
    def test_applied_to_a_vector_matches_generator_build(self, d, w, state):
        vec = vacuum(d) if state == "vacuum" else random_unit_vector(d, np.random.default_rng(d))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationInadequateWarning)
            got = displacement(d, w, vec)
        assert np.max(np.abs(got - generator_displacement(d, w) @ vec)) <= 1e-13

    @staticmethod
    def _leak_close(d: int, lam: float) -> bool:
        # relative where the tail is a normal double; below that both are ~0
        got = vacuum_truncation_leak(d, math.sqrt(lam))
        return math.isclose(got, gammainc(d, lam), rel_tol=1e-12, abs_tol=sys.float_info.min)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(d=st.sampled_from(ORACLE_CUTOFFS), fraction=st.floats(0.0, 1.0))
    def test_leak_matches_incomplete_gamma(self, d, fraction):
        lam = 1e-3 * (1e4 * d) ** fraction  # |w|^2 from 1e-3 to 10 D
        assert self._leak_close(d, lam)

    @pytest.mark.parametrize("d", ORACLE_CUTOFFS)
    @pytest.mark.parametrize("ratio", [0.25, 0.9, 1.0 - 1e-12, 1.0, 1.5, 10.0])
    def test_leak_on_both_sides_of_the_cutoff(self, d, ratio):
        # |w|^2 < D sums the tail, |w|^2 >= D subtracts the head from 1
        assert self._leak_close(d, ratio * d)

    def test_leak_is_zero_without_displacement(self):
        for d in ORACLE_CUTOFFS:
            assert vacuum_truncation_leak(d, 0.0) == 0.0 == gammainc(d, 0.0)

    @pytest.mark.parametrize("lam,leak", [(10.0, 0.0), (4e10, 1.0)])
    def test_huge_cutoff_sums_few_terms(self, lam, leak):
        # a billion levels, far above or below the mean: either sum stops
        # after a few terms, not a billion
        assert vacuum_truncation_leak(10**9, math.sqrt(lam)) == leak


class TestCoherentState:
    def test_zero_is_vacuum(self):
        v = coherent_state(16, 0.0)
        assert np.allclose(v, vacuum(16), atol=0.0)

    def test_opposite_overlap(self):
        dim = 48
        z = 0.8
        ov = abs(np.vdot(coherent_state(dim, z), coherent_state(dim, -z))) ** 2
        assert abs(ov - np.exp(-4.0 * z**2)) < 1e-8

    def test_poisson_amplitudes(self):
        dim = 48
        z = 0.5
        v = coherent_state(dim, z)
        for n in range(11):
            exact = math.exp(-abs(z) ** 2 / 2) * z**n / math.sqrt(math.factorial(n))
            assert abs(v[n] - exact) < 1e-10

    def test_truncation_convergence(self):
        zs = (0.4, 0.9 + 0.3j)
        ov32 = np.vdot(coherent_state(32, zs[0]), coherent_state(32, zs[1]))
        v64a = coherent_state(64, zs[0])
        v64b = coherent_state(64, zs[1])
        assert abs(ov32 - np.vdot(v64a, v64b)) < 1e-10

    def test_returns_a_unit_vector(self):
        v = coherent_state(16, 0.7 - 0.2j)
        assert v.shape == (16,) and v.dtype == complex
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-10

    def test_nan_label_rejected_by_the_norm_check(self):
        with pytest.raises(ValueError, match="norm"):
            coherent_state(4, complex("nan"))


class TestMatrixExponential:
    def test_zero_matrix(self):
        out = matrix_exponential(np.zeros((8, 8), dtype=complex))
        assert np.allclose(out, np.eye(8), atol=0.0)

    def test_embedded_rotation_block(self):
        theta = 0.637
        gen = np.zeros((5, 5), dtype=complex)
        gen[0, 1] = gen[1, 0] = 1.0
        out = matrix_exponential(gen, scale=-1j * theta)
        expected = np.eye(5, dtype=complex)
        expected[0, 0] = expected[1, 1] = np.cos(theta)
        expected[0, 1] = expected[1, 0] = -1j * np.sin(theta)
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_number_rotation_is_diagonal_phases(self):
        dim = 12
        omega, t = 1.7, 2.3
        out = matrix_exponential(number_operator(dim), scale=-1j * omega * t)
        expected = np.diag(np.exp(-1j * omega * t * np.arange(12)))
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_overflow_raises(self):
        big = np.full((4, 4), 1e306, dtype=complex)
        with pytest.raises(OverflowError):
            matrix_exponential(big, scale=10.0)
