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
    FockSpace,
    TruncationInadequateWarning,
    coherent_state,
    displacement,
    ladder_operators,
    vacuum_truncation_leak,
)
from oracles import matrix_exponential, number_operator, vacuum

ORACLE_CUTOFFS = (2, 8, 32, 64, 128)


class TestLadder:
    def test_two_level_annihilator(self):
        a, _ = ladder_operators(FockSpace(2))
        assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_number_operator(self):
        sp = FockSpace(6)
        a, ad = ladder_operators(sp)
        n = ad @ a
        assert np.allclose(n, np.diag(np.arange(6)), atol=1e-14)

    def test_commutator_truncation(self):
        sp = FockSpace(12)
        a, ad = ladder_operators(sp)
        comm = a @ ad - ad @ a
        assert np.allclose(np.diag(comm)[:-1], 1.0, atol=1e-12)
        assert abs(comm[-1, -1] + (sp.dim - 1)) < 1e-12  # broken top entry

    def test_dagger_is_conjugate_transpose(self):
        a, ad = ladder_operators(FockSpace(5))
        assert np.array_equal(ad, a.conj().T)


class TestDisplacement:
    def test_zero_displacement(self):
        d = displacement(FockSpace(16), 0.0)
        assert np.allclose(d, np.eye(16), atol=0.0)

    def test_inverse_property(self):
        sp = FockSpace(32)
        for w in (0.3, 1.0, 0.5 + 0.5j):
            prod = displacement(sp, w) @ displacement(sp, -w)
            assert np.max(np.abs(prod - np.eye(32))) < 1e-10

    def test_unitarity(self):
        sp = FockSpace(64)
        for w in (0.5, 1.0 + 1.0j, 2.0):
            d = displacement(sp, w)
            assert np.max(np.abs(d.conj().T @ d - np.eye(64))) < 1e-8

    def test_mean_occupation(self):
        sp = FockSpace(32)
        w = 0.7 + 0.3j
        vec = displacement(sp, w) @ vacuum(sp)
        n_mean = np.vdot(vec, number_operator(sp) @ vec).real
        assert abs(n_mean - abs(w) ** 2) < 1e-8

    def test_composition_phase(self):
        # Identity with the explicit phase e^{(u v* - u* v)/2}; compared on
        # the faithful columns n < D/2 (states displaced near the cutoff are
        # corrupted by any truncation).
        sp = FockSpace(48)
        u, v = 0.6 + 0.2j, -0.3 + 0.5j
        lhs = displacement(sp, u) @ displacement(sp, v)
        phase = np.exp(0.5 * (u * np.conj(v) - np.conj(u) * v))
        rhs = phase * displacement(sp, u + v)
        assert np.max(np.abs(lhs - rhs)[:, : sp.dim // 2]) < 1e-8
        with pytest.raises(AssertionError):
            # the phase really is there: dropping it breaks the identity
            assert np.max(np.abs(lhs - rhs / phase)[:, : sp.dim // 2]) < 1e-8

    def test_truncation_warning(self):
        with pytest.warns(TruncationInadequateWarning):
            displacement(FockSpace(8), 2.5)

    def test_built_once_and_read_only(self):
        # the matrix is shared between calls: equal, read-only, and the
        # truncation warning still fires on every call
        sp = FockSpace(8)
        with pytest.warns(TruncationInadequateWarning):
            first = displacement(sp, 2.5)
        with pytest.warns(TruncationInadequateWarning):
            second = displacement(sp, 2.5)
        assert np.array_equal(first, second)
        assert not first.flags.writeable and not second.flags.writeable
        with pytest.raises(ValueError):
            second[0, 0] = 0.0

    def test_leak_estimate(self):
        # Poisson tail beyond the cutoff, checked against direct summation
        lam = 6.25
        direct = 1.0 - sum(math.exp(-lam) * lam**n / math.factorial(n) for n in range(8))
        assert abs(vacuum_truncation_leak(FockSpace(8), 2.5) - direct) < 1e-12


class TestDisplacementOracles:
    """The eigh-built displacement against scipy's scaling-and-squaring
    exponential of its generator, and the summed Poisson tail against the
    regularized incomplete gamma function."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(d=st.sampled_from(ORACLE_CUTOFFS), radius=st.floats(0.0, 1.0),
           angle=st.floats(-np.pi, np.pi))
    def test_matches_matrix_exponential(self, d, radius, angle):
        w = complex(radius * math.sqrt(d / 4) * np.exp(1j * angle))  # |w|^2 <= D/4
        sp = FockSpace(d)
        a, adag = ladder_operators(sp)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationInadequateWarning)
            mat = displacement(sp, w)
        assert np.max(np.abs(mat - expm(w * adag - np.conj(w) * a))) < 1e-13
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(d))) < 1e-13

    @staticmethod
    def _leak_close(d: int, lam: float) -> bool:
        # relative where the tail is a normal double; below that both are ~0
        got = vacuum_truncation_leak(FockSpace(d), math.sqrt(lam))
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
            assert vacuum_truncation_leak(FockSpace(d), 0.0) == 0.0 == gammainc(d, 0.0)

    @pytest.mark.parametrize("lam,leak", [(10.0, 0.0), (4e10, 1.0)])
    def test_huge_cutoff_sums_few_terms(self, lam, leak):
        # a billion levels, far above or below the mean: either sum stops
        # after a few terms, not a billion
        assert vacuum_truncation_leak(FockSpace(10**9), math.sqrt(lam)) == leak


class TestCoherentState:
    def test_zero_is_vacuum(self):
        v = coherent_state(FockSpace(16), 0.0)
        assert np.allclose(v, vacuum(FockSpace(16)), atol=0.0)

    def test_opposite_overlap(self):
        sp = FockSpace(48)
        z = 0.8
        ov = abs(np.vdot(coherent_state(sp, z), coherent_state(sp, -z))) ** 2
        assert abs(ov - np.exp(-4.0 * z**2)) < 1e-8

    def test_poisson_amplitudes(self):
        sp = FockSpace(48)
        z = 0.5
        v = coherent_state(sp, z)
        for n in range(11):
            exact = math.exp(-abs(z) ** 2 / 2) * z**n / math.sqrt(math.factorial(n))
            assert abs(v[n] - exact) < 1e-10

    def test_truncation_convergence(self):
        zs = (0.4, 0.9 + 0.3j)
        ov32 = np.vdot(coherent_state(FockSpace(32), zs[0]), coherent_state(FockSpace(32), zs[1]))
        v64a = coherent_state(FockSpace(64), zs[0])
        v64b = coherent_state(FockSpace(64), zs[1])
        assert abs(ov32 - np.vdot(v64a, v64b)) < 1e-10

    def test_returns_a_unit_vector(self):
        v = coherent_state(FockSpace(16), 0.7 - 0.2j)
        assert v.shape == (16,) and v.dtype == complex
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-10

    def test_nan_label_rejected_by_the_norm_check(self):
        with pytest.raises(ValueError, match="norm"):
            coherent_state(FockSpace(4), complex("nan"))


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
        sp = FockSpace(12)
        omega, t = 1.7, 2.3
        out = matrix_exponential(number_operator(sp), scale=-1j * omega * t)
        expected = np.diag(np.exp(-1j * omega * t * np.arange(12)))
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_overflow_raises(self):
        big = np.full((4, 4), 1e306, dtype=complex)
        with pytest.raises(OverflowError):
            matrix_exponential(big, scale=10.0)


class TestVectors:
    def test_small_space_rejected(self):
        with pytest.raises(ValueError):
            FockSpace(1)
