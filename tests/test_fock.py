"""Truncated oscillator space: ladder algebra, displacements, coherent states."""

import math

import numpy as np
import pytest

from gravcat.fock import (
    FockOperator,
    FockSpace,
    FockVector,
    TruncationInadequateWarning,
    coherent_state,
    displacement,
    ladder_operators,
    matrix_exponential,
    number_operator,
    vacuum,
    vacuum_truncation_leak,
)


class TestLadder:
    def test_two_level_annihilator(self):
        a, _ = ladder_operators(FockSpace(2))
        assert np.array_equal(a.matrix, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_number_operator(self):
        sp = FockSpace(6)
        a, ad = ladder_operators(sp)
        n = ad.matrix @ a.matrix
        assert np.allclose(n, np.diag(np.arange(6)), atol=1e-14)

    def test_commutator_truncation(self):
        sp = FockSpace(12)
        a, ad = ladder_operators(sp)
        comm = a.matrix @ ad.matrix - ad.matrix @ a.matrix
        assert np.allclose(np.diag(comm)[:-1], 1.0, atol=1e-12)
        assert abs(comm[-1, -1] + (sp.dim - 1)) < 1e-12  # broken top entry

    def test_dagger_is_conjugate_transpose(self):
        a, ad = ladder_operators(FockSpace(5))
        assert np.array_equal(ad.matrix, a.matrix.conj().T)


class TestDisplacement:
    def test_zero_displacement(self):
        d = displacement(FockSpace(16), 0.0)
        assert np.allclose(d.matrix, np.eye(16), atol=0.0)

    def test_inverse_property(self):
        sp = FockSpace(32)
        for w in (0.3, 1.0, 0.5 + 0.5j):
            prod = displacement(sp, w).matrix @ displacement(sp, -w).matrix
            assert np.max(np.abs(prod - np.eye(32))) < 1e-10

    def test_unitarity(self):
        sp = FockSpace(64)
        for w in (0.5, 1.0 + 1.0j, 2.0):
            d = displacement(sp, w).matrix
            assert np.max(np.abs(d.conj().T @ d - np.eye(64))) < 1e-8

    def test_mean_occupation(self):
        sp = FockSpace(32)
        w = 0.7 + 0.3j
        vec = displacement(sp, w).apply(vacuum(sp))
        n_mean = number_operator(sp).expectation(vec).real
        assert abs(n_mean - abs(w) ** 2) < 1e-8

    def test_composition_phase(self):
        # Identity with the explicit phase e^{(u v* - u* v)/2}; compared on
        # the faithful columns n < D/2 (states displaced near the cutoff are
        # corrupted by any truncation).
        sp = FockSpace(48)
        u, v = 0.6 + 0.2j, -0.3 + 0.5j
        lhs = displacement(sp, u).matrix @ displacement(sp, v).matrix
        phase = np.exp(0.5 * (u * np.conj(v) - np.conj(u) * v))
        rhs = phase * displacement(sp, u + v).matrix
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
            first = displacement(sp, 2.5).matrix
        with pytest.warns(TruncationInadequateWarning):
            second = displacement(sp, 2.5).matrix
        assert np.array_equal(first, second)
        assert not first.flags.writeable and not second.flags.writeable
        with pytest.raises(ValueError):
            second[0, 0] = 0.0

    def test_leak_estimate(self):
        # Poisson tail beyond the cutoff, checked against direct summation
        lam = 6.25
        direct = 1.0 - sum(math.exp(-lam) * lam**n / math.factorial(n) for n in range(8))
        assert abs(vacuum_truncation_leak(FockSpace(8), 2.5) - direct) < 1e-12


class TestCoherentState:
    def test_zero_is_vacuum(self):
        v = coherent_state(FockSpace(16), 0.0)
        assert np.allclose(v.amplitudes, vacuum(FockSpace(16)).amplitudes, atol=0.0)

    def test_opposite_overlap(self):
        sp = FockSpace(48)
        z = 0.8
        ov = abs(coherent_state(sp, z).inner(coherent_state(sp, -z))) ** 2
        assert abs(ov - np.exp(-4.0 * z**2)) < 1e-8

    def test_poisson_amplitudes(self):
        sp = FockSpace(48)
        z = 0.5
        v = coherent_state(sp, z)
        for n in range(11):
            exact = math.exp(-abs(z) ** 2 / 2) * z**n / math.sqrt(math.factorial(n))
            assert abs(v.amplitudes[n] - exact) < 1e-10

    def test_truncation_convergence(self):
        zs = (0.4, 0.9 + 0.3j)
        ov32 = coherent_state(FockSpace(32), zs[0]).inner(coherent_state(FockSpace(32), zs[1]))
        v64a = coherent_state(FockSpace(64), zs[0])
        v64b = coherent_state(FockSpace(64), zs[1])
        assert abs(ov32 - v64a.inner(v64b)) < 1e-10


class TestMatrixExponential:
    def test_zero_matrix(self):
        sp = FockSpace(8)
        out = matrix_exponential(FockOperator(np.zeros((8, 8)), sp))
        assert np.allclose(out.matrix, np.eye(8), atol=0.0)

    def test_embedded_rotation_block(self):
        sp = FockSpace(5)
        theta = 0.637
        gen = np.zeros((5, 5), dtype=complex)
        gen[0, 1] = gen[1, 0] = 1.0
        out = matrix_exponential(FockOperator(gen, sp), scale=-1j * theta).matrix
        expected = np.eye(5, dtype=complex)
        expected[0, 0] = expected[1, 1] = np.cos(theta)
        expected[0, 1] = expected[1, 0] = -1j * np.sin(theta)
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_number_rotation_is_diagonal_phases(self):
        sp = FockSpace(12)
        omega, t = 1.7, 2.3
        out = matrix_exponential(number_operator(sp), scale=-1j * omega * t).matrix
        expected = np.diag(np.exp(-1j * omega * t * np.arange(12)))
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_overflow_raises(self):
        sp = FockSpace(4)
        big = FockOperator(np.full((4, 4), 1e306), sp)
        with pytest.raises(OverflowError):
            matrix_exponential(big, scale=10.0)


class TestVectors:
    def test_normalized_flag_enforced(self):
        sp = FockSpace(4)
        with pytest.raises(ValueError):
            FockVector(np.array([1.0, 1.0, 0.0, 0.0]), sp, normalized=True)

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            FockVector(np.zeros(3), FockSpace(4))

    def test_small_space_rejected(self):
        with pytest.raises(ValueError):
            FockSpace(1)
