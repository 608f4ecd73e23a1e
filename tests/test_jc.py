"""Oscillator probe: closed forms, propagator chain, pointer-swap dynamics.

The pointer swap |+zeta_0, +> -> |-zeta_0, -> is checked against the
polaron-dressed Rabi law sin^2(nu_eff t), nu_eff = nu exp(-2 |zeta_0|^2):
the tunneling matrix element between the pointer states carries their
displaced-vacuum overlap, so the first-order substitution "time average of
the rotating displacement = identity" (bare rate nu) does not describe the
exact dynamics once 2 |zeta_0|^2 is not small.  The dressed rate always
comes from this closed form, never from a fit to the propagated data.
"""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_laguerre

from gravcat.fock import coherent_state
from gravcat.jc import (
    JCParams,
    distinguishability,
    evolve_rows,
    first_order_probability_series,
    parity_block,
    pointer_path,
    pointer_state,
    rabi_probability,
    reduced_purity,
)
from oracles import (
    RegimeWarning,
    adiabatic_propagator,
    displacement_matrix,
    evolved_cat,
    exact_propagate,
    full_matrix_rows,
    hamiltonian_step_count,
    interaction_picture_potential,
    parity_isometry,
    perturbative_propagator,
    purity,
    reduced_oscillator_state,
    stationary_state_check,
    total_hamiltonian,
    transition_probability_series,
    tunneling_block_time_average,
)

DIM = 64
DEEP = JCParams(nu=0.0, omega=1.0, g=2.0)  # zeta_0 = -2, deep strong coupling
# Stepped pointer-swap runs at |zeta_0| = 1: the largest displacement they
# touch is 2 zeta_0, whose vacuum image leaks 1.5e-18 past D = 32, far
# below fock.TRUNCATION_LEAK_BOUND, at a third of the cost of D = 64.
SWAP_DIM = 32


def random_state(dim: int, rng) -> np.ndarray:
    """A normalized (2D,) composite vector with random complex amplitudes in
    both blocks, so no pointer-state reduction applies."""
    vec = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
    return vec / np.linalg.norm(vec)


def dressed_rate(params: JCParams) -> float:
    """Polaron-dressed tunneling rate nu exp(-2 |zeta_0|^2)."""
    return params.nu * np.exp(-2.0 * abs(params.zeta0) ** 2)


class TestTotalHamiltonian:
    def test_bare_oscillator_spectrum(self):
        h = total_hamiltonian(JCParams(0.0, 1.3, 0.0), 16)
        vals = np.sort(np.linalg.eigvalsh(h))
        expected = np.sort(np.concatenate([1.3 * np.arange(16)] * 2))
        assert np.allclose(vals, expected, atol=1e-12)

    def test_displaced_ground_energy(self):
        for g in (1.0, 2.0):
            h = total_hamiltonian(JCParams(0.0, 1.0, g), DIM)
            ground = np.linalg.eigvalsh(h)[0]
            assert abs(ground + g**2) < 1e-8

    def test_hermitian(self):
        h = total_hamiltonian(JCParams(0.7, 1.2, -0.9), 20)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14

    @pytest.mark.parametrize("params", [JCParams(0.05, 1.0, 1.0), JCParams(0.7, 1.2, -0.9),
                                        JCParams(0.0, 2.5, 0.0), JCParams(0.01, 3.0, -6.0)])
    @pytest.mark.parametrize("dim", [2, 5, 64])
    def test_parity_blocks_are_the_full_hamiltonian(self, params, dim):
        # W_P^T H W_P is parity_block(P) on each sector's isometry W_P, and
        # H links no sector to the other: the two blocks are all of H
        h = total_hamiltonian(params, dim)
        w_even, w_odd = parity_isometry(dim, 1), parity_isometry(dim, -1)
        scale = np.max(np.abs(h))
        for w, parity in ((w_even, 1), (w_odd, -1)):
            block = parity_block(params, dim, parity)
            assert block.shape == (dim, dim) and block.dtype == float
            assert np.max(np.abs(w.T @ h @ w - block)) <= 1e-15 * scale
        assert np.max(np.abs(w_even.T @ h @ w_odd)) <= 1e-15 * scale


class TestAdiabaticPropagator:
    def test_identity_at_zero(self):
        u = adiabatic_propagator(DEEP, DIM, 0.0)
        assert np.max(np.abs(u - np.eye(2 * DIM))) < 1e-12

    def test_unitarity(self):
        u = adiabatic_propagator(DEEP, DIM, 10.0 * np.pi)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2 * DIM))) < 1e-9

    def test_matches_matrix_exponential_on_faithful_block(self):
        # exp(-i H0 t) of the truncated H0 agrees with the closed form on
        # matrix elements whose displaced orbits stay inside the cutoff
        # ((sqrt(n) + 2 g / omega)^2 << D); higher columns are corrupted by
        # any truncation.
        t = 10.0 * np.pi
        h0 = total_hamiltonian(DEEP, DIM)
        direct = expm(-1j * h0 * t)
        closed = adiabatic_propagator(DEEP, DIM, t)
        d = DIM
        block = 6
        for off_r, off_c in ((0, 0), (0, d), (d, 0), (d, d)):
            diff = np.abs(
                direct[off_r : off_r + block, off_c : off_c + block]
                - closed[off_r : off_r + block, off_c : off_c + block]
            )
            assert np.max(diff) < 1e-8

    def test_matches_matrix_exponential_on_states(self):
        t = 10.0 * np.pi
        h0 = total_hamiltonian(DEEP, DIM)
        direct = expm(-1j * h0 * t)
        closed = adiabatic_propagator(DEEP, DIM, t)
        mixed = np.concatenate(
            [coherent_state(DIM, -2.0), coherent_state(DIM, 0.0)]
        ) / np.sqrt(2.0)
        for vec in (mixed, pointer_state(DEEP, DIM, +1)):
            fid = abs(np.vdot(direct @ vec, closed @ vec)) ** 2
            assert fid >= 1.0 - 1e-8


class TestEvolvedCat:
    def test_vacuum_at_zero_time(self):
        st = evolved_cat(0.6, 0.8, DEEP, DIM, 0.0)
        assert abs(abs(st[0]) - 0.6) < 1e-12
        assert abs(abs(st[DIM]) - 0.8) < 1e-12
        assert np.max(np.abs(st[1 : DIM])) < 1e-12

    def test_maximal_excursion(self):
        t = np.pi / DEEP.omega
        assert abs(abs(pointer_path(DEEP, t)) - 2.0 * abs(DEEP.g / DEEP.omega)) < 1e-12

    def test_matches_propagator(self):
        c_plus, c_minus = 1.0 / np.sqrt(2), 1j / np.sqrt(2)
        for omega_t in (0.7, np.pi, 8.0):
            st = evolved_cat(c_plus, c_minus, DEEP, DIM, omega_t)
            vac = np.zeros(DIM, dtype=complex)
            vac[0] = 1.0
            init = np.concatenate([c_plus * vac, c_minus * vac])
            ref = adiabatic_propagator(DEEP, DIM, omega_t) @ init
            fid = abs(np.vdot(ref, st)) ** 2
            assert fid >= 1.0 - 1e-8
            # the global phase is part of the contract, not just the ray
            assert np.max(np.abs(ref - st)) < 1e-6


class TestReducedState:
    def test_single_branch_is_pure(self):
        st = evolved_cat(1.0, 0.0, DEEP, DIM, 1.3)
        rho = reduced_oscillator_state(st)
        assert abs(purity(rho) - 1.0) < 1e-10

    def test_balanced_cat_purity(self):
        w = 1.0 / np.sqrt(2.0)
        for omega_t in (np.pi / 2, np.pi):
            st = evolved_cat(w, w, DEEP, DIM, omega_t)
            rho = reduced_oscillator_state(st)
            zeta = pointer_path(DEEP, omega_t)
            expected = 0.5 * (1.0 + np.exp(-4.0 * abs(zeta) ** 2))
            assert abs(purity(rho) - expected) < 1e-8
            assert purity(rho) - 0.5 <= np.exp(-4.0 * abs(DEEP.zeta0) ** 2) + 1e-8

    def test_density_matrix_axioms(self):
        st = evolved_cat(0.8, 0.6j, DEEP, DIM, 2.2)
        rho = reduced_oscillator_state(st)
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10

    def test_reduced_purity_matches_density_matrix(self):
        rng = np.random.default_rng(11)
        params = JCParams(0.05, 1.0, 1.0)
        states = [evolved_cat(0.8, 0.6j, DEEP, DIM, 2.2),
                  evolved_cat(1.0, 0.0, DEEP, DIM, 1.3),
                  random_state(DIM, rng), random_state(DIM, rng)]
        states += list(evolve_rows(params, DIM, pointer_state(params, DIM, +1),
                                   np.linspace(0.0, 40.0, 5)))
        rows = np.array(states)
        got = reduced_purity(rows[:, :DIM], rows[:, DIM:])
        expected = [purity(reduced_oscillator_state(st)) for st in states]
        assert np.max(np.abs(got - expected)) <= 1e-13
        assert got.shape == (len(states),)

    def test_partial_trace_drops_branch_cross_terms(self):
        # the projector on up + down, which ignores the qubit's
        # orthogonality, keeps exactly the cross terms the partial trace drops
        st = evolved_cat(1 / np.sqrt(2), 1 / np.sqrt(2), DEEP, DIM, 1.0)
        plain = reduced_oscillator_state(st)
        up, down = st[: DIM], st[DIM :]
        crossed = np.outer(up + down, (up + down).conj())
        expected = plain + np.outer(up, down.conj()) + np.outer(down, up.conj())
        assert np.max(np.abs(crossed - expected)) < 1e-14


class TestDistinguishability:
    def test_degenerate_pointer(self):
        rep = distinguishability(JCParams(0.0, 1.0, 0.0))
        assert rep["overlap"] == 1.0 and not rep["probe_ok"]

    def test_separated_pointer(self):
        rep = distinguishability(DEEP)
        assert abs(rep["overlap"] - np.exp(-16.0)) < 1e-12
        assert rep["probe_ok"]

    def test_matches_truncated_inner_product(self):
        rep = distinguishability(DEEP)
        plus = coherent_state(DIM, DEEP.zeta0)
        minus = coherent_state(DIM, -DEEP.zeta0)
        assert abs(rep["overlap"] - abs(np.vdot(plus, minus)) ** 2) < 1e-8

    def test_inequality_report(self):
        # a probe of mass m0 under force amplitude f0: g = -f0 / sqrt(2 m0 omega)
        f0, m0, omega = 2.0, 3.0, 0.5
        rep = distinguishability(JCParams(nu=0.0, omega=omega, g=-f0 / np.sqrt(2.0 * m0 * omega)))
        assert abs(rep["omega_cubed"] - 0.125) < 1e-15
        assert abs(rep["coupling_scale"] - f0**2 / m0) < 1e-12


class TestPerturbativePropagator:
    def test_identity_at_zero_rate(self):
        params = JCParams(0.0, 1.0, 2.0)
        u = perturbative_propagator(params, DIM, 5.0)
        assert np.max(np.abs(u - np.eye(2 * DIM))) < 1e-12

    def test_quarter_period_blocks(self):
        params = JCParams(0.05, 1.0, 1.0)
        t = 0.5 * np.pi / params.nu
        u = perturbative_propagator(params, DIM, t)
        d = DIM
        assert np.max(np.abs(u[:d, :d])) < 1e-12
        expected = -1j * displacement_matrix(DIM, 2.0 * params.zeta0)
        assert np.max(np.abs(u[:d, d:] - expected)) < 1e-12

    def test_unitarity(self):
        params = JCParams(0.05, 1.0, 1.5)
        u = perturbative_propagator(params, DIM, 50.0)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2 * DIM))) < 1e-8

    def test_regime_warning(self):
        with pytest.warns(RegimeWarning):
            perturbative_propagator(JCParams(0.5, 1.0, 1.0), DIM, 50.0)


class TestRabiProbability:
    def test_zero_time(self):
        assert rabi_probability(JCParams(0.3, 1.0, 2.0), 0.0) == 0.0

    def test_quarter_period(self):
        params = JCParams(0.3, 1.0, 2.0)
        assert abs(rabi_probability(params, 0.5 * np.pi / params.nu) - 1.0) < 1e-12

    def test_matches_matrix_element(self):
        params = JCParams(0.02, 1.0, 1.2)
        plus = pointer_state(params, DIM, +1)
        minus = pointer_state(params, DIM, -1)
        for t in (10.0, 17.0, 40.0):
            u = perturbative_propagator(params, DIM, t)
            amp = np.vdot(minus, u @ plus)
            assert abs(abs(amp) ** 2 - rabi_probability(params, t)) < 1e-8

    def test_periodicity_and_range(self):
        params = JCParams(0.7, 1.0, 0.5)
        ts = np.linspace(0.0, 10.0, 97)
        p = rabi_probability(params, ts)
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.allclose(p, rabi_probability(params, ts + np.pi / params.nu), atol=1e-12)


class TestFirstOrderProbabilitySeries:
    @pytest.mark.parametrize("dim", [16, 64])
    @pytest.mark.parametrize("nu", [0.01, 0.05])
    @pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
    def test_matches_propagator_product(self, g, nu, dim):
        # the oracle builds both 2D x 2D block propagators at each time;
        # the times are not uniform and reach omega t > 2 pi and a bare quarter period
        params = JCParams(nu, 1.0, g)
        rng = np.random.default_rng(dim + int(100 * g) + int(1000 * nu))
        times = np.array([0.0, 0.4, 3.0, 7.5, 19.0, 0.5 * np.pi / nu, 61.3])
        with warnings.catch_warnings():
            # RegimeWarning, and the truncation warnings of D = 16 at g = 2
            warnings.simplefilter("ignore")
            pairs = [(pointer_state(params, dim, +1), pointer_state(params, dim, -1)),
                     (random_state(dim, rng), random_state(dim, rng))]
            for initial, target in pairs:
                got = first_order_probability_series(params, dim, times, initial, target)
                expected = [abs(np.vdot(target, adiabatic_propagator(params, dim, t)
                                        @ perturbative_propagator(params, dim, t) @ initial))
                            ** 2 for t in times]
                assert np.max(np.abs(got - expected)) <= 1e-13

    def test_random_pair_departs_from_pointer_law(self):
        # the general amplitude, not its sin^2(nu t) pointer reduction, is used
        params = JCParams(0.05, 1.0, 1.0)
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 40.0, 9)
        pointer = first_order_probability_series(params, DIM, times,
                                                 pointer_state(params, DIM, +1),
                                                 pointer_state(params, DIM, -1))
        assert np.max(np.abs(pointer - rabi_probability(params, times))) <= 1e-13
        mixed = first_order_probability_series(params, DIM, times,
                                               random_state(DIM, rng), random_state(DIM, rng))
        assert np.max(np.abs(mixed - pointer)) > 0.01

    def test_does_not_warn_outside_regime(self):
        # perturbative_propagator warns here; the array law does not
        params = JCParams(0.5, 1.0, 1.0)
        plus, minus = pointer_state(params, DIM, +1), pointer_state(params, DIM, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = first_order_probability_series(params, DIM, np.array([0.0, 1.0, 50.0]),
                                               plus, minus)
        assert np.allclose(p, rabi_probability(params, np.array([0.0, 1.0, 50.0])), atol=1e-13)

    def test_builds_no_displacement_matrix(self):
        # the pointer states and the first-order series at D 512 apply their
        # displacements to vectors: the traced peak, the generator's eigh
        # included, stays below 32 D^2 bytes, two complex D x D arrays
        import tracemalloc

        from gravcat import fock

        d, params = 512, JCParams(0.01, 1.0, 1.0)
        times = np.linspace(0.0, 0.5 * np.pi * np.exp(2.0) / params.nu, 61)
        fock._generator_eigh.cache_clear()
        tracemalloc.start()
        try:
            initial = pointer_state(params, d, +1)
            target = pointer_state(params, d, -1)
            first_order_probability_series(params, d, times, initial, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * d * d, peak


class TestStationaryStates:
    def test_zero_time(self):
        assert stationary_state_check(JCParams(0.0, 1.0, 1.0), DIM, 0.0, +1) == 0.0

    def test_residual_satisfies_contract(self):
        assert stationary_state_check(JCParams(0.0, 1.0, 1.0), DIM, 2.0 * np.pi, +1) <= 1e-8
        assert stationary_state_check(JCParams(0.0, 1.0, 2.0), DIM, 2.0 * np.pi, -1) <= 1e-8

    def test_truncation_diagnostic_grows(self):
        dim = 32
        vals = [
            stationary_state_check(JCParams(0.0, 1.0, z), dim, 2.0 * np.pi, +1)
            for z in (1.0, 2.0, 3.0)
        ]
        assert vals[0] < vals[1] < vals[2]


class TestExactPropagate:
    def test_matches_closed_form_at_zero_rate(self):
        t = 3.7
        steps = hamiltonian_step_count(DEEP, DIM, t)
        init = evolved_cat(0.6, 0.8, DEEP, DIM, 0.0)
        got = exact_propagate(DEEP, DIM, init, t, steps)
        expected = evolved_cat(0.6, 0.8, DEEP, DIM, t)
        assert abs(np.vdot(got, expected)) ** 2 >= 1.0 - 1e-8

    def test_energy_conserved_and_norm_preserved(self):
        params = JCParams(0.05, 1.0, 2.0)
        h = total_hamiltonian(params, DIM)
        st = pointer_state(params, DIM, +1)
        t = 100.0 / params.omega
        out = exact_propagate(params, DIM, st, t, hamiltonian_step_count(params, DIM, t))
        e0 = np.vdot(st, h @ st).real
        e1 = np.vdot(out, h @ out).real
        assert abs(e1 - e0) <= 1e-8 * abs(e0)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-9

    def test_step_size_contract_enforced(self):
        with pytest.raises(ValueError):
            exact_propagate(DEEP, DIM, pointer_state(DEEP, DIM, +1), 10.0, 3)

    def test_oracle_chain_closed_form_expm_stepped(self):
        # pairwise fidelity of the three routes at nu = 0
        t = 2.0 * np.pi
        vec = pointer_state(DEEP, DIM, +1)
        closed = adiabatic_propagator(DEEP, DIM, t) @ vec
        direct = expm(-1j * total_hamiltonian(DEEP, DIM) * t) @ vec
        stepped = exact_propagate(DEEP, DIM, vec, t, hamiltonian_step_count(DEEP, DIM, t))
        for a, b in ((closed, direct), (closed, stepped), (direct, stepped)):
            assert abs(np.vdot(a, b)) ** 2 >= 1.0 - 1e-8

    def test_transition_follows_dressed_rate(self):
        # exact dynamics: pointer swap oscillates at nu exp(-2 |zeta_0|^2)
        params = JCParams(0.01, 1.0, 2.0)
        times = np.linspace(0.0, np.pi / params.nu, 17)
        p = transition_probability_series(params, DIM, times)
        nu_eff = dressed_rate(params)
        assert np.max(np.abs(p - np.sin(nu_eff * times) ** 2)) < 1e-8

    def test_transition_tracks_bare_rabi(self):
        """The exact pointer swap tracks the Rabi law sin^2(nu_eff t) with
        full contrast over a dressed half period, nu_eff t <= pi, at
        nu/omega = 0.05, g/omega = 1.  The law is the first-order one with
        the bare rate nu replaced by the dressed nu exp(-2 |zeta_0|^2); at
        zeta_0 = -1 the bare law is off by order one."""
        params = JCParams(0.05, 1.0, 1.0)
        nu_eff = dressed_rate(params)
        times = np.linspace(0.0, np.pi / nu_eff, 17)
        p = transition_probability_series(params, SWAP_DIM, times)
        assert np.max(np.abs(p - np.sin(nu_eff * times) ** 2)) <= 0.05
        assert np.max(p) >= 0.99

    def test_perturbative_deviation_decreases_with_rate(self):
        """The deviation between full propagation and the dressed Rabi law
        sin^2(nu exp(-2 |zeta_0|^2) t), taken over a dressed half period,
        is small and shrinks monotonically over nu/omega in
        {0.1, 0.05, 0.025} at g/omega = 1: the law is the leading order in
        nu/omega."""
        devs = []
        for nu in (0.1, 0.05, 0.025):
            params = JCParams(nu, 1.0, 1.0)
            nu_eff = dressed_rate(params)
            times = np.linspace(0.0, np.pi / nu_eff, 9)
            p = transition_probability_series(params, SWAP_DIM, times)
            devs.append(float(np.max(np.abs(p - np.sin(nu_eff * times) ** 2))))
        assert devs[0] <= 0.05
        assert devs[0] > devs[1] > devs[2]


class TestInteractionPicture:
    def test_zero_time_block_is_identity(self):
        params = JCParams(0.05, 1.0, 1.0)
        v = interaction_picture_potential(params, DIM, 0.0)
        d = DIM
        block = v[:d, d:] / params.nu
        assert np.max(np.abs(block - np.eye(d))[:, : d // 2]) < 1e-10

    def test_hermitian(self):
        params = JCParams(0.05, 1.0, 1.0)
        v = interaction_picture_potential(params, DIM, 7.3)
        assert np.max(np.abs(v - v.conj().T)) < 1e-12

    def test_time_average_pointer_element_is_dressed(self):
        # the averaged tunneling block connects the pointer states with the
        # dressed weight exp(-2 |zeta_0|^2), not with unit weight
        params = JCParams(0.05, 1.0, -1.0)  # zeta_0 = 1
        avg = tunneling_block_time_average(params, DIM, 40.0 * np.pi, nodes=4000)
        plus = coherent_state(DIM, params.zeta0)
        minus = coherent_state(DIM, -params.zeta0)
        element = np.vdot(plus, avg @ minus)
        assert abs(element - np.exp(-2.0)) < 1e-9

    def test_time_average_is_trapezoid_of_blocks(self):
        # oracle: the trapezoid rule applied node by node to the
        # interaction-picture block S(s) = V(s)[:D, D:] / nu
        params = JCParams(0.05, 1.0, -1.0)
        t, nodes, d = 7.3, 50, DIM
        ss = np.linspace(0.0, t, nodes)
        blocks = [interaction_picture_potential(params, DIM, s)[:d, d:] / params.nu
                  for s in ss]
        expected = (sum(blocks) - 0.5 * (blocks[0] + blocks[-1])) * (ss[1] - ss[0]) / t
        got = tunneling_block_time_average(params, DIM, t, nodes=nodes)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_time_average_approaches_pointer_swap(self):
        """(1/t) Int_0^t S(s) ds approaches the dressed pointer-swap block
        D(zeta_0) diag(D(-2 zeta_0)) D(zeta_0): the rotation averages the
        off-diagonal Fock elements of D(-2 zeta_0) away and keeps its
        diagonal e^{-2 |zeta_0|^2} L_n(4 |zeta_0|^2).  Distance within 5% of
        the block's norm at omega t = 40 pi (whole periods) and, shrinking
        with the window, at omega t = 21 pi and 41 pi; |zeta_0| = 1,
        D = 64, trapezoid with 4000 nodes."""
        params = JCParams(0.05, 1.0, -1.0)
        zeta = abs(params.zeta0)
        swap_diag = np.diag(displacement_matrix(DIM, -2.0 * params.zeta0))
        low = np.arange(DIM // 2)  # levels the cutoff leaves faithful
        laguerre = np.exp(-2.0 * zeta**2) * eval_laguerre(low, 4.0 * zeta**2)
        assert np.max(np.abs(swap_diag[low] - laguerre)) < 1e-12
        d_z = displacement_matrix(DIM, params.zeta0)
        target = d_z @ np.diag(swap_diag) @ d_z
        scale = np.linalg.norm(target, 2)
        dist = {
            w: np.linalg.norm(
                tunneling_block_time_average(params, DIM, w * np.pi, nodes=4000) - target, 2
            ) / scale
            for w in (21.0, 41.0, 40.0)
        }
        assert dist[40.0] <= 0.05
        assert dist[21.0] > dist[41.0]
        assert dist[41.0] <= 0.05


class TestEvolveSeries:
    @pytest.mark.parametrize("dim", [32, 64])
    @pytest.mark.parametrize("g", [1.0, 2.0])
    def test_spectral_route_matches_stepped_oracle(self, dim, g):
        # evolve_rows diagonalises the two parity blocks; full_matrix_rows
        # the complex 2D x 2D H, and exact_propagate steps H from t = 0 to
        # each sample independently, at the step count its contract needs
        params = JCParams(0.05, 1.0, g)
        init = pointer_state(params, dim, +1)
        tvec = pointer_state(params, dim, -1)
        times = np.linspace(0.0, 12.0, 4)
        spectral = evolve_rows(params, dim, init, times)
        full = full_matrix_rows(params, dim, init, times)
        swap_gap = np.abs(spectral @ tvec.conj()) ** 2 - np.abs(full @ tvec.conj()) ** 2
        assert np.max(np.abs(swap_gap)) <= 1e-12
        purity_gap = (reduced_purity(spectral[:, :dim], spectral[:, dim:])
                      - reduced_purity(full[:, :dim], full[:, dim:]))
        assert np.max(np.abs(purity_gap)) <= 1e-12
        for t, row in zip(times, spectral):
            stepped = exact_propagate(params, dim, init, t,
                                      hamiltonian_step_count(params, dim, t))
            assert np.linalg.norm(row - stepped) <= 1e-10
            assert abs(abs(np.vdot(tvec, row)) ** 2 - abs(np.vdot(tvec, stepped)) ** 2) <= 1e-11

    def test_dressed_half_period_at_deep_coupling(self):
        """A full dressed half period at g/omega = 2, nu/omega = 0.01:
        omega t reaches pi e^8 / 0.01 ~ 9.4e5, which the spectral route
        covers at the cost of one diagonalisation.  The swap follows
        sin^2(nu e^{-8} t) with full contrast; the bare law sin^2(nu t) is
        off by order one here."""
        params = JCParams(0.01, 1.0, 2.0)
        nu_eff = dressed_rate(params)
        times = np.linspace(0.0, np.pi / nu_eff, 17)
        p = transition_probability_series(params, DIM, times)
        assert np.max(np.abs(p - np.sin(nu_eff * times) ** 2)) <= 1e-3
        assert np.max(p) >= 0.999
        assert np.max(np.abs(p - rabi_probability(params, times))) > 0.5

    def test_rows_are_the_series_vectors(self):
        params = JCParams(0.05, 1.0, 1.0)
        init = pointer_state(params, DIM, +1)
        times = np.linspace(0.0, 30.0, 6)
        rows = evolve_rows(params, DIM, init, times)
        assert rows.shape == (times.size, 2 * DIM) and rows.dtype == complex
        assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) <= 1e-12
        single = evolve_rows(params, DIM, init, np.zeros(1))
        assert np.array_equal(single, init[None, :])
        assert not np.shares_memory(single, init)

    @pytest.mark.parametrize("shape", [(64,), (127,), (129,), (2, 64)])
    def test_composite_vector_of_wrong_shape_rejected(self, shape):
        # dim 64 wants (128,) composite vectors wherever one enters
        params = JCParams(0.05, 1.0, 1.0)
        good = pointer_state(params, DIM, +1)
        bad = np.zeros(shape, dtype=complex)
        bad.flat[0] = 1.0
        times = np.linspace(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="composite vector"):
            evolve_rows(params, DIM, bad, times)
        with pytest.raises(ValueError, match="composite vector"):
            first_order_probability_series(params, DIM, times, bad, good)
        with pytest.raises(ValueError, match="composite vector"):
            first_order_probability_series(params, DIM, times, good, bad)

    def test_any_times_from_zero(self):
        # the spectral route takes no step: unevenly spaced times need no
        # check, and a series that does not start at 0 is refused
        params = JCParams(0.05, 1.0, 1.0)
        init = pointer_state(params, DIM, +1)
        times = np.array([0.0, 0.1, 0.3, 7.0, 7.5])
        rows = evolve_rows(params, DIM, init, times)
        assert np.max(np.abs(rows - full_matrix_rows(params, DIM, init, times))) <= 1e-12
        with pytest.raises(ValueError, match="start at 0"):
            evolve_rows(params, DIM, init, times[1:])

    def test_purity_bounds_along_balanced_evolution(self):
        params = JCParams(0.0, 1.0, 1.0)
        w = 1.0 / np.sqrt(2.0)
        for omega_t in np.linspace(0.0, 2.0 * np.pi, 9):
            st = evolved_cat(w, w, params, DIM, float(omega_t))
            val = purity(reduced_oscillator_state(st))
            assert 0.5 - 1e-8 <= val <= 1.0 + 1e-12
