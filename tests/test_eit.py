import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gawqed import (
    CouplingPoint,
    DarkState,
    GiantAtom,
    Regime,
    Scheme,
    SystemConfig,
    Topology,
    amplitudes_general,
    characteristics,
    classify_eit,
    collective_eit_amplitudes,
    sa_basis,
    single_atom_eit_amplitudes,
    solve_real_space,
    symmetric_config,
)
from gawqed.core import Geometries
from gawqed.eit import EitPreconditionError
from gawqed.scattering import _decay_modes

from conftest import random_system
from paper_forms import lambda_reference, maximum_symmetric_quantities


def braided_single_atom(delta_ab_offset=0.0):
    """Braided geometry with atom a interference-decoupled (phases 0, pi)."""
    atom_a = GiantAtom("a", (CouplingPoint(0.0, 1.0), CouplingPoint(np.pi, 1.0)))
    atom_b = GiantAtom("b", (CouplingPoint(0.25 * np.pi, 1.0), CouplingPoint(2.25 * np.pi, 1.0)))
    lamb_b = np.sin(2 * np.pi)
    return SystemConfig(atom_a, atom_b, delta_ab=lamb_b + delta_ab_offset)


def nested_single_atom(delta_ab_offset=0.0):
    """Nested geometry, outer atom decoupled, strong inner atom."""
    atom_a = GiantAtom("a", (CouplingPoint(0.0, 1.0), CouplingPoint(np.pi, 1.0)))
    atom_b = GiantAtom("b", (CouplingPoint(0.25 * np.pi, 10.0), CouplingPoint(0.75 * np.pi, 10.0)))
    lamb_b = 10.0 * np.sin(0.5 * np.pi)
    return SystemConfig(atom_a, atom_b, delta_ab=lamb_b + delta_ab_offset)


class TestSaBasis:
    def test_separate_half_pi(self):
        q = sa_basis(symmetric_config(Topology.SEPARATE, np.pi / 2), 0.0)
        assert q.gamma_s == pytest.approx(0.0, abs=1e-12)
        assert q.gamma_a_mode == pytest.approx(4.0, abs=1e-12)
        assert q.gamma_sa == pytest.approx(0.0, abs=1e-12)

    def test_braided_pi(self):
        q = sa_basis(symmetric_config(Topology.BRAIDED, np.pi), 0.0)
        assert q.gamma_s == pytest.approx(0.0, abs=1e-12)
        assert q.gamma_a_mode == pytest.approx(8.0, abs=1e-12)

    def test_equal_decays_kill_cross_term(self):
        # separate/braided symmetric configs have Gamma_a = Gamma_b at any phi
        for kind in (Topology.SEPARATE, Topology.BRAIDED):
            q = sa_basis(symmetric_config(kind, 0.7), 0.3)
            assert q.gamma_sa == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-5.0, 5.0))
    def test_basis_change_consistency(self, seed, delta_a):
        cfg = random_system(np.random.default_rng(seed))
        ch = characteristics(cfg)
        q = sa_basis(cfg, delta_a)
        assert q.gamma_s + q.gamma_a_mode == pytest.approx(ch.gamma_a + ch.gamma_b, abs=1e-10)
        assert q.gamma_s - q.gamma_a_mode == pytest.approx(2 * ch.gamma_ab, abs=1e-10)
        # determinant of the dissipation matrix is basis-independent:
        # Gamma_S Gamma_A - Gamma_SA^2 = Gamma_a Gamma_b - Gamma_ab^2
        assert q.gamma_s * q.gamma_a_mode - q.gamma_sa**2 == pytest.approx(
            ch.gamma_a * ch.gamma_b - ch.gamma_ab**2, abs=1e-9
        )
        assert q.gamma_sa == pytest.approx(0.5 * (ch.gamma_a - ch.gamma_b), abs=1e-12)

    def test_product_rule_at_equal_decays(self):
        # with Gamma_SA = 0 the determinant identity reduces to the plain
        # product rule Gamma_S Gamma_A = Gamma_a Gamma_b - Gamma_ab^2
        for kind in (Topology.SEPARATE, Topology.BRAIDED):
            for phi in (0.3, 1.2, 2.8):
                cfg = symmetric_config(kind, phi)
                ch = characteristics(cfg)
                q = sa_basis(cfg, 0.0)
                assert q.gamma_s * q.gamma_a_mode == pytest.approx(
                    ch.gamma_a * ch.gamma_b - ch.gamma_ab**2, abs=1e-9
                )


class TestCollectiveAmplitudes:
    def test_transparency_location_and_exactness(self):
        cfg = symmetric_config(Topology.SEPARATE, np.pi / 2, delta_ab=1.0)
        transparency = 1.0 - 0.5  # (-1)^0 gamma - delta_ab / 2
        q = sa_basis(cfg, transparency)
        pt = collective_eit_amplitudes(q, DarkState.S, delta_a=transparency)
        assert abs(pt.r) < 1e-12
        assert pt.t == pytest.approx(1.0, abs=1e-12)
        assert abs(amplitudes_general(cfg, transparency).r) < 1e-12

    def test_braided_pi_full_curve_matches_general(self):
        cfg = symmetric_config(Topology.BRAIDED, np.pi, delta_ab=1.0)
        for delta in np.linspace(-6, 6, 101):
            q = sa_basis(cfg, float(delta))
            pt = collective_eit_amplitudes(q, DarkState.S, delta_a=float(delta))
            gen = amplitudes_general(cfg, float(delta))
            assert abs(pt.t - gen.t) < 1e-10
            assert abs(pt.r - gen.r) < 1e-10

    def test_nested_exact_specialization_with_phase(self):
        cfg = symmetric_config(Topology.NESTED, np.pi / 2, delta_ab=-1.0)
        ch = characteristics(cfg)
        phase = cmath.exp(1j * ch.alpha_a)
        for delta in np.linspace(-6, 6, 81):
            q = sa_basis(cfg, float(delta))
            pt = collective_eit_amplitudes(q, DarkState.S, delta_a=float(delta), r_phase=phase)
            gen = amplitudes_general(cfg, float(delta))
            assert abs(pt.t - gen.t) < 1e-10
            assert abs(pt.r - gen.r) < 1e-10

    def test_precondition_failures_reported(self):
        cfg = symmetric_config(Topology.SEPARATE, 0.3, delta_ab=1.0)
        q = sa_basis(cfg, 0.0)
        with pytest.raises(EitPreconditionError, match="dark mode width"):
            collective_eit_amplitudes(q, DarkState.S)
        cfg = symmetric_config(Topology.SEPARATE, np.pi / 2, delta_ab=0.0)
        q = sa_basis(cfg, 0.0)
        with pytest.raises(EitPreconditionError, match="g_SA"):
            collective_eit_amplitudes(q, DarkState.S)


class TestSingleAtomAmplitudes:
    def test_braided_matches_general(self):
        cfg = braided_single_atom(0.0)
        for delta in np.linspace(-6, 6, 101):
            pt = single_atom_eit_amplitudes(cfg, float(delta))
            gen = amplitudes_general(cfg, float(delta))
            assert abs(pt.t - gen.t) < 1e-10
            assert abs(pt.r - gen.r) < 1e-10

    def test_braided_symmetric_dip(self):
        cfg = braided_single_atom(0.0)
        for delta in (0.7, 1.9, 3.3):
            assert single_atom_eit_amplitudes(cfg, delta).R == pytest.approx(
                single_atom_eit_amplitudes(cfg, -delta).R, abs=1e-12
            )

    def test_transparency_at_dark_resonance(self):
        cfg = braided_single_atom(0.0)
        lamb_a = characteristics(cfg).lamb_a
        assert abs(single_atom_eit_amplitudes(cfg, lamb_a).r) < 1e-12

    def test_nested_fig_parameters_match_general(self):
        cfg = nested_single_atom(-2.5)
        for delta in np.linspace(-6, 6, 101):
            pt = single_atom_eit_amplitudes(cfg, float(delta))
            gen = amplitudes_general(cfg, float(delta))
            assert abs(pt.t - gen.t) < 1e-10
            assert abs(pt.r - gen.r) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 3), st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(0.05, 3.0))
    def test_separate_no_go(self, n, gap, gamma_a, gamma_b):
        # decoupling atom a in a separate geometry forces g_ab = 0
        spacing = (2 * n + 1) * np.pi
        atom_a = GiantAtom("a", (CouplingPoint(0.0, gamma_a), CouplingPoint(spacing, gamma_a)))
        atom_b = GiantAtom(
            "b",
            (CouplingPoint(spacing + gap, gamma_b), CouplingPoint(spacing + 2 * gap, gamma_b)),
        )
        cfg = SystemConfig(atom_a, atom_b)
        ch = characteristics(cfg)
        assert ch.gamma_a == pytest.approx(0.0, abs=1e-9)
        assert ch.g_ab == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(EitPreconditionError):
            single_atom_eit_amplitudes(cfg, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.2, 2.9), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
    def test_nested_inner_decoupling_kills_control(self, b1, gamma_a, gamma_b):
        # only the outer atom's decoupling leaves g_ab nonzero
        atom_a = GiantAtom("a", (CouplingPoint(0.0, gamma_a), CouplingPoint(b1 + np.pi + 0.2, gamma_a)))
        atom_b = GiantAtom("b", (CouplingPoint(b1, gamma_b), CouplingPoint(b1 + np.pi, gamma_b)))
        cfg = SystemConfig(atom_a, atom_b)
        ch = characteristics(cfg)
        assert ch.gamma_b == pytest.approx(0.0, abs=1e-9)
        assert ch.g_ab == pytest.approx(0.0, abs=1e-9)


class TestArrayEvaluation:
    def test_single_atom_grid_matches_points(self):
        cfg = nested_single_atom(-2.5)
        grid = np.linspace(-6, 6, 41)
        arr = single_atom_eit_amplitudes(cfg, grid)
        for k, delta in enumerate(grid):
            one = single_atom_eit_amplitudes(cfg, float(delta))
            assert abs(arr.t[k] - one.t) < 1e-14
            assert abs(arr.r[k] - one.r) < 1e-14
            assert abs(arr.R[k] - one.R) < 1e-14

    def test_collective_grid_matches_points(self):
        cfg = symmetric_config(Topology.NESTED, np.pi / 2, delta_ab=-1.0)
        phase = cmath.exp(1j * characteristics(cfg).alpha_a)
        grid = np.linspace(-6, 6, 41)
        arr = collective_eit_amplitudes(sa_basis(cfg, grid), DarkState.S, grid, phase)
        for k, delta in enumerate(grid):
            q = sa_basis(cfg, float(delta))
            one = collective_eit_amplitudes(q, DarkState.S, float(delta), phase)
            assert abs(arr.t[k] - one.t) < 1e-14
            assert abs(arr.r[k] - one.r) < 1e-14

    def test_control_coupling_is_one_number_on_a_grid(self):
        cfg = symmetric_config(Topology.SEPARATE, np.pi / 2, delta_ab=1.0)
        q = sa_basis(cfg, np.linspace(-6, 6, 41))
        assert np.ndim(q.g_sa) == 0
        assert q.g_sa == sa_basis(cfg, 0.0).g_sa
        assert np.shape(q.delta_s) == (41,)


class TestClassify:
    def test_separate_collective_eit(self):
        v = classify_eit(symmetric_config(Topology.SEPARATE, np.pi / 2, delta_ab=1.0))
        assert v.scheme is Scheme.COLLECTIVE_SA
        assert v.dark_state is DarkState.S
        assert v.regime is Regime.EIT
        assert v.transparency_delta_a == pytest.approx(0.5)

    def test_separate_boundary(self):
        v = classify_eit(symmetric_config(Topology.SEPARATE, np.pi / 2, delta_ab=2.0))
        assert v.regime is Regime.BOUNDARY

    def test_nested_excluded_point(self):
        v = classify_eit(symmetric_config(Topology.NESTED, np.pi / 2, delta_ab=-2.0))
        assert v.scheme is Scheme.COLLECTIVE_SA
        assert v.regime is Regime.NOT_APPLICABLE
        assert v.transparency_delta_a is None

    def test_single_atom_verdicts(self):
        v = classify_eit(braided_single_atom(0.0))
        assert v.scheme is Scheme.SINGLE_ATOM
        assert v.dark_state is DarkState.EG
        assert v.regime is Regime.EIT
        v = classify_eit(nested_single_atom(0.0))
        assert v.scheme is Scheme.SINGLE_ATOM
        assert v.regime is Regime.EIT

    def test_plain_config_not_applicable(self):
        v = classify_eit(symmetric_config(Topology.SEPARATE, 0.3))
        assert v.scheme is Scheme.NONE
        assert v.regime is Regime.NOT_APPLICABLE

    def test_regime_tables(self):
        # separate phi = pi/2: EIT iff 0 < |delta_ab| < 2
        for dab in np.arange(-50, 51) / 10.0:
            v = classify_eit(symmetric_config(Topology.SEPARATE, np.pi / 2, delta_ab=float(dab)))
            assert (v.regime is Regime.EIT) == (0.0 < abs(dab) < 2.0), dab
        # nested phi = pi/2 (published form): EIT iff -4 < delta_ab < 0, != -2
        for dab in np.arange(-50, 51) / 10.0:
            v = classify_eit(symmetric_config(Topology.NESTED, np.pi / 2, delta_ab=float(dab)))
            expected = (-4.0 < dab < 0.0) and dab != -2.0
            assert (v.regime is Regime.EIT) == expected, dab


def rank_one_system(rng, decouple):
    """Atom a at random, atom b's shape at random, shifted so that
    arg w_b = arg w_a mod pi: Gamma = Re(w w^H) has rank 1.  With
    ``decouple``, delta_ab cancels the control c = u^T H v.  Returns the
    config and (u, v, H) from an eigendecomposition of Gamma, or None where
    the control does not depend on delta_ab."""
    a2, b_gap = rng.uniform(0.1, 4 * np.pi, 2)
    ra1, ra2, rb1, rb2 = rng.uniform(0.05, 3.0, 4)
    w_a = np.sqrt(ra1) + np.sqrt(ra2) * np.exp(1j * a2)
    w_b = np.sqrt(rb1) + np.sqrt(rb2) * np.exp(1j * b_gap)
    b1 = (np.angle(w_a) - np.angle(w_b)) % np.pi + np.pi * int(rng.integers(6))
    atom_a = GiantAtom("a", (CouplingPoint(0.0, ra1), CouplingPoint(a2, ra2)))
    atom_b = GiantAtom("b", (CouplingPoint(b1, rb1), CouplingPoint(b1 + b_gap, rb2)))
    ch = characteristics(SystemConfig(atom_a, atom_b))
    _, vectors = np.linalg.eigh([[ch.gamma_a, ch.gamma_ab], [ch.gamma_ab, ch.gamma_b]])
    v, u = vectors.T
    if decouple:
        if abs(u[1] * v[1]) < 0.05:
            return None
        # c(delta_ab) = u^T H(0) v - delta_ab u_b v_b
        delta_ab = (u @ [[ch.lamb_a, ch.g_ab], [ch.g_ab, ch.lamb_b]] @ v) / (u[1] * v[1])
    else:
        delta_ab = rng.uniform(-4.0, 4.0)
    hamiltonian = np.array([[ch.lamb_a, ch.g_ab], [ch.g_ab, ch.lamb_b - delta_ab]])
    return SystemConfig(atom_a, atom_b, delta_ab=float(delta_ab)), u, v, hamiltonian


class TestRankOneDarkMode:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(-6.0, 6.0))
    def test_transparency_and_decoupled_branch_match_oracle(self, seed, decouple, delta):
        drawn = rank_one_system(np.random.default_rng(seed), decouple)
        assume(drawn is not None)
        cfg, u, v, hamiltonian = drawn
        scale = max(cfg.atom_a.rates + cfg.atom_b.rates)
        control, dark_energy = u @ hamiltonian @ v, v @ hamiltonian @ v
        verdict = classify_eit(cfg)
        assert verdict.scheme is not Scheme.NONE
        if decouple:
            assert verdict.regime is Regime.NOT_APPLICABLE
            geoms = Geometries.of([cfg])
            assert _decay_modes(geoms, geoms.quantities()).decoupled[0]
            # the dark mode's real pole is no pole of t and r
            pt = amplitudes_general(cfg, dark_energy)
            assert pt.T + pt.R == pytest.approx(1.0, abs=1e-10)
            assume(abs(delta - dark_energy) > 0.1 * scale)
            pt, sol = amplitudes_general(cfg, delta), solve_real_space(cfg, delta)
            assert abs(pt.t - sol.t) <= 1e-10 and abs(pt.r - sol.r) <= 1e-10
        else:
            assume(abs(control) > 0.05 * scale)
            assert verdict.transparency_delta_a == pytest.approx(dark_energy, abs=1e-12 * scale)
            assert abs(solve_real_space(cfg, dark_energy).r) <= 1e-10


class TestMaximumSymmetric:
    def test_separate_cross_decay_vanishes(self):
        for phi in (0.3, 1.1, 2.7):
            q = maximum_symmetric_quantities(Topology.SEPARATE, phi, 0.7)
            assert q.gamma_sa == 0.0

    def test_nested_half_pi(self):
        q = maximum_symmetric_quantities(Topology.NESTED, np.pi / 2, 0.8)
        assert q.gamma_sa == pytest.approx(0.0, abs=1e-12)
        assert q.g_sa == pytest.approx(0.8 / 2 + 1.0, abs=1e-12)

    def test_braided_two_pi(self):
        q = maximum_symmetric_quantities(Topology.BRAIDED, 2 * np.pi, 1.0)
        assert q.g_sa == pytest.approx(0.5)
        assert q.gamma_s == pytest.approx(8.0, abs=1e-12)
        assert q.gamma_a_mode == pytest.approx(0.0, abs=1e-12)

    def test_matches_sa_basis_where_lamb_shifts_agree(self):
        # separate/braided carry no Lamb asymmetry: both routes coincide
        for kind in (Topology.SEPARATE, Topology.BRAIDED):
            for phi in (0.4, np.pi / 2, np.pi):
                cfg = symmetric_config(kind, phi, delta_ab=0.9)
                q1 = sa_basis(cfg, 0.0)
                q2 = maximum_symmetric_quantities(kind, phi, 0.9)
                assert q1.g_sa == pytest.approx(q2.g_sa, abs=1e-9)
                assert q1.gamma_s == pytest.approx(q2.gamma_s, abs=1e-9)
                assert q1.gamma_a_mode == pytest.approx(q2.gamma_a_mode, abs=1e-9)

    def test_nested_sign_disagreement_documented(self):
        # the published nested closed form flips the Lamb-shift part of g_SA
        # relative to the exact basis change; both magnitudes are exposed
        cfg = symmetric_config(Topology.NESTED, np.pi / 2, delta_ab=-1.0)
        exact = sa_basis(cfg, 0.0).g_sa
        printed = maximum_symmetric_quantities(Topology.NESTED, np.pi / 2, -1.0).g_sa
        assert exact == pytest.approx(-1.5, abs=1e-9)
        assert printed == pytest.approx(0.5, abs=1e-9)


class TestLambdaReference:
    def test_two_photon_resonance_dark(self):
        pt = lambda_reference(delta_p=0.7, delta_c=0.7, omega_c=1.3, gamma_20=2.0)
        assert pt.r == 0.0j
        assert pt.t == pytest.approx(1.0)

    def test_gamma_20_positive_required(self):
        with pytest.raises(EitPreconditionError):
            lambda_reference(0.0, 0.0, 1.0, 0.0)

    def test_mapping_reproduces_collective(self):
        cfg = symmetric_config(Topology.SEPARATE, np.pi / 2, delta_ab=1.0)
        for delta in np.linspace(-6, 6, 201):
            q = sa_basis(cfg, float(delta))
            mapped = lambda_reference(
                delta_p=q.delta_a_mode,
                delta_c=q.delta_a_mode - q.delta_s,
                omega_c=2.0 * q.g_sa,
                gamma_20=q.gamma_a_mode,
            )
            direct = collective_eit_amplitudes(q, DarkState.S, delta_a=float(delta))
            assert abs(mapped.t - direct.t) < 1e-12
            assert abs(mapped.r - direct.r) < 1e-12

    def test_no_control_single_lorentzian(self):
        # omega_c = 0: reflectance collapses to a Lorentzian of half width gamma_20 / 2
        gamma_20 = 1.7
        for delta in np.linspace(-4, 4, 41):
            pt = lambda_reference(delta_p=float(delta), delta_c=0.3, omega_c=0.0, gamma_20=gamma_20)
            lorentz = (gamma_20 / 2) ** 2 / (delta**2 + (gamma_20 / 2) ** 2)
            assert pt.R == pytest.approx(lorentz, abs=1e-12)

    def test_finite_metastable_decay_breaks_unitarity(self):
        # away from two-photon resonance, decay into the metastable state
        # removes probability from the guided channels
        lossy = lambda_reference(delta_p=0.5, delta_c=0.2, omega_c=1.0, gamma_20=2.0, gamma_21=0.3)
        assert lossy.T + lossy.R < 1.0 - 1e-4
