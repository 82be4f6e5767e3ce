import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gawqed import (
    CouplingPoint,
    GiantAtom,
    SystemConfig,
    Topology,
    amplitudes_general,
    characteristics,
    classify_eit,
    peak_minimum_loci,
    solve_real_space,
    symmetric_config,
)

from gawqed.core import Geometries
from gawqed.scattering import (
    OracleSingularError,
    _amplitude_arrays,
    _decay_modes,
    _loci_arrays,
    _mode_form,
    _real_space_arrays,
)

from conftest import random_system
from paper_forms import SymmetryError, _topology_amplitude_arrays, amplitudes_topology, paper_loci


class TestGeneralAmplitudes:
    def test_separate_phi0_full_reflection(self):
        pt = amplitudes_general(symmetric_config(Topology.SEPARATE, 0.0), 0.0)
        assert abs(pt.t) == pytest.approx(0.0, abs=1e-14)
        assert pt.R == pytest.approx(1.0, abs=1e-12)

    def test_braided_decoupling_point(self):
        cfg = symmetric_config(Topology.BRAIDED, np.pi / 2)
        for delta in (-3.0, 0.0, 0.77):
            pt = amplitudes_general(cfg, delta)
            assert pt.t == 1.0 + 0.0j
            assert pt.r == 0.0j

    def test_single_invisible_atom_reduces(self):
        # atom a interference-decoupled and uncoupled: spectrum is atom b's
        atom_a = GiantAtom("a", (CouplingPoint(0.0, 1.0), CouplingPoint(np.pi, 1.0)))
        atom_b = GiantAtom("b", (CouplingPoint(np.pi, 1.0), CouplingPoint(3 * np.pi, 1.0)))
        cfg = SystemConfig(atom_a, atom_b)  # g_ab = 0 by the (2n+1)pi spacing
        ch = characteristics(cfg)
        assert ch.gamma_a == pytest.approx(0.0, abs=1e-12)
        assert ch.g_ab == pytest.approx(0.0, abs=1e-12)
        pt = amplitudes_general(cfg, ch.lamb_b)  # dark atom's 0/0 point is removable
        assert pt.R == pytest.approx(1.0, abs=1e-10)
        assert pt.T + pt.R == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0))
    def test_unitarity(self, seed, delta):
        cfg = random_system(np.random.default_rng(seed))
        pt = amplitudes_general(cfg, delta)
        assert pt.T + pt.R == pytest.approx(1.0, abs=1e-10)


def near_decoupled(eps):
    """Nested phi = pi/4 at delta_ab = -(2 + sqrt 2) + eps: Gamma has rank 1
    and the control c ~ eps / 2 couples the dark mode, decoupled at eps = 0."""
    return symmetric_config(Topology.NESTED, np.pi / 4, delta_ab=-(2 + np.sqrt(2)) + eps)


class TestModeForm:
    """The decay-mode closed form where cancellation eats digits."""

    @pytest.mark.parametrize("dev", [1e-3, 1e-4, 1e-5])
    def test_near_dark_unitarity(self, dev):
        # braided phi -> pi/2: a pole of width ~ dev^2 next to each vacuum-Rabi peak
        phi = np.pi / 2 + dev
        cfg = symmetric_config(Topology.BRAIDED, phi)
        peaks = peak_minimum_loci(Topology.BRAIDED, phi).peaks
        assert len(peaks) == 2
        for peak in peaks:
            t, r = _amplitude_arrays(Geometries.of([cfg]), peak + np.linspace(-20 * dev**2, 20 * dev**2, 41))
            assert np.max(np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1)) <= 1e-14

    @pytest.mark.parametrize("eps", [10.0**k for k in range(-10, -1)])
    def test_near_decoupled_transparency(self, eps):
        cfg = near_decoupled(eps)
        verdict = classify_eit(cfg)
        assert verdict.transparency_delta_a is not None
        pt = amplitudes_general(cfg, verdict.transparency_delta_a)
        assert abs(pt.T + pt.R - 1) <= 1e-10

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rank_two_det_bound(self, seed):
        # |det| >= |w_u|^2 |w_v|^2 / 4 on the real axis, pole centres included
        rng = np.random.default_rng(seed)
        geoms = Geometries.of([random_system(rng)])
        modes = _decay_modes(geoms, geoms.quantities())
        assert modes.rank[0] == 2
        centre = 0.5 * (modes.bright_energy + modes.dark_energy)
        x = np.concatenate([modes.bright_energy, modes.dark_energy, centre, rng.uniform(-6.0, 6.0, 20)])
        det, _, _ = _mode_form(modes, x)
        bound = 0.25 * np.abs(modes.w_u[0]) ** 2 * np.abs(modes.w_v[0]) ** 2
        assert np.min(np.abs(det)) >= (1 - 1e-12) * bound > 0

    @pytest.mark.parametrize("eps", [1e-10, 1e-6, 1e-2])
    def test_rank_one_det_is_control_squared_at_dark_energy(self, eps):
        geoms = Geometries.of([near_decoupled(eps)])
        modes = _decay_modes(geoms, geoms.quantities())
        assert modes.rank[0] == 1 and not modes.decoupled[0]
        det, _, _ = _mode_form(modes, modes.dark_energy)
        assert det[0] == pytest.approx(modes.coupling[0] ** 2, rel=1e-6)


class TestOracle:
    def test_example_nested_unequal_rates(self):
        atom_a = GiantAtom("a", (CouplingPoint(0.0, 1.0), CouplingPoint(np.pi, 1.0)))
        atom_b = GiantAtom("b", (CouplingPoint(0.25 * np.pi, 10.0), CouplingPoint(0.75 * np.pi, 10.0)))
        cfg = SystemConfig(atom_a, atom_b)
        gen = amplitudes_general(cfg, 0.3)
        orc = solve_real_space(cfg, 0.3)
        assert abs(gen.t - orc.t) < 1e-10
        assert abs(gen.r - orc.r) < 1e-10

    def test_full_reflection_point(self):
        sol = solve_real_space(symmetric_config(Topology.SEPARATE, 0.0), 0.0)
        assert abs(sol.t) == pytest.approx(0.0, abs=1e-12)
        assert abs(sol.r) == pytest.approx(1.0, abs=1e-12)

    def test_braided_random_detunings(self):
        rng = np.random.default_rng(7)
        cfg = symmetric_config(Topology.BRAIDED, np.pi / 10)
        for delta in rng.uniform(-6, 6, 50):
            gen = amplitudes_general(cfg, float(delta))
            orc = solve_real_space(cfg, float(delta))
            assert abs(gen.t - orc.t) < 1e-10

    def test_degenerate_inner_atom(self):
        # nested configuration collapsed to a point-like atom inside a giant one
        atom_a = GiantAtom("a", (CouplingPoint(0.0, 1.0), CouplingPoint(2.4, 1.0)))
        atom_b = GiantAtom("b", (CouplingPoint(1.1, 0.7), CouplingPoint(1.1, 1.3)))
        cfg = SystemConfig(atom_a, atom_b, delta_ab=0.8)
        for delta in (-2.0, 0.3, 1.7):
            gen = amplitudes_general(cfg, delta)
            orc = solve_real_space(cfg, delta)
            assert abs(gen.t - orc.t) < 1e-10
            assert abs(gen.r - orc.r) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0))
    def test_oracle_equivalence_randomized(self, seed, delta):
        cfg = random_system(np.random.default_rng(seed))
        gen = amplitudes_general(cfg, delta)
        orc = solve_real_space(cfg, delta)
        assert abs(gen.t - orc.t) < 1e-10
        assert abs(gen.r - orc.r) < 1e-10

    def test_segments_returned(self):
        sol = solve_real_space(symmetric_config(Topology.NESTED, 0.9), 0.4)
        assert len(sol.segment_t) == 3
        assert len(sol.segment_r) == 3
        assert np.isfinite([abs(sol.f_a), abs(sol.f_b)]).all()


def special_configs():
    """(config, detuning) on the decoupled, single-atom and removable-pole branches of the closed form."""
    invisible_a = SystemConfig(
        GiantAtom("a", (CouplingPoint(0.0, 1.0), CouplingPoint(np.pi, 1.0))),
        GiantAtom("b", (CouplingPoint(np.pi, 1.0), CouplingPoint(3 * np.pi, 1.0))),
    )
    return [
        (symmetric_config(Topology.SEPARATE, np.pi), 0.4),  # both atoms decoupled
        (invisible_a, 0.3),  # atom a invisible: single-atom scattering off b
        (symmetric_config(Topology.SEPARATE, np.pi / 2), 1.0),  # zero-width pole at delta = 1
    ]


def oracle_stack(count=300, seed=11):
    """``count`` random configs and detunings with the special configs inside."""
    rng = np.random.default_rng(seed)
    cfgs = [random_system(rng) for _ in range(count)]
    deltas = rng.uniform(-6.0, 6.0, count).tolist()
    for k, (cfg, delta) in zip((3, 140, 270), special_configs()):
        cfgs[k], deltas[k] = cfg, delta
    return cfgs, deltas


class TestStacks:
    """The stacked kernels against their one-point entry points."""

    def test_stack_matches_points(self):
        cfgs, deltas = oracle_stack()
        geoms = Geometries.of(cfgs)
        stack = geoms.quantities()
        for k, cfg in enumerate(cfgs):
            one = Geometries.of([cfg]).quantities()
            for field in dataclasses.fields(stack):
                got, want = getattr(stack, field.name)[k], getattr(one, field.name)[0]
                assert got.tobytes() == want.tobytes(), (k, field.name)
        t, r = _amplitude_arrays(geoms, deltas)
        x = _real_space_arrays(geoms, deltas)
        for k, (cfg, delta) in enumerate(zip(cfgs, deltas)):
            pt = amplitudes_general(cfg, delta)
            assert abs(t[k] - pt.t) <= 1e-14 and abs(r[k] - pt.r) <= 1e-14
            sol = solve_real_space(cfg, delta)
            unknowns = np.array([*sol.segment_t, sol.t, sol.r, *sol.segment_r, sol.f_a, sol.f_b])
            assert np.max(np.abs(x[k] - unknowns)) <= 1e-14 * max(1.0, np.max(np.abs(unknowns)))

    def test_special_branches_taken(self):
        (dark, d0), (invisible, d1), (pole, d2) = special_configs()
        assert amplitudes_general(dark, d0).t == 1.0
        ch = characteristics(invisible)
        d = d1 + invisible.delta_ab - ch.lamb_b  # atom b alone: t = i d / (i d - Gamma_b / 2)
        assert amplitudes_general(invisible, d1).t == pytest.approx(1j * d / (1j * d - 0.5 * ch.gamma_b), abs=1e-14)
        pt = amplitudes_general(pole, d2)
        assert pt.R == pytest.approx(1.0, abs=1e-12)

    def test_first_failing_geometry_raises(self):
        cfgs, deltas = oracle_stack()
        silent = SystemConfig(
            GiantAtom("a", (CouplingPoint(0.0, 0.0), CouplingPoint(1.0, 0.0))),
            GiantAtom("b", (CouplingPoint(2.0, 0.0), CouplingPoint(3.0, 0.0))),
        )
        cfgs[260], deltas[260] = silent, 0.0
        with pytest.raises(OracleSingularError) as point:
            solve_real_space(silent, 0.0)
        with pytest.raises(OracleSingularError) as stack:
            _real_space_arrays(Geometries.of(cfgs), deltas)
        assert str(stack.value) == str(point.value)
        _real_space_arrays(Geometries.of(cfgs[:260]), deltas[:260])
        _real_space_arrays(Geometries.of(cfgs[261:]), deltas[261:])

    def test_ill_conditioned_system_raises(self):
        # the oracle solves in the units of the rates: a rate 1e300 times the
        # others leaves a residual far above 1e-8 |rhs| without a singular matrix
        lopsided = SystemConfig(
            GiantAtom("a", (CouplingPoint(0.0, 1.0), CouplingPoint(1.0, 1.0))),
            GiantAtom("b", (CouplingPoint(2.0, 1.0), CouplingPoint(3.0, 1e300))),
        )
        with pytest.raises(OracleSingularError, match=r"ill-conditioned \(residual "):
            solve_real_space(lopsided, 1.0)


class TestTopologyForms:
    @pytest.mark.parametrize("kind", list(Topology))
    def test_matches_general(self, kind):
        for phi in np.linspace(0.02, 2 * np.pi - 0.02, 41):
            cfg = symmetric_config(kind, phi)
            for delta in (-4.2, -0.7, 0.0, 1.3, 5.1):
                spec = amplitudes_topology(cfg, delta, phi)
                gen = amplitudes_general(cfg, delta)
                assert abs(spec.t - gen.t) <= 1e-12 * max(1.0, abs(gen.t))
                assert abs(spec.r - gen.r) <= 1e-12 * max(1.0, abs(gen.r))

    def test_rejects_detuned_atoms(self):
        cfg = symmetric_config(Topology.SEPARATE, 0.4, delta_ab=0.5)
        with pytest.raises(SymmetryError):
            amplitudes_topology(cfg, 0.0, 0.4)

    def test_rejects_unequal_rates(self):
        atom_a = GiantAtom("a", (CouplingPoint(0.0, 1.0), CouplingPoint(0.4, 2.0)))
        atom_b = GiantAtom("b", (CouplingPoint(0.8, 1.0), CouplingPoint(1.2, 1.0)))
        with pytest.raises(SymmetryError):
            amplitudes_topology(SystemConfig(atom_a, atom_b), 0.0, 0.4)

    def test_reflection_zeros(self):
        # separate: R = 0 at delta = -gamma (sin phi + sin 2 phi) / cos 2 phi
        phi = 0.05 * np.pi
        delta = -(np.sin(phi) + np.sin(2 * phi)) / np.cos(2 * phi)
        cfg = symmetric_config(Topology.SEPARATE, phi)
        assert amplitudes_topology(cfg, delta, phi).R == pytest.approx(0.0, abs=1e-12)
        # braided: R = 0 at delta = -gamma tan phi
        phi = np.pi / 10
        cfg = symmetric_config(Topology.BRAIDED, phi)
        assert amplitudes_topology(cfg, -np.tan(phi), phi).R == pytest.approx(0.0, abs=1e-12)
        # nested: R = 0 at delta = 0 for phi = pi/3
        phi = np.pi / 3
        cfg = symmetric_config(Topology.NESTED, phi)
        assert amplitudes_topology(cfg, 0.0, phi).R == pytest.approx(0.0, abs=1e-24)

    def test_mirror_symmetry(self):
        for kind, mirror in (
            (Topology.SEPARATE, lambda p: 2 * np.pi - p),
            (Topology.NESTED, lambda p: 2 * np.pi - p),
            (Topology.BRAIDED, lambda p: np.pi - p),
        ):
            for phi in (0.23, 0.9, 1.4):
                for delta in (-2.1, 0.6, 3.3):
                    r1 = amplitudes_general(symmetric_config(kind, phi), delta).R
                    r2 = amplitudes_general(symmetric_config(kind, mirror(phi)), -delta).R
                    assert r2 == pytest.approx(r1, abs=1e-10)

    def test_super_gaussian_peak(self):
        # near the reflection peak 1 - R ~ dp^4 / (4 g_ab^4 + Gamma_ab^2 g_ab^2)
        phi = np.pi / 4
        cfg = symmetric_config(Topology.SEPARATE, phi)
        ch = characteristics(cfg)
        scale = 4 * ch.g_ab**4 + ch.gamma_ab**2 * ch.g_ab**2
        for dp in np.linspace(-0.2, 0.2, 21):
            if abs(dp) < 0.02:
                continue  # both sides vanish; relative error unstable
            exact = 1.0 - amplitudes_topology(cfg, ch.lamb_a + dp, phi).R
            approx = dp**4 / scale
            assert exact == pytest.approx(approx, rel=0.05)


class TestLoci:
    def test_separate_peak(self):
        loci = peak_minimum_loci(Topology.SEPARATE, np.pi / 2)
        assert loci.peaks == (pytest.approx(1.0),)

    def test_braided_phi0_single_lorentzian(self):
        # the double root of t's numerator is one peak
        loci = peak_minimum_loci(Topology.BRAIDED, 0.0)
        assert loci.peaks == (pytest.approx(0.0, abs=1e-12),)
        assert loci.minimum is None

    def test_separate_divergent_minimum(self):
        assert peak_minimum_loci(Topology.SEPARATE, np.pi / 4).minimum is None

    def test_braided_divergent_minimum(self):
        assert peak_minimum_loci(Topology.BRAIDED, np.pi / 2).minimum is None

    def test_peaks_reach_unity(self):
        for kind in Topology:
            for phi in (0.13, 0.77, 2.2):
                for peak in peak_minimum_loci(kind, phi).peaks:
                    cfg = symmetric_config(kind, phi)
                    assert amplitudes_general(cfg, peak).R == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("kind", list(Topology))
    def test_matches_paper_forms(self, kind):
        # the spacings of acceptance criterion 3; the worst minimum is braided
        # near phi = pi/2, where it is about -1256
        for phi in np.linspace(0.02 * np.pi, 1.98 * np.pi, 1200).tolist():
            got, paper = peak_minimum_loci(kind, phi, 0.8), paper_loci(kind, phi, 0.8)
            assert len(got.peaks) == len(paper.peaks), phi
            assert got.peaks == pytest.approx(paper.peaks, rel=0.0, abs=1e-12 * 0.8), phi
            assert (got.minimum is None) == (paper.minimum is None), phi
            if paper.minimum is not None:
                assert abs(got.minimum - paper.minimum) <= 1e-9 * max(1.0, abs(paper.minimum)), phi

    def test_decoupled_dark_mode_leaves_one_peak(self):
        # nested phi = pi/4 at this delta_ab: Gamma has rank 1 and its dark
        # mode decouples at delta = 0, where t's numerator has its other root
        cfg = symmetric_config(Topology.NESTED, np.pi / 4, delta_ab=-(2 + np.sqrt(2)))
        peak_1, peak_2, minimum = (float(x[0]) for x in _loci_arrays(Geometries.of([cfg])))
        assert peak_1 == pytest.approx(2 + 2 * np.sqrt(2), abs=1e-12)
        assert np.isnan(peak_2) and np.isnan(minimum)
        assert abs(solve_real_space(cfg, peak_1).r) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_nested_minimum_matches_grid_argmin(self):
        # independent oracle: brute-force argmin of R on a 1e-4 gamma grid
        phi = np.pi / 10
        loci = peak_minimum_loci(Topology.NESTED, phi)
        grid = np.arange(loci.minimum - 0.5, loci.minimum + 0.5, 1e-4)
        _, r = _topology_amplitude_arrays(Topology.NESTED, phi, grid)
        argmin = grid[np.argmin(np.abs(r) ** 2)]
        assert abs(argmin - loci.minimum) <= 2e-4
