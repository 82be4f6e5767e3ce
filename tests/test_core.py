import cmath
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gawqed import (
    ConfigError,
    CouplingPoint,
    GiantAtom,
    SystemConfig,
    Topology,
    TopologyError,
    amplitudes_general,
    characteristics,
    classify_topology,
    detunings,
    symmetric_config,
)

from gawqed.core import QUANTITY_LIMIT, Geometries, QuantityOverflowError, rate_scale
from gawqed.scattering import DECOUPLE_TOL

from conftest import random_system


def make(pa, pb, rates=(1.0, 1.0, 1.0, 1.0), delta_ab=0.0):
    atom_a = GiantAtom("a", (CouplingPoint(pa[0], rates[0]), CouplingPoint(pa[1], rates[1])))
    atom_b = GiantAtom("b", (CouplingPoint(pb[0], rates[2]), CouplingPoint(pb[1], rates[3])))
    return SystemConfig(atom_a, atom_b, delta_ab=delta_ab)


class TestValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            CouplingPoint(0.0, -0.1)

    def test_nonfinite_phase_rejected(self):
        with pytest.raises(ConfigError):
            CouplingPoint(math.inf, 1.0)

    def test_unordered_points_rejected(self):
        with pytest.raises(ConfigError):
            GiantAtom("a", (CouplingPoint(1.0, 1.0), CouplingPoint(0.0, 1.0)))

    def test_b_leftmost_rejected(self):
        atom_a = GiantAtom("a", (CouplingPoint(1.0, 1.0), CouplingPoint(2.0, 1.0)))
        atom_b = GiantAtom("b", (CouplingPoint(0.0, 1.0), CouplingPoint(3.0, 1.0)))
        with pytest.raises(ConfigError):
            SystemConfig(atom_a, atom_b)

    def test_detunings(self):
        cfg = make((0.0, 1.0), (2.0, 3.0), delta_ab=0.7)
        assert detunings(cfg, 0.2) == (0.2, pytest.approx(0.9))


class TestClassify:
    def test_separate(self):
        cfg = make((0.0, np.pi), (2 * np.pi, 3 * np.pi))
        assert classify_topology(cfg) is Topology.SEPARATE

    def test_braided(self):
        cfg = make((0.0, np.pi), (np.pi / 2, 1.5 * np.pi))
        assert classify_topology(cfg) is Topology.BRAIDED

    def test_nested(self):
        cfg = make((0.0, np.pi), (np.pi / 4, 0.75 * np.pi))
        assert classify_topology(cfg) is Topology.NESTED

    def test_touching_separate(self):
        cfg = make((0.0, 1.0), (1.0, 2.0))
        assert classify_topology(cfg) is Topology.SEPARATE

    def test_degenerate_inner_atom_is_nested(self):
        cfg = make((0.0, 2.0), (1.0, 1.0))
        assert classify_topology(cfg) is Topology.NESTED

    def test_unclassifiable_ordering(self):
        cfg = make((0.0, 1.0), (0.0, 2.0))
        with pytest.raises(TopologyError):
            classify_topology(cfg)


class TestCharacteristics:
    def test_separate_half_pi(self):
        ch = characteristics(symmetric_config(Topology.SEPARATE, np.pi / 2))
        assert ch.lamb_a == pytest.approx(1.0, abs=1e-12)
        assert ch.gamma_a == pytest.approx(2.0, abs=1e-12)
        assert ch.gamma_b == pytest.approx(2.0, abs=1e-12)
        assert ch.g_ab == pytest.approx(0.0, abs=1e-12)
        assert ch.gamma_ab == pytest.approx(-2.0, abs=1e-12)

    def test_braided_half_pi_decoherence_free(self):
        ch = characteristics(symmetric_config(Topology.BRAIDED, np.pi / 2))
        assert ch.gamma_a == pytest.approx(0.0, abs=1e-12)
        assert ch.gamma_b == pytest.approx(0.0, abs=1e-12)
        assert ch.g_ab == pytest.approx(1.0, abs=1e-12)
        assert ch.gamma_ab == pytest.approx(0.0, abs=1e-12)

    def test_all_points_coincident(self):
        cfg = make((1.3, 1.3), (1.3, 1.3))
        ch = characteristics(cfg)
        assert ch.lamb_a == pytest.approx(0.0, abs=1e-14)
        assert ch.gamma_a == pytest.approx(4.0, abs=1e-12)
        assert ch.gamma_b == pytest.approx(4.0, abs=1e-12)
        assert ch.g_ab == pytest.approx(0.0, abs=1e-14)
        assert ch.gamma_ab == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("kind", list(Topology))
    def test_closed_forms_over_phi_grid(self, kind):
        # equal rates, equal spacing: characteristic quantities must reproduce
        # the per-topology trigonometric forms
        phi = np.linspace(0.0, 2 * np.pi, 1000)
        expected = {
            Topology.SEPARATE: (
                np.sin(phi), np.sin(phi),
                2 * (1 + np.cos(phi)), 2 * (1 + np.cos(phi)),
                (np.sin(phi) + 2 * np.sin(2 * phi) + np.sin(3 * phi)) / 2,
                np.cos(phi) + 2 * np.cos(2 * phi) + np.cos(3 * phi),
            ),
            Topology.BRAIDED: (
                np.sin(2 * phi), np.sin(2 * phi),
                2 * (1 + np.cos(2 * phi)), 2 * (1 + np.cos(2 * phi)),
                (3 * np.sin(phi) + np.sin(3 * phi)) / 2,
                3 * np.cos(phi) + np.cos(3 * phi),
            ),
            Topology.NESTED: (
                np.sin(3 * phi), np.sin(phi),
                2 * (1 + np.cos(3 * phi)), 2 * (1 + np.cos(phi)),
                np.sin(phi) + np.sin(2 * phi),
                2 * (np.cos(phi) + np.cos(2 * phi)),
            ),
        }[kind]
        got = np.array(
            [
                [c.lamb_a, c.lamb_b, c.gamma_a, c.gamma_b, c.g_ab, c.gamma_ab]
                for c in (characteristics(symmetric_config(kind, p)) for p in phi)
            ]
        )
        for col, exp in enumerate(expected):
            np.testing.assert_allclose(got[:, col], exp, rtol=1e-12, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_individual_decays_nonnegative(self, seed):
        cfg = random_system(np.random.default_rng(seed))
        ch = characteristics(cfg)
        assert ch.gamma_a >= 0.0
        assert ch.gamma_b >= 0.0
        # collective decay bounded by the individual ones (Cauchy-Schwarz)
        assert abs(ch.gamma_ab) <= math.sqrt(ch.gamma_a * ch.gamma_b) + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-10.0, 10.0))
    def test_global_phase_shift(self, seed, shift):
        rng = np.random.default_rng(seed)
        cfg = random_system(rng)

        def shifted(atom):
            return GiantAtom(
                atom.label,
                tuple(CouplingPoint(p.phase_coord + shift, p.bare_rate) for p in atom.points),
            )

        moved = SystemConfig(shifted(cfg.atom_a), shifted(cfg.atom_b), cfg.delta_ab)
        ch0, ch1 = characteristics(cfg), characteristics(moved)
        for name in ("lamb_a", "lamb_b", "gamma_a", "gamma_b", "g_ab", "gamma_ab"):
            assert getattr(ch1, name) == pytest.approx(getattr(ch0, name), abs=1e-10)
        # phase factors shift by twice the translation, modulo 2 pi
        for name in ("alpha_a", "alpha_b"):
            wrapped = (getattr(ch1, name) - getattr(ch0, name) - 2 * shift) % (2 * np.pi)
            assert min(wrapped, 2 * np.pi - wrapped) == pytest.approx(0.0, abs=1e-9)


def reference_quantities(cfg):
    """The six rate-like quantities and the phasors (w_a, w_b) of ``cfg`` in
    50-digit arithmetic, from the waveguide self-energy
    M_jk = (1/2) sum over point pairs sqrt(gamma_n gamma_m) exp(i |theta_n - theta_m|):
    lamb_j = Im M_jj, Gamma_j = 2 Re M_jj, g_ab = Im M_ab, Gamma_ab = 2 Re M_ab."""
    with mpmath.workdps(50):
        atoms = [
            [(mpmath.mpf(p.phase_coord), mpmath.mpf(p.bare_rate)) for p in atom.points]
            for atom in (cfg.atom_a, cfg.atom_b)
        ]

        def m(pa, pb):
            return sum(
                mpmath.sqrt(ra * rb) * mpmath.expj(abs(ta - tb)) for ta, ra in pa for tb, rb in pb
            ) / 2

        a, b = atoms
        maa, mbb, mab = m(a, a), m(b, b), m(a, b)
        w = [sum(mpmath.sqrt(r) * mpmath.expj(t) for t, r in atom) for atom in atoms]
        rates = [maa.imag, mbb.imag, 2 * maa.real, 2 * mbb.real, mab.imag, 2 * mab.real]
        return [float(x) for x in rates], [complex(wj) for wj in w]


class TestStackedQuantities:
    def test_rate_scale_is_the_largest_rate(self):
        rng = np.random.default_rng(4)
        stacks = [
            rng.uniform(0.0, 3.0, (500, 2, 2)),
            rng.integers(0, 3, (500, 2, 2)).astype(float),  # ties
            np.zeros((7, 2, 2)),
        ]
        for rates in stacks:
            assert rate_scale(rates).tobytes() == np.max(rates, axis=(-2, -1)).tobytes()
        cfg = random_system(rng)
        rates = (cfg.atom_a.rates, cfg.atom_b.rates)
        assert rate_scale(rates) == np.max(rates) == max(cfg.atom_a.rates + cfg.atom_b.rates)

    def test_quantities_match_50_digit_reference(self):
        rng = np.random.default_rng(21)
        cfgs = [random_system(rng) for _ in range(300)] + [
            make((1.3, 1.3), (1.3, 1.3)),  # coincident points
            make((0.0, 0.0), (2.0, 2.0), rates=(0.5, 2.0, 1.0, 0.3)),
            symmetric_config(Topology.SEPARATE, np.pi),  # both atoms decoupled
            symmetric_config(Topology.BRAIDED, np.pi / 2),
            make((0.0, 1.0), (2.0, 3.0), rates=(1.0, 0.0, 1.0, 1.0)),  # a zero bare rate
            make((0.0, 1.0), (2.0, 3.0), rates=(0.0, 0.0, 0.0, 0.0)),
        ]
        geoms = Geometries.of(cfgs)
        stack, scales = geoms.quantities(), rate_scale(geoms.rates)
        eps = np.finfo(float).eps
        names = ("lamb_a", "lamb_b", "gamma_a", "gamma_b", "g_ab", "gamma_ab")
        for k, cfg in enumerate(cfgs):
            rates, phasors = reference_quantities(cfg)
            scale = scales[k]
            for name, want in zip(names, rates):
                # Gamma_j = |w_j|^2 with |w_j| up to 2 sqrt(scale) errs most: 11 eps seen
                assert abs(getattr(stack, name)[k] - want) <= 16 * eps * scale, (k, name)
            for alpha, w in zip((stack.alpha_a[k], stack.alpha_b[k]), phasors):
                # exp(i alpha_j / 2) is the unit phasor of w_j; its argument is
                # as good as w_j over |w_j|, and arbitrary where w_j vanishes
                if abs(w) ** 2 > DECOUPLE_TOL * scale:
                    gap = abs(cmath.exp(0.5j * alpha) - w / abs(w))
                    assert gap <= 8 * eps * math.sqrt(scale) / abs(w), (k, alpha)

    def test_overflow_names_the_first_non_finite_quantity(self):
        # only atom b's rates are out of range, so lamb_a stays in range
        big = make((0.0, 1.0), (2.0, 3.0), rates=(1.0, 1.0, 1e308, 1e308))
        fine = make((0.0, 1.0), (2.0, 3.0))
        for cfgs in ([big], [fine, big]):
            with pytest.raises(QuantityOverflowError, match="^characteristic quantity lamb_b exceeds"):
                Geometries.of(cfgs).quantities()
        with pytest.raises(QuantityOverflowError, match="quantity lamb_b"):
            characteristics(big)
        # gamma_a = 4e307 is finite, but a sum of a few such quantities is not
        close = make((0.0, 1e-3), (2.0, 3.0), rates=(1e307, 1e307, 1.0, 1.0))
        message = f"characteristic quantity gamma_a exceeds {QUANTITY_LIMIT:.3e}:"
        with pytest.raises(QuantityOverflowError, match="^" + re.escape(message)):
            characteristics(close)
        Geometries.of([fine, make((0.0, 1.0), (2.0, 3.0), rates=(1e300,) * 4)]).quantities()


class TestSpectrumPeriodicity:
    @pytest.mark.parametrize(
        "kind,period",
        [
            (Topology.SEPARATE, 2 * np.pi),
            (Topology.BRAIDED, np.pi),
            (Topology.NESTED, 2 * np.pi),
        ],
    )
    def test_phi_period(self, kind, period):
        for phi in (0.31, 1.7, 2.9):
            for delta in (-2.3, 0.4, 3.1):
                r0 = amplitudes_general(symmetric_config(kind, phi), delta).R
                r1 = amplitudes_general(symmetric_config(kind, phi + period), delta).R
                assert r1 == pytest.approx(r0, abs=1e-10)
