import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest

from gawqed import (
    CouplingPoint,
    GiantAtom,
    SystemConfig,
    Topology,
    characteristics,
    fano_fit,
    fano_regime,
    lorentz_decompose,
    lorentz_pair,
    solve_real_space,
    symmetric_config,
)
from gawqed import cli, fano
from gawqed.core import Geometries, rate_scale
from gawqed.fano import DecompositionError, FanoRegimeError, LorentzPair, _lorentz_arrays
from gawqed.scattering import DECOUPLE_TOL, _amplitude_arrays

from conftest import fake_negative_width, random_system, shift_probe_check, wide_span_config
from paper_forms import _topology_amplitude_arrays, amplitudes_topology, rabi_approximation


def exact_r(kind, phi, delta):
    _, r = _topology_amplitude_arrays(kind, phi, np.asarray(delta, dtype=float))
    return r


def exact_poles(kind, phi):
    """Roots of the closed-form denominator (independent pole oracle)."""
    e1 = cmath.exp(1j * phi)
    if kind is Topology.SEPARATE:
        p = q = 1 + e1
        s = 0.5 * e1 * (1 + e1) ** 2
    elif kind is Topology.BRAIDED:
        p = q = 1 + e1**2
        s = 0.5 * (3 * e1 + e1**3)
    else:
        p, q = 1 + e1**3, 1 + e1
        s = e1 * (1 + e1)
    disc = cmath.sqrt(0.25 * (p - q) ** 2 + s * s)
    return -1j * (0.5 * (p + q) + disc), -1j * (0.5 * (p + q) - disc)


class TestDecomposition:
    @pytest.mark.parametrize("kind", list(Topology))
    def test_identity_randomized(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(500):
            phi = float(rng.uniform(0.02, 2 * np.pi - 0.02))
            if abs(np.sin(phi)) < 1e-3:
                continue
            delta = float(rng.uniform(-6.0, 6.0))
            pair = lorentz_decompose(kind, phi)
            assert abs(pair.reconstruct(delta) - exact_r(kind, phi, delta)) < 1e-10

    @pytest.mark.parametrize("kind", list(Topology))
    def test_width_positivity(self, kind):
        for phi in np.linspace(0.01, 2 * np.pi - 0.01, 301):
            pair = lorentz_decompose(kind, float(phi))
            assert pair.gamma_plus >= -1e-12
            assert pair.gamma_minus >= -1e-12

    @pytest.mark.parametrize("kind", list(Topology))
    def test_poles_match_exact(self, kind):
        for phi in (0.11, 0.8, 1.9, 2.6, 4.4, 5.9):
            pair = lorentz_decompose(kind, phi)
            got = sorted(
                (complex(pair.delta_plus, -pair.gamma_plus),
                 complex(pair.delta_minus, -pair.gamma_minus)),
                key=lambda z: z.real,
            )
            want = sorted(exact_poles(kind, phi), key=lambda z: z.real)
            for g, w in zip(got, want):
                assert abs(g - w) < 1e-10

    def test_braided_width_formula(self):
        phi = np.pi / 10
        pair = lorentz_decompose(Topology.BRAIDED, phi)
        assert pair.gamma_plus == pytest.approx((1 + np.cos(2 * phi)) * (1 + np.cos(phi)), abs=1e-12)
        assert pair.gamma_minus == pytest.approx((1 + np.cos(2 * phi)) * (1 - np.cos(phi)), abs=1e-12)
        assert pair.gamma_plus / pair.gamma_minus > 10

    def test_separate_small_phi_ratio(self):
        pair = lorentz_decompose(Topology.SEPARATE, 0.05 * np.pi)
        assert pair.gamma_plus / pair.gamma_minus > 10

    def test_nested_regular_point(self):
        pair = lorentz_decompose(Topology.NESTED, 0.0)
        assert np.isfinite([pair.delta_plus, pair.delta_minus, pair.gamma_plus, pair.gamma_minus]).all()
        delta = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(
            pair.reconstruct(delta), exact_r(Topology.NESTED, 0.0, delta), atol=1e-10
        )


class TestPoleCore:
    @pytest.mark.parametrize("kind", [Topology.SEPARATE, Topology.NESTED])
    def test_mirror_flips_centres_and_keeps_labels(self, kind):
        # phi -> 2 pi - phi conjugates the effective Hamiltonian up to a sign:
        # centres flip, widths and the plus/minus assignment stay
        for phi in np.linspace(0.05, np.pi - 0.05, 60):
            pair = lorentz_decompose(kind, float(phi))
            mirror = lorentz_decompose(kind, float(2 * np.pi - phi))
            assert mirror.delta_plus == pytest.approx(-pair.delta_plus, abs=1e-12)
            assert mirror.delta_minus == pytest.approx(-pair.delta_minus, abs=1e-12)
            assert mirror.gamma_plus == pytest.approx(pair.gamma_plus, abs=1e-12)
            assert mirror.gamma_minus == pytest.approx(pair.gamma_minus, abs=1e-12)
            assert fano_regime(kind, float(2 * np.pi - phi)) == fano_regime(kind, float(phi))

    def test_general_configs_match_real_space(self):
        # unequal rates and detuned atoms: no closed form exists, the
        # real-space solve is the oracle
        rng = np.random.default_rng(23)
        for _ in range(200):
            cfg = random_system(rng)
            pair = lorentz_pair(cfg)
            for delta in rng.uniform(-6.0, 6.0, 5):
                rebuilt = complex(pair.reconstruct(float(delta)))
                assert abs(rebuilt - solve_real_space(cfg, float(delta)).r) < 1e-10

    def test_plus_is_symmetric_mode_nested(self):
        cfg = symmetric_config(Topology.NESTED, 1.5 * np.pi)
        ch = characteristics(cfg)
        c = ch.g_ab - 0.5j * ch.gamma_ab
        h = np.array([[ch.lamb_a - 0.5j * ch.gamma_a, c], [c, ch.lamb_b - 0.5j * ch.gamma_b]])
        values, vectors = np.linalg.eig(h)
        pair = lorentz_decompose(Topology.NESTED, 1.5 * np.pi)
        for centre, width, s_like in (
            (pair.delta_plus, pair.gamma_plus, True),
            (pair.delta_minus, pair.gamma_minus, False),
        ):
            v = vectors[:, np.argmin(np.abs(values - complex(centre, -width)))]
            assert (abs(v[0] + v[1]) > abs(v[0] - v[1])) == s_like

    def test_rank_zero_poles_are_the_eigenvalues_of_h(self):
        # braided phi = pi/2 does not couple to the guide (Gamma = 0), but
        # H = [[0, g_ab], [g_ab, 0]] with g_ab = 1 still has the poles +-1,
        # +1 on the symmetric mode: the mode basis, whose control is 0 at
        # rank 0, would lose them
        ch = characteristics(symmetric_config(Topology.BRAIDED, np.pi / 2))
        assert ch.g_ab == pytest.approx(1.0, abs=1e-15)
        pair = lorentz_decompose(Topology.BRAIDED, np.pi / 2)
        assert pair.delta_plus == pytest.approx(1.0, abs=1e-15)
        assert pair.delta_minus == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_poles_keep_digits_across_rate_spans(self, mirrored):
        # rates spanning 12 decades: the small pole is ~1e-12 of the large
        # one, so it must not be formed as the difference mean - s
        cfg = wide_span_config(12, mirrored)
        pair = lorentz_pair(cfg)
        poles = [complex(pair.delta_plus, -pair.gamma_plus), complex(pair.delta_minus, -pair.gamma_minus)]
        for pole, exact in zip(sorted(poles, key=abs), sorted(mp_poles(cfg), key=abs)):
            assert abs(pole - exact) <= 1e-14 * abs(exact), (pole, exact)


def mp_poles(cfg: SystemConfig) -> list[complex]:
    """The eigenvalues of H_eff to 50 digits, from the raw phases and rates:
    H_eff = Sigma - diag(0, delta_ab), where the photon's Green function
    -i exp(i |x - x'|) gives Sigma_jk = -i sum V_n V_m exp(i |theta_n - theta_m|)
    over atom j's points n and atom k's points m (coupling V = sqrt(rate / 2))."""
    with mpmath.workdps(50):
        atoms = [[(mpmath.mpf(p.phase_coord), mpmath.sqrt(mpmath.mpf(p.bare_rate) / 2)) for p in atom.points]
                 for atom in (cfg.atom_a, cfg.atom_b)]
        h = mpmath.matrix(2, 2)
        for j, k in itertools.product(range(2), repeat=2):
            h[j, k] = -1j * sum(v * w * mpmath.expj(abs(th - ph)) for th, v in atoms[j] for ph, w in atoms[k])
        h[1, 1] -= mpmath.mpf(cfg.delta_ab)
        return [complex(z) for z in mpmath.eig(h, left=False, right=False)]


def special_pairs():
    """Configs on the label and chi = 0 branches of the pole core."""
    tie = SystemConfig(  # atom b has zero rates: c = 0 exactly and a zero-width channel
        GiantAtom("a", (CouplingPoint(0.0, 1.0), CouplingPoint(1.1, 0.7))),
        GiantAtom("b", (CouplingPoint(2.0, 0.0), CouplingPoint(3.0, 0.0))),
        delta_ab=0.4,
    )
    return [
        tie,
        symmetric_config(Topology.SEPARATE, np.pi / 2),  # one dark channel next to a bright one
        symmetric_config(Topology.SEPARATE, np.pi),  # decoupled: coincident zero-width poles
    ]


def special_stack(count=300, seed=5):
    """``count`` random configs with the special configs at indices 7, 150 and 290."""
    rng = np.random.default_rng(seed)
    cfgs = [random_system(rng) for _ in range(count)]
    for k, cfg in zip((7, 150, 290), special_pairs()):
        cfgs[k] = cfg
    return cfgs


class TestStackedCore:
    """The stacked pole/residue core against its one-geometry case."""

    def test_stack_matches_points(self):
        cfgs = special_stack()
        assert len(cfgs) > cli.STACK_BLOCK
        fields = _lorentz_arrays(Geometries.of(cfgs))
        assert all(f.shape == (len(cfgs),) for f in fields)
        for k, cfg in enumerate(cfgs):
            pair = lorentz_pair(cfg)
            d_p, d_m, g_p, g_m, chi_p, chi_m = (f[k] for f in fields)
            scale = max(cfg.atom_a.rates + cfg.atom_b.rates)
            for got, want in ((d_p, pair.delta_plus), (d_m, pair.delta_minus),
                              (g_p, pair.gamma_plus), (g_m, pair.gamma_minus)):
                assert abs(got - want) <= 1e-14 * scale
            for got, want in ((chi_p, pair.chi_plus), (chi_m, pair.chi_minus)):
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_special_branches_taken(self):
        tie = special_pairs()[0]
        d_p, d_m, g_p, g_m, chi_p, chi_m = _lorentz_arrays(Geometries.of(special_pairs()))
        # c = 0: plus is mean + s for the principal square root s
        ch = characteristics(tie)
        h_aa = complex(ch.lamb_a, -0.5 * ch.gamma_a)
        h_bb = complex(ch.lamb_b - tie.delta_ab, -0.5 * ch.gamma_b)
        plus = 0.5 * (h_aa + h_bb) + cmath.sqrt((0.5 * (h_aa - h_bb)) ** 2)
        assert (ch.g_ab, ch.gamma_ab) == (0.0, 0.0)
        assert abs(complex(d_p[0], -g_p[0]) - plus) <= 1e-14
        assert chi_m[0] == 0 and chi_p[0] != 0
        # a zero-width channel gets chi = 0, the bright one keeps its weight
        assert g_p[1] <= 1e-12 < g_m[1] and chi_p[1] == 0 and abs(chi_m[1]) > 0.5
        # coincident poles: both channels get chi = 0
        assert abs(d_p[2] - d_m[2]) <= 1e-12 and chi_p[2] == 0 and chi_m[2] == 0

    def test_amplitude_grid_per_geometry(self):
        cfgs = special_stack()
        rng = np.random.default_rng(8)
        grid = rng.uniform(-6.0, 6.0, (len(cfgs), 61))
        grid[:, 0] = 1.0  # the removable pole of the dark separate config
        t, r = _amplitude_arrays(Geometries.of(cfgs), grid)
        assert t.shape == r.shape == grid.shape
        for k, cfg in enumerate(cfgs):
            t_k, r_k = _amplitude_arrays(Geometries.of([cfg]), grid[k])
            assert t[k].tobytes() == t_k.tobytes() and r[k].tobytes() == r_k.tobytes()

    def test_first_failing_geometry_raises(self, monkeypatch):
        cfgs = special_stack()
        shift_probe_check(monkeypatch, lambda geoms: 1e-6 * (geoms.delta_ab == cfgs[260].delta_ab)
                          + 1e-5 * (geoms.delta_ab == cfgs[280].delta_ab))
        with pytest.raises(DecompositionError) as point:
            lorentz_pair(cfgs[260])
        assert "reconstruction residual 1.00e-06" in str(point.value)
        with pytest.raises(DecompositionError) as stack:
            _lorentz_arrays(Geometries.of(cfgs))
        assert str(stack.value) == str(point.value)
        _lorentz_arrays(Geometries.of(cfgs[:260]))
        _lorentz_arrays(Geometries.of(cfgs[261:280]))

    @pytest.mark.parametrize("negative_at", [280, 260])
    def test_first_failing_check_raises(self, monkeypatch, negative_at):
        # the probe check of geometry 260 misses and both widths of
        # ``negative_at`` are negative: the first of them fails the stack,
        # the width first where one geometry fails both
        cfgs = special_stack()
        shift_probe_check(monkeypatch, lambda geoms: 1e-6 * (geoms.delta_ab == cfgs[260].delta_ab))
        fake_negative_width(monkeypatch, lambda geoms: geoms.delta_ab == cfgs[negative_at].delta_ab)
        with pytest.raises(DecompositionError, match=r"negative channel width: \(-"):
            lorentz_pair(cfgs[negative_at])
        with pytest.raises(DecompositionError) as point:
            lorentz_pair(cfgs[260])
        first = "negative channel width" if negative_at == 260 else "reconstruction residual 1.00e-06"
        assert str(point.value).startswith(first)
        with pytest.raises(DecompositionError) as stack:
            _lorentz_arrays(Geometries.of(cfgs))
        assert str(stack.value) == str(point.value) and stack.value.row == 260
        if negative_at == 280:
            with pytest.raises(DecompositionError) as rest:
                _lorentz_arrays(Geometries.of(cfgs[261:]))
            assert rest.value.row == 19 and str(rest.value).startswith("negative channel width")

    def test_symmetric_error_names_phi(self, monkeypatch):
        fake_negative_width(monkeypatch, lambda geoms: np.ones(len(geoms), dtype=bool))
        with pytest.raises(DecompositionError, match=r"^negative channel width: .* at phi=0\.7$"):
            lorentz_decompose(Topology.SEPARATE, 0.7)


class TestRegime:
    def test_separate_minus_dominant(self):
        assert fano_regime(Topology.SEPARATE, 0.45 * np.pi) == "minus_dominant"

    def test_separate_plus_dominant(self):
        assert fano_regime(Topology.SEPARATE, 0.05 * np.pi) == "plus_dominant"

    def test_braided_decoupled_none(self):
        assert fano_regime(Topology.BRAIDED, 0.5 * np.pi) == "none"

    def test_nested_plus_dominant(self):
        assert fano_regime(Topology.NESTED, 0.1 * np.pi) == "plus_dominant"

    def test_interval_edges(self):
        # braided threshold sits at phi = 2 atan(1/sqrt(10)) ~ 0.1949 pi
        assert fano_regime(Topology.BRAIDED, 0.19 * np.pi) == "plus_dominant"
        assert fano_regime(Topology.BRAIDED, 0.21 * np.pi) == "none"
        assert fano_regime(Topology.SEPARATE, 0.3 * np.pi) == "none"


class TestFit:
    def test_threshold_boundary_accepted(self):
        pair = LorentzPair(1.0, -0.5, 1.0, 0.1, 1 + 0j, -1 + 0j)
        fit = fano_fit(pair)  # ratio exactly 10
        assert np.isfinite(fit.q)
        assert fit.width == pytest.approx(0.1)

    def test_below_threshold_rejected(self):
        pair = LorentzPair(1.0, -0.5, 1.0, 0.2, 1 + 0j, -1 + 0j)
        with pytest.raises(FanoRegimeError):
            fano_fit(pair)

    def test_zero_width_rejected(self):
        pair = LorentzPair(1.0, -0.5, 1.0, 0.0, 1 + 0j, -1 + 0j)
        with pytest.raises(FanoRegimeError):
            fano_fit(pair)

    @pytest.mark.parametrize("kind", [Topology.SEPARATE, Topology.BRAIDED])
    def test_dark_narrow_channel_rejected(self, kind):
        # just off phi = pi the narrow channel's width is tiny but positive and
        # its prefactor is 0 by the dark rule of lorentz_pair
        pair = lorentz_pair(symmetric_config(kind, np.pi + 1e-7))
        narrow = pair.chi_minus if pair.gamma_minus < pair.gamma_plus else pair.chi_plus
        assert narrow == 0.0 and min(pair.gamma_plus, pair.gamma_minus) > 0.0
        with pytest.raises(FanoRegimeError, match="dark"):
            fano_fit(pair)

    def test_fit_zero_sits_at_reflection_minimum(self):
        phi = 0.05 * np.pi
        fit = fano_fit(lorentz_decompose(Topology.SEPARATE, phi))
        minimum = -(np.sin(phi) + np.sin(2 * phi)) / np.cos(2 * phi)
        assert fit.center - fit.q * fit.width == pytest.approx(minimum, abs=2e-2 * fit.width + 1e-3)

    def _fit_error(self, kind, phi, eps_max):
        pair = lorentz_decompose(kind, phi)
        fit = fano_fit(pair)
        eps = np.linspace(-eps_max, eps_max, 401)
        exact = np.abs(exact_r(kind, phi, fit.center + eps * fit.width)) ** 2
        return float(np.max(np.abs(fit.evaluate(eps) - exact)))

    def test_quality_nested_examples_full_window(self):
        assert self._fit_error(Topology.NESTED, 0.1 * np.pi, 3.0) < 0.05
        assert self._fit_error(Topology.NESTED, 0.71 * np.pi, 3.0) < 0.05

    def test_quality_exemplified_points_core_window(self):
        # the frozen-background approximation drifts in the wings: at the
        # exemplified regime points the 0.05 bound holds on |eps| <= 2
        assert self._fit_error(Topology.SEPARATE, 0.05 * np.pi, 2.0) < 0.05
        assert self._fit_error(Topology.BRAIDED, 0.1 * np.pi, 2.0) < 0.05

    @pytest.mark.parametrize("kind", list(Topology))
    def test_quality_deep_regime_full_window(self, kind):
        # the frozen-background error crosses 0.05 around ratio ~ 50-60;
        # a factor-100 hierarchy keeps the full window inside the bound
        checked = 0
        for phi in np.linspace(0.01, np.pi - 0.01, 120):
            pair = lorentz_decompose(kind, float(phi))
            if min(pair.gamma_plus, pair.gamma_minus) <= 1e-12:
                continue
            ratio = max(pair.gamma_plus, pair.gamma_minus) / min(pair.gamma_plus, pair.gamma_minus)
            if ratio < 100:
                continue
            assert self._fit_error(kind, float(phi), 3.0) < 0.05
            checked += 1
        assert checked > 0

    def test_nested_symmetric_point(self):
        # around phi ~ 0.71 pi the asymmetry vanishes and the dip centre
        # sits near 0.59 gamma
        fit = fano_fit(lorentz_decompose(Topology.NESTED, 0.7095 * np.pi))
        assert abs(fit.q) < 5e-3
        assert fit.center == pytest.approx(0.59, abs=0.01)


def scalar_regime(pair: LorentzPair, scale: float) -> str:
    """The width-ratio rule, pair by pair: the reference of the stacked
    labels of ``fano._fano_arrays``."""
    g_p, g_m = pair.gamma_plus, pair.gamma_minus
    tiny = DECOUPLE_TOL * scale
    if g_p > tiny and g_m > tiny:
        if g_p / g_m > fano.WIDTH_RATIO_THRESHOLD:
            return "plus_dominant"
        if g_m / g_p > fano.WIDTH_RATIO_THRESHOLD:
            return "minus_dominant"
    return "none"


def scalar_fit(pair: LorentzPair) -> tuple[float, float, float, float]:
    """q, f_scale, center and width of the Fano fit in scalar complex
    arithmetic, pair by pair: the reference of ``fano._fit_arrays``."""
    if pair.gamma_plus >= pair.gamma_minus:
        d_broad, g_broad = pair.delta_plus, pair.gamma_plus
        d_narrow, g_narrow = pair.delta_minus, pair.gamma_minus
        sign = +1.0
    else:
        d_broad, g_broad = pair.delta_minus, pair.gamma_minus
        d_narrow, g_narrow = pair.delta_plus, pair.gamma_plus
        sign = -1.0
    two_theta = cmath.phase(pair.chi_plus / pair.chi_minus)
    q = math.cos(two_theta) * (d_narrow - d_broad) / g_broad + sign * math.sin(two_theta)
    f_scale = abs(pair.chi_plus) ** 2 / (((d_broad - d_narrow) / g_broad) ** 2 + 1.0)
    return q, f_scale, d_narrow, g_narrow


class TestStackedFit:
    @pytest.mark.parametrize("topology", [t.value for t in Topology])
    @pytest.mark.parametrize("gamma, delta_ab", [(1.0, 0.0), (1.0, 1.0), (1.0, 0.3),
                                                 (1e-6, 1e-6), (3.7, 1.11)])
    def test_matches_the_per_pair_formula(self, topology, gamma, delta_ab):
        # the benchmark's 301-spacing phi grid, detuned and scaled
        raw = {"symmetric": {"topology": topology, "phi": 1.0, "gamma": gamma}, "delta_ab": delta_ab}
        geoms = cli._phi_geometries(raw, np.linspace(0.05, 3.09, 301).tolist())
        fields = _lorentz_arrays(geoms)
        scales = rate_scale(geoms.rates)
        regimes, *fit = fano._fano_arrays(fields, scales)
        pairs = [LorentzPair(*values) for values in zip(*(f.tolist() for f in fields))]
        expected = [scalar_regime(pair, scale) for pair, scale in zip(pairs, scales.tolist())]
        assert regimes.tolist() == expected
        assert 0 < expected.count("none") < len(expected)
        reference = np.full((4, len(pairs)), np.nan)
        for k, pair in enumerate(pairs):
            if expected[k] != "none":
                reference[:, k] = scalar_fit(pair)
        for column, ref in zip(fit, reference):
            assert np.array_equal(np.isnan(column), np.isnan(ref))
        # center and width are the narrow channel's fields, bit for bit
        assert np.array_equal(fit[2:], reference[2:], equal_nan=True)
        for column, ref in zip(fit[:2], reference[:2]):
            assert np.nanmax(np.abs(column - ref)) <= 1e-15 * np.nanmax(np.abs(ref))

    def test_fano_fit_is_the_one_pair_case(self):
        for kind, phi in ((Topology.SEPARATE, 0.05), (Topology.SEPARATE, 0.45), (Topology.NESTED, 0.1)):
            pair = lorentz_decompose(kind, phi * np.pi)
            fit = fano_fit(pair)
            assert (fit.center, fit.width) == scalar_fit(pair)[2:]
            assert fit.q == pytest.approx(scalar_fit(pair)[0], abs=1e-15)


class TestRabi:
    def test_zero_deviation_no_reflection(self):
        for delta in (-2.0, 0.0, 1.5):
            assert rabi_approximation(0.0, delta).r == 0.0j

    def test_large_deviation_rejected(self):
        with pytest.raises(FanoRegimeError):
            rabi_approximation(0.12, 0.0)

    def test_peak_separation(self):
        dev = -0.03 * np.pi
        delta = np.linspace(-2.5, 2.5, 500001)
        big_r = np.array([rabi_approximation(dev, float(d)).R for d in delta[::1000]])
        # analytic peak positions of the approximate form
        peaks = (-2 * dev - 1.0, -2 * dev + 1.0)
        assert peaks[1] - peaks[0] == pytest.approx(2.0)
        for pk in peaks:
            assert rabi_approximation(dev, pk).R == pytest.approx(1.0, abs=1e-3)
        assert np.max(big_r) <= 1.0 + 1e-6

    def test_peak_heights_and_positions_vs_exact(self):
        dev = 0.02
        phi = np.pi / 2 + dev
        cfg = symmetric_config(Topology.BRAIDED, phi)
        fwhm = 4 * dev**2
        for centre in (-2 * dev - 1.0, -2 * dev + 1.0):
            window = np.linspace(centre - 5 * fwhm, centre + 5 * fwhm, 4001)
            exact = np.array([amplitudes_topology(cfg, float(d), phi).R for d in window])
            approx = np.array([rabi_approximation(dev, float(d)).R for d in window])
            # peak heights agree within 0.02 and positions within one width
            assert abs(exact.max() - approx.max()) < 0.02
            assert abs(window[exact.argmax()] - window[approx.argmax()]) < fwhm
