"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import time

import numpy as np

from gawqed import (
    CouplingPoint,
    DarkState,
    DriveSpec,
    GiantAtom,
    Regime,
    SystemConfig,
    Topology,
    amplitudes_general,
    characteristics,
    classify_eit,
    collective_eit_amplitudes,
    lorentz_decompose,
    peak_minimum_loci,
    sa_basis,
    scattering_from_master,
    solve_real_space,
    symmetric_config,
)

from conftest import random_system
from paper_forms import (
    _topology_amplitude_arrays,
    lambda_reference,
    maximum_symmetric_quantities,
    rabi_approximation,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def braided_single_atom_config():
    atom_a = GiantAtom("a", (CouplingPoint(0.0, 1.0), CouplingPoint(np.pi, 1.0)))
    atom_b = GiantAtom("b", (CouplingPoint(0.25 * np.pi, 1.0), CouplingPoint(2.25 * np.pi, 1.0)))
    return SystemConfig(atom_a, atom_b, delta_ab=np.sin(2 * np.pi))


def nested_single_atom_config(offset=0.0):
    atom_a = GiantAtom("a", (CouplingPoint(0.0, 1.0), CouplingPoint(np.pi, 1.0)))
    atom_b = GiantAtom("b", (CouplingPoint(0.25 * np.pi, 10.0), CouplingPoint(0.75 * np.pi, 10.0)))
    return SystemConfig(atom_a, atom_b, delta_ab=10.0 * np.sin(0.5 * np.pi) + offset)


def test_criterion_01_unitarity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        cfg = random_system(rng)
        pt = amplitudes_general(cfg, float(rng.uniform(-6.0, 6.0)))
        worst = max(worst, abs(pt.T + pt.R - 1.0))
    elapsed = time.perf_counter() - start
    report(
        1, "unitarity",
        worst < 1e-10 and elapsed < 5.0,
        f"max |T+R-1| = {worst:.3e} over 10^4 configs in {elapsed:.2f} s",
    )


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1_000):
        cfg = random_system(rng)
        delta = float(rng.uniform(-6.0, 6.0))
        gen = amplitudes_general(cfg, delta)
        orc = solve_real_space(cfg, delta)
        worst = max(worst, abs(gen.t - orc.t), abs(gen.r - orc.r))
    elapsed = time.perf_counter() - start
    report(
        2, "oracle equivalence",
        worst < 1e-10 and elapsed < 10.0,
        f"max |closed-form - real-space| = {worst:.3e} over 10^3 configs in {elapsed:.2f} s",
    )


def test_criterion_03_loci():
    step = 1e-4
    tol = 2e-4
    worst_offset = 0.0
    worst_peak_deficit = 0.0
    counted = {}
    for kind in Topology:
        # sample phi away from the loci's own exclusions: spectrum degenerates
        # at phi = n pi, the separate/braided minima diverge at cos 2 phi = 0 /
        # cos phi = 0, and twin peaks must stay out of each other's window
        candidates = np.linspace(0.02 * np.pi, 1.98 * np.pi, 1200)
        kept = []
        for phi in candidates:
            if abs(np.sin(phi)) < 0.15:
                continue
            loci = peak_minimum_loci(kind, float(phi))
            if kind is Topology.SEPARATE and (
                abs(np.cos(2 * phi)) < 0.2 or loci.minimum is None or abs(loci.minimum) > 5.0
            ):
                continue
            if kind is Topology.BRAIDED and (
                abs(np.cos(phi)) < 0.2 or loci.minimum is None or abs(loci.minimum) > 5.0
            ):
                continue
            if len(loci.peaks) == 2 and abs(loci.peaks[1] - loci.peaks[0]) < 0.3:
                continue
            kept.append((float(phi), loci))
            if len(kept) == 200:
                break
        assert len(kept) == 200, f"{kind}: only {len(kept)} usable phi values"
        counted[kind] = len(kept)
        for phi, loci in kept:
            # R maxima are located as T minima: by unitarity the extremum is
            # identical, and |t|^2 near zero keeps full precision while
            # 1 - |r|^2 is flat to machine epsilon around quartic peaks
            targets = [(p, True) for p in loci.peaks]
            if loci.minimum is not None:
                targets.append((loci.minimum, False))
            for locus, is_peak in targets:
                window = locus + np.arange(-0.14, 0.14 + step / 2, step)
                t, r = _topology_amplitude_arrays(kind, phi, window)
                profile = np.abs(t) ** 2 if is_peak else np.abs(r) ** 2
                found = window[np.argmin(profile)]
                worst_offset = max(worst_offset, abs(found - locus))
            if kind is Topology.SEPARATE:
                peak_r = np.abs(
                    complex(_topology_amplitude_arrays(kind, phi, np.asarray(loci.peaks[0]))[1])
                ) ** 2
                worst_peak_deficit = max(worst_peak_deficit, abs(1.0 - peak_r))
    report(
        3, "peak/minimum loci",
        worst_offset <= tol and worst_peak_deficit < 1e-8,
        f"max |grid extremum - locus| = {worst_offset:.2e} over 200 phi/topology "
        f"(step {step:g}); separate peak 1-R = {worst_peak_deficit:.1e}",
    )


def test_criterion_04_fano_decomposition():
    delta = np.linspace(-6.0, 6.0, 241)
    worst = 0.0
    for kind in Topology:
        for phi in np.linspace(0.01 * np.pi, 1.99 * np.pi, 150):
            pair = lorentz_decompose(kind, float(phi))
            _, r = _topology_amplitude_arrays(kind, float(phi), delta)
            worst = max(worst, float(np.max(np.abs(pair.reconstruct(delta) - r))))
    report(
        4, "Fano decomposition identity",
        worst < 1e-10,
        f"max |r_plus + r_minus - r| = {worst:.3e} on dense grids, all topologies",
    )


def test_criterion_05_decoherence_free_probe():
    dev = -0.03 * np.pi
    phi = np.pi / 2 + dev
    width_ref = 4.0 * dev**2
    g_ab = characteristics(symmetric_config(Topology.BRAIDED, phi)).g_ab

    def peak_measurements(curve_r, window):
        big_r = curve_r(window)
        idx = int(np.argmax(big_r))
        pos, height = float(window[idx]), float(big_r[idx])
        half = height / 2.0
        left = idx
        while left > 0 and big_r[left] > half:
            left -= 1
        right = idx
        while right < len(window) - 1 and big_r[right] > half:
            right += 1
        return pos, height, float(window[right] - window[left])

    def exact_r(window):
        _, r = _topology_amplitude_arrays(Topology.BRAIDED, phi, window)
        return np.abs(r) ** 2

    def rabi_r(window):
        return np.array([rabi_approximation(dev, float(d)).R for d in window])

    results = {}
    for curve_name, curve in (("exact", exact_r), ("rabi", rabi_r)):
        peaks = []
        for centre in (-2 * dev - 1.0, -2 * dev + 1.0):
            window = np.arange(centre - 0.08, centre + 0.08, 1e-5)
            peaks.append(peak_measurements(curve, window))
        results[curve_name] = peaks

    rabi_sep = results["rabi"][1][0] - results["rabi"][0][0]
    exact_sep = results["exact"][1][0] - results["exact"][0][0]
    widths = [w for (_, _, w) in results["exact"]]
    ok = (
        abs(rabi_sep - 2.0) <= 0.01 * 2.0
        and abs(exact_sep - 2.0 * g_ab) <= 0.01 * 2.0 * g_ab
        and all(abs(w - width_ref) <= 0.10 * width_ref for w in widths)
    )
    report(
        5, "decoherence-free probe",
        ok,
        f"probe-spectrum separation {rabi_sep:.5f} (2 gamma +- 1%), exact separation "
        f"{exact_sep:.5f} vs 2 g_ab = {2 * g_ab:.5f} (+- 1%), exact peak widths "
        f"{widths[0]:.5f}/{widths[1]:.5f} vs 4 gamma dev^2 = {width_ref:.5f} (+- 10%)",
    )


def test_criterion_06_eit_classification_table():
    cases = [
        (Topology.SEPARATE, np.pi / 2, lambda d: 0.0 < abs(d) < 2.0),
        (Topology.BRAIDED, np.pi, lambda d: 0.0 < abs(d) < 4.0),
        (Topology.SEPARATE, 2 * np.pi, lambda d: 0.0 < abs(d) < 4.0),
        (Topology.BRAIDED, 2 * np.pi, lambda d: 0.0 < abs(d) < 4.0),
        (Topology.NESTED, 2 * np.pi, lambda d: 0.0 < abs(d) < 4.0),
        (Topology.NESTED, np.pi / 2, lambda d: -4.0 < d < 0.0 and d != -2.0),
    ]
    checked = 0
    for kind, phi, expected in cases:
        for k in range(-50, 51):
            delta_ab = k / 10.0
            want = expected(delta_ab)
            # root-criterion discriminant from the published closed forms
            q = maximum_symmetric_quantities(kind, phi, delta_ab)
            bright = q.gamma_a_mode if q.gamma_s < 1e-9 else q.gamma_s
            disc = 16.0 * q.g_sa**2 - bright**2
            from_disc = disc < -1e-9 and abs(q.g_sa) > 1e-9
            verdict = classify_eit(symmetric_config(kind, phi, delta_ab=delta_ab))
            from_classifier = verdict.regime is Regime.EIT
            assert from_disc == want, (kind, phi, delta_ab, disc)
            assert from_classifier == want, (kind, phi, delta_ab, verdict.regime)
            checked += 1
    report(6, "EIT classification table", True, f"{checked} (topology, phi, delta_ab) verdicts match the stated intervals")


def test_criterion_07_transparency_exactness():
    worst = 0.0
    cases = []
    # collective working points: (topology, phi, delta_ab, n parity sign)
    for kind, phi, delta_ab, sign in [
        (Topology.SEPARATE, np.pi / 2, 1.0, +1),
        (Topology.SEPARATE, 1.5 * np.pi, 1.0, -1),
        (Topology.SEPARATE, 2 * np.pi, 1.0, 0),
        (Topology.BRAIDED, np.pi, 1.0, 0),
        (Topology.BRAIDED, 2 * np.pi, 1.0, 0),
        (Topology.NESTED, np.pi / 2, -1.0, +1),
        (Topology.NESTED, 1.5 * np.pi, 1.0, -1),
        (Topology.NESTED, 2 * np.pi, 1.0, 0),
    ]:
        cfg = symmetric_config(kind, phi, delta_ab=delta_ab)
        transparency = sign * 1.0 - delta_ab / 2.0
        cases.append((cfg, transparency))
    # single-atom working points at delta_a = Lamb shift of the dark atom
    for offset in (-2.5, 0.0, 2.5):
        cfg = braided_single_atom_config()
        cfg = SystemConfig(cfg.atom_a, cfg.atom_b, delta_ab=cfg.delta_ab + offset)
        cases.append((cfg, characteristics(cfg).lamb_a))
        cfg = nested_single_atom_config(offset)
        cases.append((cfg, characteristics(cfg).lamb_a))
    for cfg, transparency in cases:
        worst = max(worst, abs(amplitudes_general(cfg, transparency).r))
    report(
        7, "transparency exactness",
        worst < 1e-12,
        f"max |r| at the predicted transparency detunings = {worst:.2e} over {len(cases)} cases",
    )


def test_criterion_08_master_equation_convergence():
    configs = [
        ("separate", symmetric_config(Topology.SEPARATE, np.pi / 4)),
        ("braided", symmetric_config(Topology.BRAIDED, 2.3, gamma=3.0)),
        ("nested", symmetric_config(Topology.NESTED, np.pi / 3)),
    ]
    grid = np.linspace(-6.0, 6.0, 201)
    details = []
    ok = True
    for name, cfg in configs:
        errs = []
        for delta in grid:
            res = scattering_from_master(cfg, DriveSpec(1e-4, float(delta)))
            gen = amplitudes_general(cfg, float(delta))
            errs.append(abs(res.T - gen.T))
        max_err = max(errs)
        d_star = float(grid[int(np.argmax(errs))])
        gen = amplitudes_general(cfg, d_star)
        res3 = scattering_from_master(cfg, DriveSpec(1e-3, d_star))
        res4 = scattering_from_master(cfg, DriveSpec(1e-4, d_star))
        ratio = abs(res3.T - gen.T) / abs(res4.T - gen.T)
        ok = ok and max_err < 1e-3 and 8.0 <= ratio <= 12.0
        details.append(f"{name}: max|dT|={max_err:.2e}, ratio={ratio:.2f}")
    report(8, "master-equation convergence", ok, "; ".join(details))


FIG_PARAMETER_SETS = [
    ("fig 7a separate", lambda: symmetric_config(Topology.SEPARATE, np.pi / 2, delta_ab=1.0), 0.04),
    ("fig 7b braided", lambda: symmetric_config(Topology.BRAIDED, np.pi, delta_ab=1.0), 0.04),
    ("fig 7c nested", lambda: symmetric_config(Topology.NESTED, np.pi / 2, delta_ab=-1.0), 0.01),
    ("fig 8a braided single-atom", braided_single_atom_config, 0.01),
    ("fig 8b nested single-atom", nested_single_atom_config, 0.04),
]


def test_criterion_09_conservation_identity():
    worst = 0.0
    for _, build, alpha_sq in FIG_PARAMETER_SETS:
        cfg = build()
        for delta in np.linspace(-6.0, 6.0, 41):
            res = scattering_from_master(cfg, DriveSpec(alpha_sq, float(delta)))
            worst = max(worst, res.conservation_residual)
    report(
        9, "photon-number conservation",
        worst < 1e-8,
        f"max |F/|a|^2 - (1-T-R)| = {worst:.2e} over the figure parameter sets",
    )


def test_criterion_10_quench_dichotomy():
    details = []
    ok = True
    for name, build, alpha_sq in FIG_PARAMETER_SETS[:3]:
        cfg = build()
        transparency = classify_eit(cfg).transparency_delta_a
        res = scattering_from_master(cfg, DriveSpec(alpha_sq, transparency))
        flux_ratio = res.inelastic_flux / alpha_sq
        ee = res.steady.population("ee")
        ok = ok and flux_ratio < 1e-6 and ee < 1e-10
        details.append(f"{name}: F/|a|^2={flux_ratio:.1e}, ee={ee:.1e}")
    for name, build, alpha_sq in FIG_PARAMETER_SETS[3:]:
        cfg = build()
        transparency = classify_eit(cfg).transparency_delta_a
        res = scattering_from_master(cfg, DriveSpec(alpha_sq, transparency))
        flux_ratio = res.inelastic_flux / alpha_sq
        ee = res.steady.population("ee")
        ok = ok and flux_ratio > 1e-3 and ee > 0.0
        details.append(f"{name}: F/|a|^2={flux_ratio:.1e}, ee={ee:.1e}")
    report(10, "quench dichotomy", ok, "; ".join(details))


def test_criterion_11_lambda_mapping():
    cfg = symmetric_config(Topology.SEPARATE, np.pi / 2, delta_ab=1.0)
    worst = 0.0
    for delta in np.linspace(-6.0, 6.0, 201):
        q = sa_basis(cfg, float(delta))
        mapped = lambda_reference(
            delta_p=q.delta_a_mode,
            delta_c=q.delta_a_mode - q.delta_s,
            omega_c=2.0 * q.g_sa,
            gamma_20=q.gamma_a_mode,
        )
        direct = collective_eit_amplitudes(q, DarkState.S, delta_a=float(delta))
        worst = max(worst, abs(mapped.t - direct.t), abs(mapped.r - direct.r))
    report(
        11, "Lambda-system mapping",
        worst < 1e-12,
        f"max amplitude deviation under the identifications = {worst:.2e} over a full sweep",
    )
