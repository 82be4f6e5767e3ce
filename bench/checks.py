"""Checks of CLI outputs against the benchmark's own reference and physics.

Every check takes the operation, the bytes it wrote and a :class:`Context`
holding the outputs of earlier operations of the same round, and raises
:class:`CheckError` on the first violation.  No check compares against a
stored copy of an earlier output.

Amplitudes t and r, T, R and F / |alpha|^2 are dimensionless; every
rate-valued column (detunings, widths, Lamb shifts, couplings) is compared
with a tolerance scaled by the configuration's largest bare rate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from workloads import Op

#: |T + R - 1| and |amplitude - reference|; the package's own oracle tolerance
AMP_TOL = 1e-10
#: rate-valued columns, in units of the config's largest bare rate
RATE_TOL = 1e-12
#: F / |alpha|^2 against 1 - T - R (acceptance criterion 9)
CONSERVATION_TOL = 1e-8
#: T and R of a weak drive against the one-photon values, per unit |alpha|^2
#: (acceptance criterion 8 allows 1e-3 at |alpha|^2 = 1e-4)
WEAK_DRIVE_TOL = 10.0
#: reflectance at a reported peak (R = 1) and minimum (R = 0)
LOCI_TOL = 1e-9
#: Lorentz-pair reconstruction of r
FANO_TOL = 1e-9
#: rows sampled per output for the 50-digit reference
SAMPLES = 6

SPECTRUM_HEADER = ["re_t", "im_t", "re_r", "im_r", "T", "R"]


class CheckError(Exception):
    """An output violates a check."""


@dataclass
class Context:
    rng: np.random.Generator
    outputs: dict[str, bytes] = field(default_factory=dict)


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def parse_csv(data: bytes) -> tuple[list[str], list[list[str]]]:
    lines = data.decode().splitlines()
    _require(lines, "empty output")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def numeric(data: bytes, header: list[str]) -> np.ndarray:
    got, rows = parse_csv(data)
    _require(got == header, f"header {got} != {header}")
    _require(rows and all(len(r) == len(header) for r in rows), "ragged or empty rows")
    return np.array(rows, dtype=float)


def atoms_of(config: dict, phi: float | None = None):
    if "symmetric" in config:
        sym = config["symmetric"]
        return ref.symmetric_atoms(sym["topology"], sym["phi"] if phi is None else phi,
                                   sym.get("gamma", 1.0))
    return [[(p["phase"], p["rate"]) for p in atom["points"]] for atom in config["atoms"]]


def rate_scale(config: dict) -> float:
    return max(rate for atom in atoms_of(config) for _, rate in atom)


def grid(sweep: str) -> np.ndarray:
    _, start, stop, points = sweep.split(":")
    return np.linspace(float(start), float(stop), int(points))


def _sample(ctx: Context, n: int, extra=()) -> list[int]:
    picks = set(int(i) for i in ctx.rng.choice(n, size=min(SAMPLES, n), replace=False))
    return sorted(picks | {int(i) for i in extra})


def _check_grid(column: np.ndarray, sweep: str, scale: float = 1.0) -> None:
    want = grid(sweep)
    _require(column.shape == want.shape, f"{column.size} rows, expected {want.size}")
    span = max(abs(want[0]), abs(want[-1]), scale)
    _require(np.max(np.abs(column - want)) <= 1e-12 * span, "sweep column is not the requested grid")


def _check_amplitude_rows(table: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Unitarity and T = |t|^2, R = |r|^2 on every row; returns (t, r)."""
    t = table[:, 1] + 1j * table[:, 2]
    r = table[:, 3] + 1j * table[:, 4]
    big_t, big_r = table[:, 5], table[:, 6]
    _require(np.all(np.isfinite(table[:, 1:])), f"{what}: non-finite amplitudes")
    _require(np.max(np.abs(big_t - np.abs(t) ** 2)) <= 1e-14, f"{what}: T != |t|^2")
    _require(np.max(np.abs(big_r - np.abs(r) ** 2)) <= 1e-14, f"{what}: R != |r|^2")
    off = np.abs(big_t + big_r - 1.0)
    worst = int(np.argmax(off))
    _require(off[worst] <= AMP_TOL,
             f"{what}: |T+R-1| = {off[worst]:.2e} at row {worst} exceeds {AMP_TOL:g}")
    return t, r


def _against_reference(atoms, delta_ab, delta, t, r, what: str) -> None:
    t_ref, r_ref = (ref.to_complex(z) for z in ref.amplitudes(atoms, delta_ab, delta))
    dev = max(abs(t - t_ref), abs(r - r_ref))
    _require(dev <= AMP_TOL,
             f"{what}: |amplitude - 50-digit reference| = {dev:.2e} at {float(delta)!r} exceeds {AMP_TOL:g}")


def check_spectrum(op: Op, data: bytes, ctx: Context) -> None:
    """``spectrum`` / ``eit-spectrum``: every row unitary, sampled rows exact."""
    variable = op.sweep.split(":")[0]
    table = numeric(data, [variable] + SPECTRUM_HEADER)
    _check_grid(table[:, 0], op.sweep)
    t, r = _check_amplitude_rows(table, op.name)
    delta_ab = op.config.get("delta_ab", 0.0)
    # sampled rows plus the strongest reflection and the deepest transmission dip
    for i in _sample(ctx, len(table), (np.argmax(table[:, 6]), np.argmin(table[:, 5]))):
        if variable == "phi":
            atoms = atoms_of(op.config, phi=table[i, 0])
            delta = op.config["drive"]["detuning"]
        else:
            atoms, delta = atoms_of(op.config), table[i, 0]
        _against_reference(atoms, delta_ab, delta, t[i], r[i], f"{op.name} row {i}")


CHARACTERISTICS = ["lamb_a", "lamb_b", "gamma_a", "gamma_b", "g_ab", "gamma_ab", "alpha_a", "alpha_b"]


def check_characteristics(op: Op, data: bytes, ctx: Context) -> None:
    """Every row against the waveguide self-energy computed from raw phases."""
    phi_sweep = op.sweep is not None
    table = numeric(data, (["phi"] if phi_sweep else []) + CHARACTERISTICS)
    if phi_sweep:
        _check_grid(table[:, 0], op.sweep)
    tol = RATE_TOL * rate_scale(op.config)
    for row in table:
        atoms = atoms_of(op.config, phi=row[0] if phi_sweep else None)
        want = ref.characteristics(atoms)
        got = row[1:] if phi_sweep else row
        dev = np.abs(np.array(got[:6]) - np.array(want[:6]))
        _require(np.max(dev) <= tol, f"{op.name}: characteristics off by {np.max(dev):.2e}")
        # alpha_j is 2 arg(w_j): compare the unit phasors exp(i alpha_j / 2)
        for k in (6, 7):
            if want[k - 4] > tol:  # the phase of a vanishing w_j is arbitrary
                gap = abs(np.exp(0.5j * got[k]) - np.exp(0.5j * want[k]))
                _require(gap <= 1e-12, f"{op.name}: {CHARACTERISTICS[k]} off by {gap:.2e}")


def check_loci(op: Op, data: bytes, ctx: Context) -> None:
    """R = 1 at every reported peak and R = 0 at the minimum, by the reference."""
    table = numeric(data, ["phi", "peak_1", "peak_2", "minimum"])
    _check_grid(table[:, 0], op.sweep)
    topology = op.config["symmetric"]["topology"]
    n_peaks = 1 if topology == "separate" else 2
    _require(np.all(np.isfinite(table[:, 1:1 + n_peaks])), f"{op.name}: missing peaks")
    _require(np.all(np.isnan(table[:, 1 + n_peaks:3])), f"{op.name}: spurious second peak")
    for i in _sample(ctx, len(table)):
        atoms = atoms_of(op.config, phi=table[i, 0])
        for peak in table[i, 1:1 + n_peaks]:
            _, r = ref.amplitudes(atoms, 0.0, peak)
            big_r = float(abs(r) ** 2)
            _require(abs(big_r - 1.0) <= LOCI_TOL,
                     f"{op.name}: R = {big_r:.12f} at the peak {float(peak)!r} (phi = {float(table[i, 0])!r})")
        if math.isfinite(table[i, 3]):
            _, r = ref.amplitudes(atoms, 0.0, table[i, 3])
            big_r = float(abs(r) ** 2)
            _require(big_r <= LOCI_TOL,
                     f"{op.name}: R = {big_r:.2e} at the minimum {float(table[i, 3])!r} (phi = {float(table[i, 0])!r})")


FANO_HEADER = [
    "phi", "delta_plus", "delta_minus", "gamma_plus", "gamma_minus",
    "re_chi_plus", "im_chi_plus", "re_chi_minus", "im_chi_minus",
    "regime", "q", "f_scale", "center", "width",
]

#: probe detunings (units of gamma) of the Lorentz-pair reconstruction check
FANO_PROBES = (-2.7, -0.9, 0.35, 1.6)


def check_fano(op: Op, data: bytes, ctx: Context) -> None:
    """Regime rule on every row; sampled rows rebuild r from the two channels."""
    header, rows = parse_csv(data)
    _require(header == FANO_HEADER, f"header {header} != {FANO_HEADER}")
    _require(rows and all(len(r) == len(FANO_HEADER) for r in rows), "ragged or empty rows")
    regimes = [r[9] for r in rows]
    table = np.array([[float(v) for k, v in enumerate(r) if k != 9] for r in rows])
    phi, d_p, d_m, g_p, g_m = (table[:, k] for k in range(5))
    chi_p, chi_m = table[:, 5] + 1j * table[:, 6], table[:, 7] + 1j * table[:, 8]
    q, f_scale, center, width = (table[:, k] for k in range(9, 13))
    _check_grid(phi, op.sweep)
    gamma = rate_scale(op.config)
    for i, regime in enumerate(regimes):
        tiny = 1e-12 * gamma
        want = "none"
        if g_p[i] > tiny and g_m[i] > tiny:
            if g_p[i] / g_m[i] > 10.0:
                want = "plus_dominant"
            elif g_m[i] / g_p[i] > 10.0:
                want = "minus_dominant"
        _require(regime == want, f"{op.name}: regime {regime} != {want} at phi = {float(phi[i])!r}")
        if want == "none":
            _require(all(math.isnan(v) for v in (q[i], f_scale[i], center[i], width[i])),
                     f"{op.name}: Fano fit reported outside the Fano regime")
        else:
            narrow = (d_m[i], g_m[i]) if want == "plus_dominant" else (d_p[i], g_p[i])
            _require((center[i], width[i]) == narrow, f"{op.name}: Fano centre/width is not the narrow channel")
            _require(math.isfinite(q[i]) and f_scale[i] >= 0.0, f"{op.name}: bad Fano q or scale")
    for i in _sample(ctx, len(table)):
        atoms = atoms_of(op.config, phi=phi[i])
        for probe in FANO_PROBES:
            delta = probe * gamma
            rebuilt = 0j
            for chi, width_k, centre in ((chi_p[i], g_p[i], d_p[i]), (chi_m[i], g_m[i], d_m[i])):
                if chi * width_k != 0.0:
                    rebuilt += chi * width_k / (1j * (delta - centre) - width_k)
            r_ref = ref.to_complex(ref.amplitudes(atoms, 0.0, delta)[1])
            _require(abs(rebuilt - r_ref) <= FANO_TOL,
                     f"{op.name}: Lorentz pair misses r by {abs(rebuilt - r_ref):.2e} "
                     f"at phi = {float(phi[i])!r}, delta = {delta}")


def check_eit_classify(op: Op, data: bytes, ctx: Context) -> None:
    """The verdict follows the paper's EIT interval; r vanishes at transparency."""
    verdict = json.loads(data)
    is_eit = verdict["regime"] == "EIT"
    _require(is_eit == op.eit_expected,
             f"{op.name}: regime {verdict['regime']} but the paper says "
             f"{'EIT' if op.eit_expected else 'not EIT'}")
    _require(verdict["scheme"] == "CollectiveSA", f"{op.name}: scheme {verdict['scheme']}")
    where = verdict["transparency_delta_a"]
    if where is not None:
        _, r = ref.amplitudes(atoms_of(op.config), op.config.get("delta_ab", 0.0), where)
        _require(abs(r) <= AMP_TOL, f"{op.name}: |r| = {float(abs(r)):.2e} at the transparency point")


def check_master(op: Op, data: bytes, ctx: Context) -> None:
    """Photon-number conservation on every row; weak drive meets one photon."""
    table = numeric(data, ["delta_a", "T", "R", "F", "residual"])
    scale = rate_scale(op.config)
    _check_grid(table[:, 0], op.sweep, scale)
    alpha_sq = op.config["drive"]["alpha_sq"]
    delta, big_t, big_r, flux, residual = table.T
    _require(np.all(np.isfinite(table)), f"{op.name}: non-finite values")
    _require(np.all((big_t >= -AMP_TOL) & (big_t <= 1 + AMP_TOL) & (big_r >= -AMP_TOL) & (big_r <= 1 + AMP_TOL)),
             f"{op.name}: T or R outside [0, 1]")
    _require(np.all(flux >= -AMP_TOL * alpha_sq), f"{op.name}: negative inelastic flux")
    gap = np.abs(flux / alpha_sq - (1.0 - big_t - big_r))
    worst = int(np.argmax(gap))
    _require(gap[worst] <= CONSERVATION_TOL,
             f"{op.name}: |F/|a|^2 - (1-T-R)| = {gap[worst]:.2e} at delta_a = {float(delta[worst])!r}")
    _require(np.max(np.abs(residual - gap)) <= 1e-12, f"{op.name}: residual column disagrees with F, T, R")
    if op.weak:
        atoms = atoms_of(op.config)
        tol = WEAK_DRIVE_TOL * alpha_sq
        for i in _sample(ctx, len(table)):
            t_ref, r_ref = ref.amplitudes(atoms, op.config.get("delta_ab", 0.0), delta[i])
            dev = max(abs(big_t[i] - float(abs(t_ref) ** 2)), abs(big_r[i] - float(abs(r_ref) ** 2)))
            _require(dev <= tol, f"{op.name}: weak-drive T/R off the one-photon values by {dev:.2e}")
    if op.scaled is not None:
        base = numeric(ctx.outputs[op.twin], ["delta_a", "T", "R", "F", "residual"])
        _require(base.shape == table.shape, f"{op.name}: {len(table)} rows, unscaled has {len(base)}")
        dev = np.max(np.abs(table[:, 1:3] - base[:, 1:3]))
        _require(dev <= CONSERVATION_TOL, f"{op.name}: T, R differ from the unscaled rows by {dev:.2e}")


def check_inelastic(op: Op, data: bytes, ctx: Context) -> None:
    """Spectra non-negative; their integral is F within the grid's truncation error."""
    table = numeric(data, ["nu", "s_transmit", "s_reflect", "s_total"])
    _check_grid(table[:, 0], op.sweep)
    nu, s_t, s_r, s_total = table.T
    peak = float(np.max(s_total))
    _require(np.all(np.isfinite(table)) and peak > 0.0, f"{op.name}: empty or non-finite spectrum")
    _require(np.min(table[:, 1:]) >= -1e-12 * peak, f"{op.name}: negative spectral density")
    _require(np.max(np.abs(s_total - s_t - s_r)) <= 1e-15 * peak + 1e-300, f"{op.name}: s_total != s_t + s_r")
    master = numeric(ctx.outputs[op.flux_from], ["delta_a", "T", "R", "F", "residual"])
    row = int(np.argmin(np.abs(master[:, 0] - op.config["drive"]["detuning"])))
    _require(abs(master[row, 0] - op.config["drive"]["detuning"]) <= 1e-9,
             f"{op.name}: drive detuning is not on the master-sweep grid")
    flux = master[row, 3]
    total = np.trapezoid(s_total, nu)
    # tails fall at least as fast as 1/nu^2, so S(edge) * |edge| bounds the
    # missing mass; Richardson on the half grid bounds the discretisation error
    tails = s_total[0] * abs(nu[0]) + s_total[-1] * abs(nu[-1])
    coarse = np.trapezoid(s_total[::2], nu[::2]) if len(nu) % 2 else total
    allowed = tails + abs(total - coarse) + 1e-12 * flux
    _require(abs(total - flux) <= allowed,
             f"{op.name}: integral {float(total)!r} vs F = {float(flux)!r} (allowed {allowed:.2e})")


def check_oracle(op: Op, data: bytes, ctx: Context) -> None:
    """Every config's closed form within the tolerance of the real-space solve."""
    report = json.loads(data)
    rows = report["rows"]
    _require(len(rows) == int(op.sweep.split(":")[3]), f"{op.name}: {len(rows)} rows")
    worst = max(max(r["dev_t"], r["dev_r"]) for r in rows)
    _require(worst == report["max_deviation"], f"{op.name}: max_deviation is not the rows' maximum")
    _require(worst < AMP_TOL, f"{op.name}: deviation {worst:.2e}")
    _require({r["topology"] for r in rows} <= {"separate", "braided", "nested"}, f"{op.name}: bad topology")
    _require(all(-6.0 <= r["delta_a"] <= 6.0 for r in rows), f"{op.name}: detuning outside [-6, 6]")


CHECKS = {
    "spectrum": check_spectrum,
    "eit-spectrum": check_spectrum,
    "characteristics": check_characteristics,
    "loci": check_loci,
    "fano": check_fano,
    "eit-classify": check_eit_classify,
    "master-sweep": check_master,
    "inelastic-spectrum": check_inelastic,
    "oracle-check": check_oracle,
}


def check(op: Op, data: bytes, ctx: Context) -> None:
    """Run the operation's checks; a ``--jobs 2`` rerun must match its twin byte for byte."""
    if op.twin is not None and op.scaled is None:
        _require(data == ctx.outputs.get(op.twin), f"{op.name}: output differs from {op.twin}")
        return
    try:
        CHECKS[op.command](op, data, ctx)
    except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        raise CheckError(f"{op.name}: malformed output ({exc!r})") from exc
