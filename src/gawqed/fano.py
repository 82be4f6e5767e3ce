"""Two-channel Lorentzian decomposition and Fano-lineshape analysis.

The reflection amplitude of the symmetric (equal rates, equal spacing,
degenerate atoms) configuration has exactly two complex poles, so it splits
exactly into two Lorentzian channels r = r_plus + r_minus.  When one channel
is much broader than the other, the narrow channel interferes with the quasi
continuum of the broad one and the reflectance near the narrow resonance is a
standard Fano profile R = F (q + eps)^2 / (1 + eps^2).

This module provides the closed-form channel parameters per topology, the
Fano fit parameters, a regime classifier (operationalising "much broader" as
a width ratio above 10), and the vacuum-Rabi-splitting approximation used to
probe the nearly decoherence-free braided point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import GawqedError, Topology
from .scattering import ScatterPoint, _scatter_point, _topology_amplitude_arrays

#: width ratio above which the broad channel counts as a continuum
WIDTH_RATIO_THRESHOLD = 10.0

#: residual bound asserted for the two-Lorentzian reconstruction identity
DECOMPOSITION_TOL = 1e-10


class FanoRegimeError(GawqedError):
    """Fano-fit preconditions (width hierarchy, nonzero narrow width) fail."""


class DecompositionError(GawqedError):
    """The closed-form channel parameters fail the reconstruction identity."""


@dataclass(frozen=True)
class LorentzPair:
    """The two Lorentzian channels of the reflection amplitude.

    Each channel is chi * Gamma / (i (Delta - Delta_ch) - Gamma); ``gamma_*``
    are the (half) widths Gamma_pm and ``chi_*`` the complex prefactors.
    """

    delta_plus: float
    delta_minus: float
    gamma_plus: float
    gamma_minus: float
    chi_plus: complex
    chi_minus: complex

    def reconstruct(self, delta: np.ndarray) -> np.ndarray:
        """r_plus(delta) + r_minus(delta) on an array of detunings.

        A channel with vanishing weight chi * Gamma is identically zero and is
        evaluated as such (its Lorentzian form would be 0/0 on resonance).
        """
        d = np.asarray(delta, dtype=float)
        total = np.zeros(d.shape, dtype=complex)
        for chi, width, centre in (
            (self.chi_plus, self.gamma_plus, self.delta_plus),
            (self.chi_minus, self.gamma_minus, self.delta_minus),
        ):
            if chi * width == 0.0:
                continue
            total = total + chi * width / (1j * (d - centre) - width)
        return total


@dataclass(frozen=True)
class FanoFit:
    """Parameters of the standard Fano profile R = f_scale (q + eps)^2 / (1 + eps^2).

    ``center`` and ``width`` belong to the narrow channel; eps is
    (delta - center) / width.
    """

    q: float
    f_scale: float
    center: float
    width: float

    def evaluate(self, eps: np.ndarray) -> np.ndarray:
        e = np.asarray(eps, dtype=float)
        return self.f_scale * (self.q + e) ** 2 / (1.0 + e**2)


def _nested_pair(phi: float, gamma: float) -> LorentzPair:
    """Closed-form nested-topology channels, including the auxiliary coefficients.

    tan(2 zeta) fixes zeta only up to a quarter turn and the prefactor angle
    only up to a half turn; the principal branch of zeta together with the
    angle branch selected by :func:`lorentz_decompose`'s residual check makes
    the reconstruction exact.
    """
    s1, c1 = math.sin(phi), math.cos(phi)
    c2, c3 = math.cos(2 * phi), math.cos(3 * phi)
    big_a = math.sqrt((1 - 3 * c1) ** 2 + 4 * s1**2)
    zeta = 0.5 * math.atan2(2 * s1, 1 - 3 * c1)
    half_cos = abs(math.cos(phi / 2))
    root = math.sqrt(2 * big_a) * half_cos

    centre_d = 0.5 * (s1 + math.sin(3 * phi))
    centre_g = 1 + 0.5 * c1 + 0.5 * c3
    d_plus = gamma * (centre_d - root * math.cos(2 * phi + zeta))
    d_minus = gamma * (centre_d + root * math.cos(2 * phi + zeta))
    g_plus = gamma * (centre_g + root * math.sin(2 * phi + zeta))
    g_minus = gamma * (centre_g - root * math.sin(2 * phi + zeta))

    lam1 = -(1 / (4 * math.sqrt(2 * big_a))) * half_cos * (
        5 * math.sin(3 * phi) - 2 * math.sin(4 * phi) + math.sin(5 * phi)
    )
    lam2 = math.sqrt(2 / big_a) * half_cos**3 * (2 * c1 - c2 - 2) ** 2
    lam3 = math.sqrt(2 / big_a) * half_cos * (2 * c1 - c2 - 2)
    core = (lam1 * (g_plus - g_minus) + lam2 * (d_plus - d_minus)) * gamma
    prod = g_plus * g_minus
    theta = math.atan2(lam3 * prod, core)
    chi = math.sqrt((core / prod) ** 2 + lam3**2) if prod != 0.0 else 0.0

    chi_plus = chi * cmath.exp(1j * (phi - zeta + theta))
    chi_minus = chi * cmath.exp(1j * (phi - zeta - theta))
    return LorentzPair(d_plus, d_minus, g_plus, g_minus, chi_plus, chi_minus)


def _pair_from_residues(phi: float, gamma: float, base: LorentzPair) -> LorentzPair:
    """Nested channel prefactors from the exact reflection-pole residues."""
    e1 = cmath.exp(1j * phi)

    def numerator(z: complex) -> complex:
        return (
            4j
            * e1**3
            * gamma
            * math.cos(phi / 2) ** 2
            * (
                z * (2 - 2 * math.cos(phi) + math.cos(2 * phi))
                - gamma * (math.sin(phi) - math.sin(2 * phi))
            )
        )

    z_plus = complex(base.delta_plus, -base.gamma_plus)
    z_minus = complex(base.delta_minus, -base.gamma_minus)
    chis = []
    for z_here, z_other, width in (
        (z_plus, z_minus, base.gamma_plus),
        (z_minus, z_plus, base.gamma_minus),
    ):
        if width < 1e-12 * gamma or abs(z_here - z_other) < 1e-12 * gamma:
            chis.append(0.0 + 0.0j)
            continue
        residue = numerator(z_here) / (-(z_here - z_other))
        chis.append(1j * residue / width)
    return LorentzPair(
        base.delta_plus, base.delta_minus, base.gamma_plus, base.gamma_minus,
        chis[0], chis[1],
    )


def lorentz_decompose(topology: Topology, phi: float, gamma: float = 1.0) -> LorentzPair:
    """Exact two-Lorentzian channel parameters of r for the symmetric case.

    For separate/braided topologies the prefactors are +-e^{3 i phi}; for the
    nested topology the auxiliary-coefficient construction is used and the
    half-turn branch of the prefactor angle is chosen, per channel pair, as
    the one that drives the reconstruction residual against the exact
    reflection amplitude below ``DECOMPOSITION_TOL`` on a probe grid.
    """
    s1, c1, c2 = math.sin(phi), math.cos(phi), math.cos(2 * phi)
    if topology is Topology.SEPARATE:
        pair = LorentzPair(
            delta_plus=gamma * s1 * (1 + 2 * c1 + 2 * c1 * c1),
            delta_minus=gamma * s1 * (1 - 2 * c1 - 2 * c1 * c1),
            gamma_plus=gamma * (1 + c1) * (1 + c2),
            gamma_minus=gamma * (1 + c1) * (1 - c2),
            chi_plus=cmath.exp(3j * phi),
            chi_minus=-cmath.exp(3j * phi),
        )
        candidates = [pair]
    elif topology is Topology.BRAIDED:
        pair = LorentzPair(
            delta_plus=gamma * (math.sin(2 * phi) + 1.5 * s1 + 0.5 * math.sin(3 * phi)),
            delta_minus=gamma * (math.sin(2 * phi) - 1.5 * s1 - 0.5 * math.sin(3 * phi)),
            gamma_plus=gamma * (1 + c2) * (1 + c1),
            gamma_minus=gamma * (1 + c2) * (1 - c1),
            chi_plus=cmath.exp(3j * phi),
            chi_minus=-cmath.exp(3j * phi),
        )
        candidates = [pair]
    elif topology is Topology.NESTED:
        base = _nested_pair(phi, gamma)
        flipped = LorentzPair(
            base.delta_plus,
            base.delta_minus,
            base.gamma_plus,
            base.gamma_minus,
            -base.chi_plus,
            -base.chi_minus,
        )
        candidates = [base, flipped]
        if min(base.gamma_plus, base.gamma_minus) < 1e-9 * gamma:
            # the printed prefactor formulas are 0/0 when a channel width
            # vanishes; take the limit through the exact pole residues (the
            # zero-width channel never contributes, its prefactor is a
            # convention)
            candidates.append(_pair_from_residues(phi, gamma, base))
    else:  # pragma: no cover - Enum is closed
        raise GawqedError(f"unknown topology {topology!r}")

    if candidates[0].gamma_plus < -1e-12 * gamma or candidates[0].gamma_minus < -1e-12 * gamma:
        raise DecompositionError(
            f"negative channel width at phi={phi}: "
            f"({candidates[0].gamma_plus}, {candidates[0].gamma_minus})"
        )

    probe = np.linspace(-6.0, 6.0, 61) * gamma
    _, r_exact = _topology_amplitude_arrays(topology, phi, probe, gamma)
    best, best_res = None, math.inf
    for cand in candidates:
        with np.errstate(invalid="ignore", divide="ignore"):
            res = float(np.nanmax(np.abs(cand.reconstruct(probe) - r_exact)))
        if res < best_res:
            best, best_res = cand, res
    if best_res > DECOMPOSITION_TOL:
        raise DecompositionError(
            f"reconstruction residual {best_res:.2e} at phi={phi} exceeds "
            f"{DECOMPOSITION_TOL} for every prefactor branch"
        )
    return best


def fano_regime(topology: Topology, phi: float, gamma: float = 1.0) -> str:
    """Which channel dominates at width ratio > 10: 'plus_dominant',
    'minus_dominant', or 'none' (including fully decoupled phases)."""
    return _pair_regime(lorentz_decompose(topology, phi, gamma), gamma)


def _pair_regime(pair: LorentzPair, gamma: float) -> str:
    """The width-ratio rule of :func:`fano_regime` on a decomposed pair."""
    g_p, g_m = pair.gamma_plus, pair.gamma_minus
    tiny = 1e-12 * gamma
    # a numerically zero width means either a decoupled configuration or a
    # perfectly dark narrow mode: no usable Fano lineshape either way
    if g_p > tiny and g_m > tiny:
        if g_p / g_m > WIDTH_RATIO_THRESHOLD:
            return "plus_dominant"
        if g_m / g_p > WIDTH_RATIO_THRESHOLD:
            return "minus_dominant"
    return "none"


def fano_fit(pair: LorentzPair) -> FanoFit:
    """Fano parameters of the reflectance around the narrow channel.

    Requires the broad/narrow width ratio to be at least 10 and a strictly
    positive narrow width.  The prefactor angle difference 2*theta between
    the channels generalises the plain-asymmetry formula; for the
    separate/braided channels (prefactors +-e^{3 i phi}) it reduces to
    q = (Delta_broad - Delta_narrow) / Gamma_broad.
    """
    g_p, g_m = pair.gamma_plus, pair.gamma_minus
    if min(g_p, g_m) <= 0.0:
        raise FanoRegimeError("narrow channel width is zero; Fano fit undefined")
    ratio = max(g_p, g_m) / min(g_p, g_m)
    if ratio < WIDTH_RATIO_THRESHOLD:
        raise FanoRegimeError(
            f"width ratio {ratio:.3f} below {WIDTH_RATIO_THRESHOLD}; "
            "Fano approximation invalid"
        )
    if g_p >= g_m:
        d_broad, g_broad = pair.delta_plus, pair.gamma_plus
        d_narrow, g_narrow = pair.delta_minus, pair.gamma_minus
        sign = +1.0
    else:
        d_broad, g_broad = pair.delta_minus, pair.gamma_minus
        d_narrow, g_narrow = pair.delta_plus, pair.gamma_plus
        sign = -1.0
    two_theta = cmath.phase(pair.chi_plus / pair.chi_minus)
    q = math.cos(two_theta) * (d_narrow - d_broad) / g_broad + sign * math.sin(two_theta)
    chi_sq = abs(pair.chi_plus) ** 2
    f_scale = chi_sq * g_broad**2 / ((d_broad - d_narrow) ** 2 + g_broad**2)
    return FanoFit(q=q, f_scale=f_scale, center=d_narrow, width=g_narrow)


#: validity bound on the phase deviation for the vacuum-Rabi approximation
RABI_MAX_DEVIATION = 0.1


def rabi_approximation(delta_dev: float, delta: float, gamma: float = 1.0) -> ScatterPoint:
    """Vacuum-Rabi-splitting spectrum near the braided decoupling point.

    For a braided configuration at spacing phi = pi/2 + delta_dev with
    |delta_dev| small, the atoms keep an order-gamma exchange coupling while
    their decays scale as delta_dev^2, so the probe sees two narrow peaks at
    delta = -2 gamma delta_dev +- gamma, each of width 4 gamma delta_dev^2.
    """
    if abs(delta_dev) > RABI_MAX_DEVIATION:
        raise FanoRegimeError(
            f"|delta_dev| = {abs(delta_dev)} exceeds {RABI_MAX_DEVIATION}; "
            "vacuum-Rabi approximation invalid"
        )
    g = gamma
    shifted = delta + 2 * g * delta_dev
    den = 1j * shifted * (1j * shifted - 4 * g * delta_dev**2) + g**2
    t = (-(shifted**2) + g**2) / den
    r = 4 * g**2 * delta_dev**2 / den
    return _scatter_point(delta, t, r)
