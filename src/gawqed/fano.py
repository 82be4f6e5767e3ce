"""Two-channel Lorentzian decomposition and Fano-lineshape analysis.

The reflection amplitude has exactly two complex poles, the eigenvalues of
the 2 x 2 effective Hamiltonian of the atoms, so it splits exactly into two
Lorentzian channels r = r_plus + r_minus.  When one channel is much broader
than the other, the narrow channel interferes with the quasi continuum of the
broad one and the reflectance near the narrow resonance is a standard Fano
profile R = F (q + eps)^2 / (1 + eps^2).

This module provides the channel parameters from the poles and residues of
r, the Fano fit parameters and a regime classifier (operationalising "much
broader" as a width ratio above 10), each as array code over a stack of
geometries whose one-geometry case is the public function.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .core import (
    GawqedError,
    Geometries,
    SystemConfig,
    Topology,
    symmetric_config,
)
from .scattering import DECOUPLE_TOL, _amplitude_arrays, _decay_modes, _mode_form

#: width ratio above which the broad channel counts as a continuum
WIDTH_RATIO_THRESHOLD = 10.0

#: residual bound asserted for the two-Lorentzian reconstruction identity
DECOMPOSITION_TOL = 1e-10

#: probe detunings of the reconstruction check, in units of the rate scale
_PROBE = np.linspace(-6.0, 6.0, 61)


class FanoRegimeError(GawqedError):
    """Fano-fit preconditions (width hierarchy, nonzero narrow width) fail."""


class DecompositionError(GawqedError):
    """The channel parameters fail the reconstruction identity; ``row`` is
    the failing geometry of the stack."""

    def __init__(self, message: str, row: int = 0) -> None:
        super().__init__(message)
        self.row = row


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

        Each channel is evaluated in pole form, -i chi Gamma / (delta - z) with
        z = Delta_ch - i Gamma.  A channel with vanishing weight chi * Gamma is
        identically zero and is evaluated as such (its Lorentzian form would be
        0/0 on resonance).  The fields may also be arrays that broadcast
        against ``delta``.
        """
        d = np.asarray(delta, dtype=float)
        total = 0j
        for chi, width, centre in (
            (self.chi_plus, self.gamma_plus, self.delta_plus),
            (self.chi_minus, self.gamma_minus, self.delta_minus),
        ):
            weight = -1j * chi * width
            with np.errstate(divide="ignore", invalid="ignore"):
                term = weight / (d - (centre - 1j * width))
            total = total + np.where(weight == 0.0, 0j, term)
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


def lorentz_pair(cfg: SystemConfig) -> LorentzPair:
    """Exact two-Lorentzian channel parameters of r for any configuration.

    The poles of r in the probe detuning delta_a are the eigenvalues
    z = Delta - i Gamma of the effective Hamiltonian
    H = [[lamb_a - i Gamma_a/2, c], [c, lamb_b - delta_ab - i Gamma_b/2]],
    c = g_ab - i Gamma_ab/2, and each channel's prefactor is chi = i Res / Gamma
    with Res the residue of r at its pole.  'plus' is the pole whose
    eigenvector overlaps more with the symmetric mode (sigma_a + sigma_b)/sqrt(2):
    with z = mean +- s and s^2 = ((H_aa - H_bb)/2)^2 + c^2, that is mean + s
    when Re(s c*) > 0.  On a tie (Re(s c*) = 0, or c numerically zero) plus
    is mean + s for the principal square root s.  A channel of (numerically)
    zero width, or one whose pole coincides with the other, gets chi = 0.

    Raises :class:`DecompositionError` for a negative width, else when the
    pair misses the general amplitude by more than ``DECOMPOSITION_TOL`` on
    a probe grid spanning +-6 times the rate scale.  This is the
    one-geometry case of :func:`_lorentz_arrays`; the CLI's ``fano`` phi
    sweep evaluates its grid with that kernel in blocks of spacings, one
    stack per block, names the spacing of the error's ``row`` and takes
    each block's regimes and fits from :func:`_fano_arrays`.
    """
    return LorentzPair(*(field[0].item() for field in _lorentz_arrays(Geometries.of([cfg]))))


def _lorentz_arrays(geoms: Geometries) -> tuple[np.ndarray, ...]:
    """The fields of :func:`lorentz_pair` for every geometry of a stack, as
    (N,) arrays.  The width check and the probe check run over the whole
    stack; the first geometry in stack order that fails either raises the
    error of its one-geometry call (the width's where it fails both), with
    ``row`` its index in the stack.  The poles and residues are formed in units
    of the rate scale, r's numerator at the poles by
    :func:`~gawqed.scattering._mode_form`."""
    ch = geoms.quantities()
    modes = _decay_modes(geoms, ch)
    scale = modes.scale
    h_aa = (ch.lamb_a - 0.5j * ch.gamma_a) / scale
    h_bb = ((ch.lamb_b - geoms.delta_ab) - 0.5j * ch.gamma_b) / scale
    c = (ch.g_ab - 0.5j * ch.gamma_ab) / scale
    mean, half = 0.5 * (h_aa + h_bb), 0.5 * (h_aa - h_bb)
    s = np.sqrt(half * half + c * c)
    s = np.where((np.abs(c) > DECOUPLE_TOL) & ((s * c.conj()).real < 0.0), -s, s)
    # (N, 2): the plus and the minus pole of each geometry
    poles = np.stack([mean + s, mean - s], axis=1)
    gaps = poles - poles[:, ::-1]
    widths = -poles.imag
    _, r_num, _ = _mode_form(modes, poles)
    with np.errstate(divide="ignore", invalid="ignore"):
        # det = -(x - z)(x - z'): r's residue at z is r_num(z) / -(z - z')
        chis = 1j * (r_num / -gaps) / widths
    chis = np.where((widths <= DECOUPLE_TOL) | (np.abs(gaps) <= DECOUPLE_TOL), 0j, chis)
    negative = np.min(widths, axis=1) < -DECOUPLE_TOL
    fields = (*(scale * poles.real.T), *(scale * widths.T), *chis.T)
    probe = scale[:, None] * _PROBE
    _, r_exact = _amplitude_arrays(geoms, probe, ch, modes)
    rebuilt = LorentzPair(*(f[:, None] for f in fields)).reconstruct(probe)
    residual = np.max(np.abs(rebuilt - r_exact), axis=1)
    failed = negative | ~(residual <= DECOMPOSITION_TOL)
    if failed.any():
        k = int(np.argmax(failed))
        if negative[k]:
            message = f"negative channel width: {(float(fields[2][k]), float(fields[3][k]))}"
        else:
            message = f"reconstruction residual {residual[k]:.2e} exceeds {DECOMPOSITION_TOL}"
        raise DecompositionError(message, row=k)
    return fields


def lorentz_decompose(topology: Topology, phi: float, gamma: float = 1.0) -> LorentzPair:
    """Exact two-Lorentzian channel parameters of r for the symmetric case.

    :func:`lorentz_pair` on :func:`~gawqed.core.symmetric_config`; errors
    name the spacing ``phi``.
    """
    try:
        return lorentz_pair(symmetric_config(topology, phi, gamma=gamma))
    except DecompositionError as exc:
        raise DecompositionError(f"{exc} at phi={phi}") from exc


def fano_regime(topology: Topology, phi: float, gamma: float = 1.0) -> str:
    """Which channel dominates at width ratio > 10: 'plus_dominant',
    'minus_dominant', or 'none' (including fully decoupled phases); the
    one-pair case of :func:`_fano_arrays`."""
    pair = lorentz_decompose(topology, phi, gamma)
    return str(_fano_arrays(tuple(np.array([v]) for v in astuple(pair)), gamma)[0][0])


def fano_fit(pair: LorentzPair) -> FanoFit:
    """Fano parameters of the reflectance around the narrow channel.

    Requires the broad/narrow width ratio to be at least 10, a strictly
    positive narrow width and a nonzero narrow prefactor (a dark narrow
    channel, chi = 0 by the rule of :func:`lorentz_pair`, has no
    lineshape).  The prefactor angle difference 2*theta between
    the channels generalises the plain-asymmetry formula; for the
    separate/braided channels (prefactors +-e^{3 i phi}) it reduces to
    q = (Delta_broad - Delta_narrow) / Gamma_broad.  The one-pair case of
    :func:`_fit_arrays`.
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
    fit = _fit_arrays(tuple(np.array([v]) for v in astuple(pair)), np.ones(1, dtype=bool))
    return FanoFit(*fit[:, 0].tolist())


def _fano_arrays(fields: tuple[np.ndarray, ...], scale: float | np.ndarray) -> tuple[np.ndarray, ...]:
    """The regime label of every pair of a stack (the six (N,) fields of
    :func:`_lorentz_arrays`, with the rate scale of each pair), then its q,
    f_scale, center and width by :func:`_fit_arrays`, NaN where the label
    is 'none'.

    A numerically zero width means either a decoupled configuration or a
    perfectly dark narrow mode: no usable Fano lineshape either way.
    """
    g_plus, g_minus = fields[2], fields[3]
    usable = np.minimum(g_plus, g_minus) > DECOUPLE_TOL * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        plus = usable & (g_plus / g_minus > WIDTH_RATIO_THRESHOLD)
        minus = usable & (g_minus / g_plus > WIDTH_RATIO_THRESHOLD)
    regimes = np.where(plus, "plus_dominant", np.where(minus, "minus_dominant", "none"))
    return regimes, *_fit_arrays(fields, plus | minus)


def _fit_arrays(fields: tuple[np.ndarray, ...], fitted: np.ndarray) -> np.ndarray:
    """The (4, N) q, f_scale, center and width of :func:`fano_fit` for the
    pairs ``fitted`` of a stack, NaN for the others (apart from the regime
    rule, which labels 'none' some pairs that fano_fit admits); a fitted pair
    whose narrow prefactor is 0 raises the :class:`FanoRegimeError` of a dark one."""
    d_plus, d_minus, g_plus, g_minus, chi_plus, chi_minus = (f[fitted] for f in fields)
    plus_broad = g_plus >= g_minus
    d_broad, d_narrow = np.where(plus_broad, [d_plus, d_minus], [d_minus, d_plus])
    g_broad, g_narrow = np.where(plus_broad, [g_plus, g_minus], [g_minus, g_plus])
    if (np.where(plus_broad, chi_minus, chi_plus) == 0.0).any():
        raise FanoRegimeError("narrow channel is dark (zero prefactor); Fano fit undefined")
    with np.errstate(divide="ignore", invalid="ignore"):
        two_theta = np.angle(chi_plus / chi_minus)
    q = np.cos(two_theta) * (d_narrow - d_broad) / g_broad
    q += np.where(plus_broad, np.sin(two_theta), -np.sin(two_theta))
    # |chi|^2 Gamma^2 / (Delta^2 + Gamma^2), with no product of two rates
    f_scale = np.abs(chi_plus) ** 2 / (((d_broad - d_narrow) / g_broad) ** 2 + 1.0)
    fit = np.full((4, len(fitted)), np.nan)
    fit[:, fitted] = q, f_scale, d_narrow, g_narrow
    return fit
