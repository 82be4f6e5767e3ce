"""Control-field-free EIT analysis for the double-giant-atom system.

Transparency without an external control field needs a dark mode (decoupled
from the guide), a bright mode (coupled), no cross decay between them, and a
coherent coupling between them that plays the control-field role.  All of it
is read off :class:`~gawqed.scattering.DecayModes`: the structure exists
where the decay matrix Gamma has rank 1, its null vector v is the dark mode,
u the bright one, and c = u^T H v the control.  The paper's two schemes are
special cases of v:

* the collective scheme, where v is the symmetric or antisymmetric
  combination (sigma_a -+ sigma_b)/sqrt(2) and the detuning mismatch acts as
  control, and
* the single-atom scheme, where v is one atom, decoupled by its own
  interference, and the photon-mediated exchange g_ab acts as control
  (possible for braided and nested geometries only).

Both reduce exactly to a driven three-level Lambda atom in the single-photon
sector, and the two-mode forms here reproduce the general amplitudes of
:mod:`gawqed.scattering`.  The EIT/ATS distinction follows the
denominator-root criterion: transparency counts as interference-driven (EIT)
while the roots stay purely imaginary, i.e. while 4 |control| < bright width.
:func:`classify_eit` gives the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    GawqedError,
    Geometries,
    SystemConfig,
    Topology,
    characteristics,
    classify_topology,
    detunings,
    rate_scale,
)
from .scattering import DECOUPLE_TOL, ScatterPoint, _decay_modes, _scatter_point

#: half-width of the Boundary band around 4 |control| = bright width, times the rate scale
BOUNDARY_TOL = 1e-9


class EitPreconditionError(GawqedError):
    """A dark/bright-mode precondition does not hold for this configuration."""


class Scheme(Enum):
    COLLECTIVE_SA = "CollectiveSA"
    SINGLE_ATOM = "SingleAtom"
    DARK_MODE = "DarkMode"
    NONE = "None"


class DarkState(Enum):
    S = "S"
    A = "A"
    EG = "eg"  # atom a excited: atom a is the dark atom
    GE = "ge"  # atom b excited: atom b is the dark atom
    MIXED = "mixed"  # neither S/A nor one atom
    NONE = "none"


class Regime(Enum):
    EIT = "EIT"
    ATS = "ATS"
    BOUNDARY = "Boundary"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class SABasisQuantities:
    """Couplings, decays and drives in the symmetric/antisymmetric basis."""

    g_sa: float
    gamma_s: float
    gamma_a_mode: float
    gamma_sa: float
    delta_s: float
    delta_a_mode: float


@dataclass(frozen=True)
class EitVerdict:
    scheme: Scheme
    dark_state: DarkState
    regime: Regime
    control_strength: float
    bright_width: float
    transparency_delta_a: float | None
    note: str | None = None


def sa_basis(cfg: SystemConfig, delta_a: float | np.ndarray) -> SABasisQuantities:
    """Quantities of the master equation rewritten in the S/A collective basis.

    With sigma_S,A = (sigma_a +- sigma_b)/sqrt(2):
    g_SA = -(delta'_a - delta'_b)/2 (primes: Lamb-shifted detunings),
    Gamma_S,A = (Gamma_a + Gamma_b)/2 +- Gamma_ab,
    Gamma_SA = (Gamma_a - Gamma_b)/2,
    and Delta_S,A = (delta'_a + delta'_b)/2 -+ g_ab.

    ``delta_a`` may be an array; Delta_S and Delta_A then follow its shape.
    g_SA does not depend on the probe detuning and is evaluated at
    delta_a = 0, so it stays one number.
    """
    ch = characteristics(cfg)
    d_a, d_b = detunings(cfg, delta_a)
    eff_a = d_a - ch.lamb_a
    eff_b = d_b - ch.lamb_b
    eff_a0, eff_b0 = -ch.lamb_a, cfg.delta_ab - ch.lamb_b
    return SABasisQuantities(
        g_sa=-0.5 * (eff_a0 - eff_b0),
        gamma_s=0.5 * (ch.gamma_a + ch.gamma_b) + ch.gamma_ab,
        gamma_a_mode=0.5 * (ch.gamma_a + ch.gamma_b) - ch.gamma_ab,
        gamma_sa=0.5 * (ch.gamma_a - ch.gamma_b),
        delta_s=0.5 * (eff_a + eff_b) - ch.g_ab,
        delta_a_mode=0.5 * (eff_a + eff_b) + ch.g_ab,
    )


def collective_eit_amplitudes(
    q: SABasisQuantities,
    dark: DarkState,
    delta_a: float | np.ndarray = math.nan,
    r_phase: complex = 1.0,
) -> ScatterPoint:
    """Two-mode EIT amplitudes with the dark collective mode ``dark``.

    Requires the dark mode's width and the cross decay Gamma_SA to vanish and
    a nonzero control g_SA.  ``r_phase`` multiplies r: the printed two-mode
    form fixes r only up to the configuration's overall reflection phase
    exp(i alpha_a); pass that phasor to reproduce the general amplitudes
    exactly, including phase.  ``q`` may come from :func:`sa_basis` on an
    array of detunings; the fields of the result then are arrays of that
    shape.  The preconditions involve only detuning-independent quantities,
    "numerically zero" meaning ``DECOUPLE_TOL`` (Gamma_S + Gamma_A).
    """
    ztol = DECOUPLE_TOL * (q.gamma_s + q.gamma_a_mode)
    if dark is DarkState.S:
        g_dark, g_bright = q.gamma_s, q.gamma_a_mode
        d_dark, d_bright = q.delta_s, q.delta_a_mode
    elif dark is DarkState.A:
        g_dark, g_bright = q.gamma_a_mode, q.gamma_s
        d_dark, d_bright = q.delta_a_mode, q.delta_s
    else:
        raise EitPreconditionError(f"dark collective mode must be S or A, got {dark}")
    if abs(g_dark) > ztol:
        raise EitPreconditionError(f"dark mode width {g_dark} is not zero")
    if abs(q.gamma_sa) > ztol:
        raise EitPreconditionError(f"cross decay Gamma_SA = {q.gamma_sa} is not zero")
    if abs(q.g_sa) <= ztol:
        raise EitPreconditionError("control coupling g_SA is zero")
    return _lambda_point(delta_a, d_dark, d_bright, g_bright, q.g_sa, r_phase)


def single_atom_eit_amplitudes(
    cfg: SystemConfig, delta_a: float | np.ndarray
) -> ScatterPoint:
    """EIT amplitudes when one atom is interference-decoupled from the guide.

    Requires one atom's decay and the collective decay to vanish while the
    exchange coupling g_ab stays nonzero; transparency sits at the dark
    atom's Lamb-shifted resonance.  The reflection carries the bright atom's
    phase factor, so the result matches the general amplitudes exactly.
    ``delta_a`` may be an array; the fields of the result then are arrays of
    its shape.
    """
    ch = characteristics(cfg)
    ztol = DECOUPLE_TOL * rate_scale((cfg.atom_a.rates, cfg.atom_b.rates))
    d_a, d_b = detunings(cfg, delta_a)
    eff_a, eff_b = d_a - ch.lamb_a, d_b - ch.lamb_b
    if ch.gamma_a <= ztol and ch.gamma_b > ztol:
        d_dark, d_bright, g_bright, w_bright = eff_a, eff_b, ch.gamma_b, ch.w_b
    elif ch.gamma_b <= ztol and ch.gamma_a > ztol:
        d_dark, d_bright, g_bright, w_bright = eff_b, eff_a, ch.gamma_a, ch.w_a
    else:
        raise EitPreconditionError(
            f"need exactly one decoupled atom; Gamma_a={ch.gamma_a}, Gamma_b={ch.gamma_b}"
        )
    if abs(ch.gamma_ab) > ztol:
        raise EitPreconditionError(f"collective decay {ch.gamma_ab} is not zero")
    if abs(ch.g_ab) <= ztol:
        if classify_topology(cfg) is Topology.SEPARATE:
            raise EitPreconditionError(
                "separate topology: decoupling one atom always kills g_ab, "
                "single-atom EIT is impossible"
            )
        raise EitPreconditionError("exchange coupling g_ab is zero")
    phase = w_bright**2 / abs(w_bright) ** 2
    return _lambda_point(delta_a, d_dark, d_bright, g_bright, ch.g_ab, phase)


def _lambda_point(delta_a, d_dark, d_bright, g_bright, control, r_phase) -> ScatterPoint:
    """The amplitudes of the driven Lambda atom both schemes reduce to: a
    dark mode at detuning ``d_dark``, a bright one at ``d_bright`` with
    width ``g_bright``, the coherent coupling ``control`` between them, and
    r times the phasor ``r_phase``."""
    den = 1j * d_dark * (1j * d_bright - 0.5 * g_bright) + control**2
    t = (-d_dark * d_bright + control**2) / den
    r = r_phase * (0.5j * g_bright * d_dark) / den
    return _scatter_point(delta_a, t, r)


def _root_regime(control: float, bright_width: float, scale: float) -> Regime:
    """EIT/ATS label from the sign of the two-mode denominator-root discriminant.

    The roots are -i Gamma/4 +- sqrt(16 g^2 - Gamma^2)/4: purely imaginary
    (destructive interference, EIT) for 4 |g| < Gamma, split into two dressed
    resonances (ATS) for 4 |g| > Gamma.
    """
    gap = 4.0 * abs(control) - bright_width
    if abs(gap) <= BOUNDARY_TOL * scale:
        return Regime.BOUNDARY
    return Regime.EIT if gap < 0.0 else Regime.ATS


def _published_nested_control(cfg: SystemConfig, scale: float) -> float | None:
    """The published g_SA = delta_ab/2 + gamma (sin phi - sin 3 phi)/2 if cfg
    is nested with equal rates and equal spacing phi from phase 0, else None."""
    rates = cfg.atom_a.rates + cfg.atom_b.rates
    if max(rates) - min(rates) > 1e-9 * scale:
        return None
    phases = sorted(p for atom in (cfg.atom_a, cfg.atom_b) for p in atom.phases)
    phi = phases[1] - phases[0]
    tol = 1e-9 * max(1.0, abs(phi))
    if any(abs(phases[k] - k * phi) > tol for k in range(4)):
        return None
    # nested: atom a holds the outer points (0, 3 phi)
    if phi <= tol or abs(cfg.atom_a.phases[1] - 3 * phi) > tol:
        return None
    return 0.5 * cfg.delta_ab + 0.5 * rates[0] * (math.sin(phi) - math.sin(3 * phi))


def classify_eit(cfg: SystemConfig) -> EitVerdict:
    """Detect which EIT scheme (if any) the configuration supports.

    The dark/bright structure exists where the decay matrix Gamma has rank 1
    (:class:`~gawqed.scattering.DecayModes`); the verdict is the root
    criterion on the control c = u^T H v and the bright width tr Gamma, with
    transparency at the dark energy v^T H v.  The scheme follows the entries
    of Gamma: collective where Gamma_a = Gamma_b (dark S for Gamma_ab < 0,
    A for Gamma_ab > 0), single-atom where Gamma_ab = 0 (the atom with the
    smaller decay is dark), a general dark mode otherwise; "equal" and
    "zero" mean within ``DECOUPLE_TOL`` times the rate scale.  For a nested
    geometry with equal rates and equal spacing from phase 0 and a
    collective dark mode, the control is the published closed form
    g_SA = delta_ab/2 + gamma (sin phi - sin 3 phi)/2, whose Lamb-shift part
    has the opposite sign to c; the note says so.  A vanishing control (no
    effective control field) is reported as NotApplicable even when the
    dark/bright structure exists.
    """
    geoms = Geometries.of([cfg])
    ch = geoms.quantities()
    modes = _decay_modes(geoms, ch)
    if modes.rank[0] != 1:
        return EitVerdict(
            Scheme.NONE, DarkState.NONE, Regime.NOT_APPLICABLE,
            control_strength=0.0, bright_width=0.0, transparency_delta_a=None,
        )
    scale = float(modes.scale[0])
    ztol = DECOUPLE_TOL * scale
    width = float(modes.width[0]) * scale
    gamma_a, gamma_b, gamma_ab = ch.gamma_a[0], ch.gamma_b[0], ch.gamma_ab[0]
    if abs(gamma_a - gamma_b) <= ztol:
        scheme, dark = Scheme.COLLECTIVE_SA, DarkState.S if gamma_ab < 0.0 else DarkState.A
    elif abs(gamma_ab) <= ztol:
        scheme, dark = Scheme.SINGLE_ATOM, DarkState.EG if gamma_a < gamma_b else DarkState.GE
    else:
        scheme, dark = Scheme.DARK_MODE, DarkState.MIXED
    control = float(modes.coupling[0]) * scale
    notes = []
    published = _published_nested_control(cfg, scale) if scheme is Scheme.COLLECTIVE_SA else None
    if published is not None:
        control = published
        notes.append("the published nested g_SA decided")
    if abs(control) <= ztol:
        notes.insert(0, "control coupling vanishes")
        regime, transparency = Regime.NOT_APPLICABLE, None
    else:
        regime = _root_regime(control, width, scale)
        transparency = float(modes.dark_energy[0]) * scale
    return EitVerdict(
        scheme, dark, regime,
        control_strength=abs(control), bright_width=width,
        transparency_delta_a=transparency, note="; ".join(notes) or None,
    )
