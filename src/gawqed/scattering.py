"""Single-photon transmission/reflection for two giant atoms on a waveguide.

Two independent routes to the same spectra live here:

* :func:`amplitudes_general` evaluates the closed-form amplitudes built from
  the characteristic quantities (valid for every topology, unequal bare rates
  and detuned atoms), and
* :func:`solve_real_space` assembles the piecewise plane-wave ansatz for a
  photon incident from the left and solves the resulting 10-unknown complex
  linear system directly.

The second is the oracle: it knows nothing about Lamb shifts or collective
decays, only about delta couplings at four positions, so agreement between the
two is a strong end-to-end check.  The analytic peak / minimum loci of the
equal-rate, equal-spacing case complete the module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CharQuantities,
    GawqedError,
    SystemConfig,
    Topology,
    atom_phasor,
    characteristics,
)

#: |denominator| below this (times rate_unit^2) counts as a real-axis pole.
POLE_TOL = 1e-14

#: rates/couplings below this (times rate_unit) count as zero for decoupling.
DECOUPLE_TOL = 1e-12


class PoleError(GawqedError):
    """The scattering denominator vanished on the real axis."""


class OracleSingularError(GawqedError):
    """The real-space linear system is singular (decoupled-atom degeneracy)."""


@dataclass(frozen=True)
class ScatterPoint:
    """Scattering amplitudes and coefficients at one probe detuning."""

    delta_a: float
    t: complex
    r: complex
    T: float
    R: float


@dataclass(frozen=True)
class RealSpaceSolution:
    """Full piecewise solution of the real-space scattering problem."""

    segment_t: tuple[complex, complex, complex]
    segment_r: tuple[complex, complex, complex]
    t: complex
    r: complex
    f_a: complex
    f_b: complex


def _scatter_point(delta_a: float, t: complex, r: complex) -> ScatterPoint:
    return ScatterPoint(delta_a=delta_a, t=t, r=r, T=abs(t) ** 2, R=abs(r) ** 2)


def _reflection_numerator(ch: CharQuantities, w_a: complex, w_b: complex, ka, kb):
    """Numerator of r over den = ka kb - (Gamma_ab/2 + i g_ab)^2.

    ka = i (delta - H_aa) and kb = i (delta - H_bb) with H_jj the diagonal of
    the effective Hamiltonian; delta may be complex, so this also gives r's
    residues at its poles.
    """
    return 0.5 * w_b**2 * ka + 0.5 * w_a**2 * kb + (1j * ch.g_ab + 0.5 * ch.gamma_ab) * w_a * w_b


def _amplitude_arrays(
    cfg: SystemConfig, delta_a: np.ndarray, ch: CharQuantities | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised t(delta_a), r(delta_a) from the general closed form.

    Decoupling limits are resolved analytically instead of dividing 0/0:
    if both atoms have zero total decay the guide never sees them (t = 1);
    if one atom is invisible (zero decay, zero exchange, zero collective
    decay) the problem reduces to single-atom scattering off the other.
    """
    if ch is None:
        ch = characteristics(cfg)
    delta_a = np.asarray(delta_a, dtype=float)
    unit = cfg.rate_unit
    ztol = DECOUPLE_TOL * unit

    da = delta_a - ch.lamb_a
    db = (delta_a + cfg.delta_ab) - ch.lamb_b
    w_a = atom_phasor(cfg.atom_a)
    w_b = atom_phasor(cfg.atom_b)

    if ch.gamma_a < ztol and ch.gamma_b < ztol:
        ones = np.ones_like(delta_a, dtype=complex)
        return ones, np.zeros_like(ones)

    a_invisible = ch.gamma_a < ztol and abs(ch.g_ab) < ztol
    b_invisible = ch.gamma_b < ztol and abs(ch.g_ab) < ztol
    if a_invisible or b_invisible:
        # |Gamma_ab| <= sqrt(Gamma_a Gamma_b), so it vanishes with the decay.
        delta, gamma, w = (db, ch.gamma_b, w_b) if a_invisible else (da, ch.gamma_a, w_a)
        den = 1j * delta - 0.5 * gamma
        return 1j * delta / den, 0.5 * w**2 / den

    ka = 1j * da - 0.5 * ch.gamma_a
    kb = 1j * db - 0.5 * ch.gamma_b
    cross = 0.5 * ch.gamma_ab + 1j * ch.g_ab
    den = ka * kb - cross**2
    t_num = -da * db + 0.25 * (ch.gamma_ab**2 - ch.gamma_a * ch.gamma_b) + ch.g_ab**2
    r_num = _reflection_numerator(ch, w_a, w_b, ka, kb)
    removable = np.abs(den) < POLE_TOL * unit**2
    if np.any(removable):
        # a zero-width (dark) resonance puts a simple denominator zero on the
        # real axis that the numerators share: both are quadratics in delta,
        # so the limit is the ratio of their delta derivatives
        den = np.where(removable, 1j * (ka + kb), den)
        t_num = np.where(removable, -(da + db), t_num)
        r_num = np.where(removable, 0.5j * (w_a**2 + w_b**2), r_num)
        bad = removable & (np.abs(den) < POLE_TOL * unit**2)
        if np.any(bad):
            where = np.atleast_1d(delta_a)[np.atleast_1d(bad)][:1]
            raise PoleError(
                f"scattering denominator vanished on the real axis near "
                f"delta_a={where} without a dark-mode cancellation"
            )
    t, r = t_num / den, r_num / den
    if np.any(removable):
        off = np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0)
        if np.max(np.where(removable, off, 0.0)) > 1e-6:
            where = np.atleast_1d(delta_a)[np.atleast_1d(removable)][:1]
            raise PoleError(
                f"non-removable real-axis pole near delta_a={where}"
            )
    return t, r


def amplitudes_general(cfg: SystemConfig, delta_a: float) -> ScatterPoint:
    """General transmission/reflection amplitudes at one probe detuning.

    Works for all three topologies, unequal bare rates, and detuned atoms.
    Raises :class:`PoleError` if the denominator magnitude drops below
    ``1e-14 * rate_unit**2`` without a recognised decoupling cause.
    """
    t, r = _amplitude_arrays(cfg, np.asarray(float(delta_a)))
    return _scatter_point(float(delta_a), complex(t), complex(r))


@dataclass(frozen=True)
class Loci:
    """Analytic reflection-peak positions and reflection-minimum position."""

    peaks: tuple[float, ...]
    minimum: float | None


def peak_minimum_loci(topology: Topology, phi: float, gamma: float = 1.0) -> Loci:
    """Detunings of the R = 1 peaks and the R = 0 minimum (symmetric case).

    The minimum is ``None`` where its locus diverges (separate: cos 2 phi = 0;
    braided: cos phi = 0) or degenerates against a peak (phi = n pi, where the
    closed forms reduce to a single Lorentzian).
    """
    g = gamma
    s1, s2, s3 = math.sin(phi), math.sin(2 * phi), math.sin(3 * phi)
    degenerate = abs(math.sin(phi)) < 1e-9
    if topology is Topology.SEPARATE:
        peaks: tuple[float, ...] = (g * s1,)
        minimum = None
        if not degenerate and abs(math.cos(2 * phi)) > 1e-9:
            minimum = -g * (s1 + s2) / math.cos(2 * phi)
    elif topology is Topology.BRAIDED:
        split = g * math.sqrt(max(0.0, 1.0 - math.cos(phi) * math.cos(3 * phi)))
        peaks = (g * s2 - split, g * s2 + split)
        minimum = None
        if not degenerate and abs(math.cos(phi)) > 1e-9:
            minimum = -g * math.tan(phi)
    elif topology is Topology.NESTED:
        centre = 0.5 * g * (s3 + s1)
        split = g * math.sqrt((s1 + s2) ** 2 + 0.25 * (s3 - s1) ** 2)
        peaks = (centre - split, centre + split)
        minimum = None
        if not degenerate:
            minimum = g * (s1 - s2) / (2 - 2 * math.cos(phi) + math.cos(2 * phi))
    else:  # pragma: no cover - Enum is closed
        raise GawqedError(f"unknown topology {topology!r}")
    return Loci(peaks=peaks, minimum=minimum)


# ---------------------------------------------------------------------------
# Real-space oracle
# ---------------------------------------------------------------------------


def solve_real_space(cfg: SystemConfig, delta_a: float) -> RealSpaceSolution:
    """Solve the real-space scattering problem for a photon incident from the left.

    The right-moving wavefunction is e^{i k x} with piecewise amplitudes
    (1, t1, t2, t3, t) across the four sorted coupling points, the left-moving
    one e^{-i k x} with amplitudes (r, r2, r3, r4, 0).  Integrating the
    equations of motion across each delta coupling gives eight jump conditions;
    the two atomic equations close the system, with the wavefunction at a
    coupling point taken as the mean of its one-sided limits.  Phases are
    evaluated at the atomic frequency (Markov regime), v_g = 1, and the
    coupling strength at a point of bare rate gamma is V = sqrt(gamma / 2).

    Unknown ordering: [t1, t2, t3, t, r, r2, r3, r4, f_a, f_b].
    """
    pts = cfg.sorted_points()
    d_a, d_b = delta_a, delta_a + cfg.delta_ab

    n = 10
    A = np.zeros((n, n), dtype=complex)
    rhs = np.zeros(n, dtype=complex)

    # Right-mover amplitude for region m (0..4): index into unknown vector,
    # or None for the known incident amplitude 1.
    right_idx: list[int | None] = [None, 0, 1, 2, 3]
    # Left-mover amplitude for region m (1..5): None for the zero amplitude
    # beyond the last point.
    left_idx: list[int | None] = [4, 5, 6, 7, None]

    def add(row: int, idx: int | None, coeff: complex, known: complex = 1.0) -> None:
        if idx is None:
            rhs[row] -= coeff * known
        else:
            A[row, idx] += coeff

    f_idx = {"a": 8, "b": 9}
    for m, (theta, rate, label) in enumerate(pts):
        v = math.sqrt(rate / 2.0)
        ep = cmath.exp(1j * theta)
        # -i e^{i theta} (A_m - A_{m-1}) + V f = 0
        row = m
        add(row, right_idx[m + 1], -1j * ep)
        add(row, right_idx[m], +1j * ep, known=1.0)
        A[row, f_idx[label]] += v
        # +i e^{-i theta} (B_{m+1} - B_m) + V f = 0
        row = 4 + m
        add(row, left_idx[m + 1], +1j / ep, known=0.0)
        add(row, left_idx[m], -1j / ep, known=0.0)
        A[row, f_idx[label]] += v

    # Atomic equations: -Delta_j f_j + sum_n V_n [mean(Phi_R) + mean(Phi_L)] = 0
    for label, det, row in (("a", d_a, 8), ("b", d_b, 9)):
        A[row, f_idx[label]] += -det
        for m, (theta, rate, lab) in enumerate(pts):
            if lab != label:
                continue
            v = math.sqrt(rate / 2.0)
            ep = cmath.exp(1j * theta)
            add(row, right_idx[m], 0.5 * v * ep, known=1.0)
            add(row, right_idx[m + 1], 0.5 * v * ep)
            add(row, left_idx[m], 0.5 * v / ep, known=0.0)
            add(row, left_idx[m + 1], 0.5 * v / ep, known=0.0)

    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise OracleSingularError(f"real-space system is singular: {exc}") from exc
    residual = np.linalg.norm(A @ x - rhs)
    if not np.isfinite(residual) or residual > 1e-8 * max(1.0, np.linalg.norm(rhs)):
        raise OracleSingularError(
            f"real-space solve is ill-conditioned (residual {residual:.2e})"
        )

    return RealSpaceSolution(
        segment_t=(x[0], x[1], x[2]),
        segment_r=(x[5], x[6], x[7]),
        t=x[3],
        r=x[4],
        f_a=x[8],
        f_b=x[9],
    )
