"""Single-photon transmission/reflection for two giant atoms on a waveguide.

Two independent routes to the same spectra live here: the closed form in
the basis of the decay modes (:class:`DecayModes`, :func:`_mode_form`),
valid for every topology, unequal bare rates and detuned atoms, which the
amplitudes, the residues of the Lorentz channels (:mod:`gawqed.fano`) and
the peak and minimum loci all read; and the real-space oracle
:func:`solve_real_space`, which solves the 10-unknown linear system of the
piecewise plane-wave ansatz for a photon incident from the left.  The
oracle knows nothing about Lamb shifts or collective decays, only about
delta couplings at four positions, so agreement between the two is a
strong end-to-end check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CharQuantities,
    GawqedError,
    Geometries,
    SystemConfig,
    Topology,
    rate_scale,
    symmetric_config,
)

#: rates/couplings up to this times the rate scale, zero included, count as zero for decoupling.
DECOUPLE_TOL = 1e-12

#: a locus root counts as real, or as sitting on a peak, within this times the rate scale
ROOT_TOL = 1e-9

#: |delta_a| / scale from which the closed form is evaluated scaled down
_HUGE = 2.0**500

#: a peak discriminant within this times the rate scale squared of zero is a double root
DOUBLE_PEAK_TOL = 1e-14


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


@dataclass(frozen=True)
class DecayModes:
    """Bright and dark mode of each geometry of a stack, as (N,) arrays.

    H_eff = H - i Gamma / 2 on the delta_a axis, with
    H = [[lamb_a, g_ab], [g_ab, lamb_b - delta_ab]] and the decay matrix
    Gamma = Re(w w^H), w = (w_a, w_b), positive semidefinite with
    eigenvalues (tr Gamma +- |w_a^2 + w_b^2|) / 2.  ``bright``, (2, N), is
    its principal axis u, and v = (-u_b, u_a).  In the basis (u, v),
    Gamma = diag(|w_u|^2, |w_v|^2) with the rotated phasors ``w_u`` = u.w
    and ``w_v`` = v.w, and H has e_u = u^T H u and e_v = v^T H v on its
    diagonal and the control c = u^T H v off it.  A real pole needs an
    eigenvector of H in Gamma's null space, so every special case depends
    on ``rank`` and ``coupling`` alone: rank 0, the guide does not see the
    atoms (``coupling`` is 0); rank 1 without coupling, the dark mode is
    decoupled and the bright mode scatters alone (both are ``decoupled``);
    rank 1 otherwise, EIT-like, transparent at ``dark_energy``.  Elsewhere
    the closed form's det (:func:`_mode_form`) has no real zero:
    |det| >= |w_u|^2 |w_v|^2 / 4 at rank 2, det ~ c^2 near e_v at rank 1.
    ``scale`` is the :func:`~gawqed.core.rate_scale` of each geometry (1
    where every rate is zero): the unit of the other fields (its square
    root that of ``w_u`` and ``w_v``) and of every tolerance of the
    one-photon kernels, so that they form no product of two rates.
    """

    rank: np.ndarray
    bright: np.ndarray
    w_u: np.ndarray
    w_v: np.ndarray
    coupling: np.ndarray  # u^T H v
    bright_energy: np.ndarray  # u^T H u
    dark_energy: np.ndarray  # v^T H v
    width: np.ndarray  # tr Gamma
    decoupled: np.ndarray  # rank <= 1 with zero coupling
    scale: np.ndarray


def _decay_modes(geoms: Geometries, ch: CharQuantities) -> DecayModes:
    """The :class:`DecayModes` of a stack, ``ch`` its quantities.  Rank,
    coupling and width count as zero up to ``DECOUPLE_TOL``."""
    scale = rate_scale(geoms.rates)
    # with no rate at all, any unit will do
    scale = np.where(scale > 0.0, scale, 1.0)
    root = np.sqrt(scale)
    w_a, w_b = ch.w_a / root, ch.w_b / root
    width = (ch.gamma_a + ch.gamma_b) / scale
    # the small eigenvalue det Gamma / lambda_max, free of cancellation;
    # 0/0 at zero width, where the width decides the rank
    with np.errstate(invalid="ignore"):
        smallest = 2.0 * (w_a.conjugate() * w_b).imag ** 2 / (width + np.abs(w_a**2 + w_b**2))
    rank = np.where(width <= DECOUPLE_TOL, 0, np.where(smallest <= DECOUPLE_TOL, 1, 2))
    # u = (cos chi, sin chi) along Gamma's principal axis, 2 chi the angle of
    # (Gamma_a - Gamma_b, 2 Gamma_ab).  With H = mean + [[half, g_ab], [g_ab, -half]]
    # the energies take the traceless part at that doubled angle, so that
    # mean enters exactly and not times u^T u = 1 + rounding
    two_chi = np.arctan2(2.0 * ch.gamma_ab, ch.gamma_a - ch.gamma_b)
    cos_2, sin_2 = np.cos(two_chi), np.sin(two_chi)
    cos_chi, sin_chi = np.cos(0.5 * two_chi), np.sin(0.5 * two_chi)
    mean = 0.5 * (ch.lamb_a + (ch.lamb_b - geoms.delta_ab))
    half = 0.5 * (ch.lamb_a - (ch.lamb_b - geoms.delta_ab))
    split = half * cos_2 + ch.g_ab * sin_2
    # without a bright mode nothing couples to the guide
    coupling = np.where(rank == 0, 0.0, ch.g_ab * cos_2 - half * sin_2) / scale
    return DecayModes(
        rank=rank,
        bright=np.array([cos_chi, sin_chi]),
        w_u=cos_chi * w_a + sin_chi * w_b,
        w_v=cos_chi * w_b - sin_chi * w_a,
        coupling=coupling,
        bright_energy=(mean + split) / scale,
        dark_energy=(mean - split) / scale,
        width=width,
        decoupled=(rank <= 1) & (np.abs(coupling) <= DECOUPLE_TOL),
        scale=scale,
    )


def _mode_form(modes: DecayModes, x, root=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """det, r's numerator and t's numerator of the closed form at x = delta_a / scale.

    In the basis of :class:`DecayModes`, K = i (x - H) - Gamma / 2 has
    k_u = i (x - e_u) - |w_u|^2 / 2 and k_v = i (x - e_v) - |w_v|^2 / 2 on
    its diagonal and -i c off it, with no cross decay.  From
    r = w^T adj(K) w / (2 det) and t = 1 + w^H adj(K) w / (2 det):
    det = k_u k_v + c^2, r det = (w_u^2 k_v + 2 i c w_u w_v + w_v^2 k_u) / 2
    and t det = c^2 - (x - e_u)(x - e_v) - |w_u|^2 |w_v|^2 / 4.  Gamma's
    eigenvalues come from the same rotated phasors as the numerators, so
    the form is unitary by construction.  Everything is in units of the
    rate scale; x may be complex (r's residues at its poles), and the
    per-geometry fields run down its first axis.

    Why det has no real zero outside the decoupled case: det = -(x - z)(x - z')
    over the eigenvalues z, z' of H - i Gamma / 2, whose imaginary parts lie
    in Gamma's numerical range [-|w_u|^2, -|w_v|^2] / 2 and sum to
    -tr Gamma / 2, so |det| >= |w_u|^2 |w_v|^2 / 4 >= |w_v|^4 / 4 at rank 2.
    At rank 1 with c != 0, det ~ c^2 near x = e_v.  In floating point,
    Im det = -(|w_u|^2 (x - e_v) + |w_v|^2 (x - e_u)) / 2 cancels only where
    (x - e_u)(x - e_v) <= 0, and there Re det is a sum of terms >= 0, at
    least c^2 + |w_u|^2 |w_v|^2 / 4: det is 0 only where c and w_v both
    are, which the decoupled branch of :func:`_amplitude_arrays` takes.

    ``root``, powers of two that broadcast against x, says that x is
    given times root^2, and scales the energies and c by root^2 and the
    phasors by root to match: det and both numerators scale by root^4, and
    t and r not at all.
    """
    column = (-1,) + (1,) * (np.ndim(x) - 1)
    e_u, e_v, c, w_u, w_v = (
        field.reshape(column)
        for field in (modes.bright_energy, modes.dark_energy, modes.coupling, modes.w_u, modes.w_v)
    )
    if root is not None:
        square = root * root
        e_u, e_v, c, w_u, w_v = e_u * square, e_v * square, c * square, w_u * root, w_v * root
    lam_u, lam_v = np.abs(w_u) ** 2, np.abs(w_v) ** 2
    d_u, d_v = x - e_u, x - e_v
    k_u, k_v = 1j * d_u - 0.5 * lam_u, 1j * d_v - 0.5 * lam_v
    det = k_u * k_v + c * c
    r_num = 0.5 * (w_u**2 * k_v + w_v**2 * k_u) + 1j * c * w_u * w_v
    t_num = c * c - d_u * d_v - 0.25 * lam_u * lam_v
    return det, r_num, t_num


def _amplitude_arrays(
    geoms: Geometries, delta_a, ch: CharQuantities | None = None, modes: DecayModes | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """t and r of the closed form (:func:`_mode_form`) on a stack of geometries.

    The per-geometry terms have shape (N,) and broadcast against
    ``delta_a``: one geometry takes a whole grid, N geometries take N
    detunings (or one), and a 2-D ``delta_a`` of shape (N, M) holds one
    grid per geometry, row n for geometry n.  Where the dark mode is
    decoupled (:class:`DecayModes`), the closed form's 0/0 is resolved
    analytically, per geometry: the bright mode alone scatters, with
    t = i (delta - e_u) / (i (delta - e_u) - tr Gamma / 2) and
    r = (w_a^2 + w_b^2) / 2 over the same denominator, and without a bright
    mode t = 1 and r = 0.  ``ch`` is the stack's
    :meth:`~gawqed.core.Geometries.quantities` and ``modes`` its
    :class:`DecayModes`, passed by a caller that holds them already.
    """
    delta_a = np.asarray(delta_a, dtype=float)
    ch = geoms.quantities() if ch is None else ch
    modes = _decay_modes(geoms, ch) if modes is None else modes
    # per-geometry terms run down the first axis of a 2-D grid
    column = (len(geoms),) + (1,) * (delta_a.ndim - 1)
    scale = modes.scale.reshape(column)
    with np.errstate(over="ignore"):
        x = delta_a / scale
    # the forms multiply two detunings, which overflows from |x| ~ 1e154 on,
    # and x itself overflows past ~1.8e308: from |x| = 2^500 on, x is
    # formed again, and the forms evaluated, times root^2, which brings it
    # to about 1.  |x| < 2^(exponent + 1) holds also where x overflowed
    size = np.abs(x)
    root = None
    if np.max(size, initial=0.0) >= _HUGE:
        exponent = np.frexp(delta_a)[1] - np.frexp(scale)[1]
        halves = np.where(size >= _HUGE, -(exponent // 2), 0)
        root = np.ldexp(1.0, halves)
        x = np.ldexp(delta_a, 2 * halves) / scale
    det, r_num, t_num = _mode_form(modes, x, root)
    with np.errstate(divide="ignore", invalid="ignore"):
        t, r = t_num / det, r_num / det
    decoupled = modes.decoupled.reshape(column)
    if decoupled.any():
        bright = modes.rank.reshape(column) > 0
        energy, width = modes.bright_energy.reshape(column), modes.width.reshape(column)
        w_sq = ((ch.w_a**2 + ch.w_b**2) / modes.scale).reshape(column)
        if root is not None:  # in the units of x
            energy, width, w_sq = energy * root**2, width * root**2, w_sq * root**2
        detuning = 1j * (x - energy)
        lorentz = np.where(bright, detuning - 0.5 * width, 1.0)
        t = np.where(decoupled, np.where(bright, detuning, 1.0) / lorentz, t)
        r = np.where(decoupled, np.where(bright, 0.5 * w_sq, 0.0) / lorentz, r)
    return t, r


def amplitudes_general(cfg: SystemConfig, delta_a: float) -> ScatterPoint:
    """General transmission/reflection amplitudes at one probe detuning.

    Works for all three topologies, unequal bare rates, and detuned atoms;
    the one-point case of :func:`_amplitude_arrays`.
    """
    t, r = _amplitude_arrays(Geometries.of([cfg]), float(delta_a))
    return _scatter_point(float(delta_a), complex(t[0]), complex(r[0]))


@dataclass(frozen=True)
class Loci:
    """Reflection-peak positions and reflection-minimum position."""

    peaks: tuple[float, ...]
    minimum: float | None


def _loci_arrays(geoms: Geometries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Detunings of the R = 1 peaks and the R = 0 minimum, three (N,) arrays.

    In units of the rate scale, the peaks are the real roots of t's
    numerator c^2 - (x - e_u)(x - e_v) - |w_u|^2 |w_v|^2 / 4
    (:func:`_mode_form`), a quadratic: centre +- sqrt(disc).  A disc within
    ``DOUBLE_PEAK_TOL`` of zero is a double root, one peak (``peak_2``
    nan); a negative one gives no peak.  The minimum is the root of r's
    numerator, linear in x with the slope i (w_a^2 + w_b^2) / 2.  It is nan
    where that slope vanishes (the locus diverges), where the root is not
    real (|Im| above ``ROOT_TOL`` max(1, |Re|)), or where it lies within
    ``ROOT_TOL`` of a peak: there both numerators vanish, a removable pole
    and not a zero of R.  Where the dark mode is decoupled
    (:class:`DecayModes`) R is one bright-mode Lorentzian: one peak, the
    root at e_u of t's numerator -(x - e_u)(x - e_v) (e_u itself if
    rounding left no real root), and no minimum; without a bright mode R is
    0 everywhere and every field is nan.
    """
    ch = geoms.quantities()
    modes = _decay_modes(geoms, ch)
    e_u, e_v, c = modes.bright_energy, modes.dark_energy, modes.coupling
    centre = 0.5 * (e_u + e_v)
    disc = (0.5 * (e_u - e_v)) ** 2 + c * c - 0.25 * np.abs(modes.w_u) ** 2 * np.abs(modes.w_v) ** 2
    double = np.abs(disc) <= DOUBLE_PEAK_TOL
    split = np.sqrt(np.where(double, 0.0, np.abs(disc)))
    peak_1 = np.where(double | (disc > 0.0), centre - split, np.nan)
    peak_2 = np.where(~double & (disc > 0.0), centre + split, np.nan)

    slope = 0.5j * (ch.w_a**2 + ch.w_b**2) / modes.scale
    divergent = np.abs(slope) <= DECOUPLE_TOL
    _, r_num, _ = _mode_form(modes, 0.0)
    root = -r_num / np.where(divergent, 1.0, slope)
    minimum = root.real
    # fmin: a missing peak is no peak to sit on
    on_peak = np.fmin(np.abs(minimum - peak_1), np.abs(minimum - peak_2)) <= ROOT_TOL
    complex_root = np.abs(root.imag) > ROOT_TOL * np.maximum(1.0, np.abs(minimum))

    near = np.where(np.abs(peak_2 - e_u) < np.abs(peak_1 - e_u), peak_2, peak_1)
    bright_peak = np.where(modes.rank == 0, np.nan, np.where(np.isnan(near), e_u, near))
    return (
        modes.scale * np.where(modes.decoupled, bright_peak, peak_1),
        modes.scale * np.where(modes.decoupled, np.nan, peak_2),
        modes.scale * np.where(divergent | complex_root | on_peak | modes.decoupled, np.nan, minimum),
    )


def peak_minimum_loci(topology: Topology, phi: float, gamma: float = 1.0) -> Loci:
    """Detunings of the R = 1 peaks and the R = 0 minimum of the symmetric config.

    The one-geometry case of :func:`_loci_arrays` on
    :func:`~gawqed.core.symmetric_config`; the minimum is ``None`` where
    that gives nan.
    """
    fields = _loci_arrays(Geometries.of([symmetric_config(topology, phi, gamma)]))
    peak_1, peak_2, minimum = (float(field[0]) for field in fields)
    return Loci(
        peaks=tuple(p for p in (peak_1, peak_2) if not math.isnan(p)),
        minimum=None if math.isnan(minimum) else minimum,
    )


# ---------------------------------------------------------------------------
# Real-space oracle
# ---------------------------------------------------------------------------


#: owning atom (0 = a, 1 = b) of the points (a1, a2, b1, b2)
_POINT_ATOM = np.array([0, 0, 1, 1])

#: unknown holding each region's right-mover amplitude (region 0 holds the
#: incident 1, a known term) and its left-mover amplitude (nothing comes in
#: from the right)
_RIGHT = (None, 0, 1, 2, 3)
_LEFT = (4, 5, 6, 7, None)


def _real_space_arrays(geoms: Geometries, delta_a) -> np.ndarray:
    """Unknowns of :func:`solve_real_space` for a stack of geometries, (N, 10).

    ``delta_a`` has shape (N,) or is one number.  The rows of the system
    are the equations of :func:`solve_real_space`, written point by point
    over the four sorted points: rows 0-3 the right-mover jumps
    -i e^{i theta} (A_{m+1} - A_m) + V f = 0, rows 4-7 the left-mover jumps
    i e^{-i theta} (B_{m+1} - B_m) + V f = 0, with V the point's coupling to
    its atom and f that atom's amplitude, and rows 8-9 the atoms
    -Delta_j f_j + sum_m V_m [mean(Phi_R) + mean(Phi_L)] = 0 over the
    atom's points.  A singular system or a residual above 1e-8 |rhs|
    raises :class:`OracleSingularError` for the first failing geometry in
    stack order.
    """
    count = len(geoms)
    delta_a = np.asarray(delta_a, dtype=float)
    flat = geoms.phases.reshape(count, 4)
    order = np.argsort(flat, axis=1, kind="stable")  # stable: a before b on ties
    pick = np.arange(count)[:, None], order
    ep = np.exp(1j * flat[pick])
    inv = 1.0 / ep
    v = np.sqrt(geoms.rates.reshape(count, 4)[pick] / 2.0)
    # row and column of the atom of each sorted point
    atom = 8 + _POINT_ATOM[order]
    rows = np.arange(count)
    system = np.zeros((count, 10, 11), dtype=complex)
    A, rhs = system[..., :10], system[..., 10]
    A[:, 8, 8] = -delta_a
    A[:, 9, 9] = -(delta_a + geoms.delta_ab)
    for m in range(4):
        f, half = atom[:, m], 0.5 * v[:, m]
        # the right-mover jump in row m, the left-mover jump in row 4 + m
        for row, cols, phase, after in ((m, _RIGHT, ep[:, m], -1j), (4 + m, _LEFT, inv[:, m], 1j)):
            A[rows, row, f] = v[:, m]
            for col, coeff in ((cols[m + 1], after), (cols[m], -after)):
                if col is not None:
                    A[:, row, col] = coeff * phase
                    # the atom takes the mean of the one-sided limits at its point
                    A[rows, f, col] += half * phase
    # the terms of the incident 1, moved to the rhs
    rhs[:, 0] = -1j * ep[:, 0]
    rhs[rows, atom[:, 0]] = -0.5 * v[:, 0] * ep[:, 0]

    singular = np.zeros(count, dtype=bool)
    try:
        x = np.linalg.solve(A, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        # one singular system fails the whole stack: solve one by one
        message = exc
        x = np.full((count, 10), np.nan, dtype=complex)
        for k in range(count):
            try:
                x[k] = np.linalg.solve(A[k], rhs[k])
            except np.linalg.LinAlgError:
                singular[k] = True
    error = np.einsum("nij,nj->ni", A, x) - rhs
    residual, size = np.sqrt(np.sum(np.abs([error, rhs]) ** 2, axis=-1))
    failed = singular | ~np.isfinite(residual) | (residual > 1e-8 * size)
    if failed.any():
        k = int(np.argmax(failed))
        if singular[k]:
            raise OracleSingularError(f"real-space system is singular: {message}")
        raise OracleSingularError(
            f"real-space solve is ill-conditioned (residual {residual[k]:.2e})"
        )
    return x


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
    x = _real_space_arrays(Geometries.of([cfg]), float(delta_a))[0]
    return RealSpaceSolution(
        segment_t=(x[0], x[1], x[2]),
        segment_r=(x[5], x[6], x[7]),
        t=x[3],
        r=x[4],
        f_a=x[8],
        f_b=x[9],
    )
