"""The paper's per-topology closed forms, kept as reference oracles.

Equal bare rates gamma, equal spacing phi, leftmost point at phase 0
(arXiv 2201.05329).  The package computes every quantity here from the
characteristic quantities and the poles of the effective Hamiltonian; the
tests compare it against these published expressions.
"""

import cmath
import math

import numpy as np

from gawqed import SABasisQuantities, SystemConfig, Topology, classify_topology, symmetric_config
from gawqed.core import GawqedError, Geometries, rate_scale
from gawqed.eit import EitPreconditionError
from gawqed.fano import FanoRegimeError
from gawqed.scattering import Loci, ScatterPoint, _amplitude_arrays, _scatter_point

#: |denominator| of a closed form below this times gamma^2 counts as a pole
POLE_TOL = 1e-14


class SymmetryError(GawqedError):
    """A configuration violates the equal-rate / equal-spacing assumption."""


def _topology_amplitude_arrays(
    topology: Topology, phi: float, delta: np.ndarray, gamma: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    d = np.asarray(delta, dtype=float)
    g = gamma
    e1 = cmath.exp(1j * phi)
    if topology is Topology.SEPARATE:
        den = (1j * d - g * (1 + e1)) ** 2 - (0.5 * g * e1 * (1 + e1) ** 2) ** 2
        t_num = -((d - g * math.sin(phi)) ** 2)
        r_num = (
            4j
            * e1**3
            * g
            * math.cos(phi / 2) ** 2
            * (d * math.cos(2 * phi) + g * (math.sin(phi) + math.sin(2 * phi)))
        )
    elif topology is Topology.BRAIDED:
        den = (1j * d - g * (1 + e1**2)) ** 2 - (0.5 * g * (3 * e1 + e1**3)) ** 2
        t_num = -((d - g * math.sin(2 * phi)) ** 2) + g**2 * (
            math.sin(2 * phi) ** 2 + math.sin(phi) ** 2
        )
        r_num = (
            4j
            * e1**3
            * g
            * math.cos(phi) ** 2
            * (d * math.cos(phi) + g * math.sin(phi))
        )
    else:
        den = (1j * d - g * (1 + e1**3)) * (1j * d - g * (1 + e1)) - (
            g * e1 * (1 + e1)
        ) ** 2
        t_num = -(d - g * math.sin(3 * phi)) * (d - g * math.sin(phi)) + g**2 * (
            math.sin(phi) + math.sin(2 * phi)
        ) ** 2
        r_num = (
            4j
            * e1**3
            * g
            * math.cos(phi / 2) ** 2
            * (
                d * (2 - 2 * math.cos(phi) + math.cos(2 * phi))
                - g * (math.sin(phi) - math.sin(2 * phi))
            )
        )
    small = np.abs(den) < POLE_TOL * gamma**2
    if np.any(small):
        # The closed forms share zeros of numerator and denominator exactly at
        # the decoupling phases; fall back to the general route there.
        t, r = _amplitude_arrays(Geometries.of([symmetric_config(topology, phi, gamma=gamma)]), d)
        return t.reshape(d.shape), r.reshape(d.shape)
    return t_num / den, r_num / den


def _check_symmetric(cfg: SystemConfig, phi: float) -> None:
    unit = rate_scale((cfg.atom_a.rates, cfg.atom_b.rates))
    tol = 1e-9 * max(1.0, abs(phi))
    rates = cfg.atom_a.rates + cfg.atom_b.rates
    if max(rates) - min(rates) > 1e-9 * unit:
        raise SymmetryError("bare rates are not all equal")
    if abs(cfg.delta_ab) > 1e-9 * unit:
        raise SymmetryError("atoms are detuned (delta_ab != 0)")
    phases = sorted(p for atom in (cfg.atom_a, cfg.atom_b) for p in atom.phases)
    expected = [k * phi for k in range(4)]
    if any(abs(p - e) > tol for p, e in zip(phases, expected)):
        raise SymmetryError(
            f"points are not at (0, phi, 2 phi, 3 phi) with phi={phi}: {phases}"
        )


def amplitudes_topology(cfg: SystemConfig, delta: float, phi: float) -> ScatterPoint:
    """Specialised amplitudes for an equal-rate, equal-spacing configuration.

    ``cfg`` must have all bare rates equal, neighbouring points spaced by
    ``phi`` starting at phase 0, and ``delta_ab = 0``; otherwise
    :class:`SymmetryError` is raised.  Agrees with :func:`amplitudes_general`
    to machine precision on its domain.
    """
    _check_symmetric(cfg, phi)
    topology = classify_topology(cfg)
    gamma = cfg.atom_a.points[0].bare_rate
    t, r = _topology_amplitude_arrays(topology, phi, np.asarray(float(delta)), gamma)
    return _scatter_point(float(delta), complex(t), complex(r))


def maximum_symmetric_quantities(
    topology: Topology, phi: float, delta_ab: float, gamma: float = 1.0
) -> SABasisQuantities:
    """Published per-topology closed forms of the S/A quantities.

    Equal bare rates gamma, equal spacing phi, leftmost point at phase 0.
    Detunings and drives are reported at probe detuning delta_a = 0 and unit
    drive amplitude.  Note: for the nested topology the published
    g_SA = delta_ab/2 + gamma (sin phi - sin 3 phi)/2 carries the opposite
    Lamb-shift sign from the general basis change in :func:`sa_basis`; this
    function reproduces the published form.
    """
    c1, c2, c3 = math.cos(phi), math.cos(2 * phi), math.cos(3 * phi)
    gamma_s = gamma * (2 + 3 * c1 + 2 * c2 + c3)
    if topology is Topology.SEPARATE:
        g_sa = 0.5 * delta_ab
        gamma_a_mode = gamma * (2 + c1 - 2 * c2 - c3)
        gamma_sa = 0.0
        lamb_a = lamb_b = gamma * math.sin(phi)
        g_ab = 0.5 * gamma * (math.sin(phi) + 2 * math.sin(2 * phi) + math.sin(3 * phi))
    elif topology is Topology.BRAIDED:
        g_sa = 0.5 * delta_ab
        gamma_a_mode = gamma * (2 - 3 * c1 + 2 * c2 - c3)
        gamma_sa = 0.0
        lamb_a = lamb_b = gamma * math.sin(2 * phi)
        g_ab = 0.5 * gamma * (3 * math.sin(phi) + math.sin(3 * phi))
    elif topology is Topology.NESTED:
        g_sa = 0.5 * delta_ab + 0.5 * gamma * (math.sin(phi) - math.sin(3 * phi))
        gamma_a_mode = gamma * (2 - c1 - 2 * c2 + c3)
        gamma_sa = gamma * (c3 - c1)
        lamb_a, lamb_b = gamma * math.sin(3 * phi), gamma * math.sin(phi)
        g_ab = gamma * (math.sin(phi) + math.sin(2 * phi))
    else:  # pragma: no cover - Enum is closed
        raise GawqedError(f"unknown topology {topology!r}")
    eff_a, eff_b = -lamb_a, (delta_ab - lamb_b)
    mean = 0.5 * (eff_a + eff_b)
    phase_pairs = {
        Topology.SEPARATE: ((0.0, phi), (2 * phi, 3 * phi)),
        Topology.BRAIDED: ((0.0, 2 * phi), (phi, 3 * phi)),
        Topology.NESTED: ((0.0, 3 * phi), (phi, 2 * phi)),
    }[topology]
    w_a, w_b = (
        math.sqrt(gamma) * (cmath.exp(1j * p[0]) + cmath.exp(1j * p[1]))
        for p in phase_pairs
    )
    omega_a, omega_b = math.sqrt(2.0) * w_a, math.sqrt(2.0) * w_b
    return SABasisQuantities(
        g_sa=g_sa,
        gamma_s=gamma_s,
        gamma_a_mode=gamma_a_mode,
        gamma_sa=gamma_sa,
        delta_s=mean - g_ab,
        delta_a_mode=mean + g_ab,
        omega_s=(omega_a + omega_b) / math.sqrt(2.0),
        omega_a_mode=(omega_a - omega_b) / math.sqrt(2.0),
    )


def paper_loci(topology: Topology, phi: float, gamma: float = 1.0) -> Loci:
    """Published detunings of the R = 1 peaks and the R = 0 minimum.

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


def lambda_reference(
    delta_p: float,
    delta_c: float,
    omega_c: float,
    gamma_20: float,
    gamma_21: float = 0.0,
) -> ScatterPoint:
    """Weak-probe amplitudes of a waveguide-driven three-level Lambda atom.

    Probe on |0> <-> |2| (detuning delta_p, decay gamma_20), control on
    |1> <-> |2| (detuning delta_c, Rabi amplitude omega_c); gamma_21 is the
    excited-to-metastable decay.  With gamma_21 = 0 and the identifications
    g_SA <-> omega_c / 2, Delta_S <-> delta_p - delta_c, Delta_A <-> delta_p,
    Gamma_A <-> gamma_20, this reproduces the collective EIT amplitudes.
    """
    if gamma_20 <= 0.0:
        raise EitPreconditionError(f"gamma_20 must be positive, got {gamma_20}")
    two_photon = delta_p - delta_c
    den = 1j * two_photon * (1j * delta_p - 0.5 * (gamma_20 + gamma_21)) + 0.25 * omega_c**2
    t = (1j * two_photon * (1j * delta_p - 0.5 * gamma_21) + 0.25 * omega_c**2) / den
    r = 0.5j * gamma_20 * two_photon / den
    return _scatter_point(delta_p, t, r)


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
