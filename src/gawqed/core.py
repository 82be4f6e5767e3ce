"""Domain types and characteristic quantities for two giant atoms on a 1D waveguide.

A "giant" atom couples to the waveguide at two separate points, so the photon
picks up propagation phases between its own coupling points and those of the
other atom.  All geometry is stored directly as phases theta = omega_a * x / v_g
(Markov regime: the phase is evaluated at the atomic frequency), and all rates
are expressed in units of a reference decay rate, so v_g and the absolute
frequency scale never appear explicitly.

Every downstream formula in this package is parameterised by eight
interference-built quantities per configuration:

* ``lamb_a, lamb_b``   -- waveguide-induced frequency (Lamb) shifts,
* ``gamma_a, gamma_b`` -- total relaxation rates into the guide,
* ``g_ab``             -- coherent photon-mediated exchange coupling,
* ``gamma_ab``         -- correlated (collective) decay,
* ``alpha_a, alpha_b`` -- phase factors entering the reflection amplitude.

These are computed by :func:`characteristics`; :class:`Geometries` holds N
configurations as arrays for the stacked kernels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class GawqedError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GawqedError):
    """A system configuration violates a structural invariant."""


class TopologyError(GawqedError):
    """The four coupling points do not form a recognised interleaving."""


class Topology(Enum):
    """Interleaving class of the two atoms' coupling points along the guide."""

    SEPARATE = "separate"  # a1 < a2 <= b1 < b2
    BRAIDED = "braided"    # a1 < b1 < a2 < b2
    NESTED = "nested"      # a1 < b1 <= b2 < a2


@dataclass(frozen=True)
class CouplingPoint:
    """One connection of an atom to the waveguide.

    Parameters
    ----------
    phase_coord : float
        Dimensionless position, omega_a * x / v_g.
    bare_rate : float
        Decay rate through this point alone (>= 0, units of the reference rate).
    """

    phase_coord: float
    bare_rate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.phase_coord):
            raise ConfigError(f"phase_coord must be finite, got {self.phase_coord!r}")
        if not (math.isfinite(self.bare_rate) and self.bare_rate >= 0.0):
            raise ConfigError(f"bare_rate must be finite and >= 0, got {self.bare_rate!r}")


@dataclass(frozen=True)
class GiantAtom:
    """A two-level emitter attached to the guide at two (possibly coincident) points.

    The per-point detuning of the probe from this atom is not stored here: it is
    derived per spectrum point from the sweep variable (see :func:`detunings`).
    """

    label: str
    points: tuple[CouplingPoint, CouplingPoint]

    def __post_init__(self) -> None:
        if self.label not in ("a", "b"):
            raise ConfigError(f"atom label must be 'a' or 'b', got {self.label!r}")
        if len(self.points) != 2:
            raise ConfigError("a giant atom has exactly two coupling points")
        left, right = self.points
        if left.phase_coord > right.phase_coord:
            raise ConfigError(
                f"atom {self.label}: points must be ordered left-to-right "
                f"({left.phase_coord} > {right.phase_coord})"
            )

    @property
    def phases(self) -> tuple[float, float]:
        return (self.points[0].phase_coord, self.points[1].phase_coord)

    @property
    def rates(self) -> tuple[float, float]:
        return (self.points[0].bare_rate, self.points[1].bare_rate)


@dataclass(frozen=True)
class SystemConfig:
    """Two giant atoms on one waveguide.

    ``delta_ab`` is the atomic frequency difference omega_a - omega_b; the atom
    owning the leftmost coupling point must be labelled ``a``.  ``rate_unit`` is
    the reference decay rate gamma that sets the unit for every rate and
    detuning in the package.
    """

    atom_a: GiantAtom
    atom_b: GiantAtom
    delta_ab: float = 0.0
    rate_unit: float = 1.0

    def __post_init__(self) -> None:
        if self.atom_a.label != "a" or self.atom_b.label != "b":
            raise ConfigError("atom_a must be labelled 'a' and atom_b 'b'")
        if not math.isfinite(self.delta_ab):
            raise ConfigError("delta_ab must be finite")
        if not (math.isfinite(self.rate_unit) and self.rate_unit > 0.0):
            raise ConfigError("rate_unit must be finite and > 0")
        if min(self.atom_b.phases) < min(self.atom_a.phases):
            raise ConfigError(
                "the atom with the leftmost coupling point must be labelled 'a'"
            )

    def sorted_points(self) -> list[tuple[float, float, str]]:
        """All four points as (phase, rate, atom label), sorted by position."""
        pts = [(p.phase_coord, p.bare_rate, "a") for p in self.atom_a.points]
        pts += [(p.phase_coord, p.bare_rate, "b") for p in self.atom_b.points]
        pts.sort(key=lambda item: item[0])
        return pts


@dataclass(frozen=True)
class CharQuantities:
    """Characteristic quantities of one configuration (units of ``rate_unit``).

    ``alpha_j`` is stored as twice the argument of the atom's coupling phasor
    w_j = sum_n sqrt(gamma_jn) e^{i theta_jn}, so that exp(i alpha_j / 2) is the
    unit phasor of w_j itself.  A plain two-argument arctangent of the double
    sums would leave exp(i alpha_j / 2) ambiguous by a sign; this convention
    fixes the branch that reproduces the reflection amplitude exactly.
    """

    lamb_a: float
    lamb_b: float
    gamma_a: float
    gamma_b: float
    g_ab: float
    gamma_ab: float
    alpha_a: float
    alpha_b: float


def _phasor(phases, rates) -> complex:
    return sum(math.sqrt(g) * cmath.exp(1j * th) for th, g in zip(phases, rates))


def atom_phasor(atom: GiantAtom) -> complex:
    """Coupling phasor w_j = sum_n sqrt(gamma_jn) exp(i theta_jn).

    |w_j|^2 is the atom's total decay rate Gamma_j and arg(w_j) is half the
    phase factor alpha_j used in the reflection amplitude.
    """
    return _phasor(atom.phases, atom.rates)


def _lamb_shift(phases, rates) -> float:
    (th1, th2), (g1, g2) = phases, rates
    return math.sqrt(g1 * g2) * math.sin(abs(th2 - th1))


def _quantities(phases, rates) -> tuple[CharQuantities, complex, complex]:
    """Characteristic quantities and coupling phasors (w_a, w_b) of one geometry.

    ``phases`` and ``rates`` are ((a1, a2), (b1, b2)).  This is scalar code
    on purpose: libm's atan2, hypot and pow round differently in the last
    bit from numpy's vectorised versions, and every output of the package
    starts from these numbers.
    """
    (pa, pb), (ga, gb) = phases, rates
    w_a, w_b = _phasor(pa, ga), _phasor(pb, gb)
    g_ab = 0.0
    gamma_ab = 0.0
    for tha, ra in zip(pa, ga):
        for thb, rb in zip(pb, gb):
            root = math.sqrt(ra * rb)
            d = thb - tha
            g_ab += 0.5 * root * math.sin(abs(d))
            gamma_ab += root * math.cos(d)
    ch = CharQuantities(
        lamb_a=_lamb_shift(pa, ga),
        lamb_b=_lamb_shift(pb, gb),
        gamma_a=abs(w_a) ** 2,
        gamma_b=abs(w_b) ** 2,
        g_ab=g_ab,
        gamma_ab=gamma_ab,
        alpha_a=2.0 * cmath.phase(w_a),
        alpha_b=2.0 * cmath.phase(w_b),
    )
    return ch, w_a, w_b


def characteristics(cfg: SystemConfig) -> CharQuantities:
    """Characteristic quantities for the two-atom configuration.

    For each atom: Lamb shift sqrt(gamma_1 gamma_2) sin|theta_2 - theta_1| and
    individual decay Gamma_j = sum over point pairs of
    sqrt(gamma_n gamma_n') cos(theta_n - theta_n').  Across the atoms, each
    pair of points (one per atom) contributes sqrt(gamma_an gamma_bn') times
    sin|dtheta| / 2 to the exchange coupling g_ab and cos(dtheta) to the
    collective decay Gamma_ab, where dtheta is the separation of that pair.
    """
    a, b = cfg.atom_a, cfg.atom_b
    return _quantities((a.phases, b.phases), (a.rates, b.rates))[0]


@dataclass(frozen=True)
class Geometries:
    """A stack of N configurations as arrays, the input of the stacked kernels.

    ``phases`` and ``rates`` have shape (N, 2, 2), indexed [geometry, atom
    (a, b), point]; ``delta_ab`` and ``rate_unit`` have shape (N,).  Every
    row must be a valid :class:`SystemConfig`.  Build it with :meth:`of`
    from configs; the random draws of ``oracle-check``
    (``gawqed.cli._random_draws``) build it directly, valid by construction.
    """

    phases: np.ndarray
    rates: np.ndarray
    delta_ab: np.ndarray
    rate_unit: np.ndarray

    @classmethod
    def of(cls, cfgs: Sequence[SystemConfig]) -> "Geometries":
        points = np.array(
            [(c.atom_a.phases, c.atom_b.phases, c.atom_a.rates, c.atom_b.rates) for c in cfgs],
            dtype=float,
        )
        scalars = np.array([(c.delta_ab, c.rate_unit) for c in cfgs], dtype=float)
        return cls(points[:, :2], points[:, 2:], scalars[:, 0], scalars[:, 1])

    def __len__(self) -> int:
        return len(self.delta_ab)

    def __getitem__(self, rows: slice) -> "Geometries":
        """The sub-stack of the geometries ``rows``."""
        return Geometries(self.phases[rows], self.rates[rows], self.delta_ab[rows], self.rate_unit[rows])

    def quantities(self) -> list[tuple[CharQuantities, complex, complex]]:
        """(characteristics, w_a, w_b) of each geometry, in stack order."""
        return [_quantities(p, g) for p, g in zip(self.phases.tolist(), self.rates.tolist())]


def detunings(cfg: SystemConfig, delta_a: float) -> tuple[float, float]:
    """Per-atom probe detunings (Delta_a, Delta_b) for sweep value ``delta_a``.

    Delta_b = Delta_a + delta_ab, since delta_ab = omega_a - omega_b.
    """
    return delta_a, delta_a + cfg.delta_ab


def classify_topology(cfg: SystemConfig) -> Topology:
    """Classify the interleaving of the four coupling points.

    Separate: a1 < a2 <= b1 < b2; braided: a1 < b1 < a2 < b2;
    nested: a1 < b1 <= b2 < a2 (the inner atom may collapse to one point).
    Any other coincidence pattern is rejected.
    """
    if min(cfg.atom_b.phases) < min(cfg.atom_a.phases):
        raise TopologyError("atom b owns the leftmost coupling point")
    a1, a2 = cfg.atom_a.phases
    b1, b2 = cfg.atom_b.phases
    if a1 < a2 <= b1 < b2:
        return Topology.SEPARATE
    if a1 < b1 <= b2 < a2:
        return Topology.NESTED
    if a1 < b1 < a2 < b2:
        return Topology.BRAIDED
    raise TopologyError(
        f"unclassifiable point ordering a=({a1}, {a2}), b=({b1}, {b2})"
    )


def symmetric_config(
    topology: Topology,
    phi: float,
    gamma: float = 1.0,
    delta_ab: float = 0.0,
) -> SystemConfig:
    """Equal-rate, equal-spacing geometry with the leftmost point at phase 0.

    The four points sit at phases (0, phi, 2 phi, 3 phi) and are assigned to
    the atoms according to the topology:

    * separate: a at (0, phi),   b at (2 phi, 3 phi)
    * braided:  a at (0, 2 phi), b at (phi, 3 phi)
    * nested:   a at (0, 3 phi), b at (phi, 2 phi)
    """
    if topology is Topology.SEPARATE:
        pa, pb = (0.0, phi), (2.0 * phi, 3.0 * phi)
    elif topology is Topology.BRAIDED:
        pa, pb = (0.0, 2.0 * phi), (phi, 3.0 * phi)
    elif topology is Topology.NESTED:
        pa, pb = (0.0, 3.0 * phi), (phi, 2.0 * phi)
    else:  # pragma: no cover - Enum is closed
        raise TopologyError(f"unknown topology {topology!r}")
    atom_a = GiantAtom("a", (CouplingPoint(pa[0], gamma), CouplingPoint(pa[1], gamma)))
    atom_b = GiantAtom("b", (CouplingPoint(pb[0], gamma), CouplingPoint(pb[1], gamma)))
    return SystemConfig(atom_a=atom_a, atom_b=atom_b, delta_ab=delta_ab)
