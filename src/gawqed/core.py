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

:class:`Geometries` holds N configurations as arrays, and
:meth:`Geometries.quantities` computes the eight quantities of all of them,
with the coupling phasors w_a and w_b, as one array expression.  That is the
only place they are computed: :func:`characteristics` is its N = 1 case, and
every kernel downstream reads the fields of its record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Sequence

import numpy as np


class GawqedError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GawqedError):
    """A system configuration violates a structural invariant."""


class TopologyError(GawqedError):
    """The four coupling points do not form a recognised interleaving."""


class QuantityOverflowError(GawqedError):
    """A characteristic quantity exceeds :data:`QUANTITY_LIMIT`: the rates are too large for floats."""


#: the largest magnitude of a characteristic quantity: the one-photon code
#: adds a few of them before it divides by the rate scale
QUANTITY_LIMIT = np.finfo(float).max / 16


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

    ``delta_ab`` = omega_a - omega_b; the atom owning the leftmost coupling
    point must be labelled ``a``.  Its tolerances follow :func:`rate_scale`.
    """

    atom_a: GiantAtom
    atom_b: GiantAtom
    delta_ab: float = 0.0

    def __post_init__(self) -> None:
        if self.atom_a.label != "a" or self.atom_b.label != "b":
            raise ConfigError("atom_a must be labelled 'a' and atom_b 'b'")
        if not math.isfinite(self.delta_ab):
            raise ConfigError("delta_ab must be finite")
        if min(self.atom_b.phases) < min(self.atom_a.phases):
            raise ConfigError(
                "the atom with the leftmost coupling point must be labelled 'a'"
            )


@dataclass(frozen=True)
class CharQuantities:
    """Characteristic quantities (in the units of the rates) and coupling phasors.

    The fields are floats (``w_a``, ``w_b`` complex) for one configuration,
    from :func:`characteristics`, and (N,) arrays for a stack, from
    :meth:`Geometries.quantities`.  w_j = sum_n sqrt(gamma_jn) e^{i theta_jn}
    is atom j's coupling phasor: Gamma_j = |w_j|^2, and ``alpha_j`` is stored
    as twice its argument, so that exp(i alpha_j / 2) is the unit phasor of
    w_j itself.  A plain two-argument arctangent of the double sums would
    leave exp(i alpha_j / 2) ambiguous by a sign; this convention fixes the
    branch that reproduces the reflection amplitude exactly.
    """

    lamb_a: float
    lamb_b: float
    gamma_a: float
    gamma_b: float
    g_ab: float
    gamma_ab: float
    alpha_a: float
    alpha_b: float
    w_a: complex
    w_b: complex


def characteristics(cfg: SystemConfig) -> CharQuantities:
    """Characteristic quantities for the two-atom configuration.

    For each atom: Lamb shift sqrt(gamma_1 gamma_2) sin|theta_2 - theta_1| and
    individual decay Gamma_j = sum over point pairs of
    sqrt(gamma_n gamma_n') cos(theta_n - theta_n').  Across the atoms, each
    pair of points (one per atom) contributes sqrt(gamma_an gamma_bn') times
    sin|dtheta| / 2 to the exchange coupling g_ab and cos(dtheta) to the
    collective decay Gamma_ab, where dtheta is the separation of that pair.
    This is the one-geometry case of :meth:`Geometries.quantities`.
    """
    stack = Geometries.of([cfg]).quantities()
    return CharQuantities(*(getattr(stack, f.name)[0].item() for f in fields(stack)))


@dataclass(frozen=True)
class Geometries:
    """A stack of N configurations as arrays, the input of the stacked kernels.

    ``phases`` and ``rates`` have shape (N, 2, 2), indexed [geometry, atom
    (a, b), point]; ``delta_ab`` has shape (N,).  Every row must be a valid
    :class:`SystemConfig`.  Build it with :meth:`of` from configs;
    ``gawqed.cli._random_draws`` builds it directly, valid by construction.
    Every quantity of the package starts from :meth:`quantities`, one array
    expression over the stack; a one-config entry point is its N = 1 case.
    """

    phases: np.ndarray
    rates: np.ndarray
    delta_ab: np.ndarray

    @classmethod
    def of(cls, cfgs: Sequence[SystemConfig]) -> "Geometries":
        points = np.array(
            [(c.atom_a.phases, c.atom_b.phases, c.atom_a.rates, c.atom_b.rates) for c in cfgs],
            dtype=float,
        )
        return cls(points[:, :2], points[:, 2:], np.array([c.delta_ab for c in cfgs], dtype=float))

    def __len__(self) -> int:
        return len(self.delta_ab)

    def quantities(self) -> CharQuantities:
        """The :class:`CharQuantities` of every geometry, each field an (N,) array.

        The formulas are those of :func:`characteristics`; every term is an
        elementwise function of its own geometry's numbers, so a geometry's
        fields do not depend on the rest of the stack.  Each geometry is
        computed on its rates divided by its :func:`rate_scale` s, which lie
        in [0, 1], so that no product of two rates overflows, and scaled
        back by s (w by sqrt s).  Scaling every rate by
        a power of 4 scales s by the same, and sqrt s by its root, exactly:
        the fields then scale exactly too.  Raises
        :class:`QuantityOverflowError`, naming the first field (in the
        order of :class:`CharQuantities`) that exceeds
        :data:`QUANTITY_LIMIT` in magnitude (or is nan) in some geometry.
        """
        phases = self.phases
        scale = rate_scale(self.rates)[:, None]
        rates = self.rates / scale[..., None]
        roots = np.sqrt(rates)
        # real and imaginary part of w_j / sqrt(scale), [geometry, atom]
        re = np.sum(roots * np.cos(phases), axis=-1)
        im = np.sum(roots * np.sin(phases), axis=-1)
        w = re + 1j * im
        alpha = 2.0 * np.arctan2(im, re)
        spread = np.abs(phases[..., 1] - phases[..., 0])
        separation = (phases[:, 1, None, :] - phases[:, 0, :, None]).reshape(-1, 4)
        # rates near the largest double overflow a quantity: the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            gamma = np.abs(w) ** 2 * scale
            lamb = np.sqrt(rates[..., 0] * rates[..., 1]) * np.sin(spread) * scale
            # the pairs of one point of a and one of b, [geometry, 2 * point of a + point of b]
            root = np.sqrt(rates[:, 0, :, None] * rates[:, 1, None, :]).reshape(-1, 4)
            g_ab = 0.5 * np.sum(root * np.sin(np.abs(separation)), axis=-1) * scale[:, 0]
            gamma_ab = np.sum(root * np.cos(separation), axis=-1) * scale[:, 0]
        w = w * np.sqrt(scale)
        quantities = CharQuantities(
            lamb_a=lamb[:, 0],
            lamb_b=lamb[:, 1],
            gamma_a=gamma[:, 0],
            gamma_b=gamma[:, 1],
            g_ab=g_ab,
            gamma_ab=gamma_ab,
            alpha_a=alpha[:, 0],
            alpha_b=alpha[:, 1],
            w_a=w[:, 0],
            w_b=w[:, 1],
        )
        # w and alpha are finite for finite phases and rates
        if not (np.abs(np.concatenate([lamb.ravel(), gamma.ravel(), g_ab, gamma_ab])) <= QUANTITY_LIMIT).all():
            name = next(f.name for f in fields(quantities) if not (np.abs(getattr(quantities, f.name)) <= QUANTITY_LIMIT).all())
            raise QuantityOverflowError(f"characteristic quantity {name} exceeds {QUANTITY_LIMIT:.3e}: the rates overflow it")
        return quantities


def rate_scale(rates) -> np.ndarray:
    """Largest bare rate of ``rates`` [..., atom, point], one per config, and
    1 for a config without rates: the unit of the characteristic quantities,
    of the master generator and of every "numerically zero" tolerance."""
    rates = np.asarray(rates)
    scale = np.maximum(
        np.maximum(rates[..., 0, 0], rates[..., 0, 1]),
        np.maximum(rates[..., 1, 0], rates[..., 1, 1]),
    )
    return np.where(scale == 0.0, 1.0, scale)


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


#: the points (a1, a2, b1, b2) of each topology, as indices into four phases
#: sorted along the guide
POINT_ORDER = {
    Topology.SEPARATE: (0, 1, 2, 3),
    Topology.BRAIDED: (0, 2, 1, 3),
    Topology.NESTED: (0, 3, 1, 2),
}


def symmetric_config(
    topology: Topology,
    phi: float,
    gamma: float = 1.0,
    delta_ab: float = 0.0,
) -> SystemConfig:
    """Equal-rate, equal-spacing geometry with the leftmost point at phase 0.

    The four points sit at phases (0, phi, 2 phi, 3 phi) and are dealt to
    the atoms by :data:`POINT_ORDER`:

    * separate: a at (0, phi),   b at (2 phi, 3 phi)
    * braided:  a at (0, 2 phi), b at (phi, 3 phi)
    * nested:   a at (0, 3 phi), b at (phi, 2 phi)
    """
    spaced = (0.0, phi, 2.0 * phi, 3.0 * phi)
    a1, a2, b1, b2 = (CouplingPoint(spaced[k], gamma) for k in POINT_ORDER[topology])
    return SystemConfig(GiantAtom("a", (a1, a2)), GiantAtom("b", (b1, b2)), delta_ab=delta_ab)
