"""Shared test helpers."""

import dataclasses
import math
import os
from pathlib import Path

import numpy as np

from gawqed import fano
from gawqed.core import CouplingPoint, Geometries, GiantAtom, SystemConfig, Topology, rate_scale

# CLI tests start ``python -m gawqed.cli``: give those processes the package
# of this checkout too, as ``pythonpath`` in pyproject.toml does for pytest
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def shift_probe_check(monkeypatch, shift):
    """Make the probe check of the Lorentz pairs miss by ``shift(geoms)``,
    one shift per geometry of a stack."""
    exact = fano._amplitude_arrays

    def shifted(geoms, delta, ch=None, modes=None):
        t, r = exact(geoms, delta, ch, modes)
        return t, r + shift(geoms)[:, None]

    monkeypatch.setattr(fano, "_amplitude_arrays", shifted)


def fake_negative_width(monkeypatch, hit):
    """Give both channels a negative width in the geometries of a stack
    where ``hit(geoms)`` holds.  A real width cannot be negative (the decay
    matrix is positive semidefinite): this lowers Gamma_a and Gamma_b by
    ten times the rate scale, past the largest eigenvalue of the matrix."""
    exact = Geometries.quantities

    def quantities(geoms):
        ch = exact(geoms)
        drop = 10.0 * rate_scale(geoms.rates) * hit(geoms)
        return dataclasses.replace(ch, gamma_a=ch.gamma_a - drop, gamma_b=ch.gamma_b - drop)

    monkeypatch.setattr(Geometries, "quantities", quantities)


def random_system(rng: np.random.Generator) -> SystemConfig:
    """One random config, drawn config by config: the scalar reference of
    the stacked draws of ``oracle-check`` (``cli._random_draws``)."""
    kind = (Topology.SEPARATE, Topology.BRAIDED, Topology.NESTED)[int(rng.integers(3))]
    th = np.sort(rng.uniform(0.0, 4.0 * math.pi, 4))
    rates = rng.uniform(0.05, 3.0, 4)
    if kind is Topology.SEPARATE:
        pa, pb = (th[0], th[1]), (th[2], th[3])
    elif kind is Topology.BRAIDED:
        pa, pb = (th[0], th[2]), (th[1], th[3])
    else:
        pa, pb = (th[0], th[3]), (th[1], th[2])
    atom_a = GiantAtom("a", (CouplingPoint(pa[0], rates[0]), CouplingPoint(pa[1], rates[1])))
    atom_b = GiantAtom("b", (CouplingPoint(pb[0], rates[2]), CouplingPoint(pb[1], rates[3])))
    return SystemConfig(atom_a, atom_b, delta_ab=float(rng.uniform(-4.0, 4.0)))


def scalar_draws(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The kinds and doubles of ``count`` configs drawn call by call, each
    ``rng.integers(3)`` and then ``rng.random(10)``: the scalar reference of
    the raw-word draws of ``oracle-check`` (``cli._stream_draws``)."""
    kinds = np.empty(count, dtype=np.intp)
    doubles = np.empty((count, 10))
    for n in range(count):
        kinds[n] = rng.integers(3)
        doubles[n] = rng.random(10)
    return kinds, doubles
