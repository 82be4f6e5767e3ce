"""Shared test helpers."""

import math
import os
from pathlib import Path

import numpy as np

from gawqed import fano
from gawqed.core import CouplingPoint, GiantAtom, SystemConfig, Topology

# CLI tests start ``python -m gawqed.cli``: give those processes the package
# of this checkout too, as ``pythonpath`` in pyproject.toml does for pytest
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def shift_probe_check(monkeypatch, shift):
    """Make the probe check of the Lorentz pairs miss by ``shift(geoms)``,
    one shift per geometry of a stack."""
    exact = fano._amplitude_arrays

    def shifted(geoms, delta, columns=None):
        t, r = exact(geoms, delta, columns)
        return t, r + shift(geoms)[:, None]

    monkeypatch.setattr(fano, "_amplitude_arrays", shifted)


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
