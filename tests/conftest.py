"""Shared test helpers."""

import dataclasses
import math
import os
from pathlib import Path

import numpy as np

from gawqed import fano
from gawqed.core import CouplingPoint, Geometries, GiantAtom, SystemConfig, rate_scale

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
    """One random config: a topology, four sorted phases in [0, 4 pi) dealt
    to the points by it, four rates in [0.05, 3) and delta_ab in [-4, 4)."""
    kind = int(rng.integers(3))
    th = np.sort(rng.uniform(0.0, 4.0 * math.pi, 4))
    return dealt_config(kind, th.tolist(), rng.uniform(0.05, 3.0, 4).tolist(), float(rng.uniform(-4.0, 4.0)))


def splitmix64(seed: int, k: int) -> int:
    """Output k of the SplitMix64 stream of ``seed``, in Python integers."""
    mask = 2**64 - 1
    z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def oracle_draw(n: int) -> tuple[SystemConfig, float]:
    """Config n of ``oracle-check`` and its probe detuning, from doubles
    11n ... 11n+10 of the SplitMix64 stream of seed 0 (double k is output k
    shifted to its top 53 bits, times 2^-53): the scalar reference of the
    stacked draws (``cli._random_draws``)."""
    u = [(splitmix64(0, k) >> 11) * 2.0**-53 for k in range(11 * n, 11 * n + 11)]

    def uniform(low, high, x):
        return low + (high - low) * x

    th = sorted(uniform(0.0, 4.0 * math.pi, x) for x in u[1:5])
    rates = [uniform(0.05, 3.0, x) for x in u[5:9]]
    return dealt_config(int(3.0 * u[0]), th, rates, uniform(-4.0, 4.0, u[9])), uniform(-6.0, 6.0, u[10])


def dealt_config(kind: int, th: list[float], rates: list[float], delta_ab: float) -> SystemConfig:
    """The separate (kind 0), braided (1) or nested (2) config of the sorted
    phases ``th``, with the rates of a1, a2, b1 and b2."""
    if kind == 0:
        pa, pb = (th[0], th[1]), (th[2], th[3])
    elif kind == 1:
        pa, pb = (th[0], th[2]), (th[1], th[3])
    else:
        pa, pb = (th[0], th[3]), (th[1], th[2])
    atom_a = GiantAtom("a", (CouplingPoint(pa[0], rates[0]), CouplingPoint(pa[1], rates[1])))
    atom_b = GiantAtom("b", (CouplingPoint(pb[0], rates[2]), CouplingPoint(pb[1], rates[3])))
    return SystemConfig(atom_a, atom_b, delta_ab=delta_ab)


def wide_span_config(k: int, mirrored: bool = False) -> SystemConfig:
    """The separate config with atom a at phases (0, 1), atom b at (2, 3),
    delta_ab = 0 and unit rates but one of 10^k, on b2, or on a1 if
    ``mirrored``: the rates span k decades."""
    rates = [10.0**k, 1.0, 1.0, 1.0] if mirrored else [1.0, 1.0, 1.0, 10.0**k]
    return dealt_config(0, [0.0, 1.0, 2.0, 3.0], rates, 0.0)
