"""Shared test helpers."""

import os
from pathlib import Path

from gawqed import fano
from gawqed.cli import _random_system as random_system  # noqa: F401

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
