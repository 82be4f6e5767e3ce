"""Shared test helpers."""

import os
from pathlib import Path

from gawqed.cli import _random_system as random_system  # noqa: F401

# CLI tests start ``python -m gawqed.cli``: give those processes the package
# of this checkout too, as ``pythonpath`` in pyproject.toml does for pytest
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
