"""Shared test helpers."""

from gawqed.cli import _random_system as random_system  # noqa: F401
