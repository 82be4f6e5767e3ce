"""Per-layer call tracing, installed from outside the package.

Each traced function is replaced by a wrapper under every ``gawqed.*`` module
name bound to it, because the modules import these names directly
(``from .core import characteristics``) and a wrapper on one module alone
would miss the calls made through the others.  Spans are aggregated in
memory per function (calls, inclusive time, time in traced callees) and
read out when the run ends; self time is inclusive time minus the part
covered by traced callees.
"""

from __future__ import annotations

import functools
import sys
import time

#: layer -> (module, traced public functions)
LAYERS = {
    "cli": ("gawqed.cli", ("main", "validate_config", "build_system")),
    "core": ("gawqed.core", ("characteristics", "classify_topology")),
    "scattering": ("gawqed.scattering", ("amplitudes_general", "solve_real_space", "peak_minimum_loci")),
    "fano": ("gawqed.fano", ("lorentz_decompose", "fano_regime", "fano_fit")),
    "eit": ("gawqed.eit", ("classify_eit", "sa_basis", "single_atom_eit_amplitudes",
                           "collective_eit_amplitudes")),
    "lindblad": ("gawqed.lindblad", ("build_liouvillian", "steady_state", "scattering_from_master",
                                     "inelastic_spectrum")),
}

FUNCTIONS = [f"{layer}.{name}" for layer, (_, names) in LAYERS.items() for name in names]


class Tracer:
    """Wraps the functions of :data:`LAYERS`; use as a context manager."""

    def __init__(self) -> None:
        # per function: [calls, inclusive seconds, seconds inside traced callees]
        self.stats = {key: [0, 0.0, 0.0] for key in FUNCTIONS}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stats, stack, clock = self.stats[key], self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += stack.pop()
                if stack:
                    stack[-1] += elapsed

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items()) if name == "gawqed" or name.startswith("gawqed.")]
        for layer, (module_name, names) in LAYERS.items():
            for name in names:
                original = getattr(sys.modules[module_name], name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        """function -> (calls, busy seconds, self seconds)."""
        return {key: (calls, busy, busy - inner) for key, (calls, busy, inner) in self.stats.items()}
