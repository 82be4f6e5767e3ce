"""Command-line interface: config ingestion, sweep orchestration, output.

Configurations are JSON documents holding either two explicit atoms (two
coupling points each, as ``{"phase": ..., "rate": ...}``) or a ``symmetric``
shortcut (topology, phi, gamma) that expands to the canonical four-point
geometry.  A sweep over ``delta_a`` builds its config once and evaluates
the whole grid in one array call; ``eit-spectrum`` is ``spectrum`` for a
config that ``eit.classify_eit`` gives an EIT, ATS or Boundary verdict.
The ``spectrum``, ``characteristics`` and ``loci`` ``phi`` sweeps stack the
symmetric shortcut's geometry at every grid point and evaluate the stack
in one call; ``fano`` decomposes, classifies and fits its spacings in
stacks of 128, each stack in one call of each kernel.
``oracle-check`` draws its random configs straight into stacked geometry
arrays, 128 at a time and without building a config object, and evaluates
the closed form and the real-space solve on each block as one stack.  The
configs come from the SplitMix64 stream of seed 0, computed in numpy
``uint64`` arithmetic: config n is doubles 11n ... 11n+10, so a block is
computed from its config indices alone and ``numpy.random`` is never
imported.  Rows are always written in grid order, so output files are
deterministic.  Tables are handed to the writers as columns.  CSV floats
are "%.17g": float columns are formatted by the vectorised kernel of
``gawqed._fmt17``, 256 rows at a time, byte for byte as
``format(v, ".17g")`` formats each value, on every platform; other
columns go value by value through ``_fmt``.  JSON text is built
column by column, 64 rows at a time (floats by ``float.__repr__``, null
for a non-finite one; ints by ``int.__repr__``; strings and None by
``json.dumps`` of each distinct value), byte for byte as ``json.dump``
with ``indent=2`` writes the rows.
``--jobs`` is accepted for compatibility and ignored.

Exit codes: 0 success, 2 config/usage violation, 3 numerical failure from a
module (error forwarded verbatim), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict
from itertools import chain

import numpy as np

from . import eit, fano, lindblad
from .core import (
    POINT_ORDER,
    ConfigError,
    CouplingPoint,
    GawqedError,
    Geometries,
    GiantAtom,
    SystemConfig,
    Topology,
    rate_scale,
    symmetric_config,
)
from .scattering import _amplitude_arrays, _loci_arrays, _real_space_arrays

DEFAULT_ORACLE_TOL = 1e-10

#: geometries evaluated together as one stack by ``oracle-check`` and the
#: ``fano`` phi sweep (each geometry of an ``oracle-check`` block holds ~6 kB
#: of arrays while the block is solved; blocks bound the peak memory)
STACK_BLOCK = 128

#: table rows formatted and written together by the CSV writer (the kernel
#: holds ~0.3 kB per value while it formats a block; blocks bound the peak)
CSV_BLOCK = 256

#: table rows encoded and written together by the JSON writer (a block's
#: texts take ~0.6 kB per row until it is joined; a 2000-row oracle-check
#: peaked ~0.2 MB higher with blocks of 256)
JSON_BLOCK = 64

#: per config section: (required keys, optional keys)
CONFIG_KEYS = {
    "config": ((), ("atoms", "delta_ab", "drive", "symmetric")),
    "symmetric": (("topology", "phi"), ("gamma",)),
    "drive": (("alpha_sq",), ("detuning",)),
    "atom": (("points",), ()),
    "point": (("phase", "rate"), ()),
}

#: numeric keys (each name belongs to one section) and their lower bound
CONFIG_NUMBERS = {"delta_ab": None, "phi": None, "gamma": "> 0", "alpha_sq": ">= 0",
                  "detuning": None, "phase": None, "rate": ">= 0"}

TOPOLOGIES = [t.value for t in Topology]

#: the commands, in the order of ``--command``'s choices, and the sweep
#: variables each accepts (None = runs without a sweep)
SWEEP_VARIABLES = {
    "characteristics": {None, "phi"},
    "spectrum": {None, "delta_a", "phi"},
    "loci": {"phi"},
    "fano": {"phi"},
    "eit-classify": {None},
    "eit-spectrum": {None, "delta_a"},
    "master-sweep": {None, "delta_a"},
    "inelastic-spectrum": {"nu"},
    "oracle-check": {None, "delta_a"},
}

COMMANDS = tuple(SWEEP_VARIABLES)


def oracle_tolerance() -> float:
    raw = os.environ.get("GAWQED_TOL")
    if raw is None:
        return DEFAULT_ORACLE_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ConfigError(f"GAWQED_TOL is not a number: {raw!r}") from exc
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"GAWQED_TOL must be finite and > 0, got {raw!r}")
    return tol


def _violation(message: str) -> ConfigError:
    return ConfigError(f"config schema violation: {message}")


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise _violation(f"{value!r} is not of type 'object'")
    return value


def _pair(value) -> list:
    if not isinstance(value, list):
        raise _violation(f"{value!r} is not of type 'array'")
    if len(value) != 2:
        raise _violation(f"{value!r} is too {'short' if len(value) < 2 else 'long'}")
    return value


def _unknown_keys(section: dict, kind: str) -> None:
    required, optional = CONFIG_KEYS[kind]
    extras = sorted(key for key in section if key not in required + optional)
    if extras:
        verb = "was" if len(extras) == 1 else "were"
        raise _violation(
            f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)"
        )


def validate_config(raw) -> None:
    """Raise ConfigError on the first violation of the config format.

    Checks run in a fixed order: unknown top-level keys, exactly one of
    ``atoms``/``symmetric``, required keys in each section, unknown keys in
    each section, then types and bounds (bools are not numbers, and an
    integer must convert to a double).  Messages use the wording of JSON
    Schema validators where they have one.
    """
    _unknown_keys(_object(raw), "config")
    if ("atoms" in raw) == ("symmetric" in raw):
        if "atoms" in raw:
            raise _violation(
                f"{raw!r} is valid under each of {{'required': ['symmetric']}}, {{'required': ['atoms']}}"
            )
        raise _violation(f"{raw!r} is not valid under any of the given schemas")
    sections = [("config", raw)]
    sections += [(kind, _object(raw[kind])) for kind in ("symmetric", "drive") if kind in raw]
    for atom in _pair(raw["atoms"]) if "atoms" in raw else ():
        sections.append(("atom", _object(atom)))
        if "points" in atom:
            sections += [("point", _object(point)) for point in _pair(atom["points"])]
    for kind, section in sections:
        for key in CONFIG_KEYS[kind][0]:
            if key not in section:
                raise _violation(f"{key!r} is a required property")
    for kind, section in sections:
        _unknown_keys(section, kind)
    for _, section in sections:
        for key, value in section.items():
            if key == "topology" and value not in TOPOLOGIES:
                raise _violation(f"{value!r} is not one of {TOPOLOGIES!r}")
            if key not in CONFIG_NUMBERS:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _violation(f"{value!r} is not of type 'number'")
            try:
                float(value)
            except OverflowError:  # an integer beyond the double range
                raise _violation(f"{value!r} does not convert to a finite double") from None
            if CONFIG_NUMBERS[key] == ">= 0" and value < 0:
                raise _violation(f"{value!r} is less than the minimum of 0")
            if CONFIG_NUMBERS[key] == "> 0" and value <= 0:
                raise _violation(f"{value!r} is less than or equal to the minimum of 0")


def _symmetric(raw: dict, phi: float) -> SystemConfig:
    """The symmetric shortcut of a validated raw config, expanded at spacing
    ``phi`` by :func:`~gawqed.core.symmetric_config` with the config's
    ``delta_ab``; a config without the shortcut has no phi to sweep."""
    if "symmetric" not in raw:
        raise ConfigError("phi sweeps need the symmetric shortcut in the config")
    shortcut = raw["symmetric"]
    return symmetric_config(
        Topology(shortcut["topology"]),
        float(phi),
        float(shortcut.get("gamma", 1.0)),
        float(raw.get("delta_ab", 0.0)),
    )


def build_system(raw: dict) -> SystemConfig:
    """SystemConfig from a validated raw config document."""
    if "symmetric" in raw:
        return _symmetric(raw, raw["symmetric"]["phi"])
    atoms = []
    for label, spec in zip("ab", raw["atoms"]):
        points = sorted(spec["points"], key=lambda p: p["phase"])
        atoms.append(GiantAtom(label, tuple(CouplingPoint(float(p["phase"]), float(p["rate"])) for p in points)))
    return SystemConfig(*atoms, float(raw.get("delta_ab", 0.0)))


def _phi_geometries(raw: dict, phis: list[float]) -> Geometries:
    """The configs ``_symmetric(raw, phi)`` for every phi, as one stack.

    The phases phi (0, 1, 2, 3) are dealt to the points by
    :data:`~gawqed.core.POINT_ORDER`, without a config per spacing.  Only
    the phases differ between spacings, and they form a valid config for
    every finite phi >= 0; so the configs of the first spacing and of the
    first other one raise the error of the first invalid spacing.
    """
    spacings = np.array(phis, dtype=float)
    with np.errstate(over="ignore"):
        spaced = spacings[:, None] * np.arange(4.0)
    spaced[:, 0] = 0.0
    invalid = ~((spacings >= 0.0) & np.isfinite(spaced).all(axis=1))
    for k in sorted({0, int(np.argmax(invalid))}):
        _symmetric(raw, phis[k])
    shortcut = raw["symmetric"]
    order = POINT_ORDER[Topology(shortcut["topology"])]
    return Geometries(
        spaced[:, order].reshape(-1, 2, 2),
        np.full((len(phis), 2, 2), float(shortcut.get("gamma", 1.0))),
        np.full(len(phis), float(raw.get("delta_ab", 0.0))),
    )


def _drive_from(raw: dict) -> lindblad.DriveSpec:
    drive = raw.get("drive")
    if drive is None:
        raise ConfigError("this command needs a 'drive' entry in the config")
    return lindblad.DriveSpec(
        amplitude_sq=float(drive["alpha_sq"]),
        frequency_detuning=float(drive.get("detuning", 0.0)),
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------


def _fano_columns(raw: dict, phis: list[float]) -> list:
    """The ``fano`` table after its phi column, decomposed and fitted in
    stacks of ``STACK_BLOCK`` spacings.

    A failing stack raises the error of its first failing spacing
    (:func:`~gawqed.fano._lorentz_arrays`), which this names.
    """
    blocks = []
    for start in range(0, len(phis), STACK_BLOCK):
        block = phis[start:start + STACK_BLOCK]
        geoms = _phi_geometries(raw, block)
        try:
            fields = fano._lorentz_arrays(geoms)
        except fano.DecompositionError as exc:
            raise fano.DecompositionError(f"{exc} at phi={block[exc.row]}") from exc
        blocks.append((*fields, *fano._fano_arrays(fields, rate_scale(geoms.rates))))
    d_plus, d_minus, g_plus, g_minus, chi_plus, chi_minus, *fit = map(np.concatenate, zip(*blocks))
    return [
        d_plus, d_minus, g_plus, g_minus,
        chi_plus.real, chi_plus.imag, chi_minus.real, chi_minus.imag, *fit,
    ]


#: the topologies ``oracle-check`` draws from, and for each the points
#: (a1, a2, b1, b2) as indices into the four sorted phases
_DRAWN_TOPOLOGIES = tuple(topology.value for topology in POINT_ORDER)
_DRAWN_POINTS = np.array(list(POINT_ORDER.values()))


def _stream_doubles(first: int, count: int) -> np.ndarray:
    """Doubles ``first`` ... ``first + count - 1`` of the SplitMix64 stream
    (S. Vigna, public domain) of seed 0, in [0, 1).

    Double k is the top 53 bits of mix((k + 1) gamma mod 2^64), times 2^-53,
    gamma = 0x9E3779B97F4A7C15.  The ``uint64`` array arithmetic wraps
    modulo 2^64 without a warning.
    """
    z = (np.arange(count, dtype=np.uint64) + np.uint64(first + 1)) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _uniform(low: float, high: float, u: np.ndarray) -> np.ndarray:
    """The doubles ``u`` in [0, 1) scaled to [low, high)."""
    return low + (high - low) * u


def _random_draws(start: int, count: int) -> tuple[Geometries, np.ndarray, list[str]]:
    """Configs ``start`` ... ``start + count - 1`` of ``oracle-check``, each
    with one probe detuning, as one stack.

    Returns the geometries, the detunings and the topology names.  Config n
    is doubles 11n ... 11n+10 of the SplitMix64 stream of seed 0, so it
    does not depend on how the configs are split into blocks.  Its first
    double u gives the topology, the integer part of 3 u; the other ten
    give four phases in [0, 4 pi), sorted and dealt to (a1, a2, b1, b2) by
    the topology, the rates of a1, a2, b1 and b2 in [0.05, 3), delta_ab in
    [-4, 4) and the detuning in [-6, 6).  Every row is a valid config with
    atom a leftmost, so no config is built; the drawn topology is the one
    :func:`~gawqed.core.classify_topology` gives, unless two phases tie.
    """
    u = _stream_doubles(11 * start, 11 * count).reshape(count, 11)
    kinds = (3.0 * u[:, 0]).astype(np.intp)
    sorted_phases = np.sort(_uniform(0.0, 4.0 * math.pi, u[:, 1:5]))
    phases = np.take_along_axis(sorted_phases, _DRAWN_POINTS[kinds], axis=1)
    geoms = Geometries(
        phases.reshape(count, 2, 2),
        _uniform(0.05, 3.0, u[:, 5:9]).reshape(count, 2, 2),
        _uniform(-4.0, 4.0, u[:, 9]),
    )
    return geoms, _uniform(-6.0, 6.0, u[:, 10]), [_DRAWN_TOPOLOGIES[k] for k in kinds.tolist()]


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------


def run(command: str, config_path: str | None, sweep: str | None, out_path: str | None,
        fmt: str | None) -> int:
    """Execute ``command``; returns the process exit status.

    The usage checks run in this order: the ``--sweep`` text, the sweep
    variable, the format, then ``--config``.  Every table leads with its
    sweep variable (``delta_a`` without a sweep), except ``characteristics``
    without a sweep, which has no grid.
    """
    variable, grid = _parse_sweep(sweep) if sweep else (None, None)
    if variable not in SWEEP_VARIABLES[command]:
        allowed = sorted(str(v) for v in SWEEP_VARIABLES[command])
        raise ConfigError(f"command {command!r} accepts sweep variables {allowed}, got {variable!r}")
    fmt = fmt or ("json" if command == "eit-classify" else "csv")
    if command == "eit-classify" and fmt != "json":
        raise ConfigError(f"command 'eit-classify' writes json only, got --format {fmt}")
    if command == "oracle-check":
        return _run_oracle_check(100 if grid is None else len(grid), out_path, fmt)
    if config_path is None:
        raise ConfigError(f"command {command!r} needs --config")
    raw = _read_config(config_path)

    if command == "eit-classify":
        verdict = eit.classify_eit(build_system(raw))
        payload = {name: getattr(value, "value", value) for name, value in asdict(verdict).items()}
        _write_text(out_path, [json.dumps(payload, indent=2), "\n"])
        return 0

    if grid is None:
        grid = np.linspace(-6.0, 6.0, 2001)
    phis = grid.tolist() if variable == "phi" else None
    if command in ("spectrum", "eit-spectrum"):
        if phis:
            delta = _drive_from(raw).frequency_detuning if "drive" in raw else 0.0
            geoms = _phi_geometries(raw, phis)
        else:
            cfg = build_system(raw)
            verdict = eit.classify_eit(cfg) if command == "eit-spectrum" else None
            if verdict is not None and verdict.regime is eit.Regime.NOT_APPLICABLE:
                raise eit.EitPreconditionError(
                    verdict.note or "configuration supports no EIT scheme; use 'spectrum' instead"
                )
            geoms, delta = Geometries.of([cfg]), grid
        t, r = _amplitude_arrays(geoms, delta)
        names = ["re_t", "im_t", "re_r", "im_r", "T", "R"]
        columns = [t.real, t.imag, r.real, r.imag, np.abs(t) ** 2, np.abs(r) ** 2]
    elif command == "characteristics":
        names = ["lamb_a", "lamb_b", "gamma_a", "gamma_b", "g_ab", "gamma_ab", "alpha_a", "alpha_b"]
        geoms = _phi_geometries(raw, phis) if phis else Geometries.of([build_system(raw)])
        ch = geoms.quantities()
        columns = [getattr(ch, name) for name in names]
    elif command == "loci":
        names, columns = ["peak_1", "peak_2", "minimum"], _loci_arrays(_phi_geometries(raw, phis))
    elif command == "fano":
        names = [
            "delta_plus", "delta_minus", "gamma_plus", "gamma_minus",
            "re_chi_plus", "im_chi_plus", "re_chi_minus", "im_chi_minus",
            "regime", "q", "f_scale", "center", "width",
        ]
        columns = _fano_columns(raw, phis)
    elif command == "master-sweep":
        result = lindblad.master_sweep(build_system(raw), _drive_from(raw).amplitude_sq, grid)
        names = ["T", "R", "F", "residual"]
        columns = [result.T, result.R, result.inelastic_flux, result.conservation_residual]
    else:
        result = lindblad.inelastic_spectrum(build_system(raw), _drive_from(raw), grid)
        names = ["s_transmit", "s_reflect", "s_total"]
        columns = [result.s_transmit, result.s_reflect, result.s_total]

    if variable or command != "characteristics":
        names, columns = [variable or "delta_a", *names], [grid, *columns]
    _write_rows(out_path, fmt, names, columns)
    return 0


def _oracle_deviations(geoms: Geometries, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|t - t_oracle| and |r - r_oracle| of the closed form against the
    real-space solve, geometry by geometry, evaluated as one stack.

    The real-space solve raises the error of the first failing geometry in
    stack order.  The closed form raises only on overflowing rates, which
    the drawn rates in [0.05, 3) cannot reach.
    """
    t, r = _amplitude_arrays(geoms, delta)
    x = _real_space_arrays(geoms, delta)
    return np.abs(t - x[:, 3]), np.abs(r - x[:, 4])


def _run_oracle_check(count: int, out_path: str | None, fmt: str) -> int:
    tol = oracle_tolerance()
    names, blocks = [], []
    for start in range(0, count, STACK_BLOCK):
        geoms, delta, drawn = _random_draws(start, min(STACK_BLOCK, count - start))
        names += drawn
        blocks.append((delta, *_oracle_deviations(geoms, delta)))
    delta, dev_t, dev_r = map(np.concatenate, zip(*blocks))
    # np.max, unlike max(), carries a NaN deviation through
    worst = float(np.max([dev_t, dev_r]))
    header = ["index", "topology", "delta_a", "dev_t", "dev_r"]
    columns = [range(count), names, delta, dev_t, dev_r]
    if fmt == "json":
        fields = {"tolerance": tol, "max_deviation": worst}
        _write_text(out_path, chain(_json_document(fields, header, columns), ["\n"]))
    else:
        _write_rows(out_path, fmt, header, columns)
    if not worst < tol:
        raise GawqedError(f"oracle deviation {worst:.3e} exceeds tolerance {tol:.3e}")
    return 0


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------


def _read_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validate_config(raw)
    return raw


def _write_text(path: str | None, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` in turn to ``path`` (stdout if None), each
    as soon as it is made."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.writelines(chunks)


def _write_rows(path: str | None, fmt: str, header: list[str], columns: list) -> None:
    """Write the table ``columns`` (one sequence per name of ``header``)."""
    if fmt == "json":
        _write_text(path, chain(_json_rows(header, columns), ["\n"]))
    else:
        _write_text(path, chain([",".join(header) + "\n"], _csv_blocks(columns)))


def _csv_blocks(columns: list) -> Iterator[str]:
    """The CSV lines of the table ``columns``, ``CSV_BLOCK`` rows per chunk.

    A float64 array column is formatted by the "%.17g" kernel
    (:func:`gawqed._fmt17.cells`); every other column value by value by
    ``_fmt``.  Either way a float is written as ``_fmt`` writes it.
    """
    # imported here, not at the top: a CLI process that writes no CSV (and
    # every set-up interpreter) need not compile the kernel
    from . import _fmt17

    floats = [isinstance(col, np.ndarray) and col.dtype == np.float64 for col in columns]
    for start in range(0, len(columns[0]), CSV_BLOCK):
        block = [col[start:start + CSV_BLOCK] for col in columns]
        values = np.empty((len(block[0]), sum(floats)))
        for k, col in enumerate(col for col, f in zip(block, floats) if f):
            values[:, k] = col
        table = cells = _fmt17.cells(values)
        texts = {j: np.array([_fmt(v).encode() for v in col])
                 for j, col in enumerate(block) if not floats[j]}
        if texts:
            width = max([_fmt17.WIDTH] + [text.itemsize + 1 for text in texts.values()])
            table = np.zeros((len(values), len(block), width), np.uint8)
            table[:, floats, :_fmt17.WIDTH] = cells
            for j, text in texts.items():
                table[:, j, :text.itemsize] = text.view(np.uint8).reshape(len(text), text.itemsize)
        table[:, :, -1] = ord(",")
        table[:, -1, -1] = ord("\n")
        yield table[table != 0].tobytes().decode()


def _json_texts(column) -> list[str]:
    """The JSON text of each value of ``column``, null for a float that is
    not finite (JSON has no NaN), as ``json.dumps`` writes each value.

    A float column is written by ``float.__repr__`` with one ``np.isfinite``
    over it, an int column by ``int.__repr__``, a column of strings and
    None by ``json.dumps`` of each distinct value; a column of any other
    mix value by value."""
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    kinds = set(map(type, values))
    if kinds == {float}:
        texts = list(map(float.__repr__, values))
        for k in np.flatnonzero(~np.isfinite(values)).tolist():
            texts[k] = "null"
        return texts
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds <= {str, type(None)}:
        encoded = {value: json.dumps(value) for value in set(values)}
        return [encoded[value] for value in values]
    return [json.dumps(None if isinstance(v, float) and not math.isfinite(v) else v) for v in values]


def _json_rows(header: list[str], columns: list, level: int = 0) -> Iterator[str]:
    """The text of ``json.dumps(rows, indent=2)``, in chunks of ``JSON_BLOCK``
    rows, for the rows of the table ``columns`` as dicts keyed by
    ``header``, in a list that sits ``level`` containers deep; each value
    as :func:`_json_texts` writes it."""
    outer = "\n" + "  " * (level + 1)
    inner = outer + "  "
    keys = ("," + inner).join(json.dumps(key).replace("%", "%%") + ": %s" for key in header)
    row = "{" + inner + keys + outer + "}"
    count = len(columns[0]) if columns else 0
    for start in range(0, count, JSON_BLOCK):
        texts = [_json_texts(col[start:start + JSON_BLOCK]) for col in columns]
        yield ("," if start else "[") + outer + ("," + outer).join(map(row.__mod__, zip(*texts)))
    yield outer[:-2] + "]" if count else "[]"


def _json_document(fields: dict, header: list[str], columns: list) -> Iterator[str]:
    """The text of ``json.dumps({**fields, "rows": rows}, indent=2)``, in
    chunks, for scalar ``fields`` and the table of :func:`_json_rows`."""
    texts = _json_texts(list(fields.values()))
    yield "{" + "".join(f"\n  {json.dumps(key)}: {text}," for key, text in zip(fields, texts))
    yield '\n  "rows": '
    yield from _json_rows(header, columns, 1)
    yield "\n}"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parse_sweep(text: str) -> tuple[str, np.ndarray]:
    """The variable and grid of ``--sweep VAR:START:STOP:POINTS``."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError("--sweep must look like VAR:START:STOP:POINTS")
    variable, start, stop, points = parts
    try:
        start, stop, points = float(start), float(stop), int(points)
    except ValueError as exc:
        raise ConfigError(f"bad sweep specification {text!r}: {exc}") from exc
    if points < 2:
        raise ConfigError("sweep needs at least 2 points")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError("sweep start and stop must be finite")
    if not math.isfinite(stop - start):
        raise ConfigError("sweep span stop - start must be finite")
    if not start < stop:
        raise ConfigError("sweep start must be below stop")
    too_large = ConfigError(f"sweep of {points} points does not fit in memory")
    # numpy holds no array of more than sys.maxsize bytes
    if points > sys.maxsize // 8:
        raise too_large
    try:
        return variable, np.linspace(start, stop, points)
    except MemoryError as exc:
        raise too_large from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="gawqed",
        description="Single-photon scattering and EIT analysis for two giant atoms "
        "coupled to a 1D waveguide.",
    )
    parser.add_argument("--config", help="path to the JSON system configuration")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--sweep", help="sweep grid VAR:START:STOP:POINTS")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility and ignored: every sweep runs in this process",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args.command, args.config, args.sweep, args.out, args.format)
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    except GawqedError as exc:
        _emit_error(type(exc).__name__, exc)
        return 3
    except OSError as exc:
        _emit_error("io", exc)
        return 4


def _emit_error(kind: str, exc: Exception) -> None:
    json.dump({"error": kind, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
