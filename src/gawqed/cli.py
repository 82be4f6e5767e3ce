"""Command-line interface: config ingestion, sweep orchestration, output.

Configurations are JSON documents holding either two explicit atoms (two
coupling points each, as ``{"phase": ..., "rate": ...}``) or a ``symmetric``
shortcut (topology, phi, gamma) that expands to the canonical four-point
geometry.  A sweep over ``delta_a`` builds its config once and evaluates
the whole grid in one array call.  The ``spectrum`` and ``characteristics``
``phi`` sweeps expand the symmetric shortcut at every grid point and
evaluate the configs as one stack; ``fano`` decomposes its spacings in
stacks of 128, and ``loci`` still evaluates one config per grid point.
``oracle-check`` draws its random configs straight into stacked geometry
arrays, 128 at a time, without building a config object, and evaluates the
closed form and the real-space solve on each block as one stack.  Rows are
always written in grid order, so output files are deterministic; JSON
tables are written by json's C encoder, byte for byte as ``json.dump``
with ``indent=2`` writes them.
``--jobs`` is accepted for compatibility and ignored.

Exit codes: 0 success, 2 config/usage violation, 3 numerical failure from a
module (error forwarded verbatim), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import eit, fano, lindblad
from .core import (
    ConfigError,
    CouplingPoint,
    GawqedError,
    Geometries,
    GiantAtom,
    SystemConfig,
    Topology,
    characteristics,
    classify_topology,
    symmetric_config,
)
from .scattering import (
    _amplitude_arrays,
    _real_space_arrays,
    peak_minimum_loci,
)

DEFAULT_ORACLE_TOL = 1e-10

#: geometries evaluated together as one stack by ``oracle-check`` and the
#: ``fano`` phi sweep (each geometry of an ``oracle-check`` block holds ~6 kB
#: of arrays while the block is solved; blocks bound the peak memory)
STACK_BLOCK = 128

COMMANDS = (
    "characteristics",
    "spectrum",
    "loci",
    "fano",
    "eit-classify",
    "eit-spectrum",
    "master-sweep",
    "inelastic-spectrum",
    "oracle-check",
)

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

#: sweep variables each command accepts (None = runs without a sweep)
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


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int

    def __post_init__(self) -> None:
        if self.points < 2:
            raise ConfigError("sweep needs at least 2 points")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("sweep start and stop must be finite")
        if not self.start < self.stop:
            raise ConfigError("sweep start must be below stop")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class RunSpec:
    config_path: str | None
    command: str
    sweep: SweepSpec | None
    out_path: str | None
    fmt: str


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
    each section, then types and bounds (bools are not numbers).  Messages
    use the wording of JSON Schema validators.
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
            if CONFIG_NUMBERS[key] == ">= 0" and value < 0:
                raise _violation(f"{value!r} is less than the minimum of 0")
            if CONFIG_NUMBERS[key] == "> 0" and value <= 0:
                raise _violation(f"{value!r} is less than or equal to the minimum of 0")


def _phi_sweep_shortcut(raw: dict) -> dict:
    if "symmetric" not in raw:
        raise ConfigError("phi sweeps need the symmetric shortcut in the config")
    return raw["symmetric"]


def build_system(raw: dict, phi_override: float | None = None) -> SystemConfig:
    """SystemConfig from a validated raw config document.

    ``phi_override`` re-expands the symmetric shortcut at a different spacing
    (used by phi sweeps); it is rejected for explicit-geometry configs.  The
    shortcut builds :func:`~gawqed.core.symmetric_config` with the config's
    ``delta_ab``.
    """
    delta_ab = float(raw.get("delta_ab", 0.0))
    if phi_override is None and "symmetric" in raw:
        phi_override = raw["symmetric"]["phi"]
    if phi_override is not None:
        shortcut = _phi_sweep_shortcut(raw)
        return symmetric_config(
            Topology(shortcut["topology"]),
            float(phi_override),
            float(shortcut.get("gamma", 1.0)),
            delta_ab,
        )
    built = []
    for label, spec in zip("ab", raw["atoms"]):
        pts = sorted(spec["points"], key=lambda p: p["phase"])
        built.append(
            GiantAtom(
                label,
                (
                    CouplingPoint(float(pts[0]["phase"]), float(pts[0]["rate"])),
                    CouplingPoint(float(pts[1]["phase"]), float(pts[1]["rate"])),
                ),
            )
        )
    return SystemConfig(atom_a=built[0], atom_b=built[1], delta_ab=delta_ab)


def _phi_geometries(raw: dict, phis: list[float]) -> Geometries:
    """The configs ``build_system(raw, phi)`` for every phi, as one stack."""
    return Geometries.of([build_system(raw, phi_override=phi) for phi in phis])


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


def _amplitude_rows(grid: np.ndarray, t: np.ndarray, r: np.ndarray) -> list[list]:
    columns = (grid, t.real, t.imag, r.real, r.imag, np.abs(t) ** 2, np.abs(r) ** 2)
    return np.column_stack(columns).tolist()


def _characteristic_values(ch) -> list[float]:
    return [ch.lamb_a, ch.lamb_b, ch.gamma_a, ch.gamma_b, ch.g_ab, ch.gamma_ab, ch.alpha_a, ch.alpha_b]


def _loci_row(raw: dict, phi: float) -> list:
    cfg = build_system(raw, phi_override=phi)
    if cfg.delta_ab != 0.0:
        raise ConfigError(
            f"the analytic loci hold for delta_ab = 0 only, got delta_ab={cfg.delta_ab}"
        )
    loci = peak_minimum_loci(
        classify_topology(cfg), phi, cfg.atom_a.points[0].bare_rate
    )
    peaks = list(loci.peaks) + [math.nan] * (2 - len(loci.peaks))
    return [phi, peaks[0], peaks[1], math.nan if loci.minimum is None else loci.minimum]


def _fano_rows(raw: dict, phis: list[float]) -> list[list]:
    """The ``fano`` table, decomposed in stacks of ``STACK_BLOCK`` spacings.

    When a stack fails, its spacings are rerun one by one, so that the error
    of the first failing spacing is raised, naming that spacing.
    """
    rows = []
    for start in range(0, len(phis), STACK_BLOCK):
        block = phis[start:start + STACK_BLOCK]
        geoms = _phi_geometries(raw, block)
        try:
            fields = fano._lorentz_arrays(geoms)
        except fano.DecompositionError:
            for k, phi in enumerate(block):
                try:
                    fano._lorentz_arrays(geoms[k:k + 1])
                except fano.DecompositionError as exc:
                    raise fano.DecompositionError(f"{exc} at phi={phi}") from exc
            raise
        gammas = geoms.rates[:, 0, 0].tolist()
        for phi, gamma, *values in zip(block, gammas, *(field.tolist() for field in fields)):
            pair = fano.LorentzPair(*values)
            regime = fano._pair_regime(pair, gamma)
            q = f_scale = center = width = math.nan
            if regime != "none":
                fit = fano.fano_fit(pair)
                q, f_scale, center, width = fit.q, fit.f_scale, fit.center, fit.width
            rows.append([
                phi, pair.delta_plus, pair.delta_minus, pair.gamma_plus, pair.gamma_minus,
                pair.chi_plus.real, pair.chi_plus.imag, pair.chi_minus.real, pair.chi_minus.imag,
                regime, q, f_scale, center, width,
            ])
    return rows


def _eit_spectrum_rows(cfg: SystemConfig, grid: np.ndarray) -> list[list]:
    verdict = eit.classify_eit(cfg)
    if verdict.scheme is eit.Scheme.SINGLE_ATOM:
        pt = eit.single_atom_eit_amplitudes(cfg, grid)
    elif verdict.scheme is eit.Scheme.COLLECTIVE_SA:
        pt = eit.collective_eit_amplitudes(
            eit.sa_basis(cfg, grid),
            verdict.dark_state,
            delta_a=grid,
            r_phase=cmath.exp(1j * characteristics(cfg).alpha_a),
            rate_unit=cfg.rate_unit,
        )
    else:
        raise eit.EitPreconditionError(
            "configuration supports no EIT scheme; use 'spectrum' instead"
        )
    return _amplitude_rows(grid, pt.t, pt.r)


def _master_rows(raw: dict, grid: np.ndarray) -> list[list]:
    sweep = lindblad.master_sweep(build_system(raw), _drive_from(raw).amplitude_sq, grid)
    columns = (grid, sweep.T, sweep.R, sweep.inelastic_flux, sweep.conservation_residual)
    return np.column_stack(columns).tolist()


#: the topologies ``oracle-check`` draws from, and for each the points
#: (a1, a2, b1, b2) as indices into the four sorted phases
_DRAWN_TOPOLOGIES = (Topology.SEPARATE.value, Topology.BRAIDED.value, Topology.NESTED.value)
_DRAWN_POINTS = np.array([(0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)])


def _uniform(low: float, high: float, u: np.ndarray) -> np.ndarray:
    """``rng.uniform(low, high)`` of the doubles ``u = rng.random()``, bit for bit."""
    return low + (high - low) * u


def _random_draws(rng: np.random.Generator, count: int) -> tuple[Geometries, np.ndarray, list[str]]:
    """``count`` random configs, each with one probe detuning, as one stack.

    Returns the geometries, the detunings and the topology names.  Each
    config draws its topology, then ten doubles: four phases in [0, 4 pi),
    sorted and dealt to (a1, a2, b1, b2) by the topology, the rates of a1,
    a2, b1 and b2 in [0.05, 3), delta_ab in [-4, 4) and the detuning in
    [-6, 6).  These are the words of the generator's stream, and the values
    bit for bit, that drawing one ``SystemConfig`` after another took.  Every
    row is a valid config with atom a leftmost, so no config is built; the
    drawn topology is the one :func:`~gawqed.core.classify_topology` gives,
    unless two drawn phases tie exactly.
    """
    kinds = np.empty(count, dtype=np.intp)
    u = np.empty((count, 10))
    for n in range(count):
        kinds[n] = rng.integers(3)
        u[n] = rng.random(10)
    sorted_phases = np.sort(_uniform(0.0, 4.0 * math.pi, u[:, :4]))
    phases = np.take_along_axis(sorted_phases, _DRAWN_POINTS[kinds], axis=1)
    geoms = Geometries(
        phases.reshape(count, 2, 2),
        _uniform(0.05, 3.0, u[:, 4:8]).reshape(count, 2, 2),
        _uniform(-4.0, 4.0, u[:, 8]),
        np.ones(count),
    )
    return geoms, _uniform(-6.0, 6.0, u[:, 9]), [_DRAWN_TOPOLOGIES[k] for k in kinds.tolist()]


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------


def run(spec: RunSpec) -> int:
    """Execute a command; returns the process exit status."""
    if spec.command not in COMMANDS:
        raise ConfigError(f"unknown command {spec.command!r}; choose from {COMMANDS}")
    variable = spec.sweep.variable if spec.sweep else None
    if variable not in SWEEP_VARIABLES[spec.command]:
        allowed = sorted(str(v) for v in SWEEP_VARIABLES[spec.command])
        raise ConfigError(
            f"command {spec.command!r} accepts sweep variables {allowed}, got {variable!r}"
        )

    raw = None
    if spec.command != "oracle-check":
        if spec.config_path is None:
            raise ConfigError(f"command {spec.command!r} needs --config")
        raw = _read_config(spec.config_path)

    if spec.command == "oracle-check":
        return _run_oracle_check(spec)
    if spec.command == "eit-classify":
        verdict = eit.classify_eit(build_system(raw))
        payload = {
            "scheme": verdict.scheme.value,
            "dark_state": verdict.dark_state.value,
            "regime": verdict.regime.value,
            "control_strength": verdict.control_strength,
            "bright_width": verdict.bright_width,
            "transparency_delta_a": verdict.transparency_delta_a,
            "note": verdict.note,
        }
        _write_json(spec.out_path, payload)
        return 0

    grid = spec.sweep.grid() if spec.sweep else np.linspace(-6.0, 6.0, 2001)
    phis = [float(p) for p in grid] if variable == "phi" else []
    if spec.command == "spectrum":
        if variable == "phi":
            delta = float(raw.get("drive", {}).get("detuning", 0.0))
            header = ["phi", "re_t", "im_t", "re_r", "im_r", "T", "R"]
            geoms = _phi_geometries(raw, phis)
        else:
            header = ["delta_a", "re_t", "im_t", "re_r", "im_r", "T", "R"]
            geoms, delta = Geometries.of([build_system(raw)]), grid
        rows = _amplitude_rows(grid, *_amplitude_arrays(geoms, delta))
    elif spec.command == "characteristics":
        names = ["lamb_a", "lamb_b", "gamma_a", "gamma_b", "g_ab", "gamma_ab", "alpha_a", "alpha_b"]
        if variable == "phi":
            header = ["phi"] + names
            rows = [
                [phi] + _characteristic_values(ch)
                for phi, (ch, _, _) in zip(phis, _phi_geometries(raw, phis).quantities())
            ]
        else:
            header = names
            rows = [_characteristic_values(characteristics(build_system(raw)))]
    elif spec.command == "loci":
        header = ["phi", "peak_1", "peak_2", "minimum"]
        rows = [_loci_row(raw, phi) for phi in phis]
    elif spec.command == "fano":
        header = [
            "phi", "delta_plus", "delta_minus", "gamma_plus", "gamma_minus",
            "re_chi_plus", "im_chi_plus", "re_chi_minus", "im_chi_minus",
            "regime", "q", "f_scale", "center", "width",
        ]
        rows = _fano_rows(raw, phis)
    elif spec.command == "eit-spectrum":
        header = ["delta_a", "re_t", "im_t", "re_r", "im_r", "T", "R"]
        rows = _eit_spectrum_rows(build_system(raw), grid)
    elif spec.command == "master-sweep":
        header = ["delta_a", "T", "R", "F", "residual"]
        rows = _master_rows(raw, grid)
    elif spec.command == "inelastic-spectrum":
        cfg = build_system(raw)
        result = lindblad.inelastic_spectrum(cfg, _drive_from(raw), grid)
        header = ["nu", "s_transmit", "s_reflect", "s_total"]
        columns = (result.nu, result.s_transmit, result.s_reflect, result.s_total)
        rows = np.column_stack(columns).tolist()
    else:  # pragma: no cover - command list is closed
        raise ConfigError(f"unhandled command {spec.command!r}")

    _write_rows(spec.out_path, spec.fmt, header, rows)
    return 0


def _oracle_deviations(geoms: Geometries, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|t - t_oracle| and |r - r_oracle| of the closed form against the
    real-space solve, geometry by geometry, evaluated as one stack.

    Errors are those of checking geometry after geometry, closed form
    first: when the stack fails, the geometries are rerun one by one, each
    as the one-geometry stack that ``amplitudes_general`` and
    ``solve_real_space`` evaluate, so that the first failing one raises.
    """
    try:
        t, r = _amplitude_arrays(geoms, delta)
        x = _real_space_arrays(geoms, delta)
    except GawqedError:
        for k in range(len(geoms)):
            _amplitude_arrays(geoms[k:k + 1], delta[k:k + 1])
            _real_space_arrays(geoms[k:k + 1], delta[k:k + 1])
        raise
    return np.abs(t - x[:, 3]), np.abs(r - x[:, 4])


def _run_oracle_check(spec: RunSpec) -> int:
    count = spec.sweep.points if spec.sweep else 100
    tol = oracle_tolerance()
    rng = np.random.default_rng(0)
    rows = []
    worst = 0.0
    for start in range(0, count, STACK_BLOCK):
        geoms, delta, names = _random_draws(rng, min(STACK_BLOCK, count - start))
        dev_t, dev_r = _oracle_deviations(geoms, delta)
        # np.maximum, unlike max(), carries a NaN deviation through
        worst = np.maximum(worst, np.max([dev_t, dev_r]))
        indices = range(start, start + len(geoms))
        rows += zip(indices, names, delta.tolist(), dev_t.tolist(), dev_r.tolist())
    worst = float(worst)
    header = ["index", "topology", "delta_a", "dev_t", "dev_r"]
    if spec.fmt == "json":
        fields = {"tolerance": tol, "max_deviation": worst}
        dicts = (dict(zip(header, row)) for row in rows)
        _write_text(spec.out_path, chain(_json_document(fields, dicts), ["\n"]))
    else:
        _write_rows(spec.out_path, "csv", header, rows)
    if not worst < tol:
        raise GawqedError(
            f"oracle deviation {worst:.3e} exceeds tolerance {tol:.3e}"
        )
    return 0


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------


def _read_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validate_config(raw)
    return raw


def _open_out(path: str | None):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _write_text(path: str | None, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` in turn, each as soon as it is made."""
    out, owned = _open_out(path)
    try:
        out.writelines(chunks)
    finally:
        if owned:
            out.close()


def _write_rows(path: str | None, fmt: str, header: list[str], rows: list) -> None:
    if fmt == "json":
        def clean(value):
            if isinstance(value, float) and not math.isfinite(value):
                return None
            return value

        dicts = ({k: clean(v) for k, v in zip(header, row)} for row in rows)
        _write_text(path, chain(_json_rows(dicts), ["\n"]))
    else:
        _write_text(path, chain([",".join(header) + "\n"], _csv_lines(rows)))


def _csv_lines(rows: list) -> Iterator[str]:
    """The CSV lines of ``rows``, formatted by one template for the table.

    A column holding only floats is formatted by "%.17g" (the ``_fmt`` of a
    float); every other column is turned into strings by ``_fmt``.
    """
    columns = list(zip(*rows))
    only_floats = [all(isinstance(v, float) for v in col) for col in columns]
    template = ",".join("%.17g" if f else "%s" for f in only_floats) + "\n"
    cells = [col if f else [_fmt(v) for v in col] for f, col in zip(only_floats, columns)]
    return (template % row for row in zip(*cells))


def _json_rows(rows: Iterable[dict], level: int = 0) -> Iterator[str]:
    """The text of ``json.dumps(list(rows), indent=2)``, in chunks, for flat
    dicts in a list that sits ``level`` containers deep.

    json indents with its pure-Python encoder; this encodes each row with
    the C encoder instead, the line breaks carried by its item separator
    (an encoded string holds no raw newline).
    """
    outer = "\n" + "  " * (level + 1)
    inner = outer + "  "
    encode = json.JSONEncoder(separators=("," + inner, ": ")).encode
    items = ("{" + inner + encode(row)[1:-1] + outer + "}" if row else "{}" for row in rows)
    first = next(items, None)
    if first is None:
        yield "[]"
        return
    yield "[" + outer + first
    for item in items:
        yield "," + outer + item
    yield outer[:-2] + "]"


def _json_document(fields: dict, rows: Iterable[dict]) -> Iterator[str]:
    """The text of ``json.dumps({**fields, "rows": list(rows)}, indent=2)``,
    in chunks, for scalar ``fields`` and flat dicts ``rows``."""
    yield "{" + "".join(f"\n  {json.dumps(key)}: {json.dumps(value)}," for key, value in fields.items())
    yield '\n  "rows": '
    yield from _json_rows(rows, 1)
    yield "\n}"


def _write_json(path: str | None, payload) -> None:
    _write_text(path, [json.dumps(payload, indent=2), "\n"])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parse_sweep(text: str) -> SweepSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError("--sweep must look like VAR:START:STOP:POINTS")
    var, start, stop, points = parts
    try:
        return SweepSpec(var, float(start), float(stop), int(points))
    except ValueError as exc:
        raise ConfigError(f"bad sweep specification {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
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
    fmt = args.format
    if fmt is None:
        fmt = "json" if args.command == "eit-classify" else "csv"
    try:
        sweep = _parse_sweep(args.sweep) if args.sweep else None
        spec = RunSpec(
            config_path=args.config,
            command=args.command,
            sweep=sweep,
            out_path=args.out,
            fmt=fmt,
        )
        return run(spec)
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
