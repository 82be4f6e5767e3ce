import contextlib
import copy
import dataclasses
import importlib.util
import io
import itertools
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jsonschema
import mpmath

from gawqed import (
    CouplingPoint,
    GiantAtom,
    Loci,
    SystemConfig,
    Topology,
    amplitudes_general,
    characteristics,
    classify_eit,
    classify_topology,
    lorentz_pair,
    peak_minimum_loci,
    solve_real_space,
)
from gawqed import _fmt17, cli, fano
from gawqed.cli import build_system, main, validate_config
from gawqed.core import ConfigError, Geometries, symmetric_config
from gawqed.eit import EitVerdict
from gawqed.scattering import OracleSingularError

from conftest import (
    fake_negative_width,
    oracle_draw,
    random_system,
    shift_probe_check,
    splitmix64,
    wide_span_config,
)

#: the config format as a JSON Schema: the oracle for ``validate_config``
CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "atoms": {
            "type": "array",
            "minItems": 2,
            "maxItems": 2,
            "items": {
                "type": "object",
                "properties": {
                    "points": {
                        "type": "array",
                        "minItems": 2,
                        "maxItems": 2,
                        "items": {
                            "type": "object",
                            "properties": {
                                "phase": {"type": "number"},
                                "rate": {"type": "number", "minimum": 0},
                            },
                            "required": ["phase", "rate"],
                            "additionalProperties": False,
                        },
                    }
                },
                "required": ["points"],
                "additionalProperties": False,
            },
        },
        "delta_ab": {"type": "number"},
        "drive": {
            "type": "object",
            "properties": {
                "alpha_sq": {"type": "number", "minimum": 0},
                "detuning": {"type": "number"},
            },
            "required": ["alpha_sq"],
            "additionalProperties": False,
        },
        "symmetric": {
            "type": "object",
            "properties": {
                "topology": {"enum": ["separate", "braided", "nested"]},
                "phi": {"type": "number"},
                "gamma": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["topology", "phi"],
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
    "oneOf": [{"required": ["atoms"]}, {"required": ["symmetric"]}],
}

#: valid configs the agreement test mutates
VALID_CONFIGS = [
    {
        "symmetric": {"topology": "separate", "phi": 1.0, "gamma": 2.0},
        "delta_ab": 0.5,
        "drive": {"alpha_sq": 0.04, "detuning": 0.1},
    },
    {
        "atoms": [
            {"points": [{"phase": 0.0, "rate": 1.0}, {"phase": 1.0, "rate": 2.0}]},
            {"points": [{"phase": 2.0, "rate": 1.5}, {"phase": 3.0, "rate": 0}]},
        ],
        "delta_ab": -1,
        "drive": {"alpha_sq": 0},
    },
]

MUTANT_VALUES = [None, True, 0, -1, 0.0, -0.5, 2.5, float("nan"), "x", "nested", [], [1, 2], {},
                 {"phase": 0.0, "rate": 1.0}, {"topology": "braided", "phi": 1.0}]
MUTANT_KEYS = ["bogus", "atoms", "symmetric", "drive", "delta_ab", "gamma", "detuning",
               "points", "phase", "rate", "alpha_sq", "topology", "phi"]


def mutate(raw, rng):
    """``raw`` with one value replaced, key or item deleted, key added or item appended."""
    raw = copy.deepcopy(raw)
    containers = [raw]
    for node in containers:
        children = node.values() if isinstance(node, dict) else node
        containers += [c for c in children if isinstance(c, (dict, list))]
    node = containers[int(rng.integers(len(containers)))]
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    value = copy.deepcopy(MUTANT_VALUES[int(rng.integers(len(MUTANT_VALUES)))])
    action = int(rng.integers(4))
    if action == 0 and keys:
        node[keys[int(rng.integers(len(keys)))]] = value
    elif action == 1 and keys:
        del node[keys[int(rng.integers(len(keys)))]]
    elif isinstance(node, dict):
        node[MUTANT_KEYS[int(rng.integers(len(MUTANT_KEYS)))]] = value
    else:
        node.append(copy.deepcopy(node[0]) if node and action == 2 else value)
    return raw


def expand_symmetric(shortcut: dict) -> dict:
    """Expand the symmetric shortcut into an explicit two-atom geometry.

    Points sit at phases (0, phi, 2 phi, 3 phi), all with rate gamma,
    assigned to the atoms per topology with the leftmost point on atom a.
    """
    topology = Topology(shortcut["topology"])
    cfg = symmetric_config(topology, float(shortcut["phi"]), float(shortcut.get("gamma", 1.0)))
    return {
        "atoms": [
            {"points": [{"phase": p.phase_coord, "rate": p.bare_rate} for p in atom.points]}
            for atom in (cfg.atom_a, cfg.atom_b)
        ]
    }


def invoke(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "gawqed.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


#: an integer beyond the double range, which JSON can still write
HUGE = 10**400

#: the configs that test_usage_error_is_one_json_line names in capitals
USAGE_CONFIGS = {
    "EXPLICIT": {"atoms": expand_symmetric({"topology": "nested", "phi": 1.0})["atoms"]},
    "HUGE_PHI": {"symmetric": {"topology": "separate", "phi": HUGE}},
    "HUGE_RATE": {"atoms": [{"points": [{"phase": 0.0, "rate": 1.0}, {"phase": 1.0, "rate": HUGE}]},
                            {"points": [{"phase": 2.0, "rate": 1.0}, {"phase": 3.0, "rate": 1.0}]}]},
    "UNDRIVEN": {"symmetric": {"topology": "separate", "phi": 1.0}},
}

#: config texts that json reads into no Python object, likewise named in capitals
USAGE_TEXTS = {
    "LONG_INT": '{"delta_ab": ' + "1" * 5001 + "}",
    "DEEP_ARRAY": "[" * 100_000,
}


def json_message(text: str) -> str:
    """The usage message of a config ``text`` that json cannot read: its
    error names Python's limits, in words that vary between versions."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return f"config is not valid JSON: {exc}"
    raise AssertionError("json read the text")


@pytest.fixture
def sep_config(tmp_path):
    path = tmp_path / "sep.json"
    path.write_text(
        json.dumps(
            {
                "symmetric": {"topology": "separate", "phi": 0.5 * math.pi},
                "delta_ab": 1.0,
                "drive": {"alpha_sq": 0.04, "detuning": 0.5},
            }
        )
    )
    return str(path)


class TestConfig:
    def test_expand_symmetric_orderings(self):
        phi = 0.3
        got = expand_symmetric({"topology": "separate", "phi": phi})["atoms"]
        assert [p["phase"] for p in got[0]["points"]] == [0.0, phi]
        assert [p["phase"] for p in got[1]["points"]] == [2 * phi, 3 * phi]
        got = expand_symmetric({"topology": "braided", "phi": phi})["atoms"]
        assert [p["phase"] for p in got[0]["points"]] == [0.0, 2 * phi]
        assert [p["phase"] for p in got[1]["points"]] == [phi, 3 * phi]
        got = expand_symmetric({"topology": "nested", "phi": phi})["atoms"]
        assert [p["phase"] for p in got[0]["points"]] == [0.0, 3 * phi]
        assert [p["phase"] for p in got[1]["points"]] == [phi, 2 * phi]

    @pytest.mark.parametrize("topology", ["separate", "braided", "nested"])
    def test_symmetric_matches_expanded_atoms(self, topology):
        for phi in (0.0, 0.3, np.pi / 2, 2.9):
            shortcut = {"topology": topology, "phi": 0.1, "gamma": 1.7}
            explicit = {"atoms": expand_symmetric(dict(shortcut, phi=phi))["atoms"], "delta_ab": -0.4}
            expected = build_system(explicit)
            assert build_system({"symmetric": dict(shortcut, phi=phi), "delta_ab": -0.4}) == expected

    def test_schema_rejects_one_atom(self):
        with pytest.raises(ConfigError):
            validate_config({"atoms": [{"points": [{"phase": 0, "rate": 1}] * 2}]})

    def test_schema_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            validate_config({"symmetric": {"topology": "separate", "phi": 1.0}, "bogus": 1})

    @pytest.mark.parametrize(
        "raw",
        [
            {"symmetric": {"topology": "twisted", "phi": "x"}, "bogus": 1},
            {"delta_ab": "1", "symmetric": {"topology": "nested"}},
            {"drive": {"alpha_sq": -1, "x": 2}},
        ],
        ids=["unknown-key", "missing-phi", "no-geometry"],
    )
    def test_schema_messages_match_jsonschema(self, raw):
        # each config breaks several rules; the one reported is jsonschema's
        # best match, which is not the first error found
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(raw, CONFIG_SCHEMA)
        with pytest.raises(ConfigError) as got:
            validate_config(raw)
        assert str(got.value) == f"config schema violation: {expected.value.message}"

    def test_validator_agrees_with_jsonschema(self):
        rng = np.random.default_rng(5)
        oracle = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
        verdicts = []
        for k in range(3000):
            raw = VALID_CONFIGS[k % 2]
            for _ in range(1 + k % 3):
                raw = mutate(raw, rng)
            valid = oracle.is_valid(raw)
            try:
                validate_config(raw)
                accepted = True
            except ConfigError:
                accepted = False
            assert accepted == valid, raw
            verdicts.append(valid)
        # both outcomes are well represented
        assert min(sum(verdicts), len(verdicts) - sum(verdicts)) >= 100

    def test_import_loads_numpy_alone(self):
        code = "import sys, gawqed.cli; print([m for m in ('jsonschema', 'scipy') if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
        assert [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]

    def test_oracle_check_does_not_import_numpy_random(self, tmp_path):
        code = (
            "import sys\nfrom gawqed.cli import main\n"
            f"code = main(['--command', 'oracle-check', '--sweep', 'delta_a:0:1:300', '--out', {str(tmp_path / 'o.csv')!r}])\n"
            "print(code, 'numpy.random' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 False"
        assert len((tmp_path / "o.csv").read_text().splitlines()) == 301

    def test_build_explicit(self):
        raw = {
            "atoms": [
                {"points": [{"phase": 0.0, "rate": 1.0}, {"phase": 1.0, "rate": 2.0}]},
                {"points": [{"phase": 2.0, "rate": 1.5}, {"phase": 3.0, "rate": 0.5}]},
            ],
            "delta_ab": 0.25,
        }
        validate_config(raw)
        cfg = build_system(raw)
        assert cfg.delta_ab == 0.25
        assert cfg.atom_b.points[1].bare_rate == 0.5

    def test_round_trip_bit_identical(self, tmp_path, sep_config):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rewritten = tmp_path / "rt.json"
        rewritten.write_text(Path(sep_config).read_text())
        args = ["--command", "spectrum", "--sweep", "delta_a:-2:2:41"]
        assert invoke("--config", sep_config, *args, "--out", str(out1)).returncode == 0
        assert invoke("--config", str(rewritten), *args, "--out", str(out2)).returncode == 0
        assert out1.read_text() == out2.read_text()


def csv_reference(header, columns):
    """The CSV text of ``columns`` written value by value by ``cli._fmt``."""
    rows = zip(*(col.tolist() if isinstance(col, np.ndarray) else col for col in columns))
    return ",".join(header) + "\n" + "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)


def json_clean(value):
    """``value`` with null for every float that is not finite, as the JSON
    writers write it."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: json_clean(v) for k, v in value.items()}
    if isinstance(value, list):
        return [json_clean(v) for v in value]
    return value


def json_scalars():
    """Every kind of value a JSON table cell holds: floats with nan, +-inf,
    -0.0 and subnormals, ints, booleans, strings (non-ASCII and escapes) and None."""
    return st.one_of(st.floats(), st.integers(), st.booleans(), st.text(), st.none())


@st.composite
def json_tables(draw):
    """A header of distinct keys and its columns of 0, 1, a few or more than
    ``JSON_BLOCK`` rows, each column a list of one kind or mixed, a float
    array or a range; a long column repeats a few drawn values."""
    count = draw(st.sampled_from([0, 1, 3, cli.JSON_BLOCK + 2]))
    header = draw(st.lists(st.text(), min_size=1, max_size=4, unique=True))
    kinds = {
        "floats": st.floats(),
        "ints": st.integers(),
        "strings": st.one_of(st.text(), st.none()),
        "mixed": json_scalars(),
    }
    columns = []
    for _ in header:
        kind = draw(st.sampled_from([*kinds, "array", "range"]))
        if kind == "range":
            start = draw(st.integers(-(2**70), 2**70))
            columns.append(range(start, start + count))
            continue
        pool = draw(st.lists(kinds.get(kind, st.floats()), min_size=1, max_size=6))
        column = [pool[k % len(pool)] for k in range(count)]
        columns.append(np.array(column, dtype=float) if kind == "array" else column)
    return header, columns


class TestWriter:
    def test_csv_matches_per_value_format(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2)
        powers = np.array([10.0**k for k in range(-300, 301)])
        switches = np.array([1e-5, 1e-4, 1e16, 1e17])  # where "%g" changes notation
        # a tie at the 17th digit, and 1 ulp below the kernel's fast range:
        # both are left to format()
        fallbacks = [1234567890123456.25, np.nextafter(1e-280, 0.0)]
        floats = np.concatenate([
            [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 1 / 3],
            [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers,
            switches, np.nextafter(switches, 0.0), np.nextafter(switches, np.inf),
            np.arange(0, 2**53, 2**53 // 9973), [2.0**53 - 1, 2.0**53],
            (rng.integers(-(2**40), 2**40, 1000) + 0.5) / 2.0 ** rng.integers(0, 60, 1000),
            fallbacks,
            rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64),
        ])
        formatted = []

        def spy(value, spec):
            formatted.append(value)
            return format(value, spec)

        monkeypatch.setattr(_fmt17, "format", spy, raising=False)
        header = ["a", "b"]
        columns = [floats[: len(floats) // 2], floats[len(floats) // 2 :]]
        path = tmp_path / "floats.csv"
        cli._write_rows(str(path), "csv", header, columns)
        assert path.read_bytes() == csv_reference(header, columns).encode()
        assert set(fallbacks) <= set(formatted)

        randoms = rng.normal(scale=1e3, size=cli.CSV_BLOCK + 1)
        # columns: floats only, ints, strings, None, one non-float among floats
        mixed = [
            np.concatenate([floats[:20], randoms[20:]]),
            list(range(len(randoms))),
            [f"s{k}" for k in range(len(randoms))],
            [None] * len(randoms),
            ["x" if k == 5 else x for k, x in enumerate(randoms.tolist())],
        ]
        header = ["a", "b", "c", "d", "e"]
        for count in (0, 1, cli.CSV_BLOCK - 1, cli.CSV_BLOCK, cli.CSV_BLOCK + 1):
            for columns in ([col[:count] for col in mixed], [mixed[0][:count]]):
                path = tmp_path / "rows.csv"
                cli._write_rows(str(path), "csv", header[:len(columns)], columns)
                assert path.read_bytes() == csv_reference(header[:len(columns)], columns).encode()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_kernel_matches_format_property(self, values):
        cells = _fmt17.cells(np.array(values)).reshape(-1, _fmt17.WIDTH)
        assert [bytes(cell[cell != 0]).decode() for cell in cells] == [format(v, ".17g") for v in values]

    def test_csv_header_only(self, tmp_path):
        path = tmp_path / "rows.csv"
        cli._write_rows(str(path), "csv", ["a", "b"], [np.array([]), np.array([])])
        assert path.read_bytes() == b"a,b\n"

    #: rows of every value kind the JSON writers meet
    JSON_ROWS = [
        {"a": x, "b": k, "c": f"s{k}", "d": None}
        for k, x in enumerate([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 1 / 3])
    ]

    @pytest.mark.parametrize("count", [0, 1, len(JSON_ROWS)])
    def test_json_rows_match_json_dump(self, tmp_path, count):
        header, rows = ["a", "b", "c", "d"], [list(row.values()) for row in self.JSON_ROWS[:count]]
        path = tmp_path / "rows.json"
        cli._write_rows(str(path), "json", header, [[row[k] for row in rows] for k in range(len(header))])

        def clean(value):
            return None if isinstance(value, float) and not math.isfinite(value) else value

        reference = json.dumps([{k: clean(v) for k, v in zip(header, row)} for row in rows], indent=2)
        assert path.read_text() == reference + "\n"

    @pytest.mark.parametrize("count", [0, 1, len(JSON_ROWS)])
    def test_json_document_matches_json_dump(self, count):
        fields = {"tolerance": 1e-10, "max_deviation": math.nan, "label": "x", "n": 3}
        header, rows = ["a", "b", "c", "d"], self.JSON_ROWS[:count]
        columns = [[row[key] for row in rows] for key in header]
        reference = json.dumps(json_clean(dict(fields, rows=rows)), indent=2)
        assert "".join(cli._json_document(fields, header, columns)) == reference

    @settings(max_examples=150, deadline=None)
    @given(table=json_tables(), level=st.sampled_from([0, 1]))
    def test_json_table_matches_json_dump_property(self, table, level):
        header, columns = table
        rows = [dict(zip(header, row)) for row in zip(*columns)] if columns else []
        # a list one container deep is the list inside [...] at its indent
        reference = json.dumps(json_clean([rows] if level else rows), indent=2)
        if level:
            reference = reference[len("[\n  "):-len("\n]")]
        assert "".join(cli._json_rows(header, columns, level)) == reference

    @settings(max_examples=100, deadline=None)
    @given(table=json_tables(), fields=st.dictionaries(st.text(), json_scalars(), max_size=3))
    def test_json_document_matches_json_dump_property(self, table, fields):
        header, columns = table
        fields.pop("rows", None)
        rows = [dict(zip(header, row)) for row in zip(*columns)] if columns else []
        reference = json.dumps(json_clean(dict(fields, rows=rows)), indent=2)
        assert "".join(cli._json_document(fields, header, columns)) == reference


class TestCommands:
    def test_eit_classify_verdict(self, sep_config):
        proc = invoke("--config", sep_config, "--command", "eit-classify")
        assert proc.returncode == 0
        verdict = json.loads(proc.stdout)
        assert verdict["scheme"] == "CollectiveSA"
        assert verdict["regime"] == "EIT"
        assert verdict["transparency_delta_a"] == pytest.approx(0.5)

    @pytest.mark.parametrize("atom_b", [[4 * math.pi, 6 * math.pi], [math.pi, 3 * math.pi]])
    @pytest.mark.parametrize("delta_ab", [0.3, 1.0, 3.0])
    def test_rank_one_dark_mode_is_eit(self, capsys, tmp_path, atom_b, delta_ab):
        # real phasors w_a = 2 and w_b = +-sqrt 2: Gamma has rank 1, and its
        # dark mode is neither S/A nor one atom
        raw = {"atoms": [{"points": [{"phase": 0.0, "rate": 1.0}, {"phase": 2 * math.pi, "rate": 1.0}]},
                         {"points": [{"phase": p, "rate": 0.5} for p in atom_b]}],
               "delta_ab": delta_ab}
        path = write_config(tmp_path, raw)
        code, out, _ = run_main(capsys, "--config", path, "--command", "eit-classify")
        verdict = json.loads(out)
        assert code == 0
        assert (verdict["regime"], verdict["scheme"], verdict["dark_state"]) == ("EIT", "DarkMode", "mixed")
        code, out, err = run_main(capsys, "--config", path, "--command", "eit-spectrum",
                                  "--sweep", "delta_a:-3:3:41")
        assert code == 0 and err == ""
        assert abs(amplitudes_general(build_system(raw), verdict["transparency_delta_a"]).r) <= 1e-12

    def test_spectrum_header_and_unitarity(self, sep_config, tmp_path):
        out = tmp_path / "spec.csv"
        proc = invoke(
            "--config", sep_config, "--command", "spectrum",
            "--sweep", "delta_a:-6:6:31", "--out", str(out),
        )
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta_a,re_t,im_t,re_r,im_r,T,R"
        for line in lines[1:]:
            vals = [float(x) for x in line.split(",")]
            assert vals[5] + vals[6] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("raw", [
        {"symmetric": {"topology": "separate", "phi": 1.0}},
        {"symmetric": {"topology": "nested", "phi": 0.3, "gamma": 0.01}, "delta_ab": 2.5},
        {"symmetric": {"topology": "braided", "phi": math.pi / 2}},
        {"atoms": [{"points": [{"phase": p, "rate": 1e-10} for p in pair]} for pair in ((0.0, 2.0), (1.0, 3.5))],
         "delta_ab": 3e-10},
        {"symmetric": {"topology": "braided", "phi": math.pi / 2, "gamma": 1e-10}},
    ], ids=["separate", "nested-detuned", "braided-decoupled", "tiny-rates", "braided-decoupled-tiny-rates"])
    def test_spectrum_finite_at_huge_detunings(self, capsys, tmp_path, raw):
        # (x - e_u)(x - e_v) overflows past |x| ~ 1e154 unless scaled, and
        # x = delta_a / scale itself past ~1.8e308 (rates 1e-10)
        path = write_config(tmp_path, raw)
        code, out, err = run_main(capsys, "--config", path, "--command", "spectrum",
                                  "--sweep", "delta_a:-1e300:1e300:5", "--format", "json")
        assert code == 0 and err == ""
        for row in json.loads(out):
            assert all(math.isfinite(value) for value in row.values())
            assert abs(row["T"] + row["R"] - 1.0) <= 1e-15

    def test_spectrum_argmin_matches_loci(self, tmp_path):
        phi = 0.05 * math.pi
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"symmetric": {"topology": "separate", "phi": phi}}))
        out = tmp_path / "sweep.csv"
        proc = invoke(
            "--config", str(path), "--command", "spectrum",
            "--sweep", "delta_a:-2:2:40001", "--out", str(out),
        )
        assert proc.returncode == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        argmin = data[np.argmin(data[:, 6]), 0]
        loci = peak_minimum_loci(Topology.SEPARATE, phi)
        assert abs(argmin - loci.minimum) < 2e-4

    def test_spectrum_phi_sweep_at_fixed_detuning(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "symmetric": {"topology": "separate", "phi": 0.4},
                    "drive": {"alpha_sq": 0.01, "detuning": 0.9},
                }
            )
        )
        proc = invoke("--config", str(path), "--command", "spectrum", "--sweep", "phi:0.2:0.6:3")
        assert proc.returncode == 0
        rows = proc.stdout.splitlines()
        assert rows[0] == "phi,re_t,im_t,re_r,im_r,T,R"
        from gawqed import amplitudes_general

        for line in rows[1:]:
            vals = [float(x) for x in line.split(",")]
            expected = amplitudes_general(
                build_system({"symmetric": {"topology": "separate", "phi": vals[0]}}), 0.9
            )
            assert vals[5] == pytest.approx(expected.T, abs=1e-12)

    def test_phi_sweep_reexpands(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"symmetric": {"topology": "braided", "phi": 0.1}}))
        proc = invoke(
            "--config", str(path), "--command", "characteristics", "--sweep", "phi:0.2:0.8:4"
        )
        assert proc.returncode == 0
        rows = proc.stdout.splitlines()
        assert rows[0].startswith("phi,lamb_a")
        phis = [float(r.split(",")[0]) for r in rows[1:]]
        assert phis == pytest.approx([0.2, 0.4, 0.6, 0.8])
        lamb = [float(r.split(",")[1]) for r in rows[1:]]
        assert lamb == pytest.approx([math.sin(2 * p) for p in phis], abs=1e-12)

    def test_loci_and_fano_sweeps(self, sep_config):
        proc = invoke("--config", sep_config, "--command", "loci", "--sweep", "phi:0.1:1.0:4")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "phi,peak_1,peak_2,minimum"
        proc = invoke(
            "--config", sep_config, "--command", "fano",
            "--sweep", "phi:0.1:0.2:2", "--format", "json",
        )
        assert proc.returncode == 0
        rows = json.loads(proc.stdout)
        assert rows[0]["regime"] == "plus_dominant"
        assert rows[0]["gamma_plus"] / rows[0]["gamma_minus"] > 10

    def test_eit_spectrum_matches_general_spectrum(self, sep_config, tmp_path):
        out1, out2 = tmp_path / "eit.csv", tmp_path / "gen.csv"
        sweep = "delta_a:-3:3:41"
        assert invoke("--config", sep_config, "--command", "eit-spectrum",
                      "--sweep", sweep, "--out", str(out1)).returncode == 0
        assert invoke("--config", sep_config, "--command", "spectrum",
                      "--sweep", sweep, "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("delta_ab", [-2.0, 2.0])
    def test_eit_spectrum_guarded_by_verdict(self, capsys, tmp_path, delta_ab):
        # nested phi = pi/2: the published g_SA decides the verdict (NotApplicable
        # at delta_ab = -2, ATS at +2) while the exact-basis g_SA is -2 and 0
        path = write_config(tmp_path, {"symmetric": {"topology": "nested", "phi": math.pi / 2},
                                       "delta_ab": delta_ab})
        code, out, _ = run_main(capsys, "--config", path, "--command", "eit-classify")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["regime"] == ("NotApplicable" if delta_ab < 0 else "ATS")
        code, out, err = run_main(capsys, "--config", path, "--command", "eit-spectrum",
                                  "--sweep", "delta_a:-3:3:41")
        if verdict["regime"] == "NotApplicable":
            assert code == 3 and out == ""
            assert json.loads(err) == {"error": "EitPreconditionError", "message": verdict["note"]}
        else:
            assert code == 0 and err == ""
            assert run_main(capsys, "--config", path, "--command", "spectrum",
                            "--sweep", "delta_a:-3:3:41") == (0, out, "")

    @pytest.mark.parametrize(
        "command, raw",
        [
            ("spectrum", {"symmetric": {"topology": "nested", "phi": 1.0472}}),
            ("spectrum", {
                "atoms": [
                    {"points": [{"phase": 0.0, "rate": 1.0}, {"phase": 1.9, "rate": 0.6}]},
                    {"points": [{"phase": 0.8, "rate": 0.4}, {"phase": 2.7, "rate": 1.3}]},
                ],
                "delta_ab": 0.7,
            }),
            ("eit-spectrum", {"symmetric": {"topology": "nested", "phi": math.pi / 2}, "delta_ab": -1.0}),
            ("eit-spectrum", {
                "atoms": [
                    {"points": [{"phase": 0.0, "rate": 1.0}, {"phase": math.pi, "rate": 1.0}]},
                    {"points": [{"phase": 0.25 * math.pi, "rate": 10.0},
                                {"phase": 0.75 * math.pi, "rate": 10.0}]},
                ],
                "delta_ab": 10.0,
            }),
        ],
        ids=["spectrum-nested", "spectrum-explicit", "eit-collective", "eit-single-atom"],
    )
    def test_delta_sweep_matches_real_space(self, tmp_path, command, raw):
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps(raw))
        argv = ["--config", str(path), "--command", command,
                "--sweep", "delta_a:-6:6:201", "--out", str(out)]
        assert main(argv) == 0
        cfg = build_system(raw)
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert len(data) == 201
        for delta, re_t, im_t, re_r, im_r, big_t, big_r in data:
            ref = solve_real_space(cfg, delta)
            assert abs(complex(re_t, im_t) - ref.t) < 1e-10
            assert abs(complex(re_r, im_r) - ref.r) < 1e-10
            assert big_t == pytest.approx(abs(ref.t) ** 2, abs=1e-10)
            assert big_r == pytest.approx(abs(ref.r) ** 2, abs=1e-10)

    def test_master_sweep_and_conservation(self, sep_config):
        proc = invoke(
            "--config", sep_config, "--command", "master-sweep", "--sweep", "delta_a:0:1:5"
        )
        assert proc.returncode == 0
        rows = proc.stdout.splitlines()
        assert rows[0] == "delta_a,T,R,F,residual"
        for line in rows[1:]:
            vals = [float(x) for x in line.split(",")]
            assert vals[4] < 1e-8

    def test_inelastic_spectrum_rows(self, sep_config):
        proc = invoke(
            "--config", sep_config, "--command", "inelastic-spectrum", "--sweep", "nu:-2:2:5"
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "nu,s_transmit,s_reflect,s_total"

    def test_oracle_check_report(self, tmp_path):
        out = tmp_path / "report.json"
        proc = invoke(
            "--command", "oracle-check", "--sweep", "delta_a:0:1:20",
            "--format", "json", "--out", str(out),
        )
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        assert report["max_deviation"] < report["tolerance"]
        assert len(report["rows"]) == 20

    def test_oracle_tolerance_env(self, tmp_path):
        import os

        env = dict(os.environ, GAWQED_TOL="1e-30")
        proc = invoke("--command", "oracle-check", "--sweep", "delta_a:0:1:5", env=env)
        assert proc.returncode == 3
        assert "exceeds tolerance" in proc.stderr

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0", "-1e-10"])
    def test_oracle_tolerance_must_be_finite_positive(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("GAWQED_TOL", raw)
        code, out, err = run_main(capsys, "--command", "oracle-check", "--sweep", "delta_a:0:1:5")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "config"

    def test_oracle_tolerance_must_be_a_number(self, capsys, monkeypatch):
        monkeypatch.setenv("GAWQED_TOL", "1e-9x")
        code, out, err = run_main(capsys, "--command", "oracle-check", "--sweep", "delta_a:0:1:5")
        assert code == 2 and out == ""
        report = json.loads(err)
        assert report["error"] == "config" and "GAWQED_TOL is not a number: '1e-9x'" in report["message"]

    def test_oracle_nan_deviation_fails(self, capsys, monkeypatch):
        solve = cli._real_space_arrays

        def nan_in_row_5(geoms, delta):
            x = solve(geoms, delta)
            x[5, 4] = math.nan
            return x

        monkeypatch.setattr(cli, "_real_space_arrays", nan_in_row_5)
        code, out, err = run_main(capsys, "--command", "oracle-check", "--sweep", "delta_a:0:1:20",
                                  "--format", "json")
        assert code == 3
        assert json.loads(out)["max_deviation"] is None
        assert "oracle deviation nan" in json.loads(err)["message"]

    def test_oracle_report_matches_json_dump(self, capsys):
        code, out, _ = run_main(capsys, "--command", "oracle-check", "--sweep", "delta_a:0:1:129",
                                "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_jobs_deterministic(self, sep_config, tmp_path):
        out1, out2 = tmp_path / "j1.csv", tmp_path / "j4.csv"
        args = ["--config", sep_config, "--command", "spectrum", "--sweep", "delta_a:-2:2:21"]
        assert invoke(*args, "--out", str(out1)).returncode == 0
        assert invoke(*args, "--out", str(out2), "--jobs", "4").returncode == 0
        assert out1.read_text() == out2.read_text()


class TestExitCodes:
    def test_schema_violation_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"atoms": []}))
        proc = invoke("--config", str(bad), "--command", "spectrum")
        assert proc.returncode == 2
        record = json.loads(proc.stderr)
        assert record["error"] == "config"

    @pytest.mark.parametrize("text", [b'{"symmetric": ', b'\xff\xfe{"a":1}'], ids=["not-json", "not-utf8"])
    def test_unreadable_config_is_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        code, out, err = run_main(capsys, "--config", str(bad), "--command", "characteristics")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "config"

    def test_numerical_failure_is_3(self, tmp_path):
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"symmetric": {"topology": "separate", "phi": 0.3}}))
        proc = invoke("--config", str(plain), "--command", "eit-spectrum", "--sweep", "delta_a:0:1:3")
        assert proc.returncode == 3
        record = json.loads(proc.stderr)
        assert record["error"] == "EitPreconditionError"

    def test_master_sweep_without_steady_state_is_3(self, tmp_path, capsys):
        # separate phi = pi: both atoms decouple, the dynamics is purely Hamiltonian
        path = tmp_path / "dark.json"
        path.write_text(json.dumps({
            "symmetric": {"topology": "separate", "phi": math.pi},
            "drive": {"alpha_sq": 0.04},
        }))
        argv = ["--config", str(path), "--command", "master-sweep", "--sweep", "delta_a:-1:1:5"]
        assert main(argv) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "SteadyStateError"

    def test_io_failure_is_4(self, tmp_path):
        proc = invoke("--config", str(tmp_path / "missing.json"), "--command", "spectrum")
        assert proc.returncode == 4

    def test_bad_sweep_variable_is_2(self, sep_config):
        proc = invoke("--config", sep_config, "--command", "loci", "--sweep", "delta_a:0:1:5")
        assert proc.returncode == 2

    # -1e308:1e308: both bounds are finite, their span overflows
    @pytest.mark.parametrize("bounds", ["-inf:inf", "0:inf", "-inf:0", "nan:1", "-1e308:1e308"])
    def test_non_finite_sweep_bounds_are_2(self, capsys, sep_config, bounds):
        for command in ("spectrum", "master-sweep"):
            code, out, err = run_main(capsys, "--config", sep_config, "--command", command,
                                      "--sweep", f"delta_a:{bounds}:3")
            assert code == 2 and out == ""
            assert json.loads(err)["error"] == "config"

    @pytest.mark.parametrize("command, sweep", [("master-sweep", "delta_a:-1:1:3"),
                                                ("inelastic-spectrum", "nu:-1:1:3")])
    def test_non_finite_generator_is_3(self, capsys, tmp_path, command, sweep):
        # unit rates and |alpha|^2 = 1e308: the drive terms are ~1e154 in the
        # rate scale, and the Frobenius norm of the generator overflows
        path = write_config(tmp_path, {"symmetric": {"topology": "separate", "phi": 0.7},
                                       "drive": {"alpha_sq": 1e308, "detuning": 0.3}})
        code, out, err = run_main(capsys, "--config", path, "--command", command, "--sweep", sweep)
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "SteadyStateError", "message": "generator is not finite"}

    @pytest.mark.parametrize("command, sweep", [
        ("characteristics", None), ("characteristics", "phi:0.5:1:3"),
        ("spectrum", "delta_a:-1:1:3"), ("spectrum", "phi:0.5:1:3"),
        ("loci", "phi:0.5:1:3"), ("fano", "phi:0.5:1:3"), ("eit-classify", None),
        ("eit-spectrum", "delta_a:-1:1:3"), ("master-sweep", "delta_a:-1:1:3"),
        ("inelastic-spectrum", "nu:-1:1:3"),
    ])
    def test_overflowing_quantities_are_3(self, capsys, tmp_path, command, sweep):
        # rates of 1e308 put lamb_a = sqrt(gamma_a1 gamma_a2) sin(...) above QUANTITY_LIMIT
        path = write_config(tmp_path, OVERFLOWING)
        code, out, err = run_main(capsys, "--config", path, "--command", command,
                                  *(["--sweep", sweep] if sweep else []))
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "QuantityOverflowError",
            "message": "characteristic quantity lamb_a exceeds 1.124e+307: the rates overflow it",
        }

    @pytest.mark.parametrize("command", ["master-sweep", "spectrum"])
    def test_overflow_error_is_the_only_stderr_line(self, tmp_path, command):
        # numpy's RuntimeWarning lines would come before the JSON record
        path = write_config(tmp_path, OVERFLOWING)
        proc = invoke("--config", path, "--command", command, "--sweep", "delta_a:-1:1:3")
        assert proc.returncode == 3 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "QuantityOverflowError"

    @pytest.mark.parametrize(
        "drive, args",
        [
            ({"alpha_sq": math.inf}, ("master-sweep", "delta_a:-1:1:3")),
            ({"alpha_sq": math.nan}, ("inelastic-spectrum", "nu:-1:1:3")),
            ({"alpha_sq": 0.04, "detuning": math.inf}, ("inelastic-spectrum", "nu:-1:1:3")),
            ({"alpha_sq": 0.04, "detuning": -math.inf}, ("spectrum", "phi:0.1:1:3")),
            ({"alpha_sq": 0.04, "detuning": math.nan}, ("spectrum", "phi:0.1:1:3")),
        ],
        ids=["alpha-inf", "alpha-nan", "detuning-inf", "phi-detuning-inf", "phi-detuning-nan"],
    )
    def test_non_finite_drive_is_2(self, tmp_path, drive, args):
        # json reads NaN and Infinity, and the schema passes them
        path = write_config(tmp_path, {"symmetric": {"topology": "separate", "phi": 0.7}, "drive": drive})
        command, sweep = args
        proc = invoke("--config", path, "--command", command, "--sweep", sweep)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["error"] == "config"

    def test_eit_classify_csv_is_2(self, sep_config):
        proc = invoke("--config", sep_config, "--command", "eit-classify", "--format", "csv")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["error"] == "config"

    def test_degenerate_sweep_grid_is_2(self, sep_config):
        proc = invoke("--config", sep_config, "--command", "spectrum", "--sweep", "delta_a:0:1:1")
        assert proc.returncode == 2
        proc = invoke("--config", sep_config, "--command", "spectrum", "--sweep", "delta_a:2:1:5")
        assert proc.returncode == 2

    # CONFIG stands for the sep_config path and each other capitalised
    # argument for a config of USAGE_CONFIGS
    @pytest.mark.parametrize("argv, message", [
        (["--config", "CONFIG", "--command", "spectrum", "--sweep", "delta_a:0:1"],
         "--sweep must look like VAR:START:STOP:POINTS"),
        (["--config", "CONFIG", "--command", "spectrum", "--sweep", "delta_a:x:1:3"],
         "bad sweep specification 'delta_a:x:1:3': could not convert string to float: 'x'"),
        (["--config", "CONFIG", "--command", "spectrum", "--sweep", "delta_a:0:1:2.5"],
         "bad sweep specification 'delta_a:0:1:2.5': invalid literal for int() with base 10: '2.5'"),
        (["--config", "CONFIG", "--command", "spectrum", "--sweep", "delta_a:0:1:1"],
         "sweep needs at least 2 points"),
        (["--config", "CONFIG", "--command", "spectrum", "--sweep", "delta_a:-inf:1:3"],
         "sweep start and stop must be finite"),
        (["--config", "CONFIG", "--command", "spectrum", "--sweep", "delta_a:-1e308:1e308:3"],
         "sweep span stop - start must be finite"),
        (["--config", "CONFIG", "--command", "spectrum", "--sweep", "delta_a:1:1:3"],
         "sweep start must be below stop"),
        (["--config", "CONFIG", "--command", "loci", "--sweep", "delta_a:0:1:5"],
         "command 'loci' accepts sweep variables ['phi'], got 'delta_a'"),
        (["--config", "CONFIG", "--command", "eit-classify", "--format", "csv"],
         "command 'eit-classify' writes json only, got --format csv"),
        (["--command", "spectrum"], "command 'spectrum' needs --config"),
        (["--config", "EXPLICIT", "--command", "spectrum", "--sweep", "phi:0.5:1:4"],
         "phi sweeps need the symmetric shortcut in the config"),
        (["--config", "HUGE_PHI", "--command", "characteristics"],
         f"config schema violation: {HUGE} does not convert to a finite double"),
        (["--config", "HUGE_RATE", "--command", "characteristics"],
         f"config schema violation: {HUGE} does not convert to a finite double"),
        (["--config", "UNDRIVEN", "--command", "master-sweep"],
         "this command needs a 'drive' entry in the config"),
        (["--config", "UNDRIVEN", "--command", "inelastic-spectrum", "--sweep", "nu:-1:1:3"],
         "this command needs a 'drive' entry in the config"),
        (["--config", "LONG_INT", "--command", "characteristics"], json_message(USAGE_TEXTS["LONG_INT"])),
        (["--config", "DEEP_ARRAY", "--command", "characteristics"], json_message(USAGE_TEXTS["DEEP_ARRAY"])),
    ], ids=["three-fields", "start-not-a-number", "fractional-points", "one-point", "infinite-bound",
            "overflowing-span", "empty-range", "wrong-variable", "eit-classify-csv", "no-config",
            "phi-sweep-of-explicit", "huge-phi", "huge-rate", "master-sweep-undriven",
            "inelastic-spectrum-undriven", "5001-digit-integer", "deep-array"])
    def test_usage_error_is_one_json_line(self, capsys, tmp_path, sep_config, argv, message):
        configs = {name: write_config(tmp_path, raw, name=f"{name}.json") for name, raw in USAGE_CONFIGS.items()}
        for name, text in USAGE_TEXTS.items():
            (tmp_path / f"{name}.json").write_text(text)
            configs[name] = str(tmp_path / f"{name}.json")
        argv = [dict(configs, CONFIG=sep_config).get(arg, arg) for arg in argv]
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == json.dumps({"error": "config", "message": message}) + "\n"

    # 10**17 doubles (711 PiB) the allocator refuses outright, so the test
    # touches no memory; 2**63 doubles are more bytes than numpy can index
    @pytest.mark.parametrize("points", [10**17, 2**63])
    def test_huge_sweep_is_one_json_line(self, capsys, points):
        code, out, err = run_main(capsys, "--command", "oracle-check", "--sweep", f"delta_a:0:1:{points}")
        assert (code, out) == (2, "")
        assert err == json.dumps({"error": "config", "message": f"sweep of {points} points does not fit in memory"}) + "\n"

    def test_main_entry_point(self, sep_config, capsys):
        assert main(["--config", sep_config, "--command", "eit-classify"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["regime"] == "EIT"

    def test_eit_classify_payload(self, sep_config, capsys):
        # keys in the order of the verdict's fields, enums by their value
        code, out, _ = run_main(capsys, "--config", sep_config, "--command", "eit-classify")
        assert code == 0
        assert list(json.loads(out)) == [field.name for field in dataclasses.fields(EitVerdict)]
        assert out == (
            '{\n'
            '  "scheme": "CollectiveSA",\n'
            '  "dark_state": "S",\n'
            '  "regime": "EIT",\n'
            '  "control_strength": 0.5,\n'
            '  "bright_width": 4.000000000000001,\n'
            '  "transparency_delta_a": 0.5000000000000001,\n'
            '  "note": null\n'
            '}\n'
        )


#: a driven config whose rates overflow the characteristic quantities
OVERFLOWING = {
    "symmetric": {"topology": "separate", "phi": 0.7, "gamma": 1e308},
    "drive": {"alpha_sq": 0.04, "detuning": 0.3},
}


def run_main(capsys, *argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestStackedCommands:
    """oracle-check and the phi sweeps evaluate stacks of geometries."""

    def test_oracle_rows_match_point_calls(self, capsys):
        # 300 configs span more than one block
        assert cli.STACK_BLOCK < 300
        code, out, _ = run_main(capsys, "--command", "oracle-check", "--sweep", "delta_a:0:1:300",
                                "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert len(report["rows"]) == 300
        for index, row in enumerate(report["rows"]):
            cfg, delta = oracle_draw(index)
            assert (row["index"], row["topology"], row["delta_a"]) == (
                index, classify_topology(cfg).value, delta
            )
            gen, orc = amplitudes_general(cfg, delta), solve_real_space(cfg, delta)
            assert row["dev_t"] == pytest.approx(abs(gen.t - orc.t), abs=1e-14)
            assert row["dev_r"] == pytest.approx(abs(gen.r - orc.r), abs=1e-14)
        worst = max(max(row["dev_t"], row["dev_r"]) for row in report["rows"])
        assert report["max_deviation"] == worst

    def test_stream_reference_matches_published_outputs(self):
        # the first outputs of SplitMix64 seeded with 1234567
        assert [splitmix64(1234567, k) for k in range(5)] == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821,
        ]

    def test_random_draws_match_config_by_config(self):
        # block sizes around STACK_BLOCK at several starts; the uint64
        # wraparound must not warn
        for start, count in itertools.product((0, 1, 300, 2**40 + 3), (1, 127, 128, 129, 300, 5000)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                geoms, delta, names = cli._random_draws(start, count)
            cfgs, deltas = zip(*(oracle_draw(n) for n in range(start, start + count)))
            expected = Geometries.of(cfgs)
            for field in ("phases", "rates", "delta_ab"):
                drawn, ref = getattr(geoms, field), getattr(expected, field)
                assert drawn.shape == ref.shape and drawn.tobytes() == ref.tobytes(), field
            assert delta.tobytes() == np.array(deltas).tobytes()
            assert names == [classify_topology(cfg).value for cfg in cfgs]

    def test_oracle_report_does_not_depend_on_the_block(self, capsys, monkeypatch):
        reports = []
        for block in (7, 128):
            monkeypatch.setattr(cli, "STACK_BLOCK", block)
            code, out, _ = run_main(capsys, "--command", "oracle-check", "--sweep", "delta_a:0:1:300",
                                    "--format", "json")
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]

    def test_oracle_singular_config_in_later_block(self, capsys, monkeypatch):
        # config 261 (index 260) lies past the first block of configs
        assert cli.STACK_BLOCK <= 260
        draw = cli._random_draws
        drawn = [0]
        injected = []

        def draws_with_silent_atoms(rng, count):
            geoms, delta, names = draw(rng, count)
            k = 260 - drawn[0]
            drawn[0] += count
            if 0 <= k < count:
                # zero rates everywhere, and Delta_b = 0 at the drawn detuning
                points = [CouplingPoint(p, 0.0) for p in (0.0, 1.0, 2.0, 3.0)]
                silent = SystemConfig(GiantAtom("a", tuple(points[:2])), GiantAtom("b", tuple(points[2:])),
                                      delta_ab=-float(delta[k]))
                one = Geometries.of([silent])
                geoms.phases[k], geoms.rates[k], geoms.delta_ab[k] = one.phases[0], one.rates[0], one.delta_ab[0]
                injected.append((silent, float(delta[k])))
            return geoms, delta, names

        monkeypatch.setattr(cli, "_random_draws", draws_with_silent_atoms)
        code, out, err = run_main(capsys, "--command", "oracle-check", "--sweep", "delta_a:0:1:300")
        assert code == 3 and out == ""
        [(silent, delta)] = injected
        with pytest.raises(OracleSingularError) as point:
            solve_real_space(silent, delta)
        assert json.loads(err) == {"error": "OracleSingularError", "message": str(point.value)}

    @pytest.mark.parametrize("command", ["spectrum", "characteristics", "loci", "fano"])
    def test_phi_sweep_below_zero_is_2(self, capsys, tmp_path, command):
        path = write_config(tmp_path, {"symmetric": {"topology": "separate", "phi": 1.0}})
        code, out, err = run_main(capsys, "--config", path, "--command", command,
                                  "--sweep", "phi:-0.5:1:4")
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "config", "message": "atom a: points must be ordered left-to-right (0.0 > -0.5)"
        }

    @pytest.mark.parametrize("command", ["spectrum", "characteristics", "loci", "fano"])
    def test_phi_sweep_needs_the_shortcut(self, capsys, tmp_path, command):
        path = write_config(tmp_path, {"atoms": expand_symmetric({"topology": "nested", "phi": 1.0})["atoms"]})
        code, out, err = run_main(capsys, "--config", path, "--command", command, "--sweep", "phi:0.5:1:4")
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "config", "message": "phi sweeps need the symmetric shortcut in the config"
        }

    def test_phi_stack_matches_configs(self):
        # the 301-spacing grid of the benchmark's phi sweeps, and a grid from 0
        for topology in Topology:
            raw = {"symmetric": {"topology": topology.value, "phi": 1.0, "gamma": 0.7}, "delta_ab": 0.3}
            for phis in (np.linspace(0.05, 3.09, 301), np.linspace(0.0, 7.0, 50)):
                stack = cli._phi_geometries(raw, phis.tolist())
                expected = Geometries.of([cli._symmetric(raw, phi) for phi in phis.tolist()])
                for field in ("phases", "rates", "delta_ab"):
                    assert getattr(stack, field).tobytes() == getattr(expected, field).tobytes(), field

    def test_phi_sweeps_match_point_calls(self, capsys, tmp_path):
        raw = {"symmetric": {"topology": "nested", "phi": 1.0, "gamma": 0.7}, "delta_ab": 0.3,
               "drive": {"alpha_sq": 0.01, "detuning": 0.4}}
        path = write_config(tmp_path, raw)
        sweep = ["--sweep", "phi:0.05:3.09:301"]
        code, out, _ = run_main(capsys, "--config", path, "--command", "characteristics", *sweep)
        assert code == 0
        for line in out.splitlines()[1:]:
            phi, *values = line.split(",")
            ch = characteristics(cli._symmetric(raw, float(phi)))
            assert values == [format(getattr(ch, name), ".17g") for name in (
                "lamb_a", "lamb_b", "gamma_a", "gamma_b", "g_ab", "gamma_ab", "alpha_a", "alpha_b")]
        code, out, _ = run_main(capsys, "--config", path, "--command", "spectrum", *sweep)
        assert code == 0
        for line in out.splitlines()[1:]:
            phi, re_t, im_t, re_r, im_r, big_t, big_r = map(float, line.split(","))
            pt = amplitudes_general(cli._symmetric(raw, phi), 0.4)
            assert abs(complex(re_t, im_t) - pt.t) <= 1e-14 and abs(complex(re_r, im_r) - pt.r) <= 1e-14
            assert big_t == pytest.approx(pt.T, abs=1e-14) and big_r == pytest.approx(pt.R, abs=1e-14)

    def test_fano_honours_delta_ab(self, capsys, tmp_path):
        raw = {"symmetric": {"topology": "nested", "phi": 1.0}}
        outputs = {}
        for delta_ab in (0.0, 2.0):
            path = write_config(tmp_path, dict(raw, delta_ab=delta_ab))
            code, out, _ = run_main(capsys, "--config", path, "--command", "fano",
                                    "--sweep", "phi:0.3:2.8:6", "--format", "json")
            assert code == 0
            outputs[delta_ab] = json.loads(out)
        assert outputs[0.0] != outputs[2.0]
        for row in outputs[2.0]:
            pair = lorentz_pair(cli._symmetric(dict(raw, delta_ab=2.0), row["phi"]))
            assert (row["delta_plus"], row["gamma_minus"]) == (pair.delta_plus, pair.gamma_minus)

    def test_fano_names_first_failing_phi(self, capsys, tmp_path, monkeypatch):
        # the probe checks of indices 200, 240 and 290 miss; 200 lies past
        # the first block of spacings and fails first
        raw = {"symmetric": {"topology": "separate", "phi": 1.0}}
        path = write_config(tmp_path, raw)
        phis = np.linspace(0.05, 3.09, 301)
        assert cli.STACK_BLOCK <= 200
        failing = phis[[200, 240, 290]]
        shift_probe_check(monkeypatch, lambda geoms: 1e-6 * np.isin(geoms.phases[:, 0, 1], failing))
        with pytest.raises(fano.DecompositionError) as point:
            lorentz_pair(cli._symmetric(raw, float(phis[200])))
        code, out, err = run_main(capsys, "--config", path, "--command", "fano",
                                  "--sweep", "phi:0.05:3.09:301")
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "DecompositionError", "message": f"{point.value} at phi={float(phis[200])}"
        }

    @pytest.mark.parametrize("negative_at", [240, 200])
    def test_fano_names_phi_of_first_failing_check(self, capsys, tmp_path, monkeypatch, negative_at):
        # the probe check of index 200 misses and the widths of
        # ``negative_at`` are negative: the error is that of index 200,
        # the width's where 200 fails both
        raw = {"symmetric": {"topology": "separate", "phi": 1.0}}
        path = write_config(tmp_path, raw)
        phis = np.linspace(0.05, 3.09, 301)
        shift_probe_check(monkeypatch, lambda geoms: 1e-6 * (geoms.phases[:, 0, 1] == phis[200]))
        fake_negative_width(monkeypatch, lambda geoms: geoms.phases[:, 0, 1] == phis[negative_at])
        with pytest.raises(fano.DecompositionError) as point:
            lorentz_pair(cli._symmetric(raw, float(phis[200])))
        first = "negative channel width" if negative_at == 200 else "reconstruction residual"
        assert str(point.value).startswith(first)
        code, out, err = run_main(capsys, "--config", path, "--command", "fano",
                                  "--sweep", "phi:0.05:3.09:301")
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "DecompositionError", "message": f"{point.value} at phi={float(phis[200])}"
        }

    def test_fano_dark_narrow_prefactor_is_3(self, capsys, tmp_path, monkeypatch):
        # a narrow prefactor of exactly 0 in a row with a regime, in the
        # second block of spacings: the fit raises the error of a dark channel
        path = write_config(tmp_path, {"symmetric": {"topology": "separate", "phi": 1.0}})
        exact = fano._lorentz_arrays
        darkened = []

        def lorentz_arrays(geoms):
            d_plus, d_minus, g_plus, g_minus, chi_plus, chi_minus = exact(geoms)
            if not darkened and len(geoms.delta_ab) < cli.STACK_BLOCK:
                k = int(np.argmax(g_plus > 10.0 * g_minus))
                assert g_plus[k] > 10.0 * g_minus[k] > 0.0 and chi_minus[k] != 0.0
                chi_minus = chi_minus.copy()
                chi_minus[k] = 0.0
                darkened.append(k)
            return d_plus, d_minus, g_plus, g_minus, chi_plus, chi_minus

        monkeypatch.setattr(fano, "_lorentz_arrays", lorentz_arrays)
        code, out, err = run_main(capsys, "--config", path, "--command", "fano",
                                  "--sweep", f"phi:0.05:3.09:{cli.STACK_BLOCK + 100}")
        assert darkened and code == 3 and out == ""
        assert json.loads(err) == {
            "error": "FanoRegimeError",
            "message": "narrow channel is dark (zero prefactor); Fano fit undefined",
        }

    @pytest.mark.parametrize("topology", ["separate", "braided"])
    def test_fano_dark_points_warning_free(self, capsys, tmp_path, topology):
        # the grid holds phi = pi/2 (braided: decoupled; separate: one dark
        # channel) and phi = pi (separate: decoupled)
        path = write_config(tmp_path, {"symmetric": {"topology": topology, "phi": 1.0}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(capsys, "--config", path, "--command", "fano",
                                      "--sweep", f"phi:0:{math.pi!r}:5", "--format", "json")
        assert code == 0 and err == ""
        rows = json.loads(out)
        assert [row["phi"] for row in rows][2:] == [math.pi / 2, 3 * math.pi / 4, math.pi]
        assert rows[2]["regime"] == "none"

    @pytest.mark.parametrize("topology, row", [
        ("separate", ["0", "0", "nan", "nan"]),
        ("braided", ["0", "0", "nan", "nan"]),
        ("nested", ["0", "0", "nan", "nan"]),
    ])
    def test_loci_at_coincident_points(self, capsys, tmp_path, topology, row):
        # at phi = 0 the four points coincide, so every topology is one
        # geometry: a double peak at 0, where r's numerator vanishes too
        path = write_config(tmp_path, {"symmetric": {"topology": topology, "phi": 1.0}})
        code, out, err = run_main(capsys, "--config", path, "--command", "loci", "--sweep", "phi:0:3:4")
        assert code == 0 and err == ""
        assert out.splitlines()[1].split(",") == row
        assert amplitudes_general(symmetric_config(Topology(topology), 0.0), 0.0).R == 1.0

    def test_loci_separate_half_pi_has_no_minimum(self, capsys, tmp_path):
        # r's root sits on the peak at delta = gamma: both numerators vanish
        # there, a removable pole, and R = 1 there, not 0
        path = write_config(tmp_path, {"symmetric": {"topology": "separate", "phi": 1.0}})
        code, out, _ = run_main(capsys, "--config", path, "--command", "loci",
                                "--sweep", f"phi:0:{math.pi!r}:3")
        assert code == 0
        assert out.splitlines()[2].split(",") == [repr(math.pi / 2), "1", "nan", "nan"]

    @pytest.mark.parametrize("delta_ab", [0.0, 1.5])
    @pytest.mark.parametrize("topology, row", [("separate", 2), ("braided", 1)])
    def test_loci_of_decoupled_atoms_are_nan(self, capsys, tmp_path, topology, row, delta_ab):
        # separate phi = pi and braided phi = pi/2: both atoms decouple, R = 0
        # everywhere (0.5 is a real eigenvalue of the braided H at
        # delta_ab = 1.5), so there is no peak and no minimum
        path = write_config(tmp_path, {"symmetric": {"topology": topology, "phi": 1.0}, "delta_ab": delta_ab})
        code, out, _ = run_main(capsys, "--config", path, "--command", "loci",
                                "--sweep", f"phi:0:{math.pi!r}:3")
        assert code == 0
        phi = row * math.pi / 2
        cells = out.splitlines()[1 + row].split(",")
        assert float(cells[0]) == phi and cells[1:] == ["nan", "nan", "nan"]
        assert peak_minimum_loci(Topology(topology), phi) == Loci(peaks=(), minimum=None)
        cfg = symmetric_config(Topology(topology), phi, delta_ab=delta_ab)
        assert [amplitudes_general(cfg, delta).R for delta in (0.3, 0.5)] == [0.0, 0.0]

    def test_detuned_loci_reach_r_extremes(self, capsys, tmp_path):
        # R at the reported loci by a 50-digit evaluation: double-precision
        # amplitudes misjudge 1 - R by up to ~1e-8 next to the narrowest poles
        counts = [0, 0]
        for delta_ab in (-2.0, -0.7, 0.3, 1.0, 2.5):
            for topology in Topology:
                path = write_config(tmp_path, {"symmetric": {"topology": topology.value, "phi": 1.0},
                                               "delta_ab": delta_ab})
                code, out, err = run_main(capsys, "--config", path, "--command", "loci",
                                          "--sweep", "phi:0.05:3.09:61")
                assert code == 0 and err == ""
                for line in out.splitlines()[1:]:
                    phi, peak_1, peak_2, minimum = map(float, line.split(","))
                    cfg = symmetric_config(topology, phi, delta_ab=delta_ab)
                    for peak in (peak_1, peak_2):
                        if not math.isnan(peak):
                            assert abs(1 - mp_reflectance(cfg, peak)) <= 1e-9, (topology, delta_ab, phi, peak)
                            counts[0] += 1
                    if not math.isnan(minimum):
                        assert mp_reflectance(cfg, minimum) <= 1e-9, (topology, delta_ab, phi, minimum)
                        counts[1] += 1
        assert counts[0] >= 5 * 3 * 61 and counts[1] >= 5 * 61, counts


def mp_reflectance(cfg: SystemConfig, delta_a: float) -> float:
    """R at ``delta_a`` to 50 digits, from the raw phases and rates.

    The photon's Green function -i exp(i |x - x'|) couples the points
    (coupling V = sqrt(rate / 2)): the atoms' amplitudes solve
    (diag(Delta_a, Delta_b) - Sigma) f = Omega with
    Sigma_jk = -i sum V_n V_m exp(i |theta_n - theta_m|) over atom j's points n
    and atom k's points m, and Omega_j = sum V_n exp(i theta_n); the
    reflected amplitude is r = -i sum_j sum_n V_n exp(i theta_n) f_j.
    """
    with mpmath.workdps(50):
        atoms = [[(mpmath.mpf(p.phase_coord), mpmath.sqrt(mpmath.mpf(p.bare_rate) / 2)) for p in atom.points]
                 for atom in (cfg.atom_a, cfg.atom_b)]
        sigma = mpmath.matrix(2, 2)
        for j, k in itertools.product(range(2), repeat=2):
            sigma[j, k] = -1j * sum(v * w * mpmath.expj(abs(th - ph)) for th, v in atoms[j] for ph, w in atoms[k])
        detuning = mpmath.diag([mpmath.mpf(delta_a), mpmath.mpf(delta_a) + mpmath.mpf(cfg.delta_ab)])
        drive = mpmath.matrix([sum(v * mpmath.expj(th) for th, v in atom) for atom in atoms])
        f = mpmath.lu_solve(detuning - sigma, drive)
        r = -1j * sum(v * mpmath.expj(th) * f[j] for j, atom in enumerate(atoms) for th, v in atom)
        return float(abs(r) ** 2)


def test_mp_reflectance_matches_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cfg = random_system(rng)
        delta = float(rng.uniform(-6.0, 6.0))
        assert mp_reflectance(cfg, delta) == pytest.approx(amplitudes_general(cfg, delta).R, abs=1e-10)


def bench_reference():
    """``bench/reference.py``, the benchmark's 50-digit real-space solve, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mirrored", [False, True])
def test_spectrum_keeps_digits_across_rate_spans(capsys, tmp_path, mirrored):
    # rates spanning k decades: the bright/dark rotation and the dark energy
    # must keep the digits of the small rates.  The family stops at k = 22:
    # from ~2e23 on the coupling falls under DECOUPLE_TOL times the largest
    # rate, the dark mode counts as decoupled and r is wrong (an open fault)
    reference = bench_reference()
    for k in range(23):
        cfg = wide_span_config(k, mirrored)
        atoms = [[(p.phase_coord, p.bare_rate) for p in atom.points] for atom in (cfg.atom_a, cfg.atom_b)]
        raw = {"atoms": [{"points": [{"phase": p, "rate": r} for p, r in atom]} for atom in atoms]}
        path = write_config(tmp_path, raw)
        code, out, _ = run_main(capsys, "--config", path, "--command", "spectrum", "--sweep", "delta_a:-3:3:13")
        assert code == 0
        for row in out.splitlines()[1:]:
            delta, re_t, im_t, re_r, im_r = (float(v) for v in row.split(",")[:5])
            t, r = reference.amplitudes(atoms, 0.0, delta)
            assert abs(complex(re_t, im_t) - complex(t)) <= 1e-14, (k, delta)
            assert abs(complex(re_r, im_r) - complex(r)) <= 1e-14, (k, delta)


#: output fields that carry a rate or a detuning, so scale with the config
#: (F with |alpha|^2, so F / |alpha|^2 is kept); every other number
#: (amplitudes, phases, Fano q and chi, residuals, spectral densities) is kept
SCALED_FIELDS = {
    "delta_a", "nu", "lamb_a", "lamb_b", "gamma_a", "gamma_b", "g_ab", "gamma_ab",
    "peak_1", "peak_2", "minimum", "delta_plus", "delta_minus", "gamma_plus", "gamma_minus",
    "center", "width", "F", "control_strength", "bright_width", "transparency_delta_a",
}

#: bound on |x(s) / s^k - x(1)| / max(1, |x(1)|), k = 1 for the fields
#: above and 0 for the others, about 10x the worst seen
#: over 31 scales in [1e-6, 1e6] on every geometry below (6.1e-14; Fano
#: 1.0e-11, whose fields are quotients of near-equal widths near the
#: decoupling spacings)
SCALE_TOL = {"fano": 1e-10}
SCALE_TOL_DEFAULT = 1e-12

#: the commands checked; their delta_a and nu grids scale with the config, phi grids do not
SCALE_COMMANDS = [
    ("characteristics", None),
    ("spectrum", "delta_a:-6:6:201"),
    ("spectrum", f"phi:0:{math.pi!r}:17"),
    ("loci", f"phi:0:{math.pi!r}:17"),
    ("fano", f"phi:0:{math.pi!r}:17"),
    ("eit-classify", None),
    ("eit-spectrum", "delta_a:-6:6:201"),
    ("master-sweep", "delta_a:-6:6:41"),
    ("inelastic-spectrum", "nu:-40:40:201"),
]


def scaled_config(geometry: str, phi: float, delta_ab: float, s: float) -> dict:
    """A config with every rate and detuning scaled by ``s``: a symmetric
    shortcut, or (``explicit``) two atoms with unequal rates, atom a
    decoupled by its own interference."""
    drive = {"alpha_sq": 0.04 * s, "detuning": 0.3 * s}
    if geometry == "explicit":
        points = [((0.0, 1.0), (math.pi, 1.0)), ((0.25 * math.pi, 10.0), (0.75 * math.pi, 10.0))]
        atoms = [{"points": [{"phase": p, "rate": r * s} for p, r in atom]} for atom in points]
        return {"atoms": atoms, "delta_ab": delta_ab * s, "drive": drive}
    return {"symmetric": {"topology": geometry, "phi": phi, "gamma": s}, "delta_ab": delta_ab * s,
            "drive": drive}


def run_scaled(raw: dict, command: str, sweep: str | None, s: float, directory: Path):
    """(exit code, error kind, {field: values}) of ``command`` on ``raw``, its
    grid scaled by ``s`` unless it is a phi grid."""
    config, out = directory / "scaled.json", directory / "scaled.out"
    config.write_text(json.dumps(raw))
    out.unlink(missing_ok=True)
    argv = ["--config", str(config), "--command", command, "--out", str(out)]
    if sweep is not None:
        var, start, stop, points = sweep.split(":")
        if var != "phi":
            start, stop = repr(float(start) * s), repr(float(stop) * s)
        argv += ["--sweep", f"{var}:{start}:{stop}:{points}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        return code, json.loads(err.getvalue())["error"], None
    if command == "eit-classify":
        return code, None, {k: [v] for k, v in json.loads(out.read_text()).items()}
    header, *rows = (line.split(",") for line in out.read_text().splitlines())
    return code, None, dict(zip(header, zip(*rows)))


def scale_deviation(fields: dict, reference: dict, s: float, relative: bool = True) -> float:
    """Worst |x(s) / s^k - x(1)| / max(1, |x(1)|) over the numeric fields,
    or without the divisor if not ``relative``; raises AssertionError where
    a label or a NaN or None pattern differs."""
    assert fields.keys() == reference.keys()
    worst = 0.0
    for name, ref in reference.items():
        values = fields[name]
        if name in ("regime", "scheme", "dark_state", "note"):
            assert list(values) == list(ref), name
            continue
        assert [v is None for v in values] == [v is None for v in ref], name
        x = np.array([math.nan if v is None else float(v) for v in values])
        x_ref = np.array([math.nan if v is None else float(v) for v in ref])
        assert np.array_equal(np.isnan(x), np.isnan(x_ref)), name
        if name in SCALED_FIELDS:
            x = x / s
        finite = ~np.isnan(x_ref)
        dev = np.abs(x - x_ref)[finite]
        if relative:
            dev /= np.maximum(1.0, np.abs(x_ref[finite]))
        worst = max(worst, float(np.max(dev, initial=0.0)))
    return worst


class TestScaleCovariance:
    """Results are in units of the bare rates: scaling every rate and
    detuning by s scales each rate-like output by s and leaves the rest."""

    @settings(max_examples=20, deadline=None)
    # the ends of the range, where absolute tolerances failed
    @example(geometry="separate", phi=0.7, delta_ab=0.0, log_s=-6.0)
    @example(geometry="braided", phi=0.7, delta_ab=1.0, log_s=6.0)
    @given(
        geometry=st.sampled_from(["separate", "braided", "nested", "explicit"]),
        phi=st.sampled_from([0.7, math.pi / 2, math.pi, 2 * math.pi]),
        delta_ab=st.sampled_from([0.0, 1.0, -1.0]),
        log_s=st.floats(-6.0, 6.0),
    )
    def test_outputs_follow_the_rate_scale(self, geometry, phi, delta_ab, log_s):
        s = 10.0**log_s
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            unit, scaled = (scaled_config(geometry, phi, delta_ab, x) for x in (1.0, s))
            for command, sweep in SCALE_COMMANDS:
                code, kind, fields = run_scaled(scaled, command, sweep, s, directory)
                ref_code, ref_kind, reference = run_scaled(unit, command, sweep, 1.0, directory)
                assert (code, kind) == (ref_code, ref_kind), (command, sweep)
                if code == 0:
                    tol = SCALE_TOL.get(command, SCALE_TOL_DEFAULT)
                    assert scale_deviation(fields, reference, s) <= tol, (command, sweep)

    #: the one-photon commands, on spacings whose channels are all wider than 0.1 gamma
    ONE_PHOTON_COMMANDS = [
        ("spectrum", "delta_a:-6:6:201"),
        ("spectrum", "phi:0.8:2.6:10"),
        ("loci", "phi:0.8:2.6:10"),
        ("fano", "phi:0.8:2.6:10"),
        ("eit-classify", None),
        ("eit-spectrum", "delta_a:-6:6:201"),
    ]

    @pytest.mark.parametrize("s", [1e-300, 1e-160, 1e-150, 1e-6, 1e6, 1e154, 1e300])
    def test_one_photon_commands_at_extreme_scales(self, tmp_path, s):
        # a product of two rates of 1e154 overflows, one of 1e-160 is subnormal:
        # the quantities are computed on the rates divided by the rate scale
        unit, scaled = (scaled_config("nested", math.pi / 2, -1.0, x) for x in (1.0, s))
        for command, sweep in self.ONE_PHOTON_COMMANDS:
            code, _, fields = run_scaled(scaled, command, sweep, s, tmp_path)
            ref_code, _, reference = run_scaled(unit, command, sweep, 1.0, tmp_path)
            assert code == ref_code == 0, (command, sweep)
            assert scale_deviation(fields, reference, s, relative=False) <= 1e-14, (command, sweep)

    #: the master-equation commands, on the grids of SCALE_COMMANDS
    MASTER_COMMANDS = [("master-sweep", "delta_a:-6:6:41"), ("inelastic-spectrum", "nu:-40:40:201")]

    @pytest.mark.parametrize("s", [1e-300, 1e154, 1e300])
    @pytest.mark.parametrize("geometry", ["separate", "nested", "explicit"])
    def test_master_commands_at_extreme_scales(self, tmp_path, geometry, s):
        # the generator is built in the rate scale of the quantities:
        # in raw units its norm overflowed at 1e154, and at 1e-300 the
        # steady state found no stationary direction
        unit, scaled = (scaled_config(geometry, math.pi / 2, -1.0, x) for x in (1.0, s))
        for command, sweep in self.MASTER_COMMANDS:
            code, _, fields = run_scaled(scaled, command, sweep, s, tmp_path)
            ref_code, _, reference = run_scaled(unit, command, sweep, 1.0, tmp_path)
            assert code == ref_code == 0, (command, sweep)
            assert scale_deviation(fields, reference, s) <= SCALE_TOL_DEFAULT, (command, sweep)

    #: the one-photon commands, ``characteristics`` and the benchmark's phi grids
    EXACT_COMMANDS = ONE_PHOTON_COMMANDS + [("characteristics", None)] + [
        (command, "phi:0.05:3.09:301") for command in ("spectrum", "characteristics", "loci", "fano")
    ]

    @staticmethod
    def exact_at_power_of_4(commands, geometry, k, directory):
        """How many of ``commands`` compute on the config of ``geometry``
        scaled by s = 4^k; each that does is bit-identical to s = 1 once s
        is divided out, and each that does not fails as at s = 1."""
        s = 4.0**k
        unit, scaled = (scaled_config(geometry, math.pi / 2, -1.0, x) for x in (1.0, s))
        computed = 0
        for command, sweep in commands:
            code, kind, fields = run_scaled(scaled, command, sweep, s, directory)
            ref_code, ref_kind, reference = run_scaled(unit, command, sweep, 1.0, directory)
            assert (code, kind) == (ref_code, ref_kind), (command, sweep)
            if code == 0:
                assert scale_deviation(fields, reference, s, relative=False) == 0.0, (command, sweep)
                computed += 1
        return computed

    @pytest.mark.parametrize("k", [-270, -60, -10, 10, 60, 270])
    @pytest.mark.parametrize("geometry", ["separate", "braided", "nested", "explicit"])
    def test_one_photon_commands_exact_at_powers_of_4(self, tmp_path, geometry, k):
        # scaling by a power of 4 is exact in every floating-point step of the
        # one-photon path, square roots included: the outputs are bit-identical
        # once s is divided out
        computed = self.exact_at_power_of_4(self.EXACT_COMMANDS, geometry, k, tmp_path)
        # an explicit config has no phi sweeps, and braided phi = pi/2 is
        # decoupled, so eit-spectrum exits 3 at every scale
        assert computed == {"explicit": 4, "braided": 10}.get(geometry, len(self.EXACT_COMMANDS))

    @pytest.mark.parametrize("k", [-270, -60, -10, 10, 60, 128, 270])
    @pytest.mark.parametrize("geometry", ["separate", "braided", "nested", "explicit"])
    def test_master_commands_exact_at_powers_of_4(self, tmp_path, geometry, k):
        # the master equation computes in the rate scale of the quantities,
        # which scales exactly with s: its outputs are bit-identical too
        computed = self.exact_at_power_of_4(self.MASTER_COMMANDS, geometry, k, tmp_path)
        # braided phi = pi/2 is decoherence-free: no unique steady state
        assert computed == (0 if geometry == "braided" else len(self.MASTER_COMMANDS))

    def test_fano_at_1e154_is_finite_and_quiet(self, tmp_path):
        path = write_config(tmp_path, scaled_config("nested", math.pi / 2, -1.0, 1e154))
        proc = invoke("--config", path, "--command", "fano", "--sweep", "phi:0.8:2.6:10")
        assert proc.returncode == 0 and proc.stderr == ""
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        assert len(rows) == 10 and all(math.isfinite(float(v)) for row in rows for v in row[1:9])


def test_eit_spectrum_through_near_decoupled_transparency(capsys, tmp_path):
    # nested phi = pi/4 just off the decoupling delta_ab: the control is ~5e-9,
    # and the grid's first point is the transparency detuning itself
    raw = {"symmetric": {"topology": "nested", "phi": math.pi / 4}, "delta_ab": -(2 + math.sqrt(2)) + 1e-8}
    x = classify_eit(build_system(raw)).transparency_delta_a
    path = write_config(tmp_path, raw)
    code, out, err = run_main(capsys, "--config", path, "--command", "eit-spectrum",
                              "--sweep", f"delta_a:{x!r}:{x + 1.0!r}:3")
    assert code == 0 and err == ""
    row = [float(v) for v in out.splitlines()[1].split(",")]
    assert row[0] == x and abs(row[5] + row[6] - 1) <= 1e-10
