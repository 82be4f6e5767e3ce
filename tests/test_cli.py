import copy
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import jsonschema

from gawqed import (
    CouplingPoint,
    GiantAtom,
    SystemConfig,
    Topology,
    amplitudes_general,
    characteristics,
    classify_topology,
    lorentz_pair,
    peak_minimum_loci,
    solve_real_space,
)
from gawqed import cli, fano
from gawqed.cli import build_system, main, validate_config
from gawqed.core import ConfigError, Geometries, symmetric_config
from gawqed.scattering import OracleSingularError

from conftest import random_system, shift_probe_check

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
            assert build_system({"symmetric": shortcut, "delta_ab": -0.4}, phi_override=phi) == expected

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


class TestWriter:
    def test_csv_matches_per_value_format(self, tmp_path):
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 1 / 3]
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2**63, 200, dtype=np.uint64).view(np.float64).tolist()
        randoms = rng.normal(scale=1e3, size=200).tolist()
        floats = specials + bits + randoms
        rows = [
            # columns: floats only, ints, strings, None, one non-float among floats
            [x, k, f"s{k}", None, "x" if k == 5 else x]
            for k, x in enumerate(floats)
        ]
        header = ["a", "b", "c", "d", "e"]
        path = tmp_path / "rows.csv"
        cli._write_rows(str(path), "csv", header, rows)
        reference = ",".join(header) + "\n"
        reference += "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)
        assert path.read_bytes() == reference.encode()

    def test_csv_header_only(self, tmp_path):
        path = tmp_path / "rows.csv"
        cli._write_rows(str(path), "csv", ["a", "b"], [])
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
        cli._write_rows(str(path), "json", header, rows)

        def clean(value):
            return None if isinstance(value, float) and not math.isfinite(value) else value

        reference = json.dumps([{k: clean(v) for k, v in zip(header, row)} for row in rows], indent=2)
        assert path.read_text() == reference + "\n"

    @pytest.mark.parametrize("count", [0, 1, len(JSON_ROWS)])
    def test_json_document_matches_json_dump(self, count):
        fields = {"tolerance": 1e-10, "max_deviation": math.nan, "label": "x", "n": 3}
        rows = self.JSON_ROWS[:count]
        assert "".join(cli._json_document(fields, rows)) == json.dumps(dict(fields, rows=rows), indent=2)


class TestCommands:
    def test_eit_classify_verdict(self, sep_config):
        proc = invoke("--config", sep_config, "--command", "eit-classify")
        assert proc.returncode == 0
        verdict = json.loads(proc.stdout)
        assert verdict["scheme"] == "CollectiveSA"
        assert verdict["regime"] == "EIT"
        assert verdict["transparency_delta_a"] == pytest.approx(0.5)

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

    def test_loci_and_fano_sweeps(self, sep_config, tmp_path):
        # the analytic loci hold for delta_ab = 0 only (test_loci_reject_detuned_atoms)
        tuned = tmp_path / "tuned.json"
        tuned.write_text(json.dumps(dict(json.loads(Path(sep_config).read_text()), delta_ab=0.0)))
        proc = invoke("--config", str(tuned), "--command", "loci", "--sweep", "phi:0.1:1.0:4")
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
        a = np.loadtxt(out1, delimiter=",", skiprows=1)
        b = np.loadtxt(out2, delimiter=",", skiprows=1)
        np.testing.assert_allclose(a, b, atol=1e-10)

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
        assert math.isnan(json.loads(out)["max_deviation"])
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

    @pytest.mark.parametrize("bounds", ["-inf:inf", "0:inf", "-inf:0", "nan:1"])
    def test_non_finite_sweep_bounds_are_2(self, capsys, sep_config, bounds):
        code, out, err = run_main(capsys, "--config", sep_config, "--command", "spectrum",
                                  "--sweep", f"delta_a:{bounds}:3")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "config"

    def test_degenerate_sweep_grid_is_2(self, sep_config):
        proc = invoke("--config", sep_config, "--command", "spectrum", "--sweep", "delta_a:0:1:1")
        assert proc.returncode == 2
        proc = invoke("--config", sep_config, "--command", "spectrum", "--sweep", "delta_a:2:1:5")
        assert proc.returncode == 2

    def test_main_entry_point(self, sep_config, capsys):
        assert main(["--config", sep_config, "--command", "eit-classify"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["regime"] == "EIT"


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
        rng = np.random.default_rng(0)
        assert len(report["rows"]) == 300
        for index, row in enumerate(report["rows"]):
            cfg = random_system(rng)
            delta = float(rng.uniform(-6.0, 6.0))
            assert (row["index"], row["topology"], row["delta_a"]) == (
                index, classify_topology(cfg).value, delta
            )
            gen, orc = amplitudes_general(cfg, delta), solve_real_space(cfg, delta)
            assert row["dev_t"] == pytest.approx(abs(gen.t - orc.t), abs=1e-14)
            assert row["dev_r"] == pytest.approx(abs(gen.r - orc.r), abs=1e-14)
        worst = max(max(row["dev_t"], row["dev_r"]) for row in report["rows"])
        assert report["max_deviation"] == worst

    def test_random_draws_match_config_by_config(self):
        # block sizes around STACK_BLOCK, drawn in one stream
        rng, reference = np.random.default_rng(7), np.random.default_rng(7)
        for count in (1, 127, 128, 129, 300, 5000):
            geoms, delta, names = cli._random_draws(rng, count)
            cfgs = []
            deltas = []
            for _ in range(count):
                cfgs.append(random_system(reference))
                deltas.append(float(reference.uniform(-6.0, 6.0)))
            expected = Geometries.of(cfgs)
            for field in ("phases", "rates", "delta_ab", "rate_unit"):
                drawn, ref = getattr(geoms, field), getattr(expected, field)
                assert drawn.shape == ref.shape and drawn.tobytes() == ref.tobytes(), field
            assert delta.tobytes() == np.array(deltas).tobytes()
            assert names == [classify_topology(cfg).value for cfg in cfgs]
            assert rng.bit_generator.state == reference.bit_generator.state

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

    @pytest.mark.parametrize("command", ["spectrum", "characteristics"])
    def test_phi_sweep_below_zero_is_2(self, capsys, tmp_path, command):
        path = write_config(tmp_path, {"symmetric": {"topology": "separate", "phi": 1.0}})
        code, out, err = run_main(capsys, "--config", path, "--command", command,
                                  "--sweep", "phi:-0.5:1:4")
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "config", "message": "atom a: points must be ordered left-to-right (0.0 > -0.5)"
        }

    def test_phi_sweeps_match_point_calls(self, capsys, tmp_path):
        raw = {"symmetric": {"topology": "nested", "phi": 1.0, "gamma": 0.7}, "delta_ab": 0.3,
               "drive": {"alpha_sq": 0.01, "detuning": 0.4}}
        path = write_config(tmp_path, raw)
        sweep = ["--sweep", "phi:0.05:3.09:301"]
        code, out, _ = run_main(capsys, "--config", path, "--command", "characteristics", *sweep)
        assert code == 0
        for line in out.splitlines()[1:]:
            phi, *values = line.split(",")
            ch = characteristics(build_system(raw, phi_override=float(phi)))
            assert values == [format(getattr(ch, name), ".17g") for name in (
                "lamb_a", "lamb_b", "gamma_a", "gamma_b", "g_ab", "gamma_ab", "alpha_a", "alpha_b")]
        code, out, _ = run_main(capsys, "--config", path, "--command", "spectrum", *sweep)
        assert code == 0
        for line in out.splitlines()[1:]:
            phi, re_t, im_t, re_r, im_r, big_t, big_r = map(float, line.split(","))
            pt = amplitudes_general(build_system(raw, phi_override=phi), 0.4)
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
            pair = lorentz_pair(build_system(dict(raw, delta_ab=2.0), phi_override=row["phi"]))
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
            lorentz_pair(build_system(raw, phi_override=float(phis[200])))
        code, out, err = run_main(capsys, "--config", path, "--command", "fano",
                                  "--sweep", "phi:0.05:3.09:301")
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "DecompositionError", "message": f"{point.value} at phi={float(phis[200])}"
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

    def test_loci_reject_detuned_atoms(self, capsys, tmp_path):
        path = write_config(tmp_path, {"symmetric": {"topology": "nested", "phi": 1.0}, "delta_ab": 2.0})
        code, out, err = run_main(capsys, "--config", path, "--command", "loci", "--sweep", "phi:0.3:2.8:6")
        assert code == 2 and out == ""
        assert "delta_ab = 0 only" in json.loads(err)["message"]
