"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Each case produces a real output with the CLI (in this process), asserts
that its check passes it, then perturbs it slightly and asserts that the
check catches the change.  A last case confirms that the 50-digit reference
reproduces the single-emitter Lorentzian when one atom is decoupled.  Prints
one line per case; exits non-zero if any case fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
from workloads import Op, symmetric  # noqa: E402


def rewrite_csv(data: bytes, edit) -> bytes:
    """Apply ``edit(header, rows)`` to the float table of a CSV output."""
    header, rows = checks.parse_csv(data)
    edit(header, rows)
    return ("\n".join(",".join(row) for row in [header] + rows) + "\n").encode()


def fmt(value: float) -> str:
    return format(value, ".17g")


def rotate_r(header, rows, by=1e-8):
    """Turn every r by a phase so that |delta r| = ``by``: T, R and unitarity unchanged."""
    i = header.index("re_r")
    for row in rows:
        r = complex(float(row[i]), float(row[i + 1]))
        if abs(r) > 1e-3:
            r *= complex(math.cos(by / abs(r)), math.sin(by / abs(r)))
            row[i], row[i + 1] = fmt(r.real), fmt(r.imag)


def bump_flux(alpha_sq, by=1e-6):
    """F off by ``by`` in the middle row, with the residual column recomputed."""
    def edit(header, rows):
        row = rows[len(rows) // 2]
        row[3] = fmt(float(row[3]) + by)
        big_t, big_r, flux = (float(v) for v in row[1:4])
        row[4] = fmt(abs(flux / alpha_sq - (1 - big_t - big_r)))
    return edit


def shift_column(name, by):
    def edit(header, rows):
        i = header.index(name)
        for row in rows:
            if row[i] != "nan":
                row[i] = fmt(float(row[i]) + by)
    return edit


def scale_spectrum(factor):
    def edit(header, rows):
        for row in rows:
            row[1:4] = [fmt(float(v) * factor) for v in row[1:4]]
    return edit


def move_t_to_r(by):
    """Move ``by`` from T to R wherever T allows: T + R, F and the residual unchanged."""
    def edit(header, rows):
        for row in rows:
            if float(row[1]) > 2 * by:
                row[1], row[2] = fmt(float(row[1]) - by), fmt(float(row[2]) + by)
    return edit


def flip_regime(data: bytes) -> bytes:
    verdict = json.loads(data)
    verdict["regime"] = "ATS" if verdict["regime"] == "EIT" else "EIT"
    return json.dumps(verdict).encode()


def flip_byte(data: bytes) -> bytes:
    k = len(data) // 2
    return data[:k] + (b"1" if data[k:k + 1] != b"1" else b"2") + data[k + 1:]


def raise_deviation(data: bytes) -> bytes:
    report = json.loads(data)
    report["rows"][3]["dev_r"] = 2e-10
    report["max_deviation"] = 2e-10
    return json.dumps(report).encode()


def cases():
    sep = symmetric("separate", math.pi / 2, delta_ab=1.0, drive={"alpha_sq": 0.04, "detuning": 0.3})
    phi_cfg = symmetric("nested", 1.0, drive={"alpha_sq": 0.01, "detuning": 0.4})
    weak = symmetric("braided", 2.3, gamma=3.0, drive={"alpha_sq": 1e-4})
    unscaled = symmetric("nested", 0.7, drive={"alpha_sq": 0.04})
    master = Op("master", "master-sweep", sep, "delta_a:-3:3:61")
    spectrum = Op("spectrum", "spectrum", sep, "delta_a:-4:4:81")
    return [
        ("spectrum: r off by 1e-8", [spectrum], lambda d: rewrite_csv(d, rotate_r)),
        ("eit-spectrum: r off by 1e-8", [Op("eit", "eit-spectrum", sep, "delta_a:-4:4:81")],
         lambda d: rewrite_csv(d, rotate_r)),
        ("spectrum over phi: r off by 1e-8", [Op("sphi", "spectrum", phi_cfg, "phi:0.1:3:41")],
         lambda d: rewrite_csv(d, rotate_r)),
        ("characteristics: g_ab off by 1e-9", [Op("ch", "characteristics", phi_cfg, "phi:0.1:3:41")],
         lambda d: rewrite_csv(d, shift_column("g_ab", 1e-9))),
        ("loci: peak shifted by 1e-4", [Op("loci", "loci", phi_cfg, "phi:0.1:3:41")],
         lambda d: rewrite_csv(d, shift_column("peak_1", 1e-4))),
        ("loci: minimum shifted by 1e-4", [Op("loci", "loci", phi_cfg, "phi:0.1:3:41")],
         lambda d: rewrite_csv(d, shift_column("minimum", 1e-4))),
        ("fano: chi_plus off by 1e-6", [Op("fano", "fano", phi_cfg, "phi:0.1:3:41")],
         lambda d: rewrite_csv(d, shift_column("re_chi_plus", 1e-6))),
        ("master-sweep: F off by 1e-6", [master], lambda d: rewrite_csv(d, bump_flux(0.04))),
        ("master-sweep: weak-drive T off by 2e-3",
         [Op("weak", "master-sweep", weak, "delta_a:-3:3:31", weak=True)],
         lambda d: rewrite_csv(d, move_t_to_r(2e-3))),
        ("master-sweep: scaled rows off by 1e-6",
         [Op("unscaled", "master-sweep", unscaled, "delta_a:-3:3:31"),
          Op("scaled", "master-sweep", unscaled, "delta_a:-3:3:31", twin="unscaled", scaled=1.0)],
         lambda d: rewrite_csv(d, move_t_to_r(1e-6))),
        ("inelastic-spectrum: integral off by 1e-4 of F",
         [master, Op("inel", "inelastic-spectrum", sep, "nu:-40:40:4001", flux_from="master")],
         lambda d: rewrite_csv(d, scale_spectrum(1.0001))),
        ("eit-classify: one flipped verdict",
         [Op("classify", "eit-classify", symmetric("separate", math.pi / 2, delta_ab=1.0), eit_expected=True)],
         flip_regime),
        ("--jobs 2: one changed byte",
         [spectrum, Op("spectrum-j2", "spectrum", sep, "delta_a:-4:4:81", jobs=2, twin="spectrum")],
         flip_byte),
        ("oracle-check: one deviation above tolerance",
         [Op("oracle", "oracle-check", None, "delta_a:0:1:50", fmt="json")], raise_deviation),
    ]


def lorentzian_case() -> str | None:
    """With atom b's rates at zero the reference is the single giant-atom Lorentzian."""
    with mpmath.workdps(ref.DIGITS):
        atom_a = [(0.3, 0.7), (2.1, 1.9)]
        atoms = [atom_a, [(0.9, 0.0), (2.8, 0.0)]]
        lamb = mpmath.sqrt(mpmath.mpf(0.7) * mpmath.mpf(1.9)) * mpmath.sin(mpmath.mpf(2.1) - mpmath.mpf(0.3))
        w = sum(mpmath.sqrt(mpmath.mpf(r)) * mpmath.expj(mpmath.mpf(p)) for p, r in atom_a)
        for delta in (-2.0, -0.37, 0.0, 0.81, 3.5):
            t, r = ref.amplitudes(atoms, 1.3, delta)
            d = mpmath.mpf(delta) - lamb
            den = 1j * d - abs(w) ** 2 / 2
            dev = max(abs(t - 1j * d / den), abs(r - w**2 / 2 / den))
            if dev > mpmath.mpf(10) ** (-40):
                return f"reference misses the Lorentzian by {mpmath.nstr(dev, 3)} at delta = {delta}"
    return None


def main() -> int:
    sys.path.insert(0, str(SRC))
    import gawqed.cli as cli

    work = BENCH / "_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    failures = 0
    try:
        for title, ops, perturb in cases():
            ctx = checks.Context(rng=np.random.default_rng(0))
            problem = None
            for op in ops:
                config_path = None
                if op.config is not None:
                    config_path = str(work / f"{op.name}.json")
                    Path(config_path).write_text(json.dumps(op.config), encoding="utf-8")
                out = work / f"{op.name}.out"
                if cli.main(op.argv(config_path, str(out))) != 0:
                    problem = f"{op.name}: the CLI failed"
                    break
                ctx.outputs[op.name] = out.read_bytes()
                try:
                    checks.check(op, ctx.outputs[op.name], ctx)
                except checks.CheckError as exc:
                    problem = f"clean output rejected: {exc}"
                    break
            if problem is None:
                target = ops[-1]
                bad = perturb(ctx.outputs[target.name])
                try:
                    checks.check(target, bad, ctx)
                    problem = "perturbed output passed"
                except checks.CheckError as exc:
                    caught = str(exc)
            failures += problem is not None
            print(f"[{'FAIL' if problem else 'ok'}] {title}: {problem or 'caught: ' + caught[:110]}")
        problem = lorentzian_case()
        failures += problem is not None
        print(f"[{'FAIL' if problem else 'ok'}] reference with atom b decoupled is the single-emitter "
              f"Lorentzian{': ' + problem if problem else ''}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
