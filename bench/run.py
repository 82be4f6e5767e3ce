"""Benchmark of the gawqed command-line interface.

    python3 bench/run.py --workload spectra --seed 1 --seconds 38 --trace 0

Run from anywhere inside a checkout; the package is taken from ``src/`` of
the checkout this file sits in.  One operation is one CLI invocation.  A run
repeats whole rounds of its workload's operations until the next round would
not fit in ``--seconds`` (at least one round).  With ``--trace 0`` each
operation runs once per round as a fresh ``python -m gawqed.cli`` process
and three times through ``gawqed.cli.main`` in this process, and the
end-to-end metrics are printed; with ``--trace 1`` each runs in this process at
``--jobs 1``, once plain and once with the per-layer tracer installed, and
the per-layer metrics are printed.  Outputs of the first round are checked
(see ``checks.py``); later rounds must reproduce them byte for byte.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from tracing import FUNCTIONS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

#: set-up interpreters timed at the start of every round (setup_s is their median)
SETUP_PER_ROUND = 5
#: in-process runs of each operation per round; a single short warm run is at
#: the mercy of the machine's speed noise (see README)
WARM_REPEATS = 3
#: ``python -X importtime`` runs for the import breakdown
IMPORT_REPEATS = 5
#: a CLI process still running after this long is killed and counted as failed
PROCESS_TIMEOUT = 120.0

SETUP_SCRIPT = """\
import json, sys
import gawqed.cli as cli
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    cli.validate_config(raw)
    cli.build_system(raw)
"""

IMPORT_SCRIPT = """\
import time
start = time.perf_counter()
import gawqed.cli
print(time.perf_counter() - start)
"""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """Runs the interpreter in processes started by ``launcher.py``; a context manager."""

    def __enter__(self) -> "Launcher":
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], cwd=ROOT, env=_child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=PROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def spawn(self, args: list[str], stderr: Path | None = None) -> tuple[int, float, int]:
        """(exit code, wall seconds, peak RSS in KiB) of ``python args``."""
        request = {"argv": [sys.executable, *args], "stderr": None if stderr is None else str(stderr)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the process launcher exited")
        answer = json.loads(reply)
        return answer["code"], answer["seconds"], answer["maxrss_kib"]


class Workload:
    """A workload's operations, their config files and the verdicts of their checks."""

    def __init__(self, name: str, seed: int, work: Path, launcher: Launcher) -> None:
        import gawqed.cli

        self.cli = gawqed.cli
        self.launcher = launcher
        self.ops = workloads.build(name, seed)
        self.work = work
        self.ctx = checks.Context(rng=np.random.default_rng(seed))
        self.config_paths: dict[str, str] = {}
        by_text: dict[str, str] = {}
        for op in self.ops:
            if op.config is None:
                continue
            text = json.dumps(op.config)
            if text not in by_text:
                path = work / f"config-{len(by_text)}.json"
                path.write_text(text, encoding="utf-8")
                by_text[text] = str(path)
            self.config_paths[op.name] = by_text[text]
        self.verdicts: dict[str, str | None] = {}
        self.rows: dict[str, int] = {}

    def _argv(self, op: workloads.Op, out: Path, jobs: int | None = None) -> list[str]:
        out.unlink(missing_ok=True)
        return op.argv(self.config_paths.get(op.name), str(out), jobs)

    def cold(self, op: workloads.Op) -> tuple[int, float, int, bytes, str]:
        out, err = self.work / f"{op.name}.cold", self.work / f"{op.name}.err"
        code, seconds, rss = self.launcher.spawn(["-m", "gawqed.cli", *self._argv(op, out)], stderr=err)
        data = out.read_bytes() if out.exists() else b""
        return code, seconds, rss, data, err.read_text(errors="replace")

    def warm(self, op: workloads.Op, jobs: int | None = None) -> tuple[int, float, bytes, str]:
        out = self.work / f"{op.name}.warm"
        argv = self._argv(op, out, jobs)
        sink = io.StringIO()
        # leave the benchmark's own objects out of the collections a CLI process would not make
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        with contextlib.redirect_stderr(sink):
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash of one operation is its failure, not the run's
                code = -1
                sink.write(repr(exc))
        seconds = time.perf_counter() - start
        data = out.read_bytes() if out.exists() else b""
        return code, seconds, data, sink.getvalue()

    def evaluate(self, op: workloads.Op, code: int, data: bytes, err: str, round_index: int) -> str | None:
        """None if the operation passed, else why it failed.

        The first round runs the checks; later rounds must reproduce the
        first round's output byte for byte and inherit its verdict.
        """
        if round_index > 0:
            if code != 0:
                return f"exit code {code}"
            if data != self.ctx.outputs[op.name]:
                return "output differs from the first round"
            return self.verdicts[op.name]
        self.ctx.outputs[op.name] = data
        self.rows[op.name] = count_rows(op, data) if code == 0 else 0
        if code != 0:
            verdict = f"exit code {code}: {err.strip()[-300:]}"
        else:
            try:
                checks.check(op, data, self.ctx)
                verdict = None
            except checks.CheckError as exc:
                verdict = str(exc)
        self.verdicts[op.name] = verdict
        return verdict


def count_rows(op: workloads.Op, data: bytes) -> int:
    """Output rows; an eit-classify verdict counts as one row."""
    if op.command == "eit-classify":
        return 1
    if op.fmt == "json":
        return len(json.loads(data)["rows"])
    return max(0, data.count(b"\n") - 1)


class Tally:
    """Operations attempted and failed; failures outside the known faults."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict[str, str] = {}

    def add(self, op: workloads.Op, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if op.known_fault is None:
                self.unexpected.setdefault(op.name, problem)


def another_round(rounds: int, spent: float, last: float, seconds: float) -> bool:
    """Whether to start another round: always a first, then while the last round still fits."""
    return rounds == 0 or spent + last <= seconds


def measure_setup(wl: Workload) -> list[float]:
    """Wall times of fresh interpreters importing the CLI and building the workload's configs."""
    paths = sorted(set(wl.config_paths.values()))
    times = []
    for _ in range(SETUP_PER_ROUND):
        code, seconds, _ = wl.launcher.spawn(["-c", SETUP_SCRIPT, *paths])
        if code != 0:
            raise RuntimeError(f"set-up interpreter exited with {code}")
        times.append(seconds)
    return times


def measure_imports() -> dict[str, float]:
    """Median import cost of gawqed.cli, split by ``python -X importtime``."""
    samples: dict[str, list[float]] = {
        k: [] for k in ("cli.import_s", "cli.import.numpy_s", "cli.import.jsonschema_s", "cli.import.gawqed_s")
    }
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_SCRIPT], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True, timeout=PROCESS_TIMEOUT,
                              check=True)
        cumulative: dict[str, float] = {}
        own = 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if not self_us.isdigit():
                continue  # the column header
            cumulative.setdefault(name, int(cum_us) * 1e-6)
            if name == "gawqed" or name.startswith("gawqed."):
                own += int(self_us) * 1e-6
        samples["cli.import_s"].append(float(proc.stdout.strip()))
        samples["cli.import.numpy_s"].append(cumulative.get("numpy", 0.0))
        samples["cli.import.jsonschema_s"].append(cumulative.get("jsonschema", 0.0))
        samples["cli.import.gawqed_s"].append(own)
    return {k: statistics.median(v) for k, v in samples.items()}


def timed_run(wl: Workload, seconds: float, tally: Tally) -> dict[str, tuple[float, str]]:
    wl.launcher.spawn(["-c", "import gawqed.cli"])  # fill the bytecode cache first
    setup: list[float] = []
    cold = {op.name: [] for op in wl.ops}
    warm = {op.name: [] for op in wl.ops}
    peak_kib = 0
    rounds, spent, last = 0, 0.0, 0.0
    while another_round(rounds, spent, last, seconds):
        samples = measure_setup(wl)
        setup += samples
        last = sum(samples)
        for op in wl.ops:
            code, c_secs, rss, data, err = wl.cold(op)
            problem = wl.evaluate(op, code, data, err, rounds)
            cold[op.name].append(c_secs)
            peak_kib = max(peak_kib, rss)
            last += c_secs
            for _ in range(WARM_REPEATS):
                w_code, w_secs, w_data, _ = wl.warm(op)
                if problem is None and (w_code, w_data) != (code, data):
                    problem = "output of the in-process run differs from the CLI process"
                warm[op.name].append(w_secs)
                last += w_secs
            tally.add(op, problem)
        rounds += 1
        spent += last
    print(f"{'operation':36s} {'jobs':>4s} {'rows':>6s} {'cold s':>8s} {'warm s':>8s}  (medians of {rounds} rounds)")
    for op in wl.ops:
        print(f"{op.name:36s} {op.jobs:4d} {wl.rows[op.name]:6d} "
              f"{statistics.median(cold[op.name]):8.4f} {statistics.median(warm[op.name]):8.4f}")
    warm_total = sum(statistics.median(v) for v in warm.values())
    return {
        "setup_s": (statistics.median(setup), "s"),
        "cold_wall_s": (sum(statistics.median(v) for v in cold.values()), "s"),
        "warm_rows_per_s": (sum(wl.rows.values()) / warm_total, "rows/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def traced_run(wl: Workload, seconds: float, tally: Tally) -> dict[str, tuple[float, str]]:
    metrics = {name: (value, "s") for name, value in measure_imports().items()}
    tracer = Tracer()
    snapshots, plain_times, traced_times = [], [], []
    rounds, spent, last = 0, 0.0, 0.0
    while another_round(rounds, spent, last, seconds):
        tracer.reset()
        plain = traced = 0.0
        for op in wl.ops:
            code, p_secs, data, err = wl.warm(op, jobs=1)
            with tracer:
                t_code, t_secs, t_data, _ = wl.warm(op, jobs=1)
            problem = wl.evaluate(op, code, data, err, rounds)
            if problem is None and (t_code, t_data) != (code, data):
                problem = "output of the traced run differs from the untraced run"
            tally.add(op, problem)
            plain += p_secs
            traced += t_secs
        snapshots.append(tracer.snapshot())
        plain_times.append(plain)
        traced_times.append(traced)
        rounds += 1
        last = plain + traced
        spent += last
    for key in FUNCTIONS:
        metrics[f"{key}.calls"] = (snapshots[0][key][0], "count")
        metrics[f"{key}.busy_s"] = (statistics.median(s[key][1] for s in snapshots), "s")
        metrics[f"{key}.self_s"] = (statistics.median(s[key][2] for s in snapshots), "s")
    metrics["trace.warm_s"] = (statistics.median(plain_times), "s")
    metrics["trace.overhead_s"] = (statistics.median(t - p for t, p in zip(traced_times, plain_times)), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gawqed" / "cli.py").is_file():
        print(f"bench: no package at {SRC / 'gawqed'}; run inside a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        with Launcher() as launcher:
            wl = Workload(args.workload, args.seed % 2**32, work, launcher)
            run = traced_run if args.trace else timed_run
            metrics = run(wl, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, problem in tally.unexpected.items():
        print(f"bench: {name} FAILED: {problem}", file=sys.stderr)
    for op in wl.ops:
        if op.known_fault and wl.verdicts.get(op.name):
            print(f"known fault, counted as failed: {op.name}: {wl.verdicts[op.name][:160]}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"attempted {tally.attempted}, failed {tally.failed}")
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
