"""The benchmark's workloads: which CLI invocations each one runs, on which inputs.

One operation is one CLI invocation (one command, one config, one grid).
Every workload is a fixed list of operations except for the random explicit
configurations of ``configs``, which are drawn from the benchmark's seed.

Figure parameter sets (arXiv 2201.05329, figs. 7 and 8) follow the package's
acceptance suite: fig. 7a separate phi = pi/2, delta_ab = 1, |alpha|^2 = 0.04;
7b braided phi = pi, delta_ab = 1, 0.04; 7c nested phi = pi/2, delta_ab = -1,
0.01; 8a braided single-atom scheme, 0.01; 8b nested single-atom scheme, 0.04.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from reference import POINT_PAIRS

TOPOLOGIES = ("separate", "braided", "nested")

#: rate and grid scale of the scaled master sweep (a known fault, see README)
SCALE = 1e6


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its checks need to know about it.

    ``twin`` names an earlier operation of the same round whose output this
    one must reproduce byte for byte (a ``--jobs 2`` rerun), or, with
    ``scaled`` set, whose rows this one must reproduce after dividing out
    the scale factor.  ``flux_from`` names the master sweep that holds the
    inelastic flux an ``inelastic-spectrum`` must integrate to.
    ``eit_expected`` is the paper's verdict (EIT or not) for ``eit-classify``.
    ``known_fault`` marks an operation that fails because of a named fault of
    the program; it is counted as failed without making the run incorrect.
    """

    name: str
    command: str
    config: dict | None = None
    sweep: str | None = None
    jobs: int = 1
    fmt: str | None = None
    twin: str | None = None
    scaled: float | None = None
    flux_from: str | None = None
    weak: bool = False
    eit_expected: bool | None = None
    known_fault: str | None = None

    def argv(self, config_path: str | None, out_path: str, jobs: int | None = None) -> list[str]:
        args = ["--command", self.command, "--out", out_path, "--jobs", str(jobs or self.jobs)]
        if config_path is not None:
            args += ["--config", config_path]
        if self.sweep is not None:
            args += ["--sweep", self.sweep]
        if self.fmt is not None:
            args += ["--format", self.fmt]
        return args


def symmetric(topology: str, phi: float, delta_ab: float = 0.0, gamma: float = 1.0,
              drive: dict | None = None) -> dict:
    cfg = {"symmetric": {"topology": topology, "phi": phi, "gamma": gamma}, "delta_ab": delta_ab}
    if drive is not None:
        cfg["drive"] = drive
    return cfg


def explicit(atom_a, atom_b, delta_ab: float, drive: dict | None = None) -> dict:
    cfg = {
        "atoms": [{"points": [{"phase": p, "rate": r} for p, r in atom]} for atom in (atom_a, atom_b)],
        "delta_ab": delta_ab,
    }
    if drive is not None:
        cfg["drive"] = drive
    return cfg


def _fig_sets() -> list[tuple[str, dict, float]]:
    """(name, config without drive, |alpha|^2) for figs. 7a-c and 8a-b."""
    pi = math.pi
    return [
        ("fig7a", symmetric("separate", pi / 2, delta_ab=1.0), 0.04),
        ("fig7b", symmetric("braided", pi, delta_ab=1.0), 0.04),
        ("fig7c", symmetric("nested", pi / 2, delta_ab=-1.0), 0.01),
        ("fig8a", explicit(((0.0, 1.0), (pi, 1.0)), ((0.25 * pi, 1.0), (2.25 * pi, 1.0)),
                           delta_ab=math.sin(2 * pi)), 0.01),
        ("fig8b", explicit(((0.0, 1.0), (pi, 1.0)), ((0.25 * pi, 10.0), (0.75 * pi, 10.0)),
                           delta_ab=10.0 * math.sin(0.5 * pi)), 0.04),
    ]


#: drive detuning of the master-equation figure sets; on the master-sweep grid
FIG_DRIVE_DETUNING = 0.3
MASTER_GRID = "delta_a:-6:6:121"
NU_GRID = "nu:-40:40:4001"

#: (topology, phi, [(delta_ab, paper says EIT)]): the paper's EIT table, with
#: points inside each published interval, on its edges and outside it
EIT_TABLE = [
    ("separate", math.pi / 2, [(1.0, True), (-1.5, True), (2.0, False), (3.0, False)]),
    ("braided", math.pi, [(1.0, True), (-3.0, True), (4.0, False), (0.0, False)]),
    ("separate", 2 * math.pi, [(2.5, True), (-0.5, True), (5.0, False), (0.0, False)]),
    ("braided", 2 * math.pi, [(3.5, True), (-2.0, True), (-4.5, False), (0.0, False)]),
    ("nested", 2 * math.pi, [(1.5, True), (-3.5, True), (4.0, False), (6.0, False)]),
    ("nested", math.pi / 2, [(-1.0, True), (-3.0, True), (-2.0, False), (1.0, False)]),
]


def spectra() -> list[Op]:
    ops = []
    delta_sweeps = [
        ("sep", symmetric("separate", 0.15708), "delta_a:-6:6:2001"),
        ("bra", symmetric("braided", 1.47655), "delta_a:-3:3:2001"),
        ("nes", symmetric("nested", 1.0472), "delta_a:-6:6:2001"),
        ("explicit", explicit(((0.0, 1.0), (1.9, 0.6)), ((0.8, 0.4), (2.7, 1.3)), delta_ab=0.7),
         "delta_a:-6:6:2001"),
    ]
    for name, cfg, sweep in delta_sweeps:
        ops.append(Op(f"spectrum-{name}", "spectrum", cfg, sweep))
        ops.append(Op(f"spectrum-{name}-j2", "spectrum", cfg, sweep, jobs=2, twin=f"spectrum-{name}"))
    for topology in TOPOLOGIES:
        cfg = symmetric(topology, 1.0, drive={"alpha_sq": 0.01, "detuning": 0.4})
        for command in ("spectrum", "characteristics", "loci", "fano"):
            ops.append(Op(f"{command}-phi-{topology}", command, cfg, "phi:0.05:3.09:301"))
    for name, cfg, _ in _fig_sets():
        ops.append(Op(f"eit-spectrum-{name}", "eit-spectrum", cfg, "delta_a:-6:6:1001"))
    ops.append(Op(
        "near-dark", "spectrum", symmetric("braided", math.pi / 2 + 1e-4),
        "delta_a:-1.0006:-0.9998:81",
        known_fault="near-dark spectrum: the closed form loses digits next to the "
                    "vacuum-Rabi peak (|T+R-1| ~ 2e-9)",
    ))
    return ops


def master() -> list[Op]:
    ops = []
    for name, cfg, alpha_sq in _fig_sets():
        driven = dict(cfg, drive={"alpha_sq": alpha_sq, "detuning": FIG_DRIVE_DETUNING})
        ops.append(Op(f"master-{name}", "master-sweep", driven, MASTER_GRID))
        ops.append(Op(f"master-{name}-j2", "master-sweep", driven, MASTER_GRID, jobs=2,
                      twin=f"master-{name}"))
        ops.append(Op(f"inelastic-{name}", "inelastic-spectrum", driven, NU_GRID,
                      flux_from=f"master-{name}"))
    weak = [("separate", math.pi / 4, 1.0), ("braided", 2.3, 3.0), ("nested", math.pi / 3, 1.0)]
    for topology, phi, gamma in weak:
        cfg = symmetric(topology, phi, gamma=gamma, drive={"alpha_sq": 1e-4})
        ops.append(Op(f"weak-{topology}", "master-sweep", cfg, MASTER_GRID, weak=True))
        ops.append(Op(f"weak-{topology}-j2", "master-sweep", cfg, MASTER_GRID, jobs=2,
                      twin=f"weak-{topology}"))
    for topology in TOPOLOGIES:
        plain = symmetric(topology, 0.7, drive={"alpha_sq": 0.04})
        ops.append(Op(f"unscaled-{topology}", "master-sweep", plain, "delta_a:-3:3:31"))
        scaled = symmetric(topology, 0.7, gamma=SCALE, drive={"alpha_sq": 0.04 * SCALE})
        ops.append(Op(
            f"scaled-{topology}", "master-sweep", scaled,
            f"delta_a:{-3 * SCALE:g}:{3 * SCALE:g}:31",
            twin=f"unscaled-{topology}", scaled=SCALE,
            known_fault="scaled master sweep: the absolute lindblad.STATIONARY_TOL "
                        "finds no stationary direction at rates ~1e6",
        ))
    return ops


def random_explicit(rng: np.random.Generator) -> dict:
    """A random two-atom geometry with unequal rates and detuned atoms."""
    kind = TOPOLOGIES[int(rng.integers(3))]
    th = np.sort(rng.uniform(0.0, 4.0 * math.pi, 4))
    rates = rng.uniform(0.05, 3.0, 4)
    atom_a, atom_b = ([(float(th[i]), float(rates[i])) for i in pair] for pair in POINT_PAIRS[kind])
    return explicit(atom_a, atom_b, delta_ab=float(rng.uniform(-4.0, 4.0)))


RANDOM_CONFIGS = 6


def configs(seed: int) -> list[Op]:
    ops = [Op("oracle-check", "oracle-check", None, "delta_a:0:1:2000", fmt="json")]
    for topology, phi, rows in EIT_TABLE:
        for delta_ab, is_eit in rows:
            ops.append(Op(
                f"eit-classify-{topology}-{phi:.4f}-{delta_ab:g}", "eit-classify",
                symmetric(topology, phi, delta_ab=delta_ab), eit_expected=is_eit,
            ))
    rng = np.random.default_rng(seed)
    for k in range(RANDOM_CONFIGS):
        cfg = random_explicit(rng)
        ops.append(Op(f"random-{k}-characteristics", "characteristics", cfg))
        ops.append(Op(f"random-{k}-spectrum", "spectrum", cfg, "delta_a:-4:4:41"))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    if workload == "spectra":
        return spectra()
    if workload == "master":
        return master()
    if workload == "configs":
        return configs(seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("spectra", "master", "configs")
