"""The benchmark's workloads: inputs made from a seed, and output checks.

Each pipeline workload writes a regular ring of N sites as a coupling
file, with couplings (r_01 / r_ij)^3 so nearest neighbours couple with
1, and the sites relabelled by a permutation drawn from the seed.
Relabelling changes the matrix layout and the roundoff but not the
physics, so every seed is checked against one reference report.
Positions are never jittered: that changes the transition count and
the location of the maximum, which would be a different workload.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

PIPELINE_FILES = (
    "report.json",
    "sweep.csv",
    "transitions.csv",
    "stage_mq_intensities.csv",
    "stage_populations.csv",
    "spectrum_thermal.csv",
    "spectrum_crushed.csv",
    "spectrum_saturated.csv",
)

REPORT_RTOL = 1e-9

FILTER_CHECK_TOL = 1e-10


def ring_couplings(n: int, seed: int) -> list[list[float]]:
    """Regular n-ring couplings (sin(pi/n) / sin(pi d/n))^3, sites relabelled."""
    label = random.Random(seed).sample(range(n), n)
    couplings = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            d = min(abs(i - j), n - abs(i - j))
            if d:
                value = (math.sin(math.pi / n) / math.sin(math.pi * d / n)) ** 3
                couplings[label[i]][label[j]] = value
    return couplings


def write_couplings(path: Path, couplings) -> None:
    lines = [str(len(couplings))]
    lines += [" ".join(repr(v) for v in row) for row in couplings]
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class PipelineWorkload:
    """``mqpure pipeline`` on a relabelled ring, checked against a reference.

    ``warm_up`` runs one untimed op during set-up; it is off where the
    lazy set-up is a negligible share of one op.
    """

    name: str
    n_spins: int
    config: dict
    reference: dict
    warm_up: bool

    def prepare(self, seed: int, work: Path) -> list[str]:
        """Write the coupling and config files; return the CLI arguments."""
        couplings = work / "couplings.txt"
        write_couplings(couplings, ring_couplings(self.n_spins, seed))
        config = work / "config.json"
        config.write_text(json.dumps({"system": str(couplings), **self.config}))
        return ["pipeline", "--config", str(config), "--out", str(work / "out")]

    def check(self, stdout: str, work: Path) -> str | None:
        """None if the op's outputs match the reference, else the reason."""
        out = work / "out"
        missing = [f for f in PIPELINE_FILES if not (out / f).is_file()]
        if missing:
            return f"missing outputs {missing}"
        report = json.loads((out / "report.json").read_text())
        for key, want in self.reference.items():
            got = report[key]
            if key == "peak_counts":
                if got != want:
                    return f"peak_counts {got} != {want}"
            elif not abs(got - want) <= REPORT_RTOL * abs(want):
                return f"{key} {got!r} differs from {want!r} by more than {REPORT_RTOL:g} relative"
        return None

    def output_bytes(self, work: Path) -> int:
        return sum(p.stat().st_size for p in (work / "out").iterdir())


@dataclass(frozen=True)
class FilterCheckWorkload:
    """``mqpure filter-check`` on random dense states drawn from the seed."""

    name: str
    n_spins: int
    trials: int
    warm_up: bool = True

    def prepare(self, seed: int, work: Path) -> list[str]:
        return ["filter-check", "--n-spins", str(self.n_spins),
                "--trials", str(self.trials), "--seed", str(seed)]

    def check(self, stdout: str, work: Path) -> str | None:
        found = re.search(r"max elementwise deviation over \d+ trials: (\S+)", stdout)
        if found is None:
            return f"no deviation printed: {stdout!r}"
        if not float(found.group(1)) <= FILTER_CHECK_TOL:
            return f"deviation {found.group(1)} above {FILTER_CHECK_TOL:g}"
        return None

    def output_bytes(self, work: Path) -> int:
        return 0


# Why each workload was chosen is recorded in BENCHMARK.json.  The
# reference reports are the values the unrelabelled rings gave when this
# benchmark was introduced; ring10's t_prep sits beside its F10 maximum.
WORKLOADS = {
    w.name: w
    for w in (
        PipelineWorkload(
            "hexagon-pipeline",
            6,
            {"t_prep": 0.973, "t_max": 2.0, "t_step": 0.001},
            {
                "t_star": 0.9732682621724744,
                "f_homq": 0.14039803365885034,
                "f_convert": 0.719724949823171,
                "f_overall": 0.10104796773038793,
                "peak_counts": {"thermal": 46, "crushed": 2, "saturated": 1},
            },
            warm_up=True,
        ),
        PipelineWorkload(
            "ring10-pipeline",
            10,
            {"t_prep": 5.39, "t_max": 6.0, "t_step": 0.1},
            {
                "t_star": 5.388370950054041,
                "f_homq": 0.004476424612891052,
                "f_convert": 0.28114756992861234,
                "f_overall": 0.0012585359018829486,
                "peak_counts": {"thermal": 746, "crushed": 6, "saturated": 1},
            },
            warm_up=False,
        ),
        FilterCheckWorkload("filter-check-8", 8, 20),
    )
}
