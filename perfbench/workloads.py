"""The benchmark's workloads: which kerrsense invocations each one runs.

An invocation is one `kerrsense` CLI call (a list of arguments) plus the
output files it must write and the checks those files get.  There are two
workloads.  `lossless-map` is one `custom` map.  `traces-echo` runs the
squeezing traces (`fig1`, then `scaling`) and then the lossy echo (`fig3`)
in one round of about 45 s, so that one run averages over a long window.  Only
`lossless-map` depends on the seed: its (delta, epsilon) axes are drawn by
stratified jitter, one point per cell of a regular grid over the fig2 preset
ranges, so every seed covers the whole map with the same number of rows and a
similar mix of Fock dimensions.

The drawn epsilon values start at 0.1, above the exact vacuum column at 0.
Near-vacuum states (0 < epsilon < ~0.05 at Kt 0.5) make the k = 3 moment
sensitivity wobble by ~1e-7 between dims, so the auto-dim search doubles up
to dim 2560 or more: one such point took a run from 15 s to 74 s and 4.2 GB.
That band is left out so that every seed runs the same kind of work.

Print the lossless-map config for a seed with

    python3 perfbench/workloads.py --seed 1
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# lossless-map: DELTA_CELLS x (1 + EPSILON_CELLS) = 22 x 25 = 550 rows.
DELTA_RANGE = (-10.0, 10.0)
EPSILON_RANGE = (0.1, 5.0)
DELTA_CELLS = 22
EPSILON_CELLS = 24
MAP_KT = 0.5

# Preset grid sizes the outputs are checked against (kerrsense.config).
FIG1_TRACE_ROWS = 4 * 51  # kerr axis x kt axis
FIG1_OPTIMA_ROWS = 8  # epsilon axis at delta = 0
SCALING_FITS = 4  # epsilon axis
SCALING_KT_POINTS = 601
FIG3_ROWS = 2 * 7  # gamma axis of configs/lossy-echo.cfg x preset kt axis
FIG3_SNAPSHOTS = ("prepared", "displaced", "reversed")


@dataclass
class Invocation:
    name: str
    argv: list[str]
    # what checks.check_invocation expects of the output files
    kind: str
    expected_rows: int | None = None
    extra: dict = field(default_factory=dict)

    @property
    def threads(self) -> int:
        return int(self.argv[self.argv.index("--threads") + 1])


def _jittered(lo: float, hi: float, cells: int, rng: random.Random) -> list[float]:
    width = (hi - lo) / cells
    return [lo + (i + rng.random()) * width for i in range(cells)]


def lossless_map_axes(seed: int) -> tuple[list[float], list[float]]:
    """Seeded delta axis and epsilon axis (epsilon = 0 column first)."""
    rng = random.Random(seed)
    delta = _jittered(*DELTA_RANGE, DELTA_CELLS, rng)
    epsilon = [0.0] + _jittered(*EPSILON_RANGE, EPSILON_CELLS, rng)
    return delta, epsilon


def lossless_map_config(seed: int) -> str:
    delta, epsilon = lossless_map_axes(seed)
    return (
        f"# lossless-map, seed {seed}: {len(delta)} x {len(epsilon)} points\n"
        "experiment = custom\n"
        f"delta = {', '.join(repr(v) for v in delta)}\n"
        f"epsilon = {', '.join(repr(v) for v in epsilon)}\n"
        "kerr = 1\n"
        "gamma = 0\n"
        f"kt = {MAP_KT!r}\n"
        "sigma2 = 0\n"
    )


WORKLOADS = ("lossless-map", "traces-echo")


def invocations(workload: str, seed: int, work_dir: Path) -> list[Invocation]:
    """The invocations of one round; config files are written to work_dir."""
    if workload == "lossless-map":
        cfg = work_dir / "lossless-map.cfg"
        cfg.write_text(lossless_map_config(seed))
        delta, epsilon = lossless_map_axes(seed)
        return [
            Invocation(
                name="custom",
                argv=["custom", "--config", str(cfg), "--with-k3", "--threads", "2",
                      "--out", "lossless-map.csv"],
                kind="custom",
                expected_rows=len(delta) * len(epsilon),
            )
        ]
    if workload == "traces-echo":
        return [
            Invocation(
                name="fig1",
                argv=["fig1", "--threads", "1", "--out", "fig1.csv"],
                kind="fig1",
                expected_rows=FIG1_TRACE_ROWS,
                extra={"optima_rows": FIG1_OPTIMA_ROWS},
            ),
            Invocation(
                name="scaling",
                argv=["scaling", "--threads", "1", "--out", "scaling.csv"],
                kind="scaling",
                extra={"fits": SCALING_FITS, "kt_points": SCALING_KT_POINTS},
            ),
            Invocation(
                name="fig3",
                argv=["fig3", "--config", str(CONFIG_DIR / "lossy-echo.cfg"), "--dim", "48",
                      "--threads", "1", "--out", "fig3.csv"],
                kind="fig3",
                expected_rows=FIG3_ROWS,
                extra={"snapshots": FIG3_SNAPSHOTS},
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="print the lossless-map config for a seed")
    parser.add_argument("--seed", type=int, default=1)
    print(lossless_map_config(parser.parse_args().seed), end="")
