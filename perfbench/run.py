"""Benchmark the kerrsense CLI end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is loaded
from its src/ directory.  Every invocation runs in a fresh Python process
(invoke.py).  A round runs each of the workload's invocations once and
checks every output file (checks.py); an operation is one invocation with its
checks.

--trace 0 runs one untimed import that fills the bytecode cache, then
PROBES import-only processes to time set-up, half before and half after the
rounds, and whole rounds, at least one.  It starts another round only while
that round is expected to end less than half a round past --seconds, so the
rounds fill --seconds to the nearest round.  It reports the end-to-end
metrics: medians over rounds of the per-round sums, and for setup_s the
median set-up of all processes times the invocations in a round.  Output bytes are compared between rounds when there are several.

--trace 1 runs one untraced round and then one traced round, and reports the
layer metrics of the traced round plus trace.overhead_s, the traced minus the
untraced wall time.  The two rounds' output bytes must be identical.

Outputs and a JSON record of each run (environment, versions, seed, threads,
operations attempted and failed, every failure) go to .perfbench_out/ in the
checkout.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBES = 6
RUN_BUDGET_S = 170.0  # every run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def metric_units(section: str) -> dict[str, str]:
    """Names and units of a BENCHMARK.json metric section, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class Run:
    """One benchmark run: its deadline, operations and failures."""

    def __init__(self, workload: str, work: Path) -> None:
        self.workload, self.work = workload, work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures: list[str] = []
        self.versions: dict | None = None
        self.first_hashes: dict[str, dict] = {}
        self.samples: dict[str, list] = {}

    def spawn(self, result: Path, cwd: Path, trace: int, name: str, argv: list[str]):
        """Run invoke.py; returns (exit code, stderr, record or None)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        env = dict(os.environ, PERFBENCH_SPAWN=repr(time.monotonic()))
        cmd = [sys.executable, str(BENCH / "invoke.py"), str(result), str(SRC), str(trace),
               self.workload, name, *argv]
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s", None
        record = json.loads(result.read_text()) if result.is_file() else None
        if record is not None and self.versions is None:
            self.versions = record["versions"]
        return proc.returncode, proc.stderr, record

    def probe(self, tag: str) -> float:
        rc, err, record = self.spawn(self.work / f"{tag}.json", self.work, 0, tag, [])
        if rc != 0 or record is None:
            raise RuntimeError(f"import of kerrsense.cli failed: {err.strip()[-2000:]}")
        return record["setup_s"]

    def round(self, index: int, invs, trace: int) -> list[dict]:
        """Run every invocation once and check its outputs."""
        rdir = self.work / f"round{index}"
        rdir.mkdir()
        records = []
        for inv in invs:
            self.attempted += 1
            rc, err, record = self.spawn(rdir / f"{inv.name}.result.json", rdir, trace,
                                         inv.name, inv.argv)
            problems, wrong = [], []
            if rc is None or record is None or rc != 0:
                problems.append(f"invoke: {err.strip()[-1000:]}")
            elif record["rc"] != 0:
                problems.append(f"exit: kerrsense exited {record['rc']}: {err.strip()[-1000:]}")
            else:
                wrong, hashes = checks.check_invocation(inv, rdir)
                first = self.first_hashes.setdefault(inv.name, hashes)
                wrong += checks.compare_bytes(inv.name, first, hashes)
            if problems or wrong:
                self.failed += 1
                self.incorrect += bool(wrong)
                self.failures += [f"round {index} {inv.name}: {p}" for p in problems + wrong]
            if record is not None and "wall_s" in record:
                records.append(record)
            if rc is None:
                break
        return records


def _median(values):
    return statistics.median(values) if values else 0.0


def _sum_layers(records: list[dict]) -> dict:
    total: dict = {}
    for record in records:
        for key, value in record.get("layers", {}).items():
            if key.endswith(".max_dim"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    useful = total.pop("fock.converge_dim.useful_s", 0.0)
    built = useful + total.get("fock.converge_dim.wasted_s", 0.0)
    total["fock.converge_dim.useful_ratio"] = useful / built if built > 0 else 0.0
    return total


def measure(run: Run, invs, seconds: float) -> dict:
    run.probe("warmup")  # fills __pycache__ so no timed process compiles
    # probes before and after the rounds sample set-up over the whole run
    setups = [run.probe(f"probe{i}") for i in range(PROBES // 2)]
    start = time.monotonic()
    rounds = []
    while True:
        records = run.round(len(rounds), invs, trace=0)
        rounds.append(records)
        setups += [r["setup_s"] for r in records]
        elapsed = time.monotonic() - start
        per_round = elapsed / len(rounds)
        if len(records) < len(invs) or elapsed + per_round / 2 > seconds:
            break
        if time.monotonic() + per_round > run.deadline:
            break
    setups += [run.probe(f"probe{i}") for i in range(PROBES // 2, PROBES)]
    whole = [r for r in rounds if len(r) == len(invs)] or rounds
    run.samples = {
        "setup_s": setups,
        "wall_s": [sum(x["wall_s"] for x in r) for r in whole],
        "cpu_s": [sum(x["cpu_s"] for x in r) for r in whole],
        "peak_rss_mb": [max((x["peak_rss_mb"] for x in r), default=0.0) for r in whole],
    }
    values = {key: _median(v) for key, v in run.samples.items()}
    values["setup_s"] *= len(invs)
    return values


def measure_layers(run: Run, invs, names) -> dict:
    run.probe("warmup")
    plain = run.round(0, invs, trace=0)
    traced = run.round(1, invs, trace=1)
    walls = [sum(r["wall_s"] for r in plain), sum(r["wall_s"] for r in traced)]
    run.samples = {"wall_s": walls}
    layers = _sum_layers(traced)
    layers["trace.overhead_s"] = walls[1] - walls[0]
    return {key: layers.get(key, 0) for key in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "kerrsense" / "cli.py").is_file():
        print(f"perfbench: no kerrsense sources under {SRC}; run inside a checkout",
              file=sys.stderr)
        return 2

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    invs = workloads.invocations(args.workload, args.seed, work)
    run = Run(args.workload, work)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    try:
        if args.trace:
            values = measure_layers(run, invs, units)
        else:
            values = measure(run, invs, args.seconds)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "versions": run.versions,
        "invocations": [{"name": i.name, "argv": i.argv, "threads": i.threads} for i in invs],
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
        "metrics": values, "samples": run.samples,
    }
    records = OUT / "records"
    records.mkdir(exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={run.attempted} failed={run.failed}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()) + " threads="
          + ",".join(str(i.threads) for i in invs) + " "
          + " ".join(f"{k}={v}" for k, v in (run.versions or {}).items()))
    for failure in run.failures[:20]:
        print(f"FAIL {failure}")
    for key, value in values.items():
        print(f"{key} {value} {units[key]}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run.incorrect == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
