"""A traced invocation reports every layer and its module self times add up."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
CONFIG = """experiment = custom
delta = 0, 1
epsilon = 0, 2
gamma = 0, 0.1
kt = 0.3
"""


def test_traced_invocation_accounts_for_its_wall_time(tmp_path):
    (tmp_path / "tiny.cfg").write_text(CONFIG)
    result = tmp_path / "result.json"
    argv = ["custom", "--config", "tiny.cfg", "--dim", "16", "--threads", "2",
            "--out", "tiny.csv"]
    env = dict(os.environ, PERFBENCH_SPAWN=repr(time.monotonic()))
    subprocess.run([sys.executable, str(BENCH / "invoke.py"), str(result),
                    str(BENCH.parent / "src"), "1", "tiny", "custom", *argv],
                   cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120)
    record = json.loads(result.read_text())
    layers = record["layers"]
    assert record["rc"] == 0 and (tmp_path / "tiny.csv").is_file()
    assert (tmp_path / "result.json.spans.jsonl").is_file()

    modules = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert abs(modules - layers["trace.wall_s"]) < 1e-6 * max(1.0, layers["trace.wall_s"])
    assert layers["trace.wall_s"] <= record["wall_s"]
    assert layers["harness.evaluate_point.calls"] == layers["harness.rows"] == 8
    assert layers["dynamics.lindblad.calls"] > 0 and layers["dynamics.lindblad.work"] > 0
    assert layers["metrology.mai.derivative.s"] > 0 and layers["metrology.mai.operator.s"] > 0
    assert layers["metrology.qfi.mixed.s"] > 0 and layers["metrology.moment.k2.s"] > 0
    assert layers["dynamics.eigensystem.max_dim"] == 16
    reported = set(run.metric_units("per_layer")) - {"trace.overhead_s",
                                                      "fock.converge_dim.useful_ratio"}
    assert reported <= set(layers)
