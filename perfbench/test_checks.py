"""Each output check accepts physical rows and rejects a row made to violate it.

Valid rows come from the Gaussian closed forms of squeezed vacuum with
squeezing parameter r: N = sinh^2 r, V_min = e^{-2r}/2, F_Q = 2 e^{2r}.
"""

import copy
import json
import math

import pytest

import checks
from workloads import Invocation, lossless_map_axes, lossless_map_config


def squeezed_row(r=0.4, **over):
    v = 0.5 * math.exp(-2.0 * r)
    f_q = 2.0 * math.exp(2.0 * r)
    row = {
        "delta": 0.0, "epsilon": 2.0, "kerr": 1.0, "gamma": 0.0, "kt": 0.2, "dim": 64.0,
        "N": math.sinh(r) ** 2, "v_min": v, "chi2inv_1": 1.0 / v, "chi2inv_2": 1.0 / v,
        "chi2inv_3": 1.0 / v, "f_q": f_q, "chi2inv_mai": (1.0 / v + f_q) / 2.0,
        "status": "ok",
    }
    row.update(over)
    return row


def vacuum_row(**over):
    row = squeezed_row(r=0.0, kt=0.0, chi2inv_3=2.0, chi2inv_mai=2.0)
    row.update(over)
    return row


def trace_row(kt, **over):
    """fig1 K = 0 row: free squeezing for time kt at epsilon = 2."""
    r = 2.0 * 2.0 * kt
    row = squeezed_row(r=r, kerr=0.0, kt=kt, chi2inv_2=None, chi2inv_3=None, f_q=None,
                       chi2inv_mai=None)
    row.update(over)
    return row


def ids(failures):
    return {f.split(":", 1)[0] for f in failures}


def vacuum_wigner(n=121, half=6.0):
    x = [-half + 2.0 * half * i / (n - 1) for i in range(n)]
    w = [[math.exp(-(a * a + b * b)) / math.pi for b in x] for a in x]
    return {"x_grid": x, "p_grid": list(x), "w": w}


def test_physical_rows_pass_every_check():
    rows = [vacuum_row(), squeezed_row(), squeezed_row(r=1.1, kt=0.3),
            squeezed_row(gamma=0.1, chi2inv_2=None, chi2inv_3=None)]
    assert checks.check_rows(rows, expected_rows=4) == []
    assert checks.check_fig3_ordering(rows) == []
    assert checks.check_squeezing_law([trace_row(kt) for kt in (0.0, 0.1, 0.5)]) == []
    assert checks.check_wigner("vacuum", vacuum_wigner()) == []


@pytest.mark.parametrize(
    "check_id, row",
    [
        ("status", squeezed_row(status="unreliable")),
        ("linear", squeezed_row(chi2inv_1=squeezed_row()["chi2inv_1"] * (1 + 1e-9))),
        ("mai-bound", squeezed_row(gamma=0.1, chi2inv_mai=squeezed_row()["f_q"] + 1e-5)),
        ("hierarchy", squeezed_row(chi2inv_2=squeezed_row()["chi2inv_1"] - 1e-5)),
        ("hierarchy", squeezed_row(chi2inv_3=squeezed_row()["f_q"] + 1e-5)),
        ("uncertainty", squeezed_row(v_min=0.1, chi2inv_1=10.0, chi2inv_2=None,
                                     chi2inv_3=None, f_q=9.0, chi2inv_mai=9.0)),
        ("photon-bound", squeezed_row(N=squeezed_row()["N"] * 0.9)),
        ("vacuum", vacuum_row(N=1e-6)),
        ("vacuum", vacuum_row(epsilon=0.0, kt=0.5, v_min=0.4, chi2inv_1=2.5)),
        ("vacuum", vacuum_row(f_q=2.001, chi2inv_mai=2.0)),
    ],
)
def test_row_checks_reject_violations(check_id, row):
    assert check_id in ids(checks.check_rows([row]))


def test_row_count_rejects_missing_row():
    assert "row-count" in ids(checks.check_rows([squeezed_row()], expected_rows=2))


def test_lossy_rows_skip_pure_state_bounds():
    # mixed states may have v_min * f_q < 1; only the lossless rows are bound
    row = squeezed_row(gamma=0.1, v_min=0.3, chi2inv_1=1 / 0.3, f_q=3.0, chi2inv_mai=2.5,
                       chi2inv_2=None, chi2inv_3=None)
    assert checks.check_rows([row]) == []
    assert "uncertainty" in ids(checks.check_rows([dict(row, gamma=0.0)]))


def test_fig3_ordering_rejects_echo_below_linear():
    row = squeezed_row(chi2inv_mai=squeezed_row()["chi2inv_1"] - 1e-5)
    assert "fig3-ordering" in ids(checks.check_fig3_ordering([row]))
    assert checks.check_fig3_ordering([dict(row, gamma=0.1)]) == []


@pytest.mark.parametrize("key", ["v_min", "N"])
def test_squeezing_law_rejects_perturbed_trace(key):
    row = trace_row(0.3)
    row[key] *= 1 + 1e-5
    assert "squeezing-law" in ids(checks.check_squeezing_law([row]))


def scaling_fixture():
    rows = [squeezed_row(r=r, v_min=None, chi2inv_1=None, chi2inv_2=None, chi2inv_3=None,
                         chi2inv_mai=None) for r in (0.0, 0.2, 0.4)]
    fits = [{"epsilon_over_k": 1.0, "a": 6.0, "points": [[r["N"], r["f_q"]] for r in rows]}]
    return fits, rows


def test_fits_pass_and_reject_violations():
    fits, rows = scaling_fixture()
    assert checks.check_fits(fits, rows, 1, 601) == []
    steep = copy.deepcopy(fits)
    steep[0]["a"] = 8.5
    assert "fit-slope" in ids(checks.check_fits(steep, rows, 1, 601))
    moved = copy.deepcopy(fits)
    moved[0]["points"][1][1] += 1e-9
    assert "fit-points" in ids(checks.check_fits(moved, rows, 1, 601))
    assert "row-count" in ids(checks.check_fits(fits, rows, 2, 601))
    assert "row-count" in ids(checks.check_fits(fits, rows + rows[:1], 1, 601))


def test_wigner_checks_reject_violations():
    snap = vacuum_wigner()
    scaled = dict(snap, w=[[1.01 * v for v in r] for r in snap["w"]])
    assert "wigner-norm" in ids(checks.check_wigner("s", scaled))
    spiked = copy.deepcopy(snap)
    spiked["w"][3][3] = -0.33
    assert "wigner-bound" in ids(checks.check_wigner("s", spiked))
    ragged = dict(snap, w=snap["w"][:-1])
    assert "wigner-shape" in ids(checks.check_wigner("s", ragged))


def test_bytes_must_repeat():
    assert checks.compare_bytes("fig3", {"a": "1"}, {"a": "1"}) == []
    assert "bytes" in ids(checks.compare_bytes("fig3", {"a": "1"}, {"a": "2"}))


def test_invocation_reads_files_and_flags_missing_ones(tmp_path):
    inv = Invocation(name="fig3", argv=["fig3", "--out", "fig3.csv"], kind="fig3",
                     expected_rows=2, extra={"snapshots": ("prepared",)})
    assert "missing-file" in ids(checks.check_invocation(inv, tmp_path)[0])
    header = ("delta,epsilon,kerr,gamma,kt,dim,N,v_min,chi2inv_1,chi2inv_2,chi2inv_3,"
              "f_q,chi2inv_mai,status")
    lines = [header]
    for row in (vacuum_row(chi2inv_2=None, chi2inv_3=None),
                squeezed_row(chi2inv_2=None, chi2inv_3=None)):
        lines.append(",".join("" if row[k] is None else repr(row[k]) if k != "status"
                              else row[k] for k in header.split(",")))
    (tmp_path / "fig3.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "fig3_wigner_prepared.json").write_text(json.dumps(vacuum_wigner(41)))
    failures, hashes = checks.check_invocation(inv, tmp_path)
    assert failures == [] and set(hashes) == {"fig3.csv", "fig3_wigner_prepared.json"}
    (tmp_path / "fig3.csv").write_text("\n".join(lines[:2]) + "\n")
    assert "row-count" in ids(checks.check_invocation(inv, tmp_path)[0])


def test_lossless_map_inputs_follow_the_seed():
    delta, epsilon = lossless_map_axes(7)
    assert (delta, epsilon) == lossless_map_axes(7) != lossless_map_axes(8)
    assert len(delta) * len(epsilon) == 550 and epsilon[0] == 0.0
    assert all(-10 <= d <= 10 for d in delta) and all(0.1 <= e <= 5 for e in epsilon[1:])
    assert "experiment = custom" in lossless_map_config(7)
