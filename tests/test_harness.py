"""Experiment runners, the pinned CSV/JSON schema, and the CLI."""

import functools
import json
import logging
import math

import numpy as np
import pytest

from kerrsense import dynamics, fock, harness
from kerrsense.cli import _parse_dim, main
from kerrsense.config import ConfigError, ExperimentConfig, default_config
from kerrsense.dynamics import HamiltonianParams, evolve_unitary, squeezing_trace
from kerrsense.fock import AUTO_DIM_RTOL, QuantumState, TruncationError, TruncationWarning
from kerrsense.harness import (
    CSV_COLUMNS,
    FIG1_TRACE_EPSILON,
    ScalingFit,
    ScalingFitError,
    SensitivityOrderingError,
    SweepResult,
    SweepRow,
    WignerSnapshot,
    _check_lossless_ordering,
    emit,
    evaluate_point,
    result_to_dict,
    rows_to_csv,
    run_custom,
    run_experiment,
    run_fig1,
    run_fig2,
    run_fig3,
    run_loss_robustness,
    run_scaling,
    run_wigner,
)
from kerrsense.metrology import linear_sensitivity, mai_sensitivity
from kerrsense.wigner import PhaseGrid, wigner


def _row(**overrides) -> SweepRow:
    base = dict(delta=0.0, epsilon=2.0, kerr=1.0, gamma=0.0, kt=0.5)
    base.update(overrides)
    return SweepRow(**base)


# ---------------------------------------------------------------------------
# serialization schema


def test_csv_header_pinned():
    assert CSV_COLUMNS == [
        "delta",
        "epsilon",
        "kerr",
        "gamma",
        "kt",
        "dim",
        "N",
        "v_min",
        "chi2inv_1",
        "chi2inv_2",
        "chi2inv_3",
        "f_q",
        "chi2inv_mai",
        "status",
    ]
    assert rows_to_csv([]) == ",".join(CSV_COLUMNS) + "\n"


def test_csv_cells_round_trip():
    row = _row(kt=1.0 / 3.0, dim=48, n_mean=0.1, chi2inv_1=2.0)
    text = rows_to_csv([row])
    lines = text.splitlines()
    assert len(lines) == 2 and text.endswith("\n")
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_COLUMNS)
    # floats are emitted in shortest round-trip form, ints bare, None empty
    assert float(cells[4]) == 1.0 / 3.0
    assert cells[5] == "48"
    assert cells[6] == "0.1"
    assert cells[7] == ""  # v_min not computed
    assert cells[10] == "" and cells[11] == "" and cells[12] == ""
    assert cells[13] == "ok"


def test_csv_nan_sentinel_keeps_row():
    row = _row(chi2inv_mai=float("nan"), status="unreliable")
    cells = rows_to_csv([row]).splitlines()[1].split(",")
    assert cells[12] == "nan"
    assert cells[13] == "unreliable"


def test_result_to_dict_maps_nan_to_none():
    row = _row(dim=32, n_mean=1.5, chi2inv_mai=float("nan"), status="unreliable")
    out = result_to_dict(SweepResult(experiment="custom", rows=[row]))
    assert out["experiment"] == "custom"
    assert out["columns"] == CSV_COLUMNS
    assert "optima" not in out and "fits" not in out
    rec = out["rows"][0]
    assert rec["dim"] == 32 and isinstance(rec["dim"], int)
    assert rec["chi2inv_mai"] is None
    assert rec["v_min"] is None
    assert rec["status"] == "unreliable"
    json.dumps(out)  # NaN-free by construction


# ---------------------------------------------------------------------------
# point evaluation


def test_evaluate_point_reference_values():
    # Frozen reference at (0, 2, 1), Kt = 0.5, dim 80; stable under dim
    # doubling to ~1e-12, so rel 1e-6 pins real regressions only.
    row = evaluate_point(0.0, 2.0, 1.0, 0.0, 0.5, dim=80)
    assert row.chi2inv_1 == pytest.approx(0.8455323891038383, rel=1e-6)
    assert row.f_q == pytest.approx(18.724432440030327, rel=1e-6)
    assert row.chi2inv_mai == pytest.approx(12.961026511540718, rel=1e-6)
    assert row.n_mean == pytest.approx(2.43189745762606, rel=1e-6)
    assert row.v_min == pytest.approx(1.1826868052445378, rel=1e-6)
    assert row.status == "ok"
    assert row.chi2inv_2 is None and row.chi2inv_3 is None


def test_evaluate_point_auto_dim_is_converged():
    row = evaluate_point(0.0, 2.0, 1.0, 0.0, 0.2, dim=None)
    assert row.dim >= 32
    again = evaluate_point(0.0, 2.0, 1.0, 0.0, 0.2, dim=2 * row.dim)
    for name in ("n_mean", "v_min", "chi2inv_1", "f_q", "chi2inv_mai"):
        assert getattr(row, name) == pytest.approx(getattr(again, name), rel=1e-6)


def _fig1_k0_trace(monkeypatch):
    p = HamiltonianParams(epsilon=FIG1_TRACE_EPSILON)
    t_grid = np.linspace(0.0, 0.5, 51)
    return dynamics.initial_dim(p, 0.5), lambda d: squeezing_trace(p, t_grid, dim=d).v_min


def _lossless_point(monkeypatch):
    point = (0.0, 2.0, 1.0, 0.0, 0.5)
    start = dynamics.initial_dim(HamiltonianParams(0.0, 2.0, 1.0), 0.5)
    return start, lambda d: harness._row_figures(evaluate_point(*point, dim=d))


def _lossy_group(monkeypatch):
    monkeypatch.setattr(dynamics, "initial_dim", lambda *args: 16)
    cfg = ExperimentConfig("custom", (0.0,), (0.2,), (1.0,), (0.1,), (0.3, 0.15), (0.0, 0.5))

    def figures(d):
        return np.concatenate([harness._row_figures(r) for r in run_custom(cfg, dim=d).rows])

    return 16, figures


def _scaling_epsilon(monkeypatch):
    kt = tuple(np.linspace(0.0, 1.0, 201))
    cfg = ExperimentConfig("scaling", (0.0,), (2.0,), (1.0,), (0.0,), kt, (0.0,))

    def figures(d):
        result = run_scaling(cfg, dim=d)
        return np.array([result.fits[0].a] + [r.f_q for r in result.rows])

    return dynamics.initial_dim(HamiltonianParams(0.0, 2.0, 1.0), 1.0), figures


def _echo(monkeypatch):
    # free squeezing, where the start depends on max(t, reversal_time)
    p = HamiltonianParams(epsilon=1.0)
    start = dynamics.initial_dim(p, 0.6)
    return start, lambda d: mai_sensitivity(p, 0.3, reversal_time=0.6, dim=d).value


AUTO_DIM_ENTRY_POINTS = {
    "fig1-k0-trace": _fig1_k0_trace,
    "lossless-point": _lossless_point,
    "lossy-group": _lossy_group,
    "scaling-epsilon": _scaling_epsilon,
    "echo": _echo,
}


@pytest.mark.parametrize("entry", sorted(AUTO_DIM_ENTRY_POINTS))
def test_every_auto_dim_result_has_one_policy(monkeypatch, caplog, entry):
    # every auto-dim entry point starts its ladder at dynamics.initial_dim and
    # what it reports at the accepted dim agrees with 2 x that dim
    start, figures = AUTO_DIM_ENTRY_POINTS[entry](monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="kerrsense.fock"):
        auto = figures(None)
    messages = [r.getMessage() for r in caplog.records if r.name == "kerrsense.fock"]
    assert messages[0] == f"converge_dim: tried dim {start}"
    accepted = [m for m in messages if m.startswith("converge_dim: accepted dim ")]
    assert len(accepted) == 1
    dim = int(accepted[0].split()[3])
    if entry == "fig1-k0-trace":
        assert (start, dim) == (144, 2304)
    np.testing.assert_allclose(auto, figures(2 * dim), rtol=AUTO_DIM_RTOL)


def test_auto_dim_is_the_same_with_k3(monkeypatch):
    # a near-vacuum point whose order-3 covariance has condition ~4e9: the
    # k = 3 figure must not keep the doubling search climbing (the cap keeps
    # a regression cheap; the point accepts dim 160)
    monkeypatch.setattr(fock, "converge_dim", functools.partial(fock.converge_dim, max_dim=640))
    point = (-9.605, 0.0217, 1.0, 0.0, 0.5)
    plain = evaluate_point(*point, dim=None)
    with_k3 = evaluate_point(*point, dim=None, with_k3=True)
    assert with_k3.dim == plain.dim
    assert with_k3.chi2inv_3 >= with_k3.chi2inv_1


def test_evaluate_point_flags():
    row = evaluate_point(
        0.0, 2.0, 1.0, 0.0, 0.3, dim=64, with_mai=False, with_qfi=False, with_k2=True
    )
    assert row.chi2inv_mai is None and row.f_q is None
    assert row.chi2inv_2 is not None
    assert row.chi2inv_1 == pytest.approx(row.chi2inv_2, abs=1e-8)


def test_lossy_point_propagates_four_lindblad_columns(monkeypatch):
    # the prepared state forwards, then the echo readouts a, a^2 and a^dag a
    # backwards once, each column on one half-size parity block
    dim = 32
    apply = dynamics._lindblad_apply
    calls = []

    def counting(lv, block, t, *args, **kwargs):
        calls.append((block.shape[0], block.shape[1] if block.ndim == 2 else 1))
        return apply(lv, block, t, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_lindblad_apply", counting)
    row = evaluate_point(0.0, 2.0, 1.0, 0.1, 0.4, dim=dim)
    assert row.status == "ok" and row.chi2inv_mai > 0.0
    assert sum(columns for _, columns in calls) == 4
    assert all(rows == dim * dim // 2 for rows, _ in calls)


def test_small_even_dim_tail_sees_the_even_sector():
    # the vacuum under H stays in the even sector, so a tail window of only
    # the top level of dim 8 (odd) would read 0 while 3.3e-2 sits in level 6
    with pytest.warns(TruncationWarning), pytest.raises(TruncationError):
        evaluate_point(0.0, 2.0, 1.0, 0.0, 0.3, dim=8)


def test_lossy_group_work_is_one_pass(monkeypatch):
    # sum of columns x block rows x t: one forward column and three readout
    # columns, each on dim^2 / 2 rows, chained once up to the largest Kt
    dim = 32
    apply = dynamics._lindblad_apply
    work = []

    def counting(lv, block, t, *args, **kwargs):
        work.append((block.shape[1] if block.ndim == 2 else 1) * block.shape[0] * t)
        return apply(lv, block, t, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_lindblad_apply", counting)
    kt = (0.3, 0.0, 0.45, 0.1, 0.3)
    cfg = ExperimentConfig("custom", (0.2,), (1.0,), (1.0,), (0.1,), kt, (0.0, 0.5))
    res = run_custom(cfg, dim=dim)
    assert len(res.rows) == len(kt) * 2
    assert sum(work) == pytest.approx(2 * dim * dim * max(kt), rel=1e-12)


# ---------------------------------------------------------------------------
# lossless ordering check


def test_ordering_check_passes_within_slack():
    rows = [
        _row(chi2inv_1=1.0, chi2inv_mai=1.2, f_q=1.3),
        # exact degeneracy and sub-slack excess both tolerated
        _row(kt=0.0, chi2inv_1=2.0, chi2inv_mai=2.0, f_q=2.0),
        _row(chi2inv_1=1.0 + 5e-7, chi2inv_mai=1.0, f_q=1.0),
        # rows the check does not own: lossy, or MAI not computed
        _row(gamma=0.1, chi2inv_1=5.0, chi2inv_mai=1.0, f_q=1.0),
        _row(chi2inv_1=5.0, chi2inv_mai=None, f_q=1.0),
    ]
    _check_lossless_ordering(rows)


def test_ordering_check_rejects_linear_above_mai():
    with pytest.raises(SensitivityOrderingError):
        _check_lossless_ordering([_row(chi2inv_1=1.000002, chi2inv_mai=1.0, f_q=1.1)])


def test_ordering_check_rejects_mai_above_qfi():
    with pytest.raises(SensitivityOrderingError):
        _check_lossless_ordering([_row(chi2inv_1=1.0, chi2inv_mai=1.3, f_q=1.2)])


def test_small_kt_echo_deficit_is_why_grid_steps_by_tenths():
    # Below Kt ~ 0.07 the prepared state is still near-Gaussian: the echoed
    # readout family does not contain the optimal bare quadrature, and its
    # exact optimum sits a few 1e-4 below 1/V_min.  The shipped fig3 grid
    # steps over that region; finer user grids fail the ordering check loudly
    # rather than silently reordering the curves.
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)
    for kt, lo, hi in ((0.05, 1e-4, 1e-3), (0.02, 1e-5, 1e-4)):
        state = evolve_unitary(QuantumState.vacuum(64), p, kt)
        chi1 = linear_sensitivity(state).value
        mai = mai_sensitivity(p, kt, dim=64).value
        assert lo < chi1 - mai < hi
    state = evolve_unitary(QuantumState.vacuum(64), p, 0.1)
    chi1 = linear_sensitivity(state).value
    mai = mai_sensitivity(p, 0.1, dim=64).value
    assert mai > chi1 + 1e-2  # advantage developed by the first grid step
    assert default_config("fig3").kt == pytest.approx(np.linspace(0.0, 0.6, 7))


# ---------------------------------------------------------------------------
# runners


def test_run_fig2_reduced_grid():
    cfg = ExperimentConfig(
        "fig2", (0.0, 1.0), (0.0, 2.0), (1.0,), (0.0,), (0.5,), (0.0,)
    )
    res = run_fig2(cfg, dim=64)
    assert res.experiment == "fig2"
    assert len(res.rows) == 4
    by_point = {(r.delta, r.epsilon): r for r in res.rows}
    # epsilon = 0 leaves the vacuum invariant up to phase: F_Q stays at 2
    for d in (0.0, 1.0):
        row = by_point[(d, 0.0)]
        assert row.f_q == pytest.approx(2.0, abs=1e-8)
        assert row.gap == pytest.approx(0.0, abs=1e-8)
    driven = by_point[(0.0, 2.0)]
    assert driven.chi2inv_1 < 2.0 < driven.f_q
    assert driven.chi2inv_mai / driven.f_q > driven.chi2inv_1 / driven.f_q
    assert driven.gap == pytest.approx((driven.f_q - driven.chi2inv_1) / driven.f_q)

    again = run_fig2(cfg, dim=64)
    assert rows_to_csv(again.rows) == rows_to_csv(res.rows)


def test_run_fig1_traces_and_optima():
    cfg = ExperimentConfig(
        "fig1", (0.0,), (2.0, 4.0), (0.0, 1.0), (0.0,), (0.0, 0.1, 0.25), (0.0,)
    )
    res = run_fig1(cfg, dim=150)
    # traces fix epsilon = 2 and sweep kerr x kt; kt is the bare time at K = 0
    assert sorted({r.epsilon for r in res.rows}) == [2.0]
    assert sorted({r.kerr for r in res.rows}) == [0.0, 1.0]
    for row in res.rows:
        if row.kerr == 0.0:
            law = 0.5 * math.exp(-8.0 * row.kt)
            assert row.v_min == pytest.approx(law, rel=1e-6)
        assert row.chi2inv_1 == pytest.approx(1.0 / row.v_min, rel=1e-12)

    # the optima table is per unit K: kerr = 0 has no interior optimum
    assert sorted(r.epsilon for r in res.optima) == [2.0, 4.0]
    by_eps = {r.epsilon: r for r in res.optima}
    for eps, row in by_eps.items():
        assert row.kerr == 1.0
        assert row.t_opt is not None and row.t_opt > 0.0
        assert row.kt == pytest.approx(row.t_opt)  # K = 1
        assert row.f_q is None and row.chi2inv_mai is None
    assert by_eps[2.0].chi2inv_1 > 4.0
    assert by_eps[4.0].chi2inv_1 > by_eps[2.0].chi2inv_1  # stronger drive wins


def test_run_fig3_lossless_rows_ordered():
    cfg = ExperimentConfig(
        "fig3", (0.0,), (2.0,), (1.0,), (0.0,), (0.0, 0.25, 0.5), (0.0,)
    )
    res = run_fig3(cfg, dim=96, snapshots=False)
    assert res.snapshots is None
    assert [r.kt for r in res.rows] == [0.0, 0.25, 0.5]
    start = res.rows[0]
    assert start.chi2inv_1 == pytest.approx(2.0, abs=1e-9)
    assert start.chi2inv_mai == pytest.approx(2.0, abs=1e-9)
    for row in res.rows[1:]:
        assert row.chi2inv_1 + 0.5 < row.chi2inv_mai < row.f_q + 1e-6


def test_run_fig3_snapshots_cover_echo_protocol():
    cfg = ExperimentConfig("fig3", (0.0,), (2.0,), (1.0,), (0.1,), (0.4,), (0.0,))
    grid = PhaseGrid(x_range=(-6.0, 6.0), p_range=(-6.0, 6.0), nx=21, np=21)
    res = run_fig3(cfg, dim=64, snapshot_grid=grid)
    assert len(res.rows) == 1  # lossy row, ordering check does not apply
    assert [s.name for s in res.snapshots] == ["prepared", "displaced", "reversed"]
    prepared, displaced, reversed_ = res.snapshots
    for snap in res.snapshots:
        assert snap.w.shape == (21, 21)
        assert np.all(np.isfinite(snap.w))
        assert snap.x_grid[0] == -6.0 and snap.x_grid[-1] == 6.0
        assert snap.phi_opt == prepared.phi_opt
        assert snap.theta_opt == prepared.theta_opt
    # the probe displacement visibly moves the state
    assert np.abs(prepared.w - displaced.w).max() > 0.1
    assert np.abs(displaced.w - reversed_.w).max() > 0.1


def test_run_scaling_slopes():
    kt = tuple(np.linspace(0.0, 1.0, 201))
    cfg = ExperimentConfig("scaling", (0.0,), (2.0, 4.0), (1.0,), (0.0,), kt, (0.0,))
    res = run_scaling(cfg, dim=96)
    assert [f.epsilon_over_k for f in res.fits] == [2.0, 4.0]
    a2, a4 = (f.a for f in res.fits)
    assert 4.0 < a2 < a4 < 8.0  # slope of F_Q = a N + 4 grows with the drive
    for eps, fit in zip((2.0, 4.0), res.fits):
        series = [r for r in res.rows if r.epsilon == eps]
        assert len(series) == len(fit.points)
        assert series[0].f_q == pytest.approx(2.0, abs=1e-9)  # vacuum start
        # truncated at the first maximum of F_Q
        assert series[-1].f_q == max(r.f_q for r in series)


def test_run_scaling_error_paths():
    def cfg(delta, kt):
        return ExperimentConfig("scaling", delta, (2.0,), (1.0,), (0.0,), kt, (0.0,))

    with pytest.raises(ScalingFitError, match="no F_Q maximum"):
        run_scaling(cfg((0.0,), tuple(np.linspace(0.0, 0.05, 11))), dim=64)
    with pytest.raises(ScalingFitError, match="fit window"):
        run_scaling(cfg((0.0,), tuple(np.linspace(0.0, 1.0, 9))), dim=64)
    with pytest.raises(ConfigError):
        run_scaling(cfg((1.0,), tuple(np.linspace(0.0, 1.0, 201))), dim=64)


def test_run_loss_robustness_lossless_row():
    cfg = ExperimentConfig(
        "loss-robustness", (0.0,), (2.0,), (1.0,), (0.0,), (0.3, 0.4, 0.5), (0.0,)
    )
    res = run_loss_robustness(cfg, dim=80)
    row = res.rows[0]
    grid_best = evaluate_point(0.0, 2.0, 1.0, 0.0, 0.4, dim=80)
    assert row.chi2inv_mai >= grid_best.chi2inv_mai  # refinement only improves
    assert row.chi2inv_mai > row.chi2inv_1
    assert row.f_q >= row.chi2inv_mai
    assert 0.3 <= row.kt <= 0.5  # reported kt is the echo optimum


def test_run_custom_axis_order_and_noise():
    cfg = ExperimentConfig(
        "custom", (0.0,), (2.0,), (1.0,), (0.0,), (0.1, 0.2), (0.0, 0.5)
    )
    res = run_custom(cfg, dim=48)
    assert [r.kt for r in res.rows] == [0.1, 0.1, 0.2, 0.2]
    assert [r.sigma2 for r in res.rows] == [0.0, 0.5, 0.0, 0.5]  # fastest axis
    clean, noisy = res.rows[0], res.rows[1]
    assert clean.chi2inv_2 is not None  # custom sweeps include k = 2
    assert noisy.chi2inv_1 < clean.chi2inv_1
    assert noisy.chi2inv_mai < clean.chi2inv_mai


GROUP_RUNNERS = {
    "custom": run_custom,
    "fig3": lambda cfg: run_fig3(cfg, snapshots=False),
    "loss-robustness": run_loss_robustness,
}


def _recording_group_pass(monkeypatch) -> list:
    """Record (gamma, kt_values, dim, rows) of every harness._group_pass call."""
    passes = []
    group_pass = harness._group_pass

    def recording(*args, **kwargs):
        rows = group_pass(*args, **kwargs)
        passes.append((args[3], tuple(args[4]), args[6], rows))
        return rows

    monkeypatch.setattr(harness, "_group_pass", recording)
    return passes


@pytest.mark.parametrize("experiment", sorted(GROUP_RUNNERS))
def test_group_is_one_pass_per_dim(monkeypatch, experiment):
    # auto dim from 16 converges at 32 or 64 for these weakly squeezed groups,
    # lossless and lossy alike; the Kt axis is unsorted and non-uniform, with
    # 0 and a repeated value, and from Kt 0.35 on the lossless echo beats the
    # linear readout, as the fig3 ordering check requires
    monkeypatch.setattr(dynamics, "initial_dim", lambda *args: 16)
    kt = (0.5, 0.0, 0.6, 0.5, 0.35)
    cfg = ExperimentConfig(experiment, (0.0,), (0.5,), (1.0,), (0.0, 0.1), kt, (0.0, 0.5))
    flags = {"with_k2": True} if experiment == "custom" else {}
    sigma2s = cfg.sigma2 if experiment == "custom" else cfg.sigma2[:1]
    recorded = _recording_group_pass(monkeypatch)
    result = GROUP_RUNNERS[experiment](cfg)
    # loss-robustness adds one pass over its parabolic vertices; the grid
    # passes are the ones over the config's Kt axis
    passes = [(g, d, rows) for g, kts, d, rows in recorded if kts == kt]
    for gamma in cfg.gamma:
        dims = [d for g, d, _ in passes if g == gamma]
        group_dim = evaluate_point(0.0, 0.5, 1.0, gamma, max(kt), cfg.sigma2[0], **flags).dim
        # one pass per dim tried, ending at the dim the probe point accepts
        assert dims == [16 * 2**i for i in range(len(dims))]
        assert len(dims) >= 2 and dims[-1] == group_dim
        rows = [rows for g, d, rows in passes if g == gamma and d == group_dim][0]
        assert [(r.kt, r.sigma2) for r in rows] == [(k, s) for k in kt for s in sigma2s]
        if experiment != "loss-robustness":
            emitted = [r for r in result.rows if r.gamma == gamma]
            assert rows_to_csv(emitted) == rows_to_csv(rows)
        for row in rows:
            ref = evaluate_point(0.0, 0.5, 1.0, gamma, row.kt, row.sigma2, dim=group_dim, **flags)
            assert row.dim == ref.dim and row.status == ref.status
            np.testing.assert_allclose(
                harness._row_figures(row), harness._row_figures(ref), rtol=1e-12
            )


def test_loss_robustness_is_a_grid_pass_and_a_vertex_pass(monkeypatch):
    # at a fixed dim: per gamma one pass over the Kt grid and at most one over
    # the parabolic vertices of the three maxima, and no per-point evaluation
    dim = 48
    kt = tuple(np.linspace(0.1, 0.45, 8))
    cfg = ExperimentConfig("loss-robustness", (0.0,), (2.0,), (1.0,), (0.0, 0.1), kt, (0.0,))
    recorded = _recording_group_pass(monkeypatch)
    point_calls = []
    point = harness.evaluate_point

    def counting(*args, **kwargs):
        point_calls.append(args)
        return point(*args, **kwargs)

    monkeypatch.setattr(harness, "evaluate_point", counting)
    result = run_loss_robustness(cfg, dim=dim)
    assert point_calls == []
    figures = ("chi2inv_1", "f_q", "chi2inv_mai")
    for gamma, row in zip(cfg.gamma, result.rows):
        passes = [(kts, d, rows) for g, kts, d, rows in recorded if g == gamma]
        assert passes[0][:2] == (kt, dim) and len(passes) <= 2
        grid_rows = passes[0][2]
        vertices = {}
        for name in figures:
            values = np.array([getattr(r, name) for r in grid_rows])
            i = int(np.argmax(values))
            if 0 < i < len(kt) - 1:
                vertices[name] = harness._parabolic_vertex(np.array(kt), values, i)
        vertices = {k: v for k, v in vertices.items() if v is not None}
        assert vertices, "the grid should bracket at least one maximum"
        assert [p[:2] for p in passes[1:]] == [(tuple(sorted(set(vertices.values()))), dim)]
        for name in figures:
            best = max(getattr(r, name) for r in grid_rows)
            if name in vertices:
                ref = evaluate_point(0.0, 2.0, 1.0, gamma, vertices[name], dim=dim)
                best = max(best, getattr(ref, name))
            assert getattr(row, name) == pytest.approx(best, rel=1e-12)
        assert row.dim == dim


def test_outputs_do_not_depend_on_threads(tmp_path, monkeypatch):
    # byte-identical CSV for any --threads, lossless points and lossy groups alike
    no_snapshots = lambda cfg, **kwargs: run_fig3(cfg, snapshots=False, **kwargs)  # noqa: E731
    monkeypatch.setitem(harness._RUNNERS, "fig3", no_snapshots)
    custom = tmp_path / "custom.cfg"
    custom.write_text(
        "experiment = custom\ndelta = 0, 0.5\nepsilon = 0.5\nkerr = 1\n"
        "gamma = 0, 0.1\nkt = 0.3, 0, 0.15\nsigma2 = 0, 0.5\n"
    )
    fig3 = tmp_path / "fig3.cfg"
    fig3.write_text("experiment = fig3\ngamma = 0, 0.1\nkt = 0, 0.2, 0.4\n")
    for name, cfg in (("custom", custom), ("fig3", fig3)):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-{threads}.csv"
            argv = [name, "--config", str(cfg), "--dim", "32", "--threads", threads]
            assert main(argv + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) > 6


def test_run_wigner_single_snapshot():
    cfg = default_config("wigner")
    grid = PhaseGrid(x_range=(-6.0, 6.0), p_range=(-6.0, 6.0), nx=21, np=21)
    res = run_wigner(cfg, dim=64, grid=grid)
    assert res.rows == []
    (snap,) = res.snapshots
    assert snap.name == "state"
    assert snap.w.shape == (21, 21)
    assert np.all(np.isfinite(snap.w))


SNAPSHOT_GRID = PhaseGrid(x_range=(-6.0, 6.0), p_range=(-6.0, 6.0), nx=11, np=11)
SNAPSHOT_POINT = (0.0, 0.5, 1.0, harness.SNAPSHOT_GAMMA, harness.SNAPSHOT_KT)


def _fig3_config(gamma, kt):
    return ExperimentConfig("fig3", (0.0,), (0.5,), (1.0,), gamma, kt, (0.0,))


SNAPSHOT_PATHS = {
    # name: (first dim, config, the prepared state's point, or None when it
    # is the swept row at Kt 0.4).  A weakly squeezed fig3 point from dim 16
    # keeps the lossy ladder cheap; the epsilon 2 wigner point starts at 32,
    # since at 16 its top two levels hold 2.5e-7 and warn.
    "wigner": (
        32,
        ExperimentConfig("wigner", (0.0,), (2.0,), (1.0,), (0.0,), (0.4,), (0.0,)),
        (0.0, 2.0, 1.0, 0.0, 0.4),
    ),
    "fig3": (16, _fig3_config((0.0,), (0.4,)), SNAPSHOT_POINT),
    "fig3-swept": (16, _fig3_config((0.1,), (0.2, 0.4)), None),
}


@pytest.mark.parametrize("path", sorted(SNAPSHOT_PATHS))
def test_auto_dim_snapshots_keep_the_probe_dim(monkeypatch, caplog, path):
    # the prepared state is the swept row's, at the group's dim; without such
    # a row it accepts the dim of its point's row without the echo.  Either
    # way the snapshots are the fixed-dim ones at that dim.
    start, cfg, point = SNAPSHOT_PATHS[path]
    monkeypatch.setattr(dynamics, "initial_dim", lambda *args: start)

    def run(dim):
        if cfg.experiment == "wigner":
            return run_wigner(cfg, dim=dim, grid=SNAPSHOT_GRID)
        return run_fig3(cfg, dim=dim, snapshot_grid=SNAPSHOT_GRID)

    with caplog.at_level(logging.DEBUG, logger="kerrsense.fock"):
        auto = run(None)
    accepted = [
        int(r.getMessage().split()[3]) for r in caplog.records
        if r.getMessage().startswith("converge_dim: accepted dim ")
    ]
    if point is None:
        (row,) = [r for r in auto.rows if r.kt == cfg.kt[-1]]
        assert accepted == [row.dim]
    else:
        # one convergence per swept one-row group, then the prepared state's
        assert len(accepted) == len(auto.rows) + 1
        assert accepted[-1] == evaluate_point(*point, dim=None, with_mai=False).dim
    fixed = run(accepted[-1])
    assert [s.name for s in auto.snapshots] == [s.name for s in fixed.snapshots]
    for a, b in zip(auto.snapshots, fixed.snapshots):
        np.testing.assert_array_equal(a.w, b.w)
        assert (a.phi_opt, a.theta_opt) == (b.phi_opt, b.theta_opt)


def test_fig3_snapshots_read_the_swept_state(monkeypatch):
    # the prepared snapshot is the sweep's own row at Kt 0.4, so the
    # snapshots add only the reversal of the displaced state: one column per
    # parity block
    cfg = _fig3_config((0.1,), (0.2, 0.4))
    apply = dynamics._lindblad_apply
    columns = []

    def counting(lv, block, t, *args, **kwargs):
        columns.append(block.shape[1] if block.ndim == 2 else 1)
        return apply(lv, block, t, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_lindblad_apply", counting)
    bare = run_fig3(cfg, dim=32, snapshots=False)
    swept_columns = sum(columns)
    res = run_fig3(cfg, dim=32, snapshot_grid=SNAPSHOT_GRID)
    assert res.rows == bare.rows
    assert sum(columns) - 2 * swept_columns == 2
    np.testing.assert_array_equal(res.snapshots[0].w, wigner(res.rows[1].state, SNAPSHOT_GRID))


def test_run_experiment_dispatches():
    cfg = ExperimentConfig("fig2", (0.0,), (0.0,), (1.0,), (0.0,), (0.5,), (0.0,))
    res = run_experiment(cfg, dim=32)
    assert res.experiment == "fig2"
    assert len(res.rows) == 1


# ---------------------------------------------------------------------------
# file emission


def _fabricated_result() -> SweepResult:
    row = _row(dim=32, n_mean=1.0, v_min=0.4, chi2inv_1=2.5, f_q=3.0, chi2inv_mai=2.8)
    fit = ScalingFit(epsilon_over_k=2.0, a=6.3, points=[(1.0, 10.0), (2.0, 16.0)])
    snap = WignerSnapshot(
        name="prepared",
        x_grid=np.array([-1.0, 0.0, 1.0]),
        p_grid=np.array([-1.0, 0.0, 1.0]),
        w=np.full((3, 3), 0.25),
        phi_opt=0.1,
        theta_opt=0.2,
    )
    return SweepResult(
        experiment="fig3", rows=[row], optima=[row], fits=[fit], snapshots=[snap]
    )


def test_emit_csv_writes_sidecars(tmp_path):
    result = _fabricated_result()
    out = tmp_path / "sweep.csv"
    written = emit(result, out)
    assert written == [
        out,
        tmp_path / "sweep_optima.csv",
        tmp_path / "sweep_fits.json",
        tmp_path / "sweep_wigner_prepared.json",
    ]
    assert out.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
    fits = json.loads((tmp_path / "sweep_fits.json").read_text())
    assert fits[0]["a"] == 6.3 and fits[0]["points"] == [[1.0, 10.0], [2.0, 16.0]]
    snap = json.loads((tmp_path / "sweep_wigner_prepared.json").read_text())
    assert snap["w"] == [[0.25] * 3] * 3
    assert snap["phi_opt"] == 0.1


def test_emit_json_single_file_plus_snapshots(tmp_path):
    result = _fabricated_result()
    out = tmp_path / "sweep.json"
    written = emit(result, out, fmt="json")
    assert written == [out, tmp_path / "sweep_wigner_prepared.json"]
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "fig3"
    assert payload["rows"][0]["chi2inv_1"] == 2.5
    assert payload["optima"][0]["v_min"] == 0.4
    assert payload["fits"][0]["epsilon_over_k"] == 2.0


def test_emit_wigner_result_writes_snapshot_at_out_path(tmp_path):
    snap = _fabricated_result().snapshots[0]
    result = SweepResult(experiment="wigner", rows=[], snapshots=[snap])
    out = tmp_path / "state.json"
    assert emit(result, out, fmt="json") == [out]
    assert json.loads(out.read_text())["theta_opt"] == 0.2


def test_emit_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit(_fabricated_result(), tmp_path / "x.yaml", fmt="yaml")


# ---------------------------------------------------------------------------
# command line


def test_parse_dim():
    assert _parse_dim("auto") is None
    assert _parse_dim("64") == 64
    with pytest.raises(ConfigError):
        _parse_dim("sixty")
    with pytest.raises(ConfigError):
        _parse_dim("1")


def test_cli_fig2_run(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("experiment = fig2\ndelta = 0\nepsilon = 0, 2\n")
    out = tmp_path / "maps.csv"
    code = main(["fig2", "--config", str(cfg), "--out", str(out), "--dim", "64"])
    assert code == 0
    assert str(out) in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3


def test_cli_json_format(tmp_path):
    out = tmp_path / "maps.json"
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("experiment = fig2\ndelta = 0\nepsilon = 0\n")
    assert main(["fig2", "--config", str(cfg), "--out", str(out), "--format", "json", "--dim", "32"]) == 0
    assert json.loads(out.read_text())["experiment"] == "fig2"


def test_cli_ordering_violation_is_exit_1(tmp_path, capsys):
    # a user grid reaching into the small-Kt echo deficit fails loudly
    cfg = tmp_path / "dip.cfg"
    cfg.write_text("experiment = fig3\ngamma = 0\nkt = 0.05\n")
    code = main(["fig3", "--config", str(cfg), "--out", str(tmp_path / "d.csv"), "--dim", "64"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_cli_config_errors_are_exit_2(tmp_path, capsys):
    assert main(["fig2", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert main(["fig2", "--dim", "one"]) == 2
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("experiment = fig2\ndelta = 0\nepsilon = 0\n")
    assert main(["fig2", "--config", str(cfg), "--threads", "0"]) == 2
    capsys.readouterr()  # drain stderr


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["fig9"])
