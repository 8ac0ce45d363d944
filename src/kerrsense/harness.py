"""Named experiments, dimension policy, and structured result output.

Each runner sweeps a parameter grid from an ExperimentConfig, evaluates the
squeezing and sensitivity figures per grid point, and returns a SweepResult
whose rows serialize to a fixed CSV schema (or the JSON mirror of it).  All
computations are deterministic: identical configs produce byte-identical
files.

Dimension policy (fock.at_dim, the library's one): with dim=None the Fock
dimension climbs the ladder of fock.converge_dim (multiples of 16, each about
1.25 x the one below) from dynamics.initial_dim, a rung at the state's
support, until a rung's monitored figures agree with the rung below to
AUTO_DIM_RTOL and the rung below has a negligible tail; that rung's pass is
kept, and only the rows returned go through fock.check_tail.  A parameter
group (one delta, epsilon, kerr, gamma over the Kt and sigma2 axes),
lossless or lossy, is one pass per dimension: the vacuum evolves to all of
the group's times at once (one GEMM without loss, one chained Lindblad pass
with it); without loss the echo needs U_t|1> at the same times, one more
GEMM, and under loss the echo readouts evolve once backwards.  Its
dimension climbs over whole passes, judged by the row at the largest Kt,
where the state support is widest, and the tail of all its rows.  A single
point is the one-point group.  fig2, fig3, loss-robustness and custom take
their rows from one sweep (_sweep): every (delta, epsilon, kerr, gamma)
group of the config in axis order, fig2 being its one-point case.
Every row keeps the state its figures came from (SweepRow.state), so the
Wigner snapshots read the state of a row instead of evolving it again.

Time convention: the ``kt`` grid value means K*t when kerr > 0 and the bare
evolution time when kerr = 0, so ideal-squeezing reference rows remain
expressible.
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import json
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics, fock, metrology
from .config import ConfigError, ExperimentConfig
from .dynamics import HamiltonianParams, LossParams, NoInteriorMinimumError
from .fock import AUTO_DIM_RTOL, QuantumState
from .wigner import DEFAULT_GRID, PhaseGrid, wigner

log = logging.getLogger(__name__)

__all__ = [
    "AUTO_DIM_RTOL",
    "CSV_COLUMNS",
    "ScalingFit",
    "ScalingFitError",
    "SensitivityOrderingError",
    "SweepResult",
    "SweepRow",
    "WITH_K3_EXPERIMENTS",
    "WignerSnapshot",
    "emit",
    "evaluate_point",
    "output_paths",
    "rows_to_csv",
    "run_custom",
    "run_experiment",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_loss_robustness",
    "run_scaling",
    "run_wigner",
]

CSV_COLUMNS = [
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

FIG1_TRACE_EPSILON = 2.0  # the V_min(t) traces fix epsilon and sweep delta and kerr
FIG1_OPTIMA_KERR = 1.0  # the optimal-squeezing table is quoted per unit K

SNAPSHOT_KT = 0.4
SNAPSHOT_GAMMA = 0.1  # gamma/K for the phase-space snapshot family
SNAPSHOT_DISPLACEMENT = 1.0  # quadrature displacement, chosen to be visible
FIG3_SNAPSHOTS = ("prepared", "displaced", "reversed")  # the echo's three stages

# The displaced/reversed snapshot states carry ~1e-4 Wigner weight at |x| = 5,
# so the snapshot grid is wider than the general-purpose default.
SNAPSHOT_GRID = PhaseGrid(x_range=(-6.0, 6.0), p_range=(-6.0, 6.0), nx=201, np=201)


class ScalingFitError(RuntimeError):
    """The F_Q(N) series cannot support the requested slope fit."""


class SensitivityOrderingError(RuntimeError):
    """A lossless sweep violated chi^-2 <= chi^-2_MAI <= F_Q."""


# ---------------------------------------------------------------------------
# result containers


@dataclass
class SweepRow:
    """One grid point; None means the column was not computed."""

    delta: float
    epsilon: float
    kerr: float
    gamma: float
    kt: float
    dim: int | None = None
    n_mean: float | None = None
    v_min: float | None = None
    chi2inv_1: float | None = None
    chi2inv_2: float | None = None
    chi2inv_3: float | None = None
    f_q: float | None = None
    chi2inv_mai: float | None = None
    status: str = "ok"
    # Derived quantities kept in memory only (not part of the CSV schema).
    sigma2: float = 0.0
    t_opt: float | None = None
    gap: float | None = None
    state: QuantumState | None = field(default=None, repr=False, compare=False)

    def column_values(self) -> list:
        return [getattr(self, name) for name in _COLUMN_FIELDS]


# the CSV columns are SweepRow's leading fields, in schema order
_COLUMN_FIELDS = [f.name for f in dataclasses.fields(SweepRow)][: len(CSV_COLUMNS)]


@dataclass
class ScalingFit:
    """Slope of F_Q = a N + 4 over the tail of the pre-maximum series."""

    epsilon_over_k: float
    a: float
    fit_window: float = 0.2
    points: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class WignerSnapshot:
    name: str
    x_grid: np.ndarray
    p_grid: np.ndarray
    w: np.ndarray
    phi_opt: float
    theta_opt: float


@dataclass
class SweepResult:
    experiment: str
    rows: list[SweepRow]
    optima: list[SweepRow] | None = None
    fits: list[ScalingFit] | None = None
    snapshots: list[WignerSnapshot] | None = None


# ---------------------------------------------------------------------------
# per-point evaluation and dimension policy


def _time_of(kerr: float, kt: float) -> float:
    return kt / kerr if kerr > 0.0 else kt


def _state_rows(
    delta: float,
    epsilon: float,
    kerr: float,
    gamma: float,
    kt: float,
    state: QuantumState,
    echo: tuple[np.ndarray, np.ndarray] | None,
    sigma2s,
    with_k2: bool = False,
    with_k3: bool = False,
    with_qfi: bool = True,
) -> list[SweepRow]:
    """One row per sigma2 for a prepared state, which every row keeps; echo is
    its (r, cov) echo response (metrology.echo_responses), or None to leave
    chi2inv_mai out.

    The (X, P) covariance is formed once from the ladder moments: v_min, each
    chi2inv_1 = 1/(v_min + sigma2) and, for a pure state, f_q = 4 V_max.
    chi2inv_2 and chi2inv_3 read one moment table, of the highest order
    wanted, whose leading block is the order-2 one.
    """
    ma, ma2, n_mean = fock.ladder_moments(state)
    cov = fock.covariance_from_moments(ma, ma2, n_mean)
    v_min, _, v_max = (float(v) for v in dynamics.quadrature_extremes(cov))
    moments = None
    if with_k2 or with_k3:
        moments = metrology.moment_matrices(state, 3 if with_k3 else 2)
    chi2inv_2 = metrology.moment_sensitivity(state, 2, moments).value if with_k2 else None
    chi2inv_3 = metrology.moment_sensitivity(state, 3, moments).value if with_k3 else None
    f_q = None
    if with_qfi:
        f_q = 4.0 * v_max if state.is_pure else metrology.qfi_max(state).value
    rows = []
    for sigma2 in sigma2s:
        row = SweepRow(
            delta=delta,
            epsilon=epsilon,
            kerr=kerr,
            gamma=gamma,
            kt=kt,
            dim=state.dim,
            n_mean=float(n_mean),
            v_min=v_min,
            chi2inv_1=1.0 / (v_min + sigma2),
            chi2inv_2=chi2inv_2,
            chi2inv_3=chi2inv_3,
            f_q=f_q,
            sigma2=sigma2,
            state=state,
        )
        if echo is not None:
            row.chi2inv_mai = metrology.readout_optimum(*echo, sigma2).value
        rows.append(row)
    return rows


def _point_row(delta, epsilon, kerr, gamma, kt, sigma2, dim: int, **flags) -> SweepRow:
    # not called by the package; perfbench/spans.py traces this name
    (row,) = _group_pass(delta, epsilon, kerr, gamma, [kt], [sigma2], dim, **flags)
    return row


def _row_figures(row: SweepRow) -> np.ndarray:
    """Figures monitored by the dimension policy; missing entries are NaN."""
    vals = [
        row.n_mean,
        row.v_min,
        row.chi2inv_1,
        row.chi2inv_2,
        row.chi2inv_3,
        row.f_q,
        row.chi2inv_mai,
    ]
    return np.array([np.nan if v is None else v for v in vals], dtype=float)


def evaluate_point(
    delta: float,
    epsilon: float,
    kerr: float,
    gamma: float,
    kt: float,
    sigma2: float = 0.0,
    dim: int | None = None,
    **flags,
) -> SweepRow:
    """Evaluate one grid point; dim=None climbs the dim ladder until the
    figures agree between two rungs (see _group_dim)."""
    return _group_dim(delta, epsilon, kerr, gamma, [kt], [sigma2], dim, **flags)[0]


def _group_pass(
    delta: float,
    epsilon: float,
    kerr: float,
    gamma: float,
    kt_values,
    sigma2s,
    dim: int,
    with_mai: bool = True,
    **flags,
) -> list[SweepRow]:
    """The rows kt_values x sigma2s (sigma2 fastest) of a group at dim, unchecked.

    The vacuum evolves to the group's sorted distinct times at once
    (dynamics.vacuum_states), and the echo responses of all its states are
    one call (metrology.echo_responses): without loss U_t|1> evolves to the
    same times in one GEMM, under loss the readouts evolve backwards once
    through them.
    """
    p = HamiltonianParams(delta=delta, epsilon=epsilon, kerr=kerr)
    loss = LossParams(gamma)
    kts = sorted(set(kt_values))
    times = [_time_of(kerr, kt) for kt in kts]
    states = dynamics.vacuum_states(dim, p, loss, times)
    echoes = metrology.echo_responses(states, p, loss, times) if with_mai else [None] * len(kts)
    by_kt = {
        kt: _state_rows(delta, epsilon, kerr, gamma, kt, state, echo, sigma2s, **flags)
        for kt, state, echo in zip(kts, states, echoes)
    }
    return [dataclasses.replace(row) for kt in kt_values for row in by_kt[kt]]


def _group_dim(
    delta: float,
    epsilon: float,
    kerr: float,
    gamma: float,
    kt_values,
    sigma2s,
    dim: int | None,
    **flags,
) -> list[SweepRow]:
    """The group's rows at dim, or with dim=None at its converged dimension.

    Climbs the ladder of fock.converge_dim over whole group passes from
    dynamics.initial_dim at the largest Kt, monitoring the (max Kt,
    sigma2s[0]) row, where the state support is widest, and guarding on the
    largest tail of the group's rows.
    """
    kt_ref = max(kt_values)
    i_ref = list(kt_values).index(kt_ref) * len(sigma2s)
    p = HamiltonianParams(delta=delta, epsilon=epsilon, kerr=kerr)
    return fock.at_dim(
        lambda d: _group_pass(delta, epsilon, kerr, gamma, kt_values, sigma2s, d, **flags),
        lambda rows: _row_figures(rows[i_ref]),
        lambda rows: max(row.state.tail_population() for row in rows),
        dim,
        dynamics.initial_dim(p, _time_of(kerr, kt_ref)),
    )


def _sweep(cfg: ExperimentConfig, dim: int | None, **flags) -> list[list[SweepRow]]:
    """The rows of every (delta, epsilon, kerr, gamma) group of cfg, one list
    per group in axis order, each kt x sigma2 (sigma2 fastest); with dim=None
    each group climbs to its own converged dimension (see _group_dim)."""
    groups = itertools.product(cfg.delta, cfg.epsilon, cfg.kerr, cfg.gamma)
    if len(cfg.kt) * len(cfg.sigma2) == 1:  # one evaluate_point call per row, as traced
        (kt,), (sigma2,) = cfg.kt, cfg.sigma2
        return [[evaluate_point(*group, kt, sigma2, dim=dim, **flags)] for group in groups]
    return [_group_dim(*group, cfg.kt, cfg.sigma2, dim, **flags) for group in groups]


def _map(fn, items) -> list:
    """[fn(item) for item in items], as a function that a tracer can wrap."""
    return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# experiment runners


def run_fig1(cfg: ExperimentConfig, dim: int | None = None) -> SweepResult:
    """V_min(t) traces per delta and Kerr strength plus an optimal-squeezing table.

    Traces fix epsilon = 2 and sweep delta x kerr x kt (delta slowest); the
    optima table sweeps the epsilon axis (per unit K) at each delta, reporting
    chi^-2_opt = 1/V_min(t_opt) with kt = K t_opt in the kt column.
    """
    rows: list[SweepRow] = []
    for delta, kerr in itertools.product(cfg.delta, cfg.kerr):
        p = HamiltonianParams(delta=delta, epsilon=FIG1_TRACE_EPSILON, kerr=kerr)
        t_grid = np.array([_time_of(kerr, kt) for kt in cfg.kt])
        trace = dynamics.squeezing_trace(p, t_grid, dim=dim)
        for i, kt in enumerate(cfg.kt):
            rows.append(
                SweepRow(
                    delta=delta,
                    epsilon=FIG1_TRACE_EPSILON,
                    kerr=kerr,
                    gamma=0.0,
                    kt=float(kt),
                    dim=trace.dim,
                    n_mean=float(trace.n_mean[i]),
                    v_min=float(trace.v_min[i]),
                    chi2inv_1=float(1.0 / trace.v_min[i]) if trace.v_min[i] > 0 else None,
                )
            )

    def optimum(point: tuple[float, float]) -> SweepRow | None:
        d, eps = point
        p = HamiltonianParams(delta=d, epsilon=eps, kerr=FIG1_OPTIMA_KERR)
        try:
            _, t_opt = dynamics.optimal_squeezing(p, dim=dim)
        except NoInteriorMinimumError:
            return None
        row = evaluate_point(
            d,
            eps,
            FIG1_OPTIMA_KERR,
            0.0,
            kt=FIG1_OPTIMA_KERR * t_opt,
            dim=dim,
            with_qfi=False,
            with_mai=False,
        )
        row.t_opt = t_opt
        return row

    points = [(d, eps) for d in cfg.delta for eps in cfg.epsilon]
    optima = [row for row in _map(optimum, points) if row is not None]
    return SweepResult(experiment="fig1", rows=rows, optima=optima)


def run_fig2(
    cfg: ExperimentConfig,
    dim: int | None = None,
    with_k3: bool = False,
) -> SweepResult:
    """Sensitivity maps over (delta, epsilon) at fixed Kt."""
    rows = [row for group in _sweep(cfg, dim, with_k3=with_k3) for row in group]
    for row in rows:
        if row.f_q:
            row.gap = (row.f_q - row.chi2inv_1) / row.f_q
    return SweepResult(experiment="fig2", rows=rows)


def _check_lossless_ordering(rows: list[SweepRow], slack: float = 1e-6) -> None:
    for row in rows:
        if row.gamma != 0.0 or row.chi2inv_mai is None:
            continue
        ordered = (
            row.chi2inv_1 <= row.chi2inv_mai + slack
            and row.chi2inv_mai <= row.f_q + slack
        )
        if not ordered:
            raise SensitivityOrderingError(
                f"kt={row.kt}: chi2inv_1={row.chi2inv_1}, "
                f"chi2inv_mai={row.chi2inv_mai}, f_q={row.f_q}"
            )


def _snapshot(
    name: str, state: QuantumState, report: metrology.SensitivityReport, grid: PhaseGrid
) -> WignerSnapshot:
    return WignerSnapshot(
        name=name,
        x_grid=grid.x_values,
        p_grid=grid.p_values,
        w=wigner(state, grid),
        phi_opt=float(report.phi_opt),
        theta_opt=float(report.theta_opt),
    )


def _fig3_snapshots(row: SweepRow, grid: PhaseGrid) -> list[WignerSnapshot]:
    """Phase-space views of the echo protocol at a row: its prepared state,
    that state displaced, and the displaced state reversed for the row's Kt."""
    prepared = row.state
    report = metrology.linear_sensitivity(prepared)
    alpha = -1j * SNAPSHOT_DISPLACEMENT * cmath.exp(1j * report.phi_opt) / math.sqrt(2.0)
    d_op = fock.displacement(prepared.dim, alpha).matrix
    displaced = QuantumState(d_op @ prepared.factor(), prepared.kind)
    fock.check_tail(displaced.tail_population())
    p = HamiltonianParams(delta=row.delta, epsilon=row.epsilon, kerr=row.kerr)
    t = _time_of(row.kerr, row.kt)
    reversed_state = dynamics.evolve_lindblad(
        displaced, p, LossParams(row.gamma), t, reverse=True
    )
    states = (prepared, displaced, reversed_state)
    return [_snapshot(name, s, report, grid) for name, s in zip(FIG3_SNAPSHOTS, states)]


def run_fig3(
    cfg: ExperimentConfig,
    dim: int | None = None,
    with_k3: bool = False,
    snapshot_grid: PhaseGrid = SNAPSHOT_GRID,
    snapshots: bool = True,
) -> SweepResult:
    """Sensitivities vs Kt per loss rate, plus echo-protocol Wigner snapshots.

    Lossless rows must satisfy chi^-2 <= chi^-2_MAI <= F_Q (1e-6 slack);
    snapshots are taken at Kt = 0.4, gamma/K = 0.1 regardless of the gamma
    axis, matching the protocol illustration.  Their prepared state is the
    sweep's own row at that point when the sweep has one; otherwise it is
    the point's row without the echo, converged at that point.
    """
    rows = [row for group in _sweep(cfg, dim, with_k3=with_k3) for row in group]
    _check_lossless_ordering(rows)
    if not snapshots:
        return SweepResult(experiment="fig3", rows=rows)
    point = (cfg.delta[0], cfg.epsilon[0], cfg.kerr[0], SNAPSHOT_GAMMA * cfg.kerr[0])
    swept = (r for r in rows if r.gamma == point[3] and math.isclose(r.kt, SNAPSHOT_KT))
    row = next(swept, None)
    if row is None:
        row = evaluate_point(*point, SNAPSHOT_KT, dim=dim, with_mai=False)
    return SweepResult(
        experiment="fig3", rows=rows, snapshots=_fig3_snapshots(row, snapshot_grid)
    )


def _first_maximum(values: np.ndarray) -> int | None:
    for i in range(1, values.shape[0] - 1):
        if values[i + 1] < values[i] and values[i] >= values[i - 1]:
            return i
    return None


def _scaling_series(dim: int, p: HamiltonianParams, t_grid: np.ndarray):
    """Mean excitation number, QFI and tail population along the vacuum trajectory."""
    trajectory = dynamics.vacuum_trajectory(p, t_grid, dim)
    return trajectory.n_mean, trajectory.f_q, trajectory.tail


def _fit_slope(n_mean: np.ndarray, f_q: np.ndarray, window: float) -> float:
    count = int(round(window * n_mean.shape[0]))
    if count < 4:
        raise ScalingFitError(
            f"fewer than 4 points in the fit window ({count}); refine the kt grid"
        )
    n_w = n_mean[-count:]
    f_w = f_q[-count:]
    return float(np.sum(n_w * (f_w - 4.0)) / np.sum(n_w * n_w))


def run_scaling(cfg: ExperimentConfig, dim: int | None = None) -> SweepResult:
    """F_Q(N) series per epsilon with the slope of F_Q = a N + 4.

    The series is truncated at the first F_Q maximum; the slope is fitted on
    the last 20% of the truncated points, whose largest tail is checked.
    """
    if any(d != 0.0 for d in cfg.delta):
        raise ConfigError("the scaling experiment requires delta = 0")
    kerr = cfg.kerr[0]
    t_grid = np.array([_time_of(kerr, kt) for kt in cfg.kt])
    rows: list[SweepRow] = []
    fits: list[ScalingFit] = []

    def run_one(epsilon: float) -> tuple[list[SweepRow], ScalingFit]:
        p = HamiltonianParams(delta=0.0, epsilon=epsilon, kerr=kerr)

        def series(d: int) -> tuple[np.ndarray, np.ndarray, float, float, int]:
            n_mean, f_q, tail = _scaling_series(d, p, t_grid)
            i_max = _first_maximum(f_q)
            if i_max is None:
                raise ScalingFitError(
                    f"no F_Q maximum for epsilon/K = {epsilon / kerr}; extend the kt grid"
                )
            end = i_max + 1
            n_mean, f_q = n_mean[:end], f_q[:end]
            return n_mean, f_q, _fit_slope(n_mean, f_q, 0.2), float(np.max(tail[:end])), d

        n_mean, f_q, a, _, used = fock.at_dim(
            series,
            lambda s: np.array([s[2], s[0][-1], s[1][-1]]),  # a, N and F_Q at the maximum
            lambda s: s[3],
            dim,
            dynamics.initial_dim(p, float(t_grid[-1])),
        )
        fit = ScalingFit(
            epsilon_over_k=epsilon / kerr,
            a=a,
            fit_window=0.2,
            points=[(float(n), float(f)) for n, f in zip(n_mean, f_q)],
        )
        eps_rows = [
            SweepRow(
                delta=0.0,
                epsilon=epsilon,
                kerr=kerr,
                gamma=0.0,
                kt=float(cfg.kt[i]),
                dim=used,
                n_mean=float(n_mean[i]),
                f_q=float(f_q[i]),
            )
            for i in range(n_mean.shape[0])
        ]
        return eps_rows, fit

    for eps_rows, fit in _map(run_one, cfg.epsilon):
        rows.extend(eps_rows)
        fits.append(fit)
    return SweepResult(experiment="scaling", rows=rows, fits=fits)


def _parabolic_vertex(x: np.ndarray, y: np.ndarray, i: int) -> float | None:
    """Vertex of the parabola through points i-1, i, i+1; None if degenerate."""
    x0, x1, x2 = x[i - 1], x[i], x[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
    if abs(denom) < 1e-300:
        return None
    vertex = x1 - 0.5 * ((x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)) / denom
    if not (min(x0, x2) < vertex < max(x0, x2)):
        return None
    return float(vertex)


def run_loss_robustness(cfg: ExperimentConfig, dim: int | None = None) -> SweepResult:
    """Per-gamma maxima over Kt of chi^-2, chi^-2_MAI, and F_Q.

    Each quantity is maximised on the kt grid and refined once through the
    parabola of the bracketing points; the vertices of all three are one
    more pass at the group's dimension.  The emitted kt column and the
    v_min/N entries refer to the echo optimum; chi2inv_1 and f_q columns
    carry their own maxima.
    """
    kt_grid = np.array(cfg.kt)
    figures = ("chi2inv_1", "f_q", "chi2inv_mai")
    rows: list[SweepRow] = []
    for grid_rows in _sweep(cfg, dim):
        g = grid_rows[0]
        best: dict[str, SweepRow] = {}  # figure -> the row of its maximum
        vertices: dict[str, float] = {}
        for name in figures:
            values = np.array([getattr(r, name) for r in grid_rows], dtype=float)
            i = int(np.nanargmax(values))
            best[name] = grid_rows[i]
            vertex = _parabolic_vertex(kt_grid, values, i) if 0 < i < len(values) - 1 else None
            if vertex is not None:
                vertices[name] = vertex
        if vertices:
            kts = sorted(set(vertices.values()))
            passed = _group_dim(g.delta, g.epsilon, g.kerr, g.gamma, kts, [g.sigma2], g.dim)
            at_vertex = dict(zip(kts, passed))
            for name, vertex in vertices.items():
                if getattr(at_vertex[vertex], name) > getattr(best[name], name):
                    best[name] = at_vertex[vertex]
        rows.append(
            dataclasses.replace(
                best["chi2inv_mai"],
                chi2inv_1=best["chi2inv_1"].chi2inv_1,
                f_q=best["f_q"].f_q,
                state=None,
            )
        )
    return SweepResult(experiment="loss-robustness", rows=rows)


def run_custom(
    cfg: ExperimentConfig,
    dim: int | None = None,
    with_k3: bool = False,
) -> SweepResult:
    """Full cross product of the config axes; sigma2 varies fastest."""
    groups = _sweep(cfg, dim, with_k2=True, with_k3=with_k3)
    return SweepResult(experiment="custom", rows=[row for group in groups for row in group])


def run_wigner(
    cfg: ExperimentConfig,
    dim: int | None = None,
    grid: PhaseGrid = DEFAULT_GRID,
) -> SweepResult:
    """Wigner snapshot of one prepared state with its optimal angles."""
    point = (cfg.delta[0], cfg.epsilon[0], cfg.kerr[0], cfg.gamma[0], cfg.kt[0])
    state = evaluate_point(*point, dim=dim, with_mai=False).state
    snapshot = _snapshot("state", state, metrology.linear_sensitivity(state), grid)
    return SweepResult(experiment="wigner", rows=[], snapshots=[snapshot])


_RUNNERS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "scaling": run_scaling,
    "loss-robustness": run_loss_robustness,
    "custom": run_custom,
    "wigner": run_wigner,
}
WITH_K3_EXPERIMENTS = ("fig2", "fig3", "custom")  # the runners that take with_k3


def run_experiment(
    cfg: ExperimentConfig,
    dim: int | None = None,
    with_k3: bool = False,
) -> SweepResult:
    """Run the config's experiment; with_k3 is a ConfigError for an experiment
    outside WITH_K3_EXPERIMENTS, which has no chi2inv_3 column to fill."""
    if not with_k3:
        return _RUNNERS[cfg.experiment](cfg, dim=dim)
    if cfg.experiment not in WITH_K3_EXPERIMENTS:
        raise ConfigError(
            f"experiment '{cfg.experiment}' does not compute chi2inv_3; "
            f"--with-k3 applies to {', '.join(WITH_K3_EXPERIMENTS)}"
        )
    return _RUNNERS[cfg.experiment](cfg, dim=dim, with_k3=True)


# ---------------------------------------------------------------------------
# serialization


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row.column_values()))
    return "\n".join(lines) + "\n"


def _json_cell(value):
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    value = float(value)
    return None if math.isnan(value) else value


def _rows_to_dicts(rows: list[SweepRow]) -> list[dict]:
    return [
        {col: _json_cell(v) for col, v in zip(CSV_COLUMNS, row.column_values())}
        for row in rows
    ]


def _fit_to_dict(fit: ScalingFit) -> dict:
    return {
        "epsilon_over_k": fit.epsilon_over_k,
        "a": fit.a,
        "fit_window": fit.fit_window,
        "points": [[n, f] for n, f in fit.points],
    }


def result_to_dict(result: SweepResult) -> dict:
    out: dict = {
        "experiment": result.experiment,
        "columns": list(CSV_COLUMNS),
        "rows": _rows_to_dicts(result.rows),
    }
    if result.optima is not None:
        out["optima"] = _rows_to_dicts(result.optima)
    if result.fits is not None:
        out["fits"] = [_fit_to_dict(f) for f in result.fits]
    return out


def _snapshot_chunks(snap: WignerSnapshot):
    """json.dumps of the snapshot's fields plus a newline, one row of w at a
    time: a dumps per row runs the C encoder (json.dump would not)."""
    x, p = json.dumps(snap.x_grid.tolist()), json.dumps(snap.p_grid.tolist())
    yield f'{{"x_grid": {x}, "p_grid": {p}, "w": ['
    for i, row in enumerate(snap.w):
        yield (", " if i else "") + json.dumps(row.tolist())
    angles = json.dumps(snap.phi_opt), json.dumps(snap.theta_opt)
    yield '], "phi_opt": %s, "theta_opt": %s}\n' % angles


def _write(path: Path, chunks, written: list[Path]) -> None:
    start = time.perf_counter()
    with path.open("w") as fh:
        fh.writelines(chunks)
    if log.isEnabledFor(logging.DEBUG):
        size, seconds = path.stat().st_size, time.perf_counter() - start
        log.debug("emit: wrote %s, %d bytes in %.3f s", path, size, seconds)
    written.append(path)


def _sidecar(out: Path, kind: str) -> Path:
    return out.with_name(f"{out.stem}_{kind}{out.suffix if kind == 'optima' else '.json'}")


def output_paths(experiment: str, out: Path, fmt: str = "csv") -> list[Path]:
    """The paths emit writes for a run of the experiment, out first."""
    kinds = {"fig1": ["optima"], "scaling": ["fits"]}.get(experiment, []) if fmt == "csv" else []
    snaps = [f"wigner_{name}" for name in FIG3_SNAPSHOTS] if experiment == "fig3" else []
    return [out] + [_sidecar(out, kind) for kind in kinds + snaps]


def emit(result: SweepResult, out_path: str | Path, fmt: str = "csv") -> list[Path]:
    """Write the result files; returns the paths written.

    CSV keeps the pinned column schema; the optima table and scaling fits go
    to sidecar files.  JSON mirrors the schema in one file, and is a wigner
    result's only format.  Wigner snapshots are one JSON file each, streamed
    row by row of W (the bytes of one json.dumps), so memory does not grow
    with the grid.  Each file written logs one DEBUG line: path, size and
    seconds.
    """
    out = Path(out_path)
    written: list[Path] = []
    if result.experiment == "wigner":
        if fmt != "json":
            raise ValueError(f"a wigner result is written as JSON only, not {fmt!r}")
    elif fmt == "csv":
        _write(out, [rows_to_csv(result.rows)], written)
        if result.optima is not None:
            _write(_sidecar(out, "optima"), [rows_to_csv(result.optima)], written)
        if result.fits is not None:
            fits = json.dumps([_fit_to_dict(f) for f in result.fits], indent=1)
            _write(_sidecar(out, "fits"), [fits + "\n"], written)
    elif fmt == "json":
        _write(out, [json.dumps(result_to_dict(result), indent=1) + "\n"], written)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    for snap in result.snapshots or []:
        path = out if result.experiment == "wigner" else _sidecar(out, f"wigner_{snap.name}")
        _write(path, _snapshot_chunks(snap), written)
    return written
