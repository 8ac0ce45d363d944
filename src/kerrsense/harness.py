"""Named experiments, dimension policy, and structured result output.

Each runner sweeps a parameter grid from an ExperimentConfig, evaluates the
squeezing and sensitivity figures per grid point, and returns a SweepResult
whose rows serialize to a fixed CSV schema (or the JSON mirror of it).  All
computations are deterministic: identical configs produce byte-identical
files.

Dimension policy (fock.converge_dim, the library's one): with dim=None the
Fock dimension is doubled from dynamics.initial_dim until every monitored
figure is stable to AUTO_DIM_RTOL, and the accepted pass is kept.  A
parameter group (one delta, epsilon, kerr, gamma over the Kt and sigma2
axes), lossless or lossy, is one pass per dimension: the vacuum evolves to
all of the group's times at once (one GEMM without loss, one chained Lindblad
pass with it), and under loss the echo readouts evolve once backwards.  Its
dimension is doubled over whole passes until the row at the largest Kt, where
the state support is widest, is stable.  A single point is the one-point group.
Every row keeps the state its figures came from (SweepRow.state), so the
Wigner snapshots read the state of a row instead of evolving it again.

Time convention: the ``kt`` grid value means K*t when kerr > 0 and the bare
evolution time when kerr = 0, so ideal-squeezing reference rows remain
expressible.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics, fock, metrology
from .config import ConfigError, ExperimentConfig
from .dynamics import HamiltonianParams, LossParams, NoInteriorMinimumError
from .fock import AUTO_DIM_RTOL, QuantumState
from .metrology import DetectionNoise
from .wigner import DEFAULT_GRID, PhaseGrid, wigner

__all__ = [
    "AUTO_DIM_RTOL",
    "CSV_COLUMNS",
    "ScalingFit",
    "ScalingFitError",
    "SensitivityOrderingError",
    "SweepResult",
    "SweepRow",
    "WignerSnapshot",
    "emit",
    "evaluate_point",
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

FIG1_TRACE_EPSILON = 2.0  # the V_min(t) traces fix epsilon and sweep kerr
FIG1_OPTIMA_KERR = 1.0  # the optimal-squeezing table is quoted per unit K
FIG2_BOUNDARY = 0.05

SNAPSHOT_KT = 0.4
SNAPSHOT_GAMMA = 0.1  # gamma/K for the phase-space snapshot family
SNAPSHOT_DISPLACEMENT = 1.0  # quadrature displacement, chosen to be visible

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
        return [
            self.delta,
            self.epsilon,
            self.kerr,
            self.gamma,
            self.kt,
            self.dim,
            self.n_mean,
            self.v_min,
            self.chi2inv_1,
            self.chi2inv_2,
            self.chi2inv_3,
            self.f_q,
            self.chi2inv_mai,
            self.status,
        ]


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
    chi2inv_mai out."""
    _, _, n_mean = fock.ladder_moments(state)
    v_min, _ = dynamics.min_variance(state)
    chi2inv_2 = metrology.moment_sensitivity(state, 2).value if with_k2 else None
    chi2inv_3 = metrology.moment_sensitivity(state, 3).value if with_k3 else None
    f_q = metrology.qfi_max(state).value if with_qfi else None
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
            chi2inv_2=chi2inv_2,
            chi2inv_3=chi2inv_3,
            f_q=f_q,
            sigma2=sigma2,
            state=state,
        )
        row.chi2inv_1 = metrology.noisy_linear_sensitivity(state, DetectionNoise(sigma2)).value
        if echo is not None:
            rep = metrology.readout_optimum(*echo, sigma2)
            row.chi2inv_mai = rep.value
            row.status = rep.status
        rows.append(row)
    return rows


def _point_row(
    delta: float,
    epsilon: float,
    kerr: float,
    gamma: float,
    kt: float,
    sigma2: float,
    dim: int,
    **flags,
) -> SweepRow:
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
    """Evaluate one grid point; dim=None doubles until figures stabilise."""
    if dim is not None:
        return _point_row(delta, epsilon, kerr, gamma, kt, sigma2, dim, **flags)
    return _group_dim(delta, epsilon, kerr, gamma, [kt], [sigma2], **flags)[0]


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
    """The rows kt_values x sigma2s (sigma2 fastest) of a group at dim.

    The vacuum evolves to the group's sorted distinct times at once
    (dynamics.evolve_vacuum), and the echo responses of all its states are
    one call (metrology.echo_responses): under loss the readouts evolve
    backwards once through the same times.
    """
    p = HamiltonianParams(delta=delta, epsilon=epsilon, kerr=kerr)
    loss = LossParams(gamma)
    kts = sorted(set(kt_values))
    times = [_time_of(kerr, kt) for kt in kts]
    states = dynamics.evolve_vacuum(dim, p, loss, times)
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
    **flags,
) -> list[SweepRow]:
    """The group's rows at its converged dimension.

    Doubles over whole group passes, monitoring the (max Kt, sigma2s[0]) row,
    where the state support is widest, from dynamics.initial_dim at that Kt.
    """
    kt_ref = max(kt_values)
    i_ref = list(kt_values).index(kt_ref) * len(sigma2s)
    p = HamiltonianParams(delta=delta, epsilon=epsilon, kerr=kerr)
    rows, _ = fock.converge_dim(
        lambda d: _group_pass(delta, epsilon, kerr, gamma, kt_values, sigma2s, d, **flags),
        lambda rows: _row_figures(rows[i_ref]),
        dynamics.initial_dim(p, _time_of(kerr, kt_ref)),
    )
    return rows


def _group_rows(
    delta: float,
    epsilon: float,
    kerr: float,
    gamma: float,
    kt_values,
    sigma2s,
    dim: int | None,
    **flags,
) -> list[SweepRow]:
    """The rows kt_values x sigma2s (sigma2 fastest) of one parameter group,
    one pass per dimension; with dim=None the rows share the converged one."""
    if len(kt_values) * len(sigma2s) == 1:  # evaluate_point runs the same one-point pass
        (kt,), (sigma2,) = kt_values, sigma2s
        return [evaluate_point(delta, epsilon, kerr, gamma, kt, sigma2, dim=dim, **flags)]
    if dim is None:
        return _group_dim(delta, epsilon, kerr, gamma, kt_values, sigma2s, **flags)
    return _group_pass(delta, epsilon, kerr, gamma, kt_values, sigma2s, dim, **flags)


def _map(fn, items, threads: int) -> list:
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# experiment runners


def run_fig1(
    cfg: ExperimentConfig, dim: int | None = None, threads: int = 1, **_ignored
) -> SweepResult:
    """V_min(t) traces over the kerr axis plus an optimal-squeezing table.

    Traces fix (delta, epsilon) = (delta[0], 2) and sweep kerr x kt; the
    optima table sweeps the epsilon axis (per unit K) at each delta, reporting
    chi^-2_opt = 1/V_min(t_opt) with kt = K t_opt in the kt column.
    """
    rows: list[SweepRow] = []
    delta0 = cfg.delta[0]
    for kerr in cfg.kerr:
        p = HamiltonianParams(delta=delta0, epsilon=FIG1_TRACE_EPSILON, kerr=kerr)
        t_grid = np.array([_time_of(kerr, kt) for kt in cfg.kt])
        trace = dynamics.squeezing_trace(p, t_grid, dim=dim)
        for i, kt in enumerate(cfg.kt):
            rows.append(
                SweepRow(
                    delta=delta0,
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
    optima = [row for row in _map(optimum, points, threads) if row is not None]
    return SweepResult(experiment="fig1", rows=rows, optima=optima)


def run_fig2(
    cfg: ExperimentConfig,
    dim: int | None = None,
    threads: int = 1,
    with_k3: bool = False,
) -> SweepResult:
    """Sensitivity maps over (delta, epsilon) at fixed Kt."""
    kerr = cfg.kerr[0]
    gamma = cfg.gamma[0]
    kt = cfg.kt[0]
    sigma2 = cfg.sigma2[0]

    def job(point: tuple[float, float]) -> SweepRow:
        d, eps = point
        row = evaluate_point(d, eps, kerr, gamma, kt, sigma2, dim=dim, with_k3=with_k3)
        if row.f_q:
            row.gap = (row.f_q - row.chi2inv_1) / row.f_q
        return row

    points = [(d, eps) for d in cfg.delta for eps in cfg.epsilon]
    rows = _map(job, points, threads)
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
    displaced = QuantumState.from_density_matrix(
        d_op @ prepared.density_matrix() @ d_op.conj().T
    )
    p = HamiltonianParams(delta=row.delta, epsilon=row.epsilon, kerr=row.kerr)
    t = _time_of(row.kerr, row.kt)
    reversed_state = dynamics.evolve_lindblad(
        displaced, p, LossParams(row.gamma), t, reverse=True
    )
    return [
        _snapshot("prepared", prepared, report, grid),
        _snapshot("displaced", displaced, report, grid),
        _snapshot("reversed", reversed_state, report, grid),
    ]


def run_fig3(
    cfg: ExperimentConfig,
    dim: int | None = None,
    with_k3: bool = False,
    snapshot_grid: PhaseGrid = SNAPSHOT_GRID,
    snapshots: bool = True,
    **_ignored,
) -> SweepResult:
    """Sensitivities vs Kt per loss rate, plus echo-protocol Wigner snapshots.

    Lossless rows must satisfy chi^-2 <= chi^-2_MAI <= F_Q (1e-6 slack);
    snapshots are taken at Kt = 0.4, gamma/K = 0.1 regardless of the gamma
    axis, matching the protocol illustration.  Their prepared state is the
    sweep's own row at that point when the sweep has one; otherwise it is
    the point's row without the echo, converged at that point.
    """
    delta = cfg.delta[0]
    epsilon = cfg.epsilon[0]
    kerr = cfg.kerr[0]
    sigma2 = cfg.sigma2[0]
    flags = {"with_k3": with_k3}
    rows: list[SweepRow] = []
    for gamma in cfg.gamma:
        rows.extend(_group_rows(delta, epsilon, kerr, gamma, cfg.kt, [sigma2], dim, **flags))
    _check_lossless_ordering(rows)
    if not snapshots:
        return SweepResult(experiment="fig3", rows=rows)
    gamma = SNAPSHOT_GAMMA * kerr
    swept = (r for r in rows if r.gamma == gamma and math.isclose(r.kt, SNAPSHOT_KT))
    row = next(swept, None)
    if row is None:
        row = evaluate_point(delta, epsilon, kerr, gamma, SNAPSHOT_KT, dim=dim, with_mai=False)
    return SweepResult(
        experiment="fig3", rows=rows, snapshots=_fig3_snapshots(row, snapshot_grid)
    )


def _first_maximum(values: np.ndarray) -> int | None:
    for i in range(1, values.shape[0] - 1):
        if values[i + 1] < values[i] and values[i] >= values[i - 1]:
            return i
    return None


def _scaling_series(dim: int, p: HamiltonianParams, t_grid: np.ndarray):
    """Mean excitation number and QFI along the vacuum trajectory."""
    trajectory = dynamics.vacuum_trajectory(p, t_grid, dim)
    return trajectory.n_mean, trajectory.f_q


def _fit_slope(n_mean: np.ndarray, f_q: np.ndarray, window: float) -> float:
    count = int(round(window * n_mean.shape[0]))
    if count < 4:
        raise ScalingFitError(
            f"fewer than 4 points in the fit window ({count}); refine the kt grid"
        )
    n_w = n_mean[-count:]
    f_w = f_q[-count:]
    return float(np.sum(n_w * (f_w - 4.0)) / np.sum(n_w * n_w))


def run_scaling(
    cfg: ExperimentConfig, dim: int | None = None, threads: int = 1, **_ignored
) -> SweepResult:
    """F_Q(N) series per epsilon with the slope of F_Q = a N + 4.

    The series is truncated at the first F_Q maximum; the slope is fitted on
    the last 20% of the truncated points.
    """
    if any(d != 0.0 for d in cfg.delta):
        raise ConfigError("the scaling experiment requires delta = 0")
    kerr = cfg.kerr[0]
    t_grid = np.array([_time_of(kerr, kt) for kt in cfg.kt])
    rows: list[SweepRow] = []
    fits: list[ScalingFit] = []

    def run_one(epsilon: float) -> tuple[list[SweepRow], ScalingFit]:
        p = HamiltonianParams(delta=0.0, epsilon=epsilon, kerr=kerr)

        def series(d: int) -> tuple[np.ndarray, np.ndarray, float]:
            n_mean, f_q = _scaling_series(d, p, t_grid)
            i_max = _first_maximum(f_q)
            if i_max is None:
                raise ScalingFitError(
                    f"no F_Q maximum for epsilon/K = {epsilon / kerr}; extend the kt grid"
                )
            n_mean, f_q = n_mean[: i_max + 1], f_q[: i_max + 1]
            return n_mean, f_q, _fit_slope(n_mean, f_q, 0.2)

        if dim is not None:
            (n_mean, f_q, a), used = series(dim), dim
        else:
            (n_mean, f_q, a), used = fock.converge_dim(
                series,
                lambda s: np.array([s[2], s[0][-1], s[1][-1]]),  # a, N and F_Q at the maximum
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

    for eps_rows, fit in _map(run_one, cfg.epsilon, threads):
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


def run_loss_robustness(cfg: ExperimentConfig, dim: int | None = None, **_ignored) -> SweepResult:
    """Per-gamma maxima over Kt of chi^-2, chi^-2_MAI, and F_Q.

    Each quantity is maximised on the kt grid and refined once through the
    parabola of the bracketing points; the vertices of all three are one
    more pass at the group's dimension.  The emitted kt column and the
    v_min/N entries refer to the echo optimum; chi2inv_1 and f_q columns
    carry their own maxima.
    """
    delta = cfg.delta[0]
    epsilon = cfg.epsilon[0]
    kerr = cfg.kerr[0]
    sigma2 = cfg.sigma2[0]
    kt_grid = np.array(cfg.kt)
    figures = ("chi2inv_1", "f_q", "chi2inv_mai")
    rows: list[SweepRow] = []
    for gamma in cfg.gamma:
        grid_rows = _group_rows(delta, epsilon, kerr, gamma, cfg.kt, [sigma2], dim)
        group_dim = grid_rows[0].dim
        best: dict[str, tuple[float, SweepRow]] = {}  # figure -> (kt, row)
        vertices: dict[str, float] = {}
        for name in figures:
            values = np.array([getattr(r, name) for r in grid_rows], dtype=float)
            i = int(np.nanargmax(values))
            best[name] = (float(kt_grid[i]), grid_rows[i])
            vertex = _parabolic_vertex(kt_grid, values, i) if 0 < i < len(values) - 1 else None
            if vertex is not None:
                vertices[name] = vertex
        if vertices:
            kts = sorted(set(vertices.values()))
            passed = _group_pass(delta, epsilon, kerr, gamma, kts, [sigma2], group_dim)
            at_vertex = dict(zip(kts, passed))
            for name, vertex in vertices.items():
                if getattr(at_vertex[vertex], name) > getattr(best[name][1], name):
                    best[name] = (vertex, at_vertex[vertex])
        mai_kt, mai_row = best["chi2inv_mai"]
        rows.append(
            SweepRow(
                delta=delta,
                epsilon=epsilon,
                kerr=kerr,
                gamma=gamma,
                kt=mai_kt,
                dim=group_dim,
                n_mean=mai_row.n_mean,
                v_min=mai_row.v_min,
                chi2inv_1=best["chi2inv_1"][1].chi2inv_1,
                f_q=best["f_q"][1].f_q,
                chi2inv_mai=mai_row.chi2inv_mai,
                status=mai_row.status,
                sigma2=sigma2,
            )
        )
    return SweepResult(experiment="loss-robustness", rows=rows)


def run_custom(
    cfg: ExperimentConfig,
    dim: int | None = None,
    with_k3: bool = False,
    **_ignored,
) -> SweepResult:
    """Full cross product of the config axes; sigma2 varies fastest."""
    flags = {"with_k2": True, "with_k3": with_k3}
    rows: list[SweepRow] = []
    for delta in cfg.delta:
        for epsilon in cfg.epsilon:
            for kerr in cfg.kerr:
                for gamma in cfg.gamma:
                    rows.extend(
                        _group_rows(delta, epsilon, kerr, gamma, cfg.kt, cfg.sigma2, dim, **flags)
                    )
    return SweepResult(experiment="custom", rows=rows)


def run_wigner(
    cfg: ExperimentConfig,
    dim: int | None = None,
    grid: PhaseGrid = DEFAULT_GRID,
    **_ignored,
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


def run_experiment(
    cfg: ExperimentConfig,
    dim: int | None = None,
    threads: int = 1,
    with_k3: bool = False,
) -> SweepResult:
    runner = _RUNNERS[cfg.experiment]
    return runner(cfg, dim=dim, threads=threads, with_k3=with_k3)


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


def _snapshot_to_dict(snap: WignerSnapshot) -> dict:
    return {
        "x_grid": [float(x) for x in snap.x_grid],
        "p_grid": [float(p) for p in snap.p_grid],
        "w": [[float(v) for v in row] for row in snap.w],
        "phi_opt": snap.phi_opt,
        "theta_opt": snap.theta_opt,
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


def emit(result: SweepResult, out_path: str | Path, fmt: str = "csv") -> list[Path]:
    """Write the result files; returns the paths written.

    CSV keeps the pinned column schema; the optima table and scaling fits go
    to sidecar files.  JSON mirrors the schema in one file.  Wigner snapshots
    are always one JSON file each.
    """
    out = Path(out_path)
    written: list[Path] = []
    if result.experiment != "wigner":
        if fmt == "csv":
            out.write_text(rows_to_csv(result.rows))
            written.append(out)
            if result.optima is not None:
                side = out.with_name(out.stem + "_optima" + out.suffix)
                side.write_text(rows_to_csv(result.optima))
                written.append(side)
            if result.fits is not None:
                side = out.with_name(out.stem + "_fits.json")
                side.write_text(
                    json.dumps([_fit_to_dict(f) for f in result.fits], indent=1) + "\n"
                )
                written.append(side)
        elif fmt == "json":
            out.write_text(json.dumps(result_to_dict(result), indent=1) + "\n")
            written.append(out)
        else:
            raise ValueError(f"unknown output format {fmt!r}")
    for snap in result.snapshots or []:
        if result.experiment == "wigner":
            path = out
        else:
            path = out.with_name(f"{out.stem}_wigner_{snap.name}.json")
        path.write_text(json.dumps(_snapshot_to_dict(snap), indent=1) + "\n")
        written.append(path)
    return written
