"""Laguerre-series Wigner evaluation against closed forms and dense oracles."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from kerrsense import fock, gaussian
from kerrsense.dynamics import HamiltonianParams, LossParams, evolve_lindblad, evolve_unitary
from kerrsense.fock import QuantumState
from kerrsense.harness import SNAPSHOT_GRID
from kerrsense.wigner import (
    DEFAULT_GRID,
    TRIM_TOL,
    GridCoverageWarning,
    PhaseGrid,
    _laguerre_series,
    _trimmed_dim,
    parity_expectation,
    position_distribution,
    wigner,
)

# every 10th point of SNAPSHOT_GRID; the corners sit at |alpha| = 6
SNAPSHOT_SUBGRID = PhaseGrid(
    x_range=SNAPSHOT_GRID.x_range, p_range=SNAPSHOT_GRID.p_range, nx=21, np=21
)


def riemann_sum(w: np.ndarray, grid: PhaseGrid) -> float:
    return float(np.sum(w)) * grid.x_step * grid.p_step


def closed_form_gaussian(grid: PhaseGrid, cov: np.ndarray) -> np.ndarray:
    # W(x, p) = exp(-r^T cov^{-1} r / 2) / (2 pi sqrt(det cov))
    inv = np.linalg.inv(cov)
    x = grid.x_values[:, None]
    p = grid.p_values[None, :]
    quad = inv[0, 0] * x**2 + 2.0 * inv[0, 1] * x * p + inv[1, 1] * p**2
    return np.exp(-quad / 2.0) / (2.0 * math.pi * math.sqrt(np.linalg.det(cov)))


# ---------------------------------------------------------------------------
# grid


def test_phase_grid_validation():
    with pytest.raises(ValueError):
        PhaseGrid(x_range=(1.0, -1.0))
    with pytest.raises(ValueError):
        PhaseGrid(p_range=(0.0, math.inf))
    with pytest.raises(ValueError):
        PhaseGrid(nx=4)


def test_phase_grid_values():
    grid = PhaseGrid(x_range=(-2.0, 2.0), p_range=(-1.0, 3.0), nx=9, np=17)
    assert grid.x_values[0] == -2.0 and grid.x_values[-1] == 2.0
    assert grid.p_values[0] == -1.0 and grid.p_values[-1] == 3.0
    assert abs(grid.x_step - 0.5) < 1e-15
    assert abs(grid.p_step - 0.25) < 1e-15


# ---------------------------------------------------------------------------
# closed-form states


def test_vacuum_peak_normalization_and_symmetry():
    grid = PhaseGrid(nx=101, np=101)
    w = wigner(QuantumState.vacuum(20), grid)
    assert w.shape == (101, 101)
    center = w[50, 50]
    assert abs(center - 1.0 / math.pi) < 1e-10
    assert abs(riemann_sum(w, grid) - 1.0) < 1e-6
    np.testing.assert_allclose(w, w[::-1, :], atol=1e-12)
    np.testing.assert_allclose(w, w[:, ::-1], atol=1e-12)


def test_vacuum_matches_gaussian_closed_form():
    grid = PhaseGrid(x_range=(-3.0, 3.0), p_range=(-3.0, 3.0), nx=31, np=31)
    w = wigner(QuantumState.vacuum(16), grid)
    expected = closed_form_gaussian(grid, np.eye(2) / 2.0)
    np.testing.assert_allclose(w, expected, atol=1e-12)


@pytest.mark.filterwarnings("ignore::kerrsense.wigner.GridCoverageWarning")
def test_coherent_state_is_displaced_vacuum():
    alpha = 1.0 + 0.5j
    x0 = math.sqrt(2.0) * alpha.real
    p0 = math.sqrt(2.0) * alpha.imag
    grid = PhaseGrid(x_range=(-4.0, 4.0), p_range=(-4.0, 4.0), nx=41, np=41)
    w = wigner(QuantumState.coherent(40, alpha), grid)
    x = grid.x_values[:, None]
    p = grid.p_values[None, :]
    expected = np.exp(-((x - x0) ** 2) - (p - p0) ** 2) / math.pi
    np.testing.assert_allclose(w, expected, atol=1e-10)


def test_squeezed_vacuum_matches_gaussian_closed_form():
    eps, t = 1.0, 0.25  # r = 0.5
    state = evolve_unitary(QuantumState.vacuum(60), HamiltonianParams(epsilon=eps), t)
    grid = PhaseGrid(x_range=(-4.0, 4.0), p_range=(-4.0, 4.0), nx=33, np=33)
    w = wigner(state, grid)
    cov = gaussian.covariance(gaussian.from_free_squeezing(eps, t))
    np.testing.assert_allclose(w, closed_form_gaussian(grid, cov), atol=1e-8)


def test_thermal_state_closed_form():
    n_th = 0.5
    grid = PhaseGrid(x_range=(-4.0, 4.0), p_range=(-4.0, 4.0), nx=25, np=25)
    w = wigner(QuantumState.thermal(60, n_th), grid)
    width = 1.0 + 2.0 * n_th
    x = grid.x_values[:, None]
    p = grid.p_values[None, :]
    expected = np.exp(-(x**2 + p**2) / width) / (math.pi * width)
    np.testing.assert_allclose(w, expected, atol=1e-10)


def test_fock_one_negative_at_origin():
    grid = PhaseGrid(nx=101, np=101)
    w = wigner(QuantumState.fock(20, 1), grid)
    assert abs(w[50, 50] + 1.0 / math.pi) < 1e-10
    assert float(np.min(w)) < -0.9 / math.pi
    assert abs(riemann_sum(w, grid) - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# identities


def test_parity_identity_at_origin():
    one_point = PhaseGrid(x_range=(-1e-12, 1e-12), p_range=(-1e-12, 1e-12), nx=8, np=8)
    for state in (
        QuantumState.fock(24, 1),
        QuantumState.thermal(24, 0.7),
        evolve_unitary(
            QuantumState.vacuum(64), HamiltonianParams(epsilon=2.0, kerr=1.0), 0.3
        ),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridCoverageWarning)
            w = wigner(state, one_point)
        assert abs(math.pi * w[0, 0] - parity_expectation(state)) < 1e-10


def test_parity_expectation_values():
    assert parity_expectation(QuantumState.vacuum(12)) == 1.0
    assert parity_expectation(QuantumState.fock(12, 1)) == -1.0
    n_th = 0.8
    got = parity_expectation(QuantumState.thermal(80, n_th))
    assert abs(got - 1.0 / (1.0 + 2.0 * n_th)) < 1e-10


def dense_displaced_parity(rho: np.ndarray, alpha: complex, big: int = 160) -> float:
    """Independent route: pad rho by hand, displace with expm, take <D Pi D^dag>."""
    padded = np.zeros((big, big), dtype=complex)
    padded[: rho.shape[0], : rho.shape[1]] = rho
    a = fock.annihilation(big).matrix
    d = scipy.linalg.expm(alpha * a.conj().T - np.conj(alpha) * a)
    shifted = d.conj().T @ padded @ d
    signs = (-1.0) ** np.arange(big)
    return float(np.sum(signs * np.diag(shifted)).real) / math.pi


@pytest.mark.filterwarnings("ignore::kerrsense.wigner.GridCoverageWarning")
def test_wigner_matches_dense_displaced_parity():
    state = evolve_unitary(
        QuantumState.vacuum(48), HamiltonianParams(delta=1.0, epsilon=2.0, kerr=1.0), 0.4
    )
    grid = PhaseGrid(x_range=(-2.0, 2.0), p_range=(-2.0, 2.0), nx=9, np=9)
    w = wigner(state, grid)
    rho = state.density_matrix()
    for i in (0, 4, 8):
        for j in (2, 6):
            alpha = (grid.x_values[i] + 1j * grid.p_values[j]) / math.sqrt(2.0)
            assert abs(w[i, j] - dense_displaced_parity(rho, alpha)) < 1e-10


@pytest.mark.filterwarnings("ignore::kerrsense.wigner.GridCoverageWarning")
def test_mixed_lossy_state_matches_dense_displaced_parity():
    # the fig3 snapshot family: gamma/K = 0.1 at Kt = 0.4
    state = evolve_lindblad(
        QuantumState.vacuum(48),
        HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0),
        LossParams(0.1),
        0.4,
    )
    assert not state.is_pure
    grid = PhaseGrid(x_range=(-2.0, 2.0), p_range=(-2.0, 2.0), nx=9, np=9)
    w = wigner(state, grid)
    rho = state.density_matrix()
    for i, j in ((0, 2), (4, 4), (8, 6), (1, 7), (6, 0)):
        alpha = (grid.x_values[i] + 1j * grid.p_values[j]) / math.sqrt(2.0)
        assert abs(w[i, j] - dense_displaced_parity(rho, alpha)) < 1e-10


def test_marginal_matches_position_distribution():
    grid = PhaseGrid(x_range=(-5.0, 5.0), p_range=(-5.0, 5.0), nx=81, np=201)
    for state in (
        QuantumState.vacuum(30),
        evolve_unitary(QuantumState.vacuum(60), HamiltonianParams(epsilon=1.0), 0.25),
    ):
        w = wigner(state, grid)
        marginal = np.sum(w, axis=1) * grid.p_step
        expected = position_distribution(state, grid.x_values)
        np.testing.assert_allclose(marginal, expected, atol=1e-6)


def test_position_distribution_vacuum_gaussian():
    x = np.linspace(-4.0, 4.0, 101)
    got = position_distribution(QuantumState.vacuum(24), x)
    np.testing.assert_allclose(got, np.exp(-(x**2)) / math.sqrt(math.pi), atol=1e-12)
    # thermal spread widens by 1 + 2 n_T
    n_th = 0.5
    width = 1.0 + 2.0 * n_th
    got_th = position_distribution(QuantumState.thermal(60, n_th), x)
    expected = np.exp(-(x**2) / width) / math.sqrt(math.pi * width)
    np.testing.assert_allclose(got_th, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# truncation handling


def test_small_states_are_padded_not_biased():
    grid = PhaseGrid(nx=41, np=41)
    small = wigner(QuantumState.vacuum(8), grid)
    large = wigner(QuantumState.vacuum(128), grid)
    np.testing.assert_allclose(small, large, atol=1e-12)


def coherent_ket(dim: int, beta: complex) -> np.ndarray:
    # Poisson amplitudes in log space, independent of fock.displacement
    n = np.arange(dim)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    mag = np.exp(-abs(beta) ** 2 / 2.0 + n * math.log(abs(beta)) - log_fact / 2.0)
    return mag * np.exp(1j * n * np.angle(beta))


@pytest.mark.filterwarnings("ignore::kerrsense.wigner.GridCoverageWarning")
@pytest.mark.filterwarnings("ignore::kerrsense.fock.TruncationWarning")
def test_large_dim_states_on_snapshot_grid():
    x = SNAPSHOT_SUBGRID.x_values[:, None]
    p = SNAPSHOT_SUBGRID.p_values[None, :]
    # <n> = 200 keeps ~350 levels: f^k_0 = r^(k/2) e^(-r/2) / sqrt(k!) at
    # |alpha| = 6 (r = 144) would overflow past k ~ 300 if formed directly
    for beta in (10.0 + 10.0j, 2.0 - 1.5j):
        state = QuantumState.from_ket(coherent_ket(512, beta))
        w = wigner(state, SNAPSHOT_SUBGRID)
        assert np.all(np.isfinite(w))
        x0, p0 = math.sqrt(2.0) * beta.real, math.sqrt(2.0) * beta.imag
        expected = np.exp(-((x - x0) ** 2) - (p - p0) ** 2) / math.pi
        np.testing.assert_allclose(w, expected, rtol=0.0, atol=1e-12)
    assert _trimmed_dim(QuantumState.from_ket(coherent_ket(512, 10.0 + 10.0j)).populations()) > 300
    # a Fock state near the top level: W_n = (-1)^n L_n(r) e^{-r/2} / pi
    r = 2.0 * (x**2 + p**2)
    for n in (256, 510):
        w = wigner(QuantumState.fock(512, n), SNAPSHOT_SUBGRID)
        assert np.all(np.isfinite(w))
        expected = (-1.0) ** n * scipy.special.eval_laguerre(n, r) * np.exp(-r / 2.0) / math.pi
        np.testing.assert_allclose(w, expected, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("tol", [1e-6, 1e-10, TRIM_TOL])
def test_level_trim_stays_within_its_bound(tol):
    grid = PhaseGrid(x_range=(-6.0, 6.0), p_range=(-6.0, 6.0), nx=41, np=41)
    for state in (
        QuantumState.from_ket(coherent_ket(96, 2.0 + 1.0j)),
        QuantumState.thermal(96, 0.5),
        evolve_unitary(
            QuantumState.vacuum(96), HamiltonianParams(delta=1.0, epsilon=2.0, kerr=1.0), 0.4
        ),
    ):
        rho = state.density_matrix()
        dim = _trimmed_dim(state.populations(), tol)
        assert dim < state.dim
        full = _laguerre_series(rho, grid)
        trimmed = _laguerre_series(rho[:dim, :dim], grid)
        # rounding of the two sums adds a few ulps of 1/pi on top of the bound
        assert float(np.max(np.abs(full - trimmed))) <= tol + 1e-15
        # dim is the smallest number of levels that meets the bound
        amp = np.sqrt(state.populations())
        bound = [(2.0 / math.pi) * amp.sum() * amp[level:].sum() for level in (dim - 1, dim)]
        assert bound[1] <= tol < bound[0]


def test_grid_coverage_warning_for_clipped_state():
    # |alpha| = 4 puts the peak at x ~ 5.7, beyond the default grid
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fock.TruncationWarning)
        state = QuantumState.coherent(80, 4.0)
    with pytest.warns(GridCoverageWarning):
        wigner(state, DEFAULT_GRID)


def test_no_warning_when_grid_covers_state():
    with warnings.catch_warnings():
        warnings.simplefilter("error", GridCoverageWarning)
        wigner(QuantumState.vacuum(16), DEFAULT_GRID)
