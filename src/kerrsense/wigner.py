"""Wigner function on a rectangular phase-space grid.

W is normalized so that the Riemann sum over dx dp is 1, the vacuum peaks at
1/pi, and pi * W(0, 0) equals the parity expectation <Pi>.  With
alpha = (x + i p)/sqrt(2), r = 4|alpha|^2 and theta = arg(alpha) it is the
Laguerre series of Cahill & Glauber, Phys. Rev. 177, 1857 (1969),

    W = (1/pi) [ sum_n (-1)^n rho_nn f^0_n(r)
                 + 2 Re sum_{k>=1} e^{ik theta} sum_n (-1)^n rho_{n,n+k} f^k_n(r) ],

    f^k_n(r) = sqrt(n!/(n+k)!) r^{k/2} e^{-r/2} L^k_n(r),

which is exact for the state as given: no padding of the truncated space
(the same series as QuTiP's wigner(method="clenshaw")).  The normalized
Laguerre functions depend only on |alpha|, so they are run once per distinct
radius of the grid, by the recurrence over n for all k at once; the k series
is then summed by Horner's rule in e^{i theta} over the grid.  Pure and mixed
states share the one path.  Top Fock levels that cannot move W by more than
TRIM_TOL are dropped first.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import QuantumState

__all__ = [
    "DEFAULT_GRID",
    "GridCoverageWarning",
    "PhaseGrid",
    "parity_expectation",
    "position_distribution",
    "wigner",
]

# Boundary |W| above this suggests the grid clips the state's support.
BOUNDARY_TOL = 1e-4

# Fock levels are dropped from the top while the bound on the change this
# makes to W, (2/pi) (sum_n sqrt(p_n)) (sum_{m >= L} sqrt(p_m)), is at most
# this; it holds because |f^k_n| <= 1 and |rho_mn| <= sqrt(p_m p_n).
TRIM_TOL = 1e-14


def _trimmed_dim(populations: np.ndarray, tol: float = TRIM_TOL) -> int:
    """Smallest L whose dropped levels L, L+1, ... move W by at most tol."""
    amp = np.sqrt(np.clip(populations, 0.0, None))
    tail = np.cumsum(amp[::-1])[::-1]  # tail[L] = sum_{m >= L} sqrt(p_m)
    kept = np.nonzero((2.0 / np.pi) * tail[0] * tail > tol)[0]
    return int(kept[-1]) + 1 if kept.size else 1


class GridCoverageWarning(UserWarning):
    """The phase-space grid does not appear to cover the state's support."""


@dataclass(frozen=True)
class PhaseGrid:
    """Rectangular (x, p) grid; values are row-major in x."""

    x_range: tuple[float, float] = (-5.0, 5.0)
    p_range: tuple[float, float] = (-5.0, 5.0)
    nx: int = 201
    np: int = 201

    def __post_init__(self) -> None:
        for name, (lo, hi) in (("x_range", self.x_range), ("p_range", self.p_range)):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"{name} must be a finite (min, max) pair with min < max")
        if self.nx < 8 or self.np < 8:
            raise ValueError(f"grid must have at least 8 points per axis, got {self.nx}x{self.np}")

    @property
    def x_values(self) -> np.ndarray:
        return np.linspace(self.x_range[0], self.x_range[1], self.nx)

    @property
    def p_values(self) -> np.ndarray:
        return np.linspace(self.p_range[0], self.p_range[1], self.np)

    @property
    def x_step(self) -> float:
        return (self.x_range[1] - self.x_range[0]) / (self.nx - 1)

    @property
    def p_step(self) -> float:
        return (self.p_range[1] - self.p_range[0]) / (self.np - 1)


DEFAULT_GRID = PhaseGrid()


def _diagonal_sums(rho: np.ndarray, r: np.ndarray) -> np.ndarray:
    """s[k] = sum_n (-1)^n rho_{n,n+k} f^k_n(r) at each radius in r.

    Diagonals k above the last one holding a nonzero element are left out.
    """
    dim = rho.shape[0]
    rows, cols = np.nonzero(np.triu(rho))
    bands = int((cols - rows).max()) + 1 if rows.size else 1
    k = np.arange(bands)[:, None]
    # f^k_0 = r^{k/2} e^{-r/2} / sqrt(k!), in log space: r^{k/2} overflows.
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, bands)))))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_f = np.where(k > 0, 0.5 * k * np.log(r), 0.0) - 0.5 * r - 0.5 * log_fact
    f = np.exp(log_f)
    f_prev = np.zeros_like(f)
    s = np.zeros((bands, r.size), dtype=complex)
    for n in range(dim):
        m = min(bands, dim - n)  # diagonals k that row n reaches
        f, f_prev, kk = f[:m], f_prev[:m], k[:m]
        s[:m] += ((-1.0) ** n * rho[n, n : n + m])[:, None] * f
        f, f_prev = (
            ((2 * n + 1) + kk - r) * f - np.sqrt(n * (n + kk)) * f_prev
        ) / np.sqrt((n + 1) * (n + 1 + kk)), f
    return s


def _laguerre_series(rho: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """W on the grid from the density matrix rho, without any trimming."""
    x = grid.x_values[:, None]
    p = grid.p_values[None, :]
    radius2, where = np.unique((x * x + p * p).ravel(), return_inverse=True)
    s = _diagonal_sums(rho, 2.0 * radius2)
    z = np.exp(1j * np.arctan2(p, x)).ravel()
    acc = np.zeros(z.size, dtype=complex)
    for k in range(s.shape[0] - 1, 0, -1):
        acc = (acc + s[k, where]) * z
    return ((s[0, where].real + 2.0 * acc.real) / np.pi).reshape(grid.nx, grid.np)


def wigner(state: QuantumState, grid: PhaseGrid = DEFAULT_GRID) -> np.ndarray:
    """Wigner function as an (nx, np) array with W[i, j] = W(x_i, p_j).

    The top Fock levels are dropped as far as that provably moves W by at
    most TRIM_TOL.  Warns with GridCoverageWarning when |W| on the boundary
    exceeds BOUNDARY_TOL, since a clipped grid breaks normalization checks.
    """
    dim = _trimmed_dim(state.populations())
    w = _laguerre_series(state.density_matrix()[:dim, :dim], grid)

    edge = max(
        np.abs(w[0, :]).max(),
        np.abs(w[-1, :]).max(),
        np.abs(w[:, 0]).max(),
        np.abs(w[:, -1]).max(),
    )
    if edge > BOUNDARY_TOL:
        warnings.warn(
            f"Wigner boundary magnitude {edge:.2e} exceeds {BOUNDARY_TOL:.0e}; "
            "enlarge the grid to cover the state",
            GridCoverageWarning,
            stacklevel=2,
        )
    return w


def parity_expectation(state: QuantumState) -> float:
    """<Pi>; equals pi * W(0, 0)."""
    return fock.expectation(state, fock.parity(state.dim)).real


def position_distribution(state: QuantumState, x: np.ndarray) -> np.ndarray:
    """Probability density of the X quadrature at the given points.

    Uses the normalized Hermite-function recurrence, which is stable in the
    classically allowed region; matches the p-integrated Wigner marginal.
    With the state's factor W the density is sum_k |phi^T W|^2.
    """
    x = np.asarray(x, dtype=float)
    dim = state.dim
    phi = np.empty((dim, x.size))
    phi[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    phi[1] = np.sqrt(2.0) * x * phi[0]
    for n in range(2, dim):
        phi[n] = x * np.sqrt(2.0 / n) * phi[n - 1] - np.sqrt((n - 1) / n) * phi[n - 2]
    return np.sum(np.abs(phi.T @ state.factor()) ** 2, axis=1)
