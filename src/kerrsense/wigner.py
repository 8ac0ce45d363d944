"""Wigner function on a rectangular phase-space grid.

W is normalized so that the Riemann sum over dx dp is 1, the vacuum peaks at
1/pi, and pi * W(0, 0) equals the parity expectation <Pi>.  It is evaluated in
the separable Hermite form of W = (1/pi) int dy <x+y|rho|x-y> e^{-2ipy},

    W(x, p) = (1/sqrt(pi)) sum_{k,l} C_kl phi_k(sqrt2 x) phi_l(sqrt2 p),
    C_kl = (-i)^l sum_{m+n=k+l} rho_mn <k, l| B |m, n>,

with phi_k the Hermite functions and B the 50:50 beam splitter a1^dag ->
(a1^dag + a2^dag)/sqrt2, a2^dag -> (a1^dag - a2^dag)/sqrt2: in sqrt2 x and
sqrt2 y, phi_m(x+y) phi_n(x-y) is the wavefunction of B|m, n>, and phi_l is an
eigenfunction of the Fourier transform with eigenvalue (-i)^l.  It is exact for
the state as given (no padding), C is real, and W on the grid is two Hermite
tables and one matrix product.  Top Fock levels that cannot move W by more
than TRIM_TOL are dropped first.
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
# this; it holds because |W of |m><n|| = |<n|D Pi D^dag|m>|/pi <= 1/pi.
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


def _hermite_functions(count: int, x: np.ndarray) -> np.ndarray:
    """phi[n] = phi_n(x) for n < count, by the normalized Hermite-function
    recurrence, which is stable in the classically allowed region."""
    phi = np.empty((count, x.size))
    phi[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if count > 1:
        phi[1] = np.sqrt(2.0) * x * phi[0]
    for n in range(2, count):
        phi[n] = x * np.sqrt(2.0 / n) * phi[n - 1] - np.sqrt((n - 1) / n) * phi[n - 2]
    return phi


def _beam_splitter_blocks(dim: int):
    """Yield (n, lo, b), b[k, j] = <k, n-k| B |lo+j, n-lo-j> for j <= n//2 - lo.

    lo is the least m with n - m < dim; the columns m > n//2 are mirror images
    (swapping the inputs flips the sign of the odd-l rows).  They are built one
    photon at a time: (n+1) B|m, n+1-m> = sqrt(m) A^dag B|m-1, n+1-m>
    + sqrt(n+1-m) Abar^dag B|m, n-m>, A^dag, Abar^dag = (a1^dag +- a2^dag)/sqrt2,
    as a1^dag a1 + a2^dag a2 = n+1.  (The one-sided B|m+1, n> = A^dag B|m, n>
    / sqrt(m+1) loses all accuracy at large dim.)
    """
    root = np.sqrt(np.arange(2.0 * dim))
    block = np.array([[0.0, 1.0, 0.0]])  # columns lo-1 (zero) .. n//2 + 1 (mirror)
    lo = 0
    for n in range(2 * dim - 1):
        yield n, lo, block[:, 1:-1]
        shift = int(n + 2 > dim)  # the next block starts at column lo + shift
        m = np.arange(lo + shift, (n + 1) // 2 + 1)
        scale = np.sqrt(2.0) * (n + 1)
        a = block[:, m - lo] * (root[m] / scale)
        b = block[:, m - lo + 1] * (root[n + 1 - m] / scale)
        block = np.zeros((n + 2, m.size + 2))
        block[:-1, 1:-1] = root[n + 1 : 0 : -1, None] * (a - b)
        block[1:, 1:-1] += root[1 : n + 2, None] * (a + b)
        lo += shift
        block[:, -1] = (-1.0) ** (n + 1 - np.arange(n + 2)) * block[:, n + 1 - (n + 1) // 2 - lo]


def _untrimmed_wigner(rho: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """W on the grid from the density matrix rho, without any trimming.

    By the mirror symmetry of B, Hermitian rho gives C_kl = (-1)^(l//2) sum_{m<=n}
    (2 - [m = n]) <k, l|B|m, n> times Re rho_mn for even l, Im rho_mn for odd l.
    """
    size = 2 * rho.shape[0] - 1
    c = np.zeros((size, size))
    for n, lo, b in _beam_splitter_blocks(rho.shape[0]):
        m, k = np.arange(lo, lo + b.shape[1]), np.arange(n + 1)
        v = np.where(2 * m == n, 1.0, 2.0) * rho[m, n - m]
        c[k, n - k] = np.where((n - k) % 2, b @ v.imag, b @ v.real)
    phi_x = _hermite_functions(size, np.sqrt(2.0) * grid.x_values)
    phi_p = _hermite_functions(size, np.sqrt(2.0) * grid.p_values)
    phi_p *= (-1.0) ** (np.arange(size) // 2)[:, None]
    return phi_x.T @ (c @ phi_p) / np.sqrt(np.pi)


def wigner(state: QuantumState, grid: PhaseGrid = DEFAULT_GRID) -> np.ndarray:
    """Wigner function as an (nx, np) array with W[i, j] = W(x_i, p_j).

    The top Fock levels are dropped as far as that provably moves W by at
    most TRIM_TOL.  Warns with GridCoverageWarning when |W| on the boundary
    exceeds BOUNDARY_TOL, since a clipped grid breaks normalization checks.
    """
    dim = _trimmed_dim(state.populations())
    w = _untrimmed_wigner(state.density_matrix()[:dim, :dim], grid)
    edge = max(np.abs(w[[0, -1], :]).max(), np.abs(w[:, [0, -1]]).max())
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
    """Probability density of the X quadrature at the given points; matches
    the p-integrated Wigner marginal.  With the state's factor W (not the
    Wigner function) the density is sum_k |phi^T W|^2."""
    phi = _hermite_functions(state.dim, np.asarray(x, dtype=float))
    return np.sum(np.abs(phi.T @ state.factor()) ** 2, axis=1)
