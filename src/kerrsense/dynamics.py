"""Dynamics of the driven Kerr oscillator.

Hamiltonian (hbar = 1):

    H = delta * a^dag a + epsilon * (a^dag^2 + a^2) - kerr * a^dag^2 a^2

Unitary evolution goes through the exact spectral decomposition of the
truncated H (one Hermitian eigendecomposition, reused across times).
Dissipative evolution under the single jump operator sqrt(gamma) * a is the
exponential of the vectorised Liouvillian, applied matrix-free; an adaptive
RK45 route on vec(rho) is available as an independent alternative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .fock import (
    Operator,
    QuantumState,
    TruncationError,
    check_dim,
    quadrature_covariance,
)

EVOLUTION_TAIL_ERROR = 1e-3
RK45_RTOL = 1e-8
RK45_ATOL = 1e-10


class NoInteriorMinimumError(RuntimeError):
    """V_min(t) has no interior minimum on the scanned window (e.g. kerr=0)."""


class IntegrationError(RuntimeError):
    """Adaptive integration failed; carries the time reached."""

    def __init__(self, message: str, t_reached: float):
        super().__init__(message)
        self.t_reached = t_reached


@dataclass(frozen=True)
class HamiltonianParams:
    """Detuning, two-photon drive strength, and Kerr coefficient."""

    delta: float = 0.0
    epsilon: float = 0.0
    kerr: float = 0.0

    def __post_init__(self):
        for name in ("delta", "epsilon", "kerr"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class LossParams:
    """Single-photon loss rate for the jump operator sqrt(gamma) * a."""

    gamma: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")


def hamiltonian(dim: int, p: HamiltonianParams) -> Operator:
    dim = check_dim(dim)
    n = np.arange(dim, dtype=float)
    h = np.diag(p.delta * n - p.kerr * n * (n - 1.0) + 0j)
    if p.epsilon != 0.0:
        m = np.arange(dim - 2, dtype=float)
        off = p.epsilon * np.sqrt((m + 1.0) * (m + 2.0))
        h += np.diag(off, k=2) + np.diag(off, k=-2)
    return Operator(h, hermitian=True)


@lru_cache(maxsize=32)
def _eigensystem(dim: int, delta: float, epsilon: float, kerr: float):
    h = hamiltonian(dim, HamiltonianParams(delta, epsilon, kerr))
    evals, evecs = np.linalg.eigh(h.matrix)
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def eigensystem(dim: int, p: HamiltonianParams):
    """Cached (eigenvalues, eigenvectors) of the truncated Hamiltonian."""
    return _eigensystem(check_dim(dim), p.delta, p.epsilon, p.kerr)


def propagator(dim: int, p: HamiltonianParams, t: float) -> Operator:
    """U(t) = exp(-i H t) built from the spectral decomposition."""
    evals, evecs = eigensystem(dim, p)
    return Operator((evecs * np.exp(-1j * evals * t)) @ evecs.conj().T)


def _check_evolution_tail(state: QuantumState) -> QuantumState:
    tail = state.tail_population()
    if tail > EVOLUTION_TAIL_ERROR:
        raise TruncationError(
            f"evolution pushed population {tail:.3e} into the truncation tail "
            f"(> {EVOLUTION_TAIL_ERROR}); increase dim"
        )
    return state


def evolve_unitary(state: QuantumState, p: HamiltonianParams, t: float) -> QuantumState:
    """Propagate a state with exp(-i H t); negative t reverses the evolution."""
    evals, evecs = eigensystem(state.dim, p)
    phases = np.exp(-1j * evals * t)
    if state.is_pure:
        psi = evecs @ (phases * (evecs.conj().T @ state.data))
        out = QuantumState.from_ket(psi)
    else:
        u = (evecs * phases) @ evecs.conj().T
        out = QuantumState.from_density_matrix(u @ state.data @ u.conj().T)
    return _check_evolution_tail(out)


# ---------------------------------------------------------------------------
# Lindblad evolution


def liouvillian(dim: int, p: HamiltonianParams, loss: LossParams, reverse: bool = False):
    """Sparse vectorised Liouvillian, row-major convention vec(rho) = rho.reshape(-1).

    ``reverse=True`` flips the sign of H while keeping the dissipator, i.e.
    the physical echo step where losses keep acting.
    """
    dim = check_dim(dim)
    sign = -1.0 if reverse else 1.0
    h = sp.csr_matrix(sign * hamiltonian(dim, p).matrix)
    eye = sp.identity(dim, dtype=complex, format="csr")
    lv = -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
    if loss.gamma > 0.0:
        n_diag = np.arange(dim, dtype=float)
        a = sp.csr_matrix(
            (np.sqrt(n_diag[1:]), (np.arange(dim - 1), np.arange(1, dim))), shape=(dim, dim)
        ).astype(complex)
        n_op = sp.diags(n_diag + 0j).tocsr()
        lv = lv + loss.gamma * (
            sp.kron(a, a.conj()) - 0.5 * sp.kron(n_op, eye) - 0.5 * sp.kron(eye, n_op)
        )
    return lv.tocsr()


def _lindblad_apply(
    lv,
    block: np.ndarray,
    t: float,
    method: str = "expm",
) -> np.ndarray:
    """Apply exp(L t) to one or more vectorised operators (columns of block)."""
    if t == 0.0:
        return block.copy()
    if method == "expm":
        return expm_multiply(lv * t, block)
    if method == "rk45":
        # imported here: scipy.integrate adds ~0.2 s to every import of kerrsense
        from scipy.integrate import solve_ivp

        shape = block.shape
        flat = block.reshape(block.shape[0], -1)
        cols = []
        for j in range(flat.shape[1]):
            sol = solve_ivp(
                lambda _t, y: lv @ y,
                (0.0, t),
                flat[:, j],
                method="RK45",
                rtol=RK45_RTOL,
                atol=RK45_ATOL,
                dense_output=False,
            )
            if not sol.success:
                raise IntegrationError(
                    f"RK45 Lindblad integration failed: {sol.message}", float(sol.t[-1])
                )
            cols.append(sol.y[:, -1])
        return np.stack(cols, axis=1).reshape(shape)
    raise ValueError(f"unknown Lindblad method {method!r}")


def evolve_lindblad(
    state: QuantumState,
    p: HamiltonianParams,
    loss: LossParams,
    t: float,
    reverse: bool = False,
    method: str = "auto",
) -> QuantumState:
    """Evolve under H (or -H if reverse) with the jump operator sqrt(gamma) a.

    Returns a mixed-kind state; gamma = 0 reproduces the unitary channel.
    """
    if t < 0:
        raise ValueError("Lindblad evolution requires t >= 0; use reverse=True for the echo")
    if method == "auto":
        method = "expm"
    lv = liouvillian(state.dim, p, loss, reverse=reverse)
    rho0 = state.density_matrix().reshape(-1)
    rho_t = _lindblad_apply(lv, rho0, t, method=method).reshape(state.dim, state.dim)
    out = QuantumState.from_density_matrix(rho_t)
    return _check_evolution_tail(out)


# ---------------------------------------------------------------------------
# squeezing figures


def min_variance(state: QuantumState) -> tuple[float, float]:
    """Smallest quadrature variance and its angle.

    Returns (v_min, theta_opt) with theta_opt in [0, pi); v_min is the smaller
    eigenvalue of the 2x2 covariance matrix of (X, P).
    """
    gamma = quadrature_covariance(state)
    evals, evecs = np.linalg.eigh(gamma)
    v_min = float(max(evals[0], 0.0))
    theta = float(np.arctan2(evecs[1, 0], evecs[0, 0])) % math.pi
    return v_min, theta


@dataclass
class SqueezingTrace:
    """V_min and optimal angle along a time grid (from the vacuum)."""

    times: np.ndarray
    v_min: np.ndarray
    theta_opt: np.ndarray
    dim: int


def _vacuum_trace_vmin(dim: int, p: HamiltonianParams, t_grid: np.ndarray) -> np.ndarray:
    evals, evecs = eigensystem(dim, p)
    c0 = evecs.conj().T[:, 0]  # vacuum in the eigenbasis
    out = np.empty(t_grid.shape[0])
    for i, t in enumerate(t_grid):
        psi = evecs @ (np.exp(-1j * evals * t) * c0)
        state = QuantumState.from_ket(psi, check_tail=False)
        out[i] = min_variance(state)[0]
    return out


def squeezing_trace(
    p: HamiltonianParams,
    t_grid,
    dim: int | None = None,
) -> SqueezingTrace:
    """Evolve the vacuum and record V_min(t), theta_opt(t) on t_grid.

    dim=None converges the dimension until the whole V_min trace is stable.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-d array")
    if dim is None:
        from .fock import converge_dim

        _, dim = converge_dim(lambda d: _vacuum_trace_vmin(d, p, t_grid))
    evals, evecs = eigensystem(dim, p)
    c0 = evecs.conj().T[:, 0]
    v_min = np.empty(t_grid.shape[0])
    theta = np.empty(t_grid.shape[0])
    for i, t in enumerate(t_grid):
        psi = evecs @ (np.exp(-1j * evals * t) * c0)
        state = QuantumState.from_ket(psi)
        v_min[i], theta[i] = min_variance(state)
    return SqueezingTrace(times=t_grid, v_min=v_min, theta_opt=theta, dim=dim)


def optimal_squeezing(
    p: HamiltonianParams,
    t_max: float | None = None,
    dim: int | None = None,
    grid_points: int = 200,
    refine_rel_tol: float = 1e-4,
) -> tuple[float, float]:
    """Locate the first interior minimum of V_min(t) from the vacuum.

    Returns (chi2inv_opt, t_opt) with chi2inv_opt = 1 / V_min(t_opt); t_opt is
    refined by golden-section search to the given relative tolerance. Raises
    NoInteriorMinimumError when the scanned window has no interior minimum
    (kerr = 0: V_min decays monotonically).
    """
    if t_max is None:
        if p.kerr <= 0:
            raise NoInteriorMinimumError(
                "kerr = 0 gives monotonically decaying V_min; no interior optimum"
            )
        t_max = 1.0 / p.kerr
    t_grid = np.linspace(0.0, t_max, grid_points)
    trace = squeezing_trace(p, t_grid, dim=dim)
    v = trace.v_min
    idx = None
    for i in range(1, v.shape[0] - 1):
        if v[i] < v[i - 1] and v[i] <= v[i + 1]:
            idx = i
            break
    if idx is None:
        raise NoInteriorMinimumError(
            f"V_min has no interior minimum on (0, {t_max}); kerr = {p.kerr}"
        )

    evals, evecs = eigensystem(trace.dim, p)
    c0 = evecs.conj().T[:, 0]

    def vmin_at(t: float) -> float:
        psi = evecs @ (np.exp(-1j * evals * t) * c0)
        return min_variance(QuantumState.from_ket(psi, check_tail=False))[0]

    # golden-section on the bracketing interval
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = t_grid[idx - 1], t_grid[idx + 1]
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = vmin_at(c), vmin_at(d)
    while (hi - lo) > refine_rel_tol * max(abs(hi + lo) / 2.0, 1e-12):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = vmin_at(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = vmin_at(d)
    t_opt = (lo + hi) / 2.0
    v_opt = vmin_at(t_opt)
    return 1.0 / v_opt, float(t_opt)
