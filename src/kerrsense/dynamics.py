"""Dynamics of the driven Kerr oscillator.

Hamiltonian (hbar = 1):

    H = delta * a^dag a + epsilon * (a^dag^2 + a^2) - kerr * a^dag^2 a^2

H changes the photon number by 0 or +-2, so it never mixes the even Fock
levels (0, 2, 4, ...) with the odd ones, and on each of these photon-parity
sectors it is a real symmetric tridiagonal matrix.  Unitary evolution goes
through the exact spectral decomposition of each sector (one tridiagonal
eigensolve, cached and reused across times) and propagates the even and odd
rows of a state separately; the vacuum never leaves the even sector.
Dissipative evolution under the single jump operator sqrt(gamma) * a is the
exponential of the vectorised Liouvillian, applied matrix-free.  The
Liouvillian keeps the same symmetry: it never mixes entries rho_ij whose
(i + j) parities differ, so it splits into two half-size blocks, and a time
grid is one chained propagation through its sorted times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import expm_multiply

from .fock import (
    Operator,
    QuantumState,
    TruncationError,
    check_dim,
    converge_dim,
    covariance_from_moments,
    ket_ladder_moments,
    normalized_kets,
    quadrature_covariance,
    tail_populations,
    warn_tail,
)

EVOLUTION_TAIL_ERROR = 1e-3


class NoInteriorMinimumError(RuntimeError):
    """V_min(t) has no interior minimum on the scanned window (e.g. kerr=0)."""


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
def _eigensystem(dim: int, delta: float, epsilon: float, kerr: float, parity: int):
    n = np.arange(parity, dim, 2, dtype=float)
    diag = delta * n - kerr * n * (n - 1.0)
    off = epsilon * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0))
    evals, evecs = eigh_tridiagonal(diag, off)
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def eigensystem(dim: int, p: HamiltonianParams, parity: int = 0):
    """Cached (eigenvalues, real eigenvectors) of H on one photon-parity sector.

    The sector holds the Fock levels parity, parity + 2, ... below dim; row k
    of the eigenvector matrix is level parity + 2k.
    """
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity!r}")
    return _eigensystem(check_dim(dim), p.delta, p.epsilon, p.kerr, parity)


def _real_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for real a and complex b, as one real GEMM on [Re b, Im b]."""
    cols = b.reshape(b.shape[0], -1)
    k = cols.shape[1]
    out = a @ np.concatenate([cols.real, cols.imag], axis=1)
    return (out[:, :k] + 1j * out[:, k:]).reshape((a.shape[0],) + b.shape[1:])


def propagate(x, p: HamiltonianParams, t: float, density: bool = False) -> np.ndarray:
    """exp(-i H t) applied to a ket, to the columns of a (dim, k) block, or,
    with density=True, to a density matrix as U rho U^dag.

    The even and odd rows propagate in their own parity sector; a sector
    whose rows are all zero is skipped, so the vacuum never needs the odd one.
    """
    x = np.asarray(x, dtype=complex)
    if density:  # U rho U^dag = (U (U rho)^dag)^dag
        return propagate(propagate(x, p, t).conj().T, p, t).conj().T
    out = np.zeros_like(x)
    for parity in (0, 1):
        rows = x[parity::2]
        if not rows.any():
            continue
        evals, evecs = eigensystem(x.shape[0], p, parity)
        phases = np.exp(-1j * evals * t).reshape((-1,) + (1,) * (x.ndim - 1))
        out[parity::2] = _real_gemm(evecs, phases * _real_gemm(evecs.T, rows))
    return out


def propagator(dim: int, p: HamiltonianParams, t: float) -> Operator:
    """U(t) = exp(-i H t) built from the spectral decomposition."""
    return Operator(propagate(np.eye(check_dim(dim)), p, t))


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
    if state.is_pure:
        out = QuantumState.from_ket(propagate(state.data, p, t))
    else:
        out = QuantumState.from_density_matrix(propagate(state.data, p, t, density=True))
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


def _lindblad_apply(lv, block: np.ndarray, t: float) -> np.ndarray:
    """Apply exp(L t) to one or more vectorised operators (columns of block)."""
    if t == 0.0:
        return block.copy()
    return expm_multiply(lv * t, block)


@lru_cache(maxsize=4)
def _parity_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in vec(rho) of the entries rho_ij with i + j even, and odd."""
    ij = np.add.outer(np.arange(dim), np.arange(dim)).reshape(-1) % 2
    even, odd = np.flatnonzero(ij == 0), np.flatnonzero(ij == 1)
    even.setflags(write=False)
    odd.setflags(write=False)
    return even, odd


@lru_cache(maxsize=4)
def liouvillian_blocks(
    dim: int,
    p: HamiltonianParams,
    loss: LossParams,
    reverse: bool = False,
    transposed: bool = False,
) -> tuple:
    """The (i + j)-even and -odd blocks of liouvillian(...), or of its transpose.

    H and the jump operator a change i + j by 0 or 2 for every entry
    rho_ij, so these two CSR blocks are all of the Liouvillian.  Cached:
    a time grid and its echo reuse them.
    """
    lv = liouvillian(dim, p, loss, reverse=reverse)
    if transposed:
        lv = lv.T.tocsr()
    return tuple(lv[idx][:, idx].tocsr() for idx in _parity_indices(dim))


def lindblad_trajectory(
    block: np.ndarray,
    p: HamiltonianParams,
    loss: LossParams,
    times,
    reverse: bool = False,
    adjoint: bool = False,
) -> np.ndarray:
    """exp(L t_k) applied to the columns of block at each of the times t_k.

    block holds row-major vec'd dim x dim operators as columns (a 1-d block
    is one column).  adjoint=True uses the transpose of L, i.e. the
    Heisenberg picture: Tr[A exp(L t)(C)] = (exp(L^T t) vec(A^T))^T vec(C).
    The times must be non-decreasing; each step t_k - t_(k-1) is one
    exp(L dt) per parity block, applied only to the columns that are nonzero
    in that block.  Returns an array of shape (len(times),) + block.shape.
    """
    times = [float(t) for t in times]
    if any(t < 0.0 for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError(f"times must be >= 0 and non-decreasing, got {times!r}")
    block = np.asarray(block, dtype=complex)
    flat = block.reshape(block.shape[0], -1)
    dim = math.isqrt(flat.shape[0])
    out = np.zeros((len(times),) + flat.shape, dtype=complex)
    lv_blocks = liouvillian_blocks(dim, p, loss, reverse, adjoint)
    for idx, lv in zip(_parity_indices(dim), lv_blocks):
        cols = np.flatnonzero(flat[idx].any(axis=0))
        if cols.size == 0:
            continue
        current = flat[np.ix_(idx, cols)]
        elapsed = 0.0
        for k, t in enumerate(times):
            if t > elapsed:
                current = _lindblad_apply(lv, current, t - elapsed)
                elapsed = t
            out[k][np.ix_(idx, cols)] = current
    return out.reshape((len(times),) + block.shape)


def evolve_lindblad_grid(
    state: QuantumState,
    p: HamiltonianParams,
    loss: LossParams,
    times,
    reverse: bool = False,
) -> list[QuantumState]:
    """The state evolved to each of the non-decreasing times, in one chained
    pass; every result gets the checks of evolve_lindblad."""
    rho0 = state.density_matrix().reshape(-1)
    evolved = lindblad_trajectory(rho0, p, loss, times, reverse=reverse)
    shape = (state.dim, state.dim)
    return [
        _check_evolution_tail(QuantumState.from_density_matrix(vec.reshape(shape)))
        for vec in evolved
    ]


def evolve_lindblad(
    state: QuantumState,
    p: HamiltonianParams,
    loss: LossParams,
    t: float,
    reverse: bool = False,
) -> QuantumState:
    """Evolve under H (or -H if reverse) with the jump operator sqrt(gamma) a.

    Returns a mixed-kind state; gamma = 0 reproduces the unitary channel.
    """
    if t < 0:
        raise ValueError("Lindblad evolution requires t >= 0; use reverse=True for the echo")
    return evolve_lindblad_grid(state, p, loss, [t], reverse=reverse)[0]


def evolve_vacuum(
    dim: int, p: HamiltonianParams, loss: LossParams, times
) -> list[QuantumState]:
    """The vacuum evolved to each of the non-decreasing times: kets from one
    even-sector GEMM when gamma = 0, else density matrices from one chained
    Lindblad pass.  Every state gets the checks of evolve_unitary or
    evolve_lindblad."""
    if loss.gamma > 0.0:
        return evolve_lindblad_grid(QuantumState.vacuum(dim), p, loss, times)
    kets = vacuum_kets(p, times, dim)
    return [_check_evolution_tail(QuantumState.from_ket(ket)) for ket in kets.T]


# ---------------------------------------------------------------------------
# squeezing figures


def _quadrature_extremes(cov: np.ndarray):
    """(V_min, theta_opt, V_max) of one 2x2 (X, P) covariance or a stack of them."""
    evals, evecs = np.linalg.eigh(cov)
    theta = np.arctan2(evecs[..., 1, 0], evecs[..., 0, 0]) % math.pi
    return np.maximum(evals[..., 0], 0.0), theta, evals[..., 1]


def min_variance(state: QuantumState) -> tuple[float, float]:
    """Smallest quadrature variance and its angle.

    Returns (v_min, theta_opt) with theta_opt in [0, pi); v_min is the smaller
    eigenvalue of the 2x2 covariance matrix of (X, P).
    """
    v_min, theta, _ = _quadrature_extremes(quadrature_covariance(state))
    return float(v_min), float(theta)


@dataclass
class VacuumTrajectory:
    """The vacuum evolved under H along a time grid, with its squeezing figures.

    kets[:, i] is exp(-i H t_i)|0> (zero on the odd levels); n_mean is
    <a^dag a>, v_min and theta_opt the smallest quadrature variance and its
    angle in [0, pi), f_q = 4 V_max the direction-optimised displacement QFI,
    and tail the population of the top TAIL_FRACTION of levels.
    """

    times: np.ndarray
    kets: np.ndarray
    n_mean: np.ndarray
    v_min: np.ndarray
    theta_opt: np.ndarray
    f_q: np.ndarray
    tail: np.ndarray
    dim: int


def vacuum_kets(p: HamiltonianParams, t_grid, dim: int) -> np.ndarray:
    """exp(-i H t)|0> for every time of t_grid, as the columns of a block.

    One real GEMM in the even sector, V (cos(w t^T) c0 | -sin(w t^T) c0)
    with c0 = V[0] the vacuum's eigenbasis components; every column gets the
    checks of from_ket and is normalised.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-d array")
    dim = check_dim(dim)
    evals, evecs = eigensystem(dim, p)
    wt = np.outer(evals, t_grid)
    c0 = evecs[0][:, None]
    half = evecs @ np.concatenate([np.cos(wt) * c0, -np.sin(wt) * c0], axis=1)
    kets = np.zeros((dim, t_grid.size), dtype=complex)
    kets[0::2] = half[:, : t_grid.size] + 1j * half[:, t_grid.size :]
    return normalized_kets(kets)


def vacuum_trajectory(p: HamiltonianParams, t_grid, dim: int) -> VacuumTrajectory:
    """Evolve the vacuum to every time of t_grid at once (vacuum_kets); the
    figures come from vectorised ladder moments."""
    kets = vacuum_kets(p, t_grid, dim)
    ma, ma2, mn = ket_ladder_moments(kets)
    v_min, theta, v_max = _quadrature_extremes(covariance_from_moments(ma, ma2, mn))
    return VacuumTrajectory(
        times=np.asarray(t_grid, dtype=float),
        kets=kets,
        n_mean=mn,
        v_min=v_min,
        theta_opt=theta,
        f_q=4.0 * v_max,
        tail=tail_populations(np.abs(kets) ** 2),
        dim=kets.shape[0],
    )


def initial_dim(p: HamiltonianParams, t: float) -> int:
    """Start of the doubling search (fock.converge_dim) for the vacuum evolved
    to time t: a physics estimate of its support, rounded up to a multiple of
    16 in [32, 2048]."""
    if p.kerr > 0.0:
        # Kerr confinement bounds <n> near (|delta| + 2 epsilon)/kerr.
        guess = 32.0 + 4.0 * (abs(p.delta) + 2.0 * p.epsilon) / p.kerr
    else:
        # Free squeezing: <n> = sinh^2(2 epsilon t).
        r = 2.0 * abs(p.epsilon) * t
        guess = 32.0 + 8.0 * math.sinh(min(r, 4.0)) ** 2
    return int(min(max(32, 16 * math.ceil(guess / 16.0)), 2048))


def squeezing_trace(
    p: HamiltonianParams,
    t_grid,
    dim: int | None = None,
) -> VacuumTrajectory:
    """Evolve the vacuum and record V_min(t), theta_opt(t) on t_grid.

    dim=None converges the dimension (fock.converge_dim, from initial_dim at
    the largest |t|) until the whole V_min trace is stable.  Warns
    (TruncationWarning) when a ket of the returned trajectory holds more than
    TAIL_THRESHOLD in its top levels.
    """
    if dim is None:
        start = initial_dim(p, float(np.max(np.abs(t_grid), initial=0.0)))
        trajectory, _ = converge_dim(
            lambda d: vacuum_trajectory(p, t_grid, d), lambda tr: tr.v_min, start
        )
    else:
        trajectory = vacuum_trajectory(p, t_grid, dim)
    warn_tail(float(np.max(trajectory.tail)), stacklevel=2)
    return trajectory


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

    def vmin_at(t: float) -> float:
        return float(vacuum_trajectory(p, [t], trace.dim).v_min[0])

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
