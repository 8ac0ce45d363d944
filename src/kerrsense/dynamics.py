"""Dynamics of the driven Kerr oscillator.

Hamiltonian (hbar = 1):

    H = delta * a^dag a + epsilon * (a^dag^2 + a^2) - kerr * a^dag^2 a^2

H changes the photon number by 0 or +-2, so it never mixes the even Fock
levels (0, 2, 4, ...) with the odd ones, and on each of these photon-parity
sectors it is a real symmetric tridiagonal matrix.  Unitary evolution goes
through the exact spectral decomposition of each sector (one call of the
LAPACK tridiagonal eigensolver dstevd, cached and reused across times), in
one kernel (_phased) behind propagate, fock_kets and the V_min slope, for the
even and odd rows of a state separately; the vacuum never leaves the even sector.
Dissipative evolution under the jump operator sqrt(gamma) * a applies exp(L t)
for the vectorised Liouvillian L, which never mixes entries rho_ij of unlike
(i + j) parity: its two half-size sparse blocks are built once per (dim, H,
gamma).  H and a are real, so the echo's -H under the same loss is conj(L), and
the Heisenberg picture's L^T keeps the blocks' enclosure.  A time grid is one
chained pass through its sorted times, each step one Chebyshev series (Tal-Ezer
& Kosloff, J. Chem. Phys. 81, 3967 (1984)) or a few equal substeps of one, with
degree and substep count fixed a priori by the step and the block.

The public evolutions (evolve_unitary, evolve_lindblad, evolve_vacuum) put
their results through fock.check_tail; builders for fock.at_dim use the
unchecked vacuum_states.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dstevd

from .fock import (
    AUTO_DIM_TAIL,
    Operator,
    QuantumState,
    at_dim,
    check_dim,
    check_tail,
    covariance_from_moments,
    ket_ladder_moments,
    ladder_dim,
    normalized_kets,
    quadrature_covariance,
    sparse_annihilation,
    tail_populations,
)

log = logging.getLogger(__name__)

OPTIMUM_GRID_POINTS = 200  # optimal_squeezing's bracketing scan
OPTIMUM_SPLIT = 64  # and the times inside its bracket at each shrink
# Largest growth exponent E of one Chebyshev series of a Lindblad step (see
# _lindblad_apply); a step past it is split into equal substeps.  Round-off
# in the recurrence can be amplified by up to e^E: measured on coherent states
# under Kerr and loss, results stayed within 1e-13 of finely split ones up to
# E ~ 75, and lost 3e-6 to 1e11 at E = 111 to 150 when r_re << r_im.  The
# presets' largest step has E = 41.1, so none of them splits.
SUBSTEP_GROWTH = 48.0


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


def _hamiltonian_bands(dim: int, delta: float, epsilon: float, kerr: float):
    """The nonzero bands of H: <n|H|n> = delta n - kerr n (n - 1) for n < dim,
    and <n|H|n + 2> = epsilon sqrt((n + 1)(n + 2)) for n < dim - 2."""
    n = np.arange(dim, dtype=float)
    return delta * n - kerr * n * (n - 1.0), epsilon * np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))


def hamiltonian(dim: int, p: HamiltonianParams) -> Operator:
    diag, off = _hamiltonian_bands(check_dim(dim), p.delta, p.epsilon, p.kerr)
    return Operator(np.diag(diag + 0j) + np.diag(off, k=2) + np.diag(off, k=-2), hermitian=True)


@lru_cache(maxsize=32)
def _eigensystem(dim: int, delta: float, epsilon: float, kerr: float, parity: int):
    """One sector's eigenpairs from LAPACK dstevd, called directly: the driver
    that scipy.linalg.eigh_tridiagonal picks for all eigenpairs, without its
    per-call argument checks."""
    diag, off = _hamiltonian_bands(dim, delta, epsilon, kerr)
    band = off[parity::2]  # dstevd takes max(n - 1, 1) entries: one for a 1-level sector
    evals, evecs, info = dstevd(diag[parity::2], band if band.size else np.zeros(1))
    if info != 0:
        raise np.linalg.LinAlgError(f"sector eigensolve failed (LAPACK dstevd info {info})")
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


def _phased(evals: np.ndarray, evecs: np.ndarray, re, im, t, out: np.ndarray) -> None:
    """out[:, j] = V exp(-i lambda t_j) (re + i im)[:, j] on a sector's eigenpairs
    (lambda, V), one time per column: one real GEMM V [C re + S im | C im - S re] with
    C, S = cos, sin(lambda t^T); the real re and im broadcast to out's shape."""
    wt = evals[:, None] * t
    cos, sin = np.cos(wt), np.sin(wt)
    half = evecs @ np.concatenate([cos * re + sin * im, cos * im - sin * re], axis=1)
    out.real, out.imag = half[:, : wt.shape[1]], half[:, wt.shape[1] :]


def propagate(x, p: HamiltonianParams, t) -> np.ndarray:
    """exp(-i H t) applied to a ket or to the columns of a (dim, ...) block, at
    one time t or one per column (t broadcasts over x.shape[1:]).  The even and
    odd rows propagate in their own sector (_phased of V^T x); a sector whose
    rows are all zero is skipped, so the vacuum never needs the odd one."""
    x = np.asarray(x, dtype=complex)
    cols = x.reshape(x.shape[0], -1)
    times = np.broadcast_to(np.asarray(t, dtype=float), x.shape[1:]).reshape(-1)
    out = np.zeros_like(cols)
    for parity in (0, 1):
        rows = cols[parity::2]
        if not rows.any():
            continue
        evals, evecs = eigensystem(x.shape[0], p, parity)
        coeffs = evecs.T @ np.concatenate([rows.real, rows.imag], axis=1)
        _phased(evals, evecs, *np.split(coeffs, 2, axis=1), times, out[parity::2])
    return out.reshape(x.shape)


def propagator(dim: int, p: HamiltonianParams, t: float) -> Operator:
    """U(t) = exp(-i H t) built from the spectral decomposition."""
    return Operator(propagate(np.eye(check_dim(dim)), p, t))


def _checked(states: list[QuantumState]) -> list[QuantumState]:
    """The states, after fock.check_tail of their largest tail."""
    check_tail(max(s.tail_population() for s in states))
    return states


def evolve_unitary(state: QuantumState, p: HamiltonianParams, t: float) -> QuantumState:
    """The state with factor U W, U = exp(-i H t), for its factor W; negative t reverses it."""
    w = propagate(state.factor(), p, t)
    if state.is_pure:
        return _checked([QuantumState.from_ket(w)])[0]
    return _checked([QuantumState(w, "mixed")])[0]


# ---------------------------------------------------------------------------
# Lindblad evolution


def liouvillian(dim: int, p: HamiltonianParams, loss: LossParams):
    """Sparse vectorised Liouvillian, row-major convention vec(rho) = rho.reshape(-1).

    Only -i [H, .] has imaginary entries, so the echo step, -H with the
    losses still acting, is its complex conjugate.
    """
    dim = check_dim(dim)
    diag, off = _hamiltonian_bands(dim, p.delta, p.epsilon, p.kerr)
    h = sp.diags([off, diag, off], [-2, 0, 2], format="csr", dtype=complex)
    eye = sp.identity(dim, dtype=complex, format="csr")
    lv = -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
    if loss.gamma > 0.0:
        a = sparse_annihilation(dim)
        n_op = sp.diags(np.arange(dim) + 0j).tocsr()
        lv = lv + loss.gamma * (
            sp.kron(a, a.conj()) - 0.5 * sp.kron(n_op, eye) - 0.5 * sp.kron(eye, n_op)
        )
    return lv.tocsr()


@dataclass(frozen=True)
class LiouvillianBlock:
    """One parity block L of the Liouvillian for the Chebyshev propagator.

    The numerical range of A = L - mu I lies in [-r_re, r_re] x i[-r_im, r_im]
    with r_re, r_im = ||(A +- A^dag)/2||_inf (r_im = 1 if A = 0); mu centres the
    Gershgorin intervals of both parts, as off centre the series would build
    fast-decaying modes from far larger terms.  matrix is X = A / (i r_im); rho is
    the Bernstein parameter of the ellipse, foci +-1, through w = 1 + i r_re / r_im.
    The block of L^T, for the Heisenberg picture, is X^T with the same mu and
    enclosure: both parts are (anti-)Hermitian, so their row and column sums agree.
    """

    matrix: sp.csr_matrix
    shift: complex
    r_re: float
    r_im: float
    rho: float

    @classmethod
    def from_csr(cls, lv: sp.csr_matrix) -> "LiouvillianBlock":
        shift = 0j
        for unit, part in ((1.0, lv + lv.conj().T), (1j, (lv - lv.conj().T) * -1j)):
            d = part.diagonal().real / 2.0
            radius = np.asarray(abs(part).sum(axis=1)).ravel() / 2.0 - abs(d)
            shift += unit * ((d - radius).min() + (d + radius).max()) / 2.0
        a = (lv - shift * sp.identity(lv.shape[0], dtype=complex, format="csr")).tocsr()
        r_re, r_im = (float(abs(a + s * a.conj().T).sum(axis=1).max()) / 2.0 for s in (1, -1))
        r_im = r_im or 1.0
        half_axis = (r_re / r_im + math.hypot(2.0, r_re / r_im)) / 2.0  # (|w - 1| + |w + 1|) / 2
        rho = half_axis + math.sqrt((half_axis - 1.0) * (half_axis + 1.0))
        return cls((a * (-1j / r_im)).tocsr(), shift, r_re, r_im, rho)


def _bessel_j(x: float, n: int, rho: float = 1.0) -> np.ndarray:
    """rho^k J_k(x) for k = 0..n and x > 0: Miller's backward recurrence from well above
    n and x, rescaled against overflow and normalised by J_0 + 2 (J_2 + J_4 + ...) = 1."""
    top = max(n, math.ceil(x))
    g = [0.0] * (top + 16 + math.isqrt(40 * top)) + [1.0, 0.0]
    for k in range(len(g) - 2, 0, -1):
        g[k - 1] = 2.0 * k / (x * rho) * g[k] - g[k + 1] / rho**2
        if abs(g[k - 1]) > 1e250:
            g[k - 1 :] = [v * 1e-250 for v in g[k - 1 :]]
    g = np.array(g[:-1])
    return g[: n + 1] / (2.0 * np.sum(g[::2] * rho ** -np.arange(0.0, g.size, 2.0)) - g[0])


@lru_cache(maxsize=64)
def _chebyshev_coefficients(z: float, rho: float) -> np.ndarray:
    """c_0..c_N of exp(i z w) = J_0(z) + 2 sum_k i^k J_k(z) T_k(w).  On the
    Bernstein ellipse E_rho |T_k| <= rho^k, so by Crouzeix-Palencia, for X with
    numerical range in E_rho, the truncation error is at most 2 (1 + sqrt 2)
    sum_(k>N) |J_k(z)| rho^k; N >= 1 is the smallest degree that keeps it below
    2^-53.  Past M = e z rho / 2 + 64 the terms, at most (z rho / 2)^k / k!,
    fall by e per index and sum below e^-64."""
    scaled = _bessel_j(z, math.ceil(math.e * z * rho / 2.0) + 64, rho)
    tails = np.cumsum(np.abs(scaled[::-1]))[::-1][1:] + math.exp(-64)  # sum_(k>N)
    n = max(1, int(np.argmax(2.0 * (1.0 + math.sqrt(2.0)) * tails <= 2.0**-53)))
    k = np.arange(n + 1.0)
    coeffs = np.where(k, 2.0, 1.0) * 1j ** (k % 4) * scaled[: n + 1] * rho**-k
    coeffs.setflags(write=False)
    return coeffs


def _lindblad_apply(lv: LiouvillianBlock, block: np.ndarray, t: float) -> np.ndarray:
    """Apply exp(L t) = exp(mu t) exp(i r_im t X) to the vectorised operators
    in the columns of block: the Chebyshev series of _chebyshev_coefficients,
    summed along T_(k+1) = 2 X T_k - T_(k-1), over S equal substeps.

    A series for time t has terms up to 2 (1 + sqrt 2) max_k rho^k |J_k(z)|
    times the column, z = t r_im, and by Kapteyn's inequality that maximum is
    at most e^E with E = z (rho - 1/rho) / 2; S is the fewest substeps with
    E / S <= SUBSTEP_GROWTH.  S and the degree depend on t and the block
    alone and no term is tested, so the result is deterministic."""
    growth = t * lv.r_im * (lv.rho - 1.0 / lv.rho) / 2.0
    substeps = max(1, math.ceil(growth / SUBSTEP_GROWTH))
    dt = t / substeps
    coeffs = _chebyshev_coefficients(dt * lv.r_im, lv.rho)
    f = np.array(block, dtype=complex).reshape(block.shape[0], -1)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("lindblad: block %d rows x %d cols, t %r, r_im %.6g, r_re %.6g, N %d, S %d",
                  *f.shape, t, lv.r_im, lv.r_re, coeffs.size - 1, substeps)
    two_x = lv.matrix * 2.0  # exact: (2 X) T_k rounds as 2 (X T_k) does
    for _ in range(substeps):
        prev = f
        cur = 0.5 * (two_x @ prev)
        f = coeffs[0] * prev + coeffs[1] * cur
        for c in coeffs[2:]:
            nxt = two_x @ cur
            nxt -= prev
            f += c * nxt
            prev, cur = cur, nxt
        f *= np.exp(lv.shift * dt)
    return f.reshape(block.shape)


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
    dim: int, p: HamiltonianParams, loss: LossParams
) -> tuple[LiouvillianBlock, LiouvillianBlock]:
    """The (i + j)-even and -odd blocks of liouvillian(...) as LiouvillianBlock.

    H and the jump operator a change i + j by 0 or 2 for every entry
    rho_ij, so these two blocks are all of the Liouvillian.  Cached with
    their shift and enclosure: a time grid, its echo and the echo's
    Heisenberg readouts all propagate with them.
    """
    lv = liouvillian(dim, p, loss)
    return tuple(LiouvillianBlock.from_csr(lv[idx][:, idx]) for idx in _parity_indices(dim))


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
    reverse=True evolves under -H with the same loss: conj(exp(L t) conj(x)).
    The times must be non-decreasing; each step t_k - t_(k-1) is one
    exp(L dt) per parity block, applied only to the columns that are nonzero
    in that block.  Returns an array of shape (len(times),) + block.shape.
    """
    steps = np.diff(np.asarray(times, dtype=float), prepend=0.0)
    if not np.all(steps >= 0.0):  # reverse=True, not a negative time, runs the echo
        raise ValueError(f"times must be >= 0 and non-decreasing, got {list(times)!r}")
    block = np.asarray(block, dtype=complex)
    flat = (block.conj() if reverse else block).reshape(block.shape[0], -1)
    dim = math.isqrt(flat.shape[0])
    if dim * dim != flat.shape[0]:
        raise ValueError(f"block rows must be dim^2 for a dim x dim operator, got {flat.shape[0]}")
    out = np.zeros((len(steps),) + flat.shape, dtype=complex)
    for idx, lv in zip(_parity_indices(dim), liouvillian_blocks(dim, p, loss)):
        lv = replace(lv, matrix=lv.matrix.T.tocsr()) if adjoint else lv
        cols = np.flatnonzero(flat[idx].any(axis=0))
        if cols.size == 0:
            continue
        current = flat[np.ix_(idx, cols)]
        for k, step in enumerate(steps):
            if step > 0.0:
                current = _lindblad_apply(lv, current, float(step))
            out[k][np.ix_(idx, cols)] = current
    return (out.conj() if reverse else out).reshape((len(steps),) + block.shape)


def _lindblad_states(
    state: QuantumState, p: HamiltonianParams, loss: LossParams, times, reverse: bool = False
) -> list[QuantumState]:
    """The state evolved to each of the non-decreasing times in one chained pass."""
    rho0 = state.density_matrix().reshape(-1)
    evolved = lindblad_trajectory(rho0, p, loss, times, reverse=reverse)
    shape = (state.dim, state.dim)
    return [QuantumState.from_density_matrix(vec.reshape(shape)) for vec in evolved]


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
    return _checked(_lindblad_states(state, p, loss, [t], reverse=reverse))[0]


def vacuum_states(
    dim: int, p: HamiltonianParams, loss: LossParams, times
) -> list[QuantumState]:
    """The vacuum evolved to each of the non-decreasing times: kets from one
    even-sector GEMM when gamma = 0, else density matrices from one chained
    Lindblad pass.  No truncation check: evolve_vacuum is the checked form."""
    if loss.gamma > 0.0:
        return _lindblad_states(QuantumState.vacuum(dim), p, loss, times)
    kets = fock_kets(p, times, dim)  # fock_kets has checked them once
    return [QuantumState(kets[:, [j]], "pure") for j in range(kets.shape[1])]


def evolve_vacuum(
    dim: int, p: HamiltonianParams, loss: LossParams, times
) -> list[QuantumState]:
    """vacuum_states, with the largest tail through fock.check_tail."""
    return _checked(vacuum_states(dim, p, loss, times))


# ---------------------------------------------------------------------------
# squeezing figures


def quadrature_extremes(cov: np.ndarray):
    """(V_min, theta_opt, V_max) of one 2x2 (X, P) covariance or a stack of them."""
    evals, evecs = np.linalg.eigh(cov)
    theta = np.arctan2(evecs[..., 1, 0], evecs[..., 0, 0]) % math.pi
    return np.maximum(evals[..., 0], 0.0), theta, evals[..., 1]


def min_variance(state: QuantumState) -> tuple[float, float]:
    """Smallest quadrature variance and its angle.

    Returns (v_min, theta_opt) with theta_opt in [0, pi); v_min is the smaller
    eigenvalue of the 2x2 covariance matrix of (X, P).
    """
    v_min, theta, _ = quadrature_extremes(quadrature_covariance(state))
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


def fock_kets(p: HamiltonianParams, t_grid, dim: int, level: int = 0) -> np.ndarray:
    """exp(-i H t)|level> for every time of t_grid, as the columns of a block;
    level 0 is the vacuum.

    One _phased product in the sector of the level's parity, of the level's
    real eigenbasis components c = V[level // 2]; every column gets the
    checks of from_ket (fock.normalized_kets) and is normalised.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-d array")
    dim = check_dim(dim)
    if not 0 <= level < dim:
        raise ValueError(f"Fock level {level} outside 0..{dim - 1}")
    parity = level % 2
    evals, evecs = eigensystem(dim, p, parity)
    kets = np.zeros((dim, t_grid.size), dtype=complex)
    _phased(evals, evecs, evecs[level // 2][:, None], 0.0, t_grid, kets[parity::2])
    return normalized_kets(kets)


def vacuum_trajectory(p: HamiltonianParams, t_grid, dim: int) -> VacuumTrajectory:
    """Evolve the vacuum to every time of t_grid at once (fock_kets); the
    figures come from vectorised ladder moments."""
    kets = fock_kets(p, t_grid, dim)
    ma, ma2, mn = ket_ladder_moments(kets)
    v_min, theta, v_max = quadrature_extremes(covariance_from_moments(ma, ma2, mn))
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
    """First rung of the dim ladder (fock.converge_dim) for the vacuum evolved
    to time t: the lowest rung (fock.ladder_dim) at or above a physics
    estimate of its support, the estimate capped at 2048.  Even in epsilon,
    as the support is: epsilon -> -epsilon is a pi/2 phase-space rotation."""
    if p.kerr > 0.0:
        # Kerr confinement bounds <n> near (|delta| + 2|epsilon|)/kerr; the
        # ladder's second rung confirms it, so the start need not overshoot
        guess = 16.0 + 2.0 * (abs(p.delta) + 2.0 * abs(p.epsilon)) / p.kerr
    else:
        # Free squeezing to r = 2|epsilon| t: the populations fall off as
        # tanh(r)^n, so start where they reach the ladder's tail guard
        r = min(2.0 * abs(p.epsilon) * abs(t), 4.0)
        guess = 32.0
        if r > 0.0:
            guess = max(guess, math.log(AUTO_DIM_TAIL) / math.log(math.tanh(r)))
    return ladder_dim(min(guess, 2048.0))


def squeezing_trace(
    p: HamiltonianParams,
    t_grid,
    dim: int | None = None,
) -> VacuumTrajectory:
    """Evolve the vacuum and record V_min(t), theta_opt(t) on t_grid.

    dim=None converges the dimension (fock.at_dim, from initial_dim at the
    largest |t|) until the whole V_min trace is stable.  The largest tail of
    the returned trajectory goes through fock.check_tail.
    """
    return at_dim(
        lambda d: vacuum_trajectory(p, t_grid, d),
        lambda tr: tr.v_min,
        lambda tr: float(np.max(tr.tail)),
        dim,
        initial_dim(p, float(np.max(np.abs(t_grid), initial=0.0))),
    )


def _vmin_slope(p: HamiltonianParams, times, dim: int) -> np.ndarray:
    """Exact dV_min/dt of the vacuum at each of the times, all of them > 0.

    The vacuum stays in the even sector, so <a> = 0 and V_min = 1/2 + <n> -
    |<a^2>|.  psi and dpsi/dt = -i H psi are one _phased product of the vacuum's
    components c and -i lambda c, and d<O>/dt = <dpsi|O psi> + <psi|O dpsi>.
    At t = 0 <a^2> = 0 and |<a^2>| has a kink, so that time is left out.
    """
    evals, evecs = eigensystem(dim, p)
    c, psi_cols = evecs[0][:, None], np.repeat([1.0, 0.0], len(times))
    both = np.empty((c.size, psi_cols.size), dtype=complex)
    _phased(evals, evecs, c * psi_cols, -evals[:, None] * c * (1.0 - psi_cols),
            np.tile(times, 2), both)
    psi, dpsi = np.split(both, 2, axis=1)
    n = np.arange(0.0, psi.shape[0] * 2.0, 2.0)[:, None]  # row k is level 2k
    sq2 = np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0))  # <2k| a^2 |2k + 2>
    ma2 = np.sum(sq2 * psi[:-1].conj() * psi[1:], axis=0)
    dma2 = np.sum(sq2 * (dpsi[:-1].conj() * psi[1:] + psi[:-1].conj() * dpsi[1:]), axis=0)
    dmn = 2.0 * np.sum(n * psi.conj() * dpsi, axis=0).real
    return dmn - (ma2.conj() * dma2).real / np.abs(ma2)


def optimal_squeezing(
    p: HamiltonianParams,
    t_max: float | None = None,
    dim: int | None = None,
) -> tuple[float, float]:
    """Locate the first interior minimum of V_min(t) from the vacuum.

    Returns (chi2inv_opt, t_opt) with chi2inv_opt = 1 / V_min(t_opt).  The
    minimum is bracketed on OPTIMUM_GRID_POINTS times in [0, t_max]; the
    bracket is then cut at OPTIMUM_SPLIT even inner times and shrinks to the
    cut where the exact slope (_vmin_slope) first turns >= 0, until it stops
    shrinking in floating point.  Raises NoInteriorMinimumError when the
    scanned window has no interior minimum (kerr = 0: V_min decays
    monotonically).
    """
    if t_max is None:
        if p.kerr <= 0:
            raise NoInteriorMinimumError(
                "kerr = 0 gives monotonically decaying V_min; no interior optimum"
            )
        t_max = 1.0 / p.kerr
    t_grid = np.linspace(0.0, t_max, OPTIMUM_GRID_POINTS)
    trace = squeezing_trace(p, t_grid, dim=dim)
    v = trace.v_min
    minima = np.flatnonzero((v[1:-1] < v[:-2]) & (v[1:-1] <= v[2:]))
    if minima.size == 0:
        raise NoInteriorMinimumError(
            f"V_min has no interior minimum on (0, {t_max}); kerr = {p.kerr}"
        )
    lo, hi = t_grid[minima[0]], t_grid[minima[0] + 2]
    while True:
        ts = np.linspace(lo, hi, OPTIMUM_SPLIT + 2)
        rising = _vmin_slope(p, ts[1:-1], trace.dim) >= 0.0
        k = int(np.argmax(rising)) if rising.any() else ts.size - 2
        if ts[k + 1] - ts[k] >= hi - lo:
            break
        lo, hi = ts[k], ts[k + 1]
    t_opt = (lo + hi) / 2.0
    return 1.0 / float(vacuum_trajectory(p, [t_opt], trace.dim).v_min[0]), float(t_opt)
