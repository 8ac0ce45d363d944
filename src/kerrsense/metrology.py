"""Displacement-sensing figures of merit.

The sensed parameter is a small displacement d applied by exp(-i d G(phi))
with generator G(phi) = (a e^{-i phi} + a^dag e^{i phi}) / sqrt(2). For a
measured observable M the inverse sensitivity (method of moments, single
shot) is

    chi^-2[rho, G, M] = |<[G, M]>|^2 / Var[M]

which is bounded by the quantum Fisher information. The vacuum gives
chi^-2 = 2, the reference standard quantum limit.

Optimising over a measured combination m of observables M_j turns this into
a Rayleigh quotient |c m|^2 / (m^T Gamma m) with response c and covariance
Gamma. The method of moments (observables of polynomial order k) and the
echo (quadratures after the reversal) are both this quotient, and both are
solved by best_readout as the top eigenpair of the pencil (c^T c, Gamma) on
the range of Gamma. Its two eigenproblems call LAPACK dsyevd directly
(_eigh): the routine behind np.linalg.eigh, without numpy's dispatch. The QFI
reads the state's factor too (_qfi_matrix, the support-only formula), so
no figure here decomposes a density matrix.

Without loss the echo is perfect: the state psi = U_t|0> prepared for time t
and reversed for the same time returns to |0> exactly, so the readout
covariance is I/2 and the response to a kick along G_i is the overlap
z_i = <G_i psi|U_t|1> (a Loschmidt echo), with U_t|1> for all of a group's
times from one GEMM in the odd parity sector. Under loss the readouts evolve
backwards once in the Heisenberg picture instead.

The moment basis of order 3 (X, P, their three quadratic and four cubic
symmetrised products) is built once per dim as one sparse CSR stack of nine
dim x dim blocks, from products of the sparse ladder; the order-1 and
order-2 bases are its leading blocks. A state enters, here as in fock,
through its one entry QuantumState.factor, a square-root factor W with
rho = W W^dag (a ket is one column; a density matrix gives V sqrt(lambda),
made once by QuantumState.from_density_matrix), so every <M_i M_j> table is
one sparse product of W with the stack's leading blocks (a cached row slice
per order) followed by a small Gram matrix, for pure and mixed states
alike. The QFI and the echo's kicks -i[G, rho] take X and P from the same
stack. A basis is selected by its order alone; moment_basis densifies the
leading blocks, uncached, for callers that want Operators, and no figure
calls it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dsyevd

from . import dynamics, fock
from .fock import (
    DimensionMismatchError,
    Operator,
    QuantumState,
    at_dim,
    check_dim,
    covariance_from_moments,
    ket_ladder_moments,
    sparse_annihilation,
    variance,
)

STANDARD_QUANTUM_LIMIT = 2.0
DEGENERATE_VARIANCE = 1e-14
GAMMA_RANGE_RTOL = 1e-13


class DegenerateMeasurementError(ValueError):
    """Measurement variance too small for a meaningful sensitivity ratio."""


@dataclass(frozen=True)
class DetectionNoise:
    """Gaussian detection noise of variance sigma2 added to the measurement."""

    sigma2: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.sigma2) or self.sigma2 < 0:
            raise ValueError(f"sigma2 must be finite and >= 0, got {self.sigma2!r}")


@dataclass
class SensitivityReport:
    """Optimised figure of merit with the angles/directions that achieve it.

    phi_opt is the generator angle, theta_opt the measurement angle (both mod
    pi); n_opt and m_opt are the corresponding direction vectors.
    """

    value: float
    phi_opt: float | None = None
    theta_opt: float | None = None
    n_opt: np.ndarray | None = None
    m_opt: np.ndarray | None = None


def _angle_of(vec: np.ndarray) -> float:
    return math.atan2(vec[1], vec[0]) % math.pi


# ---------------------------------------------------------------------------
# direct sensitivity


def sensitivity(
    state: QuantumState,
    generator: Operator,
    measurement: Operator,
    noise: DetectionNoise | None = None,
) -> float:
    """chi^-2 = |<[G, M]>|^2 / (Var[M] + sigma2) for Hermitian G, M."""
    if state.dim != generator.dim or state.dim != measurement.dim:
        raise DimensionMismatchError("state, generator, and measurement dims must agree")
    if not generator.is_hermitian or not measurement.is_hermitian:
        raise ValueError("sensitivity requires Hermitian generator and measurement")
    var = variance(state, measurement)
    sigma2 = noise.sigma2 if noise is not None else 0.0
    if var + sigma2 <= DEGENERATE_VARIANCE:
        raise DegenerateMeasurementError(
            f"measurement variance {var:.3e} is degenerate (<= {DEGENERATE_VARIANCE})"
        )
    # <[G, M]> = z - conj(z) with z = <G M>
    z = fock._expect_product(state.factor(), generator, measurement)
    numerator = 4.0 * z.imag**2
    return numerator / (var + sigma2)


def linear_sensitivity(state: QuantumState) -> SensitivityReport:
    """Best chi^-2 over linear quadrature measurements: 1 / V_min."""
    return noisy_linear_sensitivity(state, DetectionNoise(0.0))


def noisy_linear_sensitivity(state: QuantumState, noise: DetectionNoise) -> SensitivityReport:
    """Best chi^-2 over linear quadratures with detection noise: 1/(V_min + sigma2).

    The optimal measurement angle minimises the quadrature variance and the
    optimal generator is rotated pi/2 from it.
    """
    v_min, theta = dynamics.min_variance(state)
    phi = (theta + math.pi / 2.0) % math.pi
    return SensitivityReport(
        value=1.0 / (v_min + noise.sigma2),
        phi_opt=phi,
        theta_opt=theta,
        n_opt=np.array([math.cos(phi), math.sin(phi)]),
        m_opt=np.array([math.cos(theta), math.sin(theta)]),
    )


# ---------------------------------------------------------------------------
# quantum Fisher information


def _qfi_matrix(w: np.ndarray, gw: np.ndarray) -> np.ndarray:
    """QFI matrix F_ij of the generators G_i from the state's factor W, whose
    orthogonal columns w_k span the support of rho with weights lam_k = |w_k|^2,
    and the products gw[i] = G_i W, shape (n, dim, columns).

    Support-only form (Liu et al., J. Phys. A 53, 023001 (2020)): with
    A_i = W^dag G_i W, F_ij = 4 Re Tr[(G_i W)^dag (G_j W)]
    - 8 Re sum_kl A_i,kl conj(A_j,kl) / (lam_k + lam_l); the kernel of rho
    enters the first term by completeness, so no eigenvalue is cut.  One
    column (a ket) gives 4 Cov[G_i, G_j].
    """
    n = gw.shape[0]
    lam = np.sum(np.abs(w) ** 2, axis=0)
    a = (w.conj().T @ gw).reshape(n, -1)
    flat = gw.reshape(n, -1)
    weighted = a / (lam[:, None] + lam).reshape(-1)
    return 4.0 * (flat.conj() @ flat.T).real - 8.0 * (weighted @ a.conj().T).real


def qfi_generator(state: QuantumState, generator: Operator) -> float:
    """QFI of a fixed Hermitian generator, pure or mixed (4 Var[G] on a ket)."""
    if not generator.is_hermitian:
        raise ValueError("qfi requires a Hermitian generator")
    w = state.factor()
    return float(_qfi_matrix(w, (generator.matrix @ w)[None])[0, 0])


def qfi_max(state: QuantumState) -> SensitivityReport:
    """Displacement QFI maximised over the generator direction: the top
    eigenpair of the 2x2 QFI matrix of G_i in {X, P} (4 V_max on a ket)."""
    w = state.factor()
    evals, evecs = np.linalg.eigh(_qfi_matrix(w, _basis_products(w, 2)))
    n_opt = evecs[:, 1]
    return SensitivityReport(
        value=float(evals[1]), phi_opt=_angle_of(n_opt), n_opt=n_opt
    )


# ---------------------------------------------------------------------------
# method of moments with nonlinear measured observables


# basis length per order: the order-k basis is the first entries of order 3
_BASIS_LENGTH = {1: 2, 2: 5, 3: 9}


def _basis_length(order: int) -> int:
    if order not in _BASIS_LENGTH:
        raise ValueError(f"moment basis order must be 1, 2, or 3, got {order!r}")
    return _BASIS_LENGTH[order]


@lru_cache(maxsize=32)
def _moment_matrices(dim: int) -> sp.csr_matrix:
    """The order-3 basis at dim as one read-only (9 dim, dim) CSR stack whose
    row block k is basis operator k; lower orders are its leading blocks."""
    a = sparse_annihilation(dim)
    a_dag = a.conj().T
    x = (a + a_dag) / math.sqrt(2.0)
    p = -1j * (a - a_dag) / math.sqrt(2.0)
    xx, pp, xp, px = x @ x, p @ p, x @ p, p @ x
    mats = [
        x,
        p,
        xx,
        pp,
        (xp + px) / 2.0,
        xx @ x,
        pp @ p,
        (xp @ p + px @ p + pp @ x) / 3.0,
        (px @ x + xp @ x + xx @ p) / 3.0,
    ]
    # products of Hermitians symmetrised exactly
    stack = sp.vstack([(m + m.conj().T) / 2.0 for m in mats], format="csr")
    for arr in (stack.data, stack.indices, stack.indptr):
        arr.setflags(write=False)
    return stack


@lru_cache(maxsize=32)
def _leading_blocks(dim: int, count: int) -> sp.csr_matrix:
    """The first count row blocks of _moment_matrices(dim), read-only."""
    stack = _moment_matrices(dim)[: count * dim]
    for arr in (stack.data, stack.indices, stack.indptr):
        arr.setflags(write=False)
    return stack


def _basis_products(w: np.ndarray, count: int) -> np.ndarray:
    """M_k w for the first count basis operators, shape (count, dim, w columns),
    from one sparse product with only those count blocks of the stack."""
    dim = w.shape[0]
    return (_leading_blocks(dim, count) @ w).reshape(count, dim, -1)


def moment_basis(dim: int, order: int) -> tuple[Operator, ...]:
    """Basis (X, P | X^2, P^2, sym XP | X^3, P^3, sym XPP, sym PXX) of length
    2/5/9, as dense Operators; the figures use the sparse stack instead."""
    count = _basis_length(order)
    blocks = _leading_blocks(check_dim(dim), count).toarray()
    return tuple(Operator(b, hermitian=True) for b in blocks.reshape(count, dim, dim))


def moment_matrices(state: QuantumState, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Commutator matrix C and covariance matrix Gamma of the measured basis
    of this order (1, 2 or 3; anything else raises ValueError).

    Both come from one table <M_i M_j> = Tr[(M_i W)^dag (M_j W)] for the
    square-root factor W of the state, whose products M_k W are one sparse
    product with the stack: Gamma is its symmetrised real part minus
    <M_i><M_j>, and since the generators X, P are the first two basis
    entries, C_ij = -i <[G_i, M_j]> = 2 Im <G_i M_j> is its first two rows.
    """
    count = _basis_length(order)
    w = state.factor()
    mw = _basis_products(w, count).reshape(count, -1)
    means = (mw @ w.conj().reshape(-1)).real
    prod = mw.conj() @ mw.T
    gamma = prod.real - means[:, None] * means
    return 2.0 * prod[:2].imag, (gamma + gamma.T) / 2.0


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(a) of one real symmetric matrix, from LAPACK dsyevd on
    its lower triangle, called directly: the driver numpy calls, without its
    per-call dispatch."""
    lam, u, info = dsyevd(a, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"symmetric eigensolve failed (LAPACK dsyevd info {info})")
    return lam, u


def best_readout(c: np.ndarray, gamma: np.ndarray) -> SensitivityReport:
    """Best generator direction and measurement combination for response c.

    c[i, j] = d<M_j>/dd for generator direction i in (X, P) and measured
    observable M_j; gamma is the covariance of the M_j (plus any detection
    noise). The value max |c m|^2 / (m^T gamma m) is the top eigenvalue of
    the pencil (c^T c, gamma), solved on the range of gamma: entries whose
    variance is at round-off (DEGENERATE_VARIANCE) are dropped, the rest are
    equilibrated to unit variance, and directions whose equilibrated
    variance is below GAMMA_RANGE_RTOL of the largest are left out. n_opt is
    the top eigenvector of c gamma^+ c^T and m_opt is proportional to
    gamma^+ c^T n_opt.
    """
    var = gamma.diagonal()
    keep = var > DEGENERATE_VARIANCE
    if not keep.all():  # else gamma and c enter as they are, uncopied
        var, gamma, c = var[keep], gamma[keep][:, keep], c[:, keep]
    s = 1.0 / np.sqrt(var)
    lam, u = _eigh(gamma * (s[:, None] * s))
    in_range = lam > GAMMA_RANGE_RTOL * lam.max(initial=0.0)
    if not in_range.all():
        lam, u = lam[in_range], u[:, in_range]
    whiten = s[:, None] * (u / np.sqrt(lam))
    b = c @ whiten
    evals, evecs = _eigh(b @ b.T)
    n_opt = evecs[:, 1]
    m_opt = np.zeros(keep.size)
    m_opt[keep] = whiten @ (b.T @ n_opt)
    norm = math.sqrt(m_opt @ m_opt)
    if norm > 0:
        m_opt = m_opt / norm
    return SensitivityReport(
        value=max(float(evals[1]), 0.0),
        phi_opt=_angle_of(n_opt),
        theta_opt=_angle_of(m_opt),
        n_opt=n_opt,
        m_opt=m_opt,
    )


def moment_sensitivity(
    state: QuantumState,
    order: int,
    moments: tuple[np.ndarray, np.ndarray] | None = None,
) -> SensitivityReport:
    """Method-of-moments chi^-2 optimised over generator direction and
    measurement combination: best_readout of the moment_matrices of this
    order (1, 2 or 3). theta_opt is the measured quadrature's angle, so only
    order 1 has one.

    moments, the state's moment_matrices of this order or a higher one, saves
    building them: a lower-order basis is the leading entries of a higher
    one, so its C and Gamma are their leading blocks. A table of a lower
    order raises ValueError.
    """
    n = _basis_length(order)
    c, gamma = moments if moments is not None else moment_matrices(state, order)
    if c.shape[1] < n:
        raise ValueError(f"order {order} needs {n} moment columns, got {c.shape[1]}")
    report = best_readout(c[:, :n], gamma[:n, :n])
    if order != 1:
        report.theta_opt = None
    return report


# ---------------------------------------------------------------------------
# measurement-after-interaction (echo) protocol


def readout_optimum(r: np.ndarray, cov: np.ndarray, sigma2: float) -> SensitivityReport:
    """Best linear readout of an echo with response matrix r.

    r[i, j] = d<M_j>/dd for generator direction i and measured quadrature j
    (both over (X, P)); cov is the quadrature covariance at readout. The value
    max_m |r m|^2 / (m^T cov m + sigma2) over unit m is best_readout of
    (r, cov + sigma2 I), the same pencil as the method of moments, and
    theta_opt is the angle of m_opt.
    """
    return best_readout(r, cov + sigma2 * np.eye(2))


# M_j|0> = c_j |1> for the measured quadratures M_j = X, P
_VACUUM_KICKS = np.array([1.0, 1j]) / math.sqrt(2.0)


def _mai_operator_route(
    kets: np.ndarray,
    p: dynamics.HamiltonianParams,
    times: list[float],
    reversal_times: list[float],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Lossless echo responses (r, cov) of the prepared kets psi = U_t|0>,
    U_t = exp(-i H t), the columns of kets, one per time.

    Reversed for tau, psi becomes phi = U_tau^dag psi = U_(t - tau)|0>, whose
    quadrature covariance is the readout's, and the kick exp(-i d G_i) moves
    the readout of M_j by r[i, j] d with r[i, j] = i <[G_i, U_tau M_j
    U_tau^dag]> = -2 Im <G_i psi|U_tau M_j phi>.  The echo of a row's own
    time is perfect, phi = |0>: cov = I/2 and, as M_j|0> = c_j|1>,
    r = -sqrt(2) [[Im z_X, Re z_X], [Im z_P, Re z_P]] with the overlaps
    z_i = <G_i psi|U_t|1>, where U_t|1> for every time is one GEMM in the odd
    sector (dynamics.fock_kets) and psi is never propagated back.  Any other
    reversal time takes phi from dynamics.fock_kets at t - tau, and one
    dynamics.propagate call moves every M_j phi by its own tau.
    """
    dim = kets.shape[0]
    shifts = np.asarray(times, dtype=float) - np.asarray(reversal_times, dtype=float)
    if not shifts.any():  # phi = |0>
        ones = dynamics.fock_kets(p, reversal_times, dim, level=1)
        echoed = ones[:, None] * _VACUUM_KICKS[:, None]
        covs = np.broadcast_to(np.eye(2) / 2.0, (len(shifts), 2, 2))
    else:
        phi = dynamics.fock_kets(p, shifts, dim)
        kicked = _basis_products(phi, 2)  # (X phi, P phi)
        echoed = dynamics.propagate(kicked.transpose(1, 0, 2), p, reversal_times)
        covs = covariance_from_moments(*ket_ladder_moments(phi))
    # r[k, i, j] = -2 Im <G_i psi_k|echoed[:, j, k]>
    g_psi = _basis_products(kets, 2).transpose(2, 0, 1)
    r = -2.0 * (g_psi.conj() @ echoed.transpose(2, 0, 1)).imag
    return list(zip(r, covs))


def _readout_block(dim: int) -> np.ndarray:
    """vec(A^T) of the readouts A = a, a^2, a^dag a, as the columns of a block."""
    a = sparse_annihilation(dim)
    return np.stack([m.T.toarray().reshape(-1) for m in (a, a @ a, a.conj().T @ a)], axis=1)


def _mai_derivative_route(
    rhos: list[np.ndarray],
    p: dynamics.HamiltonianParams,
    reversal_times: list[float],
    loss: dynamics.LossParams,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Echo responses (r, cov) of prepared density matrices, lossy or not.

    rhos[k] is reversed for reversal_times[k] under -H with the same dissipator,
    a linear map Phi = exp(conj(L) tau). The derivative of D(d) rho D(d)^dag at
    d = 0 is -i[G, rho], so the response is d<a>/dd = Tr[a Phi(-i[G, rho])].
    Both this and the readout moments are read in the Heisenberg picture,
    Tr[A Phi(C)] = (exp(conj(L)^T tau) vec(A^T))^T vec(C): the readouts a, a^2
    and a^dag a evolve backwards once, chained through the sorted distinct
    reversal times, and each state then needs only dim x dim algebra.
    """
    dim = rhos[0].shape[0]
    taus = sorted(set(reversal_times))
    evolved = dynamics.lindblad_trajectory(
        _readout_block(dim), p, loss, taus, reverse=True, adjoint=True
    )
    readouts = dict(zip(taus, evolved))
    responses = []
    for rho, tau in zip(rhos, reversal_times):
        w = readouts[tau]
        ma, ma2, mn = rho.reshape(-1) @ w
        g_rho = _basis_products(rho, 2)  # G rho for G = X, P; rho G = (G rho)^dag
        kicks = -1j * (g_rho - g_rho.conj().transpose(0, 2, 1))
        da = kicks.reshape(2, -1) @ w[:, 0]
        r = math.sqrt(2.0) * np.stack([da.real, da.imag], axis=1)
        responses.append((r, covariance_from_moments(ma, ma2, mn.real)))
    return responses


def echo_responses(
    states: list[QuantumState],
    p: dynamics.HamiltonianParams,
    loss: dynamics.LossParams,
    times: list[float],
    reversal_times: list[float] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Echo responses (r, cov) of the vacuum evolved to times under (p, loss),
    the states, for readout_optimum.

    Each state is displaced, evolves for its reversal time (default: its own
    time) under -H with the loss dissipator, and a linear quadrature is
    measured. Both routes are exact: pure states without loss take the
    perfect-echo overlaps (_mai_operator_route), everything else the
    Heisenberg-picture readouts, evolved once for all states
    (_mai_derivative_route). times and reversal_times need one entry per
    state, else ValueError.
    """
    reversal_times = times if reversal_times is None else reversal_times
    if not len(states) == len(times) == len(reversal_times):
        raise ValueError(
            f"{len(states)} states, {len(times)} times and {len(reversal_times)} "
            "reversal times do not match"
        )
    if loss.gamma == 0.0 and all(s.is_pure for s in states):
        kets = np.stack([s.ket for s in states], axis=1)
        return _mai_operator_route(kets, p, times, reversal_times)
    rhos = [s.density_matrix() for s in states]
    return _mai_derivative_route(rhos, p, reversal_times, loss)


def mai_sensitivity(
    p: dynamics.HamiltonianParams,
    t: float,
    loss: dynamics.LossParams | None = None,
    noise: DetectionNoise | None = None,
    reversal_time: float | None = None,
    dim: int | None = None,
) -> SensitivityReport:
    """Echo-protocol sensitivity for the state prepared from the vacuum.

    The state evolves for time t under (p, loss) and then goes through
    echo_responses with reversal_time (default t). dim=None converges the
    Fock dimension on the echo figure, by the one policy of every auto-dim
    result (fock.at_dim from dynamics.initial_dim at max(t, reversal_time));
    the prepared state's tail goes through fock.check_tail.
    """
    loss = loss if loss is not None else dynamics.LossParams(0.0)
    t_rev = reversal_time if reversal_time is not None else t
    sigma2 = noise.sigma2 if noise is not None else 0.0

    def run(d: int) -> tuple[SensitivityReport, float]:
        (state,) = dynamics.vacuum_states(d, p, loss, [t])
        ((r, cov),) = echo_responses([state], p, loss, [t], [t_rev])
        return readout_optimum(r, cov, sigma2), state.tail_population()

    start = dynamics.initial_dim(p, max(t, t_rev))
    return at_dim(run, lambda out: out[0].value, lambda out: out[1], dim, start)[0]
