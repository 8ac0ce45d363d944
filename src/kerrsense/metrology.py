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
the range of Gamma.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dynamics
from .fock import (
    DimensionMismatchError,
    Operator,
    QuantumState,
    annihilation,
    apply_quadrature,
    check_dim,
    converge_dim,
    covariance_from_moments,
    momentum,
    position,
    quadrature_covariance,
    variance,
)

STANDARD_QUANTUM_LIMIT = 2.0
DEGENERATE_VARIANCE = 1e-14
QFI_EIG_CUTOFF = 1e-12
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
    pi); n_opt and m_opt are the corresponding direction vectors. status is
    always "ok": no figure, the exact echo included, has an unreliable case.
    It stays as the source of the CSV status column.
    """

    value: float
    phi_opt: float | None = None
    theta_opt: float | None = None
    n_opt: np.ndarray | None = None
    m_opt: np.ndarray | None = None
    status: str = "ok"


def _angle_of(vec: np.ndarray) -> float:
    return float(np.arctan2(vec[1], vec[0])) % math.pi


# ---------------------------------------------------------------------------
# direct sensitivity


def _expect_product(state: QuantumState, a: Operator, b: Operator) -> complex:
    if state.is_pure:
        return complex(np.vdot(a.matrix @ state.data, b.matrix @ state.data))
    return complex(np.sum((state.data @ a.matrix).T * b.matrix))


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
    z = _expect_product(state, generator, measurement)
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


def qfi_pure(state: QuantumState, generator: Operator) -> float:
    """F_Q = 4 Var[G] for a pure state."""
    if not state.is_pure:
        raise ValueError("qfi_pure requires a pure state")
    if not generator.is_hermitian:
        raise ValueError("qfi_pure requires a Hermitian generator")
    return 4.0 * variance(state, generator)


def _qfi_spectral_parts(state: QuantumState, eig_cutoff: float):
    lam, vecs = np.linalg.eigh(state.density_matrix())
    lam = np.clip(lam, 0.0, None)
    s = lam[:, None] + lam[None, :]
    d = lam[:, None] - lam[None, :]
    w = np.zeros_like(s)
    mask = s > eig_cutoff
    w[mask] = 2.0 * d[mask] ** 2 / s[mask]
    return w, vecs


def qfi_generator(
    state: QuantumState, generator: Operator, eig_cutoff: float = QFI_EIG_CUTOFF
) -> float:
    """Spectral-decomposition QFI for a fixed generator (pure or mixed)."""
    if not generator.is_hermitian:
        raise ValueError("qfi requires a Hermitian generator")
    w, vecs = _qfi_spectral_parts(state, eig_cutoff)
    g = vecs.conj().T @ generator.matrix @ vecs
    return float(np.sum(w * np.abs(g) ** 2))


def qfi_mixed(state: QuantumState, eig_cutoff: float = QFI_EIG_CUTOFF) -> SensitivityReport:
    """Displacement QFI maximised over the generator direction.

    Diagonalises the 2x2 matrix F_ij built from G_i in {X, P}; reduces to
    4 * max quadrature variance for pure states.
    """
    w, vecs = _qfi_spectral_parts(state, eig_cutoff)
    x_t = vecs.conj().T @ position(state.dim).matrix @ vecs
    p_t = vecs.conj().T @ momentum(state.dim).matrix @ vecs
    f = np.empty((2, 2))
    f[0, 0] = float(np.sum(w * np.abs(x_t) ** 2))
    f[1, 1] = float(np.sum(w * np.abs(p_t) ** 2))
    f[0, 1] = f[1, 0] = float(np.sum(w * (x_t * p_t.conj()).real))
    evals, evecs = np.linalg.eigh(f)
    n_opt = evecs[:, 1]
    return SensitivityReport(
        value=float(evals[1]), phi_opt=_angle_of(n_opt), n_opt=n_opt
    )


def qfi_max(state: QuantumState) -> SensitivityReport:
    """Direction-optimised displacement QFI; fast 4*V_max path for pure states."""
    if state.is_pure:
        gamma = quadrature_covariance(state)
        evals, evecs = np.linalg.eigh(gamma)
        n_opt = evecs[:, 1]
        return SensitivityReport(
            value=4.0 * float(evals[1]), phi_opt=_angle_of(n_opt), n_opt=n_opt
        )
    return qfi_mixed(state)


# ---------------------------------------------------------------------------
# method of moments with nonlinear measured observables


@dataclass(frozen=True)
class MomentBasis:
    """Measured-observable basis of a given polynomial order (1, 2, or 3)."""

    order: int
    operators: tuple[Operator, ...]

    def __len__(self) -> int:
        return len(self.operators)


# basis length per order: the order-k basis is the first entries of order 3
_BASIS_LENGTH = {1: 2, 2: 5, 3: 9}


@lru_cache(maxsize=8)
def _moment_matrices(dim: int) -> tuple[Operator, ...]:
    """The order-3 basis at dim, wrapped once; lower orders are its prefixes."""
    x = position(dim).matrix
    p = momentum(dim).matrix
    xpp = x @ p @ p
    pxp = p @ x @ p
    ppx = p @ p @ x
    pxx = p @ x @ x
    xpx = x @ p @ x
    xxp = x @ x @ p
    mats = [
        x,
        p,
        x @ x,
        p @ p,
        (x @ p + p @ x) / 2.0,
        x @ x @ x,
        p @ p @ p,
        (xpp + pxp + ppx) / 3.0,
        (pxx + xpx + xxp) / 3.0,
    ]
    # products of Hermitians symmetrised exactly
    return tuple(Operator((m + m.conj().T) / 2.0, hermitian=True) for m in mats)


def moment_basis(dim: int, order: int) -> MomentBasis:
    """Basis (X, P | X^2, P^2, sym XP | X^3, P^3, sym XPP, sym PXX) of length 2/5/9."""
    if order not in _BASIS_LENGTH:
        raise ValueError(f"moment basis order must be 1, 2, or 3, got {order!r}")
    ops = _moment_matrices(check_dim(dim))
    return MomentBasis(order=order, operators=ops[: _BASIS_LENGTH[order]])


def moment_matrices(state: QuantumState, basis: MomentBasis) -> tuple[np.ndarray, np.ndarray]:
    """Commutator matrix C and covariance matrix Gamma of the measured basis.

    Both come from one table <M_i M_j>: Gamma is its symmetrised real part
    minus <M_i><M_j>, and since the generators X, P are the first two basis
    entries, C_ij = -i <[G_i, M_j]> = 2 Im <G_i M_j> is its first two rows.
    """
    mats = [op.matrix for op in basis.operators]
    if state.is_pure:
        vecs = np.stack([m @ state.data for m in mats])
        means = (vecs @ state.data.conj()).real
        prod = vecs.conj() @ vecs.T
    else:
        rho_m = [state.data @ m for m in mats]
        means = np.array([np.trace(rm).real for rm in rho_m])
        # Tr[rho M_i M_j] = sum_ab (rho M_i)_ba (M_j)_ab
        flat = np.stack([m.reshape(-1) for m in mats])
        prod = np.stack([rm.T.reshape(-1) for rm in rho_m]) @ flat.T
    gamma = prod.real - np.outer(means, means)
    return 2.0 * prod[:2].imag, (gamma + gamma.T) / 2.0


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
    var = np.diag(gamma)
    keep = var > DEGENERATE_VARIANCE
    s = 1.0 / np.sqrt(var[keep])
    lam, u = np.linalg.eigh(gamma[np.ix_(keep, keep)] * np.outer(s, s))
    in_range = lam > GAMMA_RANGE_RTOL * lam.max(initial=0.0)
    whiten = s[:, None] * (u[:, in_range] / np.sqrt(lam[in_range]))
    b = c[:, keep] @ whiten
    evals, evecs = np.linalg.eigh(b @ b.T)
    n_opt = evecs[:, -1]
    m_opt = np.zeros(len(var))
    m_opt[keep] = whiten @ (b.T @ n_opt)
    norm = float(np.linalg.norm(m_opt))
    if norm > 0:
        m_opt = m_opt / norm
    return SensitivityReport(
        value=float(max(evals[-1], 0.0)),
        phi_opt=_angle_of(n_opt),
        theta_opt=_angle_of(m_opt),
        n_opt=n_opt,
        m_opt=m_opt,
    )


def moment_sensitivity(state: QuantumState, basis: MomentBasis | int) -> SensitivityReport:
    """Method-of-moments chi^-2 optimised over generator direction and
    measurement combination: best_readout of the basis's moment_matrices.
    theta_opt is the measured quadrature's angle, so only order 1 has one.
    """
    if isinstance(basis, int):
        basis = moment_basis(state.dim, basis)
    report = best_readout(*moment_matrices(state, basis))
    if basis.order != 1:
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


def _mai_operator_route(
    psi: np.ndarray,
    p: dynamics.HamiltonianParams,
    reversal_time: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Lossless echo response (r, cov) of the prepared ket psi, from the
    evolved measurement U^dag M U with U = exp(+i H reversal_time)."""
    psi_rev = dynamics.propagate(psi, p, -reversal_time)  # state in the reversed frame
    state_rev = QuantumState.from_ket(psi_rev, check_tail=False)

    # r[i, j] = 2 Im <psi| G_i U^dag M_j U |psi> = d<M_j>/dd.
    # The quadratures flip parity, so these kets propagate in the odd sector.
    def quadratures(vec: np.ndarray) -> np.ndarray:
        return np.stack([apply_quadrature(vec, 0.0), apply_quadrature(vec, math.pi / 2.0)], axis=1)

    g_vecs = quadratures(psi)
    m_vecs = dynamics.propagate(quadratures(psi_rev), p, reversal_time)
    r = 2.0 * (g_vecs.conj().T @ m_vecs).imag
    return r, quadrature_covariance(state_rev)


def _readout_block(dim: int) -> np.ndarray:
    """vec(A^T) of the readouts A = a, a^2, a^dag a, as the columns of a block."""
    a = annihilation(dim).matrix
    return np.stack([m.T.reshape(-1) for m in (a, a @ a, a.conj().T @ a)], axis=1)


def _mai_derivative_route(
    rhos: list[np.ndarray],
    p: dynamics.HamiltonianParams,
    reversal_times: list[float],
    loss: dynamics.LossParams,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Echo responses (r, cov) of prepared density matrices, lossy or not.

    rhos[k] is reversed for reversal_times[k] under -H with the same
    dissipator, a linear map Phi. The derivative of D(d) rho D(d)^dag at
    d = 0 is -i[G, rho], so the response is d<a>/dd = Tr[a Phi(-i[G, rho])].
    Both this and the readout moments are read in the Heisenberg picture,
    Tr[A Phi(C)] = (exp(L_rev^T tau) vec(A^T))^T vec(C): the readouts a, a^2
    and a^dag a evolve backwards once, chained through the sorted distinct
    reversal times, and each state then needs only dim x dim algebra.
    """
    dim = rhos[0].shape[0]
    taus = sorted(set(reversal_times))
    evolved = dynamics.lindblad_trajectory(
        _readout_block(dim), p, loss, taus, reverse=True, adjoint=True
    )
    readouts = dict(zip(taus, evolved))
    x, p_op = position(dim).matrix, momentum(dim).matrix
    responses = []
    for rho, tau in zip(rhos, reversal_times):
        w = readouts[tau]
        ma, ma2, mn = rho.reshape(-1) @ w
        kicks = np.stack([(-1j * (g @ rho - rho @ g)).reshape(-1) for g in (x, p_op)])
        da = kicks @ w[:, 0]
        r = math.sqrt(2.0) * np.stack([da.real, da.imag], axis=1)
        responses.append((r, covariance_from_moments(ma, ma2, mn.real)))
    return responses


def echo_responses(
    states: list[QuantumState],
    p: dynamics.HamiltonianParams,
    loss: dynamics.LossParams,
    reversal_times: list[float],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Echo responses (r, cov) of prepared states, for readout_optimum.

    Each state is displaced, evolves for its reversal time under -H with the
    loss dissipator, and a linear quadrature is measured. Both routes are
    exact: pure states without loss take the evolved measurement
    (_mai_operator_route), everything else the Heisenberg-picture readouts,
    evolved once for all states (_mai_derivative_route).
    """
    if loss.gamma == 0.0 and all(s.is_pure for s in states):
        return [_mai_operator_route(s.ket, p, tau) for s, tau in zip(states, reversal_times)]
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
    result (fock.converge_dim from dynamics.initial_dim at max(t,
    reversal_time)).
    """
    loss = loss if loss is not None else dynamics.LossParams(0.0)
    t_rev = reversal_time if reversal_time is not None else t
    sigma2 = noise.sigma2 if noise is not None else 0.0

    def run(d: int) -> SensitivityReport:
        (state,) = dynamics.evolve_vacuum(d, p, loss, [t])
        ((r, cov),) = echo_responses([state], p, loss, [t_rev])
        return readout_optimum(r, cov, sigma2)

    if dim is not None:
        return run(check_dim(dim))
    start = dynamics.initial_dim(p, max(t, t_rev))
    return converge_dim(run, lambda rep: rep.value, start)[0]
