"""Displacement-sensing figures of merit.

The sensed parameter is a small displacement d applied by exp(-i d G(phi))
with generator G(phi) = (a e^{-i phi} + a^dag e^{i phi}) / sqrt(2). For a
measured observable M the inverse sensitivity (method of moments, single
shot) is

    chi^-2[rho, G, M] = |<[G, M]>|^2 / Var[M]

which is bounded by the quantum Fisher information. The vacuum gives
chi^-2 = 2, the reference standard quantum limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import dynamics
from .fock import (
    DimensionMismatchError,
    Operator,
    QuantumState,
    apply_quadrature,
    check_dim,
    converge_dim,
    momentum,
    position,
    quadrature_covariance,
    variance,
)

STANDARD_QUANTUM_LIMIT = 2.0
DEGENERATE_VARIANCE = 1e-14
QFI_EIG_CUTOFF = 1e-12
PINV_RCOND = 1e-10


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


def _basis_products(state: QuantumState, mats: list[np.ndarray]):
    """First moments and pairwise <A B> for Hermitian matrices on one state."""
    k = len(mats)
    if state.is_pure:
        vecs = [m @ state.data for m in mats]
        means = np.array([float(np.vdot(state.data, v).real) for v in vecs])
        prod = np.empty((k, k), dtype=complex)
        for i in range(k):
            for j in range(k):
                prod[i, j] = np.vdot(vecs[i], vecs[j])
    else:
        rho_m = [state.data @ m for m in mats]
        means = np.array([float(np.trace(rm).real) for rm in rho_m])
        prod = np.empty((k, k), dtype=complex)
        for i in range(k):
            for j in range(k):
                prod[i, j] = np.sum(rho_m[i].T * mats[j])
    return means, prod


def commutator_matrix(
    state: QuantumState, basis: MomentBasis, generators: MomentBasis | None = None
) -> np.ndarray:
    """C_ij = -i <[G_i, M_j]> with generators defaulting to (X, P)."""
    g_ops = generators.operators if generators is not None else moment_basis(state.dim, 1).operators
    g_mats = [op.matrix for op in g_ops]
    m_mats = [op.matrix for op in basis.operators]
    c = np.empty((len(g_mats), len(m_mats)))
    if state.is_pure:
        g_vecs = [m @ state.data for m in g_mats]
        m_vecs = [m @ state.data for m in m_mats]
        for i, gv in enumerate(g_vecs):
            for j, mv in enumerate(m_vecs):
                c[i, j] = 2.0 * complex(np.vdot(gv, mv)).imag
    else:
        rho_g = [state.data @ g for g in g_mats]
        for i, rg in enumerate(rho_g):
            for j, m in enumerate(m_mats):
                c[i, j] = 2.0 * complex(np.sum(rg.T * m)).imag
    return c


def covariance_matrix(state: QuantumState, basis: MomentBasis) -> np.ndarray:
    """Symmetrised covariance matrix of the measured observables."""
    mats = [op.matrix for op in basis.operators]
    means, prod = _basis_products(state, mats)
    gamma = prod.real - np.outer(means, means)
    return (gamma + gamma.T) / 2.0


def moment_sensitivity(
    state: QuantumState,
    basis: MomentBasis | int,
    pinv_rcond: float = PINV_RCOND,
) -> SensitivityReport:
    """Method-of-moments chi^-2 optimised over generator direction and
    measurement combination.

    Solves the eigenproblem of C Gamma^+ C^T (2x2); n_opt is the top
    eigenvector, m_opt proportional to Gamma^+ C^T n_opt.
    """
    if isinstance(basis, int):
        basis = moment_basis(state.dim, basis)
    c = commutator_matrix(state, basis)
    gamma = covariance_matrix(state, basis)
    gamma_inv = np.linalg.pinv(gamma, rcond=pinv_rcond, hermitian=True)
    mm = c @ gamma_inv @ c.T
    mm = (mm + mm.T) / 2.0
    evals, evecs = np.linalg.eigh(mm)
    n_opt = evecs[:, 1]
    m_opt = gamma_inv @ c.T @ n_opt
    norm = float(np.linalg.norm(m_opt))
    if norm > 0:
        m_opt = m_opt / norm
    theta = _angle_of(m_opt[:2]) if basis.order == 1 else None
    return SensitivityReport(
        value=float(max(evals[1], 0.0)),
        phi_opt=_angle_of(n_opt),
        theta_opt=theta,
        n_opt=n_opt,
        m_opt=m_opt,
    )


# ---------------------------------------------------------------------------
# measurement-after-interaction (echo) protocol


def _readout_optimum(r: np.ndarray, cov: np.ndarray, sigma2: float) -> SensitivityReport:
    """Best linear readout of an echo with response matrix r.

    r[i, j] = d<M_j>/dd for generator direction i and measured quadrature j
    (both over (X, P)); cov is the quadrature covariance at readout. The value
    max_m |r m|^2 / (m^T cov m + sigma2) over unit m is the top eigenvalue of
    the pencil (r^T r, cov + sigma2 I), and m_opt its eigenvector. The pencil
    is positive definite because V_min V_max >= 1/4.
    """
    evals, evecs = scipy.linalg.eigh(r.T @ r, cov + sigma2 * np.eye(2))
    m_opt = evecs[:, -1] / np.linalg.norm(evecs[:, -1])
    n_opt = r @ m_opt
    norm = float(np.linalg.norm(n_opt))
    n_opt = n_opt / norm if norm > 0 else np.array([1.0, 0.0])
    return SensitivityReport(
        value=float(evals[-1]),
        phi_opt=_angle_of(n_opt),
        theta_opt=_angle_of(m_opt),
        n_opt=n_opt,
        m_opt=m_opt,
    )


def _mai_operator_route(
    psi: np.ndarray,
    p: dynamics.HamiltonianParams,
    reversal_time: float,
    sigma2: float,
) -> SensitivityReport:
    """Lossless echo sensitivity of the prepared ket psi, from the evolved
    measurement U^dag M U with U = exp(+i H reversal_time)."""
    psi_rev = dynamics.propagate(psi, p, -reversal_time)  # state in the reversed frame
    state_rev = QuantumState.from_ket(psi_rev, check_tail=False)

    # r[i, j] = 2 Im <psi| G_i U^dag M_j U |psi> = d<M_j>/dd.
    # The quadratures flip parity, so these kets propagate in the odd sector.
    def quadratures(vec: np.ndarray) -> np.ndarray:
        return np.stack([apply_quadrature(vec, 0.0), apply_quadrature(vec, math.pi / 2.0)], axis=1)

    g_vecs = quadratures(psi)
    m_vecs = dynamics.propagate(quadratures(psi_rev), p, reversal_time)
    r = 2.0 * (g_vecs.conj().T @ m_vecs).imag
    return _readout_optimum(r, quadrature_covariance(state_rev), sigma2)


def _quadrature_means(rho: np.ndarray) -> np.ndarray:
    dim = rho.shape[0]
    sq1 = np.sqrt(np.arange(1, dim, dtype=float))
    ma = complex(np.sum(sq1 * np.diagonal(rho, offset=-1)))
    return np.array([math.sqrt(2.0) * ma.real, math.sqrt(2.0) * ma.imag])


def _mai_derivative_route(
    rho: np.ndarray,
    p: dynamics.HamiltonianParams,
    reversal_time: float,
    loss: dynamics.LossParams,
    sigma2: float,
) -> SensitivityReport:
    """Echo sensitivity of the prepared density matrix rho, lossy or not.

    The derivative of D(d) rho D(d)^dag at d = 0 is -i[G, rho], and the echo
    map is linear, so the columns (rho, -i[X, rho], -i[P, rho]) evolve once
    under -H with the same dissipator: the first gives the readout
    covariance, the other two the exact response d<M_j>/dd.
    """
    dim = rho.shape[0]
    lv_rev = dynamics.liouvillian(dim, p, loss, reverse=True)
    x, p_op = position(dim).matrix, momentum(dim).matrix
    columns = [rho, -1j * (x @ rho - rho @ x), -1j * (p_op @ rho - rho @ p_op)]
    block = np.stack([c.reshape(-1) for c in columns], axis=1)
    evolved = dynamics._lindblad_apply(lv_rev, block, reversal_time)
    rho_rev = evolved[:, 0].reshape(dim, dim)
    rho_rev = (rho_rev + rho_rev.conj().T) / 2.0
    state_rev = QuantumState.from_density_matrix(
        rho_rev / np.trace(rho_rev).real, check_tail=False
    )
    r = np.stack([_quadrature_means(evolved[:, k].reshape(dim, dim)) for k in (1, 2)])
    return _readout_optimum(r, quadrature_covariance(state_rev), sigma2)


def echo_sensitivity(
    state: QuantumState,
    p: dynamics.HamiltonianParams,
    loss: dynamics.LossParams,
    noise: DetectionNoise | None,
    reversal_time: float,
    method: str = "auto",
) -> SensitivityReport:
    """Echo-protocol sensitivity of a prepared state.

    The state is displaced, evolves for reversal_time under -H with the loss
    dissipator, and a linear quadrature is measured. Both routes are exact:
    method "operator" uses the evolved measurement (pure state, lossless
    only), "derivative" the propagated linear response -i[G, rho]; "auto"
    takes the operator route for a pure state without loss.
    """
    if method == "auto":
        method = "operator" if loss.gamma == 0.0 and state.is_pure else "derivative"
    sigma2 = noise.sigma2 if noise is not None else 0.0
    if method == "operator":
        if loss.gamma != 0.0:
            raise ValueError("operator route is only valid for lossless evolution")
        return _mai_operator_route(state.ket, p, reversal_time, sigma2)
    if method == "derivative":
        return _mai_derivative_route(state.density_matrix(), p, reversal_time, loss, sigma2)
    raise ValueError(f"unknown echo method {method!r}")


def mai_sensitivity(
    p: dynamics.HamiltonianParams,
    t: float,
    loss: dynamics.LossParams | None = None,
    noise: DetectionNoise | None = None,
    reversal_time: float | None = None,
    dim: int | None = None,
    method: str = "auto",
) -> SensitivityReport:
    """Echo-protocol sensitivity for the state prepared from the vacuum.

    The state evolves for time t under (p, loss) and then goes through
    echo_sensitivity with reversal_time (default t) and method. dim=None
    converges the Fock dimension.
    """
    loss = loss if loss is not None else dynamics.LossParams(0.0)
    t_rev = reversal_time if reversal_time is not None else t

    def run(d: int) -> SensitivityReport:
        state = dynamics.evolve_vacuum(d, p, loss, t)
        return echo_sensitivity(state, p, loss, noise, t_rev, method)

    if dim is not None:
        return run(check_dim(dim))
    report_holder: dict[int, SensitivityReport] = {}

    def monitored(d: int) -> float:
        rep = run(d)
        report_holder[d] = rep
        return rep.value

    _, used = converge_dim(monitored)
    return report_holder[used]
