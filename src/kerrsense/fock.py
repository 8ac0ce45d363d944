"""Truncated Fock-space operators, states, and moments.

Everything lives on the number basis |0>, ..., |dim-1> as dense complex
matrices. Quadrature convention: X = (a + a^dag)/sqrt(2) and
P = -i(a - a^dag)/sqrt(2), so [X, P] = i away from the truncation edge and
the vacuum has Var[X] = 1/2.
"""
from __future__ import annotations

import cmath
import logging
import math
import warnings
from functools import lru_cache
from typing import Callable, TypeVar

import numpy as np
from scipy.linalg import expm

HERMITIAN_TOL = 1e-12
PURE_NORM_TOL = 1e-9
TRACE_TOL = 1e-9
EIG_FLOOR = -1e-9
TAIL_FRACTION = 0.05
TAIL_THRESHOLD = 1e-8
VARIANCE_FLOOR = -1e-10
# Every auto-dim result (converge_dim) is stable to this under a dim doubling;
# well inside the 1e-5 the results are documented to hold at.
AUTO_DIM_RTOL = 1e-7

T = TypeVar("T")

log = logging.getLogger(__name__)


class DimensionMismatchError(ValueError):
    """Operands defined on different Fock-space dimensions."""


class TruncationWarning(UserWarning):
    """State carries non-negligible population near the truncation edge."""


class TruncationError(RuntimeError):
    """Truncation-edge population too large for the result to be trusted."""


def check_dim(dim: int) -> int:
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"Fock dimension must be an integer >= 2, got {dim!r}")
    return int(dim)


def _require_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


class Operator:
    """Dense operator on a truncated Fock space.

    The wrapped matrix is read-only. ``hermitian=True`` asserts Hermiticity,
    which is verified to HERMITIAN_TOL at construction.
    """

    __slots__ = ("matrix", "dim", "_hermitian")

    def __init__(self, matrix, hermitian: bool | None = None):
        mat = np.array(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        check_dim(mat.shape[0])
        if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
            raise ValueError("operator matrix has non-finite entries")
        if hermitian:
            err = float(np.max(np.abs(mat - mat.conj().T)))
            if err > HERMITIAN_TOL:
                raise ValueError(f"matrix asserted Hermitian but deviates by {err:.3e}")
        mat.setflags(write=False)
        self.matrix = mat
        self.dim = mat.shape[0]
        self._hermitian = bool(hermitian) if hermitian is not None else None

    @property
    def is_hermitian(self) -> bool:
        if self._hermitian is None:
            err = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
            self._hermitian = err <= HERMITIAN_TOL
        return self._hermitian

    def dagger(self) -> "Operator":
        return Operator(self.matrix.conj().T, hermitian=self._hermitian)

    def __add__(self, other: "Operator") -> "Operator":
        _require_same_dim(self, other)
        herm = True if (self._hermitian and other._hermitian) else None
        return Operator(self.matrix + other.matrix, hermitian=herm)

    def __sub__(self, other: "Operator") -> "Operator":
        _require_same_dim(self, other)
        herm = True if (self._hermitian and other._hermitian) else None
        return Operator(self.matrix - other.matrix, hermitian=herm)

    def __neg__(self) -> "Operator":
        return Operator(-self.matrix, hermitian=self._hermitian)

    def __mul__(self, scalar) -> "Operator":
        scalar = complex(scalar)
        herm = True if (self._hermitian and scalar.imag == 0.0) else None
        return Operator(self.matrix * scalar, hermitian=herm)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        _require_same_dim(self, other)
        return Operator(self.matrix @ other.matrix)

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim}, hermitian={self._hermitian})"


def commutator(a: Operator, b: Operator) -> Operator:
    _require_same_dim(a, b)
    return Operator(a.matrix @ b.matrix - b.matrix @ a.matrix)


class QuantumState:
    """Pure ket or mixed density matrix on a truncated Fock space.

    Constructors validate normalisation (pure: unit norm within 1e-9; mixed:
    unit trace within 1e-9, Hermitian within 1e-12, eigenvalues >= -1e-9) and
    warn when the top TAIL_FRACTION of levels carries more than
    TAIL_THRESHOLD population.
    """

    __slots__ = ("data", "dim", "kind")

    def __init__(self, data: np.ndarray, kind: str, dim: int):
        # internal; use the from_* constructors
        self.data = data
        self.kind = kind
        self.dim = dim

    @classmethod
    def from_ket(cls, vec, check_tail: bool = True) -> "QuantumState":
        v = np.array(vec, dtype=complex).reshape(-1)
        check_dim(v.shape[0])
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ValueError("state vector has non-finite entries")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > PURE_NORM_TOL:
            raise ValueError(f"ket norm {norm!r} deviates from 1 beyond {PURE_NORM_TOL}")
        v = v / norm
        v.setflags(write=False)
        state = cls(v, "pure", v.shape[0])
        if check_tail:
            state._warn_tail()
        return state

    @classmethod
    def from_density_matrix(cls, mat, check_tail: bool = True) -> "QuantumState":
        m = np.array(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        check_dim(m.shape[0])
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ValueError("density matrix has non-finite entries")
        herm_err = float(np.max(np.abs(m - m.conj().T)))
        if herm_err > HERMITIAN_TOL:
            raise ValueError(f"density matrix deviates from Hermitian by {herm_err:.3e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
        m = (m + m.conj().T) / (2.0 * tr)
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < EIG_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {lo:.3e} below {EIG_FLOOR}")
        m.setflags(write=False)
        state = cls(m, "mixed", m.shape[0])
        if check_tail:
            state._warn_tail()
        return state

    @classmethod
    def vacuum(cls, dim: int) -> "QuantumState":
        return cls.fock(dim, 0)

    @classmethod
    def fock(cls, dim: int, n: int) -> "QuantumState":
        dim = check_dim(dim)
        if not 0 <= n < dim:
            raise ValueError(f"Fock level {n} outside 0..{dim - 1}")
        v = np.zeros(dim, dtype=complex)
        v[n] = 1.0
        return cls.from_ket(v)

    @classmethod
    def coherent(cls, dim: int, alpha: complex) -> "QuantumState":
        """|alpha> cut to dim levels and renormalised; from_ket's tail check
        measures the truncation."""
        dim = check_dim(dim)
        alpha = complex(alpha)
        if alpha == 0:
            return cls.vacuum(dim)
        # c_n ~ alpha^n / sqrt(n!) in log space, shifted by its maximum so that
        # no |alpha| can underflow every level; the normalisation restores
        # the e^{-|alpha|^2/2}
        n = np.arange(dim, dtype=float)
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(dim)])
        log_c = n * math.log(abs(alpha)) - log_fact / 2.0
        c = np.exp(log_c - log_c.max() + 1j * n * cmath.phase(alpha))
        return cls.from_ket(c / np.linalg.norm(c))

    @classmethod
    def thermal(cls, dim: int, n_thermal: float) -> "QuantumState":
        dim = check_dim(dim)
        if n_thermal < 0:
            raise ValueError("thermal occupation must be >= 0")
        if n_thermal == 0:
            return cls.from_density_matrix(np.diag([1.0] + [0.0] * (dim - 1)))
        # Boltzmann weights q^n with q = n_th / (1 + n_th), renormalised on
        # the truncated space.
        q = n_thermal / (1.0 + n_thermal)
        w = q ** np.arange(dim)
        return cls.from_density_matrix(np.diag(w / w.sum() + 0j))

    @property
    def is_pure(self) -> bool:
        return self.kind == "pure"

    @property
    def ket(self) -> np.ndarray:
        if not self.is_pure:
            raise ValueError("mixed state has no ket")
        return self.data

    def density_matrix(self) -> np.ndarray:
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return self.data

    def populations(self) -> np.ndarray:
        if self.is_pure:
            return np.abs(self.data) ** 2
        return np.diag(self.data).real.copy()

    def tail_population(self, fraction: float = TAIL_FRACTION) -> float:
        return float(tail_populations(self.populations(), fraction))

    def purity(self) -> float:
        if self.is_pure:
            return 1.0
        return float(np.sum(np.abs(self.data) ** 2))

    def _warn_tail(self, threshold: float = TAIL_THRESHOLD) -> None:
        warn_tail(self.tail_population(), threshold, stacklevel=3)

    def __repr__(self) -> str:
        return f"QuantumState(kind={self.kind!r}, dim={self.dim})"


def tail_populations(populations: np.ndarray, fraction: float = TAIL_FRACTION):
    """Population of the top `fraction` of levels, per column for a block.

    The window holds at least two levels, one of each parity: a single top
    level reads 0 for a state in the other parity sector (the vacuum under H
    stays even), however close to the edge that state reaches.
    """
    dim = populations.shape[0]
    n_tail = max(2, math.ceil(fraction * dim))
    return populations[dim - n_tail:].sum(axis=0)


def warn_tail(tail: float, threshold: float = TAIL_THRESHOLD, stacklevel: int = 2) -> None:
    """TruncationWarning when a tail population exceeds threshold."""
    if tail > threshold:
        warnings.warn(
            f"top {int(100 * TAIL_FRACTION)}% of Fock levels hold population "
            f"{tail:.3e} (> {threshold:.0e}); increase dim",
            TruncationWarning,
            stacklevel=stacklevel + 1,
        )


def normalized_kets(kets: np.ndarray) -> np.ndarray:
    """The columns of a block of kets, checked as from_ket does and normalised."""
    if not np.all(np.isfinite(kets)):
        raise ValueError("state vector has non-finite entries")
    norms = np.linalg.norm(kets, axis=0)
    worst = norms[np.argmax(np.abs(norms - 1.0))]
    if abs(worst - 1.0) > PURE_NORM_TOL:
        raise ValueError(f"ket norm {float(worst)!r} deviates from 1 beyond {PURE_NORM_TOL}")
    return kets / norms


# ---------------------------------------------------------------------------
# operator factories


@lru_cache(maxsize=64)
def _ladder_matrix(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    a.setflags(write=False)
    return a


def annihilation(dim: int) -> Operator:
    return Operator(_ladder_matrix(check_dim(dim)))


def creation(dim: int) -> Operator:
    return Operator(_ladder_matrix(check_dim(dim)).conj().T)


def number_operator(dim: int) -> Operator:
    return Operator(np.diag(np.arange(check_dim(dim), dtype=float) + 0j), hermitian=True)


def identity(dim: int) -> Operator:
    return Operator(np.eye(check_dim(dim), dtype=complex), hermitian=True)


def quadrature(dim: int, theta: float) -> Operator:
    """M(theta) = (a e^{-i theta} + a^dag e^{i theta}) / sqrt(2)."""
    a = _ladder_matrix(check_dim(dim))
    phase = np.exp(-1j * theta)
    return Operator((a * phase + a.conj().T * np.conj(phase)) / math.sqrt(2.0), hermitian=True)


def position(dim: int) -> Operator:
    return quadrature(dim, 0.0)


def momentum(dim: int) -> Operator:
    return quadrature(dim, math.pi / 2.0)


def parity(dim: int) -> Operator:
    signs = 1.0 - 2.0 * (np.arange(check_dim(dim)) % 2)
    return Operator(np.diag(signs + 0j), hermitian=True)


def displacement(dim: int, alpha: complex) -> Operator:
    """D(alpha) = exp(alpha a^dag - conj(alpha) a) on the truncated space."""
    dim = check_dim(dim)
    alpha = complex(alpha)
    if abs(alpha) ** 2 > dim / 10.0:
        warnings.warn(
            f"displacement |alpha|^2 = {abs(alpha) ** 2:.3g} is large for dim {dim}; "
            "matrix elements near the edge are unreliable",
            TruncationWarning,
            stacklevel=2,
        )
    a = _ladder_matrix(dim)
    return Operator(expm(alpha * a.conj().T - np.conj(alpha) * a))


# ---------------------------------------------------------------------------
# expectations and moments


def expectation(state: QuantumState, op: Operator) -> complex:
    _require_same_dim(state, op)
    if state.is_pure:
        return complex(np.vdot(state.data, op.matrix @ state.data))
    return complex(np.sum(state.data.T * op.matrix))


def variance(state: QuantumState, op: Operator) -> float:
    """Var[A] = <A^2> - <A>^2 for Hermitian A, clamped at zero."""
    _require_same_dim(state, op)
    if not op.is_hermitian:
        raise ValueError("variance requires a Hermitian operator")
    if state.is_pure:
        w = op.matrix @ state.data
        second = float(np.vdot(w, w).real)
        mean = float(np.vdot(state.data, w).real)
    else:
        rho_a = state.data @ op.matrix
        second = float(np.sum(rho_a.T * op.matrix).real)
        mean = float(np.trace(rho_a).real)
    var = second - mean * mean
    if var < VARIANCE_FLOOR:
        raise RuntimeError(f"variance {var:.3e} below tolerance floor {VARIANCE_FLOOR}")
    return max(var, 0.0)


def covariance(state: QuantumState, a: Operator, b: Operator) -> float:
    """Symmetrised covariance <AB + BA>/2 - <A><B> for Hermitian A, B."""
    _require_same_dim(state, a)
    _require_same_dim(state, b)
    if not (a.is_hermitian and b.is_hermitian):
        raise ValueError("covariance requires Hermitian operators")
    if state.is_pure:
        va = a.matrix @ state.data
        vb = b.matrix @ state.data
        cross = complex(np.vdot(va, vb))
        mean_a = float(np.vdot(state.data, va).real)
        mean_b = float(np.vdot(state.data, vb).real)
    else:
        rho_a = state.data @ a.matrix
        cross = complex(np.sum(rho_a.T * b.matrix))
        mean_a = float(np.trace(rho_a).real)
        mean_b = float(np.sum(state.data.T * b.matrix).real)
    return float(cross.real - mean_a * mean_b)


def ket_ladder_moments(psi: np.ndarray):
    """(<a>, <a^2>, <a^dag a>) of a ket, or arrays of them for the columns of a block."""
    n = np.arange(psi.shape[0], dtype=float).reshape((-1,) + (1,) * (psi.ndim - 1))
    sq1 = np.sqrt(n[1:])
    sq2 = np.sqrt(n[2:] * (n[2:] - 1.0))
    ma = np.sum(sq1 * np.conj(psi[:-1]) * psi[1:], axis=0)
    ma2 = np.sum(sq2 * np.conj(psi[:-2]) * psi[2:], axis=0)
    mn = np.sum(n * np.abs(psi) ** 2, axis=0)
    return ma, ma2, mn


def ladder_moments(state: QuantumState) -> tuple[complex, complex, float]:
    """Return (<a>, <a^2>, <a^dag a>) using the band structure of a."""
    if state.is_pure:
        ma, ma2, mn = ket_ladder_moments(state.data)
        return complex(ma), complex(ma2), float(mn)
    rho = state.data
    n = np.arange(state.dim, dtype=float)
    ma = complex(np.sum(np.sqrt(n[1:]) * np.diagonal(rho, offset=-1)))
    ma2 = complex(np.sum(np.sqrt(n[2:] * (n[2:] - 1.0)) * np.diagonal(rho, offset=-2)))
    mn = float(np.sum(n * np.diagonal(rho).real))
    return ma, ma2, mn


def covariance_from_moments(ma, ma2, mn) -> np.ndarray:
    """2x2 covariance matrix of (X, P) from ladder moments; (..., 2, 2) for arrays."""
    mean_x = math.sqrt(2.0) * np.real(ma)
    mean_p = math.sqrt(2.0) * np.imag(ma)
    var_x = 0.5 + mn + np.real(ma2) - mean_x * mean_x
    var_p = 0.5 + mn - np.real(ma2) - mean_p * mean_p
    cov_xp = np.imag(ma2) - mean_x * mean_p
    return np.moveaxis(np.array([[var_x, cov_xp], [cov_xp, var_p]]), (0, 1), (-2, -1))


def quadrature_covariance(state: QuantumState) -> np.ndarray:
    """2x2 covariance matrix of (X, P) from ladder moments."""
    return covariance_from_moments(*ladder_moments(state))


def state_fidelity(a: QuantumState, b: QuantumState) -> float:
    """Uhlmann fidelity F(a, b) = (Tr sqrt(sqrt(a) b sqrt(a)))^2."""
    _require_same_dim(a, b)
    if a.is_pure and b.is_pure:
        return float(np.abs(np.vdot(a.data, b.data)) ** 2)
    if a.is_pure:
        return float(np.vdot(a.data, b.data @ a.data).real)
    if b.is_pure:
        return float(np.vdot(b.data, a.data @ b.data).real)
    w, v = np.linalg.eigh(a.data)
    w = np.clip(w, 0.0, None)
    sqrt_a = (v * np.sqrt(w)) @ v.conj().T
    inner = sqrt_a @ b.data @ sqrt_a
    ev = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))) ** 2)


# ---------------------------------------------------------------------------
# banded applications (hot-loop helpers; operate on raw kets)


def apply_annihilation(psi: np.ndarray) -> np.ndarray:
    out = np.zeros_like(psi)
    n = np.arange(1, psi.shape[0], dtype=float)
    out[:-1] = np.sqrt(n) * psi[1:]
    return out


def apply_creation(psi: np.ndarray) -> np.ndarray:
    out = np.zeros_like(psi)
    n = np.arange(1, psi.shape[0], dtype=float)
    out[1:] = np.sqrt(n) * psi[:-1]
    return out


def apply_quadrature(psi: np.ndarray, theta: float) -> np.ndarray:
    phase = np.exp(-1j * theta)
    return (phase * apply_annihilation(psi) + np.conj(phase) * apply_creation(psi)) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# dimension convergence


def converge_dim(
    build: Callable[[int], T],
    figures: Callable[[T], float | np.ndarray],
    start_dim: int,
    max_dim: int = 5120,
) -> tuple[T, int]:
    """Double dim from start_dim until the monitored figure(s) stabilise.

    ``build(dim)`` computes a result at dim and ``figures(result)`` the
    scalar or array it is judged by; dim is accepted when every entry changes
    by less than AUTO_DIM_RTOL relative between dim and 2*dim.  Returns
    ``(build(2*dim), 2*dim)``: the accepted result itself, not built again.
    NaN entries compare equal to NaN (sentinel values pass through).
    """
    dim = check_dim(start_dim)
    prev = np.atleast_1d(np.asarray(figures(build(dim)), dtype=float))
    log.debug("converge_dim: tried dim %d", dim)
    while 2 * dim <= max_dim:
        result = build(2 * dim)
        nxt = np.atleast_1d(np.asarray(figures(result), dtype=float))
        scale = np.maximum(np.maximum(np.abs(prev), np.abs(nxt)), 1e-12)
        diff = np.abs(nxt - prev) / scale
        both_nan = np.isnan(prev) & np.isnan(nxt)
        change = float(np.max(np.where(both_nan, 0.0, diff)))  # NaN if any entry is NaN
        log.debug("converge_dim: tried dim %d, max relative change %.3e", 2 * dim, change)
        if change < AUTO_DIM_RTOL:
            log.debug("converge_dim: accepted dim %d (rel_tol %.1e)", 2 * dim, AUTO_DIM_RTOL)
            return result, 2 * dim
        prev = nxt
        dim *= 2
    log.debug("converge_dim: no convergence up to dim %d", max_dim)
    raise TruncationError(f"no dimension convergence up to dim {max_dim}")
