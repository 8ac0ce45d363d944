"""Truncated Fock-space operators, states, and moments.

Everything lives on the number basis |0>, ..., |dim-1> as dense complex
matrices.  sparse_annihilation is the one construction of the ladder
operator a: the dense annihilation densifies it (creation, quadrature and
displacement read that), and apply_quadrature on raw kets multiplies by it
and its transpose.  Quadrature convention: X = (a + a^dag)/sqrt(2) and
P = -i(a - a^dag)/sqrt(2), so [X, P] = i away from the truncation edge and
the vacuum has Var[X] = 1/2.

A state is its factor W, rho = W W^dag (a ket is one column): every
expectation, moment and accessor reads W, one path for pure and mixed states.
from_density_matrix makes a mixed state's W from the eigh that validates it,
the one dim x dim eigh of a state's life; rho itself is formed only where a
superoperator or the Wigner transform needs it (density_matrix).

Truncation: constructors only validate.  check_tail judges a result's tail
(the population of its top TAIL_FRACTION of levels), and at_dim, the entry
of every dim-dependent result, applies it once to the result it returns.
coherent and thermal, cuts of infinite states, warn_tail when built.
"""
from __future__ import annotations

import cmath
import logging
import math
import warnings
from typing import Callable, TypeVar

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

HERMITIAN_TOL = 1e-12
PURE_NORM_TOL = 1e-9
TRACE_TOL = 1e-9
EIG_FLOOR = -1e-9
TAIL_FRACTION = 0.05
TAIL_THRESHOLD = 1e-8
TAIL_ERROR = 1e-3
VARIANCE_FLOOR = -1e-10
# Every auto-dim result (converge_dim) is stable to this between the rung it
# reports and the rung below; well inside the 1e-5 the results are
# documented to hold at.
AUTO_DIM_RTOL = 1e-7
# ... and the rung below holds less than this in its tail (see converge_dim),
# far under TAIL_THRESHOLD.
AUTO_DIM_TAIL = 1e-12
# The auto-dim ladder: multiples of DIM_STEP, each the first at or above
# DIM_GROWTH times the one below (next_dim).
DIM_STEP = 16
DIM_GROWTH = 1.25

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


def _square_matrix(matrix, name: str) -> np.ndarray:
    """matrix as a complex array, checked square, of a valid dim and finite."""
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    check_dim(m.shape[0])
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def _hermitian_deviation(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


class Operator:
    """Dense operator on a truncated Fock space.

    The wrapped matrix is read-only. ``hermitian=True`` asserts Hermiticity,
    which is verified to HERMITIAN_TOL at construction.
    """

    __slots__ = ("matrix", "dim", "_hermitian")

    def __init__(self, matrix, hermitian: bool | None = None):
        mat = _square_matrix(matrix, "operator matrix")
        if hermitian:
            err = _hermitian_deviation(mat)
            if err > HERMITIAN_TOL:
                raise ValueError(f"matrix asserted Hermitian but deviates by {err:.3e}")
        mat.setflags(write=False)
        self.matrix = mat
        self.dim = mat.shape[0]
        self._hermitian = bool(hermitian) if hermitian is not None else None

    @property
    def is_hermitian(self) -> bool:
        if self._hermitian is None:
            self._hermitian = _hermitian_deviation(self.matrix) <= HERMITIAN_TOL
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
    """Pure or mixed state on a truncated Fock space, held as its factor W
    alone: rho = W W^dag, with W's columns orthogonal (a ket is one column).

    Constructors validate normalisation (pure: unit norm within 1e-9; mixed:
    unit trace within 1e-9, Hermitian within 1e-12, eigenvalues >= -1e-9);
    they do not judge truncation (see check_tail).
    """

    __slots__ = ("_factor", "dim", "kind")

    def __init__(self, factor: np.ndarray, kind: str):
        # internal (use the from_* constructors): W, orthogonal columns, made read-only
        factor.setflags(write=False)
        self._factor = factor
        self.dim = factor.shape[0]
        self.kind = kind

    @classmethod
    def from_ket(cls, vec) -> "QuantumState":
        v = np.array(vec, dtype=complex).reshape(-1)
        check_dim(v.shape[0])
        return cls(normalized_kets(v[:, None]), "pure")

    @classmethod
    def from_density_matrix(cls, mat) -> "QuantumState":
        m = _square_matrix(mat, "density matrix")
        herm_err = _hermitian_deviation(m)
        if herm_err > HERMITIAN_TOL:
            raise ValueError(f"density matrix deviates from Hermitian by {herm_err:.3e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
        m = (m + m.conj().T) / (2.0 * tr)
        lam, vecs = np.linalg.eigh(m)
        if lam[0] < EIG_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {lam[0]:.3e} below {EIG_FLOOR}")
        # the factor keeps the eigenvalues above eigh's round-off, dim eps times
        # their largest; eigh is exact on a diagonal rho, whose positive entries
        # are all kept
        diagonal = np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))
        keep = lam > (0.0 if diagonal else lam[-1] * m.shape[0] * np.finfo(float).eps)
        return cls(vecs[:, keep] * np.sqrt(lam[keep]), "mixed")

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
        """|alpha> cut to dim levels and renormalised; warns (warn_tail) when
        the cut leaves population in the top levels."""
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
        state = cls.from_ket(c / np.linalg.norm(c))
        warn_tail(state.tail_population())
        return state

    @classmethod
    def thermal(cls, dim: int, n_thermal: float) -> "QuantumState":
        dim = check_dim(dim)
        if n_thermal < 0:
            raise ValueError("thermal occupation must be >= 0")
        # Boltzmann weights q^n with q = n_th / (1 + n_th), renormalised on
        # the truncated space (n_th = 0: q^0 = 1, the vacuum).
        q = n_thermal / (1.0 + n_thermal)
        w = q ** np.arange(dim)
        state = cls.from_density_matrix(np.diag(w / w.sum() + 0j))
        warn_tail(state.tail_population())
        return state

    @property
    def is_pure(self) -> bool:
        return self.kind == "pure"

    @property
    def ket(self) -> np.ndarray:
        if not self.is_pure:
            raise ValueError("mixed state has no ket")
        return self._factor[:, 0]

    def density_matrix(self) -> np.ndarray:
        """rho = W W^dag, symmetrised so that it is exactly Hermitian."""
        rho = self._factor @ self._factor.conj().T
        return (rho + rho.conj().T) / 2.0

    def populations(self) -> np.ndarray:
        return np.sum(np.abs(self._factor) ** 2, axis=1)

    def tail_population(self) -> float:
        return float(tail_populations(self.populations()))

    def factor(self) -> np.ndarray:
        """W with rho = W W^dag, read-only: the ket as one column, or the
        V sqrt(lambda) that from_density_matrix made."""
        return self._factor

    def purity(self) -> float:
        """Tr rho^2 / (Tr rho)^2 from the weights |w_k|^2 of W's columns; 1.0 for a ket."""
        lam = np.sum(np.abs(self._factor) ** 2, axis=0)
        return float(np.sum(lam**2) / np.sum(lam) ** 2)

    def __repr__(self) -> str:
        return f"QuantumState(kind={self.kind!r}, dim={self.dim})"


def tail_populations(populations: np.ndarray):
    """Population of the top TAIL_FRACTION of levels, per column for a block.

    The window holds at least two levels, one of each parity: a single top
    level reads 0 for a state in the other parity sector (the vacuum under H
    stays even), however close to the edge that state reaches.
    """
    dim = populations.shape[0]
    n_tail = max(2, math.ceil(TAIL_FRACTION * dim))
    return populations[dim - n_tail:].sum(axis=0)


def warn_tail(tail: float, stacklevel: int = 2) -> None:
    """TruncationWarning when a tail population exceeds TAIL_THRESHOLD."""
    if tail > TAIL_THRESHOLD:
        warnings.warn(
            f"top {int(100 * TAIL_FRACTION)}% of Fock levels hold population "
            f"{tail:.3e} (> {TAIL_THRESHOLD:.0e}); increase dim",
            TruncationWarning,
            stacklevel=stacklevel + 1,
        )


def check_tail(tail: float) -> None:
    """warn_tail, then TruncationError above TAIL_ERROR."""
    warn_tail(tail, stacklevel=3)
    if tail > TAIL_ERROR:
        raise TruncationError(f"tail population {tail:.3e} > {TAIL_ERROR:.0e}; increase dim")


def normalized_kets(kets: np.ndarray) -> np.ndarray:
    """The columns of a block of kets, checked as from_ket does and normalised."""
    if not np.isfinite(kets).all():
        raise ValueError("state vector has non-finite entries")
    norms = np.linalg.norm(kets, axis=0)
    worst = norms[np.argmax(np.abs(norms - 1.0))]
    if abs(worst - 1.0) > PURE_NORM_TOL:
        raise ValueError(f"ket norm {float(worst)!r} deviates from 1 beyond {PURE_NORM_TOL}")
    return kets / norms


# ---------------------------------------------------------------------------
# operator factories


def sparse_annihilation(dim: int) -> sp.csr_matrix:
    """The ladder operator a as a complex CSR matrix (one superdiagonal)."""
    dim = check_dim(dim)
    n = np.arange(1, dim)
    return sp.csr_matrix((np.sqrt(n) + 0j, (n - 1, n)), shape=(dim, dim))


def annihilation(dim: int) -> Operator:
    return Operator(sparse_annihilation(dim).toarray())


def creation(dim: int) -> Operator:
    return annihilation(dim).dagger()


def number_operator(dim: int) -> Operator:
    return Operator(np.diag(np.arange(check_dim(dim), dtype=float) + 0j), hermitian=True)


def identity(dim: int) -> Operator:
    return Operator(np.eye(check_dim(dim), dtype=complex), hermitian=True)


def quadrature(dim: int, theta: float) -> Operator:
    """M(theta) = (a e^{-i theta} + a^dag e^{i theta}) / sqrt(2)."""
    a = annihilation(dim).matrix
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
    """D(alpha) = exp(alpha a^dag - conj(alpha) a) on the truncated space.

    Like the state constructors it judges no truncation: the tail of a state
    it displaces goes through check_tail.
    """
    alpha = complex(alpha)
    a = annihilation(dim).matrix
    return Operator(expm(alpha * a.conj().T - np.conj(alpha) * a))


# ---------------------------------------------------------------------------
# expectations and moments


def expectation(state: QuantumState, op: Operator) -> complex:
    """<A> = Tr[W^dag A W] for the state's factor W."""
    _require_same_dim(state, op)
    w = state.factor()
    return complex(np.vdot(w, op.matrix @ w))


def _expect_product(w: np.ndarray, a: Operator, b: Operator) -> complex:
    """<AB> = Tr[(A W)^dag (B W)] for Hermitian A and a state's factor W."""
    return complex(np.vdot(a.matrix @ w, b.matrix @ w))


def variance(state: QuantumState, op: Operator) -> float:
    """Var[A] = <A^2> - <A>^2 for Hermitian A, clamped at zero."""
    if not op.is_hermitian:
        raise ValueError("variance requires a Hermitian operator")
    var = covariance(state, op, op)
    if var < VARIANCE_FLOOR:
        raise RuntimeError(f"variance {var:.3e} below tolerance floor {VARIANCE_FLOOR}")
    return max(var, 0.0)


def covariance(state: QuantumState, a: Operator, b: Operator) -> float:
    """Symmetrised covariance <AB + BA>/2 - <A><B> for Hermitian A, B."""
    _require_same_dim(state, a)
    _require_same_dim(state, b)
    if not (a.is_hermitian and b.is_hermitian):
        raise ValueError("covariance requires Hermitian operators")
    w = state.factor()
    mean_a, mean_b = (float(np.vdot(w, m.matrix @ w).real) for m in (a, b))
    return float(_expect_product(w, a, b).real - mean_a * mean_b)


def ket_ladder_moments(psi: np.ndarray):
    """(<a>, <a^2>, <a^dag a>) of a ket, or arrays of them for the columns of a block."""
    n = np.arange(psi.shape[0], dtype=float).reshape((-1,) + (1,) * (psi.ndim - 1))
    sq1 = np.sqrt(n[1:])
    sq2 = np.sqrt(n[2:] * (n[2:] - 1.0))
    ma = (sq1 * psi[:-1].conj() * psi[1:]).sum(axis=0)
    ma2 = (sq2 * psi[:-2].conj() * psi[2:]).sum(axis=0)
    mn = (n * np.abs(psi) ** 2).sum(axis=0)
    return ma, ma2, mn


def ladder_moments(state: QuantumState) -> tuple[complex, complex, float]:
    """Return (<a>, <a^2>, <a^dag a>): the factor's columns' ket_ladder_moments, summed."""
    ma, ma2, mn = (m.sum() for m in ket_ladder_moments(state.factor()))
    return complex(ma), complex(ma2), float(mn)


def covariance_from_moments(ma, ma2, mn) -> np.ndarray:
    """2x2 covariance matrix of (X, P) from ladder moments; (..., 2, 2) for arrays."""
    mean_x = math.sqrt(2.0) * np.real(ma)
    mean_p = math.sqrt(2.0) * np.imag(ma)
    var_x = 0.5 + mn + np.real(ma2) - mean_x * mean_x
    var_p = 0.5 + mn - np.real(ma2) - mean_p * mean_p
    cov = np.empty(np.shape(var_x) + (2, 2))
    cov[..., 0, 0], cov[..., 1, 1] = var_x, var_p
    cov[..., 0, 1] = cov[..., 1, 0] = np.imag(ma2) - mean_x * mean_p
    return cov


def quadrature_covariance(state: QuantumState) -> np.ndarray:
    """2x2 covariance matrix of (X, P) from ladder moments."""
    return covariance_from_moments(*ladder_moments(state))


def state_fidelity(a: QuantumState, b: QuantumState) -> float:
    """Uhlmann fidelity F(a, b) = (Tr sqrt(sqrt(a) b sqrt(a)))^2, in Jozsa's
    form ||W_a^dag W_b||_1^2 (J. Mod. Opt. 41, 2315 (1994)) on the factors."""
    _require_same_dim(a, b)
    overlap = a.factor().conj().T @ b.factor()
    return float(np.sum(np.linalg.svd(overlap, compute_uv=False)) ** 2)


# ---------------------------------------------------------------------------
# M(theta) on raw kets.  No package code calls it; perfbench/spans.py traces it.


def apply_quadrature(psi: np.ndarray, theta: float) -> np.ndarray:
    """M(theta) psi for a ket, or for each column of a block of kets."""
    a = sparse_annihilation(psi.shape[0])
    phase = np.exp(-1j * theta)
    return (phase * (a @ psi) + np.conj(phase) * (a.T @ psi)) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# dimension convergence


def next_dim(dim: int) -> int:
    """The rung above dim on the auto-dim ladder: the first multiple of
    DIM_STEP at or above DIM_GROWTH * dim.  From DIM_STEP the rungs are
    16, 32, 48, 64, 80, 112, 144, 192, 240, ..."""
    return DIM_STEP * math.ceil(DIM_GROWTH * dim / DIM_STEP)


def ladder_dim(guess: float) -> int:
    """The lowest rung of the ladder from DIM_STEP at or above guess."""
    dim = DIM_STEP
    while dim < guess:
        dim = next_dim(dim)
    return dim


def converge_dim(
    build: Callable[[int], T],
    figures: Callable[[T], float | np.ndarray],
    tail: Callable[[T], float],
    start_dim: int,
    max_dim: int = 5120,
) -> tuple[T, int]:
    """Climb the dim ladder (next_dim) from start_dim until a rung confirms
    the one below it.

    ``build(dim)`` computes a result at dim, ``figures(result)`` the scalar
    or array it is judged by and ``tail(result)`` its tail population.  The
    rung d' above d is accepted when every figure changes by less than
    AUTO_DIM_RTOL relative between d and d' and the tail at d is below
    AUTO_DIM_TAIL, so that two rungs which agree only because both stall
    short of the support are not taken for converged.  Returns
    ``(build(d'), d')``: the accepted result itself, not built again.  NaN
    entries compare equal to NaN (sentinel values pass through).
    """
    dim = check_dim(start_dim)
    result = build(dim)
    prev, prev_tail = np.atleast_1d(np.asarray(figures(result), dtype=float)), tail(result)
    log.debug("converge_dim: tried dim %d", dim)
    while next_dim(dim) <= max_dim:
        lower, dim = dim, next_dim(dim)
        del result  # only its figures and tail are kept: free it before the next build
        result = build(dim)
        nxt = np.atleast_1d(np.asarray(figures(result), dtype=float))
        scale = np.maximum(np.maximum(np.abs(prev), np.abs(nxt)), 1e-12)
        diff = np.abs(nxt - prev) / scale
        both_nan = np.isnan(prev) & np.isnan(nxt)
        change = float(np.max(np.where(both_nan, 0.0, diff)))  # NaN if any entry is NaN
        held = prev_tail < AUTO_DIM_TAIL
        log.debug(
            "converge_dim: tried dim %d, max relative change %.3e, "
            "tail at dim %d %.3e (guard %.0e %s)",
            dim, change, lower, prev_tail, AUTO_DIM_TAIL, "held" if held else "failed",
        )
        if change < AUTO_DIM_RTOL and held:
            log.debug("converge_dim: accepted dim %d (rel_tol %.1e)", dim, AUTO_DIM_RTOL)
            return result, dim
        prev, prev_tail = nxt, tail(result)
    log.debug("converge_dim: no convergence up to dim %d", max_dim)
    raise TruncationError(f"no dimension convergence up to dim {max_dim}")


def at_dim(build: Callable[[int], T], figures, tail, dim: int | None, start_dim: int) -> T:
    """build(dim), or with dim=None the result converge_dim(build, figures,
    tail, start_dim) accepts; either way check_tail(tail(result)) runs once,
    on the result returned, so the rungs converge_dim rejects never warn."""
    if dim is None:
        result, _ = converge_dim(build, figures, tail, start_dim)
    else:
        result = build(dim)
    check_tail(tail(result))
    return result
