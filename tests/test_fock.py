"""Operator algebra, state constructors, and moments on the truncated space."""

import math
import warnings

import numpy as np
import pytest

from kerrsense import fock
from kerrsense.fock import (
    DimensionMismatchError,
    Operator,
    QuantumState,
    TruncationError,
    TruncationWarning,
    annihilation,
    commutator,
    converge_dim,
    covariance,
    creation,
    displacement,
    expectation,
    identity,
    ket_ladder_moments,
    ladder_moments,
    momentum,
    number_operator,
    parity,
    position,
    quadrature,
    normalized_kets,
    quadrature_covariance,
    state_fidelity,
    variance,
)


def random_ket(dim: int, seed: int) -> QuantumState:
    # Gaussian envelope keeps the top Fock levels empty, as any converged
    # physical truncation would.
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v *= np.exp(-((np.arange(dim) / (dim / 4.0)) ** 2))
    return QuantumState.from_ket(v / np.linalg.norm(v), check_tail=False)


def random_mixed(dim: int, seed: int, rank: int = 4) -> QuantumState:
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, size=rank)
    w /= w.sum()
    rho = np.zeros((dim, dim), dtype=complex)
    for k in range(rank):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v *= np.exp(-((np.arange(dim) / (dim / 4.0)) ** 2))
        v /= np.linalg.norm(v)
        rho += w[k] * np.outer(v, v.conj())
    return QuantumState.from_density_matrix(rho, check_tail=False)


def factorials(dim: int) -> np.ndarray:
    return np.array([math.factorial(k) for k in range(dim)], dtype=float)


# ---------------------------------------------------------------------------
# operators


def test_check_dim_rejects_degenerate_spaces():
    with pytest.raises(ValueError):
        fock.check_dim(1)
    with pytest.raises(ValueError):
        fock.check_dim(0)


def test_annihilation_matrix_elements():
    a = annihilation(6).matrix
    expected = np.zeros((6, 6))
    for n in range(1, 6):
        expected[n - 1, n] = math.sqrt(n)
    np.testing.assert_allclose(a, expected, atol=0.0)


def test_creation_is_dagger_of_annihilation():
    a = annihilation(8)
    np.testing.assert_array_equal(creation(8).matrix, a.dagger().matrix)


def test_number_operator_is_diagonal_count():
    n = number_operator(7).matrix
    np.testing.assert_allclose(n, np.diag(np.arange(7.0)), atol=1e-15)


def test_ladder_commutator_identity_with_truncation_corner():
    dim = 10
    c = commutator(annihilation(dim), creation(dim)).matrix
    expected = np.eye(dim, dtype=complex)
    expected[-1, -1] = 1.0 - dim  # the corner absorbs the truncated ladder
    np.testing.assert_allclose(c, expected, atol=1e-12)


def test_quadrature_interpolates_position_momentum():
    dim = 12
    x = position(dim).matrix
    p = momentum(dim).matrix
    for theta in (0.0, math.pi / 2.0, 0.3, 2.1):
        expected = math.cos(theta) * x + math.sin(theta) * p
        np.testing.assert_allclose(quadrature(dim, theta).matrix, expected, atol=1e-14)
    assert quadrature(dim, 0.0).is_hermitian


def test_canonical_commutator():
    dim = 14
    c = commutator(position(dim), momentum(dim)).matrix
    expected = 1j * np.eye(dim, dtype=complex)
    expected[-1, -1] = 1j * (1.0 - dim)
    np.testing.assert_allclose(c, expected, atol=1e-12)


def test_parity_signs_and_ladder_flip():
    dim = 9
    pi_op = parity(dim)
    np.testing.assert_array_equal(np.diag(pi_op.matrix).real, (-1.0) ** np.arange(dim))
    flipped = pi_op.matrix @ annihilation(dim).matrix @ pi_op.matrix
    np.testing.assert_allclose(flipped, -annihilation(dim).matrix, atol=1e-14)


def test_displacement_builds_coherent_amplitudes():
    # <n|D(alpha)|0> = e^{-|alpha|^2/2} alpha^n / sqrt(n!)
    dim, alpha = 40, 0.8 - 0.5j
    col = displacement(dim, alpha).matrix[:, 0]
    n = np.arange(dim)
    expected = np.exp(-abs(alpha) ** 2 / 2.0) * alpha**n / np.sqrt(factorials(dim))
    np.testing.assert_allclose(col, expected, atol=1e-12)


def test_displacement_unitary_and_inverse():
    dim, alpha = 24, 0.4 + 0.9j
    d = displacement(dim, alpha).matrix
    np.testing.assert_allclose(d @ d.conj().T, np.eye(dim), atol=1e-10)
    np.testing.assert_allclose(
        displacement(dim, -alpha).matrix, d.conj().T, atol=1e-10
    )


def test_displacement_composition_phase():
    # D(a) D(b) = e^{i Im(a conj(b))} D(a+b), up to truncation
    dim = 80
    a, b = 0.5 + 0.2j, -0.3 + 0.4j
    lhs = displacement(dim, a).matrix @ displacement(dim, b).matrix
    rhs = np.exp(1j * (a * np.conj(b)).imag) * displacement(dim, a + b).matrix
    np.testing.assert_allclose(lhs[:20, :20], rhs[:20, :20], atol=1e-9)


def test_large_displacement_warns():
    with pytest.warns(TruncationWarning):
        displacement(10, 3.0)


def test_operator_arithmetic_and_hermiticity():
    x = position(6)
    p = momentum(6)
    assert (x + p).is_hermitian
    assert (x - p).is_hermitian
    assert (-x).is_hermitian
    assert (2.5 * x).is_hermitian
    assert not (1j * x).is_hermitian
    prod = x @ p
    np.testing.assert_allclose(prod.matrix, x.matrix @ p.matrix, atol=0.0)
    with pytest.raises(DimensionMismatchError):
        position(6) + position(8)


# ---------------------------------------------------------------------------
# states


def test_fock_state_population():
    s = QuantumState.fock(10, 3)
    pops = s.populations()
    assert pops[3] == 1.0
    assert pops.sum() == 1.0
    with pytest.raises(ValueError):
        QuantumState.fock(10, 10)
    with pytest.raises(ValueError):
        QuantumState.fock(10, -1)


def test_vacuum_quadrature_statistics():
    vac = QuantumState.vacuum(30)
    assert abs(variance(vac, position(30)) - 0.5) < 1e-14
    assert abs(variance(vac, momentum(30)) - 0.5) < 1e-14
    assert abs(expectation(vac, position(30))) < 1e-14


def test_coherent_state_poisson_populations():
    dim, alpha = 60, 1.3 - 0.4j
    s = QuantumState.coherent(dim, alpha)
    n = abs(alpha) ** 2
    expected = np.exp(-n) * n ** np.arange(dim) / factorials(dim)
    np.testing.assert_allclose(s.populations(), expected, atol=1e-12)
    assert abs(expectation(s, number_operator(dim)).real - n) < 1e-10
    # dim 1024: the Poisson weights in log space, since 1023! overflows a float
    big = QuantumState.coherent(1024, 3.0)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(1024)])
    big_expected = np.exp(-9.0 + np.arange(1024) * math.log(9.0) - log_fact)
    np.testing.assert_allclose(big.populations(), big_expected, atol=1e-12)
    # displaced vacuum keeps vacuum-sized variances
    assert abs(variance(s, position(dim)) - 0.5) < 1e-10
    assert abs(expectation(s, position(dim)).real - math.sqrt(2.0) * alpha.real) < 1e-10
    assert abs(expectation(s, momentum(dim)).real - math.sqrt(2.0) * alpha.imag) < 1e-10


def test_large_coherent_state_does_not_warn():
    # |alpha|^2 = 100 at dim 512 trips the |alpha|^2 > dim/10 guess of
    # displacement(), but the ket's measured tail is negligible
    dim, alpha = 512, 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = QuantumState.coherent(dim, alpha)
    n = np.arange(dim)
    log_amp = -alpha**2 / 2.0 + n * math.log(alpha) - 0.5 * np.array([math.lgamma(k + 1) for k in n])
    np.testing.assert_allclose(s.ket.real, np.exp(log_amp), rtol=0, atol=1e-12)
    assert np.max(np.abs(s.ket.imag)) < 1e-12
    with pytest.warns(TruncationWarning):
        displacement(dim, alpha)


def test_thermal_state_geometric_weights():
    dim, n_th = 80, 0.7
    s = QuantumState.thermal(dim, n_th)
    q = n_th / (1.0 + n_th)
    w = q ** np.arange(dim)
    np.testing.assert_allclose(s.populations(), w / w.sum(), atol=1e-15)
    assert abs(expectation(s, number_operator(dim)).real - n_th) < 1e-9
    assert abs(s.purity() - 1.0 / (1.0 + 2.0 * n_th)) < 1e-9
    assert QuantumState.thermal(dim, 0.0).populations()[0] == 1.0
    with pytest.raises(ValueError):
        QuantumState.thermal(dim, -0.1)


def test_from_ket_validation():
    with pytest.raises(ValueError):
        QuantumState.from_ket(np.array([1.0, 1.0]))  # not normalised
    with pytest.raises(ValueError):
        QuantumState.from_ket(np.array([np.nan, 0.0]))


def test_from_density_matrix_validation():
    good = np.diag([0.6, 0.4, 0.0]).astype(complex)
    with pytest.warns(TruncationWarning):  # the top two levels hold 0.4
        QuantumState.from_density_matrix(good)
    bad_herm = good.copy()
    bad_herm[0, 1] = 0.1
    with pytest.raises(ValueError):
        QuantumState.from_density_matrix(bad_herm)
    with pytest.raises(ValueError):
        QuantumState.from_density_matrix(2.0 * good)
    neg = np.diag([1.1, -0.1, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        QuantumState.from_density_matrix(neg)


def test_tail_population_warning():
    with pytest.warns(TruncationWarning):
        QuantumState.coherent(12, 3.0)


def test_mixed_state_accessors():
    s = QuantumState.thermal(16, 0.3)
    assert not s.is_pure
    with pytest.raises(ValueError):
        _ = s.ket
    np.testing.assert_array_equal(s.density_matrix(), s.data)


# ---------------------------------------------------------------------------
# moments


def test_covariance_matches_dense_definition():
    s = random_ket(20, seed=7)
    x = position(20)
    p = momentum(20)
    rho = s.density_matrix()
    sym = (x.matrix @ p.matrix + p.matrix @ x.matrix) / 2.0
    expected = np.trace(rho @ sym).real - (
        np.trace(rho @ x.matrix).real * np.trace(rho @ p.matrix).real
    )
    assert abs(covariance(s, x, p) - expected) < 1e-12


def test_ladder_moments_match_dense():
    for state in (random_ket(24, seed=3), random_mixed(24, seed=4)):
        a = annihilation(24).matrix
        rho = state.density_matrix()
        ma = np.trace(rho @ a)
        maa = np.trace(rho @ a @ a)
        n_mean = np.trace(rho @ a.conj().T @ a).real
        got_a, got_aa, got_n = ladder_moments(state)
        assert abs(got_a - ma) < 1e-12
        assert abs(got_aa - maa) < 1e-12
        assert abs(got_n - n_mean) < 1e-12


def test_ket_block_moments_match_per_ket():
    block = np.stack([random_ket(30, seed).ket for seed in (1, 2, 3)], axis=1)
    ma, ma2, mn = ket_ladder_moments(block)
    cov = fock.covariance_from_moments(ma, ma2, mn)
    assert cov.shape == (3, 2, 2)
    for j in range(3):
        state = QuantumState.from_ket(block[:, j], check_tail=False)
        np.testing.assert_allclose([ma[j], ma2[j], mn[j]], ladder_moments(state), atol=1e-14)
        np.testing.assert_allclose(cov[j], quadrature_covariance(state), atol=1e-14)


def test_normalized_kets_checks_every_column():
    block = np.stack([random_ket(20, 4).ket, random_ket(20, 5).ket], axis=1)
    np.testing.assert_allclose(normalized_kets(block * (1.0 + 1e-12)), block, atol=1e-15)
    with pytest.raises(ValueError, match="norm"):
        normalized_kets(block * np.array([1.0, 1.0 + 1e-6]))
    bad = block.copy()
    bad[3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        normalized_kets(bad)


def test_quadrature_covariance_matrix_entries():
    s = random_mixed(24, seed=11)
    x = position(24)
    p = momentum(24)
    gamma = quadrature_covariance(s)
    assert abs(gamma[0, 0] - variance(s, x)) < 1e-12
    assert abs(gamma[1, 1] - variance(s, p)) < 1e-12
    assert abs(gamma[0, 1] - covariance(s, x, p)) < 1e-12
    assert gamma[0, 1] == gamma[1, 0]
    evals = np.linalg.eigvalsh(gamma)
    # Heisenberg: det >= 1/4 for any state
    assert evals[0] * evals[1] >= 0.25 - 1e-9


def test_state_fidelity_pure_pure():
    a = random_ket(15, seed=1)
    b = random_ket(15, seed=2)
    expected = abs(np.vdot(a.data, b.data)) ** 2
    assert abs(state_fidelity(a, b) - expected) < 1e-12
    assert abs(state_fidelity(a, a) - 1.0) < 1e-12


def test_state_fidelity_thermal_vacuum():
    # F(rho_th, |0><0|) = <0|rho_th|0> = 1/(1+n_th) up to truncation
    dim, n_th = 60, 0.5
    th = QuantumState.thermal(dim, n_th)
    vac = QuantumState.vacuum(dim)
    assert abs(state_fidelity(th, vac) - 1.0 / (1.0 + n_th)) < 1e-12
    assert abs(state_fidelity(vac, th) - state_fidelity(th, vac)) < 1e-12


def test_state_fidelity_mixed_branches_agree():
    pure = random_ket(12, seed=5)
    mixed = random_mixed(12, seed=6)
    fast = state_fidelity(pure, mixed)
    as_density = QuantumState.from_density_matrix(pure.density_matrix(), check_tail=False)
    general = state_fidelity(as_density, mixed)
    # the general branch goes through two eigendecompositions
    assert abs(fast - general) < 5e-8
    assert abs(state_fidelity(mixed, mixed) - 1.0) < 1e-8


def test_state_fidelity_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        state_fidelity(QuantumState.vacuum(8), QuantumState.vacuum(10))


# ---------------------------------------------------------------------------
# banded helpers


def test_apply_helpers_match_matrix_products():
    s = random_ket(22, seed=9)
    np.testing.assert_allclose(
        fock.apply_annihilation(s.data), annihilation(22).matrix @ s.data, atol=1e-14
    )
    np.testing.assert_allclose(
        fock.apply_creation(s.data), creation(22).matrix @ s.data, atol=1e-14
    )
    for theta in (0.0, 1.1):
        np.testing.assert_allclose(
            fock.apply_quadrature(s.data, theta),
            quadrature(22, theta).matrix @ s.data,
            atol=1e-14,
        )


# ---------------------------------------------------------------------------
# dimension doubling


def test_converge_dim_tracks_coherent_occupation():
    alpha = 2.0
    built = []

    def builder(dim: int) -> float:
        built.append(dim)
        pops = np.exp(-abs(alpha) ** 2) * abs(alpha) ** (2 * np.arange(dim))
        pops /= factorials(dim)
        return float(np.arange(dim) @ pops)

    occupation, dim = converge_dim(builder, lambda n: n, start_dim=8)
    assert abs(occupation - abs(alpha) ** 2) < 1e-8
    assert dim % 8 == 0 and dim > 8
    # each dim is built once, and the accepted build is returned, not rebuilt
    assert built == [8 * 2**i for i in range(len(built))] and built[-1] == dim


def test_converge_dim_passes_nan_sentinels():
    def builder(dim: int) -> np.ndarray:
        return np.array([np.nan, 1.0])

    figures, dim = converge_dim(builder, lambda f: f, start_dim=16)
    assert np.isnan(figures[0]) and figures[1] == 1.0
    assert dim == 32


def test_converge_dim_raises_without_convergence():
    with pytest.raises(TruncationError):
        converge_dim(lambda d: float(d), lambda f: f, start_dim=16, max_dim=128)


def test_identity_factory():
    np.testing.assert_array_equal(identity(5).matrix, np.eye(5, dtype=complex))
