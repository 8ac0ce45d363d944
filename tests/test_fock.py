"""Operator algebra, state constructors, and moments on the truncated space."""

import gc
import logging
import math
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg

from kerrsense import fock
from kerrsense.dynamics import HamiltonianParams, evolve_unitary
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
from kerrsense.harness import _row_figures, evaluate_point
from kerrsense.wigner import position_distribution


def random_ket(dim: int, seed: int) -> QuantumState:
    # Gaussian envelope keeps the top Fock levels empty, as any converged
    # physical truncation would.
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v *= np.exp(-((np.arange(dim) / (dim / 4.0)) ** 2))
    return QuantumState.from_ket(v / np.linalg.norm(v))


def random_density_matrix(dim: int, seed: int, rank: int = 4) -> np.ndarray:
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, size=rank)
    w /= w.sum()
    rho = np.zeros((dim, dim), dtype=complex)
    for k in range(rank):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v *= np.exp(-((np.arange(dim) / (dim / 4.0)) ** 2))
        v /= np.linalg.norm(v)
        rho += w[k] * np.outer(v, v.conj())
    return rho


def random_mixed(dim: int, seed: int, rank: int = 4) -> QuantumState:
    return QuantumState.from_density_matrix(random_density_matrix(dim, seed, rank))


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


def test_large_displacement_is_judged_by_the_state_tail():
    # displacement() judges no truncation; the tail of the state it displaces
    # goes through check_tail, which fails this one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = displacement(10, 3.0)
    state = QuantumState.from_ket(d.matrix[:, 0])
    with pytest.warns(TruncationWarning), pytest.raises(TruncationError):
        fock.check_tail(state.tail_population())


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
    with pytest.raises(ValueError, match="must be square"):
        Operator(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        Operator(np.diag([1.0, np.inf]))
    with pytest.raises(ValueError, match="asserted Hermitian"):
        Operator(annihilation(4).matrix, hermitian=True)


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
    # |alpha|^2 = 100 at dim 512: the ket's measured tail is negligible, and
    # neither the ket nor displacement() warns
    dim, alpha = 512, 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = QuantumState.coherent(dim, alpha)
        displacement(dim, alpha)
    n = np.arange(dim)
    log_amp = -alpha**2 / 2.0 + n * math.log(alpha) - 0.5 * np.array([math.lgamma(k + 1) for k in n])
    np.testing.assert_allclose(s.ket.real, np.exp(log_amp), rtol=0, atol=1e-12)
    assert np.max(np.abs(s.ket.imag)) < 1e-12


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
    # constructors only validate: the top two levels hold 0.4, and it builds
    # without a warning (truncation is judged by fock.check_tail)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
    with pytest.raises(ValueError, match="must be square"):
        QuantumState.from_density_matrix(good[:2])
    with pytest.raises(ValueError, match="non-finite"):
        QuantumState.from_density_matrix(np.diag([1.0, np.nan, 0.0]))


def test_tail_population_warning():
    with pytest.warns(TruncationWarning):
        QuantumState.coherent(12, 3.0)


def test_mixed_state_accessors():
    s = QuantumState.thermal(16, 0.3)
    assert not s.is_pure
    with pytest.raises(ValueError):
        _ = s.ket
    np.testing.assert_allclose(s.density_matrix(), np.diag(s.populations()), rtol=0, atol=1e-17)
    # the factor W has one column per eigenvalue above round-off, the four
    # kets of the mixture here; W is all the state holds, and W W^dag comes
    # back exactly Hermitian and within round-off of the input rho
    rho = random_density_matrix(20, seed=9)
    mixed = QuantumState.from_density_matrix(rho)
    w, got = mixed.factor(), mixed.density_matrix()
    assert w.shape == (20, 4)
    assert np.array_equal(got, got.conj().T)
    np.testing.assert_allclose(got, w @ w.conj().T, rtol=0, atol=1e-14)
    np.testing.assert_allclose(got, rho, rtol=0, atol=1e-13)


def test_pure_state_accessors():
    s = random_ket(16, seed=2)
    assert s.purity() == 1.0
    np.testing.assert_array_equal(s.factor()[:, 0], s.ket)
    vacuum = QuantumState.coherent(16, 0)
    assert vacuum.is_pure
    np.testing.assert_array_equal(vacuum.ket, QuantumState.vacuum(16).ket)


def test_ket_and_its_density_matrix_agree_through_the_factor():
    # one path for both kinds: the ket as one column and the factor of its
    # outer product give the same figures
    dim = 30
    rng = np.random.default_rng(12)
    v = np.zeros(dim, dtype=complex)
    v[:12] = rng.normal(size=12) + 1j * rng.normal(size=12)
    pure = QuantumState.from_ket(v / np.linalg.norm(v))
    mixed = QuantumState.from_density_matrix(pure.density_matrix())
    assert not mixed.is_pure
    assert mixed.factor().shape == (dim, 1)
    x, p, a = position(dim), momentum(dim), annihilation(dim)
    assert abs(expectation(pure, a) - expectation(mixed, a)) < 1e-13
    assert abs(covariance(pure, x, p) - covariance(mixed, x, p)) < 1e-13
    assert abs(variance(pure, x) - variance(mixed, x)) < 1e-13
    grid = np.linspace(-5.0, 5.0, 41)
    np.testing.assert_allclose(
        position_distribution(pure, grid), position_distribution(mixed, grid), rtol=0, atol=1e-13
    )
    params = HamiltonianParams(delta=0.3, epsilon=0.8, kerr=0.5)
    evolved_pure = evolve_unitary(pure, params, 0.1)
    evolved_mixed = evolve_unitary(mixed, params, 0.1)
    assert evolved_pure.is_pure and not evolved_mixed.is_pure
    np.testing.assert_allclose(
        evolved_pure.density_matrix(), evolved_mixed.density_matrix(), rtol=0, atol=1e-13
    )


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


def test_variance_and_covariance_reject_non_hermitian_operators():
    s = QuantumState.vacuum(8)
    with pytest.raises(ValueError, match="variance requires a Hermitian operator"):
        variance(s, annihilation(8))
    with pytest.raises(ValueError, match="covariance requires Hermitian operators"):
        covariance(s, position(8), annihilation(8))


def test_ladder_moments_match_dense():
    a_op = annihilation(24)
    a = a_op.matrix
    for state in (random_ket(24, seed=3), random_mixed(24, seed=4), QuantumState.thermal(24, 0.7)):
        rho = state.density_matrix()
        ma = np.trace(rho @ a)
        maa = np.trace(rho @ a @ a)
        n_mean = np.trace(rho @ a.conj().T @ a).real
        got_a, got_aa, got_n = ladder_moments(state)
        assert abs(got_a - ma) < 1e-12
        assert abs(got_aa - maa) < 1e-12
        assert abs(got_n - n_mean) < 1e-12
        # the banded sums over W's columns against Tr[W^dag A W]
        want = [expectation(state, op) for op in (a_op, a_op @ a_op, number_operator(24))]
        np.testing.assert_allclose((got_a, got_aa, got_n), want, rtol=0, atol=1e-13)


def test_ket_block_moments_match_per_ket():
    block = np.stack([random_ket(30, seed).ket for seed in (1, 2, 3)], axis=1)
    ma, ma2, mn = ket_ladder_moments(block)
    cov = fock.covariance_from_moments(ma, ma2, mn)
    assert cov.shape == (3, 2, 2)
    for j in range(3):
        state = QuantumState.from_ket(block[:, j])
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
    expected = abs(np.vdot(a.ket, b.ket)) ** 2
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
    as_density = QuantumState.from_density_matrix(pure.density_matrix())
    general = state_fidelity(as_density, mixed)
    # the factor of a rank-1 density matrix leaves out its round-off
    # eigenvalues, whose square roots would be ~3e-9
    assert abs(fast - general) < 1e-12
    assert abs(state_fidelity(mixed, mixed) - 1.0) < 1e-8


def _sqrtm_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    root = scipy.linalg.sqrtm(a)
    return float(np.trace(scipy.linalg.sqrtm(root @ b @ root)).real ** 2)


def test_state_fidelity_matches_sqrtm():
    dim = 40
    cold, warm = QuantumState.thermal(dim, 0.5), QuantumState.thermal(dim, 1.2)
    expected = _sqrtm_fidelity(cold.density_matrix(), warm.density_matrix())
    assert abs(state_fidelity(cold, warm) - expected) < 1e-12
    assert abs(state_fidelity(warm, cold) - expected) < 1e-12
    # a rank-1 density matrix holds as its ket does
    ket = random_ket(dim, seed=3)
    rank1 = QuantumState.from_density_matrix(ket.density_matrix())
    exact = float(np.vdot(ket.ket, warm.density_matrix() @ ket.ket).real)
    assert abs(state_fidelity(ket, warm) - exact) < 1e-12
    assert abs(state_fidelity(rank1, warm) - exact) < 1e-12


def test_state_fidelity_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        state_fidelity(QuantumState.vacuum(8), QuantumState.vacuum(10))


# ---------------------------------------------------------------------------
# banded helpers


def test_apply_helpers_match_matrix_products():
    # a ket, and blocks of kets as columns: at 21 = dim - 1 columns, level
    # factors broadcast along the wrong axis would go through without an error
    ket = random_ket(22, seed=9).ket
    blocks = [np.stack([random_ket(22, seed=10 + j).ket for j in range(k)], axis=1)
              for k in (3, 21)]
    for psi in [ket] + blocks:
        for theta in (0.0, 1.1):
            np.testing.assert_allclose(
                fock.apply_quadrature(psi, theta),
                quadrature(22, theta).matrix @ psi,
                atol=1e-14,
            )


# ---------------------------------------------------------------------------
# dimension ladder


def ladder_from(dim: int, count: int) -> list[int]:
    """dim and the count - 1 rungs above it (fock.next_dim)."""
    rungs = [dim]
    while len(rungs) < count:
        rungs.append(fock.next_dim(rungs[-1]))
    return rungs


def test_dim_ladder_rungs_grow_by_a_quarter_in_steps_of_16():
    # the one pin of the ladder: every other test reads its rungs from
    # next_dim and ladder_dim, so a ladder change fails here alone
    assert (fock.DIM_STEP, fock.DIM_GROWTH) == (16, 1.25)
    assert ladder_from(16, 9) == [16, 32, 48, 64, 80, 112, 144, 192, 240]


def test_dim_ladder_rungs_are_step_multiples_above_the_growth():
    step, growth = fock.DIM_STEP, fock.DIM_GROWTH
    rungs = [r for r in ladder_from(step, 40) if r <= 5120]
    for lower, upper in zip(rungs, rungs[1:]):
        # DIM_GROWTH x the rung below, rounded up to the next multiple of DIM_STEP
        assert upper % step == 0
        assert growth * lower <= upper < growth * lower + step
    # ladder_dim rounds up to a rung
    assert [fock.ladder_dim(r) for r in rungs] == rungs
    assert [fock.ladder_dim(r + 1) for r in rungs[:-1]] == rungs[1:]
    assert fock.ladder_dim(0.0) == step


def test_converge_dim_tracks_coherent_occupation():
    alpha = 2.0
    built = []

    def coherent_pops(dim: int) -> np.ndarray:
        pops = np.exp(-abs(alpha) ** 2) * abs(alpha) ** (2 * np.arange(dim))
        return pops / factorials(dim)

    def builder(dim: int) -> np.ndarray:
        built.append(dim)
        return coherent_pops(dim)

    pops, dim = converge_dim(
        builder, lambda p: np.arange(p.size) @ p, fock.tail_populations, start_dim=8
    )
    assert abs(np.arange(dim) @ pops - abs(alpha) ** 2) < 1e-8
    assert dim % fock.DIM_STEP == 0 and dim > 8
    # the first rung whose tail holds the guard (from 8: 32) is confirmed by
    # the rung above it; each rung is built once, and the accepted build is
    # returned, not rebuilt
    lower = 8
    while fock.tail_populations(coherent_pops(lower)) >= fock.AUTO_DIM_TAIL:
        lower = fock.next_dim(lower)
    assert built == ladder_from(8, len(built)) and built[-2:] == [lower, dim]


def test_converge_dim_tail_guard_rejects_agreeing_rungs(caplog):
    # the figure is the same at every rung, but the rungs below the third
    # one from 16 (48) keep 1e-10 in their tails: two of them agreeing
    # proves nothing
    rungs = ladder_from(16, 4)

    def builder(dim: int) -> tuple[int, float]:
        return dim, 1e-10 if dim < rungs[2] else 0.0

    with caplog.at_level(logging.DEBUG, logger="kerrsense.fock"):
        _, dim = converge_dim(builder, lambda r: 1.0, lambda r: r[1], start_dim=16)
    messages = [r.getMessage() for r in caplog.records]
    assert dim == rungs[3]
    assert messages[1] == (
        f"converge_dim: tried dim {rungs[1]}, max relative change 0.000e+00, "
        f"tail at dim {rungs[0]} 1.000e-10 (guard 1e-12 failed)"
    )
    assert messages[3].endswith(f"tail at dim {rungs[2]} 0.000e+00 (guard 1e-12 held)")
    assert messages[4] == f"converge_dim: accepted dim {rungs[3]} (rel_tol 1.0e-07)"


def test_converge_dim_frees_each_rung_before_building_the_next():
    # the climb keeps a rung's figures and tail, not its result: at fig1's
    # K = 0 trace that result is a dim-768 trajectory, alive for nothing
    # while dim 960 is built
    class Rung:
        def __init__(self, dim: int):
            self.dim = dim

    refs, alive = [], []

    def builder(dim: int) -> Rung:
        gc.collect()
        alive.append([ref().dim for ref in refs if ref() is not None])
        rung = Rung(dim)
        refs.append(weakref.ref(rung))
        return rung

    # the figure stops changing at the rung above 16, so the one above that
    # (48) is accepted
    second = fock.next_dim(16)
    rung, dim = converge_dim(builder, lambda r: min(r.dim, second), lambda r: 0.0, start_dim=16)
    assert (rung.dim, dim) == (fock.next_dim(second),) * 2
    assert alive == [[], [], []]


def test_converge_dim_passes_nan_sentinels():
    def builder(dim: int) -> np.ndarray:
        return np.array([np.nan, 1.0])

    figures, dim = converge_dim(builder, lambda f: f, lambda f: 0.0, start_dim=16)
    assert np.isnan(figures[0]) and figures[1] == 1.0
    assert dim == fock.next_dim(16)


def test_converge_dim_raises_without_convergence():
    with pytest.raises(TruncationError):
        converge_dim(lambda d: float(d), lambda f: f, lambda f: 0.0, start_dim=16, max_dim=128)


def test_fig2_grid_converges_in_two_passes(monkeypatch):
    # a 6 x 6 sample of the fig2 map with k3: initial_dim starts every point
    # at its support, so the second rung confirms the first, and the
    # accepted figures hold against 2 x the accepted dim
    passes = []
    converge = fock.converge_dim

    def counting(build, *args):
        built = []
        result = converge(lambda d: built.append(d) or build(d), *args)
        passes.append(len(built))
        return result

    monkeypatch.setattr(fock, "converge_dim", counting)
    for delta in np.linspace(-10.0, 10.0, 6):
        for epsilon in np.linspace(0.0, 5.0, 6):
            point = (delta, epsilon, 1.0, 0.0, 0.5)
            row = evaluate_point(*point, with_k3=True)
            ref = evaluate_point(*point, dim=2 * row.dim, with_k3=True)
            np.testing.assert_allclose(
                _row_figures(row), _row_figures(ref), rtol=fock.AUTO_DIM_RTOL, err_msg=str(point)
            )
    assert passes == [2] * 36


def test_identity_factory():
    np.testing.assert_array_equal(identity(5).matrix, np.eye(5, dtype=complex))
