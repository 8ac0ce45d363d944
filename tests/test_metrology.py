"""Sensitivity figures: direct, QFI, method of moments, and the echo protocol."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from kerrsense import dynamics, fock, gaussian, harness, metrology
from kerrsense.dynamics import HamiltonianParams, LossParams, evolve_lindblad, evolve_unitary
from kerrsense.fock import Operator, QuantumState, quadrature
from kerrsense.metrology import (
    STANDARD_QUANTUM_LIMIT,
    DegenerateMeasurementError,
    DetectionNoise,
    linear_sensitivity,
    mai_sensitivity,
    moment_basis,
    moment_matrices,
    moment_sensitivity,
    noisy_linear_sensitivity,
    qfi_generator,
    qfi_max,
    sensitivity,
)


def random_ket(dim: int, seed: int) -> QuantumState:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v *= np.exp(-((np.arange(dim) / (dim / 4.0)) ** 2))
    return QuantumState.from_ket(v / np.linalg.norm(v))


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
    return QuantumState.from_density_matrix(rho)


def kerr_state(dim: int, delta: float, eps: float, kt: float) -> QuantumState:
    p = HamiltonianParams(delta=delta, epsilon=eps, kerr=1.0)
    return evolve_unitary(QuantumState.vacuum(dim), p, kt)


# ---------------------------------------------------------------------------
# direct sensitivity


def test_vacuum_reaches_the_standard_quantum_limit():
    vac = QuantumState.vacuum(24)
    got = sensitivity(vac, quadrature(24, math.pi / 2.0), quadrature(24, 0.0))
    assert abs(got - STANDARD_QUANTUM_LIMIT) < 1e-12
    assert abs(linear_sensitivity(vac).value - STANDARD_QUANTUM_LIMIT) < 1e-12


def test_sensitivity_matches_commutator_formula():
    state = random_ket(24, seed=2)
    g = quadrature(24, 0.7)
    m = quadrature(24, 2.1)
    other = random_ket(24, seed=3)
    mixed = QuantumState.from_density_matrix(
        0.7 * state.density_matrix() + 0.3 * other.density_matrix()
    )
    for s in (state, mixed):
        comm = fock.expectation(s, fock.commutator(g, m))
        expected = abs(comm) ** 2 / fock.variance(s, m)
        assert abs(sensitivity(s, g, m) - expected) < 1e-10


def test_sensitivity_validation():
    vac = QuantumState.vacuum(16)
    x = quadrature(16, 0.0)
    skew = Operator(1j * x.matrix)
    with pytest.raises(ValueError):
        sensitivity(vac, skew, x)
    with pytest.raises(fock.DimensionMismatchError):
        sensitivity(vac, quadrature(20, 0.0), x)
    # vacuum is a parity eigenstate: Var = 0 makes the ratio meaningless
    with pytest.raises(DegenerateMeasurementError):
        sensitivity(vac, x, fock.parity(16))


def test_linear_sensitivity_squeezed_vacuum():
    eps, t = 1.0, 0.25
    state = evolve_unitary(QuantumState.vacuum(80), HamiltonianParams(epsilon=eps), t)
    rep = linear_sensitivity(state)
    assert abs(rep.value - 2.0 * math.exp(4.0 * eps * t)) < 1e-7 * rep.value
    assert abs(rep.theta_opt - math.pi / 4.0) < 1e-7
    # generator a quarter turn from the measured quadrature
    assert abs(rep.phi_opt - 3.0 * math.pi / 4.0) < 1e-7
    assert abs(np.linalg.norm(rep.n_opt) - 1.0) < 1e-12


def test_noisy_linear_matches_gaussian_closed_form():
    eps, t = 1.0, 0.25  # r = 0.5
    state = evolve_unitary(QuantumState.vacuum(80), HamiltonianParams(epsilon=eps), t)
    g = gaussian.from_free_squeezing(eps, t)
    for sigma2 in (0.1, 1.0, 10.0):
        got = noisy_linear_sensitivity(state, DetectionNoise(sigma2)).value
        expected = gaussian.noisy_sensitivities(g, sigma2).chi
        assert abs(got - expected) < 1e-8 * expected


def test_detection_noise_validation():
    with pytest.raises(ValueError):
        DetectionNoise(-0.5)
    with pytest.raises(ValueError):
        DetectionNoise(math.nan)


# ---------------------------------------------------------------------------
# quantum Fisher information


def test_qfi_pure_is_four_variances():
    # a ket is the factor's one-column case: F_Q = 4 Var[G], and the best
    # direction gives 4 V_max
    state = random_ket(20, seed=5)
    g = quadrature(20, 1.3)
    expected = 4.0 * fock.variance(state, g)
    assert abs(qfi_generator(state, g) - expected) < 1e-12 * expected
    xp = (quadrature(20, 0.0), quadrature(20, math.pi / 2.0))
    cov = np.array([[fock.covariance(state, a, b) for b in xp] for a in xp])
    v_max = np.linalg.eigvalsh(cov)[1]
    assert abs(qfi_max(state).value - 4.0 * v_max) < 4e-12 * v_max
    with pytest.raises(ValueError, match="Hermitian generator"):
        qfi_generator(state, Operator(1j * g.matrix))


def test_qfi_max_squeezed_vacuum():
    eps, t = 1.0, 0.25  # r = 0.5
    state = evolve_unitary(QuantumState.vacuum(80), HamiltonianParams(epsilon=eps), t)
    rep = qfi_max(state)
    assert abs(rep.value - 2.0 * math.exp(1.0)) < 1e-7 * rep.value
    # optimal generator points along the anti-squeezed axis
    assert abs(rep.phi_opt - 3.0 * math.pi / 4.0) < 1e-7


def test_qfi_max_scans_all_directions():
    state = kerr_state(80, delta=1.0, eps=2.0, kt=0.4)
    rep = qfi_max(state)
    best = max(
        qfi_generator(state, quadrature(80, phi)) for phi in np.linspace(0.0, math.pi, 361)
    )
    assert rep.value >= best - 1e-9
    assert rep.value <= best + 1e-3 * best


def test_qfi_thermal_state():
    # isotropic: F_Q = 2/(1+2 n_T) for every direction.  The factor keeps
    # every level of the diagonal rho and no eigenvalue pair is cut, so this
    # holds to round-off, not to a cutoff.
    for n_th in (0.3, 0.8):
        th = QuantumState.thermal(60, n_th)
        expected = 2.0 / (1.0 + 2.0 * n_th)
        assert abs(qfi_max(th).value - expected) < 1e-13 * expected
        for phi in (0.0, 0.9):
            assert abs(qfi_generator(th, quadrature(60, phi)) - expected) < 1e-13 * expected


def test_qfi_mixed_agrees_with_pure_route():
    # a ket and its density matrix: one column against the factor of rho
    state = kerr_state(60, delta=0.0, eps=2.0, kt=0.3)
    as_mixed = QuantumState.from_density_matrix(state.density_matrix())
    pure_val = qfi_max(state).value
    mixed_val = qfi_max(as_mixed).value
    assert abs(mixed_val - pure_val) < 1e-10 * pure_val
    g = quadrature(60, 0.4)
    pure_g = qfi_generator(state, g)
    assert abs(qfi_generator(as_mixed, g) - pure_g) < 1e-10 * pure_g


def spectral_qfi_matrix(rho: np.ndarray, gens: list[np.ndarray]) -> np.ndarray:
    """Reference QFI matrix from the eigendecomposition of rho:
    F_ij = sum_kl 2 (l_k - l_l)^2 / (l_k + l_l) Re[(G_i)_kl (G_j)_lk], with
    the pairs whose eigenvalue sum is below 1e-12 left out."""
    lam, vecs = np.linalg.eigh(rho)
    lam = np.clip(lam, 0.0, None)
    s = lam[:, None] + lam
    weight = np.zeros_like(s)
    mask = s > 1e-12
    weight[mask] = 2.0 * (lam[:, None] - lam)[mask] ** 2 / s[mask]
    g_t = [vecs.conj().T @ g @ vecs for g in gens]
    return np.array([[np.sum(weight * (gi * gj.conj()).real) for gj in g_t] for gi in g_t])


def test_qfi_matches_the_spectral_sum_on_rho():
    rng = np.random.default_rng(31)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    a *= np.exp(-((np.arange(16) / 6.0) ** 2))[:, None]
    full_rank = QuantumState.from_density_matrix(a @ a.conj().T / np.trace(a @ a.conj().T))
    for state, rank in ((full_rank, 16), (random_mixed(20, seed=9), 4)):
        dim = state.dim
        assert state.factor().shape == (dim, rank)
        x, p = quadrature(dim, 0.0).matrix, quadrature(dim, math.pi / 2.0).matrix
        f = spectral_qfi_matrix(state.density_matrix(), [x, p])
        top = np.linalg.eigvalsh(f)[1]
        assert abs(qfi_max(state).value - top) < 1e-12 * top
        for phi in (0.0, 0.7, 2.2):
            g = quadrature(dim, phi)
            (expected,) = spectral_qfi_matrix(state.density_matrix(), [g.matrix])[0]
            assert abs(qfi_generator(state, g) - expected) < 1e-12 * expected


def test_a_density_matrix_is_decomposed_once(monkeypatch):
    # from_density_matrix makes the factor from the eigh that validates rho;
    # every figure of a lossy row then reads that factor
    dim = 32
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)
    rho = evolve_lindblad(QuantumState.vacuum(dim), p, LossParams(0.1), 0.3).density_matrix()
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        if np.shape(a) == (dim, dim):
            calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    state = QuantumState.from_density_matrix(rho)
    assert len(calls) == 1
    assert state.factor() is state.factor()
    (row,) = harness._state_rows(
        0.0, 2.0, 1.0, 0.1, 0.3, state, None, [0.0], with_k2=True, with_k3=True
    )
    assert len(calls) == 1
    assert row.chi2inv_3 is not None and row.f_q == qfi_max(state).value


def test_qfi_generator_matches_fidelity_susceptibility():
    # Bures expansion: F(rho, e^{-i d G} rho e^{i d G}) = 1 - d^2 F_Q / 8 + O(d^4).
    # The matrix-sqrt fidelity carries ~1e-9 absolute noise, which bounds the
    # usable step size from below; d = 2e-3 leaves ~1e-3 relative headroom.
    dim = 40
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)
    rho = evolve_lindblad(QuantumState.vacuum(dim), p, LossParams(0.2), 0.3)
    g = quadrature(dim, 0.6)
    delta = 2e-3
    u = scipy.linalg.expm(-1j * delta * g.matrix)
    shifted = QuantumState.from_density_matrix(u @ rho.density_matrix() @ u.conj().T)
    fid = fock.state_fidelity(rho, shifted)
    susceptibility = 8.0 * (1.0 - math.sqrt(fid)) / delta**2
    spectral = qfi_generator(rho, g)
    assert abs(spectral - susceptibility) < 1e-3 * spectral


def test_qfi_generator_rejects_non_hermitian():
    with pytest.raises(ValueError):
        qfi_generator(QuantumState.vacuum(12), Operator(1j * np.eye(12)))


# ---------------------------------------------------------------------------
# method of moments


def test_moment_basis_shapes():
    assert len(moment_basis(16, 1)) == 2
    assert len(moment_basis(16, 2)) == 5
    assert len(moment_basis(16, 3)) == 9
    for order in (1, 2, 3):
        for op in moment_basis(16, order):
            assert op.is_hermitian
    with pytest.raises(ValueError):
        moment_basis(16, 4)
    with pytest.raises(ValueError):
        moment_basis(16, 0)


def test_moment_basis_orders_are_prefixes_of_order_3():
    b1, b2, b3 = (moment_basis(20, order) for order in (1, 2, 3))
    for lower in (b1, b2):
        for a, b in zip(lower, b3):
            np.testing.assert_array_equal(a.matrix, b.matrix)
    assert not any(op.matrix.flags.writeable for op in b3)
    x = fock.position(20).matrix
    p = fock.momentum(20).matrix
    np.testing.assert_array_equal(b1[0].matrix, x)
    np.testing.assert_allclose(b2[4].matrix, (x @ p + p @ x) / 2.0, atol=1e-14)
    np.testing.assert_allclose(b3[5].matrix, x @ x @ x, atol=1e-12)


def test_moment_first_order_equals_linear_readout():
    for seed, kt in ((1, 0.2), (2, 0.45)):
        state = kerr_state(80, delta=float(seed), eps=2.0, kt=kt)
        linear = linear_sensitivity(state).value
        moments = moment_sensitivity(state, 1).value
        assert abs(moments - linear) < 1e-9 * linear


def test_second_order_buys_nothing_for_vacuum_evolved_states():
    # the prepared states have definite parity, so quadratic observables
    # cannot add signal
    rng = np.random.default_rng(11)
    for _ in range(5):
        delta = rng.uniform(-5.0, 5.0)
        eps = rng.uniform(0.0, 4.0)
        kt = rng.uniform(0.0, 0.6)
        state = kerr_state(96, delta=delta, eps=eps, kt=kt)
        chi1 = moment_sensitivity(state, 1).value
        chi2 = moment_sensitivity(state, 2).value
        assert abs(chi2 - chi1) <= 1e-8 * max(chi1, 1.0)


def test_commutator_block_vanishes_for_definite_parity():
    state = kerr_state(96, delta=1.5, eps=2.5, kt=0.35)
    c = moment_matrices(state, 2)[0]
    # columns of the quadratic observables: <[linear, quadratic]> has odd
    # parity, so a definite-parity state gives zero
    assert np.max(np.abs(c[:, 2:])) < 1e-10


def test_second_order_gains_for_displaced_states():
    # a Kerr-sheared coherent state has no parity protection; quadratic
    # observables see most of the remaining information
    state = evolve_unitary(
        QuantumState.coherent(60, 1.5), HamiltonianParams(kerr=1.0), 0.25
    )
    chi1 = moment_sensitivity(state, 1).value
    chi2 = moment_sensitivity(state, 2).value
    assert chi2 > chi1 + 1.0


def test_moment_hierarchy_and_cramer_rao():
    # chi1 <= chi2 <= chi3 <= F_Q to rounding: random kets, a near-vacuum
    # band whose order-3 covariance is ill-conditioned, and a lossy trajectory
    # from the vacuum (Kt = 0 makes the order >= 2 covariance singular)
    random_kets = [random_ket(24, seed=seed) for seed in range(6)]
    band = [
        kerr_state(64, delta=delta, eps=eps, kt=0.5)
        for delta in np.linspace(-10.0, 10.0, 9)
        for eps in (0.005, 0.01, 0.02, 0.03)
    ]
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)
    lossy = dynamics.evolve_vacuum(48, p, LossParams(0.1), [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    for state in random_kets + band + lossy:
        chain = [moment_sensitivity(state, order).value for order in (1, 2, 3)]
        chain.append(qfi_max(state).value)
        for lower, upper in zip(chain, chain[1:]):
            assert lower <= upper * (1.0 + 1e-12)


def test_moment_sensitivity_is_stable_across_dims():
    # a near-vacuum point whose order-3 covariance has condition ~4e9
    values = [
        moment_sensitivity(kerr_state(dim, delta=-9.605, eps=0.0217, kt=0.5), 3).value
        for dim in (32, 64, 128, 256)
    ]
    assert max(values) - min(values) <= 1e-12 * min(values)
    chi1 = linear_sensitivity(kerr_state(64, delta=-9.605, eps=0.0217, kt=0.5)).value
    assert min(values) >= chi1


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_moment_sensitivity_of_the_vacuum(gamma):
    # Kt = 0: the order >= 2 covariance is exactly singular (a^2 |0> = 0)
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)
    (vacuum,) = dynamics.evolve_vacuum(32, p, LossParams(gamma), [0.0])
    assert vacuum.is_pure == (gamma == 0.0)
    for order in (1, 2, 3):
        value = moment_sensitivity(vacuum, order).value
        assert abs(value - STANDARD_QUANTUM_LIMIT) < 1e-12


def test_moment_sensitivity_of_a_position_eigenstate():
    # an eigenstate of the truncated X: Var[X] = 0 and no observable of the
    # basis responds to a displacement, so every order gives 0
    evals, evecs = np.linalg.eigh(fock.position(16).matrix)
    for i in (0, 7, 8):
        state = QuantumState.from_ket(evecs[:, i].astype(complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [moment_sensitivity(state, order).value for order in (1, 2, 3)]
        assert all(math.isfinite(v) and 0.0 <= v <= 1e-12 for v in values)


def test_moment_sensitivity_reads_the_leading_block_of_a_higher_order_table():
    # the order-2 basis is the leading entries of the order-3 one, so one
    # order-3 table serves both orders, for pure and mixed states
    p = HamiltonianParams(delta=1.0, epsilon=2.0, kerr=1.0)
    lossy = evolve_lindblad(QuantumState.vacuum(32), p, LossParams(0.2), 0.3)
    for state in (kerr_state(60, delta=1.0, eps=2.0, kt=0.3), lossy):
        table = moment_matrices(state, 3)
        for order in (1, 2, 3):
            own = moment_sensitivity(state, order).value
            shared = moment_sensitivity(state, order, table).value
            assert shared == pytest.approx(own, rel=1e-12)


def test_moment_sensitivity_rejects_a_lower_order_table():
    # an order-2 table has 5 columns; order 3 needs 9 and must not answer
    # with the order-2 value
    state = kerr_state(48, delta=0.0, eps=2.0, kt=0.4)
    table = moment_matrices(state, 2)
    assert moment_sensitivity(state, 3).value > moment_sensitivity(state, 2).value + 1.0
    for order in (1, 2):
        moment_sensitivity(state, order, table)
    with pytest.raises(ValueError):
        moment_sensitivity(state, 3, table)
    with pytest.raises(ValueError):
        moment_sensitivity(state, 2, moment_matrices(state, 1))


def test_covariance_matrix_is_symmetric_psd():
    state = random_ket(24, seed=9)
    gamma = moment_matrices(state, 2)[1]
    np.testing.assert_allclose(gamma, gamma.T, atol=1e-12)
    assert np.linalg.eigvalsh(gamma)[0] > -1e-10


def test_moment_matrices_match_their_definitions():
    # C_ij = -i <[G_i, M_j]> and Gamma_ij = <{M_i, M_j}>/2 - <M_i><M_j>, one
    # dense expectation at a time, for a ket, the same state as a matrix, and
    # a full-rank lossy state (every column of the square-root factor counts)
    ops = moment_basis(24, 3)
    ket = random_ket(24, seed=4)
    p = HamiltonianParams(delta=0.4, epsilon=0.5, kerr=1.0)
    (lossy,) = dynamics.evolve_vacuum(24, p, LossParams(0.3), [0.5])
    for state in (ket, QuantumState.from_density_matrix(ket.density_matrix()), lossy):
        means = [fock.expectation(state, m).real for m in ops]
        c_ref = [
            [(-1j * fock.expectation(state, fock.commutator(g, m))).real for m in ops]
            for g in ops[:2]
        ]
        gamma_ref = [
            [
                fock.expectation(
                    state, Operator((a.matrix @ b.matrix + b.matrix @ a.matrix) / 2.0)
                ).real
                - means[i] * means[j]
                for j, b in enumerate(ops)
            ]
            for i, a in enumerate(ops)
        ]
        c, gamma = moment_matrices(state, 3)
        np.testing.assert_allclose(c, c_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gamma, gamma_ref, rtol=1e-12, atol=1e-12)


def test_moment_figures_leave_the_dense_basis_unbuilt(monkeypatch):
    # the figures apply the sparse stack; only moment_basis densifies it
    def dense(*args):
        raise AssertionError("dense moment basis built")

    monkeypatch.setattr(metrology, "moment_basis", dense)
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)
    (lossy,) = dynamics.evolve_vacuum(40, p, LossParams(0.1), [0.3])
    for state in (kerr_state(40, delta=0.0, eps=2.0, kt=0.3), lossy):
        for order in (1, 2, 3):
            moment_matrices(state, order)
            moment_sensitivity(state, order)


def _pinv_readout_value(c, gamma):
    # top eigenvalue of c Gamma^+ c^T on the entries whose variance is above
    # DEGENERATE_VARIANCE; 0 when none is
    keep = gamma.diagonal() > metrology.DEGENERATE_VARIANCE
    if not keep.any():
        return 0.0
    pinv = np.linalg.pinv(gamma[np.ix_(keep, keep)], rcond=1e-10, hermitian=True)
    return np.linalg.eigvalsh(c[:, keep] @ pinv @ c[:, keep].T)[-1]


def _readout_case(n: int, rank: int, seed: int):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, rank)) * np.logspace(0, -3, rank)
    gamma = b @ b.T + (1e-3 * np.eye(n) if rank == n else 0.0)
    # a response in the range of Gamma, where c Gamma^+ c^T is the supremum
    c = rng.normal(size=(2, n)) @ gamma
    return c, gamma


@pytest.mark.parametrize("n, rank", [(9, 9), (5, 5), (9, 4), (5, 2)])
def test_best_readout_matches_pseudo_inverse_oracle(n, rank):
    # full rank: Gamma and c enter uncopied; rank deficient: the equilibrated
    # eigenvalues below GAMMA_RANGE_RTOL of the largest are left out
    for seed in range(3):
        c, gamma = _readout_case(n, rank, seed)
        report = metrology.best_readout(c, gamma)
        expected = _pinv_readout_value(c, gamma)
        assert report.value == pytest.approx(expected, rel=1e-9)
        m = report.m_opt
        assert (c @ m) @ (c @ m) / (m @ gamma @ m) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_eigh_reads_the_lower_triangle_like_numpy(n):
    # LAPACK dsyevd on the lower triangle, called directly, as np.linalg.eigh does
    a = np.random.default_rng(n).normal(size=(n, n))
    lam, u = metrology._eigh(np.tril(a) + np.tril(a, -1).T + np.triu(a, 1))
    expected = np.linalg.eigh(np.tril(a) + np.tril(a, -1).T)
    np.testing.assert_allclose(lam, expected[0], rtol=0, atol=1e-13)
    np.testing.assert_allclose(np.abs(u), np.abs(expected[1]), rtol=0, atol=1e-12)


def test_eigh_raises_when_lapack_fails(monkeypatch):
    monkeypatch.setattr(metrology, "dsyevd", lambda a, lower: (a[0], a, 2))
    with pytest.raises(np.linalg.LinAlgError, match="info 2"):
        metrology._eigh(np.eye(3))


def test_best_readout_drops_degenerate_entries():
    # an entry of variance <= DEGENERATE_VARIANCE is dropped: the value and
    # directions are those of the remaining entries, to the bit, and the
    # dropped entry gets no weight
    c, gamma = _readout_case(5, 5, seed=11)
    keep = np.array([True, True, False, True, True])
    for variance in (0.0, metrology.DEGENERATE_VARIANCE):
        padded = gamma.copy()
        padded[~keep, :] = padded[:, ~keep] = 0.0
        padded[~keep, ~keep] = variance
        report = metrology.best_readout(c, padded)
        reduced = metrology.best_readout(c[:, keep], gamma[np.ix_(keep, keep)])
        assert report.value == reduced.value == pytest.approx(_pinv_readout_value(c, padded))
        assert np.array_equal(report.n_opt, reduced.n_opt)
        assert np.array_equal(report.m_opt[keep], reduced.m_opt) and report.m_opt[2] == 0.0


def test_best_readout_of_all_degenerate_entries_is_zero():
    c = np.ones((2, 3))
    for gamma in (np.zeros((3, 3)), np.diag([1e-14, 0.0, 1e-15])):
        report = metrology.best_readout(c, gamma)
        assert report.value == 0.0 == _pinv_readout_value(c, gamma)
        assert not report.m_opt.any()


def test_moment_report_directions():
    state = kerr_state(60, delta=0.0, eps=2.0, kt=0.3)
    rep = moment_sensitivity(state, 1)
    assert abs(np.linalg.norm(rep.n_opt) - 1.0) < 1e-12
    assert abs(np.linalg.norm(rep.m_opt) - 1.0) < 1e-12
    assert rep.theta_opt is not None
    assert moment_sensitivity(state, 2).theta_opt is None


# ---------------------------------------------------------------------------
# echo protocol


@pytest.mark.parametrize("sigma2", [0.0, 1.0])
@pytest.mark.parametrize("kt", [0.25, 0.3, 0.5, 0.6])
def test_mai_operator_and_derivative_routes_agree(kt, sigma2):
    # both routes are exact, so at gamma = 0 they agree to rounding
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)
    (state,) = dynamics.evolve_vacuum(48, p, LossParams(0.0), [kt])
    ((r, cov),) = metrology._mai_operator_route(state.ket[:, None], p, [kt], [kt])
    op = metrology.readout_optimum(r, cov, sigma2)
    ((r, cov),) = metrology._mai_derivative_route(
        [state.density_matrix()], p, [kt], LossParams(0.0)
    )
    dv = metrology.readout_optimum(r, cov, sigma2)
    assert abs(op.value - dv.value) < 1e-12 * op.value
    assert abs(op.theta_opt - dv.theta_opt) % math.pi < 1e-9


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_echo_responses_reject_mismatched_lengths(gamma):
    # gamma = 0 takes the perfect-echo overlaps, gamma > 0 the Heisenberg
    # readouts; neither may zip or broadcast lists of different lengths
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)
    loss = LossParams(gamma)
    states = dynamics.evolve_vacuum(32, p, loss, [0.3, 0.4])
    assert len(metrology.echo_responses(states, p, loss, [0.3, 0.4])) == 2
    for times, reversal_times in (([0.3, 0.4], [0.4]), ([0.3], [0.3, 0.4]), ([0.3], None)):
        with pytest.raises(ValueError):
            metrology.echo_responses(states, p, loss, times, reversal_times)


ECHO_DIM = 24
ECHO_PARAMS = HamiltonianParams(delta=0.4, epsilon=0.3, kerr=0.5)


def _dense_lossless_echo(t: float, reversal_time: float):
    """psi = exp(-i H t)|0> and its echo from dense expm: the response
    r[i, j] = i <psi|[G_i, U_tau M_j U_tau^dag]|psi> = d<M_j>/dd to the kick
    exp(-i d G_i), and the covariance of U_tau^dag psi."""
    h = dynamics.hamiltonian(ECHO_DIM, ECHO_PARAMS).matrix
    psi = scipy.linalg.expm(-1j * h * t)[:, 0]
    u_tau = scipy.linalg.expm(-1j * h * reversal_time)
    quads = [fock.position(ECHO_DIM).matrix, fock.momentum(ECHO_DIM).matrix]
    phi = u_tau.conj().T @ psi
    means = [np.vdot(phi, m @ phi).real for m in quads]
    cov = np.array(
        [[np.vdot(phi, (mi @ mj + mj @ mi) @ phi).real / 2.0 - means[i] * means[j]
          for j, mj in enumerate(quads)] for i, mi in enumerate(quads)]
    )
    evolved = [u_tau @ m @ u_tau.conj().T for m in quads]
    r = np.array([[(1j * np.vdot(psi, (g @ a - a @ g) @ psi)).real for a in evolved] for g in quads])
    return psi, r, cov


@pytest.mark.parametrize("reversal_time", [0.5, 0.35, 0.8])
def test_lossless_echo_matches_dense_oracle(reversal_time):
    # the perfect-echo overlaps (reversal_time = t) and the reversed state
    # U_(t - tau)|0> (tau != t) against dense expm
    dim, t, sigma2, p = ECHO_DIM, 0.5, 0.3, ECHO_PARAMS
    psi, r, cov = _dense_lossless_echo(t, reversal_time)
    ((got_r, got_cov),) = metrology._mai_operator_route(psi[:, None], p, [t], [reversal_time])
    np.testing.assert_allclose(got_r, r, rtol=0, atol=1e-12 * np.abs(r).max())
    np.testing.assert_allclose(got_cov, cov, rtol=0, atol=1e-13)
    if reversal_time == t:
        assert np.array_equal(got_cov, np.eye(2) / 2.0)
    expected = metrology.readout_optimum(r, cov, sigma2)
    got = mai_sensitivity(p, t, noise=DetectionNoise(sigma2), reversal_time=reversal_time, dim=dim)
    assert abs(got.value - expected.value) < 1e-12 * expected.value
    assert abs(got.theta_opt - expected.theta_opt) % math.pi < 1e-9


def test_lossless_echo_group_matches_dense_oracle():
    # a group's reversed kicks propagate in one call, each column for its own
    # reversal time, above, below and at its state's time
    times = [0.5, 0.3, 0.7, 0.45]
    reversal_times = [0.35, 0.6, 0.9, 0.45]
    oracles = [_dense_lossless_echo(t, tau) for t, tau in zip(times, reversal_times)]
    states = [QuantumState.from_ket(psi) for psi, _, _ in oracles]
    got = metrology.echo_responses(states, ECHO_PARAMS, LossParams(0.0), times, reversal_times)
    assert len(got) == len(times)
    for (got_r, got_cov), (_, r, cov) in zip(got, oracles):
        np.testing.assert_allclose(got_r, r, rtol=0, atol=1e-12 * np.abs(r).max())
        np.testing.assert_allclose(got_cov, cov, rtol=0, atol=1e-13)


@pytest.mark.parametrize("reversal_time", [0.5, 0.35])
def test_lossy_echo_matches_dense_schrodinger_oracle(reversal_time):
    # the Heisenberg route against the dense exp(L tau) applied to
    # (rho, -i[X, rho], -i[P, rho]) in the Schrodinger picture
    dim, t = 16, 0.5
    p = HamiltonianParams(delta=0.4, epsilon=0.3, kerr=0.5)
    loss = LossParams(0.3)
    vacuum = QuantumState.vacuum(dim).density_matrix().reshape(-1)
    forward = scipy.linalg.expm(dynamics.liouvillian(dim, p, loss).toarray() * t)
    rho = (forward @ vacuum).reshape(dim, dim)
    rho = (rho + rho.conj().T) / 2.0
    x, p_op = fock.position(dim).matrix, fock.momentum(dim).matrix
    columns = [rho, -1j * (x @ rho - rho @ x), -1j * (p_op @ rho - rho @ p_op)]
    negated = HamiltonianParams(delta=-p.delta, epsilon=-p.epsilon, kerr=-p.kerr)
    echo = scipy.linalg.expm(dynamics.liouvillian(dim, negated, loss).toarray() * reversal_time)
    evolved = [(echo @ c.reshape(-1)).reshape(dim, dim) for c in columns]
    cov = fock.quadrature_covariance(QuantumState.from_density_matrix(evolved[0]))
    a = fock.annihilation(dim).matrix
    da = np.array([np.trace(a @ e) for e in evolved[1:]])
    r = math.sqrt(2.0) * np.stack([da.real, da.imag], axis=1)
    expected = metrology.readout_optimum(r, cov, 0.0)
    got = mai_sensitivity(p, t, loss, reversal_time=reversal_time, dim=dim)
    assert abs(got.value - expected.value) < 1e-12 * expected.value
    assert abs(got.theta_opt - expected.theta_opt) % math.pi < 1e-9


def test_readout_optimum_is_the_best_angle():
    rng = np.random.default_rng(7)
    theta = np.arange(4096) * (math.pi / 4096)
    m = np.stack([np.cos(theta), np.sin(theta)])
    for sigma2 in (0.0, 0.3, 2.0):
        r = rng.normal(size=(2, 2))
        # a quadrature covariance: principal variances with V_min V_max >= 1/4
        angle = rng.uniform(0.0, math.pi)
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        cov = rot @ np.diag([rng.uniform(0.25, 1.0), rng.uniform(0.5, 2.0)]) @ rot.T
        rep = metrology.readout_optimum(r, cov, sigma2)

        def quotient(vecs):
            return np.sum((r @ vecs) ** 2, axis=0) / (np.sum(vecs * (cov @ vecs), axis=0) + sigma2)

        brute = float(np.max(quotient(m)))
        assert brute <= rep.value <= brute * (1.0 + 1e-6)
        assert abs(float(quotient(rep.m_opt[:, None])[0]) - rep.value) < 1e-12 * rep.value
        assert abs(np.linalg.norm(rep.m_opt) - 1.0) < 1e-12
        assert abs(rep.theta_opt - math.atan2(rep.m_opt[1], rep.m_opt[0]) % math.pi) < 1e-15


def test_mai_gaussian_limit_no_echo_gain():
    # kerr = 0: the echo reproduces the linear optimum 2 e^{2r}
    eps, t = 0.5, 0.5
    rep = mai_sensitivity(HamiltonianParams(epsilon=eps), t, dim=64)
    expected = gaussian.mai_gaussian(gaussian.from_free_squeezing(eps, t))
    assert abs(rep.value - expected) < 1e-8 * expected


def test_mai_noisy_ratio_matches_gaussian():
    eps, t, sigma2 = 0.5, 0.5, 1.0  # r = 0.5
    p = HamiltonianParams(epsilon=eps)
    noise = DetectionNoise(sigma2)
    state = evolve_unitary(QuantumState.vacuum(64), p, t)
    chi = noisy_linear_sensitivity(state, noise).value
    chi_mai = mai_sensitivity(p, t, noise=noise, dim=64).value
    expected = gaussian.noisy_sensitivities(gaussian.from_free_squeezing(eps, t), sigma2)
    assert abs(chi_mai / chi - expected.ratio) < 1e-6 * expected.ratio


def test_mai_beats_linear_readout_with_kerr():
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)
    t = 0.5
    state = evolve_unitary(QuantumState.vacuum(96), p, t)
    chi1 = linear_sensitivity(state).value
    rep = mai_sensitivity(p, t, dim=96)
    f_q = qfi_max(state).value
    assert chi1 < rep.value <= f_q + 1e-6
    # the wrapped-up state reads out far below the SQL without the echo
    assert chi1 < STANDARD_QUANTUM_LIMIT < rep.value


def test_mai_reversal_time_defaults_to_t():
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)
    imp = mai_sensitivity(p, 0.3, dim=48)
    exp = mai_sensitivity(p, 0.3, reversal_time=0.3, dim=48)
    assert imp.value == exp.value


def test_mai_lossy_respects_cramer_rao():
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)
    loss = LossParams(0.1)
    rep = mai_sensitivity(p, 0.3, loss=loss, dim=48)
    rho = evolve_lindblad(QuantumState.vacuum(48), p, loss, 0.3)
    assert 0.0 < rep.value <= qfi_max(rho).value + 1e-6

