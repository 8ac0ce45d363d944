"""Sensitivity figures: direct, QFI, method of moments, and the echo protocol."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from kerrsense import dynamics, fock, gaussian, metrology
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
    qfi_mixed,
    qfi_pure,
    sensitivity,
)


def random_ket(dim: int, seed: int) -> QuantumState:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v *= np.exp(-((np.arange(dim) / (dim / 4.0)) ** 2))
    return QuantumState.from_ket(v / np.linalg.norm(v), check_tail=False)


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
    comm = fock.expectation(state, fock.commutator(g, m))
    expected = abs(comm) ** 2 / fock.variance(state, m)
    assert abs(sensitivity(state, g, m) - expected) < 1e-10


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
    state = random_ket(20, seed=5)
    g = quadrature(20, 1.3)
    expected = 4.0 * fock.variance(state, g)
    assert abs(qfi_pure(state, g) - expected) < 1e-10
    # the spectral route must agree on pure states
    assert abs(qfi_generator(state, g) - expected) < 1e-8


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
        qfi_pure(state, quadrature(80, phi)) for phi in np.linspace(0.0, math.pi, 361)
    )
    assert rep.value >= best - 1e-9
    assert rep.value <= best + 1e-3 * best


def test_qfi_thermal_state():
    # isotropic: F_Q = 2/(1+2 n_T) for every direction
    n_th = 0.8
    th = QuantumState.thermal(60, n_th)
    expected = 2.0 / (1.0 + 2.0 * n_th)
    assert abs(qfi_max(th).value - expected) < 1e-9
    for phi in (0.0, 0.9):
        assert abs(qfi_generator(th, quadrature(60, phi)) - expected) < 1e-9


def test_qfi_mixed_agrees_with_pure_route():
    state = kerr_state(60, delta=0.0, eps=2.0, kt=0.3)
    as_mixed = QuantumState.from_density_matrix(state.density_matrix(), check_tail=False)
    pure_val = qfi_max(state).value
    mixed_val = qfi_mixed(as_mixed).value
    assert abs(mixed_val - pure_val) < 1e-7 * pure_val


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
    shifted = QuantumState.from_density_matrix(
        u @ rho.density_matrix() @ u.conj().T, check_tail=False
    )
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
        for op in moment_basis(16, order).operators:
            assert op.is_hermitian
    with pytest.raises(ValueError):
        moment_basis(16, 4)
    with pytest.raises(ValueError):
        moment_basis(16, 0)


def test_moment_basis_orders_share_cached_operators():
    b1, b2, b3 = (moment_basis(20, order) for order in (1, 2, 3))
    # lower orders are prefixes of order 3; a cache hit copies nothing
    assert all(a is b for a, b in zip(b2.operators, b3.operators[:5]))
    assert all(a is b for a, b in zip(b1.operators, b3.operators[:2]))
    assert all(a is b for a, b in zip(moment_basis(20, 3).operators, b3.operators))
    assert not any(op.matrix.flags.writeable for op in b3.operators)
    x = fock.position(20).matrix
    p = fock.momentum(20).matrix
    np.testing.assert_array_equal(b1.operators[0].matrix, x)
    np.testing.assert_allclose(b2.operators[4].matrix, (x @ p + p @ x) / 2.0, atol=1e-14)
    np.testing.assert_allclose(b3.operators[5].matrix, x @ x @ x, atol=1e-12)


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
    c = moment_matrices(state, moment_basis(96, 2))[0]
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
        state = QuantumState.from_ket(evecs[:, i].astype(complex), check_tail=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [moment_sensitivity(state, order).value for order in (1, 2, 3)]
        assert all(math.isfinite(v) and 0.0 <= v <= 1e-12 for v in values)


def test_moment_sensitivity_accepts_basis_or_order():
    state = kerr_state(60, delta=0.0, eps=2.0, kt=0.3)
    via_order = moment_sensitivity(state, 2).value
    via_basis = moment_sensitivity(state, moment_basis(60, 2)).value
    assert via_order == via_basis


def test_covariance_matrix_is_symmetric_psd():
    state = random_ket(24, seed=9)
    gamma = moment_matrices(state, moment_basis(24, 2))[1]
    np.testing.assert_allclose(gamma, gamma.T, atol=1e-12)
    assert np.linalg.eigvalsh(gamma)[0] > -1e-10


def test_moment_matrices_match_their_definitions():
    # C_ij = -i <[G_i, M_j]> and Gamma_ij = <{M_i, M_j}>/2 - <M_i><M_j>, one
    # expectation at a time, for a ket and for the same state as a matrix
    ket = random_ket(20, seed=4)
    basis = moment_basis(20, 3)
    ops = basis.operators
    means = [fock.expectation(ket, m).real for m in ops]
    c_ref = [
        [(-1j * fock.expectation(ket, fock.commutator(g, m))).real for m in ops] for g in ops[:2]
    ]
    gamma_ref = [
        [
            fock.expectation(ket, Operator((a.matrix @ b.matrix + b.matrix @ a.matrix) / 2.0)).real
            - means[i] * means[j]
            for j, b in enumerate(ops)
        ]
        for i, a in enumerate(ops)
    ]
    mixed = QuantumState.from_density_matrix(ket.density_matrix(), check_tail=False)
    for state in (ket, mixed):
        c, gamma = moment_matrices(state, basis)
        np.testing.assert_allclose(c, c_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gamma, gamma_ref, rtol=1e-12, atol=1e-12)


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
    op = metrology.readout_optimum(*metrology._mai_operator_route(state.ket, p, kt), sigma2)
    ((r, cov),) = metrology._mai_derivative_route(
        [state.density_matrix()], p, [kt], LossParams(0.0)
    )
    dv = metrology.readout_optimum(r, cov, sigma2)
    assert op.status == "ok" and dv.status == "ok"
    assert abs(op.value - dv.value) < 1e-12 * op.value
    assert abs(op.theta_opt - dv.theta_opt) % math.pi < 1e-9


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
    echo = scipy.linalg.expm(
        dynamics.liouvillian(dim, p, loss, reverse=True).toarray() * reversal_time
    )
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
    assert rep.status == "ok"
    rho = evolve_lindblad(QuantumState.vacuum(48), p, loss, 0.3)
    assert 0.0 < rep.value <= qfi_mixed(rho).value + 1e-6

