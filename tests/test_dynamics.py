"""Closed and open evolution, squeezing figures, and their analytic oracles."""

import logging
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import expm_multiply

from kerrsense import dynamics, fock, gaussian
from kerrsense.config import default_config
from kerrsense.dynamics import (
    HamiltonianParams,
    LossParams,
    NoInteriorMinimumError,
    eigensystem,
    evolve_lindblad,
    evolve_unitary,
    hamiltonian,
    liouvillian,
    min_variance,
    optimal_squeezing,
    propagate,
    propagator,
    squeezing_trace,
    vacuum_trajectory,
)
from kerrsense.fock import QuantumState, TruncationError, TruncationWarning, ladder_moments


def test_params_validation():
    with pytest.raises(ValueError):
        HamiltonianParams(delta=math.nan)
    with pytest.raises(ValueError):
        HamiltonianParams(epsilon=math.inf)
    with pytest.raises(ValueError):
        LossParams(gamma=-0.1)
    # frozen dataclasses: no in-place edits
    p = HamiltonianParams(delta=1.0)
    with pytest.raises(Exception):
        p.delta = 2.0


def test_hamiltonian_matrix_structure():
    dim = 12
    p = HamiltonianParams(delta=0.7, epsilon=1.3, kerr=0.4)
    a = fock.annihilation(dim).matrix
    ad = a.conj().T
    expected = (
        p.delta * ad @ a
        + p.epsilon * (ad @ ad + a @ a)
        - p.kerr * ad @ ad @ a @ a
    )
    np.testing.assert_allclose(hamiltonian(dim, p).matrix, expected, atol=1e-12)
    assert hamiltonian(dim, p).is_hermitian


def test_propagator_matches_expm():
    dim = 36
    p = HamiltonianParams(delta=1.0, epsilon=2.0, kerr=1.0)
    u = propagator(dim, p, 0.3).matrix
    ref = scipy.linalg.expm(-1j * hamiltonian(dim, p).matrix * 0.3)
    np.testing.assert_allclose(u, ref, atol=1e-10)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-10)


def test_eigensystem_is_cached():
    # one (eigenvalues, eigenvectors) pair per photon-parity sector: the even
    # levels 0, 2, ..., 40 and the odd levels 1, 3, ..., 39 of dim 41
    p = HamiltonianParams(delta=0.5, epsilon=1.0, kerr=0.2)
    for parity, size in ((0, 21), (1, 20)):
        first = eigensystem(41, p, parity)
        second = eigensystem(41, p, parity)
        assert first[0] is second[0] and first[1] is second[1]
        assert first[0].shape == (size,) and first[1].shape == (size, size)
        assert first[1].dtype == np.float64
    assert eigensystem(41, p) is eigensystem(41, p, 0)
    with pytest.raises(ValueError):
        eigensystem(41, p, 2)


SECTOR_DIM = 64
SECTOR_PARAMS = HamiltonianParams(delta=0.7, epsilon=1.3, kerr=0.4)


def _dense_propagator(dim: int, p: HamiltonianParams, t: float) -> np.ndarray:
    return scipy.linalg.expm(-1j * hamiltonian(dim, p).matrix * t)


@pytest.mark.parametrize(
    "ket",
    [
        QuantumState.fock(SECTOR_DIM, 2).ket,  # even
        QuantumState.fock(SECTOR_DIM, 3).ket,  # odd
        QuantumState.coherent(SECTOR_DIM, 1.1 - 0.6j).ket,  # both parities
    ],
    ids=["even", "odd", "coherent"],
)
def test_sector_propagation_matches_expm(ket):
    t = 0.3
    u = _dense_propagator(SECTOR_DIM, SECTOR_PARAMS, t)
    np.testing.assert_allclose(propagate(ket, SECTOR_PARAMS, t), u @ ket, rtol=0, atol=1e-12)
    block = np.stack([ket, np.roll(ket, 1)], axis=1)
    np.testing.assert_allclose(propagate(block, SECTOR_PARAMS, t), u @ block, rtol=0, atol=1e-12)


def test_sector_propagation_of_thermal_density_matrix():
    t = 0.3
    rho = QuantumState.thermal(SECTOR_DIM, 1.5).density_matrix()
    u = _dense_propagator(SECTOR_DIM, SECTOR_PARAMS, t)
    np.testing.assert_allclose(
        propagate(rho, SECTOR_PARAMS, t, density=True), u @ rho @ u.conj().T, rtol=0, atol=1e-12
    )


def test_vacuum_evolution_never_solves_the_odd_sector():
    p = HamiltonianParams(delta=0.31, epsilon=1.7, kerr=0.9)  # used by no other test
    before = dynamics._eigensystem.cache_info().misses
    vacuum_trajectory(p, np.linspace(0.0, 0.4, 5), 48)
    evolve_unitary(QuantumState.vacuum(48), p, 0.4)
    assert dynamics._eigensystem.cache_info().misses == before + 1


def test_vacuum_trajectory_matches_dense_eigh():
    dim = 96
    p = HamiltonianParams(delta=-0.4, epsilon=1.2, kerr=0.6)
    t_grid = np.linspace(0.0, 0.8, 9)
    traj = vacuum_trajectory(p, t_grid, dim)
    evals, evecs = np.linalg.eigh(hamiltonian(dim, p).matrix)
    for i, t in enumerate(t_grid):
        ket = evecs @ (np.exp(-1j * evals * t) * evecs.conj()[0])
        np.testing.assert_allclose(traj.kets[:, i], ket, rtol=0, atol=1e-13)
        state = QuantumState.from_ket(ket)
        v_min, theta = min_variance(state)
        assert traj.v_min[i] == pytest.approx(v_min, rel=1e-11)
        assert traj.theta_opt[i] == pytest.approx(theta, abs=1e-9)
        assert traj.n_mean[i] == pytest.approx(ladder_moments(state)[2], rel=1e-11)
        assert traj.f_q[i] == pytest.approx(
            4.0 * float(np.linalg.eigvalsh(fock.quadrature_covariance(state))[1]), rel=1e-11
        )
        assert traj.tail[i] == pytest.approx(state.tail_population(), rel=1e-9, abs=1e-30)
    assert np.all(traj.kets[1::2] == 0.0)
    assert traj.dim == dim and traj.times is not None


def test_vacuum_trajectory_ideal_squeezing_at_dim_2560():
    # kerr = 0 on fig1's kt grid (the bare time): the dim that the K = 0
    # trace of fig1 climbs to
    eps = 2.0
    t = np.array(default_config("fig1").kt)
    traj = vacuum_trajectory(HamiltonianParams(epsilon=eps), t, 2560)
    np.testing.assert_allclose(traj.v_min, np.exp(-4.0 * eps * t) / 2.0, rtol=1e-9)
    np.testing.assert_allclose(traj.n_mean[1:], np.sinh(2.0 * eps * t[1:]) ** 2, rtol=1e-9)
    assert abs(traj.n_mean[0]) < 1e-20
    np.testing.assert_allclose(traj.f_q, 2.0 * np.exp(4.0 * eps * t), rtol=1e-9)
    np.testing.assert_allclose(traj.theta_opt[1:], math.pi / 4.0, rtol=1e-9)


def test_ideal_squeezing_law():
    # kerr = 0: V_min(t) = e^{-4 eps t}/2 at theta = pi/4, V_max = e^{+4 eps t}/2
    dim, eps, t = 80, 1.0, 0.2
    state = evolve_unitary(QuantumState.vacuum(dim), HamiltonianParams(epsilon=eps), t)
    v_min, theta = min_variance(state)
    assert abs(v_min - math.exp(-4.0 * eps * t) / 2.0) < 1e-10
    assert abs(theta - math.pi / 4.0) < 1e-8
    v_max = fock.variance(state, fock.quadrature(dim, theta + math.pi / 2.0))
    assert abs(v_max - math.exp(4.0 * eps * t) / 2.0) < 1e-8
    # minimum-uncertainty state: det of the covariance stays 1/4
    assert abs(v_min * v_max - 0.25) < 1e-10


def test_free_evolution_matches_gaussian_covariance():
    dim, eps, t = 100, 1.5, 0.25
    state = evolve_unitary(QuantumState.vacuum(dim), HamiltonianParams(epsilon=eps), t)
    expected = gaussian.covariance(gaussian.from_free_squeezing(eps, t))
    np.testing.assert_allclose(
        fock.quadrature_covariance(state), expected, rtol=1e-8, atol=1e-10
    )


def test_kerr_rotation_closed_form():
    # pure Kerr keeps populations and rotates coherences:
    # <a>(t) = alpha exp(|alpha|^2 (e^{2iKt} - 1)) for a coherent state
    dim, alpha, kerr, t = 60, 1.2, 0.7, 0.3
    p = HamiltonianParams(kerr=kerr)
    state = evolve_unitary(QuantumState.coherent(dim, alpha), p, t)
    got = ladder_moments(state)[0]
    expected = alpha * np.exp(abs(alpha) ** 2 * (np.exp(2j * kerr * t) - 1.0))
    assert abs(got - expected) < 1e-10
    np.testing.assert_allclose(
        state.populations(), QuantumState.coherent(dim, alpha).populations(), atol=1e-12
    )


def test_evolve_unitary_time_reversal():
    dim = 60
    p = HamiltonianParams(delta=0.5, epsilon=2.0, kerr=1.0)
    vac = QuantumState.vacuum(dim)
    there = evolve_unitary(vac, p, 0.4)
    back = evolve_unitary(there, p, -0.4)
    assert fock.state_fidelity(back, vac) > 1.0 - 1e-12


@pytest.mark.filterwarnings("ignore::kerrsense.fock.TruncationWarning")
def test_evolution_truncation_error():
    # free squeezing at r = 3.2 floods the top levels of a 32-level space
    with pytest.raises(TruncationError):
        evolve_unitary(QuantumState.vacuum(32), HamiltonianParams(epsilon=2.0), 0.8)


# ---------------------------------------------------------------------------
# Lindblad channel


def random_density(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rho = np.zeros((dim, dim), dtype=complex)
    for k in range(3):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v *= np.exp(-((np.arange(dim) / (dim / 4.0)) ** 2))
        v /= np.linalg.norm(v)
        rho += np.outer(v, v.conj()) / 3.0
    return rho


def test_liouvillian_matches_dense_generator():
    dim = 16
    p = HamiltonianParams(delta=0.3, epsilon=0.8, kerr=0.5)
    gamma = 0.25
    h = hamiltonian(dim, p).matrix
    a = fock.annihilation(dim).matrix
    n_op = a.conj().T @ a
    rho = random_density(dim, seed=12)
    expected = -1j * (h @ rho - rho @ h) + gamma * (
        a @ rho @ a.conj().T - 0.5 * (n_op @ rho + rho @ n_op)
    )
    lv = liouvillian(dim, p, LossParams(gamma))
    got = (lv @ rho.reshape(-1)).reshape(dim, dim)
    np.testing.assert_allclose(got, expected, atol=1e-12)
    # reverse flips the Hamiltonian only, never the dissipator
    lv_rev = liouvillian(dim, p, LossParams(gamma), reverse=True)
    expected_rev = 1j * (h @ rho - rho @ h) + gamma * (
        a @ rho @ a.conj().T - 0.5 * (n_op @ rho + rho @ n_op)
    )
    got_rev = (lv_rev @ rho.reshape(-1)).reshape(dim, dim)
    np.testing.assert_allclose(got_rev, expected_rev, atol=1e-12)


@pytest.mark.parametrize("reverse, transposed", [(False, False), (True, False), (True, True)])
def test_lindblad_parity_blocks(reverse, transposed):
    dim = 16
    p = HamiltonianParams(delta=0.3, epsilon=0.8, kerr=0.5)
    loss = LossParams(0.25)
    lv = liouvillian(dim, p, loss, reverse=reverse)
    lv = lv.T.tocsr() if transposed else lv
    # no entry couples rho_ij with i + j even to one with i + j odd
    parity = np.add.outer(np.arange(dim), np.arange(dim)).reshape(-1) % 2
    rows, cols = lv.nonzero()
    assert np.all(parity[rows] == parity[cols])
    even, odd = dynamics.liouvillian_blocks(dim, p, loss, reverse, transposed)
    assert even.shape == odd.shape == (dim * dim // 2, dim * dim // 2)

    rho = random_density(dim, seed=5).reshape(-1)
    assert np.any(rho[parity == 0]) and np.any(rho[parity == 1])
    times = [0.05, 0.3, 0.35]  # three non-uniform segments
    chained = dynamics.lindblad_trajectory(rho, p, loss, times, reverse, adjoint=transposed)
    for t, got in zip(times, chained):
        full = expm_multiply(lv * t, rho)
        one_shot = dynamics.lindblad_trajectory(rho, p, loss, [t], reverse, transposed)[0]
        np.testing.assert_allclose(one_shot, full, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, one_shot, rtol=0, atol=1e-12)


def test_lindblad_trajectory_rejects_unsorted_times():
    rho = QuantumState.vacuum(8).density_matrix().reshape(-1)
    with pytest.raises(ValueError):
        dynamics.lindblad_trajectory(rho, HamiltonianParams(), LossParams(0.1), [0.2, 0.1])


def test_lindblad_free_decay():
    # H = 0: a coherent state decays as alpha e^{-gamma t / 2}
    dim, alpha, gamma, t = 40, 1.5, 0.4, 0.8
    state = evolve_lindblad(
        QuantumState.coherent(dim, alpha), HamiltonianParams(), LossParams(gamma), t
    )
    mean_a, _, n_mean = ladder_moments(state)
    assert abs(mean_a - alpha * math.exp(-gamma * t / 2.0)) < 1e-9
    assert abs(n_mean - abs(alpha) ** 2 * math.exp(-gamma * t)) < 1e-9


def test_lindblad_preserves_trace_and_positivity():
    dim = 48
    p = HamiltonianParams(epsilon=2.0, kerr=1.0)
    loss = LossParams(0.1)
    state = QuantumState.vacuum(dim)
    for t in (0.1, 0.3, 0.5):
        rho = evolve_lindblad(state, p, loss, t).density_matrix()
        assert abs(np.trace(rho).real - 1.0) < 1e-11
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-11
        assert np.linalg.eigvalsh(rho)[0] > -1e-11


def test_lindblad_zero_loss_matches_unitary():
    dim = 48
    p = HamiltonianParams(delta=1.0, epsilon=2.0, kerr=1.0)
    t = 0.3
    unitary = evolve_unitary(QuantumState.vacuum(dim), p, t)
    lindblad = evolve_lindblad(QuantumState.vacuum(dim), p, LossParams(0.0), t)
    np.testing.assert_allclose(
        lindblad.density_matrix(), unitary.density_matrix(), atol=1e-9
    )


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_lindblad_matches_dense_expm(reverse):
    # a mixed start state under every term of the Liouvillian, against the
    # dense exponential of the full-space generator
    dim, t = 16, 0.35
    p = HamiltonianParams(delta=0.4, epsilon=0.3, kerr=0.5)
    loss = LossParams(0.3)
    thermal = QuantumState.thermal(dim, 0.3)
    lv = liouvillian(dim, p, loss, reverse=reverse).toarray()
    dense = (scipy.linalg.expm(lv * t) @ thermal.density_matrix().reshape(-1)).reshape(dim, dim)
    got = evolve_lindblad(thermal, p, loss, t, reverse=reverse)
    np.testing.assert_allclose(got.density_matrix(), dense, rtol=0, atol=1e-12)


def test_lindblad_zero_time_is_identity():
    dim = 30
    th = QuantumState.thermal(dim, 0.4)
    out = evolve_lindblad(th, HamiltonianParams(epsilon=1.0), LossParams(0.2), 0.0)
    np.testing.assert_allclose(out.density_matrix(), th.density_matrix(), atol=1e-14)


def test_lindblad_reverse_is_negated_hamiltonian():
    dim = 40
    p = HamiltonianParams(delta=0.5, epsilon=1.5, kerr=0.8)
    neg = HamiltonianParams(delta=-0.5, epsilon=-1.5, kerr=-0.8)
    t = 0.3
    state = evolve_unitary(QuantumState.vacuum(dim), p, 0.2)
    via_reverse = evolve_lindblad(state, p, LossParams(0.0), t, reverse=True)
    via_negation = evolve_unitary(state, neg, t)
    np.testing.assert_allclose(
        via_reverse.density_matrix(), via_negation.density_matrix(), atol=1e-9
    )


def test_lindblad_lossless_echo_returns_start():
    dim = 60
    p = HamiltonianParams(epsilon=2.0, kerr=1.0)
    vac = QuantumState.vacuum(dim)
    forward = evolve_lindblad(vac, p, LossParams(0.0), 0.4)
    echoed = evolve_lindblad(forward, p, LossParams(0.0), 0.4, reverse=True)
    assert fock.state_fidelity(echoed, vac) > 1.0 - 1e-9


EVOLVE_VACUUM_TIMES = [0.0, 0.05, 0.2, 0.2, 0.45]  # non-uniform, with 0 and a repeat


def test_evolve_vacuum_lossless_matches_evolve_unitary():
    dim = 48
    p = HamiltonianParams(delta=0.5, epsilon=1.0, kerr=0.8)
    states = dynamics.evolve_vacuum(dim, p, LossParams(0.0), EVOLVE_VACUUM_TIMES)
    assert len(states) == len(EVOLVE_VACUUM_TIMES)
    for t, state in zip(EVOLVE_VACUUM_TIMES, states):
        ref = evolve_unitary(QuantumState.vacuum(dim), p, t)
        assert state.is_pure
        np.testing.assert_allclose(state.data, ref.data, rtol=0, atol=1e-13)


def test_evolve_vacuum_lossy_matches_evolve_lindblad():
    dim = 32
    p = HamiltonianParams(delta=0.5, epsilon=1.0, kerr=0.8)
    loss = LossParams(0.2)
    states = dynamics.evolve_vacuum(dim, p, loss, EVOLVE_VACUUM_TIMES)
    assert len(states) == len(EVOLVE_VACUUM_TIMES)
    for t, state in zip(EVOLVE_VACUUM_TIMES, states):
        ref = evolve_lindblad(QuantumState.vacuum(dim), p, loss, t)
        assert not state.is_pure
        np.testing.assert_allclose(
            state.density_matrix(), ref.density_matrix(), rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("gamma", [0.0, 0.1], ids=["lossless", "lossy"])
def test_evolve_vacuum_keeps_the_truncation_checks(gamma):
    # free squeezing in 32 levels: the tail holds ~1e-6 at t = 0.2 and
    # floods past EVOLUTION_TAIL_ERROR by t = 0.8
    p = HamiltonianParams(epsilon=2.0)
    with pytest.warns(TruncationWarning):
        dynamics.evolve_vacuum(32, p, LossParams(gamma), [0.0, 0.2])
    with pytest.warns(TruncationWarning), pytest.raises(TruncationError):
        dynamics.evolve_vacuum(32, p, LossParams(gamma), [0.0, 0.2, 0.8])


def test_lindblad_rejects_negative_time():
    with pytest.raises(ValueError):
        evolve_lindblad(
            QuantumState.vacuum(16), HamiltonianParams(), LossParams(0.1), -0.1
        )


# ---------------------------------------------------------------------------
# squeezing figures


def test_min_variance_angle_range():
    dim = 60
    for eps, t in ((1.0, 0.1), (2.0, 0.2)):
        state = evolve_unitary(QuantumState.vacuum(dim), HamiltonianParams(epsilon=eps), t)
        v_min, theta = min_variance(state)
        assert 0.0 <= theta < math.pi
        assert v_min < 0.5


def test_min_variance_vacuum_degenerate():
    v_min, theta = min_variance(QuantumState.vacuum(20))
    assert abs(v_min - 0.5) < 1e-12
    assert 0.0 <= theta < math.pi


def test_squeezing_trace_matches_pointwise_evolution():
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)
    t_grid = np.linspace(0.0, 0.4, 9)
    trace = squeezing_trace(p, t_grid, dim=80)
    assert trace.dim == 80
    assert trace.v_min[0] == pytest.approx(0.5, abs=1e-12)
    for i, t in enumerate(t_grid):
        state = evolve_unitary(QuantumState.vacuum(80), p, float(t))
        v_ref, theta_ref = min_variance(state)
        assert abs(trace.v_min[i] - v_ref) < 1e-10
        assert abs(trace.theta_opt[i] - theta_ref) < 1e-8


def test_squeezing_trace_auto_dim_converges():
    p = HamiltonianParams(epsilon=2.0, kerr=1.0)
    trace = squeezing_trace(p, np.linspace(0.0, 0.3, 4))
    assert trace.dim >= 80
    ref = squeezing_trace(p, np.linspace(0.0, 0.3, 4), dim=2 * trace.dim)
    np.testing.assert_allclose(trace.v_min, ref.v_min, rtol=1e-7)


def test_squeezing_trace_logs_the_dimension_ladder(caplog):
    p = HamiltonianParams(epsilon=2.0, kerr=1.0)
    with caplog.at_level(logging.DEBUG, logger="kerrsense"):
        trace = squeezing_trace(p, np.linspace(0.0, 0.3, 4))
    messages = [r.getMessage() for r in caplog.records if r.name == "kerrsense.fock"]
    assert messages[0] == "converge_dim: tried dim 48"
    assert messages[1].startswith("converge_dim: tried dim 96, max relative change ")
    assert messages[-1].startswith(f"converge_dim: accepted dim {trace.dim} ")
    assert all(r.levelno == logging.DEBUG for r in caplog.records)


def test_squeezing_trace_warns_on_truncation_tail():
    p = HamiltonianParams(epsilon=2.0)
    with pytest.warns(TruncationWarning):
        squeezing_trace(p, np.linspace(0.0, 0.5, 6), dim=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        squeezing_trace(p, np.linspace(0.0, 0.5, 6), dim=2560)


def test_squeezing_trace_rejects_bad_grid():
    p = HamiltonianParams(epsilon=1.0)
    with pytest.raises(ValueError):
        squeezing_trace(p, np.array([]), dim=40)
    with pytest.raises(ValueError):
        squeezing_trace(p, np.zeros((2, 2)), dim=40)


def test_optimal_squeezing_interior_minimum():
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)
    chi, t_opt = optimal_squeezing(p, dim=100)
    # the optimum must beat every point of a fine independent scan
    scan = squeezing_trace(p, np.linspace(0.01, 0.99, 99), dim=100)
    assert 1.0 / chi <= float(np.min(scan.v_min)) + 1e-10
    assert 0.0 < t_opt < 1.0
    # Kerr wrap-around caps the squeezing well above the ideal law
    assert chi > 4.0


def test_optimal_squeezing_requires_kerr():
    with pytest.raises(NoInteriorMinimumError):
        optimal_squeezing(HamiltonianParams(epsilon=2.0), dim=60)
    # monotone window: no interior minimum inside a tiny scan either
    with pytest.raises(NoInteriorMinimumError):
        optimal_squeezing(
            HamiltonianParams(epsilon=2.0, kerr=1.0), t_max=0.01, dim=60
        )
