"""Closed and open evolution, squeezing figures, and their analytic oracles."""

import cmath
import dataclasses
import logging
import math
import re
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
    quadrature_extremes,
    squeezing_trace,
    vacuum_trajectory,
)
from kerrsense.fock import (
    QuantumState,
    TruncationError,
    TruncationWarning,
    ladder_moments,
    next_dim,
)


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


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize(
    "dim, p",
    [
        (2, HamiltonianParams(delta=0.7, epsilon=1.3, kerr=0.4)),  # 1-level sectors
        (3, HamiltonianParams(delta=0.7, epsilon=1.3, kerr=0.4)),  # odd: 1 level
        (48, HamiltonianParams(delta=1.3, epsilon=2.1, kerr=1.0)),
        (80, HamiltonianParams(delta=-9.6, epsilon=4.9, kerr=1.0)),
        (960, HamiltonianParams(epsilon=2.0)),  # fig1's K = 0 trace
    ],
)
def test_eigensystem_is_eigh_tridiagonal_bit_for_bit(dim, p, parity):
    # LAPACK dstevd, called directly, is the driver eigh_tridiagonal picks for
    # all eigenpairs; a 1-level sector is that wrapper's quick exit
    h = hamiltonian(dim, p).matrix.real
    expected = scipy.linalg.eigh_tridiagonal(np.diag(h)[parity::2], np.diag(h, 2)[parity::2])
    evals, evecs = eigensystem(dim, p, parity)
    assert np.array_equal(evals, expected[0]) and np.array_equal(evecs, expected[1])
    assert not evals.flags.writeable and not evecs.flags.writeable


def test_eigensystem_raises_when_lapack_fails(monkeypatch):
    def failed(d, e):
        return d, np.eye(d.size), 3

    monkeypatch.setattr(dynamics, "dstevd", failed)
    with pytest.raises(np.linalg.LinAlgError, match="info 3"):
        dynamics._eigensystem.__wrapped__(8, 0.3, 0.2, 0.1, 0)


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
    # one time per column, negative ones included, each column against its own expm
    times = [0.3, -0.45]
    evolved = propagate(block, SECTOR_PARAMS, times)
    for k, tk in enumerate(times):
        expected = _dense_propagator(SECTOR_DIM, SECTOR_PARAMS, tk) @ block[:, k]
        np.testing.assert_allclose(evolved[:, k], expected, rtol=0, atol=1e-12)


def test_mixed_unitary_evolution_keeps_the_factor(monkeypatch):
    # U W is the evolved state's factor: no dim x dim eigh rebuilds it
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)
    state = evolve_lindblad(QuantumState.vacuum(SECTOR_DIM), p, LossParams(0.1), 0.3)
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        if np.shape(a) == (SECTOR_DIM, SECTOR_DIM):
            calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    t = 0.4
    evolved = evolve_unitary(state, SECTOR_PARAMS, t)
    assert calls == []
    u = _dense_propagator(SECTOR_DIM, SECTOR_PARAMS, t)
    np.testing.assert_allclose(evolved.factor(), u @ state.factor(), rtol=0, atol=1e-12)
    rho = evolved.density_matrix()
    assert np.array_equal(rho, rho.conj().T)
    expected = u @ state.density_matrix() @ u.conj().T
    np.testing.assert_allclose(rho, expected, rtol=0, atol=1e-12)


def test_lindblad_state_density_matrix_matches_the_evolved_vector():
    # the state keeps only its factor; W W^dag gives back the evolved rho,
    # exactly Hermitian
    dim, p = 32, HamiltonianParams(delta=0.2, epsilon=1.5, kerr=1.0)
    rho0 = QuantumState.vacuum(dim).density_matrix().reshape(-1)
    (vec,) = dynamics.lindblad_trajectory(rho0, p, LossParams(0.3), [0.5])
    rho = vec.reshape(dim, dim)
    got = evolve_lindblad(QuantumState.vacuum(dim), p, LossParams(0.3), 0.5).density_matrix()
    assert np.array_equal(got, got.conj().T)
    np.testing.assert_allclose(got, rho, rtol=0, atol=1e-13)


def test_sector_propagation_of_thermal_density_matrix():
    t = 0.3
    rho = QuantumState.thermal(SECTOR_DIM, 1.5).density_matrix()
    u = _dense_propagator(SECTOR_DIM, SECTOR_PARAMS, t)
    evolved = evolve_unitary(QuantumState.thermal(SECTOR_DIM, 1.5), SECTOR_PARAMS, t)
    assert not evolved.is_pure
    np.testing.assert_allclose(evolved.density_matrix(), u @ rho @ u.conj().T, rtol=0, atol=1e-12)


def test_vacuum_evolution_never_solves_the_odd_sector():
    p = HamiltonianParams(delta=0.31, epsilon=1.7, kerr=0.9)  # used by no other test
    before = dynamics._eigensystem.cache_info().misses
    vacuum_trajectory(p, np.linspace(0.0, 0.4, 5), 48)
    evolve_unitary(QuantumState.vacuum(48), p, 0.4)
    assert dynamics._eigensystem.cache_info().misses == before + 1


def test_fock_kets_evolve_each_level():
    # exp(-i H t)|n> from one GEMM in the sector of n's parity, against dense expm
    dim = 24
    p = HamiltonianParams(delta=0.4, epsilon=0.7, kerr=0.3)
    times = [0.0, 0.35, 1.1]
    h = hamiltonian(dim, p).matrix
    for level in (0, 1, 2, 3):
        kets = dynamics.fock_kets(p, times, dim, level=level)
        assert np.all(kets[1 - level % 2 :: 2] == 0.0)
        for k, t in enumerate(times):
            expected = scipy.linalg.expm(-1j * h * t)[:, level]
            np.testing.assert_allclose(kets[:, k], expected, rtol=0, atol=1e-13)
    with pytest.raises(ValueError, match="level"):
        dynamics.fock_kets(p, times, dim, level=dim)


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


def _negated(p: HamiltonianParams) -> HamiltonianParams:
    return HamiltonianParams(delta=-p.delta, epsilon=-p.epsilon, kerr=-p.kerr)


def _generator(dim, p, loss, reverse=False, transposed=False):
    # the full-space Liouvillian of the echo (-H) and of the Heisenberg
    # picture (L^T), built without the package's conjugation and transpose
    lv = liouvillian(dim, _negated(p) if reverse else p, loss)
    return lv.T.tocsr() if transposed else lv


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
    # the echo flips the Hamiltonian only, never the dissipator; as H and a
    # are real, that generator is the complex conjugate
    lv_rev = liouvillian(dim, _negated(p), LossParams(gamma))
    expected_rev = 1j * (h @ rho - rho @ h) + gamma * (
        a @ rho @ a.conj().T - 0.5 * (n_op @ rho + rho @ n_op)
    )
    got_rev = (lv_rev @ rho.reshape(-1)).reshape(dim, dim)
    np.testing.assert_allclose(got_rev, expected_rev, atol=1e-12)
    assert (lv_rev != lv.conj()).nnz == 0


@pytest.mark.parametrize("reverse, transposed", [(False, False), (True, False), (True, True)])
def test_lindblad_parity_blocks(reverse, transposed):
    dim = 16
    p = HamiltonianParams(delta=0.3, epsilon=0.8, kerr=0.5)
    loss = LossParams(0.25)
    lv = _generator(dim, p, loss, reverse, transposed)
    # no entry couples rho_ij with i + j even to one with i + j odd
    parity = np.add.outer(np.arange(dim), np.arange(dim)).reshape(-1) % 2
    rows, cols = lv.nonzero()
    assert np.all(parity[rows] == parity[cols])
    even, odd = dynamics.liouvillian_blocks(dim, p, loss)
    assert even.matrix.shape == odd.matrix.shape == (dim * dim // 2, dim * dim // 2)

    rho = random_density(dim, seed=5).reshape(-1)
    assert np.any(rho[parity == 0]) and np.any(rho[parity == 1])
    times = [0.05, 0.3, 0.35]  # three non-uniform segments
    chained = dynamics.lindblad_trajectory(rho, p, loss, times, reverse, adjoint=transposed)
    for t, got in zip(times, chained):
        full = expm_multiply(lv * t, rho)
        one_shot = dynamics.lindblad_trajectory(rho, p, loss, [t], reverse, transposed)[0]
        np.testing.assert_allclose(one_shot, full, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, one_shot, rtol=0, atol=1e-12)


def _echo_readout_block(dim: int) -> np.ndarray:
    # the a, a^2 and a^dag a echo readouts as vec(A^T) columns, scaled nine
    # decades apart: each column is held to its own size
    a = fock.annihilation(dim).matrix
    readouts = (a, a @ a, a.conj().T @ a)
    scales = (1.0, 1e-6, 1e3)
    return np.stack([s * r.T.reshape(-1) for s, r in zip(scales, readouts)], axis=1)


def _assert_matches_dense_expm(dim, p, gamma, reverse, transposed, dt):
    # each parity block of the generator against its own dense exponential;
    # the echo's is conj(L), run as conj(exp(L t) conj(x)), and the
    # Heisenberg picture's the transposed block.  A readout that vanishes on
    # a block must stay exactly zero
    lv_full = _generator(dim, p, LossParams(gamma), reverse, transposed).toarray()
    blocks = dynamics.liouvillian_blocks(dim, p, LossParams(gamma))
    readouts = _echo_readout_block(dim)
    for idx, lv in zip(dynamics._parity_indices(dim), blocks):
        block = readouts[idx]
        expected = scipy.linalg.expm(lv_full[np.ix_(idx, idx)] * dt) @ block
        lv = dataclasses.replace(lv, matrix=lv.matrix.T.tocsr()) if transposed else lv
        if reverse:
            got = dynamics._lindblad_apply(lv, block.conj(), dt).conj()
        else:
            got = dynamics._lindblad_apply(lv, block, dt)
        for k in range(block.shape[1]):
            if not block[:, k].any():
                assert not got[:, k].any()
                continue
            err = np.max(np.abs(got[:, k] - expected[:, k])) / np.max(np.abs(expected[:, k]))
            assert err < 1e-12, (k, err)


FIG3_PARAMS = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)


@pytest.mark.parametrize("dt", [0.1, 0.4, 1e-6, 0.6])
@pytest.mark.parametrize("reverse, transposed", [(False, False), (True, True)])
def test_lindblad_apply_matches_dense_expm_per_column(reverse, transposed, dt):
    # the fig3 step (0.1), the snapshot reversal (0.4), the longest fig3
    # step (0.6), and a step of a few terms
    _assert_matches_dense_expm(24, FIG3_PARAMS, 0.1, reverse, transposed, dt)


@pytest.mark.parametrize(
    "dim, p, gamma, dt",
    [
        (24, HamiltonianParams(), 0.1, 0.6),  # free decay, H = 0
        (24, HamiltonianParams(), 2.0, 0.6),  # free decay: r_re > r_im
        (24, HamiltonianParams(), 0.0, 0.6),  # A = 0
        (24, HamiltonianParams(delta=0.3, epsilon=2.0), 2.0, 0.6),  # K = 0
        (24, FIG3_PARAMS, 0.0, 0.6),  # gamma = 0: a skew-Hermitian block
        (24, FIG3_PARAMS, 2.0, 0.6),
        (24, FIG3_PARAMS, 2.0, 1e-6),
        (32, FIG3_PARAMS, 0.1, 0.6),
    ],
)
@pytest.mark.parametrize("reverse, transposed", [(False, False), (True, True)])
def test_lindblad_apply_matches_dense_expm_on_edge_blocks(dim, p, gamma, dt, reverse, transposed):
    _assert_matches_dense_expm(dim, p, gamma, reverse, transposed, dt)


def test_liouvillian_block_encloses_its_numerical_range():
    # W(A) lies in [-r_re, r_re] x i[-r_im, r_im] exactly when the spectra of
    # the Hermitian parts of A and A/i do; the shift centres the first.  The
    # blocks of L^T, which the Heisenberg picture runs as the transposed
    # blocks of L, have the same shift and enclosure
    dim = 12
    loss = LossParams(0.5)
    lv_t = liouvillian(dim, FIG3_PARAMS, loss).T.tocsr()
    blocks = dynamics.liouvillian_blocks(dim, FIG3_PARAMS, loss)
    for idx, forward in zip(dynamics._parity_indices(dim), blocks):
        lv = dynamics.LiouvillianBlock.from_csr(lv_t[idx][:, idx])
        assert (lv.matrix != forward.matrix.T).nnz == 0
        enclosures = [(b.shift, b.r_re, b.r_im, b.rho) for b in (lv, forward)]
        assert enclosures[0] == enclosures[1]
        a = 1j * lv.r_im * lv.matrix.toarray()
        re = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
        im = np.linalg.eigvalsh((a - a.conj().T) / 2.0j)
        assert np.all(np.abs(re) <= lv.r_re) and np.all(np.abs(im) <= lv.r_im)
        assert re[0] < 0.0 < re[-1]
        w = 1.0 + 1j * lv.r_re / lv.r_im  # corner of the rectangle W(X) lies in
        half_axis = (abs(w - 1.0) + abs(w + 1.0)) / 2.0
        assert lv.rho == pytest.approx(half_axis + math.sqrt(half_axis**2 - 1.0))


@pytest.mark.parametrize("x", [0.5, 22.6, 226.0, 1300.0])
def test_bessel_j_matches_scipy(x):
    # scipy.special stays out of the package (its import costs memory); the
    # test may use it as the oracle.  Miller's values are the more accurate
    # ones at x = 1300, where jv errs by ~2e-14.
    from scipy.special import jv

    k = np.arange(int(x) + 80)
    np.testing.assert_allclose(dynamics._bessel_j(x, k[-1]), jv(k, x), rtol=0, atol=1e-13)
    scaled = dynamics._bessel_j(x, k[-1], rho=1.3)
    np.testing.assert_allclose(scaled / 1.3**k, jv(k, x), rtol=0, atol=1e-13)


def test_chebyshev_degree_meets_its_a_priori_bound():
    # the dim-48 fig3 block over one 0.1 step: about 2/3 of the ~481 terms a
    # Taylor stepper needs; the bound 2 (1 + sqrt 2) sum_(k>N) |J_k| rho^k
    # <= 2^-53 holds at the chosen N and fails one degree lower
    from scipy.special import jv

    for lv in dynamics.liouvillian_blocks(48, FIG3_PARAMS, LossParams(0.1)):
        z = 0.1 * lv.r_im
        n = len(dynamics._chebyshev_coefficients(z, lv.rho)) - 1
        assert n < 330
        k = np.arange(n - 1, 2 * n)
        tails = 2.0 * (1.0 + math.sqrt(2.0)) * np.cumsum((np.abs(jv(k, z)) * lv.rho**k)[::-1])[::-1]
        assert tails[2] <= 2.0**-53 * (1.0 + 1e-9) and tails[1] > 2.0**-53


def test_lindblad_apply_is_deterministic():
    # the degree comes from t and the block alone: no norm estimate, no
    # random draws, no test of the terms
    dim = 24
    even, _ = dynamics.liouvillian_blocks(dim, FIG3_PARAMS, LossParams(0.1))
    block = _echo_readout_block(dim)[dynamics._parity_indices(dim)[0]]
    first = dynamics._lindblad_apply(even, block, 0.4)
    np.testing.assert_array_equal(dynamics._lindblad_apply(even, block, 0.4), first)


def test_lindblad_apply_logs_its_work(caplog):
    rho = QuantumState.vacuum(8).density_matrix().reshape(-1)
    with caplog.at_level(logging.DEBUG, logger="kerrsense"):
        dynamics.lindblad_trajectory(rho, FIG3_PARAMS, LossParams(0.1), [0.1, 0.1, 0.3])
    messages = [r.getMessage() for r in caplog.records if r.name == "kerrsense.dynamics"]
    # the vacuum lives on the even block only; the repeated time is no step
    assert len(messages) == 2
    for message, t in zip(messages, ("0.1", "0.19999999999999998")):
        assert re.fullmatch(
            rf"lindblad: block 32 rows x 1 cols, t {t}, r_im \S+, r_re \S+, N \d+, S 1", message
        ), message


def _milburn_holmes(alpha, delta, kerr, gamma, t):
    # <a(t)> and <a^dag a(t)> of a coherent state under H = delta n - K n(n - 1)
    # and loss gamma (Milburn & Holmes, PRL 56, 2237 (1986)); with epsilon = 0
    # no population climbs, so the truncated evolution is exact
    b = cmath.exp((2j * kerr - gamma) * t)
    exponent = (-1j * delta - gamma / 2.0) * t + abs(alpha) ** 2 * (b - 1.0) * 2j * kerr / (
        2j * kerr - gamma
    )
    return alpha * cmath.exp(exponent), abs(alpha) ** 2 * math.exp(-gamma * t)


@pytest.mark.parametrize("adjoint", [False, True], ids=["schrodinger", "heisenberg"])
@pytest.mark.parametrize(
    "dim, alpha, delta, kerr, gamma, t",
    [
        (48, 1j, 1.0, 2.0, 3.0, 0.8),
        (64, 2.0, 0.0, 1.0, 1.0, 0.35),
        (80, 1.5 + 0.5j, 0.7, 1.0, 1.0, 0.35),
        (96, 2.5, -0.3, 0.5, 0.2, 1.0),
        (128, 2.0, 0.0, 1.0, 1.0, 0.35),
    ],
)
def test_lossy_kerr_coherent_state_matches_closed_form(dim, alpha, delta, kerr, gamma, t, adjoint):
    # the edge coherences of a coherent state under Kerr and strong loss are
    # where one long Chebyshev series loses its accuracy to round-off: each
    # step is split into substeps a priori, in both pictures
    p, loss = HamiltonianParams(delta=delta, kerr=kerr), LossParams(gamma)
    state = QuantumState.coherent(dim, alpha)
    a = fock.sparse_annihilation(dim)
    readouts = (a, a.conj().T @ a)
    if adjoint:  # Tr[A exp(L t)(rho)] = (exp(L^T t) vec(A^T))^T vec(rho)
        block = np.stack([r.T.toarray().reshape(-1) for r in readouts], axis=1)
        evolved = dynamics.lindblad_trajectory(block, p, loss, [t], adjoint=True)[0]
        mean_a, n_mean = state.density_matrix().reshape(-1) @ evolved
    else:
        rho = evolve_lindblad(state, p, loss, t).density_matrix()
        mean_a, n_mean = (np.sum(r.toarray().T * rho) for r in readouts)
    expected_a, expected_n = _milburn_holmes(alpha, delta, kerr, gamma, t)
    assert abs(mean_a - expected_a) <= 1e-12 * abs(expected_a)
    assert abs(n_mean - expected_n) <= 1e-12 * expected_n


def test_lindblad_trajectory_rejects_non_square_rows():
    # 10 rows are no dim x dim operator; they used to lose their last entry
    with pytest.raises(ValueError, match="dim"):
        dynamics.lindblad_trajectory(np.ones(10), FIG3_PARAMS, LossParams(0.1), [0.1])


def test_lindblad_trajectory_rejects_unsorted_times():
    rho = QuantumState.vacuum(8).density_matrix().reshape(-1)
    with pytest.raises(ValueError):
        dynamics.lindblad_trajectory(rho, HamiltonianParams(), LossParams(0.1), [0.2, 0.1])
    # a NaN time is no time: it must not pass for a step of zero length
    with pytest.raises(ValueError):
        dynamics.lindblad_trajectory(rho, HamiltonianParams(), LossParams(0.1), [0.1, math.nan])


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
    lv = _generator(dim, p, loss, reverse).toarray()
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
        np.testing.assert_allclose(state.ket, ref.ket, rtol=0, atol=1e-13)


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
    # an isotropic covariance keeps the identity as its eigenvectors, so the
    # angle is pinned at 0, for one matrix and for a stack alike
    assert min_variance(QuantumState.vacuum(20)) == (0.5, 0.0)
    assert quadrature_extremes(np.eye(2) / 2.0) == (0.5, 0.0, 0.5)
    v_min, theta, v_max = quadrature_extremes(np.eye(2)[None] / 2.0)
    assert v_min.shape == theta.shape == v_max.shape == (1,)
    assert (v_min[0], theta[0], v_max[0]) == (0.5, 0.0, 0.5)


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
    assert trace.dim == next_dim(dynamics.initial_dim(p, 0.3))
    ref = squeezing_trace(p, np.linspace(0.0, 0.3, 4), dim=2 * trace.dim)
    np.testing.assert_allclose(trace.v_min, ref.v_min, rtol=1e-7)


def test_squeezing_trace_logs_the_dimension_ladder(caplog):
    p = HamiltonianParams(epsilon=2.0, kerr=1.0)
    with caplog.at_level(logging.DEBUG, logger="kerrsense"):
        trace = squeezing_trace(p, np.linspace(0.0, 0.3, 4))
    messages = [r.getMessage() for r in caplog.records if r.name == "kerrsense.fock"]
    # initial_dim starts at the support (rung 32), and the rung above, 48,
    # confirms it; each comparison reports the lower rung's tail and guard
    start = dynamics.initial_dim(p, 0.3)
    accepted = next_dim(start)
    assert messages[0] == f"converge_dim: tried dim {start}"
    assert re.fullmatch(
        rf"converge_dim: tried dim {accepted}, max relative change \S+, "
        rf"tail at dim {start} \S+ \(guard 1e-12 held\)",
        messages[1],
    )
    assert messages[2:] == [f"converge_dim: accepted dim {accepted} (rel_tol 1.0e-07)"]
    assert trace.dim == accepted
    assert all(r.levelno == logging.DEBUG for r in caplog.records)


def test_squeezing_trace_warns_on_truncation_tail():
    # free squeezing to r = 2: the top levels hold 3.2e-2 at dim 40, where
    # evolve_unitary raises too, 1.4e-5 at dim 256 and nothing at dim 2560
    p = HamiltonianParams(epsilon=2.0)
    t_grid = np.linspace(0.0, 0.5, 6)
    with pytest.warns(TruncationWarning), pytest.raises(TruncationError):
        squeezing_trace(p, t_grid, dim=40)
    with pytest.warns(TruncationWarning), pytest.raises(TruncationError):
        evolve_unitary(QuantumState.vacuum(40), p, 0.5)
    with pytest.warns(TruncationWarning):
        trace = squeezing_trace(p, t_grid, dim=256)
    assert 1e-8 < float(np.max(trace.tail)) < 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        squeezing_trace(p, t_grid, dim=2560)


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


@pytest.mark.parametrize("delta", [0.0, 1.5])
def test_optimal_squeezing_is_the_root_of_the_exact_slope(delta):
    p = HamiltonianParams(delta=delta, epsilon=2.0, kerr=1.0)
    # dV_min/dt against a central difference of the V_min trace
    times, h = np.array([0.05, 0.13, 0.31, 0.6]), 1e-6
    v_up = vacuum_trajectory(p, times + h, 64).v_min
    v_down = vacuum_trajectory(p, times - h, 64).v_min
    slope = dynamics._vmin_slope(p, times, 64)
    np.testing.assert_allclose(slope, (v_up - v_down) / (2.0 * h), rtol=1e-8, atol=0.0)
    # the root is found to machine precision: the next rung moves it by < 1e-12
    for dim in (48, 64):
        _, t_opt = optimal_squeezing(p, dim=dim)
        _, t_next = optimal_squeezing(p, dim=next_dim(dim))
        assert t_next == pytest.approx(t_opt, rel=1e-12, abs=0.0)
