"""Closed-form Gaussian sensitivities and their internal consistency, and the
lossy Gaussian oracle (K = 0, gamma > 0) of the program's lossy figures."""

import math

import numpy as np
import pytest
import scipy.linalg

from kerrsense import gaussian
from kerrsense.config import ExperimentConfig
from kerrsense.dynamics import HamiltonianParams, LossParams
from kerrsense.gaussian import GaussianState, from_free_squeezing
from kerrsense.harness import evaluate_point, run_custom
from kerrsense.metrology import DetectionNoise, mai_sensitivity


def random_states(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield GaussianState(
            r=rng.uniform(0.0, 2.0),
            zeta=rng.uniform(0.0, 2.0 * math.pi),
            n_thermal=rng.uniform(0.0, 3.0),
        )


def test_vacuum_covariance():
    np.testing.assert_allclose(
        gaussian.covariance(GaussianState()), np.eye(2) / 2.0, atol=1e-15
    )


def test_squeezed_vacuum_covariance_principal_axes():
    # zeta = 0 squeezes X directly: diag(e^{-2r}, e^{2r})/2
    g = GaussianState(r=0.7, zeta=0.0)
    expected = np.diag([math.exp(-1.4), math.exp(1.4)]) / 2.0
    np.testing.assert_allclose(gaussian.covariance(g), expected, atol=1e-14)


def test_covariance_determinant_invariant():
    # det = ((1+2n_T)/2)^2 regardless of squeezing
    for g in random_states(20, seed=3):
        det = float(np.linalg.det(gaussian.covariance(g)))
        expected = ((1.0 + 2.0 * g.n_thermal) / 2.0) ** 2
        assert abs(det - expected) < 1e-10 * expected


def test_variance_matches_covariance_quadratic_form():
    for g in random_states(10, seed=4):
        cov = gaussian.covariance(g)
        for theta in (0.0, 0.9, 2.4):
            m = np.array([math.cos(theta), math.sin(theta)])
            assert abs(gaussian.variance(g, theta) - m @ cov @ m) < 1e-12


def test_variance_extrema():
    g = GaussianState(r=0.5, zeta=math.pi / 2.0)
    # minimum at theta = zeta/2, maximum a quarter turn away
    assert abs(gaussian.variance(g, math.pi / 4.0) - math.exp(-1.0) / 2.0) < 1e-14
    assert abs(gaussian.variance(g, 3.0 * math.pi / 4.0) - math.exp(1.0) / 2.0) < 1e-14


def test_purity():
    assert gaussian.purity(GaussianState(r=1.3)) == 1.0
    assert abs(gaussian.purity(GaussianState(n_thermal=1.0)) - 1.0 / 3.0) < 1e-15


def test_from_free_squeezing_mapping():
    g = from_free_squeezing(2.0, 0.25)
    assert g.r == 1.0
    assert g.zeta == math.pi / 2.0
    assert g.n_thermal == 0.0
    with pytest.raises(ValueError):
        from_free_squeezing(2.0, -0.1)


def test_qfi_displacement_profile():
    g = GaussianState(r=1.0, zeta=0.0)
    # generator along the anti-squeezed direction sees the squeezed variance
    assert abs(gaussian.qfi_displacement(g, 0.0) - 2.0 * math.exp(-2.0)) < 1e-14
    assert abs(gaussian.qfi_displacement(g, math.pi / 2.0) - 2.0 * math.exp(2.0)) < 1e-13
    assert abs(gaussian.qfi_max(g) - 2.0 * math.exp(2.0)) < 1e-13


def test_qfi_max_dominates_profile():
    for g in random_states(10, seed=5):
        best = max(
            gaussian.qfi_displacement(g, phi) for phi in np.linspace(0.0, math.pi, 721)
        )
        assert best <= gaussian.qfi_max(g) + 1e-12
        assert gaussian.qfi_max(g) - best < 1e-4 * gaussian.qfi_max(g)


def test_thermal_qfi_reduction():
    g = GaussianState(n_thermal=2.0)
    assert abs(gaussian.qfi_max(g) - 2.0 / 5.0) < 1e-15


def test_chi_linear_max_saturates_qfi():
    # homodyne at the squeezed angle reaches the Cramer-Rao bound exactly;
    # cosh 2r - sinh 2r costs ~ e^{4r} ulp of cancellation
    for g in random_states(50, seed=6):
        bound = gaussian.qfi_max(g)
        assert abs(gaussian.chi_linear_max(g) - bound) < 1e-11 * bound


def test_chi_linear_never_exceeds_qfi():
    rng = np.random.default_rng(7)
    for g in random_states(10, seed=8):
        for _ in range(20):
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, math.pi)
            assert gaussian.chi_linear(g, theta, phi) <= gaussian.qfi_max(g) + 1e-12


def test_mai_equals_linear_optimum_without_noise():
    # Gaussian dynamics: the echo buys nothing at sigma^2 = 0
    for g in random_states(10, seed=9):
        assert abs(gaussian.mai_gaussian(g) - gaussian.chi_linear_max(g)) < 1e-12


def test_noisy_sensitivities_closed_form():
    g = GaussianState(r=0.5)
    for sigma2 in (0.0, 0.1, 1.0, 10.0):
        got = gaussian.noisy_sensitivities(g, sigma2)
        assert abs(got.chi - 1.0 / (math.exp(-1.0) / 2.0 + sigma2)) < 1e-12
        assert abs(got.chi_mai - math.exp(1.0) / (0.5 + sigma2)) < 1e-12
        expected_ratio = (1.0 + 2.0 * math.exp(1.0) * sigma2) / (1.0 + 2.0 * sigma2)
        assert abs(got.ratio - expected_ratio) < 1e-10


def test_noisy_ratio_limits():
    g = GaussianState(r=0.8)
    assert abs(gaussian.noisy_sensitivities(g, 0.0).ratio - 1.0) < 1e-14
    # strong readout noise: the echo retains the full e^{2r} gain
    big = gaussian.noisy_sensitivities(g, 1e8).ratio
    assert abs(big - math.exp(1.6)) < 1e-6 * math.exp(1.6)
    with pytest.raises(ValueError):
        gaussian.noisy_sensitivities(g, -0.1)


def test_noisy_ratio_monotone_in_noise():
    g = GaussianState(r=1.0)
    ratios = [gaussian.noisy_sensitivities(g, s).ratio for s in (0.0, 0.1, 1.0, 10.0)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_qfi_vs_excitations():
    assert abs(gaussian.qfi_vs_excitations(0.0) - 2.0) < 1e-15
    # N = sinh^2 r reproduces 2 e^{2r}
    r = 1.0
    n = math.sinh(r) ** 2
    assert abs(gaussian.qfi_vs_excitations(n) - 2.0 * math.exp(2.0 * r)) < 1e-12
    # asymptote 4 + 8N
    assert abs(gaussian.qfi_vs_excitations(100.0) - (4.0 + 800.0)) < 1e-2 * 804.0
    with pytest.raises(ValueError):
        gaussian.qfi_vs_excitations(-1.0)


def test_state_validation():
    with pytest.raises(ValueError):
        GaussianState(r=-0.1)
    with pytest.raises(ValueError):
        GaussianState(n_thermal=-1.0)
    with pytest.raises(ValueError):
        GaussianState(zeta=math.inf)


# ---------------------------------------------------------------------------
# lossy Gaussian oracle: with K = 0 and the jump operator sqrt(gamma) a the
# vacuum stays Gaussian, and every figure follows from its (X, P) covariance

ORACLE_RTOL = 1e-10
# f_q, the support-only QFI on the state's factor, holds tighter than that
ORACLE_F_Q_RTOL = 2e-12


def _lossy_covariance(a: np.ndarray, gamma: float, v0: np.ndarray, t: float) -> np.ndarray:
    """V(t) = S + e^{At} (V0 - S) e^{A^T t} of dV/dt = A V + V A^T + (gamma/2) I,
    with A S + S A^T = -(gamma/2) I (S = 0 without loss, where the
    eigenvalues +-lambda of A sum to zero and make that equation singular)."""
    s = np.zeros((2, 2))
    if gamma > 0.0:
        s = scipy.linalg.solve_continuous_lyapunov(a, -0.5 * gamma * np.eye(2))
    e = scipy.linalg.expm(a * t)
    return s + e @ (v0 - s) @ e.T


def lossy_gaussian_figures(delta, epsilon, gamma, t, sigma2, reversal_time=None) -> dict:
    """Closed-form figures of the vacuum evolved for t under
    H = delta a^dag a + epsilon (a^dag^2 + a^2) with loss gamma, and of its
    echo reversed for reversal_time (default t) under -H with the same loss."""
    tau = t if reversal_time is None else reversal_time
    drift = np.array([[0.0, delta - 2.0 * epsilon], [-(delta + 2.0 * epsilon), 0.0]])
    damping = 0.5 * gamma * np.eye(2)
    v = _lossy_covariance(drift - damping, gamma, np.eye(2) / 2.0, t)
    a_rev = -drift - damping
    v_rev = _lossy_covariance(a_rev, gamma, v, tau)
    # exp(-i d X) shifts <P> by -d and exp(-i d P) shifts <X> by +d; the
    # shift then evolves with the mean, e^{A_rev tau}
    r = np.array([[0.0, -1.0], [1.0, 0.0]]) @ scipy.linalg.expm(a_rev * tau).T
    v_min = float(np.linalg.eigvalsh(v)[0])
    readout = r @ np.linalg.inv(v_rev + sigma2 * np.eye(2)) @ r.T
    return {
        "n_mean": float(np.trace(v)) / 2.0 - 0.5,
        "v_min": v_min,
        "chi2inv_1": 1.0 / (v_min + sigma2),
        # chi^-2_1 <= chi^-2_2 <= chi^-2_3 <= F_Q = 1/v_min, and the moment
        # figures are noise-free: all three are F_Q
        "chi2inv_2": 1.0 / v_min,
        "chi2inv_3": 1.0 / v_min,
        "f_q": 1.0 / v_min,
        "chi2inv_mai": float(np.linalg.eigvalsh(readout)[-1]),
    }


def _assert_matches_oracle(row, oracle: dict) -> None:
    for name, expected in oracle.items():
        got = getattr(row, name)
        if got is None:
            continue
        rtol = ORACLE_F_Q_RTOL if name == "f_q" else ORACLE_RTOL
        assert got == pytest.approx(expected, rel=rtol), (name, row.kt, row.sigma2)


def test_lossy_gaussian_oracle_matches_its_pure_limit():
    # gamma = 0 is the squeezed vacuum of from_free_squeezing
    eps, t = 0.5, 0.6
    oracle = lossy_gaussian_figures(0.0, eps, 0.0, t, 0.0)
    g = from_free_squeezing(eps, t)
    assert oracle["v_min"] == pytest.approx(gaussian.variance(g, math.pi / 4.0), rel=1e-12)
    assert oracle["f_q"] == pytest.approx(gaussian.qfi_max(g), rel=1e-12)
    assert oracle["chi2inv_mai"] == pytest.approx(gaussian.mai_gaussian(g), rel=1e-12)


@pytest.mark.parametrize(
    "point",
    [(0.0, 0.5, 0.2, 1.0, 0.0), (0.3, 0.4, 0.5, 0.8, 0.5), (-0.6, 0.35, 0.3, 0.6, 0.0)],
    ids=["delta0", "delta-and-noise", "negative-delta"],
)
def test_lossy_point_matches_gaussian_oracle(point):
    # auto dim: (0, 0.5, 0.2, 1.0) starts at the support, 112, and accepts 144
    delta, epsilon, gamma, t, sigma2 = point
    row = evaluate_point(delta, epsilon, 0.0, gamma, t, sigma2, with_k2=True, with_k3=True)
    _assert_matches_oracle(row, lossy_gaussian_figures(delta, epsilon, gamma, t, sigma2))


@pytest.fixture(scope="module")
def lossy_group_rows():
    cfg = ExperimentConfig("custom", (0.3,), (0.4,), (0.0,), (0.5,), (0.2, 0.5, 0.8), (0.0, 0.5))
    return run_custom(cfg, with_k3=True).rows


def test_lossy_group_matches_gaussian_oracle(lossy_group_rows):
    assert len(lossy_group_rows) == 6
    for row in lossy_group_rows:
        oracle = lossy_gaussian_figures(row.delta, row.epsilon, row.gamma, row.kt, row.sigma2)
        _assert_matches_oracle(row, oracle)


def test_lossy_group_keeps_the_gaussian_identity(lossy_group_rows):
    # a Gaussian state has F_Q = 1 / v_min; both read the state's one factor
    # W, so the identity holds to round-off at every row
    for row in lossy_group_rows:
        assert abs(row.f_q * row.v_min - 1.0) <= 2e-14, (row.kt, row.sigma2)


def test_lossy_echo_with_its_own_reversal_time_matches_gaussian_oracle():
    p = HamiltonianParams(delta=0.3, epsilon=0.4, kerr=0.0)
    rep = mai_sensitivity(
        p, 0.8, loss=LossParams(0.5), noise=DetectionNoise(0.5), reversal_time=0.5
    )
    expected = lossy_gaussian_figures(0.3, 0.4, 0.5, 0.8, 0.5, reversal_time=0.5)
    assert rep.value == pytest.approx(expected["chi2inv_mai"], rel=ORACLE_RTOL)
