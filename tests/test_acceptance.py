"""Acceptance gate: eleven end-to-end criteria, one verdict line each.

Each test prints exactly one ``ACCEPTANCE NN <name>: PASS/FAIL`` line (run
with -s, or read captured output / the -v test status).  Tolerances are the
documented contract for this package; failures list every violated check.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from kerrsense import dynamics, fock, metrology
from kerrsense.config import ExperimentConfig, parse_config
from kerrsense.dynamics import HamiltonianParams, LossParams, evolve_lindblad, evolve_unitary
from kerrsense.fock import QuantumState
from kerrsense.harness import (
    CSV_COLUMNS,
    evaluate_point,
    rows_to_csv,
    run_experiment,
    run_fig3,
    run_loss_robustness,
    run_scaling,
)
from kerrsense.metrology import (
    DetectionNoise,
    linear_sensitivity,
    mai_sensitivity,
    moment_basis,
    moment_matrices,
    moment_sensitivity,
    noisy_linear_sensitivity,
    qfi_max,
)
from kerrsense.wigner import DEFAULT_GRID, PhaseGrid, parity_expectation, wigner

pytestmark = pytest.mark.filterwarnings("ignore::kerrsense.fock.TruncationWarning")


def _verdict(num: int, name: str, failures: list[str], detail: str = "") -> None:
    ok = not failures
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if ok and detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"{name}: " + "; ".join(failures)


ENSEMBLE_DIM = 128


@lru_cache(maxsize=1)
def _ensemble():
    """50 vacuum-evolved states with random (delta, epsilon, Kt) at K = 1."""
    rng = np.random.default_rng(20260825)
    out = []
    for _ in range(50):
        delta = float(rng.uniform(-5.0, 5.0))
        epsilon = float(rng.uniform(0.0, 4.0))
        t = float(rng.uniform(0.0, 0.6))
        p = HamiltonianParams(delta=delta, epsilon=epsilon, kerr=1.0)
        state = evolve_unitary(QuantumState.vacuum(ENSEMBLE_DIM), p, t)
        out.append((p, t, state))
    return tuple(out)


def test_criterion_01_ideal_squeezing_law():
    # K = 0, delta = 0, epsilon = 2, dim auto: V_min(t) = e^{-4 eps t}/2
    failures, worst = [], 0.0
    for t in (0.05, 0.1, 0.2, 0.25):
        row = evaluate_point(
            0.0, 2.0, 0.0, 0.0, t, dim=None,
            with_qfi=False, with_mai=False,
        )
        law = 0.5 * math.exp(-8.0 * t)
        rel = abs(row.v_min - law) / law
        worst = max(worst, rel)
        if rel > 1e-6:
            failures.append(f"t={t}: V_min rel err {rel:.3e} > 1e-6")
    _verdict(1, "ideal-squeezing-law", failures, f"max rel err {worst:.2e}")


def test_criterion_02_gaussian_oracle_equivalence():
    # K = 0 evolution with r = 2 eps t: F_Q, chi^-2, chi^-2_MAI all 2e^{2r}
    failures, worst = [], 0.0
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=0.0)
    for r in (0.2, 0.5, 1.0):
        t = r / 4.0
        state = evolve_unitary(QuantumState.vacuum(160), p, t)
        oracle = 2.0 * math.exp(2.0 * r)
        values = {
            "F_Q": qfi_max(state).value,
            "chi^-2": linear_sensitivity(state).value,
            "chi^-2_MAI": mai_sensitivity(p, t, dim=160).value,
        }
        for label, value in values.items():
            rel = abs(value - oracle) / oracle
            worst = max(worst, rel)
            if rel > 1e-5:
                failures.append(f"r={r} {label}: rel err {rel:.3e} > 1e-5")
    _verdict(2, "gaussian-oracle-equivalence", failures, f"max rel err {worst:.2e}")


def test_criterion_03_detection_noise_ratio():
    # r = 0.5: chi^-2_MAI / chi^-2 = (1 + 2 e^{2r} s2) / (1 + 2 s2)
    failures, worst = [], 0.0
    r = 0.5
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=0.0)
    t = r / 4.0
    state = evolve_unitary(QuantumState.vacuum(160), p, t)
    for sigma2 in (0.1, 1.0, 10.0):
        noise = DetectionNoise(sigma2)
        ratio = (
            mai_sensitivity(p, t, noise=noise, dim=160).value
            / noisy_linear_sensitivity(state, noise).value
        )
        oracle = (1.0 + 2.0 * math.exp(2.0 * r) * sigma2) / (1.0 + 2.0 * sigma2)
        rel = abs(ratio - oracle) / oracle
        worst = max(worst, rel)
        if rel > 1e-5:
            failures.append(f"sigma2={sigma2}: ratio rel err {rel:.3e} > 1e-5")
    _verdict(3, "detection-noise-ratio", failures, f"max rel err {worst:.2e}")


def test_criterion_04_second_order_no_advantage():
    # 50 random vacuum-evolved states: chi^-2_(2) = chi^-2_(1) and the
    # generator commutes in expectation with every second-order observable
    failures, worst_gap, worst_block = [], 0.0, 0.0
    basis2 = moment_basis(ENSEMBLE_DIM, 2)
    for i, (_, _, state) in enumerate(_ensemble()):
        chi1 = moment_sensitivity(state, 1).value
        chi2 = moment_sensitivity(state, 2).value
        gap = abs(chi2 - chi1)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-8:
            failures.append(f"state {i}: |chi2 - chi1| = {gap:.3e} > 1e-8")
        block = float(np.abs(moment_matrices(state, basis2)[0][:, 2:]).max())
        worst_block = max(worst_block, block)
        if block > 1e-10:
            failures.append(f"state {i}: second-order commutator block {block:.3e} > 1e-10")
    _verdict(
        4,
        "second-order-no-advantage",
        failures,
        f"max |chi2-chi1| {worst_gap:.2e}, max block {worst_block:.2e}",
    )


def test_criterion_05_hierarchy_and_cramer_rao():
    # chi^-2_(1) <= chi^-2_(3) <= F_Q and every MAI/noisy value <= F_Q
    failures, worst = [], -np.inf
    noise = DetectionNoise(0.1)
    for i, (p, t, state) in enumerate(_ensemble()):
        chi1 = moment_sensitivity(state, 1).value
        chi3 = moment_sensitivity(state, 3).value
        f_q = qfi_max(state).value
        bounded = {
            "chi3": chi3,
            "mai": mai_sensitivity(p, t, dim=ENSEMBLE_DIM).value,
            "noisy linear": noisy_linear_sensitivity(state, noise).value,
            "noisy mai": mai_sensitivity(p, t, noise=noise, dim=ENSEMBLE_DIM).value,
        }
        if chi1 > chi3 + 1e-8:
            failures.append(f"state {i}: chi1 {chi1} > chi3 {chi3} + 1e-8")
        for label, value in bounded.items():
            worst = max(worst, value - f_q)
            if value > f_q + 1e-6:
                failures.append(f"state {i}: {label} {value} > F_Q {f_q} + 1e-6")
    _verdict(5, "hierarchy-and-cramer-rao", failures, f"max value-F_Q {worst:.2e}")


def test_criterion_06_map_spot_checks():
    # Kt = 0.5 maps: the driven Kerr point beats the vacuum benchmark in F_Q
    # but not in linear readout, and the echo recovers a larger F_Q fraction;
    # the undriven row sits exactly at F_Q = 2
    failures = []
    slack = 1e-6
    driven = evaluate_point(0.0, 2.0, 1.0, 0.0, 0.5, dim=None)
    if not driven.chi2inv_1 < 2.0 - slack:
        failures.append(f"chi^-2 {driven.chi2inv_1} not < 2")
    if not driven.f_q > 2.0 + slack:
        failures.append(f"F_Q {driven.f_q} not > 2")
    if not driven.chi2inv_mai / driven.f_q > driven.chi2inv_1 / driven.f_q + slack:
        failures.append("MAI fraction of F_Q not above linear fraction")
    for delta in (-10.0, -5.0, 0.0, 5.0, 10.0):
        row = evaluate_point(delta, 0.0, 1.0, 0.0, 0.5, dim=None, with_mai=False)
        if abs(row.f_q - 2.0) > 1e-8:
            failures.append(f"epsilon=0, delta={delta}: F_Q {row.f_q} != 2 +- 1e-8")
    _verdict(
        6,
        "map-spot-checks",
        failures,
        f"chi {driven.chi2inv_1:.3f} < 2 < F_Q {driven.f_q:.3f}",
    )


def test_criterion_07_lossless_sensitivity_curves():
    # gamma = 0 curves on Kt in [0, 0.5] at the shipped grid resolution:
    # ordering chi^-2 <= chi^-2_MAI <= F_Q per row, linear readout within 10%
    # of F_Q at Kt = 0.1, echo readout within 10% at Kt = 0.25
    failures = []

    def lossless(kt_grid):
        cfg = ExperimentConfig("fig3", (0.0,), (2.0,), (1.0,), (0.0,), kt_grid, (0.0,))
        return run_fig3(cfg, snapshots=False).rows

    rows = lossless((0.0, 0.1, 0.2, 0.3, 0.4, 0.5))
    rows += lossless((0.0, 0.25, 0.5))
    for row in rows:
        if not (row.chi2inv_1 <= row.chi2inv_mai + 1e-6 <= row.f_q + 2e-6):
            failures.append(
                f"Kt={row.kt}: ordering violated "
                f"({row.chi2inv_1}, {row.chi2inv_mai}, {row.f_q})"
            )
    by_kt = {round(r.kt, 3): r for r in rows}
    gap_chi = (by_kt[0.1].f_q - by_kt[0.1].chi2inv_1) / by_kt[0.1].f_q
    gap_mai = (by_kt[0.25].f_q - by_kt[0.25].chi2inv_mai) / by_kt[0.25].f_q
    if gap_chi > 0.1:
        failures.append(f"Kt=0.1: (F_Q - chi^-2)/F_Q = {gap_chi:.4f} > 0.1")
    if gap_mai > 0.1:
        failures.append(f"Kt=0.25: (F_Q - chi^-2_MAI)/F_Q = {gap_mai:.4f} > 0.1")
    _verdict(
        7,
        "lossless-sensitivity-curves",
        failures,
        f"gaps {gap_chi:.4f} at Kt=0.1, {gap_mai:.4f} at Kt=0.25",
    )


def test_criterion_08_lossy_physics_sanity():
    failures = []
    dim = 64
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)
    # raw integrator output at 10 checkpoints: trace and positivity budgets
    lv = dynamics.liouvillian(dim, p, LossParams(0.1))
    rho = QuantumState.vacuum(dim).density_matrix().reshape(-1)
    worst_tr, worst_eig = 0.0, 0.0
    for k in range(1, 11):
        rho = expm_multiply(lv * 0.05, rho)
        mat = rho.reshape(dim, dim)
        tr_dev = abs(float(np.trace(mat).real) - 1.0)
        low = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0])
        worst_tr = max(worst_tr, tr_dev)
        worst_eig = min(worst_eig, low)
        if tr_dev > 1e-9:
            failures.append(f"Kt={0.05 * k:.2f}: trace deviation {tr_dev:.3e} > 1e-9")
        if low < -1e-9:
            failures.append(f"Kt={0.05 * k:.2f}: eigenvalue {low:.3e} < -1e-9")
    evolve_lindblad(QuantumState.vacuum(dim), p, LossParams(0.1), 0.5)  # must not raise

    # free decay of the excitation number under H = 0
    free = HamiltonianParams(delta=0.0, epsilon=0.0, kerr=0.0)
    start = QuantumState.coherent(48, 1.2)
    n0 = fock.ladder_moments(start)[2]
    decayed = evolve_lindblad(start, free, LossParams(0.25), 0.8)
    n_t = fock.ladder_moments(decayed)[2]
    decay_err = abs(n_t - n0 * math.exp(-0.25 * 0.8))
    if decay_err > 1e-7:
        failures.append(f"free decay <n> off by {decay_err:.3e} > 1e-7")

    # the echo keeps its advantage over linear readout at gamma/K = 0.1
    cfg = ExperimentConfig(
        "loss-robustness",
        (0.0,), (2.0,), (1.0,), (0.1,),
        tuple(np.linspace(0.1, 0.45, 8)),
        (0.0,),
    )
    row = run_loss_robustness(cfg, dim=dim).rows[0]
    if not row.chi2inv_mai > row.chi2inv_1:
        failures.append(
            f"gamma=0.1: max MAI {row.chi2inv_mai} not above max linear {row.chi2inv_1}"
        )
    _verdict(
        8,
        "lossy-physics-sanity",
        failures,
        f"max trace dev {worst_tr:.1e}, min eig {worst_eig:.1e}, "
        f"decay err {decay_err:.1e}, MAI {row.chi2inv_mai:.2f} > chi {row.chi2inv_1:.2f}",
    )


def test_criterion_09_scaling_study():
    # squeezed states obey F_Q = 2(1 + 2N + 2 sqrt(N(N+1))); Kerr slopes of
    # F_Q = a N + 4 grow with the drive but stay below the squeezing limit 8
    failures, worst = [], 0.0
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=0.0)
    for r in (0.2, 0.5, 1.0):
        state = evolve_unitary(QuantumState.vacuum(160), p, r / 4.0)
        n_mean = fock.ladder_moments(state)[2]
        exact = 2.0 * (1.0 + 2.0 * n_mean + 2.0 * math.sqrt(n_mean * (n_mean + 1.0)))
        rel = abs(qfi_max(state).value - exact) / exact
        worst = max(worst, rel)
        if rel > 1e-6:
            failures.append(f"r={r}: F_Q(N) relation rel err {rel:.3e} > 1e-6")

    kt = tuple(np.linspace(0.0, 1.5, 601))
    cfg = ExperimentConfig(
        "scaling", (0.0,), (1.0, 2.0, 4.0, 8.0), (1.0,), (0.0,), kt, (0.0,)
    )
    slopes = [fit.a for fit in run_scaling(cfg, dim=None).fits]
    if not all(a < b for a, b in zip(slopes, slopes[1:])):
        failures.append(f"slopes not strictly increasing: {slopes}")
    if not all(a < 8.0 for a in slopes):
        failures.append(f"slope at or above 8: {slopes}")
    _verdict(
        9,
        "scaling-study",
        failures,
        f"relation rel err {worst:.2e}, slopes {np.round(slopes, 3).tolist()}",
    )


# the origin-only parity grid intentionally covers none of the state
@pytest.mark.filterwarnings("ignore::kerrsense.wigner.GridCoverageWarning")
def test_criterion_10_wigner_checks():
    failures = []
    vacuum = QuantumState.vacuum(16)
    w = wigner(vacuum, DEFAULT_GRID)
    dx = DEFAULT_GRID.x_values[1] - DEFAULT_GRID.x_values[0]
    dp = DEFAULT_GRID.p_values[1] - DEFAULT_GRID.p_values[0]
    norm_err = abs(float(w.sum()) * dx * dp - 1.0)
    if norm_err > 1e-3:
        failures.append(f"vacuum normalization off by {norm_err:.3e} > 1e-3")
    i0 = DEFAULT_GRID.nx // 2
    peak_err = abs(float(w[i0, i0]) - 1.0 / math.pi)
    if peak_err > 1e-6:
        failures.append(f"vacuum W(0,0) off 1/pi by {peak_err:.3e} > 1e-6")

    # non-Gaussian lossy state: parity identity at the origin and negativity
    p = HamiltonianParams(delta=0.0, epsilon=2.0, kerr=1.0)
    state = evolve_lindblad(QuantumState.vacuum(64), p, LossParams(0.1), 0.4)
    origin = PhaseGrid(x_range=(-1e-12, 1e-12), p_range=(-1e-12, 1e-12), nx=8, np=8)
    parity_err = abs(
        math.pi * float(wigner(state, origin).mean()) - parity_expectation(state)
    )
    if parity_err > 1e-8:
        failures.append(f"parity identity off by {parity_err:.3e} > 1e-8")
    w_min = float(
        wigner(state, PhaseGrid(x_range=(-5.0, 5.0), p_range=(-5.0, 5.0), nx=41, np=41)).min()
    )
    if not w_min < 0.0:
        failures.append(f"lossy prepared state min W = {w_min} not negative")
    _verdict(
        10,
        "wigner-checks",
        failures,
        f"norm err {norm_err:.1e}, peak err {peak_err:.1e}, "
        f"parity err {parity_err:.1e}, min W {w_min:.3f}",
    )


def test_criterion_11_determinism_and_schema(tmp_path):
    failures = []
    text = "experiment = fig2\ndelta = 0, 1\nepsilon = 0, 2\n"
    outputs = []
    for name in ("a.csv", "b.csv"):
        cfg = parse_config(text, experiment="fig2")
        result = run_experiment(cfg, dim=48)
        path = tmp_path / name
        path.write_text(rows_to_csv(result.rows))
        outputs.append(path.read_bytes())
    if outputs[0] != outputs[1]:
        failures.append("two identical-config runs differ byte-for-byte")
    header = outputs[0].decode().splitlines()[0]
    expected = "delta,epsilon,kerr,gamma,kt,dim,N,v_min,chi2inv_1,chi2inv_2,chi2inv_3,f_q,chi2inv_mai,status"
    if header != expected:
        failures.append(f"CSV header {header!r} does not match the declared schema")
    _verdict(
        11,
        "determinism-and-schema",
        failures,
        f"{len(outputs[0])} identical bytes, header pinned",
    )
