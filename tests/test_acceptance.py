"""Acceptance gate: the twelve toolkit-level criteria.

Each test prints a single pass/fail line with its measured residual before
asserting, so a full run doubles as a report.  Criterion 9 compares the
literal normal-product flow against the independent Fock-space oracle; see
test_criterion_09 for why it is expected to fail as formulated.
"""

import warnings

import numpy as np
import pytest

from gnp import bridge, dynamics, fockoracle as fo, kernels, matcore, phasespace
from gnp.matcore import structured

from util import random_symmetric, random_valid_g

LN2 = np.log(2.0)


@pytest.fixture
def report_line(capsys):
    """Print one pass/fail line per criterion straight to the terminal."""
    def _line(num, label, residual, tol, ok):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"criterion {num:2d} [{status}] {label}: "
                  f"residual {residual:.3e} (tol {tol:.0e})")
    return _line


def test_criterion_01_kernel_chain_equivalence(report_line):
    rng = np.random.default_rng(1001)
    worst = 0.0
    for k in range(50):
        n = 1 + k % 3
        G = random_valid_g(n, rng)
        direct = kernels.g_to_r(G)
        chained = kernels.sigma_to_r(kernels.g_to_sigma(G))
        worst = max(worst, np.abs(direct - chained).max() /
                    np.abs(chained).max())
    ok = worst <= 1e-9
    report_line(1, "direct G->R vs chained conversion", worst, 1e-9, ok)
    assert ok


def test_criterion_02_round_trips(report_line):
    rng = np.random.default_rng(1002)
    worst = 0.0
    for k in range(50):
        n = 1 + k % 3
        G = random_valid_g(n, rng)
        sigma = kernels.g_to_sigma(G)
        worst = max(worst, np.abs(kernels.sigma_to_g(sigma) - G).max() /
                    np.abs(G).max())
        R = kernels.sigma_to_r(sigma)
        worst = max(worst, np.abs(kernels.r_to_sigma(R) - sigma).max() /
                    np.abs(sigma).max())
    ok = worst <= 1e-9
    report_line(2, "round trips G<->sigma and sigma<->R", worst, 1e-9, ok)
    assert ok


def test_criterion_03_symplectic_propagators(report_line):
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(20):
        n = rng.integers(1, 4)
        H = random_symmetric(2 * n, rng, scale=0.5)
        for t in (0.5, 1.0, 2.0):
            S = dynamics.covariance_propagator(H, t).left
            worst = max(worst, matcore.symplectic_residual(S))
    ok = worst <= 1e-10
    report_line(3, "exp(J H t) symplectic residual", worst, 1e-10, ok)
    assert ok


def test_criterion_04_rk4_vs_closed_form(report_line):
    rng = np.random.default_rng(1004)
    worst = 0.0
    for k in range(50):
        n = 1 + k % 2
        R0 = kernels.g_to_r(random_valid_g(n, rng))
        H = random_symmetric(2 * n, rng, scale=0.6)
        traj = dynamics.integrate_rk4("normal", R0, H, 1.0, 1000)
        closed = dynamics.normal_propagate(R0, H, 1.0, "b")
        worst = max(worst, np.abs(traj.kernels[-1] - closed).max() /
                    np.abs(closed).max())
    ok = worst <= 1e-7
    report_line(4, "RK4 flow vs closed-form propagation", worst, 1e-7, ok)
    assert ok


def test_criterion_05_determinant_conservation(report_line):
    rng = np.random.default_rng(1005)
    R0 = kernels.g_to_r(random_valid_g(1, rng))
    H = random_symmetric(2, rng, scale=0.8)
    worst_closed = 0.0
    det0 = matcore.determinant(R0)
    for t in np.linspace(0.0, 2.0, 41):
        det_t = matcore.determinant(dynamics.normal_propagate(R0, H, t, "b"))
        worst_closed = max(worst_closed, abs(det_t - det0) / abs(det0))
    traj = dynamics.integrate_rk4("normal", R0, H, 2.0, 2000)
    worst_rk4 = traj.max_det_drift
    ok = worst_closed <= 1e-10 and worst_rk4 <= 1e-8
    report_line(5, "det R conservation (closed then rk4)",
            max(worst_closed, worst_rk4), 1e-8, ok)
    assert worst_closed <= 1e-10
    assert worst_rk4 <= 1e-8


def test_criterion_06_ordering_audit(report_line):
    H = np.array([[0.5, 1.0], [1.0, 0.5]])
    R0 = kernels.ensure_form(kernels.make_thermal([LN2]), "R")
    rep = dynamics.ordering_audit(R0, H, 1.0)
    ok = (rep.residuals["b"] <= 1e-6 and rep.residuals["a"] > 1e-2
          and rep.consistent_variants == ["b"] and not rep.vacuous)
    report_line(6, "ordering audit separates the variants",
            rep.residuals["b"], 1e-6, ok)
    assert ok


def test_criterion_07_thermal_stationarity(report_line):
    E = structured("E", 1)
    worst = 0.0
    for om in (0.5, 1.0, 2.0):
        worst = max(worst, np.abs(dynamics.normal_rhs(-0.5 * E, om * E)).max())
    ok = worst <= 1e-14
    report_line(7, "thermal kernel stationary under matched H", worst, 1e-14, ok)
    assert ok


def test_criterion_08_oracle_calibration(report_line):
    rho = fo.gaussian_density(fo.PhysicalSpec("thermal", [LN2]), 40)
    q0_res = abs(fo.q_of_rho(rho, 0.0) - 0.5)
    hess_res = np.abs(fo.r_from_q_hessian(rho) - 0.5 * structured("E", 1)).max()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = bridge.calibrate(cutoff=40)
    winners = [g for g in rep.degeneracy_groups
               if rep.kernel_residuals[g[0]] <= 1e-6]
    ok = (q0_res <= 1e-8 and hess_res <= 1e-6 and len(winners) == 1
          and rep.selected.residual <= 1e-6)
    report_line(8, "oracle Q(0), log-Hessian kernel, unique bridge",
            max(q0_res, hess_res, rep.selected.residual), 1e-6, ok)
    assert q0_res <= 1e-8
    assert hess_res <= 1e-6
    # uniqueness is asserted over measurement-distinguishable classes:
    # maps that agree on every suite kernel are one hypothesis, not two
    assert len(winners) == 1


def test_criterion_09_end_to_end_dynamics_vs_oracle(report_line):
    """Literal normal-product flow against Liouville evolution by the oracle.

    This criterion is expected to FAIL: the flow equation propagates the
    kernel linearly, but the exact coherent-state expectation of the
    Liouville-evolved density is a nonlinear (Moebius) function of the
    kernel.  Under H = I the flow predicts excitation growth at twice the
    true rate, and the origin value stays at 1 while the true Q(0) falls
    like 1/cosh(t).  The comparison below is implemented faithfully on both
    sides; the assertion records the discrepancy instead of hiding it.
    """
    state = kernels.make_thermal([20.0])      # vacuum limit
    R0 = kernels.ensure_form(state, "R")
    H = np.eye(2)
    rho0 = fo.gaussian_density(fo.PhysicalSpec("thermal", [20.0]), 40)
    pts = [x + 1j * y for x in (-0.5, 0.0, 0.5) for y in (-0.5, 0.0, 0.5)]
    worst = 0.0
    for t in (0.25, 0.5):
        R_t = dynamics.normal_propagate(R0, H, t, "b")
        evolved = kernels.GaussianState(1, {"R": R_t})
        rho_t = fo.liouville_step(rho0, H, t)
        for z in pts:
            q_flow = phasespace.husimi_q(evolved, z, kernels.CALIBRATED)
            q_true = fo.q_of_rho(rho_t, z)
            worst = max(worst, abs(q_flow - q_true))
    ok = worst <= 1e-5
    report_line(9, "flow-evolved Q vs Liouville oracle Q", worst, 1e-5, ok)
    assert ok, (
        f"known discrepancy {worst:.3e}: the literal flow equation is not "
        "equivalent to Liouville evolution (origin value sech(t) vs 1)"
    )


def test_criterion_10_gauss_integral_vs_quadrature(report_line):
    rng = np.random.default_rng(1010)
    xs = np.linspace(-7.0, 7.0, 401)
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    z = xg + 1j * yg
    h = xs[1] - xs[0]
    worst = 0.0
    for _ in range(10):
        d = rng.uniform(1.2, 2.0)
        b = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.25
        c = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.25
        V = np.array([[d, b], [c, d]])
        X = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 0.4
        quad_form = (V[0, 0] * np.conj(z) * z + V[0, 1] * np.conj(z) ** 2
                     + V[1, 0] * z ** 2 + V[1, 1] * z * np.conj(z))
        integrand = np.exp(-0.5 * quad_form + np.conj(z) * X[0] + z * X[1])
        quad = integrand.sum() * h * h / np.pi
        closed = phasespace.gauss_integral(V, X, kernels.CALIBRATED)
        worst = max(worst, abs(closed - quad))
    ok = worst <= 1e-6
    report_line(10, "Gaussian integral closed form vs 2D quadrature",
            worst, 1e-6, ok)
    assert ok


def test_criterion_11_determinant_exponential_identity(report_line):
    rng = np.random.default_rng(1011)
    worst = 0.0
    for _ in range(20):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        A *= 2.0 / max(np.linalg.norm(A), 1.0)
        lhs = matcore.determinant(matcore.mat_exp(A))
        rhs = np.exp(np.trace(A))
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst <= 1e-10
    report_line(11, "det exp(A) = exp(tr A)", worst, 1e-10, ok)
    assert ok


def test_criterion_12_derivative_identities(report_line):
    rho = fo.gaussian_density(fo.PhysicalSpec("thermal", [LN2]), 40)
    pts = (0.0, 0.3 + 0.1j, -0.4 + 0.25j, 0.6, -0.2 - 0.5j)
    worst = 0.0
    for z in pts:
        rep = fo.derivative_identity_check(rho, z)
        assert not rep.truncation_flagged
        worst = max(worst, rep.residual_rho_a, rep.residual_at_rho)
    ok = worst <= 1e-6
    report_line(12, "coherent-state derivative identities", worst, 1e-6, ok)
    assert ok
