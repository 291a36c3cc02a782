"""Covariance and normal-product flows: closed forms, RK4, audits."""

import numpy as np
import pytest
from scipy.linalg import expm

from gnp import dynamics, kernels, matcore
from gnp.matcore import structured

from util import random_symmetric, random_valid_g

LN2 = np.log(2.0)


def thermal_r():
    return kernels.ensure_form(kernels.make_thermal([LN2]), "R")


# ---------------------------------------------------------------------------
# closed forms

def test_variant_b_frozen_example():
    # R0 = -0.5 E, H = I: R(t) = -0.5 (cosh(2t) E - i sinh(2t) Omega)
    E = structured("E", 1)
    Om = structured("Omega", 1)
    R = dynamics.normal_propagate(-0.5 * E, np.eye(2), 0.5, variant="b")
    expected = -0.5 * (np.cosh(1.0) * E - 1j * np.sinh(1.0) * Om)
    np.testing.assert_allclose(R, expected, atol=1e-12)
    assert abs(np.cosh(1.0) - 1.5430806348) < 1e-9
    assert abs(np.sinh(1.0) - 1.1752011936) < 1e-9


def test_covariance_propagator_is_symplectic():
    rng = np.random.default_rng(31)
    for _ in range(5):
        H = random_symmetric(4, rng)
        p = dynamics.covariance_propagator(H, 1.0)
        assert matcore.symplectic_residual(p.left) < 1e-10


def test_covariance_flow_preserves_determinant():
    # det exp(J H t) = exp(t tr(J H)) = 1 for symmetric H
    rng = np.random.default_rng(13)
    st = kernels.make_thermal([0.8])
    H = random_symmetric(2, rng)
    sigma_t = dynamics.covariance_propagate(st.forms["sigma"], H, 1.3)
    d0 = matcore.determinant(st.forms["sigma"])
    dt = matcore.determinant(sigma_t)
    assert abs(dt - d0) / abs(d0) < 1e-12


def test_normal_rhs_thermal_stationary():
    E = structured("E", 1)
    for om in (0.5, 1.0, 2.0):
        rhs = dynamics.normal_rhs(-0.5 * E, om * E)
        assert np.abs(rhs).max() < 1e-14


def test_variants_coincide_at_t_zero():
    R0 = thermal_r()
    H = np.array([[0.5, 1.0], [1.0, 0.5]])
    for v in ("a", "b"):
        np.testing.assert_allclose(
            dynamics.normal_propagate(R0, H, 0.0, v), R0, atol=1e-14)


# ---------------------------------------------------------------------------
# one linear flow X-dot = B X + X B^T for every generator

@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_flow_propagator_is_symplectic_with_unit_det(n):
    # S^T J S = J forces det S = +-1, and det S = exp(t tr B) = 1; so det X
    # is conserved along all three flows
    rng = np.random.default_rng(90 + n)
    J = structured("J", n)
    for _ in range(3):
        H = random_symmetric(2 * n, rng, scale=0.5)
        for t in (0.5, 1.0, 2.0):
            props = {v: dynamics.normal_propagator(H, t, v) for v in ("a", "b")}
            props["covariance"] = dynamics.covariance_propagator(H, t)
            for flow, p in props.items():
                S = p.left
                assert np.abs(S.T @ J @ S - J).max() < 1e-10, (flow, t)
                assert abs(np.linalg.det(S) - 1) < 1e-12, (flow, t)


def test_variant_b_equals_the_two_exponential_form():
    rng = np.random.default_rng(93)
    for n in (1, 2, 3):
        J = structured("J", n)
        R0 = kernels.g_to_r(random_valid_g(n, rng))
        H = random_symmetric(2 * n, rng, scale=0.5)
        for t in (0.5, 1.0, 2.0):
            expected = expm(-1j * H @ J * t) @ R0 @ expm(1j * J @ H * t)
            R = dynamics.normal_propagate(R0, H, t, "b")
            assert np.abs(R - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("kind", ["normal", "covariance"])
def test_rk4_builds_its_generator_once_per_run(kind, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return structured(*args)
    monkeypatch.setattr(dynamics, "structured", counted)
    st = kernels.make_squeezed_thermal([0.9], [0.3])
    X0 = kernels.ensure_form(st, "R" if kind == "normal" else "sigma")
    H = np.array([[0.5, 1.0], [1.0, 0.5]])
    counts = []
    for steps in (10, 100):
        calls.clear()
        dynamics.integrate_rk4(kind, X0, H, 1.0, steps)
        counts.append(len(calls))
    assert counts == [1, 1]


# ---------------------------------------------------------------------------
# RK4 integrator

def test_rk4_matches_closed_form_variant_b():
    rng = np.random.default_rng(77)
    R0 = kernels.g_to_r(random_valid_g(1, rng))
    H = random_symmetric(2, rng)
    traj = dynamics.integrate_rk4("normal", R0, H, 1.0, 500)
    closed = dynamics.normal_propagate(R0, H, 1.0, "b")
    np.testing.assert_allclose(traj.kernels[-1], closed,
                               atol=1e-8 * np.abs(closed).max())


def test_rk4_covariance_matches_symplectic_closed_form():
    rng = np.random.default_rng(78)
    st = kernels.make_squeezed_thermal([1.1], [0.2])
    H = random_symmetric(2, rng)
    traj = dynamics.integrate_rk4("covariance", st.forms["sigma"], H, 1.0, 500)
    closed = dynamics.covariance_propagate(st.forms["sigma"], H, 1.0)
    np.testing.assert_allclose(traj.kernels[-1], closed, atol=1e-8)


def test_rk4_rejects_bad_inputs():
    with pytest.raises(ValueError):
        dynamics.integrate_rk4("hamiltonian", np.eye(2), np.eye(2), 1.0, 10)
    with pytest.raises(ValueError):
        dynamics.integrate_rk4("normal", np.eye(2), np.eye(2), 1.0, 0)


def test_det_conserved_along_normal_flow():
    rng = np.random.default_rng(79)
    R0 = kernels.g_to_r(random_valid_g(1, rng))
    H = random_symmetric(2, rng)
    traj = dynamics.integrate_rk4("normal", R0, H, 2.0, 2000)
    rep = dynamics.invariants_report(traj)
    assert rep.max_det_drift < 1e-8


def test_invariants_report_logdet_trace():
    st = kernels.make_thermal([1.0])
    # sigma is positive definite, so ln det = tr ln is testable there
    traj = dynamics.integrate_rk4("covariance", st.forms["sigma"],
                                  np.eye(2), 0.5, 50)
    rep = dynamics.invariants_report(traj)
    assert rep.max_symplectic_residual < 1e-10
    assert rep.logdet_trace_residual < 1e-12 or rep.notes


# ---------------------------------------------------------------------------
# audits

def test_ordering_audit_discriminates():
    H = np.array([[0.5, 1.0], [1.0, 0.5]])
    rep = dynamics.ordering_audit(thermal_r(), H, 1.0)
    assert not rep.vacuous
    assert rep.consistent_variants == ["b"]
    assert rep.residuals["b"] <= 1e-6
    assert rep.residuals["a"] > 1e-2


def test_ordering_audit_accepts_variant_b_on_a_grown_kernel():
    # the kernel grows to max|rhs| ~ 1.9e3 by t = 1, so the finite-difference
    # residual of the correct variant exceeds 1e-6 in absolute terms
    H = np.array([[4.0, 0.5], [0.5, 3.0]])
    rep = dynamics.ordering_audit(thermal_r(), H, 1.0)
    assert rep.consistent_variants == ["b"]
    assert rep.residuals["b"] > 1e-6          # reported residuals stay absolute
    assert rep.residuals["a"] > 0.3 * 1.9e3   # relative residual ~0.35


def test_ordering_audit_vacuous_for_stationary_kernel():
    rep = dynamics.ordering_audit(thermal_r(), structured("E", 1), 1.0)
    assert rep.vacuous
    assert rep.note


def test_convention_audit_reports_deviations():
    st = kernels.make_thermal([LN2])
    rep = dynamics.convention_audit(st, np.array([[0.5, 1.0], [1.0, 0.5]]), 1.0)
    assert set(rep.residuals) == {"a", "b"}
    assert all(np.isfinite(v) for v in rep.residuals.values())
    assert rep.note
