"""Covariance and normal-product flows: closed forms, RK4, audits."""

import numpy as np
import pytest
from scipy.linalg import expm

from gnp import dynamics, kernels, matcore
from gnp.matcore import structured

from util import off_real_symmetric, random_symmetric, random_valid_g

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

def rk4_reference(kind, X0, H, t_end, steps):
    """The stage-wise RK4 loop, four right-hand sides per step: the kernels
    and the det drift of each step."""
    J = structured("J", len(H) // 2)
    B = J @ H if kind == "covariance" else -1j * H @ J
    X = np.asarray(X0, dtype=complex)
    h = t_end / steps
    det0 = np.linalg.det(X)
    kernels_, drift = [X], [0.0]
    for k in range(steps):
        k1 = dynamics._rhs(B, X)
        k2 = dynamics._rhs(B, X + 0.5 * h * k1)
        k3 = dynamics._rhs(B, X + 0.5 * h * k2)
        k4 = dynamics._rhs(B, X + h * k3)
        X = X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(X)):
            raise matcore.NumericalError(f"non-finite kernel at step {k + 1}")
        kernels_.append(X)
        drift.append(abs(np.linalg.det(X) - det0) / abs(det0))
    return kernels_, drift


def rk4_input(kind, n, rng):
    G = random_valid_g(n, rng)
    X0 = kernels.g_to_sigma(G) if kind == "covariance" else kernels.g_to_r(G)
    return X0, random_symmetric(2 * n, rng, scale=0.6)


@pytest.mark.parametrize("kind", ["normal", "covariance"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rk4_increment_matches_the_stage_wise_loop(kind, n):
    rng = np.random.default_rng([94, n])
    X0, H = rk4_input(kind, n, rng)
    for steps in (1, 10, 1000):
        ref, ref_drift = rk4_reference(kind, X0, H, 1.0, steps)
        traj = dynamics.integrate_rk4(kind, X0, H, 1.0, steps)
        assert len(traj.kernels) == steps + 1
        for X, R in zip(traj.kernels, ref):
            assert np.abs(X - R).max() <= 1e-12 * np.abs(R).max(), steps
        # det_drift is relative to |det X0| already
        assert np.abs(traj.det_drift - ref_drift).max() <= 1e-12, steps


def rk4_allocating_loop(kind, X0, H, t_end, steps):
    """integrate_rk4's increment loop with a new array for every operation:
    the kernels of each step."""
    B = dynamics._generator(dynamics._flow_of(kind), H)
    d = B.shape[0]
    h = float(t_end) / steps
    eye = np.eye(d * d)
    hL = h * (np.kron(B, np.eye(d)) + np.kron(np.eye(d), B))
    D = hL @ (eye + hL / 2 @ (eye + hL / 3 @ (eye + hL / 4)))
    x = np.empty((steps + 1, d * d), dtype=complex)
    x[0] = np.asarray(X0, dtype=complex).ravel()
    c = np.zeros(d * d, dtype=complex)
    for k in range(steps):
        dx = D @ x[k] - c
        x[k + 1] = x[k] + dx
        c = (x[k + 1] - x[k]) - dx
    return x.reshape(steps + 1, d, d)


@pytest.mark.parametrize("kind", ["normal", "covariance"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rk4_in_place_steps_equal_the_allocating_loop(kind, n):
    X0, H = rk4_input(kind, n, np.random.default_rng([98, n]))
    for steps in (1, 10, 1000):
        traj = dynamics.integrate_rk4(kind, X0, H, 1.0, steps)
        np.testing.assert_array_equal(traj.kernels,
                                      rk4_allocating_loop(kind, X0, H, 1.0, steps))


def test_rk4_det_drift_on_grown_kernels_stays_within_the_stage_wise_loop():
    # these H grow R until |R|^2 >> |det R|, where every rounding of R moves
    # det R; the compensated sum keeps the drift at or below the loop's
    for seed in (4, 27, 30):
        rng = np.random.default_rng([97, seed])
        R0 = kernels.g_to_r(random_valid_g(1, rng))
        A = 2.0 * rng.standard_normal((2, 2))
        H = A @ A.T + np.eye(2)
        ref_drift = rk4_reference("normal", R0, H, 1.0, 1000)[1]
        traj = dynamics.integrate_rk4("normal", R0, H, 1.0, 1000)
        assert traj.det_drift.max() <= max(ref_drift)


def test_rk4_blow_up_names_the_first_non_finite_step():
    # h * 100 per step: each step multiplies the kernel by ~4e6
    H = 100.0 * np.eye(2)
    R0 = thermal_r()
    with pytest.raises(matcore.NumericalError) as ref, np.errstate(all="ignore"):
        rk4_reference("normal", R0, H, 60.0, 60)
    with pytest.raises(matcore.NumericalError) as new:
        dynamics.integrate_rk4("normal", R0, H, 60.0, 60)
    assert str(ref.value) == "non-finite kernel at step 40"
    assert str(new.value) == str(ref.value)


# thermal R (omega = 1.3) under this H: S = exp(Bt) stays finite to t = 200,
# but S R0 S^T overflows part way
OVERFLOW_H = np.array([[4.0, 0.5], [0.5, 3.0]])


def test_closed_form_overflow_names_the_first_non_finite_step():
    R0 = kernels.ensure_form(kernels.make_thermal([1.3]), "R")
    with pytest.raises(matcore.NumericalError) as err:
        dynamics.closed_form_trajectory("normal", R0, OVERFLOW_H, 200.0, 100)
    assert str(err.value) == "non-finite kernel at step 52"


def test_rk4_overflow_message_is_unchanged():
    R0 = kernels.ensure_form(kernels.make_thermal([1.3]), "R")
    with pytest.raises(matcore.NumericalError) as err:
        dynamics.integrate_rk4("normal", R0, OVERFLOW_H, 200.0, 100)
    assert str(err.value) == "non-finite kernel at step 94"


@pytest.mark.parametrize("kind", ["normal", "covariance"])
def test_rk4_at_t_zero_is_constant(kind):
    X0, H = rk4_input(kind, 2, np.random.default_rng(95))
    traj = dynamics.integrate_rk4(kind, X0, H, 0.0, 10)
    np.testing.assert_array_equal(traj.times, np.zeros(11))
    for X in traj.kernels:
        np.testing.assert_array_equal(X, X0)
    np.testing.assert_array_equal(traj.det_drift, np.zeros(11))
    # RK4 applies no propagator, so there is no symplectic residual to log
    assert traj.symplectic_residual is None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_logs_a_small_symplectic_residual_for_every_flow(n):
    for flow in ("a", "b", "covariance"):
        kind, variant = ("covariance", "b") if flow == "covariance" \
            else ("normal", flow)
        X0, H = rk4_input(kind, n, np.random.default_rng([96, n]))
        traj = dynamics.closed_form_trajectory(kind, X0, H, 1.0, 1000, variant)
        assert traj.symplectic_residual.shape == (1001,)
        assert traj.max_symplectic_residual < 1e-10, flow


def test_rk4_makes_no_exponential_for_either_kind(monkeypatch):
    calls = []
    monkeypatch.setattr(matcore, "mat_exp", lambda M: calls.append(M) or expm(M))
    for kind in ("normal", "covariance"):
        X0, H = rk4_input(kind, 2, np.random.default_rng(97))
        dynamics.integrate_rk4(kind, X0, H, 1.0, 100)
    assert calls == []


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hamiltonian_refuses_a_non_finite_kernel(bad):
    with pytest.raises(ValueError, match="^H must be finite$"):
        dynamics.QuadraticHamiltonian(1, [[bad, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("part", ["asymmetric", "imaginary"])
def test_hamiltonian_real_symmetric_bound_just_inside_and_outside(part):
    # the bound is 1e-12 on |Im H| and on |H - H^T|
    ham = dynamics.QuadraticHamiltonian(1, off_real_symmetric(part, 0.5e-12))
    assert ham.H.dtype == float
    with pytest.raises(ValueError, match="^H must be real symmetric$"):
        dynamics.QuadraticHamiltonian(1, off_real_symmetric(part, 2e-12))


def test_rk4_rejects_bad_inputs():
    with pytest.raises(ValueError):
        dynamics.integrate_rk4("hamiltonian", np.eye(2), np.eye(2), 1.0, 10)
    with pytest.raises(ValueError):
        dynamics.integrate_rk4("normal", np.eye(2), np.eye(2), 1.0, 0)


@pytest.mark.parametrize("steps", [0, -3])
@pytest.mark.parametrize("t_end", [1.0, 0.0])
def test_closed_form_rejects_fewer_than_one_step(steps, t_end):
    with pytest.raises(ValueError, match="^steps must be >= 1$"):
        dynamics.closed_form_trajectory("normal", thermal_r(), np.eye(2), t_end, steps)


@pytest.mark.parametrize("variant", ["a", "b"])
def test_closed_form_runs_backward_for_negative_t_end(variant):
    R0, H = thermal_r(), np.array([[0.5, 1.0], [1.0, 0.5]])
    traj = dynamics.closed_form_trajectory("normal", R0, H, -1.0, 10, variant)
    np.testing.assert_array_equal(traj.times, np.linspace(0.0, -1.0, 11))
    for t, R in zip(traj.times[[5, 10]], traj.kernels[[5, 10]]):
        np.testing.assert_allclose(R, dynamics.normal_propagate(R0, H, t, variant),
                                   rtol=0, atol=1e-12)
    if variant == "b":      # RK4 integrates the same flow backward
        rk4 = dynamics.integrate_rk4("normal", R0, H, -1.0, 1000)
        np.testing.assert_allclose(rk4.kernels[-1], traj.kernels[-1], rtol=0, atol=1e-9)


def test_det_conserved_along_normal_flow():
    rng = np.random.default_rng(79)
    R0 = kernels.g_to_r(random_valid_g(1, rng))
    H = random_symmetric(2, rng)
    traj = dynamics.integrate_rk4("normal", R0, H, 2.0, 2000)
    assert traj.max_det_drift < 1e-8


def test_max_symplectic_residual_only_where_logged():
    st = kernels.make_thermal([1.0])
    for kind, form in (("covariance", "sigma"), ("normal", "R")):
        X0 = kernels.ensure_form(st, form)
        rk4 = dynamics.integrate_rk4(kind, X0, np.eye(2), 0.5, 50)
        assert rk4.max_symplectic_residual is None
        closed = dynamics.closed_form_trajectory(kind, X0, np.eye(2), 0.5, 50)
        assert closed.max_symplectic_residual < 1e-10


def test_maxima_skip_nan_rows_after_the_first():
    traj = dynamics.Trajectory("normal", np.eye(2), [0.0, 1.0, 2.0],
                               [thermal_r()] * 3)
    traj.det_drift = np.array([0.0, np.nan, 1e-3])
    traj.symplectic_residual = np.array([1e-16, np.nan, 2e-16])
    assert traj.max_det_drift == 1e-3
    assert traj.max_symplectic_residual == 2e-16


def test_caller_built_trajectory_carries_its_invariants():
    R0 = thermal_r()
    traj = dynamics.Trajectory("normal", np.eye(2), [0.0, 1.0],
                               [R0.real, 2.0 * R0.real])
    assert traj.kernels.dtype == float and traj.dets.dtype == complex
    assert traj.dets.tolist() == [complex(np.linalg.det(R0.real)),
                                  complex(np.linalg.det(2.0 * R0.real))]
    assert traj.det_drift.tolist() == [0.0, 3.0]
    assert traj.symplectic_residual is None


def test_empty_trajectory_is_refused():
    with pytest.raises(ValueError, match="^empty trajectory$"):
        dynamics.Trajectory("normal", np.eye(2), [], [])


def test_caller_built_non_finite_kernel_names_its_step():
    R0 = thermal_r()
    bad = R0.copy()
    bad[1, 0] = np.inf
    with pytest.raises(matcore.NumericalError, match="^non-finite kernel at step 2$"):
        dynamics.Trajectory("normal", np.eye(2), [0.0, 1.0, 2.0, 3.0],
                            [R0, R0, bad, R0])


def test_closed_form_overflow_measures_no_propagator():
    # the symplectic residual is taken after the finiteness guard, so an
    # overflowing run raises before any product of its grown S can warn
    R0 = kernels.ensure_form(kernels.make_thermal([1.3]), "R")
    with pytest.raises(matcore.NumericalError):
        dynamics.closed_form_trajectory("normal", R0, OVERFLOW_H, 200.0, 100)


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


def test_convention_audit_reports_deviations():
    st = kernels.make_thermal([LN2])
    rep = dynamics.convention_audit(st, np.array([[0.5, 1.0], [1.0, 0.5]]), 1.0)
    assert set(rep.residuals) == {"a", "b"}
    assert all(np.isfinite(v) for v in rep.residuals.values())
    assert rep.note


# ---------------------------------------------------------------------------
# time stacks: every multi-time closed form from one stacked exponential

def ordering_audit_reference(R0, H, t_end):
    """The per-time loop ordering_audit replaced: three propagations per
    sample time; (residuals, consistent variants)."""
    h = 1e-5 * max(1.0, abs(t_end))
    ts = np.linspace(t_end / dynamics.AUDIT_SAMPLES, t_end, dynamics.AUDIT_SAMPLES)
    residuals, consistent = {}, []
    for variant in ("a", "b"):
        worst = scale = 0.0
        for t in ts:
            Rp = dynamics.normal_propagate(R0, H, t + h, variant)
            Rm = dynamics.normal_propagate(R0, H, t - h, variant)
            dR = (Rp - Rm) / (2 * h)
            rhs = dynamics.normal_rhs(dynamics.normal_propagate(R0, H, t, variant), H)
            worst = max(worst, float(np.abs(dR - rhs).max()))
            scale = max(scale, float(np.abs(rhs).max()))
        residuals[variant] = worst
        if worst <= dynamics.AUDIT_TOL * max(1.0, scale):
            consistent.append(variant)
    return residuals, consistent


def convention_audit_reference(state, H, t_end):
    """The per-time loop convention_audit replaced."""
    sigma0 = kernels.ensure_form(state, "sigma")
    R0 = kernels.ensure_form(state, "R")
    residuals = {"a": 0.0, "b": 0.0}
    for t in np.linspace(0.0, t_end, dynamics.CONVENTION_SAMPLES):
        R_from_sigma = kernels.sigma_to_r(dynamics.covariance_propagate(sigma0, H, t))
        for v in residuals:
            R_v = dynamics.normal_propagate(R0, H, t, v)
            residuals[v] = max(residuals[v], float(np.abs(R_v - R_from_sigma).max()))
    return residuals


def audit_inputs():
    """(state, H, t_end) on 1-3 modes, with a grown kernel and t_end = 0."""
    rng = np.random.default_rng(98)
    yield kernels.make_thermal([LN2]), np.array([[0.5, 1.0], [1.0, 0.5]]), 1.0
    yield kernels.make_thermal([LN2]), np.array([[4.0, 0.5], [0.5, 3.0]]), 1.0
    yield kernels.make_thermal([LN2]), structured("E", 1), 1.0
    yield kernels.make_squeezed_thermal([0.9], [0.3]), np.eye(2), 0.0
    for n in (1, 2, 3):
        st = kernels.make_squeezed_thermal(list(rng.uniform(0.5, 1.5, n)),
                                           list(rng.uniform(-0.3, 0.3, n)))
        yield st, random_symmetric(2 * n, rng, scale=0.6), 0.7 * n


def test_ordering_audit_equals_the_per_time_loop():
    for st, H, t_end in audit_inputs():
        R0 = kernels.ensure_form(st, "R")
        rep = dynamics.ordering_audit(R0, H, t_end)
        residuals, consistent = ordering_audit_reference(R0, H, t_end)
        assert rep.residuals == residuals
        assert rep.consistent_variants == consistent


def test_convention_audit_equals_the_per_time_loop():
    for st, H, t_end in audit_inputs():
        rep = dynamics.convention_audit(st, H, t_end)
        assert rep.residuals == convention_audit_reference(st, H, t_end)


@pytest.mark.parametrize("flow", ["a", "b", "covariance"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_closed_form_trajectory_equals_per_time_propagation(flow, n):
    kind, variant = ("covariance", "b") if flow == "covariance" else ("normal", flow)
    X0, H = rk4_input(kind, n, np.random.default_rng([99, n]))
    # stacks of 301, 2 and 1 times
    for t_end, steps in ((1.3, 300), (0.4, 1), (0.0, 10)):
        traj = dynamics.closed_form_trajectory(kind, X0, H, t_end, steps, variant)
        m = steps + 1 if t_end > 0 else 1
        assert traj.times.shape == (m,) and traj.kernels.shape == (m, 2 * n, 2 * n)
        if kind == "covariance":
            per_time = [dynamics.covariance_propagate(X0, H, t) for t in traj.times]
            props = [dynamics.covariance_propagator(H, t) for t in traj.times]
        else:
            per_time = [dynamics.normal_propagate(X0, H, t, variant)
                        for t in traj.times]
            props = [dynamics.normal_propagator(H, t, variant) for t in traj.times]
        # every flow logs the residual of the S it applied
        assert traj.symplectic_residual.tolist() == [
            matcore.symplectic_residual(p.left) for p in props]
        assert np.array_equal(traj.kernels, per_time)
        dets = [complex(np.linalg.det(X)) for X in per_time]
        assert traj.det_drift.tolist() == [
            abs(d - dets[0]) / max(abs(dets[0]), 1e-300) for d in dets]


def test_each_flow_takes_one_stacked_exponential(monkeypatch):
    calls = []

    def counted(M):
        calls.append(np.shape(M))
        return expm(M)
    monkeypatch.setattr(matcore, "mat_exp", counted)
    st = kernels.make_squeezed_thermal([0.9], [0.3])
    H = np.array([[0.5, 1.0], [1.0, 0.5]])
    dynamics.closed_form_trajectory("covariance", st.forms["sigma"], H, 1.0, 1000)
    assert calls == [(1001, 2, 2)]
    calls.clear()
    dynamics.ordering_audit(kernels.ensure_form(st, "R"), H, 1.0)
    assert calls == [(3 * dynamics.AUDIT_SAMPLES, 2, 2)] * 2
    calls.clear()
    dynamics.convention_audit(st, H, 1.0)
    assert calls == [(dynamics.CONVENTION_SAMPLES, 2, 2)] * 3
