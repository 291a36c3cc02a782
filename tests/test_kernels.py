"""Kernel forms, conversions, spectra and prefactors."""

import numpy as np
import pytest

from gnp import bridge, kernels
from gnp.errors import DomainError
from gnp.matcore import structured

from util import off_real_symmetric, random_valid_g

LN2 = np.log(2.0)


# ---------------------------------------------------------------------------
# frozen single-state values

def test_thermal_ln2_closed_forms():
    st = kernels.make_thermal([LN2])
    E = structured("E", 1)
    np.testing.assert_allclose(st.forms["G"], LN2 * np.eye(2), atol=1e-15)
    np.testing.assert_allclose(st.forms["sigma"], 3.0 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(kernels.ensure_form(st, "R"), -0.5 * E, atol=1e-12)
    np.testing.assert_allclose(kernels.ensure_form(st, "C"), 1.5 * np.eye(2),
                               atol=1e-12)


def test_g_to_sigma_is_coth_half():
    # diag(omega, omega) -> diag(coth(omega/2), coth(omega/2))
    for om in (0.5, 1.0, 2.0):
        st = kernels.make_thermal([om])
        sigma = kernels.g_to_sigma(st.forms["G"])
        np.testing.assert_allclose(np.diag(sigma).real,
                                   [1 / np.tanh(om / 2)] * 2, atol=1e-12)


@pytest.mark.parametrize("omegas", [[0.7], [0.5, 1.7], [0.6, 1.0, 1.5]])
def test_thermal_is_exactly_diagonal(omegas):
    # squeezed thermal at r = 0: S = I leaves both kernels bit-exact
    st = kernels.make_thermal(omegas)
    nus = (1 + np.exp(-np.array(omegas))) / (1 - np.exp(-np.array(omegas)))
    np.testing.assert_array_equal(st.forms["G"], np.diag(omegas + omegas))
    np.testing.assert_array_equal(st.forms["sigma"], np.diag(np.concatenate([nus, nus])))
    assert st.provenance == f"thermal(omegas={omegas})"


@pytest.mark.parametrize("omega", [np.nan, np.inf, 0.0])
@pytest.mark.parametrize("make", [
    lambda om: kernels.make_thermal([om]),
    lambda om: kernels.make_squeezed_thermal([om], [0.3])],
    ids=["thermal", "squeezed-thermal"])
def test_family_refuses_a_frequency_not_finite_and_positive(make, omega):
    with pytest.raises(DomainError,
                       match="^all Williamson frequencies must be finite and positive$"):
        make(omega)


@pytest.mark.parametrize("rs", [[np.nan], [np.inf], [0.3, 0.1]])
def test_squeezed_thermal_needs_one_finite_squeeze_per_mode(rs):
    with pytest.raises(ValueError, match="^need one finite squeeze parameter per mode$"):
        kernels.make_squeezed_thermal([1.0], rs)


@pytest.mark.parametrize("r", [20.0, -20.0, 400.0, -400.0])
def test_squeezed_thermal_inverts_s_exactly_or_refuses_an_overflow(r):
    # S(r) is singular to working precision at |r| = 20, S(-r) is its
    # inverse; G carries cosh(r)^2, past the largest double at |r| = 400
    if abs(r) < 355:
        st = kernels.make_squeezed_thermal([1.0], [r])
        assert all(np.all(np.isfinite(M)) for M in st.forms.values())
    else:
        with pytest.raises(DomainError, match=rf"^squeezes \[{r}\] give a "
                           "non-finite G or sigma$"):
            kernels.make_squeezed_thermal([1.0], [r])


def test_squeezed_thermal_consistency():
    st = kernels.make_squeezed_thermal([1.0], [0.4])
    np.testing.assert_allclose(kernels.g_to_sigma(st.forms["G"]),
                               st.forms["sigma"], atol=1e-10)


# ---------------------------------------------------------------------------
# randomized round trips and chain equivalence

@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_round_trips(n_modes):
    rng = np.random.default_rng(100 + n_modes)
    for _ in range(10):
        G = random_valid_g(n_modes, rng)
        sigma = kernels.g_to_sigma(G)
        np.testing.assert_allclose(kernels.sigma_to_g(sigma), G,
                                   atol=1e-9 * np.abs(G).max())
        R = kernels.sigma_to_r(sigma)
        np.testing.assert_allclose(kernels.r_to_sigma(R), sigma,
                                   atol=1e-9 * np.abs(sigma).max())
        C = kernels.sigma_to_c(sigma)
        np.testing.assert_allclose(kernels.c_to_sigma(C), sigma,
                                   atol=1e-10 * np.abs(sigma).max())


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_direct_g_to_r_equals_chain(n_modes):
    rng = np.random.default_rng(200 + n_modes)
    for _ in range(10):
        G = random_valid_g(n_modes, rng)
        direct = kernels.g_to_r(G)
        chained = kernels.sigma_to_r(kernels.g_to_sigma(G))
        np.testing.assert_allclose(direct, chained,
                                   atol=1e-9 * np.abs(chained).max())


def test_c_from_g_equals_sigma_path():
    rng = np.random.default_rng(42)
    G = random_valid_g(2, rng)
    np.testing.assert_allclose(kernels.c_from_g(G),
                               kernels.sigma_to_c(kernels.g_to_sigma(G)),
                               atol=1e-10)


def test_sigma_to_g_rejects_vacuum_boundary():
    with pytest.raises(DomainError):
        kernels.sigma_to_g(np.eye(2))


def test_sigma_to_g_domain_guard_just_inside_and_outside():
    # thermal sigma = nu I; the guard refuses |nu| <= 1 + 1e-10
    G = kernels.sigma_to_g((1 + 1e-9) * np.eye(2))
    assert np.all(np.isfinite(G)) and G[0, 0].real > 0
    with pytest.raises(DomainError):
        kernels.sigma_to_g((1 + 1e-11) * np.eye(2))


def test_sigma_to_g_domain_guard_names_the_failing_matrix():
    message = (r"sigma\*Omega has eigenvalue\(s\) \[ 0\.5\+0\.j -0\.5\+0\.j\] in "
               r"\[-1, 1\]; arccoth is undefined there \(unphysical sigma\)")
    with pytest.raises(DomainError, match=f"^{message}$"):
        kernels.sigma_to_g(0.5 * np.eye(2))
    sigmas = np.array([2.0 * np.eye(2), 0.5 * np.eye(2), 3.0 * np.eye(2)])
    with pytest.raises(DomainError, match=f"^{message} at matrix 1$"):
        kernels.sigma_to_g(sigmas)


# ---------------------------------------------------------------------------
# spectra

def test_symplectic_spectrum_thermal():
    st = kernels.make_thermal([0.5, 1.7])
    spec = kernels.symplectic_spectrum(st.forms["G"])
    np.testing.assert_allclose(spec.omegas, [0.5, 1.7], atol=1e-10)
    np.testing.assert_allclose(
        spec.nus, (1 + np.exp([-0.5, -1.7])) / (1 - np.exp([-0.5, -1.7])),
        atol=1e-10)


def test_symplectic_spectrum_invariant_under_squeezing():
    st = kernels.make_squeezed_thermal([0.9, 1.3], [0.3, 0.1])
    spec = kernels.symplectic_spectrum(st.forms["G"])
    np.testing.assert_allclose(spec.omegas, [0.9, 1.3], atol=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_symplectic_spectrum_refuses_a_non_finite_g(bad):
    G = np.eye(2)
    G[0, 1] = G[1, 0] = bad
    with pytest.raises(DomainError, match="^G must be finite$"):
        kernels.symplectic_spectrum(G)


@pytest.mark.parametrize("part", ["asymmetric", "imaginary"])
def test_symplectic_spectrum_real_symmetric_bound_just_inside_and_outside(part):
    # the bound is 1e-12 on |Im G| and on |G - G^T|
    spec = kernels.symplectic_spectrum(off_real_symmetric(part, 0.5e-12))
    np.testing.assert_allclose(spec.omegas, [1.0], atol=1e-9)
    with pytest.raises(DomainError, match="^G must be real symmetric$"):
        kernels.symplectic_spectrum(off_real_symmetric(part, 2e-12))


def test_symplectic_spectrum_rejects_asymmetric():
    with pytest.raises(DomainError):
        kernels.symplectic_spectrum(np.array([[1.0, 0.2], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# validation

def test_validate_thermal_passes():
    st = kernels.make_thermal([LN2])
    report = kernels.validate_state(st)
    assert report.passed
    assert any("cross" in c.name for c in report.checks)


@pytest.mark.parametrize("form", kernels.FORMS)
def test_state_refuses_a_non_finite_kernel(form):
    # validate_state would read a NaN G as positive definite, raise from numpy
    # on sigma or from the R check, and pass a NaN C unchecked
    M = np.eye(2, dtype=complex)
    M[1, 0] = np.nan
    with pytest.raises(ValueError, match=f"^form {form}: kernel must be finite$"):
        kernels.GaussianState(1, {form: M})


def test_validate_catches_asymmetric_g():
    st = kernels.GaussianState(1, {"G": np.array([[1.0, 0.3], [0.0, 1.0]])})
    assert not kernels.validate_state(st).passed


def test_validate_all_four_forms_check_names():
    st = kernels.make_squeezed_thermal([0.9], [0.3])
    full = kernels.GaussianState(1, {f: kernels.ensure_form(st, f) for f in kernels.FORMS})
    report = kernels.validate_state(full)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "G.real", "G.symmetric", "G.positive_definite",
        "sigma.symmetric", "sigma.thermal_floor", "R.nonsingular",
        "cross.G_vs_sigma", "cross.sigma_vs_R", "cross.sigma_vs_C"]


def test_validate_without_sigma_checks_r_and_c_against_g():
    st = kernels.make_thermal([1.3])
    forms = {f: kernels.ensure_form(st, f) for f in ("G", "R", "C")}
    names = [c.name for c in kernels.validate_state(kernels.GaussianState(1, forms)).checks]
    assert [n for n in names if n.startswith("cross.")] == ["cross.G_vs_R", "cross.G_vs_C"]


def test_validate_catches_inconsistent_pair():
    st = kernels.GaussianState(
        1, {"G": (LN2 * np.eye(2)).astype(complex),
            "sigma": (5.0 * np.eye(2)).astype(complex)})
    report = kernels.validate_state(st)
    assert not report.passed


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_cross_form_check_just_inside_and_outside(factor):
    # sigma = 3 I stored with relative error delta: the G-vs-sigma residual is delta
    delta = factor * kernels.TOL_CONV
    st = kernels.make_thermal([LN2])
    st.forms["sigma"] = st.forms["sigma"] * (1 + delta)
    check, = [c for c in kernels.validate_state(st).checks if c.name == "cross.G_vs_sigma"]
    assert check.residual == pytest.approx(delta, rel=1e-6)
    assert check.passed == (factor < 1)


@pytest.mark.parametrize("stored", kernels.FORMS)
def test_ensure_form_converts_from_any_single_stored_form(stored):
    sq = kernels.make_squeezed_thermal([0.9], [0.3])
    st = kernels.GaussianState(1, {stored: kernels.ensure_form(sq, stored)})
    for form in kernels.FORMS:
        np.testing.assert_allclose(kernels.ensure_form(st, form),
                                   kernels.ensure_form(sq, form), rtol=0, atol=1e-9)
    with pytest.raises(ValueError, match="no conversion path"):
        kernels.ensure_form(kernels.GaussianState(1, {}), "R")


# ---------------------------------------------------------------------------
# prefactors

def test_prefactor_as_published_flags_imaginary():
    # det(-0.5 E) = -0.25, so the printed sqrt(det R) is imaginary
    E = structured("E", 1)
    N, _ = bridge.resolve_convention(-0.5 * E, kernels.AS_PUBLISHED)
    assert abs(N - 0.5j) < 1e-12 or abs(N + 0.5j) < 1e-12


def test_prefactor_calibrated_normalizes():
    E = structured("E", 1)
    assert abs(kernels.trace_of_normal_exponential(0.5 * E) - 2.0) < 1e-12
    # the calibrated map negates -0.5 E to 0.5 E before its prefactor rule
    N, R = bridge.resolve_convention(-0.5 * E, kernels.CALIBRATED)
    np.testing.assert_array_equal(R, 0.5 * E)
    assert abs(N - 0.5) < 1e-12


def test_trace_of_normal_exponential_rejects_growth():
    E = structured("E", 1)
    with pytest.raises(DomainError):
        kernels.trace_of_normal_exponential(-0.5 * E)


def test_husimi_decays_follows_the_kernel_sign():
    E = structured("E", 1)
    assert kernels.husimi_decays(0.5 * E)
    assert not kernels.husimi_decays(-0.5 * E)
    assert not kernels.husimi_decays(np.zeros((2, 2)))
