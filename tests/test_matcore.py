"""Structured-matrix algebra and guarded dense linear algebra."""

import numpy as np
import pytest

from gnp import kernels, matcore
from gnp.errors import DomainError, GnpError, NumericalError
from gnp.matcore import structured

from util import random_symmetric, random_symplectic, random_valid_g


def test_structured_identities():
    for n in (1, 2, 3):
        J = structured("J", n)
        Om = structured("Omega", n)
        E = structured("E", n)
        I = structured("I", n)
        np.testing.assert_array_equal(Om @ E, J)
        np.testing.assert_array_equal(J @ E, Om)
        np.testing.assert_array_equal(E @ J, -Om)
        np.testing.assert_array_equal(Om @ J, E)
        np.testing.assert_array_equal(J @ J, -I)
        np.testing.assert_array_equal(Om @ Om, I)
        np.testing.assert_array_equal(E @ E, I)


def test_structured_rejects_unknown_kind():
    with pytest.raises(ValueError):
        structured("K", 1)


@pytest.mark.parametrize("kind", ["J", "Omega", "E", "I"])
def test_structured_is_built_once_and_read_only(kind):
    M = structured(kind, 2)
    assert structured(kind, 2) is M
    with pytest.raises(ValueError, match="read-only"):
        M[0, 0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        M *= 2


@pytest.mark.parametrize("args, error, message", [
    (("K", 1), ValueError, "unknown structured kind 'K', expected one of "
                           "('J', 'Omega', 'E', 'I')"),
    (("J", 0), ValueError, "n_modes must be >= 1"),
    (("J", 2.0), TypeError, "'float' object cannot be interpreted as an integer"),
], ids=["unknown-kind", "no-modes", "float-modes"])
def test_a_failed_structured_call_caches_nothing(args, error, message):
    structured("J", 2)          # a cached (J, 2) must not answer (J, 2.0)
    cached = matcore._structured.cache_info().currsize
    with pytest.raises(error) as err:
        structured(*args)
    assert str(err.value) == message
    assert matcore._structured.cache_info().currsize == cached


def test_eig_decomp_reconstructs():
    rng = np.random.default_rng(11)
    for _ in range(10):
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        dec = matcore.eig_decomp(M)
        np.testing.assert_allclose(dec.reconstruct(), M,
                                   atol=matcore.TOL_EIG * np.abs(M).max())


def test_eig_decomp_refuses_defective_matrix():
    M = np.array([[1.0, 1.0], [0.0, 1.0]])  # Jordan block
    with pytest.raises(NumericalError):
        matcore.eig_decomp(M)


def test_eig_decomp_condition_guard_just_inside_and_outside():
    # the eigenbasis condition of [[1, 1], [0, 1 + e]] grows as 2 / e
    inside = matcore.eig_decomp([[1.0, 1.0], [0.0, 1.0 + 4e-12]])
    assert 0.1 * matcore.COND_LIMIT < inside.condition_estimate < matcore.COND_LIMIT
    with pytest.raises(NumericalError, match=r"condition 2\.000e\+12 exceeds"):
        matcore.eig_decomp([[1.0, 1.0], [0.0, 1.0 + 1e-12]])


def _stack_of_three(bad):
    """A 3-matrix stack whose matrix 1 is bad."""
    return np.array([np.diag([1.0, 2.0]), bad, np.diag([3.0, 4.0])])


def test_eig_condition_guard_names_the_failing_matrix():
    with pytest.raises(NumericalError, match="near-defective at matrix 1$"):
        matcore.eig_decomp(_stack_of_three([[1.0, 1.0], [0.0, 1.0]]))


def test_eig_residual_guard_names_the_failing_matrix(monkeypatch):
    eig = np.linalg.eig
    scale = 1 + np.array([0.0, 2.0, 0.0])[:, None] * matcore.TOL_EIG
    monkeypatch.setattr(np.linalg, "eig", lambda M: (eig(M)[0] * scale, eig(M)[1]))
    with pytest.raises(NumericalError, match=r"residual 2\.000e-09 > 1e-09 at matrix 1$"):
        matcore.eig_decomp(_stack_of_three(np.diag([5.0, 6.0])))


def test_solve_condition_guard_names_the_failing_matrix():
    bad = np.diag([1.0, 1.0 / (2.0 * matcore.COND_LIMIT)])
    with pytest.raises(NumericalError, match=r"exceeds 1\.0e\+12 at matrix 1$"):
        matcore.inverse(_stack_of_three(bad))


def test_solve_residual_guard_names_the_failing_matrix(monkeypatch):
    solve = np.linalg.solve
    scale = 1 + np.array([0.0, 2.0, 0.0])[:, None, None] * matcore.TOL_SOLVE
    monkeypatch.setattr(np.linalg, "solve", lambda M, B: solve(M, B) * scale)
    with pytest.raises(NumericalError, match=r"residual 2\.000e-10 > 1e-10 at matrix 1$"):
        matcore.inverse(_stack_of_three(np.diag([5.0, 6.0])))


@pytest.mark.parametrize("call, bad", [
    (matcore.eig_decomp, [[1.0, 1.0], [0.0, 1.0]]),
    (matcore.inverse, np.diag([1.0, 1.0 / (2.0 * matcore.COND_LIMIT)])),
    (kernels.sigma_to_g, 0.5 * np.eye(2)),
], ids=["eig-condition", "solve-condition", "sigma-to-g-domain"])
def test_a_stack_of_one_reads_like_one_matrix(call, bad):
    # guard and first_failing name a matrix only in a stack of two or more
    with pytest.raises(GnpError) as one:
        call(np.array(bad))
    with pytest.raises(type(one.value)) as stacked:
        call(np.array([bad]))
    assert str(stacked.value) == str(one.value)
    assert "at matrix" not in str(one.value)


def test_dense_solve_refuses_a_nan_right_hand_side():
    with pytest.raises(NumericalError, match="solve residual nan > 1e-10$"):
        matcore.dense_solve(np.eye(2), [np.nan, 1.0])


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_eig_decomp_residual_guard_just_inside_and_outside(factor, monkeypatch):
    # eigenvalues scaled by (1 + delta) reconstruct diag(1, 2) with relative
    # residual delta
    delta = factor * matcore.TOL_EIG
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig",
                        lambda M: (eig(M)[0] * (1 + delta), eig(M)[1]))
    M = np.diag([1.0, 2.0])
    if factor < 1:
        np.testing.assert_allclose(matcore.eig_decomp(M).values,
                                   [1.0 + delta, 2.0 + 2.0 * delta])
    else:
        with pytest.raises(NumericalError, match="residual 2.000e-09"):
            matcore.eig_decomp(M)


def test_mat_exp_matches_series():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((4, 4)) * 0.2
    series = np.eye(4)
    term = np.eye(4)
    for k in range(1, 30):
        term = term @ M / k
        series = series + term
    np.testing.assert_allclose(matcore.mat_exp(M), series, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mat_exp_of_a_stack_equals_each_matrix(n):
    rng = np.random.default_rng([4, n])
    J = structured("J", n)
    for B in (J @ random_symmetric(2 * n, rng), -1j * random_symmetric(2 * n, rng) @ J):
        M = np.multiply.outer(np.linspace(-1.0, 3.0, 101), B)
        stacked = matcore.mat_exp(M)
        assert stacked.shape == M.shape
        assert np.array_equal(stacked, [matcore.mat_exp(Mk) for Mk in M])


def test_mat_exp_stack_fails_if_any_member_fails():
    M = np.zeros((5, 2, 2))
    M[3, 0, 1] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        matcore.mat_exp(M)
    M[3] = [[800.0, 0.0], [0.0, 0.0]]          # e^800 overflows
    with pytest.raises(NumericalError, match="overflowed"), \
            np.errstate(over="ignore"):
        matcore.mat_exp(M)


CONVERSIONS = (
    (kernels.g_to_sigma, "G"), (kernels.g_to_r, "G"), (kernels.c_from_g, "G"),
    (kernels.sigma_to_g, "sigma"), (kernels.sigma_to_r, "sigma"),
    (kernels.sigma_to_c, "sigma"), (kernels.r_to_sigma, "R"),
    (kernels.c_to_sigma, "C"),
)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_primitive_and_conversion_takes_a_stack(n):
    rng = np.random.default_rng([27, n])
    d = 2 * n
    M = (rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
         + 3 * np.eye(d))
    B = rng.standard_normal((5, d, 2)) + 1j * rng.standard_normal((5, d, 2))
    primitives = (
        matcore.mat_exp, matcore.determinant, matcore.inverse,
        matcore.symplectic_residual,
        lambda X: matcore.mat_analytic(X, np.exp),
        lambda X: matcore.dense_solve(X, B[0]),
    )
    for f in primitives:
        assert np.array_equal(f(M), [f(Mk) for Mk in M])
    assert type(matcore.determinant(M[0])) is complex
    assert type(matcore.symplectic_residual(M[0])) is float
    assert np.array_equal(matcore.dense_solve(M, B),
                          [matcore.dense_solve(Mk, Bk) for Mk, Bk in zip(M, B)])
    dec = matcore.eig_decomp(M)
    for k, Mk in enumerate(M):
        one = matcore.eig_decomp(Mk)
        assert type(one.condition_estimate) is float
        assert dec.condition_estimate[k] == one.condition_estimate
        for field in ("values", "right_vectors", "inverse_vectors"):
            assert np.array_equal(getattr(dec, field)[k], getattr(one, field))
        assert np.array_equal(dec.reconstruct()[k], one.reconstruct())
    # the eight conversions, on random Williamson kernels
    G = np.array([random_valid_g(n, rng) for _ in range(5)])
    forms = {"G": G, "sigma": np.array([kernels.g_to_sigma(Gk) for Gk in G])}
    forms["R"] = np.array([kernels.sigma_to_r(s) for s in forms["sigma"]])
    forms["C"] = np.array([kernels.sigma_to_c(s) for s in forms["sigma"]])
    for f, form in CONVERSIONS:
        assert np.array_equal(f(forms[form]), [f(X) for X in forms[form]]), f.__name__
    for f in (*primitives, matcore.eig_decomp):
        with pytest.raises(ValueError, match="square"):
            f(np.zeros((2, 2, d, d)))
        with pytest.raises(ValueError, match="square"):
            f(np.zeros((3, d, d + 1)))


def test_mat_analytic_scalar_consistency():
    M = np.diag([0.5, 1.5, -0.3])
    out = matcore.mat_analytic(M, np.exp)
    np.testing.assert_allclose(np.diag(out), np.exp([0.5, 1.5, -0.3]))


def test_mat_analytic_inverts_the_eigenvectors_once(monkeypatch):
    # eig_decomp keeps the V^-1 of its reconstruction guard for the result
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda M: calls.append(M) or inv(M))
    M = np.array([[1.0, 0.3], [0.2, 2.0]])
    out = matcore.mat_analytic(M, np.exp)
    assert len(calls) == 1
    np.testing.assert_allclose(out, matcore.mat_exp(M), rtol=1e-12)


def test_mat_analytic_pole_raises_domain_error():
    # coth has a pole at 0; an eigenvalue there must be refused
    M = np.diag([1.0, 0.0])
    with pytest.raises(DomainError):
        matcore.mat_analytic(M, lambda x: 1.0 / np.tanh(x))


def test_mat_analytic_pole_names_the_failing_matrix():
    coth = lambda x: 1.0 / np.tanh(x)
    with pytest.raises(DomainError,
                       match=r"^function not finite at eigenvalue\(s\) \[0\.\+0\.j\]$"):
        matcore.mat_analytic(np.diag([1.0, 0.0]), coth)
    with pytest.raises(DomainError, match=r"eigenvalue\(s\) \[0\.\+0\.j\] at matrix 1$"):
        matcore.mat_analytic(_stack_of_three(np.diag([1.0, 0.0])), coth)


def test_dense_solve_and_inverse():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    B = rng.standard_normal((5, 2))
    X = matcore.dense_solve(M, B)
    np.testing.assert_allclose(M @ X, B, atol=1e-10)
    np.testing.assert_allclose(matcore.inverse(M) @ M, np.eye(5), atol=1e-12)


def test_dense_solve_refuses_singular():
    M = np.ones((3, 3))
    with pytest.raises(NumericalError):
        matcore.dense_solve(M, np.eye(3))


def test_dense_solve_condition_guard_just_inside_and_outside():
    inside = np.diag([1.0, 1.0 / (0.5 * matcore.COND_LIMIT)])
    np.testing.assert_allclose(matcore.dense_solve(inside, np.ones(2)),
                               [1.0, 0.5 * matcore.COND_LIMIT])
    outside = np.diag([1.0, 1.0 / (2.0 * matcore.COND_LIMIT)])
    with pytest.raises(NumericalError, match="condition"):
        matcore.dense_solve(outside, np.ones(2))


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_dense_solve_residual_guard_just_inside_and_outside(factor, monkeypatch):
    # a solution scaled by (1 + delta) leaves the relative residual delta
    delta = factor * matcore.TOL_SOLVE
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda M, B: solve(M, B) * (1 + delta))
    M, B = np.diag([1.0, 2.0]), np.array([1.0, 4.0])
    if factor < 1:
        np.testing.assert_allclose(matcore.dense_solve(M, B), [1.0, 2.0], rtol=2 * delta)
    else:
        with pytest.raises(NumericalError, match="residual 2.000e-10"):
            matcore.dense_solve(M, B)


def test_non_finite_input_rejected():
    M = np.array([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(NumericalError):
        matcore.determinant(M)


def test_symplectic_residual_zero_for_group_elements():
    rng = np.random.default_rng(19)
    from util import random_symplectic
    for n in (1, 2):
        S = random_symplectic(n, rng)
        assert matcore.symplectic_residual(S) < 1e-12
    # a clearly non-symplectic matrix has order-one residual
    assert matcore.symplectic_residual(2 * np.eye(2)) > 1.0


def test_stacked_symplectic_residuals_match_each_matrix():
    rng = np.random.default_rng(20)
    for n in (1, 2, 3, 4):
        S = np.array([random_symplectic(n, rng, scale=s) for s in (0.1, 0.5, 1.0)])
        S[2] += 1e-6 * rng.standard_normal(S[2].shape)
        J = structured("J", n)
        expected = [max(np.abs(M.T @ J @ M - J).max(), np.abs(M @ J @ M.T - J).max())
                    for M in S]
        stacked = matcore.symplectic_residual(S)
        np.testing.assert_array_equal(stacked, expected)
        assert [matcore.symplectic_residual(M) for M in S] == list(stacked)
    # a long stack
    m = 259
    S = np.array([random_symplectic(2, rng, scale=0.5) for _ in range(m)])
    S[::7] += 1e-6 * rng.standard_normal(S[::7].shape)
    stacked = matcore.symplectic_residual(S)
    assert stacked.shape == (m,)
    assert [matcore.symplectic_residual(M) for M in S] == list(stacked)
