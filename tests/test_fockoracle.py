"""Truncated Fock-space oracle: operators, densities, Q values, identities."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from gnp import bridge, dynamics, fockoracle as fo, kernels
from gnp.errors import DomainError, TruncationError
from gnp.matcore import structured

LN2 = np.log(2.0)


def dense_ladder_vector(n_modes, cutoff):
    """A = (a_1..a_n, a_1^+..a_n^+) as full-space kron matrices."""
    a = np.diag(np.sqrt(np.arange(1, cutoff)), 1)
    ann = []
    for mode in range(n_modes):
        out = np.eye(1)
        for k in range(n_modes):
            out = np.kron(out, a if k == mode else np.eye(cutoff))
        ann.append(out.astype(complex))
    return ann + [x.conj().T for x in ann]


def dense_quad_operator(M, cutoff):
    """(1/2) sum_ij M_ij A_i A_j as full-space dense products."""
    n = len(M) // 2
    A = dense_ladder_vector(n, cutoff)
    out = np.zeros((cutoff ** n, cutoff ** n), dtype=complex)
    for i in range(2 * n):
        for j in range(2 * n):
            if M[i, j] != 0:
                out += 0.5 * M[i, j] * (A[i] @ A[j])
    return out


# ---------------------------------------------------------------------------
# operators

@pytest.mark.parametrize("cutoff", [0, 1])
def test_gaussian_density_refuses_cutoff_below_two(cutoff):
    with pytest.raises(ValueError, match="^cutoff must be >= 2$"):
        fo.gaussian_density(fo.PhysicalSpec(kind="thermal", omegas=[LN2]), cutoff)


def test_quad_operator_number_form():
    # M = E gives a^+ a + 1/2 away from the truncation edge
    D = 12
    op = fo.quad_operator(structured("E", 1), D)
    diag = np.diag(op).real
    np.testing.assert_allclose(diag[:-1], np.arange(D - 1) + 0.5, atol=1e-13)


def test_quad_operator_zero_and_squeeze_forms():
    D = 8
    zero = fo.quad_operator(np.zeros((2, 2)), D)
    assert np.abs(zero).max() == 0.0
    a = dense_ladder_vector(1, D)[0]
    sq = fo.quad_operator(np.eye(2), D)
    np.testing.assert_allclose(sq, 0.5 * (a @ a + a.conj().T @ a.conj().T),
                               atol=1e-13)


@pytest.mark.parametrize("n_modes,cutoff", [(1, 9), (2, 5), (3, 3)])
def test_kron_terms_equal_dense_products(n_modes, cutoff):
    rng = np.random.default_rng(n_modes)
    for _ in range(3):
        d = 2 * n_modes
        M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M[rng.uniform(size=(d, d)) < 0.3] = 0.0
        assert np.array_equal(fo.quad_operator(M, cutoff),
                              dense_quad_operator(M, cutoff))


def _imported_names(module):
    """Every module and module.name a gnp module imports, as absolute names."""
    tree = ast.parse(Path(module.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "gnp" + (f".{base}" if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _imports_from(names, module):
    return any(name == module or name.startswith(module + ".") for name in names)


def test_oracle_imports_nothing_from_kernels():
    names = _imported_names(fo)
    assert not _imports_from(names, "gnp.kernels"), sorted(names)


def test_kernels_imports_nothing_from_the_layers_above():
    # bridge, phasespace, dynamics, stateio and cli all build on kernels
    names = _imported_names(kernels)
    assert {name.split(".")[1] for name in names if name.startswith("gnp.")} \
        <= {"matcore", "errors"}, sorted(names)


# ---------------------------------------------------------------------------
# densities

def test_thermal_spec_is_the_unsqueezed_conjugation():
    for omegas in ([0.7], [0.7, 1.9], [0.7, 1.9, 2.4]):
        thermal = fo.PhysicalSpec("thermal", omegas)
        zero = fo.PhysicalSpec("squeezed-thermal", omegas, np.zeros(len(omegas)))
        assert np.array_equal(thermal.operator_kernel, zero.operator_kernel)


@pytest.mark.parametrize("omega", [np.nan, np.inf, 0.0])
@pytest.mark.parametrize("kind", ["thermal", "squeezed-thermal"])
def test_spec_refuses_a_frequency_not_finite_and_positive(kind, omega):
    with pytest.raises(DomainError,
                       match="^thermal frequencies must be finite and positive$"):
        fo.PhysicalSpec(kind, [omega], None if kind == "thermal" else [0.3])


@pytest.mark.parametrize("rs", [[np.nan], [np.inf], [0.3, 0.1]])
def test_spec_needs_one_finite_squeeze_per_mode(rs):
    with pytest.raises(ValueError, match="^need one finite squeeze parameter per mode$"):
        fo.PhysicalSpec("squeezed-thermal", [1.0], rs)


@pytest.mark.parametrize("rs", [[0.3], [np.nan]])
def test_thermal_spec_refuses_a_nonzero_squeeze(rs):
    with pytest.raises(ValueError,
                       match="^thermal spec takes no nonzero squeeze parameter$"):
        fo.PhysicalSpec("thermal", [1.0], rs)


@pytest.mark.parametrize("r", [300.0, -300.0, 400.0, -400.0])
def test_spec_refuses_a_squeeze_whose_kernel_overflows(r):
    # the kernel carries cosh(2r) ~ e^{2|r|}/2: finite at |r| = 300
    # (1e260), past the largest double at |r| = 400
    if abs(r) < 355:
        assert np.all(np.isfinite(
            fo.PhysicalSpec("squeezed-thermal", [1.0], [r]).operator_kernel))
    else:
        with pytest.raises(DomainError, match=rf"^squeezes \[{r}\] give a "
                           "non-finite operator kernel$"):
            fo.PhysicalSpec("squeezed-thermal", [1.0], [r])


def test_thermal_spec_accepts_zero_squeezes():
    # calibration_suite passes r = 0 to its thermal members
    spec = fo.PhysicalSpec("thermal", [1.0], [0.0])
    assert np.array_equal(spec.squeezes, [0.0])
    assert np.array_equal(spec.operator_kernel,
                          fo.PhysicalSpec("thermal", [1.0]).operator_kernel)


def dense_padded_density(K, cutoff):
    """One dense exponential of (1/2) A^T K A on the padded (cutoff + PAD)^n
    space, normalised, cut back to the cutoff and renormalised."""
    n = len(K) // 2
    big = cutoff + fo.PAD
    w, V = np.linalg.eigh(dense_quad_operator(K, big))
    rho_big = (V * np.exp(-(w - w.min()))) @ V.conj().T
    rho_big /= np.trace(rho_big).real
    keep = (np.indices((big,) * n).reshape(n, -1) < cutoff).all(axis=0)
    expected = rho_big[np.ix_(keep, keep)]
    expected /= np.trace(expected).real
    return expected


def beam_split(spec, i, j, theta):
    """The spec with its kernel conjugated by a real beam-splitter symplectic
    that mixes modes i and j (0-based): a -> U a, a^+ -> U a^+."""
    U = np.eye(len(spec.omegas))
    U[[i, j], [i, j]] = np.cos(theta)
    U[i, j], U[j, i] = np.sin(theta), -np.sin(theta)
    S = np.kron(np.eye(2), U)
    spec.operator_kernel = S.T @ spec.operator_kernel @ S
    return spec


def test_two_mode_density_is_the_masked_block_of_the_padded_density():
    # a separable kernel is built as one exponential per mode and a product;
    # it matches the dense build of both modes to rounding (measured 9.0e-16)
    spec = fo.PhysicalSpec("squeezed-thermal", [1.7, 2.1], [0.2, 0.1])
    cutoff = 12
    expected = dense_padded_density(spec.operator_kernel, cutoff)
    assert np.abs(fo.gaussian_density(spec, cutoff).matrix - expected).max() <= 1e-14


def test_a_kernel_coupling_every_mode_is_the_dense_padded_density():
    spec = beam_split(fo.PhysicalSpec("squeezed-thermal", [1.7, 2.1], [0.2, 0.1]),
                      0, 1, 0.4)
    assert fo._mode_groups(spec.operator_kernel) == [(0, 1)]
    cutoff = 12
    assert np.array_equal(fo.gaussian_density(spec, cutoff).matrix,
                          dense_padded_density(spec.operator_kernel, cutoff))


@pytest.mark.parametrize("entries,groups", [
    ([], [(0,), (1,), (2,), (3,)]),
    ([(0, 6)], [(0, 2), (1,), (3,)]),                # a_1 a_3^+
    ([(5, 3), (7, 0)], [(0, 1, 3), (2,)]),           # a_2^+ a_4, a_4^+ a_1
    ([(1, 0), (6, 7)], [(0, 1), (2, 3)]),            # a_2 a_1, a_3^+ a_4^+
], ids=["free", "one-pair", "chain", "two-pairs"])
def test_mode_groups_follow_every_coupling_block(entries, groups):
    K = np.diag(np.arange(1.0, 9.0))                 # four modes
    for i, j in entries:
        K[i, j] = 0.1
    assert fo._mode_groups(K) == groups


def test_groups_land_on_their_mode_axes():
    # modes 1 and 3 coupled, mode 2 free: the free group sits between the
    # two axes of the coupled one
    cutoff = 7
    omegas, rs = [3.5, 2.8, 4.0], [0.1, -0.2, 0.15]
    spec = beam_split(fo.PhysicalSpec("squeezed-thermal", omegas, rs), 0, 2, 0.4)
    rho = fo.gaussian_density(spec, cutoff).matrix
    free = fo.gaussian_density(
        fo.PhysicalSpec("squeezed-thermal", omegas[1:2], rs[1:2]), cutoff).matrix
    assert abs(np.trace(rho) - 1.0) <= 1e-14
    assert np.abs(rho - rho.conj().T).max() <= 1e-15
    r = rho.reshape((cutoff,) * 6)              # r[m1, m2, m3, k1, k2, k3]
    np.testing.assert_allclose(np.einsum("abcaec->be", r), free, rtol=0, atol=1e-15)
    pair = [0, 2, 3, 5]
    np.testing.assert_allclose(
        np.einsum("abcdbf->acdf", r).reshape(cutoff ** 2, cutoff ** 2),
        dense_padded_density(spec.operator_kernel[np.ix_(pair, pair)], cutoff),
        rtol=0, atol=1e-15)


def einsum_assembly(spec, cutoff):
    """The per-group padded densities put on their modes' axes by one einsum;
    each group's kernel goes in as a stack of one."""
    kernel = spec.operator_kernel
    n = len(kernel) // 2
    operands = []
    for group in fo._mode_groups(kernel):
        axes = list(group) + [n + i for i in group]
        block = fo._padded_density(kernel[np.ix_(axes, axes)][None], cutoff)[0]
        operands += [block.reshape((cutoff,) * len(axes)), axes]
    return np.einsum(*operands, list(range(2 * n))).reshape(cutoff ** n, cutoff ** n)


@pytest.mark.parametrize("case", ["separable", "interleaved"])
def test_broadcast_product_equals_the_einsum_assembly(case):
    # equal values, bit for bit; an exactly zero imaginary part may carry the
    # other sign, which np.array_equal does not see
    if case == "separable":
        spec, cutoff = fo.PhysicalSpec("squeezed-thermal", [1.7, 2.1], [0.2, 0.1]), 12
    else:       # modes 1 and 3 coupled, mode 2 free, as in the test above
        spec = beam_split(fo.PhysicalSpec("squeezed-thermal", [3.5, 2.8, 4.0],
                                          [0.1, -0.2, 0.15]), 0, 2, 0.4)
        cutoff = 7
    rho = fo.gaussian_density(spec, cutoff).matrix
    assert np.array_equal(rho, einsum_assembly(spec, cutoff))


@pytest.mark.parametrize("build", [
    fo.gaussian_density,
    lambda spec, cutoff: fo.gaussian_densities([spec], cutoff),
], ids=["gaussian_density", "gaussian_densities"])
def test_a_non_hermitian_exponent_in_one_group_raises(build):
    # one spec is a stack of one, whose message names no matrix
    spec = fo.PhysicalSpec("squeezed-thermal", [1.7, 2.1], [0.2, 0.1])
    spec.operator_kernel[1, 1] += 0.3          # a_2 a_2 without a_2^+ a_2^+
    with pytest.raises(DomainError,
                       match="^physical kernel produced a non-Hermitian exponent$"):
        build(spec, 8)


def per_kernel_density(kernel, cutoff):
    """One one-mode kernel's density built on its own: one quad_operator,
    one eigh with the overflow shift, the trace normalisation, the cut back
    to cutoff levels and the second normalisation."""
    big = cutoff + fo.PAD
    w, V = np.linalg.eigh(fo.quad_operator(kernel, big))
    rho = (V * np.exp(-(w - w.min()))) @ V.conj().T
    rho /= np.trace(rho).real
    rho = rho.reshape(big, big)[:cutoff, :cutoff].reshape(cutoff, cutoff)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("cutoff", [30, 40])
def test_the_stacked_suite_equals_one_build_per_kernel(cutoff):
    specs = [spec for _, _, spec in bridge.calibration_suite()]
    rhos = fo.gaussian_densities(specs, cutoff)
    assert len(rhos) == len(specs)
    for spec, rho in zip(specs, rhos):
        expected = per_kernel_density(spec.operator_kernel, cutoff)
        assert np.array_equal(rho.matrix, expected)
        assert np.array_equal(fo.gaussian_density(spec, cutoff).matrix, expected)


@pytest.mark.parametrize("specs", [
    [fo.PhysicalSpec("thermal", [0.7]), fo.PhysicalSpec("thermal", [0.7, 1.9])],
    [fo.PhysicalSpec("squeezed-thermal", [1.7, 2.1], [0.2, 0.1]),
     beam_split(fo.PhysicalSpec("squeezed-thermal", [1.7, 2.1], [0.2, 0.1]), 0, 1, 0.4)],
    [],
], ids=["mode-counts", "coupled-and-separable", "none"])
def test_densities_need_one_structure_of_coupled_modes(specs):
    with pytest.raises(ValueError, match="^specs must share one structure of coupled modes"):
        fo.gaussian_densities(specs, 8)


def test_a_non_hermitian_member_of_a_stack_is_named():
    specs = [fo.PhysicalSpec("thermal", [0.7]), fo.PhysicalSpec("thermal", [0.9])]
    specs[1].operator_kernel[0, 0] += 0.3        # a a without a^+ a^+
    with pytest.raises(DomainError, match="^physical kernel produced a "
                       "non-Hermitian exponent at matrix 1$"):
        fo.gaussian_densities(specs, 8)


@pytest.mark.parametrize("factor", [0.5, 2.0, np.nan])
def test_hermitian_guard_inside_outside_and_at_nan(factor):
    # |M - M^+| reads factor * 1e-12 in entry (0, 1)
    M = np.eye(2, dtype=complex)
    M[0, 1] = factor * 1e-12
    if factor < 1:
        np.testing.assert_allclose(fo._hermitian_function(M, np.exp, "msg"),
                                   np.e * np.eye(2), rtol=1e-15)
    else:
        with pytest.raises(DomainError, match="^msg$"):
            fo._hermitian_function(M, np.exp, "msg")


def test_the_tail_guard_reads_the_product_of_the_groups():
    # three one-mode groups at cutoff 8: their product reads 4.8e-4
    with pytest.raises(TruncationError,
                       match=r"^gaussian_density: tail mass 4\.8\d\de-04 > 1e-04$"):
        fo.gaussian_density(ORACLE_CASES[3][0], 8)


def test_thermal_density_bose_einstein_diagonal():
    D = 30
    rho = fo.gaussian_density(fo.PhysicalSpec("thermal", [LN2]), D).matrix
    k = np.arange(D)
    # the retained block is renormalized, so compare against the truncated
    # geometric distribution; the 2^-30 normalization floor sits just above
    # the raw Bose-Einstein weights
    expected = np.exp(-LN2 * k) / np.exp(-LN2 * k).sum()
    np.testing.assert_allclose(np.diag(rho).real[:D - 5], expected[:D - 5],
                               atol=1e-10)
    assert abs(rho[0, 0].real - 0.5) < 1e-9


def test_thermal_mean_occupation():
    D = 40
    a = dense_ladder_vector(1, D)[0]
    n_op = a.conj().T @ a
    rho1 = fo.gaussian_density(fo.PhysicalSpec("thermal", [LN2]), D).matrix
    assert abs(np.trace(rho1 @ n_op).real - 1.0) < 1e-10
    rho3 = fo.gaussian_density(fo.PhysicalSpec("thermal", [3.0]), D).matrix
    assert abs(np.trace(rho3 @ n_op).real - 1.0 / (np.e ** 3 - 1)) < 1e-10


def test_squeezed_thermal_density_valid():
    rho = fo.gaussian_density(
        fo.PhysicalSpec("squeezed-thermal", [LN2], [0.5]), 40)
    assert abs(rho.trace().real - 1.0) < 1e-12
    w = np.linalg.eigvalsh(rho.matrix)
    assert w.min() > -1e-12


# ---------------------------------------------------------------------------
# the tail-mass guard

def diagonal_density(n_modes, tail):
    """Diagonal density at cutoff 3 with population `tail` on top levels."""
    cutoff = 3
    pops = np.zeros((cutoff,) * n_modes)
    if n_modes == 1:
        pops[2] = tail
    else:
        pops[0, 2] = pops[2, 1] = tail / 2
    pops.flat[0] = 1.0 - tail
    return fo.FockOperator(n_modes, cutoff, np.diag(pops.ravel()))


@pytest.mark.parametrize("n_modes", [1, 2])
def test_tail_mass_reads_the_top_levels(n_modes):
    assert diagonal_density(n_modes, 1e-3).tail_mass() == 1e-3


@pytest.mark.parametrize("n_modes", [1, 2])
def test_check_tail_silent_just_inside_error(n_modes):
    fo._check_tail(diagonal_density(n_modes, fo.TAIL_ERROR * (1 - 1e-6)), "ctx")


@pytest.mark.parametrize("n_modes", [1, 2])
def test_check_tail_raises_just_outside_error(n_modes):
    with pytest.raises(TruncationError, match="ctx: tail mass"):
        fo._check_tail(diagonal_density(n_modes, fo.TAIL_ERROR * (1 + 1e-6)), "ctx")


def test_check_tail_raises_at_a_nan_population():
    rho = fo.FockOperator(1, 3, np.diag([1.0, 0.0, np.nan]))
    with pytest.raises(TruncationError, match=r"^ctx: tail mass nan > 1e-04$"):
        fo._check_tail(rho, "ctx")


# ---------------------------------------------------------------------------
# coherent states and Q values

def per_point_coherent_vector(z, cutoff):
    """|z_1..z_n> by the scalar recursion over levels and a kron per mode."""
    out = np.ones(1, dtype=complex)
    for zi in np.atleast_1d(np.asarray(z, dtype=complex)):
        v = np.zeros(cutoff, dtype=complex)
        v[0] = 1.0
        for k in range(1, cutoff):
            v[k] = v[k - 1] * zi / np.sqrt(k)
        v *= np.exp(-abs(zi) ** 2 / 2.0)
        out = np.kron(out, v)
    return out


def per_point_q(rho, z):
    v = per_point_coherent_vector(z, rho.cutoff)
    return (v.conj() @ rho.matrix @ v).real


def per_point_r_from_q_hessian(rho):
    """The log-Hessian kernel by finite differences, one Q value per point.

    Centered second differences of -ln Q in (x_1..x_n, y_1..y_n) with step
    1e-3, transformed to (z, z*) coordinates: the reference for the exact
    read of `fo.r_from_q_hessian`, to within its ~1e-10 stencil floor.
    """
    n = rho.n_modes

    def f(u):
        return -np.log(per_point_q(rho, u[:n] + 1j * u[n:]))

    h = 1e-3
    H = np.zeros((2 * n, 2 * n))
    f0 = f(np.zeros(2 * n))
    for i in range(2 * n):
        ei = np.zeros(2 * n)
        ei[i] = h
        H[i, i] = (f(ei) - 2 * f0 + f(-ei)) / h ** 2
        for j in range(i + 1, 2 * n):
            ej = np.zeros(2 * n)
            ej[j] = h
            H[i, j] = H[j, i] = (f(ei + ej) - f(ei - ej) - f(-ei + ej)
                                 + f(-ei - ej)) / (4 * h ** 2)
    eye = np.eye(n)
    Tinv = np.linalg.inv(np.block([[eye, 1j * eye], [eye, -1j * eye]]))
    R = Tinv.T @ H @ Tinv
    return 0.5 * (R + R.T)


ORACLE_CASES = {
    1: (fo.PhysicalSpec("squeezed-thermal", [0.7], [0.4]), 40),
    2: (fo.PhysicalSpec("squeezed-thermal", [1.7, 2.1], [0.2, 0.1]), 20),
    # at cutoff 10 the tail caps the kernel read at 1.2e-12
    3: (fo.PhysicalSpec("squeezed-thermal", [1.7, 2.1, 1.3], [0.2, 0.1, -0.15]), 12),
}


def passive(h):
    """H = [[0, h], [h, 0]]: (1/2) A^T H A conserves the photon number."""
    h = np.atleast_2d(h)
    zero = np.zeros_like(h)
    return np.block([[zero, h], [h, zero]])


# squeezed thermal states and the passive H that turns their kernels complex
ROTATED_CASES = {
    1: (fo.PhysicalSpec("squeezed-thermal", [1.0], [0.3]), 40, passive(0.8)),
    2: (ORACLE_CASES[2][0], 14, passive([[0.8, 0.3], [0.3, 1.1]])),
}


def rotated_density(n_modes, t):
    spec, cutoff, H = ROTATED_CASES[n_modes]
    return fo.liouville_step(fo.gaussian_density(spec, cutoff), H, t)


def oracle_density(n_modes):
    spec, cutoff = ORACLE_CASES[n_modes]
    return fo.gaussian_density(spec, cutoff)


def coherent_projector(alpha, cutoff):
    v = fo.coherent_vectors([[alpha]], cutoff)[0]
    return fo.FockOperator(1, cutoff, np.outer(v, v.conj()))


def test_coherent_vector_cases():
    v0, v1 = fo.coherent_vectors([[0.0], [1.0]], 30)
    np.testing.assert_allclose(v0, np.eye(30)[0], atol=1e-15)
    assert abs(np.linalg.norm(v1) - 1.0) < 1e-12
    with pytest.raises(TruncationError):
        fo.coherent_vectors([[4.0]], 10)


def test_coherent_vectors_raise_when_any_row_loses_norm():
    with pytest.raises(TruncationError, match=r"\|z\|=4 loses norm"):
        fo.coherent_vectors([[0.5, 0.1], [0.2, 4.0], [0.0, 0.0]], 10)


@pytest.mark.parametrize("factor", [0.5, 2.0, np.nan])
def test_coherent_norm_guard_inside_outside_and_at_nan(factor):
    # at cutoff D the lost norm is the regularized lower incomplete gamma
    # P(D, |z|^2), so this |z| loses factor * 1e-8
    z = np.sqrt(scipy.special.gammaincinv(10, factor * 1e-8))
    if factor < 1:
        v = fo.coherent_vectors([[z]], 10)[0]
        assert abs(1.0 - np.linalg.norm(v) ** 2 - 0.5e-8) <= 1e-15
    else:
        with pytest.raises(TruncationError,
                           match=rf"loses norm {factor * 1e-8:.3e} at cutoff 10$"):
            fo.coherent_vectors([[z]], 10)


@pytest.mark.parametrize("factor", [0.5, 2.0, np.nan])
def test_q_imaginary_part_guard_inside_outside_and_at_nan(factor):
    # <0| rho |0> = 1 + i factor 1e-10
    rho = fo.FockOperator(1, 3, np.diag([1.0 + 1j * factor * 1e-10, 0.0, 0.0]))
    if factor < 1:
        assert fo.q_values(rho, [[0.0]]).tolist() == [1.0]
    else:
        with pytest.raises(DomainError, match=rf"^<Z\|rho\|Z> has imaginary part "
                           rf"{factor * 1e-10:.3e}; rho is not Hermitian enough$"):
            fo.q_values(rho, [[0.0]])


@pytest.mark.parametrize("n_modes", [1, 2])
def test_q_values_match_the_per_point_sandwich(n_modes):
    rho = oracle_density(n_modes)
    axis = np.array([-0.8, 0.0, 0.5 + 0.5j, 0.3 - 0.9j])
    zs = np.array(np.meshgrid(*[axis] * n_modes, indexing="ij")).reshape(n_modes, -1).T
    expected = [per_point_q(rho, z) for z in zs]
    np.testing.assert_allclose(fo.q_values(rho, zs), expected, rtol=1e-15, atol=0)


@pytest.mark.parametrize("density", [
    lambda: oracle_density(1),
    lambda: oracle_density(2),
    # the rotated states have E R E != R and, in two modes, a cross block
    # that is not symmetric: they tell z from z* and rho_{e_j,e_i} from
    # rho_{e_i,e_j}
    lambda: rotated_density(1, 0.7),
    lambda: rotated_density(2, 0.7),
    # a displaced state: the v v^T term carries 0.13 of its kernel
    lambda: coherent_projector(0.3 + 0.2j, 40),
], ids=["1", "2", "rotated-1m", "rotated-2m", "displaced-vacuum"])
def test_r_from_q_hessian_matches_the_nested_loop_hessian(density):
    rho = density()
    np.testing.assert_allclose(fo.r_from_q_hessian(rho),
                               per_point_r_from_q_hessian(rho), rtol=0, atol=1e-9)


def element_assembly_hessian(rho):
    """The Hessian read through a tensor view of rho and broadcast stacks of
    occupations: the reference for the read by index."""
    n = rho.n_modes
    r = rho.matrix.reshape((rho.cutoff,) * (2 * n))
    one = np.eye(n, dtype=int)
    two, zero = one[:, None] + one[None, :], np.zeros(n, dtype=int)

    def element(bra, ket):
        levels = np.concatenate(np.broadcast_arrays(bra, ket), axis=-1)
        return r[tuple(np.moveaxis(levels, -1, 0))] / r.flat[0]

    c = 1.0 + (np.sqrt(2.0) - 1.0) * np.eye(n)
    cross = np.eye(n) - element(one[None], one[:, None])
    v = np.concatenate([element(zero, one), element(one, zero)])
    return np.block([[-c * element(zero, two), cross],
                     [cross.T, -c * element(two, zero)]]) + np.outer(v, v)


def interleaved_density():
    # modes 1 and 3 coupled, mode 2 free, as in test_groups_land_on_their_mode_axes
    spec = beam_split(fo.PhysicalSpec("squeezed-thermal", [3.5, 2.8, 4.0],
                                      [0.1, -0.2, 0.15]), 0, 2, 0.4)
    return fo.gaussian_density(spec, 7)


@pytest.mark.parametrize("density", [
    lambda: oracle_density(1),
    lambda: oracle_density(2),
    interleaved_density,
    lambda: rotated_density(2, 0.7),
], ids=["1", "2-separable", "3-interleaved", "rotated-2m"])
def test_the_read_by_index_equals_the_element_assembly(density):
    rho = density()
    assert np.array_equal(fo.r_from_q_hessian(rho), element_assembly_hessian(rho))


def test_each_q_reader_builds_its_coherent_states_once(monkeypatch):
    rows = []
    coherent_vectors = fo.coherent_vectors

    def counted(zs, cutoff):
        rows.append(len(zs))
        return coherent_vectors(zs, cutoff)
    monkeypatch.setattr(fo, "coherent_vectors", counted)

    rho = fo.gaussian_density(fo.PhysicalSpec("thermal", [LN2]), 40)
    fo.r_from_q_hessian(rho)
    assert rows == []            # it reads matrix elements of rho, not Q
    fo.derivative_identity_check(rho, 0.3 + 0.1j)
    assert rows == [9]           # the centre and eight stencil points


@pytest.mark.parametrize("n_modes,call,z,message", [
    (1, fo.q_of_rho, [0.1, 0.2], r"rho has 1 mode\(s\), amplitude shape \(1, 2\)"),
    (2, fo.q_of_rho, 0.1, r"rho has 2 mode\(s\), amplitude shape \(1, 1\)"),
    (1, fo.derivative_identity_check, [0.1, 0.2],
     r"rho has 1 mode\(s\), z 2 amplitude\(s\)"),
], ids=["q-one-mode-two-amplitudes", "q-two-modes-one-amplitude",
        "derivative-one-mode-two-amplitudes"])
def test_amplitude_count_must_match_the_mode_count(n_modes, call, z, message):
    with pytest.raises(ValueError, match=message):
        call(diagonal_density(n_modes, 1e-3), z)


def test_q_of_rho_thermal_profile():
    rho = fo.gaussian_density(fo.PhysicalSpec("thermal", [LN2]), 40)
    for z in (0.0, 0.8, 0.5 + 0.5j):
        q = fo.q_of_rho(rho, z)
        assert abs(q - 0.5 * np.exp(-abs(z) ** 2 / 2)) < 1e-9


@pytest.mark.parametrize("omega", [LN2, 20.0], ids=["ln2", "vacuum-limit"])
def test_r_from_q_hessian_thermal(omega):
    rho = fo.gaussian_density(fo.PhysicalSpec("thermal", [omega]), 40)
    R = fo.r_from_q_hessian(rho)
    assert np.abs(R - (1 - np.exp(-omega)) * structured("E", 1)).max() <= 1e-12


def test_r_from_q_hessian_refuses_a_cutoff_without_two_excitations():
    with pytest.raises(ValueError, match="cutoff must be >= 3"):
        fo.r_from_q_hessian(fo.FockOperator(1, 2, np.diag([1.0, 0.0])))


@pytest.mark.parametrize("rho00,matrix", [
    (r"0\.000e\+00", np.diag([0.0, 1.0, 0.0, 0.0, 0.0])),  # the Fock state |1><1|
    ("nan", np.full((5, 5), np.nan)),
], ids=["fock-1", "nan"])
def test_r_from_q_hessian_refuses_a_vacuum_element_not_positive(rho00, matrix):
    # Q(0) = rho_00: where it is zero or NaN, -ln Q has no Hessian
    with pytest.raises(DomainError,
                       match=rf"^rho_00 = {rho00} is not finite and positive"):
        fo.r_from_q_hessian(fo.FockOperator(1, 5, matrix))


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_r_from_q_hessian_is_the_negated_published_kernel(n_modes):
    spec = ORACLE_CASES[n_modes][0]
    published = kernels.make_squeezed_thermal(spec.omegas, spec.squeezes)
    R = fo.r_from_q_hessian(oracle_density(n_modes))
    assert np.abs(R + kernels.ensure_form(published, "R")).max() <= 1e-12


# ---------------------------------------------------------------------------
# Liouville evolution

def test_liouville_thermal_stationary():
    D = 30
    rho0 = fo.gaussian_density(fo.PhysicalSpec("thermal", [LN2]), D)
    rho_t = fo.liouville_step(rho0, LN2 * structured("E", 1), 0.7)
    np.testing.assert_allclose(rho_t.matrix, rho0.matrix, atol=1e-12)


def test_liouville_step_names_both_mode_counts():
    rho0 = fo.FockOperator(1, 3, np.diag([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match=re.escape("rho has 1 mode(s), the H kernel 2")):
        fo.liouville_step(rho0, np.eye(4), 0.5)


@pytest.mark.parametrize("factor", [0.5, 2.0, np.nan])
def test_liouville_trace_guard_inside_outside_and_at_nan(factor, monkeypatch):
    # a propagator scaled by sqrt(1 + delta) changes the unit trace by delta;
    # at NaN the density itself is NaN
    nan = np.isnan(factor)
    delta = 0.0 if nan else factor * 1e-10
    hermitian_function = fo._hermitian_function
    monkeypatch.setattr(fo, "_hermitian_function",
                        lambda M, f, error: hermitian_function(M, f, error)
                        * np.sqrt(1 + delta))
    rho0 = fo.FockOperator(1, 3, np.full((3, 3), np.nan) if nan
                           else np.diag([1.0, 0.0, 0.0]))
    if factor < 1:
        rho_t = fo.liouville_step(rho0, np.zeros((2, 2)), 0.5)
        assert abs(rho_t.trace() - 1.0 - delta) <= 1e-15
    else:
        with pytest.raises(DomainError, match="^trace not preserved by Liouville step$"):
            fo.liouville_step(rho0, np.zeros((2, 2)), 0.5)


def test_liouville_squeezing_excites_vacuum():
    # near-vacuum under the squeeze generator: <n>(t) = sinh^2 t
    D = 40
    rho0 = fo.gaussian_density(fo.PhysicalSpec("thermal", [20.0]), D)
    rho_t = fo.liouville_step(rho0, np.eye(2), 0.5)
    a = dense_ladder_vector(1, D)[0]
    n_mean = np.trace(rho_t.matrix @ (a.conj().T @ a)).real
    assert abs(n_mean - np.sinh(0.5) ** 2) < 1e-6


@pytest.mark.parametrize("n_modes,t", [(1, 0.5), (2, 0.7)])
def test_literal_flow_matches_the_oracle_under_passive_h(n_modes, t):
    # the paper's flow (variant b) is exact for number-conserving H; the
    # active H = I of acceptance criterion 9 is where it fails
    spec, _, H = ROTATED_CASES[n_modes]
    R0 = kernels.ensure_form(kernels.make_squeezed_thermal(spec.omegas, spec.squeezes), "R")
    R_flow = dynamics.normal_propagate(R0, H, t, "b")
    assert np.abs(-R_flow - fo.r_from_q_hessian(rotated_density(n_modes, t))).max() <= 1e-12


def test_liouville_preserves_purity():
    D = 30
    rho0 = fo.gaussian_density(fo.PhysicalSpec("thermal", [LN2]), D)
    rho_t = fo.liouville_step(rho0, np.array([[0.5, 1.0], [1.0, 0.5]]), 0.4)
    p0 = np.trace(rho0.matrix @ rho0.matrix).real
    pt = np.trace(rho_t.matrix @ rho_t.matrix).real
    assert abs(p0 - pt) < 1e-10


# ---------------------------------------------------------------------------
# derivative identities

def test_derivative_identities_thermal():
    rho = fo.gaussian_density(fo.PhysicalSpec("thermal", [LN2]), 40)
    rep = fo.derivative_identity_check(rho, 0.3 + 0.1j)
    assert not rep.truncation_flagged
    assert rep.residual_rho_a <= 1e-6
    assert rep.residual_at_rho <= 1e-6


def test_derivative_identities_at_origin():
    rho = fo.gaussian_density(fo.PhysicalSpec("thermal", [LN2]), 40)
    rep = fo.derivative_identity_check(rho, 0.0)
    assert rep.residual_rho_a <= 1e-8
    assert rep.residual_at_rho <= 1e-8


def test_derivative_identities_flag_truncation():
    rho = fo.gaussian_density(fo.PhysicalSpec("thermal", [LN2]), 15)
    rep = fo.derivative_identity_check(rho, 3.0)
    assert rep.truncation_flagged


@pytest.mark.parametrize("z", [-3.7354, -3.7354j], ids=["left", "below"])
def test_derivative_identities_flag_a_stencil_point_left_or_below(z):
    # z itself and z + 2h(1+i) keep their norm; z - 2h or z - 2ih does not
    rho = fo.gaussian_density(fo.PhysicalSpec("thermal", [LN2]), 40)
    rep = fo.derivative_identity_check(rho, z)
    assert rep.truncation_flagged
    assert np.isnan(rep.residual_rho_a) and np.isnan(rep.residual_at_rho)
