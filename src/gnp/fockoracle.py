"""Independent truncated Fock-space ground truth.

Quadratic operators as plain dense arrays, Gaussian densities (FockOperator)
built as tensor products of normalized exponentials (one per group of coupled
modes), Liouville evolution, stacked coherent states read by one Husimi
evaluator `q_values`, and the physical normal-product kernel as the exact
log-Hessian of Q at the origin, read from the matrix elements of rho with at
most two excitations.  Nothing here depends on the kernel-algebra formulas it
is used to verify; the only shared ingredients are plain linear algebra and
matcore's guard for its limit checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, TruncationError
from .matcore import guard, structured

TAIL_WARN = 1e-8
TAIL_ERROR = 1e-4
PAD = 8                # extra levels per mode under gaussian_density's exponents
DERIVATIVE_STEP = 1e-3  # stencil step of derivative_identity_check


@dataclass
class FockOperator:
    """Dense density on an n-mode Fock space truncated at `cutoff` levels."""

    n_modes: int
    cutoff: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = self.cutoff ** self.n_modes
        M = np.asarray(self.matrix, dtype=complex)
        if M.shape != (dim, dim):
            raise ValueError(f"expected shape {(dim, dim)}, got {M.shape}")
        self.matrix = M

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def tail_mass(self) -> float:
        """Total population of basis states with any mode at the top level."""
        pops = np.abs(np.diag(self.matrix)).reshape((self.cutoff,) * self.n_modes)
        top = (np.indices(pops.shape) == self.cutoff - 1).any(axis=0)
        return float(pops[top].sum())


def _ladder(cutoff: int) -> np.ndarray:
    """Single-mode annihilator: sqrt(k) on the superdiagonal."""
    return np.diag(np.sqrt(np.arange(1, cutoff)), 1)


def _kron(factors) -> np.ndarray:
    """Kronecker product of one cutoff x cutoff factor per mode, mode 1 first."""
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def quad_operator(M, cutoff: int) -> np.ndarray:
    """(1/2) sum_ij M_ij A_i A_j as a (cutoff^n, cutoff^n) complex array, one
    Kronecker term per nonzero M_ij.

    A_i is a (i < n) or a^+ (i >= n) on mode i % n; on a shared mode the two
    single-mode factors are multiplied first; the four such products and the
    identity are built once per call.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0] // 2
    a = _ladder(cutoff)
    ladder = (a, a.T)
    products = [[x @ y for y in ladder] for x in ladder]
    eye = np.eye(cutoff)
    out = np.zeros((cutoff ** n,) * 2, dtype=complex)
    rows, cols = np.nonzero(M)
    for i, j in zip(rows.tolist(), cols.tolist()):
        factors = [eye] * n
        if i % n == j % n:
            factors[i % n] = products[i // n][j // n]
        else:
            factors[i % n], factors[j % n] = ladder[i // n], ladder[j // n]
        out += 0.5 * M[i, j] * _kron(factors)
    return out


@dataclass
class PhysicalSpec:
    """Physical side of the calibration states: one squeezed thermal family.

    The operator kernel puts omega*E on each mode's (a_i, a_i^+) pair, which
    exponentiates to e^{-sum omega_i (a_i^+ a_i + 1/2)}, conjugated by the
    mode-wise squeeze symplectic S that the oracle builds itself.  `kind` only
    decides r: 0 for "thermal" (a nonzero or NaN squeeze given to it raises
    ValueError), given for "squeezed-thermal".  Omegas must be
    finite and positive (DomainError), with one finite r per mode; squeezes
    that overflow the kernel (|r| from about 355 at omega = 1) raise
    DomainError.  The kernel
    deliberately differs from the as-published normal form K-tilde =
    diag(omega, omega); the bridge between the two is what calibration measures.
    """

    kind: str                       # "thermal" | "squeezed-thermal"
    omegas: np.ndarray
    squeezes: Optional[np.ndarray] = None
    operator_kernel: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.kind not in ("thermal", "squeezed-thermal"):
            raise ValueError(f"unknown spec kind {self.kind!r}")
        omegas = self.omegas = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        if self.kind == "thermal":
            if self.squeezes is not None and np.any(np.asarray(self.squeezes) != 0):
                raise ValueError("thermal spec takes no nonzero squeeze parameter")
            self.squeezes = np.zeros(omegas.shape)
        elif self.squeezes is None:
            raise ValueError("squeezed-thermal spec needs squeeze parameters")
        rs = self.squeezes = np.atleast_1d(np.asarray(self.squeezes, dtype=float))
        if not np.all((omegas > 0) & (omegas < np.inf)):
            raise DomainError("thermal frequencies must be finite and positive")
        if len(rs) != len(omegas) or not np.all(np.isfinite(rs)):
            raise ValueError("need one finite squeeze parameter per mode")
        with np.errstate(over="ignore", invalid="ignore"):
            c, s = np.diag(np.cosh(rs)), np.diag(np.sinh(rs))
            S = np.block([[c, s], [s, c]])
            K = S.T @ np.kron(structured("E", 1), np.diag(omegas)) @ S
        if not np.all(np.isfinite(K)):
            raise DomainError(f"squeezes {rs.tolist()} give a non-finite operator kernel")
        self.operator_kernel = K


def _check_tail(rho: FockOperator, context: str):
    tail = rho.tail_mass()
    guard(tail, TAIL_ERROR, context + ": tail mass {:.3e} > {:.0e}", TruncationError)
    if tail > TAIL_WARN:
        warnings.warn(f"{context}: tail mass {tail:.3e} exceeds {TAIL_WARN:.0e}")


def _hermitian_function(M: np.ndarray, f, error: str) -> np.ndarray:
    """V f(w) V^+ for the eigen-decomposition V diag(w) V^+ of a Hermitian M,
    or of each matrix of a stack (f maps the (..., d) eigenvalues)."""
    Mh = np.swapaxes(M.conj(), -1, -2)
    guard(np.abs(M - Mh).max(axis=(-2, -1)), 1e-12, error, DomainError)
    w, V = np.linalg.eigh(M)
    return (V * f(w)[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)


def _mode_groups(kernel) -> list[tuple[int, ...]]:
    """Connected groups of the modes a 2n x 2n kernel couples, in mode order.

    Modes i and j are coupled when any of the four entries between
    (a_i, a_i^+) and (a_j, a_j^+) is nonzero.
    """
    n = len(kernel) // 2
    coupled = (np.asarray(kernel).reshape(2, n, 2, n) != 0).any(axis=(0, 2))
    reach = coupled | coupled.T | np.eye(n, dtype=bool)
    for _ in range(n):                      # transitive closure
        reach = (reach.astype(int) @ reach) > 0
    return sorted({tuple(np.flatnonzero(row).tolist()) for row in reach})


def _padded_density(kernels, cutoff: int) -> np.ndarray:
    """e^{-G-hat} of each kernel of an (m, 2k, 2k) stack, normalised on a space
    padded by PAD levels per mode, cut back to its top-left cutoff^k block and
    renormalised: an (m, cutoff^k, cutoff^k) stack, through one eigh."""
    m, k = len(kernels), kernels.shape[-1] // 2
    big = cutoff + PAD
    ops = np.array([quad_operator(kernel, big) for kernel in kernels])
    rho = _hermitian_function(
        ops, lambda w: np.exp(-(w - w.min(axis=-1, keepdims=True))),   # overflow shift
        "physical kernel produced a non-Hermitian exponent")
    rho /= _traces(rho)
    rho = rho.reshape((m,) + (big,) * (2 * k))[(...,) + (slice(cutoff),) * (2 * k)]
    rho = rho.reshape(m, cutoff ** k, cutoff ** k)
    return rho / _traces(rho)


def _traces(rho: np.ndarray) -> np.ndarray:
    """Real traces of each matrix of a stack, shaped to divide it."""
    return np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def gaussian_densities(specs, cutoff: int) -> list[FockOperator]:
    """rho = e^{-G-hat} / Tr e^{-G-hat} with G-hat = (1/2) A^T kernel A, for
    each spec of a list whose kernels share one structure of coupled modes.

    G-hat is a sum of commuting terms, one per connected group of coupled
    modes, so e^{-G-hat} is the tensor product of one exponential per group.
    Each group's exponents are built for all specs as one stack, one spec
    being a stack of one; each stack is reshaped to cutoff on its modes' bra
    and ket axes and 1 on the others, and the groups' stacks multiply into
    one broadcast product.
    Each group's exponent is assembled on a space padded by PAD extra levels
    per mode and the result projected back, so the top retained level carries
    its physical population rather than the artifact of cutting the quadratic
    generator (which zeroes a a^+ on the last level and under-penalizes it).
    A kernel that couples every mode is one group: one exponential on the
    padded (cutoff + PAD)^n space.  The tail guard runs on each density.
    Raises ValueError for cutoff < 2 and for specs whose kernels couple their
    modes in different groups (or no specs).
    """
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    structures = {tuple(_mode_groups(spec.operator_kernel)) for spec in specs}
    if len(structures) != 1:
        raise ValueError("specs must share one structure of coupled modes, "
                         f"got {sorted(structures)}")
    kernels = np.array([spec.operator_kernel for spec in specs])
    n = kernels.shape[-1] // 2
    rho = None
    for group in structures.pop():
        # the kernel rows of the group's a_i and a_i^+, which are also the
        # bra and ket axes of its modes in rho; they increase, so a reshape
        # with 1 on every other axis puts the block on them
        axes = list(group) + [n + i for i in group]
        shape = [cutoff if k in axes else 1 for k in range(2 * n)]
        block = _padded_density(kernels[:, axes][:, :, axes], cutoff)
        block = block.reshape([len(specs)] + shape)
        rho = block if rho is None else rho * block
    ops = [FockOperator(n_modes=n, cutoff=cutoff, matrix=matrix)
           for matrix in rho.reshape(len(specs), cutoff ** n, cutoff ** n)]
    for op in ops:
        _check_tail(op, "gaussian_density")
    return ops


def gaussian_density(spec: PhysicalSpec, cutoff: int) -> FockOperator:
    """The density of one spec: gaussian_densities([spec], cutoff)[0]."""
    return gaussian_densities([spec], cutoff)[0]


def coherent_vectors(zs, cutoff: int) -> np.ndarray:
    """Truncated coherent states |z_1..z_n>, one row per row of an (m, n) stack."""
    zs = np.asarray(zs, dtype=complex)
    levels = np.ones((cutoff,) + zs.shape, dtype=complex)    # z^k / sqrt(k!)
    for k, root in enumerate(np.sqrt(np.arange(1, cutoff)).tolist(), 1):
        levels[k] = levels[k - 1] * zs / root
    levels *= np.exp(-np.abs(zs) ** 2 / 2.0)
    out = np.ones((len(zs), 1), dtype=complex)
    for mode in levels.T:                # (m, cutoff) per mode: row-wise kron
        out = (out[:, :, None] * mode[:, None, :]).reshape(len(zs), -1)
    deficit = np.abs(1.0 - np.linalg.norm(out, axis=1) ** 2)
    bad = ~(deficit <= 1e-8)
    if bad.any():
        row = np.argmax(bad)
        raise TruncationError(
            f"coherent state |z|={np.abs(zs[row]).max():.3g} loses norm "
            f"{deficit[row]:.3e} at cutoff {cutoff}"
        )
    return out


def _q_rows(rho: FockOperator, V: np.ndarray) -> np.ndarray:
    """<Z| rho |Z> for each row |Z> of V, in one matrix product."""
    vals = ((V.conj() @ rho.matrix) * V).sum(axis=1)
    guard(np.abs(vals.imag).max(initial=0.0), 1e-10,
          "<Z|rho|Z> has imaginary part {:.3e}; rho is not Hermitian enough",
          DomainError)
    return vals.real


def q_values(rho: FockOperator, zs) -> np.ndarray:
    """Husimi-Q values <Z| rho |Z> for an (m, n_modes) stack of amplitudes."""
    zs = np.asarray(zs, dtype=complex)
    if zs.ndim != 2 or zs.shape[1] != rho.n_modes:
        raise ValueError(f"rho has {rho.n_modes} mode(s), amplitude shape {zs.shape}")
    return _q_rows(rho, coherent_vectors(zs, rho.cutoff))


def q_of_rho(rho: FockOperator, z) -> float:
    """Husimi-Q value <Z| rho |Z> of a Hermitian density operator."""
    return float(q_values(rho, np.atleast_1d(z)[None])[0])


def r_from_q_hessian(rho: FockOperator) -> np.ndarray:
    """Physical normal-product kernel: the exact log-Hessian of Q at the origin.

    Q(Z) = e^{-|z|^2} sum rho_{m,k} z*^m z^k / sqrt(m! k!), so the Hessian of
    -ln Q in (z, z*) reads the elements of rho / rho_00 with at most two
    excitations: delta_ij - rho_{e_j,e_i} in the cross blocks,
    -c_ij rho_{0,e_i+e_j} and -c_ij rho_{e_i+e_j,0} (c_ii = sqrt 2, else 1) in
    the diagonal ones, plus v v^T with v = (rho_{0,e_i}, rho_{e_i,0}).
    Each element is read from rho.matrix by index: the occupation e_i is row
    (or column) cutoff^(n-1-i), and e_i + e_j the sum of two such indices.
    """
    n = rho.n_modes
    if rho.cutoff < 3:
        raise ValueError("the log-Hessian reads two excitations: cutoff must be >= 3")
    r = rho.matrix
    r00 = r[0, 0]
    if not (np.isfinite(r00) and r00.real > 0):
        raise DomainError(f"rho_00 = {r00.real:.3e} is not finite and positive: "
                          "-ln Q has no Hessian at the origin")
    one = rho.cutoff ** np.arange(n - 1, -1, -1)    # index of e_i
    two = one[:, None] + one[None, :]               # index of e_i + e_j
    c = 1.0 + (np.sqrt(2.0) - 1.0) * np.eye(n)
    cross = np.eye(n) - r[one[None, :], one[:, None]] / r00   # [i, j]: rho_{e_j,e_i}
    v = np.concatenate([r[0, one], r[one, 0]]) / r00
    return np.block([[-c * (r[0, two] / r00), cross],
                     [cross.T, -c * (r[two, 0] / r00)]]) + np.outer(v, v)


def liouville_step(rho0: FockOperator, H_kernel, t: float) -> FockOperator:
    """rho(t) = e^{-i H t} rho0 e^{+i H t} for H-hat = (1/2) A^T H A."""
    if np.shape(H_kernel) != (2 * rho0.n_modes,) * 2:
        raise ValueError(f"rho has {rho0.n_modes} mode(s), the H kernel "
                         f"{len(H_kernel) // 2}")
    U = _hermitian_function(quad_operator(H_kernel, rho0.cutoff),
                            lambda w: np.exp(-1j * w * t),
                            "Hamiltonian kernel is not Hermitian in truncation")
    rho = U @ rho0.matrix @ U.conj().T
    out = FockOperator(n_modes=rho0.n_modes, cutoff=rho0.cutoff, matrix=rho)
    guard(abs(out.trace() - rho0.trace()), 1e-10,
          "trace not preserved by Liouville step", DomainError)
    _check_tail(out, "liouville_step")
    return out


@dataclass(frozen=True)
class DerivativeIdentityReport:
    residual_rho_a: float          # <Z| rho A |Z> vs (Z + d (E-J)/2) rho(Z)
    residual_at_rho: float         # <Z| A^T rho |Z> vs (Z^T + (E+J)/2 d) rho(Z)
    truncation_flagged: bool


def derivative_identity_check(rho: FockOperator, z) -> DerivativeIdentityReport:
    """Numerically verify the coherent-state derivative identities (n = 1).

    The right-hand sides differentiate rho(Z) = <Z|rho|Z> treating z and z*
    as independent, via fourth-order centered stencils in re/im combined as
    Wirtinger derivatives.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if rho.n_modes != 1 or z.shape != (1,):
        raise ValueError("derivative identity check is single-mode only: rho has "
                         f"{rho.n_modes} mode(s), z {z.size} amplitude(s)")
    z = z[0]
    h = DERIVATIVE_STEP
    a = _ladder(rho.cutoff)
    A = np.stack([a, a.T])

    # the centre, then the stencils z + (2, 1, -1, -2) h along re and im
    stencil = h * np.array([2, 1, -1, -2])
    zs = z + np.concatenate([[0], stencil, 1j * stencil])
    try:
        V = coherent_vectors(zs[:, None], rho.cutoff)
    except TruncationError:
        return DerivativeIdentityReport(float("nan"), float("nan"), True)
    q = _q_rows(rho, V)
    rho_z, s = q[0], q[1:].reshape(2, 4)
    # fourth-order centered stencils along re (dx) and im (dy)
    dx, dy = (-s[:, 0] + 8 * s[:, 1] - 8 * s[:, 2] + s[:, 3]) / (12 * h)
    dz = 0.5 * (dx - 1j * dy)        # d/dz with z, z* independent
    dzs = 0.5 * (dx + 1j * dy)       # d/dz*
    grad = np.array([dz, dzs])

    v = V[0]
    Z = np.array([z, np.conj(z)])
    E = structured("E", 1)
    J = structured("J", 1)

    lhs_rho_a = v.conj() @ rho.matrix @ A @ v
    rhs_rho_a = Z * rho_z + ((E - J) / 2.0) @ grad
    lhs_at_rho = v.conj() @ A @ rho.matrix @ v
    rhs_at_rho = Z * rho_z + ((E + J) / 2.0) @ grad

    return DerivativeIdentityReport(
        residual_rho_a=float(np.abs(lhs_rho_a - rhs_rho_a).max()),
        residual_at_rho=float(np.abs(lhs_at_rho - rhs_at_rho).max()),
        truncation_flagged=False,
    )
