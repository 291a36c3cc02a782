"""Independent truncated Fock-space ground truth.

Dense ladder operators, quadratic operators, Gaussian density operators
built as normalized exponentials, coherent-state overlaps, Liouville
evolution, and the log-Hessian extraction of the physical normal-product
kernel.  Nothing here depends on the kernel-algebra formulas it is used to
verify; the only shared ingredient is plain linear algebra.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, TruncationError
from .matcore import structured

TAIL_WARN = 1e-8
TAIL_ERROR = 1e-4
PAD = 8                # extra levels under the exponent of gaussian_density
HESSIAN_STEP = 1e-3    # finite-difference step of r_from_q_hessian
DERIVATIVE_STEP = 1e-3  # stencil step of derivative_identity_check


@dataclass
class FockOperator:
    """Dense operator on an n-mode Fock space truncated at `cutoff` levels."""

    n_modes: int
    cutoff: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = self.cutoff ** self.n_modes
        M = np.asarray(self.matrix, dtype=complex)
        if M.shape != (dim, dim):
            raise ValueError(f"expected shape {(dim, dim)}, got {M.shape}")
        self.matrix = M

    @property
    def is_hermitian(self) -> bool:
        return bool(np.abs(self.matrix - self.matrix.conj().T).max() <= 1e-12)

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
    out = np.eye(1)
    for f in factors:
        out = np.kron(out, f)
    return out


def annihilator(n_modes: int, mode: int, cutoff: int) -> FockOperator:
    """Ladder operator a_mode (1-based mode index) as identities tensor a."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    if not 1 <= mode <= n_modes:
        raise ValueError(f"mode must be in 1..{n_modes}")
    factors = [np.eye(cutoff)] * n_modes
    factors[mode - 1] = _ladder(cutoff)
    return FockOperator(n_modes=n_modes, cutoff=cutoff, matrix=_kron(factors))


def quad_operator(M, cutoff: int) -> FockOperator:
    """(1/2) sum_ij M_ij A_i A_j, one Kronecker term per nonzero M_ij.

    A_i is a (i < n) or a^+ (i >= n) on mode i % n; on a shared mode the two
    single-mode factors are multiplied first.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0] // 2
    a = _ladder(cutoff)
    ladder = (a, a.T)
    out = np.zeros((cutoff ** n,) * 2, dtype=complex)
    for i, j in zip(*np.nonzero(M)):
        factors = [np.eye(cutoff)] * n
        if i % n == j % n:
            factors[i % n] = ladder[i // n] @ ladder[j // n]
        else:
            factors[i % n], factors[j % n] = ladder[i // n], ladder[j // n]
        out += 0.5 * M[i, j] * _kron(factors)
    return FockOperator(n_modes=n, cutoff=cutoff, matrix=out)


@dataclass
class PhysicalSpec:
    """Physical-side construction data for the calibration states.

    The operator kernel puts omega*E on each mode's (a_i, a_i^+) pair, so a
    thermal spec exponentiates to e^{-sum omega_i (a_i^+ a_i + 1/2)};
    squeezing conjugates that kernel by the mode-wise squeeze symplectic S,
    which is the identity for a thermal spec.
    This deliberately differs from the K-tilde = diag(omega, omega) normal
    form of the as-published layer; the bridge between the two is what the
    calibration measures.
    """

    kind: str                       # "thermal" | "squeezed-thermal"
    omegas: np.ndarray
    squeezes: Optional[np.ndarray] = None
    operator_kernel: np.ndarray = field(init=False)

    def __post_init__(self):
        self.omegas = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        if np.any(self.omegas <= 0):
            raise DomainError("thermal frequencies must be positive")
        n = len(self.omegas)
        kernel = np.zeros((2 * n, 2 * n))
        for i, om in enumerate(self.omegas):
            kernel[i, n + i] = kernel[n + i, i] = om
        if self.kind == "thermal":
            self.squeezes = np.zeros(n)
        elif self.kind == "squeezed-thermal":
            if self.squeezes is None:
                raise ValueError("squeezed-thermal spec needs squeeze parameters")
            self.squeezes = np.atleast_1d(np.asarray(self.squeezes, dtype=float))
            if len(self.squeezes) != n:
                raise ValueError("need one squeeze parameter per mode")
        else:
            raise ValueError(f"unknown spec kind {self.kind!r}")
        c, s = np.diag(np.cosh(self.squeezes)), np.diag(np.sinh(self.squeezes))
        S = np.block([[c, s], [s, c]])
        self.operator_kernel = S.T @ kernel @ S


def _check_tail(rho: FockOperator, context: str):
    tail = rho.tail_mass()
    if tail > TAIL_ERROR:
        raise TruncationError(f"{context}: tail mass {tail:.3e} > {TAIL_ERROR:.0e}")
    if tail > TAIL_WARN:
        warnings.warn(f"{context}: tail mass {tail:.3e} exceeds {TAIL_WARN:.0e}")


def _hermitian_function(op: FockOperator, f, error: str) -> np.ndarray:
    """V f(w) V^+ for the eigen-decomposition V diag(w) V^+ of a Hermitian op."""
    if not op.is_hermitian:
        raise DomainError(error)
    w, V = np.linalg.eigh(op.matrix)
    return (V * f(w)) @ V.conj().T


def gaussian_density(spec: PhysicalSpec, cutoff: int) -> FockOperator:
    """rho = e^{-G-hat} / Tr e^{-G-hat} with G-hat = (1/2) A^T kernel A.

    The exponent is assembled on a space padded by PAD extra levels and the
    result projected back, so the top retained level carries its physical
    population rather than the artifact of cutting the quadratic generator
    (which zeroes a a^+ on the last level and under-penalizes it).
    """
    n = spec.operator_kernel.shape[0] // 2
    big = cutoff + PAD
    rho = _hermitian_function(
        quad_operator(spec.operator_kernel, big),
        lambda w: np.exp(-(w - w.min())),    # shift for overflow safety
        "physical kernel produced a non-Hermitian exponent")
    rho /= np.trace(rho).real
    # keep the top-left cutoff^n tensor block
    rho = rho.reshape((big,) * (2 * n))[(slice(cutoff),) * (2 * n)]
    rho = rho.reshape(cutoff ** n, cutoff ** n)
    rho = rho / np.trace(rho).real
    op = FockOperator(n_modes=n, cutoff=cutoff, matrix=rho)
    _check_tail(op, "gaussian_density")
    return op


def coherent_vector(z, cutoff: int) -> np.ndarray:
    """Truncated coherent state |z_1..z_n> as a dense vector."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.ones(1, dtype=complex)
    for zi in zs:
        v = np.zeros(cutoff, dtype=complex)
        v[0] = 1.0
        for k in range(1, cutoff):
            v[k] = v[k - 1] * zi / np.sqrt(k)
        v *= np.exp(-abs(zi) ** 2 / 2.0)
        out = np.kron(out, v)
    deficit = abs(1.0 - np.linalg.norm(out) ** 2)
    if deficit > 1e-8:
        raise TruncationError(
            f"coherent state |z|={np.abs(zs).max():.3g} loses norm "
            f"{deficit:.3e} at cutoff {cutoff}"
        )
    return out


def q_of_rho(rho: FockOperator, z) -> float:
    """Husimi-Q value <Z| rho |Z> of a Hermitian density operator."""
    v = coherent_vector(z, rho.cutoff)
    val = complex(v.conj() @ rho.matrix @ v)
    if abs(val.imag) > 1e-10:
        raise DomainError(f"<Z|rho|Z> has imaginary part {val.imag:.3e}; "
                          "rho is not Hermitian enough")
    return float(val.real)


def r_from_q_hessian(rho: FockOperator) -> np.ndarray:
    """Physical normal-product kernel from the log-Hessian of Q at the origin.

    Builds the real Hessian of -ln Q in (x_1..x_n, y_1..y_n) by centered
    second differences and transforms it to the (z, z*) coordinates.  Warns
    when the log-Hessian is not step-stable (non-Gaussian Q).
    """
    n = rho.n_modes
    h = HESSIAN_STEP

    def f(u):
        zs = u[:n] + 1j * u[n:]
        return -np.log(q_of_rho(rho, zs))

    def hessian(hh):
        H = np.zeros((2 * n, 2 * n))
        f0 = f(np.zeros(2 * n))
        for i in range(2 * n):
            ei = np.zeros(2 * n)
            ei[i] = hh
            H[i, i] = (f(ei) - 2 * f0 + f(-ei)) / hh ** 2
            for j in range(i + 1, 2 * n):
                ej = np.zeros(2 * n)
                ej[j] = hh
                H[i, j] = H[j, i] = (
                    f(ei + ej) - f(ei - ej) - f(-ei + ej) + f(-ei - ej)
                ) / (4 * hh ** 2)
        return H

    H1 = hessian(h)
    H2 = hessian(2 * h)
    if np.abs(H1 - H2).max() > 1e-4:
        warnings.warn("log-Hessian is not step-stable; Q may be non-Gaussian "
                      f"(change {np.abs(H1 - H2).max():.3e})")
    eye = np.eye(n)
    Tinv = np.linalg.inv(np.block([[eye, 1j * eye], [eye, -1j * eye]]))
    R = Tinv.T @ H1 @ Tinv
    R = 0.5 * (R + R.T)
    if np.abs(R.imag).max() < 1e-9:
        R = R.real.astype(complex)
    return R


def liouville_step(rho0: FockOperator, H_kernel, t: float) -> FockOperator:
    """rho(t) = e^{-i H t} rho0 e^{+i H t} for H-hat = (1/2) A^T H A."""
    U = _hermitian_function(quad_operator(H_kernel, rho0.cutoff),
                            lambda w: np.exp(-1j * w * t),
                            "Hamiltonian kernel is not Hermitian in truncation")
    rho = U @ rho0.matrix @ U.conj().T
    out = FockOperator(n_modes=rho0.n_modes, cutoff=rho0.cutoff, matrix=rho)
    if abs(out.trace() - rho0.trace()) > 1e-10:
        raise DomainError("trace not preserved by Liouville step")
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
    if rho.n_modes != 1:
        raise ValueError("derivative identity check is single-mode only")
    z = complex(np.atleast_1d(np.asarray(z, dtype=complex))[0])
    h = DERIVATIVE_STEP
    a = _ladder(rho.cutoff)
    ad = a.T

    try:
        coherent_vector(z + 2 * h * (1 + 1j), rho.cutoff)
    except TruncationError:
        return DerivativeIdentityReport(float("nan"), float("nan"), True)

    def rho_of(zz):
        v = coherent_vector(zz, rho.cutoff)
        return complex(v.conj() @ rho.matrix @ v)

    def d4(g, direction):
        # fourth-order centered stencil along +1 (re) or +1j (im)
        return (-g(z + 2 * h * direction) + 8 * g(z + h * direction)
                - 8 * g(z - h * direction) + g(z - 2 * h * direction)) / (12 * h)

    dx = d4(rho_of, 1.0)
    dy = d4(rho_of, 1j)
    dz = 0.5 * (dx - 1j * dy)        # d/dz with z, z* independent
    dzs = 0.5 * (dx + 1j * dy)       # d/dz*
    grad = np.array([dz, dzs])

    v = coherent_vector(z, rho.cutoff)
    rho_z = rho_of(z)
    Z = np.array([z, np.conj(z)])
    E = structured("E", 1)
    J = structured("J", 1)

    lhs_rho_a = np.array([complex(v.conj() @ rho.matrix @ a @ v),
                          complex(v.conj() @ rho.matrix @ ad @ v)])
    rhs_rho_a = Z * rho_z + ((E - J) / 2.0) @ grad
    lhs_at_rho = np.array([complex(v.conj() @ a @ rho.matrix @ v),
                           complex(v.conj() @ ad @ rho.matrix @ v)])
    rhs_at_rho = Z * rho_z + ((E + J) / 2.0) @ grad

    return DerivativeIdentityReport(
        residual_rho_a=float(np.abs(lhs_rho_a - rhs_rho_a).max()),
        residual_at_rho=float(np.abs(lhs_at_rho - rhs_at_rho).max()),
        truncation_flagged=False,
    )
