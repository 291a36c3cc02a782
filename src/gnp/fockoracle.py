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
from .kernels import squeeze_symplectic
from .matcore import structured

TAIL_WARN = 1e-8
TAIL_ERROR = 1e-4


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
        pops = np.abs(np.diag(self.matrix))
        idx = np.arange(self.cutoff ** self.n_modes)
        mask = np.zeros_like(idx, dtype=bool)
        for _ in range(self.n_modes):
            mask |= (idx % self.cutoff) == self.cutoff - 1
            idx = idx // self.cutoff
        return float(pops[mask].sum())


def annihilator(n_modes: int, mode: int, cutoff: int) -> FockOperator:
    """Ladder operator a_mode (1-based mode index) as identities tensor a."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    if not 1 <= mode <= n_modes:
        raise ValueError(f"mode must be in 1..{n_modes}")
    a = np.diag(np.sqrt(np.arange(1, cutoff)), 1)
    out = np.eye(1)
    for k in range(1, n_modes + 1):
        out = np.kron(out, a if k == mode else np.eye(cutoff))
    return FockOperator(n_modes=n_modes, cutoff=cutoff, matrix=out)


def ladder_vector(n_modes: int, cutoff: int):
    """The operator vector A = (a_1..a_n, a_1^+..a_n^+) as dense matrices."""
    ann = [annihilator(n_modes, m, cutoff).matrix for m in range(1, n_modes + 1)]
    return ann + [a.conj().T for a in ann]


def quad_operator(M, cutoff: int) -> FockOperator:
    """(1/2) sum_ij M_ij A_i A_j built from the ladder vector."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0] // 2
    A = ladder_vector(n, cutoff)
    dim = cutoff ** n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(2 * n):
        for j in range(2 * n):
            if M[i, j] != 0:
                out += 0.5 * M[i, j] * (A[i] @ A[j])
    return FockOperator(n_modes=n, cutoff=cutoff, matrix=out)


@dataclass
class PhysicalSpec:
    """Physical-side construction data for the calibration states.

    The operator kernel puts omega*E on each mode's (a_i, a_i^+) pair, so a
    thermal spec exponentiates to e^{-sum omega_i (a_i^+ a_i + 1/2)};
    squeezing conjugates that kernel by the mode-wise squeeze symplectic.
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
            S = squeeze_symplectic(self.squeezes)
            kernel = S.T @ kernel @ S
        else:
            raise ValueError(f"unknown spec kind {self.kind!r}")
        self.operator_kernel = kernel


def _check_tail(rho: FockOperator, context: str):
    tail = rho.tail_mass()
    if tail > TAIL_ERROR:
        raise TruncationError(f"{context}: tail mass {tail:.3e} > {TAIL_ERROR:.0e}")
    if tail > TAIL_WARN:
        warnings.warn(f"{context}: tail mass {tail:.3e} exceeds {TAIL_WARN:.0e}")


def _project_to_cutoff(rho_big, n_modes: int, big: int, cutoff: int):
    """Keep the cutoff^n top-left tensor block of a density on a larger space."""
    idx = np.arange(big ** n_modes)
    keep = np.ones_like(idx, dtype=bool)
    for _ in range(n_modes):
        keep &= (idx % big) < cutoff
        idx = idx // big
    return rho_big[np.ix_(keep, keep)]


def gaussian_density(spec: PhysicalSpec, cutoff: int,
                     pad: int = 8) -> FockOperator:
    """rho = e^{-G-hat} / Tr e^{-G-hat} with G-hat = (1/2) A^T kernel A.

    The exponent is assembled on a space padded by `pad` extra levels and the
    result projected back, so the top retained level carries its physical
    population rather than the artifact of cutting the quadratic generator
    (which zeroes a a^+ on the last level and under-penalizes it).
    """
    n = spec.operator_kernel.shape[0] // 2
    big = cutoff + pad
    Ghat = quad_operator(spec.operator_kernel, big)
    if not Ghat.is_hermitian:
        raise DomainError("physical kernel produced a non-Hermitian exponent")
    w, V = np.linalg.eigh(Ghat.matrix)
    ew = np.exp(-(w - w.min()))          # shift for overflow safety
    rho = (V * ew) @ V.conj().T
    rho /= np.trace(rho).real
    rho = _project_to_cutoff(rho, n, big, cutoff)
    rho /= np.trace(rho).real
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


def r_from_q_hessian(rho: FockOperator, step: float = 1e-3) -> np.ndarray:
    """Physical normal-product kernel from the log-Hessian of Q at the origin.

    Builds the real Hessian of -ln Q in (x_1..x_n, y_1..y_n) by centered
    second differences and transforms it to the (z, z*) coordinates.  Warns
    when the log-Hessian is not step-stable (non-Gaussian Q).
    """
    n = rho.n_modes
    h = step

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
    Hop = quad_operator(H_kernel, rho0.cutoff)
    if not Hop.is_hermitian:
        raise DomainError("Hamiltonian kernel is not Hermitian in truncation")
    w, V = np.linalg.eigh(Hop.matrix)
    phases = np.exp(-1j * w * t)
    U = (V * phases) @ V.conj().T
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
    note: str = ""


def derivative_identity_check(rho: FockOperator, z,
                              step: float = 1e-3) -> DerivativeIdentityReport:
    """Numerically verify the coherent-state derivative identities (n = 1).

    The right-hand sides differentiate rho(Z) = <Z|rho|Z> treating z and z*
    as independent, via fourth-order centered stencils in re/im combined as
    Wirtinger derivatives.
    """
    if rho.n_modes != 1:
        raise ValueError("derivative identity check is single-mode only")
    z = complex(np.atleast_1d(np.asarray(z, dtype=complex))[0])
    h = step
    a = annihilator(1, 1, rho.cutoff).matrix
    ad = a.conj().T

    try:
        coherent_vector(z + 2 * h * (1 + 1j), rho.cutoff)
    except TruncationError as exc:
        return DerivativeIdentityReport(float("nan"), float("nan"), True, str(exc))

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
    rho_z = complex(v.conj() @ rho.matrix @ v)
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
