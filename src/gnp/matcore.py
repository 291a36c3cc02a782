"""Dense complex matrix kernel.

Structured constant matrices, matrix exponential, analytic matrix functions
via eigendecomposition, determinants, linear solves and symplectic residuals.
All kernels in this package are small (2n x 2n with n <= 4 in practice), so
everything here is plain dense linear algebra on complex128 arrays. Every
primitive takes a finite (d, d) matrix, giving Python scalars, or an
(m, d, d) stack, giving (m,) arrays; a guard refuses a non-finite value or
one above its limit, on a stack of two or more naming the first failing one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError

TOL_EIG = 1e-9        # relative eigendecomposition reconstruction residual
TOL_SOLVE = 1e-10     # relative linear-solve residual
COND_LIMIT = 1e12     # condition number beyond which we refuse to proceed

_KINDS = ("J", "Omega", "E", "I")


def _as_squares(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NumericalError("matrix contains non-finite entries")
    return M


def guard(values, limit: float, message: str, error=NumericalError) -> None:
    """Raise error(message.format(value, limit)) when a value is non-finite
    or above limit; two or more values name the failing one (" at matrix k")."""
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values) | (values > limit)
    if bad.any():
        k = int(bad.argmax())
        where = f" at matrix {k}" if values.size > 1 else ""
        raise error(message.format(values.flat[k], limit) + where)


def first_failing(values, bad) -> tuple[np.ndarray, str]:
    """values[bad] of one matrix's (d,) values, and ""; for an (m, d) stack,
    the bad values of the first matrix with any, and " at matrix k" when
    m > 1, as guard names it."""
    if values.ndim == 1:
        return values[bad], ""
    k = int(bad.any(axis=-1).argmax())
    return values[k][bad[k]], f" at matrix {k}" if len(values) > 1 else ""


def structured(kind: str, n_modes: int) -> np.ndarray:
    """Return one of the exact 0/+-1 constant matrices.

    J = [[0, I], [-I, 0]], Omega = [[I, 0], [0, -I]], E = [[0, I], [I, 0]],
    I = identity, each of size 2*n_modes.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown structured kind {kind!r}, expected one of {_KINDS}")
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    n = n_modes
    eye = np.eye(n)
    zero = np.zeros((n, n))
    if kind == "J":
        return np.block([[zero, eye], [-eye, zero]])
    if kind == "Omega":
        return np.block([[eye, zero], [zero, -eye]])
    if kind == "E":
        return np.block([[zero, eye], [eye, zero]])
    return np.eye(2 * n)


@dataclass(frozen=True)
class EigDecomp:
    """Eigendecomposition M = V diag(values) V^-1 with a condition estimate
    (a float for one matrix, an (m,) array for a stack)."""

    values: np.ndarray
    right_vectors: np.ndarray
    inverse_vectors: np.ndarray       # V^-1
    condition_estimate: float | np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.right_vectors * self.values[..., None, :]) @ self.inverse_vectors


def eig_decomp(M) -> EigDecomp:
    """Diagonalize M, refusing ill-conditioned eigenbases.

    Raises NumericalError if the eigenvector matrix condition exceeds
    COND_LIMIT or the reconstruction residual exceeds TOL_EIG * ||M||.
    """
    M = _as_squares(M)
    values, vectors = np.linalg.eig(M)
    cond = np.linalg.cond(vectors)
    guard(cond, COND_LIMIT, "eigenbasis condition {:.3e} exceeds {:.1e}; "
          "matrix is defective or near-defective")
    dec = EigDecomp(values=values, right_vectors=vectors,
                    inverse_vectors=np.linalg.inv(vectors),
                    condition_estimate=float(cond) if M.ndim == 2 else cond)
    scale = np.maximum(np.linalg.norm(M, axis=(-2, -1)), 1e-300)
    residual = np.linalg.norm(dec.reconstruct() - M, axis=(-2, -1)) / scale
    guard(residual, TOL_EIG,
          "eigendecomposition reconstruction residual {:.3e} > {:.0e}")
    return dec


def mat_exp(M) -> np.ndarray:
    """Matrix exponential (via scipy) of M or of each matrix of a stack."""
    import scipy.linalg    # here, so that importing gnp does not load scipy

    M = _as_squares(M)
    out = scipy.linalg.expm(M)
    if not np.all(np.isfinite(out)):
        raise NumericalError("matrix exponential overflowed")
    return out


def mat_analytic(M, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Evaluate a scalar analytic function of a diagonalizable matrix.

    Computes V f(diag lambda) V^-1. Raises DomainError if f is non-finite at
    an eigenvalue (e.g. coth at 0) and NumericalError for a bad eigenbasis.
    """
    dec = eig_decomp(M)
    with np.errstate(all="ignore"):
        fvals = np.asarray(f(dec.values), dtype=complex)
    if fvals.shape != dec.values.shape:
        raise ValueError("f must map the eigenvalue vector elementwise")
    if not np.all(np.isfinite(fvals)):
        bad, where = first_failing(dec.values, ~np.isfinite(fvals))
        raise DomainError(f"function not finite at eigenvalue(s) {bad}{where}")
    return (dec.right_vectors * fvals[..., None, :]) @ dec.inverse_vectors


def determinant(M) -> complex | np.ndarray:
    """LU-based determinant."""
    det = np.linalg.det(_as_squares(M))
    return complex(det) if det.ndim == 0 else det


def dense_solve(M, B) -> np.ndarray:
    """Solve M X = B, refusing near-singular systems.

    For one M, B is (d,), (d, k) or a stack (m, d, k) whose systems share
    one residual bound (the error reports their largest residual); for a
    stack M, B is (d, k) or (m, d, k). The inverse of M is dense_solve(M, I).
    """
    M = _as_squares(M)
    B = np.asarray(B, dtype=complex)
    guard(np.linalg.cond(M), COND_LIMIT, "matrix condition {:.3e} exceeds {:.1e}")
    X = np.linalg.solve(M, B)
    axes = (-1,) if B.ndim == 1 else (-2, -1)
    scale = np.maximum(np.linalg.norm(B, axis=axes), 1e-300)
    residual = np.linalg.norm(M @ X - B, axis=axes) / scale
    guard(residual if M.ndim == 3 else np.max(residual), TOL_SOLVE,
          "solve residual {:.3e} > {:.0e}")
    return X


def inverse(M) -> np.ndarray:
    return dense_solve(M, np.eye(np.shape(M)[-1]))


def symplectic_residual(S) -> float | np.ndarray:
    """max(||S^T J S - J||, ||S J S^T - J||) in the max (entrywise) norm,
    of S or of each matrix of a stack."""
    S = _as_squares(S)
    if S.shape[-1] % 2 != 0:
        raise ValueError("symplectic candidates must be 2n x 2n")
    n = S.shape[-1] // 2
    J = structured("J", n)
    St = np.swapaxes(S, -1, -2)
    r1 = np.abs(_times_j(St, n) @ S - J).max(axis=(-2, -1))
    r2 = np.abs(_times_j(S, n) @ St - J).max(axis=(-2, -1))
    residual = np.maximum(r1, r2)
    return float(residual) if S.ndim == 2 else residual


def _times_j(M, n: int) -> np.ndarray:
    """M @ J as the exact column-block swap [-M_right, M_left]."""
    return np.concatenate([-M[..., n:], M[..., :n]], axis=-1)
