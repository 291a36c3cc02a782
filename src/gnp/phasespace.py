"""Closed-form phase-space evaluators.

Husimi-Q, Wigner and characteristic functions of Gaussian states, the
coherent-state Gaussian integral, grid evaluation and a numerical
normalization check.  Phase-space points are complex arrays throughout: a
single-point evaluator takes the n mode amplitudes z, and a grid is one (m,)
array of single-mode amplitudes, row-major over (re, im), from
PhaseGrid.points() to the PhaseTable.  The integration measure is fixed to
d^2z/pi per mode; every PhaseTable records it.  This module holds no file
format: gnp.stateio writes and reads phase tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import bridge, kernels, matcore
from .errors import DomainError
from .kernels import AS_PUBLISHED, CALIBRATED, GaussianState
from .matcore import structured

MEASURE_NOTE = "d^2z/pi per mode"
QUAD_POINTS = 201      # points per axis of the q_norm_check quadrature


@dataclass(frozen=True)
class PhaseGrid:
    """Single-mode grid over Re z and Im z."""

    re_range: Tuple[float, float, int]
    im_range: Tuple[float, float, int]

    def __post_init__(self):
        for lo, hi, count in (self.re_range, self.im_range):
            if count < 2 and not (count == 1 and lo == hi):
                raise ValueError("grid needs count >= 2 (or a single point)")
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError("grid ranges must be finite")

    def axes(self) -> Tuple[np.ndarray, np.ndarray]:
        """The Re z and Im z samples."""
        return np.linspace(*self.re_range), np.linspace(*self.im_range)

    def points(self) -> np.ndarray:
        """The (m,) amplitudes z, row-major over (re, im)."""
        res, ims = self.axes()
        return (res[:, None] + 1j * ims).ravel()


@dataclass
class PhaseTable:
    function_kind: str            # husimi | wigner | charfn
    convention: str
    points: np.ndarray            # (m,) single-mode amplitudes z
    values: np.ndarray            # (m,) function values
    measure_note: str = MEASURE_NOTE


# ---------------------------------------------------------------------------
# evaluators

def _gaussian(state: GaussianState, function_kind: str,
              convention: str) -> tuple[complex | None, np.ndarray]:
    """(N, K) of one phase-space function, whose value at Z is N exp(-1/2 Z^T K Z).

    Q takes the convention's (N, R).  W and chi are the literal forms; as
    Z^dag = (E Z)^T, their K are 2 E sigma^-1 and E C, E M being M's row
    blocks swapped, exactly.  chi's N is None, not 1: a product with 1 would
    turn an underflowed -0.0 into +0.0.
    """
    if function_kind == "husimi":
        return bridge.resolve_convention(kernels.ensure_form(state, "R"), convention)
    if function_kind == "wigner":
        sigma = kernels.ensure_form(state, "sigma")
        det = matcore.determinant(sigma)
        if abs(det) < 1e-300:
            raise DomainError("singular covariance kernel")
        return np.sqrt(det) ** -1, 2.0 * np.roll(matcore.inverse(sigma), state.n_modes, 0)
    if function_kind == "charfn":
        return None, np.roll(kernels.ensure_form(state, "C"), state.n_modes, 0)
    raise ValueError(f"unknown function kind {function_kind!r}")


def _values(N, K, z) -> np.ndarray:
    """N exp(-1/2 Z^T K Z) at Z = (z_1..z_n, z_1*..z_n*) for each row of z,
    (m, n); N None reads as 1.  The stacked products repeat the 1-D
    Z @ K @ Z bit for bit; einsum does not."""
    z = np.asarray(z, dtype=complex)
    Z = np.concatenate([z, z.conj()], axis=1)
    values = np.exp(-0.5 * (Z[:, None, :] @ K @ Z[:, :, None])[:, 0, 0])
    return values if N is None else N * values


def _at_point(state: GaussianState, function_kind: str, z,
              convention: str) -> complex:
    """One function value at the mode amplitudes z (n values)."""
    z = np.atleast_1d(z)
    if z.shape != (state.n_modes,):
        raise ValueError(f"state has {state.n_modes} mode(s), "
                         f"z {z.size} amplitude(s)")
    return complex(_values(*_gaussian(state, function_kind, convention), [z])[0])


def husimi_q(state: GaussianState, z, convention: str = AS_PUBLISHED) -> complex:
    """Husimi-Q value at the phase point with mode amplitudes z (n values).

    as-published: sqrt(det R) exp(-1/2 Z^T R Z) with the literal kernel.
    calibrated: bridge-mapped kernel with the trace-normalizing prefactor.
    """
    return _at_point(state, "husimi", z, convention)


def wigner(state: GaussianState, z) -> complex:
    """W(Z) = det(sigma)^{-1/2} exp(-Z^dag sigma^-1 Z), literal form."""
    return _at_point(state, "wigner", z, AS_PUBLISHED)


def char_fn(state: GaussianState, z) -> complex:
    """C(Z) = exp(-1/2 Z^dag C Z)."""
    return _at_point(state, "charfn", z, AS_PUBLISHED)


# ---------------------------------------------------------------------------
# coherent-state Gaussian integral

def gauss_integral(V, X, convention: str = CALIBRATED) -> complex:
    """Closed form of the coherent-state Gaussian integral

        integral (dZ) exp(-1/2 Z^dag V Z) exp(Z^dag X)

    with measure d^2z/pi per mode.

    as-published: det(V)^{-1/2} exp(-1/2 X^T E V^-1 X), exactly as printed.
    calibrated:   det(V)^{-1/2} exp(+1/2 X^T E V^-1 X), the sign that agrees
    with direct quadrature (the printed exponent sign does not).

    Precondition: the Hermitian part of V is positive definite (decay) and
    the two diagonal n x n blocks of V agree, which is the class the closed
    form is exact for (all state-derived kernels C + I/2 are in it).
    """
    sign = bridge.convention(convention).integral_sign
    V = np.asarray(V, dtype=complex)
    X = np.asarray(X, dtype=complex)
    n = V.shape[0] // 2
    herm = 0.5 * (V + V.conj().T)
    if np.linalg.eigvalsh(herm).min() <= 0:
        raise DomainError("Gaussian integrand does not decay: Hermitian part "
                          "of V is not positive definite")
    if np.abs(V[:n, :n] - V[n:, n:]).max() > 1e-10 * max(1.0, np.abs(V).max()):
        raise DomainError("closed form requires equal diagonal blocks of V")
    E = structured("E", n)
    pref = complex(np.sqrt(matcore.determinant(V))) ** -1
    quad = 0.5 * (X @ E @ matcore.dense_solve(V, X))
    return complex(pref * np.exp(sign * quad))


# ---------------------------------------------------------------------------
# grids and normalization

def grid_eval(state: GaussianState, function_kind: str, grid: PhaseGrid,
              convention: str = AS_PUBLISHED) -> PhaseTable:
    """Evaluation over a grid, deterministic row-major over (re, im).

    The state's kernel is resolved once for the whole grid.  `convention`
    applies to the Husimi function only: Wigner and characteristic-function
    values are always the literal forms, and their tables say as-published.
    """
    points = grid.points()
    values = _values(*_gaussian(state, function_kind, convention), points[:, None])
    if function_kind != "husimi":
        convention = AS_PUBLISHED
    return PhaseTable(function_kind=function_kind, convention=convention,
                      points=points, values=values)


def q_norm_check(state: GaussianState, convention: str = CALIBRATED) -> float:
    """Integral of the Husimi-Q function over d^2z/pi (single mode).

    A QUAD_POINTS x QUAD_POINTS rectangle rule over the box |Re z|, |Im z| <=
    max(4, 4 max|sigma|^(1/2)).  Raises DomainError for a non-decaying
    integrand.  For as-published the message carries the finite-box integral
    estimate for the record; for calibrated the trace-normalizing prefactor
    (kernels.trace_of_normal_exponential) raises first, without it.
    """
    if state.n_modes != 1:
        raise ValueError("normalization quadrature is single-mode only")
    sigma = kernels.ensure_form(state, "sigma")
    radius = max(4.0, 4.0 * float(np.sqrt(np.abs(sigma).max())))
    box = PhaseGrid(re_range=(-radius, radius, QUAD_POINTS),
                    im_range=(-radius, radius, QUAD_POINTS))
    xs, _ = box.axes()
    dx = xs[1] - xs[0]
    N, R = _gaussian(state, "husimi", convention)
    values = _values(N, R, box.points()[:, None])
    integral = complex(np.sum(values) * dx * dx / np.pi)
    if not kernels.husimi_decays(R):
        raise DomainError(
            "Husimi integrand does not decay (divergent normalization); "
            f"finite-box estimate over radius {radius:g}: |integral| = "
            f"{abs(integral):.6g}"
        )
    return float(integral.real)
