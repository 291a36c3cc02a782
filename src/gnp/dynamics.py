"""Time evolution engines.

Both flows are the linear flow X-dot = B X + X B^T, solved in closed form by
X(t) = S X0 S^T with the symplectic S = exp(B t), det S = 1.  With H
symmetric and J^T = -J, the three generators B are

  "covariance"  J H      sigma-dot = (JH) sigma + sigma (JH)^T
  "b"           -i H J   R-dot = i (R J H - H J R), the normal-product flow
  "a"           -i J H   the printed closed form; it solves the flow only
                         when J H = H J

The module holds the closed-form propagators, a fixed-step RK4 reference
integrator, trajectories that carry their invariants and the audits that
discriminate the ordering/convention ambiguities of the closed forms.  A
stack of m times is one unit: its propagators come from one exponential of
the (m, d, d) stack B t, and a Trajectory holds (m,) and (m, d, d) arrays.

On row-major vec(X) the flow is x-dot = L x with L = B (x) I + I (x) B, so
RK4 is one precomputed increment D, x <- x + D x, applied at every step with
a compensated (Kahan) sum.  Whoever builds a Trajectory, it refuses a
non-finite kernel, then takes its dets and their drift from the first; only
one that applied propagators S (a closed form, of any flow) logs a
symplectic residual, that of those S, after that guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels, matcore
from .errors import NumericalError
from .matcore import structured

VARIANTS = ("a", "b")
AUDIT_SAMPLES = 5          # interior times sampled by ordering_audit
AUDIT_TOL = 1e-6           # ordering_audit's residual bound, relative to max|rhs|
CONVENTION_SAMPLES = 9     # times sampled by convention_audit

# generator B of each flow from (J, H), with H complex
_GENERATORS = {
    "covariance": lambda J, H: J @ H,
    "b": lambda J, H: -1j * H @ J,
    "a": lambda J, H: -1j * J @ H,
}


@dataclass
class QuadraticHamiltonian:
    """Validated 2n x 2n kernel H of H-hat = (1/2) A^T H A."""

    n_modes: int
    H: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=complex)
        d = 2 * self.n_modes
        if H.shape != (d, d):
            raise ValueError(f"expected shape {(d, d)}, got {H.shape}")
        if not np.all(np.isfinite(H)):
            raise ValueError("H must be finite")
        if np.abs(H.imag).max() > 1e-12 or np.abs(H - H.T).max() > 1e-12:
            raise ValueError("H must be real symmetric")
        self.H = H.real


@dataclass(frozen=True)
class Propagator:
    """Closed-form propagator S = exp(B t): X(t) = left @ X0 @ left.T."""

    left: np.ndarray


@dataclass
class Trajectory:
    """Kernel stack of a flow, its invariants computed at construction.
    Raises ValueError for an empty stack and NumericalError naming the first
    step with a non-finite kernel."""

    kind: str                       # "covariance" or "normal"
    H: np.ndarray
    times: np.ndarray               # (m,)
    kernels: np.ndarray             # (m, d, d)
    symplectic_residual: np.ndarray | None = None  # (m,), of the applied S
    dets: np.ndarray = field(init=False)       # (m,) complex, of kernels as given
    det_drift: np.ndarray = field(init=False)  # (m,), from dets[0], relative

    def __post_init__(self):
        X = self.kernels = np.asarray(self.kernels)
        if len(X) == 0:
            raise ValueError("empty trajectory")
        finite = np.isfinite(X).all(axis=(1, 2))
        if not finite.all():
            raise NumericalError(f"non-finite kernel at step {int(np.argmin(finite))}")
        self.dets = np.linalg.det(X).astype(complex)
        diff = self.dets - self.dets[0]
        # hypot, not np.abs: it rounds |z| as Python's abs(complex) does
        self.det_drift = np.hypot(diff.real, diff.imag) / max(abs(self.dets[0]), 1e-300)

    # Python's max skips NaN rows of an overflowed kernel after the first;
    # max_symplectic_residual is None when the trajectory logs none
    @property
    def max_det_drift(self) -> float:
        return float(max(self.det_drift.tolist()))

    @property
    def max_symplectic_residual(self) -> float | None:
        return None if self.symplectic_residual is None \
            else float(max(self.symplectic_residual.tolist()))


# ---------------------------------------------------------------------------
# the linear flow: generator, right-hand side, propagator

def _generator(flow: str, H) -> np.ndarray:
    H = np.asarray(H, dtype=complex)
    return _GENERATORS[flow](structured("J", H.shape[0] // 2), H)


def _rhs(B, X) -> np.ndarray:
    return B @ X + X @ B.T


def _propagators(flow: str, H, times) -> np.ndarray:
    """S = exp(B t): one matrix for a scalar t, a stack (m, d, d) for m
    times, from one exponential call."""
    return matcore.mat_exp(np.multiply.outer(times, _generator(flow, H)))


def _apply(S, X0) -> np.ndarray:
    """S X0 S^T for one S or for each S of a stack."""
    return S @ np.asarray(X0, dtype=complex) @ np.swapaxes(S, -1, -2)


def _flow_of(kind: str, variant: str = "b") -> str:
    """Generator key of a trajectory kind; the normal flow takes `variant`."""
    if kind not in ("covariance", "normal"):
        raise ValueError(f"unknown flow kind {kind!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected 'a' or 'b'")
    return variant if kind == "normal" else kind


def normal_rhs(R, H) -> np.ndarray:
    """i (R J H - H J R), computed as B R + R B^T with B = -i H J."""
    return _rhs(_generator("b", H), np.asarray(R, dtype=complex))


def covariance_propagator(H, t: float) -> Propagator:
    """S(t) = exp(J H t); sigma evolves by S sigma S^T."""
    return Propagator(_propagators("covariance", H, t))


def covariance_propagate(sigma0, H, t: float) -> np.ndarray:
    return _apply(covariance_propagator(H, t).left, sigma0)


def normal_propagator(H, t: float, variant: str) -> Propagator:
    """Closed-form propagator for the normal-product flow.

    variant "a": S = exp(-i J H t), exactly as printed.
    variant "b": S = exp(-i H J t), the ordering that solves the flow
    equation for symmetric H (S^T = exp(+i J H t), since (HJ)^T = -JH).
    """
    return Propagator(_propagators(_flow_of("normal", variant), H, t))


def normal_propagate(R0, H, t: float, variant: str = "b") -> np.ndarray:
    return _apply(normal_propagator(H, t, variant).left, R0)


# ---------------------------------------------------------------------------
# trajectories

def integrate_rk4(kind: str, X0, H, t_end: float, steps: int) -> Trajectory:
    """Classical fixed-step RK4 for either flow, logging invariants per step.

    On row-major vec(X) the flow is x-dot = L x with L = B (x) I + I (x) B,
    so one RK4 step is x <- x + D x with the increment
    D = hL (I + hL/2 (I + hL/3 (I + hL/4))), built once per run (d^2 x d^2,
    at most 64 x 64 for n <= 4); the increments are summed with Kahan
    compensation.  Raises NumericalError naming the first step with a
    non-finite kernel.  It applies no propagator, so it logs no symplectic
    residual.
    """
    flow = _flow_of(kind)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    H = np.asarray(H, dtype=complex)
    B = _generator(flow, H)
    d = B.shape[0]
    h = float(t_end) / steps
    eye = np.eye(d * d)
    hL = h * (np.kron(B, np.eye(d)) + np.kron(np.eye(d), B))
    D = hL @ (eye + hL / 2 @ (eye + hL / 3 @ (eye + hL / 4)))
    x = np.empty((steps + 1, d * d), dtype=complex)
    x[0] = np.asarray(X0, dtype=complex).ravel()
    # c carries what rounding dropped from each x + dx (Kahan): on kernels
    # with |X|^2 >> |det X| the plain sum drifts det X above the stage-wise loop
    c = np.zeros(d * d, dtype=complex)
    Dx, dx = np.empty_like(c), np.empty_like(c)
    # a blow-up runs on as inf/nan and is reported below by its first step;
    # each step is dx = D x - c, x' = x + dx, c = (x' - x) - dx, in place
    with np.errstate(over="ignore", invalid="ignore"):
        for xk, xnext in zip(x, x[1:]):
            np.matmul(D, xk, out=Dx)
            np.subtract(Dx, c, out=dx)
            np.add(xk, dx, out=xnext)
            np.subtract(xnext, xk, out=c)
            np.subtract(c, dx, out=c)
    return Trajectory(kind, H, np.arange(steps + 1) * h, x.reshape(steps + 1, d, d))


def closed_form_trajectory(kind: str, X0, H, t_end: float, steps: int,
                           variant: str = "b") -> Trajectory:
    """Closed-form flow at steps + 1 equally spaced times from 0 to t_end
    (backward for t_end < 0), or at t = 0 alone when t_end = 0; `variant`:
    normal flow.  Logs the symplectic residual of each applied S.  Raises
    NumericalError naming the first step with a non-finite kernel."""
    flow = _flow_of(kind, variant)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    times = np.linspace(0.0, t_end, steps + 1) if t_end != 0 else np.array([0.0])
    S = _propagators(flow, H, times)
    # a finite S can still overflow S X0 S^T; Trajectory names the first such time
    with np.errstate(over="ignore", invalid="ignore"):
        X = _apply(S, X0)
    traj = Trajectory(kind, H, times, X)
    # after the finiteness guard: S of an overflowed run is never measured
    traj.symplectic_residual = matcore.symplectic_residual(S)
    return traj


# ---------------------------------------------------------------------------
# reports

@dataclass
class OrderingAuditReport:
    residuals: dict            # variant -> max flow-equation residual
    consistent_variants: list  # variants within AUDIT_TOL of the rhs scale
    vacuous: bool              # every variant consistent: nothing discriminated


def ordering_audit(R0, H, t_end: float) -> OrderingAuditReport:
    """Check which closed-form variant actually solves the flow equation.

    For each variant the residual || dR/dt - i(R J H - H J R) || is sampled
    at AUDIT_SAMPLES interior times via centered differences, from one
    stacked exponential at t - h, t and t + h (the exact derivative
    B_v R + R B_v^T would test variant b against itself).  It must be within
    AUDIT_TOL * max(1, max |rhs|): the difference error grows with it.  The
    audit is flagged vacuous when every variant passes, so that it does not
    discriminate (as for commuting J H = H J, or a stationary kernel).
    """
    R0 = np.asarray(R0, dtype=complex)
    H = np.asarray(H, dtype=complex)
    h = 1e-5 * max(1.0, abs(t_end))
    ts = np.linspace(t_end / AUDIT_SAMPLES, t_end, AUDIT_SAMPLES)
    residuals = {}
    consistent = []
    for variant in VARIANTS:
        Rm, R, Rp = _apply(_propagators(variant, H, np.concatenate(
            [ts - h, ts, ts + h])), R0).reshape(3, AUDIT_SAMPLES, *R0.shape)
        rhs = normal_rhs(R, H)
        worst = residuals[variant] = float(np.abs((Rp - Rm) / (2 * h) - rhs).max())
        if worst <= AUDIT_TOL * max(1.0, float(np.abs(rhs).max())):
            consistent.append(variant)
    return OrderingAuditReport(
        residuals=residuals,
        consistent_variants=consistent,
        vacuous=len(consistent) == len(VARIANTS),
    )


@dataclass
class ConventionAuditReport:
    residuals: dict   # variant -> max || R_variant(t) - sigma_to_r(sigma(t)) ||
    note: str = ""


def convention_audit(state: kernels.GaussianState, H,
                     t_end: float) -> ConventionAuditReport:
    """Descriptive cross-check of the covariance flow against the normal flow.

    Evolves sigma(t) by the symplectic closed form and R(t) by each variant,
    one stacked exponential per flow, and reports the max deviation
    || R_variant(t) - sigma_to_r(sigma(t)) || over CONVENTION_SAMPLES times.
    Purely descriptive: the two flows are stated by the source formalism in
    possibly different bases, and this audit records the discrepancy without
    resolving it.
    """
    H = np.asarray(H, dtype=complex)
    sigma0 = kernels.ensure_form(state, "sigma")
    R0 = kernels.ensure_form(state, "R")
    ts = np.linspace(0.0, t_end, CONVENTION_SAMPLES)
    sigmas = _apply(_propagators("covariance", H, ts), sigma0)
    R_from_sigma = kernels.sigma_to_r(sigmas)
    residuals = {v: float(np.abs(_apply(_propagators(v, H, ts), R0)
                                 - R_from_sigma).max()) for v in VARIANTS}
    return ConventionAuditReport(
        residuals=residuals,
        note="descriptive only: covariance and normal flows are defined with "
             "different propagator conventions",
    )
