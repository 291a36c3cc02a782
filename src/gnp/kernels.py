"""Gaussian-state kernel algebra.

Conversions among the four 2n x 2n kernels of a zero-mean Gaussian state:

  G      quadratic-form kernel of the density exponent,
  sigma  covariance kernel,
  R      normal-product kernel,
  C      characteristic-function kernel,

together with symplectic spectra, state constructors, state validation and
the trace of a normal-ordered Gaussian.  Every formula here is the
published one; the two conventions under which a normal-product kernel is
evaluated, and the calibration that chose the second, live in gnp.bridge.

Operator-vector ordering throughout: A = (a_1..a_n, a_1^+..a_n^+)^T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from . import matcore
from .errors import DomainError, NumericalError
from .matcore import structured

AS_PUBLISHED = "as-published"
CALIBRATED = "calibrated"

TOL_CONV = 1e-9      # cross-form consistency tolerance
FORMS = ("G", "sigma", "R", "C")


# ---------------------------------------------------------------------------
# state container

@dataclass
class GaussianState:
    """An n-mode Gaussian state carrying one or more kernel forms, each a
    finite 2n x 2n matrix (ValueError otherwise)."""

    n_modes: int
    forms: Dict[str, np.ndarray]
    provenance: str = ""

    def __post_init__(self):
        d = 2 * self.n_modes
        for name, M in self.forms.items():
            if name not in FORMS:
                raise ValueError(f"unknown kernel form {name!r}")
            M = np.asarray(M, dtype=complex)
            if M.shape != (d, d):
                raise ValueError(f"form {name}: expected shape {(d, d)}, got {M.shape}")
            if not np.all(np.isfinite(M)):
                raise ValueError(f"form {name}: kernel must be finite")
            self.forms[name] = M

    def has(self, form: str) -> bool:
        return form in self.forms


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Williamson frequencies omega_i and thermal weights nu_i."""

    omegas: np.ndarray
    nus: np.ndarray


# ---------------------------------------------------------------------------
# scalar helpers

def _coth(x):
    return 1.0 / np.tanh(x)


def _eq9_ratio(x):
    # (1 + e^-x) / (1 - e^-x), i.e. coth(x/2) in exponential form
    return (1.0 + np.exp(-x)) / (1.0 - np.exp(-x))


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float
    passed: bool
    note: str = ""


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, residual, tol, note=""):
        self.checks.append(
            CheckResult(name, float(residual), tol, bool(residual <= tol), note)
        )

    def lines(self):
        out = []
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            line = f"{status:4s} {c.name}: residual {c.residual:.3e} (tol {c.tol:.0e})"
            if c.note:
                line += f"  [{c.note}]"
            out.append(line)
        return out


def validate_state(state: GaussianState) -> ValidationReport:
    """Per-form symmetry/positivity checks plus cross-form consistency."""
    if not state.forms:
        raise ValueError("state carries no kernel form")
    report = ValidationReport()
    d = 2 * state.n_modes

    if state.has("G"):
        G = state.forms["G"]
        report.add("G.real", np.abs(G.imag).max(), 1e-12)
        report.add("G.symmetric", np.abs(G - G.T).max(), 1e-12)
        w = np.linalg.eigvalsh(G.real)
        report.add("G.positive_definite", max(0.0, -w.min()), 1e-12,
                   note=f"min eigenvalue {w.min():.6g}")
    if state.has("sigma"):
        sigma = state.forms["sigma"]
        report.add("sigma.symmetric", np.abs(sigma - sigma.T).max(), 1e-12)
        w = np.linalg.eigvals(sigma - np.eye(d))
        report.add("sigma.thermal_floor", max(0.0, -w.real.min()), 1e-9,
                   note="eigenvalues of sigma - I must have nonnegative real part")
    if state.has("R"):
        R = state.forms["R"]
        det = abs(matcore.determinant(R))
        report.add("R.nonsingular", 0.0 if det > 1e-12 else 1.0, 0.5,
                   note=f"|det R| = {det:.3e}")

    # cross-form consistency: sigma from G; R and C from sigma when it is
    # stored, else from G
    try:
        for dst in ("sigma", "R", "C"):
            src = "sigma" if dst != "sigma" and state.has("sigma") else "G"
            if not (state.has(src) and state.has(dst)):
                continue
            stored = state.forms[dst]
            residual = np.abs(_CONVERTERS[(src, dst)](state.forms[src]) - stored).max()
            report.add(f"cross.{src}_vs_{dst}",
                       residual / max(np.abs(stored).max(), 1.0), TOL_CONV)
    except (DomainError, NumericalError) as exc:
        report.add("cross.evaluable", 1.0, 0.5, note=str(exc))
    return report


# ---------------------------------------------------------------------------
# kernel conversions

def g_to_sigma(G) -> np.ndarray:
    """sigma = coth(Omega G / 2) Omega."""
    G = np.asarray(G, dtype=complex)
    n = G.shape[-1] // 2
    Om = structured("Omega", n)
    return matcore.mat_analytic(Om @ G, lambda x: _coth(x / 2.0)) @ Om


def sigma_to_g(sigma) -> np.ndarray:
    """Inverse of g_to_sigma: G = 2 Omega arccoth(sigma Omega).

    Raises DomainError when sigma Omega has an eigenvalue in [-1, 1]
    (the state would sit on or beyond the vacuum boundary).
    """
    sigma = np.asarray(sigma, dtype=complex)
    n = sigma.shape[-1] // 2
    Om = structured("Omega", n)
    M = sigma @ Om
    vals = np.linalg.eigvals(M)
    bad = (np.abs(vals.imag) < 1e-10) & (np.abs(vals.real) <= 1.0 + 1e-10)
    if np.any(bad):
        bad, where = matcore.first_failing(vals, bad)
        raise DomainError(
            f"sigma*Omega has eigenvalue(s) {bad} in [-1, 1]; "
            f"arccoth is undefined there (unphysical sigma){where}"
        )
    arccoth = lambda x: 0.5 * np.log((x + 1.0) / (x - 1.0))
    return 2.0 * Om @ matcore.mat_analytic(M, arccoth)


def sigma_to_r(sigma) -> np.ndarray:
    """R = -2 E (sigma + I)^-1, as-published sign."""
    sigma = np.asarray(sigma, dtype=complex)
    n = sigma.shape[-1] // 2
    E = structured("E", n)
    return -2.0 * E @ matcore.inverse(sigma + np.eye(2 * n))


def r_to_sigma(R) -> np.ndarray:
    """Inverse of sigma_to_r: sigma = -2 R^-1 E - I."""
    R = np.asarray(R, dtype=complex)
    n = R.shape[-1] // 2
    E = structured("E", n)
    return -2.0 * matcore.inverse(R) @ E - np.eye(2 * n)


def g_to_r(G) -> np.ndarray:
    """Direct G -> R map, evaluated literally:

    R = -2 (E + J (I + e^{-EGJ})(I - e^{-EGJ})^{-1})^{-1}.
    """
    G = np.asarray(G, dtype=complex)
    n = G.shape[-1] // 2
    E = structured("E", n)
    J = structured("J", n)
    F = matcore.mat_analytic(E @ G @ J, _eq9_ratio)
    return -2.0 * matcore.inverse(E + J @ F)


def sigma_to_c(sigma) -> np.ndarray:
    """C = (1/2) Omega sigma Omega."""
    sigma = np.asarray(sigma, dtype=complex)
    n = sigma.shape[-1] // 2
    Om = structured("Omega", n)
    return 0.5 * Om @ sigma @ Om


def c_to_sigma(C) -> np.ndarray:
    C = np.asarray(C, dtype=complex)
    n = C.shape[-1] // 2
    Om = structured("Omega", n)
    return 2.0 * Om @ C @ Om


def c_from_g(G) -> np.ndarray:
    """C computed from G without passing through sigma:

    C = (Omega/2) (I + e^{-Omega G})(I - e^{-Omega G})^{-1}.
    """
    G = np.asarray(G, dtype=complex)
    n = G.shape[-1] // 2
    Om = structured("Omega", n)
    return 0.5 * Om @ matcore.mat_analytic(Om @ G, _eq9_ratio)


_CONVERTERS = {
    ("G", "sigma"): g_to_sigma,
    ("G", "R"): g_to_r,
    ("G", "C"): c_from_g,
    ("sigma", "G"): sigma_to_g,
    ("sigma", "R"): sigma_to_r,
    ("sigma", "C"): sigma_to_c,
    ("R", "sigma"): r_to_sigma,
    ("C", "sigma"): c_to_sigma,
}


def ensure_form(state: GaussianState, form: str) -> np.ndarray:
    """Return the requested kernel, converting from a stored form if needed.

    The source is the first stored form of sigma, G, R, C; it reaches every
    other form directly or through sigma.
    """
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    if state.has(form):
        return state.forms[form]
    src = next((f for f in ("sigma", "G", "R", "C") if state.has(f)), None)
    if src is None:
        raise ValueError(f"no conversion path to form {form!r} from []")
    X = state.forms[src]
    if (src, form) not in _CONVERTERS:
        X, src = _CONVERTERS[(src, "sigma")](X), "sigma"
    return _CONVERTERS[(src, form)](X)


# ---------------------------------------------------------------------------
# spectra and constructors

def symplectic_spectrum(G) -> SymplecticSpectrum:
    """Williamson frequencies of a real symmetric positive definite G.

    The eigenvalues of J G come in pairs +-i omega_i; returns omega sorted
    ascending together with nu_i = (1 + e^-omega_i)/(1 - e^-omega_i).
    """
    G = np.asarray(G, dtype=complex)
    if not np.all(np.isfinite(G)):
        raise DomainError("G must be finite")
    if np.abs(G.imag).max() > 1e-12 or np.abs(G - G.T).max() > 1e-12:
        raise DomainError("G must be real symmetric")
    if np.linalg.eigvalsh(G.real).min() <= 0:
        raise DomainError("G must be positive definite")
    n = G.shape[0] // 2
    J = structured("J", n)
    vals = np.linalg.eigvals(J @ G)
    scale = max(np.abs(vals).max(), 1.0)
    if np.abs(vals.real).max() > 1e-9 * scale:
        raise DomainError("eigenvalues of J G are not purely imaginary; "
                          "G is outside the Williamson class for this convention")
    pos = np.sort(vals.imag[vals.imag > 0])
    neg = np.sort(-vals.imag[vals.imag < 0])
    if len(pos) != n or len(neg) != n or np.abs(pos - neg).max() > 1e-9 * scale:
        raise DomainError("eigenvalues of J G do not pair as +-i omega")
    omegas = 0.5 * (pos + neg)
    return SymplecticSpectrum(omegas=omegas, nus=_eq9_ratio(omegas))


def squeeze_symplectic(rs) -> np.ndarray:
    """Mode-wise single-mode squeeze blocks assembled into a 2n x 2n symplectic:

    S = [[diag(cosh r), diag(sinh r)], [diag(sinh r), diag(cosh r)]].
    """
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    c = np.diag(np.cosh(rs))
    s = np.diag(np.sinh(rs))
    return np.block([[c, s], [s, c]])


def make_thermal(omegas) -> GaussianState:
    """Thermal normal form G = diag(omega, omega): squeezed thermal at r = 0,
    where S = I leaves G and sigma exactly diagonal."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    state = make_squeezed_thermal(omegas, np.zeros_like(omegas))
    state.provenance = f"thermal(omegas={omegas.tolist()})"
    return state


def make_squeezed_thermal(omegas, rs) -> GaussianState:
    """Squeezed thermal state: G = S^T K-tilde S, sigma = S^-1 nu-tilde S^-T
    with the exact inverse S^-1 = S(-r), for finite positive omegas and one
    finite r per mode; DomainError where G or sigma overflows."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    if not np.all((omegas > 0) & (omegas < np.inf)):
        raise DomainError("all Williamson frequencies must be finite and positive")
    if len(rs) != len(omegas) or not np.all(np.isfinite(rs)):
        raise ValueError("need one finite squeeze parameter per mode")
    Ktilde = np.diag(np.concatenate([omegas, omegas]))
    nus = _eq9_ratio(omegas)
    nutilde = np.diag(np.concatenate([nus, nus]))
    with np.errstate(over="ignore", invalid="ignore"):
        S, Sinv = squeeze_symplectic(rs), squeeze_symplectic(-rs)
        G = S.T @ Ktilde @ S
        sigma = Sinv @ nutilde @ Sinv.T
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(sigma))):
        raise DomainError(f"squeezes {rs.tolist()} give a non-finite G or sigma")
    return GaussianState(
        n_modes=len(omegas),
        forms={"G": G.astype(complex), "sigma": sigma.astype(complex)},
        provenance=f"squeezed_thermal(omegas={omegas.tolist()}, rs={rs.tolist()})",
    )


# ---------------------------------------------------------------------------
# trace of a normal-ordered Gaussian

def husimi_decays(R) -> bool:
    """Whether exp(-1/2 Z^T R Z) decays in every phase-space direction: the
    real quadratic form of Re[(1/2) Z^T R Z] in (x, y) is positive definite."""
    R = np.asarray(R, dtype=complex)
    n = R.shape[0] // 2
    eye = np.eye(n)
    T = np.block([[eye, 1j * eye], [eye, -1j * eye]])  # Z = T (x, y)
    H = 0.5 * (T.T @ R @ T)
    return bool(np.linalg.eigvalsh(0.5 * (H + H.T).real).min() > 0)


def trace_of_normal_exponential(R) -> float:
    """Tr(:exp(-1/2 A^T R A):) under the d^2z/pi per-mode measure.

    Closed form det(E R)^{-1/2}; DomainError when the coherent-state
    integrand does not decay.
    """
    R = np.asarray(R, dtype=complex)
    n = R.shape[0] // 2
    if not husimi_decays(R):
        raise DomainError("trace integrand does not decay (quadratic form not "
                          "positive definite); divergent Gaussian integral")
    E = structured("E", n)
    det = matcore.determinant(E @ R)
    val = complex(np.sqrt(det)) ** -1
    return float(val.real)

