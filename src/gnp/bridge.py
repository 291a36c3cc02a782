"""The two conventions of the normal-product kernel and their calibration.

Each convention is one row of CONVENTIONS.  "as-published" evaluates the
literal kernel with sqrt(det R) and the printed Gaussian-integral sign;
"calibrated" is measured: each kernel map (R_MAPS) and prefactor rule
(PREFACTOR_RULES) is scored against the Fock oracle on a small suite of
thermal and squeezed-thermal states, and whatever survives is the bridge.
Candidate maps that produce identical bridged kernels on every suite member
cannot be distinguished by any measurement, so they are collapsed into a
single equivalence class before the uniqueness check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import matcore
from .errors import NumericalError
from .kernels import (
    AS_PUBLISHED,
    CALIBRATED,
    ensure_form,
    make_squeezed_thermal,
    sigma_to_r,
    trace_of_normal_exponential,
)
from .fockoracle import PhysicalSpec, gaussian_densities, q_of_rho, r_from_q_hessian
from .matcore import structured


def _conjugate(kind: str, R) -> np.ndarray:
    M = structured(kind, R.shape[-1] // 2)
    return M @ R @ M


# name -> map of a complex normal-product kernel
R_MAPS = {
    "identity": np.copy,
    "negate": np.negative,
    "conjugate-by-E": lambda R: _conjugate("E", R),
    "conjugate-by-Omega": lambda R: _conjugate("Omega", R),
    "negate-conjugate-by-E": lambda R: -_conjugate("E", R),
}

# name -> prefactor of a (mapped) complex kernel R, given det R
PREFACTOR_RULES = {
    "sqrt-det-R": lambda R, det_R: complex(np.sqrt(det_R)),
    "sqrt-det-ER": lambda R, det_R: complex(np.sqrt(matcore.determinant(
        structured("E", R.shape[0] // 2) @ R))),
    "trace-normalized": lambda R, det_R: complex(1.0 / trace_of_normal_exponential(R)),
}


def apply_r_map(R, name: str) -> np.ndarray:
    """Apply one of the kernel-map hypotheses to a normal-product kernel."""
    if name not in R_MAPS:
        raise ValueError(f"unknown bridge map {name!r}")
    return R_MAPS[name](np.asarray(R, dtype=complex))


@dataclass(frozen=True)
class ConventionBridge:
    """Calibrated map from as-published kernels to physical ones."""

    r_map: str
    prefactor_rule: str
    residual: float


class Convention(NamedTuple):
    r_map: str
    prefactor_rule: str
    integral_sign: float      # exponent sign of the coherent-state Gaussian integral


# calibrated: the bridge that calibrate() selects and the integral sign that
# agrees with quadrature
CONVENTIONS = {
    AS_PUBLISHED: Convention("identity", "sqrt-det-R", -1.0),
    CALIBRATED: Convention("negate", "trace-normalized", +1.0),
}


def convention(name: str) -> Convention:
    if name not in CONVENTIONS:
        raise ValueError(f"unknown convention {name!r}")
    return CONVENTIONS[name]


def resolve_convention(R, name: str) -> tuple[complex, np.ndarray]:
    """(prefactor, mapped R): the kernel under a convention's map, and the
    convention's prefactor rule evaluated on the mapped kernel."""
    row = convention(name)
    R = apply_r_map(R, row.r_map)
    det_R = matcore.determinant(R)
    if abs(det_R) < 1e-300:
        raise NumericalError("singular R: det R = 0")
    return PREFACTOR_RULES[row.prefactor_rule](R, det_R), R


# ---------------------------------------------------------------------------
# calibration against the Fock oracle

DEFAULT_CUTOFF = 40
DEGENERACY_TOL = 1e-12
ACCEPT_TOL = 1e-6
# The oracle's Q(0) is off by rho_00 times the mass the cut to `cutoff` loses,
# since _padded_density renormalizes after the cut, so the prefactor leg gets a
# looser gate; the candidate rules differ at order 1, a huge margin either way.
PREFACTOR_TOL = 1e-4


def calibration_suite():
    """(label, published state, physical spec) triples used for calibration:
    one squeezed thermal family, three members of it thermal (r = 0)."""
    suite = []
    for om, r in ((0.3, 0.0), (np.log(2.0), 0.0), (2.0, 0.0), (1.0, 0.25), (0.7, 0.5)):
        kind = "squeezed-thermal" if r else "thermal"
        suite.append((f"{kind}(omega={om:.4g}, r={r:.4g})",
                      make_squeezed_thermal([om], [r]), PhysicalSpec(kind, [om], [r])))
    return suite


@dataclass
class CalibrationReport:
    """Scored hypotheses and the convention bridge they select."""

    cutoff: int
    kernel_residuals: dict = field(default_factory=dict)   # r_map -> max residual
    prefactor_residuals: dict = field(default_factory=dict)  # rule -> max residual
    degeneracy_groups: list = field(default_factory=list)  # lists of r_map names
    selected: ConventionBridge | None = None

    def lines(self):
        out = [f"calibration at cutoff {self.cutoff}"]
        for name, res in sorted(self.kernel_residuals.items(), key=lambda kv: kv[1]):
            out.append(f"  kernel map {name:24s} residual {res:.3e}")
        for rule, res in sorted(self.prefactor_residuals.items(), key=lambda kv: kv[1]):
            out.append(f"  prefactor  {rule:24s} residual {res:.3e}")
        for group in self.degeneracy_groups:
            if len(group) > 1:
                out.append("  degenerate maps (indistinguishable on suite): "
                           + ", ".join(group))
        if self.selected is not None:
            out.append(f"  selected: r_map={self.selected.r_map}, "
                       f"prefactor={self.selected.prefactor_rule}, "
                       f"residual {self.selected.residual:.3e}")
        return out


def _degeneracy_groups(mapped):
    """Group kernel maps whose bridged kernels, mapped[name] (a stack over
    the suite), agree on the whole suite."""
    groups = []
    for name in mapped:
        for group in groups:
            rep = group[0]
            if np.abs(mapped[name] - mapped[rep]).max() <= DEGENERACY_TOL:
                group.append(name)
                break
        else:
            groups.append([name])
    return groups


def calibrate(cutoff: int = DEFAULT_CUTOFF) -> CalibrationReport:
    """Score every kernel map and prefactor rule against the Fock oracle.

    The suite is read as stacks: the published R of all members from one
    sigma_to_r, their physical densities from one gaussian_densities call
    (one stacked exponential), then each member's exact Hessian read and Q(0).

    Raises NumericalError if no hypothesis meets tolerance or if two
    genuinely distinct kernel maps both survive.
    """
    _, states, specs = zip(*calibration_suite())
    report = CalibrationReport(cutoff=cutoff)

    published = sigma_to_r(np.array([ensure_form(s, "sigma") for s in states]))
    rhos = gaussian_densities(specs, cutoff)
    physical = np.array([r_from_q_hessian(rho) for rho in rhos])
    q_origins = [q_of_rho(rho, 0.0) for rho in rhos]

    # each map applied once to the suite stack; every score below reads these
    mapped = {name: apply_r_map(published, name) for name in R_MAPS}
    for name, Rs in mapped.items():
        report.kernel_residuals[name] = float(np.abs(Rs - physical).max())

    report.degeneracy_groups = _degeneracy_groups(mapped)
    winners = [g for g in report.degeneracy_groups
               if report.kernel_residuals[g[0]] <= ACCEPT_TOL]
    if not winners:
        raise NumericalError(
            "no kernel-map hypothesis matched the Fock oracle; residuals: "
            + ", ".join(f"{k}={v:.2e}" for k, v in report.kernel_residuals.items())
        )
    if len(winners) > 1:
        raise NumericalError(
            "multiple distinguishable kernel maps survive calibration: "
            + "; ".join(",".join(g) for g in winners)
        )
    r_map = winners[0][0]

    dets = matcore.determinant(mapped[r_map])
    for rule in PREFACTOR_RULES:
        res = max(abs(PREFACTOR_RULES[rule](Rm, det) - q0)
                  for Rm, det, q0 in zip(mapped[r_map], dets, q_origins))
        report.prefactor_residuals[rule] = float(res)
    passing = [r for r in PREFACTOR_RULES
               if report.prefactor_residuals[r] <= PREFACTOR_TOL]
    if not passing:
        best = min(report.prefactor_residuals, key=report.prefactor_residuals.get)
        raise NumericalError(
            f"best prefactor rule {best!r} residual "
            f"{report.prefactor_residuals[best]:.3e} exceeds {PREFACTOR_TOL:.0e}"
        )
    # ties between passing rules are possible (det-based closed form equals
    # the trace-normalizing constant on decaying kernels); prefer the rule
    # whose defining property is normalization of Q.
    rule = "trace-normalized" if "trace-normalized" in passing else passing[0]

    # the bridge residual is the kernel-map deviation; the prefactor leg is
    # reported separately (it carries the slower Q(0) truncation error)
    report.selected = ConventionBridge(r_map=r_map, prefactor_rule=rule,
                                       residual=float(report.kernel_residuals[r_map]))
    return report
