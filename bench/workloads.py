"""The benchmark's three workloads: flow, phase and oracle.

Each workload makes its inputs from the seed with numpy alone, hands gnp
only arrays, PhysicalSpecs or files, and checks every output against a
computation made here, apart from the code that produced it, or against a
property the method must have.  `round(r)` gives the r-th round of
operations; every round holds the same operations on fresh seeded values.
`run(op)` makes the program calls of one operation and `check(op, result)`
returns (name, value, limit) triples, one per check, each passing when
value <= limit.  `PERTURB` maps every check name to a corruption of one
result that the check must reject; the self-test applies them.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.linalg

from gnp import cli, dynamics, fockoracle, kernels, phasespace, stateio


@dataclass
class Op:
    kind: str
    label: str
    data: dict
    round: int = 0


@dataclass
class Result:
    outputs: dict
    stages: dict = field(default_factory=dict)  # stage name -> seconds
    work: float = 0.0                           # work units done in WORK_STAGES


# ---------------------------------------------------------------------------
# numpy-only reference algebra, written apart from gnp

def blocks(n: int):
    """J, Omega and E for n modes."""
    eye, zero = np.eye(n), np.zeros((n, n))
    J = np.block([[zero, eye], [-eye, zero]])
    Om = np.block([[eye, zero], [zero, -eye]])
    E = np.block([[zero, eye], [eye, zero]])
    return J, Om, E


def bogoliubov_state(omegas, rs):
    """Published G and sigma of a squeezed thermal state.

    Uses the mode-wise squeeze S = [[cosh r, sinh r], [sinh r, cosh r]] that
    PhysicalSpec conjugates its kernel with, so the state is the published
    partner of PhysicalSpec(omegas, rs).  Such states have E G E = G.
    """
    omegas, rs = np.asarray(omegas, float), np.asarray(rs, float)
    n = len(omegas)
    c, s = np.diag(np.cosh(rs)), np.diag(np.sinh(rs))
    S = np.block([[c, s], [s, c]])
    Sinv = np.linalg.inv(S)
    nus = 1.0 / np.tanh(omegas / 2.0)
    G = S.T @ np.diag(np.concatenate([omegas, omegas])) @ S
    sigma = Sinv @ np.diag(np.concatenate([nus, nus])) @ Sinv.T
    E = blocks(n)[2]
    if np.abs(E @ G @ E - G).max() > 1e-12:
        raise AssertionError("generated state is not of Bogoliubov class")
    return G.astype(complex), sigma.astype(complex)


def sigma_of_g(G):
    """sigma = coth(Omega G / 2) Omega, by eigendecomposition."""
    Om = blocks(len(G) // 2)[1]
    w, V = np.linalg.eig(Om @ G)
    return (V * (1.0 / np.tanh(w / 2.0))) @ np.linalg.inv(V) @ Om


def published_r(sigma):
    """R = -2 E (sigma + I)^-1."""
    E = blocks(len(sigma) // 2)[2]
    return -2.0 * E @ np.linalg.inv(sigma + np.eye(len(sigma)))


def char_c(sigma):
    """C = Omega sigma Omega / 2."""
    Om = blocks(len(sigma) // 2)[1]
    return 0.5 * Om @ sigma @ Om


def symplectic_residual(S):
    J = blocks(len(S) // 2)[0]
    return float(max(np.abs(S.T @ J @ S - J).max(), np.abs(S @ J @ S.T - J).max()))


def rel_err(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max()
                 / max(np.abs(b).max(), 1e-300))


def random_pd(d, rng):
    """Random symmetric positive definite d x d matrix."""
    A = rng.standard_normal((d, d))
    return A @ A.T / d + 0.5 * np.eye(d)


def tail_mass(rho, cutoff, n_modes):
    """Population of Fock states with any mode on the top kept level."""
    pops = np.abs(np.diag(rho)).reshape((cutoff,) * n_modes)
    keep = pops[(slice(0, cutoff - 1),) * n_modes].sum()
    return float(pops.sum() - keep)


def write_state_file(path, form, M, provenance):
    """A state file in gnp's JSON format, written without gnp."""
    M = np.asarray(M, dtype=complex)
    doc = {"n_modes": len(M) // 2, "form": form,
           "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in M],
           "convention": "as-published", "provenance": provenance}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def write_hamiltonian_file(path, H):
    doc = {"n_modes": len(H) // 2,
           "matrix": [[[float(v), 0.0] for v in row] for row in H]}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def run_cli(argv):
    """gnp.cli.main in process, its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _with(outputs, **changes):
    return {**outputs, **changes}


# ---------------------------------------------------------------------------
# corruptions named in the PERTURB tables

def _scale(key, factor):
    return lambda out: _with(out, **{key: out[key] * factor})


def _scale_kernel(key, index, factor):
    """Scale one kernel of the stacked output `key`."""
    def corrupt(out):
        stack = out[key].copy()
        stack[index] *= factor
        return _with(out, **{key: stack})
    return corrupt


def _flip_bit(out):
    back = out["kernels_back"].copy()
    back[1, 0, 0] = np.nextafter(back[1, 0, 0].real, np.inf) + 1j * back[1, 0, 0].imag
    return _with(out, kernels_back=back)


def _unhermitian(out):
    rho = out["rho"].copy()
    rho[0, 1] += 1e-9
    return _with(out, rho=rho)


def _edit_phase_values(factor, row=None):
    """Scale the value of every phase CSV row, or of the row `row` places
    after the grid's centre, where values are largest."""
    def corrupt(out):
        lines = out["csv"].splitlines()
        data = [i for i, line in enumerate(lines)
                if line and not line.startswith("#")][1:]
        for i in data if row is None else [data[len(data) // 2 + row]]:
            re_, im, vre, vim = lines[i].split(",")
            lines[i] = ",".join([re_, im, repr(float(vre) * factor), repr(float(vim) * factor)])
        return _with(out, csv="\n".join(lines) + "\n")
    return corrupt


def _shift_phase_coordinate(out):
    lines = out["csv"].splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("re,")) + 1
    re_, rest = lines[i].split(",", 1)
    lines[i] = f"{float(np.nextafter(float(re_), np.inf))!r},{rest}"
    return _with(out, csv="\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# flow: matcore and dynamics

class Flow:
    """One operation is one (kernel, H) item: two 1000-step RK4 runs, a
    closed-form trajectory and a trajectory CSV round trip.  A round holds
    one item for each mode count 1..4.

    `dynamics.ordering_audit` is left out: its absolute 1e-6 tolerance on a
    finite-difference residual rejects the correct variant b on some seeds,
    once the kernel has grown to |R| ~ 1e3 (see the README)."""

    name = "flow"
    WORK_STAGES = ("rk4_normal", "rk4_covariance")
    WORK_UNIT = "RK4 steps"

    def __init__(self, seed: int, workdir: Path, reduced: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.modes = (1, 2) if reduced else (1, 2, 3, 4)
        self.steps = 200 if reduced else 1000
        self.t_end = 1.0
        self.closed_points = 101
        self.csv_path = self.workdir / "trajectory.csv"

    def _item(self, n, rng, r):
        # random_valid_g-style kernel: algebraic, not of Bogoliubov class
        d = 2 * n
        J = blocks(n)[0]
        M = rng.standard_normal((d, d)) * 0.3
        S = scipy.linalg.expm(J @ (0.5 * (M + M.T)))
        omegas = rng.uniform(0.4, 2.0, n)
        G = S.T @ np.diag(np.concatenate([omegas, omegas])) @ S
        sigma0 = sigma_of_g(0.5 * (G + G.T))
        return Op("item", f"flow n={n} round {r}", {
            "n": n, "sigma0": sigma0, "R0": published_r(sigma0),
            "H": random_pd(d, rng)}, r)

    def round(self, r: int):
        rng = np.random.default_rng([self.seed, 1, r])
        return [self._item(n, rng, r) for n in self.modes]

    def warmup(self):
        return self._item(self.modes[0], np.random.default_rng([self.seed, 0]), -1)

    def run(self, op: Op) -> Result:
        R0, sigma0, H = op.data["R0"], op.data["sigma0"], op.data["H"]
        T = self.t_end
        t0 = perf_counter()
        normal = dynamics.integrate_rk4("normal", R0, H, T, self.steps)
        t1 = perf_counter()
        cov = dynamics.integrate_rk4("covariance", sigma0, H, T, self.steps)
        t2 = perf_counter()
        times = [float(t) for t in np.linspace(0.0, T, self.closed_points)]
        closed = dynamics.Trajectory(kind="normal", H=H, times=times, kernels=[
            dynamics.normal_propagate(R0, H, t, "b") for t in times])
        S = dynamics.covariance_propagator(H, T).left
        t3 = perf_counter()
        self.csv_path.write_text(stateio.trajectory_to_csv(closed))
        kind, times_back, kernels_back = stateio.trajectory_from_csv(
            self.csv_path.read_text())
        t4 = perf_counter()
        return Result(
            outputs={"normal": np.array(normal.kernels), "cov": np.array(cov.kernels),
                     "closed": np.array(closed.kernels), "times": np.array(times),
                     "S": S, "csv_kind": kind,
                     "times_back": np.asarray(times_back),
                     "kernels_back": np.array(kernels_back)},
            stages={"rk4_normal": t1 - t0, "rk4_covariance": t2 - t1,
                    "closed_form": t3 - t2, "csv_roundtrip": t4 - t3},
            work=2.0 * self.steps)

    def check(self, op: Op, result: Result):
        out = result.outputs
        n, R0, sigma0, H = (op.data[k] for k in ("n", "R0", "sigma0", "H"))
        J = blocks(n)[0]
        T = self.t_end
        S_ref = scipy.linalg.expm(J @ H * T)
        R_ref = scipy.linalg.expm(-1j * H @ J * T) @ R0 @ scipy.linalg.expm(1j * J @ H * T)

        def drift(stack):
            dets = np.linalg.det(stack)
            return float(np.abs(dets - dets[0]).max() / abs(dets[0]))

        csv_ok = (out["csv_kind"] == "normal"
                  and np.array_equal(out["times_back"], out["times"])
                  and np.array_equal(out["kernels_back"], out["closed"]))
        return [
            ("rk4_normal_vs_closed_form", rel_err(out["normal"][-1], R_ref), 1e-7),
            ("rk4_covariance_vs_symplectic", rel_err(out["cov"][-1], S_ref @ sigma0 @ S_ref.T), 1e-7),
            ("rk4_det_drift", max(drift(out["normal"]), drift(out["cov"])), 1e-8),
            ("closed_form_kernel", rel_err(out["closed"][-1], R_ref), 1e-10),
            ("closed_form_symplectic", symplectic_residual(out["S"]), 1e-10),
            ("trajectory_csv_bit_exact", 0.0 if csv_ok else 1.0, 0.0),
        ]

    PERTURB = {
        "rk4_normal_vs_closed_form": ("item", _scale_kernel("normal", -1, 1.0 + 1e-6)),
        "rk4_covariance_vs_symplectic": ("item", _scale_kernel("cov", -1, 1.0 + 1e-6)),
        "rk4_det_drift": ("item", _scale_kernel("normal", 1, 1.0 + 1e-6)),
        "closed_form_kernel": ("item", _scale_kernel("closed", -1, 1.0 + 1e-8)),
        "closed_form_symplectic": ("item", _scale("S", 1.0 + 1e-8)),
        "trajectory_csv_bit_exact": ("item", _flip_bit),
    }


# ---------------------------------------------------------------------------
# phase: phasespace, kernels, cli, stateio reads

PHASE_VARIANTS = {
    "q-calibrated": ("husimi", ["--fn", "q", "--convention", "calibrated", "--check-norm"]),
    "q-published": ("husimi", ["--fn", "q", "--convention", "as-published"]),
    "wigner": ("wigner", ["--fn", "wigner"]),
    "char": ("charfn", ["--fn", "char"]),
}
PHASE_FORMS = ("G", "sigma", "R", "C")


def parse_phase_csv(text):
    """(meta, header, rows) of a phase table CSV, parsed without gnp.

    Raises ValueError on a field that is not a float."""
    meta, lines = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            meta[key] = val
        elif line.strip():
            lines.append(line.split(","))
    if not lines:
        return meta, [], np.zeros((0, 4))
    return meta, lines[0], np.array([[float(x) for x in row] for row in lines[1:]])


def _quad(Za, M, Zb):
    return np.einsum("...i,ij,...j->...", Za, M, Zb)


def phase_grids(sigma, xs):
    """Independent closed forms of the four `gnp phase` grids of one state.

    The calibrated Husimi kernel is -R with the prefactor that normalizes Q
    under d^2z/pi, 1 / Re det(E R)^(-1/2)."""
    E = blocks(len(sigma) // 2)[2]
    z = xs[:, None] + 1j * xs[None, :]
    Z = np.stack([z, z.conj()], axis=-1)
    R = published_r(sigma)
    Rc = -R
    n_cal = 1.0 / (np.sqrt(complex(np.linalg.det(E @ Rc))) ** -1).real
    n_pub = np.sqrt(complex(np.linalg.det(R)))
    det_sigma = complex(np.linalg.det(sigma))
    return {
        "q-calibrated": n_cal * np.exp(-0.5 * _quad(Z, Rc, Z)),
        "q-published": n_pub * np.exp(-0.5 * _quad(Z, R, Z)),
        "wigner": np.sqrt(det_sigma) ** -1 * np.exp(-_quad(Z.conj(), np.linalg.inv(sigma), Z)),
        "char": np.exp(-0.5 * _quad(Z.conj(), char_c(sigma), Z)),
    }


class Phase:
    """One operation is one in-process `gnp phase` command on a 41 x 41
    grid.  A round runs four commands on each of the four stored forms of
    one state, 16 commands; even rounds take the thermal state, odd rounds
    the squeezed thermal one."""

    name = "phase"
    WORK_STAGES = ("command",)
    WORK_UNIT = "grid points"

    def __init__(self, seed: int, workdir: Path, reduced: bool = False):
        self.workdir = Path(workdir)
        self.count = 11 if reduced else 41
        self.xs = np.linspace(-2.0, 2.0, self.count)
        self.out_path = self.workdir / "phase.csv"
        self.ref_cutoff = 80
        rng = np.random.default_rng([seed, 0])
        specs = {"thermal": ([rng.uniform(0.8, 2.0)], [0.0]),
                 "squeezed": ([rng.uniform(0.8, 2.0)], [rng.uniform(0.1, 0.4)])}
        flat = rng.choice(self.count * self.count, size=9, replace=False)
        self.samples = np.unravel_index(np.sort(flat), (self.count, self.count))
        self.states, self.expected, self.oracle = {}, {}, {}
        for label, (omegas, rs) in specs.items():
            G, sigma = bogoliubov_state(omegas, rs)
            matrices = {"G": G, "sigma": sigma, "R": published_r(sigma), "C": char_c(sigma)}
            paths = {}
            for form, M in matrices.items():
                paths[form] = self.workdir / f"{label}-{form}.json"
                write_state_file(paths[form], form, M, f"{label} omega={omegas} r={rs}")
            self.states[label] = paths
            self.expected[label] = phase_grids(sigma, self.xs)
            kind = "thermal" if label == "thermal" else "squeezed-thermal"
            spec = fockoracle.PhysicalSpec(kind, omegas, None if kind == "thermal" else rs)
            rho = fockoracle.gaussian_density(spec, self.ref_cutoff)
            zs = self.xs[self.samples[0]] + 1j * self.xs[self.samples[1]]
            self.oracle[label] = (np.array([fockoracle.q_of_rho(rho, z) for z in zs]),
                                  tail_mass(rho.matrix, self.ref_cutoff, 1))
        self._first = {}

    def round(self, r: int):
        label = list(self.states)[r % 2]
        return [Op(variant, f"phase {label} {form} {variant} round {r}",
                   {"state": label, "form": form, "variant": variant}, r)
                for form in PHASE_FORMS
                for variant in PHASE_VARIANTS]

    def warmup(self):
        return self.round(-1)[0]

    def run(self, op: Op) -> Result:
        self.out_path.unlink(missing_ok=True)
        argv = ["phase", str(self.states[op.data["state"]][op.data["form"]]),
                *PHASE_VARIANTS[op.data["variant"]][1],
                f"--grid=-2:2:{self.count}", "-o", str(self.out_path)]
        t0 = perf_counter()
        code, stdout = run_cli(argv)
        t1 = perf_counter()
        text = self.out_path.read_text() if self.out_path.exists() else ""
        return Result(outputs={"code": code, "stdout": stdout, "csv": text},
                      stages={"command": t1 - t0}, work=float(self.count ** 2))

    def check(self, op: Op, result: Result):
        out = result.outputs
        label, form, variant = op.data["state"], op.data["form"], op.data["variant"]
        try:
            meta, header, rows = parse_phase_csv(out["csv"])
        except ValueError:
            meta, header, rows = {}, [], np.zeros((0, 4))
        count = self.count
        re_grid, im_grid = np.meshgrid(self.xs, self.xs, indexing="ij")
        grid_ok = (header == ["re", "im", "value_re", "value_im"]
                   and meta.get("function_kind") == PHASE_VARIANTS[variant][0]
                   and rows.shape == (count * count, 4)
                   and np.array_equal(rows[:, 0], re_grid.ravel())
                   and np.array_equal(rows[:, 1], im_grid.ravel()))
        checks = [("exit_code", float(out["code"] != 0), 0.0),
                  ("csv_grid", 0.0 if grid_ok else 1.0, 0.0)]
        if not grid_ok:
            return checks
        values = (rows[:, 2] + 1j * rows[:, 3]).reshape(count, count)
        checks.append(("csv_values_vs_closed_form",
                       rel_err(values, self.expected[label][variant]), 1e-9))
        key = (op.round, label, variant)
        if form == PHASE_FORMS[0]:
            self._first[key] = values
        elif key in self._first:
            checks.append(("forms_agree", rel_err(values, self._first[key]), 1e-9))
        if variant == "q-calibrated":
            ref, tail = self.oracle[label]
            checks.append(("q_vs_fock_oracle",
                           float(np.abs(values[self.samples].real - ref).max()),
                           2.0 * tail + 1e-9))
            found = re.search(r"^husimi normalization integral: (\S+)$", out["stdout"], re.M)
            try:
                norm_error = abs(float(found.group(1)) - 1.0)
            except (AttributeError, ValueError):
                norm_error = np.inf
            checks.append(("check_norm_is_one", norm_error, 1e-6))
        if variant == "char":
            centre = values[count // 2, count // 2]
            checks.append(("char_unit_at_origin_and_bounded",
                           max(abs(centre - 1.0), np.abs(values).max() - 1.0), 1e-12))
        if variant == "wigner":
            checks.append(("wigner_even", rel_err(values, values[::-1, ::-1]), 1e-9))
        return checks

    PERTURB = {
        "exit_code": ("char", lambda out: _with(out, code=2)),
        "csv_grid": ("char", _shift_phase_coordinate),
        "csv_values_vs_closed_form": ("wigner", _edit_phase_values(1.0 + 1e-6, row=0)),
        "forms_agree": ("q-published", _edit_phase_values(1.0 + 1e-8)),
        "q_vs_fock_oracle": ("q-calibrated", _edit_phase_values(1.01)),
        "check_norm_is_one": ("q-calibrated", lambda out: _with(
            out, stdout=re.sub(r"integral: \S+", "integral: 0.99", out["stdout"]))),
        "char_unit_at_origin_and_bounded": ("char", _edit_phase_values(1.001)),
        "wigner_even": ("wigner", _edit_phase_values(1.0 + 1e-6, row=1)),
    }


# ---------------------------------------------------------------------------
# oracle: fockoracle, bridge

class Oracle:
    """A round holds three two-mode density items at cutoffs 14, 18 and 22
    (padded spaces of 484, 676 and 900 levels), one single-mode Liouville
    and derivative-identity item, and one `gnp audit --with-oracle`
    command: five operations."""

    name = "oracle"
    WORK_STAGES = ("density_2m",)
    WORK_UNIT = "two-mode densities"

    def __init__(self, seed: int, workdir: Path, reduced: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.cutoffs = (12,) if reduced else (14, 18, 22)
        self.single_cutoff = 30 if reduced else 40
        self.audit_cutoff = 40

    def _points(self, rng, count, n):
        radius = rng.uniform(0.0, 0.6, (count, n))
        return radius * np.exp(2j * np.pi * rng.uniform(size=(count, n)))

    def _ops(self, rng, r):
        ops = []
        for cutoff in self.cutoffs:
            omegas, rs = rng.uniform(1.5, 2.5, 2), rng.uniform(0.05, 0.25, 2)
            _, sigma = bogoliubov_state(omegas, rs)
            ops.append(Op("density", f"oracle density cutoff={cutoff} round {r}", {
                "cutoff": cutoff, "sigma": sigma, "R_pub": published_r(sigma),
                "spec": fockoracle.PhysicalSpec("squeezed-thermal", omegas, rs),
                "points": self._points(rng, 4, 2)}, r))
        om_th, om_sq, r_sq = rng.uniform(0.5, 2.0), rng.uniform(1.0, 2.0), rng.uniform(0.1, 0.3)
        ops.append(Op("single", f"oracle single-mode round {r}", {
            "thermal": fockoracle.PhysicalSpec("thermal", [om_th]),
            "squeezed": fockoracle.PhysicalSpec("squeezed-thermal", [om_sq], [r_sq]),
            "t": rng.uniform(0.5, 2.0), "points": self._points(rng, 3, 1)[:, 0]}, r))
        state = self.workdir / f"audit-state-{r}.json"
        ham = self.workdir / f"audit-ham-{r}.json"
        _, sigma = bogoliubov_state([rng.uniform(0.5, 2.0)], [rng.uniform(0.1, 0.4)])
        write_state_file(state, "sigma", sigma, "audit squeezed thermal")
        write_hamiltonian_file(ham, random_pd(2, rng))
        ops.append(Op("audit", f"oracle audit round {r}", {"state": state, "ham": ham}, r))
        return ops

    def round(self, r: int):
        return self._ops(np.random.default_rng([self.seed, 1, r]), r)

    def warmup(self):
        return self._ops(np.random.default_rng([self.seed, 0]), -1)[0]

    def run(self, op: Op) -> Result:
        d = op.data
        if op.kind == "density":
            t0 = perf_counter()
            rho = fockoracle.gaussian_density(d["spec"], d["cutoff"])
            t1 = perf_counter()
            R = fockoracle.r_from_q_hessian(rho)
            t2 = perf_counter()
            qs = [fockoracle.q_of_rho(rho, z) for z in d["points"]]
            t3 = perf_counter()
            return Result({"rho": rho.matrix, "R": R, "q": np.array(qs)},
                          {"density_2m": t1 - t0, "hessian": t2 - t1, "q_points": t3 - t2},
                          work=1.0)
        if op.kind == "single":
            t0 = perf_counter()
            rho = fockoracle.gaussian_density(d["thermal"], self.single_cutoff)
            evolved = fockoracle.liouville_step(rho, d["thermal"].operator_kernel, d["t"])
            squeezed = fockoracle.gaussian_density(d["squeezed"], self.single_cutoff)
            reports = [fockoracle.derivative_identity_check(squeezed, z) for z in d["points"]]
            t1 = perf_counter()
            return Result({"rho": rho.matrix, "evolved": evolved.matrix,
                           "residuals": [max(x.residual_rho_a, x.residual_at_rho) for x in reports],
                           "flagged": any(x.truncation_flagged for x in reports)},
                          {"single_mode": t1 - t0})
        report = self.workdir / "audit-report.json"
        report.unlink(missing_ok=True)
        argv = ["audit", str(d["state"]), "--ham", str(d["ham"]), "--t", "1",
                "--with-oracle", "--cutoff", str(self.audit_cutoff), "-o", str(report)]
        t0 = perf_counter()
        code, _ = run_cli(argv)
        t1 = perf_counter()
        doc = json.loads(report.read_text()) if report.exists() else {}
        return Result({"code": code, "report": doc}, {"audit": t1 - t0})

    def check(self, op: Op, result: Result):
        out = result.outputs
        d = op.data
        if op.kind == "density":
            rho = out["rho"]
            state = kernels.GaussianState(2, {"sigma": d["sigma"]})
            q_ref = [phasespace.husimi_q(state, z, kernels.CALIBRATED).real for z in d["points"]]
            tail = tail_mass(rho, d["cutoff"], 2)
            return [
                ("density_unit_trace", abs(np.trace(rho) - 1.0), 1e-12),
                ("density_hermitian", float(np.abs(rho - rho.conj().T).max()), 1e-12),
                ("hessian_is_negated_published_r", float(np.abs(out["R"] + d["R_pub"]).max()), 1e-8),
                ("q_vs_calibrated_husimi", float(np.abs(out["q"] - q_ref).max()), 2.0 * tail + 1e-9),
            ]
        if op.kind == "single":
            return [
                ("liouville_leaves_thermal_state", float(np.abs(out["evolved"] - out["rho"]).max()), 1e-10),
                ("derivative_identities", max(out["residuals"]) + (np.inf if out["flagged"] else 0.0), 1e-6),
            ]
        bridge_doc = out["report"].get("bridge", {})
        selected = (bridge_doc.get("r_map") == "negate"
                    and bridge_doc.get("prefactor_rule") == "trace-normalized")
        return [
            ("exit_code", float(out["code"] != 0), 0.0),
            ("bridge_selects_negate_trace_normalized",
             bridge_doc.get("residual", np.inf) if selected else np.inf, 1e-6),
        ]

    PERTURB = {
        "density_unit_trace": ("density", _scale("rho", 1.0 + 1e-9)),
        "density_hermitian": ("density", _unhermitian),
        # the un-negated published kernel is what the oracle must not match
        "hessian_is_negated_published_r": ("density", _scale("R", -1.0)),
        "q_vs_calibrated_husimi": ("density", _scale("q", 1.01)),
        "liouville_leaves_thermal_state": ("single", _scale("evolved", 1.0 + 1e-8)),
        "derivative_identities": ("single", lambda out: _with(
            out, residuals=[r + 1e-5 for r in out["residuals"]])),
        "exit_code": ("audit", lambda out: _with(out, code=2)),
        "bridge_selects_negate_trace_normalized": ("audit", lambda out: _with(
            out, report={"bridge": {**out["report"]["bridge"], "r_map": "identity"}})),
    }


WORKLOADS = {cls.name: cls for cls in (Flow, Phase, Oracle)}
