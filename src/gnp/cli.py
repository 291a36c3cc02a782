"""Command-line front end.

Commands: validate, convert, spectrum, evolve, phase, audit.

Exit codes: 0 success, 1 validation failure, 2 numerical failure,
3 I/O or parse failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict

from . import __version__, bridge, dynamics, kernels, phasespace, stateio
from .errors import DomainError, GnpError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

_FN_NAMES = {"q": "husimi", "wigner": "wigner", "char": "charfn"}


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _parse_grid(text: str):
    """'min:max:count' -> (lo, hi, count)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be 'min:max:count'")
    fields = []
    for name, convert, part in zip(("min", "max", "count"), (float, float, int), parts):
        try:
            fields.append(convert(part))
        except ValueError:
            what = "an integer" if convert is int else "a number"
            raise ValueError(f"grid {name} must be {what}, got {part!r}") from None
    return tuple(fields)


def _check_finite_t(t: float) -> None:
    """Refuse a non-finite --t with a DomainError naming the flag."""
    if not math.isfinite(t):
        raise DomainError(f"--t must be finite, got {t}")


def _read_inputs(args):
    """(state, form, ham or None) of args, header echoed; ValueError when the
    Hamiltonian's mode count differs from the state's."""
    ham_path = getattr(args, "ham", None)
    state, form = stateio.read_state(args.state)
    ham = None if ham_path is None else stateio.read_hamiltonian(ham_path)
    print(f"gnp {__version__}")
    print("command: " + " ".join(args.argv))
    for p in [args.state] if ham is None else [args.state, ham_path]:
        print(f"input {p} sha256[:16]={_digest(p)}")
    if ham is not None and ham.n_modes != state.n_modes:
        raise ValueError(f"the Hamiltonian has {ham.n_modes} mode(s), "
                         f"the state {state.n_modes}")
    return state, form, ham


def _derived(state, form, M, note) -> kernels.GaussianState:
    """A state holding the one kernel M, its provenance extended by note."""
    return kernels.GaussianState(
        n_modes=state.n_modes, forms={form: M},
        provenance=(state.provenance + f" | {note}").strip(" |"))


# ---------------------------------------------------------------------------
# commands

def cmd_validate(args) -> int:
    state, _, _ = _read_inputs(args)
    report = kernels.validate_state(state)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_convert(args) -> int:
    state, form, _ = _read_inputs(args)
    out_state = _derived(state, args.to, kernels.ensure_form(state, args.to),
                         f"converted {form}->{args.to}")
    stateio.write_state(args.output, out_state, args.to)
    print(f"wrote {args.to}-form state to {args.output}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    state, _, _ = _read_inputs(args)
    G = kernels.ensure_form(state, "G")
    spec = kernels.symplectic_spectrum(G)
    for i, (om, nu) in enumerate(zip(spec.omegas, spec.nus), start=1):
        print(f"mode {i}: omega={float(om)!r} nu={float(nu)!r}")
    return EXIT_OK


def cmd_evolve(args) -> int:
    state, form, ham = _read_inputs(args)
    _check_finite_t(args.t)
    if args.t < 0:
        raise DomainError("evolution time must be nonnegative")
    kind = "covariance" if form == "sigma" else "normal"
    if form not in ("sigma", "R"):
        raise DomainError(f"evolution needs a sigma- or R-form state, got {form}")
    X0 = state.forms[form]
    if args.method == "rk4":
        traj = dynamics.integrate_rk4(kind, X0, ham.H, args.t, args.steps)
    else:
        traj = dynamics.closed_form_trajectory(kind, X0, ham.H, args.t,
                                               args.steps, args.variant)
    csv = stateio.trajectory_to_csv(traj)
    with open(args.output, "w") as fh:
        fh.write(csv)
    final_state = _derived(state, form, traj.kernels[-1],
                           f"evolved {args.method} t={args.t}")
    final_path = args.output + ".final.json"
    stateio.write_state(final_path, final_state, form)
    print(f"wrote {len(traj.times)}-row trajectory to {args.output}")
    print(f"final state: {final_path}")
    sympl = traj.max_symplectic_residual
    print(f"max det drift {traj.max_det_drift:.3e}" + (
        "" if sympl is None else f"; max symplectic residual {sympl:.3e}"))
    return EXIT_OK


def cmd_phase(args) -> int:
    state, _, _ = _read_inputs(args)
    if state.n_modes != 1:
        raise DomainError("phase grids are single-mode only")
    lo, hi, count = _parse_grid(args.grid)
    grid = phasespace.PhaseGrid(re_range=(lo, hi, count),
                                im_range=(lo, hi, count))
    fn = _FN_NAMES[args.fn]
    if args.check_norm and fn == "husimi":
        total = phasespace.q_norm_check(state, convention=args.convention)
        print(f"husimi normalization integral: {total!r}")
    table = phasespace.grid_eval(state, fn, grid, convention=args.convention)
    with open(args.output, "w") as fh:
        fh.write(stateio.phase_table_to_csv(table))
    print(f"wrote {len(table.points)}-point {fn} table to {args.output}")
    return EXIT_OK


def cmd_audit(args) -> int:
    state, _, ham = _read_inputs(args)
    _check_finite_t(args.t)
    R0 = kernels.ensure_form(state, "R")
    ordering = dynamics.ordering_audit(R0, ham.H, args.t)
    failure = None
    try:
        convention = asdict(dynamics.convention_audit(state, ham.H, args.t))
    except GnpError as exc:     # descriptive only: keep what was computed
        failure, convention = exc, {"error": str(exc)}
    report = {"tool": f"gnp {__version__}", "ordering": asdict(ordering),
              "convention": convention}
    if ordering.vacuous:
        print("ordering audit: vacuous (flow variants indistinguishable here)")
    else:
        names = ", ".join(ordering.consistent_variants) or "none"
        print(f"ordering audit: flow-consistent variant(s): {names}")
    for k, v in sorted(ordering.residuals.items()):
        print(f"  variant {k} flow residual {v:.3e}")
    if args.with_oracle:
        cal = bridge.calibrate(cutoff=args.cutoff)
        for line in cal.lines():
            print(line)
        report["bridge"] = {**asdict(cal.selected),
                            "kernel_residuals": cal.kernel_residuals,
                            "prefactor_residuals": cal.prefactor_residuals}
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote audit report to {args.output}")
    if failure is not None:
        raise failure
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; main looks up cmd_<command> at call time."""
    ap = argparse.ArgumentParser(prog="gnp",
                                 description="Gaussian-state kernel toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a state file's invariants")
    p.add_argument("state")

    p = sub.add_parser("convert", help="convert a state between kernel forms")
    p.add_argument("state")
    p.add_argument("--to", required=True, choices=kernels.FORMS)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("spectrum", help="symplectic spectrum of a G-form state")
    p.add_argument("state")

    p = sub.add_parser("evolve", help="evolve a state under a quadratic "
                                      "Hamiltonian kernel")
    p.add_argument("state")
    p.add_argument("--ham", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--method", default="closed", choices=("closed", "rk4"))
    p.add_argument("--variant", default="b", choices=("a", "b"),
                   help="read only by --method closed on R-form states")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("phase", help="evaluate a phase-space function on a grid")
    p.add_argument("state")
    p.add_argument("--fn", default="q", choices=tuple(_FN_NAMES))
    p.add_argument("--grid", default="-2:2:41")
    p.add_argument("--convention", default=kernels.CALIBRATED,
                   choices=tuple(bridge.CONVENTIONS),
                   help="Husimi convention; read only by --fn q")
    p.add_argument("--check-norm", action="store_true",
                   help="print the Husimi normalization; read only by --fn q")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("audit", help="ordering/convention audits and oracle "
                                     "calibration")
    p.add_argument("state")
    p.add_argument("--ham", required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--with-oracle", action="store_true")
    p.add_argument("--cutoff", type=int, default=bridge.DEFAULT_CUTOFF)
    p.add_argument("-o", "--output", required=True)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (stateio.ParseError, OSError) as exc:
        code, message = EXIT_IO, exc
    except ValueError as exc:
        code, message = EXIT_VALIDATION, exc
    except GnpError as exc:
        code, message = EXIT_NUMERICAL, exc
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
