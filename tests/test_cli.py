"""CLI commands, file formats, and the exit-code contract."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gnp import cli, dynamics, fockoracle as fo, kernels, stateio
from gnp.errors import DomainError, GnpError, NumericalError, TruncationError
from gnp.matcore import structured
from gnp.stateio import ParseError

LN2 = np.log(2.0)


@pytest.fixture
def thermal_file(tmp_path):
    path = tmp_path / "thermal.json"
    stateio.write_state(path, kernels.make_thermal([LN2]), "G")
    return str(path)


@pytest.fixture
def ham_file(tmp_path):
    path = tmp_path / "h.json"
    ham = dynamics.QuadraticHamiltonian(1, np.array([[0.5, 1.0], [1.0, 0.5]]))
    stateio.write_hamiltonian(path, ham)
    return str(path)


# ---------------------------------------------------------------------------
# serialization round trips

def test_state_round_trip(tmp_path):
    st = kernels.make_squeezed_thermal([0.9], [0.3])
    path = tmp_path / "st.json"
    stateio.write_state(path, st, "sigma")
    back, form = stateio.read_state(path)
    assert form == "sigma"
    np.testing.assert_array_equal(back.forms["sigma"], st.forms["sigma"])


def test_state_round_trip_keeps_the_sign_of_zero(tmp_path):
    M = np.array([[-0.0, complex(0.5, -0.0)], [complex(-0.0, 2.0), 1.0]])
    path = tmp_path / "st.json"
    stateio.write_state(path, kernels.GaussianState(1, {"R": M}), "R")
    back, _ = stateio.read_state(path)
    assert back.forms["R"].view(np.int64).tolist() == M.view(np.int64).tolist()


def test_state_serialization_deterministic(tmp_path):
    st = kernels.make_thermal([1.3])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    stateio.write_state(p1, st, "G")
    stateio.write_state(p2, st, "G")
    assert p1.read_bytes() == p2.read_bytes()


def test_hamiltonian_round_trip(tmp_path):
    H = np.array([[1.0, 0.25], [0.25, 1.0]])
    path = tmp_path / "h.json"
    stateio.write_hamiltonian(path, dynamics.QuadraticHamiltonian(1, H))
    back = stateio.read_hamiltonian(path)
    np.testing.assert_array_equal(back.H, H)


def test_stable_hamiltonians_and_a_converged_density_stay_silent(tmp_path, recwarn):
    # H = E is the stable oscillator, h1 a Hermitian stable H with a negative
    # eigenvalue, and the thermal density's tail mass (2.1e-6) is far inside
    # TAIL_ERROR: gnp accepts all three without a word
    dynamics.QuadraticHamiltonian(1, structured("E", 1))
    path = tmp_path / "h1.json"
    path.write_text(json.dumps({"n_modes": 1, "matrix": [
        [[0.5, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.5, 0.0]]]}))
    stateio.read_hamiltonian(path)
    fo.gaussian_density(fo.PhysicalSpec("thermal", [0.3]), 40)
    assert [str(w.message) for w in recwarn] == []


def test_read_state_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        stateio.read_state(bad)
    bad.write_text(json.dumps({"n_modes": 1, "form": "G",
                               "matrix": [[1.0, 2.0], [3.0, 4.0]]}))
    with pytest.raises(ParseError):
        stateio.read_state(bad)
    bad.write_text(json.dumps({"n_modes": 1, "form": "G",
                               "matrix": [[["a", 0], [0, 0]], [[0, 0], [1, 0]]]}))
    with pytest.raises(ParseError, match=r": matrix entries must be \[re, im\] pairs$"):
        stateio.read_state(bad)


def test_read_hamiltonian_parse_errors(tmp_path):
    bad = tmp_path / "h.json"
    bad.write_text("[1,")
    with pytest.raises(ParseError, match="invalid JSON"):
        stateio.read_hamiltonian(bad)
    bad.write_text(json.dumps({"n_modes": 2, "matrix": [[[1.0, 0.0]]]}))
    with pytest.raises(ParseError, match="does not match n_modes=2"):
        stateio.read_hamiltonian(bad)
    with pytest.raises(ParseError, match="cannot read"):
        stateio.read_hamiltonian(tmp_path / "missing.json")


def test_state_files_carry_no_convention_key(tmp_path):
    path = tmp_path / "st.json"
    stateio.write_state(path, kernels.make_thermal([1.3]), "G")
    doc = json.loads(path.read_text())
    assert "convention" not in doc
    # older files that carry the key still read
    doc["convention"] = "calibrated"
    path.write_text(json.dumps(doc))
    back, form = stateio.read_state(path)
    assert form == "G"


def trajectory_csv_reference(traj):
    """The per-row writer trajectory_to_csv replaced: the byte reference."""
    logs = {k: getattr(traj, k) for k in ("det_drift", "symplectic_residual")
            if getattr(traj, k) is not None}
    dim = traj.kernels[0].shape[0]
    cols = ["t"]
    for i in range(dim):
        for j in range(dim):
            cols += [f"k{i}{j}_re", f"k{i}{j}_im"]
    cols += ["det_re", "det_im"] + sorted(logs)
    buf = io.StringIO()
    buf.write(f"# kind={traj.kind}\n")
    buf.write(",".join(cols) + "\n")
    for idx, (t, K) in enumerate(zip(traj.times, traj.kernels)):
        row = [repr(float(t))]
        for v in np.asarray(K, dtype=complex).ravel():
            row += [repr(float(v.real)), repr(float(v.imag))]
        det = complex(np.linalg.det(K))
        row += [repr(det.real), repr(det.imag)]
        row += [repr(float(logs[k][idx])) for k in sorted(logs)]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def test_trajectory_csv_equals_the_per_row_writer():
    rng = np.random.default_rng(12)
    st = kernels.make_squeezed_thermal([0.9, 1.4], [0.3, -0.2])
    A = rng.standard_normal((4, 4))
    H = A @ A.T + np.eye(4)
    sigma0, R0 = st.forms["sigma"], kernels.ensure_form(st, "R")
    times = [float(t) for t in np.linspace(0.0, 1.5, 21)]
    trajs = {
        "rk4 covariance": dynamics.integrate_rk4("covariance", sigma0, H, 1.0, 300),
        "closed covariance": dynamics.closed_form_trajectory(
            "covariance", sigma0, H, 1.0, 300),
        "closed normal": dynamics.closed_form_trajectory("normal", R0, H, 0.8, 50),
        "closed at t = 0": dynamics.closed_form_trajectory("covariance", sigma0, H, 0.0, 5),
        # a caller-built trajectory: lists, real kernels, no log
        "list, no log": dynamics.Trajectory(
            kind="normal", H=H, times=times,
            kernels=[dynamics.normal_propagate(R0, H, t, "b") for t in times]),
        "real list": dynamics.Trajectory(
            kind="covariance", H=H, times=[0.0, 0.5],
            kernels=[sigma0.real, (2.0 * sigma0).real]),
        # signed zeros and repeated values: the writer formats by bit pattern
        "signed zeros": dynamics.Trajectory(
            kind="normal", H=H, times=[0.0, 0.25, 0.5],
            kernels=[np.array([[0.5, -0.0], [-0.0, 0.5]]),
                     np.array([[0.5, complex(-0.0, 0.0)], [complex(0.0, -0.0), 0.5]]),
                     np.array([[0.5, complex(0.25, -0.0)], [complex(0.25, 0.0), 0.5]])]),
    }
    # both log columns
    assert trajs["closed covariance"].symplectic_residual is not None
    assert ",-0.0,0.0," in stateio.trajectory_to_csv(trajs["signed zeros"])
    for name, traj in trajs.items():
        assert stateio.trajectory_to_csv(traj) == trajectory_csv_reference(traj), name


def test_trajectory_csv_round_trip():
    traj = dynamics.integrate_rk4(
        "normal", -0.5 * np.eye(2)[::-1].astype(complex), np.eye(2), 0.3, 10)
    text = stateio.trajectory_to_csv(traj)
    kind, times, kernels_back = stateio.trajectory_from_csv(text)
    assert kind == "normal"
    np.testing.assert_allclose(times, traj.times)
    np.testing.assert_array_equal(kernels_back[-1], traj.kernels[-1])
    # each (re, im) pair reads back bit for bit, signed zeros included
    K = np.array([[complex(-0.0, 0.5), -0.0], [0.5, 1.0]])
    traj = dynamics.Trajectory(kind="normal", H=np.eye(2), times=[0.0], kernels=[K])
    _, _, back = stateio.trajectory_from_csv(stateio.trajectory_to_csv(traj))
    assert back.tobytes() == K.tobytes()


_GOOD_CSV = stateio.trajectory_to_csv(dynamics.closed_form_trajectory(
    "normal", -0.5 * np.eye(2)[::-1].astype(complex), np.eye(2), 0.3, 2))


@pytest.mark.parametrize("text, message", [
    (_GOOD_CSV.splitlines()[0] + "\n", "CSV missing its column header"),
    (_GOOD_CSV.rsplit(",", 1)[0] + "\n", "CSV: row has 12 fields, its header 13"),
    (_GOOD_CSV.replace("0.0,", "zero,", 1), "CSV: could not convert string to float"),
    ("# kind=normal\nt,det_re,det_im\n0.0,1.0,0.0\n",
     "trajectory CSV header has 0 kernel entries, not a nonzero square"),
    # two half-width rows hold as many fields as one full row
    ("# kind=normal\nt,k00_re,k00_im,det_re\n0.0,1.0\n0.0,1.0\n",
     "CSV: row has 2 fields, its header 4"),
    (_GOOD_CSV.split("\n", 1)[1], "trajectory CSV missing '# kind=' header"),
], ids=["header-only", "short-row", "non-float", "no-kernel-columns",
        "half-width-rows", "no-kind-line"])
def test_trajectory_from_csv_rejects_malformed_text(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        stateio.trajectory_from_csv(text)


# ---------------------------------------------------------------------------
# exit-code contract

def test_validate_ok(thermal_file, capsys):
    assert cli.main(["validate", thermal_file]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_bad_state_exits_1(tmp_path, capsys):
    st = kernels.GaussianState(1, {"G": np.array([[1.0, 0.4], [0.0, 1.0]])})
    path = tmp_path / "bad.json"
    stateio.write_state(path, st, "G")
    assert cli.main(["validate", str(path)]) == 1


def test_validate_singular_g_exits_1(tmp_path, capsys):
    path = tmp_path / "singular.json"
    stateio.write_state(path, kernels.GaussianState(1, {"G": np.diag([1.0, 0.0])}), "G")
    assert cli.main(["validate", str(path)]) == 1
    assert "FAIL G.positive_definite: residual 1.000e+00 (tol 1e-12)  [min eigenvalue 0]" \
        in capsys.readouterr().out


def test_validate_reads_an_overflowing_det_r_as_inf(tmp_path, capsys):
    # det R = 1.69 - 1e400 overflows: it reads inf, without numpy's warnings
    path = tmp_path / "huge.json"
    R = np.array([[1.3, 1e200], [1e200, 1.3]])
    stateio.write_state(path, kernels.GaussianState(1, {"R": R}), "R")
    assert cli.main(["validate", str(path)]) == 0
    assert "ok   R.nonsingular: residual 0.000e+00 (tol 5e-01)  [|det R| = inf]" \
        in capsys.readouterr().out


def test_phase_refuses_a_non_finite_value_and_writes_nothing(tmp_path, capsys):
    # an unphysical sigma whose Wigner exponent overflows on the grid
    path, out = tmp_path / "sigma.json", tmp_path / "w.csv"
    sigma = np.array([[0.0, 0.1], [0.1, 1.3]])
    stateio.write_state(path, kernels.GaussianState(1, {"sigma": sigma}), "sigma")
    assert cli.main(["phase", str(path), "--fn", "wigner", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: phase-space value (nan-infj) is not finite at z = [-2.-2.j]\n"
    assert not out.exists()


def test_missing_file_exits_3(capsys):
    assert cli.main(["validate", "no-such-file.json"]) == 3


_EYE = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]    # I as [re, im] pairs
_BAD_N_MODES = [(1.9, "1.9"), (True, "true"), (1.0, "1.0"), (0, "0"), ("1", '"1"')]


@pytest.mark.parametrize("doc, message", [
    ({"n_modes": 1, "form": "G", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
     "matrix entries must be [re, im] pairs"),
    ({"n_modes": 1, "form": "G", "matrix": [[[float("inf"), 0.0], [0.0, 0.0]],
                                            [[0.0, 0.0], [1.0, 0.0]]]},
     "non-finite matrix entry"),
    ({"n_modes": 1, "form": "G", "matrix": [[[1.0, float("inf")], [0.0, 0.0]],
                                            [[0.0, 0.0], [1.0, 0.0]]]},
     "non-finite matrix entry"),
    ({"n_modes": 1, "matrix": _EYE}, "missing or malformed field ('form')"),
    ({"n_modes": 1, "form": "X", "matrix": _EYE}, "unknown form 'X'"),
    *[({"n_modes": n, "form": "G", "matrix": _EYE},
       f"n_modes must be an integer >= 1, got {text}") for n, text in _BAD_N_MODES],
], ids=["non-pair", "non-finite", "non-finite-imaginary", "no-form", "unknown-form",
        *[f"n_modes-{text}" for _, text in _BAD_N_MODES]])
def test_state_parse_errors_exit_3(doc, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 3
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize("doc, message", [
    ({"matrix": _EYE}, "missing or malformed field ('n_modes')"),
    ({"n_modes": 1, "matrix": [[[1.0, 0.5], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
     "Hamiltonian kernel must be real"),
    ({"n_modes": 1, "matrix": [[[1.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
     "H must be real symmetric"),
    *[({"n_modes": n, "matrix": _EYE},
       f"n_modes must be an integer >= 1, got {text}") for n, text in _BAD_N_MODES],
], ids=["no-n_modes", "complex", "asymmetric",
        *[f"n_modes-{text}" for _, text in _BAD_N_MODES]])
def test_hamiltonian_parse_errors_exit_3(doc, message, evolve_files, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "t.csv"
    assert cli.main(["evolve", evolve_files["R"], "--ham", str(path), "--t", "1",
                     "-o", str(out)]) == 3
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, code, message", [
    (["evolve", "R", "--ham", "h1", "--t", "-1", "-o"], 2,
     "evolution time must be nonnegative"),
    (["evolve", "G", "--ham", "h1", "--t", "1", "-o"], 2,
     "evolution needs a sigma- or R-form state, got G"),
    (["phase", "two-mode", "-o"], 2, "phase grids are single-mode only"),
    (["phase", "G", "--grid", "1:2", "-o"], 1, "grid must be 'min:max:count'"),
    (["spectrum", "negative-G"], 2, "G must be positive definite"),
    (["evolve", "R", "--ham", "h1", "--t", "nan", "-o"], 2, "--t must be finite, got nan"),
    (["evolve", "R", "--ham", "h1", "--t", "inf", "-o"], 2, "--t must be finite, got inf"),
    (["audit", "R", "--ham", "h1", "--t", "nan", "-o"], 2, "--t must be finite, got nan"),
    (["audit", "R", "--ham", "h1", "--t", "inf", "-o"], 2, "--t must be finite, got inf"),
    (["phase", "G", "--grid=0:1:1.5", "-o"], 1, "grid count must be an integer, got '1.5'"),
    (["phase", "G", "--grid=a:1:3", "-o"], 1, "grid min must be a number, got 'a'"),
    # its R decays, but the trace behind the calibrated Husimi prefactor is 0
    (["phase", "indefinite-G", "-o"], 2,
     "trace 0.0 of the normal-ordered Gaussian is not finite and positive"),
], ids=["evolve-negative-t", "evolve-G-file", "phase-two-modes", "phase-bad-grid",
        "spectrum-negative-definite", "evolve-nan-t", "evolve-inf-t", "audit-nan-t",
        "audit-inf-t", "phase-fractional-grid-count", "phase-non-numeric-grid-bound",
        "phase-indefinite-G"])
def test_command_errors_exit_with_their_code(argv, code, message, evolve_files,
                                             tmp_path, capsys):
    files = {**evolve_files, "G": tmp_path / "G.json", "two-mode": tmp_path / "two.json",
             "negative-G": tmp_path / "neg.json", "indefinite-G": tmp_path / "ind.json"}
    stateio.write_state(files["G"], kernels.make_thermal([1.3]), "G")
    stateio.write_state(files["two-mode"], kernels.make_thermal([1.3, 0.8]), "sigma")
    stateio.write_state(files["negative-G"], kernels.GaussianState(1, {"G": -np.eye(2)}), "G")
    stateio.write_state(files["indefinite-G"], kernels.GaussianState(
        1, {"G": np.array([[1.3, 0.1], [0.1, 0.0]])}), "G")
    out = tmp_path / "out"
    argv = [str(files.get(arg, arg)) for arg in argv] + ([str(out)] if argv[-1] == "-o" else [])
    assert cli.main(argv) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_convert_vacuum_boundary_exits_2(tmp_path, capsys):
    st = kernels.GaussianState(1, {"sigma": np.eye(2, dtype=complex)})
    path = tmp_path / "vac.json"
    stateio.write_state(path, st, "sigma")
    out = tmp_path / "g.json"
    assert cli.main(["convert", str(path), "--to", "G", "-o", str(out)]) == 2


@pytest.mark.parametrize("error, code", [
    (ParseError, 3), (OSError, 3), (ValueError, 1), (DomainError, 2),
    (NumericalError, 2), (TruncationError, 2), (GnpError, 2),
    (ZeroDivisionError, 2), (OverflowError, 2),
])
def test_each_error_class_maps_to_its_exit_code(error, code, monkeypatch, capsys):
    def handler(args):
        raise error("boom")
    monkeypatch.setattr(cli, "cmd_spectrum", handler)
    assert cli.main(["spectrum", "unread.json"]) == code
    assert capsys.readouterr().err == "error: boom\n"


def test_parser_is_built_once_and_dispatches_at_call_time(thermal_file, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args.state) or 0)
    assert cli.main(["validate", thermal_file]) == 0
    assert seen == [thermal_file]


# ---------------------------------------------------------------------------
# command behavior

def test_convert_g_to_r(thermal_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["convert", thermal_file, "--to", "R",
                     "-o", str(out)]) == 0
    st, form = stateio.read_state(out)
    assert form == "R"
    np.testing.assert_allclose(st.forms["R"], -0.5 * np.eye(2)[::-1],
                               atol=1e-12)


def test_convert_has_no_convention_flag(thermal_file, tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["convert", thermal_file, "--to", "R", "--convention",
                  "calibrated", "-o", str(tmp_path / "r.json")])


def test_convert_same_form_identical_matrix(thermal_file, tmp_path):
    out = tmp_path / "g.json"
    assert cli.main(["convert", thermal_file, "--to", "G", "-o", str(out)]) == 0
    original = json.loads(Path(thermal_file).read_text())
    converted = json.loads(out.read_text())
    assert converted["matrix"] == original["matrix"]


def test_convert_same_form_reproduces_an_r_file_bit_for_bit(tmp_path):
    # R of a thermal state holds real parts of -0.0
    path, out = tmp_path / "r.json", tmp_path / "out.json"
    R = kernels.ensure_form(kernels.make_thermal([1.3]), "R")
    stateio.write_state(path, kernels.GaussianState(1, {"R": R}), "R")
    assert "-0.0" in path.read_text()
    assert cli.main(["convert", str(path), "--to", "R", "-o", str(out)]) == 0
    matrix = [json.loads(p.read_text())["matrix"] for p in (path, out)]
    assert json.dumps(matrix[1]) == json.dumps(matrix[0])
    back, _ = stateio.read_state(out)
    assert back.forms["R"].view(np.int64).tolist() == R.view(np.int64).tolist()


def test_convert_deterministic_output(thermal_file, tmp_path):
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cli.main(["convert", thermal_file, "--to", "R", "-o", str(o1)])
    cli.main(["convert", thermal_file, "--to", "R", "-o", str(o2)])
    assert o1.read_bytes() == o2.read_bytes()


def test_spectrum_output(thermal_file, capsys):
    assert cli.main(["spectrum", thermal_file]) == 0
    out = capsys.readouterr().out
    assert "omega=0.69314" in out
    assert "nu=" in out


def test_header_echoes_the_given_argv(thermal_file, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["host", "extra-arg-of-host"])
    assert cli.main(["spectrum", thermal_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"command: spectrum {thermal_file}"


def test_evolve_closed_frozen_value(thermal_file, tmp_path, capsys):
    r_file = tmp_path / "r.json"
    cli.main(["convert", thermal_file, "--to", "R", "-o", str(r_file)])
    h_file = tmp_path / "hI.json"
    stateio.write_hamiltonian(h_file, dynamics.QuadraticHamiltonian(1, np.eye(2)))
    traj_file = tmp_path / "traj.csv"
    assert cli.main(["evolve", str(r_file), "--ham", str(h_file), "--t", "0.5",
                     "--method", "closed", "--variant", "b",
                     "-o", str(traj_file)]) == 0
    final, form = stateio.read_state(str(traj_file) + ".final.json")
    E = np.eye(2)[::-1]
    Om = np.diag([1.0, -1.0])
    expected = -0.5 * (np.cosh(1.0) * E - 1j * np.sinh(1.0) * Om)
    np.testing.assert_allclose(final.forms["R"], expected, atol=1e-10)


def test_evolve_t_zero_single_row(thermal_file, tmp_path, capsys):
    r_file = tmp_path / "r.json"
    cli.main(["convert", thermal_file, "--to", "R", "-o", str(r_file)])
    h_file = tmp_path / "h.json"
    stateio.write_hamiltonian(h_file, dynamics.QuadraticHamiltonian(1, np.eye(2)))
    traj_file = tmp_path / "t0.csv"
    assert cli.main(["evolve", str(r_file), "--ham", str(h_file), "--t", "0",
                     "-o", str(traj_file)]) == 0
    kind, times, ks = stateio.trajectory_from_csv(traj_file.read_text())
    assert len(times) == 1 and times[0] == 0.0
    np.testing.assert_allclose(ks[0], -0.5 * np.eye(2)[::-1], atol=1e-15)


def test_evolve_closed_overflow_exits_2_without_a_csv(tmp_path, capsys):
    r_file = tmp_path / "r.json"
    stateio.write_state(r_file, kernels.GaussianState(1, {"R": kernels.ensure_form(
        kernels.make_thermal([1.3]), "R")}), "R")
    h_file = tmp_path / "h.json"
    stateio.write_hamiltonian(h_file, dynamics.QuadraticHamiltonian(
        1, np.array([[4.0, 0.5], [0.5, 3.0]])))
    traj_file = tmp_path / "traj.csv"
    assert cli.main(["evolve", str(r_file), "--ham", str(h_file), "--t", "200",
                     "-o", str(traj_file)]) == 2
    assert "non-finite kernel at step 52" in capsys.readouterr().err
    assert not traj_file.exists()


def test_evolve_rk4_matches_closed(thermal_file, tmp_path, capsys):
    r_file = tmp_path / "r.json"
    cli.main(["convert", thermal_file, "--to", "R", "-o", str(r_file)])
    h_file = tmp_path / "h.json"
    stateio.write_hamiltonian(
        h_file, dynamics.QuadraticHamiltonian(1, np.array([[0.5, 1.0], [1.0, 0.5]])))
    closed_f, rk4_f = tmp_path / "c.csv", tmp_path / "r.csv"
    assert cli.main(["evolve", str(r_file), "--ham", str(h_file), "--t", "1",
                     "--method", "closed", "--steps", "500",
                     "-o", str(closed_f)]) == 0
    assert cli.main(["evolve", str(r_file), "--ham", str(h_file), "--t", "1",
                     "--method", "rk4", "--steps", "500",
                     "-o", str(rk4_f)]) == 0
    _, _, kc = stateio.trajectory_from_csv(closed_f.read_text())
    _, _, kr = stateio.trajectory_from_csv(rk4_f.read_text())
    assert np.abs(kc[-1] - kr[-1]).max() < 1e-8


@pytest.fixture
def evolve_files(tmp_path):
    """Paths of thermal R and sigma files, a one-mode and a two-mode H."""
    st = kernels.make_thermal([1.3])
    files = {form: tmp_path / f"{form}.json" for form in ("R", "sigma")}
    for form, path in files.items():
        stateio.write_state(path, kernels.GaussianState(
            1, {form: kernels.ensure_form(st, form)}), form)
    for label, H in (("h1", [[1.0, 0.2], [0.2, 1.4]]), ("h2", np.eye(4))):
        files[label] = tmp_path / f"{label}.json"
        H = np.array(H)
        stateio.write_hamiltonian(files[label],
                                  dynamics.QuadraticHamiltonian(len(H) // 2, H))
    return {k: str(v) for k, v in files.items()}


@pytest.mark.parametrize("method", ["closed", "rk4"])
@pytest.mark.parametrize("form", ["R", "sigma"])
def test_evolve_prints_a_residual_only_where_measured(method, form, evolve_files,
                                                      tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert cli.main(["evolve", evolve_files[form], "--ham", evolve_files["h1"],
                     "--t", "1", "--method", method, "-o", str(out)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    drift, _, residual = last.partition("; max symplectic residual ")
    assert drift.startswith("max det drift ")
    header = out.read_text().splitlines()[1].split(",")
    if method == "rk4":
        assert residual == "" and header[-1] == "det_drift"
    else:
        assert 0 < float(residual) < 1e-10 and header[-1] == "symplectic_residual"


@pytest.mark.parametrize("method", ["closed", "rk4"])
@pytest.mark.parametrize("steps", ["0", "-3"])
def test_evolve_with_fewer_than_one_step_exits_1(method, steps, evolve_files,
                                                 tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert cli.main(["evolve", evolve_files["R"], "--ham", evolve_files["h1"],
                     "--t", "1", "--method", method, "--steps", steps,
                     "-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: steps must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("method", ["closed", "rk4"])
def test_evolve_takes_the_dets_once(method, evolve_files, tmp_path, monkeypatch):
    calls = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(1) or det(a))
    assert cli.main(["evolve", evolve_files["R"], "--ham", evolve_files["h1"],
                     "--t", "1", "--method", method,
                     "-o", str(tmp_path / "t.csv")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", [
    ["evolve", "--t", "1", "-o", "out.csv"],
    ["audit", "-o", "out.json"],
], ids=["evolve", "audit"])
def test_mode_count_mismatch_exits_1_naming_both(command, evolve_files,
                                                 tmp_path, capsys):
    out = tmp_path / command[-1]
    argv = [command[0], evolve_files["R"], "--ham", evolve_files["h2"],
            *command[1:-1], str(out)]
    assert cli.main(argv) == 1
    stdout, err = capsys.readouterr()
    assert stdout.splitlines()[1] == "command: " + " ".join(argv)
    assert err == "error: the Hamiltonian has 2 mode(s), the state 1\n"
    assert not out.exists()


def test_phase_grid_center(thermal_file, tmp_path, capsys):
    out = tmp_path / "q.csv"
    assert cli.main(["phase", thermal_file, "--fn", "q", "--grid=-2:2:41",
                     "--convention", "calibrated", "-o", str(out)]) == 0
    table = stateio.phase_table_from_csv(out.read_text())
    center = table.values[np.abs(table.points) < 1e-12]
    assert len(center) == 1
    assert abs(center[0] - 0.5) < 1e-12


@pytest.mark.parametrize("fn", ["wigner", "char"])
def test_phase_wigner_and_char_tables_say_as_published(fn, thermal_file,
                                                       tmp_path, capsys):
    # --convention selects the Husimi kernel only; W and C are the literal forms
    texts = []
    for convention in (kernels.CALIBRATED, kernels.AS_PUBLISHED):
        out = tmp_path / f"{convention}.csv"
        assert cli.main(["phase", thermal_file, "--fn", fn, "--grid=-1:1:5",
                         "--convention", convention, "-o", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert texts[0].splitlines()[1] == f"# convention={kernels.AS_PUBLISHED}"


def test_phase_check_norm_prints_the_husimi_integral(thermal_file, tmp_path, capsys):
    assert cli.main(["phase", thermal_file, "--check-norm", "--grid=0:0:1",
                     "-o", str(tmp_path / "q.csv")]) == 0
    line = capsys.readouterr().out.splitlines()[-2]
    prefix = "husimi normalization integral: "
    assert line.startswith(prefix) and abs(float(line[len(prefix):]) - 1.0) < 1e-6


def test_phase_check_norm_divergent_exits_2(thermal_file, tmp_path, capsys):
    out = tmp_path / "q.csv"
    assert cli.main(["phase", thermal_file, "--fn", "q", "--check-norm",
                     "--convention", "as-published", "-o", str(out)]) == 2


def test_audit_reports_variant_b(thermal_file, ham_file, tmp_path, capsys):
    out = tmp_path / "audit.json"
    assert cli.main(["audit", thermal_file, "--ham", ham_file, "--t", "1",
                     "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ordering"]["consistent_variants"] == ["b"]
    assert not report["ordering"]["vacuous"]
    text = capsys.readouterr().out
    assert "variant(s): b" in text


def test_audit_vacuous_flag(thermal_file, tmp_path, capsys):
    h_file = tmp_path / "hE.json"
    stateio.write_hamiltonian(
        h_file, dynamics.QuadraticHamiltonian(1, LN2 * np.eye(2)[::-1]))
    out = tmp_path / "audit.json"
    assert cli.main(["audit", thermal_file, "--ham", str(h_file), "--t", "1",
                     "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ordering"]["vacuous"]


def test_audit_keeps_its_report_when_the_convention_audit_fails(ham_file, tmp_path,
                                                                capsys):
    # the descriptive convention audit's sigma route fails a condition guard
    # at t = 20; the ordering result is still written, and the command exits 2
    state_file = tmp_path / "t.json"
    stateio.write_state(state_file, kernels.make_thermal([1.3]), "G")
    out = tmp_path / "audit.json"
    assert cli.main(["audit", str(state_file), "--ham", ham_file, "--t", "20",
                     "-o", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["ordering"]["consistent_variants"] == ["b"]
    assert set(report["convention"]) == {"error"}
    assert report["convention"]["error"].startswith("matrix condition ")
    captured = capsys.readouterr()
    assert "variant(s): b" in captured.out
    assert captured.out.endswith(f"wrote audit report to {out}\n")
    assert captured.err == f"error: {report['convention']['error']}\n"


def test_audit_with_oracle(thermal_file, ham_file, tmp_path, capsys):
    out = tmp_path / "audit.json"
    assert cli.main(["audit", thermal_file, "--ham", ham_file, "--t", "1",
                     "--with-oracle", "--cutoff", "30",
                     "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["bridge"]["r_map"] == "negate"
    assert report["bridge"]["residual"] <= 1e-6


def test_importing_the_cli_does_not_load_scipy():
    # each gnp command is a fresh process; scipy loads only where it is used,
    # and the import itself loads nothing but the standard library, numpy and
    # gnp (modules a site hook loaded before it are not counted)
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys; before = set(sys.modules); import gnp.cli; "
            "new = set(sys.modules) - before; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print(sorted({m.split('.')[0] for m in new} "
            "- set(sys.stdlib_module_names)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n['gnp', 'numpy']\n"
