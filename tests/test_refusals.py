"""Refusals of malformed input across the modules: one row per guard, its
input, its error type and its whole message."""

import numpy as np
import pytest

from gnp import dynamics, fockoracle as fo, kernels, matcore, phasespace
from gnp.errors import DomainError


def beam_split_squeezed_g(r):
    """G of two modes squeezed by +-r between two beam splitters: symmetric
    and positive definite, with cond(G) ~ e^{4r}."""
    c, s = np.cos(0.4), np.sin(0.4)
    B = np.kron(np.eye(2), [[c, s], [-s, c]])
    S = B @ kernels.squeeze_symplectic([r, -r]) @ B.T
    G = S.T @ np.diag([1.0, 2.0, 1.0, 2.0]) @ S
    return 0.5 * (G + G.T)


def unpaired_spectrum(monkeypatch):
    # a PD G has J G eigenvalues +-i omega; an eigen solver that rounds one
    # pair onto the real axis leaves n - 1 positive imaginary parts
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda M: np.array([1e-12, -1e-12, 1j, -1j]))
    kernels.symplectic_spectrum(np.eye(4))


REFUSALS = {
    "hamiltonian-shape": (
        lambda _: dynamics.QuadraticHamiltonian(1, np.eye(4)),
        ValueError, "expected shape (2, 2), got (4, 4)"),
    "flow-variant": (
        lambda _: dynamics.normal_propagate(np.eye(2), np.eye(2), 0.5, "c"),
        ValueError, "unknown variant 'c', expected 'a' or 'b'"),
    "fock-operator-shape": (
        lambda _: fo.FockOperator(1, 3, np.eye(2)),
        ValueError, "expected shape (3, 3), got (2, 2)"),
    "spec-kind": (
        lambda _: fo.PhysicalSpec("coherent", [1.0]),
        ValueError, "unknown spec kind 'coherent'"),
    "spec-without-squeezes": (
        lambda _: fo.PhysicalSpec("squeezed-thermal", [1.0]),
        ValueError, "squeezed-thermal spec needs squeeze parameters"),
    "state-form": (
        lambda _: kernels.GaussianState(1, {"Q": np.eye(2)}),
        ValueError, "unknown kernel form 'Q'"),
    "state-shape": (
        lambda _: kernels.GaussianState(1, {"G": np.eye(4)}),
        ValueError, "form G: expected shape (2, 2), got (4, 4)"),
    "validate-no-form": (
        lambda _: kernels.validate_state(kernels.GaussianState(1, {})),
        ValueError, "state carries no kernel form"),
    "ensure-unknown-form": (
        lambda _: kernels.ensure_form(kernels.make_thermal([1.0]), "Q"),
        ValueError, "unknown form 'Q'"),
    "spectrum-not-imaginary": (
        lambda _: kernels.symplectic_spectrum(beam_split_squeezed_g(7.0)),
        DomainError, "eigenvalues of J G are not purely imaginary; "
                     "G is outside the Williamson class for this convention"),
    "spectrum-unpaired": (
        unpaired_spectrum,
        DomainError, "eigenvalues of J G do not pair as +-i omega"),
    "mat-analytic-not-elementwise": (
        lambda _: matcore.mat_analytic(np.eye(2), lambda x: x.sum()),
        ValueError, "f must map the eigenvalue vector elementwise"),
    "symplectic-odd-size": (
        lambda _: matcore.symplectic_residual(np.eye(3)),
        ValueError, "symplectic candidates must be 2n x 2n"),
    "grid-count": (
        lambda _: phasespace.PhaseGrid((-1.0, 1.0, 1), (-1.0, 1.0, 5)),
        ValueError, "grid needs count >= 2 (or a single point)"),
    "grid-range": (
        lambda _: phasespace.PhaseGrid((-1.0, np.inf, 5), (-1.0, 1.0, 5)),
        ValueError, "grid ranges must be finite"),
    "wigner-singular-sigma": (
        lambda _: phasespace.wigner(
            kernels.GaussianState(1, {"sigma": np.zeros((2, 2))}), 0.0),
        DomainError, "singular covariance kernel"),
    "function-kind": (
        lambda _: phasespace.grid_eval(kernels.make_thermal([1.0]), "glauber",
                                       phasespace.PhaseGrid((0, 0, 1), (0, 0, 1))),
        ValueError, "unknown function kind 'glauber'"),
    "q-norm-two-modes": (
        lambda _: phasespace.q_norm_check(kernels.make_thermal([1.0, 2.0])),
        ValueError, "normalization quadrature is single-mode only"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_malformed_input_is_refused(monkeypatch, call, error, message):
    with pytest.raises(error) as caught:
        call(monkeypatch)
    assert type(caught.value) is error and str(caught.value) == message


def test_validate_reports_a_conversion_it_cannot_evaluate():
    # coth(Omega G / 2) has a pole at G = 0: the cross check becomes a
    # failed cross.evaluable entry, not an exception
    state = kernels.GaussianState(1, {"G": np.zeros((2, 2)), "sigma": np.eye(2)})
    last = kernels.validate_state(state).checks[-1]
    assert (last.name, last.passed) == ("cross.evaluable", False)
    assert last.note.startswith("function not finite at eigenvalue(s) ")

