"""Convention-bridge calibration against the Fock oracle."""

from collections import Counter

import numpy as np
import pytest

from gnp import bridge, fockoracle, kernels, matcore
from gnp.errors import NumericalError
from gnp.matcore import structured


def test_suite_composition():
    suite = bridge.calibration_suite()
    assert len(suite) == 5
    kinds = [spec.kind for _, _, spec in suite]
    assert kinds.count("thermal") == 3
    assert kinds.count("squeezed-thermal") == 2


def test_suite_members_are_one_family_on_both_sides():
    # each published state is the squeezed thermal state of its spec's
    # (omega, r), and a thermal member is r = 0 on both sides
    for _, state, spec in bridge.calibration_suite():
        same = kernels.make_squeezed_thermal(spec.omegas, spec.squeezes)
        for form in ("G", "sigma"):
            assert np.array_equal(state.forms[form], same.forms[form])
        if spec.kind == "thermal":
            assert not spec.squeezes.any()
            assert np.array_equal(state.forms["G"],
                                  kernels.make_thermal(spec.omegas).forms["G"])


@pytest.fixture(scope="module")
def report():
    return bridge.calibrate(cutoff=30)


def test_calibration_selects_negation(report):
    assert report.selected is not None
    assert report.selected.r_map == "negate"
    assert report.selected.prefactor_rule == "trace-normalized"
    assert report.selected.residual <= 1e-6


def test_rejected_hypotheses_fail_by_a_wide_margin(report):
    assert report.kernel_residuals["identity"] > 1e-1
    assert report.kernel_residuals["conjugate-by-Omega"] > 1e-1
    assert report.prefactor_residuals["sqrt-det-R"] > 1e-1


def test_degenerate_maps_are_collapsed(report):
    # negation and negation-plus-E-conjugation act identically on every
    # suite kernel, so they must be grouped, not reported as rival winners
    groups = {frozenset(g) for g in report.degeneracy_groups}
    assert frozenset({"negate", "negate-conjugate-by-E"}) in groups
    winners = [g for g in report.degeneracy_groups
               if report.kernel_residuals[g[0]] <= bridge.ACCEPT_TOL]
    assert len(winners) == 1


def calibrate_per_map(cutoff):
    """(kernel residuals, degeneracy groups, prefactor residuals, selected)
    as calibrate computed them before the mapped kernels were shared: every
    score applies its map to each suite kernel itself."""
    published, physical, q0s = [], [], []
    for _, state, spec in bridge.calibration_suite():
        published.append(kernels.ensure_form(state, "R"))
        rho = fockoracle.gaussian_density(spec, cutoff)
        physical.append(fockoracle.r_from_q_hessian(rho))
        q0s.append(fockoracle.q_of_rho(rho, 0.0))
    kernel = {name: float(max(np.abs(bridge.apply_r_map(Rp, name) - Rf).max()
                              for Rp, Rf in zip(published, physical)))
              for name in bridge.R_MAPS}
    groups = []
    for name in bridge.R_MAPS:
        for group in groups:
            if all(np.abs(bridge.apply_r_map(R, name)
                          - bridge.apply_r_map(R, group[0])).max()
                   <= bridge.DEGENERACY_TOL for R in published):
                group.append(name)
                break
        else:
            groups.append([name])
    [r_map] = [g[0] for g in groups if kernel[g[0]] <= bridge.ACCEPT_TOL]
    mapped = [bridge.apply_r_map(Rp, r_map) for Rp in published]
    prefactor = {rule: float(max(abs(f(Rm, np.linalg.det(Rm)) - q0)
                                 for Rm, q0 in zip(mapped, q0s)))
                 for rule, f in bridge.PREFACTOR_RULES.items()}
    assert prefactor["trace-normalized"] <= bridge.PREFACTOR_TOL
    selected = bridge.ConventionBridge(r_map, "trace-normalized", kernel[r_map])
    return kernel, groups, prefactor, selected


def test_calibration_equals_the_per_map_scores(report):
    assert (report.kernel_residuals, report.degeneracy_groups,
            report.prefactor_residuals, report.selected) == calibrate_per_map(30)


def test_calibrate_maps_each_suite_kernel_once(monkeypatch):
    # one call per map, on the stack of all suite kernels
    calls = Counter()
    apply = bridge.apply_r_map
    monkeypatch.setattr(bridge, "apply_r_map", lambda R, name: calls.update(
        [(name, np.shape(R))]) or apply(R, name))
    bridge.calibrate(cutoff=30)
    n_suite = len(bridge.calibration_suite())
    assert calls == {(name, (n_suite, 2, 2)): 1 for name in bridge.R_MAPS}


def test_apply_r_map_table():
    rng = np.random.default_rng(5)
    R = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    E = structured("E", 2)
    Om = structured("Omega", 2)
    np.testing.assert_array_equal(bridge.apply_r_map(R, "identity"), R)
    np.testing.assert_array_equal(bridge.apply_r_map(R, "negate"), -R)
    np.testing.assert_array_equal(bridge.apply_r_map(R, "conjugate-by-E"),
                                  E @ R @ E)
    np.testing.assert_array_equal(bridge.apply_r_map(R, "conjugate-by-Omega"),
                                  Om @ R @ Om)
    np.testing.assert_array_equal(
        bridge.apply_r_map(R, "negate-conjugate-by-E"), -(E @ R @ E))
    with pytest.raises(ValueError):
        bridge.apply_r_map(R, "transpose")


def test_default_bridge_matches_calibration(report):
    row = bridge.convention(kernels.CALIBRATED)
    assert row.r_map == report.selected.r_map
    assert row.prefactor_rule == report.selected.prefactor_rule
    # the calibrated row resolves every kernel exactly as the selected map
    # and rule do when applied through the hypothesis tables
    rng = np.random.default_rng(8)
    noise = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    Rs = [kernels.ensure_form(state, "R") for _, state, _ in bridge.calibration_suite()]
    Rs.append(Rs[0] + 0.05 * (noise + noise.T))
    for R in Rs:
        N, mapped = bridge.resolve_convention(R, kernels.CALIBRATED)
        expected = bridge.R_MAPS[report.selected.r_map](R)
        np.testing.assert_array_equal(mapped, expected)
        assert N == bridge.PREFACTOR_RULES[report.selected.prefactor_rule](
            expected, np.linalg.det(expected))


def test_resolve_convention_checks_the_name_before_det_r():
    singular = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        bridge.resolve_convention(singular, "bogus")
    for name in bridge.CONVENTIONS:
        with pytest.raises(NumericalError, match="det R = 0"):
            bridge.resolve_convention(singular, name)


def test_as_published_resolution_takes_det_r_once(monkeypatch):
    # the singularity check and the rule sqrt-det-R read one determinant
    calls = []
    determinant = matcore.determinant
    monkeypatch.setattr(matcore, "determinant",
                        lambda M: calls.append(np.array(M)) or determinant(M))
    R = kernels.ensure_form(bridge.calibration_suite()[3][1], "R")
    N, mapped = bridge.resolve_convention(R, kernels.AS_PUBLISHED)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], mapped)
    assert N == complex(np.sqrt(np.linalg.det(mapped)))


def test_convention_table_has_the_two_rows_in_order():
    # gnp phase --convention lists its choices in this order
    assert tuple(bridge.CONVENTIONS) == (kernels.AS_PUBLISHED, kernels.CALIBRATED)


def test_report_lines_are_printable(report):
    lines = report.lines()
    assert any("selected" in ln for ln in lines)
    assert any("degenerate" in ln for ln in lines)
