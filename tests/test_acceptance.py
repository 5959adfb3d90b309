"""Acceptance suite: the nine criteria, run through the check registry that
``gl3ff verify`` and ``gl3ff identities`` build their reports from.

Each test runs its criterion's checks against the session state library,
each check on the rng stream that the report builder gives it, prints one
ACCEPTANCE line per record and asserts that every record passes at the
tolerance its check states.

Criteria marked by sector (1,1) run with a generic diagonal twist: chains
with trivial third vacuum ratio have no finite untwisted roots there (the
pair equation f(v, u) = 1 has no solution), so the twisted system is the
realizable form of that sector.
"""

import time

import numpy as np
import pytest

import gl3ff.formfactor as ff
import gl3ff.oracle as orc
from gl3ff import checks
from conftest import RNG_SEED

CRITERIA = {
    1: (checks.check_structural,),
    2: (checks.check_onshell_pipeline,),
    3: (checks.check_offdiagonal, checks.check_orthogonality),
    4: (checks.check_norms,),
    5: (checks.check_diagonal,),
    6: (checks.check_morphisms, checks.check_permutation,
        checks.check_gl2_reduction),
    7: (checks.check_appendix, checks.check_sfunction_and_forms),
    8: (checks.check_gaudin,),
    9: (checks.check_twist_machinery,),
}


def assert_records(num, report, elapsed=None):
    timing = f", {elapsed:.2f}s" if elapsed is not None else ""
    for rec in report.records:
        detail = (f"residual {rec['residual']:.3e}, tol {rec['tolerance']:.1e}"
                  if "residual" in rec else rec["error"])
        print(f"\nACCEPTANCE {num} {rec['name']}: "
              f"{'PASS' if rec['pass'] else 'FAIL'} ({detail}{timing})")
    failed = [rec["name"] for rec in report.records if not rec["pass"]]
    assert report.records and not failed, f"criterion {num} failed: {failed}"


def run_criterion(num, lib):
    """Run criterion ``num`` as a report runs its checks; returns (report,
    seconds)."""
    report = checks.Report(f"criterion {num}", RNG_SEED)
    t0 = time.perf_counter()
    for check in CRITERIA[num]:
        checks._run_check(check, report, lib)
    elapsed = time.perf_counter() - t0
    assert_records(num, report, elapsed)
    return report, elapsed


def test_criteria_cover_the_registry():
    listed = [check for group in CRITERIA.values() for check in group]
    assert sorted(c.__name__ for c in listed) == sorted(
        c.__name__ for c in checks.VERIFY + checks.IDENTITIES)


def test_criterion_1_structural_residuals(state_lib):
    _, elapsed = run_criterion(1, state_lib)
    assert elapsed < 1.0, f"criterion 1 runtime {elapsed:.2f}s >= 1s"


def test_criterion_2_onshell_pipeline(state_lib):
    _, elapsed = run_criterion(2, state_lib)
    assert elapsed < 10.0, f"criterion 2 runtime {elapsed:.2f}s >= 10s"


def test_criterion_3_offdiagonal_ratios(state_lib):
    run_criterion(3, state_lib)


def test_offdiagonal_extracts_each_eigenvector_once(state_lib, monkeypatch):
    # one left and one right vector per ratio case, shared by its z-pairs
    extracted = []
    extract = orc.eigenvector_for_state

    def counted(state, side, spec):
        extracted.append(side)
        return extract(state, side, spec)

    monkeypatch.setattr(orc, "eigenvector_for_state", counted)
    report = checks.Report("criterion 3, extractions", RNG_SEED)
    checks.check_offdiagonal(report, state_lib,
                             np.random.default_rng(RNG_SEED))
    n_cases = len(checks._ratio_cases(state_lib))
    assert n_cases >= 2
    assert extracted == ["left", "right"] * n_cases


def test_oracle_elements_catch_a_constant_factor(state_lib, monkeypatch):
    # T(1,2) values scaled by 1.001: a z-ratio of them is unchanged, so a
    # ratio record passes them, while the absolute oracle record fails
    form_factor = ff.form_factor

    def scaled(kind, left, right, z):
        value = form_factor(kind, left, right, z)
        return 1.001 * value if tuple(kind) == (1, 2) else value

    monkeypatch.setattr(ff, "form_factor", scaled)
    z1, z2 = 0.9 + 0.6j, 0.4 - 0.3j
    for (tag, kind, L, left, right) in checks._ratio_cases(state_lib):
        if kind != (1, 2):
            continue
        spec = state_lib[L]["spec"]
        ratio = ff.form_factor(kind, left, right, z1) / ff.form_factor(
            kind, left, right, z2)
        oracle = orc.invariant_ratio(kind, z1, z2, left, right, spec, None)
        assert abs(ratio - oracle) <= 1e-8 * abs(oracle)
    report = checks.Report("criterion 3, scaled T(1,2)", RNG_SEED)
    checks._run_check(checks.check_offdiagonal, report, state_lib)
    failed = {rec["name"] for rec in report.records if not rec["pass"]}
    assert failed == {"oracle_element_12_L3", "oracle_element_12_L4"}
    assert min(rec["residual"] for rec in report.records
               if rec["name"] in failed) > 1e-5


def test_criterion_4_norms(state_lib):
    run_criterion(4, state_lib)


def test_criterion_5_diagonal(state_lib):
    run_criterion(5, state_lib)


def test_criterion_6_morphisms_and_reductions(state_lib):
    run_criterion(6, state_lib)
    # the (3,3) entry, which the identities report leaves out
    a, b = state_lib[5]["m31"][:2]
    report = checks.Report("criterion 6, entry (3,3)", RNG_SEED)
    report.add("permutation_invariance_33",
               checks.shuffle_residual(((3, 3),), a, b, 0.83 - 0.57j), 1e-10)
    assert_records(6, report)


def test_criterion_7_identities(state_lib):
    run_criterion(7, state_lib)


def test_criterion_8_gaudin(state_lib):
    run_criterion(8, state_lib)
    # beside the L=3 (2,1) state of the report, the L=5 (3,1) state
    report = checks.Report("criterion 8, L=5", RNG_SEED)
    checks.gaudin_records(report, state_lib[5]["m31"][0])
    assert_records(8, report)


def test_criterion_9_twist_machinery(state_lib):
    run_criterion(9, state_lib)


@pytest.mark.parametrize("suite", [checks.VERIFY, checks.IDENTITIES],
                         ids=["verify", "identities"])
def test_suite_checks_build_no_transfer_matrix(state_lib, monkeypatch, suite):
    def forbidden(*args, **kwargs):
        raise AssertionError("a report check built a transfer matrix")

    monkeypatch.setattr(orc, "transfer_matrix", forbidden)
    report = checks.Report("suite", RNG_SEED)
    for check in suite:
        checks._run_check(check, report, state_lib)
    assert report.to_json()["n_failures"] == 0


def test_seed_27_passes_both_suites():
    # seed 27 holds an exact zero of T(1,3) between an L=5 (3,1) state and
    # a (2,0) state: records relative to that element's value fail there
    lib = checks.prepare_states(27)
    for suite in (checks.VERIFY, checks.IDENTITIES):
        report = checks.Report("seed 27", 27)
        for check in suite:
            checks._run_check(check, report, lib)
        failed = [rec["name"] for rec in report.records if not rec["pass"]]
        assert report.records and not failed, failed
