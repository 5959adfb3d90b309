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

import gl3ff.oracle as orc
from gl3ff import checks
from conftest import RNG_SEED

CRITERIA = {
    1: (checks.check_structural,),
    2: (checks.check_onshell_pipeline,),
    3: (checks.check_offdiagonal, checks.check_orthogonality),
    4: (checks.check_products,),
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


def test_criterion_4_products(state_lib):
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
