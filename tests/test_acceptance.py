"""The acceptance gate: every verifiable claim on the full grid.

One test per criterion; each prints the criterion's ``full-suite`` summary
line (run pytest with -s to see them inline).  Everything is exact — zero
tolerance: a criterion passes only if every one of its checks passes, so a
check that fails or raises (verdict ``error``) fails the gate, and so does a
check skipped by the cap (with the default cap nothing on the grid is
skipped).
"""

import pytest

from covariants.suite import CRITERIA, SuiteConfig, full_suite

CFG = SuiteConfig(seed=1)


def _run(num):
    report = full_suite(CFG, [num])
    print("\n".join(report.summary_lines()))
    results = report.results[num]
    assert report.passed, [(r.name, r.verdict, r.witness) for r in results if not r.passed]
    assert not [r.name for r in results if r.verdict == "skipped (cap)"]


@pytest.mark.parametrize("num", sorted(CRITERIA))
def test_acceptance_criterion(num):
    _run(num)
