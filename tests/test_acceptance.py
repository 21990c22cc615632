"""The acceptance gate: every verifiable claim on the full grid.

One test per criterion; each prints the criterion's ``full-suite`` summary
line (run pytest with -s to see them inline).  Everything is exact — zero
tolerance: a criterion passes only if every one of its checks passes, so a
check that fails or raises (verdict ``error``) fails the gate, and so does a
check skipped by the cap (with the default cap nothing on the grid is
skipped).  Each criterion's report entries must also serialize to the same
JSON as its slice of ``golden/full_suite_seed1.json``, the ``checks`` of
``covariants full-suite --seed 1``.  A change that means to alter the report
regenerates the golden from a checkout with

    PYTHONPATH=src python -m covariants full-suite --seed 1 2>/dev/null | python -c 'import json,sys; print(json.dumps(json.load(sys.stdin)["checks"], indent=2))' > tests/golden/full_suite_seed1.json

Criteria 3 and 4 rest on mod-p evaluation ranks, whose points come from
seeded streams, so they are also pinned at a second seed:
``golden/full_suite_seed2_criteria34.json`` is the ``checks`` of
``covariants full-suite --seed 2 --criteria 3,4``, regenerated the same way.
"""

import json
from pathlib import Path

import pytest

from covariants.suite import CRITERIA, SuiteConfig, full_suite

CFG = SuiteConfig(seed=1)
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "full_suite_seed1.json").read_text())


def _run(num):
    report = full_suite(CFG, [num])
    print("\n".join(report.summary_lines()))
    results = report.results[num]
    assert report.passed, [(r.name, r.verdict, r.witness) for r in results if not r.passed]
    assert not [r.name for r in results if r.verdict == "skipped (cap)"]
    entries = [{"criterion": num, **r.to_json()} for r in results]
    assert [json.dumps(e) for e in entries] == [json.dumps(c) for c in GOLDEN if c["criterion"] == num]


@pytest.mark.parametrize("num", sorted(CRITERIA))
def test_acceptance_criterion(num):
    _run(num)


@pytest.mark.parametrize("num", [3, 4])
def test_generation_criteria_at_seed_2(num):
    golden = json.loads((GOLDEN_DIR / "full_suite_seed2_criteria34.json").read_text())
    report = full_suite(SuiteConfig(seed=2), [num])
    entries = [{"criterion": num, **r.to_json()} for r in report.results[num]]
    assert report.passed
    assert [json.dumps(e) for e in entries] == [json.dumps(c) for c in golden if c["criterion"] == num]
