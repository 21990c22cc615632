"""Golden tests for the external JSON formats.

These byte-level layouts are contracts for downstream consumers; changing
them is a breaking change and should fail here first.
"""

import json

from covariants.generators import build_generators
from covariants.scenario import Scenario
from covariants.syzygies import relation_space


def test_generator_set_golden():
    gs = build_generators(Scenario("sp", 2, 2))
    assert gs.to_json() == {
        "scenario": {"group": "sp", "n": 2, "l": 2, "m": 0},
        "generators": [
            {
                "label": "Q[1][2]",
                "degree": 2,
                "weight_phi": [0],
                "poly": {
                    "vars": 4,
                    "terms": [
                        {"coeff": "-1", "exps": [0, 1, 1, 0]},
                        {"coeff": "1", "exps": [1, 0, 0, 1]},
                    ],
                },
            },
            {
                "label": "lowMinor[1;1]",
                "degree": 1,
                "weight_phi": [1],
                "poly": {"vars": 4, "terms": [{"coeff": "1", "exps": [0, 1, 0, 0]}]},
            },
            {
                "label": "lowMinor[1;2]",
                "degree": 1,
                "weight_phi": [1],
                "poly": {"vars": 4, "terms": [{"coeff": "1", "exps": [0, 0, 0, 1]}]},
            },
        ],
    }


def test_generator_set_json_serializable():
    for s in (Scenario("gl", 2, 1, 1), Scenario("o", 3, 2)):
        text = json.dumps(build_generators(s).to_json())
        assert json.loads(text)["scenario"]["group"] == s.group


def test_relation_space_golden():
    gs = build_generators(Scenario("gl", 2, 2, 1))
    assert relation_space(gs, 3).to_json() == {
        "check": "relation-space",
        "inputs": {"degree": 3},
        "ambient_dim": 19,
        "relation_dim": 1,
        "basis": [
            {
                "C[1][1]*lowMinor[1;2]": "-1",
                "C[1][2]*lowMinor[1;1]": "1",
                "lowMinor[2;1,2]*leftMinor[1;1]": "1",
            }
        ],
    }
