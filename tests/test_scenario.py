import pytest

from covariants.scenario import Scenario


def test_validation():
    with pytest.raises(ValueError):
        Scenario("sp", 3, 1)
    with pytest.raises(ValueError):
        Scenario("o", 3, 1, 1)
    with pytest.raises(ValueError):
        Scenario("sp", 4, 1, 2)
    with pytest.raises(ValueError):
        Scenario("gl", 0, 1)
    with pytest.raises(ValueError):
        Scenario("su", 3, 1)
    with pytest.raises(ValueError):
        Scenario("gl", 2, -1)
    with pytest.raises(ValueError, match="o requires n >= 2"):  # O(1) has a rank-0 torus
        Scenario("o", 1, 1)


def test_cases_and_rank():
    assert Scenario("gl", 3, 1).case == "A"
    assert Scenario("o", 5, 1).case == "B"
    assert Scenario("sp", 4, 1).case == "C"
    assert Scenario("o", 4, 1).case == "D"
    assert Scenario("gl", 3, 1).rank == 3
    assert Scenario("o", 7, 1).rank == 3
    assert Scenario("sp", 6, 1).rank == 3


def test_variable_ordering_contract():
    # the universe is ordered x[1,1], ..., x[n,1], x[1,2], ..., x[n,l],
    # then a[1,1], ..., a[1,n], a[2,1], ..., a[m,n]
    s = Scenario("gl", 2, 2, 2)
    order = [s.x_var(i, j) for j in range(s.l) for i in range(s.n)]
    order += [s.a_var(i, j) for i in range(s.m) for j in range(s.n)]
    assert order == list(range(s.nvars)) == list(range(8))
    assert s.x_var(1, 0) == 1
    assert s.a_var(0, 1) == 5


def test_coordinate_matrices():
    s = Scenario("gl", 3, 2, 1)
    v = s.v_matrix()
    assert (v.m, v.n) == (3, 2)
    assert v[2, 1] == s.x_poly(2, 1)
    vs = s.vstar_matrix()
    assert (vs.m, vs.n) == (1, 3)
    assert vs[0, 2] == s.a_poly(0, 2)


def test_json_round_trip():
    s = Scenario("o", 4, 3)
    assert Scenario.from_json(s.to_json()) == s
    assert s.to_json() == {"group": "o", "n": 4, "l": 3, "m": 0}
