import random
from fractions import Fraction

import pytest

from covariants.polynomial import Polynomial
from covariants.polynomial import MAX_EXPONENT, pack, unpack, variable_key

from conftest import permute_variables, random_frac, random_poly


def _vars(n):
    return [Polynomial.variable(n, i) for i in range(n)]


def test_difference_of_squares():
    x, y = _vars(2)
    assert (x + y) * (x - y) == x * x - y * y


def test_additive_identity():
    p = Polynomial(2, {(1, 0): 3, (0, 2): Fraction(-1, 2)})
    assert p + Polynomial.zero(2) == p
    assert p + 0 == p


def test_distributivity_via_evaluation(rng):
    for _ in range(25):
        p = random_poly(rng, 4)
        q = random_poly(rng, 4)
        r = random_poly(rng, 4)
        lhs = p * (q + r)
        rhs = p * q + p * r
        for _ in range(20):
            pt = [random_frac(rng) for _ in range(4)]
            assert lhs.evaluate(pt) == rhs.evaluate(pt)
        assert lhs == rhs


def test_universe_mismatch_raises():
    p = Polynomial.variable(2, 0)
    q = Polynomial.variable(3, 0)
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p * q


def test_constant_evaluation():
    p = Polynomial.const(3, 5)
    assert p.evaluate([random_frac(random.Random(1)) for _ in range(3)]) == 5


def test_monomial_evaluation():
    x1, x2 = _vars(2)
    assert (x1 * x2).evaluate([2, Fraction(3, 2)]) == 3


def test_evaluation_length_mismatch():
    p = Polynomial.variable(2, 0)
    with pytest.raises(ValueError):
        p.evaluate([1])


def test_associativity_and_eval_commutes():
    # module invariant: exact arithmetic over 1000 random triples, with
    # evaluation commuting with the arithmetic at 10 random points each
    rng = random.Random(7)
    for _ in range(1000):
        p = random_poly(rng, 3, max_degree=2, max_terms=3)
        q = random_poly(rng, 3, max_degree=2, max_terms=3)
        r = random_poly(rng, 3, max_degree=2, max_terms=3)
        left = (p * q) * r
        assert left == p * (q * r)
        for _ in range(10):
            pt = [random_frac(rng) for _ in range(3)]
            vp, vq, vr = p.evaluate(pt), q.evaluate(pt), r.evaluate(pt)
            assert left.evaluate(pt) == vp * vq * vr
            assert (p + q).evaluate(pt) == vp + vq


def test_sum_of_products(rng):
    a, b, c, d = (random_poly(rng, 3) for _ in range(4))
    assert Polynomial.sum_of_products(3, [(1, a, b), (-2, c, d)]) == a * b - 2 * (c * d)
    assert Polynomial.sum_of_products(3, [(1, a, b), (-1, b, a)]) == Polynomial.zero(3)
    with pytest.raises(ValueError):
        Polynomial.sum_of_products(3, [(1, a, Polynomial.variable(4, 0))])


def test_power():
    x, y = _vars(2)
    assert (x + y) ** 3 == x**3 + 3 * x * x * y + 3 * x * y * y + y**3
    assert (x + y) ** 0 == Polynomial.const(2, 1)


def test_no_zero_terms_stored(rng):
    for _ in range(50):
        p = random_poly(rng, 3)
        q = p - p
        assert not q.terms
        assert all(c for c in (p * p).terms.values())


def test_substitute_composes():
    x, y = _vars(2)
    p = x * x + y
    images = {0: x + y, 1: Polynomial.const(2, 2)}
    assert p.substitute(images) == (x + y) * (x + y) + 2


def test_permute_variables():
    x, y, z = _vars(3)
    p = x * y + z
    assert permute_variables(p, [2, 0, 1]) == z * x + y


def test_json_round_trip(rng):
    for _ in range(25):
        p = random_poly(rng, 5)
        assert Polynomial.from_json(p.to_json()) == p
    data = Polynomial(2, {(1, 1): Fraction(3, 2), (0, 0): -2}).to_json()
    assert data == {
        "vars": 2,
        "terms": [
            {"coeff": "-2", "exps": [0, 0]},
            {"coeff": "3/2", "exps": [1, 1]},
        ],
    }


def test_homogeneity_helpers():
    x, y = _vars(2)
    assert (x * y).is_homogeneous(2)
    assert not (x + x * y).is_homogeneous()
    assert Polynomial.zero(2).degree() == -1


# -- the packed-exponent core against a plain tuple-dict reference -----------------


def _ref_poly(rng, nvars, max_degree=3, max_terms=5):
    """A random {exponent tuple: coefficient} dict, ints and Fractions mixed."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        c = rng.randint(-4, 4) if rng.random() < 0.5 else Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
    return {e: c for e, c in terms.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_pow(a, k, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _ref_evaluate(a, point):
    total = 0
    for e, c in a.items():
        v = c
        for x, k in zip(point, e):
            v *= x**k
        total += v
    return total


def _ref_substitute(a, images, nvars):
    out = {}
    for e, c in a.items():
        prod = {(0,) * nvars: c}
        for i, k in enumerate(e):
            image = images.get(i, {tuple(int(j == i) for j in range(nvars)): 1})
            prod = _ref_mul(prod, _ref_pow(image, k, nvars))
        out = _ref_add(out, prod)
    return out


def _ref_repr(a):
    if not a:
        return "0"
    parts = []
    for e, c in sorted(a.items()):
        body = "*".join(f"v{i}^{k}" if k > 1 else f"v{i}" for i, k in enumerate(e) if k)
        parts.append(str(c) if not body else body if c == 1 else f"-{body}" if c == -1 else f"{c}*{body}")
    return " + ".join(parts).replace("+ -", "- ")


def _same(p, ref):
    assert dict(p.terms) == ref
    assert all(type(c) is int or c.denominator != 1 for c in p.terms.values())


def test_packed_core_matches_tuple_reference():
    rng = random.Random(11)
    for trial in range(120):
        n = rng.randint(1, 40)
        a, b = _ref_poly(rng, n), _ref_poly(rng, n)
        pa, pb = Polynomial(n, a), Polynomial(n, b)
        _same(pa, a)
        _same(pa * pb, _ref_mul(a, b))
        _same(pa + pb, _ref_add(a, b))
        k = rng.randint(0, 3)
        _same(pa**k, _ref_pow(a, k, n))
        images = {i: _ref_poly(rng, n, max_degree=2, max_terms=3) for i in rng.sample(range(n), min(n, 3))}
        moved = pa.substitute({i: Polynomial(n, img) for i, img in images.items()})
        _same(moved, _ref_substitute(a, images, n))
        point = [random_frac(rng) for _ in range(n)]
        assert pa.evaluate(point) == _ref_evaluate(a, point)
        data = pa.to_json()
        assert data == {
            "vars": n,
            "terms": [{"coeff": str(Fraction(c)), "exps": list(e)} for e, c in sorted(a.items())],
        }
        assert Polynomial.from_json(data) == pa
        assert repr(pa) == _ref_repr(a)


def test_json_and_repr_follow_exponent_tuple_order():
    # packed, x0 (key 1) sorts before x1 (key 2**16); as tuples (0, 1) comes first
    p = Polynomial(2, {(1, 0): 1, (0, 1): 2, (0, 0): 3})
    assert [t["exps"] for t in p.to_json()["terms"]] == [[0, 0], [0, 1], [1, 0]]
    assert repr(p) == "3 + 2*v1 + v0"


def test_terms_view_has_tuple_keys_and_is_read_only():
    x, y, z = _vars(3)
    p = (x + 2 * y) * z
    assert dict(p.terms) == {(1, 0, 1): 1, (0, 1, 1): 2}
    assert all(type(e) is tuple for e in p.terms)
    assert p.terms is p.terms  # built once
    with pytest.raises(TypeError):
        p.terms[(0, 0, 0)] = 1
    assert list(p.coefficients()) == list(p.terms.values())


def test_pack_round_trip_and_layout():
    assert pack((2, 1)) == 2 + variable_key(1)
    assert unpack(pack((0, MAX_EXPONENT, 7)), 3) == (0, MAX_EXPONENT, 7)
    for bad in ((MAX_EXPONENT + 1,), (-1, 0), (1 << 16,)):
        with pytest.raises(ValueError):
            pack(bad)
        with pytest.raises(ValueError):
            Polynomial(len(bad), {bad: 1})


def test_slot_overflow_raises():
    x0, x1 = _vars(2)
    top = x0**MAX_EXPONENT
    assert top.terms == {(MAX_EXPONENT, 0): 1}
    with pytest.raises(ValueError):
        top * x0
    with pytest.raises(ValueError):
        x0 ** (MAX_EXPONENT + 1)
    # Without the guard, 2**16 in slot 0 would carry into slot 1: x0**65536
    # would silently come out as x1.
    assert pack((MAX_EXPONENT, 0)) * 2 + 2 == variable_key(1) == pack((0, 1))
    with pytest.raises(ValueError):
        x0 ** (1 << 16)
    with pytest.raises(ValueError):
        (top + x1) * (top + x1)
    assert x1.substitute({1: top * x1}) == top * x1
    with pytest.raises(ValueError):
        top.substitute({0: x0 * x0})
