"""Graded dimensions of the generated subalgebra and of the invariant ring.

Two quantities are compared throughout the verification suite, weight by
weight, since every generator monomial is a weight vector:

* ``invariant_weight_dims``: per weight, the dimension of the degree-t
  U-invariants, by Weyl's character formula.  A U-invariant weight vector
  is a highest weight vector, so the invariants of weight lambda are
  counted by the multiplicity m(lambda) of the irreducible module of
  highest weight lambda in k[W]_t, and for dominant lambda

      m(lambda) = sum over w in W of sign(w) N_t(lambda + rho - w(rho)),

  where N_t counts the degree-t monomials of each weight (Humphreys,
  *Introduction to Lie Algebras and Representation Theory*, §24;
  Fulton-Harris, *Representation Theory*, §24).  Multiplying the
  character of k[W]_t by the Weyl denominator, the coefficient of
  e^(lambda + rho) has one term, from lambda's own module, since
  lambda + rho is strictly dominant.  The table N_t is a convolution of
  one series per distinct weight of ``groups.variable_weights``: c
  variables of one weight give comb(c + e - 1, e) monomials of degree e.
  No monomial is enumerated and nothing is eliminated.  Only dominant
  weights are read: at others the alternating sum can be nonzero without
  being a multiplicity.

* ``generated_dimension``: per weight, the dimension over Q of the degree-t
  piece of the subalgebra generated by the generator system: the rank of
  that weight's degree-t generator monomials (one block of
  ``weight_blocks``, as in minimality).  It is exact in both directions
  and reads nothing of the invariant side, so a generator that is not
  invariant can push it above the invariant dimension, where the
  comparison fails.

Since the generated subalgebra sits inside the invariant ring whenever the
generators are invariant, equality of the two, weight by weight, certifies
that the generators generate in degree t.

Most blocks are settled exactly, before any expansion, by their leading
monomials.  Packed monomials (``polynomial``) compared as ints are ordered
lexicographically, the highest variable first.  A product of monomials is
the carry-free sum of their packed ints, so this is a monomial order, and
the leading monomial of a product of polynomials is the sum of the
factors' leading monomials (Cox, Little and O'Shea, *Ideals, Varieties,
and Algorithms*, ch. 2 §2, Lemma 8).  So a generator monomial's key, the
sum of its factors' leading monomials (``_distinct_leads``), is the
leading monomial of its polynomial.  A block whose keys are pairwise
distinct is linearly independent over Q: in a nontrivial combination, the
largest key with a nonzero coefficient occurs in no other term.  Such a
block has rank its size in ``generated_dimension`` and passes the first
pass of ``minimality_check``.  In ``generated_dimension`` a block whose
keys collide, or that uses a zero generator, is expanded
(``generators.monomial_poly``, the expansion ``syzygies.relation_space``
uses) and its coefficient rows, denominators cleared row by row, are ranked
exactly by ``linalg.sparse_rank_int``.

Minimality still ranks the blocks that its leading monomials leave by
evaluation mod p.  The ranks of one call (every (degree, weight) block
left in the first pass of ``minimality_check``) share one point set per
prime: the points are uniform nonzero residues mod p drawn from a named
substream, one matrix holds all those blocks' monomial rows at the largest
point count any of them asks for, and each block ranks its own rows on a
prefix of the columns.  The matrix is built on residues throughout
(numpy).  The ranks are taken at two independent streams with two distinct
primes: one evaluation stack holds both primes' matrices, built from one
exponent matrix and one set of factor rows, and each block's two slices
are eliminated together by ``linalg.rank_mod_p``.  A block of full row
rank needs no rank of its leading rows (the decomposable monomials): they
are independent.  A disagreement between the primes aborts, naming the
block.  Sharing points changes no bound: a rank mod p at any points is at
most the rank over Q, and each block's Schwartz-Zippel bound (a shortfall
with probability at most rank x degree / (p - 1)) holds for any points
drawn independently of that block's matrix, so the chance that some block
falls short is at most the sum of the blocks' bounds.

``minimality_check`` returns (passed, witness), the shape of every suite
check, with the labels of the inessential generators as the witness.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Sequence

import numpy as np

from .generators import GeneratorSet, monomial_poly, weighted_monomials
from .groups import variable_weights
from .linalg import PRIME_A, PRIME_B, primitive_row, rank_mod_p, sparse_rank_int
from .polynomial import MAX_EXPONENT, SLOT_BITS, Polynomial, guard_mask
from .rng import residue_points
from .scenario import Scenario

DEFAULT_MONOMIAL_CAP = 20000
CAP_ENV_VAR = "COVARIANTS_MONOMIAL_CAP"
PRIMES = (PRIME_A, PRIME_B)  # the two seeds' primes, in stream order :1, :2


class CapExceeded(RuntimeError):
    """A monomial basis would exceed the configured resource cap."""


class SeedDisagreement(RuntimeError):
    """Two independently seeded rank computations disagreed."""


def monomial_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    return int(env) if env else DEFAULT_MONOMIAL_CAP


def degree_monomial_count(nvars: int, t: int) -> int:
    return math.comb(nvars + t - 1, t) if nvars else int(t == 0)


# -- exact invariant dimensions: Weyl's character formula -------------------------


def _two_rho(case: str, r: int) -> tuple[int, ...]:
    """2 rho in eps-coordinates for the type ``case`` (``Scenario.case``) at rank r.

    rho = (n-1, ..., 0) for A (gl), (r-1/2, ..., 1/2) for B (odd o),
    (r, ..., 1) for C (sp) and (r-1, ..., 0) for D (even o); doubled, B's
    stays in the integers.  It is empty at rank 0.  At rank 1 it is (0)
    for gl n=1 and for D1 (o n=2, whose group is its torus), (1) for B1 and
    (2) for C1; D2 (o n=4) has (2, 0).
    """
    top = {"A": 2 * r - 2, "B": 2 * r - 1, "C": 2 * r, "D": 2 * r - 2}[case]
    return tuple(range(top, top - 2 * r, -2))


def _weyl_group(case: str, r: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The Weyl group as signed permutations ``(perm, signs)``, acting by
    w(v)_i = signs[i] * v[perm[i]].

    All permutations for A, with every sign change for B and C and with an
    even number of them for D.  The small ranks, spelled out: the trivial
    group at rank 0, for gl n=1 and for D1 (whose one sign change is odd);
    {+1, -1} for B1 and C1; for D2 = A1 x A1 the four elements 1, the swap,
    -1 and minus the swap.
    """
    if r == 0 or (r == 1 and case in "AD"):
        return [(tuple(range(r)), (1,) * r)]
    if r == 1:
        return [((0,), (1,)), ((0,), (-1,))]
    if case == "D" and r == 2:
        return [((0, 1), (1, 1)), ((1, 0), (1, 1)), ((0, 1), (-1, -1)), ((1, 0), (-1, -1))]
    flips = [(1,) * r] if case == "A" else itertools.product((1, -1), repeat=r)
    flips = [f for f in flips if case != "D" or math.prod(f) == 1]
    return [(perm, f) for perm in itertools.permutations(range(r)) for f in flips]


@lru_cache(maxsize=None)
def _weyl_shifts(case: str, r: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The pairs (rho - w(rho), sign(w)) over the Weyl group, where sign(w)
    is the determinant of w: the sign of its permutation times its sign
    changes.  rho - w(rho) is a sum of positive roots, an integer vector,
    taken as (2 rho - w(2 rho)) / 2."""
    two_rho = _two_rho(case, r)
    shifts = []
    for perm, signs in _weyl_group(case, r):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(r), 2))
        moved = [e * two_rho[p] for p, e in zip(perm, signs)]
        shifts.append((tuple((a - b) // 2 for a, b in zip(two_rho, moved)), (-1) ** inversions * math.prod(signs)))
    return tuple(shifts)


def _dominant(case: str, lam: Sequence[int]) -> bool:
    """lam_1 >= ... >= lam_r, then lam_r >= 0 for B and C and
    lam_(r-1) >= |lam_r| for D; no condition at all for D1 (rank 1, o n=2)."""
    if case == "D":
        if len(lam) == 1:
            return True
        lam = (*lam[:-1], abs(lam[-1]))
    elif case in "BC":
        lam = (*lam, 0)
    return all(a >= b for a, b in zip(lam, lam[1:]))


def _weight_counts(s: Scenario, t: int) -> dict[tuple, int]:
    """N_t: the number of degree-t monomials of each weight.

    One series per distinct variable weight is convolved in: c variables
    of weight w give comb(c + e - 1, e) monomials of degree e and weight
    e * w.  ``table[d]`` holds the counts of degree d over the weights
    taken so far.
    """
    table: list[dict[tuple, int]] = [{(0,) * s.rank: 1}] + [{} for _ in range(t)]
    for w, c in Counter(variable_weights(s)).items():
        new: list[dict[tuple, int]] = [{} for _ in range(t + 1)]
        for d, counts in enumerate(table):
            for e in range(t - d + 1):
                ways, out, step = math.comb(c + e - 1, e), new[d + e], [e * b for b in w]
                for lam, k in counts.items():
                    mu = tuple(map(add, lam, step))
                    out[mu] = out.get(mu, 0) + ways * k
        table = new
    return table[t]


@lru_cache(maxsize=None)
def _invariant_weight_dims_cached(s: Scenario, t: int, cap: int) -> dict:
    count = degree_monomial_count(s.nvars, t)
    if count > cap:
        raise CapExceeded(
            f"degree-{t} monomial basis has {count} elements (cap {cap})"
        )
    counts = _weight_counts(s, t)
    shifts = _weyl_shifts(s.case, s.rank)
    dims: dict[tuple, int] = {}
    for lam in sorted(counts):
        if _dominant(s.case, lam):
            mult = sum(sign * counts.get(tuple(map(add, lam, shift)), 0) for shift, sign in shifts)
            if mult:
                dims[lam] = mult
    return dims


def invariant_weight_dims(s: Scenario, t: int, cap: int | None = None) -> dict:
    """Exact dimension of each weight space of degree-t invariants."""
    return dict(_invariant_weight_dims_cached(s, t, monomial_cap(cap)))


# -- evaluation ranks of generator monomials -------------------------------------


def _frac_mod(x, p: int) -> int:
    if type(x) is int:
        return x % p
    f = Fraction(x)
    if f.denominator % p == 0:
        raise ValueError(f"{x} has no residue mod {p}: its denominator is divisible by {p}")
    return f.numerator % p * pow(f.denominator, -1, p) % p


def _factor_rows(exponents: np.ndarray) -> np.ndarray:
    """Factor indices of the monomials given by the rows of ``exponents``.

    Row k lists each column index c exactly ``exponents[k, c]`` times and is
    padded to the largest row degree with the index ``ncols``, which
    ``_products_mod`` reads as a row of ones.
    """
    n, ncols = exponents.shape
    degrees = exponents.sum(axis=1)
    width = int(degrees.max(initial=0))
    counts = np.hstack([exponents, (width - degrees)[:, None]])
    return np.repeat(np.tile(np.arange(ncols + 1), n), counts.ravel()).reshape(n, width)


def _products_mod(values: np.ndarray, factors: np.ndarray, p: int) -> np.ndarray:
    """Row k = product of the rows ``values[factors[k, j]]`` over j, mod p;
    one vectorised product per factor position.  Entries of ``values`` are
    residues in [0, p) with p < 2**31, so no product overflows int64."""
    padded = np.vstack([values, np.ones((1, values.shape[1]), dtype=np.int64)])
    out = np.ones((factors.shape[0], values.shape[1]), dtype=np.int64)
    for column in factors.T:
        out *= padded[column]
        out %= p
    return out


def _gen_values_mod(polys: Sequence[Polynomial], points: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """Values of each polynomial at each point, one slice per prime: slice k
    holds the values mod ``primes[k]`` at the points ``points[k]`` (one
    column per point), shape ``(len(primes), len(polys), npoints)``.

    The terms' exponent matrix, read off the packed monomials (the layout
    ``polynomial.unpack`` reads), and their factor rows are built once.  Per
    prime the terms of all the polynomials are evaluated together, then
    summed per polynomial as differences of a running sum over the terms.
    """
    _, nvars, npoints = points.shape
    keys = [m for poly in polys for m in poly.packed_terms()]
    exponents = np.frombuffer(b"".join(m.to_bytes(2 * nvars, "little") for m in keys), "<u2")
    factors = _factor_rows(exponents.reshape(len(keys), nvars).astype(np.int64))
    coeffs = [c for poly in polys for c in poly.coefficients()]
    bounds = np.cumsum([0] + [len(poly) for poly in polys])
    out = np.empty((len(primes), len(polys), npoints), dtype=np.int64)
    for k, p in enumerate(primes):
        residues = np.array([_frac_mod(c, p) for c in coeffs], dtype=np.int64)
        terms = _products_mod(points[k], factors, p) * residues[:, None] % p
        running = np.vstack([np.zeros((1, npoints), dtype=np.int64), terms.cumsum(axis=0)])
        out[k] = (running[bounds[1:]] - running[bounds[:-1]]) % p
    return out


def _exponent_matrix(nletters: int, monomials: Sequence) -> np.ndarray:
    """Row k = the exponents of monomial k in the ``nletters`` letters."""
    exponents = np.zeros((len(monomials), nletters), dtype=np.int64)
    for ri, mono in enumerate(monomials):
        for idx, mult in mono:
            exponents[ri, idx] = mult
    return exponents


def monomial_eval_matrix(
    gs: GeneratorSet,
    monomials: Sequence,
    npoints: int,
    seed: int,
    streams: Sequence[str],
    primes: Sequence[int],
) -> np.ndarray:
    """Slice k: rows = generator monomials, columns = values at random points
    mod ``primes[k]``; shape ``(len(primes), len(monomials), npoints)``.

    The points of slice k are uniform nonzero residues mod ``primes[k]``
    from the named substream ``(seed, streams[k])``.  The exponent matrix,
    the generators the monomials use (only they are evaluated) and the
    factor rows are built once for all the slices; the products are taken
    one prime at a time.
    """
    exponents = _exponent_matrix(len(gs.gens), monomials)
    used = np.flatnonzero(exponents.any(axis=0))
    factors = _factor_rows(exponents[:, used])
    nvars = gs.scenario.nvars
    points = np.stack([residue_points(seed, name, nvars, npoints, p) for name, p in zip(streams, primes)])
    gen_vals = _gen_values_mod([gs.gens[i].poly for i in used], points, primes)
    mats = np.empty((len(primes), len(monomials), npoints), dtype=np.int64)
    for k, p in enumerate(primes):
        mats[k] = _products_mod(gen_vals[k], factors, p)
    return mats


def _two_seed_ranks(gs: GeneratorSet, blocks: Sequence, seed: int, stream: str) -> list[tuple[int, ...]]:
    """Per block ``((degree, weight), monomials, npoints, heads)``: the
    ranks of its leading ``heads`` rows, then of all its rows, at its first
    ``npoints`` points.

    One evaluation stack holds every block's rows, in order, at the largest
    ``npoints``, one slice per seed/prime; a block ranks its own rows on its
    column prefix, both primes in one ``rank_mod_p`` elimination.  When a
    block has full row rank at a prime, each head's rank there is its row
    count, since the rows of a full-row-rank matrix are independent; only
    otherwise are the heads ranked.  The two primes must agree block by
    block; the first block that does not aborts loudly with its degree,
    weight and ranks.
    """
    if not blocks:
        return []
    monomials = [m for _, ms, _, _ in blocks for m in ms]
    npoints = max(n for _, _, n, _ in blocks)
    mats = monomial_eval_matrix(gs, monomials, npoints, seed, (stream + ":1", stream + ":2"), PRIMES)
    found = []
    lo = 0
    for (degree, weight), ms, n, heads in blocks:
        sub = mats[:, lo : lo + len(ms), :n]
        lo += len(ms)
        full = rank_mod_p(sub, PRIMES)
        if full == [len(ms)] * len(PRIMES):  # independent rows: a head of h rows has rank h
            head_ranks = [[h] * len(PRIMES) for h in heads]
        else:
            head_ranks = [rank_mod_p(sub[:, :h], PRIMES) for h in heads]
        a, b = zip(*head_ranks, full)  # the block's ranks at each prime
        if a != b:
            raise SeedDisagreement(
                f"evaluation ranks disagree for the degree-{degree} block of weight "
                f"{weight} ({a} vs {b}) in stream {stream!r}; "
                "rerun with a different seed and report if it persists"
            )
        found.append(a)
    return found


def _distinct_leads(leads: Sequence[int | None], monomials: Sequence, nvars: int) -> bool:
    """Whether the generator monomials have pairwise distinct leading monomials.

    ``leads[i]`` is generator i's leading packed monomial (None for the zero
    polynomial); a monomial's key, the sum of its factors' leads, is the
    leading monomial of its product (see the module docstring).  A monomial
    with a zero factor has no lead, so the answer is then False.  A key
    that sets a guard bit overflowed a slot and raises ``ValueError``.
    """
    guard, keys = guard_mask(nvars), set()
    for mono in monomials:
        key = 0
        for idx, mult in mono:
            if leads[idx] is None:
                return False
            for _ in range(mult):  # stored monomials add without carry: a set guard bit is an overflow
                key += leads[idx]
                if key & guard:
                    raise ValueError(f"an exponent exceeds {MAX_EXPONENT}, the largest a {SLOT_BITS}-bit slot holds")
        keys.add(key)
    return len(keys) == len(monomials)


def _weight_blocks(degrees: Sequence[int], eps: Sequence, rank: int, t: int) -> dict[tuple, list]:
    """The degree-t monomials in letters of the given degrees grouped by
    weight, each block in ``weighted_monomials`` order.

    The weights are the rows of the monomials' exponent matrix times the
    letters' matrix ``eps`` of eps-coordinates (one row per letter).
    """
    monomials = weighted_monomials(degrees, t)
    eps_matrix = np.array(eps, dtype=np.int64).reshape(len(degrees), rank)
    blocks: dict[tuple, list] = {}
    for m, w in zip(monomials, (_exponent_matrix(len(degrees), monomials) @ eps_matrix).tolist()):
        blocks.setdefault(tuple(w), []).append(m)
    return blocks


def weight_blocks(gs: GeneratorSet, t: int) -> dict[tuple, list]:
    """The degree-t generator monomials grouped by weight, in their original order."""
    return _weight_blocks([g.degree for g in gs.gens], [g.weight for g in gs.gens], gs.scenario.rank, t)


def _expanded_rank(gs: GeneratorSet, monomials: Sequence) -> int:
    """Rank over Q of the expanded generator monomials.

    Each monomial is expanded by ``monomial_poly``; its coefficients,
    denominators cleared by ``primitive_row``, form one sparse row over the
    packed monomials as columns, and ``sparse_rank_int`` ranks the rows.
    """
    rows = []
    for mono in monomials:
        terms = monomial_poly(gs, mono).packed_terms()
        rows.append(dict(zip(terms, primitive_row(list(terms.values())))))
    return sparse_rank_int(rows)


def generated_dimension(gs: GeneratorSet, t: int, cap: int | None = None) -> dict:
    """Nonzero weight-space dimensions ``{weight: dim}`` of the degree-t generated piece.

    A weight block of degree-t generator monomials whose leading keys are
    pairwise distinct is linearly independent (see the module docstring),
    so its dimension is its size.  Every other block is expanded and
    ranked exactly (``_expanded_rank``).  Both are dimensions over Q, with
    no point and no prime, and neither reads the invariant side.  The cap
    counts every block, settled or not, and is checked before any work; an
    expanded block has at most as many columns as there are degree-t
    monomials of its weight in the variables.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    blocks = weight_blocks(gs, t)
    count, cap_val = sum(map(len, blocks.values())), monomial_cap(cap)
    if count > cap_val:
        raise CapExceeded(f"{count} generator monomials (cap {cap_val})")
    leads = [max(g.poly.packed_terms(), default=None) for g in gs.gens]
    dims = {}
    for w, ms in blocks.items():
        dims[w] = len(ms) if _distinct_leads(leads, ms, gs.scenario.nvars) else _expanded_rank(gs, ms)
    return {w: r for w, r in sorted(dims.items()) if r}


# -- minimality ------------------------------------------------------------------


def minimality_check(gs: GeneratorSet, seed: int = 0) -> tuple[bool, dict | None]:
    """Certify that no generator lies in the algebra the others generate.

    Every generator and every generator monomial is a weight vector, and the
    coordinate ring splits by weight, so a generator can only be spanned by
    degree-d monomials of its own weight.  Block by (degree, weight): the
    generators of the block are essential iff appending their evaluation
    rows to the rows of the block's decomposable monomials raises the rank
    by the number of generators.  A block's monomials are enumerated alone
    (``weighted_monomials`` at its weight, one memo per call), not with
    every monomial of its degree.  A block whose monomials' leading keys
    are pairwise distinct passes with no evaluation: its rows are
    linearly independent (see the module docstring), so each generator
    lies outside the span of the others.  The blocks left are ranked from
    one evaluation stack (stream ``min``, as wide as the widest of them),
    each block on its own rows and a prefix of the shared points (block
    size + 32 columns), both primes eliminated together; a block of full
    row rank passes with no rank of its decomposable rows taken, since
    they are independent too.

    A rank increase observed mod p is exact, not likely.  The generators'
    coefficients have no p in a denominator (``_frac_mod`` refuses one that
    has), so a block's evaluation rows mod p reduce the polynomials' values
    at integer points.  If the block has full row rank mod p, some maximal
    minor of those values is nonzero mod p, hence nonzero: the rows, and so
    the polynomials, are independent over Q, and
    each generator lies outside the span of the block's other rows.  All
    385 first-pass blocks on the invariance grid have full row rank, and
    380 of them have distinct leading keys.  A
    block short of full row rank passes on a fixed arithmetic condition,
    not on the draw of points: if a primitive integer combination of its
    generators is a combination of the decomposable rows with coefficients
    free of p in their denominators, the same relation holds among the
    rows mod p at any points, and the rank cannot rise by the number of
    generators.  So a false pass there needs every such expression to have
    p in a denominator, at both primes.  Shortfalls are pinned down per generator, each on its
    own stream ``min:{d}:{w}:g{idx}``.  Returns (passed, witness): the
    witness of a failure lists the inessential generators' labels under
    ``inessential``, in block order.
    """
    inessential: list[str] = []
    blocks: dict[tuple, list[int]] = {}
    for idx, g in enumerate(gs.gens):
        blocks.setdefault((g.degree, g.weight), []).append(idx)
    degrees, weights, memo = [g.degree for g in gs.gens], [g.weight for g in gs.gens], {}
    leads = [max(g.poly.packed_terms(), default=None) for g in gs.gens]
    batch = []
    for d, w in sorted(blocks):
        singles = [((idx, 1),) for idx in blocks[d, w]]
        block = weighted_monomials(degrees, d, weights, w, memo)  # weight_blocks(gs, d)[w]
        if _distinct_leads(leads, block, gs.scenario.nvars):
            continue  # independent rows: each generator is outside the others' span
        rows = [m for m in block if m not in singles] + singles
        batch.append(((d, w), rows, len(rows) + 32, (len(rows) - len(singles),)))
    first = _two_seed_ranks(gs, batch, seed, "min")
    for ((d, w), rows, _, (nbase,)), (base, full) in zip(batch, first):
        gen_indices = blocks[d, w]
        if full == base + len(gen_indices):
            continue
        # at least one generator is spanned by the rest: identify which
        for idx in gen_indices:
            others = rows[:nbase] + [((j, 1),) for j in gen_indices if j != idx]
            ordered = others + [((idx, 1),)]
            ((r_without, r_with),) = _two_seed_ranks(
                gs, [((d, w), ordered, len(ordered) + 32, (len(others),))], seed, f"min:{d}:{w}:g{idx}"
            )
            if r_with != r_without + 1:
                inessential.append(gs.gens[idx].label)
    return not inessential, {"inessential": inessential} if inessential else None
