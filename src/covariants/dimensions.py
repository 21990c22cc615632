"""Graded dimensions of the generated subalgebra and of the invariant ring.

Two quantities are compared throughout the verification suite, weight by
weight, since every generator monomial is a weight vector:

* ``generated_dimension``: per weight, the dimension of the degree-t piece
  of the subalgebra generated by the generator system, measured as the rank
  over F_p of the evaluation matrix of that weight's degree-t generator
  monomials (one block of ``weight_blocks``, as in minimality).  It can
  only undercount: the generator coefficients have no p in a denominator
  (``_frac_mod`` refuses one that has), so the vanishing over Q of every
  larger minor of the monomials' coefficient matrix carries over mod p, and
  evaluation cannot raise a rank.  It is a certified lower bound for the
  weight space.

* ``invariant_weight_dims``: per weight, the dimension of the space of
  degree-t polynomials annihilated by the whole nilradical, computed as an
  exact sparse kernel over the integers, block by weight.
  The blocks come from the same enumerator and weight bucketing as the
  generator monomials' (``_weight_blocks``), with each variable a letter
  of degree 1 whose weight is its row of ``groups.variable_weights``; the
  derivation images are those of ``groups`` too, which owns both
  conventions.

Since the generated subalgebra always sits inside the invariant ring, weight
by weight, equality of each lower bound with the exact dimension pins both
quantities — the comparison is an unconditional certificate whenever it succeeds.

Most blocks are settled exactly, before any evaluation, by their leading
monomials.  Packed monomials (``polynomial``) compared as ints are ordered
lexicographically, the highest variable first.  A product of monomials is
the carry-free sum of their packed ints, so this is a monomial order, and
the leading monomial of a product of polynomials is the sum of the
factors' leading monomials (Cox, Little and O'Shea, *Ideals, Varieties,
and Algorithms*, ch. 2 §2, Lemma 8).  So a generator monomial's key, the
sum of its factors' leading monomials (``_distinct_leads``), is the
leading monomial of its polynomial.  A block whose keys are pairwise
distinct is linearly independent over Q, with no point and no prime: in a
nontrivial combination, the largest key with a nonzero coefficient occurs
in no other term.  Such a block has rank its size in
``generated_dimension`` and passes the first pass of ``minimality_check``.
Only the blocks whose keys collide, or that use a zero generator, are
ranked mod p.

The evaluation ranks of one call (every weight block of one degree left in
``generated_dimension``, every (degree, weight) block left in the first
pass of ``minimality_check``) share one point set per prime: the points are
uniform nonzero residues mod p drawn from a named substream, one matrix
holds all those blocks' monomial rows at the largest point count any of
them asks for, and each block ranks its own rows on a prefix of the columns.
The matrix is built on residues throughout (numpy).  The ranks are taken
at two independent streams with two distinct primes: one evaluation stack
holds both primes' matrices, built from one exponent matrix and one set of
factor rows, and each block's two slices are eliminated together by
``linalg.rank_mod_p``.  A block of full row rank needs no rank of its
leading rows (minimality's decomposable monomials): they are independent.
A disagreement between the primes aborts, naming the block.  Sharing
points changes no bound: a rank mod p at any points is at most the rank
over Q, and each block's Schwartz-Zippel
bound (a shortfall with probability at most rank x degree / (p - 1)) holds
for any points drawn independently of that block's matrix, so the chance
that some block falls short is at most the sum of the blocks' bounds.

``minimality_check`` returns (passed, witness), the shape of every suite
check, with the labels of the inessential generators as the witness.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .generators import GeneratorSet, weighted_monomials
from .groups import derivation_images, derive_monomial, nilradical_basis, variable_weights
from .linalg import PRIME_A, PRIME_B, rank_mod_p, sparse_rank_int
from .polynomial import MAX_EXPONENT, SLOT_BITS, Polynomial, guard_mask, variable_key
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


# -- exact invariant dimensions -------------------------------------------------


@lru_cache(maxsize=None)
def _invariant_weight_dims_cached(s: Scenario, t: int, cap: int) -> dict:
    count = degree_monomial_count(s.nvars, t)
    if count > cap:
        raise CapExceeded(
            f"degree-{t} monomial basis has {count} elements (cap {cap})"
        )
    blocks = _weight_blocks([1] * s.nvars, variable_weights(s), s.rank, t)
    images_per_xi = [derivation_images(xi, s) for xi in nilradical_basis(s)]
    dims: dict[tuple, int] = {}
    for wkey, monos in sorted(blocks.items()):
        rows: dict[tuple, dict[int, int]] = {}
        for col, factors in enumerate(monos):
            m = sum(e * variable_key(v) for v, e in factors)
            for xi_idx, images in enumerate(images_per_xi):
                # the targets of one monomial are distinct (see derive_monomial)
                for target, coeff in derive_monomial(m, factors, images):
                    rows.setdefault((xi_idx, target), {})[col] = coeff
        nullity = len(monos) - sparse_rank_int(list(rows.values()))
        if nullity:
            dims[wkey] = nullity
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


def generated_dimension(gs: GeneratorSet, t: int, seed: int = 0, cap: int | None = None) -> dict:
    """Nonzero weight-space dimensions ``{weight: dim}`` of the degree-t generated piece.

    A weight block of degree-t generator monomials whose leading keys are
    pairwise distinct is linearly independent (see the module docstring),
    so its dimension is its size, exactly.  Every other block is ranked
    over F_p: the evaluation matrix of its monomials at 2x(block size)
    points of uniform nonzero residues, at two streams and two primes.
    Those blocks read their points from one matrix per prime (stream
    ``genrank:{t}``, as wide as the widest of them): a block of size k
    ranks its own rows on the first 2k columns.  A rank mod p never
    exceeds the rank over Q, so each rank is a certified lower bound; it
    equals the true dimension unless the points fall on the zero set of a
    nonzero minor, which Schwartz-Zippel makes improbable for primes near
    2**31, for every block at once by a union bound.  The cap counts every
    block, settled or not, and is checked before any work.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    blocks = weight_blocks(gs, t)
    count, cap_val = sum(map(len, blocks.values())), monomial_cap(cap)
    if count > cap_val:
        raise CapExceeded(f"{count} generator monomials (cap {cap_val})")
    leads = [max(g.poly.packed_terms(), default=None) for g in gs.gens]
    dims, ranked = {}, []
    for w, ms in blocks.items():
        if _distinct_leads(leads, ms, gs.scenario.nvars):
            dims[w] = len(ms)
        else:
            ranked.append(((t, w), ms, 2 * len(ms), ()))
    for ((_, w), _, _, _), (r,) in zip(ranked, _two_seed_ranks(gs, ranked, seed, f"genrank:{t}")):
        dims[w] = r
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
