"""Graded dimensions of the generated subalgebra and of the invariant ring.

Two quantities are compared throughout the verification suite:

* ``generated_dimension``: the dimension of the degree-t piece of the
  subalgebra generated by the generator system, measured as the rank over
  F_p of the evaluation matrix of all degree-t generator monomials.  The
  points are uniform nonzero residues mod p drawn from a named substream,
  and the matrix is built on residues throughout (numpy).  The rank is
  taken at two independent streams with two distinct primes; a
  disagreement aborts.  It can only undercount: the generator coefficients
  have no p in a denominator (``_frac_mod`` refuses one that has), so the
  vanishing over Q of every larger minor of the monomials' coefficient
  matrix carries over mod p, and evaluation cannot raise a rank.  It is a
  certified lower bound for the true dimension, and by Schwartz-Zippel it
  is exact except with probability at most (matrix rank x degree) / (p - 1).

* ``invariant_dimension``: the dimension of the space of degree-t (and
  optionally fixed-weight) polynomials annihilated by the whole nilradical,
  computed as an exact sparse kernel over the integers, block by weight.
  The derivation images and the monomial weights are those of ``groups``,
  which owns both conventions.

Since the generated subalgebra always sits inside the invariant ring,
equality of the lower bound with the exact dimension pins both quantities —
the comparison is an unconditional certificate whenever it succeeds.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .generators import GeneratorSet, generator_monomials, monomial_weight
from .groups import derivation_images, derive_monomial, monomial_torus_weight, nilradical_basis
from .linalg import PRIME_A, PRIME_B, rank_mod_p, sparse_rank_int
from .polynomial import Polynomial, pack
from .rng import residue_points
from .scenario import Scenario

DEFAULT_MONOMIAL_CAP = 20000
CAP_ENV_VAR = "COVARIANTS_MONOMIAL_CAP"


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
    return math.comb(nvars + t - 1, t)


def degree_monomials(nvars: int, t: int) -> Iterable[tuple[int, ...]]:
    """All exponent tuples of total degree t, lexicographically."""

    def rec(pos: int, remaining: int, acc: list):
        if pos == nvars - 1:
            acc.append(remaining)
            yield tuple(acc)
            acc.pop()
            return
        for e in range(remaining + 1):
            acc.append(e)
            yield from rec(pos + 1, remaining - e, acc)
            acc.pop()

    if nvars == 0:
        if t == 0:
            yield ()
        return
    yield from rec(0, t, [])


# -- exact invariant dimensions -------------------------------------------------


@lru_cache(maxsize=None)
def _invariant_weight_dims_cached(s: Scenario, t: int, cap: int) -> dict:
    count = degree_monomial_count(s.nvars, t)
    if count > cap:
        raise CapExceeded(
            f"degree-{t} monomial basis has {count} elements (cap {cap})"
        )
    blocks: dict[tuple, list] = {}  # weight -> (packed monomial, nonzero exponents)
    for exps in degree_monomials(s.nvars, t):
        factors = tuple((v, e) for v, e in enumerate(exps) if e)
        blocks.setdefault(monomial_torus_weight(s, exps), []).append((pack(exps), factors))
    images_per_xi = [derivation_images(xi, s) for xi in nilradical_basis(s)]
    dims: dict[tuple, int] = {}
    for wkey, monos in sorted(blocks.items()):
        rows: dict[tuple, dict[int, int]] = {}
        for col, (m, factors) in enumerate(monos):
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


def invariant_dimension(
    s: Scenario, t: int, weight: tuple | None = None, cap: int | None = None
) -> int:
    """Exact dimension of the degree-t invariants (of one weight if given).

    ``weight`` is in epsilon-coordinates of the scenario's torus.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    dims = invariant_weight_dims(s, t, cap)
    if weight is None:
        return sum(dims.values())
    return dims.get(tuple(weight), 0)


# -- evaluation ranks of generator monomials -------------------------------------


def _frac_mod(x, p: int) -> int:
    f = Fraction(x)
    if f.denominator % p == 0:
        raise ValueError(f"{x} has no residue mod {p}: its denominator is divisible by {p}")
    return f.numerator % p * pow(f.denominator % p, p - 2, p) % p


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


def _gen_values_mod(polys: Sequence[Polynomial], points: np.ndarray, p: int) -> np.ndarray:
    """Values of each polynomial at each point (a column of ``points``), mod p.

    The terms of all the polynomials are evaluated together, then summed
    per polynomial as differences of a running sum over the terms.
    """
    nvars, npoints = points.shape
    sizes = [len(poly) for poly in polys]
    exponents = np.array(
        [e for poly in polys for e in poly.exponents()], dtype=np.int64
    ).reshape(-1, nvars)
    coeffs = np.array(
        [_frac_mod(c, p) for poly in polys for c in poly.coefficients()], dtype=np.int64
    )
    terms = _products_mod(points, _factor_rows(exponents), p) * coeffs[:, None] % p
    running = np.vstack([np.zeros((1, npoints), dtype=np.int64), terms.cumsum(axis=0)])
    bounds = np.cumsum([0] + sizes)
    return (running[bounds[1:]] - running[bounds[:-1]]) % p


def monomial_eval_matrix(
    gs: GeneratorSet,
    monomials: Sequence,
    npoints: int,
    seed: int,
    stream: str,
    p: int,
) -> np.ndarray:
    """Rows = generator monomials, columns = values at random points (mod p).

    The points are uniform nonzero residues mod p from the named substream
    ``(seed, stream)``; only the generators the monomials use are evaluated.
    """
    exponents = np.zeros((len(monomials), len(gs.gens)), dtype=np.int64)
    for ri, mono in enumerate(monomials):
        for idx, mult in mono:
            exponents[ri, idx] = mult
    used = np.flatnonzero(exponents.any(axis=0))
    points = residue_points(seed, stream, gs.scenario.nvars, npoints, p)
    gen_vals = _gen_values_mod([gs.gens[i].poly for i in used], points, p)
    return _products_mod(gen_vals, _factor_rows(exponents[:, used]), p)


def _two_seed_ranks(
    gs: GeneratorSet, monomials: Sequence, npoints: int, seed: int, stream: str, heads: Sequence[int] = ()
) -> tuple[int, ...]:
    """Ranks of the leading ``heads`` rows, then of all rows, of the
    evaluation matrix at two seeds/primes; abort loudly on disagreement."""
    found = []
    for tag, prime in ((":1", PRIME_A), (":2", PRIME_B)):
        mat = monomial_eval_matrix(gs, monomials, npoints, seed, stream + tag, prime)
        found.append(tuple(rank_mod_p(mat[:h], prime) for h in heads) + (rank_mod_p(mat, prime),))
    if found[0] != found[1]:
        raise SeedDisagreement(
            f"evaluation ranks disagree ({found[0]} vs {found[1]}) for stream {stream!r}; "
            "rerun with a different seed and report if it persists"
        )
    return found[0]


def two_seed_rank(
    gs: GeneratorSet, monomials: Sequence, npoints: int, seed: int, stream: str
) -> int:
    """Evaluation rank at two seeds/primes; abort loudly on disagreement."""
    return _two_seed_ranks(gs, monomials, npoints, seed, stream)[-1]


def generated_dimension(gs: GeneratorSet, t: int, seed: int = 0, cap: int | None = None) -> int:
    """Dimension of the degree-t piece of the generated subalgebra.

    Rank over F_p of the evaluation matrix of all degree-t generator
    monomials at 2x(monomial count) points of uniform nonzero residues mod p,
    at two streams and two primes.  A rank mod p never exceeds the rank over
    Q, so this is a certified lower bound; it equals the true dimension
    unless the points fall on the zero set of a nonzero minor, which
    Schwartz-Zippel makes improbable for primes near 2**31.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    if t == 0:
        return 1
    monomials = generator_monomials(gs, t)
    if not monomials:
        return 0
    cap_val = monomial_cap(cap)
    if len(monomials) > cap_val:
        raise CapExceeded(f"{len(monomials)} generator monomials (cap {cap_val})")
    return two_seed_rank(gs, monomials, 2 * len(monomials), seed, f"genrank:{t}")


# -- minimality ------------------------------------------------------------------


def minimality_check(gs: GeneratorSet, seed: int = 0) -> "MinimalityReport":
    """Certify that no generator lies in the algebra the others generate.

    Every generator and every generator monomial is a weight vector, and the
    coordinate ring splits by weight, so a generator can only be spanned by
    degree-d monomials of its own weight.  Block by (degree, weight): the
    generators of the block are essential iff appending their evaluation
    rows to the rows of the block's decomposable monomials raises the rank
    by the number of generators.  Rank increases observed mod p prove
    essentiality exactly; shortfalls are pinned down per generator.
    """
    verdicts: dict[str, bool] = {}
    blocks: dict[tuple, list[int]] = {}
    for idx, g in enumerate(gs.gens):
        blocks.setdefault((g.degree, g.weight.eps), []).append(idx)
    block_monomials: dict[tuple, list] = {}
    for d in {d for d, _ in blocks}:
        for m in generator_monomials(gs, d):
            block_monomials.setdefault((d, monomial_weight(gs, m)), []).append(m)
    for (d, w), gen_indices in sorted(blocks.items()):
        singles = {((idx, 1),) for idx in gen_indices}
        block_monos = [m for m in block_monomials[d, w] if m not in singles]
        ordered = block_monos + [((idx, 1),) for idx in gen_indices]
        base, full = _two_seed_ranks(
            gs, ordered, len(ordered) + 32, seed, f"min:{d}:{w}", (len(block_monos),)
        )
        if full == base + len(gen_indices):
            for idx in gen_indices:
                verdicts[gs.gens[idx].label] = True
            continue
        # at least one generator is spanned by the rest: identify which
        for idx in gen_indices:
            others = block_monos + [((j, 1),) for j in gen_indices if j != idx]
            rows = others + [((idx, 1),)]
            r_without, r_with = _two_seed_ranks(
                gs, rows, len(rows) + 32, seed, f"min:{d}:{w}:g{idx}", (len(others),)
            )
            verdicts[gs.gens[idx].label] = r_with == r_without + 1
    return MinimalityReport(verdicts)


class MinimalityReport:
    def __init__(self, verdicts: dict[str, bool]):
        self.verdicts = verdicts

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def inessential(self) -> list[str]:
        return [lbl for lbl, ok in self.verdicts.items() if not ok]
