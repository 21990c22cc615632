"""Minimal degrees at which a dominant weight occurs.

For a dominant weight chi (phi-coordinates k_1, ..., k_q) two quantities are
computed and compared:

* the closed-form minimal degree of a generator monomial of weight chi
  (``min_degree_formula``), which for gl goes through the minimal
  presentation of chi over the generator weights, and

* brute-force oracles: ``min_degree_generated`` enumerates bounded
  nonnegative combinations of the generator (degree, weight) pairs, and
  ``min_degree_invariant`` scans the exact graded invariant dimensions of
  the ambient ring for the first degree where the weight shows up.

The gl presentation works over the weights alpha_i (the left-minor weights,
degree i) and beta_j (the lower-minor weights, degree n - j, with beta_n of
degree n): starting from the cheapest combination that is correct modulo the
last fundamental weight, single steps that swap alpha_i for beta_i, swap
beta_j back for alpha_j, or append beta_n / alpha_n adjust the last
coordinate one unit at a time; the cheapest adjustment is chosen greedily
and the result is certified against exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .dimensions import invariant_weight_dims
from .generators import GeneratorSet, build_generators, weight_table_of
from .scenario import Scenario
from .weights import in_weight_monoid, phi_to_eps


@dataclass(frozen=True)
class PresentationStep:
    """One weight used by a presentation: kind 'alpha' or 'beta', 1-based index."""

    kind: str
    index: int
    multiplicity: int

    def degree(self, n: int) -> int:
        if self.kind == "alpha":
            return self.index
        return n - self.index if self.index < n else n


def _as_phi(chi) -> tuple[int, ...]:
    out = []
    for k in chi:
        if int(k) != k:
            raise ValueError(f"non-integral phi-coordinate {k}")
        out.append(int(k))
    return tuple(out)


def gl_minimal_presentation(n: int, chi) -> tuple[list[PresentationStep], int]:
    """Minimal-degree presentation of a gl weight over the generator weights.

    ``chi`` gives integer phi-coordinates; all but the last must be
    nonnegative.  Returns the multiset of steps and its total degree.  The
    greedy adjustment is certified against ``gl_presentation_oracle`` in the
    test-suite, not trusted.
    """
    k = list(_as_phi(chi))
    if len(k) != n:
        raise ValueError(f"expected {n} phi-coordinates")
    if any(v < 0 for v in k[:-1]):
        raise ValueError("coordinates below the last must be nonnegative")
    r = n // 2
    alpha = {i: k[i - 1] for i in range(1, r + 1) if k[i - 1] > 0}
    beta = {j: k[j - 1] for j in range(r + 1, n) if k[j - 1] > 0}
    extra_alpha_n = 0
    extra_beta_n = 0
    # last coordinate of the starting combination vs the target
    last = -sum(beta.values())
    t = last - k[n - 1]
    for _ in range(t):
        # one step down: swapping alpha_i for beta_i costs n - 2i < n, so any
        # available swap (largest i first) beats appending the degree-n weight
        if alpha:
            i = max(alpha)
            alpha[i] -= 1
            if not alpha[i]:
                del alpha[i]
            beta[i] = beta.get(i, 0) + 1
        else:
            extra_beta_n += 1
    for _ in range(-t):
        # one step up: swapping beta_j back costs 2j - n < n, smallest j first
        if beta:
            j = min(beta)
            beta[j] -= 1
            if not beta[j]:
                del beta[j]
            alpha[j] = alpha.get(j, 0) + 1
        else:
            extra_alpha_n += 1
    steps = [
        PresentationStep("alpha", i, m) for i, m in sorted(alpha.items()) if m
    ]
    steps += [PresentationStep("beta", j, m) for j, m in sorted(beta.items()) if m]
    if extra_alpha_n:
        steps.append(PresentationStep("alpha", n, extra_alpha_n))
    if extra_beta_n:
        steps.append(PresentationStep("beta", n, extra_beta_n))
    degree = sum(st.degree(n) * st.multiplicity for st in steps)
    return steps, degree


def gl_presentation_oracle(n: int, chi) -> tuple[int, int]:
    """Exhaustive minimum over all presentations: (degree, #minimizers).

    Independent of the greedy path: every split of k_j between alpha_j and
    beta_j is enumerated and the last coordinate is balanced with the
    degree-n weights.
    """
    k = list(_as_phi(chi))
    if len(k) != n:
        raise ValueError(f"expected {n} phi-coordinates")
    best = None
    count = 0

    def rec(j: int, base_degree: int, last: int):
        nonlocal best, count
        if j == n:
            c = k[n - 1] - last  # alpha_n count minus beta_n count needed
            degree = base_degree + n * abs(c)
            if best is None or degree < best:
                best, count = degree, 1
            elif degree == best:
                count += 1
            return
        for a in range(k[j - 1] + 1):
            b = k[j - 1] - a
            rec(j + 1, base_degree + a * j + b * (n - j), last - b)

    rec(1, 0, 0)
    return best, count


def min_degree_formula(s: Scenario, chi) -> int:
    """Closed-form minimal degree of the weight chi in the generated algebra.

    o-cases enforce the parity constraints of the weight monoid; gl requires
    the l, m >= n regime (use the enumeration oracle elsewhere).
    """
    k = list(_as_phi(chi))
    q = s.rank
    if len(k) != q:
        raise ValueError(f"expected {q} phi-coordinates")
    if s.group == "gl":
        if s.l < s.n or s.m < s.n:
            raise ValueError(
                "the gl formula needs l >= n and m >= n; use the enumeration "
                "oracle for other regimes"
            )
        _, degree = gl_minimal_presentation(s.n, k)
        return degree
    if any(v < 0 for v in k):
        raise ValueError("o/sp dominant weights have nonnegative coordinates")
    r = s.r
    if s.group == "sp":
        return sum((i + 1) * k[i] for i in range(r))
    if not in_weight_monoid(s, k):
        raise ValueError("weight violates the parity constraint of the monoid")
    if s.n % 2:
        return sum((i + 1) * k[i] for i in range(r - 1)) + r * k[r - 1] // 2
    if r == 1:
        return k[0]  # o(2): phi_1 = e_1, the weight of each order-1 lower minor
    return (
        sum((i + 1) * k[i] for i in range(r - 2))
        + r * (k[r - 2] + k[r - 1]) // 2
        - min(k[r - 2], k[r - 1])
    )


# -- oracles -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _reachable_degrees(pairs: tuple, cap: int) -> dict:
    """DP table: weight (phi-int tuple) -> minimal degree within the cap."""
    if not pairs:
        return {}
    zero = tuple(0 for _ in pairs[0][1])
    table = {zero: 0}
    for degree, weight in pairs:
        for _ in range(cap // degree):
            updates = {}
            for w, d in table.items():
                nd = d + degree
                if nd > cap:
                    continue
                nw = tuple(a + b for a, b in zip(w, weight))
                if table.get(nw, cap + 1) > nd and updates.get(nw, cap + 1) > nd:
                    updates[nw] = nd
            if not updates:
                break
            for w, d in updates.items():
                if table.get(w, cap + 1) > d:
                    table[w] = d
    return table


def weight_degree_pairs(gs: GeneratorSet) -> tuple:
    """Distinct (degree, phi-weight) pairs of nonzero weight in the system."""
    return tuple(sorted((d, phi) for d, phi in weight_table_of(gs) if any(phi)))


def min_degree_generated(pairs, chi, cap: int = 8) -> int | None:
    """Bounded enumeration of generator-weight combinations summing to chi.

    ``pairs`` are (degree, phi-weight) pairs, as ``generator_pairs_for``
    gives them.  Returns the minimal total degree, or None when nothing
    within the cap reaches the weight.  Weight-0 generators never help and
    are skipped.
    """
    pairs = tuple(sorted((d, tuple(w)) for d, w in pairs))
    k = tuple(_as_phi(chi))
    if not any(k):
        return 0
    table = _reachable_degrees(pairs, cap)
    return table.get(k)


def min_degree_invariant(s: Scenario, chi, cap: int = 4, monomial_cap: int | None = None) -> int | None:
    """First degree at which the weight appears among the ambient invariants.

    Scans the graded invariant dimensions (``invariant_weight_dims``, by
    Weyl's character formula) up to the degree cap; None
    if the weight never shows up within it.
    """
    k = _as_phi(chi)
    eps = tuple(phi_to_eps(s, k))
    for t in range(cap + 1):
        dims = invariant_weight_dims(s, t, monomial_cap)
        if dims.get(eps, 0) > 0:
            return t
    return None


def table_scenario(s: Scenario) -> Scenario:
    """The smallest scenario of the same group/n in the table regime."""
    return Scenario(s.group, s.n, max(s.l, s.n), max(s.m, s.n) if s.group == "gl" else 0)


def generator_pairs_for(s: Scenario) -> tuple:
    """Weight/degree pairs of the generating system in the l, m >= n regime."""
    return weight_degree_pairs(build_generators(table_scenario(s)))
