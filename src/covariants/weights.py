"""Torus weights in epsilon- and fundamental-weight coordinates.

Epsilon-coordinates are with respect to the basic characters of the diagonal
torus: length n for gl, length r = n//2 for o and sp (the torus of the form
stabilizer identifies the last coordinates with inverses of the first).

Fundamental-weight (phi-) coordinates depend on the group:

    gl:            phi_i = e_1 + ... + e_i                 (i = 1..n)
    sp:            phi_i = e_1 + ... + e_i                 (i = 1..r)
    o, n = 2r+1:   phi_i = e_1 + ... + e_i  (i < r),   phi_r = (e_1+...+e_r)/2
    o, n = 2r:     phi_i = e_1 + ... + e_i  (i <= r-2),
                   phi_{r-1} = (e_1+...+e_r)/2,
                   phi_r = (e_1+...+e_{r-1}-e_r)/2
    o, n = 2:      phi_1 = e_1  (rank 1: the torus is SO(2) itself)

Both conversions are exact and mutually inverse.  A weight is a plain tuple
in either coordinate system; ``eps_to_phi`` and ``phi_to_eps`` are the one
conversion, and ``integral_phi`` the one that demands integral phi.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .polynomial import canon_coeff
from .scenario import Scenario


def fundamental_weight_eps(s: Scenario, i: int) -> tuple:
    """Epsilon-coordinates of phi_i (1-based i up to the torus rank)."""
    q = s.rank
    if not 1 <= i <= q:
        raise ValueError(f"fundamental weight index {i} out of range 1..{q}")
    half = Fraction(1, 2)
    if s.group == "gl" or s.group == "sp":
        return tuple(1 if k < i else 0 for k in range(q))
    if s.n % 2:  # odd orthogonal
        if i < q:
            return tuple(1 if k < i else 0 for k in range(q))
        return (half,) * q
    # even orthogonal: the two half-weights sit at indices r-1 and r
    if q == 1:
        return (1,)
    if i <= q - 2:
        return tuple(1 if k < i else 0 for k in range(q))
    if i == q - 1:
        return (half,) * q
    return (half,) * (q - 1) + (-half,)


def phi_to_eps(s: Scenario, phi: Sequence) -> tuple:
    q = s.rank
    if len(phi) != q:
        raise ValueError(f"expected {q} phi-coordinates, got {len(phi)}")
    eps = [Fraction(0)] * q
    for i, k in enumerate(phi, start=1):
        if not k:
            continue
        for pos, c in enumerate(fundamental_weight_eps(s, i)):
            eps[pos] += k * c
    return tuple(canon_coeff(e) for e in eps)


def eps_to_phi(s: Scenario, eps: Sequence) -> tuple:
    q = s.rank
    if len(eps) != q:
        raise ValueError(f"expected {q} epsilon-coordinates, got {len(eps)}")
    w = [Fraction(x) for x in eps]
    if s.group in ("gl", "sp"):
        phi = [w[i] - w[i + 1] for i in range(q - 1)] + [w[q - 1]]
    elif s.n % 2:
        phi = [w[i] - w[i + 1] for i in range(q - 1)] + [2 * w[q - 1]]
    elif q >= 2:
        phi = [w[i] - w[i + 1] for i in range(q - 2)] + [w[q - 2] + w[q - 1], w[q - 2] - w[q - 1]]
    else:  # rank-1 even orthogonal: phi_1 = e_1
        phi = [w[0]]
    return tuple(canon_coeff(p) for p in phi)


def integral_phi(s: Scenario, eps: Sequence) -> tuple[int, ...]:
    """phi-coordinates that must be integral (weights of actual polynomials)."""
    phi = eps_to_phi(s, eps)
    out = []
    for k in phi:
        f = Fraction(k)
        if f.denominator != 1:
            raise ValueError(f"non-integral fundamental-weight coordinate {k}")
        out.append(f.numerator)
    return tuple(out)


def in_weight_monoid(s: Scenario, phi: Sequence[int]) -> bool:
    """Parity constraints a highest weight of k[W] must satisfy (o only)."""
    if s.group != "o":
        return True
    r = s.r
    if s.n % 2:
        return phi[r - 1] % 2 == 0
    return (phi[r - 2] + phi[r - 1]) % 2 == 0 if r >= 2 else True
