"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial lives in a fixed variable universe of ``nvars`` variables and is
stored as a dict mapping packed monomials to nonzero coefficients.  A packed
monomial is one ``int`` holding a fixed-width slot of ``SLOT_BITS`` = 16 bits
per variable, variable 0 in the low bits:

    x0^2*x1 + 3/2   ->   {2 + (1 << 16): 1, 0: Fraction(3, 2)}

Multiplying two monomials is then one int addition.  The top bit of every
slot is a guard bit that a stored monomial never sets, so an exponent is at
most ``MAX_EXPONENT`` = 2**15 - 1.  Two stored monomials add without carrying
from one slot into the next (each slot sums to less than 2**16), and a slot
that overflowed shows as a set guard bit: the monomials of every product
are tested against ``guard_mask(nvars)`` (one OR over them), and an
overflow raises ``ValueError`` instead of silently carrying into the next
variable.

Exponent tuples appear only at the boundaries: the constructor, ``to_json``
and ``from_json``, ``__repr__``, and the read-only ``terms`` view (exponent
tuple -> coefficient), which is built once per polynomial.  Inside the
package ``packed_terms``, ``exponents`` and ``coefficients`` are the
accessors (``sparse_terms`` lists each term's nonzero exponents); ``pack``,
``unpack`` and ``variable_key`` convert monomials.

Coefficients are kept as plain ``int`` whenever they are integral and as
``fractions.Fraction`` otherwise; both mix freely in arithmetic, and the int
fast path matters for the heavy substitution workloads elsewhere in the
package.  Every operation is exact — there is no floating point anywhere.

The zero polynomial has an empty term dict.  Zero coefficients are never
stored.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from types import MappingProxyType
from typing import Mapping, Sequence

Coeff = "int | Fraction"
Expt = "tuple[int, ...]"

SLOT_BITS = 16  # the struct format "H": one unsigned 16-bit slot per variable
MAX_EXPONENT = (1 << (SLOT_BITS - 1)) - 1


def canon_coeff(c):
    """Collapse integral Fractions to int; leave everything else alone."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def coeff_from_string(s: str):
    """Parse an exact fraction string like ``-3/2`` or ``5``."""
    return canon_coeff(Fraction(s))


# -- packed monomials -------------------------------------------------------------


@lru_cache(maxsize=None)
def _slots(nvars: int) -> struct.Struct:
    return struct.Struct(f"<{nvars}H")


@lru_cache(maxsize=None)
def guard_mask(nvars: int) -> int:
    """The guard bits (the top bit of each slot) of an nvars universe."""
    return int.from_bytes(b"\x00\x80" * nvars, "little")


def variable_key(i: int) -> int:
    """The packed monomial of variable i."""
    return 1 << (SLOT_BITS * i)


def pack(exps: Sequence[int]) -> int:
    """The packed monomial of an exponent tuple (its length is the universe)."""
    n = len(exps)
    try:
        m = int.from_bytes(_slots(n).pack(*exps), "little")
    except struct.error:  # a negative or non-integer exponent, or one >= 2**16
        m = guard_mask(n)
    if m & guard_mask(n):
        raise ValueError(f"exponents {tuple(exps)} outside 0..{MAX_EXPONENT}")
    return m


def unpack(m: int, nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a packed monomial of an nvars universe."""
    return _slots(nvars).unpack(m.to_bytes(2 * nvars, "little"))


def _product(a: dict, b: dict, out: dict | None = None, scale=1) -> dict:
    """Accumulate ``scale * a * b`` into ``out`` (a new dict if None) without
    cleaning: the result may hold zeros and integral Fractions."""
    if out is None:
        out = {}
    get = out.get
    bi = list(b.items())
    for e1, c1 in a.items():
        if scale != 1:
            c1 = scale * c1
        for e2, c2 in bi:
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return out


def _clean(nvars: int, raw: dict) -> dict:
    """Drop zeros, collapse integral Fractions, and refuse an overflowed slot."""
    out = {m: (c if type(c) is int else canon_coeff(c)) for m, c in raw.items() if c}
    if reduce(or_, out, 0) & guard_mask(nvars):
        raise ValueError(f"an exponent exceeds {MAX_EXPONENT}, the largest a {SLOT_BITS}-bit slot holds")
    return out


def _power(nvars: int, terms: dict, k: int) -> dict:
    """``terms ** k`` by repeated squaring (k >= 0); may be ``terms`` itself."""
    result = None
    while k:
        if k & 1:
            result = terms if result is None else _clean(nvars, _product(result, terms))
        k >>= 1
        if k:
            terms = _clean(nvars, _product(terms, terms))
    return {0: 1} if result is None else result


class Polynomial:
    """Immutable-by-convention sparse polynomial over the rationals."""

    __slots__ = ("nvars", "_packed", "_view", "_sparse")

    def __init__(self, nvars: int, terms: Mapping | None = None):
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = canon_coeff(c)
                if not c:
                    continue
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent tuple of length {len(exps)} in a universe of {nvars} variables"
                    )
                clean[pack(exps)] = c
        self._init(nvars, clean)

    def _init(self, nvars: int, packed: dict) -> None:
        self.nvars = nvars
        self._packed = packed
        self._view = None
        self._sparse = None

    @classmethod
    def _make(cls, nvars: int, packed: dict) -> "Polynomial":
        p = cls.__new__(cls)
        p._init(nvars, packed)
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_packed(cls, nvars: int, terms: Mapping[int, object]) -> "Polynomial":
        """From packed monomials; zeros are dropped and an overflowed slot raises."""
        return cls._make(nvars, _clean(nvars, terms))

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._make(nvars, {})

    @classmethod
    def const(cls, nvars: int, c) -> "Polynomial":
        c = canon_coeff(c)
        return cls._make(nvars, {0: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        return cls.linear(nvars, {i: 1})

    @classmethod
    def linear(cls, nvars: int, coeffs: Mapping[int, object]) -> "Polynomial":
        """The linear form sum of ``coeffs[i] * x_i``."""
        out = {}
        for i, c in coeffs.items():
            if not 0 <= i < nvars:
                raise ValueError(f"variable index {i} out of range for {nvars} variables")
            c = canon_coeff(c)
            if c:
                out[variable_key(i)] = c
        return cls._make(nvars, out)

    # -- accessors -----------------------------------------------------------

    @property
    def terms(self) -> Mapping:
        """Read-only view: exponent tuple -> coefficient (built once)."""
        if self._view is None:
            self._view = MappingProxyType({unpack(m, self.nvars): c for m, c in self._packed.items()})
        return self._view

    def packed_terms(self) -> Mapping[int, object]:
        """Read-only view: packed monomial -> coefficient."""
        return MappingProxyType(self._packed)

    def exponents(self):
        """The exponent tuples of the terms, in the order of ``coefficients``."""
        return self.terms.keys()

    def coefficients(self):
        """The coefficients of the terms, in the order of ``exponents``."""
        return self._packed.values()

    def sparse_terms(self) -> tuple:
        """(packed monomial, coefficient, ((variable, exponent), ...)) per
        term, nonzero exponents only, in storage order; built once."""
        if self._sparse is None:
            self._sparse = tuple(
                (m, c, tuple((i, e) for i, e in enumerate(exps) if e))
                for m, exps, c in zip(self._packed, self.exponents(), self.coefficients())
            )
        return self._sparse

    def __len__(self) -> int:
        return len(self._packed)

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._packed)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self._packed == other._packed
        if isinstance(other, (int, Fraction)):
            other = canon_coeff(other)
            if not other:
                return not self._packed
            return self._packed == {0: other}
        return NotImplemented

    __hash__ = None

    def is_constant(self) -> bool:
        return not any(self._packed)

    def degree(self) -> int:
        """Total degree; the zero polynomial gets -1."""
        if not self._packed:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, d: int | None = None) -> bool:
        degs = {sum(e) for e in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return d is None or degs == {d}

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"mismatched variable universes ({self.nvars} vs {other.nvars})"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.nvars, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self._packed)
        for e, c in other._packed.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = canon_coeff(s)
            else:
                del out[e]
        return Polynomial._make(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.nvars, {e: -c for e, c in self._packed.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.nvars, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = canon_coeff(other)
            if not other:
                return Polynomial.zero(self.nvars)
            return Polynomial._make(
                self.nvars, {e: canon_coeff(c * other) for e, c in self._packed.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return Polynomial._make(self.nvars, _clean(self.nvars, _product(self._packed, other._packed)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        return Polynomial._make(self.nvars, _power(self.nvars, self._packed, k))

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, point: Sequence):
        """Exact value at a rational point (length must match the universe)."""
        if len(point) != self.nvars:
            raise ValueError(
                f"point of length {len(point)} in a universe of {self.nvars} variables"
            )
        total = 0
        powers = {}
        for _, c, factors in self.sparse_terms():
            v = c
            for key in factors:
                pw = powers.get(key)
                if pw is None:
                    pw = powers[key] = point[key[0]] ** key[1]
                v = v * pw
            total = total + v
        return canon_coeff(total)

    def substitute(self, images: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Substitute ``images[i]`` for variable i (identity where omitted).

        All image polynomials must share this polynomial's universe size.
        """
        n = self.nvars
        powers: dict = {}

        def power(key) -> dict:
            pw = powers.get(key)
            if pw is None:
                i, e = key
                base = images.get(i)
                if base is None:
                    base = {variable_key(i): 1}
                elif base.nvars != n:
                    raise ValueError("substitution image in a different universe")
                else:
                    base = base._packed
                pw = powers[key] = _power(n, base, e)
            return pw

        one = {0: 1}
        out: dict = {}
        for _, c, factors in self.sparse_terms():
            if not factors:
                out[0] = out.get(0, 0) + c
                continue
            pre = one
            for f in factors[:-1]:
                pre = power(f) if pre is one else _clean(n, _product(pre, power(f)))
            _product(pre, power(factors[-1]), out, c)  # the last factor goes straight into out
        return Polynomial._make(n, _clean(n, out))

    def permute_variables(self, perm: Sequence[int]) -> "Polynomial":
        """Relabel variables: old index i becomes ``perm[i]`` (a bijection)."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError("perm must be a permutation of the variable indices")
        out = {}
        for exps, c in self.terms.items():
            e = [0] * self.nvars
            for i, ei in enumerate(exps):
                e[perm[i]] = ei
            out[tuple(e)] = c
        return Polynomial(self.nvars, out)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        """Canonical JSON form: terms sorted by exponent tuple."""
        return {
            "vars": self.nvars,
            "terms": [
                {"coeff": str(Fraction(c)), "exps": list(e)}
                for e, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Polynomial":
        return cls(
            data["vars"],
            {tuple(t["exps"]): coeff_from_string(t["coeff"]) for t in data["terms"]},
        )

    def __repr__(self) -> str:
        if not self._packed:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            factors = [f"v{i}^{k}" if k > 1 else f"v{i}" for i, k in enumerate(e) if k]
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")
