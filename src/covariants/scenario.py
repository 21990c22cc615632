"""Scenarios: which classical group acts on how many copies of V and V*.

A scenario fixes the variable universe for the whole package.  The ordering
is part of the external contract (JSON output is canonical with respect to
it):

    x[1,1], x[2,1], ..., x[n,1], x[1,2], ..., x[n,l],
    a[1,1], ..., a[1,n], a[2,1], ..., a[m,n]

i.e. the coordinate matrix of the V-copies is laid out column by column and
the coordinate matrix of the V*-copies row by row, so lower minors and left
minors read off contiguous blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix
from .polynomial import Polynomial

GROUPS = ("gl", "o", "sp")


@dataclass(frozen=True)
class Scenario:
    group: str
    n: int
    l: int
    m: int = 0

    def __post_init__(self):
        if self.group not in GROUPS:
            raise ValueError(f"unknown group {self.group!r} (expected one of {GROUPS})")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.l < 0 or self.m < 0:
            raise ValueError("l and m must be nonnegative")
        if self.group == "o" and self.n < 2:
            raise ValueError("o requires n >= 2 (O(1) has a rank-0 torus)")
        if self.group == "sp" and self.n % 2:
            raise ValueError("sp requires even n")
        if self.group in ("o", "sp") and self.m:
            raise ValueError("o and sp act on copies of V only (m must be 0)")

    # -- derived data --------------------------------------------------------

    @property
    def r(self) -> int:
        return self.n // 2

    @property
    def case(self) -> str:
        """Generator recipe case: A = gl, B = odd o, C = sp, D = even o."""
        if self.group == "gl":
            return "A"
        if self.group == "sp":
            return "C"
        return "B" if self.n % 2 else "D"

    @property
    def rank(self) -> int:
        """Rank of the maximal torus (length of epsilon-coordinates)."""
        return self.n if self.group == "gl" else self.r

    @property
    def nvars(self) -> int:
        return self.n * self.l + self.m * self.n

    # -- variable universe ---------------------------------------------------

    def x_var(self, i: int, j: int) -> int:
        """Index of x[i+1, j+1], the i-th coordinate of the j-th V-copy (0-based)."""
        if not (0 <= i < self.n and 0 <= j < self.l):
            raise ValueError("x variable index out of range")
        return j * self.n + i

    def a_var(self, i: int, j: int) -> int:
        """Index of a[i+1, j+1], the j-th coordinate of the i-th V*-copy (0-based)."""
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise ValueError("a variable index out of range")
        return self.n * self.l + i * self.n + j

    def x_poly(self, i: int, j: int) -> Polynomial:
        return Polynomial.variable(self.nvars, self.x_var(i, j))

    def a_poly(self, i: int, j: int) -> Polynomial:
        return Polynomial.variable(self.nvars, self.a_var(i, j))

    def v_matrix(self) -> Matrix:
        """The n x l symbolic coordinate matrix of the V-copies."""
        return Matrix(
            [[self.x_poly(i, j) for j in range(self.l)] for i in range(self.n)]
        )

    def vstar_matrix(self) -> Matrix:
        """The m x n symbolic coordinate matrix of the V*-copies."""
        return Matrix(
            [[self.a_poly(i, j) for j in range(self.n)] for i in range(self.m)]
        )

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"group": self.group, "n": self.n, "l": self.l, "m": self.m}

    @classmethod
    def from_json(cls, data: dict) -> "Scenario":
        return cls(data["group"], data["n"], data["l"], data.get("m", 0))
