"""Tour of the exact-arithmetic substrate.

Everything downstream rests on three primitives: sparse polynomials over
the rationals, exact linear algebra, and exact convex-hull membership.
There is no floating point anywhere, so every identity printed below is an
identity, not an approximation.
"""

from fractions import Fraction

from covariants import Matrix, Polynomial, convex_combination, convex_membership, kernel_basis, minor

# -- polynomials -------------------------------------------------------------

x = Polynomial.variable(2, 0)
y = Polynomial.variable(2, 1)

p = (x + y) * (x - y)
print("(x + y)(x - y)      =", p)
print("value at (3, 1/2)   =", p.evaluate([3, Fraction(1, 2)]))

# JSON form is canonical: coefficients as fraction strings, terms sorted
print("JSON                =", p.to_json())

# -- determinants and minors ---------------------------------------------------

vars9 = [Polynomial.variable(9, i) for i in range(9)]
m = Matrix([[vars9[3 * i + j] for j in range(3)] for i in range(3)])
d = m.det()
print("\n3x3 symbolic determinant has", len(d.terms), "terms")

swapped = Matrix([m.rows[1], m.rows[0], m.rows[2]]).det()
print("swapping two rows negates it:", swapped == -d)
assert swapped == -d

print("order-2 minor on rows {2,3}, cols {1,2}:", minor(m, [1, 2], [0, 1]))

# -- kernels --------------------------------------------------------------------

rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]]
basis = kernel_basis(rows, 4)
print("\nkernel of a rank-2 matrix in dimension 4 has", len(basis), "vectors:")
for v in basis:
    image = [sum(a * b for a, b in zip(row, v)) for row in rows]
    print("   ", v, "->", image)
    assert not any(image)

# -- convex membership -----------------------------------------------------------

square = [(1, 0), (0, 1), (-1, 0), (0, -1)]
inside = (Fraction(1, 3), Fraction(1, 3))
boundary = (Fraction(1, 2), Fraction(1, 2))
outside = (Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**9))

# the last point is outside by 1/10^9, and exact arithmetic says so
for pt, expected in ((inside, True), (boundary, True), (outside, False)):
    member = convex_membership(pt, square)
    print(f"membership of {tuple(map(str, pt))}:", member)
    assert member == expected

print("barycentric certificate for the boundary point:", convex_combination(boundary, square))
