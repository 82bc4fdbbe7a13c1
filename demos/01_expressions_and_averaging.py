"""Expressions, torus averaging, and the averaged diffusion matrix.

Walks through the expression grammar, which parses to the canonical
monomial form, and shows the resonance selection rule at work: averaging a
scalar keeps the monomials with matched exponents, averaging a field
component k keeps those whose exponent gap is the unit vector e_k, and
everything else integrates to zero against its rotating phase.
"""

import numpy as np

from stochavg import (
    average_field,
    average_function,
    averaged_diffusion,
    parse_field_expr,
    principal_sqrt,
)

n = 2
a = np.array([1.0 + 0.5j, -0.3 + 1.2j])

print("== parsing and canonical form ==")
drift = parse_field_expr("-v1 + 1.8*v2 + i*v1*abs2(v2)", n)
print(f"expression : {drift}")
print(f"monomials  : {drift!r}")
print(f"value at a : {drift.evaluate(a):.6f}")

print()
print("== scalar averaging: only matched exponents survive ==")
for text in ("abs2(v1)", "v1", "v1*cv2", "abs2(v1)*abs2(v2)"):
    f = parse_field_expr(text, n)
    sym = average_function(f, a)
    quad = average_function(f, a, grid_per_dim=32)
    print(f"<{text:>18}>(a) = {sym:.6f}   (quadrature gap {abs(sym - quad):.1e})")

print()
print("== field averaging: component k needs exponent gap e_k ==")
field = [drift, parse_field_expr("-v2 + v1^2*cv2", n)]
avg = average_field(field, a)
print("averaged drift of (-v1 + 1.8 v2 + i v1|v2|^2, -v2 + v1^2 cv2):")
print(f"  component 1 = {avg[0]:.6f}   (the 1.8 v2 term is non-resonant and dies)")
print(f"  component 2 = {avg[1]:.6f}   (the v1^2 cv2 term dies as well)")
print(f"check: -a1 + i a1 |a2|^2 = {-a[0] + 1j * a[0] * abs(a[1])**2:.6f}")

print()
print("== averaged diffusion and its principal square root ==")
psi = [[parse_field_expr("1", n), parse_field_expr("v1", n)],
       [parse_field_expr("0", n), parse_field_expr("1", n)]]
A = averaged_diffusion(psi, a)
B = principal_sqrt(A)
print("Psi(v) = [[1, v1], [0, 1]] averages to A(a) = diag(1 + |a1|^2, 1):")
print(np.round(A.real, 6))
print("B(a) = sqrt(A(a)):")
print(np.round(B.real, 6))
print(f"reconstruction |B^2 - A| = {np.abs(B @ B - A).max():.2e}")
