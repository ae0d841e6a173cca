#!/usr/bin/env python3
"""From an S-transform to a spectral density, step by step.

A measure is written as a product of S-transform factors; clearing the
functional equation z w S(w) = 1 + w gives a polynomial P(w, z) = 0
with exact rational coefficients, and following its physical root down
to the real axis yields the density by Stieltjes inversion.
"""
from fractions import Fraction

import numpy as np

from freeconv import closedform, measures, moments, resolvent

# The Fuss-Catalan measure of order three: product of three free
# Marchenko-Pastur factors, S(w) = (1 + w)^-3.
spec = measures.mp(1) ** 3
print("measure:", spec.label())

poly = measures.build_resolvent(spec)
print(f"P(w, z) = a0(w) + z^q aq(w) with q = {poly.clearing_power}, ascending in w:")
print("  a0:", [str(c) for c in poly.a0])
print("  aq:", [str(c) for c in poly.aq])

lo, hi = resolvent.support_edges(poly)
print(f"support located at [{lo:.12f}, {hi:.12f}]  (256/27 = {256/27:.12f})")

# sample the density and compare against the elementary formula
fam = closedform.family("fc3")
for x in (1.0, 3.0, 6.0, 9.0):
    num = resolvent.density(poly, x)
    ref = fam.density(x)
    print(f"  rho({x}) = {num:.12f}   closed form {ref:.12f}   diff {num - ref:+.2e}")

# a full curve, written as CSV
curve = resolvent.density_curve(poly, n_points=256)
with open("fc3_density.csv", "w") as fh:
    fh.write(curve.to_csv())
print("wrote fc3_density.csv with", len(curve.points), "points;",
      "mass =", f"{moments.moments_from_density(curve, 0)[0]:.10f}")

# fractional free powers work the same way; here the free square root,
# whose cleared equation carries z^2
half = measures.free_power(measures.mp(1), Fraction(1, 2))
poly_half = measures.build_resolvent(half)
print("\nfree square root of Marchenko-Pastur:", half.label(),
      "clearing power =", poly_half.clearing_power)
print("support:", resolvent.support_edges(poly_half),
      " (upper edge should be sqrt(27/4) =", np.sqrt(27 / 4), ")")
