"""Radial spectra of isotropic (R-diagonal) random matrices.

For a large isotropic matrix X = P U (P positive, U Haar, free of P),
the radial CDF F(r) of the complex eigenvalues of X solves
S(F(r) - 1) = 1 / r^2 with S the S-transform of P^2 (Haagerup-Larsen).
S enters only through the cleared P(w, z) = a0(w) + z^q aq(w) of
``build_resolvent``: with b = -aq / w^q, S(F - 1)^q = F^q B(F) / A(F)
for A and B the exact shifts of a0 and b to F = 1 + w, so the eigenvalues
fill a centered ring whose radii are exact values of that ratio at F = 1
and F = 0+.  The module also carries the R-transform of sums of free
Haar unitaries and the two Green's-function identities (square of a
symmetric operator, rescaling of the argument) needed to pass from
|U1 + ... + Uk| to the arcsine law.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NonMonotoneError
from .measures import build_resolvent

__all__ = [
    "RadialProfile",
    "radial_cdf",
    "radial_profile",
    "ring_radii",
    "r_sum_unitaries",
    "square_modulus_green",
    "rescale_green",
    "green_from_r",
    "moments_from_green",
]


def _shifted(col):
    """Exact ascending coefficients in F of col(F - 1)."""
    return [sum(c * math.comb(k, j) * (-1) ** (k - j) for k, c in enumerate(col[j:], j))
            for j in range(len(col))]


def _radial_law(spec):
    """((s, q, s_in, s_out), (r_in, r_out)) from the cleared P of ``spec``.

    s(F) = S(F - 1)^q = F^q B(F) / A(F) on a float array.  s_out = S(0)^q
    = B(1)/A(1).  s_in = S(-1+)^q = B_0/A_q if F = 0 is a zero of A of
    multiplicity exactly q and B_0/A_q > 0, else inf (a disc, r_in = 0).
    Both ratios, and the radii S^(-1/2), are rounded once from exact values.
    """
    poly = build_resolvent(spec)
    q = poly.clearing_power
    a, b = _shifted(poly.a0), _shifted([-c for c in poly.aq[q:]])
    s_out = sum(b) / sum(a)
    if s_out <= 0:
        raise DomainError("S(0) must be positive")
    m = next(j for j, c in enumerate(a) if c)  # multiplicity of F = 0 in A
    ring = m == q and b[0] / a[q] > 0
    k = min(m, q)  # cancel F^k, so that s keeps its accuracy for F near 0
    num, den = [0.0] * (q - k) + [float(c) for c in b], [float(c) for c in a[k:]]
    polyval = np.polynomial.polynomial.polyval
    return ((lambda f: polyval(f, num) / polyval(f, den), q,
             float(b[0] / a[q]) if ring else math.inf, float(s_out)),
            (math.sqrt(float(a[q] / b[0]) ** (1.0 / q)) if ring else 0.0,
             math.sqrt(float(1 / s_out) ** (1.0 / q))))


def _bracket(law, rs):
    """F at radii ``rs`` > 0 from S(F - 1)^q = r^(-2q): one bisection of
    all radii at once, until each midpoint is an end of its bracket, so
    a value does not depend on the other radii.  F is 1 beyond the outer
    radius, 0 inside the inner.  NonMonotoneError unless S^q is positive
    and decreasing at 64 points of (0, 1) in F."""
    s, q, s_in, s_out = law
    with np.errstate(all="ignore"):
        scan = s(np.linspace(1e-9, 1.0 - 1e-9, 64))
        if not (np.all(np.isfinite(scan) & (scan > 0))
                and np.all(np.diff(scan) <= 1e-12 * np.maximum(1.0, scan[:-1]))):
            raise NonMonotoneError("S-transform is not positive and decreasing on (-1, 0)")
        t = 1.0 / np.prod([rs * rs] * q, axis=0)
        lo = np.where(t <= s_out, 1.0, 0.0)
        hi = np.where((t > s_out) & (t >= s_in), 0.0, 1.0)
        while not np.all(((mid := 0.5 * (lo + hi)) == lo) | (mid == hi)):
            up = s(mid) > t
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return mid


def radial_cdf(spec, r):
    """Cumulative radial eigenvalue fraction F(r) of the isotropic matrix
    whose squared singular-value law is ``spec``: the root of
    S(F - 1) = 1/r^2, S read from the cleared P; it clamps to 0 or 1
    outside the ring."""
    if r <= 0:
        return 0.0
    return float(_bracket(_radial_law(spec)[0], np.array([float(r)]))[0])


@dataclass(frozen=True)
class RadialProfile:
    """Sampled radial CDF with the ring radii."""

    radii: tuple
    values: tuple
    inner_radius: float
    outer_radius: float


def radial_profile(spec, n_points=200):
    """F(r) on a grid covering the ring (plus a small overhang), each
    value equal to ``radial_cdf`` at its radius."""
    if n_points < 1:
        raise DomainError(f"point count must be at least 1, not {n_points}")
    law, (r_in, r_out) = _radial_law(spec)
    rs = np.linspace(max(r_in * 0.5, 1e-6), r_out * 1.05, n_points)
    fs = _bracket(law, rs)
    return RadialProfile(tuple(rs.tolist()), tuple(fs.tolist()), r_in, r_out)


def ring_radii(spec):
    """(inner, outer) eigenvalue ring radii: outer = S(0)^(-1/2) =
    sqrt(m1), inner = S(-1+)^(-1/2), or 0 when S diverges toward w = -1
    (the spectrum fills a disc)."""
    return _radial_law(spec)[1]


def r_sum_unitaries(k, z):
    """R-transform of |U1 + ... + Uk| for free Haar unitaries:
    k (sqrt(1 + 4 z^2) - 1) / (2 z), with the z -> 0 limit k z."""
    k = int(k)
    if k < 1:
        raise DomainError("need at least one unitary summand")
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    if abs(z) < 1e-8:
        return k * z  # series value; avoids cancellation loss
    return k * (cmath.sqrt(1.0 + 4.0 * z * z) - 1.0) / (2.0 * z)


def square_modulus_green(g, z):
    """Green's function of H^2 from that of a symmetric H:
    G_{H^2}(z) = G_H(sqrt(z)) / sqrt(z), principal square root."""
    s = cmath.sqrt(complex(z))
    return g(s) / s


def rescale_green(g, a, z):
    """Green's function of P/a from that of P: a * G_P(a z)."""
    if a <= 0:
        raise DomainError("rescaling factor must be positive")
    return a * g(a * complex(z))


def green_from_r(r, z, tol=1e-12, max_iter=300):
    """Invert R(y) + 1/y = z for y = G(z), by a damped fixed-point
    iteration y <- 1/(z - R(y)) seeded at the asymptote y = 1/z."""
    z = complex(z)
    y = 1.0 / z
    damp = 1.0
    res = abs(y * (z - r(y)) - 1.0)
    for _ in range(max_iter):
        if res <= tol:
            return y
        y_new = (1.0 - damp) * y + damp / (z - r(y))
        res_new = abs(y_new * (z - r(y_new)) - 1.0)
        if res_new > res:
            damp *= 0.5
            if damp < 1e-6:
                break
            continue
        y, res = y_new, res_new
        damp = min(1.0, damp * 1.5)
    raise ConvergenceError(f"green_from_r stalled at z={z} (residual {res:.2e})")


def moments_from_green(g, k_max, center, radius, n_nodes=2048):
    """Moments m_0..m_k from a Green's function by contour integration.

    m_k = (1/2 pi i) oint z^k G(z) dz on the circle |z - center| =
    radius, which must enclose the support and stay inside the domain
    of analyticity; the trapezoid rule on a circle converges
    geometrically for analytic integrands.
    """
    theta = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
    zs = center + radius * np.exp(1j * theta)
    gv = np.array([g(z) for z in zs])
    out = []
    for k in range(k_max + 1):
        vals = zs ** k * gv * (zs - center)
        m = vals.mean()
        out.append(m.real)
    return out
