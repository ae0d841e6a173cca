"""Radial spectra of isotropic (R-diagonal) random matrices.

For a large isotropic matrix X = P U (P positive, U Haar, free of P),
the radial CDF F(r) of the complex eigenvalues of X is tied to the
S-transform of the squared singular-value law P^2 by

    S_{P^2}(F(r) - 1) = 1 / r^2,

so the eigenvalues fill a centered ring whose radii come from the
F -> 0+ and F -> 1- limits.  The module also carries the R-transform
of sums of free Haar unitaries and the two Green's-function identities
(square of a symmetric operator, rescaling of the argument) needed to
pass from |U1 + ... + Uk| to the arcsine law.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NonMonotoneError
from .measures import s_eval

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


def _s_real(spec, w):
    """S(w) for real w in (-1, 0]; the measures handled here give real
    values there as long as no factor pole is crossed."""
    val = s_eval(spec, complex(w, 0.0))
    return val.real


def _assert_monotone(spec, n_grid=64):
    """Pre-scan: S must be decreasing in w on (-1, 0) for the radial
    solve to bracket.  Returns (S(-1+), S(0-)) on the scan."""
    ws = np.linspace(-1.0 + 1e-9, -1e-9, n_grid)
    try:
        vals = [_s_real(spec, w) for w in ws]
    except Exception as exc:
        raise NonMonotoneError(f"S-transform not evaluable on (-1, 0): {exc}") from exc
    diffs = np.diff(vals)
    if np.any(diffs > 1e-12 * np.maximum(1.0, np.abs(vals[:-1]))):
        raise NonMonotoneError("S-transform is not monotone decreasing on (-1, 0)")
    return vals[0], vals[-1]


def radial_cdf(spec, r, tol=1e-13, max_iter=200):
    """Cumulative radial eigenvalue fraction F(r) of the isotropic matrix
    whose squared singular-value law has the given S-transform spec.

    Solves S(F - 1) = 1/r^2 by monotone bisection in F; outside the
    ring the value clamps to 0 or 1.
    """
    if r <= 0:
        return 0.0
    return _solve_radial(spec, r, _assert_monotone(spec), tol, max_iter)


def _solve_radial(spec, r, s_range, tol=1e-13, max_iter=200):
    """F(r) at r > 0 by bisection, given the (S(-1+), S(0-)) of the pre-scan."""
    s_at_m1, s_at_0 = s_range
    target = 1.0 / (r * r)
    if target <= s_at_0:  # r beyond the outer radius
        return 1.0
    if target >= s_at_m1:  # r inside the inner radius
        return 0.0
    a, b = 1e-15, 1.0 - 1e-15  # F bracket; S(F-1) decreasing in F
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        if _s_real(spec, mid - 1.0) > target:
            a = mid
        else:
            b = mid
        if b - a <= tol:
            return 0.5 * (a + b)
    raise ConvergenceError("radial bisection did not reach tolerance")


@dataclass(frozen=True)
class RadialProfile:
    """Sampled radial CDF with the ring radii."""

    radii: tuple
    values: tuple
    inner_radius: float
    outer_radius: float


def radial_profile(spec, n_points=200):
    """F(r) on a grid covering the ring (plus a small overhang)."""
    if n_points < 1:
        raise DomainError(f"point count must be at least 1, not {n_points}")
    r_in, r_out = ring_radii(spec)
    rs = np.linspace(max(r_in * 0.5, 1e-6), r_out * 1.05, n_points)
    s_range = _assert_monotone(spec)  # one pre-scan for the whole grid
    fs = [_solve_radial(spec, float(r), s_range) for r in rs]
    return RadialProfile(
        radii=tuple(float(r) for r in rs),
        values=tuple(fs),
        inner_radius=r_in,
        outer_radius=r_out,
    )


def ring_radii(spec):
    """(inner, outer) eigenvalue ring radii.

    outer = 1/sqrt(S(0)); inner = 1/sqrt(S(-1+)) with 0 when the
    S-transform diverges toward w = -1 (spectrum fills a disc).
    """
    s0 = _s_real(spec, 0.0)
    if s0 <= 0:
        raise DomainError("S(0) must be positive")
    r_out = 1.0 / math.sqrt(s0)
    s_limit = None
    prev = None
    for j in range(1, 44):
        w = -1.0 + 2.0 ** (-j)
        try:
            val = _s_real(spec, w)
        except Exception:
            return 0.0, r_out
        if val <= 0 or val > 1e12:
            return 0.0, r_out
        if prev is not None and abs(val - prev) <= 1e-12 * max(1.0, abs(val)):
            s_limit = val
            break
        prev = val
    if s_limit is None:
        s_limit = prev
    return 1.0 / math.sqrt(s_limit), r_out


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
