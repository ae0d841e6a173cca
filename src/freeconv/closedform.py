"""Closed-form spectral densities.

Every family here has an elementary density formula, so the module
serves as the independent oracle for the numerical Stieltjes inversion
and for Monte Carlo comparison.  All formulas are written with real
arithmetic only; their inner radicands are nonnegative on the stated
supports (clamped against rounding at the edges).

Families and supports:

    mp(c)     Marchenko-Pastur, support [(1-sqrt(c))^2, (1+sqrt(c))^2]
    as        arcsine on [0, 2]
    fc2       Fuss-Catalan order 2 on [0, 27/4]
    fc3       Fuss-Catalan order 3 on [0, 256/27]
    mp-sqrt   free multiplicative square root of mp(1) on [0, sqrt(27/4)]
    mp-cbrt   free multiplicative cube root of mp(1) on [0, (256/27)^(1/3)]
    bures     arcsine x mp(1) on [0, 3 sqrt(3)]
    bures2    arcsine x mp(1)^2 on [0, 8]

A ``Family`` is a ``resolvent.DensitySource`` with a name and the
equivalent measure: for a divergence d^(-alpha) at distance d from an
edge, ``edge_powers`` holds a power p >= 1/(1 - alpha) (2 at a
vanishing edge) for the substitution x = edge +- t^p, and its
``edge_floors`` are zero, the formulas being exact up to the edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, QuadratureError
from . import measures
from .resolvent import DensitySource, integral, tabulated_cdf

__all__ = ["Family", "family", "all_families", "cdf", "cdf_interpolator",
           "mass_and_mean"]

_PI = math.pi


@dataclass(frozen=True, eq=False)
class Family(DensitySource):
    """A density source with an elementary density formula."""

    name: str
    measure: object  # equivalent MeasureSpec, for cross-module checks


def _family(name, support, atom, formula, measure, edge_powers):
    """The family whose density is the scalar ``formula`` on the open
    support, 0 off it, at a scalar x or over a 1-D array of x."""
    lo, hi = support

    def density(x):
        xs = np.asarray(x, dtype=float)
        rho = [0.0 if v <= lo or v >= hi else formula(v) for v in xs.ravel().tolist()]
        return np.array(rho) if xs.ndim else rho[0]

    return Family(support, atom, density, edge_powers, (0.0, 0.0), name, measure)


# ---------------------------------------------------------------------------
# the formulas
# ---------------------------------------------------------------------------

def _mp_density(c):
    cf = float(c)
    lo = (1.0 - math.sqrt(cf)) ** 2
    hi = (1.0 + math.sqrt(cf)) ** 2

    def rho(x):
        rad = (x - lo) * (hi - x)
        if rad <= 0.0:
            return 0.0
        return math.sqrt(rad) / (2.0 * _PI * x * cf)

    return (lo, hi), rho


def _as_density(x):
    rad = x * (2.0 - x)
    if rad <= 0.0:
        return 0.0
    return 1.0 / (_PI * math.sqrt(rad))


def _fc2_density(x):
    t = 27.0 + 3.0 * math.sqrt(max(81.0 - 12.0 * x, 0.0))
    num = 2.0 ** (1.0 / 3.0) * t ** (2.0 / 3.0) - 6.0 * x ** (1.0 / 3.0)
    den = x ** (2.0 / 3.0) * t ** (1.0 / 3.0)
    return 2.0 ** (1.0 / 3.0) * math.sqrt(3.0) / (12.0 * _PI) * max(num, 0.0) / den


def _fc3_density(x):
    arg = 3.0 * math.sqrt(3.0) * math.sqrt(x) / 16.0
    y = math.cos(math.acos(min(arg, 1.0)) / 3.0)
    rad = 4.0 * y - 3.0 ** 0.75 * x ** 0.25 / math.sqrt(y)
    return x ** (-0.75) / (2.0 * 3.0 ** 0.25 * _PI) * math.sqrt(max(rad, 0.0))


_MPSQRT_C1 = 1.0 / (2.0 ** (4.0 / 3.0) * 3.0 ** (1.0 / 6.0) * _PI)
_MPSQRT_C2 = 1.0 / (2.0 ** (5.0 / 3.0) * 3.0 ** (5.0 / 6.0) * _PI)


def _mp_sqrt_density(x):
    y = math.sqrt(max(81.0 - 12.0 * x * x, 0.0))
    t1 = x ** (-1.0 / 3.0) * ((9.0 + y) ** (1.0 / 3.0) - (9.0 - y) ** (1.0 / 3.0))
    t2 = x ** (1.0 / 3.0) * ((9.0 + y) ** (2.0 / 3.0) - (9.0 - y) ** (2.0 / 3.0))
    return _MPSQRT_C1 * t1 + _MPSQRT_C2 * t2


_MPCBRT_FLIP = 6.0 + 2.0 * math.sqrt(3.0)


def _mp_cbrt_density(x):
    """The paper's formula with t = x^3 and y the root of y^3 - 4ty - t^2 = 0
    taken here.  Its nested term t (24 - 12t + t^2) / (4 sqrt(y - 2t + t^2/4))
    is a removable 0/0 at t = 6 - 2 sqrt(3); modulo the cubic its square is
    exactly (t^4 - 16t^3 - 4t^2 y + 64t^2 + 32ty - 64t + 16y^2) / 4, evaluated
    here without the cancellation.  Above t = 6 + 2 sqrt(3) the term takes the
    negative root: with + alone the density would fail to vanish at the upper
    edge and carry ~1.4e-5 spurious mass."""
    t = x ** 3
    arg = 3.0 * math.sqrt(3.0) * x ** 1.5 / 16.0
    y = (4.0 / math.sqrt(3.0)) * x ** 1.5 * math.cos(math.acos(min(arg, 1.0)) / 3.0)
    term = 0.5 * math.sqrt(max(t * (t * (t * (t - 16.0) - 4.0 * y + 64.0) + 32.0 * y - 64.0)
                               + 16.0 * y * y, 0.0))
    if t > _MPCBRT_FLIP:
        term = -term
    rad = y + 4.0 * t - 0.5 * t * t + term
    return math.sqrt(max(rad, 0.0)) / (2.0 * _PI * x)


_BURES1_C = 1.0 / (4.0 * _PI * math.sqrt(3.0))
_BURES1_A = 3.0 * math.sqrt(3.0)


def _bures1_density(x):
    r = _BURES1_A / x
    s = math.sqrt(max(r * r - 1.0, 0.0))
    plus = r + s
    minus = 1.0 / plus  # equals r - s without cancellation
    return _BURES1_C * (plus ** (2.0 / 3.0) - minus ** (2.0 / 3.0))


def _bures2_density(x):
    rad = 2.0 - math.sqrt(x / 2.0)
    return math.sqrt(max(rad, 0.0)) / (_PI * 2.0 ** 1.25 * x ** 0.75)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _mp_family(c):
    measure = measures.mp(c)  # DomainError unless c > 0
    c = measures._rational_coerce(c)
    support, rho = _mp_density(c)
    # x^(-1/2) divergence at c = 1, square-root vanishing otherwise: p = 2 at both
    # edges; the formula carries mass min(1, 1/c)
    return _family(f"mp({c})", support, float(max(0, 1 - 1 / c)), rho, measure, (2.0, 2.0))


_FIXED = {
    "as": ((0.0, 2.0), _as_density, measures.arcsine(), (2.0, 2.0)),
    "fc2": ((0.0, 27.0 / 4.0), _fc2_density,
            measures.free_power(measures.mp(1), 2), (3.0, 2.0)),
    "fc3": ((0.0, 256.0 / 27.0), _fc3_density,
            measures.free_power(measures.mp(1), 3), (4.0, 2.0)),
    "mp-sqrt": ((0.0, math.sqrt(27.0 / 4.0)), _mp_sqrt_density,
                measures.free_power(measures.mp(1), Fraction(1, 2)), (3.0, 2.0)),
    "mp-cbrt": ((0.0, (256.0 / 27.0) ** (1.0 / 3.0)), _mp_cbrt_density,
                measures.free_power(measures.mp(1), Fraction(1, 3)), (4.0, 2.0)),
    "bures": ((0.0, 3.0 * math.sqrt(3.0)), _bures1_density,
              measures.boxtimes(measures.arcsine(), measures.mp(1)), (3.0, 2.0)),
    "bures2": ((0.0, 8.0), _bures2_density,
               measures.boxtimes(measures.arcsine(),
                                 measures.free_power(measures.mp(1), 2)), (4.0, 2.0)),
}


def family(name):
    """Look up a closed-form family by name.

    Accepts the fixed aliases ('as', 'fc2', 'fc3', 'mp-sqrt', 'mp-cbrt',
    'bures', 'bures2') and 'mp' with its rectangularity inline, like
    'mp(1/4)'.
    """
    key = name.strip().lower()
    if key.startswith("mp(") and key.endswith(")"):
        return _mp_family(key[3:-1])
    if key in _FIXED:
        support, rho, spec, powers = _FIXED[key]
        return _family(key, support, 0.0, rho, spec, powers)
    raise DomainError(f"unknown closed-form family {name!r}")


def all_families():
    """The nine families used throughout the cross-validation suite:
    mp(1), mp(1/4) and the seven fixed aliases."""
    return [_mp_family(1), _mp_family(Fraction(1, 4))] + [family(key) for key in _FIXED]


# ---------------------------------------------------------------------------
# cumulative distribution and moments
# ---------------------------------------------------------------------------

def _within_bound(result):
    val, err = result
    if err > 1e-9:
        raise QuadratureError(f"quadrature error estimate {err:.2e} exceeds 1e-9")
    return val


def cdf(fam, x):
    """CDF of the family at x, atom at zero included.

    Adaptive quadrature of the density with edge substitution; the
    output is clamped monotone into [atom, 1].
    """
    lo, hi = fam.support
    x = float(x)
    if x < 0.0:
        return 0.0
    if x <= lo:
        return fam.atom
    if x >= hi:
        return 1.0
    total = fam.atom + _within_bound(integral(fam, 0, x))
    return min(max(total, fam.atom), 1.0)


def cdf_interpolator(fam):
    """Fast vectorised CDF, the ``resolvent.tabulated_cdf`` of ``fam``,
    for Kolmogorov-Smirnov scans over many sample points."""
    return tabulated_cdf(fam)


def mass_and_mean(fam):
    """(continuous mass, first moment) by substituted quadrature, each
    to an error estimate of at most 1e-9."""
    return tuple(_within_bound(integral(fam, k)) for k in (0, 1))
