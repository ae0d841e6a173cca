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

A ``Family`` is a ``resolvent.DensitySource``: for a divergence
d^(-alpha) at distance d from an edge, ``edge_powers`` holds a power
p >= 1/(1 - alpha) (2 at a vanishing edge) for the substitution
x = edge +- t^p, and its ``edge_floors`` are zero, the formulas being
exact up to the edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, QuadratureError
from . import measures
from .resolvent import integral, tabulated_cdf

__all__ = ["Family", "family", "all_families", "cdf", "cdf_interpolator",
           "mass_and_mean"]

_PI = math.pi


@dataclass(frozen=True)
class Family:
    """A measure with an elementary density formula."""

    name: str
    support: tuple
    atom: float
    measure: object  # equivalent MeasureSpec, for cross-module checks
    edge_powers: tuple
    _density: object = field(repr=False, compare=False, default=None)
    edge_floors = (0.0, 0.0)

    def density(self, x):
        x = float(x)
        lo, hi = self.support
        if x <= lo or x >= hi:
            return 0.0
        return self._density(x)


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


# Above x^3 = 6 + 2 sqrt(3) the nested-radical contribution continues on the
# opposite sign of its absolute value; with |.| alone the density would fail
# to vanish at the upper edge and carry ~1.4e-5 spurious mass.
_MPCBRT_FLIP = 6.0 + 2.0 * math.sqrt(3.0)


def _mp_cbrt_density(x):
    x3 = x ** 3
    arg = 3.0 * math.sqrt(3.0) * x ** 1.5 / 16.0
    y = (4.0 / math.sqrt(3.0)) * x ** 1.5 * math.cos(math.acos(min(arg, 1.0)) / 3.0)
    inner = y - 2.0 * x3 + 0.25 * x3 * x3
    if inner <= 0.0:
        return 0.0
    term = abs(x3 * (24.0 - 12.0 * x3 + x3 * x3) / (4.0 * math.sqrt(inner)))
    if x3 > _MPCBRT_FLIP:
        term = -term
    rad = y + 4.0 * x3 - 0.5 * x3 * x3 + term
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
    c = measures._rational_coerce(c)
    (lo, hi), rho = _mp_density(c)
    p_lo = 2.0  # x^(-1/2) divergence at c = 1, square-root vanishing otherwise
    return Family(
        name=f"mp({c})",
        support=(lo, hi),
        atom=0.0,
        measure=measures.mp(c),
        edge_powers=(p_lo, 2.0),
        _density=rho,
    )


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


def family(name, c=None):
    """Look up a closed-form family by name.

    Accepts the fixed aliases ('as', 'fc2', 'fc3', 'mp-sqrt', 'mp-cbrt',
    'bures', 'bures2') and 'mp' with the rectangularity passed either
    as the ``c`` argument or inline like 'mp(1/4)'.
    """
    key = name.strip().lower()
    if key.startswith("mp(") and key.endswith(")"):
        return _mp_family(key[3:-1])
    if key == "mp":
        return _mp_family(1 if c is None else c)
    if key in _FIXED:
        sup, rho, spec, powers = _FIXED[key]
        return Family(name=key, support=sup, atom=0.0, measure=spec,
                      edge_powers=powers, _density=rho)
    raise DomainError(f"unknown closed-form family {name!r}")


def all_families():
    """The nine families used throughout the cross-validation suite."""
    return [
        _mp_family(1),
        _mp_family(Fraction(1, 4)),
        family("as"),
        family("fc2"),
        family("fc3"),
        family("mp-sqrt"),
        family("mp-cbrt"),
        family("bures"),
        family("bures2"),
    ]


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
