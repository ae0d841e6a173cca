"""Measures represented by factored S-transforms.

A probability measure on [0, oo) with unit-normalised first moment is
described here only through its S-transform, written as a product of
rational factors raised to rational exponents:

    S(w) = prod_k  f_k(w) ** (p_k / q_k)

Free multiplicative convolution multiplies S-transforms, so it is just
factor-list concatenation, and free powers multiply the exponents.  The
Green's function of the measure is recovered from the functional
equation  z * w(z) * S(w(z)) = 1 + w(z);  clearing denominators and
fractional powers turns that equation into a bivariate polynomial
P(w, z) = a0(w) + z^q aq(w) = 0 with exact rational coefficients.
Only this module builds the two z-columns a0 and aq, coprime; the
resolvent module solves that one P numerically, reads its support edges
off it, and the moments module expands it as a series at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from .errors import DomainError, PoleError

__all__ = [
    "MarchenkoPastur",
    "Arcsine",
    "RationalFactor",
    "MeasureSpec",
    "mp",
    "arcsine",
    "identity",
    "rational_factor",
    "s_eval",
    "boxtimes",
    "free_power",
    "build_resolvent",
    "ResolventPolynomial",
]


# ---------------------------------------------------------------------------
# exact univariate polynomials: ascending Fraction arrays (dtype object), on
# which the numpy polynomial routines compute exactly; numpy.polynomial is
# imported on first use only
# ---------------------------------------------------------------------------

def _polygcd(a, b):
    """Monic greatest common divisor of two exact polynomials."""
    while any(b):
        a, b = b, np.polynomial.polynomial.polydiv(a, b)[1]
    return a / a[-1]


def _squarefree(p):
    """Yun's square-free factorisation: [(f, k)] with p = lead * prod f^k,
    each f monic, square-free, of positive degree, coprime to the rest."""
    _P = np.polynomial.polynomial
    dp = _P.polyder(p)
    a = _polygcd(p, dp)
    b, d = _P.polydiv(p, a)[0], _P.polydiv(dp, a)[0]
    out, k = [], 1
    while len(b) > 1:
        d = _P.polysub(d, _P.polyder(b))
        a = _polygcd(b, d)
        if len(a) > 1:
            out.append((a, k))
        b, d = _P.polydiv(b, a)[0], _P.polydiv(d, a)[0]
        k += 1
    return out


def _peval(coeffs, w):
    out = 0j
    for c in reversed(coeffs):
        out = out * w + complex(c)
    return out


def _rational_coerce(x):
    """Exact rational from int, Fraction, float or string like '1/3';
    DomainError for anything else, a zero denominator included."""
    if isinstance(x, (Fraction, int, float, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in {x!r}") from None
        except (ValueError, OverflowError):
            pass
    raise DomainError(f"cannot interpret {x!r} as an exact rational")


def _nth_root_fraction(value, n):
    """Exact n-th root of a positive Fraction, or None if irrational."""
    if value <= 0:
        return None

    def iroot(m):
        # integer Newton from 2^ceil(bits/n) >= m^(1/n), decreasing to the floor
        x = 1 << -(-m.bit_length() // n)
        while True:
            y = ((n - 1) * x + m // x ** (n - 1)) // n
            if y >= x:
                break
            x = y
        return x if x ** n == m else None

    p = iroot(value.numerator)
    q = iroot(value.denominator)
    if p is None or q is None:
        return None
    return Fraction(p, q)


# ---------------------------------------------------------------------------
# S-transform factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarchenkoPastur:
    """Marchenko-Pastur S-transform factor  S(w) = 1 / (1 + c w).

    ``c`` is the rectangularity parameter (column/row ratio of the
    underlying Ginibre block); it must be a positive rational.
    """

    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", _rational_coerce(self.c))
        if self.c <= 0:
            raise DomainError("Marchenko-Pastur rectangularity must be > 0")

    def numer_coeffs(self):
        return (Fraction(1),)

    def denom_coeffs(self):
        return (Fraction(1), self.c)

    def label(self):
        return f"mp({self.c})"


@dataclass(frozen=True)
class Arcsine:
    """Arcsine S-transform factor  S(w) = (w + 2) / (2 (1 + w)).

    This is the S-transform of the law of |U1 + U2|^2 / 2 for free Haar
    unitaries: density 1 / (pi sqrt(x (2 - x))) on [0, 2].
    """

    def numer_coeffs(self):
        return (Fraction(2), Fraction(1))

    def denom_coeffs(self):
        return (Fraction(2), Fraction(2))

    def label(self):
        return "as"


@dataclass(frozen=True)
class RationalFactor:
    """A general rational S-transform factor numer(w) / denom(w).

    Coefficients are ascending and exact.  Both polynomials must be
    nonzero with nonzero constant terms, so that S(0) is finite and
    nonzero and the measure has a finite nonzero first moment.
    """

    numer: tuple
    denom: tuple

    def __post_init__(self):
        num = tuple(Fraction(c) for c in self.numer)
        den = tuple(Fraction(c) for c in self.denom)
        while len(num) > 1 and num[-1] == 0:
            num = num[:-1]
        while len(den) > 1 and den[-1] == 0:
            den = den[:-1]
        object.__setattr__(self, "numer", num)
        object.__setattr__(self, "denom", den)
        if not any(num) or not any(den):
            raise DomainError("rational factor polynomials must be nonzero")
        if num[0] == 0 or den[0] == 0:
            raise DomainError("rational factor needs S(0) finite and nonzero")

    def numer_coeffs(self):
        return self.numer

    def denom_coeffs(self):
        return self.denom

    def label(self):
        ns = ",".join(str(c) for c in self.numer)
        ds = ",".join(str(c) for c in self.denom)
        return f"rat({ns};{ds})"


# ---------------------------------------------------------------------------
# measure specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureSpec:
    """A measure given as a list of (factor, rational exponent) pairs.

    The empty list is the identity measure delta(x - 1), whose
    S-transform is identically 1.
    """

    factors: tuple = ()

    def __post_init__(self):
        cleaned = []
        for factor, expo in self.factors:
            e = _rational_coerce(expo)
            if e != 0:
                cleaned.append((factor, e))
        object.__setattr__(self, "factors", tuple(cleaned))

    def __mul__(self, other):
        return boxtimes(self, other)

    def __pow__(self, s):
        return free_power(self, s)

    def label(self):
        if not self.factors:
            return "1"
        parts = []
        for factor, expo in self.factors:
            base = factor.label()
            if expo == 1:
                parts.append(base)
            elif expo.denominator == 1:
                parts.append(f"{base}^{expo}")
            else:
                parts.append(f"{base}^({expo})")
        return "*".join(parts)

    def __repr__(self):
        return f"MeasureSpec({self.label()!r})"


def mp(c=1):
    """Marchenko-Pastur measure with rectangularity ``c``."""
    return MeasureSpec(((MarchenkoPastur(c), Fraction(1)),))


def arcsine():
    """Positive arcsine measure on [0, 2]."""
    return MeasureSpec(((Arcsine(), Fraction(1)),))


def identity():
    """The neutral element of free multiplication: delta(x - 1)."""
    return MeasureSpec(())


def rational_factor(numer, denom):
    """Measure whose S-transform is the rational function numer/denom."""
    return MeasureSpec(((RationalFactor(tuple(numer), tuple(denom)), Fraction(1)),))


def boxtimes(a, b):
    """Free multiplicative convolution: concatenates the factor lists,
    so the S-transform of the result is the pointwise product."""
    return MeasureSpec(a.factors + b.factors)


def free_power(a, s):
    """Free multiplicative power: every factor exponent is scaled by s > 0."""
    s = _rational_coerce(s)
    if s <= 0:
        raise DomainError("free power exponent must be > 0")
    return MeasureSpec(tuple((f, e * s) for f, e in a.factors))


def s_eval(spec, w):
    """Evaluate S(w) as a complex number.

    Fractional exponents use the principal branch (cut along the
    negative real axis).  Raises PoleError if a factor denominator
    vanishes at ``w``.
    """
    w = complex(w)
    out = complex(1.0)
    for factor, expo in spec.factors:
        den_coeffs = factor.denom_coeffs()
        den = _peval(den_coeffs, w)
        scale = sum(abs(float(c)) * max(1.0, abs(w)) ** i
                    for i, c in enumerate(den_coeffs))
        if abs(den) <= 1e-14 * scale:
            raise PoleError(f"S-transform factor {factor.label()} has a pole at w={w}")
        val = _peval(factor.numer_coeffs(), w) / den
        if expo.denominator == 1:
            out *= val ** int(expo)
        else:
            out *= val ** float(expo)
    return out


def clearing_power(spec):
    """lcm of the exponent denominators (1 for the identity measure)."""
    dens = [e.denominator for _, e in spec.factors]
    return lcm(*dens) if dens else 1


# ---------------------------------------------------------------------------
# resolvent polynomial construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ResolventPolynomial:
    """Bivariate polynomial P(w, z) = a0(w) + z^q aq(w), q = ``clearing_power``.

    ``a0`` and ``aq`` are the two nonzero z-columns of every cleared
    equation, as ascending tuples of exact Fractions in w, coprime, with
    aq divisible by w^q (see ``build_resolvent``).  The physical branch
    w(z) of the functional equation  z w S(w) = 1 + w  is a root of
    P(., z).  When the S-transform carries fractional exponents, both
    sides of the equation are raised to ``clearing_power`` before
    clearing, which introduces spurious root branches; downstream code
    stays off them by seeding continuation on the physical sheet at
    large |z| and holding the Herglotz sign of the Green's function.
    """

    a0: tuple
    aq: tuple
    clearing_power: int
    source: MeasureSpec | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def w_degree(self):
        return max(len(self.a0), len(self.aq)) - 1

    @cached_property
    def float_columns(self):
        """(a0, aq) as float arrays of length ``w_degree + 1``, converted
        once on first numeric use: a rational beyond float range fails
        where it is evaluated, not where it is built."""
        n = self.w_degree + 1
        return tuple(np.array([float(c) for c in col] + [0.0] * (n - len(col)))
                     for col in (self.a0, self.aq))

    def wcoeffs_at(self, z):
        """Coefficients of the univariate polynomial in w at fixed z,
        ascending, as a complex array (not finite where they overflow);
        one row per z for a 1-D numpy array of z."""
        f0, fq = self.float_columns
        z = z[:, None] if isinstance(z, np.ndarray) else complex(z)
        with np.errstate(over="ignore", invalid="ignore"):
            return f0 + np.power(z, self.clearing_power) * fq

    def __repr__(self):
        src = self.source.label() if self.source is not None else "?"
        return (f"ResolventPolynomial(deg_w={self.w_degree}, deg_z={self.clearing_power}, "
                f"q={self.clearing_power}, source={src!r})")


def build_resolvent(spec):
    """Clear the functional equation  z w S(w) = 1 + w  into P(w, z) = 0.

    Both sides are raised to q = lcm of the exponent denominators and
    multiplied through by all factor denominators.  The sign convention
    keeps the (1 + w)^q side positive:

        a0(w) = (1+w)^q * prod(denoms) / g,    aq(w) = -w^q * prod(numers) / g

    with g the monic gcd of the two products, so that a0 and aq are
    coprime: a common factor would be a root of P(., z) at every z.
    For the plain Marchenko-Pastur spec P = (1+w)(1+cw) - z w.
    All coefficients are exact rationals.
    """
    _P = np.polynomial.polynomial
    q = clearing_power(spec)
    num_side = one_side = np.array([Fraction(1)])
    for factor, expo in spec.factors:
        e = int(expo * q)
        num, den = factor.numer_coeffs(), factor.denom_coeffs()
        if e < 0:
            num, den, e = den, num, -e
        num_side = _P.polymul(num_side, _P.polypow(num, e))
        one_side = _P.polymul(one_side, _P.polypow(den, e))
    a0 = _P.polymul(one_side, _P.polypow((Fraction(1), Fraction(1)), q))
    # w divides no a0, so gcd(a0, aq) = gcd(a0, num_side)
    common = _polygcd(a0, num_side)
    a0, num_side = _P.polydiv(a0, common)[0], _P.polydiv(num_side, common)[0]
    return ResolventPolynomial(
        a0=tuple(a0),
        aq=(Fraction(0),) * q + tuple(-c for c in num_side),
        clearing_power=q,
        source=spec,
    )
