"""Exact moments and free cumulants.

Everything in this module except ``moments_from_density`` works in
exact rational arithmetic: Fuss-Catalan numbers, the moments of a
resolvent polynomial, conversion between moments and free cumulants,
and S-transform coefficient series.  Every series comes from one
primitive, J.C.P. Miller's power recurrence for f = g^alpha
(``_spower``).  A series inverse is its alpha = -1, and the
compositional inverse g of f = f1 u + f2 u^2 + ... follows by Lagrange
inversion, [y^k] g = (1/k) [u^(k-1)] (f/u)^(-k).  The free transforms
enter as compositional inverses:

    G~(u)  = u + m1 u^2 + m2 u^3 + ...      (G(z) written in u = 1/z)
    phi(y) = y / (1 + y R(y))

are inverse to each other, which is the functional relation
R(G(z)) + 1/G(z) = z at series level.  Likewise y -> y S(y) and
z -> z R(z) are mutually inverse when the first moment is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, SeriesAmbiguity
from .measures import _nth_root_fraction, _rational_coerce

__all__ = [
    "fuss_catalan",
    "MomentSequence",
    "CumulantSequence",
    "moments_from_resolvent",
    "cumulants_from_moments",
    "moments_from_cumulants",
    "s_series_from_moments",
    "moments_from_s_series",
    "boxtimes_moments",
    "moments_from_density",
]


def fuss_catalan(s, n):
    """Fuss-Catalan number  C_s(n) = binom(s n + n, n) / (s n + 1).

    ``s`` may be any rational with s n + 1 != 0; the binomial is the
    falling-factorial generalisation, so the result is an exact
    Fraction.  For s = 1 this is the Catalan sequence 1, 1, 2, 5, 14...
    """
    s = _rational_coerce(s)
    n = int(n)
    if n < 0:
        raise DomainError("fuss_catalan needs n >= 0")
    denom = s * n + 1
    if denom == 0:
        raise DomainError("fuss_catalan undefined at s n + 1 = 0")
    a = s * n + n
    prod = Fraction(1)
    for i in range(n):
        prod = prod * (a - i) / (i + 1)
    return prod / denom


# ---------------------------------------------------------------------------
# truncated power series over Fractions (lists of length n, index = power)
# ---------------------------------------------------------------------------

def _smul(a, b, n):
    out = [Fraction(0)] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            top = min(n - i, len(b))
            for j in range(top):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def _sderiv(a):
    return [k * ak for k, ak in enumerate(a)][1:]


def _spower(c, d, alpha, f0, n):
    """f_0 .. f_(n-1) of the series f with c f' = alpha d f, f(0) = f0.

    J.C.P. Miller's power recurrence: with c = g and d = g' the solution
    is f = g^alpha (f0 = g(0)^alpha); c(0) != 0.  The coefficient of u^k
    in c f' - alpha d f = 0 gives f_(k+1) from f_0 .. f_k.
    """
    f, c0 = [Fraction(f0)], Fraction(c[0])
    for k in range(n - 1):
        acc = alpha * sum(d[i] * f[k - i] for i in range(min(k + 1, len(d))) if d[i])
        acc -= sum(c[i] * (k + 1 - i) * f[k + 1 - i]
                   for i in range(1, min(k + 1, len(c))) if c[i])
        f.append(acc / ((k + 1) * c0))
    return f[:n]


def _sinv(a, n):
    """Multiplicative inverse of a series with a[0] != 0."""
    if not a or a[0] == 0:
        raise SeriesAmbiguity("series inverse needs a nonzero constant term")
    a = a[:n]
    return _spower(a, _sderiv(a), -1, 1 / Fraction(a[0]), n)


def _sreversion(f, n):
    """Compositional inverse g of f = f1 u + f2 u^2 + ... with f1 != 0.

    Lagrange inversion: [y^k] g = (1/k) [u^(k-1)] (f/u)^(-k).
    """
    if len(f) < 2 or f[0] != 0 or f[1] == 0:
        raise SeriesAmbiguity("series reversion needs f(0) = 0, f'(0) != 0")
    h = f[1:n]  # f/u
    hp = _sderiv(h)
    return [Fraction(0)] + [_spower(h, hp, -k, Fraction(h[0]) ** -k, k)[-1] / k
                            for k in range(1, n)]


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentSequence:
    """Exact moments m_0 .. m_K of a probability measure (m_0 = 1)."""

    values: tuple

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals or vals[0] != 1:
            raise DomainError("moment sequences start at m_0 = 1")

    def __getitem__(self, k):
        return self.values[k]

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class CumulantSequence:
    """Exact free cumulants kappa_1 .. kappa_K (indexed from 1)."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

    def __getitem__(self, k):
        if k < 1:
            raise IndexError("cumulants are indexed from 1")
        return self.values[k - 1]

    def __len__(self):
        return len(self.values)


# ---------------------------------------------------------------------------
# formal solution of resolvent polynomials
# ---------------------------------------------------------------------------

def moments_from_resolvent(poly, K):
    """First K+1 exact moments of the measure behind a resolvent polynomial.

    The physical branch w(z) = sum_(k>=1) m_k z^-k of a0(w) + z^q aq(w) = 0
    satisfies (z w)^q = a0(w) / b(w) with b = -aq / w^q, that is
    w = u phi(w) in u = 1/z with phi = (a0/b)^(1/q).  Lagrange inversion
    gives m_n = (1/n) [w^(n-1)] (a0/b)^(n/q) in exact arithmetic, each
    power from the recurrence a0 b f' = (n/q) (a0' b - a0 b') f.
    The seed f(0) = m_1^n takes m_1 = phi(0) as the positive rational
    root of a0(0)/b(0), which pins the physical sheet: spurious sheets
    introduced by fractional-power clearing never enter the expansion.
    """
    K = int(K)
    if K < 0:
        raise DomainError("moment order must be >= 0")
    if K == 0:
        return MomentSequence((Fraction(1),))
    q, a0 = poly.clearing_power, poly.a0
    b = [-c for c in poly.aq[q:]]
    if any(poly.aq[:q]) or not b or b[0] == 0 or not a0 or a0[0] == 0:
        raise SeriesAmbiguity("degenerate leading structure in resolvent polynomial")

    m1 = _nth_root_fraction(Fraction(a0[0]) / b[0], q)
    if m1 is None or m1 <= 0:
        raise SeriesAmbiguity("first moment is not a positive rational; cannot expand exactly")

    c = _smul(a0, b, K)
    d = [x - y for x, y in zip(_smul(_sderiv(a0), b, K), _smul(a0, _sderiv(b), K))]
    return MomentSequence((Fraction(1),) + tuple(
        _spower(c, d, Fraction(n, q), m1 ** n, n)[-1] / n for n in range(1, K + 1)))


# ---------------------------------------------------------------------------
# moment <-> cumulant conversion and S-transform coefficient series
# ---------------------------------------------------------------------------

def _moment_values(m):
    vals = m.values if isinstance(m, MomentSequence) else tuple(Fraction(v) for v in m)
    if not vals or vals[0] != 1:
        raise DomainError("expected a moment sequence with m_0 = 1")
    return vals


def cumulants_from_moments(m):
    """Free cumulants kappa_1..kappa_K from exact moments m_0..m_K."""
    vals = _moment_values(m)
    K = len(vals) - 1
    if K == 0:
        return CumulantSequence(())
    n = K + 2
    gt = [Fraction(0), Fraction(1)] + list(vals[1:])  # u + m1 u^2 + ...
    gt += [Fraction(0)] * (n - len(gt))
    phi = _sreversion(gt, n)  # phi(y) = y / (1 + y R(y))
    phi_over_y = phi[1:] + [Fraction(0)]
    ratio = _sinv(phi_over_y, n)  # 1 + kappa_1 y + kappa_2 y^2 + ...
    return CumulantSequence(tuple(ratio[1:K + 1]))


def moments_from_cumulants(kappa):
    """Exact moments m_0..m_K from free cumulants kappa_1..kappa_K."""
    vals = kappa.values if isinstance(kappa, CumulantSequence) else tuple(
        Fraction(v) for v in kappa)
    K = len(vals)
    if K == 0:
        return MomentSequence((Fraction(1),))
    n = K + 2
    one_plus_yr = [Fraction(1)] + list(vals)
    one_plus_yr += [Fraction(0)] * (n - len(one_plus_yr))
    phi_over_y = _sinv(one_plus_yr, n)
    phi = [Fraction(0)] + phi_over_y[:-1]
    gt = _sreversion(phi, n)  # u + m1 u^2 + ...
    return MomentSequence((Fraction(1),) + tuple(gt[2:K + 2]))


def s_series_from_moments(m, K=None):
    """Taylor coefficients [s_0, ..., s_{K-1}] of S(w) at w = 0.

    Computed from moments through cumulants and the composition-inverse
    relation between y S(y) and z R(z); requires m_1 != 0 and moments to
    order K.
    """
    vals = _moment_values(m)
    order = len(vals) - 1
    K = order if K is None else K
    if K > order:
        raise DomainError(f"S-transform series to order {K} needs moments to order {K}; "
                          f"got order {order}")
    if K == 0:
        return []
    kappa = cumulants_from_moments(vals[:K + 1])
    if kappa[1] == 0:
        raise DomainError("S-transform series needs a nonzero first moment")
    n = K + 1
    zr = [Fraction(0)] + list(kappa.values)
    zr += [Fraction(0)] * (n - len(zr))
    ys = _sreversion(zr, n)  # y S(y) = s_0 y + s_1 y^2 + ...
    return ys[1:n]


def moments_from_s_series(s, K):
    """Exact moments m_0..m_K from S-transform Taylor coefficients."""
    if K == 0:
        return MomentSequence((Fraction(1),))
    svals = [Fraction(v) for v in s]
    if not svals or svals[0] == 0:
        raise DomainError("S(0) must be nonzero")
    n = K + 1
    ys = [Fraction(0)] + svals
    ys += [Fraction(0)] * (n - len(ys))
    zr = _sreversion(ys[:n], n)  # z R(z) = kappa_1 z + kappa_2 z^2 + ...
    return moments_from_cumulants(zr[1:K + 1])


def boxtimes_moments(ma, mb, K):
    """Moments of the free multiplicative convolution of two measures,
    via the product of their S-transform coefficient series.  This is
    an algebraic route independent of any resolvent polynomial."""
    orders = [len(_moment_values(m)) - 1 for m in (ma, mb)]
    if not 0 <= K <= min(orders):
        raise DomainError(f"boxtimes_moments to order {K} needs both inputs to that order; "
                          f"got orders {orders[0]} and {orders[1]}")
    sa = s_series_from_moments(ma, K)
    sb = s_series_from_moments(mb, K)
    prod = _smul(sa, sb, K)
    return moments_from_s_series(prod, K)


# ---------------------------------------------------------------------------
# numeric moments of a sampled density curve
# ---------------------------------------------------------------------------

def moments_from_density(source, K):
    """Quadrature moments m_0..m_K of any density source, as floats.

    Each moment is ``resolvent.curve_integral`` of the source (a
    ``closedform.Family``, a ``resolvent.density_source`` or a sampled
    curve); the atom at zero contributes to m_0 only.
    """
    from .resolvent import curve_integral

    return [curve_integral(source, k) + (source.atom if k == 0 else 0.0)
            for k in range(K + 1)]
