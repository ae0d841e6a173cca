"""Exact moments and free cumulants.

Everything in this module except ``moments_from_density`` works in
exact rational arithmetic: Fuss-Catalan numbers, formal power-series
solution of resolvent polynomials, conversion between moments and free
cumulants, and S-transform coefficient series.  The series machinery
rests on one compositional-inversion primitive:

    G~(u)  = u + m1 u^2 + m2 u^3 + ...      (G(z) written in u = 1/z)
    phi(y) = y / (1 + y R(y))

are compositional inverses of each other, which is the functional
relation R(G(z)) + 1/G(z) = z at series level.  Likewise y -> y S(y)
and z -> z R(z) are mutually inverse when the first moment is nonzero.
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


def _sinv(a, n):
    """Multiplicative inverse of a series with a[0] != 0."""
    if not a or a[0] == 0:
        raise SeriesAmbiguity("series inverse needs a nonzero constant term")
    inv0 = 1 / a[0]
    out = [Fraction(0)] * n
    out[0] = inv0
    for k in range(1, n):
        acc = Fraction(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            if a[j]:
                acc += a[j] * out[k - j]
        out[k] = -inv0 * acc
    return out


def _scompose(f, g, n):
    """f(g(u)) truncated to order n; requires g[0] == 0."""
    if g and g[0] != 0:
        raise SeriesAmbiguity("series composition needs g(0) = 0")
    out = [Fraction(0)] * n
    for c in reversed(f[:n] if len(f) > n else f):
        out = _smul(out, g, n)
        out[0] += c
    return out


def _sreversion(f, n):
    """Compositional inverse of f = f1 u + f2 u^2 + ... with f1 != 0.

    Newton iteration g <- g - (f(g) - u) / f'(g) on truncated series.
    """
    if len(f) < 2 or f[0] != 0 or f[1] == 0:
        raise SeriesAmbiguity("series reversion needs f(0) = 0, f'(0) != 0")
    fprime = [(k + 1) * fk for k, fk in enumerate(f[1:])]
    g = [Fraction(0)] * n
    g[1] = 1 / f[1]
    for _ in range(max(2, n.bit_length() + 2)):
        fg = _scompose(f, g, n)
        fg[1] -= 1  # f(g) - u
        if not any(fg):
            return g
        fpg = _scompose(fprime, g, n)
        corr = _smul(fg, _sinv(fpg, n), n)
        g = [gi - ci for gi, ci in zip(g, corr)]
    # converged as far as the truncation allows
    return g


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

    def order(self):
        return len(self.values) - 1

    def hankel_determinants(self, kmax=4):
        """Determinants of the leading k x k Hankel matrices [m_{i+j}]
        for k <= kmax.  Nonnegativity is a necessary condition for the
        sequence to come from a positive measure."""
        dets = []
        for k in range(1, kmax + 1):
            if 2 * (k - 1) > self.order():
                break
            rows = [[self.values[i + j] for j in range(k)] for i in range(k)]
            dets.append(_det_fraction(rows))
        return dets


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


def _det_fraction(rows):
    n = len(rows)
    m = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


# ---------------------------------------------------------------------------
# formal solution of resolvent polynomials
# ---------------------------------------------------------------------------

def moments_from_resolvent(poly, K):
    """First K+1 exact moments of the measure behind a resolvent polynomial.

    Expands the physical branch w(z) = sum_k m_k z^-k at infinity by
    substituting w = u v(u), u = 1/z, into P(w, z) = 0 and solving for
    the series v by Newton iteration in exact arithmetic.  The seed
    v(0) = m_1 is the positive real root of the leading-order balance,
    which pins the physical sheet: spurious sheets introduced by
    fractional-power clearing never enter the expansion.
    """
    K = int(K)
    if K < 0:
        raise DomainError("moment order must be >= 0")
    if K == 0:
        return MomentSequence((Fraction(1),))
    q = poly.z_degree
    a0 = [poly.coeff(i, 0) for i in range(poly.w_degree + 1)]
    aq = [poly.coeff(i, q) for i in range(poly.w_degree + 1)]
    for j in range(1, q):
        if any(poly.coeff(i, j) for i in range(poly.w_degree + 1)):
            raise SeriesAmbiguity("resolvent polynomial mixes z powers other than 0 and q")
    if any(aq[:q]):
        raise SeriesAmbiguity("z^q column is not divisible by w^q")
    b = aq[q:]  # A_q(w) = w^q B(w)
    if not b or b[0] == 0 or not a0 or a0[0] == 0:
        raise SeriesAmbiguity("degenerate leading structure in resolvent polynomial")

    t0 = -Fraction(a0[0]) / b[0]
    v0 = _nth_root_fraction(t0, q)
    if v0 is None or v0 <= 0:
        raise SeriesAmbiguity("first moment is not a positive rational; cannot expand exactly")

    n = K  # v carries u^0 .. u^(K-1); m_k = v[k-1]
    v = [Fraction(0)] * n
    v[0] = v0

    def eval_at_uv(coeffs, vser):
        """Series of poly(u * v(u)): term c_i (u v)^i lands at offset i."""
        out = [Fraction(0)] * n
        power = [Fraction(1)] + [Fraction(0)] * (n - 1)  # v^i, updated in place
        for i, ci in enumerate(coeffs):
            if i > 0:
                power = _smul(power, vser, n)
            if ci == 0 or i >= n:
                continue
            for k in range(i, n):
                out[k] += ci * power[k - i]
        return out

    a0p = [(i + 1) * c for i, c in enumerate(a0[1:])]
    bp = [(i + 1) * c for i, c in enumerate(b[1:])]

    for _ in range(max(2, n.bit_length() + 2)):
        vq = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for _ in range(q):
            vq = _smul(vq, v, n)
        bs = eval_at_uv(b, v)
        F = [x + y for x, y in zip(eval_at_uv(a0, v), _smul(vq, bs, n))]
        if not any(F):
            break
        # F'(v) = u A0'(uv) + q v^(q-1) B(uv) + v^q u B'(uv)
        vqm1 = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for _ in range(q - 1):
            vqm1 = _smul(vqm1, v, n)
        d1 = [Fraction(0)] + eval_at_uv(a0p, v)[:-1]
        d2 = _smul([q * c for c in vqm1], bs, n)
        d3 = _smul(vq, [Fraction(0)] + eval_at_uv(bp, v)[:-1], n)
        Fp = [x + y + z for x, y, z in zip(d1, d2, d3)]
        if Fp[0] == 0:
            raise SeriesAmbiguity("degenerate linear coefficient in series solve")
        corr = _smul(F, _sinv(Fp, n), n)
        v = [vi - ci for vi, ci in zip(v, corr)]
    else:
        raise SeriesAmbiguity("series Newton iteration did not terminate")
    return MomentSequence((Fraction(1),) + tuple(v[:K]))


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
    relation between y S(y) and z R(z); requires m_1 != 0.
    """
    vals = _moment_values(m)
    if K is None:
        K = len(vals) - 1
    K = min(K, len(vals) - 1)
    kappa = cumulants_from_moments(vals[:K + 1])
    if len(kappa) == 0 or kappa[1] == 0:
        raise DomainError("S-transform series needs a nonzero first moment")
    n = K + 1
    zr = [Fraction(0)] + list(kappa.values)
    zr += [Fraction(0)] * (n - len(zr))
    ys = _sreversion(zr, n)  # y S(y) = s_0 y + s_1 y^2 + ...
    return ys[1:n]


def moments_from_s_series(s, K):
    """Exact moments m_0..m_K from S-transform Taylor coefficients."""
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
    sa = s_series_from_moments(ma, K)
    sb = s_series_from_moments(mb, K)
    prod = _smul(sa, sb, K)
    return moments_from_s_series(prod, K)


# ---------------------------------------------------------------------------
# numeric moments of a sampled density curve
# ---------------------------------------------------------------------------

def moments_from_density(curve, K):
    """Quadrature moments m_0..m_K of a density curve, as floats.

    Each moment is ``resolvent.curve_integral`` of the curve's density
    source; the atom at zero contributes to m_0 only.
    """
    from .resolvent import curve_integral

    return [curve_integral(curve, k) + (curve.atom_at_zero if k == 0 else 0.0)
            for k in range(K + 1)]
