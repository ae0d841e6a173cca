"""Independent oracles for checking freeconv answers.

Nothing here calls freeconv: measures are described by their factor
lists, and every reference value is derived from the S-transform
directly.  With phi(w) = (1 + w) / S(w) = prod_a (1 + a w)^beta_a:

* moments, by Lagrange inversion: m_n = (1/n) [w^(n-1)] phi(w)^n;
* support edges, as critical values of x(w) = phi(w) / w on the real
  line (the upper edge is the minimum over w > 0);
* free cumulants of mp(c): kappa_n = c^(n-1);
* single-ring radial CDF (Haagerup-Larsen): S(F(r) - 1) = 1 / r^2;
* densities where the cleared polynomial P(., x) is real of w-degree
  <= 3 (Cardano): rho(x) = |Im w| / (pi x) for the one non-real pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class Measure:
    """A measure as a product of factors ``(kind, c, exponent)`` where
    kind is "mp" (Marchenko-Pastur with rectangularity c) or "as"
    (the arcsine law on [0, 2], c unused)."""

    factors: tuple

    def text(self):
        parts = []
        for kind, c, e in self.factors:
            base = f"mp({c})" if kind == "mp" else "as"
            if e == 1:
                parts.append(base)
            elif e.denominator == 1:
                parts.append(f"{base}^{e}")
            else:
                parts.append(f"{base}^({e})")
        return "*".join(parts)

    def betas(self):
        """{a: beta_a} with phi(w) = prod (1 + a w)^beta_a."""
        out = {Fraction(1): Fraction(1)}
        for kind, c, e in self.factors:
            if kind == "mp":
                out[c] = out.get(c, Fraction(0)) + e
            else:
                out[Fraction(1)] += e
                out[Fraction(1, 2)] = out.get(Fraction(1, 2), Fraction(0)) - e
        return {a: b for a, b in out.items() if b != 0}

    def integer_exponents(self):
        return all(e.denominator == 1 for _, _, e in self.factors)

    def atom(self):
        """Mass at zero: the largest atom of the factors (mp(c > 1) has
        1 - 1/c); exact for positive integer exponents."""
        return max([1.0 - 1.0 / float(c) for kind, c, _ in self.factors
                    if kind == "mp" and c > 1] + [0.0])


def mp(c, e=1):
    return Measure((("mp", Fraction(c), Fraction(e)),))


def times(*ms):
    return Measure(sum((m.factors for m in ms), ()))


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------

def _binomial_series(a, alpha, n):
    """Coefficients of (1 + a w)^alpha up to w^(n-1)."""
    out = [Fraction(1)]
    for k in range(n - 1):
        out.append(out[-1] * (alpha - k) / (k + 1) * a)
    return out


def moments(measure, K):
    """Exact moments m_0..m_K by Lagrange inversion."""
    betas = list(measure.betas().items())
    out = [Fraction(1)]
    for n in range(1, K + 1):
        series = [_binomial_series(a, n * beta, n) for a, beta in betas]
        head = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for factor in series[:-1]:
            head = [sum(head[i] * factor[k - i] for i in range(k + 1)) for k in range(n)]
        last = series[-1]
        out.append(sum(head[i] * last[n - 1 - i] for i in range(n)) / n)
    return out


# ---------------------------------------------------------------------------
# transforms, edges and densities
# ---------------------------------------------------------------------------

def s_transform(measure, w):
    """S(w) for real w with every factor base positive."""
    out = 1.0
    for kind, c, e in measure.factors:
        if kind == "mp":
            base = 1.0 / (1.0 + float(c) * w)
        else:
            base = (w + 2.0) / (2.0 * (1.0 + w))
        out *= base ** float(e)
    return out


def support(measure):
    """(lo, hi) of the continuous part from the critical values of
    x(w) = phi(w) / w."""
    betas = [(float(a), float(b)) for a, b in measure.betas().items()]
    # w * prod(1 + a w) * d/dw log x(w) = 0, as a polynomial in w
    P = np.polynomial.polynomial
    full = np.array([1.0])
    for a, _ in betas:
        full = P.polymul(full, [1.0, a])
    eq = -full
    for i, (a, b) in enumerate(betas):
        term = np.array([0.0, b * a])
        for j, (a2, _) in enumerate(betas):
            if j != i:
                term = P.polymul(term, [1.0, a2])
        eq = P.polyadd(eq, term)
    crit = [r.real for r in P.polyroots(eq) if abs(r.imag) < 1e-9 * (1 + abs(r))]

    def x_of(w):
        val = 1.0 / w
        for a, b in betas:
            base = 1.0 + a * w
            if base < 0 and b.is_integer():
                val *= base ** int(b)
            elif base > 0:
                val *= base ** b
            else:
                return None
        return val

    his = [x_of(w) for w in crit if w > 0]
    if sum(b for _, b in betas) == 1.0:  # x(w) tends to a finite limit at w = +inf
        his.append(math.prod(a ** b for a, b in betas))
    hi = min(v for v in his if v is not None)
    los = [x_of(w) for w in crit if w < 0]
    los = [v for v in los if v is not None and 0.0 < v < hi]
    return (max(los) if los else 0.0), hi


def _cleared_poly(measure, x):
    """Ascending coefficients of P(., x): both sides of z w S(w) = 1 + w
    raised to q, the lcm of the exponent denominators, and cleared."""
    P = np.polynomial.polynomial
    q = math.lcm(*(e.denominator for _, _, e in measure.factors))
    one_side = P.polypow([1.0, 1.0], q)
    num_side = P.polypow([0.0, 1.0], q)
    for kind, c, e in measure.factors:
        numer, denom = ([1.0], [1.0, float(c)]) if kind == "mp" else ([2.0, 1.0], [2.0, 2.0])
        one_side = P.polymul(one_side, P.polypow(denom, int(e * q)))
        num_side = P.polymul(num_side, P.polypow(numer, int(e * q)))
    return P.polysub(one_side, x ** q * num_side)


def cardano_applies(measure):
    """True when P(., x) is a real polynomial of w-degree <= 3, so at
    most one non-real root pair exists on the real axis."""
    return measure.integer_exponents() and len(_cleared_poly(measure, 1.0)) <= 4


def _nonreal_roots(measure, x):
    roots = np.polynomial.polynomial.polyroots(_cleared_poly(measure, x))
    return [r for r in roots if r.imag > 1e-12 * (1.0 + abs(r))]


def density(measure, x):
    """Density of the continuous part at x (Cardano measures only)."""
    pair = _nonreal_roots(measure, x)
    return pair[0].imag / (math.pi * x) if pair else 0.0


def branch_densities(measure, x):
    """|Im w| / (pi x) over every non-real root w of P(., x): the
    physical density at x is one of these values."""
    return [w.imag / (math.pi * x) for w in _nonreal_roots(measure, x)]


def potential_derivative(measure, x, rho):
    """V'(x) = 2 Re G(x + i0) = 2 (1 + Re w) / x on the root w whose
    density value matches ``rho``, the reference density at x.  Arcsine
    factors make P(., x) symmetric under w -> -2 - w, which maps the
    physical root (Re w > -1, continuing w = -1 at the hard edge) to a
    spurious one with the same density; the larger Re w is taken."""
    roots = _nonreal_roots(measure, x)
    match = [w for w in roots if abs(w.imag / (math.pi * x) - rho) <= 1e-6 * rho]
    w = max(match, key=lambda r: r.real) if match else min(
        roots, key=lambda r: abs(r.imag / (math.pi * x) - rho))
    return 2.0 * (1.0 + w.real) / x


# ---------------------------------------------------------------------------
# Monte Carlo acceptance
# ---------------------------------------------------------------------------

def ks_bound(n, samples):
    """KS acceptance for a pooled Wishart spectrum of ``samples`` draws
    at dimension n: a sampling term in 1/sqrt(n samples) (generous,
    since eigenvalue rigidity makes the real fluctuation smaller) plus a
    finite-n edge bias of order 1/n."""
    return 1.5 / math.sqrt(n * samples) + 2.0 / n
