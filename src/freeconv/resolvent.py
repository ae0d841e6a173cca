"""Numerical solution of resolvent polynomials.

Given the cleared polynomial P(w, z) = 0 from ``build_resolvent``, this
module finds all roots in w at fixed z (companion-matrix eigenvalues,
each polished by one Newton step), follows the physical branch from the
w ~ m1/z asymptote at |z| >= 4R (R the upper support edge, where the
moment bound m_n <= m1 R^(n-1) leaves one root near m1/z; higher for
clearing powers above 6) down to the real axis by tangent-predictor
continuation, and performs the Stieltjes inversion

    rho(x) = -(1/pi) * Im G(x + i0),    G = (1 + w)/z

on the real axis itself: inside the support w(x + i0) is the member with
Im w < 0 of a conjugate pair of roots of the real polynomial P(., x).
Along x values known in advance (a sampling grid, a CDF table, a
potential grid, a batch of quadrature nodes) one stacked eigenvalue
call solves all root sets, and
the continuation steps through them under its one acceptance test.
Support edges are the critical values of the explicit inverse
x^q = h(w) of P(w, x) = 0, with every root identified in exact
arithmetic.  Every mass, moment and CDF of a density, continued or
closed-form, comes from one quadrature (``integral``) and one CDF table
(``tabulated_cdf``) over a ``DensitySource``.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchAmbiguity,
    DegreeDropError,
    DomainError,
    EdgeWarning,
    MultiIntervalError,
    NoConvergence,
    QuadratureError,
)
from .measures import _polygcd, _squarefree

__all__ = [
    "roots_at",
    "BranchTracker",
    "green",
    "density",
    "density_curve",
    "density_source",
    "support_edges",
    "potential_derivative",
    "DensityCurve",
    "cdf_interpolator",
]

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def _horner_pair(coeffs, x):
    """Value and derivative of an ascending-coefficient polynomial."""
    p = coeffs[-1]
    dp = 0j
    for k in range(len(coeffs) - 2, -1, -1):
        dp = dp * x + p
        p = p * x + coeffs[k]
    return p, dp


def _polished(coeffs, eig, scale, z):
    """The companion eigenvalues ``eig`` of ``coeffs``, each polished by
    one Newton step; NoConvergence when a residual is too large."""
    n = len(coeffs) - 1
    clist = coeffs.tolist()
    roots = []
    for w in eig:
        p, dp = _horner_pair(clist, w)
        if dp != 0:
            # one Newton step, kept where it lowers the residual
            w1 = w - p / dp
            p1 = _horner_pair(clist, w1)[0]
            if abs(p1) <= abs(p):
                w, p = w1, p1
        if abs(p) > 1e-12 * scale * max(1.0, abs(w)) ** n:
            raise NoConvergence(f"root residual {abs(p):.2e} exceeds tolerance at z={z}")
        roots.append(w)
    return roots


def roots_at(poly, z):
    """All complex roots of P(., z), with residuals below
    1e-12 times the coefficient magnitude scale.

    The roots are the eigenvalues of the companion matrix (LAPACK,
    balanced), each polished by one Newton step.  If the leading
    w-coefficients vanish at this z the polynomial degree drops, and the
    remaining lower-degree root set is returned.
    DegreeDropError is raised only if every coefficient vanishes,
    NoConvergence when the coefficients at z are not finite or a
    residual is too large.

    For a 1-D numpy array of z the companion matrices are stacked into one
    eigenvalue call, and row k is the list ``roots_at(poly, z[k])``
    returns, or None where that call would drop the degree or raise:
    the caller makes the scalar call there.
    """
    if isinstance(z, np.ndarray):
        return _root_rows(poly, z.astype(complex))
    coeffs = poly.wcoeffs_at(z)
    if not np.isfinite(coeffs).all():
        raise NoConvergence(f"coefficients are not finite at z={z}")
    mags = np.abs(coeffs)
    scale = mags.max()
    if scale == 0.0:
        raise DegreeDropError(f"all coefficients vanish at z={z}")
    n = len(coeffs) - 1
    while n > 0 and mags[n] <= 1e-13 * scale:
        n -= 1
    coeffs = coeffs[:n + 1]
    companion = np.zeros((n, n), dtype=complex)
    companion[:1] = -coeffs[-2::-1] / coeffs[-1]  # the first row, if any
    companion.flat[n::n + 1] = 1.0  # the subdiagonal
    try:
        eig = np.linalg.eigvals(companion).tolist()
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"companion eigenvalues failed at z={z}: {exc}") from exc
    return _polished(coeffs, eig, scale, z)


def _root_rows(poly, z):
    """The rows of ``roots_at`` over the 1-D array ``z``."""
    coeffs = poly.wcoeffs_at(z)
    mags = np.abs(coeffs)
    scale = mags.max(axis=1)
    rows = [None] * len(z)
    # finite coefficients and an intact degree; the scalar call decides the rest
    full = np.flatnonzero(np.isfinite(coeffs).all(axis=1) & (mags[:, -1] > 1e-13 * scale))
    if not full.size:
        return rows
    # the scalar path builds its one matrix with fewer numpy calls
    n = coeffs.shape[1] - 1
    companions = np.zeros((len(full), n, n), dtype=complex)
    companions[:, 0] = -coeffs[full, -2::-1] / coeffs[full, -1:]
    companions[:, range(1, n), range(n - 1)] = 1.0
    try:
        eigs = np.linalg.eigvals(companions).tolist()
    except np.linalg.LinAlgError:
        return rows
    for k, eig in zip(full.tolist(), eigs):
        try:
            rows[k] = _polished(coeffs[k], eig, scale[k], z[k])
        except NoConvergence:
            pass
    return rows


# ---------------------------------------------------------------------------
# physical-branch continuation
# ---------------------------------------------------------------------------

def _seed_radius(q):
    """The radius, in units of |m1/z|, about the seed target m1/z within
    which the physical root must be the only root.  The q roots near
    m1/z are w(z e^(2 pi i k/q)), whose targets lie 2 sin(pi/q) |m1/z|
    apart; a radius of half that keeps them apart for q > 6."""
    return 0.5 if q <= 6 else math.sin(math.pi / q)


class BranchTracker:
    """Follows the physical branch w(z) of a resolvent polynomial.

    The tracker is seeded at large |z| where w ~ m1/z identifies the
    physical sheet: the root nearest to m1/z must be the only one within
    ``_seed_radius`` of it.  It is then moved along straight segments
    with adaptive steps: a first-order prediction of w must land on a
    root of the new root set with the second-nearest root at least
    twice as far away, the prediction error must stay small against the
    local sheet separation, and the matched root must keep the Herglotz
    sign Im G <= 0 required of a Cauchy transform in the closed upper
    half plane.
    Together with the asymptotic seed this keeps the continuation off
    the spurious sheets that fractional-power clearing introduces.

    Single-owner mutable state: use one tracker per thread.
    """

    def __init__(self, poly, seed):
        self.poly = poly
        # w ~ m1/z at large |z|, where a0(0) + aq[q] m1^q = 0
        q = poly.clearing_power
        lead = poly.aq[q] if len(poly.aq) > q else 0
        if not lead or -poly.a0[0] / lead <= 0:
            raise BranchAmbiguity("P(w, z) has no asymptote w ~ m1/z with m1 > 0")
        m1 = float(-poly.a0[0] / lead) ** (1.0 / q)
        z0 = complex(seed)
        if abs(z0) < 50.0:
            raise DomainError("tracker seed must sit at large |z| (asymptotic sheet)")
        roots = roots_at(self.poly, z0)
        target = m1 / z0
        radius = _seed_radius(q) * abs(target)
        roots.sort(key=lambda r: abs(r - target))
        w0 = roots[0]
        if abs(w0 - target) > radius:
            raise BranchAmbiguity(
                f"no root near the asymptotic seed m1/z at z={z0}")
        if len(roots) > 1 and abs(roots[1] - target) <= radius:
            raise BranchAmbiguity(
                f"two roots near the asymptotic seed m1/z at z={z0}")
        self._columns = [col.tolist() for col in poly.float_columns]
        self.z = z0
        self.w = w0
        self.slope = self._slope(w0, z0)

    # -- internals ---------------------------------------------------------

    def _physical_ok(self, w, z, tol=1e-9):
        """Herglotz sign test: a genuine Cauchy transform has Im G <= 0
        on the closed upper half plane, which the spurious sheets
        introduced by fractional-power clearing violate on approach to
        the real axis.  (Checking the uncleared functional relation
        with principal-branch powers is not sound here: along a descent
        toward a hard edge the continued fractional power winds around
        w = -1 and leaves the principal sheet even though the branch is
        the physical one; rephasing by clearing roots of unity makes
        the check pass on every sheet instead.  The sign test plus
        margin-checked continuation from the asymptotic seed is what
        actually pins the branch.)"""
        if z.imag < 0.0:
            return True
        g = (1.0 + w) / z
        return g.imag <= tol * max(1.0, abs(g))

    def _slope(self, w, z):
        """dw/dz = -P_z / P_w by implicit differentiation of
        P = a0(w) + z^q aq(w): P_w = a0'(w) + z^q aq'(w) and
        P_z = q z^(q-1) aq(w), by Horner on the float columns as Python
        lists, so that an accepted step costs no second coefficient
        evaluation (None at a branch point, where P_w vanishes)."""
        q = self.poly.clearing_power
        da0 = _horner_pair(self._columns[0], w)[1]
        aq, daq = _horner_pair(self._columns[1], w)
        zq1 = z ** (q - 1)
        pw = da0 + zq1 * z * daq
        if pw == 0:
            return None
        return -q * zq1 * aq / pw

    def move_to(self, z_target, roots=None):
        """Continue the physical branch to ``z_target`` and return w there.

        Tangent-predictor stepping in absolute z increments: each step
        is accepted only when the first-order prediction of w lands
        unambiguously on one root of the new root set, with a
        prediction error small against the local sheet separation.
        Near a branch point the derivative blows up, the prediction
        degrades, and the accepted step length falls in proportion,
        which is exactly the resolution needed to cross just above an
        edge without exchanging sheets.  Once the remaining distance
        fits in one step the target is assigned exactly, so the real
        axis (x + 0j) is reached without rounding jitter from a long
        journey.  ``roots``, the root set at
        ``z_target`` if the caller has it, serves the first step when
        that step reaches the target; every other step solves its own.
        """
        z_target = complex(z_target)
        z_cur = self.z
        if z_target == z_cur:
            return self.w
        w, slope = self.w, self.slope
        h = abs(z_target - z_cur)
        while z_cur != z_target:
            remaining = z_target - z_cur
            dist = abs(remaining)
            floor = 1e-13 * abs(z_cur)
            # geometric prior: sheet structure evolves on the scale of |z|
            h = min(h, max(0.5 * abs(z_cur), floor))
            if h >= dist:
                z_new = z_target
                dz = remaining
            else:
                dz = remaining * (h / dist)
                z_new = z_cur + dz
            w_pred = w + slope * dz if slope is not None else w
            if roots is None or z_new != z_target:
                try:
                    roots = roots_at(self.poly, z_new)
                except (NoConvergence, DegreeDropError):
                    roots = []
            ok = bool(roots)
            if ok:
                by_dist = sorted(roots, key=lambda r: abs(r - w_pred))
                cand = by_dist[0]
                d1 = abs(cand - w_pred)
                d2 = abs(by_dist[1] - w_pred) if len(by_dist) > 1 else math.inf
                sep = min((abs(r - cand) for r in roots if r != cand),
                          default=math.inf)
                # margin: second-nearest at least twice as far from the
                # prediction as the match, and prediction error small
                # against the separation of the matched root from its peers
                if d1 > 0 and (d2 < 2.0 * d1 or d1 > 0.2 * sep):
                    ok = False
                elif not self._physical_ok(cand, z_new):
                    ok = False
            if ok:
                w = cand
                z_cur = z_new
                h *= 2.0
                slope = self._slope(w, z_new)
            else:
                h = 0.5 * min(h, dist)
                if h < floor:
                    raise BranchAmbiguity(
                        f"branches could not be separated near z={z_new}")
            roots = None  # a prefetched set serves the first step only
        self.z, self.w, self.slope = z_target, w, slope
        return w


def green(tracker, z):
    """Green's function G(z) = (1 + w(z)) / z on the physical branch."""
    return (1.0 + tracker.move_to(z)) / z


# ---------------------------------------------------------------------------
# cached evaluator for Stieltjes inversion on the real axis
# ---------------------------------------------------------------------------

class _BranchEvaluator:
    """One tracker that lands on the real axis Im z = 0.

    Inside the support w(x + i0) is the member with Im w < 0 of a
    conjugate pair of roots of the real polynomial P(., x); the margin
    test of ``move_to`` keeps it apart from its conjugate 2 |Im w| away.
    Walking along the axis between queries continues from the previous
    point on the branch.  Every query lies inside the support (lo, hi),
    so a walk along the axis crosses no edge, and the re-seed rule only
    trades walk cost against descent cost, on the support width, the
    scale on which w(x) varies: a move beyond 0.1 (hi - lo) starts
    afresh with a descent from x + i max(50, R (1 + 3/(2 r))), R = hi
    the upper support edge and r the ``_seed_radius`` (1/2 up to
    clearing power 6, so 4R there): w(z) = sum m_n z^(-n) with
    m_n <= m1 R^(n-1), so
    |w - m1/z| <= |m1/z| rho/(1 - rho) for rho = R/|z|, which at that
    height puts the physical root within 2r/3 |m1/z| of the seed target
    m1/z and every other root near m1/z beyond r |m1/z|, where the
    tracker checks that the physical root is alone.  So queries are
    cheap in order (a sampling grid, the node batches of ``integral``)
    and a scattered one costs a short descent.  The root sets of an
    array of queries come from one stacked ``roots_at`` call, whose row
    a step that reaches its point in one move takes.
    """

    def __init__(self, poly, lo, hi):
        self.poly = poly
        self._height = max(50.0, hi * (1.0 + 1.5 / _seed_radius(poly.clearing_power)))
        self._reseed = 0.1 * (hi - lo)
        self._tracker = None

    def seeded(self, x):
        """A fresh tracker at x + i max(50, R (1 + 3/(2 r)))."""
        return BranchTracker(self.poly, seed=complex(x, self._height))

    def boundary_green(self, x):
        """G(x + i0) = (1 + w)/x at a scalar x, or over a 1-D array of x
        visited in order, whose root sets come from one stacked
        ``roots_at`` call."""
        xs = np.atleast_1d(x).tolist()
        rows = roots_at(self.poly, np.array(xs, dtype=complex)) if len(xs) > 1 else [None]
        out = []
        for xi, roots in zip(xs, rows):
            tr = self._tracker
            if tr is None or abs(xi - tr.z.real) > self._reseed:
                tr = self._tracker = self.seeded(xi)
            out.append((1.0 + tr.move_to(complex(xi, 0.0), roots)) / xi)
        return np.array(out) if np.ndim(x) else out[0]


def _evaluator(poly, lo, hi):
    ev = poly._cache.get("evaluator")
    if ev is None:
        ev = poly._cache["evaluator"] = _BranchEvaluator(poly, lo, hi)
    return ev


def _inverted_density(ev, lo, hi, x):
    """rho(x) = -Im G(x + i0)/pi inside (lo, hi), else 0, at a scalar x or
    over a 1-D array of x visited in order; negative values are clipped
    to 0, and logged below -1e-12."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    inside = (lo < xs) & (xs < hi)
    rho = np.zeros(len(xs))
    rho[inside] = -ev.boundary_green(xs[inside]).imag / math.pi
    for v, r in zip(xs[rho < -1e-12].tolist(), rho[rho < -1e-12].tolist()):
        log.warning("density %.3e at x=%s clipped to zero", r, v)
    rho = np.where(rho > 0.0, rho, 0.0)
    return rho if np.ndim(x) else float(rho[0])


# ---------------------------------------------------------------------------
# support edges
# ---------------------------------------------------------------------------

def _real_roots(f):
    """The real roots of a square-free exact polynomial, as floats; the
    root w = -1 that a0 carries from (1 + w)^q is recognised exactly."""
    roots = np.polynomial.polynomial.polyroots(f.astype(float)).tolist()
    real = [r.real for r in roots if abs(r.imag) <= 1e-9 * max(1.0, abs(r))]
    if np.polynomial.polynomial.polyval(-1, f) == 0:
        real = [-1.0 if abs(r + 1.0) <= 1e-6 else r for r in real]
    return real


def support_edges(poly):
    """The single continuous support interval [x_lo, x_hi], read off the
    critical values of the explicit inverse.

    ``build_resolvent`` makes P(w, z) = a0(w) + z^q aq(w), so off the
    support the physical branch solves x^q = h(w) = -a0(w)/aq(w), and
    there w(x) = x G(x) - 1 is real and strictly monotone: it rises
    from 0 as x falls from +inf to the upper edge, and falls from
    w0 = mu({0}) - 1 as x rises from 0 through a gap below the support.
    Each edge is therefore h^(1/q) at a critical point of h:

    * upper: the smallest positive critical point, else w -> +inf;
    * lower: 0 unless w0, the largest zero of a0 in [-1, 0), has
      multiplicity exactly q (w is then analytic at x = 0, so there is
      a gap); then the nearest critical point below w0, else w -> -inf.

    Identity and multiplicity of every root are decided in exact
    arithmetic, on the coprime a0 and aq; only the values of simple
    roots are floats.  The multiple zeros of a0 (critical value 0) and
    of aq (poles) are no critical points, and h is a product of the
    square-free factors of a0 and aq, never their expanded columns,
    which lose the digits of h beside a cluster of roots.  Any other
    critical value inside (lo, hi)
    is a possible interior edge: MultiIntervalError when the physical
    branch reaches that critical point there.  DomainError when the
    support is unbounded or has no interior.

    Cached with the edges for ``density_source``: the atom 1 + w0
    (Belinschi 2003), the lower edge power, m/q at a hard edge (w0 of
    multiplicity m != q, rho ~ x^(q/m - 1)), else 2 (square root), and
    the lower floor, 0 but at a hard edge: there m roots meet at w0, a
    cluster that double precision resolves only to about eps^(1/m), so
    the density is not evaluated within 1e-11, 1e-7 or 1e-4 of the
    support width, for q = 1, 2 and 3 or more.
    """
    cached = poly._cache.get("support")
    if cached is not None:
        return cached[:2]
    q, _P = poly.clearing_power, np.polynomial.polynomial
    a0, aq = np.polynomial.polyutils.as_series([poly.a0, poly.aq])
    sf0, lead = _squarefree(a0), -float(a0[-1] / aq[-1])
    factors = [(f.astype(float), k) for f, k in sf0] + [
        (g.astype(float), -j) for g, j in _squarefree(aq)]

    def x_at(h):
        return h ** (1.0 / q) if h >= 0.0 else math.nan

    def x_crit(w):
        return x_at(lead * math.prod(_P.polyval(w, f) ** k for f, k in factors))

    def x_limit(sign):  # x(w) as w -> sign * inf
        d = len(a0) - len(aq)
        h = lead * sign ** d
        return x_at(h if d == 0 else 0.0 if d < 0 else math.copysign(math.inf, h))

    dh = _P.polysub(_P.polymul(_P.polyder(a0), aq), _P.polymul(a0, _P.polyder(aq)))
    # multiple zeros of a0 (h = 0) and of aq (poles of h) are no critical points
    crit = sorted(w for f, _ in _squarefree(dh)
                  for w in _real_roots(_P.polydiv(f, _polygcd(f, _P.polymul(a0, aq)))[0]))
    zeros = [(w, k) for f, k in sf0 for w in _real_roots(f) if -1.0 <= w < 0.0]
    if not zeros:
        raise DomainError("P(., 0) has no zero in [-1, 0), where w(0-) = mu({0}) - 1 lies")
    w0, mult = max(zeros)
    above = [w for w in crit if w > 0.0]
    below = [w for w in crit if w < w0] if mult == q else []
    hi = x_crit(above[0]) if above else x_limit(1)
    lo = 0.0 if mult != q else x_crit(below[-1]) if below else x_limit(-1)
    if not lo < hi < math.inf:
        raise DomainError(f"no bounded continuous spectrum: the edges are {lo} and {hi}")
    lo, hi = float(lo), float(hi)
    for wc in crit:
        xc = x_crit(wc)
        if wc in above[:1] + below[-1:] or not lo < xc < hi:
            continue
        # just above xc: on the axis a branch that reaches wc is the double root
        z = complex(xc, 1e-6 * min(xc - lo, hi - xc))
        w = z * green(_evaluator(poly, lo, hi).seeded(xc), z) - 1.0
        if abs(w - wc) <= 1e-2 * max(1.0, abs(wc)):
            raise MultiIntervalError(
                f"the physical branch reaches the critical point w={wc:.6g} at "
                f"x={xc:.6g}, inside ({lo:.6g}, {hi:.6g}): not a single interval")
    floor = 0.0 if mult == q else (1e-4 if q >= 3 else 1e-7 if q == 2 else 1e-11) * (hi - lo)
    poly._cache["support"] = (lo, hi, 1.0 + w0, mult / q if mult != q else 2.0, floor)
    return lo, hi


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def density(poly, x, edge_margin=0.01):
    """Spectral density at a real scalar x, or over a 1-D array of x
    visited in order, by Stieltjes inversion.

    Evaluates Im G at x + i0 on the real axis, as ``density_source``
    does.
    Returns 0 outside the support.
    Emits one EdgeWarning when any x lies within ``edge_margin`` of an
    edge (fraction of the support width); the values are still returned.
    """
    lo, hi = support_edges(poly)
    a, b = lo + edge_margin * (hi - lo), hi - edge_margin * (hi - lo)
    near = [v for v in np.atleast_1d(x).tolist() if lo < v < a or b < v < hi]
    if near:
        warnings.warn(f"density at x={near[0]} is within the {edge_margin:.0%} edge margin",
                      EdgeWarning, stacklevel=2)
    return _inverted_density(_evaluator(poly, lo, hi), lo, hi, x)


# ---------------------------------------------------------------------------
# density sources: the one quadrature and the one CDF table
# ---------------------------------------------------------------------------

# nodes of a tabulated CDF, half of them in each edge's variable t
_CDF_NODES = 1024


@dataclass(frozen=True, eq=False)
class DensitySource:
    """A density as ``integral`` and ``tabulated_cdf`` read it: the
    continued density of ``density_source``, or a ``closedform.Family``,
    which is a density source with a closed-form density.

    ``density(x)`` is the continuous density on the open ``support``
    (lo, hi), at a scalar x or over a 1-D array of x (a grid, a CDF
    table or a quadrature batch, in the order of a walk), ``atom`` the
    weight of a point mass at zero.  With ``edge_powers`` (p_lo, p_hi),
    x = lo + t^p_lo and x = hi - t^p_hi turn an edge behaviour
    d^(-alpha) in the distance d to the edge into a bounded integrand
    in t once p >= 1/(1 - alpha);
    at p = 1/(1 - alpha) it tends to a nonzero constant at t = 0.  No
    density is evaluated within ``edge_floors`` of an edge, and a strip
    there is closed by that constant (nonzero floors sit only at a hard
    edge at zero).
    """

    support: tuple
    atom: float
    density: object
    edge_powers: tuple
    edge_floors: tuple


def integral(source, k=0, x=None):
    """(Integral of x^k rho over the continuous part up to ``x``, error
    estimate), by SciPy's vectorised adaptive 21-point Gauss-Kronrod in
    each edge's variable t from the floor t_f to the middle of the
    support; ``x`` defaults to the upper edge.  Each node is evaluated
    once: the new nodes of a batch go to the density as one array in
    ascending t, walking away from the edge, which for a continued
    density is one stacked root solve and a walk between neighbours.  A floor strip closes with the
    exact leading term t_f g(t_f)/(p k + 1) of the integrand
    g(t) ~ A t^(p k) at a hard edge at zero, x = t^p.  Each caller holds
    the error estimate to its own bound.
    """
    from scipy import integrate

    rho = source.density
    lo, hi = source.support
    mid = 0.5 * (lo + hi)
    top = hi if x is None else x

    total = err = 0.0
    for edge, p, f, s in zip(source.support, source.edge_powers, source.edge_floors,
                             (1.0, -1.0)):
        # the distances from this edge that lie below ``top``
        near, far = (f, min(top, mid) - lo) if s > 0 else (max(hi - top, f), hi - mid)
        if near >= far:
            continue

        seen = {}  # cubature evaluates overlapping node sets

        def batch(t):
            t = t[:, 0].tolist()
            new = sorted({ti for ti in t if ti not in seen})
            xs = [edge + s * ti ** p for ti in new]
            for ti, v, r in zip(new, xs, rho(np.array(xs)).tolist()):
                seen[ti] = r * v ** k * p * ti ** (p - 1.0)
            return np.array([seen[ti] for ti in t])

        if f > 0.0 and near == f:  # the floor strip lies below ``top``
            t_f = f ** (1.0 / p)
            total += t_f * batch(np.array([[t_f]]))[0] / (p * k + 1.0)
        res = integrate.cubature(batch, [near ** (1.0 / p)], [far ** (1.0 / p)], rule="gk21",
                                 rtol=1e-10, atol=1e-10, max_subdivisions=200)
        total += float(res.estimate)
        err += float(res.error)
    return total, err


def tabulated_cdf(source):
    """Vectorised CDF of a density source, atom at zero included.

    The cumulative trapezoid rule runs on equally spaced nodes of each
    edge's variable t, from the floor to the middle of the support.  The
    first cell, from t = 0 to the first node, takes the integrand at
    that node: no density is evaluated on an edge or inside a floor.
    The table is scaled to the continuous mass 1 - atom.
    """
    mid = 0.5 * sum(source.support)
    tables = []
    for edge, p, f, s in zip(source.support, source.edge_powers, source.edge_floors,
                             (1.0, -1.0)):
        t = np.linspace(f ** (1.0 / p), abs(mid - edge) ** (1.0 / p), _CDF_NODES // 2)
        inner = (t[1:] if t[0] == 0.0 else t).tolist()
        rho = source.density(np.array([edge + s * ti ** p for ti in inner])).tolist()
        g = [r * p * ti ** (p - 1.0) for r, ti in zip(rho, inner)]
        t, g = np.array([0.0] + inner), np.array(g[:1] + g)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(t))])
        tables.append((edge + s * t ** p, cum))
    (x_lo, c_lo), (x_hi, c_hi) = tables
    # the upper table runs from hi down to the middle, which both share
    xs = np.concatenate([x_lo, x_hi[-2::-1]])
    cum = np.concatenate([c_lo, c_lo[-1] + c_hi[-1] - c_hi[-2::-1]])
    atom = source.atom
    target = 1.0 - atom
    if cum[-1] > 0:
        cum *= target / cum[-1]

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, xs, cum, left=0.0, right=target)
        out = np.where(x >= 0.0, out + atom, 0.0)
        return out if out.ndim else float(out)

    return cdf


@dataclass(frozen=True, eq=False)
class DensityCurve(DensitySource):
    """A density source with its density sampled inside the support.

    ``points`` is a tuple of (x, rho) pairs on a grid clustered toward
    the support edges; ``atom``, the weight of a point mass at the
    origin (for a continued density the exact 1 + w0 of
    ``support_edges``), is written as ``atom_at_zero`` in JSON.
    """

    points: tuple

    def to_csv(self):
        lines = ["x,rho"]
        lines += [f"{_fmt(x)},{_fmt(r)}" for x, r in self.points]
        return "\n".join(lines) + "\n"

    def to_json(self):
        import json

        return json.dumps({
            "support": [self.support[0], self.support[1]],
            "atom_at_zero": self.atom,
            "points": [[x, r] for x, r in self.points],
        })


def _fmt(v):
    return repr(float(v))


def density_source(poly):
    """The continued density of ``poly`` as a density source.

    Support, atom at zero, lower edge power and lower floor from
    ``support_edges``, upper edge power 2 with no floor, the inversion
    of ``density``.  QuadratureError when the quadrature of the
    continuous mass and the atom miss one by more than 1e-5, the bound
    of ``curve_integral`` (where the expression is no probability
    measure).
    """
    lo, hi = support_edges(poly)
    atom, p_lo, f_lo = poly._cache["support"][2:]
    ev = _evaluator(poly, lo, hi)

    def rho(x):
        return _inverted_density(ev, lo, hi, x)

    source = DensitySource((lo, hi), atom, rho, (p_lo, 2.0), (f_lo, 0.0))
    mass = curve_integral(source, 0)
    if abs(atom + mass - 1.0) > 1e-5:
        raise QuadratureError(f"continuous mass {mass:.9g} and atom {atom:.9g} at zero "
                              f"do not add up to one")
    return source


def curve_integral(curve, k=0):
    """Integral of x^k rho(x) over the continuous part of a density curve
    or any density source, by ``integral``; QuadratureError when the
    error estimate exceeds 1e-5."""
    val, err = integral(curve, k)
    if err > 1e-5:
        raise QuadratureError(f"curve quadrature error estimate {err:.2e} too large")
    return val


def _check_grid(n_points, edge_margin):
    if n_points < 1:
        raise DomainError(f"point count must be at least 1, not {n_points}")
    if not 0.0 <= edge_margin < 0.5:
        raise DomainError(f"edge margin {edge_margin} is outside [0, 1/2)")


def _sampled(source, n_points, edge_margin):
    """``source`` with its density sampled on Chebyshev-style nodes of
    [lo + m W, hi - m W], for the margin m in [0, 1/2) and the support
    width W."""
    lo, hi = source.support
    a = lo + edge_margin * (hi - lo)
    b = hi - edge_margin * (hi - lo)
    theta = (np.arange(n_points) + 0.5) * math.pi / n_points
    grid = a + (b - a) * 0.5 * (1.0 - np.cos(theta))
    points = tuple(zip(grid.tolist(), source.density(grid).tolist()))
    return DensityCurve(source.support, source.atom, source.density, source.edge_powers,
                        source.edge_floors, points)


def density_curve(poly, n_points=512, edge_margin=0.01):
    """The ``density_source`` of ``poly``, sampled on a grid clustered
    toward the edges that leaves ``edge_margin`` of the support width
    free at each edge."""
    _check_grid(n_points, edge_margin)  # before the source, whose mass check is a quadrature
    return _sampled(density_source(poly), n_points, edge_margin)


def curve_from_callable(source, n_points=512, edge_margin=0.01):
    """Any density source, such as a ``closedform.Family``, sampled on
    the grid of ``density_curve``."""
    _check_grid(n_points, edge_margin)
    return _sampled(source, n_points, edge_margin)


def cdf_interpolator(poly):
    """A vectorised CDF callable of the continued density of ``poly``,
    atom at zero included: the ``tabulated_cdf`` of its
    ``density_source``."""
    return tabulated_cdf(density_source(poly))


def potential_derivative(poly, x):
    """V'(x) = 2 Re G(x + i0) for x strictly inside the support, at a
    scalar x or over a 1-D array of x (one stacked solve).

    By conjugate symmetry of the physical branch across the cut this
    equals the limit of G(x + i eps) + G(x - i eps).
    """
    lo, hi = support_edges(poly)
    outside = [v for v in np.atleast_1d(x).tolist() if not lo < v < hi]
    if outside:
        raise DomainError(f"x={outside[0]} is outside the open support ({lo}, {hi})")
    return 2.0 * _evaluator(poly, lo, hi).boundary_green(x).real
