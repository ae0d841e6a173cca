"""Numerical solution of resolvent polynomials.

Given the cleared polynomial P(w, z) = 0 from ``build_resolvent``, this
module finds all roots in w at fixed z (simultaneous Aberth-Ehrlich
iteration), follows the physical branch from the w ~ m1/z asymptote at
large |z| down to the real axis by tangent-predictor continuation, and
performs the Stieltjes inversion

    rho(x) = -(1/pi) * lim_{eps->0} Im G(x + i eps),    G = (1 + w)/z

with a two-epsilon Richardson extrapolation.  Support edges are located
by a scan of the physical branch followed by exact-rational bisection
on the number of real roots of P(., x) (Sturm chains), which changes
where the physical root pair collides on the axis.  Every mass, moment
and CDF of a density, continued or closed-form, comes from one
quadrature (``integral``) and one CDF table (``tabulated_cdf``) over a
``DensitySource``.
"""

from __future__ import annotations

import cmath
import logging
import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import (
    BranchAmbiguity,
    DegreeDropError,
    DomainError,
    EdgeWarning,
    MultiIntervalError,
    NoConvergence,
    QuadratureError,
    SeriesAmbiguity,
)
from .measures import s_eval
from .moments import moments_from_resolvent

__all__ = [
    "roots_at",
    "BranchTracker",
    "physical_branch",
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

DEFAULT_EPS_PAIR = (1e-6, 1e-7)
SEED_HEIGHT = 1e6


# ---------------------------------------------------------------------------
# simultaneous root finding
# ---------------------------------------------------------------------------

def _horner_pair(coeffs, x):
    """Value and derivative of an ascending-coefficient polynomial."""
    p = coeffs[-1]
    dp = 0j
    for k in range(len(coeffs) - 2, -1, -1):
        dp = dp * x + p
        p = p * x + coeffs[k]
    return p, dp


def _aberth(coeffs, warm=None, tol=1e-14, max_iter=500):
    """All roots of an ascending-coefficient complex polynomial.

    Simultaneous Aberth-Ehrlich iteration on the monic-scaled
    polynomial.  Initial points sit on a perturbed circle whose radius
    is the Fujiwara root bound, unless ``warm`` supplies starting
    values (one per root) from a nearby polynomial.
    """
    n = len(coeffs) - 1
    if n < 1:
        return []
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    if n == 1:
        return [-monic[0]]

    if warm is not None and len(warm) == n:
        w = list(warm)
        # collapse-proof: split exact duplicates
        for i in range(n):
            for j in range(i):
                if w[i] == w[j]:
                    w[i] += (1e-8 + 1e-8j) * (1.0 + abs(w[i]))
    else:
        radius = 2.0 * max(abs(monic[n - k]) ** (1.0 / k) for k in range(1, n + 1))
        radius = max(radius, 1e-12)
        w = [radius * cmath.exp(2j * math.pi * (k + 0.37) / n + 0.41j)
             for k in range(n)]

    # backward-stable stop: Horner cannot evaluate p below roundoff times the
    # term-magnitude sum, so roots with residual under that floor are done
    eps_floor = 4.0 * (n + 1) * 2.220446049250313e-16

    def _noise_scale(x):
        ax = abs(x)
        s = 0.0
        xp = 1.0
        for c in monic:
            s += abs(c) * xp
            xp *= ax
        return s

    for _ in range(max_iter):
        shift = 0.0
        for i in range(n):
            p, dp = _horner_pair(monic, w[i])
            if p == 0 or abs(p) <= eps_floor * _noise_scale(w[i]):
                continue
            acc = 0j
            for j in range(n):
                if j != i:
                    d = w[i] - w[j]
                    if d == 0:
                        d = 1e-14 * (1.0 + abs(w[i]))
                    acc += 1.0 / d
            if dp == 0:
                w[i] += 1e-7 * (1.0 + abs(w[i]))
                shift = math.inf
                continue
            newton = p / dp
            denom = 1.0 - newton * acc
            delta = newton if denom == 0 else newton / denom
            w[i] -= delta
            rel = abs(delta) / (1.0 + abs(w[i]))
            if rel > shift:
                shift = rel
        if shift <= tol:
            break
    else:
        raise NoConvergence(f"root iteration hit the {max_iter}-iteration cap")

    # final Newton polish (skipped for roots already at the noise floor)
    for i in range(n):
        for _ in range(2):
            p, dp = _horner_pair(monic, w[i])
            if dp != 0 and abs(p) > eps_floor * _noise_scale(w[i]):
                step = p / dp
                if abs(step) < 1e-2 * (1.0 + abs(w[i])):
                    w[i] -= step
    # cluster near-coincident roots (multiple roots converge to a fuzzy ball)
    for i in range(n):
        for j in range(i):
            if abs(w[i] - w[j]) <= 1e-10 * (1.0 + abs(w[i])):
                mean = 0.5 * (w[i] + w[j])
                w[i] = w[j] = mean
    return w


def roots_at(poly, z, initial=None, return_info=False):
    """All complex roots of P(., z), with residuals below
    1e-12 times the coefficient magnitude scale.

    If the leading w-coefficients vanish at this z the polynomial
    degree drops; the remaining lower-degree root set is returned and
    the number of dropped roots is reported through ``return_info``.
    DegreeDropError is raised only if every coefficient vanishes.
    """
    coeffs = poly.wcoeffs_at(z)
    scale = max(abs(c) for c in coeffs)
    if scale == 0.0:
        raise DegreeDropError(f"all coefficients vanish at z={z}")
    dropped = 0
    while len(coeffs) > 1 and abs(coeffs[-1]) <= 1e-13 * scale:
        coeffs.pop()
        dropped += 1
    roots = _aberth(coeffs, warm=initial if initial and len(initial) == len(coeffs) - 1 else None)
    for w in roots:
        wpow = max(1.0, abs(w)) ** (len(coeffs) - 1)
        res = abs(_horner_pair(coeffs, w)[0])
        if res > 1e-12 * scale * wpow:
            raise NoConvergence(f"root residual {res:.2e} exceeds tolerance at z={z}")
    if return_info:
        return roots, {"degree_dropped": dropped}
    return roots


# ---------------------------------------------------------------------------
# physical-branch continuation
# ---------------------------------------------------------------------------

class BranchTracker:
    """Follows the physical branch w(z) of a resolvent polynomial.

    The tracker is seeded at large |z| where w ~ m1/z identifies the
    physical sheet, then moved along straight segments with adaptive
    steps: a first-order prediction of w must land on a root of the new
    root set with the second-nearest root at least twice as far away,
    the prediction error must stay small against the local sheet
    separation, and the matched root must keep the Herglotz sign
    Im G <= 0 required of a Cauchy transform in the upper half plane.
    Together with the asymptotic seed this keeps the continuation off
    the spurious sheets that fractional-power clearing introduces.

    Single-owner mutable state: use one tracker per thread.
    """

    def __init__(self, poly, seed=None, m1=None, record_path=False):
        self.poly = poly
        if m1 is None:
            if poly.source is not None:
                m1 = (1.0 / s_eval(poly.source, 0.0)).real
            else:
                m1 = 1.0
        self.m1 = m1
        z0 = complex(seed) if seed is not None else SEED_HEIGHT * 1j
        if abs(z0) < 50.0:
            raise DomainError("tracker seed must sit at large |z| (asymptotic sheet)")
        roots = roots_at(self.poly, z0)
        target = m1 / z0
        roots.sort(key=lambda r: abs(r - target))
        w0 = roots[0]
        if abs(w0 - target) > 0.5 * abs(target):
            raise BranchAmbiguity(
                f"no root near the asymptotic seed m1/z at z={z0}")
        self.z = z0
        self.w = w0
        self.path = [(z0, w0)] if record_path else None

    # -- internals ---------------------------------------------------------

    def _physical_ok(self, w, z, tol=1e-9):
        """Herglotz sign test: a genuine Cauchy transform has Im G <= 0
        everywhere in the upper half plane, which the spurious sheets
        introduced by fractional-power clearing violate on approach to
        the real axis.  (Checking the uncleared functional relation
        with principal-branch powers is not sound here: along a descent
        toward a hard edge the continued fractional power winds around
        w = -1 and leaves the principal sheet even though the branch is
        the physical one; rephasing by clearing roots of unity makes
        the check pass on every sheet instead.  The sign test plus
        margin-checked continuation from the asymptotic seed is what
        actually pins the branch.)"""
        if z.imag <= 0.0:
            return True
        g = (1.0 + w) / z
        return g.imag <= tol * max(1.0, abs(g))

    def _slope(self, w, z):
        """dw/dz = -P_z / P_w by implicit differentiation (None at a
        branch point, where P_w vanishes)."""
        poly = self.poly
        wcoeffs = poly.wcoeffs_at(z)
        pw = 0j
        for k in range(len(wcoeffs) - 1, 0, -1):
            pw = pw * w + k * wcoeffs[k]
        zp = [1.0 + 0j]
        for _ in range(poly.z_degree):
            zp.append(zp[-1] * z)
        pz = 0j
        for i in range(poly.w_degree, -1, -1):
            ci = sum(float(cj) * j * zp[j - 1]
                     for j, cj in enumerate(poly.coeffs[i]) if j and cj)
            pz = pz * w + ci
        if pw == 0:
            return None
        return -pz / pw

    def move_to(self, z_target, floor_factor=1e-13):
        """Continue the physical branch to ``z_target`` and return w there.

        Tangent-predictor stepping in absolute z increments: each step
        is accepted only when the first-order prediction of w lands
        unambiguously on one root of the new root set, with a
        prediction error small against the local sheet separation.
        Near a branch point the derivative blows up, the prediction
        degrades, and the accepted step length falls in proportion,
        which is exactly the resolution needed to cross just above an
        edge without exchanging sheets.  Once the remaining distance
        fits in one step the target is assigned exactly, so arbitrarily
        small final offsets (x + i*1e-12) are reached without rounding
        jitter from a long journey.
        """
        z_target = complex(z_target)
        z_cur = self.z
        if z_target == z_cur:
            return self.w
        w = self.w
        roots = None
        slope = self._slope(w, z_cur)
        h = abs(z_target - z_cur)
        while z_cur != z_target:
            remaining = z_target - z_cur
            dist = abs(remaining)
            floor = floor_factor * abs(z_cur)
            # geometric prior: sheet structure evolves on the scale of |z|
            h = min(h, max(0.5 * abs(z_cur), floor))
            if h >= dist:
                z_new = z_target
                dz = remaining
            else:
                dz = remaining * (h / dist)
                z_new = z_cur + dz
            w_pred = w + slope * dz if slope is not None else w
            ok = True
            try:
                roots = roots_at(self.poly, z_new,
                                 initial=roots if roots is not None else None)
            except (NoConvergence, DegreeDropError):
                ok = False
                roots = None
            if ok and roots:
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
            elif ok:
                ok = False
            if ok:
                w = cand
                z_cur = z_new
                h *= 2.0
                slope = self._slope(w, z_new)
                if self.path is not None:
                    self.path.append((z_new, w))
            else:
                h = 0.5 * min(h, dist)
                if h < floor:
                    raise BranchAmbiguity(
                        f"branches could not be separated near z={z_new}")
        self.z = z_target
        self.w = w
        return w


def physical_branch(tracker, z_target):
    """The physical-branch root w(z_target), reached by continuation."""
    return tracker.move_to(z_target)


def green(tracker, z):
    """Green's function G(z) = (1 + w(z)) / z on the physical branch."""
    w = tracker.move_to(z)
    return (1.0 + w) / z


# ---------------------------------------------------------------------------
# cached two-level evaluator for Stieltjes inversion
# ---------------------------------------------------------------------------

class _BranchEvaluator:
    """Trackers pinned to lines Im z = eps for a small set of eps levels.

    Walking horizontally between density queries reuses the previous
    root configuration, which makes dense grids and adaptive quadrature
    over the same polynomial cheap.  Near a support edge the default
    epsilon pair cannot resolve the limit (the Richardson residual
    grows like (eps/d)^2 at distance d), so when the caller passes the
    edge distance the pair is tightened to eps <= d/1000, quantized to
    powers of ten to keep the tracker count bounded.
    """

    def __init__(self, poly, eps_pair=DEFAULT_EPS_PAIR):
        self.poly = poly
        self.eps_pair = eps_pair
        self._trackers = {}

    def _tracker_at(self, eps, x):
        tr = self._trackers.get(eps)
        # long horizontal moves may cross support edges where the sheets
        # braid; a fresh vertical descent is both safer and cheaper there
        if tr is not None and abs(x - tr.z.real) > 0.1 * max(1.0, abs(tr.z.real)):
            tr = None
        if tr is None:
            tr = BranchTracker(self.poly, seed=complex(x, SEED_HEIGHT))
            tr.move_to(complex(x, eps))
            self._trackers[eps] = tr
        return tr

    def _pair_for(self, edge_distance):
        if edge_distance is None:
            return self.eps_pair
        e1 = 10.0 ** min(math.floor(math.log10(max(edge_distance, 1e-13))) - 3,
                         round(math.log10(self.eps_pair[0])))
        return (e1, 0.1 * e1)

    def green_pair(self, x, edge_distance=None):
        out = []
        for eps in self._pair_for(edge_distance):
            tr = self._tracker_at(eps, x)
            w = tr.move_to(complex(x, eps))
            out.append((1.0 + w) / complex(x, eps))
        return out

    def extrapolated_green(self, x, edge_distance=None):
        """Richardson extrapolation of G(x + i eps) linearly in eps."""
        e1, e2 = self._pair_for(edge_distance)
        g1, g2 = self.green_pair(x, edge_distance)
        return g2 + (g2 - g1) * (e2 / (e1 - e2))


def _evaluator(poly, eps_pair=DEFAULT_EPS_PAIR):
    key = ("evaluator", eps_pair)
    ev = poly._cache.get(key)
    if ev is None:
        ev = _BranchEvaluator(poly, eps_pair)
        poly._cache[key] = ev
    return ev


# ---------------------------------------------------------------------------
# support edges
# ---------------------------------------------------------------------------

def _upper_bound_for_scan(poly):
    """Rough upper bound for the support from the 12th moment.

    For a single-interval measure m_12^(1/12) underestimates the upper
    edge by at most a modest subexponential factor, so twice that value
    is a safe scan ceiling.
    """
    try:
        m12 = moments_from_resolvent(poly, 12)[12]
        return max(1.0, 2.0 * float(m12) ** (1.0 / 12.0))
    except SeriesAmbiguity:
        return 64.0


def _wcoeffs_exact(poly, x):
    """Exact Fraction coefficients of P(., x) at rational x, trimmed."""
    x = Fraction(x)
    coeffs = []
    for i in range(poly.w_degree + 1):
        c = Fraction(0)
        xp = Fraction(1)
        for j in range(poly.z_degree + 1):
            cij = poly.coeff(i, j)
            if cij:
                c += cij * xp
            xp *= x
        coeffs.append(c)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _polyrem(a, b):
    """Remainder of exact polynomial division (ascending Fractions)."""
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        if a[-1] != 0:
            factor = a[-1] / lead
            shift = len(a) - 1 - db
            for k in range(db + 1):
                a[shift + k] -= factor * b[k]
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _real_root_count_exact(poly, x):
    """Number of distinct real w-roots of P(., x) at exact rational x.

    Sturm-chain sign-variation count between -inf and +inf, in exact
    arithmetic.  At a support edge the physical conjugate pair merges
    onto the real axis, so this count changes by at least two; unlike a
    discriminant sign it also detects edges where several pairs collide
    at once (even-order discriminant zeros).
    """
    p = _wcoeffs_exact(poly, x)
    if len(p) - 1 < 1:
        return 0
    chain = [p, [i * p[i] for i in range(1, len(p))]]
    while len(chain[-1]) > 1:
        rem = _polyrem(chain[-2], chain[-1])
        if not any(rem):
            break
        chain.append([-c for c in rem])
    if not any(chain[-1]):
        chain.pop()

    def variations(signs):
        prev = 0
        count = 0
        for s in signs:
            if s == 0:
                continue
            if prev != 0 and s != prev:
                count += 1
            prev = s
        return count

    sign_neg = []
    sign_pos = []
    for q in chain:
        lead = q[-1]
        s = 1 if lead > 0 else -1 if lead < 0 else 0
        deg = len(q) - 1
        sign_pos.append(s)
        sign_neg.append(s if deg % 2 == 0 else -s)
    return variations(sign_neg) - variations(sign_pos)


def support_edges(poly, scan_points=512, eps_pair=DEFAULT_EPS_PAIR, rel_tol=1e-10):
    """Locate the single continuous support interval [x_lo, x_hi].

    A scan of the extrapolated physical branch along the real axis
    brackets the points where |Im w| switches on; each bracket is then
    refined by bisecting on the exact-rational count of real roots of
    P(., x), which changes exactly where the physical pair collides on
    the axis (robust even when several pairs collide at once and the
    discriminant zero has even order).  A hard edge at zero (indicator
    already on at the smallest scan abscissa) is reported as exactly 0;
    edges closer to zero than the scan resolution are indistinguishable
    from a hard edge.

    Raises MultiIntervalError if the indicator switches more than twice.
    """
    cached = poly._cache.get("support")
    if cached is not None:
        return cached
    hi_bound = _upper_bound_for_scan(poly)
    ev = _evaluator(poly, eps_pair)
    xs = np.linspace(hi_bound / scan_points * 0.5, hi_bound, scan_points)
    imw = np.empty(scan_points)
    for k, x in enumerate(xs):
        g = ev.extrapolated_green(x)
        imw[k] = abs(x * g.imag)
    vmax = imw.max()
    # a normalized measure with a single-interval continuous part has
    # max |Im w| = pi max(x rho) of order one; epsilon residue from pure
    # atoms sits many orders below
    if vmax <= 1e-6:
        raise DomainError("no continuous spectrum found on the scan range")
    inside = imw > max(1e-9, 1e-5 * vmax)
    flips = np.flatnonzero(np.diff(inside.astype(int)))
    if inside.sum() == 0:
        raise DomainError("no continuous spectrum found on the scan range")
    if len(flips) > 2:
        raise MultiIntervalError(
            f"support indicator switched {len(flips)} times; expected a single interval")
    if inside[0]:
        lo = 0.0
        up_idx = flips[0] if len(flips) else None
    else:
        lo_idx = flips[0]
        lo = _refine_edge(poly, xs[lo_idx], xs[lo_idx + 1], rel_tol)
        up_idx = flips[1] if len(flips) > 1 else None
    if up_idx is None:
        raise MultiIntervalError("support does not close below the scan ceiling")
    hi = _refine_edge(poly, xs[up_idx], xs[up_idx + 1], rel_tol)
    poly._cache["support"] = (lo, hi)
    return lo, hi


def _refine_edge(poly, x_a, x_b, rel_tol):
    a, b = Fraction(float(x_a)), Fraction(float(x_b))
    ca = _real_root_count_exact(poly, a)
    cb = _real_root_count_exact(poly, b)
    if ca == cb:
        # bracket does not isolate a root-count change; tests guard that
        # this path stays unused for the supported families
        log.warning("real-root count did not change on [%s, %s]", x_a, x_b)
        return 0.5 * (float(x_a) + float(x_b))
    tol = Fraction(rel_tol) * max(1, b)
    while b - a > tol:
        mid = (a + b) / 2
        if _real_root_count_exact(poly, mid) == ca:
            a = mid
        else:
            b = mid
    return float((a + b) / 2)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def density(poly, x, eps_pair=DEFAULT_EPS_PAIR, edge_margin=0.01):
    """Spectral density at real x by Stieltjes inversion.

    Evaluates Im G at x + i*eps for the two epsilon levels and
    extrapolates linearly to eps = 0.  Returns 0 outside the support.
    Emits EdgeWarning when x falls within ``edge_margin`` of a support
    edge (fraction of the support width); the value is still returned.
    """
    lo, hi = support_edges(poly, eps_pair=eps_pair)
    if x <= lo or x >= hi:
        return 0.0
    width = hi - lo
    if x < lo + edge_margin * width or x > hi - edge_margin * width:
        warnings.warn(f"density at x={x} is within the {edge_margin:.0%} edge margin",
                      EdgeWarning, stacklevel=2)
    return _density_inner(poly, x, eps_pair)


def _density_inner(poly, x, eps_pair=DEFAULT_EPS_PAIR):
    ev = _evaluator(poly, eps_pair)
    rho = -ev.extrapolated_green(x).imag / math.pi
    if rho < 0.0:
        if rho < -1e-12:
            log.warning("density %.3e at x=%s clipped to zero", rho, x)
        rho = 0.0
    return rho


# ---------------------------------------------------------------------------
# density sources: the one quadrature and the one CDF table
# ---------------------------------------------------------------------------

# nodes of a tabulated CDF, half of them in each edge's variable t
_CDF_NODES = 1024


@dataclass(frozen=True, eq=False)
class DensitySource:
    """A density as ``integral`` and ``tabulated_cdf`` read it;
    ``closedform.Family`` has the same attributes.

    ``density(x)`` is the continuous density on the open ``support``
    (lo, hi), ``atom`` the weight of a point mass at zero.  With
    ``edge_powers`` (p_lo, p_hi), x = lo + t^p_lo and x = hi - t^p_hi
    turn an edge behaviour d^(-alpha) in the distance d to the edge
    into a bounded integrand in t once p >= 1/(1 - alpha).  Strips of
    widths ``edge_floors`` at the edges are closed by a power-law fit.
    """

    support: tuple
    atom: float
    density: object
    edge_powers: tuple
    edge_floors: tuple


def _edge_fit(rho, edge, f, direction):
    """(rho at distance f, alpha) of the power law rho ~ C d^(-alpha)
    through d = f and d = 2f from ``edge`` on the side ``direction``
    (alpha < 0 at a vanishing edge), or None where rho is too small."""
    r1 = rho(edge + direction * f)
    r2 = rho(edge + direction * 2.0 * f)
    if r1 <= 1e-12 or r2 <= 1e-12:
        return None
    return r1, min(max(math.log2(r1 / r2), -6.0), 0.97)


def _edge_head(rho, edge, f, direction, k):
    """Integral of x^k rho over the strip of width ``f`` at ``edge``
    under the power law of ``_edge_fit``."""
    fit = _edge_fit(rho, edge, f, direction)
    if fit is None:
        return 0.0
    r1, alpha = fit
    if edge == 0.0 and direction > 0:
        # x = d exactly: integral of C d^(k - alpha) on [0, f]
        if k + 1 - alpha <= 0:
            return 0.0
        return r1 * f ** alpha * f ** (k + 1 - alpha) / (k + 1 - alpha)
    weight = (edge + direction * 0.5 * f) ** k if k else 1.0
    return weight * r1 * f ** alpha * f ** (1 - alpha) / (1 - alpha)


def integral(source, k=0, x=None):
    """(Integral of x^k rho over the continuous part up to ``x``, error
    estimate), by adaptive quadrature in each edge's variable t from the
    floor to the middle of the support, and the power-law head on each
    floor strip; ``x`` defaults to the upper edge.  Each caller holds
    the error estimate to its own bound.
    """
    from scipy import integrate

    rho = source.density
    lo, hi = source.support
    mid = 0.5 * (lo + hi)
    top = hi if x is None else x

    def weighted(v):
        return rho(v) * v ** k if k else rho(v)

    total = err = 0.0
    with warnings.catch_warnings():
        # roundoff chatter is expected at 1e-10 targets; the estimate is
        # checked by the caller either way
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for edge, p, f, s in zip(source.support, source.edge_powers, source.edge_floors,
                                 (1.0, -1.0)):
            # the distances from this edge that lie below ``top``
            near, far = (f, min(top, mid) - lo) if s > 0 else (max(hi - top, f), hi - mid)
            if near >= far:
                continue
            if f > 0.0 and near == f:  # the floor strip lies below ``top``
                total += _edge_head(rho, edge, f, s, k)
            val, e = integrate.quad(
                lambda t: weighted(edge + s * t ** p) * p * t ** (p - 1.0),
                near ** (1.0 / p), far ** (1.0 / p),
                limit=200, epsabs=1e-10, epsrel=1e-10)
            total += val
            err += e
    return total, err


def tabulated_cdf(source):
    """Vectorised CDF of a density source, atom at zero included.

    The cumulative trapezoid rule runs on equally spaced nodes of each
    edge's variable t, from the floor to the middle of the support.  At
    either edge the first cell is the floor strip under the power-law
    head or, with no floor, the cell from t = 0, whose integrand there
    is taken from the next node: no density is evaluated on an edge.
    The table is scaled to the continuous mass 1 - atom.
    """
    mid = 0.5 * sum(source.support)
    tables = []
    for edge, p, f, s in zip(source.support, source.edge_powers, source.edge_floors,
                             (1.0, -1.0)):
        t = np.linspace(f ** (1.0 / p), abs(mid - edge) ** (1.0 / p), _CDF_NODES // 2)
        g = np.array([source.density(edge + s * ti ** p) * p * ti ** (p - 1.0)
                      if ti > 0.0 else 0.0 for ti in t.tolist()])
        if t[0] == 0.0:
            g[0] = g[1]
        head = _edge_head(source.density, edge, f, s, 0) if f > 0.0 else 0.0
        cum = head + np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(t))])
        tables.append((np.concatenate([[edge], edge + s * t ** p]),
                       np.concatenate([[0.0], cum])))
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
    the support edges; ``atom_at_zero`` is the weight of a point mass
    at the origin detected as missing continuous mass.
    """

    points: tuple

    @property
    def atom_at_zero(self):
        return self.atom

    def xs(self):
        return np.array([p[0] for p in self.points])

    def mass(self):
        """Atom weight plus quadrature of the continuous part."""
        return self.atom + curve_integral(self, 0)

    def to_csv(self):
        lines = ["x,rho"]
        lines += [f"{_fmt(x)},{_fmt(r)}" for x, r in self.points]
        return "\n".join(lines) + "\n"

    def to_json(self):
        import json

        return json.dumps({
            "support": [self.support[0], self.support[1]],
            "atom_at_zero": self.atom_at_zero,
            "points": [[x, r] for x, r in self.points],
        })


def _fmt(v):
    return repr(float(v))


def _edge_floors(poly, width):
    """Distances from the two support edges inside which the continued
    density is closed by a power-law fit instead of being evaluated.

    Near a hard edge at zero the clearing power q sets the floor: the
    cleared polynomial packs roots into a cluster of radius |z|^(q/(q+1))
    whose conditioning in double precision collapses quickly for large
    q.  Near the upper edge only the pair collision matters, and a tiny
    floor also keeps adaptive quadrature away from the sub-resolution
    cliff left by the finite accuracy of a bisected edge location.
    """
    q = poly.clearing_power
    lo_frac = 1e-4 if q >= 3 else (1e-7 if q == 2 else 1e-11)
    return lo_frac * width, 1e-9 * width


def density_source(poly, eps_pair=DEFAULT_EPS_PAIR):
    """The continued density of ``poly`` as a density source.

    Support from ``support_edges``, floors from ``_edge_floors``.  Each
    edge power is 1/(1 - alpha) for the exponent alpha that ``_edge_fit``
    measures at the floor, rounded and clipped to [2, 4] (2 where
    nothing can be fitted).  The inversion tightens epsilon with the
    distance to the nearer edge.  Continuous mass missing from one
    beyond the 5e-3 detection threshold is the atom at zero.
    """
    lo, hi = support_edges(poly, eps_pair=eps_pair)
    ev = _evaluator(poly, eps_pair)

    def rho(x):
        x = float(x)
        d = min(x - lo, hi - x)
        if d <= 0.0:
            return 0.0
        r = -ev.extrapolated_green(x, d).imag / math.pi
        return r if r > 0.0 else 0.0

    floors = _edge_floors(poly, hi - lo)
    powers = []
    for edge, f, s in zip((lo, hi), floors, (1.0, -1.0)):
        fit = _edge_fit(rho, edge, f, s)
        powers.append(2.0 if fit is None else float(min(max(round(1.0 / (1.0 - fit[1])), 2), 4)))
    source = DensitySource((lo, hi), 0.0, rho, tuple(powers), floors)
    atom = 1.0 - curve_integral(source, 0)
    atom = 0.0 if atom < 5e-3 else min(atom, 1.0 - 1e-12)
    return replace(source, atom=atom)


def curve_integral(curve, k=0):
    """Integral of x^k rho(x) over the continuous part of a density curve
    or any density source, by ``integral``; QuadratureError when the
    error estimate exceeds 1e-5."""
    val, err = integral(curve, k)
    if err > 1e-5:
        raise QuadratureError(f"curve quadrature error estimate {err:.2e} too large")
    return val


def _sampled(source, n_points, edge_margin):
    """``source`` with its density sampled on Chebyshev-style nodes of
    [lo + m W, hi - m W], for the margin m and the support width W."""
    lo, hi = source.support
    a = lo + edge_margin * (hi - lo)
    b = hi - edge_margin * (hi - lo)
    theta = (np.arange(n_points) + 0.5) * math.pi / n_points
    grid = a + (b - a) * 0.5 * (1.0 - np.cos(theta))
    points = tuple((float(x), float(source.density(float(x)))) for x in grid)
    return DensityCurve(source.support, source.atom, source.density, source.edge_powers,
                        source.edge_floors, points)


def density_curve(poly, n_points=512, edge_margin=0.01, eps_pair=DEFAULT_EPS_PAIR):
    """The ``density_source`` of ``poly``, sampled on a grid clustered
    toward the edges that leaves ``edge_margin`` of the support width
    free at each edge."""
    return _sampled(density_source(poly, eps_pair), n_points, edge_margin)


def curve_from_callable(density_fn, support, atom=0.0, n_points=512,
                        edge_margin=0.01, edge_powers=(2.0, 2.0)):
    """Assemble a DensityCurve from a pointwise density callable (for
    measures with a closed form) on the same cosine-clustered grid used
    by ``density_curve``."""
    lo, hi = support
    source = DensitySource((float(lo), float(hi)), float(atom), density_fn,
                           tuple(edge_powers), (0.0, 0.0))
    return _sampled(source, n_points, edge_margin)


def cdf_interpolator(poly):
    """A vectorised CDF callable of the continued density of ``poly``,
    atom at zero included: the ``tabulated_cdf`` of its
    ``density_source``."""
    return tabulated_cdf(density_source(poly))


def potential_derivative(poly, x, eps_pair=DEFAULT_EPS_PAIR):
    """V'(x) = 2 Re G(x + i0+) for x strictly inside the support.

    By conjugate symmetry of the physical branch across the cut this
    equals the limit of G(x + i eps) + G(x - i eps).
    """
    lo, hi = support_edges(poly, eps_pair=eps_pair)
    if not (lo < x < hi):
        raise DomainError(f"x={x} is outside the open support ({lo}, {hi})")
    ev = _evaluator(poly, eps_pair)
    return 2.0 * ev.extrapolated_green(x).real
