"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).  The criteria cross-validate the three independent routes
to each spectral density: polynomial resolvent inversion, closed-form
evaluation, exact moment algebra, plus Monte Carlo sampling of the
matching matrix ensembles.
"""

import math
import time
import warnings
from fractions import Fraction as F
from math import comb

import numpy as np
import pytest

from freeconv import closedform as C
from freeconv import ensembles as E
from freeconv import isotropic as I
from freeconv import measures as M
from freeconv import moments as Mo
from freeconv import resolvent as R
from freeconv.errors import EdgeWarning


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_resolvent_construction_exactness(coefficient_rows):
    """The cleared polynomials match the printed equations coefficient
    for coefficient, in exact arithmetic."""
    t0 = time.monotonic()
    as_spec = M.arcsine()
    cases = [
        # FC2 cubic: w z = (1+w)^3
        (M.mp(1) ** 2, [[1, 0], [3, -1], [3, 0], [1, 0]]),
        # square-root cubic: w^3 + (3 - z^2) w^2 + 3 w + 1
        (M.mp(1) ** F(1, 2), [[1, 0, 0], [3, 0, 0], [3, 0, -1], [1, 0, 0]]),
        # FC3 quartic: w^4 + 4 w^3 + 6 w^2 + (4 - z) w + 1
        (M.mp(1) ** 3, [[1, 0], [4, -1], [6, 0], [4, 0], [1, 0]]),
        # cube-root quartic: w^4 + (4 - z^3) w^3 + 6 w^2 + 4 w + 1
        (M.mp(1) ** F(1, 3),
         [[1, 0, 0, 0], [4, 0, 0, 0], [6, 0, 0, 0], [4, 0, 0, -1], [1, 0, 0, 0]]),
        # Marchenko-Pastur quadratic: z w = (1 + w)(1 + c w)
        (M.mp(1), [[1, 0], [2, -1], [1, 0]]),
        (M.mp(F(1, 4)), [[1, 0], [F(5, 4), -1], [F(1, 4), 0]]),
        # arcsine quadratic: w z (w + 2) = 2 (1 + w)^2
        (as_spec, [[2, 0], [4, -2], [2, -1]]),
        # Bures cubic: w z (w + 2) = 2 (1 + w)^3
        (as_spec * M.mp(1), [[2, 0], [6, -2], [6, -1], [2, 0]]),
        # generalized Bures cubic: w z (w + 2) = 2 (1 + c w)(1 + w)^2
        (as_spec * M.mp(2), [[2, 0], [8, -2], [10, -1], [4, 0]]),
        (as_spec * M.mp(F(1, 4)),
         [[2, 0], [F(9, 2), -2], [3, -1], [F(1, 2), 0]]),
        # 2-Bures quartic: w z (w + 2) = 2 (1 + w)^4
        (as_spec * M.mp(1) ** 2, [[2, 0], [8, -2], [12, -1], [8, 0], [2, 0]]),
    ]
    bad = []
    for spec, want in cases:
        got = coefficient_rows(M.build_resolvent(spec))
        if got != [[F(v) for v in row] for row in want]:
            bad.append(spec.label())
    elapsed = time.monotonic() - t0
    report(1, not bad and elapsed < 1.0,
           f"{len(cases)} equations exact, {elapsed:.2f}s (mismatches: {bad})")


def test_criterion_2_oracle_equivalence():
    """Stieltjes inversion matches the closed forms on interior grids."""
    t0 = time.monotonic()
    worst_name, worst = "", 0.0
    for fam in C.all_families():
        poly = M.build_resolvent(fam.measure)
        lo, hi = R.support_edges(poly)
        width = hi - lo
        xs = np.linspace(lo + 0.01 * width, hi - 0.01 * width, 200)
        want = np.array([fam.density(float(x)) for x in xs])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EdgeWarning)
            got = np.array([R.density(poly, float(x)) for x in xs])
        rel = float(np.abs(got - want).max() / want.max())
        if rel > worst:
            worst_name, worst = fam.name, rel
    elapsed = time.monotonic() - t0
    report(2, worst < 1e-6 and elapsed < 30.0,
           f"9 families x 200 points, max rel err {worst:.2e} ({worst_name}), "
           f"{elapsed:.1f}s")


def test_criterion_3_moment_exactness():
    t0 = time.monotonic()
    ok = True
    for s in (1, 2, 3, 4):
        got = Mo.moments_from_resolvent(M.build_resolvent(M.mp(1) ** s), 12)
        want = [Mo.fuss_catalan(s, n) for n in range(13)]
        ok = ok and list(got.values) == want
    catalan = [Mo.fuss_catalan(1, n) for n in range(5)]
    ok = ok and catalan == [1, 1, 2, 5, 14]
    elapsed = time.monotonic() - t0
    report(3, ok and elapsed < 5.0,
           f"moments of mp(1)^s exact to order 12 for s=1..4; "
           f"Catalan row {catalan}; {elapsed:.2f}s")


def test_criterion_4_bures_factorization():
    # product of S-transform series vs the cubic, exactly to order 10
    cubic = Mo.moments_from_resolvent(
        M.build_resolvent(M.arcsine() * M.mp(1)), 10)
    m_as = Mo.moments_from_resolvent(M.build_resolvent(M.arcsine()), 10)
    m_mp = Mo.moments_from_resolvent(M.build_resolvent(M.mp(1)), 10)
    product = Mo.boxtimes_moments(m_as, m_mp, 10)
    exact_ok = cubic.values == product.values

    # unitary-sum R-transform -> square modulus -> rescale by 2 gives the
    # arcsine moments
    def g_u2(s):
        return I.green_from_r(lambda y: I.r_sum_unitaries(2, y), s)

    def g_as(z):
        return I.rescale_green(lambda u: I.square_modulus_green(g_u2, u), 2.0, z)

    got = I.moments_from_green(g_as, 8, center=1.0, radius=6.0, n_nodes=4096)
    want = [comb(2 * k, k) / 2 ** k for k in range(9)]
    chain_err = max(abs(g - w) / max(1.0, w) for g, w in zip(got, want))
    report(4, exact_ok and chain_err < 1e-6,
           f"product-route moments equal cubic moments exactly to order 10; "
           f"unitary chain reproduces arcsine moments to {chain_err:.1e}")


def test_criterion_5_identities():
    fam_fc2 = C.family("fc2")
    poly = M.build_resolvent(M.arcsine() * M.mp(F(1, 2)) * M.mp(1))
    lo, hi = R.support_edges(poly)
    xs = np.linspace(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), 200)
    err_b2 = max(abs(R.density(poly, float(x)) - fam_fc2.density(float(x)))
                 for x in xs)

    fam_mp = C.family("mp(1)")
    poly2 = M.build_resolvent(M.arcsine() * M.mp(F(1, 2)))
    lo2, hi2 = R.support_edges(poly2)
    xs2 = np.linspace(lo2 + 0.01 * (hi2 - lo2), hi2 - 0.01 * (hi2 - lo2), 200)
    err_gb = max(abs(R.density(poly2, float(x)) - fam_mp.density(float(x)))
                 for x in xs2)
    report(5, err_b2 < 1e-8 and err_gb < 1e-8,
           f"2-Bures at c=1/2 equals FC2 to {err_b2:.1e}; "
           f"generalized Bures at c=1/2 equals mp(1) to {err_gb:.1e}")


def test_criterion_6_mass_and_atoms():
    worst_mass = worst_mean = 0.0
    for fam in C.all_families():
        m0, m1 = C.mass_and_mean(fam)
        worst_mass = max(worst_mass, abs(m0 - 1.0))
        worst_mean = max(worst_mean, abs(m1 - 1.0))
    ok = worst_mass < 1e-5 and worst_mean < 1e-5

    details = [f"nine families: |mass-1| <= {worst_mass:.1e}, "
               f"|mean-1| <= {worst_mean:.1e}"]
    for c, target in ((2, 0.5), (4, 0.25)):
        curve = R.density_curve(M.build_resolvent(M.arcsine() * M.mp(c)),
                                n_points=64)
        cont = R.curve_integral(curve, 0)
        ok = ok and abs(cont - target) < 1e-3
        ok = ok and abs(curve.atom - (1 - target)) < 1e-3
        details.append(f"c={c}: continuous mass {cont:.5f} (target {target})")
    report(6, ok, "; ".join(details))


def test_criterion_7_supports():
    targets = [
        (M.mp(1), 0.0, 4.0),
        (M.arcsine(), 0.0, 2.0),
        (M.mp(1) ** 2, 0.0, 27 / 4),
        (M.mp(1) ** 3, 0.0, 256 / 27),
        (M.mp(1) ** F(1, 2), 0.0, math.sqrt(27 / 4)),
        (M.mp(1) ** F(1, 3), 0.0, (256 / 27) ** (1 / 3)),
        (M.arcsine() * M.mp(1), 0.0, 3 * math.sqrt(3)),
        (M.arcsine() * M.mp(1) ** 2, 0.0, 8.0),
        (M.mp(F(1, 4)), 0.25, 2.25),  # 1 + c +- 2 sqrt(c)
    ]
    worst = 0.0
    for spec, lo, hi in targets:
        got_lo, got_hi = R.support_edges(M.build_resolvent(spec))
        worst = max(worst, abs(got_lo - lo), abs(got_hi - hi))
    report(7, worst < 1e-8, f"nine supports located, worst edge error {worst:.1e}")


def test_criterion_8_monte_carlo():
    t0 = time.monotonic()
    n, samples, seed = 256, 40, 2024
    runs = [
        ("mp(1)", E.EnsembleConfig(n, (1,), 0, samples, seed),
         C.cdf_interpolator(C.family("mp(1)"))),
        ("fc2", E.EnsembleConfig(n, (1, 1), 0, samples, seed + 1),
         C.cdf_interpolator(C.family("fc2"))),
        ("fc3", E.EnsembleConfig(n, (1, 1, 1), 0, samples, seed + 2),
         C.cdf_interpolator(C.family("fc3"))),
        ("bures", E.EnsembleConfig(n, (1,), 2, samples, seed + 3),
         C.cdf_interpolator(C.family("bures"))),
        ("mp(1/2)^2", E.EnsembleConfig(n, (1, F(1, 2)), 0, samples, seed + 4),
         R.cdf_interpolator(M.build_resolvent(M.mp(F(1, 2)) ** 2))),
    ]
    details = []
    ok = True
    for name, cfg, model in runs:
        ks = E.ks_distance(E.simulate(cfg), model)
        ok = ok and ks < 0.05
        details.append(f"{name}: KS={ks:.3f}")
    spec = E.simulate(E.EnsembleConfig(n, (2,), 2, samples, seed + 5))
    frac = spec.atom_fraction()
    ok = ok and abs(frac - 0.5) < 0.05
    details.append(f"gen-Bures c=2 zero fraction {frac:.3f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    report(8, ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_9_haagerup_larsen():
    worst = 0.0
    for r in np.linspace(0.02, 0.99, 50):
        worst = max(worst, abs(I.radial_cdf(M.mp(1), float(r)) - r * r))
        worst = max(worst, abs(I.radial_cdf(M.mp(1) ** 2, float(r)) - r))

    def g_sq(z):
        return I.square_modulus_green(
            lambda s: I.green_from_r(lambda y: I.r_sum_unitaries(2, y), s), z)

    m = I.moments_from_green(g_sq, 1, center=2.0, radius=9.0, n_nodes=4096)
    m1_err = abs(m[1] - 2.0)
    report(9, worst < 1e-10 and m1_err < 1e-9,
           f"radial CDFs r^2 and r to {worst:.1e}; "
           f"first moment of |U1+U2|^2 = 2 to {m1_err:.1e}")


def test_criterion_10_property_suite():
    rng = np.random.default_rng(90210)
    families = [fam.measure for fam in C.all_families()]
    checks = {"conjugate": 0, "herglotz": 0, "normalization": 0, "paths": 0}
    ok = True

    for spec in families:
        poly = M.build_resolvent(spec)
        lo, hi = R.support_edges(poly)

        # conjugate-pair closure of the root set at real z
        for _ in range(100):
            z = float(rng.uniform(lo + 1e-3, hi * 1.2))
            roots = R.roots_at(poly, z)
            for r in roots:
                partner = min(roots, key=lambda s: abs(s - r.conjugate()))
                if abs(partner - r.conjugate()) > 1e-10 * (1 + abs(r)):
                    ok = False
            checks["conjugate"] += 1

        # Herglotz sign on approach to the axis
        xs = np.sort(rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), 100))
        for eps in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
            tracker = R.BranchTracker(poly, seed=complex(xs[0], 1e6))
            for x in xs:
                w = tracker.move_to(complex(float(x), eps))
                g = (1.0 + w) / complex(float(x), eps)
                if g.imag > 1e-12:
                    ok = False
            checks["herglotz"] += len(xs)

        # z G(z) -> 1 on random rays with |z| > 100
        for _ in range(100):
            radius = float(rng.uniform(100.0, 1e5))
            angle = float(rng.uniform(0.05, math.pi - 0.05))
            z = radius * complex(math.cos(angle), math.sin(angle))
            w = R.BranchTracker(poly, seed=z).w
            if abs(w) >= 2.0 / abs(z):
                ok = False
            checks["normalization"] += 1

        # continuation is path independent (vertical vs L-shaped)
        for _ in range(100):
            x = float(rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo)))
            t1 = R.BranchTracker(poly, seed=complex(x, 1e6))
            w1 = t1.move_to(complex(x, 1e-7))
            t2 = R.BranchTracker(poly, seed=1e6j)
            t2.move_to(complex(x, 1e6))
            w2 = t2.move_to(complex(x, 1e-7))
            if abs(w1 - w2) > 1e-9:
                ok = False
            checks["paths"] += 1

    report(10, ok, "randomized properties on 9 families: " +
           ", ".join(f"{k}={v}" for k, v in checks.items()))
