import dataclasses
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeconv import cli
from freeconv import closedform as C
from freeconv import grammar
from freeconv import measures as M
from freeconv import moments as Mo
from freeconv import resolvent as R
from freeconv.errors import (BranchAmbiguity, DomainError, EdgeWarning, FreeconvError,
                             MultiIntervalError, NoConvergence, QuadratureError,
                             SeriesAmbiguity)


@pytest.fixture(scope="module")
def mp_poly():
    return M.build_resolvent(M.mp(1))


@pytest.fixture(scope="module")
def fc3_poly():
    return M.build_resolvent(M.free_power(M.mp(1), 3))


@pytest.fixture(scope="module")
def fc2_columns():
    # z w = (1 + w)^3 from its two z-columns, with no measure spec behind it
    return M.ResolventPolynomial(a0=(F(1), F(3), F(3), F(1)), aq=(F(0), F(-1)),
                                 clearing_power=1)


class TestRootsAt:
    def test_large_z_dominant_balance(self, fc3_poly):
        # one root follows w ~ m1/z; the other three grow like |z|^(1/3)
        for z in (1e6, 1e9):
            roots = sorted(R.roots_at(fc3_poly, z), key=abs)
            assert abs(roots[0] * z - 1.0) < 1e-3
            for r in roots[1:]:
                assert 0.5 < abs(r) / z ** (1 / 3) < 2.0

    def test_small_z_quadruple_cluster(self, fc3_poly):
        roots = R.roots_at(fc3_poly, 1e-12)
        assert all(abs(r + 1.0) < 1e-2 for r in roots)

    def test_double_root_at_mp_edge(self, mp_poly):
        roots = R.roots_at(mp_poly, 4.0)
        assert len(roots) == 2
        assert all(abs(r - 1.0) < 1e-6 for r in roots)

    def test_linear_case(self):
        poly = M.build_resolvent(M.identity())
        roots = R.roots_at(poly, 2.0)
        assert len(roots) == 1 and abs(roots[0] - 1.0) < 1e-14

    def test_degree_drop_is_reported(self):
        # the arcsine quadratic degenerates to a constant at z = 2: the
        # conjugate root pair escapes to infinity together
        poly = M.build_resolvent(M.arcsine())
        assert poly.wcoeffs_at(2.0)[1:].tolist() == [0, 0]
        assert R.roots_at(poly, 2.0) == []
        # nearby, one coefficient is small but the degree is intact
        assert poly.wcoeffs_at(2.1)[-1] != 0
        assert len(R.roots_at(poly, 2.1)) == 2

    def test_conjugate_closure_at_real_z(self, fc3_poly):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = float(rng.uniform(0.5, 9.0))
            roots = R.roots_at(fc3_poly, z)
            for r in roots:
                partner = min(roots, key=lambda s: abs(s - r.conjugate()))
                assert abs(partner - r.conjugate()) < 1e-10 * (1 + abs(r))

    @pytest.mark.parametrize("z", [1e200j, complex("nan"), complex(2.0, math.nan)])
    def test_non_finite_coefficients_are_not_converged(self, z):
        # z^3 overflows at 1e200j; a NaN residual would pass a "<=" check
        poly = M.build_resolvent(M.free_power(M.mp(1), F(1, 3)))
        with pytest.raises(NoConvergence):
            R.roots_at(poly, z)
        with pytest.raises(NoConvergence):
            R.BranchTracker(poly, seed=1e200j)

    def test_eigensolver_failure_is_not_converged(self, fc3_poly, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(NoConvergence):
            R.roots_at(fc3_poly, 2.0)
        # a stacked call leaves every row to the scalar call
        assert R.roots_at(fc3_poly, np.array([2.0, 3.0])) == [None, None]

    def test_stacked_rows_are_the_scalar_calls(self, fc3_poly):
        zs = [2.0, 1e-12, 5.0 + 1e-7j, 9.0 + 1e-6j, 3.0 - 1e-7j, 1e6j]
        assert R.roots_at(fc3_poly, np.array(zs)) == [R.roots_at(fc3_poly, z) for z in zs]

    def test_stacked_rows_leave_degree_drops_and_failures_to_the_scalar_call(self):
        # the arcsine quadratic drops its degree at z = 2; z^3 overflows at 1e200j
        poly = M.build_resolvent(M.arcsine())
        rows = R.roots_at(poly, np.array([2.1, 2.0, 1.0 + 1e-7j]))
        assert rows == [R.roots_at(poly, 2.1), None, R.roots_at(poly, 1.0 + 1e-7j)]
        poly = M.build_resolvent(M.free_power(M.mp(1), F(1, 3)))
        rows = R.roots_at(poly, np.array([1e200j, complex("nan"), 1.0 + 1e-7j]))
        assert rows == [None, None, R.roots_at(poly, 1.0 + 1e-7j)]


class TestBranchTracking:
    def test_asymptotic_seed(self, mp_poly):
        tracker = R.BranchTracker(mp_poly, seed=1e6j)
        assert abs(tracker.w - 1.0 / 1e6j) < 1e-10

    def test_im_g_matches_density_oracle(self, mp_poly):
        tracker = R.BranchTracker(mp_poly, seed=complex(2.0, 1e6))
        g = R.green(tracker, 2.0 + 1e-8j)
        want = C.family("mp(1)").density(2.0)  # 1/(2 pi)
        assert abs(-g.imag / math.pi - want) < 1e-7

    def test_green_normalization(self, fc3_poly):
        tracker = R.BranchTracker(fc3_poly, seed=1e6j)
        z = 1e6j
        assert abs(z * R.green(tracker, z) - 1.0) < 1e-5

    def test_green_real_outside_support(self, mp_poly):
        tracker = R.BranchTracker(mp_poly, seed=complex(5.0, 1e6))
        g = R.green(tracker, 5.0 + 0j)
        assert abs(g.imag) < 1e-12
        assert g.real > 0

    def test_arcsine_green_at_midpoint(self):
        poly = M.build_resolvent(M.arcsine())
        tracker = R.BranchTracker(poly, seed=complex(1.0, 1e6))
        g = R.green(tracker, 1.0 + 1e-9j)
        assert abs(g.imag + 1.0) < 1e-7  # Im G = -pi * AS(1) = -1

    def test_descent_far_below_a_soft_edge(self):
        # the lower edge of mp(3/5)*mp(3/4) sits near 0.0056; at x ~ 1e-9
        # the Herglotz test accepts the physical root only when roots are
        # accurate to the residual floor, not to eigensolver accuracy
        poly = M.build_resolvent(M.boxtimes(M.mp(F(3, 5)), M.mp(F(3, 4))))
        lo, hi = R.support_edges(poly)
        for x in (5.25e-11, 1e-9):
            g = R._evaluator(poly, lo, hi).boundary_green(x)
            assert abs(g.imag) < 1e-8

    @pytest.mark.parametrize("expr", ["mp(1)^2", "as*mp(1)^2", "mp(1)^(1/3)",
                                      "mp(1/4)*mp(1)"])
    def test_seed_above_the_upper_edge_matches_the_high_seed(self, expr):
        # at |z| >= 4R the physical root is within |m1/z|/3 of m1/z, so a
        # descent from there ends on the root the one from 1e6 ends on
        poly = M.build_resolvent(grammar.parse_measure(expr))
        lo, hi = R.support_edges(poly)
        for x in lo + (hi - lo) * np.linspace(0.05, 0.95, 10):
            z = complex(float(x), 0.0)
            low = R.BranchTracker(poly, seed=complex(float(x), max(50.0, 4.0 * hi)))
            high = R.BranchTracker(poly, seed=complex(float(x), 1e6))
            assert low.move_to(z) == high.move_to(z)

    def test_seed_with_two_roots_near_m1_over_z_is_ambiguous(self, mp_poly, monkeypatch):
        target = 1.0 / 1e6j  # m1 = 1
        monkeypatch.setattr(R, "roots_at", lambda poly, z: [1.1 * target, 0.7 * target])
        with pytest.raises(BranchAmbiguity, match="two roots"):
            R.BranchTracker(mp_poly, seed=1e6j)

    @pytest.mark.parametrize("expr", ["mp(1)^(1/13)", "mp(1)^(12/13)"])
    def test_seed_for_a_large_clearing_power(self, expr):
        # the 13 roots near e^(2 pi i k/13)/z lie 0.48 |m1/z| apart, so the
        # seed sits higher than 4R and checks a smaller radius
        poly = M.build_resolvent(grammar.parse_measure(expr))
        lo, hi = R.support_edges(poly)
        x = lo + 0.4 * (hi - lo)
        g = R.green(R.BranchTracker(poly, seed=complex(x, 1e6)), complex(x, 0.0))
        assert R.density(poly, x) == -g.imag / math.pi

    def test_prefetched_roots_serve_only_a_first_step_that_arrives(self, mp_poly):
        z = complex(2.0, 1e-7)
        want = R.BranchTracker(mp_poly, seed=complex(2.0, 1e6)).move_to(z)
        # a descent from 1e6 takes many steps: a wrong set for z is never read
        tracker = R.BranchTracker(mp_poly, seed=complex(2.0, 1e6))
        assert tracker.move_to(z, roots=[5.0 + 5.0j]) == want
        # a drop from 1e-6 arrives in one step, on the root set it is given
        tracker = R.BranchTracker(mp_poly, seed=complex(2.0, 1e6))
        tracker.move_to(complex(2.0, 1e-6))
        assert tracker.move_to(z, roots=R.roots_at(mp_poly, z)) == want

    def test_herglotz_sign_on_the_real_axis(self, mp_poly):
        # at x + i0 the physical root has Im w <= 0; a prefetched set that
        # offers only its conjugate is rejected, and the walk solves again
        z = complex(2.0, 0.0)
        want = R.BranchTracker(mp_poly, seed=complex(2.0, 1e6)).move_to(z)
        assert want.imag < 0.0
        tracker = R.BranchTracker(mp_poly, seed=complex(2.0, 1e6))
        tracker.move_to(complex(2.0, 1e-7))
        assert tracker.move_to(z, roots=[want.conjugate()]) == want

    @pytest.mark.parametrize("expr", ["mp(1)^(1/3)", "as*mp(2)"])
    def test_slope_is_the_derivative_of_the_tracked_branch(self, expr):
        poly = M.build_resolvent(grammar.parse_measure(expr))
        lo, hi = R.support_edges(poly)
        for frac in (0.3, 0.7):
            z, h = complex(lo + frac * (hi - lo), 0.0), 1e-5 * (hi - lo)
            tracker = R.BranchTracker(poly, seed=complex(z.real, 50.0))
            slope = tracker._slope(tracker.move_to(z), z)
            diff = (tracker.move_to(z + h) - tracker.move_to(z - h)) / (2.0 * h)
            assert abs(slope - diff) <= 1e-8 * abs(diff), (expr, frac)

    def test_a_step_evaluates_the_coefficients_once(self, fc3_poly, monkeypatch):
        # an accepted step's slope comes from the float columns, not from
        # a second coefficient row: two wcoeffs_at per roots_at before
        tracker = R.BranchTracker(fc3_poly, seed=complex(3.0, 50.0))
        calls = {"roots": 0, "coeffs": 0}
        roots_at, wcoeffs_at = R.roots_at, M.ResolventPolynomial.wcoeffs_at

        def counting_roots(*args, **kwargs):
            calls["roots"] += 1
            return roots_at(*args, **kwargs)

        def counting_coeffs(self, z):
            calls["coeffs"] += 1
            return wcoeffs_at(self, z)

        monkeypatch.setattr(R, "roots_at", counting_roots)
        monkeypatch.setattr(M.ResolventPolynomial, "wcoeffs_at", counting_coeffs)
        tracker.move_to(complex(3.0, 0.0))
        assert calls["roots"] > 0 and calls["coeffs"] == calls["roots"]

    def test_path_independence(self, fc3_poly):
        # vertical descent vs L-shaped route reach the same branch
        x = 2.0
        t1 = R.BranchTracker(fc3_poly, seed=complex(x, 1e6))
        w1 = t1.move_to(complex(x, 1e-7))
        t2 = R.BranchTracker(fc3_poly, seed=1e6j)
        t2.move_to(complex(x, 1e6))
        w2 = t2.move_to(complex(x, 1e-7))
        assert abs(w1 - w2) < 1e-9


class TestDensity:
    def test_mp_values(self, mp_poly):
        assert abs(R.density(mp_poly, 1.0) - math.sqrt(3) / (2 * math.pi)) < 1e-9
        assert R.density(mp_poly, 5.0) == 0.0
        assert R.density(mp_poly, -1.0) == 0.0

    def test_bures2_value(self):
        poly = M.build_resolvent(M.boxtimes(M.arcsine(), M.free_power(M.mp(1), 2)))
        assert abs(R.density(poly, 2.0) - 1 / (4 * math.pi)) < 1e-9

    def test_edge_warning(self, mp_poly):
        with pytest.warns(EdgeWarning):
            R.density(mp_poly, 3.999)

    def test_array_is_the_pointwise_density(self):
        # an array query walks the points in order, as the scalar calls do
        xs = np.array([-1.0, 0.01, 0.5, 1.0, 2.0, 3.0, 3.999, 5.0])
        with pytest.warns(EdgeWarning) as caught:
            got = R.density(M.build_resolvent(M.mp(1)), xs)
        assert len(caught) == 1
        poly = M.build_resolvent(M.mp(1))
        with pytest.warns(EdgeWarning):
            want = [R.density(poly, x) for x in xs.tolist()]
        assert got.tolist() == want

    @pytest.mark.parametrize("expr", ["mp(1)^2", "as*mp(1)^2", "mp(1)^(1/3)",
                                      "mp(1/4)*mp(1)"])
    def test_independent_of_call_history(self, expr):
        # a polynomial that has swept 40 other points returns the same
        # bits as a fresh one, whose only state is the support it is given
        spec = grammar.parse_measure(expr)
        swept = M.build_resolvent(spec)
        lo, hi = R.support_edges(swept)
        for x in lo + (hi - lo) * np.linspace(0.06, 0.94, 40):
            R.density(swept, float(x))
        for x in lo + (hi - lo) * np.linspace(0.05, 0.95, 40):
            fresh = M.build_resolvent(spec)
            fresh._cache["support"] = (lo, hi)
            assert R.density(fresh, float(x)) == R.density(swept, float(x))

    def test_scattered_queries_descend_briefly(self, monkeypatch):
        # each query seeds one level above the upper edge and drops the
        # other from it; descending both from 1e6 took about 42 solves
        poly = M.build_resolvent(M.free_power(M.mp(1), 2))
        lo, hi = R.support_edges(poly)
        calls = []
        roots_at = R.roots_at

        def counting(*args, **kwargs):
            calls.append(1)
            return roots_at(*args, **kwargs)

        monkeypatch.setattr(R, "roots_at", counting)
        xs = lo + (hi - lo) * np.random.default_rng(12).uniform(0.05, 0.95, 40)
        for x in xs:
            R.density(poly, float(x))
        assert len(calls) <= 20 * len(xs)

    def test_fc3_matches_closed_form(self, fc3_poly):
        fam = C.family("fc3")
        for x in (2.0, 5.0, 8.0):
            assert abs(R.density(fc3_poly, x) - fam.density(x)) < 1e-8


class TestStackedSolves:
    """Grids and CDF tables take their root sets from one stacked
    solve; every value keeps the bits of a pointwise evaluation."""

    @pytest.mark.parametrize("expr, margin", [
        ("mp(1/3)*mp(1/2)", 0.01),
        ("as*mp(2)", 0.01),
        ("mp(1)^(1/2)", 0.01),
        ("mp(1/4)^(1/3)", 0.01),
        ("mp(1)*mp(1/2)", 0.01),
        # points near both edges, and steps that solve their own roots
        ("mp(1/4)^(1/3)", 0.0),
    ])
    def test_grid_is_the_fresh_pointwise_density(self, expr, margin):
        spec = grammar.parse_measure(expr)
        poly = M.build_resolvent(spec)
        curve = R.density_curve(poly, 512, edge_margin=margin)
        for x, rho in curve.points:
            fresh = M.build_resolvent(spec)
            fresh._cache["support"] = poly._cache["support"]
            assert R.density(fresh, x, edge_margin=0.0) == rho, x

    @pytest.mark.parametrize("c", [F(1, 3), F(2, 5), F(1, 2), F(3, 5)])
    def test_cdf_table_is_the_pointwise_table(self, c):
        spec = M.mp(1) * M.mp(c)
        stacked = R.cdf_interpolator(M.build_resolvent(spec))
        source = R.density_source(M.build_resolvent(spec))
        pointwise = dataclasses.replace(source, density=lambda x: (
            np.array([source.density(v) for v in x.tolist()]) if np.ndim(x)
            else source.density(x)))
        xs = np.linspace(-0.1, 1.05 * source.support[1], 20001)
        assert np.array_equal(stacked(xs), R.tabulated_cdf(pointwise)(xs))

    def test_potential_over_a_grid_is_the_fresh_pointwise_value(self):
        spec = M.mp(F(1, 3)) * M.mp(F(1, 2))
        poly = M.build_resolvent(spec)
        lo, hi = R.support_edges(poly)
        xs = np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 256)
        for x, v in zip(xs.tolist(), R.potential_derivative(poly, xs).tolist()):
            fresh = M.build_resolvent(spec)
            fresh._cache["support"] = poly._cache["support"]
            assert R.potential_derivative(fresh, x) == v, x

    @pytest.mark.parametrize("expr", ["mp(1)*mp(1/2)", "as*mp(2)", "mp(1/4)^(1/3)"])
    def test_integral_is_the_pointwise_integral(self, expr):
        # each cubature batch takes its root sets from one stacked solve
        source = R.density_source(M.build_resolvent(grammar.parse_measure(expr)))
        pointwise = dataclasses.replace(source, density=lambda x: (
            np.array([source.density(v) for v in x.tolist()]) if np.ndim(x)
            else source.density(x)))
        for k in range(4):
            assert R.integral(source, k) == R.integral(pointwise, k), k

    def test_sampling_solves_each_level_once(self, monkeypatch):
        # about 1,035 solves when each point solves its own roots
        source = R.density_source(M.build_resolvent(M.mp(F(1, 3)) * M.mp(F(1, 2))))
        calls = []
        roots_at = R.roots_at

        def counting(*args, **kwargs):
            calls.append(1)
            return roots_at(*args, **kwargs)

        monkeypatch.setattr(R, "roots_at", counting)
        R._sampled(source, 512, 0.01)
        assert len(calls) <= 100


class TestSupportEdges:
    @pytest.mark.parametrize("spec,lo,hi", [
        (M.mp(1), 0.0, 4.0),
        (M.mp(F(1, 4)), 0.25, 2.25),
        (M.arcsine(), 0.0, 2.0),
        (M.free_power(M.mp(1), 2), 0.0, 27 / 4),
        (M.free_power(M.mp(1), F(1, 2)), 0.0, math.sqrt(27 / 4)),
        (M.boxtimes(M.arcsine(), M.mp(1)), 0.0, 3 * math.sqrt(3)),
        # soft lower edges closer to zero than 1/512 of the upper edge
        (M.mp(F(9, 10)), (1 - math.sqrt(0.9)) ** 2, (1 + math.sqrt(0.9)) ** 2),
        (M.mp(F(11, 10)), (1 - math.sqrt(1.1)) ** 2, (1 + math.sqrt(1.1)) ** 2),
    ])
    def test_known_edges(self, spec, lo, hi):
        got_lo, got_hi = R.support_edges(M.build_resolvent(spec))
        assert type(got_lo) is float and type(got_hi) is float
        assert abs(got_lo - lo) < 1e-8
        assert abs(got_hi - hi) < 1e-8

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30))
    def test_mp_edges_property(self, p, q):
        c = F(p, q)
        lo, hi = R.support_edges(M.build_resolvent(M.mp(c)))
        root = math.sqrt(c)
        assert abs(lo - (1 - root) ** 2) <= 1e-10
        assert abs(hi - (1 + root) ** 2) <= 1e-10
        assert (lo == 0.0) == (c == 1)

    def test_interior_critical_point_guard(self, monkeypatch):
        # x(w)^q = h(w) has one critical point whose value lies inside the
        # support; the physical branch does not reach it there
        spec = M.mp(F(1, 3)) * M.mp(F(1, 2)) * M.mp(F(3, 4))
        lo, _ = R.support_edges(M.build_resolvent(spec))
        assert abs(lo - 0.0047583195) < 1e-9
        P = np.polynomial.polynomial
        num = P.polyfromroots([-1.0, -3.0, -2.0, -4.0 / 3.0])
        crit = P.polyroots(P.polysub(P.polymul(P.polyder(num), [0, 1]), num)).real
        wc = next(w for w in crit if -3.0 < w < -2.0)
        calls = []

        def real_branch(tracker, z):
            # a Green's function whose w = z G - 1 sits on the critical point
            calls.append(z)
            return (1.0 + wc) / z

        monkeypatch.setattr(R, "green", real_branch)
        with pytest.raises(MultiIntervalError):
            R.support_edges(M.build_resolvent(spec))
        assert len(calls) == 1
        # a measure without interior candidates never continues the branch
        R.support_edges(M.build_resolvent(M.mp(F(9, 10))))
        assert len(calls) == 1

    def test_interior_critical_point_reached(self, capsys):
        # the physical branch of as^(1/2) runs through w = -4 at x = 1.29904
        assert cli.main(["support", "--measure", "as^(1/2)"]) == 1
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert "critical point w=-4 at x=1.29904" in err

    def test_purely_atomic_measure_rejected(self):
        poly = M.build_resolvent(M.rational_factor((2, 2), (1, 2)))
        with pytest.raises(FreeconvError):
            R.support_edges(poly)


class TestDensityCurve:
    def test_fc2_curve(self):
        poly = M.build_resolvent(M.free_power(M.mp(1), 2))
        curve = R.density_curve(poly, n_points=64)
        assert abs(curve.support[1] - 27 / 4) < 1e-8
        assert curve.atom == 0.0
        assert all(r >= 0 for _, r in curve.points)
        assert abs(curve.atom + R.curve_integral(curve, 0) - 1.0) < 1e-4

    def test_generalized_bures_atom(self):
        poly = M.build_resolvent(M.boxtimes(M.arcsine(), M.mp(2)))
        curve = R.density_curve(poly, n_points=64)
        assert abs(curve.atom - 0.5) < 1e-3
        assert abs(curve.atom + R.curve_integral(curve, 0) - 1.0) < 1e-4

    def test_grid_is_inside_margins(self):
        poly = M.build_resolvent(M.mp(1))
        curve = R.density_curve(poly, n_points=32, edge_margin=0.05)
        xs = np.array([x for x, _ in curve.points])
        assert xs.min() >= 0.05 * 4 - 1e-12
        assert xs.max() <= 4 - 0.05 * 4 + 1e-12

    def test_csv_and_json_round_trip(self):
        poly = M.build_resolvent(M.mp(1))
        curve = R.density_curve(poly, n_points=16)
        csv = curve.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "x,rho"
        for line, (x, rho) in zip(lines[1:], curve.points):
            sx, sr = line.split(",")
            assert float(sx) == x and float(sr) == rho
        blob = json.loads(curve.to_json())
        assert blob["support"] == [curve.support[0], curve.support[1]]
        assert blob["atom_at_zero"] == curve.atom
        for (jx, jr), (x, rho) in zip(blob["points"], curve.points):
            assert jx == x and jr == rho

    @pytest.mark.parametrize("spec", [M.mp(F(4, 5)) ** 2,
                                      M.mp(F(1, 3)) * M.mp(F(1, 2)) * M.mp(F(3, 4))])
    def test_soft_lower_edge_near_zero(self, spec):
        poly = M.build_resolvent(spec)
        curve = R.density_curve(poly, n_points=64)
        assert curve.support[0] > 0.0
        got = Mo.moments_from_density(curve, 3)
        exact = Mo.moments_from_resolvent(poly, 3)
        for k in (1, 2, 3):
            assert abs(got[k] - float(exact[k])) <= 1e-6 * float(exact[k]), k

    @pytest.mark.parametrize("margin", [1.5, -0.5, 0.5])
    def test_margin_checked_before_the_source(self, margin, monkeypatch):
        def fail(poly):
            pytest.fail("density_source built for an invalid edge margin")

        monkeypatch.setattr(R, "density_source", fail)
        with pytest.raises(DomainError, match=r"edge margin .* is outside \[0, 1/2\)"):
            R.density_curve(M.build_resolvent(M.mp(1) * M.mp(1)), n_points=3,
                            edge_margin=margin)


class TestDensitySource:
    def test_quadrature_sweeps_the_trackers(self, monkeypatch):
        # batches walk away from each edge and re-seed only beyond a tenth
        # of the support width; walking toward the upper edge and
        # re-seeding beyond 0.1 max(1, |x|) seeded 19 trackers and made
        # 412 scalar solves, and QUADPACK's alternating order 214 seeds
        seeded, scalar = [], []
        init, roots_at = R.BranchTracker.__init__, R.roots_at

        def counting_init(self, *args, **kwargs):
            seeded.append(1)
            init(self, *args, **kwargs)

        def counting_roots(poly, z, *args, **kwargs):
            if not isinstance(z, np.ndarray):
                scalar.append(1)
            return roots_at(poly, z, *args, **kwargs)

        monkeypatch.setattr(R.BranchTracker, "__init__", counting_init)
        monkeypatch.setattr(R, "roots_at", counting_roots)
        R.density_source(M.build_resolvent(M.mp(F(1, 3)) * M.mp(F(1, 2))))
        assert 0 < len(seeded) <= 10
        assert len(scalar) <= 300

    def test_quadrature_evaluates_each_node_once(self, monkeypatch):
        # cubature asks for overlapping node sets; at 320 evaluations it
        # computed each node about twice
        calls = []
        green = R._BranchEvaluator.boundary_green

        def counting(self, *args, **kwargs):
            calls.append(1)
            return green(self, *args, **kwargs)

        monkeypatch.setattr(R._BranchEvaluator, "boundary_green", counting)
        R.density_source(M.build_resolvent(M.mp(F(1, 3)) * M.mp(F(1, 2))))
        assert 0 < len(calls) <= 160

    @pytest.mark.parametrize("spec, atom", [
        (M.arcsine() * M.mp(2), F(1, 2)),
        (M.arcsine() * M.mp(4), F(3, 4)),
        (M.arcsine() * M.mp(F(7, 3)) ** 2, F(4, 7)),
    ])
    def test_atom_from_quadrature(self, spec, atom):
        source = R.density_source(M.build_resolvent(spec))
        assert abs(source.atom - float(atom)) <= 1e-9

    @pytest.mark.parametrize("expr", ["mp(1/2)^(1/3)", "mp(3/4)^(2/3)"])
    def test_soft_lower_edge_has_no_floor(self, expr):
        # g(t) ~ t^2 at a square-root edge: the quadrature runs from t = 0;
        # fitted strips at both edges left mass defects of 7.8e-10 and 9.9e-8
        poly = M.build_resolvent(grammar.parse_measure(expr))
        source = R.density_source(poly)
        assert source.edge_floors == (0.0, 0.0)
        assert abs(source.atom + R.integral(source, 0)[0] - 1.0) <= 1e-13
        m1 = float(Mo.moments_from_resolvent(poly, 1)[1])
        assert abs(R.integral(source, 1)[0] - m1) <= 1e-13 * m1

    @pytest.mark.parametrize("expr", ["mp(1)^3", "mp(1)^(1/3)"])
    def test_hard_edge_strip_carries_the_moment_weight(self, expr):
        # the strip closes with t_f g_k(t_f)/(p k + 1); without the
        # 1/(p k + 1) the first moment of mp(1)^(1/3) is off by 6.4e-8
        poly = M.build_resolvent(grammar.parse_measure(expr))
        source = R.density_source(poly)
        assert source.edge_floors[0] > 0.0
        exact = Mo.moments_from_resolvent(poly, 2)
        for k in (1, 2):
            assert abs(R.integral(source, k)[0] - float(exact[k])) <= 1e-9, k


class TestExactEdges:
    @pytest.mark.parametrize("expr", ["mp(201/200)", "as*mp(201/200)"])
    def test_atom_is_one_plus_w0(self, expr):
        # mu({0}) = 1 - 1/c = 1/201; the missing-mass atom of a quadrature
        # read 0 for as*mp(201/200)
        source = R.density_source(M.build_resolvent(grammar.parse_measure(expr)))
        assert abs(source.atom - 1 / 201) <= 1e-12

    @pytest.mark.parametrize("expr", ["mp(2)^(1/2)", "mp(3/2)^(1/3)"])
    def test_mass_and_atom_that_miss_one_raise(self, expr):
        # continuous mass 3/4 and 8/9 against the atoms 1/2 and 1/3
        with pytest.raises(QuadratureError, match="do not add up to one"):
            R.density_source(M.build_resolvent(grammar.parse_measure(expr)))

    @pytest.mark.parametrize("expr, powers", [
        ("mp(1)^2", (3.0, 2.0)),
        ("as*mp(1)^2", (4.0, 2.0)),
        ("mp(1)^(1/2)", (3 / 2, 2.0)),
        ("mp(1)^(1/3)", (4 / 3, 2.0)),
        ("as*mp(2)", (2.0, 2.0)),
    ])
    def test_lower_power_is_m_over_q(self, expr, powers):
        source = R.density_source(M.build_resolvent(grammar.parse_measure(expr)))
        assert source.edge_powers == powers

    @pytest.mark.parametrize("frac", [0.3, 1e-5])
    def test_density_is_the_source_inversion(self, frac):
        poly = M.build_resolvent(M.mp(F(1, 3)) * M.mp(F(1, 2)))
        source = R.density_source(poly)
        lo, hi = source.support
        for x in (lo + frac * (hi - lo), hi - frac * (hi - lo)):
            assert R.density(poly, x, edge_margin=0.0) == source.density(x) > 0.0

    def test_double_zero_of_a0_is_no_critical_point(self):
        # w = -1/2 is a double zero of a0, whose critical value 0 evaluated
        # to 4.4e-16 from the expanded columns: a false interior edge
        source = R.density_source(M.build_resolvent(M.mp(2) ** 2))
        lo, hi = source.support
        assert lo == 0.0 and abs(hi - (11 + 5 * math.sqrt(5)) / 2) <= 1e-12 * hi
        assert abs(source.atom - 0.5) <= 1e-12

    @pytest.mark.parametrize("s, lo", [
        # x(w) = (1 + w)(1 + w/2)^s / w at its critical point below w = -1,
        # computed once to 50 digits
        (F(13, 6), 0.02394574028975193407),
        (F(18, 7), 0.01607824424128594106),
        (F(20, 7), 0.01223801244963145915),
    ])
    def test_lower_edge_beside_a_root_cluster(self, s, lo):
        # the expanded columns lost h near (1 + w)^q: 1.9e-4 off, or NaN
        got, _ = R.support_edges(M.build_resolvent(M.mp(F(1, 2)) ** s))
        assert abs(got - lo) <= 1e-12 * lo


class TestFreeProjections:
    # rat(1,1;p,1) is the law (1 - p) delta_0 + p delta_1 of a projection of
    # trace p, and the product of two is the law of PQP for free P and Q;
    # a0 and aq share the factor 1 + w, a root of P(., z) at every z
    @pytest.mark.parametrize("p, q", [(F(1, 3), F(1, 2)), (F(1, 2), F(1, 2)),
                                      (F(1, 4), F(1, 5))])
    def test_closed_form(self, p, q):
        spec = M.rational_factor((1, 1), (p, 1)) * M.rational_factor((1, 1), (q, 1))
        source = R.density_source(M.build_resolvent(spec))
        p, q = float(p), float(q)
        mid, half = p + q - 2 * p * q, math.sqrt(4 * p * q * (1 - p) * (1 - q))
        lo, hi = mid - half, mid + half
        assert abs(source.support[0] - lo) <= 1e-12 and abs(source.support[1] - hi) <= 1e-12
        assert abs(source.atom - (1 - min(p, q))) <= 1e-12
        xs = np.linspace(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), 101)
        xs = np.append(xs, lo + 0.999 * (hi - lo))
        want = np.sqrt((hi - xs) * (xs - lo)) / (2 * math.pi * xs * (1 - xs))
        got = source.density(xs)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12
        # a fresh descent to x = hi - W/1000, after no walk, landed on w = -1
        assert R.density(M.build_resolvent(spec), xs[-1], edge_margin=0.0) == got[-1]


class TestPotentialDerivative:
    def test_mp_at_two(self, mp_poly):
        assert abs(R.potential_derivative(mp_poly, 2.0) - 1.0) < 1e-9

    def test_arcsine_antisymmetry(self):
        poly = M.build_resolvent(M.arcsine())
        assert abs(R.potential_derivative(poly, 1.0)) < 1e-9
        v = R.potential_derivative
        assert abs(v(poly, 0.7) + v(poly, 1.3)) < 1e-8

    def test_outside_support_rejected(self, mp_poly):
        with pytest.raises(DomainError):
            R.potential_derivative(mp_poly, 4.5)

    def test_conjugate_pair_symmetry(self, mp_poly):
        # 2 Re G(x + i0) is the limit of G(x + i delta) + G(x - i delta)
        x, delta = 2.5, 1e-9
        above = R.green(R.BranchTracker(mp_poly, seed=complex(x, 1e6)), complex(x, delta))
        below = R.green(R.BranchTracker(mp_poly, seed=complex(x, -1e6)), complex(x, -delta))
        assert abs(R.potential_derivative(mp_poly, 2.5) - (above + below)) < 1e-8


class TestCdfInterpolator:
    def test_matches_closed_form(self):
        poly = M.build_resolvent(M.mp(1))
        cdf = R.cdf_interpolator(poly)
        fam = C.family("mp(1)")
        for x in (0.5, 1.0, 2.0, 3.5):
            assert abs(cdf(x) - C.cdf(fam, x)) < 2e-4
        # divergent hard edges at zero: x^(-2/3) and x^(-3/4)
        for spec, name in ((M.mp(1) ** 2, "fc2"), (M.arcsine() * M.mp(1) ** 2, "bures2")):
            cdf = R.cdf_interpolator(M.build_resolvent(spec))
            fam = C.family(name)
            for q in (0.05, 0.2, 0.5, 0.8):
                x = q * fam.support[1]
                assert abs(cdf(x) - C.cdf(fam, x)) < 2e-4, (name, q)

    def test_includes_atom(self):
        poly = M.build_resolvent(M.boxtimes(M.arcsine(), M.mp(2)))
        cdf = R.cdf_interpolator(poly)
        assert abs(cdf(0.05) - 0.5) < 1e-3  # atom of weight 1/2 below support
        assert abs(cdf(10.0) - 1.0) < 1e-9


class TestPolynomialWithoutSpec:
    def test_support(self, fc2_columns):
        lo, hi = R.support_edges(fc2_columns)
        assert abs(lo) < 1e-10
        assert abs(hi - 27 / 4) < 1e-10

    def test_density_matches_closed_form(self, fc2_columns):
        fam = C.family("fc2")
        for x in (1.0, 3.0, 5.0):
            assert abs(R.density(fc2_columns, x) - fam.density(x)) < 1e-8

    def test_exact_moments(self, fc2_columns):
        ms = Mo.moments_from_resolvent(fc2_columns, 6)
        assert list(ms.values) == [Mo.fuss_catalan(2, n) for n in range(7)]

    def test_no_asymptotic_seed(self):
        # P = 1 + w - z: aq has no w^q term, so w does not fall like m1/z
        poly = M.ResolventPolynomial(a0=(F(1), F(1)), aq=(F(-1),), clearing_power=1)
        with pytest.raises(BranchAmbiguity):
            R.BranchTracker(poly, 1e6j)

    def test_no_series_unless_w_q_divides_aq(self):
        # (1 + w)((1 + w)^2 - z): no root falls like m1/z
        poly = M.ResolventPolynomial(a0=(F(1), F(3), F(3), F(1)), aq=(F(-1), F(-1)),
                                     clearing_power=1)
        with pytest.raises(SeriesAmbiguity):
            Mo.moments_from_resolvent(poly, 4)
