import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from freeconv import closedform as C
from freeconv import measures as M
from freeconv import resolvent as R
from freeconv.errors import DomainError, EdgeWarning, FreeconvError


@pytest.fixture(scope="module")
def mp_poly():
    return M.build_resolvent(M.mp(1))


@pytest.fixture(scope="module")
def fc3_poly():
    return M.build_resolvent(M.free_power(M.mp(1), 3))


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
        roots, info = R.roots_at(poly, 2.0, return_info=True)
        assert info["degree_dropped"] == 2
        assert roots == []
        # nearby, one coefficient is small but the degree is intact
        roots, info = R.roots_at(poly, 2.1, return_info=True)
        assert info["degree_dropped"] == 0
        assert len(roots) == 2

    def test_conjugate_closure_at_real_z(self, fc3_poly):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = float(rng.uniform(0.5, 9.0))
            roots = R.roots_at(fc3_poly, z)
            for r in roots:
                partner = min(roots, key=lambda s: abs(s - r.conjugate()))
                assert abs(partner - r.conjugate()) < 1e-10 * (1 + abs(r))


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

    def test_fc3_matches_closed_form(self, fc3_poly):
        fam = C.family("fc3")
        for x in (2.0, 5.0, 8.0):
            assert abs(R.density(fc3_poly, x) - fam.density(x)) < 1e-8


class TestSupportEdges:
    @pytest.mark.parametrize("spec,lo,hi", [
        (M.mp(1), 0.0, 4.0),
        (M.mp(F(1, 4)), 0.25, 2.25),
        (M.arcsine(), 0.0, 2.0),
        (M.free_power(M.mp(1), 2), 0.0, 27 / 4),
        (M.free_power(M.mp(1), F(1, 2)), 0.0, math.sqrt(27 / 4)),
        (M.boxtimes(M.arcsine(), M.mp(1)), 0.0, 3 * math.sqrt(3)),
    ])
    def test_known_edges(self, spec, lo, hi):
        got_lo, got_hi = R.support_edges(M.build_resolvent(spec))
        assert abs(got_lo - lo) < 1e-8
        assert abs(got_hi - hi) < 1e-8

    def test_purely_atomic_measure_rejected(self):
        poly = M.build_resolvent(M.rational_factor((2, 2), (1, 2)))
        with pytest.raises(FreeconvError):
            R.support_edges(poly)


class TestDensityCurve:
    def test_fc2_curve(self):
        poly = M.build_resolvent(M.free_power(M.mp(1), 2))
        curve = R.density_curve(poly, n_points=64)
        assert abs(curve.support[1] - 27 / 4) < 1e-8
        assert curve.atom_at_zero == 0.0
        assert all(r >= 0 for _, r in curve.points)
        assert abs(curve.mass() - 1.0) < 1e-4

    def test_generalized_bures_atom(self):
        poly = M.build_resolvent(M.boxtimes(M.arcsine(), M.mp(2)))
        curve = R.density_curve(poly, n_points=64)
        assert abs(curve.atom_at_zero - 0.5) < 1e-3
        assert abs(curve.mass() - 1.0) < 1e-4

    def test_grid_is_inside_margins(self):
        poly = M.build_resolvent(M.mp(1))
        curve = R.density_curve(poly, n_points=32, edge_margin=0.05)
        xs = curve.xs()
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
        assert blob["atom_at_zero"] == curve.atom_at_zero
        for (jx, jr), (x, rho) in zip(blob["points"], curve.points):
            assert jx == x and jr == rho


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
        # 2 Re G equals G(x + i eps) + G(x - i eps) by reflection
        ev = R._evaluator(mp_poly)
        g = ev.extrapolated_green(2.5)
        assert abs(R.potential_derivative(mp_poly, 2.5)
                   - (g + g.conjugate()).real) < 1e-12


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
