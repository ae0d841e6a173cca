import math
from fractions import Fraction as F

import numpy as np
import pytest

from freeconv import closedform as C
from freeconv import measures as M
from freeconv import resolvent as R
from freeconv.errors import DomainError


class TestPointValues:
    def test_mp_unit(self):
        fam = C.family("mp(1)")
        assert fam.density(5.0) == 0.0
        assert fam.density(-0.5) == 0.0
        assert abs(fam.density(1.0) - math.sqrt(3) / (2 * math.pi)) < 1e-15
        assert abs(fam.density(2.0) - 1 / (2 * math.pi)) < 1e-15

    def test_arcsine_midpoint(self):
        assert abs(C.family("as").density(1.0) - 1 / math.pi) < 1e-15

    def test_bures2_at_two(self):
        assert abs(C.family("bures2").density(2.0) - 1 / (4 * math.pi)) < 1e-15

    def test_fc3_vanishes_at_upper_edge(self):
        fam = C.family("fc3")
        hi = 256 / 27
        values = [fam.density(hi - d) for d in (1e-2, 1e-4, 1e-6)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-2
        assert fam.density(hi) == 0.0

    def test_outside_support_exactly_zero(self):
        for fam in C.all_families():
            lo, hi = fam.support
            assert fam.density(hi + 0.1) == 0.0
            assert fam.density(lo - 0.1 if lo > 0 else -0.1) == 0.0

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            C.family("nope")

    def test_every_family_is_a_density_source(self):
        for fam in C.all_families():
            assert isinstance(fam, R.DensitySource), fam.name
            xs = np.linspace(fam.support[0] - 0.5, fam.support[1] + 0.5, 41)
            assert fam.density(xs).tolist() == [fam.density(x) for x in xs.tolist()]


class TestSupports:
    def test_exact_values(self):
        expected = {
            "mp(1)": (0.0, 4.0),
            "as": (0.0, 2.0),
            "fc2": (0.0, 27 / 4),
            "fc3": (0.0, 256 / 27),
            "mp-sqrt": (0.0, math.sqrt(27 / 4)),
            "mp-cbrt": (0.0, (256 / 27) ** (1 / 3)),
            "bures": (0.0, 3 * math.sqrt(3)),
            "bures2": (0.0, 8.0),
        }
        for name, (lo, hi) in expected.items():
            fam = C.family(name)
            (got_lo, got_hi), atom = fam.support, fam.atom
            assert got_lo == lo and abs(got_hi - hi) < 1e-14
            assert atom == 0.0

    def test_mp_quarter(self):
        lo, hi = C.family("mp(1/4)").support
        assert abs(lo - 0.25) < 1e-14 and abs(hi - 2.25) < 1e-14

    def test_supports_match_resolvent(self):
        for fam in C.all_families():
            lo, hi = R.support_edges(M.build_resolvent(fam.measure))
            assert abs(lo - fam.support[0]) < 1e-8
            assert abs(hi - fam.support[1]) < 1e-8


class TestCdf:
    def test_arcsine_symmetry(self):
        assert abs(C.cdf(C.family("as"), 1.0) - 0.5) < 1e-10

    def test_boundary_values(self):
        fam = C.family("mp(1)")
        assert C.cdf(fam, 0.0) == 0.0
        assert C.cdf(fam, 4.0) == 1.0
        assert C.cdf(fam, -1.0) == 0.0
        fam4 = C.family("mp(1/4)")
        assert C.cdf(fam4, 0.2) == 0.0  # below the lower edge, no atom

    def test_monotone(self):
        fam = C.family("bures")
        xs = np.linspace(0.01, fam.support[1], 40)
        vals = [C.cdf(fam, float(x)) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_interpolator_agrees_with_quadrature(self):
        for fam in C.all_families():
            fast = C.cdf_interpolator(fam)
            for q in (0.2, 0.5, 0.8):
                x = fam.support[0] + q * (fam.support[1] - fam.support[0])
                assert abs(fast(x) - C.cdf(fam, x)) < 5e-5


class TestMassAndMean:
    def test_all_families_normalised(self):
        for fam in C.all_families():
            m0, m1 = C.mass_and_mean(fam)
            assert abs(m0 - 1.0) < 1e-6, fam.name
            assert abs(m1 - 1.0) < 1e-6, fam.name

    def test_mp_above_one_carries_its_atom(self):
        # the formula carries mass 1/c; the rest, 1 - 1/c, sits at zero
        fam = C.family("mp(2)")
        assert fam.atom == 0.5
        m0, m1 = C.mass_and_mean(fam)
        assert abs(m0 - 0.5) < 1e-6 and abs(m1 - 1.0) < 1e-6
        cdf = C.cdf_interpolator(fam)
        assert cdf(-0.1) == 0.0
        assert cdf(0.1) == 0.5  # below the lower edge (1 - sqrt 2)^2
        assert abs(cdf(fam.support[1]) - 1.0) < 1e-12


class TestAgainstResolvent:
    @pytest.mark.parametrize("name", ["mp-sqrt", "mp-cbrt", "fc3"])
    def test_interior_match(self, name):
        fam = C.family(name)
        poly = M.build_resolvent(fam.measure)
        lo, hi = fam.support
        width = hi - lo
        xs = np.linspace(lo + 0.01 * width, hi - 0.01 * width, 60)
        peak = max(fam.density(float(x)) for x in xs)
        for x in xs:
            got = R.density(poly, float(x))
            assert abs(got - fam.density(float(x))) < 1e-6 * peak

    def test_bures_half_reduces_to_mp(self):
        # arcsine x mp(1/2) has the plain Marchenko-Pastur density
        fam = C.family("mp(1)")
        poly = M.build_resolvent(M.boxtimes(M.arcsine(), M.mp(F(1, 2))))
        lo, hi = R.support_edges(poly)
        assert abs(lo) < 1e-8 and abs(hi - 4.0) < 1e-8
        for x in np.linspace(0.05, 3.95, 40):
            assert abs(R.density(poly, float(x)) - fam.density(float(x))) < 1e-8

    def test_two_bures_half_is_fc2(self):
        fam = C.family("fc2")
        spec = M.boxtimes(M.boxtimes(M.arcsine(), M.mp(F(1, 2))),
                          M.mp(1))
        poly = M.build_resolvent(spec)
        lo, hi = R.support_edges(poly)
        assert abs(hi - 27 / 4) < 1e-8
        for x in np.linspace(0.07, 6.68, 40):
            assert abs(R.density(poly, float(x)) - fam.density(float(x))) < 1e-8
