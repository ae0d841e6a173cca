import cmath
import math
from fractions import Fraction as F
from math import comb

import numpy as np
import pytest

from freeconv import isotropic as I
from freeconv import measures as M
from freeconv.errors import DomainError


class TestRadialCdf:
    def test_single_ginibre_is_circular_law(self):
        for r in (0.05, 0.25, 0.5, 0.75, 0.95):
            assert abs(I.radial_cdf(M.mp(1), r) - r * r) < 1e-10

    def test_two_ginibre_product(self):
        spec = M.free_power(M.mp(1), 2)
        for r in (0.1, 0.4, 0.8, 0.99):
            assert abs(I.radial_cdf(spec, r) - r) < 1e-10

    def test_clamps(self):
        assert I.radial_cdf(M.mp(1), 50.0) == 1.0
        assert I.radial_cdf(M.mp(1), 0.0) == 0.0

    def test_profile_monotone(self):
        for spec in (M.mp(1), M.free_power(M.mp(1), 2), M.free_power(M.mp(1), 3)):
            prof = I.radial_profile(spec, n_points=200)
            diffs = np.diff(prof.values)
            assert (diffs >= -1e-12).all()
            assert prof.values[-1] == 1.0


    def test_profile_scans_once(self, monkeypatch):
        spec = M.boxtimes(M.arcsine(), M.mp(1))
        calls = []
        scan = I._assert_monotone
        monkeypatch.setattr(I, "_assert_monotone", lambda s: calls.append(s) or scan(s))
        prof = I.radial_profile(spec, n_points=16)
        assert len(calls) == 1
        assert prof.values == tuple(I.radial_cdf(spec, r) for r in prof.radii)


class TestRingRadii:
    def test_ginibre_disc(self):
        assert I.ring_radii(M.mp(1)) == (0.0, 1.0)

    def test_identity_circle(self):
        r_in, r_out = I.ring_radii(M.identity())
        assert abs(r_in - 1.0) < 1e-6 and r_out == 1.0

    def test_mp_quarter_annulus(self):
        # S(-1+) = 1/(1 - 1/4) is finite, so the inner radius is
        # sqrt(1 - c) = sqrt(3)/2, a genuine ring
        r_in, r_out = I.ring_radii(M.mp(F(1, 4)))
        assert abs(r_in - math.sqrt(3) / 2) < 1e-6
        assert r_out == 1.0

    def test_outer_radius_is_sqrt_first_moment(self):
        # S(0) = 1/m1, so r_out = sqrt(m1)
        spec = M.rational_factor((2, 2), (1, 2))  # m1 = 1/2
        _, r_out = I.ring_radii(spec)
        assert abs(r_out - math.sqrt(0.5)) < 1e-12


class TestUnitarySums:
    def test_small_argument_slope(self):
        # R(z) ~ k z near zero
        assert I.r_sum_unitaries(2, 0.0) == 0.0
        for k in (1, 2, 5):
            val = I.r_sum_unitaries(k, 1e-3)
            assert abs(val / 1e-3 - k) < 1e-2

    def test_rejects_k_zero(self):
        with pytest.raises(DomainError):
            I.r_sum_unitaries(0, 0.1)

    def test_k1_green_function(self):
        # |U1| has all singular values 1; symmetrised law (d_1 + d_-1)/2
        # gives G(z) = z / (z^2 - 1)
        def r1(y):
            return I.r_sum_unitaries(1, y)

        for z in (3.0, 2.0 + 1.0j, -4.0 + 0.5j):
            got = I.green_from_r(r1, z)
            want = z / (z * z - 1.0)
            assert abs(got - want) < 1e-10

    def test_k2_green_function(self):
        def r2(y):
            return I.r_sum_unitaries(2, y)

        for z in (3.0 + 0.5j, 5.0, 2.5 + 1.0j):
            got = I.green_from_r(r2, z)
            want = 1.0 / cmath.sqrt(z * z - 4.0)
            assert abs(got - want) < 1e-10


class TestGreenIdentities:
    def test_square_modulus_of_unitary_sum(self):
        def g(s):
            return 1.0 / cmath.sqrt(s * s - 4.0)

        for z in (6.0, 5.0 + 1.0j):
            got = I.square_modulus_green(g, z)
            want = 1.0 / cmath.sqrt(z * (z - 4.0))
            assert abs(got - want) < 1e-12

    def test_square_of_symmetrised_identity(self):
        # H with the symmetric law (d_1 + d_-1)/2 has H^2 = identity
        def g(s):
            return s / (s * s - 1.0)

        for z in (4.0, 2.0 + 1.0j):
            assert abs(I.square_modulus_green(g, z) - 1.0 / (z - 1.0)) < 1e-12

    def test_rescale_identity_and_factor_two(self):
        def g(s):
            return 1.0 / cmath.sqrt(s * (s - 4.0))

        z = 5.0 + 0.3j
        assert I.rescale_green(g, 1.0, z) == g(z)
        got = I.rescale_green(g, 2.0, z)
        want = 1.0 / cmath.sqrt(z * (z - 2.0))
        assert abs(got - want) < 1e-12

    def test_rescale_requires_positive(self):
        with pytest.raises(DomainError):
            I.rescale_green(lambda z: 1 / z, -1.0, 2.0)


class TestFactorizationChain:
    def test_first_moment_of_squared_sum(self):
        def g_u2(s):
            return I.green_from_r(lambda y: I.r_sum_unitaries(2, y), s)

        def g_sq(z):
            return I.square_modulus_green(g_u2, z)

        m = I.moments_from_green(g_sq, 1, center=2.0, radius=9.0)
        assert abs(m[0] - 1.0) < 1e-10
        assert abs(m[1] - 2.0) < 1e-9

    def test_chain_reproduces_arcsine_moments(self):
        def g_u2(s):
            return I.green_from_r(lambda y: I.r_sum_unitaries(2, y), s)

        def g_as(z):
            return I.rescale_green(lambda u: I.square_modulus_green(g_u2, u), 2.0, z)

        got = I.moments_from_green(g_as, 8, center=1.0, radius=6.0, n_nodes=4096)
        want = [comb(2 * k, k) / 2 ** k for k in range(9)]
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-6 * max(1.0, w)

    def test_rescaled_measure_has_unit_mean(self):
        def g_u2(s):
            return I.green_from_r(lambda y: I.r_sum_unitaries(2, y), s)

        def g_as(z):
            return I.rescale_green(lambda u: I.square_modulus_green(g_u2, u), 2.0, z)

        m = I.moments_from_green(g_as, 1, center=1.0, radius=6.0)
        assert abs(m[1] - 1.0) < 1e-9
