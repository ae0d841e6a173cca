from fractions import Fraction as F

import numpy as np
import pytest

from freeconv import measures as M
from freeconv.errors import DomainError, PoleError


class TestSEval:
    def test_mp_at_zero(self):
        assert M.s_eval(M.mp(1), 0) == 1

    def test_bures_at_zero(self):
        spec = M.boxtimes(M.arcsine(), M.mp(1))
        assert abs(M.s_eval(spec, 0) - 1) < 1e-15

    def test_mp_square_at_one(self):
        spec = M.free_power(M.mp(1), 2)
        assert abs(M.s_eval(spec, 1.0) - 0.25) < 1e-15

    def test_pole(self):
        with pytest.raises(PoleError):
            M.s_eval(M.mp(1), -1.0)

    def test_first_moment_is_inverse_s0(self):
        spec = M.rational_factor((2, 2), (1, 2))  # free binomial
        assert abs(M.s_eval(spec, 0) - 2) < 1e-15

    def test_fractional_power_principal_branch(self):
        spec = M.free_power(M.mp(1), F(1, 2))
        w = 0.3 + 0.1j
        want = (1 / (1 + w)) ** 0.5
        assert abs(M.s_eval(spec, w) - want) < 1e-14


class TestBoxtimes:
    def test_concatenation_and_value(self):
        spec = M.boxtimes(M.arcsine(), M.mp(1))
        assert len(spec.factors) == 2
        w = 0.2 + 0.05j
        want = (w + 2) / (2 * (1 + w) ** 2)
        assert abs(M.s_eval(spec, w) - want) < 1e-14

    def test_identity_neutral(self):
        spec = M.boxtimes(M.mp(1), M.identity())
        assert spec == M.mp(1)
        assert M.boxtimes(M.identity(), M.identity()) == M.identity()

    def test_triple_product(self):
        spec = M.mp(1) * M.mp(1) * M.mp(1)
        w = 0.7 - 0.2j
        assert abs(M.s_eval(spec, w) - (1 + w) ** -3) < 1e-13

    def test_product_rule_random_points(self):
        # s_eval(a x b) = s_eval(a) s_eval(b) away from poles
        rng = np.random.default_rng(11)
        a = M.boxtimes(M.arcsine(), M.mp(F(1, 4)))
        b = M.free_power(M.mp(1), F(3, 2))
        ab = M.boxtimes(a, b)
        for _ in range(100):
            w = complex(*rng.uniform(-0.4, 0.4, 2))  # disk well clear of w = -1
            lhs = M.s_eval(ab, w)
            rhs = M.s_eval(a, w) * M.s_eval(b, w)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestFreePower:
    def test_cube(self):
        spec = M.free_power(M.mp(1), 3)
        w = 0.5
        assert abs(M.s_eval(spec, w) - (1 + w) ** -3) < 1e-15

    def test_power_one_unchanged(self):
        spec = M.boxtimes(M.arcsine(), M.mp(2))
        assert M.free_power(spec, 1) == spec

    def test_third_root(self):
        spec = M.free_power(M.mp(1), F(1, 3))
        assert spec.factors[0][1] == F(1, 3)
        w = 0.4
        assert abs(M.s_eval(spec, w) - (1 + w) ** (-1 / 3)) < 1e-15

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            M.free_power(M.mp(1), 0)
        with pytest.raises(DomainError):
            M.free_power(M.mp(1), F(-1, 2))

    def test_exponents_lowest_terms(self):
        spec = M.free_power(M.free_power(M.mp(1), F(2, 3)), F(3, 4))
        assert spec.factors[0][1] == F(1, 2)


class TestBuildResolvent:
    def test_fc3_quartic(self, coefficient_rows):
        # w^4 + 4 w^3 + 6 w^2 + (4 - z) w + 1
        poly = M.build_resolvent(M.free_power(M.mp(1), 3))
        assert coefficient_rows(poly) == [[1, 0], [4, -1], [6, 0], [4, 0], [1, 0]]
        assert poly.clearing_power == 1

    def test_mp_sqrt_cubic(self, coefficient_rows):
        # w^3 + (3 - z^2) w^2 + 3 w + 1
        poly = M.build_resolvent(M.free_power(M.mp(1), F(1, 2)))
        assert coefficient_rows(poly) == [[1, 0, 0], [3, 0, 0], [3, 0, -1], [1, 0, 0]]
        assert poly.clearing_power == 2

    def test_mp_cbrt_quartic(self, coefficient_rows):
        # w^4 + (4 - z^3) w^3 + 6 w^2 + 4 w + 1
        poly = M.build_resolvent(M.free_power(M.mp(1), F(1, 3)))
        assert coefficient_rows(poly) == [
            [1, 0, 0, 0], [4, 0, 0, 0], [6, 0, 0, 0], [4, 0, 0, -1], [1, 0, 0, 0]]
        assert poly.clearing_power == 3

    def test_generalized_bures_cubic(self, coefficient_rows):
        # 2 c w^3 + (2 + 4c - z) w^2 + (4 + 2c - 2z) w + 2
        c = F(1, 4)
        poly = M.build_resolvent(M.boxtimes(M.arcsine(), M.mp(c)))
        assert coefficient_rows(poly) == [
            [2, 0], [4 + 2 * c, -2], [2 + 4 * c, -1], [2 * c, 0]]

    def test_vanishing_relation_random(self):
        # P(w, z) = 0 whenever z w S(w) = 1 + w
        rng = np.random.default_rng(5)
        specs = [
            M.mp(1),
            M.free_power(M.mp(1), 2),
            M.boxtimes(M.arcsine(), M.mp(F(1, 2))),
            M.free_power(M.mp(1), F(1, 2)),
            M.free_power(M.arcsine(), F(1, 2)),
        ]
        for spec in specs:
            poly = M.build_resolvent(spec)
            for _ in range(40):
                w = complex(*rng.uniform(-0.35, 0.35, 2))
                s = M.s_eval(spec, w)
                if abs(w * s) < 1e-3:
                    continue
                z = (1 + w) / (w * s)
                coeffs = max(np.abs(col).max() for col in poly.float_columns)
                scale = coeffs * max(1.0, abs(z)) ** poly.clearing_power
                scale *= max(1.0, abs(w)) ** poly.w_degree
                value = np.polynomial.polynomial.polyval(w, poly.wcoeffs_at(z))
                assert abs(value) <= 1e-10 * scale

    def test_common_factor_is_divided_out(self):
        # S = (w + 2)/(2 (1 + w)) * 2/(2 + w) = 1/(1 + w): a0 and aq share w + 2
        poly = M.build_resolvent(M.boxtimes(M.arcsine(), M.mp(F(1, 2))))
        plain = M.build_resolvent(M.mp(1))
        assert (poly.a0, poly.aq, poly.clearing_power) == (
            plain.a0, plain.aq, plain.clearing_power)
        assert all(type(c) is F for c in poly.a0 + poly.aq)

    def test_arcsine_free_powers(self, coefficient_rows):
        # as^(1/2): (w+2) w^2 z^2 = 2 (w+1)^3; as^2: (w+2)^2 w z = 4 (w+1)^3
        half = M.build_resolvent(M.free_power(M.arcsine(), F(1, 2)))
        # 2(1+w)^3 - z^2 w^2 (w+2)
        assert coefficient_rows(half) == [
            [2, 0, 0], [6, 0, 0], [6, 0, -2], [2, 0, -1]]
        sq = M.build_resolvent(M.free_power(M.arcsine(), 2))
        # 4(1+w)^3 - z w (w+2)^2
        assert coefficient_rows(sq) == [[4, 0], [12, -4], [12, -4], [4, -1]]

    def test_identity_measure_linear(self, coefficient_rows):
        poly = M.build_resolvent(M.identity())
        assert coefficient_rows(poly) == [[1, 0], [1, -1]]


class TestLabels:
    def test_label_round_trip(self):
        from freeconv.grammar import parse_measure

        specs = [
            M.mp(1),
            M.free_power(M.mp(1), F(1, 3)),
            M.boxtimes(M.arcsine(), M.free_power(M.mp(F(1, 2)), 2)),
            M.rational_factor((2, 2), (1, 2)),
        ]
        for spec in specs:
            assert parse_measure(spec.label()) == spec


class TestNthRootFraction:
    def test_perfect_powers_beyond_float_precision(self):
        assert M._nth_root_fraction(F(3 ** 400), 400) == 3
        assert M._nth_root_fraction(F((10 ** 40 + 1) ** 2), 2) == 10 ** 40 + 1
        assert M._nth_root_fraction(F(1, (10 ** 40 + 1) ** 2), 2) == F(1, 10 ** 40 + 1)

    def test_beyond_float_range(self):
        assert M._nth_root_fraction(F(10 ** 400), 2) == 10 ** 200

    def test_non_power_is_none(self):
        assert M._nth_root_fraction(F((10 ** 40 + 1) ** 2 + 1), 2) is None
        assert M._nth_root_fraction(F(2, 9), 2) is None
