from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeconv import measures as M
from freeconv import moments as Mo
from freeconv.errors import DomainError


def catalan_row(n):
    return [F(comb(2 * k, k), k + 1) for k in range(n + 1)]


class TestFussCatalan:
    def test_catalan_row(self):
        assert [Mo.fuss_catalan(1, n) for n in range(5)] == [1, 1, 2, 5, 14]

    def test_n_zero_any_s(self):
        for s in (1, 2, F(1, 3), F(7, 5)):
            assert Mo.fuss_catalan(s, 0) == 1

    def test_small_values(self):
        assert Mo.fuss_catalan(2, 2) == 3
        assert Mo.fuss_catalan(3, 2) == 4

    def test_catalan_recurrence(self):
        # independent cross-check: C(n+1) = sum C(i) C(n-i)
        c = [Mo.fuss_catalan(1, n) for n in range(10)]
        for n in range(9):
            assert c[n + 1] == sum(c[i] * c[n - i] for i in range(n + 1))

    def test_undefined_at_pole(self):
        with pytest.raises(DomainError):
            Mo.fuss_catalan(F(-1, 2), 2)


class TestMomentsFromResolvent:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_fuss_catalan_families(self, s):
        poly = M.build_resolvent(M.free_power(M.mp(1), s))
        ms = Mo.moments_from_resolvent(poly, 12)
        assert list(ms.values) == [Mo.fuss_catalan(s, n) for n in range(13)]

    def test_fractional_powers(self):
        # K = 64 is the order the benchmark asks for
        for s, K in ((F(1, 2), 8), (F(1, 3), 8), (F(5, 2), 64), (F(4, 3), 64)):
            poly = M.build_resolvent(M.free_power(M.mp(1), s))
            ms = Mo.moments_from_resolvent(poly, K)
            assert list(ms.values) == [Mo.fuss_catalan(s, n) for n in range(K + 1)]

    def test_arcsine(self):
        poly = M.build_resolvent(M.arcsine())
        ms = Mo.moments_from_resolvent(poly, 8)
        # m_k = C(2k, k) / 2^k
        assert list(ms.values) == [F(comb(2 * k, k), 2 ** k) for k in range(9)]

    def test_identity(self):
        ms = Mo.moments_from_resolvent(M.build_resolvent(M.identity()), 6)
        assert all(v == 1 for v in ms.values)

    def test_free_binomial(self):
        spec = M.rational_factor((2, 2), (1, 2))
        ms = Mo.moments_from_resolvent(M.build_resolvent(spec), 8)
        assert list(ms.values) == [F(1)] + [F(1, 2)] * 8

    def test_bures_consistency(self):
        # moments of AS x MP from the cubic equal the S-series product route
        cubic = M.build_resolvent(M.boxtimes(M.arcsine(), M.mp(1)))
        from_cubic = Mo.moments_from_resolvent(cubic, 10)
        m_as = Mo.moments_from_resolvent(M.build_resolvent(M.arcsine()), 10)
        m_mp = Mo.moments_from_resolvent(M.build_resolvent(M.mp(1)), 10)
        from_product = Mo.boxtimes_moments(m_as, m_mp, 10)
        assert from_cubic.values == from_product.values

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(st.booleans(),
           st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6), st.sampled_from([1, 2])),
                    min_size=2, max_size=3))
    def test_boxtimes_chain_matches_the_resolvent(self, leading_as, factors):
        # [as *] mp(p/q)^e * ...: the S-series product of the factors'
        # closed-form moments against the series of the cleared polynomial
        K = 6
        spec = M.arcsine() if leading_as else M.identity()
        chain = [[F(comb(2 * k, k), 2 ** k) for k in range(K + 1)]] if leading_as else []
        for p, q, e in factors:
            c = F(p, q)
            spec = spec * M.mp(c) ** e
            # Narayana polynomials: m_k = sum_j binom(k, j) binom(k, j - 1) c^(k - j) / k
            narayana = [F(1)] + [sum(F(comb(k, j) * comb(k, j - 1), k) * c ** (k - j)
                                     for j in range(1, k + 1)) for k in range(1, K + 1)]
            chain += [narayana] * e
        want = chain[0]
        for m in chain[1:]:
            want = Mo.boxtimes_moments(want, m, K)
        got = Mo.moments_from_resolvent(M.build_resolvent(spec), K)
        assert got.values == want.values


class TestCumulants:
    def test_marchenko_pastur_all_ones(self):
        ms = Mo.moments_from_resolvent(M.build_resolvent(M.mp(1)), 10)
        kappa = Mo.cumulants_from_moments(ms)
        assert all(k == 1 for k in kappa.values)

    def test_point_mass(self):
        kappa = Mo.cumulants_from_moments([F(1)] * 9)
        assert kappa[1] == 1
        assert all(kappa[j] == 0 for j in range(2, 9))

    def test_arcsine_first_two(self):
        ms = Mo.moments_from_resolvent(M.build_resolvent(M.arcsine()), 8)
        kappa = Mo.cumulants_from_moments(ms)
        assert kappa[1] == 1 and kappa[2] == F(1, 2)

    def test_round_trip_exact(self):
        seqs = [
            [F(1), F(1), F(2), F(5), F(14), F(42)],
            [F(1), F(1, 2), F(1, 2), F(5, 8), F(7, 8)],
            [F(1), F(2), F(5), F(15), F(51)],
        ]
        for m in seqs:
            kappa = Mo.cumulants_from_moments(m)
            back = Mo.moments_from_cumulants(kappa)
            assert list(back.values) == m
        for kap in ([F(1), F(1, 2), F(-1, 3), F(2)], [F(2), F(0), F(1)]):
            back = Mo.cumulants_from_moments(Mo.moments_from_cumulants(kap))
            assert list(back.values) == kap

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                    min_size=1, max_size=8))
    def test_round_trips_on_random_sequences(self, tail):
        # m_1 .. m_K drawn freely with m_1 != 0; both round trips are exact
        if tail[0] == 0:
            tail[0] = F(1)
        m = [F(1)] + tail
        K = len(tail)
        assert list(Mo.moments_from_cumulants(Mo.cumulants_from_moments(m)).values) == m
        assert list(Mo.moments_from_s_series(Mo.s_series_from_moments(m), K).values) == m

    def test_kappa1_equals_m1(self):
        m = [F(1), F(3, 2), F(3), F(7)]
        assert Mo.cumulants_from_moments(m)[1] == F(3, 2)


class TestSSeries:
    def test_mp_series(self):
        ms = Mo.moments_from_resolvent(M.build_resolvent(M.mp(1)), 8)
        s = Mo.s_series_from_moments(ms, 6)
        # S(w) = 1/(1+w) = 1 - w + w^2 - ...
        assert s == [F(1), F(-1), F(1), F(-1), F(1), F(-1)]

    def test_round_trip(self):
        s = [F(1), F(-1, 2), F(1, 3), F(2, 7), F(-3, 5)]
        ms = Mo.moments_from_s_series(s, 5)
        back = Mo.s_series_from_moments(ms, 5)
        assert back == s

    def test_boxtimes_order_beyond_the_inputs(self):
        # Catalan moments of order 3 cannot give mp(1)^2 to order 6
        with pytest.raises(DomainError, match="orders 3 and 5"):
            Mo.boxtimes_moments(catalan_row(3), catalan_row(5), 6)
        want = [Mo.fuss_catalan(2, n) for n in range(7)]
        assert list(Mo.boxtimes_moments(catalan_row(6), catalan_row(6), 6).values) == want
        assert Mo.boxtimes_moments(catalan_row(3), catalan_row(3), 0).values == (1,)
        assert Mo.s_series_from_moments(catalan_row(3), 0) == []

    @pytest.mark.parametrize("s", [[1], []])
    def test_order_zero_from_s_series(self, s):
        assert Mo.moments_from_s_series(s, 0).values == (1,)


class TestMomentsFromDensity:
    def test_marchenko_pastur(self):
        from freeconv import resolvent as R

        curve = R.density_curve(M.build_resolvent(M.mp(1)), n_points=64)
        m = Mo.moments_from_density(curve, 2)
        assert abs(m[2] - 2.0) < 1e-5

    def test_arcsine(self):
        from freeconv import resolvent as R

        curve = R.density_curve(M.build_resolvent(M.arcsine()), n_points=64)
        m = Mo.moments_from_density(curve, 2)
        assert abs(m[2] - 1.5) < 1e-5

    def test_generalized_bures_total_mass(self):
        from freeconv import resolvent as R

        curve = R.density_curve(
            M.build_resolvent(M.boxtimes(M.arcsine(), M.mp(2))), n_points=64)
        m = Mo.moments_from_density(curve, 1)
        assert abs(m[0] - 1.0) < 1e-4  # atom included
        assert abs(m[1] - 1.0) < 1e-4

    def test_closed_form_families_match_exact(self):
        from freeconv import closedform as C
        from freeconv import resolvent as R

        for fam in C.all_families():
            curve = R.curve_from_callable(fam, n_points=16)
            exact = Mo.moments_from_resolvent(
                M.build_resolvent(fam.measure), 6)
            got = Mo.moments_from_density(curve, 6)
            for k in range(7):
                rel = abs(got[k] - float(exact[k])) / float(exact[k])
                assert rel < 1e-5, (fam.name, k, rel)
