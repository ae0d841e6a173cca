from fractions import Fraction as F

import numpy as np
import pytest

from freeconv import closedform as C
from freeconv import ensembles as E
from freeconv import moments as Mo
from freeconv.errors import ConvergenceError, DomainError


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestGinibre:
    def test_entry_second_moment(self):
        g = E.sample_ginibre(1000, 1000, rng(1))
        assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 0.01

    def test_scalar_case(self):
        g = E.sample_ginibre(1, 1, rng(2))
        assert g.shape == (1, 1) and np.iscomplexobj(g)

    def test_column_norm_concentration(self):
        n = 256
        g = E.sample_ginibre(n, n, rng(3))
        norms = np.sum(np.abs(g) ** 2, axis=0)
        assert np.all(np.abs(norms - n) < 8 * np.sqrt(n))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            E.sample_ginibre(0, 3, rng())

    def test_real_and_imaginary_parts_have_variance_half(self):
        g = E.sample_ginibre(500, 500, rng(4))
        assert abs(g.real.var() - 0.5) < 0.01
        assert abs(g.imag.var() - 0.5) < 0.01
        assert abs(np.mean(g.real * g.imag)) < 0.01


class TestHaarUnitary:
    def test_unitarity(self):
        u = E.sample_haar_unitary(32, rng(4))
        assert np.abs(u.conj().T @ u - np.eye(32)).max() < 1e-12

    def test_scalar_is_phase(self):
        u = E.sample_haar_unitary(1, rng(5))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14

    def test_trace_mean_near_zero(self):
        n = 8
        traces = [np.trace(E.sample_haar_unitary(n, rng(100 + j))) for j in range(2000)]
        assert abs(np.mean(traces)) < 0.05 * np.sqrt(n)


class TestHermitianEigenvalues:
    def test_identity_and_diagonal(self):
        assert np.allclose(E.hermitian_eigenvalues(np.eye(3)), [1, 1, 1])
        assert np.allclose(E.hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_random_hermitian_against_char_poly(self):
        g = rng(6)
        a = g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4))
        h = a + a.conj().T
        vals = E.hermitian_eigenvalues(h)
        assert abs(vals.sum() - np.trace(h).real) < 1e-10
        for lam in vals:
            assert abs(np.linalg.det(h - lam * np.eye(4))) < 1e-8

    def test_matches_lapack(self):
        g = rng(7)
        a = g.normal(size=(24, 24)) + 1j * g.normal(size=(24, 24))
        h = a + a.conj().T
        got = E.hermitian_eigenvalues(h)
        want = np.linalg.eigvalsh(h)
        assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()

    def test_rejects_nonhermitian(self):
        with pytest.raises(DomainError):
            E.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestBuildSample:
    def test_square_chain_count_and_mean(self):
        cfg = E.EnsembleConfig(n=64, ginibre_shape_ratios=(1,), samples=1, seed=9)
        eig, zeros = E.build_sample(cfg, rng(9))
        assert len(eig) == 64 and zeros == 0
        assert abs(eig.mean() - 1.0) < 5 / np.sqrt(64)

    def test_rectangular_chain_records_structural_zeros(self):
        cfg = E.EnsembleConfig(n=64, ginibre_shape_ratios=(2,),
                               unitary_sum_k=2, samples=1, seed=9)
        eig, zeros = E.build_sample(cfg, rng(9))
        assert len(eig) == 64 and zeros == 64  # spectrum lives on the 2N side

    def test_contracting_chain(self):
        cfg = E.EnsembleConfig(n=64, ginibre_shape_ratios=(1, F(1, 2)),
                               samples=1, seed=9)
        eig, zeros = E.build_sample(cfg, rng(9))
        assert len(eig) == 32 and zeros == 0

    def test_interior_bottleneck_counts_structural_zeros(self):
        # dims [64, 32, 64]: X is square but has rank 32
        cfg = E.EnsembleConfig(n=64, ginibre_shape_ratios=(F(1, 2), 1),
                               samples=1, seed=9)
        eig, zeros = E.build_sample(cfg, rng(9))
        assert len(eig) == 32 and zeros == 32
        assert (eig > 1e-8 * eig.max()).all()

    def test_dropped_block_must_be_numerically_zero(self, monkeypatch):
        cfg = E.EnsembleConfig(n=64, ginibre_shape_ratios=(F(1, 2), 1),
                               samples=1, seed=9)
        monkeypatch.setattr(E, "hermitian_eigenvalues",
                            lambda h: np.linspace(1.0, 2.0, h.shape[0]))
        with pytest.raises(ConvergenceError):
            E.build_sample(cfg, rng(9))


class TestSimulate:
    def test_determinism(self):
        cfg = E.EnsembleConfig(n=32, ginibre_shape_ratios=(1,), samples=6, seed=12)
        a = E.simulate(cfg)
        b = E.simulate(cfg)
        assert np.array_equal(a.values, b.values)

    def test_streams_of_neighbouring_seeds_differ(self):
        # (seed, j) = (2024, 1) and (2025, 0) must not share a stream
        a = E._stream(2024, 1).standard_normal(8)
        b = E._stream(2025, 0).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_mean_and_positivity(self):
        cfg = E.EnsembleConfig(n=64, ginibre_shape_ratios=(1, 1), samples=5, seed=3)
        spec = E.simulate(cfg)
        assert (spec.values >= 0).all()
        assert abs(spec.mean() - 1.0) < 5 / np.sqrt(64)

    def test_moment_matching_square_products(self):
        for s in (1, 2, 3):
            cfg = E.EnsembleConfig(n=128, ginibre_shape_ratios=(1,) * s,
                                   samples=8, seed=21)
            spec = E.simulate(cfg)
            vals = spec.values
            n_tot = len(vals)
            for k in (2, 3):
                emp = (vals ** k).mean()
                stderr = (vals ** k).std(ddof=1) / np.sqrt(n_tot)
                exact = float(Mo.fuss_catalan(s, k))
                # matrix-size bias ~ 1/N^2 also enters; allow 3 sigma + bias
                assert abs(emp - exact) < 3 * stderr + 30 * exact / 128 ** 2, (s, k)

    def test_generalized_bures_zero_fraction(self):
        cfg = E.EnsembleConfig(n=64, ginibre_shape_ratios=(2,),
                               unitary_sum_k=2, samples=6, seed=17)
        spec = E.simulate(cfg)
        assert abs(spec.atom_fraction() - 0.5) < 0.05
        assert abs(spec.mean() - 1.0) < 5 / np.sqrt(64)


class TestConfigForMeasure:
    def test_square_products(self):
        import freeconv.measures as M

        cfg = E.config_for_measure(M.mp(1) ** 3, n=64, samples=5, seed=1)
        assert cfg.ginibre_shape_ratios == (F(1), F(1), F(1))
        assert cfg.unitary_sum_k == 0

    def test_rectangular_product(self):
        import freeconv.measures as M

        cfg = E.config_for_measure(M.mp(F(1, 2)) ** 2, n=64)
        assert cfg.ginibre_shape_ratios == (F(1), F(1, 2))

    def test_bures_prefactor(self):
        import freeconv.measures as M

        cfg = E.config_for_measure(M.arcsine() * M.mp(1), n=64)
        assert cfg.unitary_sum_k == 2
        assert cfg.ginibre_shape_ratios == (F(1),)

    def test_unit_factor_anchors_rectangular_bures(self):
        import freeconv.measures as M

        # a unit rectangularity is moved first so the chain stays square
        # on the side the unitary prefactor acts on
        cfg = E.config_for_measure(M.arcsine() * M.mp(2) * M.mp(1), n=64)
        assert cfg.ginibre_shape_ratios == (F(1, 2), F(1))
        assert cfg.unitary_sum_k == 2

    def test_rejects_unrealisable(self):
        import freeconv.measures as M

        for bad in (M.mp(1) ** F(1, 2), M.arcsine() * M.mp(2),
                    M.arcsine() ** 2):
            with pytest.raises(DomainError):
                E.config_for_measure(bad)

    def test_interior_contraction_matches_model(self):
        import freeconv.measures as M
        from freeconv import resolvent as R

        spec = M.arcsine() * M.mp(2) * M.mp(1)
        cfg = E.config_for_measure(spec, n=96, samples=8, seed=33)
        spectrum = E.simulate(cfg)
        model = R.cdf_interpolator(M.build_resolvent(spec))
        assert abs(spectrum.atom_fraction() - 0.5) < 0.05
        assert E.ks_distance(spectrum, model) < 0.06


class TestKsDistance:
    def test_self_comparison_is_zero(self):
        cfg = E.EnsembleConfig(n=32, ginibre_shape_ratios=(1,), samples=2, seed=1)
        spec = E.simulate(cfg)
        xs = np.sort(spec.values)

        def ecdf(t):
            return np.searchsorted(xs, t, side="right") / len(xs)

        assert E.ks_distance(spec, ecdf) <= 1e-12

    def test_marchenko_pastur_desk_scale(self):
        cfg = E.EnsembleConfig(n=128, ginibre_shape_ratios=(1,), samples=10, seed=5)
        spec = E.simulate(cfg)
        model = C.cdf_interpolator(C.family("mp(1)"))
        assert E.ks_distance(spec, model) < 0.05

    def test_fc2_desk_scale(self):
        cfg = E.EnsembleConfig(n=128, ginibre_shape_ratios=(1, 1), samples=10, seed=6)
        spec = E.simulate(cfg)
        model = C.cdf_interpolator(C.family("fc2"))
        assert E.ks_distance(spec, model) < 0.05

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            E.ks_distance(np.array([]), lambda x: x)
