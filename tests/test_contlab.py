"""Numeric lab: normal cdfs, elliptical densities, Gaussian sequences, MC."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from stochex.contlab import (
    EllipticalModel,
    EmpiricalCdf,
    GaussianSeqSpec,
    MCConfig,
    StudentTGenerator,
    bivariate_elliptical,
    build_gaussian_seq,
    density_symmetry_grid,
    dkw_band,
    folded_normal_cdf,
    intraclass_model,
    ks_distance,
    mc_dominance,
    mlr_scale_density,
    phi,
    phi2,
    sample_elliptical,
    sample_gaussian,
    verify_identity_11,
    verify_mlr_example,
)
from stochex.contlab.elliptical import GRID_TOLERANCE
from stochex.errors import (
    EmptyGrid,
    InvalidSpec,
    InvalidThetaOrder,
    NotPositiveDefinite,
    RhoOutOfRange,
)

from _support import (
    reference_density,
    reference_density_symmetry_grid,
    reference_folded_normal_cdf,
)


def _grid(lo, hi, steps):
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _phi2_oracle(x: float, y: float, rho: float) -> float:
    """Adaptive 2-D quadrature of the bivariate normal density."""
    det = 1.0 - rho * rho

    def density(v, u):
        q = (u * u - 2.0 * rho * u * v + v * v) / det
        return math.exp(-q / 2.0) / (2.0 * math.pi * math.sqrt(det))

    val, err = integrate.dblquad(
        density, -9.0, x, -9.0, y, epsabs=1e-13, epsrel=1e-13
    )
    assert err < 1e-11
    return val


class TestPhi:
    def test_golden_values(self):
        assert phi(0.0) == 0.5
        assert abs(phi(1.0) - 0.8413447460685429) < 1e-15
        assert abs(phi(-1.0) - (1.0 - phi(1.0))) < 1e-15
        assert abs(phi(1.0) - phi(-1.0) - 0.6826894921370859) < 1e-12


class TestPhi2:
    def test_against_quadrature_oracle_at_20_points(self):
        points = [
            (-1.5, -0.5, -0.95), (-1.5, 0.7, -0.5), (-1.5, 2.0, 0.0),
            (-0.5, -1.5, 0.5), (-0.5, -0.5, 0.95), (-0.5, 0.7, -0.95),
            (-0.5, 2.0, -0.5), (0.0, 0.0, 0.3), (0.7, -1.5, 0.5),
            (0.7, -0.5, 0.95), (0.7, 0.7, -0.95), (0.7, 2.0, -0.5),
            (2.0, -1.5, 0.0), (2.0, -0.5, 0.5), (2.0, 0.7, 0.95),
            (2.0, 2.0, -0.95), (1.2, 1.2, 0.99), (-1.2, 1.2, -0.99),
            (0.3, -0.8, 0.8), (-2.5, -2.5, 0.6),
        ]
        for x, y, rho in points:
            assert abs(phi2(x, y, rho) - _phi2_oracle(x, y, rho)) < 1e-12, (x, y, rho)

    def test_symmetry_in_arguments(self):
        for rho in (-0.9, -0.4, 0.0, 0.4, 0.9):
            for x in _grid(-2.5, 2.5, 9):
                for y in _grid(-2.5, 2.5, 9):
                    assert abs(phi2(x, y, rho) - phi2(y, x, rho)) < 1e-12

    def test_closed_form_at_origin(self):
        for rho in (-0.99, -0.6, -0.2, 0.0, 0.2, 0.6, 0.99):
            want = 0.25 + math.asin(rho) / (2.0 * math.pi)
            assert abs(phi2(0.0, 0.0, rho) - want) < 1e-13

    def test_saturation_to_univariate(self):
        for rho in (-0.9, 0.0, 0.9):
            for x in (-2.0, 0.0, 1.5):
                assert abs(phi2(x, 8.0, rho) - phi(x)) < 1e-10
                assert abs(phi2(8.0, x, rho) - phi(x)) < 1e-10

    def test_infinite_arguments(self):
        assert phi2(float("inf"), 1.0, 0.5) == phi(1.0)
        assert phi2(1.0, float("-inf"), 0.5) == 0.0

    def test_rho_bounds(self):
        with pytest.raises(RhoOutOfRange):
            phi2(0.0, 0.0, 1.0)
        with pytest.raises(RhoOutOfRange):
            phi2(0.0, 0.0, -1.5)


class TestIdentity11:
    def test_grid_report(self):
        report = verify_identity_11(_grid(0.0, 3.0, 13), [-0.95, -0.5, 0.0, 0.5, 0.95])
        assert report["pass"]
        assert report["max_deviation"] <= 1e-10
        assert report["points"] == 65

    def test_rejects_negative_thresholds(self):
        with pytest.raises(ValueError):
            verify_identity_11([-1.0], [0.0])


class TestEllipticalDensities:
    def test_gaussian_density_matches_scipy(self):
        rng = np.random.default_rng(1)
        model = bivariate_elliptical(1.0, -0.5, 1.2, 0.8, 0.4)
        ref = stats.multivariate_normal(mean=model.mean, cov=model.sigma())
        pts = rng.uniform(-3, 3, size=(50, 2))
        for pt in pts:
            assert abs(model.density(pt) - ref.pdf(pt)) < 1e-12
        assert np.all(np.abs(model.density(pts) - ref.pdf(pts)) < 1e-12)

    def test_student_t_density_matches_scipy(self):
        nu = 5.0
        model = bivariate_elliptical(0.0, 0.0, 1.0, 1.0, 0.3, StudentTGenerator(nu))
        ref = stats.multivariate_t(loc=[0, 0], shape=model.sigma(), df=nu)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-3, 3, size=(50, 2))
        for pt in pts:
            assert abs(model.density(pt) - ref.pdf(pt)) < 1e-12
        assert np.all(np.abs(model.density(pts) - ref.pdf(pts)) < 1e-12)

    def test_intraclass_rho_range(self):
        with pytest.raises(InvalidSpec):
            intraclass_model(3, -0.5)
        with pytest.raises(InvalidSpec):
            intraclass_model(3, 1.0)
        intraclass_model(3, -0.49)  # just inside the range

    def test_not_positive_definite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            EllipticalModel((0.0, 0.0), ((1.0, 1.0), (1.0, 1.0)))

    def test_student_t_needs_positive_nu(self):
        with pytest.raises(InvalidSpec):
            StudentTGenerator(0.0)

    @pytest.mark.parametrize("nu", [math.inf, math.nan])
    def test_student_t_needs_finite_positive_nu(self, nu):
        with pytest.raises(InvalidSpec):
            StudentTGenerator(nu)

    @pytest.mark.parametrize("sigma,tau", [(-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (0.0, 1.0),
                                           (math.nan, 1.0)])
    def test_bivariate_scales_must_be_positive(self, sigma, tau):
        with pytest.raises(InvalidSpec):
            bivariate_elliptical(0.0, 0.0, sigma, tau, 0.0)

    def test_density_of_one_point_is_a_float_and_of_rows_an_array(self):
        model = intraclass_model(3, 0.2)
        assert isinstance(model.density([0.1, 0.2, 0.3]), float)
        rows = np.array([[0.1, 0.2, 0.3], [1.0, -1.0, 0.5]])
        got = model.density(rows)
        assert got.shape == (2,)
        assert list(got) == [model.density(r) for r in rows]


class TestDensityGrids:
    AXES2 = [_grid(-3.0, 3.0, 13)] * 2

    def test_centered_equal_scale_model_reflects_exactly(self):
        model = bivariate_elliptical(0.7, -0.7, 1.0, 1.0, 0.4)
        for condition in ("URE", "LRE"):
            r = density_symmetry_grid(model, condition, self.AXES2)
            assert r["pass"] and r["points_in_region"] > 0

    def test_positive_shift_gives_sub_exchangeability(self):
        model = bivariate_elliptical(1.0, 0.5, 1.0, 1.0, 0.2)
        assert density_symmetry_grid(model, "URsub", self.AXES2)["pass"]
        assert density_symmetry_grid(model, "LRsub", self.AXES2)["pass"]
        # The reversed inequality must fail visibly on the same grid.
        assert density_symmetry_grid(model, "URsup", self.AXES2)["violations"] > 0

    def test_negative_shift_gives_super_exchangeability(self):
        model = bivariate_elliptical(-1.0, -0.5, 1.0, 1.0, 0.2)
        assert density_symmetry_grid(model, "URsup", self.AXES2)["pass"]
        assert density_symmetry_grid(model, "LRsup", self.AXES2)["pass"]

    def test_scale_ordering_splits_the_two_sides(self):
        wide_y = bivariate_elliptical(0.0, 0.0, 1.0, 2.0, 0.3)
        assert density_symmetry_grid(wide_y, "URsub", self.AXES2)["pass"]
        assert density_symmetry_grid(wide_y, "LRsup", self.AXES2)["pass"]
        wide_x = bivariate_elliptical(0.0, 0.0, 2.0, 1.0, 0.3)
        assert density_symmetry_grid(wide_x, "URsup", self.AXES2)["pass"]
        assert density_symmetry_grid(wide_x, "LRsub", self.AXES2)["pass"]

    def test_grid_validation(self):
        model = bivariate_elliptical(0.0, 0.0, 1.0, 1.0, 0.0)
        with pytest.raises(EmptyGrid):
            density_symmetry_grid(model, "URE", [[], []])
        with pytest.raises(InvalidSpec):
            density_symmetry_grid(model, "URE", [[0.0]] * 3)
        with pytest.raises(ValueError):
            density_symmetry_grid(model, "XYZ", self.AXES2)

    def test_nan_deviations_are_violations(self):
        # Finite inputs whose quadratic form is inf - inf: every density is NaN.
        model = bivariate_elliptical(1e308, 5e307, 1.0, 1.0, 0.9)
        r = density_symmetry_grid(model, "URsub", self.AXES2)
        assert r["points_in_region"] > 0
        assert r["violations"] == r["points_in_region"]
        assert r["pass"] is False

    def test_tolerance_is_reported(self):
        model = bivariate_elliptical(0.0, 0.0, 1.0, 1.0, 0.0)
        assert density_symmetry_grid(model, "URE", self.AXES2)["tolerance"] == GRID_TOLERANCE


class TestArrayPathsMatchReference:
    """The array computations reproduce the per-element loops they replaced."""

    @pytest.mark.parametrize("mu", [0.0, 1.5, -0.7])
    def test_folded_normal_cdf_is_bit_identical(self, mu):
        rng = np.random.default_rng(17)
        for x in (
            rng.normal(mu, 2.0, size=1000),
            np.concatenate([[-3.0, -1e-300, -0.0, 0.0, 1e-300], rng.uniform(-4, 4, 200)]),
            np.asarray(0.0),
            np.asarray(-2.5),
            np.asarray(1.25),
            rng.normal(0.0, 3.0, size=(7, 9)),
        ):
            got = folded_normal_cdf(x, mu)
            want = reference_folded_normal_cdf(x, mu)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_folded_normal_cdf_takes_a_list(self):
        assert np.array_equal(folded_normal_cdf([-1.0, 0.0, 2.0], 1.0),
                              reference_folded_normal_cdf([-1.0, 0.0, 2.0], 1.0))

    @pytest.mark.parametrize("generator", [None, StudentTGenerator(4.0)])
    def test_density_rows_match_per_point_reference(self, generator):
        models = [
            bivariate_elliptical(0.8, -0.3, 1.1, 0.7, 0.45, generator),
            intraclass_model(3, -0.3, 1.5, generator),
        ]
        rng = np.random.default_rng(5)
        for model in models:
            rows = rng.uniform(-4, 4, size=(40, model.dim))
            want = np.array([reference_density(model, r) for r in rows])
            assert np.allclose(model.density(rows), want, rtol=1e-14, atol=0.0)

    CONDITIONS = ("URE", "LRE", "URsub", "LRsub", "URsup", "LRsup")
    MODELS = {
        "bvn-shifted": (bivariate_elliptical(1.0, 0.5, 1.0, 1.0, 0.2), [(1, 2)]),
        "bvn-scales": (bivariate_elliptical(0.0, 0.0, 1.0, 2.0, 0.3), [(1, 2)]),
        "t-shifted": (bivariate_elliptical(-0.6, 0.2, 1.0, 1.0, -0.4, StudentTGenerator(3.0)),
                      [(1, 2)]),
        "intraclass-neg": (intraclass_model(3, -0.3), [(1, 3), (2, 3), (1, 2)]),
        "t-intraclass-pos": (intraclass_model(3, 0.3, 1.0, StudentTGenerator(5.0)),
                             [(1, 3), (2, 3)]),
        "gauss-3d-shifted": (EllipticalModel((0.4, -0.2, 0.3), ((1.0, 0.2, 0.1),
                                                                  (0.2, 1.5, -0.3),
                                                                  (0.1, -0.3, 0.8))),
                             [(1, 3), (1, 2)]),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("condition", CONDITIONS)
    def test_density_grid_matches_reference(self, name, condition):
        model, pairs = self.MODELS[name]
        steps = 13 if model.dim == 2 else 9
        axes = [_grid(-3.0, 3.0, steps)] * model.dim
        for k, l in pairs:
            got = density_symmetry_grid(model, condition, axes, k=k, l=l)
            want = reference_density_symmetry_grid(model, condition, axes, k=k, l=l)
            assert got["points_in_region"] == want["points_in_region"]
            assert got["violations"] == want["violations"]
            assert abs(got["max_deviation"] - want["max_deviation"]) <= 1e-15
            assert got["pass"] == (want["violations"] == 0)


class TestGaussianSeq:
    def test_anchor_first_mean_and_correlation_pattern(self):
        spec = GaussianSeqSpec(mu=1.0, anchors=(1, 1, 1), rho_params=(0.2, 0.1, 0.3))
        mu, corr = build_gaussian_seq(spec)
        assert list(mu) == [1.0, -1.0, -1.0, -1.0]
        # rho_{m,j} = -rho_{1,j} for j != 1.
        assert corr[2, 1] == -corr[0, 1]
        assert corr[3, 1] == -corr[0, 1]
        assert corr[3, 2] == -corr[0, 2]
        assert np.allclose(corr, corr.T) and np.all(np.diag(corr) == 1.0)

    def test_alternating_mean_pattern(self):
        spec = GaussianSeqSpec(mu=2.0, anchors=(1, 2, 3, 4), rho_params=(0.1,) * 4)
        mu, corr = build_gaussian_seq(spec)
        assert list(mu) == [2.0, -2.0, 2.0, -2.0, 2.0]
        for m in range(3, 6):
            k = m - 1
            for j in range(1, m):
                if j != k:
                    assert corr[m - 1, j - 1] == -corr[k - 1, j - 1]

    def test_explicit_k_map(self):
        spec = GaussianSeqSpec(mu=1.0, anchors=(1, 1, 2), rho_params=(0.2, 0.2, 0.2))
        mu, _ = build_gaussian_seq(spec)
        assert list(mu) == [1.0, -1.0, -1.0, 1.0]

    def test_spec_validation(self):
        with pytest.raises(InvalidSpec):
            GaussianSeqSpec(mu=0.0, anchors=(), rho_params=())
        with pytest.raises(InvalidSpec):
            GaussianSeqSpec(mu=0.0, anchors=(1, 1), rho_params=(0.1,))
        with pytest.raises(InvalidSpec):
            GaussianSeqSpec(mu=0.0, anchors=(1, 1), rho_params=(0.1, 1.0))
        with pytest.raises(InvalidSpec):
            GaussianSeqSpec(mu=0.0, anchors=(1,), rho_params=(0.1, 0.1))
        with pytest.raises(InvalidSpec):
            GaussianSeqSpec(mu=0.0, anchors=(1, 3), rho_params=(0.1, 0.1))
        with pytest.raises(InvalidSpec):
            GaussianSeqSpec(mu=0.0, anchors=(0, 1), rho_params=(0.1, 0.1))

    def test_singular_pattern_rejected(self):
        # Strong positive ties to the anchor force corr23 = -0.9, which is
        # infeasible alongside corr12 = corr13 = 0.9.
        spec = GaussianSeqSpec(mu=1.0, anchors=(1, 1), rho_params=(0.9, 0.9))
        with pytest.raises(NotPositiveDefinite):
            build_gaussian_seq(spec)


class TestMonteCarlo:
    CFG = MCConfig(sample_count=20_000, seed=7, alpha=0.01)

    def test_config_validation(self):
        with pytest.raises(InvalidSpec):
            MCConfig(sample_count=10)
        with pytest.raises(InvalidSpec):
            MCConfig(alpha=0.0)

    def test_sampling_is_deterministic_in_the_seed(self):
        model = bivariate_elliptical(1.0, -1.0, 1.0, 1.0, 0.5)
        a = sample_elliptical(model, self.CFG)
        b = sample_elliptical(model, self.CFG)
        assert np.array_equal(a, b)
        c = sample_elliptical(model, MCConfig(sample_count=20_000, seed=8))
        assert not np.array_equal(a, c)

    def test_gaussian_sample_moments(self):
        cfg = MCConfig(sample_count=200_000, seed=3)
        cov = [[1.0, 0.6], [0.6, 2.0]]
        xy = sample_gaussian([1.0, -2.0], cov, cfg)
        assert np.allclose(xy.mean(axis=0), [1.0, -2.0], atol=0.02)
        assert np.allclose(np.cov(xy.T), cov, atol=0.05)

    def test_gaussian_sample_rejects_bad_cov(self):
        with pytest.raises(NotPositiveDefinite):
            sample_gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], self.CFG)

    def test_student_t_sample_matches_analytic_cdf(self):
        nu = 5.0
        model = EllipticalModel((0.0,), ((1.0,),), StudentTGenerator(nu))
        x = sample_elliptical(model, MCConfig(sample_count=100_000, seed=5))[:, 0]
        band = dkw_band(100_000, 0.01)
        assert ks_distance(x, lambda t: stats.t.cdf(t, df=nu)) <= band

    def test_empirical_cdf_and_ks_distance_small_sample(self):
        ecdf = EmpiricalCdf(np.array([1.0, 2.0, 3.0, 4.0]))
        assert list(ecdf(np.array([0.5, 1.0, 2.5, 4.0]))) == [0.0, 0.25, 0.5, 1.0]
        # KS against the cdf of Uniform(0, 4): sup gap attained at a jump.
        d = ks_distance(np.array([1.0, 2.0, 3.0, 4.0]), lambda t: np.asarray(t) / 4.0)
        assert abs(d - 0.25) < 1e-12

    def test_dkw_band_value(self):
        assert abs(dkw_band(1_000_000, 0.01) - math.sqrt(math.log(200.0) / 2e6)) < 1e-15

    def test_folded_normal_cdf_against_mc(self):
        cfg = MCConfig(sample_count=200_000, seed=11)
        z = 1.5 + cfg.rng().standard_normal(cfg.sample_count)
        assert ks_distance(np.abs(z), lambda t: folded_normal_cdf(t, 1.5)) <= dkw_band(
            cfg.sample_count, cfg.alpha
        )
        assert folded_normal_cdf(np.array([-1.0]), 0.0)[0] == 0.0

    def test_min_max_equality_for_centered_elliptical(self):
        model = bivariate_elliptical(0.0, 0.0, 1.0, 1.0, 0.4)
        xy = sample_elliptical(model, self.CFG)
        abs_min = np.abs(xy.min(axis=1))
        abs_max = np.abs(xy.max(axis=1))
        assert mc_dominance(abs_min, abs_max, self.CFG)["pass"]
        assert mc_dominance(abs_max, abs_min, self.CFG)["pass"]

    def test_dominance_detects_a_real_gap(self):
        rng = self.CFG.rng()
        a = np.abs(rng.standard_normal(20_000))
        b = 2.0 * np.abs(rng.standard_normal(20_000))
        assert mc_dominance(a, b, self.CFG)["pass"]
        assert not mc_dominance(b, a, self.CFG)["pass"]

    def test_dominance_requires_equal_lengths(self):
        with pytest.raises(InvalidSpec):
            mc_dominance(np.zeros(10), np.zeros(11), self.CFG)

    def test_mlr_chain_normal_and_cauchy(self):
        for family in ("normal", "cauchy"):
            report = verify_mlr_example(1.0, 2.0, family, self.CFG)
            assert report["pass"], report
            assert report["grid_violations"] == 0

    def test_mlr_theta_order_enforced(self):
        with pytest.raises(InvalidThetaOrder):
            verify_mlr_example(2.0, 1.0, "normal", self.CFG)
        with pytest.raises(InvalidSpec):
            verify_mlr_example(1.0, 2.0, "laplace", self.CFG)

    def test_mlr_densities_integrate_to_one(self):
        for family, theta in (("normal", 1.5), ("cauchy", 0.7)):
            f = mlr_scale_density(family, theta)
            val, _ = integrate.quad(f, -np.inf, np.inf)
            assert abs(val - 1.0) < 1e-9

    def test_intraclass_sample_correlations(self):
        model = intraclass_model(3, 0.5)
        xy = sample_elliptical(model, MCConfig(sample_count=1_000_000, seed=13))
        corr = np.corrcoef(xy.T)
        off = corr[np.triu_indices(3, 1)]
        assert np.all(np.abs(off - 0.5) < 0.02)
