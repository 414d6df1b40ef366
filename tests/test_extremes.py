"""Absolute prefix extremes, region probabilities, and their exact identities."""

import random
from fractions import Fraction

import pytest

from _support import (
    one_sided_symmetrize,
    product_of,
    random_abs_dist,
    random_joint,
    re_symmetrize,
    sign_symmetrize_univariate,
)
from stochex.dist import ExactJointDist, SignedPermutation, UnivariateDist
from stochex.errors import DimensionMismatch, NegativeThreshold, PrefixOutOfRange
from stochex.extremes import (
    abs_extreme_dist,
    cdf_table_csv,
    region_probs,
    verify_region_identities,
)

SCI_NOT_RE = ExactJointDist.build(
    2, [((1, 0), Fraction(1, 2)), ((-1, 0), Fraction(1, 2))]
)


class TestAbsExtremeDist:
    def test_brute_force_oracle(self):
        rng = random.Random(53)
        for _ in range(100):
            n = rng.randint(1, 4)
            d = random_joint(rng, dim=n)
            l = rng.randint(1, n)
            for kind, pick in (("max", max), ("min", min)):
                u = abs_extreme_dist(d, l, kind)
                # Independent enumeration of the same law.
                oracle: dict[Fraction, Fraction] = {}
                for pt, p in d.atoms:
                    v = abs(pick(pt[:l]))
                    oracle[v] = oracle.get(v, Fraction(0)) + p
                assert dict(u.atoms) == oracle

    def test_min_law_equals_max_law_of_negated(self):
        rng = random.Random(59)
        for _ in range(200):
            n = rng.randint(1, 4)
            d = random_joint(rng, dim=n)
            neg = d.transform(SignedPermutation.negate_all(n))
            for l in range(1, n + 1):
                assert abs_extreme_dist(d, l, "min") == abs_extreme_dist(
                    neg, l, "max"
                )

    def test_prefix_bounds_checked(self):
        with pytest.raises(PrefixOutOfRange):
            abs_extreme_dist(SCI_NOT_RE, 3, "max")
        with pytest.raises(PrefixOutOfRange):
            abs_extreme_dist(SCI_NOT_RE, 0, "max")
        with pytest.raises(ValueError):
            abs_extreme_dist(SCI_NOT_RE, 1, "median")


class TestRegionIdentities:
    def test_golden_counterexample_thresholds(self):
        for x in (Fraction(0), Fraction(1, 2), Fraction(1)):
            report = verify_region_identities(SCI_NOT_RE, x)
            assert report["ok"], report

    def test_regions_partition_at_golden_point(self):
        r = region_probs(SCI_NOT_RE, Fraction(1, 2))
        assert (r.north, r.south, r.east, r.west, r.center) == (
            0, 0, Fraction(1, 2), Fraction(1, 2), 0
        )

    def test_identities_on_500_random_pmfs(self):
        rng = random.Random(61)
        thresholds_grid = [Fraction(i, 4) for i in range(0, 12)]
        for _ in range(500):
            d = random_joint(rng, dim=2)
            for x in rng.sample(thresholds_grid, 5):
                report = verify_region_identities(d, x)
                assert report["ok"], report

    def test_region_probs_are_disjoint_and_bounded(self):
        rng = random.Random(67)
        for _ in range(200):
            d = random_joint(rng, dim=2)
            r = region_probs(d, Fraction(rng.randint(0, 4), 2))
            parts = (r.north, r.south, r.east, r.west, r.center)
            assert all(0 <= p <= 1 for p in parts)
            assert sum(parts) <= 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(NegativeThreshold):
            region_probs(SCI_NOT_RE, Fraction(-1, 2))

    def test_bivariate_only(self):
        d = ExactJointDist.build(3, [((0, 0, 0), Fraction(1))])
        with pytest.raises(DimensionMismatch):
            region_probs(d, 0)
        with pytest.raises(DimensionMismatch):
            verify_region_identities(d, 0)


class TestSymmetryConsequences:
    def test_reversal_makes_all_four_abs_laws_equal(self):
        rng = random.Random(71)
        for _ in range(100):
            d = re_symmetrize(random_joint(rng, dim=2))
            laws = [
                abs_extreme_dist(d, 2, "max"),
                abs_extreme_dist(d, 2, "min"),
                abs_extreme_dist(d, 1, "max"),
                abs_extreme_dist(d.marginal([2]), 1, "max"),
            ]
            assert all(law == laws[0] for law in laws)

    def test_upper_one_sided_symmetry_pins_max_to_first_coordinate(self):
        rng = random.Random(73)
        for _ in range(100):
            d = one_sided_symmetrize(random_joint(rng, dim=2), "upper")
            assert abs_extreme_dist(d, 2, "max") == abs_extreme_dist(d, 1, "max")
            assert abs_extreme_dist(d, 2, "min") == abs_extreme_dist(
                d.marginal([2]), 1, "max"
            )

    def test_lower_one_sided_symmetry_mirrors(self):
        rng = random.Random(79)
        for _ in range(100):
            d = one_sided_symmetrize(random_joint(rng, dim=2), "lower")
            assert abs_extreme_dist(d, 2, "max") == abs_extreme_dist(
                d.marginal([2]), 1, "max"
            )
            assert abs_extreme_dist(d, 2, "min") == abs_extreme_dist(d, 1, "max")

    def test_independent_symmetric_pair_averages_the_abs_cdfs(self):
        rng = random.Random(83)
        for _ in range(100):
            x = sign_symmetrize_univariate(random_abs_dist(rng))
            y = sign_symmetrize_univariate(random_abs_dist(rng))
            d = product_of([x, y])
            fmax = abs_extreme_dist(d, 2, "max")
            fx = abs_extreme_dist(d, 1, "max")
            fy = abs_extreme_dist(d.marginal([2]), 1, "max")
            breakpoints = set(fmax.values()) | set(fx.values()) | set(fy.values())
            for t in breakpoints:
                assert fmax.cdf(t) == (fx.cdf(t) + fy.cdf(t)) / 2


class TestCsv:
    def test_rational_table(self):
        u = UnivariateDist.build([(0, Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 2))])
        assert cdf_table_csv(u) == "x,F\n0,1/2\n3/2,1\n"

    def test_decimal_table(self):
        u = UnivariateDist.build([(0, Fraction(1, 4)), (1, Fraction(3, 4))])
        assert cdf_table_csv(u, decimal=True) == "x,F\n0.0,0.25\n1.0,1.0\n"
