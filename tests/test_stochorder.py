"""First-order stochastic comparison and prefix-chain classification."""

import itertools
import random
from fractions import Fraction

import pytest

from _support import (
    exchange_symmetrize,
    product_of,
    random_abs_dist,
    random_joint,
    re_symmetrize,
    shift_abs_up,
    sign_symmetrize_univariate,
)
from stochex.dist import ExactJointDist, SignedPermutation, UnivariateDist
from stochex.errors import IndexOutOfRange
from stochex.extremes import abs_extreme_dist
from stochex.gallery import axes_dist, draws_dist
from stochex.symmetry import check_re_kl
from stochex.stochorder import (
    classify,
    st_compare,
    strictness_witness,
    strict_chain_preconditions,
)


def _univ(atoms) -> UnivariateDist:
    return UnivariateDist.build([(Fraction(v), Fraction(p)) for v, p in atoms])


class TestStCompare:
    def test_equal(self):
        u = _univ([(0, "1/2"), (1, "1/2")])
        assert st_compare(u, u).relation == "equal"

    def test_strict_with_witness(self):
        u = _univ([(0, "1/2"), (1, "1/2")])
        v = _univ([(0, "1/4"), (1, "3/4")])
        verdict = st_compare(u, v)
        assert verdict.relation == "strictly_less"
        (w,) = verdict.crossing_witness
        assert u.cdf(w) > v.cdf(w)
        assert st_compare(v, u).relation == "strictly_greater"

    def test_incomparable_carries_both_crossings(self):
        u = _univ([(0, "1/2"), (3, "1/2")])
        v = _univ([(1, "1")])
        verdict = st_compare(u, v)
        assert verdict.relation == "incomparable"
        below, above = verdict.crossing_witness
        assert u.cdf(below) < v.cdf(below)
        assert u.cdf(above) > v.cdf(above)

    def test_strictly_less_invariant(self):
        rng = random.Random(89)
        for _ in range(300):
            u = random_abs_dist(rng, max_vals=4)
            v = random_abs_dist(rng, max_vals=4)
            verdict = st_compare(u, v)
            if verdict.relation == "strictly_less":
                grid = set(u.values()) | set(v.values())
                assert all(u.cdf(x) >= v.cdf(x) for x in grid)
                assert any(u.cdf(x) > v.cdf(x) for x in grid)

    def test_partial_order_laws(self):
        rng = random.Random(97)
        dists = [random_abs_dist(rng, max_vals=4) for _ in range(20)]
        for u in dists:
            assert st_compare(u, u).relation == "equal"  # reflexive
        for u, v in itertools.permutations(dists, 2):
            uv, vu = st_compare(u, v), st_compare(v, u)
            # Antisymmetry up to distributional equality.
            if uv.is_leq() and vu.is_leq():
                assert uv.relation == vu.relation == "equal"
                assert u == v
        for u, v, w in itertools.permutations(dists, 3):
            if st_compare(u, v).is_leq() and st_compare(v, w).is_leq():
                assert st_compare(u, w).is_leq()  # transitive


class TestClassify:
    def test_signed_axes_chain_is_starred_strict(self):
        for n in range(3, 6):
            c = classify(axes_dist(n))
            assert c.label_max == "SSIAMX*"
            assert c.label_min == "SSIAMN*"
            assert c.per_step_max[0].relation == "equal"
            assert all(v.relation == "strictly_less" for v in c.per_step_max[1:])

    def test_degenerate_iid_signs_give_plain_star(self):
        pm1 = sign_symmetrize_univariate(_univ([(1, "1")]))
        d = product_of([pm1] * 3)
        c = classify(d)
        assert c.label_max == "SIAMX*" and c.label_min == "SIAMN*"
        assert all(v.relation == "equal" for v in c.per_step_max)

    def test_chain_with_a_crossing_is_unlabeled(self):
        # Second coordinate concentrated strictly inside |X1|'s range on one
        # side: |max| can drop below |X1| in the st order.
        x = _univ([(-2, "1/2"), (2, "1/2")])
        y = _univ([(1, "1")])
        d = product_of([x, y])
        c = classify(d)
        assert c.label_min == "none"

    def test_needs_at_least_two_coordinates(self):
        d = ExactJointDist.build(1, [((0,), Fraction(1))])
        with pytest.raises(IndexOutOfRange):
            classify(d)


class TestReversalChainProperties:
    def test_prefix_reversal_gives_starred_labels(self):
        rng = random.Random(101)
        checked = 0
        for _ in range(150):
            n = rng.randint(2, 4)
            # Symmetrize prefix by prefix; symmetrization at a later l can
            # disturb an earlier pair's reversal, so keep only the draws
            # where every prefix still reverses against some pair.
            d = random_joint(rng, dim=n)
            for l in range(2, n + 1):
                d = re_symmetrize(d, k=l - 1, l=l)
            if not all(
                any(
                    check_re_kl(d.marginal(range(1, l + 1)), k, l).holds
                    for k in range(1, l)
                )
                for l in range(2, n + 1)
            ):
                continue
            checked += 1
            c = classify(d)
            assert c.per_step_max[0].relation == "equal"
            assert c.label_max.endswith("*") and c.label_max != "none"
            assert c.label_min.endswith("*") and c.label_min != "none"
            assert all(v.is_leq() for v in c.per_step_max + c.per_step_min)
        assert checked >= 40

    def test_exchangeable_with_negated_first_coordinate(self):
        rng = random.Random(103)
        for _ in range(100):
            n = rng.randint(2, 4)
            d = exchange_symmetrize(random_joint(rng, dim=n, max_atoms=4))
            flipped = d.transform(
                SignedPermutation.sign_change((-1,) + (1,) * (n - 1))
            )
            c = classify(flipped)
            assert c.label_max in ("SIAMX*", "SSIAMX*")
            assert c.label_min in ("SIAMN*", "SSIAMN*")

    def test_strictness_witness_implies_strict_step(self):
        d = draws_dist([Fraction(v) for v in (-2, -1, 1, 2)], 3)
        c = classify(d)
        for l in range(3, 4):
            prefix = d.marginal(range(1, l + 1))
            if strictness_witness(prefix, l, "above") is not None:
                assert c.per_step_max[l - 2].relation == "strictly_less"
            if strictness_witness(prefix, l, "below") is not None:
                assert c.per_step_min[l - 2].relation == "strictly_less"

    def test_strictness_witness_validation(self):
        d = draws_dist([Fraction(v) for v in (-2, -1, 1, 2)], 2)
        with pytest.raises(IndexOutOfRange):
            strictness_witness(d, 3, "above")
        with pytest.raises(ValueError):
            strictness_witness(d, 1, "sideways")
        w = strictness_witness(d, 2, "above")
        assert w is not None
        point, prob = w
        assert point[1] > abs(point[0]) and prob > 0
        # Two antipodal draws leave no strictly dominating coordinate.
        tight = draws_dist([Fraction(v) for v in (-1, 1)], 2)
        assert strictness_witness(tight, 2, "above") is None


class TestStrictnessPreconditions:
    def test_against_brute_force_enumeration(self):
        d = draws_dist([Fraction(v) for v in (-2, -1, 1, 2)], 3)
        report = strict_chain_preconditions(d)

        def prob(pred):
            return sum((p for pt, p in d.atoms if pred(pt)), Fraction(0))

        assert report["ssiamx"]["step2_lhs"] == str(
            prob(lambda p: p[1] > abs(p[0]))
        )
        assert report["ssiamx"]["step2_rhs"] == str(
            prob(lambda p: p[0] < -abs(p[1]))
        )
        assert report["ssiamx"]["positivity"]["3"] == str(
            prob(lambda p: p[2] > max(abs(p[0]), abs(p[1])))
        )
        assert report["ssiamn"]["positivity"]["3"] == str(
            prob(lambda p: p[2] < -min(abs(p[0]), abs(p[1])))
        )
        # Both directions of the asymmetric step-2 inequality are reported.
        assert "step2_holds_reversed" in report["ssiamn"]

    def test_dimension_guard(self):
        d = ExactJointDist.build(1, [((0,), Fraction(1))])
        with pytest.raises(IndexOutOfRange):
            strict_chain_preconditions(d)


class TestProductChains:
    def test_weakly_ordered_independent_symmetric_products(self):
        rng = random.Random(107)
        for _ in range(50):
            n = rng.randint(3, 5)
            abs_laws = [random_abs_dist(rng)]
            for _ in range(n - 1):
                abs_laws.append(shift_abs_up(rng, abs_laws[-1], force_strict=False))
            d = product_of([sign_symmetrize_univariate(u) for u in abs_laws])
            c = classify(d)
            assert c.label_max != "none" and c.label_min != "none"
            assert all(v.is_leq() for v in c.per_step_max + c.per_step_min)

    def test_strictly_ordered_independent_symmetric_products(self):
        rng = random.Random(109)
        for _ in range(50):
            n = rng.randint(3, 5)
            base = random_abs_dist(rng)
            while len(base.atoms) == 1 and base.atoms[0][0] == Fraction(3):
                base = random_abs_dist(rng)  # degenerate at the grid top: no headroom
            abs_laws = [base]
            for _ in range(n - 1):
                abs_laws.append(shift_abs_up(rng, abs_laws[-1], force_strict=True))
            # The constructed marginal chain must itself be strict.
            assert all(
                st_compare(a, b).relation == "strictly_less"
                for a, b in zip(abs_laws, abs_laws[1:])
            )
            d = product_of([sign_symmetrize_univariate(u) for u in abs_laws])
            c = classify(d)
            assert c.label_max == "SSIAMX"
            assert c.label_min == "SSIAMN"
