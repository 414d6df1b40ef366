"""Exact distribution core: rational parsing, canonical form, transforms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _support import COORD_GRID, random_joint
from stochex.dist import (
    ExactJointDist,
    SignedPermutation,
    UnivariateDist,
    parse_rational,
)
from stochex.errors import (
    DimensionMismatch,
    EmptyIndexSet,
    IndexOutOfRange,
    InvalidRational,
    ProbabilityNotOne,
)


class TestRational:
    @pytest.mark.parametrize(
        "text,value",
        [("1/2", Fraction(1, 2)), ("-3/4", Fraction(-3, 4)), ("+3", Fraction(3)),
         ("0", Fraction(0)), (" 7/21 ", Fraction(1, 3))],
    )
    def test_parse_valid(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["1/-2", "1.5", "", "a/b", "1 / 2", "--1", "1/2/3"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(InvalidRational):
            parse_rational(text)

    @given(st.fractions())
    def test_format_parse_round_trip(self, q):
        assert parse_rational(str(q)) == q


class TestSignedPermutation:
    def test_reverse_pair_action(self):
        m = SignedPermutation.reverse_pair(3, 1, 3)
        assert m.apply((Fraction(1), Fraction(2), Fraction(3))) == (-3, 2, -1)

    def test_reverse_pair_is_involution(self):
        m = SignedPermutation.reverse_pair(4, 2, 3)
        pt = tuple(Fraction(i) for i in (5, -1, 2, 0))
        assert m.apply(m.apply(pt)) == pt

    def test_inverse_composes_to_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 5)
            perm = list(range(n))
            rng.shuffle(perm)
            signs = tuple(rng.choice((1, -1)) for _ in range(n))
            m = SignedPermutation(tuple(perm), signs)
            pt = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
            assert m.inverse().apply(m.apply(pt)) == pt
            assert m.apply(m.inverse().apply(pt)) == pt

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            SignedPermutation((0, 0), (1, 1))
        with pytest.raises(ValueError):
            SignedPermutation((0, 1), (1, 2))

    def test_reverse_pair_requires_ordered_indices(self):
        with pytest.raises(IndexOutOfRange):
            SignedPermutation.reverse_pair(3, 2, 2)
        with pytest.raises(IndexOutOfRange):
            SignedPermutation.reverse_pair(3, 0, 2)


class TestBuild:
    def test_merges_duplicates_and_drops_zeros(self):
        d = ExactJointDist.build(
            1,
            [((1,), Fraction(1, 4)), ((1,), Fraction(1, 4)), ((2,), Fraction(1, 2)),
             ((3,), Fraction(0))],
        )
        assert d.support() == ((Fraction(1),), (Fraction(2),))
        assert d.pmf((1,)) == Fraction(1, 2)

    def test_total_probability_must_be_one(self):
        with pytest.raises(ProbabilityNotOne) as exc_info:
            ExactJointDist.build(1, [((0,), Fraction(2, 3))])
        assert "1/3" in str(exc_info.value)
        # No atoms total 0, so a canonical law always has a positive mass.
        with pytest.raises(ProbabilityNotOne):
            ExactJointDist.build(1, [])
        with pytest.raises(ProbabilityNotOne):
            UnivariateDist.build([])

    def test_atom_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            ExactJointDist.build(2, [((1,), Fraction(1))])

    @given(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)), max_size=8),
        st.sampled_from(("none", "negative", "total")),
    )
    def test_both_types_share_one_canonical_form(self, raw, flaw):
        # Few values and small weights, so duplicates and zero masses are common.
        total = sum(w for _, w in raw) or 1
        pairs = [(Fraction(v), Fraction(w, total)) for v, w in raw]
        if flaw == "negative":
            pairs.insert(len(pairs) // 2, (Fraction(1), Fraction(-1, 3)))
        elif flaw == "total":
            pairs.append((Fraction(0), Fraction(1, 2)))

        def outcome(build):
            try:
                return build()
            except (ValueError, ProbabilityNotOne) as exc:
                return type(exc)

        univariate = outcome(lambda: UnivariateDist.build(pairs).atoms)
        joint = outcome(lambda: ExactJointDist.build(1, [((v,), p) for v, p in pairs]).atoms)
        if isinstance(joint, tuple):
            joint = tuple((v, p) for (v,), p in joint)
        assert univariate == joint
        if flaw == "negative":
            assert univariate is ValueError
        elif flaw == "total" or not any(w for _, w in raw):
            assert univariate is ProbabilityNotOne
        else:
            assert [v for v, _ in univariate] == sorted({Fraction(v) for v, w in raw if w})


class TestProperties:
    def test_json_round_trip_is_identity(self):
        rng = random.Random(11)
        for _ in range(100):
            d = random_joint(rng, dim=rng.randint(1, 4))
            assert ExactJointDist.from_json(d.to_json()).equal(d)

    def test_transform_then_inverse_is_identity(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 4)
            d = random_joint(rng, dim=n)
            perm = list(range(n))
            rng.shuffle(perm)
            m = SignedPermutation(
                tuple(perm), tuple(rng.choice((1, -1)) for _ in range(n))
            )
            assert d.transform(m).transform(m.inverse()).equal(d)

    def test_marginal_commutes_with_sign_change_on_retained_coords(self):
        rng = random.Random(17)
        for _ in range(50):
            d = random_joint(rng, dim=3)
            # Flip the sign of coordinate 2, keep coordinates 1 and 2.
            m3 = SignedPermutation.sign_change((1, -1, 1))
            m2 = SignedPermutation.sign_change((1, -1))
            assert d.transform(m3).marginal([1, 2]).equal(
                d.marginal([1, 2]).transform(m2)
            )

    def test_pmf_sums_to_one_and_cdf_is_monotone(self):
        rng = random.Random(19)
        for _ in range(100):
            d = random_joint(rng, dim=1)
            u = UnivariateDist.build([(pt[0], p) for pt, p in d.atoms])
            assert sum(p for _, p in u.atoms) == 1
            values = u.values()
            cdfs = [u.cdf(v) for v in values]
            assert all(a < b for a, b in zip(cdfs, cdfs[1:])) or len(cdfs) == 1
            assert cdfs == sorted(cdfs)
            assert cdfs[-1] == 1

    def test_mix_averages_pmfs(self):
        rng = random.Random(23)
        for _ in range(50):
            a = random_joint(rng, dim=2)
            b = random_joint(rng, dim=2)
            mixed = a.mix(b)
            for pt in set(a.support()) | set(b.support()):
                assert mixed.pmf(pt) == (a.pmf(pt) + b.pmf(pt)) / 2


class TestMarginalErrors:
    def test_empty_index_set(self):
        d = ExactJointDist.build(2, [((0, 0), Fraction(1))])
        with pytest.raises(EmptyIndexSet):
            d.marginal([])

    def test_index_out_of_range(self):
        d = ExactJointDist.build(2, [((0, 0), Fraction(1))])
        with pytest.raises(IndexOutOfRange):
            d.marginal([0, 1])
        with pytest.raises(IndexOutOfRange):
            d.marginal([3])

    def test_equal_requires_matching_dims(self):
        a = ExactJointDist.build(1, [((0,), Fraction(1))])
        b = ExactJointDist.build(2, [((0, 0), Fraction(1))])
        with pytest.raises(DimensionMismatch):
            a.equal(b)


def test_coordinate_grid_is_reflection_closed():
    # The test grid must be closed under negation or the randomized
    # reflection-based suites would silently lose coverage.
    assert sorted(-v for v in COORD_GRID) == sorted(COORD_GRID)
