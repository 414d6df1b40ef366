"""The one-pass integer prefix-law kernel, the merge-based <=_st comparison and
the integer-weight product, each against its definitional Fraction computation
in _support."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from _support import (
    product_of,
    reference_abs_extreme_dist,
    reference_st_compare,
)
from stochex.dist import ExactJointDist, UnivariateDist
from stochex.extremes import _prefix_laws, abs_extreme_dist
from stochex.gallery import product_dist
from stochex.stochorder import classify, st_compare

# Thirds and fifths next to halves, of both signs, so that the common
# denominator is not a power of two and |-x| = |x| ties occur.
GRID = sorted({Fraction(k, q) for q in (1, 2, 3, 5) for k in range(-6, 7)})

F = Fraction
TIES = ExactJointDist.build(3, [
    ((F(1, 2), F(-1, 2), F(1, 3)), F(1, 3)),
    ((F(-1, 3), F(1, 3), F(0)), F(1, 6)),
    ((F(-1, 2), F(1, 5), F(-1, 2)), F(1, 2)),
])


@st.composite
def joints(draw, min_dim=1):
    dim = draw(st.integers(min_dim, 5))
    points = draw(st.lists(
        st.tuples(*[st.sampled_from(GRID)] * dim), min_size=1, max_size=8
    ))
    if draw(st.booleans()):
        points.append(tuple(-c for c in points[0]))
    weights = draw(st.lists(
        st.integers(1, 9), min_size=len(points), max_size=len(points)
    ))
    total = sum(weights)
    return ExactJointDist.build(
        dim, [(pt, Fraction(w, total)) for pt, w in zip(points, weights)]
    )


@st.composite
def laws(draw):
    values = draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=5, unique=True))
    weights = draw(st.lists(
        st.integers(1, 9), min_size=len(values), max_size=len(values)
    ))
    total = sum(weights)
    return UnivariateDist.build(
        [(v, Fraction(w, total)) for v, w in zip(values, weights)]
    )


def _mix(u: UnivariateDist, w: UnivariateDist) -> UnivariateDist:
    half = Fraction(1, 2)
    return UnivariateDist.build([(v, p * half) for v, p in u.atoms + w.atoms])


@st.composite
def law_pairs(draw):
    """(relation, u, v), where relation is the verdict the construction
    forces for st_compare(u, v), or None for an unconstrained pair."""
    relation = draw(st.sampled_from(["equal", "strictly_less", "incomparable", None]))
    u = draw(laws())
    if relation == "equal":
        # The same law from split atoms.
        v = UnivariateDist.build(
            [(x, p * s) for x, p in u.atoms for s in (Fraction(1, 3), Fraction(2, 3))]
        )
    elif relation == "strictly_less":
        (_, p), rest = u.atoms[0], u.atoms[1:]
        step = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1)]))
        v = UnivariateDist.build([(u.atoms[-1][0] + step, p), *rest])
    elif relation == "incomparable":
        # Mass on a < c against mass at b in between, each mixed with u.
        a, b, c = sorted(draw(st.lists(
            st.sampled_from(GRID), min_size=3, max_size=3, unique=True
        )))
        p = Fraction(draw(st.integers(1, 8)), 9)
        u, v = (
            _mix(UnivariateDist.build([(a, p), (c, 1 - p)]), u),
            _mix(UnivariateDist.build([(b, 1)]), u),
        )
    else:
        v = draw(laws())
    return relation, u, v


class TestPrefixLaws:
    @settings(max_examples=300, deadline=None)
    @given(joints())
    @example(TIES)
    def test_every_prefix_and_kind_matches_definition(self, d):
        laws_ = _prefix_laws(d, d.dim)
        for kind in ("max", "min"):
            assert len(laws_[kind]) == d.dim
            for l in range(1, d.dim + 1):
                want = reference_abs_extreme_dist(d, l, kind).atoms
                got = laws_[kind][l - 1].atoms
                assert got == want
                assert all(type(v) is Fraction and type(p) is Fraction for v, p in got)
                assert abs_extreme_dist(d, l, kind).atoms == want


class TestStCompareMerge:
    @settings(max_examples=400, deadline=None)
    @given(law_pairs())
    def test_verdict_and_witness_match_cdf_scan(self, pair):
        relation, u, v = pair
        verdict = st_compare(u, v)
        assert verdict == reference_st_compare(u, v)
        assert st_compare(v, u) == reference_st_compare(v, u)
        if relation is not None:
            assert verdict.relation == relation

    @settings(max_examples=200, deadline=None)
    @given(joints(min_dim=2))
    @example(TIES)
    def test_classify_matches_reference_chain(self, d):
        c = classify(d)
        for kind, steps in (("max", c.per_step_max), ("min", c.per_step_min)):
            chain = [reference_abs_extreme_dist(d, l, kind) for l in range(1, d.dim + 1)]
            assert steps == tuple(
                reference_st_compare(a, b) for a, b in zip(chain, chain[1:])
            )


@settings(max_examples=100, deadline=None)
@given(st.lists(laws(), min_size=1, max_size=3))
def test_product_dist_matches_fraction_product(marginals):
    assert product_dist(marginals) == product_of(marginals)
