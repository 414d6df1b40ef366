"""The integer storage of `ExactJointDist` against its `Fraction` definition.

Laws are drawn with coordinate denominators from {1, 2, 3, 4, 6, 12} and
masses over varied totals.  The public boundary must round-trip, a point off
the lattice has probability 0, equal laws are equal objects whichever way
they were built, and the symmetry checks and prefix laws equal the reference
computations in `_support`.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from _support import (
    esci_symmetrize,
    product_of,
    re_symmetrize,
    reference_abs_extreme_dist,
    reference_check_basic,
    reference_pair_scan,
)
from stochex.dist import ExactJointDist, UnivariateDist
from stochex.extremes import _prefix_laws
from stochex.gallery import product_dist
from stochex.symmetry import (
    BASIC_KINDS,
    SUB_SUPER_VARIANTS,
    check_basic,
    check_re_kl,
    check_sub_super_kl,
    check_ure_lre,
)

DENS = (1, 2, 3, 4, 6, 12)
SETTINGS = settings(derandomize=True, database=None, max_examples=120, deadline=None)

rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENS))


@st.composite
def raw_laws(draw, min_dim=1):
    """(dim, raw atoms): points may repeat, one may be negated, and masses
    (some zero) are integer weights over their total."""
    dim = draw(st.integers(min_dim, 3))
    points = draw(st.lists(st.tuples(*[rationals] * dim), min_size=1, max_size=7))
    if draw(st.booleans()):
        points.append(tuple(-c for c in points[0]))
    weights = draw(st.lists(st.integers(0, 9), min_size=len(points), max_size=len(points)))
    weights[0] += 1
    total = sum(weights)
    return dim, [(pt, Fraction(w, total)) for pt, w in zip(points, weights)]


@st.composite
def laws(draw, min_dim=1):
    """A law, symmetrised under ESCI or a pair reversal about one time in three."""
    dim, raw = draw(raw_laws(min_dim))
    d = ExactJointDist.build(dim, raw)
    how = draw(st.sampled_from(["raw", "raw", "esci", "re"]))
    if how == "esci":
        return esci_symmetrize(d)
    if how == "re" and dim >= 2:
        return re_symmetrize(d)
    return d


def fraction_canonical(raw):
    """The canonical atoms of `raw`, merged and sorted in `Fraction`s."""
    merged: dict = {}
    for pt, p in raw:
        merged[pt] = merged.get(pt, 0) + p
    return tuple(sorted((pt, p) for pt, p in merged.items() if p))


@SETTINGS
@given(raw_laws())
def test_atoms_round_trip_and_off_lattice_pmf_is_zero(law):
    dim, raw = law
    d = ExactJointDist.build(dim, raw)
    assert d.atoms == fraction_canonical(raw)
    assert all(type(c) is Fraction for pt, p in d.atoms for c in (*pt, p))
    assert d.den == math.lcm(*(c.denominator for pt in d.support() for c in pt))
    assert d.pden == math.lcm(*(p.denominator for _, p in d.atoms))
    assert ExactJointDist.build(dim, d.atoms) == d
    assert ExactJointDist.from_json(d.to_json()) == d
    for pt, p in d.atoms:
        assert d.pmf(pt) == p
        assert d.pmf((pt[0] + Fraction(1, 2 * d.den), *pt[1:])) == 0


@SETTINGS
@given(raw_laws(), st.randoms(use_true_random=False))
def test_equal_across_construction_paths(law, rng):
    dim, raw = law
    d = ExactJointDist.build(dim, raw)
    shuffled = raw[:]
    rng.shuffle(shuffled)
    assert ExactJointDist.build(dim, iter(shuffled)) == d
    split = [(pt, p * s) for pt, p in raw for s in (Fraction(1, 3), Fraction(2, 3))]
    assert ExactJointDist.build(dim, split) == d
    if dim >= 2:
        # Drop the coordinate with the largest denominator, so that `den` falls.
        drop = max(range(dim), key=lambda i: math.lcm(*(pt[i].denominator for pt, _ in raw)))
        keep = [i for i in range(dim) if i != drop]
        projected = [(tuple(pt[i] for i in keep), p) for pt, p in raw]
        assert d.marginal([i + 1 for i in keep]) == ExactJointDist.build(len(keep), projected)


@SETTINGS
@given(st.lists(
    st.lists(st.tuples(rationals, st.integers(1, 9)), min_size=1, max_size=4),
    min_size=1, max_size=3,
))
def test_product_dist_equals_fraction_product(weighted):
    marginals = [
        UnivariateDist.build([(v, Fraction(w, sum(w for _, w in law))) for v, w in law])
        for law in weighted
    ]
    assert product_dist(marginals) == product_of(marginals)


@SETTINGS
@given(laws())
def test_checks_and_prefix_laws_equal_the_references(d):
    for kind in BASIC_KINDS:
        if kind != "ERE" or d.dim == 2:
            assert check_basic(d, kind) == reference_check_basic(d, kind)
    for l in range(2, d.dim + 1):
        for k in range(1, l):
            assert check_re_kl(d, k, l) == reference_pair_scan(d, "RE", k, l)
            for variant in SUB_SUPER_VARIANTS:
                assert check_sub_super_kl(d, k, l, variant) == reference_pair_scan(d, variant, k, l)
    if d.dim == 2:
        assert check_ure_lre(d, "upper") == reference_pair_scan(d, "URE")
        assert check_ure_lre(d, "lower") == reference_pair_scan(d, "LRE")
    laws_ = _prefix_laws(d, d.dim)
    for kind in ("max", "min"):
        for l in range(1, d.dim + 1):
            assert laws_[kind][l - 1] == reference_abs_extreme_dist(d, l, kind)
