"""The group checks on generating sets and the one reflection scan, against
the whole-group enumeration and the per-check loops in _support."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from _support import (
    COORD_GRID,
    ere_symmetrize,
    one_sided_symmetrize,
    re_symmetrize,
    reference_check_basic,
    reference_in_region,
    reference_pair_scan,
    symmetrize,
)
from stochex.dist import ExactJointDist, SignedPermutation
from stochex.symmetry import (
    SUB_SUPER_VARIANTS,
    check_basic,
    check_re_kl,
    check_sub_super_kl,
    check_ure_lre,
    in_region,
)


def tail_group(n: int, tail: int, perms: bool, signs: bool) -> list[SignedPermutation]:
    """Permutations and/or sign changes of the last `tail` coordinates."""
    head = tuple(range(n - tail))
    perm_part = (
        itertools.permutations(range(n - tail, n)) if perms else [tuple(range(n - tail, n))]
    )
    sign_part = itertools.product((1, -1), repeat=tail) if signs else [(1,) * tail]
    return [
        SignedPermutation(head + p, (1,) * (n - tail) + s)
        for p, s in itertools.product(list(perm_part), list(sign_part))
    ]


@st.composite
def joints(draw, dims=(1, 2, 3, 4)):
    dim = draw(st.sampled_from(dims))
    points = draw(st.lists(
        st.tuples(*[st.sampled_from(COORD_GRID)] * dim),
        min_size=1, max_size=4 if dim < 4 else 3, unique=True,
    ))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
    total = sum(weights)
    return ExactJointDist.build(
        dim, [(pt, Fraction(w, total)) for pt, w in zip(points, weights)]
    )


@st.composite
def group_inputs(draw):
    """A pmf, plain or symmetrised under the whole group of E, SCI, ESCI or
    ERE, or under the permutations and/or sign changes of a tail of its
    coordinates, so that later generators are the first to fail."""
    d = draw(joints())
    n = d.dim
    how = draw(st.sampled_from(("plain", "E", "SCI", "ESCI", "ERE")))
    if how == "ERE" and n == 2:
        return ere_symmetrize(d)
    if how in ("E", "SCI", "ESCI"):
        tail = draw(st.integers(1, n))
        return symmetrize(d, tail_group(n, tail, how != "SCI", how != "E"))
    return d


def is_group_image(kind: str, point, image) -> bool:
    if kind == "E":
        return sorted(point) == sorted(image)
    if kind == "SCI":
        return [abs(c) for c in point] == [abs(c) for c in image]
    if kind == "ESCI":
        return sorted(map(abs, point)) == sorted(map(abs, image))
    a, b = point  # ERE: the group {id, swap, reversal, negation}
    return image in {(a, b), (b, a), (-b, -a), (-a, -b)}


@settings(max_examples=300, deadline=None)
@given(group_inputs())
def test_group_checks_equal_the_whole_group_enumeration(d):
    kinds = ("E", "SCI", "ESCI", "ERE") if d.dim == 2 else ("E", "SCI", "ESCI")
    for kind in kinds:
        v = check_basic(d, kind)
        # Same verdict and, the generators being ordered as the enumeration
        # first reaches them, the same witness.
        assert v == reference_check_basic(d, kind)
        if v.holds:
            continue
        w = v.witness
        assert d.pmf(w.point) == w.prob != w.reflected_prob == d.pmf(w.reflected)
        assert is_group_image(kind, w.point, w.reflected)


@st.composite
def pair_inputs(draw):
    """A pmf in dims 2-4 with a pair k < l, plain, reversal-symmetrised in
    (k, l), or (dim 2) symmetrised on one side of the diagonal only."""
    d = draw(joints(dims=(2, 3, 4)))
    k = draw(st.integers(1, d.dim - 1))
    l = draw(st.integers(k + 1, d.dim))
    how = draw(st.sampled_from(("plain", "RE", "upper", "lower")))
    if how == "RE":
        d = re_symmetrize(d, k, l)
    elif how in ("upper", "lower") and d.dim == 2:
        d = one_sided_symmetrize(d, how)
    return d, k, l


@settings(max_examples=300, deadline=None)
@given(pair_inputs())
def test_pair_scans_equal_the_reference_loops(case):
    d, k, l = case
    assert check_re_kl(d, k, l) == reference_pair_scan(d, "RE", k, l)
    if d.dim == 2:
        assert check_ure_lre(d, "upper") == reference_pair_scan(d, "URE")
        assert check_ure_lre(d, "lower") == reference_pair_scan(d, "LRE")
    for variant in SUB_SUPER_VARIANTS:
        assert check_sub_super_kl(d, k, l, variant) == reference_pair_scan(d, variant, k, l)


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.tuples(*[st.sampled_from(COORD_GRID)] * n),
            st.integers(1, n - 1),
            st.integers(0, n),
        )
    ),
    st.sampled_from(("URE", "LRE", *SUB_SUPER_VARIANTS)),
)
def test_in_region_matches_the_definitions(case, kind):
    point, k, offset = case
    l = min(k + 1 + offset, len(point))
    assert in_region(point, k, l, kind) == reference_in_region(point, k, l, kind)
