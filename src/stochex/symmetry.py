"""Symmetry condition checks for exact joint distributions.

Every check is one reflection scan (`_scan`) per signed permutation m: pmf
equality at p and m p (RE, E, SCI, ESCI, ERE), equality on a region (URE,
LRE) or a one-sided inequality on a region (the sub/super variants), with the
regions of `in_region`.  The group conditions scan a generating set of their
group, not all n! permutations and 2^n sign changes.

Every check returns a :class:`SymmetryVerdict`; failing verdicts carry a
concrete witness (a point, its probability, its reflected image, and the
image's probability) that reproduces the violation under the pmf.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .dist import ExactJointDist, Point, SignedPermutation
from .errors import DimensionMismatch, IndexOutOfRange

BASIC_KINDS = ("E", "SCI", "ESCI", "ERE")
SUB_SUPER_VARIANTS = ("URsub", "LRsub", "URsup", "LRsup")


@dataclass(frozen=True)
class SymmetryCondition:
    kind: str
    k: Optional[int] = None
    l: Optional[int] = None

    def label(self) -> str:
        if self.k is not None:
            return f"{self.kind}({self.k},{self.l})"
        return self.kind


@dataclass(frozen=True)
class Witness:
    point: Point
    prob: Fraction
    reflected: Point
    reflected_prob: Fraction

    def to_jsonable(self) -> dict:
        return {
            "point": [str(c) for c in self.point],
            "prob": str(self.prob),
            "reflected": [str(c) for c in self.reflected],
            "reflected_prob": str(self.reflected_prob),
        }


@dataclass(frozen=True)
class SymmetryVerdict:
    condition: SymmetryCondition
    holds: bool
    witness: Optional[Witness] = None

    def __post_init__(self):
        if self.holds == (self.witness is not None):
            raise ValueError("witness must be present exactly when the check fails")

    def to_jsonable(self) -> dict:
        return {
            "condition": self.condition.label(),
            "holds": self.holds,
            "witness": None if self.witness is None else self.witness.to_jsonable(),
        }


def _scan(
    d: ExactJointDist, m: SignedPermutation, condition: SymmetryCondition,
    region: Optional[Callable[[Point], bool]] = None, violated=operator.ne,
) -> SymmetryVerdict:
    """Fail at the first point p of support ∪ m⁻¹(support), in sorted order and
    inside `region`, with violated(pmf(p), pmf(m p)); elsewhere both are 0."""
    support = d.support()
    candidates = set(support)
    candidates.update(map(m.inverse().apply, support))
    for point in sorted(candidates):
        if region is not None and not region(point):
            continue
        image = m.apply(point)
        p, q = d.pmf(point), d.pmf(image)
        if violated(p, q):
            return SymmetryVerdict(condition, False, Witness(point, p, image, q))
    return SymmetryVerdict(condition, True)


def check_map_invariance(
    d: ExactJointDist, m: SignedPermutation, condition: SymmetryCondition
) -> SymmetryVerdict:
    return _scan(d, m, condition)


def check_re_kl(d: ExactJointDist, k: int, l: int) -> SymmetryVerdict:
    """Invariance under (x_k, x_l) -> (-x_l, -x_k); bivariate RE when (k,l)=(1,2)."""
    m = SignedPermutation.reverse_pair(d.dim, k, l)
    return check_map_invariance(d, m, SymmetryCondition("RE", k, l))


def check_re_n(d: ExactJointDist) -> tuple[SymmetryVerdict, Optional[int]]:
    """Existential scan: does some k < dim make the (k, dim) reversal hold?

    Returns the first satisfying k, or the verdict of the last failing pair.
    """
    if d.dim < 2:
        raise DimensionMismatch("RE_N needs dim >= 2")
    for k in range(1, d.dim):
        v = check_re_kl(d, k, d.dim)
        if v.holds:
            return v, k
    return v, None


def check_ure_lre(d: ExactJointDist, side: str) -> SymmetryVerdict:
    """Reflection symmetry of the pmf restricted to one side of the diagonal.

    The upper condition (URE) checks prob(a,b) == prob(-b,-a) on the open
    half-plane a < b (where the second coordinate dominates); the lower
    condition (LRE) checks the same identity on a > b.  Diagonal atoms
    (a == b) never constrain either check, which is why URE and LRE together
    are strictly weaker than full reversal invariance.
    """
    if d.dim != 2:
        raise DimensionMismatch("URE/LRE are bivariate conditions")
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    kind = "URE" if side == "upper" else "LRE"
    return _scan(d, SignedPermutation.reverse_pair(2, 1, 2), SymmetryCondition(kind),
                 lambda p: in_region(p, 1, 2, kind))


def _generators(kind: str, n: int) -> list[SignedPermutation]:
    """Generators of the group of `kind`: the adjacent transpositions for S_n and
    the single sign flips for the sign changes, each from the last coordinate
    back.  The first j! permutations (2^j sign vectors) in itertools order form
    the group on the last j coordinates and the next is the generator joining
    one more, so the first failing generator is the first failing map of the
    whole group in that order, with the same witness."""
    swaps = [
        SignedPermutation.from_permutation((*range(i), i + 1, i, *range(i + 2, n)))
        for i in reversed(range(n - 1))
    ]
    flips = [
        SignedPermutation.sign_change([-1 if j == i else 1 for j in range(n)])
        for i in reversed(range(n))
    ]
    if kind == "E":
        return swaps
    if kind == "SCI":
        return flips
    if kind == "ESCI":
        return swaps + flips[:1]  # permutations conjugate one flip to all others
    return swaps + [SignedPermutation.reverse_pair(2, 1, 2)]  # ERE


def check_basic(d: ExactJointDist, kind: str) -> SymmetryVerdict:
    """E (all permutations), SCI (all sign changes), ESCI (both), ERE (E and RE),
    each decided on a generating set of its group: the maps that leave a pmf
    invariant form a group, so invariance under the generators is invariance
    under the whole group."""
    if kind not in BASIC_KINDS:
        raise ValueError(f"kind must be one of {BASIC_KINDS}, got {kind!r}")
    if kind == "ERE" and d.dim != 2:
        raise DimensionMismatch("ERE is a bivariate condition")
    condition = SymmetryCondition(kind)
    for m in _generators(kind, d.dim):
        verdict = _scan(d, m, condition)
        if not verdict.holds:
            return verdict
    return SymmetryVerdict(condition, True)


def in_region(point: Point, k: int, l: int, condition: str) -> bool:
    """Whether `condition` constrains the pmf (or density) at `point`.

    URE: x_k < x_l.  LRE: x_k > x_l.
    UR sub/super variants: |x_k| < x_l and x_i < -|x_k| for i != k, l.
    LR sub/super variants: |x_l| < x_k and x_i < -|x_l| for i != k, l.
    All inequalities are strict; boundary points never constrain a check.
    """
    xk, xl = point[k - 1], point[l - 1]
    if condition == "URE":
        return xk < xl
    if condition == "LRE":
        return xk > xl
    if condition in ("URsub", "URsup"):
        pivot, top = abs(xk), xl
    elif condition in ("LRsub", "LRsup"):
        pivot, top = abs(xl), xk
    else:
        raise ValueError(f"unknown region condition {condition!r}")
    others = (x for i, x in enumerate(point) if i not in (k - 1, l - 1))
    return pivot < top and all(x < -pivot for x in others)


def check_sub_super_kl(
    d: ExactJointDist, k: int, l: int, variant: str
) -> SymmetryVerdict:
    """One-sided pmf inequality f(x) >= f(reflected x) (sub) or <= (sup) on the region.

    The pmf is evaluated at both a point and its reflection even when only one
    is a support atom (the other then has pmf 0).
    """
    if variant not in SUB_SUPER_VARIANTS:
        raise ValueError(f"variant must be one of {SUB_SUPER_VARIANTS}, got {variant!r}")
    violated = operator.lt if variant.endswith("sub") else operator.gt
    m = SignedPermutation.reverse_pair(d.dim, k, l)
    return _scan(d, m, SymmetryCondition(variant, k, l),
                 lambda p: in_region(p, k, l, variant), violated)


def check(d: ExactJointDist, kind: str, k: Optional[int] = None, l: Optional[int] = None):
    """Dispatch a condition by name; used by the CLI and the gallery.

    The pairwise conditions (RE and the sub/super variants) take both k and l,
    which default to (1, 2) in dim 2 only; the other conditions take none.
    """
    pairwise = kind == "RE" or kind in SUB_SUPER_VARIANTS
    if not pairwise and (k is not None or l is not None):
        raise IndexOutOfRange(f"{kind} takes no k, l")
    if (k is None) != (l is None):
        raise IndexOutOfRange(f"{kind} needs both k and l, or neither")
    if pairwise and k is None:
        if d.dim != 2:
            raise IndexOutOfRange(f"{kind} needs explicit k, l unless dim = 2")
        k, l = 1, 2
    if kind == "RE":
        return check_re_kl(d, k, l)
    if kind == "RE_N":
        verdict, _ = check_re_n(d)
        return verdict
    if kind == "URE":
        return check_ure_lre(d, "upper")
    if kind == "LRE":
        return check_ure_lre(d, "lower")
    if kind in BASIC_KINDS:
        return check_basic(d, kind)
    if kind in SUB_SUPER_VARIANTS:
        return check_sub_super_kl(d, k, l, kind)
    raise ValueError(f"unknown symmetry condition {kind!r}")
