"""Symmetry condition checks for exact joint distributions.

Every check returns a :class:`SymmetryVerdict`; failing verdicts carry a
concrete witness (a point, its probability, its reflected image, and the
image's probability) that reproduces the violation under the pmf.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dist import ExactJointDist, Point, SignedPermutation, format_rational
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
            "point": [format_rational(c) for c in self.point],
            "prob": format_rational(self.prob),
            "reflected": [format_rational(c) for c in self.reflected],
            "reflected_prob": format_rational(self.reflected_prob),
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


def _equality_witness(d: ExactJointDist, m: SignedPermutation) -> Optional[Witness]:
    """First support point (of d or of its image) whose pmf differs from the image pmf."""
    inv = m.inverse()
    candidates = set(d.support())
    candidates.update(inv.apply(p) for p in d.support())
    for point in sorted(candidates):
        image = m.apply(point)
        p, q = d.pmf(point), d.pmf(image)
        if p != q:
            return Witness(point, p, image, q)
    return None


def check_map_invariance(
    d: ExactJointDist, m: SignedPermutation, condition: SymmetryCondition
) -> SymmetryVerdict:
    witness = _equality_witness(d, m)
    return SymmetryVerdict(condition, witness is None, witness)


def check_re_kl(d: ExactJointDist, k: int, l: int) -> SymmetryVerdict:
    """Invariance under (x_k, x_l) -> (-x_l, -x_k); bivariate RE when (k,l)=(1,2)."""
    m = SignedPermutation.reverse_pair(d.dim, k, l)
    return check_map_invariance(d, m, SymmetryCondition("RE", k, l))


def check_re_n(d: ExactJointDist) -> tuple[SymmetryVerdict, Optional[int]]:
    """Existential scan: does some k < dim make the (k, dim) reversal hold?

    Returns the first satisfying k, or the verdict of the last failing pair.
    """
    last = None
    for k in range(1, d.dim):
        v = check_re_kl(d, k, d.dim)
        if v.holds:
            return v, k
        last = v
    assert last is not None
    return last, None


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
    condition = SymmetryCondition("URE" if side == "upper" else "LRE")
    m = SignedPermutation.reverse_pair(2, 1, 2)
    candidates = set(d.support())
    candidates.update(m.apply(p) for p in d.support())
    for point in sorted(candidates):
        a, b = point
        in_region = a < b if side == "upper" else a > b
        if not in_region:
            continue
        image = m.apply(point)
        p, q = d.pmf(point), d.pmf(image)
        if p != q:
            return SymmetryVerdict(condition, False, Witness(point, p, image, q))
    return SymmetryVerdict(condition, True)


def check_basic(d: ExactJointDist, kind: str) -> SymmetryVerdict:
    """E (all permutations), SCI (all sign changes), ESCI (both), ERE (E and RE)."""
    if kind not in BASIC_KINDS:
        raise ValueError(f"kind must be one of {BASIC_KINDS}, got {kind!r}")
    condition = SymmetryCondition(kind)
    n = d.dim
    if kind in ("E", "ESCI", "ERE"):
        for perm in itertools.permutations(range(n)):
            w = _equality_witness(d, SignedPermutation.from_permutation(perm))
            if w is not None:
                return SymmetryVerdict(condition, False, w)
    if kind in ("SCI", "ESCI"):
        for signs in itertools.product((1, -1), repeat=n):
            w = _equality_witness(d, SignedPermutation.sign_change(signs))
            if w is not None:
                return SymmetryVerdict(condition, False, w)
    if kind == "ERE":
        if n != 2:
            raise DimensionMismatch("ERE is a bivariate condition")
        re = check_re_kl(d, 1, 2)
        if not re.holds:
            return SymmetryVerdict(condition, False, re.witness)
    return SymmetryVerdict(condition, True)


def in_sub_super_region(point: Point, k: int, l: int, variant: str) -> bool:
    """Open region on which the sub/super-exchangeability inequality is required.

    UR variants: |x_k| < x_l and x_i < -|x_k| for i != k, l.
    LR variants: |x_l| < x_k and x_i < -|x_l| for i != k, l.
    All inequalities are strict; boundary points never constrain the check.
    """
    xk, xl = point[k - 1], point[l - 1]
    if variant in ("URsub", "URsup"):
        pivot = abs(xk)
        if not pivot < xl:
            return False
    else:
        pivot = abs(xl)
        if not pivot < xk:
            return False
    return all(
        point[i] < -pivot
        for i in range(len(point))
        if i not in (k - 1, l - 1)
    )


def check_sub_super_kl(
    d: ExactJointDist, k: int, l: int, variant: str
) -> SymmetryVerdict:
    """One-sided pmf inequality f(x) >= f(reflected x) (sub) or <= (sup) on the region.

    The pmf is evaluated at both a point and its reflection even when only one
    is a support atom (the other then has pmf 0).
    """
    if variant not in SUB_SUPER_VARIANTS:
        raise ValueError(f"variant must be one of {SUB_SUPER_VARIANTS}, got {variant!r}")
    if not (1 <= k < l <= d.dim):
        raise IndexOutOfRange(f"need 1 <= k < l <= {d.dim}, got k={k}, l={l}")
    condition = SymmetryCondition(variant, k, l)
    m = SignedPermutation.reverse_pair(d.dim, k, l)
    candidates = set(d.support())
    candidates.update(m.apply(p) for p in d.support())
    for point in sorted(candidates):
        if not in_sub_super_region(point, k, l, variant):
            continue
        image = m.apply(point)
        p, q = d.pmf(point), d.pmf(image)
        violated = p < q if variant.endswith("sub") else p > q
        if violated:
            return SymmetryVerdict(condition, False, Witness(point, p, image, q))
    return SymmetryVerdict(condition, True)


def check(d: ExactJointDist, kind: str, k: Optional[int] = None, l: Optional[int] = None):
    """Dispatch a condition by name; used by the CLI and the gallery.

    The pairwise conditions (RE and the sub/super variants) default to the
    pair (1, 2) in dim 2 and need explicit k, l otherwise.
    """
    if (kind == "RE" or kind in SUB_SUPER_VARIANTS) and (k is None or l is None):
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
