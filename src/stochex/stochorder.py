"""First-order stochastic comparison and prefix-chain classification.

The comparison is exact: with rational arithmetic, weak dominance that is not
equality is automatically strict, so `st_compare` returns one of "equal",
"strictly_less", "strictly_greater" and "incomparable".

`st_compare` merges the two sorted supports with running cdf values, in
O(|u| + |v|).  `classify` takes every prefix |max| and |min| law from the
single exact integer pass in `stochex.extremes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dist import ExactJointDist, UnivariateDist
from .errors import IndexOutOfRange
from .extremes import _prefix_laws

@dataclass(frozen=True)
class OrderVerdict:
    relation: str
    crossing_witness: tuple[Fraction, ...] = ()

    def is_leq(self) -> bool:
        return self.relation in ("equal", "strictly_less")

    def to_jsonable(self) -> dict:
        return {
            "relation": self.relation,
            "crossing_witness": [str(x) for x in self.crossing_witness],
        }


def st_compare(u: UnivariateDist, v: UnivariateDist) -> OrderVerdict:
    """Exact first-order comparison over the union of the two supports.

    u <=_st v means F_u(x) >= F_v(x) for all x; strict if additionally strict
    at some x.  Incomparable verdicts carry one threshold for each direction
    of the crossing.
    """
    ua, va = u.atoms, v.atoms
    nu, nv = len(ua), len(va)
    i = j = 0
    fu = fv = Fraction(0)  # F_u(x) and F_v(x) at the current grid point x
    below = None  # first x with F_u < F_v
    above = None  # first x with F_u > F_v
    # Walk the sorted union of the two supports.
    while i < nu or j < nv:
        if j == nv or (i < nu and ua[i][0] < va[j][0]):
            x, p = ua[i]
            fu += p
            i += 1
        elif i == nu or va[j][0] < ua[i][0]:
            x, p = va[j]
            fv += p
            j += 1
        else:
            x = ua[i][0]
            fu += ua[i][1]
            fv += va[j][1]
            i += 1
            j += 1
        if fu < fv and below is None:
            below = x
        elif fu > fv and above is None:
            above = x
    if below is None and above is None:
        return OrderVerdict("equal")
    if below is None:
        return OrderVerdict("strictly_less", (above,))
    if above is None:
        return OrderVerdict("strictly_greater", (below,))
    return OrderVerdict("incomparable", (below, above))


@dataclass(frozen=True)
class SequenceClassification:
    per_step_max: tuple[OrderVerdict, ...]
    per_step_min: tuple[OrderVerdict, ...]
    label_max: str
    label_min: str

    def to_jsonable(self) -> dict:
        return {
            "per_step_max": [v.to_jsonable() for v in self.per_step_max],
            "per_step_min": [v.to_jsonable() for v in self.per_step_min],
            "label_max": self.label_max,
            "label_min": self.label_min,
        }


def _chain_label(steps: tuple[OrderVerdict, ...], base: str) -> str:
    """Label a chain of per-prefix verdicts (steps[i] compares prefixes i+1 vs i+2)."""
    first, rest = steps[0], steps[1:]
    if any(not v.is_leq() for v in steps):
        return "none"
    if first.relation == "equal":
        # Starred: exact distributional equality at the first step.
        if all(v.relation == "strictly_less" for v in rest):
            return f"S{base}*" if rest else f"{base}*"
        return f"{base}*"
    if all(v.relation == "strictly_less" for v in steps):
        return f"S{base}"
    return base


def classify(d: ExactJointDist) -> SequenceClassification:
    """Per-prefix ordering of |max| and |min| chains with the final labels."""
    if d.dim < 2:
        raise IndexOutOfRange("classification needs dim >= 2")
    laws = _prefix_laws(d, d.dim)
    steps = {
        kind: tuple(st_compare(a, b) for a, b in zip(laws[kind], laws[kind][1:]))
        for kind in ("max", "min")
    }
    return SequenceClassification(
        steps["max"],
        steps["min"],
        _chain_label(steps["max"], "SIAMX"),
        _chain_label(steps["min"], "SIAMN"),
    )


def strictness_witness(
    d: ExactJointDist, m: int, mode: str
) -> Optional[tuple[tuple[Fraction, ...], Fraction]]:
    """An atom with x_m > max(|x_i| : i != m) (mode="above") or x_m < -max(...)
    (mode="below"), together with its probability, or None."""
    if not (1 <= m <= d.dim):
        raise IndexOutOfRange(f"m={m} not in 1..{d.dim}")
    if mode not in ("above", "below"):
        raise ValueError(f"mode must be 'above' or 'below', got {mode!r}")
    for pt, p in d.atoms:
        others = [abs(c) for i, c in enumerate(pt) if i != m - 1]
        bound = max(others) if others else None
        if bound is None:
            continue
        xm = pt[m - 1]
        if (mode == "above" and xm > bound) or (mode == "below" and xm < -bound):
            return pt, p
    return None


def _prob(d: ExactJointDist, pred) -> Fraction:
    return sum((p for pt, p in d.atoms if pred(pt)), Fraction(0))


def strict_chain_preconditions(d: ExactJointDist) -> dict:
    """Exact evaluation of the strictness preconditions for the sub/super
    exchangeable chain results.

    The SSIAMN step-2 inequality is defined asymmetrically to the SSIAMX one;
    both it and its reversed direction are reported so callers can inspect
    either reading.
    """
    if d.dim < 2:
        raise IndexOutOfRange("need dim >= 2")
    n = d.dim

    # SSIAMX preconditions: P[X2 > |X1|] > P[X1 < -|X2|], then positivity of
    # P[X_l > max(|X_1|..|X_{l-1}|)] for l = 3..n.
    p_x2_above = _prob(d, lambda p: p[1] > abs(p[0]))
    p_x1_below = _prob(d, lambda p: p[0] < -abs(p[1]))
    max_positivity = {
        l: _prob(
            d.marginal(range(1, l + 1)),
            lambda p: p[-1] > max(abs(c) for c in p[:-1]),
        )
        for l in range(3, n + 1)
    }

    # SSIAMN preconditions: P[|X2| < X1] < P[X2 < -|X1|], then positivity of
    # P[X_l < -min(|X_1|..|X_{l-1}|)] for l = 3..n (min as stated, not max).
    p_x1_above = _prob(d, lambda p: abs(p[1]) < p[0])
    p_x2_below = _prob(d, lambda p: p[1] < -abs(p[0]))
    min_positivity = {
        l: _prob(
            d.marginal(range(1, l + 1)),
            lambda p: p[-1] < -min(abs(c) for c in p[:-1]),
        )
        for l in range(3, n + 1)
    }

    ssiamx_ok = p_x2_above > p_x1_below and all(p > 0 for p in max_positivity.values())
    ssiamn_ok = p_x1_above < p_x2_below and all(p > 0 for p in min_positivity.values())
    return {
        "n": n,
        "ssiamx": {
            "step2_lhs": str(p_x2_above),
            "step2_rhs": str(p_x1_below),
            "step2_holds": p_x2_above > p_x1_below,
            "positivity": {
                str(l): str(p) for l, p in max_positivity.items()
            },
            "holds": ssiamx_ok,
        },
        "ssiamn": {
            "step2_lhs": str(p_x1_above),
            "step2_rhs": str(p_x2_below),
            "step2_holds": p_x1_above < p_x2_below,
            "step2_holds_reversed": p_x1_above > p_x2_below,
            "positivity": {
                str(l): str(p) for l, p in min_positivity.items()
            },
            "holds": ssiamn_ok,
        },
    }
