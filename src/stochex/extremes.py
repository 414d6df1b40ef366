"""Exact distributions of absolute prefix extremes and region probabilities.

All prefix laws |max(X_1..X_l)| and |min(X_1..X_l)| come from one exact
pass over the int points and masses of the law (`_prefix_laws`); `Fraction`s
are made only for the merged (value, mass) pairs of the results.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction

from .dist import ExactJointDist, UnivariateDist
from .errors import DimensionMismatch, NegativeThreshold, PrefixOutOfRange


@dataclass(frozen=True)
class RegionProbs:
    """Probabilities of the five disjoint events cut out by the two strips
    {|X| <= x} and {|Y| <= x}: north, south, east, west, and the central square."""

    x: Fraction
    north: Fraction
    south: Fraction
    east: Fraction
    west: Fraction
    center: Fraction

    def to_jsonable(self) -> dict:
        return {
            "x": str(self.x),
            "N": str(self.north),
            "S": str(self.south),
            "E": str(self.east),
            "W": str(self.west),
            "C": str(self.center),
        }


def _prefix_laws(
    d: ExactJointDist, upto: int
) -> dict[str, list[UnivariateDist]]:
    """Laws of |max(X_1..X_l)| and |min(X_1..X_l)| for l = 1..upto, keyed by
    "max" and "min", from one pass over the int points and masses of `d`.

    The pass does integer comparisons and additions only.  The masses of
    every law sum to 1 because those of `d` do.
    """
    maxes: list[dict[int, int]] = [{} for _ in range(upto)]
    mins: list[dict[int, int]] = [{} for _ in range(upto)]
    for pt, w in d.pairs:
        hi = lo = pt[0]
        for x, mx, mn in zip(pt[:upto], maxes, mins):
            if x > hi:
                hi = x
            elif x < lo:
                lo = x
            mx[abs(hi)] = mx.get(abs(hi), 0) + w
            mn[abs(lo)] = mn.get(abs(lo), 0) + w

    def law(masses: dict[int, int]) -> UnivariateDist:
        return UnivariateDist(tuple(
            (Fraction(v, d.den), Fraction(w, d.pden)) for v, w in sorted(masses.items())
        ))

    return {"max": [law(m) for m in maxes], "min": [law(m) for m in mins]}


def abs_extreme_dist(d: ExactJointDist, prefix_len: int, kind: str) -> UnivariateDist:
    """Exact distribution of |max(X_1..X_l)| or |min(X_1..X_l)|."""
    if not (1 <= prefix_len <= d.dim):
        raise PrefixOutOfRange(f"prefix length {prefix_len} not in 1..{d.dim}")
    if kind not in ("max", "min"):
        raise ValueError(f"kind must be 'max' or 'min', got {kind!r}")
    return _prefix_laws(d, prefix_len)[kind][-1]


def region_probs(d: ExactJointDist, x: Fraction | int) -> RegionProbs:
    """Exact probabilities of the five disjoint bivariate strip events at x >= 0."""
    if d.dim != 2:
        raise DimensionMismatch("region probabilities are bivariate")
    x = Fraction(x)
    if x < 0:
        raise NegativeThreshold(f"threshold must be >= 0, got {x}")
    n = s = e = w = c = Fraction(0)
    for (a, b), p in d.atoms:
        if abs(a) <= x and abs(b) <= x:
            c += p
        elif abs(a) <= x and b > x:
            n += p
        elif abs(a) <= x and b < -x:
            s += p
        elif abs(b) <= x and a > x:
            e += p
        elif abs(b) <= x and a < -x:
            w += p
    return RegionProbs(x, n, s, e, w, c)


def verify_region_identities(d: ExactJointDist, x: Fraction | int) -> dict:
    """Check the six exact identities tying the region probabilities to the
    cdfs of |X|, |Y|, |max| and |min| at threshold x.

    Any violation indicates an implementation bug; the report carries the first
    violated identity with both exact sides.
    """
    if d.dim != 2:
        raise DimensionMismatch("region identities are bivariate")
    x = Fraction(x)
    r = region_probs(d, x)
    fx = abs_extreme_dist(d, 1, "max").cdf(x)
    fy = abs_extreme_dist(d.marginal([2]), 1, "max").cdf(x)
    fmax = abs_extreme_dist(d, 2, "max").cdf(x)
    fmin = abs_extreme_dist(d, 2, "min").cdf(x)
    identities = [
        ("F_absX = N+C+S", fx, r.north + r.center + r.south),
        ("F_absY = W+C+E", fy, r.west + r.center + r.east),
        ("F_absmax = W+C+S", fmax, r.west + r.center + r.south),
        ("F_absmin = N+C+E", fmin, r.north + r.center + r.east),
        ("F_absX - F_absmax = N-W", fx - fmax, r.north - r.west),
        ("F_absmin - F_absY = N-W", fmin - fy, r.north - r.west),
        ("F_absX - F_absmin = S-E", fx - fmin, r.south - r.east),
        ("F_absmax - F_absY = S-E", fmax - fy, r.south - r.east),
    ]
    for name, lhs, rhs in identities:
        if lhs != rhs:
            return {
                "x": str(x),
                "ok": False,
                "violated": name,
                "lhs": str(lhs),
                "rhs": str(rhs),
            }
    return {"x": str(x), "ok": True, "checked": len(identities)}


def cdf_table_csv(u: UnivariateDist, decimal: bool = False) -> str:
    """Render the cdf of a univariate distribution as a two-column CSV table."""
    out = io.StringIO()
    out.write("x,F\n")
    total = Fraction(0)
    for v, p in u.atoms:
        total += p
        if decimal:
            out.write(f"{float(v)!r},{float(total)!r}\n")
        else:
            out.write(f"{v},{total}\n")
    return out.getvalue()
