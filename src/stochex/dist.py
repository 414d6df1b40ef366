"""Exact finite discrete multivariate distributions over rational support points.

Distributions are immutable and exact, so distributional equality is decidable
with zero tolerance.  An `ExactJointDist` is stored as integers: its points
are int tuples over `den`, the least common denominator of the coordinates,
and its masses are ints over `pden`, that of the masses.  `Fraction`s appear
at every public boundary: `atoms`, `pmf`, `support`, witnesses and JSON.
Both exact types come from one canonicaliser, `_canonical`: duplicates
merged, no mass negative, total exactly 1, zero masses dropped, sorted by
point (lexicographically for `ExactJointDist`), and `den` and `pden` reduced
to lowest terms, so that equal laws are equal objects.  The gallery bounds
the laws it enumerates by an atom budget (`gallery.MAX_ATOM_COORDINATES`).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatch,
    EmptyIndexSet,
    IndexOutOfRange,
    InvalidRational,
    InvalidSpec,
    ProbabilityNotOne,
)

Point = tuple[Fraction, ...]
IntPoint = tuple[int, ...]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" with an optional sign on the numerator only."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise InvalidRational(f"invalid rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InvalidRational(f"zero denominator in rational literal: {text!r}") from None


def _over_lcd(xs: list) -> tuple[int, list[int]]:
    """The least common denominator of the rationals `xs`, and each of them
    times it, an int."""
    try:
        ratios = [x.as_integer_ratio() for x in xs]
    except AttributeError:  # e.g. a rational given as a string
        return _over_lcd([Fraction(x) for x in xs])
    den = math.lcm(*{d for _, d in ratios})
    return den, [n * (den // d) for n, d in ratios]


def _canonical(
    pairs: Iterable[tuple[IntPoint, int]], den: int, pden: int
) -> tuple[int, int, tuple[tuple[IntPoint, int], ...]]:
    """The canonical form of a finite law given as (point, mass) pairs, the
    points int tuples over `den` and the masses ints over `pden`: the masses
    of equal points merged, none negative, summing to exactly `pden`, and the
    positive ones sorted by point.  Returns (den, pden, pairs) with `den` and
    `pden` divided by the gcd of all the stored ints."""
    merged: dict[IntPoint, int] = {}
    for point, w in pairs:
        if w < 0:
            at = ", ".join(str(Fraction(c, den)) for c in point)
            raise ValueError(f"negative probability {Fraction(w, pden)} at ({at})")
        merged[point] = merged.get(point, 0) + w
    total = sum(merged.values())
    if total != pden:
        raise ProbabilityNotOne(1 - Fraction(total, pden))
    kept = sorted(item for item in merged.items() if item[1])
    g = math.gcd(den, *(c for point, _ in kept for c in point))
    gp = math.gcd(pden, *(w for _, w in kept))
    if g > 1 or gp > 1:
        kept = [(tuple([c // g for c in point]), w // gp) for point, w in kept]
    return den // g, pden // gp, tuple(kept)


@dataclass(frozen=True)
class SignedPermutation:
    """A bijection of R^n of the form x -> (s_1 * x_{p_1}, ..., s_n * x_{p_n}).

    `perm` holds 0-based source indices and `signs` holds +1/-1 factors, so
    that apply(x)[i] == signs[i] * x[perm[i]].
    """

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)) or len(self.signs) != n:
            raise ValueError("perm must be a permutation of 0..n-1 with matching signs")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    @property
    def dim(self) -> int:
        return len(self.perm)

    def apply(self, point: Point) -> Point:
        return tuple([s * point[j] for s, j in zip(self.signs, self.perm)])

    def inverse(self) -> "SignedPermutation":
        n = self.dim
        inv_perm = [0] * n
        inv_signs = [1] * n
        for i in range(n):
            inv_perm[self.perm[i]] = i
            inv_signs[self.perm[i]] = self.signs[i]
        return SignedPermutation(tuple(inv_perm), tuple(inv_signs))

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(tuple(range(n)), (1,) * n)

    @classmethod
    def negate_all(cls, n: int) -> "SignedPermutation":
        return cls(tuple(range(n)), (-1,) * n)

    @classmethod
    def from_permutation(cls, perm: Sequence[int]) -> "SignedPermutation":
        return cls(tuple(perm), (1,) * len(perm))

    @classmethod
    def sign_change(cls, signs: Sequence[int]) -> "SignedPermutation":
        return cls(tuple(range(len(signs))), tuple(signs))

    @classmethod
    def reverse_pair(cls, n: int, k: int, l: int) -> "SignedPermutation":
        """The map sending (x_k, x_l) to (-x_l, -x_k); k, l are 1-based."""
        if not (1 <= k < l <= n):
            raise IndexOutOfRange(f"need 1 <= k < l <= {n}, got k={k}, l={l}")
        perm = list(range(n))
        signs = [1] * n
        perm[k - 1], perm[l - 1] = l - 1, k - 1
        signs[k - 1] = signs[l - 1] = -1
        return cls(tuple(perm), tuple(signs))


@dataclass(frozen=True)
class ExactJointDist:
    """Finite discrete distribution on rational points of R^dim, in canonical
    form: the atom at `Fraction`s x / den has probability w / pden for each
    (x, w) in `pairs`."""

    dim: int
    den: int
    pden: int
    pairs: tuple[tuple[IntPoint, int], ...]

    @classmethod
    def build(
        cls,
        dim: int,
        raw_atoms: Iterable[tuple[Sequence[Fraction | int], Fraction | int]],
    ) -> "ExactJointDist":
        """Merge duplicate points, drop zero-probability atoms, require total 1."""
        raw = list(raw_atoms)
        for point, _ in raw:
            if len(point) != dim:
                raise DimensionMismatch(
                    f"atom {tuple(point)} has {len(point)} coordinates, expected {dim}"
                )
        den, coords = _over_lcd([c for point, _ in raw for c in point])
        pden, masses = _over_lcd([p for _, p in raw])
        return cls._from_ints(dim, den, pden, zip(zip(*[iter(coords)] * dim), masses))

    @classmethod
    def _from_ints(
        cls, dim: int, den: int, pden: int, pairs: Iterable[tuple[IntPoint, int]]
    ) -> "ExactJointDist":
        """The law of the int (point, mass) pairs over `den` and `pden`."""
        if dim < 1:
            raise DimensionMismatch(f"dim must be >= 1, got {dim}")
        return cls(dim, *_canonical(pairs, den, pden))

    @cached_property
    def atoms(self) -> tuple[tuple[Point, Fraction], ...]:
        """The (point, probability) pairs in `Fraction`s, sorted by point."""
        coords = {c for point, _ in self.pairs for c in point}
        as_coord = {c: Fraction(c, self.den) for c in coords}.__getitem__
        as_prob = {w: Fraction(w, self.pden) for w in {w for _, w in self.pairs}}
        return tuple(
            (tuple(map(as_coord, point)), as_prob[w]) for point, w in self.pairs
        )

    @cached_property
    def _pmf(self) -> Mapping[Point, Fraction]:
        return dict(self.atoms)

    def pmf(self, point: Sequence[Fraction | int]) -> Fraction:
        return self._pmf.get(tuple(Fraction(c) for c in point), Fraction(0))

    def support(self) -> tuple[Point, ...]:
        return tuple(pt for pt, _ in self.atoms)

    def transform(self, m: SignedPermutation) -> "ExactJointDist":
        """Image distribution under a signed coordinate permutation."""
        if m.dim != self.dim:
            raise DimensionMismatch(f"map has dim {m.dim}, distribution has {self.dim}")
        return ExactJointDist._from_ints(
            self.dim, self.den, self.pden, ((m.apply(pt), w) for pt, w in self.pairs)
        )

    def equal(self, other: "ExactJointDist") -> bool:
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"cannot compare dims {self.dim} and {other.dim}"
            )
        return self == other

    def mix(self, other: "ExactJointDist") -> "ExactJointDist":
        """Equal-weight mixture; used to symmetrize under an involution."""
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"cannot mix dims {self.dim} and {other.dim}"
            )
        den, pden = math.lcm(self.den, other.den), math.lcm(self.pden, other.pden)
        raw = [
            (tuple([c * (den // d.den) for c in pt]), w * (pden // d.pden))
            for d in (self, other) for pt, w in d.pairs
        ]
        return ExactJointDist._from_ints(self.dim, den, 2 * pden, raw)

    def marginal(self, index_set: Iterable[int]) -> "ExactJointDist":
        """Exact marginal over the retained (1-based) coordinates, in index order."""
        indices = sorted(set(index_set))
        if not indices:
            raise EmptyIndexSet("index set must be nonempty")
        if indices[0] < 1 or indices[-1] > self.dim:
            raise IndexOutOfRange(
                f"indices {indices} out of range 1..{self.dim}"
            )
        keep = [i - 1 for i in indices]
        return ExactJointDist._from_ints(
            len(keep), self.den, self.pden,
            ((tuple([pt[i] for i in keep]), w) for pt, w in self.pairs),
        )

    def to_jsonable(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [
                {
                    "x": [str(c) for c in pt],
                    "p": str(p),
                }
                for pt, p in self.atoms
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable())

    @classmethod
    def from_jsonable(cls, obj: dict) -> "ExactJointDist":
        """Inverse of `to_jsonable`; any malformed input raises a StochexError."""
        if not (
            isinstance(obj, dict)
            and type(obj.get("dim")) is int
            and isinstance(obj.get("atoms"), list)
        ):
            raise InvalidSpec('distribution needs an integer "dim" and a list "atoms"')
        raw = []
        for atom in obj["atoms"]:
            if not (
                isinstance(atom, dict)
                and isinstance(atom.get("x"), list)
                and all(isinstance(c, str) for c in atom["x"])
                and isinstance(atom.get("p"), str)
            ):
                raise InvalidSpec(
                    f'atom {atom!r} needs "x", a list of rational strings, '
                    f'and "p", a rational string'
                )
            raw.append(
                (tuple(parse_rational(c) for c in atom["x"]), parse_rational(atom["p"]))
            )
        try:
            return cls.build(obj["dim"], raw)
        except ValueError as exc:  # a negative probability
            raise InvalidSpec(str(exc)) from exc

    @classmethod
    def from_json(cls, text: str) -> "ExactJointDist":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"distribution is not valid JSON: {exc}") from exc
        return cls.from_jsonable(obj)


@dataclass(frozen=True)
class UnivariateDist:
    """Finite discrete distribution on the rationals, values strictly increasing."""

    atoms: tuple[tuple[Fraction, Fraction], ...]

    @classmethod
    def build(
        cls, raw_atoms: Iterable[tuple[Fraction | int, Fraction | int]]
    ) -> "UnivariateDist":
        raw = list(raw_atoms)
        den, values = _over_lcd([v for v, _ in raw])
        pden, masses = _over_lcd([p for _, p in raw])
        den, pden, pairs = _canonical(zip(((v,) for v in values), masses), den, pden)
        return cls(tuple((Fraction(v, den), Fraction(w, pden)) for (v,), w in pairs))

    def cdf(self, x: Fraction | int) -> Fraction:
        """Exact P[value <= x]; a right-continuous step function."""
        x = Fraction(x)
        return sum((p for v, p in self.atoms if v <= x), Fraction(0))

    def values(self) -> tuple[Fraction, ...]:
        return tuple(v for v, _ in self.atoms)

    def to_jsonable(self) -> dict:
        return {
            "atoms": [
                {"v": str(v), "p": str(p)}
                for v, p in self.atoms
            ]
        }
