"""Exact finite discrete multivariate distributions over rational support points.

All probabilities and coordinates are `fractions.Fraction`, so distributional
equality is decidable with zero tolerance.  Distributions are immutable, and
both types keep their atoms as `(point, prob)` pairs in one canonical form,
built by `_canonical`: duplicates merged, no mass negative, total exactly 1,
zero-probability atoms dropped, sorted by point (lexicographically for
`ExactJointDist`).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatch,
    EmptyIndexSet,
    IndexOutOfRange,
    InvalidRational,
    InvalidSpec,
    ProbabilityNotOne,
)

Point = tuple[Fraction, ...]

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


def _as_fraction(x: Fraction | int) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _canonical(pairs: Iterable[tuple[Any, Fraction | int]]) -> tuple[tuple[Any, Fraction], ...]:
    """The canonical form of a finite law given as (key, prob) pairs: the
    masses of equal keys merged, none negative, summing to exactly 1, and
    the positive ones returned sorted by key."""
    merged: dict[Any, Fraction] = {}
    for key, prob in pairs:
        p = _as_fraction(prob)
        if p < 0:
            raise ValueError(f"negative probability {p} at {key}")
        old = merged.get(key)
        merged[key] = p if old is None else old + p
    total = sum(merged.values(), Fraction(0))
    if total != 1:
        raise ProbabilityNotOne(1 - total)
    return tuple((k, p) for k, p in sorted(merged.items()) if p > 0)


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
        return tuple(self.signs[i] * point[self.perm[i]] for i in range(self.dim))

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
    """Finite discrete distribution on rational points of R^dim, in canonical form."""

    dim: int
    atoms: tuple[tuple[Point, Fraction], ...]

    @classmethod
    def build(
        cls,
        dim: int,
        raw_atoms: Iterable[tuple[Sequence[Fraction | int], Fraction | int]],
    ) -> "ExactJointDist":
        """Merge duplicate points, drop zero-probability atoms, require total 1."""
        if dim < 1:
            raise DimensionMismatch(f"dim must be >= 1, got {dim}")

        def points():
            for point, prob in raw_atoms:
                if len(point) != dim:
                    raise DimensionMismatch(
                        f"atom {tuple(point)} has {len(point)} coordinates, expected {dim}"
                    )
                yield tuple(map(_as_fraction, point)), prob

        return cls(dim, _canonical(points()))

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
        return ExactJointDist.build(
            self.dim, [(m.apply(pt), p) for pt, p in self.atoms]
        )

    def equal(self, other: "ExactJointDist") -> bool:
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"cannot compare dims {self.dim} and {other.dim}"
            )
        return self.atoms == other.atoms

    def mix(self, other: "ExactJointDist") -> "ExactJointDist":
        """Equal-weight mixture; used to symmetrize under an involution."""
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"cannot mix dims {self.dim} and {other.dim}"
            )
        half = Fraction(1, 2)
        raw = [(pt, p * half) for pt, p in self.atoms]
        raw += [(pt, p * half) for pt, p in other.atoms]
        return ExactJointDist.build(self.dim, raw)

    def marginal(self, index_set: Iterable[int]) -> "ExactJointDist":
        """Exact marginal over the retained (1-based) coordinates, in index order."""
        indices = sorted(set(index_set))
        if not indices:
            raise EmptyIndexSet("index set must be nonempty")
        if indices[0] < 1 or indices[-1] > self.dim:
            raise IndexOutOfRange(
                f"indices {indices} out of range 1..{self.dim}"
            )
        raw = [(tuple(pt[i - 1] for i in indices), p) for pt, p in self.atoms]
        return ExactJointDist.build(len(indices), raw)

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
        return cls(_canonical((_as_fraction(v), p) for v, p in raw_atoms))

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
