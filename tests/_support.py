"""Shared randomized constructors and reference implementations for the tests.

The exact helpers work in fractions.Fraction and are driven by a seeded
`random.Random`, so every test run is reproducible.  The `reference_*`
numeric-lab functions are the per-element float loops that the array code
must reproduce.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from stochex.contlab import GaussianGenerator, phi
from stochex.dist import ExactJointDist, SignedPermutation, UnivariateDist
from stochex.stochorder import OrderVerdict
from stochex.symmetry import SymmetryCondition, SymmetryVerdict, Witness

# Support coordinates live on a small half-integer grid so that reflections
# land back on the grid and collisions (shared support with the image) occur
# often enough to exercise the merge paths.
COORD_GRID = [Fraction(i, 2) for i in range(-4, 5)]

# Nonnegative grid for absolute-value laws.
ABS_GRID = [Fraction(i, 2) for i in range(0, 7)]


def random_joint(rng: random.Random, dim: int = 2, max_atoms: int = 6) -> ExactJointDist:
    """Random exact pmf on the half-integer grid with integer weights."""
    n_atoms = rng.randint(1, max_atoms)
    points: set[tuple[Fraction, ...]] = set()
    while len(points) < n_atoms:
        points.add(tuple(rng.choice(COORD_GRID) for _ in range(dim)))
    weights = [rng.randint(1, 9) for _ in range(len(points))]
    total = sum(weights)
    return ExactJointDist.build(
        dim,
        [(pt, Fraction(w, total)) for pt, w in zip(sorted(points), weights)],
    )


def symmetrize(d: ExactJointDist, maps: list[SignedPermutation]) -> ExactJointDist:
    """Equal-weight mixture of the images of d under the given maps."""
    w = Fraction(1, len(maps))
    raw = []
    for m in maps:
        for pt, p in d.transform(m).atoms:
            raw.append((pt, p * w))
    return ExactJointDist.build(d.dim, raw)


def re_symmetrize(d: ExactJointDist, k: int = 1, l: int | None = None) -> ExactJointDist:
    """Make d invariant under the (k,l) pair reversal (average with its image)."""
    l = d.dim if l is None else l
    return symmetrize(
        d,
        [SignedPermutation.identity(d.dim), SignedPermutation.reverse_pair(d.dim, k, l)],
    )


def exchange_symmetrize(d: ExactJointDist) -> ExactJointDist:
    """Average over all coordinate permutations."""
    import itertools

    maps = [
        SignedPermutation.from_permutation(p)
        for p in itertools.permutations(range(d.dim))
    ]
    return symmetrize(d, maps)


def esci_symmetrize(d: ExactJointDist) -> ExactJointDist:
    """Average over all permutations and all sign changes."""
    import itertools

    maps = []
    for p in itertools.permutations(range(d.dim)):
        for signs in itertools.product((1, -1), repeat=d.dim):
            maps.append(SignedPermutation(tuple(p), tuple(signs)))
    return symmetrize(d, maps)


def ere_symmetrize(d: ExactJointDist) -> ExactJointDist:
    """Average over the bivariate group generated by the swap and the reversal."""
    assert d.dim == 2
    swap = SignedPermutation.from_permutation((1, 0))
    rev = SignedPermutation.reverse_pair(2, 1, 2)
    neg = SignedPermutation.negate_all(2)
    return symmetrize(d, [SignedPermutation.identity(2), swap, rev, neg])


def one_sided_symmetrize(d: ExactJointDist, side: str) -> ExactJointDist:
    """Average the pmf with its reflection only on one open half-plane
    (a < b for "upper" / the URE region, a > b for "lower" / LRE); everything
    else, including the diagonal a == b, is left untouched.  The reflection
    maps each open half-plane onto itself, so total probability is preserved."""
    assert d.dim == 2 and side in ("upper", "lower")
    m = SignedPermutation.reverse_pair(2, 1, 2)
    pmf = dict(d.atoms)
    candidates = set(pmf)
    candidates.update(m.apply(p) for p in pmf)
    out = dict(pmf)
    visited: set[tuple[Fraction, ...]] = set()
    for p in sorted(candidates):
        if p in visited:
            continue
        a, b = p
        in_region = a < b if side == "upper" else a > b
        if not in_region:
            continue
        q = m.apply(p)
        visited.update((p, q))
        if p == q:
            avg = pmf.get(p, Fraction(0))  # fixed point of the reflection
        else:
            avg = (pmf.get(p, Fraction(0)) + pmf.get(q, Fraction(0))) / 2
        for pt in {p, q}:
            if avg > 0:
                out[pt] = avg
            else:
                out.pop(pt, None)
    return ExactJointDist.build(2, list(out.items()))


def random_abs_dist(rng: random.Random, max_vals: int = 3) -> UnivariateDist:
    """Random law of a nonnegative |X| on the half-integer grid."""
    n_vals = rng.randint(1, max_vals)
    values = rng.sample(ABS_GRID, n_vals)
    weights = [rng.randint(1, 9) for _ in values]
    total = sum(weights)
    return UnivariateDist.build(
        [(v, Fraction(w, total)) for v, w in zip(values, weights)]
    )


def shift_abs_up(
    rng: random.Random, u: UnivariateDist, force_strict: bool
) -> UnivariateDist:
    """A law weakly above u in first order, built by moving atom mass upward.

    With force_strict, the lowest atom always donates half its mass one grid
    step up, which makes the cdf strictly smaller at that point.
    """
    top = ABS_GRID[-1]
    raw: list[tuple[Fraction, Fraction]] = []
    for i, (v, p) in enumerate(u.atoms):
        if force_strict and i == 0 and v < top:
            raw.append((v, p / 2))
            raw.append((v + Fraction(1, 2), p / 2))
            continue
        candidates = [g for g in ABS_GRID if g >= v]
        raw.append((rng.choice(candidates), p))
    return UnivariateDist.build(raw)


def sign_symmetrize_univariate(u: UnivariateDist) -> UnivariateDist:
    """Signed symmetric law whose absolute value has law u (u must be >= 0)."""
    raw: list[tuple[Fraction, Fraction]] = []
    for v, p in u.atoms:
        assert v >= 0
        if v == 0:
            raw.append((v, p))
        else:
            raw.append((v, p / 2))
            raw.append((-v, p / 2))
    return UnivariateDist.build(raw)


def product_of(marginals: list[UnivariateDist]) -> ExactJointDist:
    """Product distribution of independent univariate marginals."""
    import itertools

    raw = []
    for combo in itertools.product(*[m.atoms for m in marginals]):
        point = tuple(v for v, _ in combo)
        prob = Fraction(1)
        for _, p in combo:
            prob *= p
        raw.append((point, prob))
    return ExactJointDist.build(len(marginals), raw)


# ---------------------------------------------------------------------------
# Definitional references for the exact kernels


def reference_abs_extreme_dist(d: ExactJointDist, prefix_len: int, kind: str) -> UnivariateDist:
    """Law of |max(X_1..X_l)| or |min(X_1..X_l)|, atom by atom in Fraction."""
    pick = max if kind == "max" else min
    return UnivariateDist.build(
        [(abs(pick(pt[:prefix_len])), p) for pt, p in d.atoms]
    )


def reference_st_compare(u: UnivariateDist, v: UnivariateDist) -> OrderVerdict:
    """First-order comparison by evaluating both cdfs at every point of the
    union of the supports."""
    grid = sorted(set(u.values()) | set(v.values()))
    below = None  # first x with F_u < F_v
    above = None  # first x with F_u > F_v
    for x in grid:
        fu, fv = u.cdf(x), v.cdf(x)
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


# ---------------------------------------------------------------------------
# Whole-group and per-check references for the symmetry scans


def reference_equality_witness(d: ExactJointDist, m: SignedPermutation):
    """First support point (of d or of its preimage) whose pmf differs from
    the pmf at its image under m, as a Witness, or None."""
    inv = m.inverse()
    candidates = set(d.support())
    candidates.update(inv.apply(p) for p in d.support())
    for point in sorted(candidates):
        image = m.apply(point)
        p, q = d.pmf(point), d.pmf(image)
        if p != q:
            return Witness(point, p, image, q)
    return None


def reference_check_basic(d: ExactJointDist, kind: str):
    """E, SCI, ESCI and ERE by enumerating all n! permutations and all 2^n
    sign changes, in itertools order."""
    import itertools

    condition = SymmetryCondition(kind)
    n = d.dim
    maps = []
    if kind in ("E", "ESCI", "ERE"):
        maps += [
            SignedPermutation.from_permutation(p)
            for p in itertools.permutations(range(n))
        ]
    if kind in ("SCI", "ESCI"):
        maps += [
            SignedPermutation.sign_change(s)
            for s in itertools.product((1, -1), repeat=n)
        ]
    if kind == "ERE":
        assert n == 2
        maps.append(SignedPermutation.reverse_pair(2, 1, 2))
    for m in maps:
        w = reference_equality_witness(d, m)
        if w is not None:
            return SymmetryVerdict(condition, False, w)
    return SymmetryVerdict(condition, True)


def reference_in_region(point, k: int, l: int, kind: str) -> bool:
    """URE: x_k < x_l; LRE: x_k > x_l; UR sub/super: |x_k| < x_l and the
    other coordinates below -|x_k|; LR sub/super: |x_l| < x_k and the other
    coordinates below -|x_l|."""
    xk, xl = point[k - 1], point[l - 1]
    if kind == "URE":
        return xk < xl
    if kind == "LRE":
        return xk > xl
    if kind in ("URsub", "URsup"):
        pivot = abs(xk)
        if not pivot < xl:
            return False
    else:
        pivot = abs(xl)
        if not pivot < xk:
            return False
    return all(point[i] < -pivot for i in range(len(point)) if i not in (k - 1, l - 1))


def reference_pair_scan(d: ExactJointDist, kind: str, k: int = 1, l: int = 2):
    """RE, URE/LRE and the sub/super variants as separate loops over the
    support and its reflection: equality everywhere (RE), equality on the
    region (URE/LRE), f >= f(reflected) (sub) or <= (sup) on the region."""
    pairwise = kind not in ("URE", "LRE")
    condition = SymmetryCondition(kind, k, l) if pairwise else SymmetryCondition(kind)
    m = SignedPermutation.reverse_pair(d.dim, k, l)
    candidates = set(d.support())
    candidates.update(m.apply(p) for p in d.support())
    for point in sorted(candidates):
        if kind != "RE" and not reference_in_region(point, k, l, kind):
            continue
        image = m.apply(point)
        p, q = d.pmf(point), d.pmf(image)
        if kind.endswith("sub"):
            violated = p < q
        elif kind.endswith("sup"):
            violated = p > q
        else:
            violated = p != q
        if violated:
            return SymmetryVerdict(condition, False, Witness(point, p, image, q))
    return SymmetryVerdict(condition, True)


def reference_folded_normal_cdf(x, mu: float, sigma: float = 1.0):
    """cdf of |Z| for Z ~ N(mu, sigma^2), one element at a time."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i, xi in np.ndenumerate(x):
        if xi < 0:
            out[i] = 0.0
        else:
            out[i] = phi((xi - mu) / sigma) - phi((-xi - mu) / sigma)
    return out


def reference_density(model, point) -> float:
    """Elliptical density at one point: solve and det per point, scalar radial."""
    sigma = model.sigma()
    delta = np.asarray(point, dtype=float) - np.asarray(model.mean)
    t = float(delta @ np.linalg.solve(sigma, delta))
    d = model.dim
    if isinstance(model.generator, GaussianGenerator):
        g = (2.0 * math.pi) ** (-d / 2.0) * math.exp(-t / 2.0)
    else:
        nu = model.generator.nu
        c = math.gamma((nu + d) / 2.0) / (math.gamma(nu / 2.0) * (nu * math.pi) ** (d / 2.0))
        g = c * (1.0 + t / nu) ** (-(nu + d) / 2.0)
    return float(np.linalg.det(sigma)) ** -0.5 * g


def reference_density_symmetry_grid(model, condition, grid_axes, k=1, l=2, tolerance=1e-12):
    """Grid check of a density (in)equality, one grid point at a time."""
    reflect = SignedPermutation.reverse_pair(model.dim, k, l).apply
    mesh = np.meshgrid(*grid_axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    violations = checked = 0
    worst = 0.0
    for row in points:
        pt = tuple(float(c) for c in row)
        if not reference_in_region(pt, k, l, condition):
            continue
        checked += 1
        f = reference_density(model, pt)
        g = reference_density(model, reflect(pt))
        if condition in ("URE", "LRE"):
            dev = abs(f - g)
        elif condition.endswith("sub"):
            dev = g - f
        else:
            dev = f - g
        if dev > tolerance:
            violations += 1
        worst = max(worst, dev)
    return {"points_in_region": checked, "violations": violations, "max_deviation": worst}
