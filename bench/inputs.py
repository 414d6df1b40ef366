"""Seeded inputs for the benchmark workloads.

Everything here is plain Python over `fractions.Fraction`: no stochex call
runs while inputs are made, so the library only ever receives what these
functions return.  The same seed always gives the same inputs.

Each function also records the answer its construction implies (a label, a
verdict, a value), which the workload compares against the library's output.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

F = Fraction

# Signed points live on a half-integer grid symmetric about 0, so
# reflections land back on the grid (as in the repository's test suite).
COORD_GRID = [F(i, 2) for i in range(-4, 5)]
ABS_GRID = [F(i, 2) for i in range(7)]

STARRED_STRICT = ("SSIAMX*", "SSIAMN*")
STRICT = ("SSIAMX", "SSIAMN")

# MC checks use a tiny false-alarm level: every seed must pass them, and a
# real defect still moves the statistic far past the band.
MC_ALPHA = 1e-6


def _normalise(weights: dict) -> list[tuple]:
    total = sum(weights.values())
    return sorted((k, F(w) / total) for k, w in weights.items() if w)


# ---------------------------------------------------------------------------
# Ordered independent symmetric products (the criterion-8 construction)


# A law of |X| while inputs are made: [(value in half units 0..6, weight)],
# integers only, so that drawing a large pool of chains stays cheap.


def random_abs_law(rng: random.Random) -> list[tuple[int, int]]:
    return sorted((v, rng.randint(1, 9)) for v in rng.sample(range(7), rng.randint(1, 3)))


def shift_up(rng: random.Random, law, strict: bool):
    """A law weakly above `law` in first order; with `strict`, the lowest
    atom gives half its mass one step up, so the order is strict."""
    scale = 2 if strict else 1
    out: dict = {}
    for i, (v, w) in enumerate(law):
        if strict and i == 0 and v < 6:
            out[v] = out.get(v, 0) + w
            out[v + 1] = out.get(v + 1, 0) + w
            continue
        q = rng.randint(v, 6)
        out[q] = out.get(q, 0) + scale * w
    return sorted(out.items())


def as_fractions(law) -> list[tuple[Fraction, Fraction]]:
    total = sum(w for _, w in law)
    return [(F(v, 2), F(w, total)) for v, w in law]


def signed_size(law) -> int:
    return sum(1 if v == 0 else 2 for v, _ in law)


def ordered_chain(rng: random.Random, strict: bool) -> list:
    n = rng.randint(3, 5)
    base = random_abs_law(rng)
    while strict and len(base) == 1 and base[0][0] == 6:
        base = random_abs_law(rng)
    laws = [base]
    for _ in range(n - 1):
        laws.append(shift_up(rng, laws[-1], strict))
    return laws


def product_size(laws) -> int:
    size = 1
    for law in laws:
        size *= signed_size(law)
    return size


# (strict, n, atoms) of the products in one exact-chains pass.  The middle
# group (7 products of 384..512 atoms, with draws n=4) holds the median item;
# the heavy group (3000..3500 atoms, n=4..5) and the one 13824-atom product
# make the tail.  Strict and weak chains are split evenly.
PRODUCT_SLOTS = (
    (True, 3, 48), (False, 3, 64),
    (True, 3, 384), (True, 4, 384), (True, 5, 512),
    (False, 4, 384), (False, 5, 384), (False, 4, 480), (False, 5, 512),
    (True, 4, 3072), (True, 5, 3072), (False, 5, 3456), (False, 5, 2880),
    (True, 5, 13824),
)
POOL = 1500


def chains_for_slots(rng: random.Random, slots) -> list[dict]:
    """For each (strict, n, atoms) slot, the chain of length n in a seeded
    pool whose product size is nearest to `atoms`.

    The pool has a fixed size, so set-up costs the same for every seed; the
    slots fix each item's work, so a pass costs about the same for every
    seed, while the laws themselves come from the seed.
    """
    pools = {strict: [ordered_chain(rng, strict) for _ in range(POOL)] for strict in (True, False)}
    out = []
    for strict, n, atoms in slots:
        pool = pools[strict]
        best = min(
            (i for i, laws in enumerate(pool) if len(laws) == n),
            key=lambda i: abs(math.log(product_size(pool[i]) / atoms)),
        )
        laws = pool.pop(best)
        out.append({"kind": "product", "strict": strict, "size": product_size(laws),
                    "laws": [as_fractions(law) for law in laws]})
    return out


def exact_chains(rng: random.Random, tiny: bool = False) -> list[dict]:
    """One pass of the exact-chains batch, shuffled: axes 3..6, draws from
    +-{1,2,3} with n = 3..5, and the PRODUCT_SLOTS products."""
    draws_values = [F(v) for v in (-3, -2, -1, 1, 2, 3)]
    items: list[dict] = [
        {"kind": "axes", "n": n, "size": 2 * n, "expect": STARRED_STRICT}
        for n in ((3,) if tiny else (3, 4, 5, 6))
    ]
    for n in (3,) if tiny else (3, 4, 5):
        items.append(
            {"kind": "draws", "values": draws_values, "n": n,
             "size": math.perm(len(draws_values), n), "expect": STARRED_STRICT}
        )
    items += chains_for_slots(rng, PRODUCT_SLOTS[:2] if tiny else PRODUCT_SLOTS)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# Random pmfs and their symmetrisations


def reflect(point: tuple, k: int, l: int) -> tuple:
    """(x_k, x_l) -> (-x_l, -x_k), 1-based k < l."""
    out = list(point)
    out[k - 1], out[l - 1] = -point[l - 1], -point[k - 1]
    return tuple(out)


def in_region(point: tuple, k: int, l: int, cond: str) -> bool:
    """The open region on which `cond` constrains the pmf (see symmetry.py)."""
    xk, xl = point[k - 1], point[l - 1]
    if cond == "URE":
        return xk < xl
    if cond == "LRE":
        return xk > xl
    if cond == "RE":
        return True
    if cond.startswith("UR"):
        pivot, ok = abs(xk), abs(xk) < xl
    else:
        pivot, ok = abs(xl), abs(xl) < xk
    return ok and all(
        c < -pivot for i, c in enumerate(point) if i not in (k - 1, l - 1)
    )


def violates(cond: str, p: Fraction, q: Fraction) -> bool:
    """Does pmf p at a region point against q at its reflection break `cond`?"""
    if cond.endswith("sub"):
        return p < q
    if cond.endswith("sup"):
        return p > q
    return p != q


def random_weights(rng: random.Random, dim: int, n_atoms: int) -> dict:
    points: set = set()
    while len(points) < n_atoms:
        points.add(tuple(rng.choice(COORD_GRID) for _ in range(dim)))
    return {pt: rng.randint(1, 9) for pt in sorted(points)}


def first_violation(pmf: dict, cond: str, k: int, l: int):
    candidates = set(pmf) | {reflect(p, k, l) for p in pmf}
    for pt in sorted(candidates):
        if in_region(pt, k, l, cond):
            if violates(cond, pmf.get(pt, 0), pmf.get(reflect(pt, k, l), 0)):
                return pt
    return None


def symmetrised(weights: dict, cond: str, k: int, l: int) -> dict:
    """Weights that satisfy `cond` at (k, l), made from `weights`.

    RE averages with the reflected image; URE/LRE average each region point
    with its reflection (the region maps onto itself); the sub/super variants
    swap the masses of a region point and its reflection, which lies outside
    the region, wherever they are in the wrong order.
    """
    w = {pt: F(x) for pt, x in weights.items()}
    if cond == "RE":
        out: dict = {}
        for pt, x in w.items():
            for q in (pt, reflect(pt, k, l)):
                out[q] = out.get(q, 0) + x / 2
        return out
    out = dict(w)
    candidates = set(w) | {reflect(p, k, l) for p in w}
    for pt in sorted(candidates):
        if not in_region(pt, k, l, cond):
            continue
        img = reflect(pt, k, l)
        a, b = w.get(pt, F(0)), w.get(img, F(0))
        if cond in ("URE", "LRE"):
            a = b = (a + b) / 2
        elif violates(cond, a, b):
            a, b = b, a
        out[pt], out[img] = a, b
    return out


def region_points(dim: int, k: int, l: int, cond: str) -> list[tuple]:
    return [
        pt for pt in itertools.product(COORD_GRID, repeat=dim)
        if in_region(pt, k, l, cond) and reflect(pt, k, l) != pt
    ]


PAIR_ATOMS = {2: 24, 3: 60, 4: 120}


def pair_item(rng: random.Random, cond: str, dim: int, holds: bool) -> dict:
    """A random pmf on which `cond` holds or fails by construction."""
    if cond in ("URE", "LRE"):
        k, l = 1, 2
    else:
        k, l = sorted(rng.sample(range(1, dim + 1), 2))
    while True:
        w = random_weights(rng, dim, PAIR_ATOMS[dim])
        if cond != "RE":
            # Make sure the region is not empty, with an ordered pair in it.
            pt = rng.choice(region_points(dim, k, l, cond))
            lo, hi = rng.randint(1, 4), rng.randint(5, 9)
            w[pt], w[reflect(pt, k, l)] = (hi, lo) if cond.endswith("sup") else (lo, hi)
        if holds:
            w = symmetrised(w, cond, k, l)
        atoms = _normalise(w)
        if (first_violation(dict(atoms), cond, k, l) is None) == holds:
            return {"kind": "pair", "cond": cond, "dim": dim, "k": k, "l": l,
                    "atoms": atoms, "expect": holds}


def draw_set(rng: random.Random) -> list[Fraction]:
    positives = rng.sample(ABS_GRID[1:], 3)
    return sorted([-v for v in positives] + positives)


def symmetry_scan(rng: random.Random, tiny: bool = False) -> list[dict]:
    """One pass of the symmetry-scan batch, shuffled.

    Whole-group verdicts run on iid-sym:tri,3..5 and axes:3..6 (all pass, so
    the whole group is enumerated) and on draws without replacement from a
    seeded symmetric 6-value set (E and ERE pass, SCI and ESCI fail).
    Pairwise scans run on seeded random pmfs, half symmetrised to pass and
    half left to fail.
    """
    items: list[dict] = []
    tri_ns, axes_ns, draws_ns = ((3,), (3,), (2,)) if tiny else ((3, 4, 5), (3, 4, 5, 6), (2, 3, 4))
    for n in tri_ns:
        for cond in ("E", "SCI", "ESCI"):
            items.append({"kind": "group", "family": "iid-tri", "n": n, "cond": cond, "expect": True})
    for n in axes_ns:
        for cond in ("E", "SCI", "ESCI"):
            items.append({"kind": "group", "family": "axes", "n": n, "cond": cond, "expect": True})
    values = draw_set(rng)
    for n in draws_ns:
        conds = {"E": True, "SCI": False, "ESCI": False}
        if n == 2:
            conds["ERE"] = True
        for cond, expect in conds.items():
            items.append({"kind": "group", "family": "draws", "values": values, "n": n,
                          "cond": cond, "expect": expect})
    plan = [("RE", dim, 2) for dim in (2, 3, 4)]
    plan += [("URE", 2, 4), ("LRE", 2, 4)]
    plan += [(v, dim, 1) for v in ("URsub", "LRsub", "URsup", "LRsup") for dim in (2, 3)]
    for cond, dim, per_side in plan:
        for holds in (True, False):
            for _ in range(1 if tiny else per_side):
                items.append(pair_item(rng, cond, dim, holds))
    rng.shuffle(items)
    return items


def draws_pmf(values, n: int):
    count = math.perm(len(values), n)
    allowed = set(values)

    def pmf(point) -> Fraction:
        if len(set(point)) == n and all(c in allowed for c in point):
            return F(1, count)
        return F(0)

    return pmf


# ---------------------------------------------------------------------------
# Numeric lab


def mpmath_phi2(x: float, y: float, rho: float) -> float:
    """Phi_2 by Plackett's identity, integrated at 30 digits."""
    import mpmath as mp

    with mp.workdps(30):
        x, y, r = mp.mpf(x), mp.mpf(y), mp.mpf(rho)

        def density(t):
            s = 1 - t * t
            return mp.exp(-(x * x - 2 * t * x * y + y * y) / (2 * s)) / (2 * mp.pi * mp.sqrt(s))

        return float(mp.ncdf(x) * mp.ncdf(y) + mp.quad(density, [0, r]))


def phi2_points(rng: random.Random, count: int) -> list[tuple[float, float, float]]:
    """Alternating points of the |rho| < 0.925 branch and the near-singular one."""
    out = []
    for i in range(count):
        x, y = rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5)
        if i % 2 == 0:
            rho = rng.uniform(-0.92, 0.92)
        else:
            rho = rng.choice((-1, 1)) * rng.uniform(0.93, 0.999)
        out.append((x, y, rho))
    return out


def numeric_lab(rng: random.Random, tiny: bool = False) -> list[dict]:
    """One pass of the numeric-lab batch, shuffled, with its mpmath oracle.

    Heavy items, all at 10^6 samples: three folded-normal KS checks (rho
    -0.6, 0, 0.6), one |min| <= |X|, |Y| <= |max| dominance chain and two
    likelihood-ratio chains (normal and Cauchy).  Grids: URE/LRE on spherical
    3-d models (URE(1,3) fails on intraclass ones with rho != 0) and
    URsub/LRsup on intraclass ones, 21^3 points.  Light items: 20 blocks of
    500 phi2 points and one identity-11 grid, so the median item is a phi2
    block.
    """
    n = 5_000 if tiny else 1_000_000

    def seed() -> int:
        return rng.randrange(2**32)

    def mu() -> float:
        return rng.choice((0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0))

    items: list[dict] = [
        {"kind": "ks", "mu": mu(), "rho": rho, "seed": seed(), "n": n}
        for rho in (-0.6, 0.0, 0.6)
    ]
    items.append({"kind": "chain", "mu": mu(), "rho": rng.choice((-0.6, -0.3, 0.3, 0.6)),
                  "seed": seed(), "n": n})
    for family in ("normal", "cauchy"):
        t1 = rng.choice((0.5, 1.0, 1.5))
        items.append({"kind": "mlr", "family": family, "theta": (t1, t1 + rng.choice((0.5, 1.0, 2.0))),
                      "seed": seed(), "n": n})
    axis = [-3.0 + 6.0 * i / 20 for i in range(21 if not tiny else 5)]
    items.append({"kind": "grid", "cond": "URE", "rho": 0.0, "sigma2": rng.uniform(0.5, 2.0),
                  "nu": None, "axes": [axis] * 3})
    items.append({"kind": "grid", "cond": "LRE", "rho": 0.0, "sigma2": rng.uniform(0.5, 2.0),
                  "nu": rng.choice((3.0, 5.0, 8.0)), "axes": [axis] * 3})
    items.append({"kind": "grid", "cond": "URsub", "rho": -rng.uniform(0.05, 0.45), "sigma2": 1.0,
                  "nu": None, "axes": [axis] * 3})
    items.append({"kind": "grid", "cond": "LRsup", "rho": rng.uniform(0.05, 0.8), "sigma2": 1.0,
                  "nu": None, "axes": [axis] * 3})
    blocks, per_block = (2, 20) if tiny else (20, 500)
    for b in range(blocks):
        points = phi2_points(rng, per_block)
        # In the first four blocks the first two points, one per branch, get
        # an oracle value.
        oracle = [(i, mpmath_phi2(*points[i])) for i in (0, 1)] if b < 4 else []
        items.append({"kind": "phi2", "points": points, "oracle": oracle})
    items.append({"kind": "identity11", "xs": [3.0 * i / 12 for i in range(13)],
                  "rhos": [-0.95, -0.5, 0.0, 0.5, 0.95]})
    rng.shuffle(items)
    return items


def grid_region_count(axes, cond: str, k: int = 1, l: int = 3) -> int:
    return sum(1 for pt in itertools.product(*axes) if in_region(pt, k, l, cond))


# ---------------------------------------------------------------------------
# CLI mix


def signed_law(abs_law) -> list[tuple]:
    """Symmetric signed law whose absolute value has law `abs_law`."""
    out = []
    for v, p in abs_law:
        out += [(v, p)] if v == 0 else [(v, p / 2), (-v, p / 2)]
    return sorted(out)


def product_atoms(laws) -> list[tuple]:
    atoms = []
    for combo in itertools.product(*laws):
        prob = F(1)
        for _, p in combo:
            prob *= p
        atoms.append((tuple(v for v, _ in combo), prob))
    return atoms


def abs_extreme_law(atoms, prefix: int, kind: str) -> list[tuple]:
    pick = max if kind == "max" else min
    out: dict = {}
    for pt, p in atoms:
        v = abs(pick(pt[:prefix]))
        out[v] = out.get(v, 0) + p
    return sorted(out.items())


def st_relation(u, v) -> tuple[str, list]:
    """Exact first-order comparison of two laws, as `stochex order` reports it."""
    def cdf(law, x):
        return sum((p for val, p in law if val <= x), F(0))

    below = above = None
    for x in sorted({val for val, _ in u} | {val for val, _ in v}):
        fu, fv = cdf(u, x), cdf(v, x)
        if fu < fv and below is None:
            below = x
        elif fu > fv and above is None:
            above = x
    if below is None and above is None:
        return "equal", []
    if below is None:
        return "strictly_less", [above]
    if above is None:
        return "strictly_greater", [below]
    return "incomparable", [below, above]


def region_table(atoms, x: Fraction) -> dict:
    out = {key: F(0) for key in "NSEWC"}
    for (a, b), p in atoms:
        if abs(a) <= x and abs(b) <= x:
            out["C"] += p
        elif abs(a) <= x:
            out["N" if b > x else "S"] += p
        elif abs(b) <= x:
            out["E" if a > x else "W"] += p
    return out


def dist_json(dim: int, atoms) -> dict:
    return {"dim": dim, "atoms": [{"x": [str(c) for c in pt], "p": str(p)} for pt, p in atoms]}


def cli_mix(rng: random.Random, workdir) -> tuple[list[dict], dict]:
    """One pass of real `stochex` invocations and the files they read.

    Returns (items, files): each item is an argv, the exit code the CLI
    contract requires and what to check in the output; `files` maps a file
    name in `workdir` to its text.  The last four items are input errors,
    which the contract says exit 2.
    """
    import json

    def path(name: str) -> str:
        return str(workdir / name)

    files: dict = {}
    sym = pair_item(rng, "RE", 2, True)
    raw = pair_item(rng, "RE", 2, False)
    laws = ordered_chain(rng, True)[:3]
    while not 24 <= product_size(laws) <= 64:
        laws = ordered_chain(rng, True)[:3]
    prod = product_atoms([signed_law(as_fractions(law)) for law in laws])
    reg = _normalise(random_weights(rng, 2, 24))
    law_a = random_abs_law(rng)
    law_a, law_b = as_fractions(law_a), as_fractions(shift_up(rng, law_a, True))
    dim3 = pair_item(rng, "RE", 3, False)
    files["sym2.json"] = json.dumps(dist_json(2, sym["atoms"]))
    files["raw2.json"] = json.dumps(dist_json(2, raw["atoms"]))
    files["prod3.json"] = json.dumps(dist_json(3, prod))
    files["reg2.json"] = json.dumps(dist_json(2, reg))
    files["a1.json"] = json.dumps(dist_json(1, [((v,), p) for v, p in signed_law(law_a)]))
    files["b1.json"] = json.dumps(dist_json(1, [((v,), p) for v, p in signed_law(law_b)]))
    files["dim3.json"] = json.dumps(dist_json(3, dim3["atoms"]))
    files["bad.json"] = files["sym2.json"][: len(files["sym2.json"]) // 2]

    x = rng.choice([F(1, 2), F(1), F(3, 2)])
    draws = ",".join(str(v) for v in draw_set(rng))
    phi2_point = phi2_points(rng, 2)[rng.randrange(2)]
    mu = rng.choice((0.5, 1.0, 1.5, 2.0))
    rho = rng.choice((-0.6, -0.3, 0.0, 0.3, 0.6))
    t1 = rng.choice((0.5, 1.0, 1.5))
    mc_seed = str(rng.randrange(2**32))
    mc = ["--n", "20000", "--seed", mc_seed, "--alpha", str(MC_ALPHA)]
    items = [
        {"argv": ["check", path("sym2.json"), "--condition", "re-kl", "--k", "1", "--l", "2"],
         "exit": 0, "check": ("verdict", dict(sym["atoms"]))},
        {"argv": ["check", path("raw2.json"), "--condition", "re-kl", "--k", "1", "--l", "2"],
         "exit": 1, "check": ("verdict", dict(raw["atoms"]))},
        {"argv": ["absdist", path("prod3.json"), "--prefix", "2", "--csv"],
         "exit": 0, "check": ("csv", abs_extreme_law(prod, 2, "max"))},
        {"argv": ["regions", path("reg2.json"), "--x", str(x)],
         "exit": 0, "check": ("regions", region_table(reg, x))},
        {"argv": ["order", path("a1.json"), path("b1.json"), "--absolute"],
         "exit": 0, "check": ("order", st_relation(law_a, law_b))},
        {"argv": ["classify", path("prod3.json")], "exit": 0, "check": ("labels", STRICT)},
        {"argv": ["gallery", f"draws-2:{draws}"], "exit": 0, "check": ("gallery", None)},
        {"argv": ["phi2", *(repr(c) for c in phi2_point)],
         "exit": 0, "check": ("phi2", mpmath_phi2(*phi2_point))},
        {"argv": ["identity11"], "exit": 0, "check": ("pass", None)},
        {"argv": ["mc", f"bvn:{mu},{rho}", "--check", "absmax-absx-ks", *mc],
         "exit": 0, "check": ("pass", None)},
        {"argv": ["mc", f"mlr:normal,{t1},{t1 + 1.0}", *mc], "exit": 0, "check": ("pass", None)},
        {"argv": ["check", path("bad.json"), "--condition", "re-kl"], "exit": 2, "check": None},
        {"argv": ["check", path("dim3.json"), "--condition", "re-kl"], "exit": 2, "check": None},
        {"argv": ["absdist", "gallery://axes:0", "--prefix", "1"], "exit": 2, "check": None},
        {"argv": ["gallery", "nosuch:1"], "exit": 2, "check": None},
    ]
    return items, files
