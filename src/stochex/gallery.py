"""Catalog of the concrete distributions used throughout the package, keyed by
stable string ids (`head` or `head:args`), each with machine-checkable expectations.

The families are declared once, in `_FAMILIES`: id head -> constructor and the
sample id that `list_ids` shows.  A constructor returns the canonical id, the
distribution, the description and the expectations.  An expectation is a tuple
`(name, check, *args)`; `GalleryEntry.verify` runs `check(entry.dist, *args)`,
one of the shared checks below, which returns `(pass, detail)`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import stochorder, symmetry
from .contlab import (
    GaussianSeqSpec,
    MCConfig,
    StudentTGenerator,
    bivariate_elliptical,
    build_gaussian_seq,
    density_symmetry_grid,
    folded_normal_cdf,
    intraclass_model,
    ks_distance,
    dkw_band,
    sample_elliptical,
    verify_mlr_example,
)
from .dist import ExactJointDist, UnivariateDist, parse_rational
from .errors import InvalidSpec, UnknownId
from .extremes import abs_extreme_dist


@dataclass
class GalleryEntry:
    id: str
    dist: object
    description: str
    expectations: tuple[tuple, ...]  # (name, check, *args)

    @property
    def kind(self) -> str:
        return "discrete" if isinstance(self.dist, ExactJointDist) else "continuous"

    def verify(self) -> list[dict]:
        report = []
        for name, check, *args in self.expectations:
            ok, detail = check(self.dist, *args)
            report.append({"expectation": name, "pass": ok, "detail": detail})
        return report


# ---------------------------------------------------------------------------
# Discrete constructors


def axes_dist(n: int) -> ExactJointDist:
    """Uniform on the 2n signed coordinate unit vectors of R^n."""
    if n < 1:
        raise InvalidSpec(f"axes needs n >= 1, got n = {n}")
    p = Fraction(1, 2 * n)
    raw = []
    for i in range(n):
        for sign in (1, -1):
            point = tuple(Fraction(sign if j == i else 0) for j in range(n))
            raw.append((point, p))
    return ExactJointDist.build(n, raw)


def sci_counterexample() -> ExactJointDist:
    return ExactJointDist.build(
        2, [((1, 0), Fraction(1, 2)), ((-1, 0), Fraction(1, 2))]
    )


def remark_asym_dist() -> ExactJointDist:
    points = [(-1, 0, 0), (0, 1, 0), (0, -1, 1), (1, 0, 1)]
    return ExactJointDist.build(3, [(p, Fraction(1, 4)) for p in points])


def draws_dist(values: Sequence[Fraction], n: int) -> ExactJointDist:
    """n ordered draws without replacement from a finite symmetric set."""
    vals = sorted(Fraction(v) for v in values)
    if len(set(vals)) != len(vals):
        raise InvalidSpec("draw set must have distinct elements")
    if sorted(-v for v in vals) != vals:
        raise InvalidSpec("draw set must be symmetric about 0 (A = -A)")
    if not 1 <= n <= len(vals):
        raise InvalidSpec(f"need 1 <= n <= |A| = {len(vals)}, got n = {n}")
    count = 1
    for i in range(n):
        count *= len(vals) - i
    p = Fraction(1, count)
    raw = [(perm, p) for perm in itertools.permutations(vals, n)]
    return ExactJointDist.build(n, raw)


def product_dist(marginals: Sequence[UnivariateDist]) -> ExactJointDist:
    """Product of independent univariate distributions (values may be signed)."""
    # Each marginal's masses as ints over its common denominator, so an atom's
    # mass is one int product over the product of those denominators.
    dens = [math.lcm(*(p.denominator for _, p in m.atoms)) for m in marginals]
    scaled = [
        [(v, p.numerator * (den // p.denominator)) for v, p in m.atoms]
        for m, den in zip(marginals, dens)
    ]
    total = math.prod(dens)
    raw = []
    for combo in itertools.product(*scaled):
        point = tuple(v for v, _ in combo)
        raw.append((point, Fraction(math.prod(w for _, w in combo), total)))
    return ExactJointDist.build(len(marginals), raw)


def symmetrize_univariate(abs_atoms: Sequence[tuple[Fraction, Fraction]]) -> UnivariateDist:
    """Signed symmetric distribution with the given distribution of |X|."""
    raw: list[tuple[Fraction, Fraction]] = []
    for v, p in abs_atoms:
        v, p = Fraction(v), Fraction(p)
        if v == 0:
            raw.append((v, p))
        else:
            raw.append((v, p / 2))
            raw.append((-v, p / 2))
    return UnivariateDist.build(raw)


_NAMED_MARGINALS = {
    "pm1": ((Fraction(1), Fraction(1)),),
    "tri": ((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))),
}


def iid_sym_dist(marginal_name: str, n: int) -> ExactJointDist:
    if marginal_name not in _NAMED_MARGINALS:
        raise UnknownId(f"unknown marginal {marginal_name!r}; have {sorted(_NAMED_MARGINALS)}")
    marginal = symmetrize_univariate(_NAMED_MARGINALS[marginal_name])
    return product_dist([marginal] * n)


def alt_signs_dist(n: int) -> ExactJointDist:
    """Independent non-symmetric base copies with signs flipped on even indices."""
    base = UnivariateDist.build([(0, Fraction(1, 3)), (1, Fraction(2, 3))])
    flipped = UnivariateDist.build([(-v, p) for v, p in base.atoms])
    marginals = [base if i % 2 == 0 else flipped for i in range(n)]
    return product_dist(marginals)


def indep_sym_step_dist() -> ExactJointDist:
    x = symmetrize_univariate([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    y = symmetrize_univariate(
        [(0, Fraction(1, 2)), (1, Fraction(1, 4)), (2, Fraction(1, 4))]
    )
    return product_dist([x, y])


# ---------------------------------------------------------------------------
# Checks: check(dist, *args) -> (pass, detail)

_QUICK_MC = MCConfig(sample_count=20_000, seed=20260823, alpha=0.01)
_VIOLATIONS = "{0[violations]} violations, max dev {0[max_deviation]:.2e}"


def _law(d: ExactJointDist, kind: str, coords: Sequence[int]) -> UnivariateDist:
    """Law of |max| or |min| of the coordinates X_i, i in coords (1-based)."""
    return abs_extreme_dist(d.marginal(coords), len(coords), kind)


def _verdict(d, kind: str, want: bool, k=None, l=None) -> tuple[bool, str]:
    """`symmetry.check(d, kind, k, l)` holds exactly when `want` is true."""
    v = symmetry.check(d, kind, k, l)
    return v.holds == want, f"{v.condition.label()} holds={v.holds}"


def _prefix_verdicts(d, kind: str, want: bool, pairs, fail: str, ok: str) -> tuple[bool, str]:
    """`_verdict` at (k, l) on the prefix X_1..X_l for each (k, l) in `pairs`; `fail`
    is formatted with the first k, l whose verdict differs from `want`."""
    for k, l in pairs:
        if symmetry.check(d.marginal(range(1, l + 1)), kind, k, l).holds != want:
            return False, fail.format(k=k, l=l)
    return True, ok


def _abs_law(d, kind: str, coords, atoms: dict) -> tuple[bool, str]:
    """The |max| or |min| law of coords has exactly the atoms {value: mass}."""
    u = _law(d, kind, coords)
    want = UnivariateDist.build([(Fraction(v), Fraction(p)) for v, p in atoms.items()])
    return u == want, f"got {u.to_jsonable()}"


def _cdfs(d, kind: str, table: dict, ok: str) -> tuple[bool, str]:
    """F(x) of the prefix law of length l equals table[(l, x)] for every key."""
    for (l, x), want in table.items():
        got = _law(d, kind, range(1, l + 1)).cdf(x)
        if got != want:
            return False, f"prefix {l}: cdf({x}) = {got}, expected {want}"
    return True, ok


def _relation(d, a: tuple, b: tuple, relation: str, detail: str) -> tuple[bool, str]:
    """`st_compare` of the laws a and b, each (kind, coords), is `relation`."""
    got = stochorder.st_compare(_law(d, *a), _law(d, *b)).relation
    return got == relation, detail


def _labels(d, *want: str) -> tuple[bool, str]:
    """The |max| and |min| chain labels of `classify`; "*" accepts any starred label."""
    c = stochorder.classify(d)
    got = (c.label_max, c.label_min)
    ok = all(g == w or (w == "*" and g.endswith("*")) for g, w in zip(got, want))
    return ok, f"labels {c.label_max}, {c.label_min}"


def _classified(strict: bool) -> tuple:
    """Expect starred labels (the first step is an equality); `strict` adds the S of
    a strictly increasing rest of the chain, which needs n >= 3."""
    mx, mn = ("SSIAMX*", "SSIAMN*") if strict else ("SIAMX*", "SIAMN*")
    return (f"classified {mx}/{mn}", _labels, mx, mn)


def _density(model, steps: int, conditions, detail: str, k=1, l=2, on=None) -> tuple[bool, str]:
    """`density_symmetry_grid` passes for each condition on [-3, 3]^dim (of `on` if given)."""
    model = on or model
    axes = [[-3.0 + 6.0 * i / (steps - 1) for i in range(steps)]] * model.dim
    reports = [density_symmetry_grid(model, c, axes, k=k, l=l) for c in conditions]
    return all(r["pass"] for r in reports), detail.format(*reports)


def _mc_folded(model, mu: float) -> tuple[bool, str]:
    """KS distance of sampled |max| from the folded normal of X within the DKW band."""
    xy = sample_elliptical(model, _QUICK_MC)
    dist = ks_distance(abs(xy.max(axis=1)), lambda x: folded_normal_cdf(x, mu))
    band = dkw_band(_QUICK_MC.sample_count, _QUICK_MC.alpha)
    return dist <= band, f"KS {dist:.5f} vs DKW band {band:.5f}"


def _gauss_means(spec: GaussianSeqSpec, want: list[float]) -> tuple[bool, str]:
    mu, _ = build_gaussian_seq(spec)
    return list(mu) == want, f"means {list(mu)}"


def _positive_definite(spec: GaussianSeqSpec) -> tuple[bool, str]:
    """`build_gaussian_seq` raises NotPositiveDefinite otherwise."""
    _, corr = build_gaussian_seq(spec)
    return True, f"correlation matrix of order {len(corr)} accepted"


def _mlr_chain(spec: dict) -> tuple[bool, str]:
    r = verify_mlr_example(spec["theta1"], spec["theta2"], spec["family"], _QUICK_MC)
    return r["pass"], f"grid violations {r['grid_violations']}"


# ---------------------------------------------------------------------------
# Families: constructor(arg) -> (id, dist, description, expectations)


def _sci_not_re(_):
    desc = "SCI two-point distribution on (1,0)/(-1,0); SCI alone does not give RE"
    return "sci-not-re", sci_counterexample(), desc, (
        ("SCI holds", _verdict, "SCI", True),
        ("RE fails", _verdict, "RE", False),
        ("absmax is {0:1/2, 1:1/2}", _abs_law, "max", (1, 2), {0: "1/2", 1: "1/2"}),
        ("absX is degenerate at 1", _abs_law, "max", (1,), {1: "1"}),
    )


def _draws2(arg):
    values = tuple(parse_rational(v) for v in arg.split(","))
    mass = {v: Fraction(2 if v else 1, len(values)) for v in values if v >= 0}
    desc = "two draws without replacement from a symmetric set: ERE but not ESCI"
    return f"draws-2:{','.join(str(v) for v in values)}", draws_dist(values, 2), desc, (
        ("ERE holds", _verdict, "ERE", True),
        ("ESCI fails", _verdict, "ESCI", False),
        ("abs marginal mass is 2/|A| (1/|A| at 0)", _abs_law, "max", (1,), mass),
        ("absmax equals absX", _relation, ("max", (1, 2)), ("max", (1,)), "equal",
         "exact equality of |max| and |X| distributions"),
    )


def _axes(arg):
    n = int(arg)
    at_zero = {(l, 0): 1 - Fraction(max(l, 2), 2 * n) for l in range(1, n + 1)}
    desc = "uniform on signed coordinate unit vectors; ESCI with strictly growing |max|"
    return f"axes:{n}", axes_dist(n), desc, (
        ("ESCI holds", _verdict, "ESCI", True),
        ("cdf-at-0 chain", _cdfs, "max", at_zero,
         "cdf at 0 matches 1 - l/(2n) for every prefix"),
        _classified(n >= 3),
    )


def _remark_asym(_):
    desc = "4-point distribution where the two leave-one-out |max| laws differ"
    return "remark-asym", remark_asym_dist(), desc, (
        ("RE(1,2) holds", _verdict, "RE", True, 1, 2),
        ("absmax(X1,X3) is {0:1/2, 1:1/2}", _abs_law, "max", (1, 3), {0: "1/2", 1: "1/2"}),
        ("absmax(X2,X3) is {0:1/4, 1:3/4}", _abs_law, "max", (2, 3), {0: "1/4", 1: "3/4"}),
    )


def _alt_signs(arg):
    n = int(arg)
    desc = "independent non-symmetric base with alternating sign copies"
    return f"alt-signs:{n}", alt_signs_dist(n), desc, (
        ("prefix reversals hold", _prefix_verdicts, "RE", True,
         [(l - 1, l) for l in range(2, n + 1)],
         "prefix {l} is not invariant under the (l-1,l) reversal",
         "every prefix reverses against its predecessor"),
        ("starred classification", _labels, "*", "*"),
    )


def _draws_n(arg):
    values_text, _, n_text = arg.partition(";")
    values = tuple(parse_rational(v) for v in values_text.split(","))
    n = int(n_text)
    d = draws_dist(values, n)
    expectations = (
        ("URsub on all prefixes", _prefix_verdicts, "URsub", True,
         [(1, l) for l in range(2, n + 1)],
         "URsub(1,{l}) fails on prefix {l}", "URsub(1,l) holds on every prefix"),
        ("RE fails for l >= 3", _prefix_verdicts, "RE", False,
         [(k, l) for l in range(3, min(n, len(values) - 1) + 1) for k in range(1, l)],
         "RE({k},{l}) unexpectedly holds on prefix {l}",
         "no pair reversal holds for prefixes of length >= 3"),
    )
    if n < len(values):
        expectations += (_classified(n >= 3),)
    desc = "n draws without replacement from a symmetric set"
    return f"draws-n:{','.join(str(v) for v in values)};{n}", d, desc, expectations


def _iid_sym(arg):
    name, n_text = arg.split(",")
    n = int(n_text)
    d = iid_sym_dist(name, n)
    desc = "iid symmetric coordinates; strictness requires a non-degenerate |X|"
    return f"iid-sym:{name},{n}", d, desc, (
        ("ESCI holds", _verdict, "ESCI", True),
        _classified(len(_NAMED_MARGINALS[name]) > 1 and n >= 3),
    )


def _indep_sym_step(_):
    absmax = {0: Fraction(1, 2), 1: Fraction(7, 8), 2: Fraction(1)}
    desc = "independent symmetric pair with stochastically ordered absolute marginals"
    return "indep-sym-step", indep_sym_step_dist(), desc, (
        ("absmax cdf is {0:1/2, 1:7/8, 2:1}", _cdfs, "max",
         {(2, x): p for x, p in absmax.items()}, f"cdf table {absmax}"),
        ("|min| equals |max|", _relation, ("min", (1, 2)), ("max", (1, 2)), "equal",
         "exact equality"),
        ("|X| strictly below |max|", _relation, ("max", (1,)), ("max", (1, 2)), "strictly_less",
         "strict first-order dominance"),
    )


def finite(text: str) -> float:
    """A float parsed from text; ValueError unless it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise UnknownId(f"{what} takes {count} comma-separated parameters, got {text!r}")
    return [finite(p) for p in parts]


def _bvn(arg):
    mu, rho = _parse_floats(arg, 2, "bvn")
    desc = "bivariate normal with opposite means; |max| matches the folded normal of X"
    return f"bvn:{mu},{rho}", bivariate_elliptical(mu, -mu, 1.0, 1.0, rho), desc, (
        ("density reflection equality on grid", _density, 13, ("URE", "LRE"),
         "max deviations {0[max_deviation]:.2e}, {1[max_deviation]:.2e}"),
        ("MC |max| vs folded-normal cdf", _mc_folded, mu),
    )


def _elliptical(arg):
    gen_name, rest = arg.split(",", 1)
    mu, nu, sigma, tau, rho = _parse_floats(rest, 5, "elliptical")
    if gen_name == "gauss":
        gen = None
    elif gen_name.startswith("t"):
        gen = StudentTGenerator(finite(gen_name[1:]))
    else:
        raise UnknownId(f"unknown generator {gen_name!r}")
    model = bivariate_elliptical(mu, nu, sigma, tau, rho, gen)
    if sigma == tau:
        side = "sub" if mu + nu > 0 else "sup" if mu + nu < 0 else "E"
        conditions = (f"UR{side}", f"LR{side}")
    elif mu == nu == 0:
        conditions = ("URsub", "LRsup") if tau > sigma else ("URsup", "LRsub")
    else:
        raise InvalidSpec("elliptical entry needs equal scales or a centered location")
    desc = "bivariate elliptical model with the density inequalities its parameters imply"
    return f"elliptical:{gen_name},{mu},{nu},{sigma},{tau},{rho}", model, desc, tuple(
        (f"{c} equality on grid" if c.endswith("RE") else f"{c} on grid",
         _density, 21, (c,), _VIOLATIONS)
        for c in conditions
    )


def _intraclass(arg):
    n_text, rho_text = arg.split(",")
    n, rho = int(n_text), finite(rho_text)
    model = intraclass_model(n, rho)
    c = "URsub" if rho < 0 else "LRsup"
    signed = ("signed one-sided density inequality", _density, 11, (c,),
              f"{c}(1,{n}): " + _VIOLATIONS, 1, n)
    pair = ("pair marginal reflects exactly", _density, 13, ("URE",),
            "max dev {0[max_deviation]:.2e}", 1, 2, intraclass_model(2, rho))
    desc = "centered Gaussian with intraclass correlation"
    return f"intraclass:{n},{rho}", model, desc, (signed, pair) if rho != 0 else (pair,)


def _gauss_seq(arg):
    case_text, n_text = arg.split(",")
    case, n = int(case_text), int(n_text)
    if case not in (1, 2):
        raise UnknownId(f"gauss-seq case must be 1 or 2, got {case}")
    anchors = (1,) * (n - 1) if case == 1 else tuple(range(1, n))
    spec = GaussianSeqSpec(1.0, anchors, (0.1,) * (n - 1))
    means = [1.0] + [-1.0] * (n - 1) if case == 1 else [(-1.0) ** i for i in range(n)]
    desc = "Gaussian sequence with sign-copied means and correlations"
    return f"gauss-seq:{case},{n}", spec, desc, (
        ("mean sign pattern", _gauss_means, means),
        ("correlation matrix positive definite", _positive_definite),
    )


def _mlr(arg):
    family, t1, t2 = arg.split(",")
    spec = {"family": family, "theta1": finite(t1), "theta2": finite(t2)}
    desc = "independent symmetric scale pair with monotone likelihood ratio"
    return f"mlr:{family},{spec['theta1']},{spec['theta2']}", spec, desc, (
        ("ordering chain and density inequality", _mlr_chain),
    )


# head -> (constructor, sample id shown by list_ids), with the id syntax;
# heads without arguments are their own sample id.
_FAMILIES = {
    "sci-not-re": (_sci_not_re, "sci-not-re"),
    "draws-2": (_draws2, "draws-2:-1,1"),  # draws-2:A, rationals with A = -A
    "axes": (_axes, "axes:3"),  # axes:n
    "remark-asym": (_remark_asym, "remark-asym"),
    "alt-signs": (_alt_signs, "alt-signs:4"),  # alt-signs:n
    "draws-n": (_draws_n, "draws-n:-2,-1,1,2;3"),  # draws-n:A;n
    "iid-sym": (_iid_sym, "iid-sym:tri,3"),  # iid-sym:F,n with F in pm1, tri
    "indep-sym-step": (_indep_sym_step, "indep-sym-step"),
    "bvn": (_bvn, "bvn:1.5,0.3"),  # bvn:mu,rho
    "elliptical": (  # elliptical:gen,mu,nu,sigma,tau,rho with gen gauss or t<nu>
        _elliptical, "elliptical:gauss,1,0.5,1,1,0.3"),
    "intraclass": (_intraclass, "intraclass:3,-0.3"),  # intraclass:n,rho
    "gauss-seq": (_gauss_seq, "gauss-seq:1,4"),  # gauss-seq:case,n with case 1 or 2
    "mlr": (_mlr, "mlr:normal,1,2"),  # mlr:family,theta1,theta2, normal or cauchy
}


def gallery(entry_id: str) -> GalleryEntry:
    """Build the catalog entry for `entry_id`; raises UnknownId otherwise."""
    head, colon, arg = entry_id.partition(":")
    build, sample = _FAMILIES.get(head, (None, head))
    if build is None or (colon and sample == head):
        raise UnknownId(f"unknown gallery id {entry_id!r}")
    try:
        return GalleryEntry(*build(arg))
    except (ValueError, InvalidSpec) as exc:
        raise UnknownId(f"cannot parse gallery id {entry_id!r}: {exc}") from exc


def list_ids() -> list[dict]:
    """One line per id family, with a representative instantiation."""
    return [
        {"id": sample, "description": gallery(sample).description}
        for _, sample in _FAMILIES.values()
    ]
