"""Catalog of the concrete distributions used throughout the package, keyed by
stable string ids, each bundled with machine-checkable expectations.

Discrete ids
    sci-not-re                  two-point sign-symmetric counterexample
    draws-2:A                   two draws without replacement from A (A = -A)
    axes:n                      uniform on the 2n signed coordinate unit vectors
    remark-asym                 the 4-point distribution with asymmetric
                                leave-one-out maxima
    alt-signs:n                 independent sequence with alternating sign copies
    draws-n:A;n                 n draws without replacement from A (A = -A)
    iid-sym:F,n                 n iid copies of a named symmetric marginal
                                (F in {pm1, tri})
    indep-sym-step              independent symmetric pair with |X| on {0,1}
                                and |Y| on {0,1,2}

Continuous ids
    bvn:mu,rho                  bivariate normal, means (mu, -mu), unit variances
    elliptical:gen,mu,nu,sigma,tau,rho
                                bivariate elliptical (gen in {gauss, t5})
    intraclass:n,rho            centered Gaussian with intraclass correlation
    gauss-seq:case,n            sign-patterned Gaussian sequence (case 1 or 2)
    mlr:family,theta1,theta2    independent scale-family pair (normal or cauchy)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

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

Expectation = tuple[str, Callable[[], tuple[bool, str]]]


@dataclass
class GalleryEntry:
    id: str
    description: str
    kind: str  # "discrete" or "continuous"
    dist: object
    expectations: tuple[Expectation, ...]

    def verify(self) -> list[dict]:
        report = []
        for name, fn in self.expectations:
            ok, detail = fn()
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
# Expectation helpers


def _verdict_holds(v: symmetry.SymmetryVerdict) -> tuple[bool, str]:
    return v.holds, f"{v.condition.label()} holds={v.holds}"


def _verdict_fails(v: symmetry.SymmetryVerdict) -> tuple[bool, str]:
    return not v.holds, f"{v.condition.label()} holds={v.holds}"


def _labels(d: ExactJointDist, want: Callable[[str, str], bool]) -> tuple[bool, str]:
    """Classify d once; pass when want(label_max, label_min) is true."""
    c = stochorder.classify(d)
    return want(c.label_max, c.label_min), f"labels {c.label_max}, {c.label_min}"


def _abs_dist_equals(u: UnivariateDist, expected: dict) -> tuple[bool, str]:
    want = UnivariateDist.build(
        [(Fraction(v), Fraction(p)) for v, p in expected.items()]
    )
    return u == want, f"got {u.to_jsonable()}"


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


# ---------------------------------------------------------------------------
# Catalog


def _entry_sci_not_re() -> GalleryEntry:
    d = sci_counterexample()
    return GalleryEntry(
        "sci-not-re",
        "SCI two-point distribution on (1,0)/(-1,0); SCI alone does not give RE",
        "discrete",
        d,
        (
            ("SCI holds", lambda: _verdict_holds(symmetry.check_basic(d, "SCI"))),
            ("RE fails", lambda: _verdict_fails(symmetry.check_re_kl(d, 1, 2))),
            (
                "absmax is {0:1/2, 1:1/2}",
                lambda: _abs_dist_equals(
                    abs_extreme_dist(d, 2, "max"), {0: "1/2", 1: "1/2"}
                ),
            ),
            (
                "absX is degenerate at 1",
                lambda: _abs_dist_equals(abs_extreme_dist(d, 1, "max"), {1: "1"}),
            ),
        ),
    )


def _entry_draws2(values: tuple[Fraction, ...]) -> GalleryEntry:
    d = draws_dist(values, 2)
    size = len(values)
    has_zero = Fraction(0) in values
    expected_abs = {}
    for v in values:
        if v > 0:
            expected_abs[v] = Fraction(2, size)
    if has_zero:
        expected_abs[Fraction(0)] = Fraction(1, size)
    return GalleryEntry(
        f"draws-2:{','.join(str(v) for v in values)}",
        "two draws without replacement from a symmetric set: ERE but not ESCI",
        "discrete",
        d,
        (
            ("ERE holds", lambda: _verdict_holds(symmetry.check_basic(d, "ERE"))),
            ("ESCI fails", lambda: _verdict_fails(symmetry.check_basic(d, "ESCI"))),
            (
                "abs marginal mass is 2/|A| (1/|A| at 0)",
                lambda: _abs_dist_equals(
                    abs_extreme_dist(d, 1, "max"),
                    {str(k): str(v) for k, v in expected_abs.items()},
                ),
            ),
            (
                "absmax equals absX",
                lambda: (
                    abs_extreme_dist(d, 2, "max") == abs_extreme_dist(d, 1, "max"),
                    "exact equality of |max| and |X| distributions",
                ),
            ),
        ),
    )


def _entry_axes(n: int) -> GalleryEntry:
    d = axes_dist(n)

    def chain_cdf_at_zero() -> tuple[bool, str]:
        for l in range(1, n + 1):
            got = abs_extreme_dist(d, l, "max").cdf(0)
            want = 1 - Fraction(l, 2 * n) if l >= 2 else 1 - Fraction(1, n)
            if got != want:
                return False, f"prefix {l}: cdf(0) = {got}, expected {want}"
        return True, "cdf at 0 matches 1 - l/(2n) for every prefix"

    return GalleryEntry(
        f"axes:{n}",
        "uniform on signed coordinate unit vectors; ESCI with strictly growing |max|",
        "discrete",
        d,
        (
            ("ESCI holds", lambda: _verdict_holds(symmetry.check_basic(d, "ESCI"))),
            ("cdf-at-0 chain", chain_cdf_at_zero),
            (
                "classified SSIAMX*/SSIAMN*",
                lambda: _labels(d, lambda mx, mn: (mx, mn) == ("SSIAMX*", "SSIAMN*")),
            ),
        ),
    )


def _entry_remark_asym() -> GalleryEntry:
    d = remark_asym_dist()
    return GalleryEntry(
        "remark-asym",
        "4-point distribution where the two leave-one-out |max| laws differ",
        "discrete",
        d,
        (
            ("RE(1,2) holds", lambda: _verdict_holds(symmetry.check_re_kl(d, 1, 2))),
            (
                "absmax(X1,X3) is {0:1/2, 1:1/2}",
                lambda: _abs_dist_equals(
                    abs_extreme_dist(d.marginal([1, 3]), 2, "max"),
                    {0: "1/2", 1: "1/2"},
                ),
            ),
            (
                "absmax(X2,X3) is {0:1/4, 1:3/4}",
                lambda: _abs_dist_equals(
                    abs_extreme_dist(d.marginal([2, 3]), 2, "max"),
                    {0: "1/4", 1: "3/4"},
                ),
            ),
        ),
    )


def _entry_alt_signs(n: int) -> GalleryEntry:
    d = alt_signs_dist(n)

    def prefix_re() -> tuple[bool, str]:
        for l in range(2, n + 1):
            prefix = d.marginal(range(1, l + 1))
            if not symmetry.check_re_kl(prefix, l - 1, l).holds:
                return False, f"prefix {l} is not invariant under the (l-1,l) reversal"
        return True, "every prefix reverses against its predecessor"

    return GalleryEntry(
        f"alt-signs:{n}",
        "independent non-symmetric base with alternating sign copies",
        "discrete",
        d,
        (
            ("prefix reversals hold", prefix_re),
            (
                "starred classification",
                lambda: _labels(d, lambda mx, mn: mx.endswith("*") and mn.endswith("*")),
            ),
        ),
    )


def _entry_draws_n(values: tuple[Fraction, ...], n: int) -> GalleryEntry:
    d = draws_dist(values, n)
    size = len(values)

    def ursub_all_prefixes() -> tuple[bool, str]:
        for l in range(2, n + 1):
            prefix = d.marginal(range(1, l + 1))
            if not symmetry.check_sub_super_kl(prefix, 1, l, "URsub").holds:
                return False, f"URsub(1,{l}) fails on prefix {l}"
        return True, "URsub(1,l) holds on every prefix"

    def re_fails_beyond_two() -> tuple[bool, str]:
        for l in range(3, min(n, size - 1) + 1):
            prefix = d.marginal(range(1, l + 1))
            for k in range(1, l):
                if symmetry.check_re_kl(prefix, k, l).holds:
                    return False, f"RE({k},{l}) unexpectedly holds on prefix {l}"
        return True, "no pair reversal holds for prefixes of length >= 3"

    expectations = [
        ("URsub on all prefixes", ursub_all_prefixes),
        ("RE fails for l >= 3", re_fails_beyond_two),
    ]
    if n < size:
        # The first step is an exact equality (the pair reverses), so the
        # strict chain starts at l = 3 and the starred strict label applies.
        expectations.append(
            (
                "classified SSIAMX*/SSIAMN*",
                lambda: _labels(d, lambda mx, mn: (mx, mn) == ("SSIAMX*", "SSIAMN*")),
            )
        )
    return GalleryEntry(
        f"draws-n:{','.join(str(v) for v in values)};{n}",
        "n draws without replacement from a symmetric set",
        "discrete",
        d,
        tuple(expectations),
    )


def _entry_iid_sym(marginal_name: str, n: int) -> GalleryEntry:
    d = iid_sym_dist(marginal_name, n)
    degenerate = len(_NAMED_MARGINALS[marginal_name]) == 1
    want_max = "SIAMX*" if degenerate else "SSIAMX*"
    want_min = "SIAMN*" if degenerate else "SSIAMN*"
    return GalleryEntry(
        f"iid-sym:{marginal_name},{n}",
        "iid symmetric coordinates; strictness requires a non-degenerate |X|",
        "discrete",
        d,
        (
            ("ESCI holds", lambda: _verdict_holds(symmetry.check_basic(d, "ESCI"))),
            (
                f"classified {want_max}/{want_min}",
                lambda: _labels(d, lambda mx, mn: (mx, mn) == (want_max, want_min)),
            ),
        ),
    )


def _entry_indep_sym_step() -> GalleryEntry:
    d = indep_sym_step_dist()

    def absmax_cdf() -> tuple[bool, str]:
        u = abs_extreme_dist(d, 2, "max")
        want = {0: Fraction(1, 2), 1: Fraction(7, 8), 2: Fraction(1)}
        got = {int(x): u.cdf(x) for x in (0, 1, 2)}
        return got == want, f"cdf table {got}"

    return GalleryEntry(
        "indep-sym-step",
        "independent symmetric pair with stochastically ordered absolute marginals",
        "discrete",
        d,
        (
            ("absmax cdf is {0:1/2, 1:7/8, 2:1}", absmax_cdf),
            (
                "|min| equals |max|",
                lambda: (
                    abs_extreme_dist(d, 2, "min") == abs_extreme_dist(d, 2, "max"),
                    "exact equality",
                ),
            ),
            (
                "|X| strictly below |max|",
                lambda: (
                    stochorder.st_compare(
                        abs_extreme_dist(d, 1, "max"), abs_extreme_dist(d, 2, "max")
                    ).relation
                    == "strictly_less",
                    "strict first-order dominance",
                ),
            ),
        ),
    )


# ---------------------------------------------------------------------------
# Continuous entries

_QUICK_MC = MCConfig(sample_count=20_000, seed=20260823, alpha=0.01)


def _entry_bvn(mu: float, rho: float) -> GalleryEntry:
    model = bivariate_elliptical(mu, -mu, 1.0, 1.0, rho)
    axes2 = [_grid(-3.0, 3.0, 13)] * 2

    def re_density_grid() -> tuple[bool, str]:
        r = density_symmetry_grid(model, "URE", axes2)
        r2 = density_symmetry_grid(model, "LRE", axes2)
        ok = r["pass"] and r2["pass"]
        return ok, f"max deviations {r['max_deviation']:.2e}, {r2['max_deviation']:.2e}"

    def mc_folded() -> tuple[bool, str]:
        xy = sample_elliptical(model, _QUICK_MC)
        abs_max = abs(xy.max(axis=1))
        dist = ks_distance(abs_max, lambda x: folded_normal_cdf(x, mu))
        band = dkw_band(_QUICK_MC.sample_count, _QUICK_MC.alpha)
        return dist <= band, f"KS {dist:.5f} vs DKW band {band:.5f}"

    return GalleryEntry(
        f"bvn:{mu},{rho}",
        "bivariate normal with opposite means; |max| matches the folded normal of X",
        "continuous",
        model,
        (
            ("density reflection equality on grid", re_density_grid),
            ("MC |max| vs folded-normal cdf", mc_folded),
        ),
    )


def _entry_elliptical(
    gen_name: str, mu: float, nu: float, sigma: float, tau: float, rho: float
) -> GalleryEntry:
    if gen_name == "gauss":
        gen = None
    elif gen_name.startswith("t"):
        gen = StudentTGenerator(float(gen_name[1:]))
    else:
        raise UnknownId(f"unknown generator {gen_name!r}")
    model = bivariate_elliptical(mu, nu, sigma, tau, rho, gen)
    axes2 = [_grid(-3.0, 3.0, 21)] * 2

    def grid_check(condition: str):
        def run() -> tuple[bool, str]:
            r = density_symmetry_grid(model, condition, axes2)
            return r["pass"], f"{r['violations']} violations, max dev {r['max_deviation']:.2e}"

        return run

    expectations: list[Expectation] = []
    if sigma == tau:
        if mu + nu > 0:
            expectations += [
                ("URsub on grid", grid_check("URsub")),
                ("LRsub on grid", grid_check("LRsub")),
            ]
        elif mu + nu < 0:
            expectations += [
                ("URsup on grid", grid_check("URsup")),
                ("LRsup on grid", grid_check("LRsup")),
            ]
        else:
            expectations += [
                ("URE equality on grid", grid_check("URE")),
                ("LRE equality on grid", grid_check("LRE")),
            ]
    if mu == nu == 0 and sigma != tau:
        if tau > sigma:
            expectations += [
                ("URsub on grid", grid_check("URsub")),
                ("LRsup on grid", grid_check("LRsup")),
            ]
        else:
            expectations += [
                ("URsup on grid", grid_check("URsup")),
                ("LRsub on grid", grid_check("LRsub")),
            ]
    if not expectations:
        raise InvalidSpec(
            "elliptical entry needs equal scales or a centered location"
        )
    return GalleryEntry(
        f"elliptical:{gen_name},{mu},{nu},{sigma},{tau},{rho}",
        "bivariate elliptical model with the density inequalities its parameters imply",
        "continuous",
        model,
        tuple(expectations),
    )


def _entry_intraclass(n: int, rho: float) -> GalleryEntry:
    model = intraclass_model(n, rho)
    axes_n = [_grid(-3.0, 3.0, 11)] * n

    def signed_grid() -> tuple[bool, str]:
        condition = "URsub" if rho < 0 else "LRsup"
        r = density_symmetry_grid(model, condition, axes_n, k=1, l=n)
        return r["pass"], (
            f"{condition}(1,{n}): {r['violations']} violations, "
            f"max dev {r['max_deviation']:.2e}"
        )

    def bivariate_re() -> tuple[bool, str]:
        sub = intraclass_model(2, rho)
        r = density_symmetry_grid(sub, "URE", [_grid(-3.0, 3.0, 13)] * 2)
        return r["pass"], f"max dev {r['max_deviation']:.2e}"

    expectations: list[Expectation] = [("pair marginal reflects exactly", bivariate_re)]
    if rho != 0:
        expectations.insert(0, ("signed one-sided density inequality", signed_grid))
    return GalleryEntry(
        f"intraclass:{n},{rho}",
        "centered Gaussian with intraclass correlation",
        "continuous",
        model,
        tuple(expectations),
    )


def _entry_gauss_seq(case: int, n: int) -> GalleryEntry:
    case_name = {1: "anchor-first", 2: "alternating"}.get(case)
    if case_name is None:
        raise UnknownId(f"gauss-seq case must be 1 or 2, got {case}")
    spec = GaussianSeqSpec(n=n, mu=1.0, case=case_name, rho_params=(0.1,) * (n - 1))

    def mean_pattern() -> tuple[bool, str]:
        mu, _ = build_gaussian_seq(spec)
        if case == 1:
            want = [1.0] + [-1.0] * (n - 1)
        else:
            want = [(-1.0) ** i for i in range(n)]
        return list(mu) == want, f"means {list(mu)}"

    def positive_definite() -> tuple[bool, str]:
        _, corr = build_gaussian_seq(spec)
        return True, f"correlation matrix of order {len(corr)} accepted"

    return GalleryEntry(
        f"gauss-seq:{case},{n}",
        "Gaussian sequence with sign-copied means and correlations",
        "continuous",
        spec,
        (
            ("mean sign pattern", mean_pattern),
            ("correlation matrix positive definite", positive_definite),
        ),
    )


def _entry_mlr(family: str, theta1: float, theta2: float) -> GalleryEntry:
    spec = {"family": family, "theta1": theta1, "theta2": theta2}

    def chain() -> tuple[bool, str]:
        r = verify_mlr_example(theta1, theta2, family, _QUICK_MC)
        return r["pass"], f"grid violations {r['grid_violations']}"

    return GalleryEntry(
        f"mlr:{family},{theta1},{theta2}",
        "independent symmetric scale pair with monotone likelihood ratio",
        "continuous",
        spec,
        (("ordering chain and density inequality", chain),),
    )


# ---------------------------------------------------------------------------
# Id parsing


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise UnknownId(f"{what} takes {count} comma-separated parameters, got {text!r}")
    return [float(p) for p in parts]


def gallery(entry_id: str) -> GalleryEntry:
    """Build the catalog entry for `entry_id`; raises UnknownId otherwise."""
    head, _, arg = entry_id.partition(":")
    try:
        if entry_id == "sci-not-re":
            return _entry_sci_not_re()
        if entry_id == "remark-asym":
            return _entry_remark_asym()
        if entry_id == "indep-sym-step":
            return _entry_indep_sym_step()
        if head == "axes":
            return _entry_axes(int(arg))
        if head == "draws-2":
            return _entry_draws2(tuple(parse_rational(v) for v in arg.split(",")))
        if head == "draws-n":
            values_text, _, n_text = arg.partition(";")
            values = tuple(parse_rational(v) for v in values_text.split(","))
            return _entry_draws_n(values, int(n_text))
        if head == "alt-signs":
            return _entry_alt_signs(int(arg))
        if head == "iid-sym":
            name, n_text = arg.split(",")
            return _entry_iid_sym(name, int(n_text))
        if head == "bvn":
            mu, rho = _parse_floats(arg, 2, "bvn")
            return _entry_bvn(mu, rho)
        if head == "elliptical":
            gen, rest = arg.split(",", 1)
            mu, nu, sigma, tau, rho = _parse_floats(rest, 5, "elliptical")
            return _entry_elliptical(gen, mu, nu, sigma, tau, rho)
        if head == "intraclass":
            n_text, rho_text = arg.split(",")
            return _entry_intraclass(int(n_text), float(rho_text))
        if head == "gauss-seq":
            case_text, n_text = arg.split(",")
            return _entry_gauss_seq(int(case_text), int(n_text))
        if head == "mlr":
            family, t1, t2 = arg.split(",")
            return _entry_mlr(family, float(t1), float(t2))
    except UnknownId:
        raise
    except (ValueError, InvalidSpec) as exc:
        raise UnknownId(f"cannot parse gallery id {entry_id!r}: {exc}") from exc
    raise UnknownId(f"unknown gallery id {entry_id!r}")


def list_ids() -> list[dict]:
    """One line per id family, with a representative instantiation."""
    samples = [
        "sci-not-re",
        "draws-2:-1,1",
        "axes:3",
        "remark-asym",
        "alt-signs:4",
        "draws-n:-2,-1,1,2;3",
        "iid-sym:tri,3",
        "indep-sym-step",
        "bvn:1.5,0.3",
        "elliptical:gauss,1,0.5,1,1,0.3",
        "intraclass:3,-0.3",
        "gauss-seq:1,4",
        "mlr:normal,1,2",
    ]
    return [
        {"id": sid, "description": gallery(sid).description} for sid in samples
    ]
