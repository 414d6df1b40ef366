"""Command-line front end.

Exit codes: 0 = all checks pass, 1 = a mathematical check failed (the JSON
output carries the witness), 2 = usage or input error.  Results go to stdout
as JSON (or CSV under --csv); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import extremes, stochorder, symmetry
from .contlab import (
    EllipticalModel,
    GaussianGenerator,
    MCConfig,
    dkw_band,
    folded_normal_cdf,
    ks_distance,
    mc_dominance,
    phi2,
    sample_elliptical,
    verify_identity_11,
    verify_mlr_example,
)
from .dist import ExactJointDist, parse_rational
from .errors import InvalidSpec, StochexError, UnknownId
from .gallery import finite, gallery, list_ids

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

CONDITION_NAMES = {
    "re-kl": "RE",
    "re-n": "RE_N",
    "ure": "URE",
    "lre": "LRE",
    "e": "E",
    "sci": "SCI",
    "esci": "ESCI",
    "ere": "ERE",
    "ursub-kl": "URsub",
    "lrsub-kl": "LRsub",
    "ursup-kl": "URsup",
    "lrsup-kl": "LRsup",
}


def _load_dist(source: str) -> ExactJointDist:
    """Load a distribution from a JSON file path or a gallery:// URI."""
    if source.startswith("gallery://"):
        entry = gallery(source[len("gallery://"):])
        if entry.kind != "discrete":
            raise UnknownId(f"gallery entry {entry.id!r} is not a discrete distribution")
        return entry.dist
    with open(source, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidSpec(f"{source} is not UTF-8 text: {exc}") from exc
    return ExactJointDist.from_json(text)


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def _default_seed() -> int:
    return int(os.environ.get("STOCHEX_SEED", "0"))


def _cmd_check(args) -> int:
    d = _load_dist(args.dist)
    kind = CONDITION_NAMES[args.condition]
    verdict = symmetry.check(d, kind, args.k, args.l)
    _emit(verdict.to_jsonable())
    return EXIT_OK if verdict.holds else EXIT_CHECK_FAILED


def _cmd_absdist(args) -> int:
    d = _load_dist(args.dist)
    u = extremes.abs_extreme_dist(d, args.prefix, args.stat)
    if args.csv:
        sys.stdout.write(extremes.cdf_table_csv(u, decimal=args.decimal))
    else:
        _emit(u.to_jsonable())
    return EXIT_OK


def _cmd_regions(args) -> int:
    d = _load_dist(args.dist)
    x = parse_rational(args.x)
    report = extremes.region_probs(d, x).to_jsonable()
    report["identities"] = extremes.verify_region_identities(d, x)
    _emit(report)
    return EXIT_OK if report["identities"]["ok"] else EXIT_CHECK_FAILED


def _cmd_order(args) -> int:
    a = _load_dist(args.a)
    b = _load_dist(args.b)
    if a.dim != 1 or b.dim != 1:
        raise StochexError("order expects univariate inputs (dim = 1)")
    ua = extremes.abs_extreme_dist(a, 1, "max") if args.absolute else _as_univariate(a)
    ub = extremes.abs_extreme_dist(b, 1, "max") if args.absolute else _as_univariate(b)
    _emit(stochorder.st_compare(ua, ub).to_jsonable())
    return EXIT_OK


def _as_univariate(d: ExactJointDist):
    from .dist import UnivariateDist

    return UnivariateDist.build([(a.point[0], a.prob) for a in d.atoms])


def _cmd_classify(args) -> int:
    d = _load_dist(args.dist)
    _emit(stochorder.classify(d).to_jsonable())
    return EXIT_OK


def _cmd_gallery(args) -> int:
    if args.list:
        _emit(list_ids())
        return EXIT_OK
    if args.id is None:
        raise StochexError("gallery needs an id or --list")
    entry = gallery(args.id)
    if args.emit:
        if entry.kind != "discrete":
            raise StochexError(f"gallery entry {entry.id!r} has no JSON form")
        _emit(entry.dist.to_jsonable())
        return EXIT_OK
    report = entry.verify()
    _emit({"id": entry.id, "description": entry.description, "expectations": report})
    return EXIT_OK if all(r["pass"] for r in report) else EXIT_CHECK_FAILED


def _cmd_phi2(args) -> int:
    _emit({"x": args.x, "y": args.y, "rho": args.rho, "phi2": phi2(args.x, args.y, args.rho)})
    return EXIT_OK


def _cmd_identity11(args) -> int:
    steps = args.steps
    xs = [args.xmax * i / (steps - 1) for i in range(steps)] if steps > 1 else [0.0]
    report = verify_identity_11(xs, args.rhos)
    _emit(report)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def _cmd_mc(args) -> int:
    cfg = MCConfig(sample_count=args.n, seed=args.seed, alpha=args.alpha)
    entry = gallery(args.model_id)
    model = entry.dist
    if entry.id.startswith("mlr:"):
        report = verify_mlr_example(model["theta1"], model["theta2"], model["family"], cfg)
        _emit(report)
        return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED
    if not isinstance(model, EllipticalModel):
        raise StochexError(f"mc needs an elliptical model, got {entry.id!r}")
    mu = model.mean[0]
    if args.check == "absmax-absx-ks" and not (
        model.dim == 2
        and isinstance(model.generator, GaussianGenerator)
        and model.mean[1] == -mu
        and model.scale[0][0] == model.scale[1][1] == 1.0
    ):
        # Only for this model is the folded normal of X the law of |max|.
        raise StochexError(
            f"{args.check} needs a bivariate Gaussian with means (mu, -mu) "
            f"and unit variances, got {entry.id!r}"
        )
    xy = sample_elliptical(model, cfg)
    abs_max = abs(xy.max(axis=1))
    abs_min = abs(xy.min(axis=1))
    abs_x = abs(xy[:, 0])
    abs_y = abs(xy[:, 1]) if xy.shape[1] > 1 else abs_x

    if args.check == "absmax-absx-ks":
        dist = ks_distance(abs_max, lambda t: folded_normal_cdf(t, mu))
        band = dkw_band(cfg.sample_count, cfg.alpha)
        report = {"max_deviation": dist, "tolerance": band, "pass": dist <= band}
    elif args.check == "min-max-equal":
        fwd = mc_dominance(abs_min, abs_max, cfg)
        bwd = mc_dominance(abs_max, abs_min, cfg)
        report = {"forward": fwd, "backward": bwd, "pass": fwd["pass"] and bwd["pass"]}
    else:  # ure-chain: |min| <=_st |X|, |Y| <=_st |max|
        parts = {
            "absmin_le_absX": mc_dominance(abs_min, abs_x, cfg),
            "absmin_le_absY": mc_dominance(abs_min, abs_y, cfg),
            "absX_le_absmax": mc_dominance(abs_x, abs_max, cfg),
            "absY_le_absmax": mc_dominance(abs_y, abs_max, cfg),
        }
        report = {"parts": parts, "pass": all(p["pass"] for p in parts.values())}
    _emit({"check": args.check, **report, "n": cfg.sample_count, "seed": cfg.seed})
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


# Argument types (and `finite`): argparse reports their ValueError as
# "invalid <name> value".
def nonnegative(text: str) -> float:
    value = finite(text)
    if value < 0:
        raise ValueError(text)
    return value


def finite_list(text: str) -> list[float]:
    return [finite(part) for part in text.split(",")]


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # an `error:` line first, as for every input error
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n{self.format_usage()}")

    def _parse_optional(self, arg_string):
        # "-" then a digit or ".", and -inf, -infinity or -nan in any case, are values
        # (no option is spelt so): argparse misses -1e-3, and `finite` rejects -inf.
        if re.match(r"-([\d.]|(inf|infinity|nan)$)", arg_string, re.IGNORECASE):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stochex",
        description="Exact and numeric checks for reverse-exchangeability "
        "symmetries and absolute extreme order statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test a symmetry condition on a distribution")
    p.add_argument("dist", help="JSON file or gallery:// URI")
    p.add_argument("--condition", required=True, choices=sorted(CONDITION_NAMES))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("absdist", help="distribution of |max| or |min| of a prefix")
    p.add_argument("dist")
    p.add_argument("--stat", choices=("max", "min"), default="max")
    p.add_argument("--prefix", type=int, required=True)
    p.add_argument("--csv", action="store_true", help="emit a cdf table instead of JSON")
    p.add_argument("--decimal", action="store_true", help="render values as decimals")
    p.set_defaults(func=_cmd_absdist)

    p = sub.add_parser("regions", help="strip-region probabilities at a threshold")
    p.add_argument("dist")
    p.add_argument("--x", required=True, help="rational threshold, e.g. 1/2")
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("order", help="first-order stochastic comparison of two dists")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--absolute", action="store_true", help="compare |value| laws")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("classify", help="prefix-chain classification")
    p.add_argument("dist")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("gallery", help="emit or verify a catalog entry")
    p.add_argument("id", nargs="?")
    p.add_argument("--list", action="store_true")
    p.add_argument("--emit", action="store_true", help="print the distribution JSON")
    p.set_defaults(func=_cmd_gallery)

    p = sub.add_parser("phi2", help="standard bivariate normal cdf")
    p.add_argument("x", type=finite)
    p.add_argument("y", type=finite)
    p.add_argument("rho", type=finite)
    p.set_defaults(func=_cmd_phi2)

    p = sub.add_parser("identity11", help="grid check of the absmax cdf identity")
    p.add_argument("--xmax", type=nonnegative, default=3.0)
    p.add_argument("--steps", type=positive_int, default=13)
    p.add_argument("--rhos", type=finite_list, default="-0.95,-0.5,0,0.5,0.95")
    p.set_defaults(func=_cmd_identity11)

    p = sub.add_parser("mc", help="Monte Carlo dominance checks on a continuous model")
    p.add_argument("model_id")
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument(
        "--check",
        default="min-max-equal",
        choices=("absmax-absx-ks", "min-max-equal", "ure-chain"),
    )
    p.set_defaults(func=_cmd_mc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except StochexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
