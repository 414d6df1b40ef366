"""Exact and numeric verification of reverse-exchangeability symmetries and
the stochastic orderings of absolute extreme order statistics."""

from .dist import (
    ExactJointDist,
    SignedPermutation,
    UnivariateDist,
    parse_rational,
)
from .extremes import RegionProbs, abs_extreme_dist, region_probs, verify_region_identities
from .stochorder import (
    OrderVerdict,
    SequenceClassification,
    classify,
    st_compare,
    strictness_witness,
    strict_chain_preconditions,
)
from .symmetry import (
    SymmetryCondition,
    SymmetryVerdict,
    check_basic,
    check_re_kl,
    check_re_n,
    check_sub_super_kl,
    check_ure_lre,
)

__version__ = "0.1.0"

__all__ = [
    "ExactJointDist",
    "OrderVerdict",
    "RegionProbs",
    "SequenceClassification",
    "SignedPermutation",
    "SymmetryCondition",
    "SymmetryVerdict",
    "UnivariateDist",
    "abs_extreme_dist",
    "check_basic",
    "check_re_kl",
    "check_re_n",
    "check_sub_super_kl",
    "check_ure_lre",
    "classify",
    "parse_rational",
    "region_probs",
    "st_compare",
    "strictness_witness",
    "strict_chain_preconditions",
    "verify_region_identities",
]
