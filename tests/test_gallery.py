"""Catalog entries: every expectation passes, ids parse, errors are typed."""

from fractions import Fraction

import pytest

from stochex.errors import InvalidSpec, UnknownId
from stochex.gallery import (
    MAX_ATOM_COORDINATES,
    alt_signs_dist,
    axes_dist,
    draws_dist,
    gallery,
    iid_sym_dist,
    list_ids,
    product_dist,
    remark_asym_dist,
    symmetrize_univariate,
)

EXTRA_IDS = [
    "axes:2",
    "axes:4",
    "axes:6",
    "iid-sym:tri,2",
    "draws-n:-2,-1,1,2;2",
    "draws-2:-2,-1,1,2",
    "draws-2:-1,0,1",
    "draws-n:-3,-2,-1,1,2,3;4",
    "iid-sym:pm1,3",
    "alt-signs:3",
    "bvn:0.0,0.5",
    "bvn:-1.0,-0.4",
    "elliptical:t5,0.5,0.5,1,1,0.2",
    "elliptical:gauss,-1,-0.5,1,1,0.3",
    "elliptical:gauss,0,0,1,2,0.3",
    "elliptical:gauss,0,0,2,1,0.3",
    "elliptical:gauss,0,0,1,1,0.5",
    "intraclass:4,0.3",
    "gauss-seq:2,5",
    "mlr:cauchy,0.5,2",
]


@pytest.mark.parametrize("entry_id", [row["id"] for row in list_ids()])
def test_every_listed_entry_verifies(entry_id):
    entry = gallery(entry_id)
    for row in entry.verify():
        assert row["pass"], (entry_id, row)


@pytest.mark.parametrize("entry_id", EXTRA_IDS)
def test_additional_instantiations_verify(entry_id):
    entry = gallery(entry_id)
    # Numeric parameters canonicalize (e.g. "2" -> "2.0"); the canonical id
    # must itself be stable under re-parsing.
    assert gallery(entry.id).id == entry.id
    for row in entry.verify():
        assert row["pass"], (entry_id, row)


class TestConstructors:
    def test_axes_mass(self):
        d = axes_dist(3)
        assert len(d.atoms) == 6
        assert all(p == Fraction(1, 6) for _, p in d.atoms)

    def test_remark_distribution_shape(self):
        d = remark_asym_dist()
        assert d.dim == 3 and len(d.atoms) == 4

    def test_draws_require_symmetric_distinct_values(self):
        with pytest.raises(UnknownId):
            gallery("draws-2:1,2")  # not symmetric about 0
        with pytest.raises(UnknownId):
            gallery("draws-n:-1,1;3")  # more draws than values

    def test_symmetrize_univariate_splits_mass(self):
        u = symmetrize_univariate([(Fraction(0), Fraction(1, 2)), (Fraction(2), Fraction(1, 2))])
        assert dict(u.atoms) == {
            Fraction(-2): Fraction(1, 4),
            Fraction(0): Fraction(1, 2),
            Fraction(2): Fraction(1, 4),
        }

    def test_iid_sym_unknown_marginal(self):
        with pytest.raises(UnknownId):
            iid_sym_dist("beta", 2)

    def test_draws_dist_is_exchangeable_mass(self):
        d = draws_dist([Fraction(v) for v in (-1, 1)], 2)
        assert all(p == Fraction(1, 2) for _, p in d.atoms)

    def test_atom_budget(self):
        # axes:1000 has 2000 atoms of dim 1000, exactly the budget.
        assert len(axes_dist(1000).atoms) * 1000 == MAX_ATOM_COORDINATES
        marginal = symmetrize_univariate([(Fraction(1), Fraction(1))])
        for over in (
            lambda: axes_dist(1001),
            lambda: draws_dist([Fraction(v) for v in range(-5, 6)], 7),
            lambda: product_dist([marginal] * 21),
            lambda: iid_sym_dist("tri", 10**9),
            lambda: alt_signs_dist(10**9),
        ):
            with pytest.raises(InvalidSpec):
                over()


class TestIdParsing:
    @pytest.mark.parametrize(
        "bad",
        ["", "nope", "axes:x", "bvn:1", "elliptical:gauss,1,2", "mlr:normal,1",
         "gauss-seq:3,4", "elliptical:weird,0,0,1,1,0", "intraclass:3,2.0",
         "elliptical:gauss,1,-1,1,2,0", "sci-not-re:1"],
    )
    def test_unknown_or_malformed_ids(self, bad):
        with pytest.raises(UnknownId):
            gallery(bad)

    def test_listing_covers_every_family(self):
        ids = [row["id"] for row in list_ids()]
        families = {i.split(":")[0] for i in ids}
        assert families >= {
            "sci-not-re", "draws-2", "axes", "remark-asym", "alt-signs",
            "draws-n", "iid-sym", "indep-sym-step", "bvn", "elliptical",
            "intraclass", "gauss-seq", "mlr",
        }


# The report of every discrete listed id: (id, [(expectation, pass, detail), ...]).
PINNED_REPORTS = {
    "sci-not-re": ("sci-not-re", [
        ("SCI holds", True, "SCI holds=True"),
        ("RE fails", True, "RE(1,2) holds=False"),
        ("absmax is {0:1/2, 1:1/2}", True,
         "got {'atoms': [{'v': '0', 'p': '1/2'}, {'v': '1', 'p': '1/2'}]}"),
        ("absX is degenerate at 1", True, "got {'atoms': [{'v': '1', 'p': '1'}]}"),
    ]),
    "draws-2:-1,1": ("draws-2:-1,1", [
        ("ERE holds", True, "ERE holds=True"),
        ("ESCI fails", True, "ESCI holds=False"),
        ("abs marginal mass is 2/|A| (1/|A| at 0)", True, "got {'atoms': [{'v': '1', 'p': '1'}]}"),
        ("absmax equals absX", True, "exact equality of |max| and |X| distributions"),
    ]),
    "axes:3": ("axes:3", [
        ("ESCI holds", True, "ESCI holds=True"),
        ("cdf-at-0 chain", True, "cdf at 0 matches 1 - l/(2n) for every prefix"),
        ("classified SSIAMX*/SSIAMN*", True, "labels SSIAMX*, SSIAMN*"),
    ]),
    "remark-asym": ("remark-asym", [
        ("RE(1,2) holds", True, "RE(1,2) holds=True"),
        ("absmax(X1,X3) is {0:1/2, 1:1/2}", True,
         "got {'atoms': [{'v': '0', 'p': '1/2'}, {'v': '1', 'p': '1/2'}]}"),
        ("absmax(X2,X3) is {0:1/4, 1:3/4}", True,
         "got {'atoms': [{'v': '0', 'p': '1/4'}, {'v': '1', 'p': '3/4'}]}"),
    ]),
    "alt-signs:4": ("alt-signs:4", [
        ("prefix reversals hold", True, "every prefix reverses against its predecessor"),
        ("starred classification", True, "labels SIAMX*, SIAMN*"),
    ]),
    "draws-n:-2,-1,1,2;3": ("draws-n:-2,-1,1,2;3", [
        ("URsub on all prefixes", True, "URsub(1,l) holds on every prefix"),
        ("RE fails for l >= 3", True, "no pair reversal holds for prefixes of length >= 3"),
        ("classified SSIAMX*/SSIAMN*", True, "labels SSIAMX*, SSIAMN*"),
    ]),
    "iid-sym:tri,3": ("iid-sym:tri,3", [
        ("ESCI holds", True, "ESCI holds=True"),
        ("classified SSIAMX*/SSIAMN*", True, "labels SSIAMX*, SSIAMN*"),
    ]),
    "indep-sym-step": ("indep-sym-step", [
        ("absmax cdf is {0:1/2, 1:7/8, 2:1}", True,
         "cdf table {0: Fraction(1, 2), 1: Fraction(7, 8), 2: Fraction(1, 1)}"),
        ("|min| equals |max|", True, "exact equality"),
        ("|X| strictly below |max|", True, "strict first-order dominance"),
    ]),
}


@pytest.mark.parametrize("entry_id", [row["id"] for row in list_ids()])
def test_discrete_reports_are_pinned(entry_id):
    entry = gallery(entry_id)
    if entry.kind == "discrete":
        rows = [(r["expectation"], r["pass"], r["detail"]) for r in entry.verify()]
        assert (entry.id, rows) == PINNED_REPORTS[entry_id]
