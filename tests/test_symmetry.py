"""Symmetry-condition checks: witnesses, implication chains, equivalences."""

import random
from fractions import Fraction

import pytest

from _support import (
    ere_symmetrize,
    esci_symmetrize,
    one_sided_symmetrize,
    random_joint,
    re_symmetrize,
)
from stochex.dist import ExactJointDist, SignedPermutation
from stochex.errors import DimensionMismatch, IndexOutOfRange
from stochex.symmetry import (
    check,
    check_basic,
    check_re_kl,
    check_re_n,
    check_sub_super_kl,
    check_ure_lre,
    in_region,
)

SCI_NOT_RE = ExactJointDist.build(
    2, [((1, 0), Fraction(1, 2)), ((-1, 0), Fraction(1, 2))]
)


class TestGoldenExamples:
    def test_sign_symmetry_without_reversal(self):
        assert check_basic(SCI_NOT_RE, "SCI").holds
        v = check_re_kl(SCI_NOT_RE, 1, 2)
        assert not v.holds
        # The witness reproduces the violation directly against the pmf.
        w = v.witness
        assert SCI_NOT_RE.pmf(w.point) == w.prob
        assert SCI_NOT_RE.pmf(w.reflected) == w.reflected_prob
        assert w.prob != w.reflected_prob

    def test_diagonal_atoms_do_not_constrain_one_sided_checks(self):
        d = ExactJointDist.build(
            2, [((1, 1), Fraction(3, 4)), ((-1, -1), Fraction(1, 4))]
        )
        assert check_ure_lre(d, "upper").holds
        assert check_ure_lre(d, "lower").holds
        assert not check_re_kl(d, 1, 2).holds

    def test_existential_reversal_scan_returns_first_k(self):
        rng = random.Random(5)
        d = re_symmetrize(random_joint(rng, dim=3), k=2, l=3)
        verdict, k = check_re_n(d)
        assert verdict.holds and k in (1, 2)
        assert check_re_kl(d, k, 3).holds


class TestImplicationChain:
    """ESCI => ERE => RE => (URE and LRE), with zero exceptions."""

    def test_chain_on_1000_symmetrized_pmfs(self):
        rng = random.Random(29)
        checked = 0
        for i in range(1000):
            base = random_joint(rng, dim=2)
            kind = i % 3
            if kind == 0:
                d = esci_symmetrize(base)
                assert check_basic(d, "ESCI").holds
                assert check_basic(d, "ERE").holds
            elif kind == 1:
                d = ere_symmetrize(base)
                assert check_basic(d, "ERE").holds
            else:
                d = re_symmetrize(base)
            assert check_re_kl(d, 1, 2).holds
            assert check_ure_lre(d, "upper").holds
            assert check_ure_lre(d, "lower").holds
            checked += 1
        assert checked == 1000

    def test_reversal_implies_all_four_one_sided_inequalities(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(2, 4)
            k = rng.randint(1, n - 1)
            l = rng.randint(k + 1, n)
            d = re_symmetrize(random_joint(rng, dim=n), k=k, l=l)
            assert check_re_kl(d, k, l).holds
            for variant in ("URsub", "LRsub", "URsup", "LRsup"):
                assert check_sub_super_kl(d, k, l, variant).holds


class TestReUreLreEquivalence:
    """Bivariate RE <=> URE and LRE and pmf symmetry on the diagonal."""

    @staticmethod
    def _diagonal_symmetric(d: ExactJointDist) -> bool:
        for a, b in d.support():
            if a == b and d.pmf((a, b)) != d.pmf((-a, -a)):
                return False
        return True

    def test_equivalence_on_random_pmfs(self):
        rng = random.Random(37)
        seen_re = seen_not_re = 0
        for i in range(600):
            d = random_joint(rng, dim=2, max_atoms=5)
            if i % 3 == 0:
                d = re_symmetrize(d)
            elif i % 3 == 1:
                d = one_sided_symmetrize(d, "upper")
            lhs = check_re_kl(d, 1, 2).holds
            rhs = (
                check_ure_lre(d, "upper").holds
                and check_ure_lre(d, "lower").holds
                and self._diagonal_symmetric(d)
            )
            assert lhs == rhs
            seen_re += lhs
            seen_not_re += not lhs
        assert seen_re > 50 and seen_not_re > 50  # both branches exercised


class TestGlobalSignFlip:
    def test_reversal_verdict_invariant_under_negating_all_coordinates(self):
        rng = random.Random(41)
        for i in range(300):
            n = rng.randint(2, 4)
            d = random_joint(rng, dim=n)
            if i % 2 == 0:
                d = re_symmetrize(d, k=1, l=n)
            flipped = d.transform(SignedPermutation.negate_all(n))
            for k in range(1, n):
                assert (
                    check_re_kl(d, k, n).holds == check_re_kl(flipped, k, n).holds
                )


class TestWitnesses:
    def test_every_failing_verdict_reproduces_against_the_pmf(self):
        rng = random.Random(43)
        reproduced = 0
        for _ in range(400):
            d = random_joint(rng, dim=2, max_atoms=5)
            verdicts = [
                check_re_kl(d, 1, 2),
                check_ure_lre(d, "upper"),
                check_ure_lre(d, "lower"),
                check_basic(d, "E"),
                check_basic(d, "SCI"),
                check_basic(d, "ESCI"),
                check_basic(d, "ERE"),
                check_sub_super_kl(d, 1, 2, "URsub"),
                check_sub_super_kl(d, 1, 2, "LRsup"),
            ]
            for v in verdicts:
                assert v.holds == (v.witness is None)
                if v.witness is None:
                    continue
                w = v.witness
                assert d.pmf(w.point) == w.prob
                assert d.pmf(w.reflected) == w.reflected_prob
                kind = v.condition.kind
                if kind in ("URsub", "LRsub"):
                    assert w.prob < w.reflected_prob
                elif kind in ("URsup", "LRsup"):
                    assert w.prob > w.reflected_prob
                else:
                    assert w.prob != w.reflected_prob
                reproduced += 1
        assert reproduced > 300


class TestRegions:
    def test_sub_super_region_membership(self):
        # UR region: |x_k| < x_l and the other coordinates below -|x_k|.
        assert in_region((Fraction(1), Fraction(2)), 1, 2, "URsub")
        assert not in_region((Fraction(2), Fraction(2)), 1, 2, "URsub")
        assert not in_region((Fraction(-3), Fraction(2)), 1, 2, "URsub")
        # LR region mirrors with the roles of k and l exchanged.
        assert in_region((Fraction(2), Fraction(-1)), 1, 2, "LRsub")
        assert not in_region((Fraction(2), Fraction(2)), 1, 2, "LRsub")
        # Spectator coordinates must sit strictly below -pivot.
        assert in_region(
            (Fraction(1), Fraction(-5), Fraction(2)), 1, 3, "URsup"
        )
        assert not in_region(
            (Fraction(1), Fraction(-1), Fraction(2)), 1, 3, "URsup"
        )

    def test_boundary_atoms_never_constrain(self):
        # All mass on the region boundary |x_1| = x_2: both inequalities and
        # both one-sided equalities hold vacuously, asymmetry notwithstanding.
        d = ExactJointDist.build(
            2, [((1, 1), Fraction(9, 10)), ((-1, 1), Fraction(1, 10))]
        )
        for variant in ("URsub", "URsup"):
            assert check_sub_super_kl(d, 1, 2, variant).holds


class TestErrorsAndDispatch:
    def test_one_sided_checks_are_bivariate(self):
        d = ExactJointDist.build(3, [((0, 0, 0), Fraction(1))])
        with pytest.raises(DimensionMismatch):
            check_ure_lre(d, "upper")

    def test_ere_is_bivariate(self):
        d = ExactJointDist.build(3, [((0, 0, 0), Fraction(1))])
        with pytest.raises(DimensionMismatch):
            check_basic(d, "ERE")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            check_basic(SCI_NOT_RE, "XYZ")
        with pytest.raises(ValueError):
            check(SCI_NOT_RE, "nope")

    def test_index_validation(self):
        with pytest.raises(IndexOutOfRange):
            check_sub_super_kl(SCI_NOT_RE, 2, 1, "URsub")

    @pytest.mark.parametrize("kind", ["E", "SCI", "ESCI", "ERE", "RE_N", "URE", "LRE"])
    def test_pair_given_to_a_condition_without_one(self, kind):
        with pytest.raises(IndexOutOfRange):
            check(SCI_NOT_RE, kind, 1, 2)
        with pytest.raises(IndexOutOfRange):
            check(SCI_NOT_RE, kind, l=2)

    @pytest.mark.parametrize("kind", ["RE", "URsub", "LRsup"])
    @pytest.mark.parametrize("k,l", [(None, 7), (2, None), (1, None)])
    def test_half_given_pair(self, kind, k, l):
        with pytest.raises(IndexOutOfRange):
            check(SCI_NOT_RE, kind, k, l)

    def test_dispatch_matches_direct_calls(self):
        rng = random.Random(47)
        for _ in range(50):
            d = random_joint(rng, dim=2)
            assert check(d, "RE").holds == check_re_kl(d, 1, 2).holds
            assert check(d, "URE").holds == check_ure_lre(d, "upper").holds
            assert check(d, "LRE").holds == check_ure_lre(d, "lower").holds
            assert check(d, "URsub").holds == check_sub_super_kl(d, 1, 2, "URsub").holds
            assert check(d, "RE_N").holds == check_re_n(d)[0].holds
