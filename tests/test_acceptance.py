"""Acceptance gate: the eleven end-to-end criteria, one printed line each.

Every criterion prints `criterion NN: PASS/FAIL - <summary>` so a log scan
shows the whole gate at a glance (run with -s to stream them).
"""

import random
import time
from fractions import Fraction

import numpy as np

from _support import (
    one_sided_symmetrize,
    product_of,
    random_abs_dist,
    random_joint,
    re_symmetrize,
    shift_abs_up,
    sign_symmetrize_univariate,
)
from stochex.contlab import (
    MCConfig,
    density_symmetry_grid,
    dkw_band,
    folded_normal_cdf,
    intraclass_model,
    ks_distance,
    mc_dominance,
    sample_gaussian,
    verify_identity_11,
    verify_mlr_example,
)
from stochex.extremes import abs_extreme_dist
from stochex.gallery import axes_dist, draws_dist, product_dist, remark_asym_dist
from stochex.stochorder import classify, st_compare
from stochex.symmetry import check_re_kl, check_sub_super_kl

MC_SEED = 20260823


def _report(num: int, ok: bool, summary: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {summary}", flush=True)
    assert ok, f"criterion {num}: {summary}"


def _grid(lo, hi, steps):
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def test_criterion_01_bivariate_cdf_identity():
    start = time.time()
    report = verify_identity_11(
        _grid(0.0, 3.0, 13), [-0.95, -0.5, 0.0, 0.5, 0.95]
    )
    elapsed = time.time() - start
    ok = report["pass"] and report["max_deviation"] <= 1e-10 and elapsed < 1.0
    _report(1, ok, f"max deviation {report['max_deviation']:.2e} on 65 points "
                   f"in {elapsed:.2f}s (tol 1e-10, budget 1s)")


def test_criterion_02_reversal_equalizes_all_four_abs_laws():
    start = time.time()
    rng = random.Random(20260823)
    for _ in range(1000):
        d = re_symmetrize(random_joint(rng, dim=2))
        laws = [
            abs_extreme_dist(d, 2, "max"),
            abs_extreme_dist(d, 2, "min"),
            abs_extreme_dist(d, 1, "max"),
            abs_extreme_dist(d.marginal([2]), 1, "max"),
        ]
        assert all(law == laws[0] for law in laws)
    elapsed = time.time() - start
    _report(2, elapsed < 30.0,
            f"1000 reversal-symmetrized pmfs, all four |.| laws exactly equal "
            f"in {elapsed:.1f}s (budget 30s)")


def test_criterion_03_one_sided_symmetry_pins_the_extremes():
    rng = random.Random(20260824)
    for _ in range(1000):
        d = one_sided_symmetrize(random_joint(rng, dim=2), "upper")
        assert abs_extreme_dist(d, 2, "max") == abs_extreme_dist(d, 1, "max")
        assert abs_extreme_dist(d, 2, "min") == abs_extreme_dist(
            d.marginal([2]), 1, "max"
        )
    for _ in range(1000):
        d = one_sided_symmetrize(random_joint(rng, dim=2), "lower")
        assert abs_extreme_dist(d, 2, "max") == abs_extreme_dist(
            d.marginal([2]), 1, "max"
        )
        assert abs_extreme_dist(d, 2, "min") == abs_extreme_dist(d, 1, "max")
    _report(3, True,
            "1000 upper-symmetrized pmfs: |max|=|X| and |min|=|Y| exactly; "
            "1000 lower-symmetrized mirrored")


def test_criterion_04_signed_axes_chain():
    for n in range(3, 7):
        d = axes_dist(n)
        c = classify(d)
        assert c.label_max == "SSIAMX*", (n, c.label_max)
        for l in range(2, n + 1):
            got = abs_extreme_dist(d, l, "max").cdf(0)
            assert got == 1 - Fraction(l, 2 * n), (n, l, got)
    _report(4, True,
            "axes n=3..6: cdf(0) = 1 - l/(2n) at every prefix, label SSIAMX*")


def test_criterion_05_leave_one_out_max_laws():
    d = remark_asym_dist()
    u13 = abs_extreme_dist(d.marginal([1, 3]), 2, "max")
    u23 = abs_extreme_dist(d.marginal([2, 3]), 2, "max")
    ok = dict(u13.atoms) == {Fraction(0): Fraction(1, 2), Fraction(1): Fraction(1, 2)}
    ok = ok and dict(u23.atoms) == {
        Fraction(0): Fraction(1, 4), Fraction(1): Fraction(3, 4)
    }
    _report(5, ok, "leave-one-out |max| laws are {0:1/2,1:1/2} and {0:1/4,1:3/4}")


def test_criterion_06_draws_without_replacement_chain():
    start = time.time()
    values = [Fraction(v) for v in (-3, -2, -1, 1, 2, 3)]
    for n in range(3, 6):
        d = draws_dist(values, n)
        for l in range(3, n + 1):
            prefix = d.marginal(range(1, l + 1))
            for k in range(1, l):
                assert not check_re_kl(prefix, k, l).holds, (n, k, l)
        for l in range(2, n + 1):
            prefix = d.marginal(range(1, l + 1))
            for k in range(1, l):
                assert check_sub_super_kl(prefix, k, l, "URsub").holds, (n, k, l)
        c = classify(d)
        # The first pair reverses exactly, so the l=2 step is distributional
        # equality and only the starred strict label is attainable; strictness
        # holds at every later step.
        assert c.per_step_max[0].relation == "equal"
        assert c.per_step_min[0].relation == "equal"
        assert all(v.relation == "strictly_less" for v in c.per_step_max[1:])
        assert all(v.relation == "strictly_less" for v in c.per_step_min[1:])
        assert c.label_max in ("SSIAMX", "SSIAMX*")
        assert c.label_min in ("SSIAMN", "SSIAMN*")
    elapsed = time.time() - start
    _report(6, elapsed < 60.0,
            f"draws from ±{{1,2,3}}, n=3..5: no pair reversal for l>=3, "
            f"sub-exchangeable everywhere, strict chain above l=2 "
            f"in {elapsed:.1f}s (budget 60s)")


def test_criterion_07_independent_pair_average_rule():
    rng = random.Random(20260825)
    for _ in range(500):
        x_abs = random_abs_dist(rng)
        y_abs = shift_abs_up(rng, x_abs, force_strict=rng.random() < 0.5)
        assert st_compare(x_abs, y_abs).is_leq()
        d = product_of(
            [sign_symmetrize_univariate(x_abs), sign_symmetrize_univariate(y_abs)]
        )
        fmax = abs_extreme_dist(d, 2, "max")
        fx = abs_extreme_dist(d, 1, "max")
        fy = abs_extreme_dist(d.marginal([2]), 1, "max")
        for t in set(fmax.values()) | set(fx.values()) | set(fy.values()):
            assert fmax.cdf(t) == (fx.cdf(t) + fy.cdf(t)) / 2
        marginal_strict = st_compare(fx, fy).relation == "strictly_less"
        chain_strict = st_compare(fx, fmax).relation == "strictly_less"
        assert marginal_strict == chain_strict
        if not marginal_strict:
            assert fx == fy == fmax
    _report(7, True,
            "500 independent symmetric pairs: |max| cdf is the exact average "
            "of the marginal |.| cdfs; strictness matches the marginals")


def test_criterion_08_ordered_independent_products():
    rng = random.Random(20260826)
    for case in range(200):
        strict = case >= 100
        n = rng.randint(3, 5)
        base = random_abs_dist(rng)
        while strict and len(base.atoms) == 1 and base.atoms[0][0] == Fraction(3):
            base = random_abs_dist(rng)
        abs_laws = [base]
        for _ in range(n - 1):
            abs_laws.append(shift_abs_up(rng, abs_laws[-1], force_strict=strict))
        d = product_dist([sign_symmetrize_univariate(u) for u in abs_laws])
        c = classify(d)
        if strict:
            assert c.label_max == "SSIAMX" and c.label_min == "SSIAMN", (
                case, c.label_max, c.label_min
            )
        else:
            assert c.label_max != "none" and c.label_min != "none"
            assert all(v.is_leq() for v in c.per_step_max + c.per_step_min)
    _report(8, True,
            "200 ordered independent symmetric products (100 weak, 100 strict): "
            "weak chains stay ordered; strict marginals give SSIAMX/SSIAMN")


def test_criterion_09_bivariate_normal_folded_law():
    band = dkw_band(1_000_000, 0.01)
    worst = 0.0
    start = time.time()
    for rho in (-0.6, 0.0, 0.6):
        t0 = time.time()
        cfg = MCConfig(sample_count=1_000_000, seed=MC_SEED)
        xy = sample_gaussian([1.5, -1.5], [[1.0, rho], [rho, 1.0]], cfg)
        dist = ks_distance(np.abs(xy.max(axis=1)), lambda t: folded_normal_cdf(t, 1.5))
        worst = max(worst, dist)
        assert dist <= band, (rho, dist, band)
        assert time.time() - t0 < 30.0
    _report(9, True,
            f"means (1.5,-1.5), rho in {{-0.6,0,0.6}}, N=1e6, seed {MC_SEED}: "
            f"worst KS {worst:.5f} <= DKW band {band:.5f} "
            f"in {time.time() - start:.1f}s total")


def test_criterion_10_intraclass_density_inequalities():
    axes3 = [_grid(-3.0, 3.0, 21)] * 3
    neg = density_symmetry_grid(
        intraclass_model(3, -0.3), "URsub", axes3, k=1, l=3
    )
    pos = density_symmetry_grid(
        intraclass_model(3, 0.3), "LRsup", axes3, k=1, l=3
    )
    ok = neg["pass"] and pos["pass"]
    _report(10, ok,
            f"intraclass n=3: rho=-0.3 sub-inequality {neg['violations']} "
            f"violations, rho=+0.3 super-inequality {pos['violations']} "
            f"violations on 21^3 grid (tol 1e-12)")


def test_criterion_11_normal_scale_ordering_chain():
    cfg = MCConfig(sample_count=1_000_000, seed=MC_SEED)
    report = verify_mlr_example(1.0, 2.0, "normal", cfg)
    assert report["pass"], report
    # Strictness consistency: the reversed dominances must be rejected.
    rng = cfg.rng()
    x = 1.0 * rng.standard_normal(cfg.sample_count)
    y = 2.0 * rng.standard_normal(cfg.sample_count)
    abs_min = np.abs(np.minimum(x, y))
    reversed_low = mc_dominance(abs_min, np.abs(x), cfg)
    abs_max = np.abs(np.maximum(x, y))
    reversed_high = mc_dominance(np.abs(y), abs_max, cfg)
    ok = not reversed_low["pass"] and not reversed_high["pass"]
    _report(11, ok,
            f"normal scales (1,2), N=1e6: dominance chain and "
            f"{report['grid_violations']} likelihood-ratio grid violations; "
            f"strict gaps confirmed both ends")
