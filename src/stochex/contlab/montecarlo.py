"""Seeded sampling and distribution-free Monte Carlo dominance checks.

Sampling uses numpy's counter-based Philox generator, so samples are a pure
function of the seed regardless of how the work is scheduled.  The checks are
array computations over the whole sample or grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidSpec, InvalidThetaOrder, NotPositiveDefinite
from .elliptical import EllipticalModel, GaussianGenerator, StudentTGenerator, mlr_scale_density
from .normal import _SQRT2

DEFAULT_ALPHA = 0.01


@dataclass(frozen=True)
class MCConfig:
    sample_count: int = 100_000
    seed: int = 0
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if self.sample_count < 1000:
            raise InvalidSpec(f"need at least 1000 samples, got {self.sample_count}")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidSpec(f"alpha must be in (0, 1), got {self.alpha}")

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self.seed))


def dkw_band(n: int, alpha: float) -> float:
    """Distribution-free uniform confidence half-width for an empirical cdf."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


class EmpiricalCdf:
    """Right-continuous empirical cdf of a sample."""

    def __init__(self, values: np.ndarray):
        self.sorted = np.sort(np.asarray(values, dtype=float))
        self.n = len(self.sorted)

    def __call__(self, x) -> np.ndarray:
        return np.searchsorted(self.sorted, x, side="right") / self.n


def sample_gaussian(mean, cov, cfg: MCConfig) -> np.ndarray:
    """N x dim Gaussian sample via Cholesky factorization, deterministic in the seed."""
    cov = np.asarray(cov, dtype=float)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(float(np.linalg.eigvalsh(cov)[0]))
    z = cfg.rng().standard_normal((cfg.sample_count, len(cov)))
    return np.asarray(mean, dtype=float) + z @ chol.T


def sample_elliptical(model: EllipticalModel, cfg: MCConfig) -> np.ndarray:
    """Sample an elliptical model; Student-t via the Gaussian scale mixture."""
    if isinstance(model.generator, GaussianGenerator):
        return sample_gaussian(model.mean, model.sigma(), cfg)
    if isinstance(model.generator, StudentTGenerator):
        nu = model.generator.nu
        rng = cfg.rng()
        z = rng.standard_normal((cfg.sample_count, model.dim))
        chol = np.linalg.cholesky(model.sigma())
        scale = np.sqrt(rng.chisquare(nu, cfg.sample_count) / nu)
        return np.asarray(model.mean) + (z @ chol.T) / scale[:, None]
    raise InvalidSpec(f"cannot sample generator {model.generator!r}")


def ks_distance(sample: np.ndarray, cdf) -> float:
    """Sup distance between the empirical cdf of `sample` and an analytic cdf.

    Evaluates both one-sided gaps at the sample points (the sup over R is
    attained at a sample point from above or below).
    """
    xs = np.sort(np.asarray(sample, dtype=float))
    n = len(xs)
    f = np.asarray(cdf(xs), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def _phi(t: np.ndarray) -> np.ndarray:
    """`normal.phi` on each element, with the same float operations."""
    z = (-t / _SQRT2).ravel()
    return 0.5 * np.fromiter(map(math.erfc, z), float, z.size).reshape(t.shape)


def folded_normal_cdf(x, mu: float):
    """cdf of |Z| for Z ~ N(mu, 1), on each element of x."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, 0.0, _phi(x - mu) - _phi(-x - mu))


def mc_dominance(a_values: np.ndarray, b_values: np.ndarray, cfg: MCConfig) -> dict:
    """Test whether the samples are consistent with a <=_st b.

    a <=_st b means F_a >= F_b everywhere, so the statistic is the largest
    excess of the empirical cdf of b over that of a at the pooled breakpoints;
    it is compared against two one-sided DKW bands.
    """
    a = np.asarray(a_values, dtype=float)
    b = np.asarray(b_values, dtype=float)
    if len(a) != len(b):
        raise InvalidSpec("sample sets must have equal length")
    fa = EmpiricalCdf(a)
    fb = EmpiricalCdf(b)
    pooled = np.union1d(fa.sorted, fb.sorted)
    excess = float(np.max(fb(pooled) - fa(pooled)))
    band = 2.0 * dkw_band(len(a), cfg.alpha)
    return {
        "check": "st-dominance",
        "max_deviation": excess,
        "tolerance": band,
        "pass": excess <= band,
        "n": len(a),
        "seed": cfg.seed,
    }


def verify_mlr_example(theta1: float, theta2: float, family: str, cfg: MCConfig) -> dict:
    """Check the four-way ordering |X| <=_st |min| =d |max| <=_st |Y| for two
    independent symmetric scale-family variables, plus the exact grid check of
    the pointwise likelihood-ratio density inequality for 0 < x < y."""
    if not 0 < theta1 <= theta2:
        raise InvalidThetaOrder(f"need 0 < theta1 <= theta2, got {theta1}, {theta2}")

    fx = mlr_scale_density(family, theta1)  # InvalidSpec for an unknown family
    fy = mlr_scale_density(family, theta2)
    rng = cfg.rng()
    draw = rng.standard_normal if family == "normal" else rng.standard_cauchy
    x = theta1 * draw(cfg.sample_count)
    y = theta2 * draw(cfg.sample_count)

    abs_x, abs_y = np.abs(x), np.abs(y)
    abs_min = np.abs(np.minimum(x, y))
    abs_max = np.abs(np.maximum(x, y))
    chain = {
        "absX_le_absmin": mc_dominance(abs_x, abs_min, cfg),
        "absmin_le_absmax": mc_dominance(abs_min, abs_max, cfg),
        "absmax_le_absmin": mc_dominance(abs_max, abs_min, cfg),
        "absmax_le_absY": mc_dominance(abs_max, abs_y, cfg),
    }

    # Pointwise density inequality f_|X|(x) f_|Y|(y) >= f_|X|(y) f_|Y|(x),
    # 0 < x < y, checked exactly on a grid (up to float rounding).
    grid = np.linspace(0.05, 5.0, 60)
    i, j = np.triu_indices(len(grid), 1)
    gx, gy = grid[i], grid[j]
    lhs = 2.0 * fx(gx) * 2.0 * fy(gy)
    rhs = 2.0 * fx(gy) * 2.0 * fy(gx)
    scale = np.maximum(np.maximum(lhs, rhs), 1e-300)
    grid_violations = int(np.count_nonzero(lhs < rhs - 1e-12 * scale))

    ok = all(r["pass"] for r in chain.values()) and grid_violations == 0
    return {
        "check": f"mlr-chain-{family}",
        "theta": (theta1, theta2),
        "chain": chain,
        "grid_violations": grid_violations,
        "pass": ok,
        "n": cfg.sample_count,
        "seed": cfg.seed,
    }
