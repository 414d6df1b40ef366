"""Elliptical density models, sign-patterned Gaussian sequences, and grid checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import EmptyGrid, InvalidSpec, NotPositiveDefinite
from ..dist import SignedPermutation
from ..symmetry import in_region

PD_EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True)
class GaussianGenerator:
    """Radial function g(t) = (2 pi)^(-d/2) exp(-t/2)."""

    name: str = "gaussian"

    def radial(self, t: float, dim: int) -> float:
        return (2.0 * math.pi) ** (-dim / 2.0) * math.exp(-t / 2.0)


@dataclass(frozen=True)
class StudentTGenerator:
    """Radial function of the multivariate Student-t with nu degrees of freedom."""

    nu: float = 5.0
    name: str = "student-t"

    def __post_init__(self):
        if self.nu <= 0:
            raise InvalidSpec(f"Student-t needs nu > 0, got {self.nu}")

    def radial(self, t: float, dim: int) -> float:
        nu, d = self.nu, dim
        c = math.gamma((nu + d) / 2.0) / (
            math.gamma(nu / 2.0) * (nu * math.pi) ** (d / 2.0)
        )
        return c * (1.0 + t / nu) ** (-(nu + d) / 2.0)


Generator = GaussianGenerator | StudentTGenerator


def _check_positive_definite(matrix: np.ndarray) -> None:
    smallest = float(np.linalg.eigvalsh(matrix)[0])
    if smallest <= PD_EIGENVALUE_TOL:
        raise NotPositiveDefinite(smallest)


@dataclass(frozen=True)
class EllipticalModel:
    """Density |Sigma|^(-1/2) g[(x - mu) Sigma^(-1) (x - mu)'] on R^dim."""

    mean: tuple[float, ...]
    scale: tuple[tuple[float, ...], ...]
    generator: Generator = field(default_factory=GaussianGenerator)

    def __post_init__(self):
        sigma = np.asarray(self.scale, dtype=float)
        if sigma.shape != (self.dim, self.dim) or not np.allclose(sigma, sigma.T):
            raise InvalidSpec("scale matrix must be symmetric with shape (dim, dim)")
        _check_positive_definite(sigma)

    @property
    def dim(self) -> int:
        return len(self.mean)

    def sigma(self) -> np.ndarray:
        return np.asarray(self.scale, dtype=float)

    def density(self, point: Sequence[float]) -> float:
        sigma = self.sigma()
        delta = np.asarray(point, dtype=float) - np.asarray(self.mean)
        t = float(delta @ np.linalg.solve(sigma, delta))
        return float(np.linalg.det(sigma)) ** -0.5 * self.generator.radial(t, self.dim)


def bivariate_elliptical(
    mu: float,
    nu: float,
    sigma: float,
    tau: float,
    rho: float,
    generator: Optional[Generator] = None,
) -> EllipticalModel:
    """Bivariate elliptical model with location (mu, nu), scales (sigma, tau),
    and correlation parameter rho."""
    scale = (
        (sigma * sigma, rho * sigma * tau),
        (rho * sigma * tau, tau * tau),
    )
    return EllipticalModel((mu, nu), scale, generator or GaussianGenerator())


def intraclass_model(
    n: int,
    rho: float,
    sigma2: float = 1.0,
    generator: Optional[Generator] = None,
) -> EllipticalModel:
    """Centered elliptical model with constant-correlation scale matrix."""
    if n < 2:
        raise InvalidSpec(f"intraclass model needs n >= 2, got n = {n}")
    if not -1.0 / (n - 1) < rho < 1.0:
        raise InvalidSpec(f"intraclass rho must be in (-1/(n-1), 1), got {rho}")
    scale = tuple(
        tuple(sigma2 if i == j else sigma2 * rho for j in range(n)) for i in range(n)
    )
    return EllipticalModel((0.0,) * n, scale, generator or GaussianGenerator())


def density_symmetry_grid(
    model: EllipticalModel,
    condition: str,
    grid_axes: Sequence[Sequence[float]],
    k: int = 1,
    l: int = 2,
    tolerance: float = 1e-12,
) -> dict:
    """Count grid violations of the pointwise density (in)equality named by
    `condition` over the cartesian product of `grid_axes`.

    URE/LRE demand equality f(x) = f(reflected x) on the open half-plane
    x_k < x_l (URE) or x_k > x_l (LRE); URsub/LRsub demand
    f(x) >= f(reflected x) on the condition's open region, URsup/LRsup the
    reversed inequality.  The regions are those of `symmetry.in_region`, which
    also rejects an unknown condition.
    """
    axes = [list(ax) for ax in grid_axes]
    if not axes or any(len(ax) == 0 for ax in axes):
        raise EmptyGrid("grid must be a nonempty product of nonempty axes")
    if len(axes) != model.dim:
        raise InvalidSpec(f"grid has {len(axes)} axes, model has dim {model.dim}")
    reflect = SignedPermutation.reverse_pair(model.dim, k, l).apply

    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    violations = 0
    checked = 0
    worst = 0.0
    for row in points:
        pt = tuple(float(c) for c in row)
        if not in_region(pt, k, l, condition):
            continue
        checked += 1
        f = model.density(pt)
        g = model.density(reflect(pt))
        if condition in ("URE", "LRE"):
            dev = abs(f - g)
        elif condition.endswith("sub"):
            dev = g - f
        else:
            dev = f - g
        if dev > tolerance:
            violations += 1
        worst = max(worst, dev)
    return {
        "check": f"density-{condition}({k},{l})",
        "points_in_region": checked,
        "violations": violations,
        "max_deviation": worst,
        "tolerance": tolerance,
        "pass": violations == 0,
    }


@dataclass(frozen=True)
class GaussianSeqSpec:
    """Gaussian sequence whose mean and correlation sign pattern makes every
    length-n prefix invariant under some pair reversal.

    case "anchor-first" pins each new coordinate against the first one;
    case "alternating" pins it against the previous one.  An explicit k-map
    (index n -> anchor k(n) < n, 1-based, for n = 2..n) is also accepted.
    """

    n: int
    mu: float
    case: str = "anchor-first"
    rho_params: tuple[float, ...] = ()
    k_map: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.n < 2:
            raise InvalidSpec("need n >= 2")
        if self.case not in ("anchor-first", "alternating", "explicit"):
            raise InvalidSpec(f"unknown case {self.case!r}")
        if len(self.rho_params) != self.n - 1:
            raise InvalidSpec(
                f"need {self.n - 1} rho parameters for n={self.n}, "
                f"got {len(self.rho_params)}"
            )
        if any(not -1.0 < r < 1.0 for r in self.rho_params):
            raise InvalidSpec("rho parameters must lie in (-1, 1)")
        if self.case == "explicit":
            if self.k_map is None or len(self.k_map) != self.n - 1:
                raise InvalidSpec("explicit case needs a k-map entry for each n = 2..n")
            if any(not 1 <= k < m for k, m in zip(self.k_map, range(2, self.n + 1))):
                raise InvalidSpec("k-map must satisfy 1 <= k(n) < n")

    def anchor(self, m: int) -> int:
        """k(m) for m = 2..n (1-based)."""
        if self.case == "anchor-first":
            return 1
        if self.case == "alternating":
            return m - 1
        return self.k_map[m - 2]


def build_gaussian_seq(spec: GaussianSeqSpec) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and correlation matrix induced by the sign-copy recursion
    mu_m = -mu_{k(m)} and rho_{m,j} = -rho_{k(m),j} (j < m, j != k(m)), with
    rho_{m,k(m)} a free parameter.

    Raises NotPositiveDefinite if the resulting matrix is numerically singular
    or indefinite.
    """
    n = spec.n
    mu = np.empty(n)
    mu[0] = spec.mu
    corr = np.eye(n)
    for m in range(2, n + 1):
        k = spec.anchor(m)
        mu[m - 1] = -mu[k - 1]
        free = spec.rho_params[m - 2]
        for j in range(1, m):
            r = free if j == k else -corr[k - 1, j - 1]
            corr[m - 1, j - 1] = corr[j - 1, m - 1] = r
    _check_positive_definite(corr)
    return mu, corr


def mlr_scale_density(family: str, theta: float) -> Callable[[float], float]:
    """Density of a centered scale family member; used for the pointwise
    likelihood-ratio inequality checks."""
    if family == "normal":
        return lambda x: math.exp(-x * x / (2.0 * theta * theta)) / (
            theta * math.sqrt(2.0 * math.pi)
        )
    if family == "cauchy":
        return lambda x: theta / (math.pi * (theta * theta + x * x))
    raise InvalidSpec(f"unknown scale family {family!r}")
