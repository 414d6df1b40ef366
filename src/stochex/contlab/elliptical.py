"""Elliptical density models, sign-patterned Gaussian sequences, and grid checks.

Densities take one point or an (N, dim) array of points, and a grid check is
two density calls over the grid rows inside the condition's region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import EmptyGrid, InvalidSpec, NotPositiveDefinite
from ..dist import SignedPermutation
from ..symmetry import in_region

PD_EIGENVALUE_TOL = 1e-10
GRID_TOLERANCE = 1e-12


@dataclass(frozen=True)
class GaussianGenerator:
    """Radial function g(t) = (2 pi)^(-d/2) exp(-t/2)."""

    def radial(self, t: np.ndarray, dim: int) -> np.ndarray:
        return (2.0 * math.pi) ** (-dim / 2.0) * np.exp(-t / 2.0)


@dataclass(frozen=True)
class StudentTGenerator:
    """Radial function of the multivariate Student-t with nu degrees of freedom."""

    nu: float = 5.0

    def __post_init__(self):
        if not 0 < self.nu < math.inf:
            raise InvalidSpec(f"Student-t needs a finite nu > 0, got {self.nu}")

    def radial(self, t: np.ndarray, dim: int) -> np.ndarray:
        nu = self.nu
        c = math.gamma((nu + dim) / 2.0) / (math.gamma(nu / 2.0) * (nu * math.pi) ** (dim / 2.0))
        return c * (1.0 + t / nu) ** (-(nu + dim) / 2.0)


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

    def density(self, points) -> float | np.ndarray:
        """The density at one point (a float) or at each row of an (N, dim) array;
        Sigma is factorised once for all rows."""
        sigma = self.sigma()
        delta = np.asarray(points, dtype=float) - np.asarray(self.mean)
        rows = np.atleast_2d(delta)
        t = np.einsum("ij,ji->i", rows, np.linalg.solve(sigma, rows.T))
        f = float(np.linalg.det(sigma)) ** -0.5 * self.generator.radial(t, self.dim)
        return f if delta.ndim > 1 else float(f[0])


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
    if not (sigma > 0 and tau > 0):
        raise InvalidSpec(f"scales must be positive, got sigma = {sigma}, tau = {tau}")
    cov = rho * sigma * tau
    scale = ((sigma * sigma, cov), (cov, tau * tau))
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
    scale = tuple(tuple(sigma2 if i == j else sigma2 * rho for j in range(n)) for i in range(n))
    return EllipticalModel((0.0,) * n, scale, generator or GaussianGenerator())


def density_symmetry_grid(
    model: EllipticalModel,
    condition: str,
    grid_axes: Sequence[Sequence[float]],
    k: int = 1,
    l: int = 2,
) -> dict:
    """Count grid violations of the pointwise density (in)equality named by
    `condition` over the cartesian product of `grid_axes`.

    URE/LRE demand equality f(x) = f(reflected x) on the open half-plane
    x_k < x_l (URE) or x_k > x_l (LRE); URsub/LRsub demand
    f(x) >= f(reflected x) on the condition's open region, URsup/LRsup the
    reversed inequality.  The regions are those of `symmetry.in_region`, which
    also rejects an unknown condition.  A point whose deviation is not within
    GRID_TOLERANCE (NaN included) is a violation.
    """
    axes = [list(ax) for ax in grid_axes]
    if not axes or any(len(ax) == 0 for ax in axes):
        raise EmptyGrid("grid must be a nonempty product of nonempty axes")
    if len(axes) != model.dim:
        raise InvalidSpec(f"grid has {len(axes)} axes, model has dim {model.dim}")
    reflect = SignedPermutation.reverse_pair(model.dim, k, l)

    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    points = points[[in_region(pt, k, l, condition) for pt in points.tolist()]]
    f = model.density(points)
    g = model.density(points[:, reflect.perm] * reflect.signs)
    dev = g - f if condition.endswith("sub") else f - g
    if condition in ("URE", "LRE"):
        dev = np.abs(dev)
    violations = int(np.count_nonzero(~(dev <= GRID_TOLERANCE)))
    return {
        "check": f"density-{condition}({k},{l})",
        "points_in_region": len(points),
        "violations": violations,
        "max_deviation": float(np.max(dev, initial=0.0)),
        "tolerance": GRID_TOLERANCE,
        "pass": violations == 0,
    }


@dataclass(frozen=True)
class GaussianSeqSpec:
    """Gaussian sequence X_1..X_n whose mean and correlation sign pattern makes
    every prefix invariant under some pair reversal.

    anchors[m - 2] is the anchor k(m) < m (1-based) that coordinate m copies
    with its signs flipped, for m = 2..n, so n = len(anchors) + 1; anchors
    (1, 1, ...) pin each coordinate against the first, (1, 2, ...) against the
    previous one.  rho_params[m - 2] is the free correlation rho_{m,k(m)}.
    """

    mu: float
    anchors: tuple[int, ...]
    rho_params: tuple[float, ...]

    def __post_init__(self):
        if not self.anchors:
            raise InvalidSpec("need n >= 2")
        if len(self.rho_params) != len(self.anchors):
            raise InvalidSpec(f"need one rho parameter per anchor, got {self.rho_params}")
        if any(not -1.0 < r < 1.0 for r in self.rho_params):
            raise InvalidSpec("rho parameters must lie in (-1, 1)")
        if any(not 1 <= k < m for m, k in enumerate(self.anchors, start=2)):
            raise InvalidSpec("anchors must satisfy 1 <= k(m) < m")

    @property
    def n(self) -> int:
        return len(self.anchors) + 1


def build_gaussian_seq(spec: GaussianSeqSpec) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and correlation matrix induced by the sign-copy recursion
    mu_m = -mu_{k(m)} and rho_{m,j} = -rho_{k(m),j} (j < m, j != k(m)), with
    rho_{m,k(m)} a free parameter.

    Raises NotPositiveDefinite if the resulting matrix is numerically singular
    or indefinite.
    """
    mu = np.empty(spec.n)
    mu[0] = spec.mu
    corr = np.eye(spec.n)
    for m, k, free in zip(range(2, spec.n + 1), spec.anchors, spec.rho_params):
        mu[m - 1] = -mu[k - 1]
        corr[m - 1, : m - 1] = corr[: m - 1, m - 1] = -corr[k - 1, : m - 1]
        corr[m - 1, k - 1] = corr[k - 1, m - 1] = free
    _check_positive_definite(corr)
    return mu, corr


def mlr_scale_density(family: str, theta: float) -> Callable:
    """Density of a centered scale family member, on floats or arrays; used for
    the pointwise likelihood-ratio inequality checks."""
    if family == "normal":
        c = theta * math.sqrt(2.0 * math.pi)
        return lambda x: np.exp(-x * x / (2.0 * theta * theta)) / c
    if family == "cauchy":
        return lambda x: theta / (math.pi * (theta * theta + x * x))
    raise InvalidSpec(f"unknown scale family {family!r}")
