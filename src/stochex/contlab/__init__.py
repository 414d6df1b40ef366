"""Numeric lab for the continuous families: normal cdfs, elliptical densities,
sign-patterned Gaussian sequences, seeded sampling, and MC dominance checks;
densities, grid checks and the folded-normal cdf work on arrays, `phi2` on floats."""

from .elliptical import (
    EllipticalModel,
    GaussianGenerator,
    GaussianSeqSpec,
    StudentTGenerator,
    bivariate_elliptical,
    build_gaussian_seq,
    density_symmetry_grid,
    intraclass_model,
    mlr_scale_density,
)
from .montecarlo import (
    EmpiricalCdf,
    MCConfig,
    dkw_band,
    folded_normal_cdf,
    ks_distance,
    mc_dominance,
    sample_elliptical,
    sample_gaussian,
    verify_mlr_example,
)
from .normal import phi, phi2, verify_identity_11

__all__ = [
    "EllipticalModel",
    "EmpiricalCdf",
    "GaussianGenerator",
    "GaussianSeqSpec",
    "MCConfig",
    "StudentTGenerator",
    "bivariate_elliptical",
    "build_gaussian_seq",
    "density_symmetry_grid",
    "dkw_band",
    "folded_normal_cdf",
    "intraclass_model",
    "ks_distance",
    "mc_dominance",
    "mlr_scale_density",
    "phi",
    "phi2",
    "sample_elliptical",
    "sample_gaussian",
    "verify_identity_11",
    "verify_mlr_example",
]
