"""Quantitative comparison of homodyne and heterodyne Gaussian-state tomography.

The toolkit covers the full desk-scale loop: state and covariance types,
closed-form and numerical Fisher information with the matching Cramer-Rao
bounds, directional uncertainty regions, seeded synthetic sampling,
maximum-likelihood and moment estimators, and a CLI harness that writes
reproducible CSV/JSON tables.
"""

from ._version import __version__
from .core import (Covariance2, DomainError, GaussianStateSpec, NumericalError,
                   SchemeKind, delta_offset, effective_covariance, squeezing_db,
                   wigner_covariance)
from .estimation import (BlockFit, EstimationResult, UncertaintyEllipse,
                         estimate_heterodyne, estimate_homodyne_ml,
                         estimate_homodyne_ml_block, hs_distance_sq, to_ellipse)
from .fisher import (CrbReport, Fisher3, crb_het, crb_hom,
                     crb_report, critical_lambda_for_gamma, fisher_het,
                     fisher_hom_closed, fisher_hom_quadrature, gamma_surface)
from .regions import (RegionAreas, conditional_std, critical_lambda_equal_areas,
                      marginal_std, region_areas, region_boundaries)
from .sampling import (AnglePolicy, ContinuousSweep, SeedSpec, UniformGrid,
                       heterodyne_arrays, homodyne_arrays, raw_words)

__all__ = [
    "__version__",
    "Covariance2", "DomainError", "GaussianStateSpec", "NumericalError", "SchemeKind",
    "delta_offset", "effective_covariance", "squeezing_db", "wigner_covariance",
    "CrbReport", "Fisher3", "crb_het", "crb_hom",
    "crb_report", "critical_lambda_for_gamma",
    "fisher_het", "fisher_hom_closed", "fisher_hom_quadrature",
    "gamma_surface",
    "RegionAreas",
    "conditional_std", "critical_lambda_equal_areas", "marginal_std",
    "region_areas", "region_boundaries",
    "AnglePolicy", "ContinuousSweep", "SeedSpec", "UniformGrid",
    "heterodyne_arrays", "homodyne_arrays", "raw_words",
    "BlockFit", "EstimationResult", "UncertaintyEllipse",
    "estimate_heterodyne", "estimate_homodyne_ml", "estimate_homodyne_ml_block",
    "hs_distance_sq", "to_ellipse",
]
