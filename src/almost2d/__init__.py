"""Periodic-box pseudo-spectral Navier-Stokes toolkit.

Critical norms, almost-two-dimensional regularity criteria, explicit data
families with closed-form norms, whole-space quadrature constants, and a
dealiased solver with trajectory monitors.
"""

from .grid import GridSpec
from .field import (
    PhysicalVectorField,
    SpectralVectorField,
    curl,
    heat_semigroup,
    leray_project,
    to_physical,
    to_spectral,
)
from .norms import (
    besov_norm,
    lebesgue_norm,
)
from .criteria import (
    CriterionReport,
    SharpConstants,
    constants,
    envelopes,
    gamma2d_lp_check,
    iftimie_check,
    small_data_check,
)
from .families import (
    annulus_analog,
    large_almost_2d,
    random_divergence_free,
    rescaled_vorticity,
    taylor_green_2d,
    two_d_plus_perturbation,
    un_family,
)
from .solver import DiagnosticsSeries, SolverConfig, run
from .wholespace import (
    QuadratureSpec,
    besov_embedding_constant,
    cone_embedding_constant,
    heat_kernel_constants,
    lambda_n_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
