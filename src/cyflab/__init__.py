"""cyflab: a numerical laboratory for fiberwise Ricci-flat metrics on torus fibrations."""

from .geometry import (
    FiberChart,
    FiberGrid,
    d_z,
    d_zbar,
    ddc_fiber,
    fiber_derivative,
    fiber_integral,
    invert_flat_laplacian,
    laplace_beltrami,
)
from .models import FamilySpec, FourierPoly, make_family
from .masolver import (
    BaseStencil,
    KE_VOLUME,
    MAProblem,
    MASolution,
    REFERENCE_VOLUME,
    SolverConfig,
    epsilon_continuation,
    fiberwise_ricci_flat,
    linearized_solve,
    ricci_flat_problem,
    semiflat_shift,
    solve_ma,
)
from .familygeom import (
    curvature_report,
    dbar_vertical,
    direct_image_report,
    geodesic_curvature,
    horizontal_lift,
    kodaira_spencer_norm,
    pde_residual,
    theta_E,
    vphi_cross_check,
    wp_norm,
)
from .green import build_green, k_bound

__version__ = "0.1.0"

__all__ = [
    "BaseStencil", "FamilySpec", "FiberChart", "FiberGrid",
    "FourierPoly", "KE_VOLUME", "MAProblem", "MASolution", "REFERENCE_VOLUME",
    "SolverConfig", "build_green", "curvature_report",
    "d_z", "d_zbar", "dbar_vertical", "ddc_fiber", "direct_image_report",
    "epsilon_continuation", "fiber_derivative", "fiber_integral",
    "fiberwise_ricci_flat", "geodesic_curvature", "horizontal_lift",
    "invert_flat_laplacian", "k_bound", "kodaira_spencer_norm",
    "laplace_beltrami", "linearized_solve", "make_family", "pde_residual",
    "ricci_flat_problem", "semiflat_shift", "solve_ma", "theta_E",
    "vphi_cross_check", "wp_norm",
]
