"""Embedded pairs, step-size control, and benchmarks for optimal SSP
explicit Runge-Kutta methods."""

__version__ = "0.1.0"

from .tableau import EmbeddedTableau, catalog_ids, resolve  # noqa: F401
from .analysis import (  # noqa: F401
    ErrorMeasures,
    NonDefectiveReport,
    StabilityRadii,
    analyze_method,
    classify_order,
    error_measures,
    is_non_defective,
    order_condition_residuals,
    ssp_coefficient_arrays,
    stability_polynomial,
    stability_radii,
    stability_region_grid,
)
from .optimizer import (  # noqa: F401
    OptimizationResult,
    OptimizationSpec,
    optimize_embedded,
    ssp_feasible,
)
from .controller import ControllerState, make_controller  # noqa: F401
from .integrator import (  # noqa: F401
    BudgetError,
    IntegrationResult,
    OdeSystem,
    StiffnessError,
    error_norm,
    initial_step,
    integrate_adaptive,
    integrate_fixed,
    rk_step,
)
from .problems import (  # noqa: F401
    Grid1D,
    cfl_step,
    make_problem,
    total_variation,
    upwind_advection,
)
from .bench import BenchPlan, WorkPrecisionRow, run_bench  # noqa: F401
