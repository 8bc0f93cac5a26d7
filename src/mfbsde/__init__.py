"""Monte Carlo laboratory for mean-field forward-backward SDE approximations."""

__version__ = "0.1.0"

from .backward import (
    BsdeSolution,
    check_comparison,
    solve_bsde_n,
    solve_linear_limit_bsde,
    solve_mfbsde,
)
from .fluctuation import (
    CovarianceMatrix,
    FieldLattice,
    clt_compare,
    empirical_fields,
    sample_field_on_lattice,
    solve_limit_system,
    theoretical_covariance,
)
from .forward import (
    LawFlow,
    solve_classical_system,
    solve_limit_forward,
    solve_sde_n,
)
from .harness import (
    ExperimentConfig,
    StudyReport,
    coupled_gaps,
    emit_report,
    parse_config,
    run_clt_study,
    run_convergence_study,
)
from .model import ModelSpec, catalog_model, check_gradients, env_average
from .noise import StreamKey, TimeGrid, brownian_increments, derive_key

__all__ = [
    "BsdeSolution",
    "CovarianceMatrix",
    "ExperimentConfig",
    "FieldLattice",
    "LawFlow",
    "ModelSpec",
    "StreamKey",
    "StudyReport",
    "TimeGrid",
    "brownian_increments",
    "catalog_model",
    "check_comparison",
    "check_gradients",
    "clt_compare",
    "coupled_gaps",
    "derive_key",
    "emit_report",
    "empirical_fields",
    "env_average",
    "parse_config",
    "run_clt_study",
    "run_convergence_study",
    "sample_field_on_lattice",
    "solve_bsde_n",
    "solve_classical_system",
    "solve_limit_forward",
    "solve_limit_system",
    "solve_linear_limit_bsde",
    "solve_mfbsde",
    "solve_sde_n",
    "theoretical_covariance",
    "__version__",
]
