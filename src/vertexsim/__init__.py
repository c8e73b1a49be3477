"""Planar vertex models, their transfer matrices, and post-selected circuit simulation."""

__version__ = "0.1.0"

from .dilation import (
    DilationGate,
    SVDFactors,
    TerashimaStep,
    acceptance_probability,
    dilate,
    jacobi_svd,
    svd_scaled,
    terashima_decomposition,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    EnumerationBudgetError,
    ImpossiblePostselectionError,
    InsufficientStatisticsError,
    NumericalError,
    ValidationError,
    VertexSimError,
)
from .experiments import (
    ActionDiagnostics,
    ConvergenceRow,
    EstimatorReport,
    build_d_test_plan,
    build_t_plan,
    build_terashima_plan,
    convergence_report,
    dense_from_wire,
    estimate_lambda1,
    power_iterate_psi0,
    simulated_t_action,
    wire_from_dense,
    wire_to_dense_map,
)
from .circuit_text import export_circuit_text, parse_circuit_text
from .model import (
    RMatrix,
    VertexModel,
    energy_index,
    generate_model,
    model_from_json,
    model_to_json,
    r_matrix,
)
from .simulator import (
    ApplyUnitary,
    CircuitPlan,
    MeasureAll,
    QuantumState,
    ShotHistogram,
    init_state,
    run_exact,
    run_shots,
)
from .transfer import (
    DENSE_CAP_QUBITS,
    LatticeShape,
    SpectralSummary,
    TransferOperator,
    apply_transfer,
    assemble_transfer,
    boundary_strings,
    brute_force_partition,
    free_energy_density,
    partition_element,
    spectral_summary,
)

__all__ = [name for name in dir() if not name.startswith("_")]
