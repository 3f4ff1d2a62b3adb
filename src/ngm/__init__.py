"""Complex-valued non-Gaussianity measure for bosonic states.

The central quantity is the Wigner relative entropy of a state against
its Gaussian associate (the Gaussian with the same first and second
moments).  Its real part measures non-Gaussianity in shape, its
imaginary part is pi times the negative Wigner volume, and both are
computed on truncated-Fock-basis states synthesized onto phase-space
grids.  Submodules: ``numerics`` (grids, recurrence, quadrature),
``fock`` (state constructors and serialization), ``wigner`` (field
synthesis and moments), ``measure`` (the measure itself), ``channels``
(thermal-loss evolution through two independent engines), ``fisher``
(phase-space Fisher information and monotonicity diagnostics),
``catalog`` (preset state families), and ``cli`` (command line).
"""

from .errors import (
    CapacityError,
    ConsistencyError,
    CutoffError,
    NormalizationError,
    NumericalError,
    TruncationRiskError,
)
from .numerics import PhaseSpaceGrid, worker_count
from .fock import (
    FockDensityMatrix,
    FockVector,
    apply_qubit_state,
    as_density,
    cat,
    coherent,
    displaced_squeezed,
    fidelity,
    gkp_logical,
    load_state,
    random_qudit,
    save_state,
    state_from_json,
    state_to_json,
)
from .wigner import (
    GaussianMoments,
    WignerField,
    default_grid,
    moments,
    negative_volume,
    wigner_from_fock,
    wigner_gradient,
)
from .measure import (
    MeasureValue,
    entropy_upper_bound_check,
    gaussian_associate_entropy,
    measure_from_field,
    minimizer_scan,
    ngm,
    product_measure_check,
    wigner_entropy_real,
    wre_vs_gaussian,
)
from .channels import (
    ThermalLossSpec,
    thermal_loss_fock,
    thermal_loss_phase_space,
)
from .fisher import (
    FisherMatrix,
    cramer_rao_check,
    debruijn_check,
    fisher_from_field,
    fisher_matrix,
    measure_derivative_check,
    monotonicity_condition,
)
from .catalog import (
    ExperimentPreset,
    build_state,
    named_preset,
    preset_names,
    run_preset,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConsistencyError",
    "CutoffError",
    "ExperimentPreset",
    "FisherMatrix",
    "FockDensityMatrix",
    "FockVector",
    "GaussianMoments",
    "MeasureValue",
    "NormalizationError",
    "NumericalError",
    "PhaseSpaceGrid",
    "ThermalLossSpec",
    "TruncationRiskError",
    "WignerField",
    "apply_qubit_state",
    "as_density",
    "build_state",
    "cat",
    "coherent",
    "cramer_rao_check",
    "debruijn_check",
    "default_grid",
    "displaced_squeezed",
    "entropy_upper_bound_check",
    "fidelity",
    "fisher_from_field",
    "fisher_matrix",
    "gaussian_associate_entropy",
    "gkp_logical",
    "load_state",
    "measure_derivative_check",
    "measure_from_field",
    "minimizer_scan",
    "moments",
    "monotonicity_condition",
    "named_preset",
    "negative_volume",
    "ngm",
    "preset_names",
    "product_measure_check",
    "random_qudit",
    "run_preset",
    "save_state",
    "state_from_json",
    "state_to_json",
    "thermal_loss_fock",
    "thermal_loss_phase_space",
    "wigner_entropy_real",
    "wigner_from_fock",
    "wigner_gradient",
    "worker_count",
    "wre_vs_gaussian",
]
