"""Wave-particle duality in uniform N-path interferometers.

Builds symmetric which-path detector states, the closed-form discrimination
measurements that extract path information from them, entropic coherence and
knowledge quantifiers with their duality relations, discrete-Fourier
saturation analysis, and seeded Monte-Carlo sweep datasets.
"""

from .duality import (
    DualityPoint,
    coherence,
    evaluate_point,
    evaluate_specs,
    holevo_ceiling,
    knowledge_concatenated,
    knowledge_frio,
    knowledge_me,
    shannon_entropy,
)
from .ensemble import (
    ScatterDataset,
    SweepConfig,
    boundary_envelope,
    run_sweep,
    sample_spec,
    two_path_grid_dataset,
)
from .measurements import (
    Measurement,
    OutcomeTable,
    SeparationParams,
    Strategy,
    build_frio_concatenated,
    build_frio_standard,
    build_me_measurement,
    conditional_conclusive,
    conditional_failure,
    measurement_to_json_dict,
    oracle_outcome_table,
    separation_params,
)
from .saturation import (
    SaturationReport,
    SupportStructure,
    classify_support,
    dft_distribution,
    is_saturating,
    saturating_dimensions,
    saturating_spec,
    saturation_scan,
    schmidt_coefficients,
)
from .states import (
    DetectorSpec,
    Support,
    SymmetricSet,
    ValidationError,
    build_symmetric_set,
    detector_reduced_distribution,
    enumerate_uniform_specs,
    spec_from_json_dict,
    spec_from_probabilities,
    spec_to_json_dict,
    uniform_spec,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ValidationError",
    "Support",
    "DetectorSpec",
    "SymmetricSet",
    "build_symmetric_set",
    "detector_reduced_distribution",
    "enumerate_uniform_specs",
    "uniform_spec",
    "spec_from_probabilities",
    "spec_to_json_dict",
    "spec_from_json_dict",
    "Strategy",
    "SeparationParams",
    "Measurement",
    "OutcomeTable",
    "separation_params",
    "build_me_measurement",
    "build_frio_standard",
    "build_frio_concatenated",
    "conditional_conclusive",
    "conditional_failure",
    "oracle_outcome_table",
    "measurement_to_json_dict",
    "shannon_entropy",
    "coherence",
    "knowledge_frio",
    "knowledge_concatenated",
    "knowledge_me",
    "holevo_ceiling",
    "evaluate_point",
    "evaluate_specs",
    "DualityPoint",
    "SupportStructure",
    "SaturationReport",
    "dft_distribution",
    "saturating_spec",
    "is_saturating",
    "classify_support",
    "saturating_dimensions",
    "saturation_scan",
    "schmidt_coefficients",
    "SweepConfig",
    "ScatterDataset",
    "sample_spec",
    "run_sweep",
    "two_path_grid_dataset",
    "boundary_envelope",
]
