"""Microwave quantum illumination with electro-opto-mechanical converters.

A numerical library for the full pipeline: a converter that entangles a
propagating microwave signal with an optical idler, Gaussian-state
characterization of the source (entanglement metric, logarithmic negativity,
coherent information, Gaussian discord), the noisy target-return channel, a
phase-conjugating microwave-to-optical receiver with difference photocounting,
and the error-probability comparison against the optimal classical
(coherent-state homodyne) benchmark.
"""

__version__ = "0.1.0"

from .states import (
    PHYSICALITY_TOL,
    PhysicalityError,
    SymplecticData,
    TwoModeGaussianState,
    entropy,
    sample_quadratures,
    standard_form,
    symplectic_spectrum,
    thermal_product,
    two_mode_squeezed_vacuum,
)
from .converter import (
    BathOccupations,
    Cooperativities,
    EomCoefficients,
    EomParams,
    InstabilityError,
    SourceMoments,
    StabilityReport,
    UndefinedMetricError,
    bath_occupations,
    coefficients,
    drift_matrix,
    entanglement_metric,
    is_stable,
    nominal_params,
    planck_occupation,
    source_moments,
    source_state,
)
from .correlations import (
    CorrelationReport,
    coherent_information,
    correlation_report,
    gaussian_discord,
    log_negativity,
)
from .detection import (
    DetectionStatistics,
    Hypothesis,
    McReceiverStatistics,
    ReceiverParams,
    TargetChannelParams,
    coherent_snr_per_mode,
    entanglement_threshold,
    error_probability,
    error_probability_coherent,
    error_probability_qi,
    figure_of_merit,
    log10_error_probability,
    max_fiber_range,
    mc_receiver_statistics,
    receiver_statistics,
    return_state,
    snr_per_mode,
)
from .sweep import (
    ConfigError,
    GridAxis,
    SweepConfig,
    config_sha256,
    parse_config,
    report_point,
    run_figure3,
    run_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
