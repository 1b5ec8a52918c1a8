"""Gossip-driven willingness diffusion: simulator, spectral analysis, impact ranking."""

from .errors import (
    NetworkFormatError,
    NotStronglyConnectedError,
    NumericalError,
    Thm6InapplicableError,
)
from .gossip import (
    SimulationTrace,
    EnsembleSummary,
    run_replica,
    simulate_ensemble,
)
from .impact import (
    ImpactReport,
    build_impact_report,
    impact_exact,
    impact_thm5,
    impact_thm6,
    impact_thm7_bound,
    rank_clients,
)
from .meanfield import (
    MeanMatrices,
    PassageData,
    build_mean_matrices,
    build_passage_data,
    fundamental_matrix,
    mean_first_passage,
    stationary_distribution,
    stationary_perturbation,
)
from .network import (
    AcquaintanceNetwork,
    ValidationReport,
    diameter,
    edge_partition,
    load_network,
    parse_network,
    serialize_network,
    validate_network,
)
from .report import RunConfig, analyze, render_json
from .spectral import (
    SpectralReport,
    bound_expectation,
    bound_l2,
    bound_linf,
    build_spectral_report,
    classify_mixing,
    conductance,
    lambda2_gap,
    performance,
    theorem3_constants,
)

__version__ = "0.1.0"
