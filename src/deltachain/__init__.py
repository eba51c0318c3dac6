"""deltachain: delta-chain subshift approximations of finite metric dynamical
systems, specification tracing, and transport distances between invariant
measures."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    FiniteMetricSystem,
    FiniteTrajectory,
    IntervalSegment,
    load_system,
    normalize_metric,
    pi_distance,
    surjective_core,
)
from .chain import (  # noqa: F401
    ChainGraph,
    MixingCertificate,
    build_chain_graph,
    finite_chain,
    is_delta_chain,
    mixing_certificate,
)
from .shadowing import (  # noqa: F401
    BesicovitchEstimate,
    besicovitch_pi,
    besicovitch_rho,
    equivalence_bound_check,
    hat_rho,
)
from .specification import (  # noqa: F401
    PeriodicChain,
    SpacedSpecification,
    spacing_constant,
    trace_specification,
    verify_trace,
)
from .measures import (  # noqa: F401
    CouplingResult,
    MarkovMeasure,
    PeriodicOrbitMeasure,
    empirical_measure,
    ergodic_measures_of_graph,
    hausdorff_distance,
    pi_bar_matrices,
    pi_bar_periodic,
    rho_bar_markov_upper,
    rho_bar_matrices,
    sigmund_approximation,
    w1_distance,
    weakstar_proxy,
)
from .pipeline import (  # noqa: F401
    PipelineConfig,
    density_demo,
    emit_report,
    load_config,
    run_pipeline,
)
