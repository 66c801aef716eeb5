"""Graph-constrained group testing with random-walk measurement matrices.

Build matrices whose rows are vertex or edge sets visited by random walks
on a constraint graph, simulate noiseless or noisy pooled tests, decode
defective items, and verify the probabilistic machinery (stationary bounds,
mixing times, visit probabilities, disjunctness) by exact computation and
Monte Carlo.
"""

from .errors import (
    WalktestError,
    InvalidParameterError,
    DegenerateGraphError,
    NonMixingGraphError,
    SizeExceededError,
    GenerationFailureError,
    NumericFailureError,
    InfeasibleError,
)
from .graphs import (
    Graph,
    UniformityReport,
    Distribution,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    random_regular_graph,
    degree_uniformity,
    stationary_distribution,
    conductance_exact,
    second_eigenvalue,
    graph_to_json,
    graph_from_json,
    write_graph,
    read_graph,
)
from .mixing import (
    MixingReport,
    transition_matrix,
    default_delta,
    mixing_time,
    conductance_lower_bound,
    conductance_mixing_bound,
)
from .walks import (
    StartRule,
    Walk,
    Estimate,
    random_walk,
    walk_to_sink,
    validate_walk,
    hit_probability,
    hit_avoid_probability,
    hit_before_sink_probability,
    visit_count_tail_check,
    early_visit_check,
    influence_check,
)
from .calibration import ScaleConstants, CALIBRATED
from .designs import (
    DesignParams,
    design_parameters,
    MeasurementMatrix,
    vertex_walk_design,
    edge_walk_design,
    vertex_sink_design,
    edge_sink_design,
    build_design,
    verify_rows,
    write_matrix,
    read_matrix,
)
from .grouptest import (
    DefectiveSet,
    NoiseModel,
    OutcomeVector,
    DisjunctWitness,
    DisjunctCertificate,
    FlipNoisePlan,
    simulate_tests,
    is_disjunct,
    disjunct_margin,
    decode_cover,
    decode_threshold,
    adversarial_flip_check,
    binomial_quantile,
    eta_for_flip_noise,
    flip_noise_plan,
    write_outcomes,
    read_outcomes,
)
from .rng import master_rng, trial_rng

__version__ = "0.1.0"

from .experiments import (  # noqa: E402
    SweepPoint,
    SweepResult,
    MixingRow,
    MixingScalingResult,
    FixedInputResult,
    CheckLine,
    VerificationReport,
    TomographyReport,
    graph_from_config,
    measured_design_parameters,
    success_sweep,
    mixing_scaling,
    fixed_input_experiment,
    verification_suite,
    tomography_demo,
)
