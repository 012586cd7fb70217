"""matsketch: recovery of distributed-sparse matrices from tensor-product
sketches Y = A X B^T, plus empirical verifiers for the combinatorial
properties (expansion, l1-RIP, nullspace smoothness) that make it work.
"""

from .ensemble import (
    BipartiteGraph,
    ParameterError,
    Support,
    TensorGraph,
    arrow_matrix,
    column_difference_collision,
    default_delta,
    degree_of_sparsity,
    gen_bernoulli_matrix,
    gen_distributed_matrix,
    gen_distributed_support,
    gen_left_regular,
    gen_screened_graph,
    prop1_degree_bound,
)
from .operator import SketchOperator, unvec, vec
from .solver import (
    AffineProjector,
    RecoveryResult,
    SolverOptions,
    lp_oracle,
    solve_constrained,
    solve_p1,
    solve_p2,
)
from .verify import (
    ExpansionReport,
    RipReport,
    arrow_ambiguity_witness,
    check_expansion,
    check_nullspace,
    check_rip1,
)
from .pipelines import (
    PartitionedGraph,
    SampleStream,
    cov_sketch,
    cross_cov_recover,
    gen_distributed_covariance,
    graph_sketch,
    graph_unsketch,
    recover_covariance,
)
from .harness import (
    PhaseGrid,
    TrialConfig,
    TrialRecord,
    derive_seed,
    noise_sweep,
    phase_diagram,
    render_phase_svg,
    run_trial,
)

__version__ = "0.1.0"
