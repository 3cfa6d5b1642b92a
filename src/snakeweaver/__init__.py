"""Marginal-consistency and Markov-condition toolkit for 2D lattices.

Verifies local consistency and the eight-per-cluster Markov conditions on
3x3-cluster marginals, rebuilds global states through Petz right-merge snakes,
and evaluates the closed-form maximum-entropy value, with independent oracles
for everything.
"""

from .lattice import (
    BlockPath,
    GeometryError,
    Region,
    Vertex,
    as_region,
    cluster_region,
    neighbors,
    region_neighborhood,
    rotate_pi_local,
)
from .operator_core import (
    DensityOperator,
    DimensionGuardError,
    RegionMismatchError,
    StateError,
    apply_on_sites,
    cmi,
    embed_operator,
    entropy,
    med,
    partial_trace,
    pinv_sqrt_psd,
    product_operator,
    sqrt_psd,
    trace_distance,
)
from .merge import (
    EmptyOverlapError,
    MergePreconditionError,
    RecoveryCheck,
    SupportMismatchError,
    is_markov_via_recovery,
    merging_lemma_combine,
    right_merge,
    right_merge_info,
    right_merge_marginals,
)
from .marginal_store import (
    CheckRecord,
    CheckReport,
    CmCondition,
    MarginalFileError,
    MarginalSet,
    Window,
    c_m_conditions,
    check_local_consistency,
    check_markov_conditions,
)
from .ci_calculus import (
    CIStatement,
    derivation_closure,
    derive,
    mono_children,
    rev_mono,
)
from .snakes import (
    SnakeSpec,
    build_snake,
    level_drop_check,
    snake_entropy_med,
    snake_marginal_report,
    split_check,
    verify_is_snake,
)
from .reconstruct import (
    ReconstructionResult,
    max_entropy_formula,
    max_entropy_terms,
    reconstruct_global,
    row_major_med,
    uniqueness_certificate,
    vertical_markov_check,
)
from .oracles import (
    MaxEntSolution,
    StabilizerState,
    brute_force_maxent,
    gen_product,
    gen_qmc_triple,
    gen_row_markov,
    ghz_row_source,
    repetition_rows,
)

__version__ = "0.1.0"
