"""ZX-calculus toolkit for the measurement-based Deutsch-Jozsa algorithm.

Modules: diagram (ZX diagrams), tensor (dense contraction semantics),
rewrite (rule engine and simplification pipeline), circuit (gate-list IR
and translation), oracle (promise functions and phase-oracle synthesis),
mbqc (measurement patterns, lattice embedding, execution), cli.
"""

from .circuit import (
    Circuit,
    Gate,
    cnot,
    dj_run_circuit,
    hadamard,
    pauli_y,
    pauli_z,
    phase_gate,
    to_zx,
    to_zx_tracked,
    unitary,
)
from .diagram import Edge, EdgeKind, Spider, SpiderKind, ZxDiagram, new_diagram
from .errors import (
    ArityMismatchError,
    KindMismatchError,
    NotAdjacentError,
    NoFlowError,
    NotGraphLikeError,
    NotPromiseError,
    PreconditionFailed,
    ReductionStuckError,
    SelfLoopError,
    ShapeMismatchError,
    UnknownNodeError,
    WidthTooLargeError,
    WouldSelfLoopError,
    ZxError,
)
from .mbqc import (
    MeasurementPattern,
    PatternOutcome,
    dj_pattern_1q,
    dj_pattern_2q,
    dj_pattern_3q,
    find_gflow,
    lattice_pattern_3q,
    pattern_from_graph_like,
    pattern_to_diagram,
    patterns_isomorphic,
    reduce_lattice,
    run_postselected,
    run_sampled,
)
from .oracle import (
    BooleanFunction,
    PhasePolynomial,
    Verdict,
    classify,
    count_balanced,
    enumerate_promise,
    oracle_circuit_3q,
    one_qubit_spider_angles,
    phase_polynomial,
    two_qubit_spider_angles,
)
from .phase import HALF_PI, MINUS_HALF_PI, PI, Phase, QUARTER_PI, ZERO
from .rewrite import (
    RewriteStep,
    collapse_hadamard_chain,
    color_change,
    decouple_x_state,
    expand_hadamard_edge,
    fuse_spiders,
    hadamard_cancel,
    local_complement,
    plug_plus_states,
    simplify_mbqc,
    to_graph_like,
)
from .tensor import (
    Tensor,
    collapse_floor,
    elimination_order,
    equivalent_up_to_scalar,
    evaluate,
    max_intermediate_rank,
    spider_tensor,
)

__version__ = "0.1.0"
