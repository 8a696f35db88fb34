"""Robustness certification for binarized neural networks.

The package builds convex certificates that a ternary-weight, sign-activation
network keeps its label under bounded input perturbations: an LP relaxation, a
MILP export for external solvers, and first-order sparse moment-SDP
relaxations (standard and tautology-tightened), all solved by a built-in
operator-splitting conic solver whose approximate certificates are shrunk into
rigorously valid lower bounds.
"""

from bnncert.model import (
    BatchNorm,
    FoldedBnn,
    ForwardTrace,
    RawBnn,
    fold_batchnorm,
    forward,
    forward_raw,
    load_inputs,
    load_model,
    row_norm1,
    stabilize,
    weight_sparsity,
)
from bnncert.poly import MultilinearPoly, Var
from bnncert.encode import (
    Clique,
    Constraint,
    ConstraintSet,
    NeuronRow,
    PerturbationRegion,
    VerificationInstance,
    build_cliques,
    check_rip,
    encode_lp,
    encode_milp,
    encode_standard,
    encode_tightened,
    linear_identity_residuals,
    neuron_rows,
    objective_targeted,
    region_polynomials,
)
from bnncert.sdp import (
    ConicProblem,
    MomentIndex,
    MomentSdp,
    MomentWitness,
    SdpaProblem,
    SparseMatrix,
    assemble_moment_sdp,
    export_sdpa,
    read_sdpa,
    sdp_below_lp_witness,
    smat,
    svec,
    tightened_gap_witness,
    to_conic,
    write_mps,
)
from bnncert.solver import (
    RigorousBound,
    SolveOptions,
    SolveResult,
    rigorous_lower_bound,
    solve_conic,
    solve_lp,
)
from bnncert.oracle import (
    exact_verify,
    feasible_patterns,
    relative_improvement,
    sample_logits,
)

__version__ = "0.1.0"

__all__ = [
    "BatchNorm",
    "Clique",
    "ConicProblem",
    "Constraint",
    "ConstraintSet",
    "FoldedBnn",
    "ForwardTrace",
    "MomentIndex",
    "MomentSdp",
    "MomentWitness",
    "MultilinearPoly",
    "NeuronRow",
    "PerturbationRegion",
    "RawBnn",
    "RigorousBound",
    "SdpaProblem",
    "SolveOptions",
    "SolveResult",
    "SparseMatrix",
    "Var",
    "VerificationInstance",
    "assemble_moment_sdp",
    "build_cliques",
    "check_rip",
    "encode_lp",
    "encode_milp",
    "encode_standard",
    "encode_tightened",
    "exact_verify",
    "export_sdpa",
    "feasible_patterns",
    "fold_batchnorm",
    "forward",
    "forward_raw",
    "linear_identity_residuals",
    "load_inputs",
    "load_model",
    "neuron_rows",
    "objective_targeted",
    "read_sdpa",
    "region_polynomials",
    "relative_improvement",
    "rigorous_lower_bound",
    "row_norm1",
    "sample_logits",
    "sdp_below_lp_witness",
    "smat",
    "stabilize",
    "solve_conic",
    "solve_lp",
    "svec",
    "tightened_gap_witness",
    "to_conic",
    "weight_sparsity",
    "write_mps",
]
