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
    PerturbationRegion,
    StabilizationNeeded,
    VerificationInstance,
    build_cliques,
    check_rip,
    encode_lp,
    encode_milp,
    encode_standard,
    encode_tightened,
    linear_identity_residuals,
    linear_inequalities,
    objective_targeted,
    region_polynomials,
    write_mps,
)
from bnncert.sdp import (
    ConicProblem,
    MomentIndex,
    MomentSdp,
    MomentWitness,
    SdpaProblem,
    assemble_moment_sdp,
    export_sdpa,
    read_sdpa,
    sdp_below_lp_witness,
    smat,
    svec,
    tightened_gap_witness,
    to_conic,
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
    enumerate_patterns,
    exact_verify,
    feasible_patterns,
    relative_improvement,
    sample_upper_bound,
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
    "PerturbationRegion",
    "RawBnn",
    "RigorousBound",
    "SdpaProblem",
    "SolveOptions",
    "SolveResult",
    "StabilizationNeeded",
    "Var",
    "VerificationInstance",
    "assemble_moment_sdp",
    "build_cliques",
    "check_rip",
    "encode_lp",
    "encode_milp",
    "encode_standard",
    "encode_tightened",
    "enumerate_patterns",
    "exact_verify",
    "export_sdpa",
    "feasible_patterns",
    "fold_batchnorm",
    "forward",
    "forward_raw",
    "linear_identity_residuals",
    "linear_inequalities",
    "load_inputs",
    "load_model",
    "objective_targeted",
    "read_sdpa",
    "region_polynomials",
    "relative_improvement",
    "rigorous_lower_bound",
    "row_norm1",
    "sample_upper_bound",
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
