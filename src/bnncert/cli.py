"""Command-line front end: `verify` for verdicts, `export` for solver files.

Exit codes: 0 the query is certified robust, 1 a counterexample was found,
2 inconclusive, 3 error (malformed command line, bad inputs, degenerate
network, unsupported combo, or any other exception a command raises).

A robustness query is: does the predicted label of the reference input
survive every perturbation in the region?  `verify` answers per attack
target k != true label by lower-bounding the logit margin; "robust" demands a
strictly positive rigorous bound for every target, "falsified" demands an
explicit region point whose forward label differs.

Each query draws one seeded sample (`sample_logits`: the center plus
`SAMPLES` region points, with their logits) and every sampling consumer
reads it: the opening attack (the first row whose label differs, confirmed
with `forward`), the exact margins at eps 0, and target k's sampled margin
min(logit[label] - logit[k]) for `sample-ub` and `--metrics`.  The attack
runs before any engine, so an easily-falsified query never burns solver
time.  When it falsifies at a positive radius, no target is bounded: the
report lists no targets, and `--metrics` no improvement entries.  At eps 0
every target is listed with its exact forward margin.

Otherwise targets are bounded in class order, sharing what does not depend
on the target, built once per query: a relaxation's conic problem, or the
oracle's layer-1 cells.  Bounding stops as soon as the verdict cannot
change: after a forward-checked counterexample (any method), or after an
`lp`/`sdp1`/`sdp1-tight` target that is not certified (these engines return
no witness, so the verdict can then only be "unknown").  The remaining
targets keep their place in the report with status "skipped".  `oracle` and
`sample-ub` go on past an unconfirmed non-robust target.  `--metrics`
compares the bounds target by target, so with it every target is bounded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from bnncert.encode import (
    PerturbationRegion,
    VerificationInstance,
    encode_lp,
    encode_milp,
    encode_standard,
    encode_tightened,
    objective_targeted,
)
from bnncert.model import (
    FoldedBnn,
    fold_batchnorm,
    forward,
    load_inputs,
    load_model,
    stabilize,
    weight_sparsity,
)
from bnncert.oracle import exact_minimum, feasible_patterns, relative_improvement, sample_logits
from bnncert.poly import MultilinearPoly
from bnncert.sdp import (
    ConicProblem,
    assemble_moment_sdp,
    export_sdpa,
    to_conic,
    write_mps,
)
from bnncert.solver import (
    ConicSetup,
    RigorousBound,
    SolveOptions,
    SolveResult,
    conic_setup,
    rigorous_lower_bound,
    solve_conic,
)

__all__ = ["TargetReport", "VerdictReport", "main", "run_verify", "run_export"]

METHODS = ("lp", "sdp1", "sdp1-tight", "oracle", "sample-ub")

#: pixel-value deltas are scaled to the [-1,1] input domain: out of 255 pixel
#: levels, an linf delta spans 2/255 per level of the symmetric domain
#: (1/127.5), while the l2 budget is conventionally quoted against the raw
#: 0..255 scale (1/255).
PIXEL_SCALE = {"linf": 1.0 / 127.5, "l2": 1.0 / 255.0}

#: region points drawn per query by `sample_logits`, besides the center; the
#: attack, `sample-ub` and `--metrics` all read this one sample
SAMPLES = 512


@dataclass
class TargetReport:
    target: int
    method: str
    lower_bound: Optional[float]
    approximate: Optional[float]
    status: str  # robust | falsified | unknown | skipped (verdict already decided)
    wall_time: float
    iterations: Optional[int] = None
    solver_status: Optional[str] = None


@dataclass
class VerdictReport:
    model_path: str
    model_sha256: str
    widths: tuple
    input_index: int
    input_values: tuple
    true_label: int
    norm: str
    eps: Optional[float]  # None for an infinite radius: JSON has no infinity
    pixel_scale: bool
    method: str
    seed: int
    tol: float
    max_iter: int
    targets: list
    verdict: str
    counterexample: Optional[tuple]
    metrics: Optional[dict]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["widths"] = list(self.widths)
        d["input_values"] = list(self.input_values)
        d["counterexample"] = (
            None if self.counterexample is None else list(self.counterexample)
        )
        return d

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _prepare(args) -> tuple[FoldedBnn, np.ndarray, int, PerturbationRegion, float]:
    net = stabilize(fold_batchnorm(load_model(args.model)))
    inputs = load_inputs(args.input)
    if not (1 <= args.index <= inputs.shape[0]):
        raise ValueError(f"--index {args.index} outside 1..{inputs.shape[0]}")
    x0 = inputs[args.index - 1]
    if x0.shape[0] != net.input_dim:
        raise ValueError(
            f"input width {x0.shape[0]} does not match network input {net.input_dim}"
        )
    eps = args.eps
    if eps < 0:
        raise ValueError("--eps must be nonnegative")
    if args.pixel_scale:
        eps = eps * PIXEL_SCALE[args.norm]
    region = (
        PerturbationRegion.linf(x0, eps)
        if args.norm == "linf"
        else PerturbationRegion.l2(x0, eps)
    )
    label = args.label if args.label is not None else forward(net, x0).label
    if not (1 <= label <= net.n_classes):
        raise ValueError(f"--label {label} outside 1..{net.n_classes}")
    return net, x0, label, region, eps


def _find_counterexample(
    net: FoldedBnn, points: np.ndarray, logits: np.ndarray, true_label: int
) -> Optional[np.ndarray]:
    """The sampling attack: the first row of `sample_logits` whose label
    differs, confirmed with `forward` before it is returned.  That one-row run
    of the network's definition is the proof behind a "falsified" verdict."""
    for x0 in points[np.argmax(logits, axis=1) + 1 != true_label]:
        if forward(net, x0).label != true_label:
            return x0
    return None


@dataclass(frozen=True)
class _Relaxation:
    """One query's relaxation in conic form, shared by its attack targets:
    from one target to the next only the objective changes, so the encoding,
    the moment assembly, the conic form and the solver setup are built once."""

    instance: VerificationInstance
    problem: ConicProblem
    setup: ConicSetup
    cliques: tuple

    def bound(
        self, objective: MultilinearPoly, opts: SolveOptions, settle: bool
    ) -> tuple[SolveResult, RigorousBound]:
        """Solve for one target's objective; with `settle`, stop at the first
        iterate whose rigorous bound is positive.  Each iterate is rigorized
        at most once."""
        constraints = replace(self.instance.constraints, objective=objective)
        instance = replace(self.instance, constraints=constraints)
        bounds: dict[int, RigorousBound] = {}

        def certified(res: SolveResult) -> bool:
            bounds[res.iterations] = rigorous_lower_bound(res, instance, self.cliques)
            return bounds[res.iterations].value > 0

        res = solve_conic(
            self.problem.with_objective(objective),
            opts,
            self.setup,
            certified if settle else None,
        )
        rb = bounds.get(res.iterations)
        if rb is None:
            rb = rigorous_lower_bound(res, instance, self.cliques)
        return res, rb


def _encoder(method: str):
    """The encoder whose instance `method` relaxes; None for `oracle` and
    `sample-ub`.  The names are read at each call, so a wrapper installed on
    this module's `encode_*` names (perfbench's tracer) sees the call."""
    relaxed = {"lp": encode_lp, "sdp1": encode_standard, "sdp1-tight": encode_tightened}
    return relaxed.get(method)


def _relax(
    net: FoldedBnn, region: PerturbationRegion, objective: MultilinearPoly, method: str
) -> _Relaxation:
    """Encode the query for `method` (with one target's objective) and
    prepare its conic problem for every target."""
    instance = _encoder(method)(net, region, objective)
    msdp = assemble_moment_sdp(instance)
    problem = to_conic(msdp)
    return _Relaxation(instance, problem, conic_setup(problem), msdp.cliques)


def _bounder(
    method: str,
    net: FoldedBnn,
    region: PerturbationRegion,
    objectives: dict[int, MultilinearPoly],
    opts: SolveOptions,
    upper: np.ndarray,
):
    """The query's bounding function, chosen once: (k, objective) -> (lower
    bound, approximate value, iterations, solver status, attack point).  The
    attack point is an input where the engine found a non-positive margin,
    still to be forward-checked."""
    if method == "sample-ub":
        # the attack read the same rows and found no label change, so no
        # sampled margin is negative: the sample bounds, it never falsifies
        return lambda k, objective: (None, float(upper[k - 1]), None, "sampling", None)
    if method == "oracle":
        # the layer-1 cells do not depend on the target: decided once
        records = feasible_patterns(net, region)

        def exact(k, objective):
            result = exact_minimum(net, records, objective)
            witness = result.witness if result.value <= 0 else None
            return result.value, result.value, None, "exact", witness

        return exact
    relaxation = _relax(net, region, next(iter(objectives.values())), method)

    def relaxed(k, objective):
        res, rb = relaxation.bound(objective, opts, settle=True)
        return rb.value, res.primal_objective, res.iterations, res.status, None

    return relaxed


def _collect_metrics(
    net: FoldedBnn,
    region: PerturbationRegion,
    targets: Sequence[TargetReport],
    objectives: dict[int, MultilinearPoly],
    upper: np.ndarray,
    method: str,
    opts: SolveOptions,
) -> dict:
    """The query's metrics; the improvement reads the query's own
    objectives and sampled margins `upper`."""
    metrics: dict = {
        "weight_sparsity": weight_sparsity(net),
        "widths": list(net.widths),
        "hidden_count": net.hidden_count(),
        "stabilization_log": list(net.log),
    }
    if method in ("sdp1", "sdp1-tight") and region.radius > 0:
        bounded = [entry for entry in targets if entry.lower_bound is not None]
        if bounded:
            lp = _relax(net, region, objectives[bounded[0].target], "lp")
        improvements = {}
        for entry in bounded:
            k = entry.target
            ub = float(upper[k - 1])
            # solved to tolerance: the comparison wants the LP optimum
            tau_lp = lp.bound(objectives[k], opts, settle=False)[1].value
            improvements[str(k)] = {
                "lp_bound": tau_lp,
                "sample_upper": ub,
                "relative_improvement": relative_improvement(entry.lower_bound, tau_lp, ub),
            }
        metrics["improvement"] = improvements
    return metrics


def run_verify(args) -> int:
    net, x0, label, region, eps = _prepare(args)
    opts = SolveOptions(tol=args.tol, max_iter=args.max_iter)
    points, logits = sample_logits(net, region, SAMPLES, args.seed)
    counterexample = _find_counterexample(net, points, logits, label)
    # each class's least sampled margin; at eps 0 the center's exact margin
    upper = np.min(logits[:, label - 1, None] - logits, axis=0)
    targets: list[TargetReport] = []
    objectives: dict[int, MultilinearPoly] = {}

    if eps == 0:
        for k in range(1, net.n_classes + 1):
            if k == label:
                continue
            margin = float(upper[k - 1])
            status = (
                "robust" if margin > 0
                else "falsified" if counterexample is not None
                else "unknown"
            )
            targets.append(TargetReport(k, "exact-forward", margin, margin, status, 0.0))
    elif counterexample is None:
        objectives = {
            k: objective_targeted(net, label, k)
            for k in range(1, net.n_classes + 1)
            if k != label
        }
        bound = _bounder(args.method, net, region, objectives, opts, upper)
        relaxed = _encoder(args.method) is not None
        decided = False
        for k, objective in objectives.items():
            if decided:
                targets.append(TargetReport(k, args.method, None, None, "skipped", 0.0))
                continue
            t0 = time.perf_counter()
            lower, approx, iters, sstat, witness = bound(k, objective)
            wall = time.perf_counter() - t0
            status = "robust" if lower is not None and lower > 0 else "unknown"
            # an engine's attack point downgrades the verdict only once
            # a forward pass confirms it
            if witness is not None and forward(net, witness).label != label:
                status = "falsified"
                counterexample = witness
            targets.append(TargetReport(k, args.method, lower, approx, status, wall, iters, sstat))
            # a relaxation returns no witness: once one of its targets is
            # not certified, the verdict can only be "unknown".  --metrics
            # compares every target's bound, so it bounds them all.
            decided = not args.metrics and (
                counterexample is not None or (relaxed and status != "robust")
            )

    if counterexample is not None:
        verdict = "falsified"
    elif targets and all(t.status == "robust" for t in targets):
        verdict = "robust"
    else:
        verdict = "unknown"

    metrics = (
        _collect_metrics(net, region, targets, objectives, upper, args.method, opts)
        if args.metrics
        else None
    )
    report = VerdictReport(
        model_path=str(args.model),
        model_sha256=_sha256(args.model),
        widths=net.widths,
        input_index=args.index,
        input_values=tuple(float(v) for v in x0),
        true_label=label,
        norm=args.norm,
        eps=None if math.isinf(eps) else eps,
        pixel_scale=bool(args.pixel_scale),
        method=args.method,
        seed=args.seed,
        tol=args.tol,
        max_iter=args.max_iter,
        targets=[asdict(t) for t in targets],
        verdict=verdict,
        counterexample=(
            None if counterexample is None else tuple(float(v) for v in counterexample)
        ),
        metrics=metrics,
    )
    if args.json:
        report.save(args.json)

    print(f"model {args.model} (sha256 {report.model_sha256[:12]}...), widths {net.widths}")
    print(f"input #{args.index}, true label {label}, {args.norm} radius {eps:g}")
    for t in targets:
        if t.status == "skipped":
            print(f"  target {t.target}: [{t.method}] skipped, verdict already decided")
            continue
        lb = "-" if t.lower_bound is None else f"{t.lower_bound:.6g}"
        ap = "-" if t.approximate is None else f"{t.approximate:.6g}"
        print(
            f"  target {t.target}: [{t.method}] bound {lb} (approx {ap}) -> {t.status}"
            f" ({t.wall_time:.3f}s)"
        )
    print(f"verdict: {verdict}")
    return {"robust": 0, "falsified": 1, "unknown": 2}[verdict]


def run_export(args) -> int:
    net, x0, label, region, eps = _prepare(args)
    if eps == 0:
        raise ValueError("export needs a positive radius")
    target = args.target
    if target is None:
        target = 1 if label != 1 else 2
    if target == label:
        raise ValueError("--target must differ from the true label")
    if args.threshold is not None and args.kind == "sdpa":
        raise ValueError("--threshold applies to --kind mps only")
    objective = objective_targeted(net, label, target)
    if args.kind == "sdpa":
        instance = _encoder(args.method)(
            net, region, objective, true_label=label, target=target
        )
        export_sdpa(assemble_moment_sdp(instance), args.out)
    else:
        instance = encode_milp(
            net,
            region,
            objective,
            feasibility_threshold=args.threshold,
            true_label=label,
            target=target,
        )
        write_mps(instance, args.out)
    print(f"wrote {args.kind} file: {args.out} (true label {label}, target {target})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnncert",
        description="Certify sign-activation network robustness (LP / moment-SDP / exact).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--input", required=True, help="reference input file (one vector per line)")
        p.add_argument("--index", type=int, default=1, help="1-based input row (default 1)")
        p.add_argument("--label", type=int, default=None, help="true label (default: network's own prediction)")
        p.add_argument("--norm", choices=("linf", "l2"), default="linf")
        p.add_argument("--eps", type=float, required=True, help="perturbation radius")
        p.add_argument(
            "--pixel-scale",
            action="store_true",
            help="interpret --eps in 0..255 pixel levels (linf: /127.5, l2: /255)",
        )

    pv = sub.add_parser("verify", help="compute a robustness verdict")
    common(pv)
    pv.add_argument("--method", choices=METHODS, default="sdp1-tight")
    pv.add_argument("--tol", type=float, default=1e-6)
    pv.add_argument("--max-iter", type=int, default=50000)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--json", default=None, help="write the full report to this path")
    pv.add_argument("--metrics", action="store_true", help="add LP/sampling comparison metrics")

    pe = sub.add_parser("export", help="write a solver exchange file")
    common(pe)
    pe.add_argument("--kind", choices=("sdpa", "mps"), required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument(
        "--method",
        choices=("sdp1", "sdp1-tight"),
        default="sdp1-tight",
        help="moment relaxation flavor for --kind sdpa",
    )
    pe.add_argument("--target", type=int, default=None, help="attack target class")
    pe.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="MPS only: export attack feasibility (objective <= threshold) instead of the bound problem",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a malformed command line,
        # which would read as "inconclusive"; a usage error is an error
        return 3 if exc.code else 0
    try:
        if args.command == "verify":
            return run_verify(args)
        return run_export(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # a defect rather than an input error, but an exception escaping
        # here would exit 1, which reads as "falsified"
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
