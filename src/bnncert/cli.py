"""Command-line front end: `verify` for verdicts, `export` for solver files.

Exit codes: 0 the query is certified robust, 1 a counterexample was found,
2 inconclusive, 3 error (malformed command line, bad inputs, degenerate
network, unsupported combo).

A robustness query is: does the predicted label of the reference input
survive every perturbation in the region?  `verify` answers per attack
target k != true label by lower-bounding the logit margin; "robust" demands a
strictly positive rigorous bound for every target, "falsified" demands an
explicit region point whose forward label differs.  Sampling always runs
opportunistically first (seeded, cheap) so an easily-falsified query never
burns solver time.

Targets are bounded in class order, and bounding stops as soon as the
verdict cannot change: after a forward-checked counterexample (any method),
or after an `lp`/`sdp1`/`sdp1-tight` target that is not certified (these
engines return no witness, so the verdict can then only be "unknown").  The
remaining targets keep their place in the report with status "skipped".
`oracle` and `sample-ub` go on past an unconfirmed non-robust target, since
a later target may still falsify.  `--metrics` compares the bounds target by
target, so with it every target is bounded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from bnncert.encode import (
    PerturbationRegion,
    StabilizationNeeded,
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
    forward_labels,
    load_inputs,
    load_model,
    stabilize,
    weight_sparsity,
)
from bnncert.oracle import (
    exact_verify,
    relative_improvement,
    sample_region,
    sample_upper_bound,
)
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
    eps: float
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
    net: FoldedBnn,
    region: PerturbationRegion,
    true_label: int,
    n_samples: int,
    seed: int,
) -> Optional[np.ndarray]:
    """Seeded sampling attack: the first region point whose forward label
    differs.  All samples are labelled in one batched pass.  A mismatch is
    confirmed with `forward` before it is returned: that one-row run of the
    network's definition is the proof behind a "falsified" verdict."""
    if forward(net, region.center).label != true_label:
        return region.center.copy()
    if region.radius == 0:
        return None
    points = sample_region(region, n_samples, np.random.default_rng(seed))
    for x0 in points[forward_labels(net, points) != true_label]:
        if forward(net, x0).label != true_label:
            return x0
    return None


def _margin_targets(net: FoldedBnn, x0: np.ndarray, label: int) -> list[TargetReport]:
    """eps = 0: verdicts from the exact forward margins, no encodings."""
    tr = forward(net, x0)
    out = []
    for k in range(1, net.n_classes + 1):
        if k == label:
            continue
        t0 = time.perf_counter()
        margin = float(tr.logits[label - 1] - tr.logits[k - 1])
        status = "robust" if margin > 0 else ("falsified" if tr.label != label else "unknown")
        out.append(
            TargetReport(
                target=k,
                method="exact-forward",
                lower_bound=margin,
                approximate=margin,
                status=status,
                wall_time=time.perf_counter() - t0,
            )
        )
    return out


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
        self, objective: MultilinearPoly, k: int, opts: SolveOptions, settle: bool
    ) -> tuple[SolveResult, RigorousBound]:
        """Solve for target k; with `settle`, stop at the first iterate whose
        rigorous bound is positive.  Each iterate is rigorized at most once."""
        constraints = replace(self.instance.constraints, objective=objective)
        instance = replace(self.instance, constraints=constraints, target=k)
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
    net: FoldedBnn,
    region: PerturbationRegion,
    label: int,
    k: int,
    objective: MultilinearPoly,
    method: str,
    opts: SolveOptions,
) -> _Relaxation:
    """Encode the query for `method` (with target k's objective) and prepare
    its conic problem for every target."""
    instance = _encoder(method)(net, region, objective, true_label=label, target=k)
    msdp = assemble_moment_sdp(instance)
    problem = to_conic(msdp)
    return _Relaxation(instance, problem, conic_setup(problem), msdp.cliques)


def _bound_one_target(
    net: FoldedBnn,
    region: PerturbationRegion,
    k: int,
    objective: MultilinearPoly,
    method: str,
    opts: SolveOptions,
    relaxation: Optional[_Relaxation],
) -> tuple[TargetReport, Optional[np.ndarray]]:
    """The target's report, plus the engine's attack point when the engine
    found a non-positive margin there (still to be forward-checked)."""
    t0 = time.perf_counter()
    witness = None
    if relaxation is not None:
        res, rb = relaxation.bound(objective, k, opts, settle=True)
        lower, approx = rb.value, res.primal_objective
        iters, sstat = res.iterations, res.status
    elif method == "oracle":
        result = exact_verify(net, region, objective)
        lower = approx = result.value
        iters, sstat = None, "exact"
        if lower <= 0:
            witness = result.witness
    elif method == "sample-ub":
        sb = sample_upper_bound(net, region, objective, n_samples=512, seed=opts.seed)
        report = TargetReport(
            target=k,
            method=method,
            lower_bound=None,
            approximate=sb.value,
            status="unknown",
            wall_time=time.perf_counter() - t0,
            solver_status="sampling",
        )
        return report, (sb.x0 if sb.value < 0 else None)
    else:
        raise ValueError(f"unknown method {method!r}")
    status = "robust" if lower > 0 else "unknown"
    report = TargetReport(
        target=k,
        method=method,
        lower_bound=lower,
        approximate=approx,
        status=status,
        wall_time=time.perf_counter() - t0,
        iterations=iters,
        solver_status=sstat,
    )
    return report, witness


def _collect_metrics(
    net: FoldedBnn,
    region: PerturbationRegion,
    label: int,
    targets: Sequence[TargetReport],
    method: str,
    opts: SolveOptions,
) -> dict:
    metrics: dict = {
        "weight_sparsity": weight_sparsity(net),
        "widths": list(net.widths),
        "hidden_count": net.hidden_count(),
        "stabilization_log": list(net.log),
    }
    if method in ("sdp1", "sdp1-tight") and region.radius > 0:
        objectives = {
            entry.target: objective_targeted(net, label, entry.target)
            for entry in targets
            if entry.lower_bound is not None
        }
        lp: Optional[_Relaxation] = None
        if objectives:
            k, objective = next(iter(objectives.items()))
            try:
                lp = _relax(net, region, label, k, objective, "lp", opts)
            except StabilizationNeeded:
                # the LP cannot encode this region; the comparison is simply
                # not available, the verdict stands
                pass
        improvements = {}
        for entry in targets:
            if entry.target not in objectives:
                continue
            objective = objectives[entry.target]
            ub = sample_upper_bound(
                net, region, objective, n_samples=512, seed=opts.seed
            ).value
            if lp is None:
                tau_lp = rel = None
            else:
                # solved to tolerance: the comparison wants the LP optimum
                tau_lp = lp.bound(objective, entry.target, opts, settle=False)[1].value
                rel = relative_improvement(entry.lower_bound, tau_lp, ub)
            improvements[str(entry.target)] = {
                "lp_bound": tau_lp,
                "sample_upper": ub,
                "relative_improvement": rel,
            }
        metrics["improvement"] = improvements
    return metrics


def run_verify(args) -> int:
    net, x0, label, region, eps = _prepare(args)
    opts = SolveOptions(tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    counterexample: Optional[np.ndarray] = None

    if eps == 0:
        targets = _margin_targets(net, x0, label)
        if any(t.status == "falsified" for t in targets):
            counterexample = x0
    else:
        counterexample = _find_counterexample(net, region, label, 200, args.seed)
        targets = []
        if counterexample is None:
            objectives = {
                k: objective_targeted(net, label, k)
                for k in range(1, net.n_classes + 1)
                if k != label
            }
            relaxation = None
            if _encoder(args.method) is not None:
                k, objective = next(iter(objectives.items()))
                relaxation = _relax(net, region, label, k, objective, args.method, opts)
            decided = False
            for k, objective in objectives.items():
                if decided:
                    targets.append(TargetReport(k, args.method, None, None, "skipped", 0.0))
                    continue
                entry, witness = _bound_one_target(
                    net, region, k, objective, args.method, opts, relaxation
                )
                # an engine's attack point downgrades the verdict only once
                # a forward pass confirms it
                if witness is not None and forward(net, witness).label != label:
                    entry.status = "falsified"
                    counterexample = witness
                targets.append(entry)
                # a relaxation returns no witness: once one of its targets is
                # not certified, the verdict can only be "unknown".  --metrics
                # compares every target's bound, so it bounds them all.
                decided = not args.metrics and (
                    counterexample is not None
                    or (relaxation is not None and entry.status != "robust")
                )

    if counterexample is not None:
        verdict = "falsified"
    elif targets and all(t.status == "robust" for t in targets):
        verdict = "robust"
    else:
        verdict = "unknown"

    metrics = (
        _collect_metrics(net, region, label, targets, args.method, opts)
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
        eps=eps,
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


if __name__ == "__main__":
    sys.exit(main())
