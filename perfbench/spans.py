"""Spans around the calls `bnncert.cli` makes into each package module.

The benchmark's traced pass wraps, from the outside, every public function
that `bnncert.cli` imports from another `bnncert` module, plus the CLI's own
`run_verify` (the root span of a query) and its sampling attack.  Each call
records a span in memory: name, layer, query id, start, end and parent.
`bnncert.solver.smat`/`svec` run once per PSD block per solver iteration, so
they are counted rather than recorded: each enclosing span keeps their call
count and total time.  A span's self time is its duration minus its child
spans and its smat/svec time; smat/svec time is self time of the `sdp` layer.

Layers are the package modules.  `build_cliques` is defined in `encode` but
counts as `sdp`, the stage it serves.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import fmean
from time import perf_counter

LAYERS = ("cli", "model", "encode", "sdp", "solver", "oracle")
LAYER_OVERRIDE = {"build_cliques": "sdp"}
CLI_SPANS = ("run_verify", "_find_counterexample")
ENCODERS = ("encode_lp", "encode_standard", "encode_tightened", "encode_milp")
SOLVES = ("solve_conic", "solve_lp")
LOADERS = ("load_model", "load_inputs", "fold_batchnorm", "stabilize")


@dataclass
class Span:
    index: int
    name: str  # "<layer>.<function>"
    layer: str
    qid: int
    parent: int  # index of the enclosing span, -1 for a root
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct child spans
    leaf_calls: int = 0  # smat/svec calls made directly inside this span
    leaf_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.leaf_s

    def to_dict(self, t0: float) -> dict:
        return {
            "name": self.name, "layer": self.layer, "qid": self.qid, "parent": self.parent,
            "start": self.start - t0, "end": self.end - t0, "self_s": self.self_s,
            "smat_svec_calls": self.leaf_calls, "smat_svec_s": self.leaf_s, **self.info,
        }


def _observe(fn_name: str, args, kwargs, result) -> dict:
    """Problem sizes and outcomes read off a wrapped call's return value."""
    if fn_name == "stabilize":
        before = sum(args[0].hidden_widths)
        return {"hidden": list(result.hidden_widths),
                "removed": before - sum(result.hidden_widths)}
    if fn_name in ENCODERS:
        return {"rows": len(result.constraints.inequalities)}
    if fn_name == "to_conic":
        return {"psd_sizes": list(result.psd_sizes), "cone_dim": int(result.n_rows)}
    if fn_name in SOLVES:
        return {"iterations": int(result.iterations), "status": result.status}
    if fn_name == "rigorous_lower_bound":
        return {"bound": float(result.value),
                "deficit_blocks": sum(1 for d in result.eigenvalue_deficits if d > 0)}
    if fn_name == "exact_verify":
        return {"feasible": int(result.n_feasible), "patterns": 2 ** args[0].hidden_count()}
    if fn_name == "objective_targeted":
        return {"target": int(args[2] if len(args) > 2 else kwargs["target"])}
    return {}


class Tracer:
    """Installs span wrappers into `bnncert.cli` and `bnncert.solver`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.qid = -1
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, cli, solver) -> None:
        for name, fn in list(vars(cli).items()):
            if name in CLI_SPANS:
                layer = "cli"
            elif (inspect.isfunction(fn) and not name.startswith("_")
                  and fn.__module__.startswith("bnncert.") and fn.__module__ != cli.__name__):
                layer = LAYER_OVERRIDE.get(name, fn.__module__.rsplit(".", 1)[1])
            else:
                continue
            self._patch(cli, name, self._span(layer, name, fn))
        for name in ("smat", "svec"):
            self._patch(solver, name, self._leaf(getattr(solver, name)))

    def uninstall(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def _patch(self, module, name: str, wrapper) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def _span(self, layer: str, fn_name: str, fn):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), f"{layer}.{fn_name}", layer, self.qid,
                        -1 if parent is None else parent.index, perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.info["raised"] = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            span.info.update(_observe(fn_name, args, kwargs, result))
            return result

        return wrapper

    def _leaf(self, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            if self._stack:
                self._stack[-1].leaf_calls += 1
                self._stack[-1].leaf_s += dt
            return result

        return wrapper


def query_sizes(spans: list[Span]) -> dict:
    """Per query: inequality rows, PSD blocks, hidden widths and targets."""
    out: dict = defaultdict(lambda: {"rows": [], "psd_sizes": [], "hidden": None, "targets": []})
    for s in spans:
        q = out[s.qid]
        if "rows" in s.info:
            q["rows"].append(s.info["rows"])
        if "psd_sizes" in s.info:
            q["psd_sizes"].append(s.info["psd_sizes"])
        if "hidden" in s.info:
            q["hidden"] = s.info["hidden"]
        if "target" in s.info and s.info["target"] not in q["targets"]:
            q["targets"].append(s.info["target"])
    return dict(out)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts and times of one traced pass."""
    by_fn = defaultdict(list)
    self_s = dict.fromkeys(LAYERS, 0.0)
    leaf_calls = leaf_s = 0.0
    for s in spans:
        by_fn[s.name.split(".", 1)[1]].append(s)
        self_s[s.layer] = self_s.get(s.layer, 0.0) + s.self_s
        self_s["sdp"] += s.leaf_s
        leaf_calls += s.leaf_calls
        leaf_s += s.leaf_s

    def total(*fns):
        return sum(s.duration for fn in fns for s in by_fn[fn])

    solves = [s for fn in SOLVES for s in by_fn[fn] if "iterations" in s.info]
    iterations = sum(s.info["iterations"] for s in solves)
    solve_s = total(*SOLVES)
    encoded = [s.info["rows"] for fn in ENCODERS for s in by_fn[fn] if "rows" in s.info]
    conics = [s.info for s in by_fn["to_conic"] if "psd_sizes" in s.info]
    exact = [s.info for s in by_fn["exact_verify"] if "patterns" in s.info]
    m = {
        "solver.iterations": iterations,
        "solver.max_iter_share": (sum(s.info["status"] == "max_iter" for s in solves) / len(solves)
                                  if solves else 0.0),
        "solver.ms_per_iter": 1000.0 * solve_s / iterations if iterations else 0.0,
        "solver.solves": len(solves),
        "solver.solve_s": solve_s,
        "solver.rigorize_s": total("rigorous_lower_bound"),
        "solver.deficit_blocks": sum(s.info.get("deficit_blocks", 0)
                                     for s in by_fn["rigorous_lower_bound"]),
        "sdp.svec_smat_calls": int(leaf_calls),
        "sdp.svec_smat_s": leaf_s,
        "sdp.assemble_s": total("assemble_moment_sdp"),
        "sdp.psd_blocks": fmean(len(c["psd_sizes"]) for c in conics) if conics else 0.0,
        "sdp.psd_block_max": max((max(c["psd_sizes"], default=0) for c in conics), default=0),
        "sdp.cone_dim": fmean(c["cone_dim"] for c in conics) if conics else 0.0,
        "oracle.exact_calls": len(by_fn["exact_verify"]),
        "oracle.exact_s": total("exact_verify"),
        "oracle.patterns_feasible_ratio": (sum(e["feasible"] for e in exact)
                                           / sum(e["patterns"] for e in exact) if exact else 0.0),
        "model.forward_calls": len(by_fn["forward"]),
        "model.forward_s": total("forward"),
        "model.load_s": total(*LOADERS),
        "model.neurons_removed": sum(s.info.get("removed", 0) for s in by_fn["stabilize"]),
        "encode.stabilization_needed": sum(s.info.get("raised") == "StabilizationNeeded"
                                           for fn in ENCODERS for s in by_fn[fn]),
        "encode.rows": fmean(encoded) if encoded else 0.0,
        "cli.verify_s": total("run_verify"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m
