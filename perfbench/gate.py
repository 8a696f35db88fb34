"""References and the correctness gate of the verify benchmark.

References are computed outside every timed region, once per region (model
and linf radius) of the workload, by the benchmark's own code; nothing here
calls `bnncert`:

- `sampled`: for every attack target, the least logit margin over a large
  seeded sample of the region, from the benchmark's own forward pass, and
  whether any sample changes the label;
- `exact`: on `worked`, whose first hidden layer has two neurons, the exact
  optimum per target as a fraction.  Later layers follow from the first
  layer's sign pattern, so the optimum is a minimum over the patterns some
  point of the region admits; `feasible` decides each pattern by
  Fourier-Motzkin elimination in exact arithmetic.

Two computations must agree: the exact optimum may not exceed the sampled
margin, and references are cached by workload, seed and a digest of the
generated inputs, so a later run of the same seed recomputes them and must
reproduce the cached values exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads

#: sampled points per region for the sampling reference, drawn in chunks so
#: the benchmark's own arrays stay small next to the program's memory
REFERENCE_SAMPLES = 50000
CHUNK = 5000
#: workloads whose first hidden layer is small enough to enumerate
EXACT_REFERENCE = ("worked",)
#: slack for comparing float bounds with exact or sampled values
TOL = 1e-9


class GateError(ValueError):
    """A wrong verdict, an unsound bound or disagreeing references."""


def _key_str(key) -> str:
    return f"{key[0]}|{key[1]!r}"


def feasible(rows) -> bool:
    """Whether some x satisfies every row (a, c): a.x <= c.

    Fourier-Motzkin elimination over fractions: each variable is removed by
    combining every row that bounds it from above with every row that bounds
    it from below.
    """
    for j in range(len(rows[0][0]) if rows else 0):
        upper, lower, rest = [], [], []
        for row in rows:
            (upper if row[0][j] > 0 else lower if row[0][j] < 0 else rest).append(row)
        for (au, cu), (al, cl) in itertools.product(upper, lower):
            fu, fl = 1 / au[j], -1 / al[j]
            rest.append(([fu * u + fl * v for u, v in zip(au, al)], fu * cu + fl * cl))
        rows = rest
    return all(c >= 0 for _, c in rows)


def _fractions(values) -> list[Fraction]:
    return [Fraction(float(v)) for v in values]


def exact_logits(doc: dict, lo, hi) -> list[list[Fraction]]:
    """Exact logits of every sign pattern that some x in [lo, hi] admits.

    The exact optimum is defined, as `bnncert.oracle` defines it, over the
    closure of each pattern's cell: a neuron of sign s needs s * (w.x + b) >= 0,
    so at a zero pre-activation both signs are admitted.  This differs from
    the forward pass only on such measure-zero ties, and it is the value every
    relaxation bounds from below.
    """
    layers = [([_fractions(r) for r in layer["weights"]], _fractions(layer["bias"]))
              for layer in doc["layers"]]
    n0 = len(lo)
    box = [([Fraction(int(i == j)) for i in range(n0)], Fraction(float(hi[j])))
           for j in range(n0)]
    box += [([Fraction(-int(i == j)) for i in range(n0)], -Fraction(float(lo[j])))
            for j in range(n0)]

    def affine(w, b, h):
        return [sum(wv * hv for wv, hv in zip(row, h)) + bv for row, bv in zip(w, b)]

    (w1, b1), out = layers[0], []
    for pattern in itertools.product((1, -1), repeat=len(b1)):
        rows = box + [([-s * v for v in w], s * b) for w, b, s in zip(w1, b1, pattern)]
        if not feasible(rows):
            continue
        patterns = [list(pattern)]
        for w, b in layers[1:-1]:
            patterns = [list(h) for prev in patterns for h in itertools.product(
                *[(1, -1) if z == 0 else (1,) if z > 0 else (-1,) for z in affine(w, b, prev)])]
        out += [affine(*layers[-1], h) for h in patterns]
    return out


def compute(wl: workloads.Workload) -> dict:
    """All references of a workload, keyed by region."""
    refs = {}
    rng = np.random.default_rng([wl.seed, workloads.WORKLOADS.index(wl.name), 1])
    for key in sorted({(q.model, q.eps) for q in wl.queries}):
        model, eps = key
        doc, x0 = wl.docs[model], np.asarray(wl.inputs[model])
        logits0, label0 = workloads.forward_batch(doc, x0)
        label = int(label0[0])
        margins, cex = np.full(logits0.shape[1], np.inf), False
        for _ in range(REFERENCE_SAMPLES // CHUNK):
            pts = workloads.sample_region(rng, x0, eps, CHUNK)
            logits, labels = workloads.forward_batch(doc, pts)
            margins = np.minimum(margins, np.min(logits[:, [label - 1]] - logits, axis=0))
            cex = cex or bool(np.any(labels != label))
        targets = [k for k in range(1, logits0.shape[1] + 1) if k != label]
        ref = {
            "label": label,
            "sample_cex": cex,
            "sampled": {str(k): float(margins[k - 1]) for k in targets},
        }
        # a region the sample already falsifies needs no exact optimum
        if wl.name in EXACT_REFERENCE and not ref["sample_cex"]:
            # the same clipped box as the sampler and the CLI's region
            lo, hi = np.clip(x0 - eps, -1.0, 1.0), np.clip(x0 + eps, -1.0, 1.0)
            values = exact_logits(doc, lo, hi)
            ref["exact"] = {str(k): str(min(v[label - 1] - v[k - 1] for v in values))
                            for k in targets}
            for k in targets:
                if Fraction(ref["exact"][str(k)]) > ref["sampled"][str(k)] + TOL:
                    raise GateError(f"{_key_str(key)} target {k}: exact optimum "
                                    f"{ref['exact'][str(k)]} above sampled margin "
                                    f"{ref['sampled'][str(k)]}")
        refs[key] = ref
    return refs


def check_cached(wl: workloads.Workload, refs: dict, cache_dir: Path) -> bool:
    """Compare with the references an earlier run cached for the same inputs.

    Returns True when a cached copy existed (and agreed); writes it otherwise.
    """
    digest = hashlib.sha256(json.dumps([wl.docs, wl.inputs], sort_keys=True).encode())
    doc = {_key_str(k): v for k, v in sorted(refs.items())}
    path = cache_dir / f"{wl.name}-{wl.seed}-{digest.hexdigest()[:16]}.json"
    if path.exists():
        if json.loads(path.read_text()) != json.loads(json.dumps(doc)):
            raise GateError(f"references differ from the cached copy in {path}")
        return True
    cache_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return False


def _in_region(x, x0, eps: float) -> bool:
    x, x0 = np.asarray(x, dtype=float), np.asarray(x0, dtype=float)
    if x.shape != x0.shape or np.any(np.abs(x) > 1.0 + 1e-12):
        return False
    return bool(np.max(np.abs(x - x0)) <= eps + 1e-12)


def check(wl: workloads.Workload, query: workloads.Query, rc: int, report: dict,
          refs: dict) -> None:
    """Raise GateError if a completed query's report contradicts the references."""
    ref = refs[(query.model, query.eps)]
    where = f"query {query.qid} ({query.model} linf {query.eps} {query.method})"
    verdict = report["verdict"]
    if rc != {"robust": 0, "falsified": 1, "unknown": 2}[verdict]:
        raise GateError(f"{where}: exit {rc} for verdict {verdict}")
    if report["true_label"] != ref["label"]:
        raise GateError(f"{where}: true label {report['true_label']} != {ref['label']}")
    exact = {k: Fraction(v) for k, v in ref.get("exact", {}).items()}
    for t in report["targets"]:
        k, lb = str(t["target"]), t["lower_bound"]
        if lb is None:
            continue
        if t["method"] == "oracle" and k in exact and lb != float(exact[k]):
            raise GateError(f"{where}: oracle value {lb} for target {k} != reference "
                            f"{exact[k]}")
        ceiling = min([ref["sampled"][k]] + ([float(exact[k])] if k in exact else []))
        if lb > ceiling + TOL * (1.0 + abs(ceiling)):
            raise GateError(f"{where}: bound {lb} for target {k} above reference {ceiling}")
    if verdict == "robust":
        if ref["sample_cex"]:
            raise GateError(f"{where}: robust, but a reference sample changes the label")
        if any(v <= 0 for v in exact.values()):
            raise GateError(f"{where}: robust, but the exact optimum is not positive")
    elif verdict == "falsified":
        x = report["counterexample"]
        if x is None or not _in_region(x, wl.inputs[query.model], query.eps):
            raise GateError(f"{where}: counterexample missing or outside the region")
        if int(workloads.forward_batch(wl.docs[query.model], x)[1][0]) == ref["label"]:
            raise GateError(f"{where}: counterexample keeps the true label")


def bound_gaps(refs: dict, checked: list) -> list[float]:
    """reference - rigorous bound for every target a relaxation bounded."""
    gaps = []
    for query, report in checked:
        ref = refs[(query.model, query.eps)]
        for t in report["targets"]:
            if t["method"] in ("lp", "sdp1", "sdp1-tight") and t["lower_bound"] is not None:
                k = str(t["target"])
                reference = float(Fraction(ref["exact"][k])) if "exact" in ref else ref["sampled"][k]
                gaps.append(reference - t["lower_bound"])
    return gaps
