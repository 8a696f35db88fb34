"""Seeded workload generators for the verify benchmark.

A workload is a list of `verify` queries over model and input files that the
generator writes.  Everything here depends only on the seed and on numpy,
never on `bnncert`, so the parent and a change receive the same inputs for
the same seed.  `forward_batch` is the benchmark's own forward pass: it picks
inputs, re-checks counterexamples and draws the sampling references.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKED_MODEL = {
    "widths": [3, 2, 2, 2],
    "layers": [
        {"weights": [[-1, 1, 1], [-1, -1, 1]], "bias": [1.5, 2.0]},
        {"weights": [[-1, -1], [-1, 1]], "bias": [1.0, -0.5]},
        {"weights": [[-1, 1], [-1, -1]], "bias": [-2.0, -1.0]},
    ],
}
WORKED_INPUT = (0.0, 0.5, 0.0)

#: generator settings and solver options of each workload, also quoted in
#: BENCHMARK.json and perfbench/README.md
SETTINGS = {
    "worked": {
        "radii": [0.2, 0.5, 1.0],
        "methods": ["lp", "sdp1", "sdp1-tight", "oracle"],
        "metrics_queries": [(0.2, "sdp1-tight")],
        "solver": ["--tol", "1e-4", "--max-iter", "2000"],
    },
    "random-sdp": {
        # (widths, nets drawn at these widths)
        "nets": [((10, 8, 8, 3), 4), ((20, 12, 12, 4), 1)],
        "radii": [0.1],
        "methods": ["sdp1-tight"],
        "solver": ["--tol", "1e-4", "--max-iter", "200"],
    },
}
WORKLOADS = tuple(SETTINGS)

#: ternary weights are drawn with P(-1, 0, +1) = (0.35, 0.3, 0.35); hidden
#: biases are nv * U(-0.3, 0.3), so no hidden neuron is constant over the
#: whole input box; output biases are U(-1, 1)
WEIGHT_P = (0.35, 0.3, 0.35)
HIDDEN_BIAS = 0.3
#: inputs are redrawn until SCREEN_SAMPLES and then ATTACK_SAMPLES points of
#: every region find no counterexample, so the CLI's opening attack does not
#: decide the query and it reaches the bounding engine; a net without such an
#: input is redrawn
SCREEN_SAMPLES = 1000
ATTACK_SAMPLES = 20000
MAX_INPUT_DRAWS = 2000
MAX_NET_DRAWS = 50


@dataclass(frozen=True)
class Query:
    qid: int
    model: str  # key into Workload.models
    eps: float  # linf radius
    method: str
    argv: tuple[str, ...]
    report: str  # path of the --json report


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    models: dict  # key -> model path
    docs: dict  # key -> model JSON document
    inputs: dict  # key -> input vector (tuple)
    queries: tuple[Query, ...]


def random_model(rng: np.random.Generator, widths) -> dict:
    layers = []
    for i in range(1, len(widths)):
        w = rng.choice([-1, 0, 1], size=(widths[i], widths[i - 1]), p=WEIGHT_P)
        if i < len(widths) - 1:
            for r in range(w.shape[0]):
                if not w[r].any():
                    w[r, rng.integers(w.shape[1])] = rng.choice([-1, 1])
            b = np.abs(w).sum(axis=1) * rng.uniform(-HIDDEN_BIAS, HIDDEN_BIAS, widths[i])
        else:
            b = rng.uniform(-1.0, 1.0, widths[i])
        layers.append({"weights": w.tolist(), "bias": [float(v) for v in b]})
    return {"widths": list(widths), "layers": layers}


def forward_batch(doc: dict, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logits and 1-based labels of a model document on rows of `xs`.

    sign(0) = +1 and argmax ties go to the lowest class, as in the CLI.
    """
    cur = np.atleast_2d(np.asarray(xs, dtype=float))
    layers = doc["layers"]
    for layer in layers[:-1]:
        z = cur @ np.asarray(layer["weights"], dtype=float).T + np.asarray(layer["bias"])
        cur = np.where(z >= 0, 1.0, -1.0)
    out = layers[-1]
    logits = cur @ np.asarray(out["weights"], dtype=float).T + np.asarray(out["bias"])
    return logits, np.argmax(logits, axis=1) + 1


def sample_region(rng, center, eps: float, n: int) -> np.ndarray:
    """Uniform points of the linf ball around `center`, inside [-1, 1]^n0."""
    center = np.asarray(center, dtype=float)
    lo = np.clip(center - eps, -1.0, 1.0)
    hi = np.clip(center + eps, -1.0, 1.0)
    return rng.uniform(lo, hi, size=(n, center.size))


def _draw_query(rng, widths, radii) -> tuple[dict, tuple[float, ...]]:
    """A random net and an input that no sample of any region falsifies."""
    for _ in range(MAX_NET_DRAWS):
        doc = random_model(rng, widths)
        for _ in range(MAX_INPUT_DRAWS):
            x = np.round(rng.uniform(-1.0, 1.0, widths[0]), 4)
            label = forward_batch(doc, x)[1][0]
            if all(np.all(forward_batch(doc, sample_region(rng, x, eps, n))[1] == label)
                   for n in (SCREEN_SAMPLES, ATTACK_SAMPLES) for eps in radii):
                return doc, tuple(float(v) for v in x)
    raise RuntimeError(f"no net and input meet the attack conditions for {widths}")


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's model and input files under `workdir`."""
    cfg = SETTINGS[name]
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    cli_seed = int(rng.integers(2**31))
    docs, inputs = {}, {}
    if name == "worked":
        docs["toy"] = WORKED_MODEL
        inputs["toy"] = WORKED_INPUT
    else:
        for widths, count in cfg["nets"]:
            for j in range(count):
                key = "-".join(map(str, widths)) + f"-{j}"
                docs[key], inputs[key] = _draw_query(rng, widths, cfg["radii"])

    workdir.mkdir(parents=True, exist_ok=True)
    models = {}
    for key, doc in docs.items():
        models[key] = workdir / f"{key}.json"
        models[key].write_text(json.dumps(doc))
        (workdir / f"{key}.txt").write_text(" ".join(repr(v) for v in inputs[key]) + "\n")

    combos = [(key, eps, method, ())
              for key in docs for eps in cfg["radii"] for method in cfg["methods"]]
    combos += [(key, eps, method, ("--metrics",))
               for key in docs for eps, method in cfg.get("metrics_queries", ())]
    queries = []
    for qid, (key, eps, method, flags) in enumerate(combos):
        report = workdir / f"report-{qid}.json"
        argv = ("verify", "--model", str(models[key]), "--input", str(workdir / f"{key}.txt"),
                "--norm", "linf", "--eps", repr(eps), "--method", method, *cfg["solver"],
                "--seed", str(cli_seed), "--json", str(report), *flags)
        queries.append(Query(qid, key, eps, method, argv, str(report)))
    return Workload(name, seed, {k: str(p) for k, p in models.items()}, docs, inputs,
                    tuple(queries))
