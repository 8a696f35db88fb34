"""Loading, normalising and running ternary-weight sign-activation networks.

A network here is a stack of dense layers with weights in {-1, 0, +1},
real-valued biases and sign activations; the output layer is affine and the
predicted class is the argmax of its logits.  Batch normalisation, when
present, is folded into the effective biases so that every downstream encoding
sees only ternary weights and real biases.  `stabilize` then removes neurons
whose sign is constant (|bias| >= row 1-norm), propagating the constant into
the next layer, which establishes the standing assumption |b_k| < nv_k used by
all relaxations.

Class labels and neuron indices are 1-based throughout the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "BatchNorm",
    "FoldedBnn",
    "ForwardTrace",
    "RawBnn",
    "fold_batchnorm",
    "forward",
    "forward_activations",
    "forward_labels",
    "forward_raw",
    "load_inputs",
    "load_model",
    "row_norm1",
    "stabilize",
    "weight_sparsity",
]

DEFAULT_BN_EPSILON = 1e-5


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BatchNorm:
    """Per-neuron batch-norm parameters of one layer."""

    gamma: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    var: np.ndarray

    def __post_init__(self) -> None:
        for name in ("gamma", "beta", "mu", "var"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name), dtype=float)))
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"batch-norm {name} must be finite")
        if np.any(self.var < 0):
            raise ValueError("batch-norm variance must be nonnegative")


@dataclass(frozen=True)
class RawBnn:
    """A parsed network before batch-norm folding.

    widths = (n_0, ..., n_{L+1}); layer i (1-based) maps width n_{i-1} to n_i.
    ``weights[i-1]`` is the n_i x n_{i-1} ternary matrix of layer i,
    ``bn[i-1]`` its optional batch-norm block (never present on the output
    layer).
    """

    widths: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    bn: tuple[Optional[BatchNorm], ...]
    bn_epsilon: float = DEFAULT_BN_EPSILON

    def __post_init__(self) -> None:
        if len(self.widths) < 3:
            raise ValueError("need at least one hidden layer (widths n0, n1, n_out)")
        if any(w < 1 for w in self.widths):
            raise ValueError("layer widths must be positive")
        n_layers = len(self.widths) - 1
        if not (len(self.weights) == len(self.biases) == len(self.bn) == n_layers):
            raise ValueError("layer count inconsistent with widths")
        frozen_w, frozen_b = [], []
        for i, (w, b) in enumerate(zip(self.weights, self.biases), start=1):
            w = np.asarray(w)
            b = np.asarray(b, dtype=float)
            if w.shape != (self.widths[i], self.widths[i - 1]):
                raise ValueError(
                    f"layer {i}: weight shape {w.shape} does not match widths "
                    f"({self.widths[i]}, {self.widths[i-1]})"
                )
            if b.shape != (self.widths[i],):
                raise ValueError(f"layer {i}: bias length {b.shape} != {self.widths[i]}")
            if not np.isin(w, (-1, 0, 1)).all():
                raise ValueError(f"layer {i}: non-ternary weight")
            if not np.all(np.isfinite(b)):
                raise ValueError(f"layer {i}: non-finite bias")
            frozen_w.append(_freeze(w.astype(np.int64)))
            frozen_b.append(_freeze(b))
            block = self.bn[i - 1]
            if block is not None and block.gamma.shape != (self.widths[i],):
                raise ValueError(f"layer {i}: batch-norm width mismatch")
        if self.bn[-1] is not None:
            raise ValueError("output layer must not carry batch-norm")
        if not 0 < self.bn_epsilon < np.inf:
            raise ValueError("bn_epsilon must be positive and finite")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        object.__setattr__(self, "weights", tuple(frozen_w))
        object.__setattr__(self, "biases", tuple(frozen_b))
        object.__setattr__(self, "bn", tuple(self.bn))

    @property
    def depth(self) -> int:
        """Number of hidden (sign-activated) layers L."""
        return len(self.widths) - 2


@dataclass(frozen=True)
class FoldedBnn:
    """Ternary weights + real biases only; what the encodings consume.

    Produced by `fold_batchnorm` and validated by `stabilize`.  ``log``
    records folded batch-norm layers and constant-propagated neurons.
    """

    widths: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    log: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n_layers = len(self.widths) - 1
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise ValueError("layer count inconsistent with widths")
        frozen_w, frozen_b = [], []
        for i, (w, b) in enumerate(zip(self.weights, self.biases), start=1):
            w = np.asarray(w)
            if w.shape != (self.widths[i], self.widths[i - 1]):
                raise ValueError(f"layer {i}: weight shape mismatch")
            if not np.isin(w, (-1, 0, 1)).all():
                raise ValueError(f"layer {i}: non-ternary weight after folding")
            b = np.asarray(b, dtype=float)
            if not np.all(np.isfinite(b)):
                raise ValueError(f"layer {i}: non-finite bias")
            # every logit margin carries a difference of two output biases
            if i == n_layers and b.size and not np.isfinite(float(b.max()) - float(b.min())):
                raise ValueError(f"layer {i}: output bias differences overflow binary64")
            frozen_w.append(_freeze(w.astype(np.int64)))
            frozen_b.append(_freeze(b))
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        object.__setattr__(self, "weights", tuple(frozen_w))
        object.__setattr__(self, "biases", tuple(frozen_b))

    @property
    def depth(self) -> int:
        return len(self.widths) - 2

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def n_classes(self) -> int:
        return self.widths[-1]

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return self.widths[1:-1]

    def hidden_count(self) -> int:
        return sum(self.hidden_widths)

    def weight(self, layer: int) -> np.ndarray:
        """Weight matrix of 1-based layer index (layer L+1 = output)."""
        return self.weights[layer - 1]

    def bias(self, layer: int) -> np.ndarray:
        return self.biases[layer - 1]

    def is_stabilized(self) -> bool:
        """True iff every hidden neuron satisfies |b_k| < nv_k (nv_k > 0)."""
        for i in range(1, self.depth + 1):
            nv = row_norm1(self.weight(i))
            if np.any(np.abs(self.bias(i)) >= nv):
                return False
        return True

    def require_stabilized(self) -> "FoldedBnn":
        if not self.is_stabilized():
            raise ValueError(
                "network has constant-sign hidden neurons (|bias| >= row 1-norm); "
                "run stabilize() first"
            )
        return self


@dataclass(frozen=True)
class ForwardTrace:
    """One forward pass: activations, logits, label, and zero-crossing flags.

    `zero_preactivation_flags[i-1][j-1]` is set when hidden neuron (i, j) saw
    an exactly-zero pre-activation, i.e. where the sign(0) := +1 convention
    was exercised and both signs would satisfy the product encoding.
    """

    x0: np.ndarray
    activations: tuple[np.ndarray, ...]
    logits: np.ndarray
    label: int
    zero_preactivation_flags: tuple[np.ndarray, ...]

    def any_zero_preactivation(self) -> bool:
        return any(bool(f.any()) for f in self.zero_preactivation_flags)


def row_norm1(matrix: np.ndarray) -> np.ndarray:
    """Vector of row 1-norms; for a ternary matrix this counts nonzeros per row."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    return np.abs(m).sum(axis=1)


def load_model(path) -> RawBnn:
    """Parse a JSON model file into a `RawBnn`.

    Schema: ``{"widths": [n0, ...], "bn_epsilon": float?, "layers": [{"weights":
    [[...]], "bias": [...], "bn": {"gamma": [...], "beta": [...], "mu": [...],
    "var": [...]}?}, ...]}`` with one entry per layer, output layer last and
    without a "bn" block.
    """
    with open(path, "r") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"model file {path}: invalid JSON ({exc})") from exc
    try:
        widths = tuple(int(w) for w in doc["widths"])
        layers = doc["layers"]
        if len(layers) != len(widths) - 1:
            raise ValueError(
                f"model file {path}: {len(layers)} layers inconsistent with widths {widths}"
            )
        weights, biases, bn_blocks = [], [], []
        for entry in layers:
            weights.append(np.asarray(entry["weights"]))
            biases.append(np.asarray(entry["bias"], dtype=float))
            blk = entry.get("bn")
            if blk is not None:
                blk = BatchNorm(blk["gamma"], blk["beta"], blk["mu"], blk["var"])
            bn_blocks.append(blk)
        bn_epsilon = float(doc.get("bn_epsilon", DEFAULT_BN_EPSILON))
    except KeyError as exc:
        raise ValueError(f"model file {path}: missing key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        # a value of the wrong JSON type, e.g. a number where a list or an
        # object belongs
        raise ValueError(f"model file {path}: malformed ({exc})") from exc
    return RawBnn(
        widths=widths,
        weights=tuple(weights),
        biases=tuple(biases),
        bn=tuple(bn_blocks),
        bn_epsilon=bn_epsilon,
    )


def fold_batchnorm(raw: RawBnn) -> FoldedBnn:
    """Fold batch-norm into effective biases; may leave constant-sign neurons.

    The normalisation sign(gamma * (z - mu)/s - beta) with s = sqrt(var +
    bn_epsilon) is an affine reshaping of the pre-activation z, so only its
    sign pattern matters: for gamma > 0 it shifts the bias, for gamma < 0 it
    additionally flips the row (weights stay ternary).  gamma = 0 would make
    the neuron's output independent of z and is rejected.

    The result may violate |b| < nv; call `stabilize` before encoding.
    """
    weights, biases, log = [], [], []
    for i in range(1, len(raw.widths)):
        w = raw.weights[i - 1]
        b = raw.biases[i - 1].copy()
        blk = raw.bn[i - 1]
        if blk is None:
            weights.append(w)
            biases.append(b)
            continue
        if np.any(blk.gamma == 0):
            raise ValueError(f"layer {i}: degenerate batch-norm scale (gamma = 0)")
        s = np.sqrt(blk.var + raw.bn_epsilon)
        shift = blk.beta * s / np.abs(blk.gamma)
        pos = blk.gamma > 0
        w_new = np.where(pos[:, None], w, -w)
        b_new = np.where(pos, b - blk.mu - shift, blk.mu - b - shift)
        weights.append(w_new)
        biases.append(b_new)
        log.append(f"layer {i}: batch-norm folded into bias ({int((~pos).sum())} rows negated)")
    return FoldedBnn(widths=raw.widths, weights=tuple(weights), biases=tuple(biases), log=tuple(log))


def stabilize(net: FoldedBnn) -> FoldedBnn:
    """Remove hidden neurons whose sign is constant, to fixpoint.

    A hidden neuron with |b_k| >= nv_k (including all-zero rows) always takes
    the value sign(b_k) (with sign(0) := +1); it is deleted and the constant
    folded into the next layer's bias through the corresponding column.
    Removal can stabilise further neurons downstream, so the sweep iterates
    until nothing changes.  Raises if a hidden layer empties out entirely.
    """
    widths = list(net.widths)
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    log = list(net.log)
    depth = len(widths) - 2

    changed = True
    while changed:
        changed = False
        for i in range(1, depth + 1):
            nv = np.abs(weights[i - 1]).sum(axis=1).astype(float)
            const = np.abs(biases[i - 1]) >= nv
            if not const.any():
                continue
            changed = True
            keep = ~const
            for k in np.flatnonzero(const):
                c = 1 if biases[i - 1][k] >= 0 else -1
                biases[i] = biases[i] + weights[i][:, k] * c
                log.append(f"layer {i} neuron {k + 1}: constant {'+1' if c > 0 else '-1'}, removed")
            weights[i] = weights[i][:, keep]
            weights[i - 1] = weights[i - 1][keep, :]
            biases[i - 1] = biases[i - 1][keep]
            widths[i] = int(keep.sum())
            if widths[i] == 0:
                raise ValueError(f"layer {i} fully stabilized; verification degenerate")
    return FoldedBnn(
        widths=tuple(widths), weights=tuple(weights), biases=tuple(biases), log=tuple(log)
    ).require_stabilized()


def _sign_pm1(z: np.ndarray) -> np.ndarray:
    return np.where(z >= 0, 1, -1).astype(np.int64)


def forward(net: FoldedBnn, x0: Sequence[float]) -> ForwardTrace:
    """Run the network: x_i = sign(W_i x_{i-1} + b_i), logits affine, argmax label.

    sign(0) := +1; exact zeros are flagged per neuron.  Argmax ties break to
    the lowest class index.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (net.widths[0],):
        raise ValueError(f"input length {x.shape} does not match n0 = {net.widths[0]}")
    activations = []
    flags = []
    cur = x
    for i in range(1, net.depth + 1):
        z = net.weight(i) @ cur + net.bias(i)
        flags.append(_freeze(z == 0))
        cur = _sign_pm1(z)
        activations.append(_freeze(cur))
    logits = net.weight(net.depth + 1) @ cur + net.bias(net.depth + 1)
    label = int(np.argmax(logits)) + 1
    return ForwardTrace(
        x0=_freeze(x),
        activations=tuple(activations),
        logits=_freeze(logits),
        label=label,
        zero_preactivation_flags=tuple(flags),
    )


def forward_activations(net: FoldedBnn, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Hidden activations of the rows of `xs`, one int64 matrix per layer,
    with exactly the signs `forward` gives each row.

    Layer 1 is one matrix product.  Its sums may round in another order
    than `forward`'s, but both lie within (n0 + 1) * eps/2 * (sum|x| + |b|)
    of the exact value, so a sign can differ only where a pre-activation is
    within twice that of zero; those rows are recomputed with `forward`'s
    expression.  Deeper layers sum integers, which no order rounds, plus one
    bias rounding.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != net.widths[0]:
        raise ValueError(f"inputs of shape {xs.shape} do not match n0 = {net.widths[0]}")
    w, b = net.weight(1), net.bias(1)
    z = xs @ w.T + b
    slack = 2.0 * (xs.shape[1] + 2) * np.finfo(float).eps
    near = np.abs(z) <= slack * (np.abs(xs).sum(axis=1, keepdims=True) + np.abs(b))
    cur = _sign_pm1(z)
    for r in np.flatnonzero(near.any(axis=1)):
        cur[r] = _sign_pm1(w @ xs[r] + b)
    acts = [cur]
    for i in range(2, net.depth + 1):
        cur = _sign_pm1(cur @ net.weight(i).T + net.bias(i))
        acts.append(cur)
    return tuple(acts)


def forward_labels(net: FoldedBnn, xs: np.ndarray) -> np.ndarray:
    """1-based labels of the rows of `xs`, from `forward_activations`.

    The semantics of `forward` (sign(0) := +1, argmax ties to the lowest
    class), with `forward`'s hidden signs.  The logits equal `forward`'s
    byte for byte: W x_L is a product of int64 matrices, which no order
    rounds, and the bias is added to it once, as in `forward`.
    """
    last = forward_activations(net, xs)[-1]
    logits = last @ net.weight(net.depth + 1).T + net.bias(net.depth + 1)
    return np.argmax(logits, axis=1) + 1


def forward_raw(raw: RawBnn, x0: Sequence[float]) -> int:
    """Label under explicit batch-norm arithmetic (reference for fold tests)."""
    x = np.asarray(x0, dtype=float)
    for i in range(1, len(raw.widths)):
        z = raw.weights[i - 1] @ x + raw.biases[i - 1]
        blk = raw.bn[i - 1]
        if blk is not None:
            z = blk.gamma * (z - blk.mu) / np.sqrt(blk.var + raw.bn_epsilon) - blk.beta
        if i == len(raw.widths) - 1:
            return int(np.argmax(z)) + 1
        x = _sign_pm1(z)
    raise AssertionError("unreachable")


def weight_sparsity(net: FoldedBnn) -> float:
    """Fraction of zero entries over all weight matrices (output layer included)."""
    total = sum(w.size for w in net.weights)
    nonzero = sum(int(np.count_nonzero(w)) for w in net.weights)
    return 1.0 - nonzero / total


def load_inputs(path) -> np.ndarray:
    """Read input vectors: one whitespace/comma-separated line per vector.

    Returns a 2-d array (rows = vectors) even for a single line.
    """
    rows = []
    with open(path, "r") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([float(tok) for tok in line.replace(",", " ").split()])
    if not rows:
        raise ValueError(f"input file {path}: no vectors found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"input file {path}: ragged rows")
    return np.asarray(rows, dtype=float)
