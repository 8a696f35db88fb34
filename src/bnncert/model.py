"""Loading, normalising and running ternary-weight sign-activation networks.

A network here is a stack of dense layers with weights in {-1, 0, +1},
real-valued biases and sign activations; the output layer is affine and the
predicted class is the argmax of its logits.  Batch normalisation, when
present, is folded into the effective biases so that every downstream encoding
sees only ternary weights and real biases.  `stabilize(net, region)` then
removes every hidden neuron whose sign is constant over the box of its
inputs (for layer 1 the region's box or the cube [-1, 1]^n0, for a deeper
layer the cube) through `fold_signs`, the one folding operation: it adds
the removed constants to the next layer's integer offsets, so no fold
rounds.  A neuron's pre-activation is (W x + d) + b: the float bias b is
added once to the integer offset d and the sum W x, as in the unfolded
net.  Every reader goes through two `FoldedBnn` methods: `preactivation`
for the float value and `exact_bias` for the rational b + d.

The network's value at a point is decided in one place, `forward`, and
exactly, as every proof reads the network: each hidden sign is the sign of
the exact pre-activation, with sign(0) := +1, and the label is the lowest
index among the exact maxima of the output layer; the logits it reports
are binary64.  Folds are exact, so `forward` on `stabilize(net, region)`
equals `forward` on `net` at every point of the region.

Class labels and neuron indices are 1-based throughout the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from bnncert.encode import PerturbationRegion

__all__ = [
    "BatchNorm",
    "FoldedBnn",
    "ForwardTrace",
    "RawBnn",
    "fold_batchnorm",
    "fold_signs",
    "forward",
    "forward_activations",
    "forward_logits",
    "forward_raw",
    "load_inputs",
    "load_model",
    "neuron_ranges",
    "row_norm1",
    "stabilize",
    "weight_sparsity",
]

DEFAULT_BN_EPSILON = 1e-5
BN_KEYS = ("gamma", "beta", "mu", "var")


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
        for name in BN_KEYS:
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
    ``offsets`` holds one integer per neuron, the sum that folded neurons
    of the layer before contribute (all zeros where nothing folded; layer
    1 reads the real inputs, so its offsets are zero).
    """

    widths: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    log: tuple[str, ...] = ()
    offsets: tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        n_layers = len(self.widths) - 1
        offsets = self.offsets or tuple(np.zeros(n, dtype=np.int64) for n in self.widths[1:])
        if not len(self.weights) == len(self.biases) == len(offsets) == n_layers:
            raise ValueError("layer count inconsistent with widths")
        frozen_w, frozen_b, frozen_d = [], [], []
        for i, (w, b, d) in enumerate(zip(self.weights, self.biases, offsets), start=1):
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
            d = np.asarray(d)
            if d.shape != (self.widths[i],) or d.dtype.kind not in "iu" or (i == 1 and d.any()):
                raise ValueError(f"layer {i}: expected one integer offset per neuron, 0 in layer 1")
            frozen_w.append(_freeze(w.astype(np.int64)))
            frozen_b.append(_freeze(b))
            frozen_d.append(_freeze(d.astype(np.int64)))
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        object.__setattr__(self, "weights", tuple(frozen_w))
        object.__setattr__(self, "biases", tuple(frozen_b))
        object.__setattr__(self, "offsets", tuple(frozen_d))

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
        """The float bias b of 1-based `layer`, without its offsets."""
        return self.biases[layer - 1]

    def exact_bias(self, layer: int) -> list[Fraction]:
        """The exact constant b_k + d_k of every neuron of `layer`."""
        b, d = self.bias(layer).tolist(), self.offsets[layer - 1].tolist()
        return [Fraction(bk) + dk for bk, dk in zip(b, d)]

    def preactivation(self, layer: int, x: np.ndarray) -> np.ndarray:
        """The float pre-activations of `layer` at the vector `x`, or at each
        row of the matrix `x`.  Deeper than layer 1, x is +/-1 and the value
        is (W x + d) + b, the unfolded net's: an exact integer sum, then b
        added once, so its sign is exact.  In layer 1 at a vector it is the
        exact sum W x + b correctly rounded (`math.fsum`), so its sign is
        the exact sign and it is zero only at an exact zero; at a matrix it
        is one matrix product, rounded in numpy's order."""
        x, w = np.asarray(x), self.weight(layer)
        if layer == 1 and x.ndim == 1:
            terms = zip((w * x).tolist(), self.bias(1).tolist())  # w x is exact
            return np.array([math.fsum([*wx, b]) for wx, b in terms])
        z = w @ x if x.ndim == 1 else x @ w.T
        return (z if layer == 1 else z + self.offsets[layer - 1]) + self.bias(layer)

    def is_stabilized(self) -> bool:
        """True iff every hidden neuron satisfies -nv_k <= b_k + d_k < nv_k,
        the rule `stabilize` keeps a neuron by (so nv_k > 0)."""
        return not any(_constant_signs(self, i).any() for i in range(1, self.depth + 1))

    def require_stabilized(self) -> "FoldedBnn":
        if not self.is_stabilized():
            raise ValueError(
                "network has constant-sign hidden neurons (b + d >= row 1-norm or "
                "b + d < -row 1-norm); run stabilize() first"
            )
        return self


@dataclass(frozen=True)
class ForwardTrace:
    """One forward pass: activations, logits, label, and zero-crossing flags.

    `zero_preactivation_flags[i-1][j-1]` is set when hidden neuron (i, j) saw
    an exactly-zero pre-activation, i.e. where the sign(0) := +1 convention
    was exercised and both signs would satisfy the product encoding.
    """

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


def _numbers(path, what: str, value) -> np.ndarray:
    """`value`, a JSON number or nested list of numbers, as a float array.
    A string or a bool, which numpy would read as a number, raises."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif type(v) not in (int, float):  # a bool is an int subclass
            raise ValueError(f"model file {path}: {what} holds {v!r}, not a number")
    return np.asarray(value, dtype=float)


def load_model(path) -> RawBnn:
    """Parse a JSON model file into a `RawBnn`.

    Schema: ``{"widths": [n0, ...], "bn_epsilon": float?, "layers": [{"weights":
    [[...]], "bias": [...], "bn": {"gamma": [...], "beta": [...], "mu": [...],
    "var": [...]}?}, ...]}`` with one entry per layer, output layer last and
    without a "bn" block.  Widths are JSON integers and every other value a
    JSON number; a string or a bool in their place raises `ValueError`.
    """
    with open(path, "r") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"model file {path}: invalid JSON ({exc})") from exc
    try:
        widths = tuple(doc["widths"])
        if not all(type(w) is int for w in widths):
            raise ValueError(f"model file {path}: widths {list(widths)} are not all integers")
        layers = doc["layers"]
        if len(layers) != len(widths) - 1:
            raise ValueError(
                f"model file {path}: {len(layers)} layers inconsistent with widths {widths}"
            )
        weights, biases, bn_blocks = [], [], []
        for i, entry in enumerate(layers, start=1):
            weights.append(_numbers(path, f"layer {i} weights", entry["weights"]))
            biases.append(_numbers(path, f"layer {i} bias", entry["bias"]))
            blk = entry.get("bn")
            if blk is not None:
                blk = BatchNorm(*(_numbers(path, f"layer {i} bn {k}", blk[k]) for k in BN_KEYS))
            bn_blocks.append(blk)
        bn_epsilon = doc.get("bn_epsilon", DEFAULT_BN_EPSILON)
        if type(bn_epsilon) not in (int, float):
            raise ValueError(f"model file {path}: bn_epsilon {bn_epsilon!r} is not a number")
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
        bn_epsilon=float(bn_epsilon),
    )


def fold_batchnorm(raw: RawBnn) -> FoldedBnn:
    """Fold batch-norm into effective biases; may leave constant-sign neurons.

    The normalisation sign(gamma * (z - mu)/s - beta) with s = sqrt(var +
    bn_epsilon) is an affine reshaping of the pre-activation z, so only its
    sign pattern matters: for gamma > 0 it shifts the bias, for gamma < 0 it
    additionally flips the row (weights stay ternary).  gamma = 0 would make
    the neuron's output independent of z and is rejected.

    The result may have constant neurons; call `stabilize` before encoding.
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


def fold_signs(net: FoldedBnn, layer: int, signs: Sequence[int], where: str = "") -> FoldedBnn:
    """Remove the neurons of hidden `layer` whose entry of `signs` is +1 or
    -1, the constant sign they take; an entry 0 keeps its neuron.

    Each removed neuron's constant enters the next layer's integer offsets
    through its column, and the float biases stay as they are, so the fold
    is exact.  One log line per neuron records it ("layer 1 neuron 3:
    constant +1{where}, removed").  Raises `ValueError` if the layer empties
    out.
    """
    if not 1 <= layer <= net.depth:
        raise ValueError(f"layer {layer} is not a hidden layer")
    signs = np.asarray(signs, dtype=np.int64)
    if signs.shape != (net.widths[layer],) or not np.isin(signs, (-1, 0, 1)).all():
        raise ValueError(f"layer {layer}: expected one sign in {{-1, 0, +1}} per neuron")
    fold = signs != 0
    keep = ~fold
    if not keep.any():
        raise ValueError(f"layer {layer} fully stabilized; verification degenerate")
    widths, weights, biases = list(net.widths), list(net.weights), list(net.biases)
    offsets = list(net.offsets)
    offsets[layer] = offsets[layer] + weights[layer][:, fold] @ signs[fold]
    weights[layer] = weights[layer][:, keep]
    weights[layer - 1] = weights[layer - 1][keep, :]
    biases[layer - 1] = biases[layer - 1][keep]
    offsets[layer - 1] = offsets[layer - 1][keep]
    widths[layer] = int(keep.sum())
    log = list(net.log)
    for k in np.flatnonzero(fold):
        log.append(f"layer {layer} neuron {k + 1}: constant {signs[k]:+d}{where}, removed")
    return FoldedBnn(tuple(widths), tuple(weights), tuple(biases), tuple(log), tuple(offsets))


def neuron_ranges(
    net: FoldedBnn, layer: int, region: Optional[PerturbationRegion] = None
) -> list[tuple[Fraction, Fraction]]:
    """(beta, R) of every neuron of hidden `layer` (1-based), exactly: over
    the box of its inputs the pre-activation ranges over [beta - R, beta + R].

    The box of layer 1's inputs is the `region`'s exact box, integers over
    one denominator; the box of a deeper layer's +/-1 inputs, and of layer
    1's without a region, is the cube [-1, 1] (c = 0, r = 1), so its row
    bound is the row 1-norm and beta is the exact bias b + d
    (`FoldedBnn.exact_bias`).
    """
    weights = net.weight(layer).tolist()
    n_prev = net.widths[layer - 1]
    if layer == 1 and region is not None:
        # c = center / den and r = half / den with den twice the box's
        lo, hi, den = region.box_lower, region.box_upper, 2 * region.box_den
        center = [a + b for a, b in zip(lo, hi)]
        half = [b - a for a, b in zip(lo, hi)]
    else:
        center, half, den = [0] * n_prev, [1] * n_prev, 1
    out = []
    for w, b in zip(weights, net.exact_bias(layer)):
        shift = sum(wk * ck for wk, ck in zip(w, center) if wk)
        bound = sum(abs(wk) * hk for wk, hk in zip(w, half) if wk)
        out.append((b + Fraction(shift, den), Fraction(bound, den)))
    return out


def stabilize(net: FoldedBnn, region: Optional[PerturbationRegion] = None) -> FoldedBnn:
    """Remove the hidden neurons whose sign is constant, in one pass.

    Layer 1 is tested over the `region`'s box (the cube [-1, 1]^n0 without
    a region), a deeper layer over the cube of its +/-1 inputs; over its box
    a pre-activation ranges over [beta - R, beta + R] (`neuron_ranges`; on
    the cube beta = b_k + d_k and R = nv_k, the row 1-norm, and the test is
    exact in binary64).  With sign(0) := +1 the neuron is constant +1 where
    beta - R >= 0 and -1 where beta + R < 0; `fold_signs` deletes it and
    folds the constant into the next layer's offsets, logging a layer-1
    fold over a region " over the region".  The tie beta + R = 0 is kept:
    z = 0, hence +1, at one corner of the box.  Folding layer i changes only
    layer i+1's offsets and columns, visited next, so one pass reaches the
    fixpoint; a region's box lies in the cube, so the result is stabilized
    on the cube.  Raises `ValueError` if a hidden layer empties out.
    """
    for i in range(1, net.depth + 1):
        signs = _constant_signs(net, i, region)
        if signs.any():
            where = " over the region" if i == 1 and region is not None else ""
            net = fold_signs(net, i, signs, where)
    return net


def _constant_signs(
    net: FoldedBnn, layer: int, region: Optional[PerturbationRegion] = None
) -> np.ndarray:
    """The sign of each neuron of hidden `layer` whose pre-activation has
    one sign over [beta - R, beta + R] (`neuron_ranges`): +1 where beta >=
    R, -1 where beta < -R, and 0 for a neuron that takes both."""
    if layer == 1 and region is not None:
        beta, bound = np.array(neuron_ranges(net, 1, region), dtype=object).T
        return np.subtract(beta >= bound, beta < -bound, dtype=np.int64)
    # on the cube beta = b + d and R = nv: binary64 compares b with the
    # integers nv - d and -nv - d exactly
    b, nv, d = net.bias(layer), row_norm1(net.weight(layer)), net.offsets[layer - 1]
    return np.subtract(b >= nv - d, b < -nv - d, dtype=np.int64)


def _sign_pm1(z: np.ndarray) -> np.ndarray:
    return np.where(z >= 0, 1, -1).astype(np.int64)


def _exact_argmax(net: FoldedBnn, s: np.ndarray, logits: np.ndarray) -> int:
    """The lowest class index among the exact maxima of W s + b + d, the
    output layer at the +/-1 vector `s`, whose float logits are `logits`.
    Rounding is monotone, so only classes whose logits tie at the maximum
    are compared, in rationals."""
    top = np.flatnonzero(logits == logits.max()).tolist()
    if len(top) == 1:
        return top[0] + 1
    out = net.depth + 1
    ws, b = (net.weight(out) @ s).tolist(), net.exact_bias(out)
    # max keeps the first of equal maxima, the lowest index
    return max(top, key=lambda k: ws[k] + b[k]) + 1


def forward(net: FoldedBnn, x0: Sequence[float]) -> ForwardTrace:
    """Run the network: x_i = sign(W_i x_{i-1} + b_i), logits affine, argmax
    label; the network's value at `x0`, which every reader takes from here.

    Every sign is the sign of the exact pre-activation
    (`FoldedBnn.preactivation`), with sign(0) := +1, and exact zeros are
    flagged per neuron.  The logits are binary64; the label is the lowest
    index among the exact maxima of the output layer, which the float
    argmax gives except where float logits tie.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (net.widths[0],):
        raise ValueError(f"input length {x.shape} does not match n0 = {net.widths[0]}")
    activations = []
    flags = []
    cur = x
    for i in range(1, net.depth + 1):
        z = net.preactivation(i, cur)
        flags.append(_freeze(z == 0))
        cur = _sign_pm1(z)
        activations.append(_freeze(cur))
    logits = net.preactivation(net.depth + 1, cur)
    return ForwardTrace(
        activations=tuple(activations),
        logits=_freeze(logits),
        label=_exact_argmax(net, cur, logits),
        zero_preactivation_flags=tuple(flags),
    )


def forward_activations(net: FoldedBnn, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Hidden activations of the rows of `xs`, one int64 matrix per layer,
    with exactly the signs `forward` gives each row: the exact ones.

    Layer 1 is one matrix product.  Its sums lie within (n0 + 1) * eps/2 *
    (sum|x| + |b|) of the exact value, so a sign can differ from the exact
    one only where a pre-activation is within that of zero; the rows with
    one within 4 (n0 + 2) * eps/2 * (sum|x| + |b|) are recomputed exactly,
    one row at a time.  Deeper layers sum integers, which no order rounds,
    plus one bias rounding (`FoldedBnn.preactivation`).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != net.widths[0]:
        raise ValueError(f"inputs of shape {xs.shape} do not match n0 = {net.widths[0]}")
    z = net.preactivation(1, xs)
    slack = 2.0 * (xs.shape[1] + 2) * np.finfo(float).eps
    near = np.abs(z) <= slack * (np.abs(xs).sum(axis=1, keepdims=True) + np.abs(net.bias(1)))
    cur = _sign_pm1(z)
    for r in np.flatnonzero(near.any(axis=1)):
        cur[r] = _sign_pm1(net.preactivation(1, xs[r]))
    acts = [cur]
    for i in range(2, net.depth + 1):
        cur = _sign_pm1(net.preactivation(i, cur))
        acts.append(cur)
    return tuple(acts)


def forward_logits(net: FoldedBnn, xs: np.ndarray) -> np.ndarray:
    """Logits of the rows of `xs`, one row each, from `forward_activations`.

    They equal `forward`'s byte for byte: both read
    `FoldedBnn.preactivation`, where W x_L + d is an int64 sum, which no
    order rounds, and the bias is added to it once.  So
    `np.argmax(logits, axis=1) + 1` is `forward`'s label on every row whose
    largest logit is unique; where float logits tie at the maximum, only
    `forward` decides the label, exactly.
    """
    last = forward_activations(net, xs)[-1]
    return net.preactivation(net.depth + 1, last)


def forward_raw(raw: RawBnn, x0: Sequence[float]) -> int:
    """Label under explicit batch-norm arithmetic (reference for fold tests).

    Coded apart from `forward`, to the same rules: layer 1's sum W x + b is
    the exact one correctly rounded (`math.fsum` over the products, each
    exact for a ternary w), a deeper sum is an integer plus one bias
    rounding, and the label is the lowest index among the exact maxima of
    the output layer, whose float logits are compared in rationals only
    where they tie.  A batch-norm block normalizes in binary64, so on a net
    with batch-norm this is a float reference, not an exact one.
    """
    x = np.asarray(x0, dtype=float)
    for i in range(1, len(raw.widths)):
        w, b = raw.weights[i - 1], raw.biases[i - 1]
        if i == 1:
            z = np.array([math.fsum([*(row * x).tolist(), bk]) for row, bk in zip(w, b.tolist())])
        else:
            z = w @ x + b
        blk = raw.bn[i - 1]
        if blk is not None:
            z = blk.gamma * (z - blk.mu) / np.sqrt(blk.var + raw.bn_epsilon) - blk.beta
        if i == len(raw.widths) - 1:
            # no batch-norm here: w x is an exact integer, so z_k = w_k x + b_k
            # rounded once, and equal logits are compared exactly
            top = np.flatnonzero(z == z.max()).tolist()
            exact = [Fraction(int(v)) + Fraction(bk) for v, bk in zip((w @ x).tolist(), b.tolist())]
            return max(top, key=lambda k: exact[k]) + 1
        x = np.where(z >= 0, 1.0, -1.0)
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
