"""Loading, batch-norm folding, stabilization and the forward pass."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bnncert import (
    BatchNorm,
    FoldedBnn,
    PerturbationRegion,
    RawBnn,
    fold_batchnorm,
    fold_signs,
    forward,
    forward_raw,
    load_inputs,
    load_model,
    neuron_ranges,
    row_norm1,
    stabilize,
    weight_sparsity,
)
from bnncert.model import DEFAULT_BN_EPSILON, forward_activations, forward_logits
from bnncert.oracle import sample_region

from conftest import make_example1, random_net, random_region


def test_load_example1_model(example1_files):
    model_path, _ = example1_files
    raw = load_model(model_path)
    assert raw.widths == (3, 2, 2, 2)
    assert raw.depth == 2
    assert all(blk is None for blk in raw.bn)
    np.testing.assert_array_equal(raw.weights[0], [[-1, 1, 1], [-1, -1, 1]])
    np.testing.assert_array_equal(raw.biases[2], [-2.0, -1.0])


def test_load_rejects_non_ternary(tmp_path):
    doc = {
        "widths": [2, 2, 2],
        "layers": [
            {"weights": [[2, 0], [0, 1]], "bias": [0, 0]},
            {"weights": [[1, 0], [0, 1]], "bias": [0, 0]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="non-ternary"):
        load_model(path)


def test_load_keeps_batchnorm_blocks(tmp_path):
    doc = {
        "widths": [2, 3, 2],
        "bn_epsilon": 1e-4,
        "layers": [
            {
                "weights": [[1, 0], [0, -1], [1, 1]],
                "bias": [0, 0.5, -0.5],
                "bn": {
                    "gamma": [1, -2, 0.5],
                    "beta": [0, 0.1, 0],
                    "mu": [0, 0, 1],
                    "var": [1, 1, 4],
                },
            },
            {"weights": [[1, 0, -1], [0, 1, 1]], "bias": [0, 0]},
        ],
    }
    path = tmp_path / "bn.json"
    path.write_text(json.dumps(doc))
    raw = load_model(path)
    assert raw.bn_epsilon == 1e-4
    assert raw.bn[0] is not None and raw.bn[1] is None
    np.testing.assert_allclose(raw.bn[0].gamma, [1, -2, 0.5])


def test_fold_identity_normalization():
    # gamma=1, beta=0, mu=0, var=1-eps gives s=1 and leaves the bias alone
    bn = BatchNorm(
        gamma=[1.0, 1.0],
        beta=[0.0, 0.0],
        mu=[0.0, 0.0],
        var=[1.0 - DEFAULT_BN_EPSILON] * 2,
    )
    raw = RawBnn(
        widths=(2, 2, 2),
        weights=(np.eye(2), np.eye(2)),
        biases=(np.array([0.25, -0.75]), np.zeros(2)),
        bn=(bn, None),
    )
    net = fold_batchnorm(raw)
    np.testing.assert_allclose(net.bias(1), [0.25, -0.75])
    np.testing.assert_array_equal(net.weight(1), np.eye(2))


def test_fold_negative_gamma_flips_row():
    bn = BatchNorm(
        gamma=[-1.0], beta=[0.0], mu=[0.0], var=[1.0 - DEFAULT_BN_EPSILON]
    )
    raw = RawBnn(
        widths=(3, 1, 2),
        weights=(np.array([[1, -1, 0]]), np.array([[1], [-1]])),
        biases=(np.array([0.5]), np.zeros(2)),
        bn=(bn, None),
    )
    net = fold_batchnorm(raw)
    np.testing.assert_array_equal(net.weight(1), [[-1, 1, 0]])
    np.testing.assert_allclose(net.bias(1), [-0.5])


def test_fold_rejects_zero_gamma():
    bn = BatchNorm(gamma=[0.0], beta=[0.0], mu=[0.0], var=[1.0])
    raw = RawBnn(
        widths=(2, 1, 2),
        weights=(np.array([[1, 1]]), np.array([[1], [-1]])),
        biases=(np.zeros(1), np.zeros(2)),
        bn=(bn, None),
    )
    with pytest.raises(ValueError, match="degenerate batch-norm scale"):
        fold_batchnorm(raw)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_are_rejected(bad):
    weights = (np.array([[1, 1]]), np.array([[1], [-1]]))
    for i in range(2):
        biases = [np.zeros(1), np.zeros(2)]
        biases[i][0] = bad
        with pytest.raises(ValueError, match="non-finite bias"):
            RawBnn(widths=(2, 1, 2), weights=weights, biases=tuple(biases), bn=(None, None))
        with pytest.raises(ValueError, match="non-finite bias"):
            FoldedBnn(widths=(2, 1, 2), weights=weights, biases=tuple(biases))
    for name in ("gamma", "beta", "mu", "var"):
        params = {"gamma": [1.0], "beta": [0.0], "mu": [0.0], "var": [1.0], name: [bad]}
        with pytest.raises(ValueError, match=f"batch-norm {name} must be finite"):
            BatchNorm(**params)


def test_stabilize_removes_constant_neuron():
    # neuron 1 has nv=3 < |b|=5, so it is pinned at +1; its +1 output flows
    # into the next layer's exact bias through column 1
    net = FoldedBnn(
        widths=(3, 2, 2),
        weights=(
            np.array([[1, 1, 1], [1, -1, 0]]),
            np.array([[1, -1], [0, 1]]),
        ),
        biases=(np.array([5.0, 0.1]), np.array([0.0, 0.0])),
    )
    out = stabilize(net)
    assert out.widths == (3, 1, 2)
    np.testing.assert_array_equal(out.weight(1), [[1, -1, 0]])
    assert out.exact_bias(2) == [1, 0]
    assert any("constant +1" in line for line in out.log)


def test_stabilize_leaves_example1_alone(example1):
    out = stabilize(example1)
    assert out.widths == example1.widths
    for i in (1, 2, 3):
        np.testing.assert_array_equal(out.weight(i), example1.weight(i))
        np.testing.assert_allclose(out.bias(i), example1.bias(i))


def test_stabilize_zero_row_uses_sign_zero_convention():
    # all-zero row with b = 0 >= nv = 0: z = 0 everywhere, sign(0) := +1
    net = FoldedBnn(
        widths=(2, 2, 2),
        weights=(np.array([[0, 0], [1, 1]]), np.array([[1, 0], [-1, 1]])),
        biases=(np.array([0.0, 0.0]), np.array([0.0, 0.0])),
    )
    out = stabilize(net)
    assert out.widths == (2, 1, 2)
    assert out.exact_bias(2) == [1, -1]


def test_stabilize_rejects_emptied_layer():
    net = FoldedBnn(
        widths=(2, 1, 2),
        weights=(np.array([[1, 1]]), np.array([[1], [-1]])),
        biases=(np.array([4.0]), np.zeros(2)),
    )
    with pytest.raises(ValueError, match="fully stabilized"):
        stabilize(net)


def test_forward_example1_trace(example1, x0_example):
    trace = forward(example1, x0_example)
    np.testing.assert_array_equal(trace.activations[0], [1, 1])
    np.testing.assert_array_equal(trace.activations[1], [-1, -1])
    np.testing.assert_allclose(trace.logits, [-2.0, 1.0])
    assert trace.label == 2
    assert not trace.any_zero_preactivation()


def test_forward_flags_zero_preactivation():
    net = FoldedBnn(
        widths=(1, 1, 2),
        weights=(np.array([[1]]), np.array([[1], [-1]])),
        biases=(np.array([-0.5]), np.zeros(2)),
    )
    trace = forward(net, [0.5])
    assert trace.any_zero_preactivation()
    assert trace.activations[0][0] == 1  # sign(0) := +1


def test_forward_rejects_wrong_length(example1):
    with pytest.raises(ValueError, match="input length"):
        forward(example1, [0.0, 0.0])


def test_forward_argmax_ties_break_low():
    net = FoldedBnn(
        widths=(1, 1, 2),
        weights=(np.array([[1]]), np.array([[1], [1]])),
        biases=(np.array([0.0]), np.array([0.0, 0.0])),
    )
    assert forward(net, [1.0]).label == 1


def test_row_norms_example1(example1):
    np.testing.assert_allclose(row_norm1(example1.weight(1)), [3, 3])
    np.testing.assert_allclose(row_norm1(example1.weight(2)), [2, 2])
    np.testing.assert_allclose(row_norm1(np.zeros((3, 4))), [0, 0, 0])


def test_weight_sparsity_counts():
    def net_with(w1):
        return FoldedBnn(
            widths=(3, 2, 2),
            weights=(np.asarray(w1), np.array([[1, 0], [0, 1]])),
            biases=(np.zeros(2), np.zeros(2)),
        )

    assert weight_sparsity(
        FoldedBnn(
            widths=(3, 2, 2),
            weights=(np.zeros((2, 3)), np.zeros((2, 2))),
            biases=(np.zeros(2), np.zeros(2)),
        )
    ) == 1.0
    dense = net_with([[1, -1, 1], [1, 1, -1]])
    assert weight_sparsity(dense) == pytest.approx(2 / 10)
    # 3 zeros among 12 entries
    twelve = FoldedBnn(
        widths=(4, 2, 2),
        weights=(
            np.array([[1, 0, 1, -1], [0, 1, 0, -1]]),
            np.array([[1, 1], [-1, 1]]),
        ),
        biases=(np.zeros(2), np.zeros(2)),
    )
    assert weight_sparsity(twelve) == pytest.approx(3 / 12)


def test_load_inputs_roundtrip(example1_files):
    _, inputs_path = example1_files
    rows = load_inputs(inputs_path)
    assert rows.shape == (2, 3)
    np.testing.assert_allclose(rows[0], [0, 0.5, 0])


def test_load_inputs_rejects_ragged(tmp_path):
    p = tmp_path / "ragged.txt"
    p.write_text("1 2 3\n1 2\n")
    with pytest.raises(ValueError, match="ragged"):
        load_inputs(p)


@given(st.integers(0, 2**32 - 1))
def test_fold_matches_explicit_batchnorm_arithmetic(seed):
    """Folding preserves the classifier: label(fold(raw)) == raw label."""
    rng = np.random.default_rng(seed)
    widths = (3, 4, 3, 2)
    weights, biases, bn = [], [], []
    for i in range(1, len(widths)):
        weights.append(rng.choice([-1, 0, 1], size=(widths[i], widths[i - 1])))
        biases.append(rng.uniform(-1, 1, size=widths[i]))
        if i < len(widths) - 1:
            gamma = rng.uniform(0.2, 2.0, size=widths[i]) * rng.choice(
                [-1, 1], size=widths[i]
            )
            bn.append(
                BatchNorm(
                    gamma=gamma,
                    beta=rng.uniform(-1, 1, size=widths[i]),
                    mu=rng.uniform(-1, 1, size=widths[i]),
                    var=rng.uniform(0.1, 2.0, size=widths[i]),
                )
            )
        else:
            bn.append(None)
    raw = RawBnn(
        widths=widths,
        weights=tuple(weights),
        biases=tuple(biases),
        bn=tuple(bn),
    )
    folded = fold_batchnorm(raw)
    x0 = rng.uniform(-1, 1, size=widths[0])
    assert forward(folded, x0).label == forward_raw(raw, x0)


@given(st.integers(0, 2**32 - 1))
def test_stabilized_nets_satisfy_bias_bound(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, (4, 3, 3, 2))
    out = stabilize(net)
    assert out.is_stabilized()
    for i in range(1, out.depth + 1):
        assert np.all(np.abs(out.bias(i)) < row_norm1(out.weight(i)))


@given(st.integers(0, 2**32 - 1))
def test_stabilize_preserves_forward_labels(seed):
    """Constant propagation never changes the computed function."""
    rng = np.random.default_rng(seed)
    widths = (3, 4, 3, 2)
    weights, biases = [], []
    for i in range(1, len(widths)):
        weights.append(rng.choice([-1, 0, 1], size=(widths[i], widths[i - 1])))
        # deliberately wide bias range so some neurons stabilize
        biases.append(rng.uniform(-4, 4, size=widths[i]))
    net = FoldedBnn(widths=widths, weights=tuple(weights), biases=tuple(biases))
    try:
        out = stabilize(net)
    except ValueError:
        return  # a layer emptied out; nothing to compare
    for _ in range(5):
        x0 = rng.uniform(-1, 1, size=widths[0])
        assert forward(out, x0).label == forward(net, x0).label


def tie_layer2_net(bias):
    """2-2-2-2 net whose neuron (2,1) sums both layer-1 signs plus `bias`."""
    return FoldedBnn(
        widths=(2, 2, 2, 2),
        weights=(np.eye(2, dtype=int), np.array([[1, 1], [1, -1]]), np.array([[1, 0], [-1, 0]])),
        biases=(np.zeros(2), np.array([bias, 0.5]), np.zeros(2)),
    )


def test_stabilize_keeps_the_tie_neuron():
    """At bias -nv = -2, z = 0 where both layer-1 signs are +1, and
    sign(0) = +1 there: the neuron is not constant, so it stays."""
    net = tie_layer2_net(-2.0)
    assert net.is_stabilized()
    out = stabilize(net)
    assert out.widths == net.widths
    assert forward(out, [0.5, 0.5]).label == forward(net, [0.5, 0.5]).label == 1
    # below the tie the neuron is -1 everywhere and folds away
    below = tie_layer2_net(-2.5)
    assert not below.is_stabilized()
    out = stabilize(below)
    assert out.widths == (2, 2, 1, 2)
    assert "layer 2 neuron 1: constant -1, removed" in out.log


def test_stabilize_preserves_labels_at_ties():
    """Integer biases put pre-activations exactly at zero on the {-1,0,1}^3
    grid, where sign(0) = +1 decides every neuron with bias -nv."""
    rng = np.random.default_rng(0)
    widths = (3, 4, 3, 2)
    grid = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))
    compared = kept_ties = 0
    for _ in range(200):
        weights = [rng.choice([-1, 0, 1], size=(n, m)) for m, n in zip(widths, widths[1:])]
        biases = [rng.integers(-3, 4, size=n).astype(float) for n in widths[1:]]
        net = FoldedBnn(widths=widths, weights=tuple(weights), biases=tuple(biases))
        try:
            out = stabilize(net)
        except ValueError:
            continue  # a layer emptied out; nothing to compare
        compared += 1
        kept_ties += any(
            np.any(out.bias(i) == -row_norm1(out.weight(i))) for i in range(1, out.depth + 1)
        )
        np.testing.assert_array_equal(
            np.argmax(forward_logits(out, grid), axis=1),
            np.argmax(forward_logits(net, grid), axis=1),
        )
    assert compared >= 100 and kept_ties >= 10


def rounding_net():
    """2-4-2-2 net whose layer-2 neuron 1 sums two constant +1 neurons into
    the bias -2^-53: the exact sum 2 - 2^-53 would round to 2.0 in binary64,
    where the neuron would read as constant +1.  It is -1 where x1 < 0 and
    x2 < 0."""
    return RawBnn(
        widths=(2, 4, 2, 2),
        weights=(
            np.array([[0, 0], [0, 0], [1, 0], [0, 1]]),
            np.array([[1, 1, 1, 1], [0, 0, 1, 0]]),
            np.array([[1, 0], [-1, 0]]),
        ),
        biases=(np.array([0.5, 0.5, 0.0, 0.0]), np.array([-(2.0**-53), 0.0]), np.zeros(2)),
        bn=(None, None, None),
    )


def test_stabilize_folds_constants_into_biases_exactly():
    raw = rounding_net()
    out = stabilize(fold_batchnorm(raw))
    assert out.widths == (2, 2, 2, 2)
    assert out.log == (
        "layer 1 neuron 1: constant +1, removed",
        "layer 1 neuron 2: constant +1, removed",
    )
    # the exact sum, which binary64 cannot hold; the float bias is untouched
    assert out.exact_bias(2)[0] == 2 - Fraction(2) ** -53
    assert out.bias(2)[0] == -(2.0**-53)
    labels = []
    for x in itertools.product((-0.5, 0.5), repeat=2):
        assert forward(out, x).label == forward_raw(raw, x)
        labels.append(forward_raw(raw, x))
    assert labels == [2, 1, 1, 1]


@pytest.mark.parametrize(
    "raw, x, label",
    [
        # layer-1 neuron 1's exact pre-activation is 0 here; numpy's sum
        # 0.5 + 2^-54 + 2^-54 - (0.5 + 2^-53) rounds to -2^-53
        (
            RawBnn(
                widths=(3, 2, 2),
                weights=(np.array([[1, 1, 1], [1, -1, 0]]), np.array([[1, 0], [-1, 0]])),
                biases=(np.array([-0.5000000000000001, -0.5009765625]), np.zeros(2)),
                bn=(None, None),
            ),
            [0.5, 2.0**-54, 2.0**-54],
            1,
        ),
        # both logits round to 1.1; class 2's exceeds class 1's by 1.39e-17
        (
            RawBnn(
                widths=(2, 1, 3, 2),
                weights=(np.array([[1, 1]]), np.array([[1], [-1], [1]]),
                         np.array([[-1, 0, -1], [0, 0, 1]])),
                biases=(np.array([1.999]), np.array([0.5, 0.5, 5]),
                        np.array([1.1, 0.1000000000000001])),
                bn=(None, None, None),
            ),
            [-0.9999, -0.9999],
            2,
        ),
    ],
    ids=["corner", "output-tie"],
)
def test_forward_raw_agrees_with_forward_without_batchnorm(raw, x, label):
    """Without batch-norm the reference reads the exact layer-1 sign and
    breaks float logit ties exactly, as `forward` does."""
    assert forward_raw(raw, x) == forward(fold_batchnorm(raw), x).label == label


def fold_into(b, d, hidden):
    """A net whose layer 2 has bias b, once |d| neurons of layer 1, each
    read with weight +1, fold to sign(d): a hidden layer when `hidden`, else
    the output layer."""
    n = 1 + abs(d)
    layers = [(np.ones((n, 1), dtype=int), np.zeros(n)), (np.ones((1, n), dtype=int), np.array([b]))]
    if hidden:
        layers.append((np.ones((1, 1), dtype=int), np.zeros(1)))
    net = FoldedBnn(
        widths=(1, n, 1) + ((1,) if hidden else ()),
        weights=tuple(w for w, _ in layers),
        biases=tuple(c for _, c in layers),
    )
    return fold_signs(net, 1, [0] + [int(np.sign(d))] * abs(d))


@given(st.floats(-8.0, 8.0, allow_nan=False), st.integers(-6, 6).filter(bool))
@example(-(2.0**-53), 2)
@example(0.1, 2)
def test_folded_bias_is_exact(b, d):
    """A fold leaves the float bias b as it is and adds d to the integer
    offset: the exact bias is Fraction(b) + d, in a hidden layer and in
    the output layer alike, and the float pre-activation at the remaining
    sign s is (s + d) + b, the exact sum rounded once."""
    for hidden in (True, False):
        net = fold_into(b, d, hidden)
        assert net.exact_bias(2) == [Fraction(b) + d]
        assert net.bias(2)[0] == b
        for s in (-1, 1):
            assert net.preactivation(2, [s])[0] == float(Fraction(b) + d + s)


def test_fold_signs_logs_each_fold_and_refuses_to_empty_a_layer(example1):
    out = fold_signs(example1, 1, [0, -1], " over the region")
    assert out.widths == (3, 1, 2, 2)
    assert out.log == ("layer 1 neuron 2: constant -1 over the region, removed",)
    np.testing.assert_array_equal(out.weight(2), [[-1], [-1]])
    assert out.exact_bias(2) == [2, Fraction(-3, 2)]
    with pytest.raises(ValueError, match="layer 2 fully stabilized"):
        fold_signs(example1, 2, [1, -1])
    with pytest.raises(ValueError, match="one sign"):
        fold_signs(example1, 1, [2, 0])
    with pytest.raises(ValueError, match="not a hidden layer"):
        fold_signs(example1, 3, [1, 0])


def stabilize_to_fixpoint(net):
    """Reference: sweep every hidden layer, folding each neuron constant on
    the cube into the next layer's integer offsets, until a whole sweep
    folds nothing.  The biases are integers, so b + d is exact."""
    widths, log = list(net.widths), list(net.log)
    weights, biases, offsets = list(net.weights), list(net.biases), list(net.offsets)
    changed = True
    while changed:
        changed = False
        for i in range(1, len(widths) - 1):
            nv = np.abs(weights[i - 1]).sum(axis=1)
            z = biases[i - 1] + offsets[i - 1]
            const = (z >= nv) | (z < -nv)
            if not const.any():
                continue
            changed = True
            for k in np.flatnonzero(const):
                c = 1 if z[k] >= 0 else -1
                offsets[i] = offsets[i] + weights[i][:, k] * c
                log.append(f"layer {i} neuron {k + 1}: constant {'+1' if c > 0 else '-1'}, removed")
            weights[i] = weights[i][:, ~const]
            weights[i - 1] = weights[i - 1][~const, :]
            biases[i - 1] = biases[i - 1][~const]
            offsets[i - 1] = offsets[i - 1][~const]
            widths[i] = int((~const).sum())
            if widths[i] == 0:
                raise ValueError(f"layer {i} fully stabilized; verification degenerate")
    return FoldedBnn(tuple(widths), tuple(weights), tuple(biases), tuple(log), tuple(offsets))


def induced_fold_run(net, out):
    """The longest run of consecutive hidden layers in which `stabilize`
    folded a neuron that is not constant in `net` itself: one made constant
    by a fold in the layer before."""
    constant = [
        (net.bias(i) >= row_norm1(net.weight(i))) | (net.bias(i) < -row_norm1(net.weight(i)))
        for i in range(1, net.depth + 1)
    ]
    induced = set()
    for line in out.log:
        _, layer, _, neuron, *_ = line.split()
        i, k = int(layer), int(neuron.rstrip(":"))
        if not constant[i - 1][k - 1]:
            induced.add(i)
    best = run = 0
    for i in range(1, net.depth + 1):
        run = run + 1 if i in induced else 0
        best = max(best, run)
    return best


def test_one_stabilize_pass_reaches_the_fixpoint():
    """Folds that cascade through several layers: the single pass gives the
    fixpoint loop's net and log, or raises where it raises."""
    rng = np.random.default_rng(0)
    widths = (3, 4, 4, 4, 2)
    cascades = raised = 0
    for _ in range(200):
        weights = [rng.choice([-1, 0, 1], size=(n, m)) for m, n in zip(widths, widths[1:])]
        biases = [rng.integers(-4, 5, size=n).astype(float) for n in widths[1:]]
        net = FoldedBnn(widths=widths, weights=tuple(weights), biases=tuple(biases))
        try:
            expected = stabilize_to_fixpoint(net)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                stabilize(net)
            raised += 1
            continue
        out = stabilize(net)
        assert out.widths == expected.widths and out.log == expected.log
        for a, b in zip(
            out.weights + out.biases + out.offsets,
            expected.weights + expected.biases + expected.offsets,
        ):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        cascades += induced_fold_run(net, out) >= 2
    assert cascades >= 20 and raised >= 50


def half_integer_net(rng, widths):
    """Ternary net with biases in {-4, -3.5, ..., 4}: many neurons are
    constant on the cube, and many sit at the tie b = -nv."""
    weights = [rng.choice([-1, 0, 1], size=(n, m)) for m, n in zip(widths, widths[1:])]
    biases = [rng.integers(-8, 9, size=n) / 2 for n in widths[1:]]
    return FoldedBnn(widths=widths, weights=tuple(weights), biases=tuple(biases))


def test_neuron_ranges_without_a_region_are_the_cube_ranges():
    """Without a region every layer, layer 1 included, is ranged over the
    cube: beta is the bias and R the row 1-norm."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        net = half_integer_net(rng, (3, 4, 4, 2))
        for i in range(1, net.depth + 1):
            ranges = neuron_ranges(net, i)
            assert ranges == list(zip(net.bias(i).tolist(), row_norm1(net.weight(i)).tolist()))
            assert all(type(v) is Fraction for pair in ranges for v in pair)


def test_stabilize_over_the_cube_region_is_stabilize():
    """The linf ball of radius 1 around 0 has the cube as its box, so it
    folds what `stabilize(net)` folds, byte for byte, or raises where it
    raises; only the layer-1 log lines say " over the region"."""
    rng = np.random.default_rng(1)
    cube = PerturbationRegion.linf(np.zeros(3), 1.0)
    folded = raised = 0
    for _ in range(200):
        net = half_integer_net(rng, (3, 4, 4, 2))
        try:
            expected = stabilize(net)
        except ValueError:
            with pytest.raises(ValueError, match="fully stabilized"):
                stabilize(net, cube)
            raised += 1
            continue
        out = stabilize(net, cube)
        assert out.widths == expected.widths
        for a, b in zip(
            out.weights + out.biases + out.offsets,
            expected.weights + expected.biases + expected.offsets,
        ):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert [line.replace(" over the region", "") for line in out.log] == list(expected.log)
        folded += out.widths[1] < net.widths[1]
    assert folded >= 30 and raised >= 30


def test_stabilize_over_a_region_leaves_a_stabilized_net():
    """A region's box lies in the cube, so every net `stabilize(net,
    region)` returns is stabilized on the cube too."""
    rng = np.random.default_rng(2)
    outputs = cascades = 0
    for k in range(300):
        net = half_integer_net(rng, (3, 4, 4, 2))
        region = random_region(rng, 3, "linf" if k % 2 else "l2", radii=(0.02, 0.6))
        try:
            out = stabilize(net, region)
        except ValueError as exc:
            assert "fully stabilized" in str(exc)
            continue
        assert out.is_stabilized()
        outputs += 1
        cascades += any(line.startswith("layer 2") for line in out.log)
    assert outputs >= 50 and cascades >= 40


def test_stabilize_keeps_every_logit_byte_for_byte():
    """Folds add integers to an integer sum, and the float bias is added
    once, as in the unfolded net: `forward` on the stabilized net gives the
    unfolded net's logits byte for byte.  Biases with one decimal, like
    0.1, make b + d inexact in binary64 wherever a fold reaches the output
    layer."""
    rng = np.random.default_rng(0)
    widths = (3, 4, 4, 3)
    output_folds = 0
    for _ in range(200):
        weights = [rng.choice([-1, 0, 1], size=(n, m)) for m, n in zip(widths, widths[1:])]
        biases = [rng.integers(-40, 41, size=n) / 10 for n in widths[1:]]
        net = FoldedBnn(widths=widths, weights=tuple(weights), biases=tuple(biases))
        try:
            out = stabilize(net)
        except ValueError:
            continue  # a layer emptied out; nothing to compare
        output_folds += out.widths[-2] < widths[-2]
        for x in rng.uniform(-1, 1, size=(5, widths[0])):
            assert forward(out, x).logits.tobytes() == forward(net, x).logits.tobytes()
    assert output_folds >= 100


def test_offsets_are_integers_one_per_neuron(example1):
    zeros = tuple(np.zeros(n, dtype=np.int64) for n in example1.widths[1:])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(example1.offsets, zeros))
    args = (example1.widths, example1.weights, example1.biases, ())
    with pytest.raises(ValueError, match="one integer offset"):
        FoldedBnn(*args, (zeros[0], np.zeros(2), zeros[2]))
    with pytest.raises(ValueError, match="one integer offset"):
        FoldedBnn(*args, (zeros[0], np.zeros(3, dtype=np.int64), zeros[2]))
    with pytest.raises(ValueError, match="layer 1"):
        FoldedBnn(*args, (np.ones(2, dtype=np.int64), zeros[1], zeros[2]))


@pytest.mark.parametrize("seed", range(3))
def test_batched_activations_have_the_forward_signs(seed):
    rng = np.random.default_rng(seed)
    net = stabilize(random_net(rng, (10, 8, 8, 3)))
    xs = rng.uniform(-1, 1, size=(300, 10))
    # rows 100..299 put one layer-1 pre-activation at (or within rounding of)
    # zero, where the batched sums may round differently
    w, b = net.weight(1), net.bias(1)
    for r in range(100, 300):
        j = r % w.shape[0]
        k = int(np.flatnonzero(w[j])[0])
        xs[r, k] -= (w[j] @ xs[r] + b[j]) / w[j, k]
    assert any(forward(net, x).any_zero_preactivation() for x in xs[100:])
    acts = forward_activations(net, xs)
    for x, logits, *rows in zip(xs, forward_logits(net, xs), *acts):
        trace = forward(net, x)
        assert all(np.array_equal(a, r) for a, r in zip(trace.activations, rows))
        assert logits.tobytes() == trace.logits.tobytes()
        # and layer 1's are the signs of the exact sums
        exact = [sum(map(Fraction, (wj * x).tolist()), Fraction(bj)) for wj, bj in zip(w, b)]
        assert rows[0].tolist() == [1 if z >= 0 else -1 for z in exact]


def test_batched_activations_reject_wrong_width(example1):
    with pytest.raises(ValueError, match="do not match"):
        forward_activations(example1, np.zeros((2, 2)))


def test_region_fold_keeps_every_label_in_the_region():
    """Folds are exact and `forward` reads exact signs, so `forward` on
    `stabilize(net, region)` gives `net`'s label, and its logits byte for
    byte, at every point of the region: here at every corner of the
    region's inward float box and at seeded samples.  Half the layer-1
    neurons take minus their least W x over the box's corners, correctly
    rounded, as the bias, so they sit at or within rounding of zero on a
    corner; some coordinates have a corner a few ulps of 1/2 off 0, so
    float sums there lose the small terms, as in a sum 0.5 + 2^-54 +
    2^-54.  Centers and radii in tenths round as well."""
    rng = np.random.default_rng(0)
    compared = folded = zeros = 0
    for k in range(200):
        scale = 8 if k % 2 else 10
        n0 = int(rng.integers(1, 7))
        widths = (n0, int(rng.integers(2, 5)), 2)
        weights = [rng.choice([-1, 0, 1], size=(n, m)) for m, n in zip(widths, widths[1:])]
        biases = [rng.integers(-scale, scale + 1, size=n) / scale for n in widths[1:]]
        radius = int(rng.integers(1, scale)) / scale / 2
        edge = rng.choice([-1, 1], size=n0) * (radius + rng.integers(1, 4, size=n0) * 2.0**-54)
        center = rng.integers(-scale, scale + 1, size=n0) / scale
        center = np.where(rng.integers(2, size=n0).astype(bool), edge, center)
        region = getattr(PerturbationRegion, "linf" if k % 4 < 2 else "l2")(center, radius)
        for j, w in enumerate(weights[0]):
            if rng.integers(2):
                corner = np.where(w > 0, region.lower, region.upper)
                biases[0][j] = -math.fsum((w * corner).tolist())
        net = FoldedBnn(widths=widths, weights=tuple(weights), biases=tuple(biases))
        try:
            out = stabilize(net, region)
        except ValueError:
            continue  # a layer emptied out; nothing to compare
        compared += 1
        folded += any("over the region" in line for line in out.log)
        corners = list(itertools.product(*zip(region.lower, region.upper)))
        for x in [*corners, *sample_region(region, 16, rng)]:
            if region.contains(x):
                trace, got = forward(net, x), forward(out, x)
                zeros += bool(trace.zero_preactivation_flags[0].any())
                assert got.label == trace.label, (k, x)
                assert got.logits.tobytes() == trace.logits.tobytes(), (k, x)
    assert compared >= 100 and folded >= 80 and zeros >= 200
