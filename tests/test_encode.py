"""Region polynomials, the four encodings, cliques, and the MPS writer."""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnncert import (
    Clique,
    MultilinearPoly,
    PerturbationRegion,
    StabilizationNeeded,
    Var,
    assemble_moment_sdp,
    build_cliques,
    check_rip,
    encode_lp,
    encode_milp,
    encode_standard,
    encode_tightened,
    forward,
    linear_identity_residuals,
    objective_targeted,
    region_polynomials,
    to_conic,
    write_mps,
)
from bnncert.oracle import feasible_patterns

from conftest import make_example1, random_net, random_region


def region1(kind="linf", radius=1.0):
    return (
        PerturbationRegion.linf([0, 0.5, 0], radius)
        if kind == "linf"
        else PerturbationRegion.l2([0, 0.5, 0], radius)
    )


def objective1(net):
    return objective_targeted(net, true_label=2, target=1)


# -- region polynomials -------------------------------------------------------


def test_region_l2_ball_plus_box():
    polys = region_polynomials(region1("l2", 0.2))
    assert len(polys) == 4
    ball = polys[0]
    center = {Var(0, 1): 0, Var(0, 2): 0.5, Var(0, 3): 0}
    assert ball.evaluate(center) == pytest.approx(0.04)
    boundary = dict(center)
    boundary[Var(0, 1)] = 0.2
    assert ball.evaluate(boundary) == pytest.approx(0.0)
    for j, box in enumerate(polys[1:], start=1):
        assert box.evaluate({Var(0, j): 1}) == 0
        assert box.evaluate({Var(0, j): -1}) == 0
        assert box.evaluate({Var(0, j): 0}) == 1


def test_region_linf_full_box():
    polys = region_polynomials(PerturbationRegion.linf([0.0, 0.0], 1.0))
    assert len(polys) == 2
    for j, p in enumerate(polys, start=1):
        assert p == MultilinearPoly({((Var(0, j), 2),): -1, (): 1})


def test_region_linf_clips_to_global_box():
    region = PerturbationRegion.linf([0.9], 0.5)
    np.testing.assert_allclose(region.lower, [0.4])
    np.testing.assert_allclose(region.upper, [1.0])
    (p,) = region_polynomials(region)
    assert p.evaluate({Var(0, 1): 0.4}) == pytest.approx(0.0)
    assert p.evaluate({Var(0, 1): 1.0}) == pytest.approx(0.0)
    assert p.evaluate({Var(0, 1): 0.7}) > 0


def test_region_rejects_zero_radius():
    with pytest.raises(ValueError, match="radius"):
        region_polynomials(PerturbationRegion.linf([0.0], 0.0))


# -- targeted objective -------------------------------------------------------


def test_objective_identical_rows_is_constant():
    net = make_example1()
    flat = net.weights[:2] + (np.array([[1, -1], [1, -1]]),)
    from bnncert import FoldedBnn

    same = FoldedBnn(widths=net.widths, weights=flat, biases=net.biases)
    f = objective_targeted(same, 1, 2)
    assert f == MultilinearPoly.constant(Fraction(-1))  # b1 - b2 = -2 - (-1)


def test_objective_matches_logit_margin(example1, x0_example):
    trace = forward(example1, x0_example)
    f = objective1(example1)
    point = {Var(2, k + 1): int(v) for k, v in enumerate(trace.activations[-1])}
    assert f.evaluate(point) == trace.logits[1] - trace.logits[0] == 3


def test_objective_rejects_bad_labels(example1):
    with pytest.raises(ValueError):
        objective_targeted(example1, 1, 1)
    with pytest.raises(ValueError):
        objective_targeted(example1, 3, 1)


# -- standard encoding --------------------------------------------------------


def test_standard_example1_counts(example1):
    inst = encode_standard(example1, region1("l2", 0.2), objective1(example1))
    assert len(inst.constraints.equalities) == 4
    counts = inst.constraints.family_counts()
    assert counts["std"] == 4
    assert counts["region"] == 1
    assert counts["box"] == 3


def test_standard_single_hidden_counts():
    rng = np.random.default_rng(3)
    net = random_net(rng, (2, 3, 2))
    inst = encode_standard(
        net, PerturbationRegion.linf([0, 0], 0.5), objective_targeted(net, 1, 2)
    )
    assert len(inst.constraints.equalities) == 3
    assert inst.constraints.family_counts() == {"std": 3, "region": 2}


@given(st.integers(0, 2**32 - 1))
def test_standard_feasible_at_forward_points(seed):
    """Any (x0, forward activations) pair satisfies the quadratic encoding."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, (3, 3, 2, 2))
    region = random_region(rng, 3)
    x0 = rng.uniform(region.lower, region.upper)
    trace = forward(net, x0)
    if trace.any_zero_preactivation():
        return
    point = {Var(0, k + 1): x0[k] for k in range(3)}
    for i, act in enumerate(trace.activations, start=1):
        point.update({Var(i, j + 1): int(v) for j, v in enumerate(act)})
    inst = encode_standard(net, region, objective_targeted(net, 1, 2))
    for eq in inst.constraints.equalities:
        assert eq.poly.evaluate(point) == 0
    for con in inst.constraints.inequalities:
        assert con.poly.evaluate(point) >= -1e-12


# -- tightened encoding -------------------------------------------------------


def test_tightened_example1_counts(example1):
    inst = encode_tightened(example1, region1("l2", 0.2), objective1(example1))
    counts = inst.constraints.family_counts()
    assert counts == {"g1": 4, "g2": 4, "t1": 4, "t2": 4, "region": 1, "box": 3}
    assert len(inst.constraints.equalities) == 4


def test_tightened_one_sided_products_average_to_standard(example1):
    region = region1("linf", 1.0)
    std = encode_standard(example1, region, objective1(example1))
    tight = encode_tightened(example1, region, objective1(example1))
    for s, g1, g2 in zip(
        std.constraints.by_family("std"),
        tight.constraints.by_family("g1"),
        tight.constraints.by_family("g2"),
    ):
        half = Fraction(1, 2)
        residual = g1.poly * half + g2.poly * half - s.poly
        assert residual.identity_zero()


def test_tightened_tautologies_hold_on_binary_patterns(example1):
    """Deep-layer t1/t2 rows are nonnegative for every predecessor pattern."""
    inst = encode_tightened(example1, region1("linf", 1.0), objective1(example1))
    deep = [
        c
        for c in inst.constraints.inequalities
        if c.family in ("t1", "t2") and c.layer >= 2
    ]
    assert deep
    for con in deep:
        for pattern in itertools.product((-1, 1), repeat=3):
            point = {
                Var(1, 1): pattern[0],
                Var(1, 2): pattern[1],
                Var(con.layer, con.neuron): pattern[2],
            }
            assert con.poly.evaluate(point) >= 0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_tightened_layer1_tautologies_on_region_samples(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, (3, 3, 2))
    region = random_region(rng, 3)
    inst = encode_tightened(net, region, objective_targeted(net, 1, 2))
    rows = [c for c in inst.constraints.inequalities if c.family in ("t1", "t2") and c.layer == 1]
    for _ in range(20):
        x0 = rng.uniform(region.lower, region.upper)
        point = {Var(0, k + 1): x0[k] for k in range(3)}
        for c in rows:
            point[Var(1, c.neuron)] = int(rng.choice([-1, 1]))
            assert c.poly.evaluate(point) >= -1e-12


# -- LP / MILP encodings ------------------------------------------------------


def test_lp_envelope_row_matches_hand_computation(example1):
    inst = encode_lp(example1, region1("linf", 1.0), objective1(example1))
    row = next(
        c
        for c in inst.constraints.by_family("lin1")
        if (c.layer, c.neuron) == (2, 2)
    )
    # c_plus = nv + b = 2 - 0.5 = 1.5; normalizing by 1/c_plus gives
    # x_{2,2} + (4/3) x_{1,1} - (4/3) x_{1,2} + 5/3 >= 0
    normalized = row.poly * (Fraction(1) / Fraction(3, 2))
    expected = MultilinearPoly.linear(
        {Var(2, 2): 1, Var(1, 1): Fraction(4, 3), Var(1, 2): Fraction(-4, 3)},
        Fraction(5, 3),
    )
    assert (normalized - expected).is_zero()


def test_lp_row_counts(example1):
    inst = encode_lp(example1, region1("linf", 1.0), objective1(example1))
    counts = inst.constraints.family_counts()
    assert counts == {"lin1": 4, "lin2": 4, "lin0": 8, "region": 6}
    assert inst.constraints.equalities == ()


def test_lp_raises_stabilization_needed_on_tight_region(example1):
    # at eps = 0.2 every layer-1 neuron of the toy net is constant
    with pytest.raises(StabilizationNeeded, match="always activated"):
        encode_lp(example1, region1("linf", 0.2), objective1(example1))
    with pytest.raises(StabilizationNeeded):
        encode_lp(example1, region1("l2", 0.2), objective1(example1))


def test_layer1_rows_are_centered_on_the_clipped_box(example1):
    """Clipped at +/-1, the box [0.8,1] x [-1,-0.8] x [-1,-0.8] of this
    region is centered at (0.9, -0.9, -0.9), not at the region center."""
    region = PerturbationRegion.linf([1, -1, -1], 0.2)
    assert region.lower.tolist() == [0.8, -1.0, -1.0]
    assert region.upper.tolist() == [1.0, -0.8, -0.8]
    # neuron (1,1): z = -x1 + x2 + x3 + 1.5 is at most -0.9 on the box
    with pytest.raises(StabilizationNeeded, match="never activated") as info:
        encode_lp(example1, region, objective1(example1))
    assert (info.value.layer, info.value.neuron) == (1, 1)
    # neuron (1,2): z = -x1 - x2 + x3 + 2, R = 3(1 - a)/2 with a = 0.8 and
    # zeta = z - beta = -x1 - x2 + x3 + (1 + a)/2
    a = Fraction(0.8)
    inst = encode_tightened(example1, region, objective1(example1))
    rows = {
        c.family: c.poly for c in inst.constraints.inequalities if (c.layer, c.neuron) == (1, 2)
    }
    x = MultilinearPoly.variable(Var(1, 2))
    slack_pos = MultilinearPoly.linear({Var(0, 1): 1, Var(0, 2): 1, Var(0, 3): -1}, 1 - 2 * a)
    slack_neg = MultilinearPoly.linear({Var(0, 1): -1, Var(0, 2): -1, Var(0, 3): 1}, 2 - a)
    assert rows["t1"] == (x + 1) * slack_pos
    assert rows["t2"] == (1 - x) * slack_neg


def test_lp_rejects_quadratic_objective(example1):
    x = MultilinearPoly.variable(Var(2, 1))
    with pytest.raises(ValueError, match="affine"):
        encode_lp(example1, region1("linf", 1.0), x * x)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_milp_points_are_lp_feasible(seed):
    """Every oracle-feasible pattern/witness satisfies the LP rows."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, (3, 3, 2))
    region = random_region(rng, 3)
    obj = objective_targeted(net, 1, 2)
    problem = to_conic(assemble_moment_sdp(encode_lp(net, region, obj)))
    assert problem.psd_sizes == ()
    # without PSD blocks, column j is the moment of the j-th variable
    pos = {key[0]: j for j, key in enumerate(problem.index.order[1:])}
    for record in feasible_patterns(net, region):
        x = np.zeros(problem.n_vars)
        for k, val in enumerate(record.witness):
            x[pos[Var(0, k + 1)]] = val
        for i, layer in enumerate(record.pattern, start=1):
            for j, s in enumerate(layer, start=1):
                x[pos[Var(i, j)]] = s
        assert np.all(problem.b - problem.A @ x >= -1e-9)


def test_milp_marks_all_hidden_binaries(example1):
    inst = encode_milp(example1, region1("linf", 1.0), objective1(example1))
    assert inst.binary_vars == (Var(1, 1), Var(1, 2), Var(2, 1), Var(2, 2))
    assert inst.encoding_kind == "milp"


def test_milp_threshold_variant(example1):
    inst = encode_milp(
        example1,
        region1("linf", 1.0),
        objective1(example1),
        feasibility_threshold=0.0,
    )
    cut = inst.constraints.by_family("threshold")
    assert len(cut) == 1
    assert inst.objective.is_zero()
    # threshold row is threshold - f, so it evaluates to -f(point) + 0
    point = {Var(2, 2): -1}
    assert cut[0].poly.evaluate(point) == -3


def test_milp_l2_keeps_ball_quadratic(example1):
    inst = encode_milp(example1, region1("l2", 1.0), objective1(example1))
    ball_rows = [c for c in inst.constraints.by_family("region") if c.poly.degree == 2]
    assert len(ball_rows) == 1


# -- cliques ------------------------------------------------------------------


def test_cliques_example1_match_figure(example1):
    cliques = build_cliques(example1)
    assert [c.variables for c in cliques] == [
        (Var(0, 1), Var(1, 1), Var(1, 2)),
        (Var(0, 2), Var(1, 1), Var(1, 2)),
        (Var(0, 3), Var(1, 1), Var(1, 2)),
        (Var(1, 1), Var(1, 2), Var(2, 1)),
        (Var(1, 1), Var(1, 2), Var(2, 2)),
    ]
    assert check_rip(cliques)


def test_cliques_depth3_counts():
    rng = np.random.default_rng(0)
    net = random_net(rng, (4, 3, 3, 3, 2))
    cliques = build_cliques(net)
    # one adjacent sign-layer pair, one clique per input, one per last-layer unit
    assert len(cliques) == 1 + 4 + 3
    assert max(len(c.variables) for c in cliques) == 6
    assert check_rip(cliques)


def test_cliques_depth1_shape():
    rng = np.random.default_rng(1)
    net = random_net(rng, (5, 2, 2))
    cliques = build_cliques(net)
    assert len(cliques) == 5
    assert all(len(c.variables) == 3 for c in cliques)
    assert check_rip(cliques)


def test_rip_accepts_disjoint_cliques():
    cliques = [
        Clique(1, (Var(0, 1), Var(1, 1))),
        Clique(2, (Var(0, 2), Var(1, 2))),
    ]
    assert check_rip(cliques)


def test_rip_rejects_overlap_split_across_cliques():
    bad = [
        Clique(1, (Var(0, 1), Var(1, 1))),
        Clique(2, (Var(0, 2), Var(1, 2))),
        Clique(3, (Var(1, 1), Var(1, 2), Var(2, 1))),
    ]
    assert not check_rip(bad)


def test_rip_detects_misordered_clique_list(example1):
    cliques = build_cliques(example1)
    # placing an output clique before the inputs breaks nothing here (all
    # share layer 1), so build a genuinely bad order on a deeper net instead
    rng = np.random.default_rng(2)
    net = random_net(rng, (3, 2, 2, 2, 2))
    good = build_cliques(net)
    assert check_rip(good)
    pair = next(c for c in good if all(v.layer >= 1 for v in c.variables) and len(c.variables) == 4)
    inputs = [c for c in good if any(v.layer == 0 for v in c.variables)]
    outputs = [c for c in good if any(v.layer == net.depth for v in c.variables)]
    shuffled = inputs + outputs + [pair]
    assert not check_rip(shuffled)


# -- identity suite -----------------------------------------------------------


def test_identity_residuals_vanish_on_example1(example1):
    residuals = linear_identity_residuals(example1, region1("linf", 1.0))
    assert len(residuals) == 24  # 6 families x 4 hidden neurons
    for label, poly in residuals:
        assert poly.identity_zero(), label


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_identity_residuals_vanish_on_random_nets(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, (3, 4, 3, 2))
    region = random_region(rng, 3, "linf" if seed % 2 else "l2")
    for label, poly in linear_identity_residuals(net, region):
        assert poly.identity_zero(), label


# -- MPS writer ---------------------------------------------------------------


def test_write_mps_marks_integers(example1, tmp_path):
    inst = encode_milp(example1, region1("linf", 1.0), objective1(example1))
    path = tmp_path / "toy.mps"
    write_mps(inst, path)
    text = path.read_text()
    assert "MARKER" in text and "INTORG" in text and "INTEND" in text
    # one 0/1 column per hidden neuron, named by layer/index
    for name in ("Z1_1", "Z1_2", "Z2_1", "Z2_2"):
        assert name in text
    assert "x = 2z - 1" in text
    assert text.count(" BV BND") == 4


def test_write_mps_rejects_ball_region(example1, tmp_path):
    inst = encode_milp(example1, region1("l2", 1.0), objective1(example1))
    with pytest.raises(ValueError, match="linf"):
        write_mps(inst, tmp_path / "ball.mps")


@pytest.mark.parametrize(
    "threshold, digest",
    [
        (None, "fcac3364d9ce19ae70e1319c4713ffb9c5aa3a2135806f50eabdb77a29919fab"),
        (0.0, "2f30fd858e115e7df645e998b69853e90e434b7aec4a0f35394f26adf219c365"),
    ],
    ids=["bound", "threshold-0"],
)
def test_write_mps_bytes_are_pinned(example1, tmp_path, threshold, digest):
    """The README net's MILP at linf 1.0, as the writer has always written it."""
    inst = encode_milp(example1, region1("linf", 1.0), objective1(example1), threshold)
    path = tmp_path / "toy.mps"
    write_mps(inst, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
