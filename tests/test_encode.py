"""Region polynomials, the four encodings, cliques, and the MPS writer."""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnncert import (
    Clique,
    FoldedBnn,
    MultilinearPoly,
    PerturbationRegion,
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
    merge_cliques,
    neuron_rows,
    objective_targeted,
    region_polynomials,
    to_conic,
    write_mps,
)
from bnncert.encode import EXACT_PSD_ORDER
from bnncert.oracle import feasible_patterns, sample_region

from conftest import in_region, make_example1, random_net, random_region


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


def seeded_regions(seed, count):
    """Regions of 1 to 6 inputs in both norms: 4-digit and full-precision
    centers, some on the cube's faces, and radii from 0 to past the cube,
    infinity included."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n0 = int(rng.integers(1, 7))
        center = rng.uniform(-1, 1, n0)
        if i % 2:
            center = np.round(center, 4)
        if i % 5 == 0:
            center[0] = rng.choice([-1.0, 1.0])
        radius = [float(rng.uniform(0, 0.7)), round(float(rng.uniform(0, 3)), 4), np.inf][i % 3]
        yield PerturbationRegion("linf" if i % 4 < 2 else "l2", center, radius)


def test_region_box_is_exact_and_its_floats_lie_inside():
    """The box is clip(c -/+ r) to [-1, 1] exactly.  `lower`/`upper` lie in
    it, with no float strictly between each and its exact bound, so
    `contains` holds at a float bound and fails one ulp past it.  It agrees
    with exact membership on points of the float box, and every linf sample
    passes it."""
    rng = np.random.default_rng(7)
    for region in seeded_regions(26, 300):
        c = [Fraction(v) for v in region.center.tolist()]
        r = Fraction(min(region.radius, 2.0))
        lo, hi = [max(v - r, -1) for v in c], [min(v + r, 1) for v in c]
        assert region.box() == (lo, hi)
        for f, q in zip(region.lower, lo):
            assert Fraction(f) >= q > Fraction(np.nextafter(f, -np.inf))
        for f, q in zip(region.upper, hi):
            assert Fraction(f) <= q < Fraction(np.nextafter(f, np.inf))
        x = np.array(region.center)
        for j in range(region.dim):
            for bound, out in ((region.lower[j], -np.inf), (region.upper[j], np.inf)):
                x[j] = bound
                assert region.contains(x)
                x[j] = np.nextafter(bound, out)
                assert not region.contains(x)
            x[j] = region.center[j]
        for x in rng.uniform(region.lower, region.upper, size=(20, region.dim)):
            assert region.contains(x) == in_region(region, x)
        if region.kind == "linf":
            assert all(map(region.contains, sample_region(region, 50, rng)))


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
    for con in inst.constraints.inequalities:
        assert con.poly.evaluate(point) >= -1e-12


# -- tightened encoding -------------------------------------------------------


def test_tightened_example1_counts(example1):
    inst = encode_tightened(example1, region1("l2", 0.2), objective1(example1))
    counts = inst.constraints.family_counts()
    assert counts == {"g1": 4, "g2": 4, "t1": 4, "t2": 4, "region": 1, "box": 3}


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


def corner_envelopes(net, layer, region):
    """(lin1, lin2) of every neuron of `layer`, keyed by neuron, from the
    extremes of z over the box computed corner-wise: (x+1)*z_max - 2z and
    (1-x)*(-z_min) + 2z."""
    if layer == 1:
        lo, hi = region.box()
    else:
        lo, hi = [-1] * net.widths[layer - 1], [1] * net.widths[layer - 1]
    out = {}
    for j, (w, b) in enumerate(zip(net.weight(layer).tolist(), net.bias(layer).tolist()), 1):
        b = Fraction(b)
        z = MultilinearPoly.linear({Var(layer - 1, k): wk for k, wk in enumerate(w, 1)}, b)
        z_max = b + sum(max(wk * l, wk * h) for wk, l, h in zip(w, lo, hi))
        z_min = b + sum(min(wk * l, wk * h) for wk, l, h in zip(w, lo, hi))
        x = MultilinearPoly.variable(Var(layer, j))
        out[j] = ((x + 1) * z_max - z * 2, (1 - x) * (-z_min) + z * 2)
    return out


def test_lp_encodes_constant_layer1_neurons(example1):
    """At eps 0.2 both layer-1 neurons of the toy net are +1 over the box
    (z_min > 0, so c_minus < 0); the LP still emits both envelopes for them,
    in both norms (the l2 ball's box enclosure is the linf box)."""
    for region in (region1("linf", 0.2), region1("l2", 0.2)):
        inst = encode_lp(example1, region, objective1(example1))
        counts = inst.constraints.family_counts()
        assert counts == {"lin1": 4, "lin2": 4, "lin0": 8, "region": 6}
        assert all(row.envelope_slopes()[1] < 0 for row in neuron_rows(example1, 1, region))
        for layer in (1, 2):
            expected = corner_envelopes(example1, layer, region)
            for family, side in (("lin1", 0), ("lin2", 1)):
                cs = inst.constraints.by_family(family)
                rows = {c.neuron: c.poly for c in cs if c.layer == layer}
                assert rows == {j: pair[side] for j, pair in expected.items()}


def test_layer1_rows_are_centered_on_the_clipped_box(example1):
    """Clipped at +/-1, the box [0.8,1] x [-1,-0.8] x [-1,-0.8] of this
    region is centered at (0.9, -0.9, -0.9), not at the region center."""
    region = PerturbationRegion.linf([1, -1, -1], 0.2)
    assert region.lower.tolist() == [0.8, -1.0, -1.0]
    assert region.upper.tolist() == [1.0, -0.8, -0.8]
    # neuron (1,1): z = -x1 + x2 + x3 + 1.5 runs over [-1.5, 1.5 - 3a] on
    # the box, so it is -1 there and c_plus = 1.5 - 3a is negative; the
    # box is exact, so a = 1 - 0.2 in rationals, not the float 0.8
    a = 1 - Fraction(0.2)
    lp = encode_lp(example1, region, objective1(example1))
    rows = {
        c.family: c.poly for c in lp.constraints.inequalities if (c.layer, c.neuron) == (1, 1)
    }
    x = MultilinearPoly.variable(Var(1, 1))
    z = MultilinearPoly.linear({Var(0, 1): -1, Var(0, 2): 1, Var(0, 3): 1}, Fraction(3, 2))
    assert rows["lin1"] == (x + 1) * (Fraction(3, 2) - 3 * a) - z * 2
    assert rows["lin2"] == (1 - x) * Fraction(3, 2) + z * 2
    # neuron (1,2): z = -x1 - x2 + x3 + 2, R = 3(1 - a)/2 and
    # zeta = z - beta = -x1 - x2 + x3 + (1 + a)/2
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


@pytest.mark.parametrize("encoder", [encode_lp, encode_standard, encode_tightened])
def test_relaxations_mark_no_binaries(example1, encoder):
    inst = encoder(example1, region1("linf", 1.0), objective1(example1))
    assert inst.binary_vars == ()


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


@pytest.mark.parametrize("kind", ["linf", "l2"])
def test_milp_region_rows_are_the_box_and_the_ball(example1, kind):
    """The region rows are x_k <= upper_k and x_k >= lower_k per coordinate,
    plus radius^2 - |x - center|^2 for l2: exactly what the oracle's cell
    decider holds, so the MILP pattern walk can leave them to it."""
    region = region1(kind, 0.7)
    inst = encode_milp(example1, region, objective1(example1))
    expected = []
    for k, (lo, hi) in enumerate(zip(region.lower, region.upper), start=1):
        x = MultilinearPoly.variable(Var(0, k))
        expected += [float(hi) - x, x - float(lo)]
    if kind == "l2":
        ball = MultilinearPoly.constant(Fraction(0.7) ** 2)
        for k, c in enumerate(region.center, start=1):
            d = MultilinearPoly.variable(Var(0, k)) - c
            ball = ball - d * d
        expected.append(ball)
    assert [c.poly for c in inst.constraints.by_family("region")] == expected


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
        Clique((Var(0, 1), Var(1, 1))),
        Clique((Var(0, 2), Var(1, 2))),
    ]
    assert check_rip(cliques)


def test_rip_rejects_overlap_split_across_cliques():
    bad = [
        Clique((Var(0, 1), Var(1, 1))),
        Clique((Var(0, 2), Var(1, 2))),
        Clique((Var(1, 1), Var(1, 2), Var(2, 1))),
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


def _svec_len(clique_or_block) -> int:
    s = len(clique_or_block.variables) + 1
    return s * (s + 1) // 2


@pytest.mark.parametrize(
    "widths, orders",
    [
        pytest.param((5, 2, 2), (8,), id="depth 1"),
        pytest.param(None, (8,), id="README net"),
        pytest.param((4, 3, 3, 3, 2), (14,), id="depth 3"),
        pytest.param((10, 8, 8, 3), (27,), id="10-8-8-3"),
        pytest.param((20, 12, 12, 4), (45,), id="20-12-12-4"),
        # order 64 caps the first two blocks
        pytest.param((50, 32, 32, 5), (64, 64, 53), id="50-32-32-5"),
    ],
)
def test_merge_cliques_covers_each_clique_with_cheaper_blocks(widths, orders):
    net = make_example1() if widths is None else random_net(np.random.default_rng(3), widths)
    cliques = build_cliques(net)
    blocks = merge_cliques(cliques)
    assert blocks == merge_cliques(build_cliques(net))
    for block in blocks:
        assert list(block.variables) == sorted(set(block.variables))
        assert len(block.variables) + 1 <= EXACT_PSD_ORDER
    # every clique lies inside a block; a block that took in several cliques
    # costs fewer svec entries than they did (each join saved some)
    inside = [[c for c in cliques if set(c.variables) <= set(b.variables)] for b in blocks]
    assert all(any(c in members for members in inside) for c in cliques)
    for block, members in zip(blocks, inside):
        if len(members) > 1:
            assert _svec_len(block) < sum(map(_svec_len, members))
    assert tuple(len(b.variables) + 1 for b in blocks) == orders


def test_a_clique_holds_its_variables_sorted(example1, x0_example):
    """Given in any order, a clique's variables are sorted, so the moment
    assembly reads each pair as its sorted key: reversed cliques give the
    same conic problem."""
    assert Clique((Var(1, 2), Var(0, 3), Var(1, 1))).variables == (Var(0, 3), Var(1, 1), Var(1, 2))
    inst = encode_tightened(
        example1, PerturbationRegion.linf(x0_example, 0.5), objective_targeted(example1, 2, 1)
    )
    cliques = build_cliques(example1)
    reversed_ = [Clique(c.variables[::-1]) for c in cliques]
    a, b = (to_conic(assemble_moment_sdp(inst, cs)) for cs in (cliques, reversed_))
    for x, y in ((a.A.row, b.A.row), (a.A.col, b.A.col), (a.A.data, b.A.data), (a.b, b.b), (a.c, b.c)):
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


def test_merge_cliques_joins_only_when_the_union_is_cheaper():
    a, b, c, d, e, f, g = (Var(1, k) for k in range(1, 8))
    # two order-5 blocks (15 entries each) against one of order 8 (36)
    apart = [Clique((a, b, c, d)), Clique((d, e, f, g))]
    assert merge_cliques(apart) == apart
    # order 3 and 3 (6 + 6) against order 4 (10); disjoint cliques never join
    joined = [Clique((a, b)), Clique((f, g)), Clique((b, c))]
    assert merge_cliques(joined) == [Clique((a, b, c)), Clique((f, g))]
    # equal savings: the first block takes the clique
    tie = [Clique((a, b)), Clique((c, d)), Clique((b, c))]
    assert merge_cliques(tie) == [Clique((a, b, c)), Clique((c, d))]


def test_merge_cliques_keeps_blocks_within_the_exact_check_order():
    n = EXACT_PSD_ORDER
    xs = [Var(1, k) for k in range(1, n + 1)]
    # two blocks of order n whose union, of order n + 1, would save entries
    wide = [Clique(tuple(xs[: n - 1])), Clique(tuple(xs[1:n]))]
    assert merge_cliques(wide) == wide
    fits = [Clique(tuple(xs[: n - 1])), Clique(tuple(xs[1 : n - 1]))]
    assert merge_cliques(fits) == fits[:1]
    # cliques already past the limit (100-64-64-10: order 66) stay apart
    net = random_net(np.random.default_rng(0), (100, 64, 64, 10))
    assert merge_cliques(build_cliques(net)) == build_cliques(net)


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


def assert_envelopes_are_tightened_sums(net, region):
    """lin1 = g2 + t1 and lin2 = g1 + t2, exactly, for every hidden neuron."""
    f = objective_targeted(net, 1, 2)
    lp = encode_lp(net, region, f).constraints
    tight = encode_tightened(net, region, f).constraints

    def rows(cs, family):
        return {(c.layer, c.neuron): c.poly for c in cs.by_family(family)}

    g1, g2, t1, t2 = (rows(tight, family) for family in ("g1", "g2", "t1", "t2"))
    lin1, lin2 = rows(lp, "lin1"), rows(lp, "lin2")
    assert lin1.keys() == lin2.keys() == g1.keys() and len(lin1) == net.hidden_count()
    for key in lin1:
        assert lin1[key] == g2[key] + t1[key], key
        assert lin2[key] == g1[key] + t2[key], key


def test_envelopes_are_tightened_sums_on_example1(example1):
    for kind, radius in itertools.product(("linf", "l2"), (0.02, 0.2, 1.0)):
        assert_envelopes_are_tightened_sums(example1, region1(kind, radius))
    # the clipped corner region, where neuron (1,1) is -1 over the box
    assert_envelopes_are_tightened_sums(example1, PerturbationRegion.linf([1, -1, -1], 0.2))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_envelopes_are_tightened_sums_on_random_nets(seed):
    """Small radii too, where layer-1 neurons are constant over the region."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, (3, 4, 3, 2))
    kind = "linf" if seed % 2 else "l2"
    for radii in ((0.6, 1.0), (0.02, 0.3)):
        assert_envelopes_are_tightened_sums(net, random_region(rng, 3, kind, radii))


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


def test_write_mps_refuses_the_lp(example1, tmp_path):
    """MPS columns of hidden variables are binary: only the MILP has them."""
    inst = encode_lp(example1, region1("linf", 1.0), objective1(example1))
    with pytest.raises(ValueError, match="only the MILP"):
        write_mps(inst, tmp_path / "lp.mps")


def test_write_mps_rejects_ball_region(example1, tmp_path):
    inst = encode_milp(example1, region1("l2", 1.0), objective1(example1))
    with pytest.raises(ValueError, match="linf"):
        write_mps(inst, tmp_path / "ball.mps")


@pytest.mark.parametrize(
    "threshold, digest",
    [
        (None, "4db9711e687287a9f14067d020b02e2ec62782d28b1b0cac0c13dff2c86456ee"),
        (0.0, "37f2f7b2e93698843412e519ebea2ba6dbf89d000c3cd35ce6e7af16c07653b7"),
    ],
    ids=["bound", "threshold-0"],
)
def test_write_mps_bytes_are_pinned(example1, tmp_path, threshold, digest):
    """The README net's MILP at linf 1.0, byte for byte."""
    inst = encode_milp(example1, region1("linf", 1.0), objective1(example1), threshold)
    path = tmp_path / "toy.mps"
    write_mps(inst, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_write_mps_rounds_input_bounds_outward(example1, tmp_path):
    """The shifted bounds (lo + 1)/2 and (hi + 1)/2 of the exact box, rounded
    outward: for lo = 0.1 the nearest float to (0.1 + 1)/2 is 0.55, which
    lies above the exact 0.55000000000000000278, so the bound is the float
    below it."""
    region = PerturbationRegion.linf([0.1 + 0.0625, 0.5, 0.0], 0.0625)
    assert region.box()[0][0] == Fraction(0.1)
    path = tmp_path / "box.mps"
    write_mps(encode_milp(example1, region, objective1(example1)), path)
    bounds = {}
    for line in path.read_text().splitlines():
        kind, *rest = line.split()
        if kind in ("LO", "UP"):
            bounds[kind, rest[1]] = float(rest[2])
    assert bounds["LO", "Z0_1"] == np.nextafter(0.55, 0)
    for j, (lo, hi) in enumerate(zip(*region.box()), start=1):
        written_lo, written_hi = bounds["LO", f"Z0_{j}"], bounds["UP", f"Z0_{j}"]
        assert Fraction(written_lo) <= (lo + 1) / 2 < Fraction(np.nextafter(written_lo, 1))
        assert Fraction(np.nextafter(written_hi, 0)) < (hi + 1) / 2 <= Fraction(written_hi)


def mps_rows(text, kinds=("G",)):
    """(lhs, rhs) of a MILP's MPS file: lhs[row] lists its (column, value)
    entries, rhs[row] its right-hand side (0 when absent), for the rows of
    the types `kinds` (G rows by default; N is the objective)."""
    lhs, rhs, section = {}, {}, None
    for line in text.splitlines():
        if line.startswith("*"):
            continue
        if not line.startswith(" "):
            section = line.split()[0]
            continue
        parts = line.split()
        if section == "ROWS" and parts[0] in kinds:
            lhs[parts[1]], rhs[parts[1]] = [], Fraction(0)
        elif section == "COLUMNS" and "'MARKER'" not in line and parts[1] in lhs:
            lhs[parts[1]].append((parts[0], Fraction(float(parts[2]))))
        elif section == "RHS" and parts[1] in rhs:
            rhs[parts[1]] = Fraction(float(parts[2]))
    return lhs, rhs


def test_write_mps_rows_hold_at_an_exact_point_of_the_region(example1, tmp_path):
    """At the region's exact lower corner and its exact signs every written
    row holds, in rationals.  Rounded to nearest, the region row 2 z >= 1.1
    cut off z = (0.1 + 1)/2, since the float 1.1 lies above 0.1 + 1; the
    rows now skip the region, which BOUNDS carry, and round outward."""
    region = PerturbationRegion.linf([0.1 + 0.0625, 0.5, 0.0], 0.0625)
    path = tmp_path / "box.mps"
    write_mps(encode_milp(example1, region, objective1(example1)), path)
    x = region.box()[0]
    point = {f"Z0_{k}": (v + 1) / 2 for k, v in enumerate(x, start=1)}
    for i in range(1, example1.depth + 1):
        z = [
            b + sum(w * v for w, v in zip(row, x))
            for row, b in zip(example1.weight(i).tolist(), example1.exact_bias(i))
        ]
        x = [1 if v >= 0 else -1 for v in z]
        point.update({f"Z{i}_{j}": Fraction(s + 1, 2) for j, s in enumerate(x, start=1)})
    lhs, rhs = mps_rows(path.read_text())
    assert lhs
    for row, entries in lhs.items():
        assert sum(a * point[col] for col, a in entries) >= rhs[row], row


def test_write_mps_objective_lies_below_the_exact_one(example1, tmp_path):
    """Output biases 1 and 2^-70 give the objective the constant 1 - 2^-70,
    which binary64 rounds up to 1.  The written objective is rounded down
    instead: at every point with binary hidden values and inputs at the
    exact box's corners it is at most the exact one, in rationals."""
    net = FoldedBnn(
        example1.widths, example1.weights, (*example1.biases[:-1], np.array([1.0, 2.0**-70]))
    )
    objective = objective_targeted(net, true_label=1, target=2)
    assert objective.constant_term() == 1 - Fraction(2) ** -70
    region = PerturbationRegion.linf([0.1 + 0.0625, 0.5, 0.0], 0.0625)
    path = tmp_path / "objective.mps"
    write_mps(encode_milp(net, region, objective), path)
    lhs, rhs = mps_rows(path.read_text(), kinds=("N",))
    coeffs, const = dict(lhs["OBJ"]), -rhs["OBJ"]  # RHS holds minus the constant
    hidden = [Var(i, j) for i in range(1, net.depth + 1) for j in range(1, net.widths[i] + 1)]
    for corner in itertools.product(*zip(*region.box())):
        for signs in itertools.product((-1, 1), repeat=len(hidden)):
            point = dict(zip(hidden, signs)) | {Var(0, k): v for k, v in enumerate(corner, 1)}
            z = {f"Z{v.layer}_{v.index}": Fraction(x + 1) / 2 for v, x in point.items()}
            assert const + sum(a * z[col] for col, a in coeffs.items()) <= objective.evaluate(point)
