"""Exhaustive pattern oracle, MILP cross-check, and the sampling upper bound."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnncert import (
    FoldedBnn,
    MultilinearPoly,
    PerturbationRegion,
    Var,
    encode_milp,
    exact_verify,
    feasible_patterns,
    forward,
    objective_targeted,
    relative_improvement,
    sample_logits,
)
from bnncert import oracle
from bnncert.model import forward_rows, stabilize
from bnncert.oracle import (
    _cell_witness,
    milp_feasible_patterns,
    pattern_assignment,
    sample_region,
)

from conftest import (
    EXAMPLE1_X0,
    in_region,
    make_example1,
    random_net,
    random_region,
    random_widths,
)


def objective1(net):
    return objective_targeted(net, true_label=2, target=1)


def test_enumerate_patterns_cap():
    rng = np.random.default_rng(0)
    net = random_net(rng, (3, 21, 2))  # 21 layer-1 neurons
    region = PerturbationRegion.linf(np.zeros(3), 0.5)
    with pytest.raises(ValueError, match="at most 20"):
        feasible_patterns(net, region)


def test_the_cap_counts_layer1_neurons_only():
    """21 hidden neurons, 5 of them in layer 1: the walks branch on 2^5
    cells and compute the deeper signs, so the query is decided."""
    rng = np.random.default_rng(0)
    net = random_net(rng, (3, 5, 16, 2))
    assert net.hidden_count() == 21
    region = PerturbationRegion.linf(np.zeros(3), 0.5)
    f = objective_targeted(net, 1, 2)
    patterns = assert_milp_matches_oracle(net, region, f)
    assert exact_verify(net, region, f).n_feasible == len(patterns) > 0


@pytest.mark.parametrize("kind", ["linf", "l2"])
def test_milp_walk_leaves_the_region_to_the_cell_decider(example1, x0_example, kind, monkeypatch):
    """`_cell_witness` holds the region, so the MILP walk hands each cell
    only layer 1's 2 * n1 envelope rows, no box (or ball) row."""
    rows_seen = []
    witness = oracle._cell_witness

    def spy(rows, region):
        rows_seen.append(rows)
        return witness(rows, region)

    monkeypatch.setattr(oracle, "_cell_witness", spy)
    region = getattr(PerturbationRegion, kind)(x0_example, 1.0)
    inst = encode_milp(example1, region, objective1(example1))
    milp_feasible_patterns(inst)
    assert rows_seen
    assert all(len(rows) == 2 * example1.hidden_widths[0] for rows in rows_seen)


def test_pattern_assignment_values():
    pattern = ((1, -1), (-1, 1))
    assignment = pattern_assignment(pattern)
    assert assignment == {
        Var(1, 1): 1,
        Var(1, 2): -1,
        Var(2, 1): -1,
        Var(2, 2): 1,
    }


def test_exact_verify_point_region(example1, x0_example):
    region = PerturbationRegion.l2(x0_example, 0.0)
    res = exact_verify(example1, region, objective1(example1))
    assert res.tau == Fraction(3)
    assert res.n_feasible == 1
    np.testing.assert_allclose(res.witness, x0_example)
    assert res.minimizer == ((1, 1), (-1, -1))


def test_exact_verify_small_l2_ball(example1, x0_example):
    region = PerturbationRegion.l2(x0_example, 0.2)
    res = exact_verify(example1, region, objective1(example1))
    assert res.tau <= Fraction(3)
    assert res.n_feasible >= 1
    assert res.value == float(res.tau)


def test_exact_verify_example1_full_box(example1, x0_example):
    region = PerturbationRegion.linf(x0_example, 1.0)
    res = exact_verify(example1, region, objective1(example1))
    assert res.tau == Fraction(-1)
    assert res.n_feasible == 4
    assert region.contains(res.witness)


def test_exact_verify_constant_objective(example1, x0_example):
    region = PerturbationRegion.linf(x0_example, 0.5)
    res = exact_verify(example1, region, MultilinearPoly.constant(Fraction(5, 4)))
    assert res.tau == Fraction(5, 4)


def test_exact_verify_rejects_input_variables(example1, x0_example):
    region = PerturbationRegion.linf(x0_example, 0.5)
    bad = MultilinearPoly.variable(Var(0, 1))
    with pytest.raises(ValueError, match="binary variables only"):
        exact_verify(example1, region, bad)


def l2_family(seed, n_nets=6):
    """Seeded 4-level nets, each with an l2 ball wide enough to leave every
    layer-1 neuron undetermined, at that radius and at 0.6 and 0.3 of it."""
    rng = np.random.default_rng(seed)
    for _ in range(n_nets):
        net = random_net(rng, random_widths(rng, (6, 5, 4, 3)))
        center = rng.uniform(-0.2, 0.2, net.input_dim)
        W = net.weight(1)
        radius = 0.55 * max(np.abs(row).sum() / np.linalg.norm(row) for row in W)
        for scale in (1.0, 0.6, 0.3):
            yield net, PerturbationRegion.l2(center, scale * radius)


def test_oracle_witnesses_lie_in_the_exact_region():
    """Seeded nets up to 6-5-4-3 around 4-digit centers, in both norms: a
    cell's witness often sits on a box face, where c -/+ r is rarely a
    float, and it is rounded toward the center, so it stays in the region."""
    rng = np.random.default_rng(26)
    n = 0
    for _ in range(60):
        net = random_net(rng, random_widths(rng, (6, 5, 4, 3)))
        center = np.round(rng.uniform(-0.9, 0.9, net.input_dim), 4)
        radius = round(float(rng.uniform(0.2, 0.9)), 4)
        for kind in ("linf", "l2"):
            region = getattr(PerturbationRegion, kind)(center, radius)
            for rec in feasible_patterns(net, region):
                assert region.contains(rec.witness) and in_region(region, rec.witness)
                n += 1
    assert n >= 500


def witness_cases(kind):
    region = getattr(PerturbationRegion, kind)(EXAMPLE1_X0, 1.0)
    yield make_example1(), region
    if kind == "l2":
        yield from l2_family(808)


@pytest.mark.parametrize("kind", ["linf", "l2"])
def test_witnesses_satisfy_their_patterns(kind):
    """Every witness lies in the region, meets its pattern's layer-1 rows to
    1e-12 and reproduces the deeper signs.  A cell with positive max slack
    over the region's box has a witness that meets its rows strictly, so
    `forward` reproduces its layer-1 signs."""
    for net, region in witness_cases(kind):
        for rec in feasible_patterns(net, region):
            assert region.contains(rec.witness)
            rows = oracle._layer1_rows(net, rec.pattern[0])
            t, _ = oracle._max_slack(rows, region.lower, region.upper)
            if t > 0:
                z1 = net.weight(1) @ rec.witness + net.bias(1)
                assert np.all(np.asarray(rec.pattern[0]) * z1 > 0)
                assert tuple(forward(net, rec.witness).activations[0]) == rec.pattern[0]
            cur = np.asarray(rec.witness, dtype=float)
            for i, layer_signs in enumerate(rec.pattern, start=1):
                z = net.weight(i) @ cur + net.bias(i)
                assert np.all(np.asarray(layer_signs) * z >= -1e-12)
                cur = np.asarray(layer_signs, dtype=float)


def rows_of(*rows):
    """Exact rows sum(coeffs * x) + const >= 0 from (coeffs, const) pairs."""
    return [(tuple(Fraction(c) for c in coeffs), Fraction(const)) for coeffs, const in rows]


def test_l2_empty_cell_is_rejected():
    """x1 >= 0.5 and -x1 >= 0.4 share no point, inside the ball or not; it
    is the cell (+1, -1) of layer-1 weights [[1,0],[1,0]], biases (-0.5, 0.4)."""
    region = PerturbationRegion.l2([0.0, 0.0], 1.0)
    assert _cell_witness(rows_of(((1, 0), -0.5), ((-1, 0), -0.4)), region) is None
    net = FoldedBnn(
        widths=(2, 2, 2),
        weights=(np.array([[1, 0], [1, 0]]), np.array([[1, -1], [-1, 1]])),
        biases=(np.array([-0.5, 0.4]), np.array([0.0, 0.0])),
    )
    expected = {((-1, -1),), ((-1, 1),), ((1, 1),)}
    assert {r.pattern for r in feasible_patterns(net, region)} == expected
    inst = encode_milp(net, region, objective_targeted(net, 1, 2))
    assert {r.pattern for r in milp_feasible_patterns(inst)} == expected


def test_l2_cell_just_beyond_the_ball_is_dropped():
    """x1 + x2 >= a lies a / sqrt(2) from the center 0, which exceeds the
    radius by a relative 1e-11: the exact decider drops the cell."""
    radius = 0.5
    a = Fraction(np.sqrt(2) * radius * (1 + 1e-11))
    assert Fraction(radius) ** 2 < a * a / 2 < Fraction(radius * (1 + 1e-10)) ** 2
    region = PerturbationRegion.l2([0.0, 0.0], radius)
    assert _cell_witness(rows_of(((1, 1), -a)), region) is None


def test_l2_cell_touching_the_ball_is_kept():
    """x1 >= r touches the ball of radius r around 0 at (r, 0) alone: the
    cell is kept, with that point as its witness."""
    for radius in (0.5, 0.3, 0.7):
        region = PerturbationRegion.l2([0.0, 0.0], radius)
        witness = _cell_witness(rows_of(((1, 0), -Fraction(radius))), region)
        assert witness.tolist() == [radius, 0.0]


def test_l2_ball_containing_the_cube_decides_as_the_box():
    """A ball that holds [-1, 1]^n (radius 2 * sqrt(n), or inf) leaves the
    box alone: each seeded cell is kept iff `_max_slack`'s t >= 0 over the
    cube.  114 of the 160 cells are kept, 23 of them tie cells with t = 0."""
    kept = ties = 0
    for rows, lower, upper in small_cells(2718, len(FM_EMPTY)):
        n = len(lower)
        t, _ = oracle._max_slack(rows, [-1] * n, [1] * n)
        kept += t >= 0
        ties += t == 0
        for radius in (2 * np.sqrt(n), np.inf):
            region = PerturbationRegion.l2(np.zeros(n), radius)
            assert (_cell_witness(rows, region) is not None) == (t >= 0)
    assert (kept, ties) == (114, 23)


def small_cells(seed, count):
    """Seeded cells (rows, lower, upper) in 1-4 dimensions: integer rows
    for even k, rows in halves and quarters for odd k, over boxes with
    quarter-step bounds, some of zero width."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        den = 1 + k % 2
        rows = [
            (
                tuple(Fraction(int(c), den) for c in rng.integers(-2, 3, n)),
                Fraction(int(rng.integers(-3, 4)), den * den),
            )
            for _ in range(m)
        ]
        lower = [Fraction(int(v), 4) for v in rng.integers(-4, 1, n)]
        upper = [lo + Fraction(int(w), 4) for lo, w in zip(lower, rng.integers(0, 5, n))]
        yield rows, lower, upper


#: "x" where Fourier-Motzkin elimination found the cell of `small_cells(2718,
#: 160)` empty, "." where it found a witness
FM_EMPTY = (
    "xxxxxxxx...x.x..xxxxxxx..xx.xxx.x.xxx....x.xxx..xxxx.x.xx.xx.x.xxx..xxxxx..x..x."
    "x.x.x.x.xx..xxxxx...x.xx.xxxxx..x.x.x.x.x.x.x.xxxxxxx.xx..xxxxxxxxx.xxxx.xxx.xxx"
)


def test_max_slack_is_exact_on_small_cells():
    """Each optimum x lies in the box and its least row (capped at 1) is t
    exactly; no box corner or sampled point has a larger least row; and
    t < 0 on exactly the cells Fourier-Motzkin found empty.  13 of the
    cells are nonempty with t = 0: no point of the box meets every row
    strictly."""
    rng = np.random.default_rng(5)
    empty, ties = "", 0
    for rows, lower, upper in small_cells(2718, len(FM_EMPTY)):

        def least(point):
            values = [const + sum(a * v for a, v in zip(coeffs, point)) for coeffs, const in rows]
            return min([*values, 1])

        t, x = oracle._max_slack(rows, lower, upper)
        assert all(lo <= v <= hi for v, lo, hi in zip(x, lower, upper))
        assert least(x) == t
        corners = itertools.product(*zip(lower, upper))
        samples = (
            [lo + (hi - lo) * Fraction(int(u), 64) for lo, hi, u in zip(lower, upper, draw)]
            for draw in rng.integers(0, 65, (16, len(lower)))
        )
        assert all(least(p) <= t for p in itertools.chain(corners, samples))
        empty += "x" if t < 0 else "."
        ties += t == 0
    assert empty == FM_EMPTY
    assert ties == 13


def test_nearest_point_is_exact_on_small_cells():
    """On each nonempty seeded cell with its box rows, the nearest point xn
    to a seeded center meets every row, and no point p of the cell (its
    max-slack point, box corners and sampled box points that meet the rows)
    makes an acute angle: (p - xn) . (center - xn) <= 0 exactly, the
    condition that makes xn the projection of the center."""
    rng = np.random.default_rng(6)
    decided = 0
    for rows, lower, upper in small_cells(2718, len(FM_EMPTY)):
        t, x = oracle._max_slack(rows, lower, upper)
        if t < 0:
            continue
        n = len(lower)
        eye = [tuple(Fraction(int(j == k)) for k in range(n)) for j in range(n)]
        cell = [*rows, *((e, -lo) for e, lo in zip(eye, lower))]
        cell += [(tuple(-v for v in e), hi) for e, hi in zip(eye, upper)]
        center = [Fraction(int(v), 8) for v in rng.integers(-12, 13, n)]
        xn = oracle._nearest_in_polytope(cell, center)

        def meets(point):
            return all(const + sum(a * v for a, v in zip(coeffs, point)) >= 0
                       for coeffs, const in cell)

        assert meets(xn)
        samples = (
            [lo + (hi - lo) * Fraction(int(u), 64) for lo, hi, u in zip(lower, upper, draw)]
            for draw in rng.integers(0, 65, (16, n))
        )
        for p in itertools.chain([x], itertools.product(*zip(lower, upper)), samples):
            if meets(p):
                assert sum((a - b) * (c - b) for a, b, c in zip(p, xn, center)) <= 0
        decided += 1
    assert decided == FM_EMPTY.count(".")


def test_a_corner_cell_is_feasible(example1, x0_example):
    """At eps 0.5 the README net's cell (+1, -1) needs x1 + x2 - x3 >= 2,
    which the box [-0.5, 0.5] x [0, 1] x [-0.5, 0.5] meets only at its
    corner (0.5, 1, -0.5), with slack 0: the closure keeps the cell."""
    region = PerturbationRegion.linf(x0_example, 0.5)
    corner = [r.witness for r in feasible_patterns(example1, region) if r.pattern[0] == (1, -1)]
    assert corner
    assert all(w.tolist() == [0.5, 1.0, -0.5] for w in corner)


def test_milp_patterns_match_oracle_in_twenty_dimensions():
    """A seeded 20-4-8-4 net at eps 0.1, the shape a 20-12-12-4 benchmark
    net folds to: every layer-1 neuron takes both signs over the box, so
    16 cells in 20 dimensions are decided on each side."""
    rng = np.random.default_rng(9)
    net = random_net(rng, (20, 4, 8, 4))
    region = PerturbationRegion.linf(rng.uniform(-0.2, 0.2, 20), 0.1)
    assert stabilize(net, region).widths == net.widths
    patterns = assert_milp_matches_oracle(net, region, objective_targeted(net, 1, 2))
    assert len({p[0] for p in patterns}) == 7


def tie_net():
    """2-2-2-2 net whose layer-2 pre-activations s1 + s2 and s1 - s2 have a
    zero on every layer-1 cell, so each cell has two completions."""
    return FoldedBnn(
        widths=(2, 2, 2, 2),
        weights=(np.eye(2, dtype=int), np.array([[1, 1], [1, -1]]), np.array([[1, -1], [-1, 1]])),
        biases=(np.array([0.1, -0.2]), np.zeros(2), np.zeros(2)),
    )


def with_integer_deeper_biases(net, rng):
    """`net` with every deeper hidden bias an integer b, |b| < nv: a
    pre-activation is 0 wherever its +/-1 sum is -b."""
    biases = list(net.biases)
    for i in range(1, net.depth):
        nv = np.abs(net.weights[i]).sum(axis=1)
        biases[i] = np.array([float(rng.integers(1 - n, n)) for n in nv])
    return FoldedBnn(net.widths, net.weights, tuple(biases))


def assert_milp_matches_oracle(net, region, f):
    """Equal pattern lists, both in layer-major order, -1 before +1."""
    inst = encode_milp(net, region, f)
    oracle = [r.pattern for r in feasible_patterns(net, region)]
    milp = [r.pattern for r in milp_feasible_patterns(inst)]
    assert oracle == milp
    feasible = set(oracle)
    every = itertools.product(
        *[list(itertools.product((-1, 1), repeat=n)) for n in net.hidden_widths]
    )
    assert oracle == [p for p in every if p in feasible]
    return oracle


@pytest.mark.parametrize("kind", ["linf", "l2"])
def test_milp_patterns_match_oracle_example1(example1, x0_example, kind):
    """The worked net, and the tie net whose every cell completes twice; at
    the small radii every layer-1 neuron of both nets is constant over the
    region."""
    for net, center, radius in (
        (example1, x0_example, 1.0),
        (example1, x0_example, 0.2),
        (example1, x0_example, 0.02),
        (tie_net(), np.zeros(2), 1.0),
        (tie_net(), np.zeros(2), 0.05),
    ):
        region = getattr(PerturbationRegion, kind)(center, radius)
        assert_milp_matches_oracle(net, region, objective_targeted(net, 2, 1))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_milp_patterns_match_oracle_random(seed):
    """Random nets, each also with integer deeper biases (ties), in both norms."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, (3, 3, 2, 2))
    kind = "linf" if seed % 2 else "l2"
    region = random_region(rng, 3, kind)
    nets = (net, with_integer_deeper_biases(net, rng))
    # a small radius, where layer-1 neurons are mostly constant over the region
    small = random_region(rng, 3, kind, radii=(0.02, 0.3))
    for net, region in itertools.product(nets, (region, small)):
        f = objective_targeted(net, 1, 2)
        patterns = assert_milp_matches_oracle(net, region, f)
        # and the minimum over encoded patterns is the oracle's tau
        ex = exact_verify(net, region, f)
        milp_min = min(
            f.evaluate(pattern_assignment(p)) for p in patterns
        )
        assert milp_min == ex.tau


def fold_cases(n_seeds):
    """Random 3-3-2-2 nets, each also with integer deeper biases (ties), at
    radii 0.02-0.3 in both norms, where many layer-1 neurons are constant
    over the region: (net, the net folded over the region, region)."""
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        net = random_net(rng, (3, 3, 2, 2))
        region = random_region(rng, 3, "linf" if seed % 2 else "l2", radii=(0.02, 0.3))
        for n in (net, with_integer_deeper_biases(net, rng)):
            try:
                fold = stabilize(n, region)
            except ValueError:  # a hidden layer would empty: nothing folds
                fold = n
            yield n, fold, region


def unexecuted_tie(net, pattern):
    """Whether `pattern` gives some deeper neuron the sign -1 at a zero
    pre-activation: closure semantics admits it, but sign(0) = +1, so no
    input executes the pattern."""
    return any(
        np.any((net.weight(i) @ np.array(pattern[i - 2]) + net.bias(i) == 0)
               & (np.array(pattern[i - 1]) == -1))
        for i in range(2, net.depth + 1)
    )


def test_region_fold_keeps_the_exact_minimum():
    """The oracle's exact minimum is the same Fraction on the folded net.
    The one exception is a minimizer that no input executes: a deeper
    neuron that only a tie lets be -1 is constant +1 once layer 1 folds, and
    `stabilize` folds it as it would over the cube.  Then the minimum can
    only rise, towards the executed one, and never past the center's
    executed margin."""
    folded = raised = 0
    for net, fold, region in fold_cases(200):
        objective = objective_targeted(net, 1, 2)
        before = exact_verify(net, region, objective)
        after = exact_verify(fold, region, objective_targeted(fold, 1, 2))
        folded += fold is not net
        if after.tau != before.tau:
            assert after.tau > before.tau and unexecuted_tie(net, before.minimizer)
            raised += 1
        executed = forward(net, region.center).activations
        assert after.tau <= objective.evaluate(pattern_assignment(executed))
    assert folded >= 150 and raised >= 1


def test_region_fold_keeps_every_sampled_label():
    """10k seeded points of each region get the same labels from the folded
    and the unfolded net."""
    for net, fold, region in fold_cases(30):
        if fold is net:
            continue
        points = sample_region(region, 10_000, np.random.default_rng(7))
        np.testing.assert_array_equal(
            forward_rows(fold, points).labels, forward_rows(net, points).labels
        )


@pytest.mark.parametrize(
    "kind, seed, widths",
    [
        ("linf", 1313, (3, 6, 4, 3, 3)),
        ("l2", 1414, (3, 5, 5, 4, 3)),
        ("linf", 1516, (3, 6, 6, 4, 3)),
        ("l2", 1516, (3, 6, 6, 4, 3)),
    ],
)
def test_milp_patterns_match_oracle_wide(kind, seed, widths):
    """13-16 hidden neurons, each net also with integer deeper biases (ties):
    the MILP side prunes a prefix at its first failing row, so it never
    walks the 2^H full patterns."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, widths)
    region = getattr(PerturbationRegion, kind)(rng.uniform(-0.2, 0.2, widths[0]), 0.8)
    nets = (net, with_integer_deeper_biases(net, rng))
    # a small radius, where layer-1 neurons are mostly constant over the region
    small = random_region(rng, widths[0], kind, radii=(0.02, 0.3))
    for net, region in itertools.product(nets, (region, small)):
        assert 13 <= net.hidden_count() <= 16
        patterns = assert_milp_matches_oracle(net, region, objective_targeted(net, 1, 2))
        assert patterns


def test_each_layer1_cell_is_decided_once(monkeypatch):
    """The tie net's four cells have eight feasible patterns, but the box
    decider runs once per cell."""
    calls = []
    max_slack = oracle._max_slack

    def spy(rows, lower, upper):
        calls.append(rows)
        return max_slack(rows, lower, upper)

    monkeypatch.setattr(oracle, "_max_slack", spy)
    records = feasible_patterns(tie_net(), PerturbationRegion.linf([0.0, 0.0], 0.5))
    assert len(records) == 8
    assert len(calls) == 4


def test_milp_threshold_feasibility_matches_sign(example1, x0_example):
    """threshold = 0 cuts exactly the patterns with objective <= 0."""
    region = PerturbationRegion.linf(x0_example, 1.0)
    f = objective1(example1)
    inst = encode_milp(example1, region, f, feasibility_threshold=0.0)
    cut_set = {r.pattern for r in milp_feasible_patterns(inst)}
    ex = exact_verify(example1, region, f)
    attack_exists = ex.tau <= 0
    assert bool(cut_set) == attack_exists
    for p in cut_set:
        assert f.evaluate(pattern_assignment(p)) <= 0


def sampled_margin(logits, label, k):
    return float(np.min(logits[:, label - 1] - logits[:, k - 1]))


def test_sample_upper_bound_point_region(example1, x0_example):
    """At radius 0 the sample is the center alone, with `forward`'s logits."""
    region = PerturbationRegion.linf(x0_example, 0.0)
    points, logits, labels = sample_logits(example1, region, 512, 0)
    assert points.tobytes() == x0_example[None, :].tobytes()
    trace = forward(example1, x0_example)
    assert logits.tobytes() == trace.logits[None, :].tobytes()
    assert labels.tolist() == [trace.label]
    assert sampled_margin(logits, 2, 1) == 3.0


def test_sample_upper_bound_is_deterministic(example1, x0_example):
    for norm in ("linf", "l2"):
        region = getattr(PerturbationRegion, norm)(x0_example, 1.0)
        a, b, c = (sample_logits(example1, region, 64, seed) for seed in (7, 7, 8))
        assert a[0].shape == (65, 3)
        assert all(u.tobytes() == v.tobytes() for u, v in zip(a, b))
        assert a[0].tobytes() != c[0].tobytes()
        # row 0 is the center, the rest is `sample_region`'s draw
        drawn = sample_region(region, 64, np.random.default_rng(7))
        assert a[0].tobytes() == np.vstack([x0_example, drawn]).tobytes()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_sample_upper_bound_dominates_exact_optimum(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, (3, 3, 2))
    region = random_region(rng, 3, "l2" if seed % 3 == 0 else "linf")
    _, logits, _ = sample_logits(net, region, 64, seed)
    ex = exact_verify(net, region, objective_targeted(net, 1, 2))
    assert sampled_margin(logits, 1, 2) >= float(ex.tau) - 1e-12


def test_sample_upper_bound_l2_samples_stay_in_ball(example1, x0_example):
    region = PerturbationRegion.l2(x0_example, 0.3)
    points, _, _ = sample_logits(example1, region, 128, 0)
    assert all(region.contains(x) for x in points)


def on_a_face(points):
    return float(np.mean(np.any(np.abs(points) == 1, axis=1)))


def test_l2_ball_that_holds_its_box_is_sampled_as_the_box(x0_example):
    """A ball that holds every corner of its box is that box: at an
    infinite radius the cube, and in one dimension always, where the
    far corner lies on the sphere.  Its points are the linf twin's draw,
    none of them on a cube face; a ball clipped to the cube put most of
    them there.  A ball that only cuts its box keeps that draw."""
    for center, radius in ((x0_example, np.inf), (x0_example, 6.0), ([0.25], 0.5)):
        region = PerturbationRegion.l2(center, radius)
        twin = PerturbationRegion.linf(center, radius)
        points = sample_region(region, 512, np.random.default_rng(0))
        assert points.tobytes() == sample_region(twin, 512, np.random.default_rng(0)).tobytes()
        assert all(region.contains(x) for x in points)
        assert on_a_face(points) == 0
    # at radius 1.2 the far corner (-1, -0.5, 1) lies sqrt(3.44) away
    region = PerturbationRegion.l2(x0_example, 1.2)
    points = sample_region(region, 512, np.random.default_rng(0))
    assert all(region.contains(x) for x in points)
    assert 0.2 < on_a_face(points) < 1


def test_relative_improvement_endpoints():
    assert relative_improvement(-1.0, -1.0, 2.0) == 0.0
    assert relative_improvement(2.0, -1.0, 2.0) == 1.0
    assert relative_improvement(0.5, -1.0, 2.0) == 0.5
    assert relative_improvement(0.0, 1.0, 1.0) is None
    assert relative_improvement(0.0, 1.0, 0.5) is None


def test_batched_sample_bound_equals_the_per_sample_loop():
    """Each row's batched logits are `forward`'s, byte for byte, and its
    label is `forward`'s."""
    queries = [(make_example1(), np.array([0.0, 0.5, 0.0]))]
    rng = np.random.default_rng(11)
    for _ in range(3):
        queries.append((random_net(rng, (10, 8, 8, 3)), rng.uniform(-0.2, 0.2, 10)))
    for net, x in queries:
        for norm in ("linf", "l2"):
            region = getattr(PerturbationRegion, norm)(x, 0.6)
            for seed in (0, 3, 8):
                points, logits, labels = sample_logits(net, region, 200, seed)
                for point, row, label in zip(points, logits, labels):
                    trace = forward(net, point)
                    assert row.tobytes() == trace.logits.tobytes() and label == trace.label
