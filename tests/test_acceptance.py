"""Acceptance gate: one test per release criterion.

Run `pytest tests/test_acceptance.py -v` to get a pass/fail line per
criterion.  Every check here is either exact (rational arithmetic, set
equality, byte equality) or carries the tolerance stated in its docstring.
"""

import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from bnncert import (
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
    export_sdpa,
    linear_identity_residuals,
    objective_targeted,
    read_sdpa,
    rigorous_lower_bound,
    sdp_below_lp_witness,
    solve_conic,
    solve_lp,
    svec,
    tightened_gap_witness,
    to_conic,
    write_mps,
    SolveOptions,
)
from bnncert.cli import main
from bnncert.model import forward
from bnncert.oracle import (
    exact_verify,
    feasible_patterns,
    milp_feasible_patterns,
    pattern_assignment,
)

from conftest import make_example1, random_net, random_region
from test_solver import analytic_sdp

OPTS = SolveOptions(tol=1e-7, max_iter=200000)


def random_deep_net(rng):
    """Four-level architecture with per-position caps (6, 5, 4, 3)."""
    widths = (
        int(rng.integers(2, 7)),
        int(rng.integers(2, 6)),
        int(rng.integers(2, 5)),
        int(rng.integers(2, 4)),
    )
    return random_net(rng, widths)


def l2_region(net, rng):
    """A ball wide enough that every first-level neuron stays undetermined."""
    center = rng.uniform(-0.2, 0.2, net.input_dim)
    W = net.weights[0]
    ratio = max(
        float(np.abs(row).sum() / np.linalg.norm(row)) for row in W
    )
    return PerturbationRegion.l2(center, 0.55 * ratio)


def random_instance(rng, kind):
    net = random_deep_net(rng)
    n_out = net.widths[-1]
    label = int(rng.integers(1, n_out + 1))
    target = 1 + (label % n_out)
    if kind == "linf":
        region = random_region(rng, net.input_dim, "linf")
    else:
        region = l2_region(net, rng)
    objective = objective_targeted(net, label, target)
    return net, region, label, target, objective


def solve_all_relaxations(net, region, label, target, objective):
    """(lp_result, std_result, tight_result, tight_instance, cliques)."""
    lp = encode_lp(net, region, objective, true_label=label, target=target)
    r_lp = solve_lp(lp, OPTS)
    cliques = build_cliques(net)
    std = encode_standard(net, region, objective, true_label=label, target=target)
    r_std = solve_conic(to_conic(assemble_moment_sdp(std, cliques)), OPTS)
    tight = encode_tightened(net, region, objective, true_label=label, target=target)
    r_tight = solve_conic(to_conic(assemble_moment_sdp(tight, cliques)), OPTS)
    return lp, r_lp, r_std, r_tight, tight, cliques


def check_sandwich(rng, kind, n_instances, budget_s):
    """tau_lp - 1e-5 <= tau_tight, tau_std <= tau_tight + 1e-5,
    tau_tight <= tau_exact + 1e-5 on every instance."""
    t0 = time.monotonic()
    for _ in range(n_instances):
        net, region, label, target, objective = random_instance(rng, kind)
        _, r_lp, r_std, r_tight, _, _ = solve_all_relaxations(
            net, region, label, target, objective
        )
        assert r_lp.status == r_std.status == r_tight.status == "optimal"
        tau_exact = exact_verify(net, region, objective).value
        assert r_lp.primal_objective - 1e-5 <= r_tight.primal_objective
        assert r_std.primal_objective <= r_tight.primal_objective + 1e-5
        assert r_tight.primal_objective <= tau_exact + 1e-5
    assert time.monotonic() - t0 < budget_s


def check_rigorous(rng, kind, n_instances):
    """Certified value never above the solver objective nor the exact
    optimum; injected Gram deficit delta on a size-s block moves the
    budget by exactly s*delta (1e-12)."""
    delta = 1e-3
    for trial in range(n_instances):
        net, region, label, target, objective = random_instance(rng, kind)
        tau_exact = exact_verify(net, region, objective).value
        if trial % 2 == 0:
            inst = encode_lp(net, region, objective, true_label=label, target=target)
            res = solve_lp(inst, OPTS)
            bound = rigorous_lower_bound(res, inst)
        else:
            inst = encode_tightened(
                net, region, objective, true_label=label, target=target
            )
            cliques = build_cliques(net)
            res = solve_conic(to_conic(assemble_moment_sdp(inst, cliques)), OPTS)
            bound = rigorous_lower_bound(res, inst, cliques)
        assert res.status == "optimal"
        assert bound.value <= res.primal_objective
        assert bound.value <= tau_exact
        if trial % 2 == 1:
            # audit a clique of binary variables only: an input variable's
            # square does not reduce to 1, so injecting a deficit there would
            # also perturb the coefficient budget
            k = next(
                i
                for i, c in enumerate(cliques)
                if all(v.layer >= 1 for v in c.variables)
            )
            s = res.grams[k].shape[0]

            def with_block(block):
                grams = res.grams[:k] + (block,) + res.grams[k + 1 :]
                return dataclasses.replace(res, grams=grams)

            base = rigorous_lower_bound(with_block(np.zeros((s, s))), inst, cliques)
            bumped = rigorous_lower_bound(
                with_block(-delta * np.eye(s)), inst, cliques
            )
            assert bumped.budget - base.budget == pytest.approx(
                s * delta, abs=1e-12
            )


def test_criterion_01_envelope_identity_suite():
    """On 50 random ternary nets (widths <= 6) every algebraic identity
    behind the linear envelopes reduces to the exact zero polynomial."""
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    for _ in range(50):
        depth = int(rng.integers(3, 6))
        widths = tuple(int(rng.integers(2, 7)) for _ in range(depth))
        net = random_net(rng, widths)
        region = random_region(rng, net.input_dim, "linf")
        residuals = linear_identity_residuals(net, region)
        assert len(residuals) == 6 * net.hidden_count()
        for label, poly in residuals:
            assert poly.identity_zero(), label
    assert time.monotonic() - t0 < 30.0


def test_criterion_02_relaxation_gap_witness():
    """On 20 random two-level nets (widths <= 8) the hand-built moment
    matrix is feasible with objective exactly -1 while the linear
    relaxation of the same objective stays >= -1e-6."""
    rng = np.random.default_rng(202)
    t0 = time.monotonic()
    for _ in range(20):
        widths = tuple(int(rng.integers(2, 9)) for _ in range(4))
        net = random_net(rng, widths)
        neuron = int(rng.integers(1, widths[2] + 1))
        w = sdp_below_lp_witness(net, neuron=neuron)
        assert w.matrix[0, 0] == 1.0
        assert np.allclose(np.diag(w.matrix), 1.0)
        assert np.allclose(w.matrix, w.matrix.T)
        assert w.eigmin() >= -1e-8
        assert w.moment_value_exact(w.objective) == Fraction(-1)
        region = random_region(rng, net.input_dim, "linf")
        lp = encode_lp(net, region, w.objective)
        res = solve_lp(lp, OPTS)
        assert res.status == "optimal"
        assert res.primal_objective >= -1e-6
    assert time.monotonic() - t0 < 60.0


def test_criterion_03_gap_witness_spectra():
    """On 50 random rows the gap-witness matrix has eigenvalues
    {0 x fan_in, 1, nv + 1} within 1e-8 and trace nv + 2 within 1e-10."""
    rng = np.random.default_rng(303)
    for _ in range(50):
        widths = (
            int(rng.integers(2, 7)),
            int(rng.integers(2, 7)),
            int(rng.integers(2, 6)),
            int(rng.integers(2, 4)),
        )
        net = random_net(rng, widths)
        neuron = int(rng.integers(1, widths[2] + 1))
        w = tightened_gap_witness(net, neuron=neuron)
        nv = w.params["nv"]
        fan_in = w.matrix.shape[0] - 2
        assert fan_in == widths[1]
        eigs = np.sort(np.linalg.eigvalsh(w.matrix))
        expected = np.array([0.0] * fan_in + [1.0, nv + 1.0])
        assert np.max(np.abs(eigs - expected)) <= 1e-8
        assert abs(np.trace(w.matrix) - (nv + 2.0)) <= 1e-10


def test_criterion_04_bound_sandwich_linf():
    """On 30 random instances (widths <= (6,5,4,3), box regions) the
    relaxation bounds are ordered linear <= standard <= tightened <=
    exact, each comparison with 1e-5 slack, in under ten minutes."""
    check_sandwich(np.random.default_rng(404), "linf", 30, 600.0)


def test_criterion_05_milp_pattern_exactness():
    """On nets with <= 12 hidden neurons the integer encoding's feasible
    sign patterns equal the oracle's, and the minimum encoded objective
    equals the exact optimum as a rational number."""
    rng = np.random.default_rng(505)
    cases = [(make_example1(), PerturbationRegion.linf([0, 0.5, 0], 1.0), 2, 1)]
    for widths in ((4, 3, 2, 2), (5, 4, 3, 3), (4, 6, 6, 2)):
        net = random_net(rng, widths)
        region = random_region(rng, net.input_dim, "linf")
        label = int(rng.integers(1, widths[-1] + 1))
        cases.append((net, region, label, 1 + (label % widths[-1])))
    for net, region, label, target in cases:
        assert net.hidden_count() <= 12
        objective = objective_targeted(net, label, target)
        inst = encode_milp(net, region, objective, true_label=label, target=target)
        encoded = {rec.pattern for rec in milp_feasible_patterns(inst)}
        assert encoded == {rec.pattern for rec in feasible_patterns(net, region)}
        exact = exact_verify(net, region, objective)
        obj = objective
        best = min(obj.evaluate(pattern_assignment(p)) for p in encoded)
        assert best == exact.tau


def test_criterion_06_clique_structure():
    """On 100 random architectures (1 to 5 sign levels) the clique count
    and maximum clique size match the closed-form law and the running
    intersection property holds."""
    rng = np.random.default_rng(606)
    for _ in range(100):
        levels = int(rng.integers(1, 6))
        widths = tuple(int(rng.integers(2, 7)) for _ in range(levels + 2))
        net = random_net(rng, widths)
        L = net.depth
        assert L == levels
        n = widths
        cliques = build_cliques(net)
        sizes = [len(c.variables) for c in cliques]
        if L == 1:
            expected_count = n[0]
            expected_max = n[1] + 1
        elif L == 2:
            expected_count = n[0] + n[2]
            expected_max = n[1] + 1
        else:
            expected_count = L - 2 + n[0] + n[L]
            expected_max = max(
                n[1] + 1,
                n[L - 1] + 1,
                max(n[j] + n[j + 1] for j in range(1, L - 1)),
            )
        assert len(cliques) == expected_count
        assert max(sizes) == expected_max
        assert check_rip(cliques)


def test_criterion_07_rigorous_bound_soundness():
    """On 20 solved instances the certified bound never exceeds the solver
    objective or the exact optimum, and an injected Gram deficit delta on
    a size-s block shifts the error budget by exactly s*delta (1e-12)."""
    check_rigorous(np.random.default_rng(707), "linf", 20)


def test_criterion_08_l2_pipeline():
    """The bound sandwich and the rigorous-bound checks repeated with
    ball regions at the same tolerances."""
    check_sandwich(np.random.default_rng(808), "l2", 30, 600.0)
    check_rigorous(np.random.default_rng(809), "l2", 20)


def test_criterion_09_solver_contract():
    """The analytic two-by-two problem solves to -1 within 1e-6; reported
    residuals match a from-scratch recomputation and sit within tol; two
    runs with the same seed agree byte for byte."""
    problem = analytic_sdp()
    res = solve_conic(problem)
    assert res.status == "optimal"
    assert res.primal_objective == pytest.approx(-1.0, abs=1e-6)

    s_full = np.concatenate([res.slack_nonneg] + [svec(S) for S in res.slack_psd])
    z_full = np.concatenate([res.sigmas] + [svec(G) for G in res.grams])
    pres = np.linalg.norm(problem.A @ res.y + s_full - problem.b) / (
        1.0 + np.linalg.norm(problem.b)
    )
    dres = np.linalg.norm(problem.c + problem.A.T @ z_full) / (
        1.0 + np.linalg.norm(problem.c)
    )
    assert pres == res.primal_residual <= res.options.tol
    assert dres == res.dual_residual <= res.options.tol

    net = make_example1()
    region = PerturbationRegion.linf([0, 0.5, 0], 1.0)
    inst = encode_tightened(net, region, objective_targeted(net, 2, 1))
    conic = to_conic(assemble_moment_sdp(inst, build_cliques(net)))
    opts = SolveOptions(seed=7)
    a = solve_conic(conic, opts)
    b = solve_conic(conic, opts)
    assert a.y.tobytes() == b.y.tobytes()
    assert a.sigmas.tobytes() == b.sigmas.tobytes()
    assert all(ga.tobytes() == gb.tobytes() for ga, gb in zip(a.grams, b.grams))
    assert a.iterations == b.iterations


def test_criterion_10_format_roundtrips(tmp_path):
    """The SDPA export re-parses coefficient for coefficient; the MPS
    export declares one integer column per sign variable and its shifted
    rows agree with the original encoding on an exact feasible point."""
    net = make_example1()
    region = PerturbationRegion.linf([0, 0.5, 0], 1.0)
    objective = objective_targeted(net, 2, 1)

    msdp = assemble_moment_sdp(
        encode_tightened(net, region, objective, true_label=2, target=1)
    )
    path = tmp_path / "round.dat-s"
    export_sdpa(msdp, path)
    parsed = read_sdpa(path)
    expected_obj = np.zeros(msdp.index.total_count - 1)
    for idx, coeff in msdp.objective:
        expected_obj[idx - 1] = float(coeff)
    np.testing.assert_array_equal(parsed.objective, expected_obj)
    assert parsed.objective_const == float(msdp.objective_const)
    expected: dict = {}
    for k, fixed in enumerate(msdp.block_fixed, start=1):
        for p in range(fixed.shape[0]):
            for q in range(p, fixed.shape[0]):
                if fixed[p, q] != 0.0:
                    expected[(0, k, p + 1, q + 1)] = -float(fixed[p, q])
    lp_block = len(msdp.block_fixed) + 1
    for r, (const, coeffs) in enumerate(msdp.rows, start=1):
        if const != 0:
            expected[(0, lp_block, r, r)] = -float(const)
        for idx, coeff in coeffs:
            expected[(idx, lp_block, r, r)] = float(coeff)
    for k, entries in enumerate(msdp.block_entries, start=1):
        for p, q, idx in entries:
            expected[(idx, k, p + 1, q + 1)] = 1.0
    assert parsed.entries == expected

    inst = encode_milp(net, region, objective, true_label=2, target=1)
    mps = tmp_path / "round.mps"
    write_mps(inst, mps)
    text = mps.read_text()
    assert "variables shifted by x = 2z - 1" in text

    columns: dict[str, dict[str, float]] = {}
    rhs: dict[str, float] = {}
    binaries: list[str] = []
    section = None
    for line in text.splitlines():
        if line.startswith("*"):
            continue
        if not line.startswith(" "):
            section = line.split()[0]
            continue
        parts = line.split()
        if section == "COLUMNS" and "'MARKER'" not in line:
            name, row, val = parts
            columns.setdefault(name, {})[row] = float(val)
        elif section == "RHS":
            rhs[parts[1]] = float(parts[2])
        elif section == "BOUNDS" and parts[0] == "BV":
            binaries.append(parts[2])

    assert len(binaries) == sum(net.hidden_widths)
    assert sorted(binaries) == sorted(
        f"Z{i}_{j}"
        for i, width in enumerate(net.hidden_widths, start=1)
        for j in range(1, width + 1)
    )

    exact = exact_verify(net, region, objective)
    point = pattern_assignment(exact.minimizer)
    for k, value in enumerate(exact.witness, start=1):
        point[Var(0, k)] = float(value)
    z_point = {
        f"Z{v.layer}_{v.index}": (float(x) + 1.0) / 2.0 for v, x in point.items()
    }
    for name, entries in columns.items():
        for row, coeff in entries.items():
            rhs.setdefault(row, 0.0)
    row_values: dict[str, float] = {row: 0.0 for row in rhs}
    for name, entries in columns.items():
        for row, coeff in entries.items():
            row_values[row] += coeff * z_point[name]
    for row, value in row_values.items():
        if row == "OBJ":
            continue
        assert value >= rhs[row] - 1e-9, row
    objective_x = float(inst.constraints.objective.evaluate(point))
    assert row_values["OBJ"] - rhs.get("OBJ", 0.0) == pytest.approx(
        objective_x, abs=1e-9
    )


def test_criterion_11_worked_example_end_to_end(example1_files):
    """The three-input toy network classifies its reference point as
    class 2 with logits (-2, 1), the attack objective evaluates to 3 on
    the forward trace, and the zero-radius verdict is robust."""
    net = make_example1()
    trace = forward(net, [0.0, 0.5, 0.0])
    assert trace.label == 2
    assert tuple(trace.logits) == (-2.0, 1.0)
    objective = objective_targeted(net, 2, 1)
    assignment = {
        Var(2, j): int(s) for j, s in enumerate(trace.activations[1], start=1)
    }
    assert objective.evaluate(assignment) == Fraction(3)
    model, inputs = example1_files
    rc = main(
        ["verify", "--model", str(model), "--input", str(inputs), "--eps", "0"]
    )
    assert rc == 0
