"""Operator-splitting conic solver and the rigorous certificate bound."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from bnncert import (
    Clique,
    ConicProblem,
    ConstraintSet,
    MomentIndex,
    MultilinearPoly,
    PerturbationRegion,
    RigorousBound,
    SolveOptions,
    SolveResult,
    SparseMatrix,
    Var,
    VerificationInstance,
    assemble_moment_sdp,
    build_cliques,
    encode_lp,
    encode_standard,
    encode_tightened,
    merge_cliques,
    objective_targeted,
    rigorous_lower_bound,
    sdp_below_lp_witness,
    smat,
    solve_conic,
    solve_lp,
    stabilize,
    svec,
    to_conic,
)
from bnncert.oracle import exact_verify
import bnncert.solver as solver
from bnncert.solver import (
    _disproves_psd,
    _equilibrate,
    _exact_psd_check,
    conic_setup,
    _project_cone,
    _psd_groups,
)

from conftest import make_example1, random_net, random_region


def float_down(x: Fraction) -> float:
    """Reference: the largest float <= x."""
    f = float(x)
    return math.nextafter(f, -math.inf) if Fraction(f) > x else f


def float_up(x: Fraction) -> float:
    """Reference: the smallest float >= x."""
    f = float(x)
    return math.nextafter(f, math.inf) if Fraction(f) < x else f


def sparse(M: np.ndarray) -> SparseMatrix:
    """The nonzero entries of a dense matrix as a `SparseMatrix`."""
    rows, cols = np.nonzero(M)
    return SparseMatrix(rows, cols, M[rows, cols], M.shape)


def analytic_sdp() -> ConicProblem:
    """min y subject to [[1, y], [y, 1]] PSD; optimum -1."""
    F1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    A = sparse(-svec(F1).reshape(3, 1))
    b = svec(np.eye(2))
    return ConicProblem(
        A=A,
        b=b,
        c=np.array([1.0]),
        c0=0.0,
        n_nonneg=0,
        psd_sizes=(2,),
        index=MomentIndex((), (Var(1, 1),)),
    )


def tiny_lp() -> ConicProblem:
    """min -x - 2y  s.t.  x + y <= 2, x <= 1, x >= 0, y >= 0; optimum -4."""
    A_ge = np.array(
        [
            [-1.0, -1.0],  # 2 - x - y >= 0
            [-1.0, 0.0],  # 1 - x >= 0
            [1.0, 0.0],  # x >= 0
            [0.0, 1.0],  # y >= 0
        ]
    )
    d = np.array([-2.0, -1.0, 0.0, 0.0])
    return ConicProblem(
        A=sparse(-A_ge),
        b=-d,
        c=np.array([-1.0, -2.0]),
        c0=0.0,
        n_nonneg=4,
        psd_sizes=(),
        index=MomentIndex((), (Var(0, 1), Var(0, 2))),
    )


def test_analytic_sdp_contract():
    res = solve_conic(analytic_sdp())
    assert res.status == "optimal"
    assert res.primal_objective == pytest.approx(-1.0, abs=1e-6)
    assert res.primal_residual <= res.options.tol
    assert res.dual_residual <= res.options.tol
    assert res.gap <= res.options.tol


def test_tiny_lp_optimum():
    res = solve_conic(tiny_lp())
    assert res.status == "optimal"
    assert res.primal_objective == pytest.approx(-4.0, abs=1e-5)
    np.testing.assert_allclose(res.y, [0.0, 2.0], atol=1e-4)


def test_determinism_is_byte_exact():
    r1 = solve_conic(analytic_sdp(), SolveOptions(seed=0))
    r2 = solve_conic(analytic_sdp(), SolveOptions(seed=0))
    assert r1.iterations == r2.iterations
    assert r1.primal_objective == r2.primal_objective
    assert r1.y.tobytes() == r2.y.tobytes()
    assert r1.sigmas.tobytes() == r2.sigmas.tobytes()
    for g1, g2 in zip(r1.grams, r2.grams):
        assert g1.tobytes() == g2.tobytes()


def test_residuals_reproducible_from_result_vectors():
    """Reported residuals equal a recomputation on the original data."""
    problem = analytic_sdp()
    res = solve_conic(problem)
    s_full = np.concatenate([res.slack_nonneg] + [svec(S) for S in res.slack_psd])
    z_full = np.concatenate([res.sigmas] + [svec(G) for G in res.grams])
    pres = np.linalg.norm(problem.A @ res.y + s_full - problem.b) / (
        1.0 + np.linalg.norm(problem.b)
    )
    dres = np.linalg.norm(problem.c + problem.A.T @ z_full) / (
        1.0 + np.linalg.norm(problem.c)
    )
    assert pres == res.primal_residual
    assert dres == res.dual_residual
    pobj = problem.c0 + float(problem.c @ res.y)
    dobj = problem.c0 - float(problem.b @ z_full)
    assert pobj == res.primal_objective
    assert dobj == res.dual_objective


def test_objective_scaling_scales_optimum():
    base = tiny_lp()
    scaled = dataclasses.replace(base, c=base.c * 8.0)
    r1 = solve_conic(base)
    r2 = solve_conic(scaled)
    assert r2.primal_objective == pytest.approx(8.0 * r1.primal_objective, abs=2e-4)


def test_example1_bounds_bracket_the_exact_optimum(example1):
    region = PerturbationRegion.linf([0, 0.5, 0], 1.0)
    f = objective_targeted(example1, 2, 1)
    lp = solve_lp(encode_lp(example1, region, f))
    inst = encode_tightened(example1, region, f)
    sdp = solve_conic(to_conic(assemble_moment_sdp(inst)))
    exact = exact_verify(example1, region, f)
    assert lp.status == sdp.status == "optimal"
    assert exact.tau == Fraction(-1)
    assert lp.primal_objective == pytest.approx(-1.0, abs=1e-5)
    assert sdp.primal_objective == pytest.approx(-1.0, abs=1e-5)
    assert lp.primal_objective <= sdp.primal_objective + 1e-5
    assert sdp.primal_objective <= float(exact.tau) + 1e-5


def test_lp_point_region_bounded_by_forward_value():
    rng = np.random.default_rng(5)
    net = random_net(rng, (3, 3, 2, 2))
    from bnncert import forward

    center = np.array([1e-4, -2e-4, 1.5e-4])
    region = PerturbationRegion.linf(center, 1e-3)
    trace = forward(net, center)
    assert not trace.any_zero_preactivation()
    f = objective_targeted(net, trace.label, 2 if trace.label != 2 else 1)
    point = {
        Var(i, j + 1): int(v)
        for i, act in enumerate(trace.activations, start=1)
        for j, v in enumerate(act)
    }
    res = solve_lp(encode_lp(net, region, f))
    assert res.status == "optimal"
    assert res.primal_objective <= float(f.evaluate(point)) + 1e-5


def test_lp_of_envelope_objective_is_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(5):
        net = random_net(rng, (3, 4, 3, 2))
        witness = sdp_below_lp_witness(net, neuron=1)
        region = random_region(rng, 3)
        res = solve_lp(encode_lp(net, region, witness.objective))
        assert res.status == "optimal"
        assert res.primal_objective >= -1e-6


def test_lp_bound_is_monotone_in_radius():
    rng = np.random.default_rng(23)
    for _ in range(8):
        net = random_net(rng, (3, 3, 3, 2))
        center = rng.uniform(-0.2, 0.2, size=3)
        f = objective_targeted(net, 1, 2)
        small = PerturbationRegion.linf(center, 0.62)
        large = PerturbationRegion.linf(center, 0.95)
        r_small = solve_lp(encode_lp(net, small, f))
        r_large = solve_lp(encode_lp(net, large, f))
        assert r_large.primal_objective <= r_small.primal_objective + 2e-5


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_lp_rigorous_bound_below_exact_on_small_regions(seed):
    """Radii of 0.02-0.3, where layer-1 neurons are mostly constant over the
    region: the LP's rigorous bound never exceeds the exact optimum."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, (3, 3, 2, 2))
    region = random_region(rng, 3, "linf" if seed % 2 else "l2", radii=(0.02, 0.3))
    f = objective_targeted(net, 1, 2)
    inst = encode_lp(net, region, f)
    bound = rigorous_lower_bound(solve_lp(inst), inst).value
    assert Fraction(bound) <= exact_verify(net, region, f).tau


# -- rigorous lower bound -----------------------------------------------------


def test_rigorous_bound_exact_certificate_has_zero_budget(example1):
    region = PerturbationRegion.linf([0, 0.5, 0], 1.0)
    inst = encode_lp(example1, region, objective_targeted(example1, 2, 1))
    # use one LP row itself as objective; the one-hot multiplier is an exact
    # certificate with identically-zero remainder
    row_idx, row = next(
        (i, c)
        for i, c in enumerate(inst.constraints.inequalities)
        if c.family == "lin1"
    )
    inst_row = dataclasses.replace(
        inst,
        constraints=dataclasses.replace(inst.constraints, objective=row.poly),
    )
    res = solve_lp(inst_row)
    sig = np.zeros(len(inst_row.constraints.inequalities))
    sig[row_idx] = 1.0
    exact = dataclasses.replace(res, sigmas=sig, grams=(), primal_objective=0.0)
    rb = rigorous_lower_bound(exact, inst_row)
    assert rb.value == 0.0
    assert rb.budget == 0.0
    assert rb.anchor == 0.0


def test_rigorous_bound_below_solver_bound(example1):
    region = PerturbationRegion.linf([0, 0.5, 0], 1.0)
    f = objective_targeted(example1, 2, 1)
    inst = encode_tightened(example1, region, f)
    cliques = build_cliques(example1)
    res = solve_conic(to_conic(assemble_moment_sdp(inst, cliques)))
    rb = rigorous_lower_bound(res, inst, cliques)
    assert rb.value <= res.primal_objective + 1e-9
    assert rb.value <= float(exact_verify(example1, region, f).tau) + 1e-9
    assert rb.value == pytest.approx(-1.0, abs=1e-3)


def _small_problems():
    """(net, region, encoder) of the README net at two radii and of three
    seeded nets of depth 2 and 3."""
    net = make_example1()
    for eps in (0.2, 0.5):
        region = PerturbationRegion.linf([0, 0.5, 0], eps)
        yield pytest.param(net, region, encode_standard, id=f"README-{eps}")
    for seed, widths in enumerate([(4, 3, 3, 2), (5, 4, 4, 3), (3, 3, 3, 3, 2)], start=1):
        rng = np.random.default_rng(seed)
        net = stabilize(random_net(rng, widths))
        region = random_region(rng, widths[0])
        name = "-".join(map(str, widths))
        yield pytest.param(net, region, encode_standard, id=name)
        if widths == (5, 4, 4, 3):
            yield pytest.param(net, region, encode_tightened, id=f"{name}-tight")


@pytest.mark.parametrize("net, region, encoder", list(_small_problems()))
def test_merged_cover_keeps_the_optimum(net, region, encoder):
    """The merged blocks and the per-clique blocks relax to the same optimum
    (chordal PSD completion; see `merge_cliques`)."""
    inst = encoder(net, region, objective_targeted(net, 1, 2))
    cliques = build_cliques(net)
    merged = merge_cliques(cliques)
    assert len(merged) < len(cliques)
    opts = SolveOptions(tol=1e-7)
    results = [solve_conic(to_conic(assemble_moment_sdp(inst, c)), opts) for c in (cliques, merged)]
    assert [r.status for r in results] == ["optimal", "optimal"]
    assert results[0].primal_objective == pytest.approx(results[1].primal_objective, abs=1e-5)


def test_rigorous_bound_eigen_deficit_audit(example1):
    """Replacing a PSD block G by -delta*I charges exactly size*delta."""
    region = PerturbationRegion.linf([0, 0.5, 0], 1.0)
    f = objective_targeted(example1, 2, 1)
    inst = encode_tightened(example1, region, f)
    cliques = build_cliques(example1)
    res = solve_conic(to_conic(assemble_moment_sdp(inst, cliques)))
    delta = 1e-3
    k = 2
    s = res.grams[k].shape[0]

    def with_block(block):
        grams = list(res.grams)
        grams[k] = block
        return dataclasses.replace(res, grams=tuple(grams))

    base = rigorous_lower_bound(with_block(np.zeros((s, s))), inst, cliques)
    bumped = rigorous_lower_bound(with_block(-delta * np.eye(s)), inst, cliques)
    shift = sum(bumped.eigenvalue_deficits) - sum(base.eigenvalue_deficits)
    assert shift == pytest.approx(s * delta, abs=1e-12)
    # the zero block is recognized as exactly PSD
    assert sum(base.eigenvalue_deficits[k : k + 1]) == 0.0


def test_rigorous_bound_needs_the_cliques_of_an_sdp_certificate(example1):
    region = PerturbationRegion.linf([0, 0.5, 0], 1.0)
    inst = encode_tightened(example1, region, objective_targeted(example1, 2, 1))
    msdp = assemble_moment_sdp(inst)
    res = solve_conic(to_conic(msdp), SolveOptions(max_iter=50))
    with pytest.raises(ValueError, match="do not fit"):
        rigorous_lower_bound(res, inst)
    assert rigorous_lower_bound(res, inst, msdp.cliques).value <= res.primal_objective


def test_rigorous_bound_rounds_the_deficits_outward(example1):
    """One Gram block diag(0, -t) on a binary x: x^2 = 1 lifts the anchor to
    1 + t and the block pays a deficit of about 2t, so the exact bound lies
    below 1.  Subtracting the deficit in floating point from the rounded
    anchor reported 1.0."""
    t = 2.0**-61
    region = PerturbationRegion.linf([0, 0.5, 0], 1.0)
    constraints = ConstraintSet((), MultilinearPoly.constant(1))
    inst = VerificationInstance(example1, region, constraints, "standard")
    cert = SolveResult(
        status="max_iter", primal_objective=2.0, dual_objective=1.0, iterations=1,
        primal_residual=0.0, dual_residual=0.0, gap=0.0, y=np.zeros(0),
        slack_nonneg=np.zeros(0), slack_psd=(), sigmas=np.zeros(0),
        grams=(np.diag([0.0, -t]),), options=SolveOptions(),
    )
    rb = rigorous_lower_bound(cert, inst, [Clique((Var(1, 1),))])
    assert (rb.anchor, rb.coefficient_residual) == (1.0, 0.0)
    assert rb.eigenvalue_deficits[0] >= 2 * t
    assert rb.value == np.nextafter(1.0, 0.0)


def test_rigorous_bound_budget_is_rounded_up():
    """`budget` is the exact sum of the residual and the deficits, rounded
    up; in round-to-nearest, 1 + 2^-60 + 2^-60 came out as 1.0."""
    inst, cliques, res = query_certificate()
    rb = rigorous_lower_bound(res, inst, cliques)
    assert rb.coefficient_residual > 0 and all(rb.eigenvalue_deficits)
    tiny = RigorousBound(0.0, 0.0, 1.0, (2.0**-60, 2.0**-60))
    assert tiny.budget == np.nextafter(1.0, 2.0)
    for bound in (rb, tiny):
        exact = Fraction(bound.coefficient_residual) + sum(map(Fraction, bound.eigenvalue_deficits))
        assert Fraction(bound.budget) >= exact
        assert bound.budget == float_up(exact)


def test_rigorous_bound_rejects_mismatched_certificate(example1):
    region = PerturbationRegion.linf([0, 0.5, 0], 1.0)
    inst = encode_lp(example1, region, objective_targeted(example1, 2, 1))
    res = solve_lp(inst)
    bad = dataclasses.replace(res, sigmas=res.sigmas[:-1])
    with pytest.raises(ValueError, match="multipliers"):
        rigorous_lower_bound(bad, inst)


def test_solve_options_validate():
    with pytest.raises(ValueError):
        SolveOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iter=0)


# -- cone projection ------------------------------------------------------------


def project_cone_loop(w, n_nonneg, psd_sizes):
    """Reference: one eigh per block, in block order."""
    s = w.copy()
    s[:n_nonneg] = np.maximum(w[:n_nonneg], 0.0)
    pos = n_nonneg
    for size in psd_sizes:
        ln = size * (size + 1) // 2
        lam, V = np.linalg.eigh(smat(w[pos : pos + ln], size))
        lam = np.maximum(lam, 0.0)
        P = (V * lam) @ V.T
        s[pos : pos + ln] = svec((P + P.T) * 0.5)
        pos += ln
    return s


MIXED_SIZES = (3, 10, 3, 14, 10)


def mixed_cone_point(seed):
    """7 nonnegative rows, then PSD blocks of interleaved sizes, and a point."""
    n_nonneg = 7
    dim = n_nonneg + sum(s * (s + 1) // 2 for s in MIXED_SIZES)
    problem = ConicProblem(
        A=SparseMatrix([], [], [], (dim, 0)), b=np.zeros(dim), c=np.zeros(0), c0=0.0,
        n_nonneg=n_nonneg, psd_sizes=MIXED_SIZES, index=MomentIndex((), ()),
    )
    return n_nonneg, _psd_groups(problem), np.random.default_rng(seed).normal(size=dim)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_project_cone_matches_per_block_eigh(seed):
    n_nonneg, groups, w = mixed_cone_point(seed)
    assert sorted(g.size for g in groups) == [3, 10, 14]
    out = _project_cone(w, n_nonneg, groups)
    np.testing.assert_array_equal(out, project_cone_loop(w, n_nonneg, MIXED_SIZES))


def test_project_cone_lands_in_the_cone_and_is_idempotent():
    n_nonneg, groups, w = mixed_cone_point(3)
    once = _project_cone(w, n_nonneg, groups)
    assert np.all(once[:n_nonneg] >= 0.0)
    for g in groups:
        blocks = smat(once[g.rows], g.size)
        lam_min = np.linalg.eigvalsh(blocks)[:, 0]
        assert np.all(lam_min >= -1e-12 * np.linalg.norm(blocks, axis=(1, 2)))
    twice = _project_cone(once, n_nonneg, groups)
    np.testing.assert_allclose(twice, once, rtol=0, atol=1e-12)


def solve_conic_loop(problem, setup, max_iter):
    """Reference: `solve_conic`'s iteration with no tolerance met, block by
    block through smat, eigh and svec (`project_cone_loop`), with fresh
    arrays and c / rho formed at every iteration.  Returns the unscaled
    (y, s, z) after `max_iter` iterations and the final rho."""
    E, D, A, At = setup.E, setup.D, setup.A, setup.At
    b, c = E * problem.b, D * problem.c
    rho = 1.0
    s = project_cone_loop(b, problem.n_nonneg, problem.psd_sizes)
    u = np.zeros(problem.n_rows)
    bnorm = 1.0 + np.linalg.norm(problem.b)
    cnorm = 1.0 + np.linalg.norm(problem.c)
    for it in range(1, max_iter + 1):
        y = setup.solve_normal(At @ (b - s - u) - c / rho)
        w = b - A @ y - u
        s = project_cone_loop(w, problem.n_nonneg, problem.psd_sizes)
        u = s - w
        if it % 200 == 0 and it < max_iter:  # residual balancing
            pres = np.linalg.norm(problem.A @ (D * y) + s / E - problem.b) / bnorm
            dres = np.linalg.norm(problem.c + setup.A0t @ (E * (rho * u))) / cnorm
            if pres > 10.0 * dres and rho < 1e6:
                u *= 0.5
                rho *= 2.0
            elif dres > 10.0 * pres and rho > 1e-6:
                u *= 2.0
                rho *= 0.5
    return D * y, s / E, E * (rho * u), rho


@pytest.mark.parametrize(
    "seed, psd_sizes, max_iter",
    [
        (2, (9, 9, 5), 200),  # two blocks stacked in one group
        (5, (20, 8), 300),  # rho halves at iteration 200
    ],
    ids=["stacked", "rho-halved"],
)
def test_solve_matches_the_per_block_loop_byte_for_byte(seed, psd_sizes, max_iter):
    """The solve's cone maps, buffers and cached c / rho give the iterates
    of the plain loop, bit for bit, on a region-folded 10-8-8-3 query."""
    rng = np.random.default_rng(seed)
    net = stabilize(random_net(rng, (10, 8, 8, 3)))
    region = random_region(rng, 10, radii=(0.1, 0.2))
    net = stabilize(net, region)
    problem = to_conic(assemble_moment_sdp(
        encode_tightened(net, region, objective_targeted(net, 1, 2))
    ))
    assert problem.psd_sizes == psd_sizes
    setup = conic_setup(problem)
    res = solve_conic(problem, SolveOptions(tol=1e-12, max_iter=max_iter), setup)
    y, s, z, rho = solve_conic_loop(problem, setup, max_iter)
    assert (res.status, res.iterations) == ("max_iter", max_iter)
    assert (rho == 1.0) == (max_iter == 200)
    sigmas, grams = problem.split_cone_vector(z)
    slack_nonneg, slack_psd = problem.split_cone_vector(s)
    assert res.y.tobytes() == y.tobytes()
    assert res.sigmas.tobytes() == sigmas.tobytes()
    assert res.slack_nonneg.tobytes() == slack_nonneg.tobytes()
    assert [G.tobytes() for G in res.grams] == [G.tobytes() for G in grams]
    assert [S.tobytes() for S in res.slack_psd] == [S.tobytes() for S in slack_psd]


# -- exact layer: integer PSD proof and certificate expansion -------------------


def fraction_ldl_psd(G):
    """Reference: exact rational LDL^T with the PSD pivoting rules."""
    n = G.shape[0]
    M = [[Fraction(G[i, j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = M[k][k]
        if pivot < 0:
            return False
        if pivot == 0:
            if any(M[k][j] != 0 for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            if M[i][k] == 0:
                continue
            factor = M[i][k] / pivot
            for j in range(k + 1, n):
                M[i][j] -= factor * M[k][j]
    return True


def integer_gram(rng, n):
    """B B^T for an integer B of rank < n, rows repeated so that a zero
    pivot (with a zero row) turns up mid-elimination."""
    r = int(rng.integers(1, n)) if n > 1 else 1
    B = rng.integers(-3, 4, size=(n, r)).astype(float)
    B[rng.integers(n)] = B[rng.integers(n)]
    return B @ B.T


def psd_case(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "rank_deficient":
        return integer_gram(rng, n)
    if kind == "zero_diagonal":
        G = integer_gram(rng, n)
        k = int(rng.integers(n))
        G[k, k] = 0.0
        if rng.integers(2):  # a zero row: PSD-ness rests on the others
            G[k, :] = G[:, k] = 0.0
        return G
    if kind == "tiny_negative":
        G = integer_gram(rng, n)
        k = int(rng.integers(n))
        G[k, k] -= 2.0**-50
        return G
    if kind == "wide_range":
        B = rng.normal(size=(n, n)) * 2.0 ** rng.integers(-30, 21, size=(n, 1))
        G = B @ B.T
        G[rng.random(size=(n, n)) < 0.2] = 0.0
        G = np.triu(G) + np.triu(G, 1).T
        G.flat[:: n + 1] += 2.0 ** rng.integers(-60, 41, size=n)
        return G
    if kind == "negative_zero":
        G = integer_gram(rng, n)
        k = int(rng.integers(n))
        G[k, :] = G[:, k] = 0.0
        G[G == 0.0] = -0.0
        return G
    raise AssertionError(kind)


PSD_KINDS = ("rank_deficient", "zero_diagonal", "tiny_negative", "wide_range", "negative_zero")


def upper_integers(G):
    """G's upper triangle, row by row from the diagonal, scaled to integers."""
    ratios = [[x.as_integer_ratio() for x in row[p:]] for p, row in enumerate(G.tolist())]
    scale = max((den for row in ratios for _, den in row), default=1)
    return [[num * (scale // den) for num, den in row] for row in ratios]


@pytest.mark.parametrize("kind", PSD_KINDS)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_integer_psd_check_agrees_with_fraction_ldl(kind, n, seed):
    G = psd_case(kind, n, seed)
    assert _exact_psd_check(upper_integers(G)) == fraction_ldl_psd(G)


def test_integer_psd_check_edge_cases():
    def check(G):
        return _exact_psd_check(upper_integers(np.array(G)))

    assert check([[1.0, 1.0, 2.0], [1.0, 1.0, 2.0], [2.0, 2.0, 5.0]])
    bumped = [[1.0, 1.0], [1.0, 1.0 - 2.0**-50]]
    assert not check(bumped)
    assert not check([[0.0, 1.0], [1.0, 3.0]])
    assert check([[-0.0, 0.0], [-0.0, 2.0**-60]])
    assert check([[2.0**40, 2.0**-10], [2.0**-10, 2.0**-60]])
    assert check(np.zeros((0, 0)))


def gram_polynomial(G, variables):
    """Reference: (1, x_clique)^T G (1, x_clique) as an exact polynomial."""
    terms = {(): Fraction(G[0, 0])}
    for p in range(1, G.shape[0]):
        v = variables[p - 1]
        terms[((v, 1),)] = 2 * Fraction(G[0, p])
        terms[((v, 2),)] = Fraction(G[p, p])
        for q in range(p + 1, G.shape[0]):
            terms[((v, 1), (variables[q - 1], 1))] = 2 * Fraction(G[p, q])
    return MultilinearPoly(terms)


def chain_expansion(result, instance, cliques):
    """Reference: the certificate expanded as a chain of exact polynomials."""
    remainder = instance.objective
    for mult, con in zip(result.sigmas, instance.constraints.inequalities):
        if mult > 0:
            remainder = remainder - con.poly * Fraction(mult)
    for G, clique in zip(result.grams, cliques):
        remainder = remainder - gram_polynomial(G, clique.variables)
    remainder = remainder.reduce_binary_squares()
    anchor = Fraction(remainder.constant_term())
    budget = sum((abs(Fraction(c)) for m, c in remainder.terms.items() if m), Fraction(0))
    deficits = []
    for G in result.grams:
        if fraction_ldl_psd(G):
            deficits.append(0.0)
            continue
        lam = float(np.linalg.eigvalsh(G)[0])
        widen = G.shape[0] * np.finfo(float).eps * float(np.linalg.norm(G, "fro"))
        deficits.append(float_up(G.shape[0] * max(Fraction(0), Fraction(widen) - Fraction(lam))))
    return float_down(anchor), float_up(budget), tuple(deficits)


def expansion_instances():
    yield make_example1(), PerturbationRegion.linf([0, 0.5, 0], 0.5), 2, 1
    rng = np.random.default_rng(42)
    net = stabilize(random_net(rng, (10, 8, 8, 3)))
    yield net, random_region(rng, 10), 1, 3


@pytest.mark.parametrize("encoder", [encode_standard, encode_tightened])
def test_certificate_expansion_matches_polynomial_chain(encoder):
    for net, region, label, target in expansion_instances():
        inst = encoder(net, region, objective_targeted(net, label, target))
        cliques = build_cliques(net)
        res = solve_conic(
            to_conic(assemble_moment_sdp(inst, cliques)), SolveOptions(tol=1e-4, max_iter=150)
        )
        sig = res.sigmas.copy()
        sig[::3] = -np.abs(sig[::3]) - 1e-3  # clamped to zero by the bound
        grams = list(res.grams)
        grams[0] = grams[0] - 1e-3 * np.eye(grams[0].shape[0])  # pays a deficit
        for cert in (res, dataclasses.replace(res, sigmas=sig, grams=tuple(grams))):
            rb = rigorous_lower_bound(cert, inst, cliques)
            assert (rb.anchor, rb.coefficient_residual, rb.eigenvalue_deficits) == (
                chain_expansion(cert, inst, cliques)
            )
        assert rb.eigenvalue_deficits[0] > 0


# -- shared setup across targets, and stopping at a settled verdict ------------


def seeded_query():
    """A stabilized 10-8-8-3 net, a region and the true label 1."""
    rng = np.random.default_rng(42)
    net = stabilize(random_net(rng, (10, 8, 8, 3)))
    return net, random_region(rng, 10), 1


def test_shared_setup_matches_fresh_solve_for_every_target():
    net, region, label = seeded_query()
    cliques = build_cliques(net)
    objectives = {k: objective_targeted(net, label, k) for k in (2, 3)}
    shared = to_conic(assemble_moment_sdp(encode_tightened(net, region, objectives[2]), cliques))
    setup = conic_setup(shared)
    opts = SolveOptions(tol=1e-4, max_iter=150)
    for f in objectives.values():
        fresh_problem = to_conic(assemble_moment_sdp(encode_tightened(net, region, f), cliques))
        problem = shared.with_objective(f)
        assert problem.A is shared.A
        assert problem.c.tobytes() == fresh_problem.c.tobytes()
        assert problem.c0 == fresh_problem.c0
        fresh = solve_conic(fresh_problem, opts)
        reused = solve_conic(problem, opts, setup)
        assert reused.iterations == fresh.iterations
        assert reused.status == fresh.status
        assert reused.y.tobytes() == fresh.y.tobytes()
        assert reused.sigmas.tobytes() == fresh.sigmas.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(reused.grams, fresh.grams))


def test_lp_with_objective_matches_a_fresh_assembly(example1):
    region = PerturbationRegion.linf([0, 0.5, 0], 1.0)
    lp = encode_lp(example1, region, objective_targeted(example1, 2, 1))
    shared = to_conic(assemble_moment_sdp(lp))
    f = objective_targeted(example1, 1, 2)
    fresh = to_conic(assemble_moment_sdp(encode_lp(example1, region, f)))
    problem = shared.with_objective(f)
    assert problem.c.tobytes() == fresh.c.tobytes() and problem.c0 == fresh.c0
    for name in ("row", "col", "data"):
        assert getattr(problem.A, name).tobytes() == getattr(fresh.A, name).tobytes()


def test_sparse_matrix_sorts_its_triplets_and_multiplies_like_the_dense_matrix():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(7, 5)) * (rng.random((7, 5)) < 0.5)
    M[3] = 0.0  # an empty row
    rows, cols = np.nonzero(M)
    shuffle = rng.permutation(rows.size)
    A = SparseMatrix(rows[shuffle], cols[shuffle], M[rows, cols][shuffle], M.shape)
    assert list(zip(A.row, A.col)) == list(zip(rows, cols))
    x, z = rng.normal(size=5), rng.normal(size=7)
    np.testing.assert_allclose(A @ x, M @ x, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(A.T @ z, M.T @ z, rtol=1e-14, atol=1e-14)
    assert A.T.shape == (5, 7)


def test_setup_of_another_problem_is_rejected():
    setup = conic_setup(analytic_sdp())
    with pytest.raises(ValueError, match="setup"):
        solve_conic(analytic_sdp(), setup=setup)  # equal, but another A


def shifted_sdp(shift: float) -> ConicProblem:
    """`analytic_sdp` plus a constant: optimum shift - 1."""
    return dataclasses.replace(analytic_sdp(), c0=shift)


def test_settled_stops_at_the_first_accepted_iterate():
    problem = shifted_sdp(3.0)
    seen = []

    def settled(res):
        seen.append(res)
        return len(seen) == 2

    res = solve_conic(problem, SolveOptions(tol=1e-12), settled=settled)
    assert res.status == "settled"
    assert res is seen[-1]
    assert res.iterations == 50  # the second check
    assert res.primal_objective > 0


def test_declined_callback_leaves_the_iterates_unchanged():
    problem = shifted_sdp(3.0)
    calls = []
    plain = solve_conic(problem)
    asked = solve_conic(problem, settled=lambda res: calls.append(res) or False)
    assert calls  # the screen was positive, the callback declined
    assert asked.status == plain.status == "optimal"
    assert asked.iterations == plain.iterations
    assert asked.y.tobytes() == plain.y.tobytes()
    assert asked.sigmas.tobytes() == plain.sigmas.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(asked.grams, plain.grams))


def test_callback_is_not_asked_while_the_screen_is_not_positive():
    def settled(res):
        raise AssertionError("asked with a non-positive screen")

    res = solve_conic(shifted_sdp(0.5), settled=settled)  # optimum -0.5
    assert res.status == "optimal"


def screen_instances():
    net = make_example1()
    region = PerturbationRegion.linf([0, 0.5, 0], 0.5)
    f = objective_targeted(net, 2, 1)
    yield encode_tightened(net, region, f), 100
    yield encode_standard(net, region, f), 2000
    yield encode_lp(net, PerturbationRegion.linf([0, 0.5, 0], 0.7), f), 2000
    q_net, q_region, label = seeded_query()
    yield encode_tightened(q_net, q_region, objective_targeted(q_net, label, 3)), 100


def test_float_screen_matches_rigorous_anchor_minus_residual():
    """dobj - ||c + A^T z||_1 is the float image of anchor - residual."""
    for inst, max_iter in screen_instances():
        msdp = assemble_moment_sdp(inst)
        problem = to_conic(msdp)
        res = solve_conic(problem, SolveOptions(tol=1e-4, max_iter=max_iter))
        z = np.concatenate([res.sigmas] + [svec(G) for G in res.grams])
        screen = res.dual_objective - float(np.abs(problem.c + problem.A.T @ z).sum())
        rb = rigorous_lower_bound(res, inst, msdp.cliques)
        scale = max(1.0, abs(rb.anchor), rb.coefficient_residual)
        assert abs(screen - (rb.anchor - rb.coefficient_residual)) <= 1e-9 * scale


# -- equilibration --------------------------------------------------------------


def equilibrate_loop(problem, iters=10):
    """Reference: the Ruiz scaling with one Python step per row group."""
    A = sp.csr_matrix((problem.A.data, (problem.A.row, problem.A.col)), shape=problem.A.shape)
    m, n = A.shape
    E, D = np.ones(m), np.ones(n)
    groups = [(r, r + 1) for r in range(problem.n_nonneg)]
    pos = problem.n_nonneg
    for size in problem.psd_sizes:
        groups.append((pos, pos + size * (size + 1) // 2))
        pos += size * (size + 1) // 2
    for _ in range(iters):
        absA = abs(A)
        rmax = np.asarray(absA.max(axis=1).todense()).ravel()
        e = np.ones(m)
        for lo, hi in groups:
            g = rmax[lo:hi].max()
            e[lo:hi] = 1.0 / np.sqrt(g) if g > 0 else 1.0
        cmax = np.asarray(absA.max(axis=0).todense()).ravel()
        d = np.where(cmax > 0, 1.0 / np.sqrt(cmax), 1.0)
        A = sp.diags(e) @ A @ sp.diags(d)
        E *= e
        D *= d
    return E, D


def test_equilibration_matches_the_per_group_loop():
    rng = np.random.default_rng(7)
    big = stabilize(random_net(rng, (20, 12, 12, 4)))
    cases = [
        (make_example1(), PerturbationRegion.linf([0, 0.5, 0], 1.0), 2, 1),
        (big, random_region(rng, 20), 1, 2),
    ]
    for net, region, label, target in cases:
        f = objective_targeted(net, label, target)
        problems = [
            to_conic(assemble_moment_sdp(encode_tightened(net, region, f), build_cliques(net))),
            to_conic(assemble_moment_sdp(encode_lp(net, region, f))),
        ]
        for problem in problems:
            E, D = _equilibrate(problem)
            E_ref, D_ref = equilibrate_loop(problem)
            assert E.tobytes() == E_ref.tobytes()
            assert D.tobytes() == D_ref.tobytes()


def assert_solves_normal_equations(problem: ConicProblem) -> None:
    """`solve_normal` of the problem's setup solves (A^T A) y = r for the
    scaled A to 1e-10, relative."""
    setup = conic_setup(problem)
    A = np.zeros(setup.A.shape)
    A[setup.A.row, setup.A.col] = setup.A.data
    r = np.random.default_rng(3).normal(size=A.shape[1])
    expected = np.linalg.solve(A.T @ A, r)
    error = np.linalg.norm(setup.solve_normal(r) - expected)
    assert error <= 1e-10 * np.linalg.norm(expected)


def test_normal_equations_match_a_dense_solve():
    """Every relaxation solves its normal equations on the one path: a
    10-8-8-3 net under a linf and an l2 region, a 20-12-12-4 (514-column)
    net, and the README net at eps 0.2, whose region rows -x^2 + 0.04 hold
    one entry.  Every column has a row that holds it alone, and every PSD
    row of an SDP holds exactly one moment id, or else a fixed entry of b."""
    net, region, label = seeded_query()
    rng = np.random.default_rng(7)
    big = stabilize(random_net(rng, (20, 12, 12, 4)))
    cases = [
        (net, region, label, 2),
        (net, random_region(np.random.default_rng(5), 10, "l2"), label, 2),
        (big, random_region(rng, 20), 1, 2),
        (make_example1(), PerturbationRegion.linf([0, 0.5, 0], 0.2), 2, 1),
    ]
    n_vars = []
    for net, region, label, target in cases:
        f = objective_targeted(net, label, target)
        cliques = build_cliques(net)
        problems = [
            to_conic(assemble_moment_sdp(encode_standard(net, region, f), cliques)),
            to_conic(assemble_moment_sdp(encode_tightened(net, region, f), cliques)),
            to_conic(assemble_moment_sdp(encode_lp(net, region, f))),
        ]
        for problem in problems:
            k = problem.n_nonneg
            entries = np.bincount(problem.A.row, minlength=problem.n_rows)
            assert np.array_equal(entries[k:], (problem.b[k:] == 0).astype(entries.dtype))
            held = np.unique(problem.A.col[entries[problem.A.row] == 1])
            assert np.array_equal(held, np.arange(problem.n_vars))
            assert_solves_normal_equations(problem)
        n_vars.append(problems[0].n_vars)
    assert n_vars[2] == 514


def hand_built(A) -> ConicProblem:
    """One scalar row over one 2 x 2 PSD block, with the 4 x 2 matrix `A`."""
    return ConicProblem(
        A=sparse(np.array(A)),
        b=np.array([1.0, 1.0, 0.0, 1.0]),
        c=np.zeros(2),
        c0=0.0,
        n_nonneg=1,
        psd_sizes=(2,),
        index=MomentIndex((), (Var(1, 1), Var(1, 2))),
    )


def test_normal_equations_with_a_two_entry_psd_row_are_exact():
    """The second PSD row holds two entries: it joins the scalar row in the
    low-rank term, and the solve is still exact."""
    assert_solves_normal_equations(
        hand_built([[1.0, 2.0], [1.0, 0.0], [0.5, -1.0], [0.0, 3.0]])
    )


def test_normal_equations_without_columns_solve_to_the_empty_vector():
    solve = solver._make_solver(SparseMatrix([], [], [], (3, 0)))
    assert solve(np.zeros(0)).shape == (0,)


def test_normal_equations_reject_a_column_without_a_single_entry_row():
    """The second column appears only in the two-entry scalar row, so A^T A
    has no positive diagonal part to build the solve on."""
    with pytest.raises(ValueError, match="no row that holds it alone"):
        conic_setup(hand_built([[1.0, 2.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))


# -- integer certificate expansion ---------------------------------------------


def query_certificate(encoder=encode_tightened):
    """A seeded 10-8-8-3 query: its instance, cliques and a 150-iteration
    certificate."""
    net, region, label = seeded_query()
    inst = encoder(net, region, objective_targeted(net, label, 3))
    cliques = build_cliques(net)
    res = solve_conic(
        to_conic(assemble_moment_sdp(inst, cliques)), SolveOptions(tol=1e-4, max_iter=150)
    )
    return inst, cliques, res


def with_objective(inst, objective):
    return dataclasses.replace(
        inst, constraints=dataclasses.replace(inst.constraints, objective=objective)
    )


def assert_matches_chain(cert, inst, cliques):
    rb = rigorous_lower_bound(cert, inst, cliques)
    assert (rb.anchor, rb.coefficient_residual, rb.eigenvalue_deficits) == (
        chain_expansion(cert, inst, cliques)
    )
    return rb


def bound_bits(rb):
    return tuple(x.hex() for x in (rb.value, rb.anchor, rb.coefficient_residual,
                                   *rb.eigenvalue_deficits))


def test_rigorous_bound_reads_the_cover_numbered_once():
    """Two targets of one relaxation share their cover's Gram numbering.
    Each bound is, bit for bit, the one of a freshly numbered cover, and the
    chain expansion's; again after another cover is numbered in between."""
    net, region, label = seeded_query()
    inst = encode_tightened(net, region, objective_targeted(net, label, 2))
    msdp = assemble_moment_sdp(inst)
    problem = to_conic(msdp)
    setup = conic_setup(problem)
    targets = []
    for k in (2, 3):
        f = objective_targeted(net, label, k)
        res = solve_conic(problem.with_objective(f), SolveOptions(tol=1e-4, max_iter=150), setup)
        targets.append((res, with_objective(inst, f)))
    fresh = []
    for res, target_inst in targets:
        solver._gram_numbering.cache_clear()
        fresh.append(bound_bits(assert_matches_chain(res, target_inst, msdp.cliques)))
    solver._gram_numbering.cache_clear()
    other_inst, other_cliques, other_res = query_certificate()
    assert tuple(other_cliques) != tuple(msdp.cliques)
    for number_other in (False, True):
        if number_other:
            rigorous_lower_bound(other_res, other_inst, other_cliques)
        hits = solver._gram_numbering.cache_info().hits
        bounds = [rigorous_lower_bound(res, target_inst, msdp.cliques)
                  for res, target_inst in targets]
        assert [bound_bits(rb) for rb in bounds] == fresh
        assert solver._gram_numbering.cache_info().hits > hits


def test_expansion_keeps_non_dyadic_objective_coefficients_exact():
    inst, cliques, res = query_certificate()
    third = Fraction(1, 3)
    objective = inst.objective.scale(third) + MultilinearPoly(
        {((Var(2, 1), 1),): third, ((Var(0, 1), 3),): -third}  # the cube is in no row
    )
    assert_matches_chain(res, with_objective(inst, objective), cliques)


def test_expansion_of_subnormal_and_negative_zero_entries():
    inst, cliques, res = query_certificate(encode_standard)
    sig = res.sigmas.copy()
    sig[::4] = 5e-324
    sig[1::4] = -0.0
    grams = []
    for b, G in enumerate(res.grams):
        G = G.copy()
        G[0, 1] = G[1, 0] = 5e-324 if b % 2 else -0.0
        G[1, 1] = -0.0 if b % 2 else 5e-324
        grams.append(G)
    assert_matches_chain(dataclasses.replace(res, sigmas=sig, grams=tuple(grams)), inst, cliques)


def test_psd_blocks_are_proven_by_bareiss_and_disproven_by_rayleigh(monkeypatch):
    inst, cliques, res = query_certificate()
    sizes = [G.shape[0] for G in res.grams]
    # block 0 PSD, block 1 clearly not, the rest zero (PSD)
    grams = [np.eye(sizes[0]), -np.eye(sizes[1])] + [np.zeros((n, n)) for n in sizes[2:]]
    read, checked = [], []
    disprove, check = solver._disproves_psd, solver._exact_psd_check
    monkeypatch.setattr(
        solver, "_disproves_psd", lambda G, upper: read.append(upper) or disprove(G, upper)
    )
    monkeypatch.setattr(
        solver, "_exact_psd_check", lambda upper: checked.append(upper) or check(upper)
    )
    rb = assert_matches_chain(dataclasses.replace(res, grams=tuple(grams)), inst, cliques)
    assert rb.eigenvalue_deficits[0] == 0.0 and rb.eigenvalue_deficits[1] > 0
    assert len(checked) == len(grams) - 1
    assert all(upper is not read[1] for upper in checked)
    # the factorization reads the integer rows the Rayleigh test read
    assert all(upper is rows for upper, rows in zip(checked, read[:1] + read[2:], strict=True))


@pytest.mark.parametrize("kind", PSD_KINDS)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_rayleigh_quotient_never_disproves_a_psd_block(kind, n, seed):
    G = psd_case(kind, n, seed)
    if _disproves_psd(G, upper_integers(G)):
        assert not fraction_ldl_psd(G)


def test_gram_blocks_that_do_not_fit_the_cliques_are_rejected():
    inst, cliques, res = query_certificate()
    n = res.grams[0].shape[0]
    for grams in (res.grams[1:], (np.eye(n + 1),) + res.grams[1:]):
        with pytest.raises(ValueError, match="Gram blocks"):
            rigorous_lower_bound(dataclasses.replace(res, grams=grams), inst, cliques)
