"""Moment indexing, block assembly, analytic witnesses, and the SDPA format."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnncert import (
    MomentIndex,
    MultilinearPoly,
    PerturbationRegion,
    Var,
    assemble_moment_sdp,
    build_cliques,
    encode_standard,
    encode_tightened,
    export_sdpa,
    objective_targeted,
    read_sdpa,
    sdp_below_lp_witness,
    smat,
    svec,
    tightened_gap_witness,
    to_conic,
)
from bnncert.encode import ConstraintSet, VerificationInstance

from conftest import make_example1, random_net


def tight_instance(net, radius=1.0, kind="linf"):
    region = (
        PerturbationRegion.linf([0, 0.5, 0], radius)
        if kind == "linf"
        else PerturbationRegion.l2([0, 0.5, 0], radius)
    )
    return encode_tightened(net, region, objective_targeted(net, 2, 1))


# -- moment index -------------------------------------------------------------


def test_moment_index_counts_example1(example1):
    index = MomentIndex(build_cliques(example1), ())
    # 7 singles; pairs: 3x2 input-hidden + 1 intra-layer-1 + 2x2 hidden-output
    assert index.n_singles == 7
    assert index.n_pairs == 6 + 1 + 4
    assert index.n_input_squares == 3
    assert index.canonical_count == 19
    assert index.total_count == 22
    assert index.order[0] == ()
    assert index.ids[()] == 0


def test_moment_index_resolves_covered_monomials(example1):
    index = MomentIndex(build_cliques(example1), ())
    assert index.resolve(()) is None
    assert index.resolve(((Var(1, 1), 1),)) == (Var(1, 1),)
    assert index.resolve(((Var(0, 2), 2),)) == (Var(0, 2), Var(0, 2))
    key = index.resolve(((Var(1, 2), 1), (Var(2, 1), 1)))
    assert key == (Var(1, 2), Var(2, 1))


def test_linearize_applies_binary_squares_in_resolve(example1):
    """A binary square linearizes to the constant 1 without a reduced copy
    of the polynomial; an input square keeps its moment."""
    index = MomentIndex(build_cliques(example1), ())
    x, y, u = (MultilinearPoly.variable(v) for v in (Var(1, 1), Var(2, 1), Var(0, 1)))
    p = (x + 1) * (x - y) * 3 + x * x * 2 - u * u + u * x
    assert p.reduce_binary_squares() != p
    assert index.linearize(p) == index.linearize(p.reduce_binary_squares())
    const, coeffs = index.linearize(p)
    assert const == 5
    assert coeffs[index.ids[(Var(0, 1), Var(0, 1))]] == -1


def test_moment_index_rejects_uncovered_pair(example1):
    index = MomentIndex(build_cliques(example1), ())
    with pytest.raises(ValueError, match=r"x\[0,1\].*x\[0,2\]"):
        index.resolve(((Var(0, 1), 1), (Var(0, 2), 1)))


# -- assembly -----------------------------------------------------------------


def test_assemble_example1_tightened_blocks(example1):
    # the default cover merges the five order-4 cliques into one block
    msdp = assemble_moment_sdp(tight_instance(example1))
    assert msdp.block_sizes == (8,)
    assert msdp.index.total_count - 1 == 31
    assert msdp.n_rows == len(tight_instance(example1).constraints.inequalities)
    for fixed, entries, clique in zip(
        msdp.block_fixed, msdp.block_entries, msdp.cliques
    ):
        assert fixed[0, 0] == 1.0
        for p, v in enumerate(clique.variables, start=1):
            if v.layer >= 1:
                assert fixed[p, p] == 1.0  # binary diagonal pinned
            else:
                assert fixed[p, p] == 0.0  # input square is a free moment
        # every declared entry indexes a real moment id
        for p, q, idx in entries:
            assert 0 <= p <= q < fixed.shape[0]
            assert 1 <= idx < msdp.index.total_count


def test_assemble_constant_objective(example1):
    inst = tight_instance(example1)
    const_inst = VerificationInstance(
        inst.net,
        inst.region,
        ConstraintSet(
            inst.constraints.inequalities,
            MultilinearPoly.constant(Fraction(7, 2)),
        ),
        "tightened",
    )
    msdp = assemble_moment_sdp(const_inst)
    assert msdp.objective == ()
    assert msdp.objective_const == Fraction(7, 2)


def test_assemble_linear_encodings_without_blocks(example1):
    from bnncert import encode_lp

    lp = encode_lp(
        example1,
        PerturbationRegion.linf([0, 0.5, 0], 1.0),
        objective_targeted(example1, 2, 1),
    )
    msdp = assemble_moment_sdp(lp)
    assert msdp.cliques == () and msdp.block_sizes == ()
    assert msdp.n_rows == len(lp.constraints.inequalities)
    # one column per variable, in the instance's variable order
    assert msdp.index.order[1:] == tuple((v,) for v in lp.variables())
    cp = to_conic(msdp)
    assert cp.n_vars == 7 and cp.n_rows == cp.n_nonneg == msdp.n_rows


# -- conic form ---------------------------------------------------------------


def test_to_conic_example1_shapes(example1):
    msdp = assemble_moment_sdp(tight_instance(example1), build_cliques(example1))
    cp = to_conic(msdp)
    assert cp.psd_sizes == (4, 4, 4, 4, 4)
    assert cp.n_vars == 21  # 22 moment ids minus the constant
    assert cp.n_nonneg == msdp.n_rows
    assert cp.n_rows == msdp.n_rows + 5 * (4 * 5 // 2)
    assert len(cp.block_offsets()) == 5


def test_to_conic_empty_inequalities(example1):
    region = PerturbationRegion.linf([0, 0.5, 0], 1.0)
    inst = VerificationInstance(
        example1,
        region,
        ConstraintSet((), objective_targeted(example1, 2, 1)),
        "standard",
    )
    cp = to_conic(assemble_moment_sdp(inst))
    assert cp.n_nonneg == 0
    assert cp.psd_sizes == (8,)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_svec_smat_roundtrip(seed):
    rng = np.random.default_rng(seed)
    s = int(rng.integers(1, 7))
    A = rng.normal(size=(s, s))
    A = (A + A.T) / 2
    v = svec(A)
    assert v.shape == (s * (s + 1) // 2,)
    np.testing.assert_allclose(smat(v, s), A, atol=1e-12)
    # inner products are preserved
    B = rng.normal(size=(s, s))
    B = (B + B.T) / 2
    assert np.vdot(svec(A), svec(B)) == pytest.approx(np.tensordot(A, B), rel=1e-12)


def svec_loop(M):
    """Reference layout: row-major upper triangle, off-diagonals * sqrt(2)."""
    s = M.shape[0]
    return np.array(
        [M[p, q] * (1.0 if p == q else math.sqrt(2.0)) for p in range(s) for q in range(p, s)]
    )


@pytest.mark.parametrize("s", [1, 2, 3, 10, 14])
def test_svec_smat_stacked_equal_per_matrix(s):
    rng = np.random.default_rng(s)
    A = rng.normal(size=(2, 3, s, s))
    A = (A + np.swapaxes(A, -1, -2)) / 2
    V = svec(A)
    assert V.shape == (2, 3, s * (s + 1) // 2)
    M = smat(V, s)
    assert M.shape == A.shape
    for i in range(2):
        for j in range(3):
            np.testing.assert_array_equal(V[i, j], svec_loop(A[i, j]))
            np.testing.assert_array_equal(V[i, j], svec(A[i, j]))
            np.testing.assert_array_equal(M[i, j], smat(V[i, j], s))
            np.testing.assert_array_equal(M[i, j], M[i, j].T)
    np.testing.assert_allclose(M, A, atol=1e-12)


# -- analytic witnesses -------------------------------------------------------


def test_sdp_below_lp_witness_example1(example1):
    w = sdp_below_lp_witness(example1, neuron=1)
    M = w.matrix
    assert M.shape == (4, 4)
    assert M[0, 0] == 1.0
    assert np.allclose(np.diag(M)[1:], 1.0)
    assert w.eigmin() >= -1e-9
    assert np.linalg.matrix_rank(M, tol=1e-9) == 2
    assert w.moment_value_exact(w.objective) == Fraction(-1)
    # the standard sign-product localizer evaluates to exactly zero
    x = MultilinearPoly.variable(Var(2, 1))
    z = MultilinearPoly.linear({Var(1, 1): -1, Var(1, 2): -1}, 1)
    assert w.moment_value_exact(x * z) == 0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_sdp_below_lp_witness_random_nets(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, (3, int(rng.integers(2, 6)), int(rng.integers(2, 5)), 2))
    w = sdp_below_lp_witness(net, neuron=1)
    assert w.eigmin() >= -1e-8
    assert w.matrix[0, 0] == 1.0
    assert w.moment_value_exact(w.objective) == Fraction(-1)
    assert np.allclose(np.diag(w.matrix), 1.0)


def test_tightened_gap_witness_spectrum_example1(example1):
    w = tightened_gap_witness(example1, neuron=2)
    nv, b = w.params["nv"], w.params["bias"]
    assert (nv, b) == (2.0, -0.5)
    eigs = np.sort(np.linalg.eigvalsh(w.matrix))
    m = 2  # predecessor layer width
    np.testing.assert_allclose(eigs[:m], 0.0, atol=1e-8)
    np.testing.assert_allclose(eigs[m], 1.0, atol=1e-8)
    np.testing.assert_allclose(eigs[m + 1], nv + 1.0, atol=1e-8)
    assert np.trace(w.matrix) == pytest.approx(nv + 2.0, abs=1e-10)
    assert w.moment_value(w.objective) == pytest.approx(w.params["objective_value"])
    # the row-bound product t1 = (x+1)(nv - <w, x'>) goes negative
    x = MultilinearPoly.variable(Var(2, 2))
    row = MultilinearPoly.linear({Var(1, 1): -1, Var(1, 2): 1})
    t1 = (x + 1) * (MultilinearPoly.constant(int(nv)) - row)
    val = w.moment_value(t1)
    a, t = w.params["a"], w.params["t"]
    assert val == pytest.approx(nv * (1.0 - a - t))
    assert val < 0


def test_tightened_gap_witness_zero_bias_values():
    rng = np.random.default_rng(7)
    net = random_net(rng, (3, 3, 2, 2))
    flat = list(net.biases)
    flat[1] = np.zeros_like(flat[1])
    from bnncert import FoldedBnn

    zb = FoldedBnn(widths=net.widths, weights=net.weights, biases=tuple(flat))
    w = tightened_gap_witness(zb, neuron=1)
    assert w.params["a"] == pytest.approx(math.sqrt(2) / 2)
    assert w.params["objective_value"] == pytest.approx(-(math.sqrt(2) - 1))


def test_tightened_gap_witness_requires_strict_bias():
    from bnncert import FoldedBnn

    net = FoldedBnn(
        widths=(2, 2, 1, 2),
        weights=(np.array([[1, 0], [0, 1]]), np.array([[1, 1]]), np.array([[1], [-1]])),
        biases=(np.zeros(2), np.array([2.0]), np.zeros(2)),
    )
    # |b| = nv = 2 on the last hidden row: the construction must refuse
    with pytest.raises(ValueError, match="row 1-norm"):
        tightened_gap_witness(net, neuron=1)
    # b = -nv = -2 is a tie that stabilize keeps, but z_max = 0 leaves no
    # unit envelope for either witness
    tie = FoldedBnn(net.widths, net.weights, (np.zeros(2), np.array([-2.0]), np.zeros(2)))
    for witness in (sdp_below_lp_witness, tightened_gap_witness):
        with pytest.raises(ValueError, match="z_max = 0 and z_min = -4"):
            witness(tie, neuron=1)


@pytest.mark.parametrize("witness", [sdp_below_lp_witness, tightened_gap_witness])
def test_witnesses_reject_a_neuron_outside_the_layer(example1, witness):
    for neuron in (0, -1, 3):  # the last hidden layer has neurons 1 and 2
        with pytest.raises(ValueError, match=rf"neuron {neuron} outside 1\.\.2"):
            witness(example1, neuron=neuron)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_tightened_gap_witness_spectrum_random(seed):
    rng = np.random.default_rng(seed)
    n1 = int(rng.integers(2, 7))
    net = random_net(rng, (3, n1, int(rng.integers(2, 5)), 2))
    w = tightened_gap_witness(net, neuron=1)
    nv = w.params["nv"]
    eigs = np.sort(np.linalg.eigvalsh(w.matrix))
    assert eigs[0] >= -1e-10
    np.testing.assert_allclose(eigs[:n1], 0.0, atol=1e-8)
    np.testing.assert_allclose(eigs[-1], nv + 1.0, atol=1e-8)
    assert np.trace(w.matrix) == pytest.approx(nv + 2.0, abs=1e-10)


# -- SDPA export / parse ------------------------------------------------------


def test_sdpa_block_structure(example1, tmp_path):
    msdp = assemble_moment_sdp(tight_instance(example1), build_cliques(example1))
    path = tmp_path / "toy.dat-s"
    export_sdpa(msdp, path)
    parsed = read_sdpa(path)
    assert parsed.block_sizes == (4, 4, 4, 4, 4, -msdp.n_rows)
    assert parsed.n_constraints == 21


def test_sdpa_roundtrip_coefficients(example1, tmp_path):
    msdp = assemble_moment_sdp(tight_instance(example1))
    path = tmp_path / "toy.dat-s"
    export_sdpa(msdp, path)
    parsed = read_sdpa(path)

    # objective vector and constant
    expected_obj = np.zeros(msdp.index.total_count - 1)
    for idx, coeff in msdp.objective:
        expected_obj[idx - 1] = float(coeff)
    np.testing.assert_array_equal(parsed.objective, expected_obj)
    assert parsed.objective_const == float(msdp.objective_const)

    # entry-for-entry equality against the assembled data
    expected: dict = {}
    for k, fixed in enumerate(msdp.block_fixed, start=1):
        s = fixed.shape[0]
        for p in range(s):
            for q in range(p, s):
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


def test_sdpa_rejects_empty_problem(example1):
    region = PerturbationRegion.linf([0, 0.5, 0], 1.0)
    inst = VerificationInstance(
        example1,
        region,
        ConstraintSet((), MultilinearPoly.constant(1)),
        "standard",
    )
    msdp = assemble_moment_sdp(inst, cliques=[])
    with pytest.raises(ValueError, match="nothing to export"):
        export_sdpa(msdp, "/dev/null")


def test_sdpa_rejects_duplicate_entries(tmp_path):
    path = tmp_path / "dup.dat-s"
    path.write_text("1\n1\n2\n1.0\n1 1 1 1 1.0\n1 1 1 1 2.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_sdpa(path)


def test_sdpa_reads_a_psd_entry_once_from_either_triangle(tmp_path):
    """A lower-triangle entry is its upper mirror, so the two halves of one
    symmetric element are a duplicate."""
    path = tmp_path / "lower.dat-s"
    path.write_text("1\n1\n2\n1.0\n1 1 2 1 2.0\n")
    assert read_sdpa(path).entries == {(1, 1, 1, 2): 2.0}
    path.write_text("1\n1\n2\n1.0\n1 1 1 2 1.0\n1 1 2 1 2.0\n")
    with pytest.raises(ValueError, match=r"duplicate entry \(1, 1, 1, 2\)"):
        read_sdpa(path)


@pytest.mark.parametrize(
    "body, match",
    [
        ("1\n5\n4 4 -2\n1.0\n1 1 1 1 1.0\n1 9 7 7 2.0\n", "5 blocks but 3 sizes"),
        ("1\n2\n2 -2\n1.0\n2 1 1 1 1.0\n", "outside the header's matrices"),
        ("1\n2\n2 -2\n1.0\n-1 1 1 1 1.0\n", "outside the header's matrices"),
        ("1\n2\n2 -2\n1.0\n1 3 1 1 1.0\n", "outside the header's matrices"),
        ("1\n2\n2 -2\n1.0\n1 0 1 1 1.0\n", "outside the header's matrices"),
        ("1\n2\n2 -2\n1.0\n1 1 3 1 1.0\n", "outside its block"),
        ("1\n2\n2 -2\n1.0\n1 2 1 3 1.0\n", "outside its block"),
        ("1\n2\n2 -2\n1.0\n1 1 0 1 1.0\n", "outside its block"),
        ("1\n2\n2 -2\n1.0\n1 2 1 2 1.0\n", "outside its block"),
    ],
    ids=["few-sizes", "matrix-high", "matrix-low", "block-high", "block-zero",
         "row-high", "col-high", "row-zero", "diagonal-block-off-diagonal"],
)
def test_sdpa_rejects_entries_the_header_does_not_declare(tmp_path, body, match):
    path = tmp_path / "bad.dat-s"
    path.write_text(body)
    with pytest.raises(ValueError, match=match):
        read_sdpa(path)
