"""Exact multilinear polynomial arithmetic and the x^2 = 1 reduction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bnncert import (
    MomentIndex,
    MultilinearPoly,
    Var,
    build_cliques,
    encode_lp,
    encode_milp,
    encode_standard,
    encode_tightened,
    objective_targeted,
)

from conftest import make_example1, random_net, random_region


X11 = Var(1, 1)
X12 = Var(1, 2)
X21 = Var(2, 1)
X01 = Var(0, 1)


def test_difference_of_squares_vanishes():
    x = MultilinearPoly.variable(X11)
    prod = (x + 1) * (x - 1)
    assert not prod.is_zero()  # x^2 - 1 before reduction
    assert prod.reduce_binary_squares().is_zero()
    assert prod.identity_zero()


def test_additive_inverse():
    p = MultilinearPoly.linear({X11: 2, X12: -3}, Fraction(1, 2))
    assert (p + (-1) * p).is_zero()
    assert (p - p).is_zero()


def test_square_of_shifted_variable():
    x = MultilinearPoly.variable(X11)
    sq = ((x + 1) * (x + 1)).reduce_binary_squares()
    assert sq == MultilinearPoly.linear({X11: 2}, 2)


def test_reduction_rules():
    assert MultilinearPoly({((X11, 2),): 1, (): -1}).identity_zero()
    # input-layer squares are not touched
    input_sq = MultilinearPoly({((X01, 2),): 1})
    assert input_sq.reduce_binary_squares() == input_sq
    # odd/even exponent parity on binaries
    p = MultilinearPoly({((X11, 3), (X21, 2)): 1})
    assert p.reduce_binary_squares() == MultilinearPoly.variable(X11)


def test_evaluate_example1_objective_at_trace():
    net = make_example1()
    f = objective_targeted(net, true_label=2, target=1)
    assert f == MultilinearPoly.linear({Var(2, 2): -2}, -1 + 2)
    assert f.evaluate({Var(2, 1): -1, Var(2, 2): -1}) == 3


def test_evaluate_basics():
    assert MultilinearPoly.zero().evaluate({}) == 0
    p = MultilinearPoly({((X01, 1), (X11, 1)): 1})
    assert p.evaluate({X01: 0.5, X11: -1}) == -0.5


def test_single_variable_is_not_identity_zero():
    assert not MultilinearPoly.variable(X11).identity_zero()


def test_constant_term_and_degree():
    p = MultilinearPoly({(): Fraction(3, 4), ((X01, 2),): 1, ((X11, 1), (X12, 1)): -2})
    assert p.constant_term() == Fraction(3, 4)
    assert p.degree == 2
    assert p.coefficient([(X11, 1), (X12, 1)]) == -2


def test_to_exact_reproduces_float_coefficients():
    p = MultilinearPoly.linear({X11: 0.1, X12: -2.5}, 0.75)
    assert p.coefficient([(X11, 1)]) == Fraction(0.1)  # the binary64 value
    assert p.coefficient([(X12, 1)]) == Fraction(-5, 2)
    assert p.constant_term() == Fraction(3, 4)


def test_float_coefficients_are_stored_exactly():
    p = MultilinearPoly.linear({X11: 0.1}, 0.75)
    assert p.terms == {((X11, 1),): Fraction(0.1), (): Fraction(3, 4)}
    assert all(type(c) is Fraction for c in p.terms.values())
    # a float scale factor is made exact before it multiplies
    assert p.scale(0.1).coefficient([(X11, 1)]) == Fraction(0.1) ** 2
    assert (p + 0.1).constant_term() == Fraction(3, 4) + Fraction(0.1)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="not finite"):
            MultilinearPoly.constant(bad)
        with pytest.raises(ValueError, match="not finite"):
            p.scale(bad)


coeffs = st.integers(-4, 4)


def small_polys():
    monos = st.lists(
        st.sampled_from([(), ((X11, 1),), ((X12, 1),), ((X11, 1), (X12, 1)), ((X01, 1),)]),
        max_size=4,
    )
    return monos.flatmap(
        lambda ms: st.tuples(*[coeffs for _ in ms]).map(
            lambda cs: MultilinearPoly(dict(zip(ms, cs)))
        )
    )


@given(small_polys(), small_polys(), small_polys())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_polys())
def test_reduction_is_idempotent(p):
    r = p.reduce_binary_squares()
    assert r.reduce_binary_squares() == r


@given(small_polys(), small_polys(), st.booleans(), st.booleans(), st.floats(-1, 1))
def test_evaluation_is_a_homomorphism(a, b, s1, s2, x0val):
    point = {X11: 1 if s1 else -1, X12: 1 if s2 else -1, X01: x0val}
    lhs = (a * b).evaluate(point)
    rhs = a.evaluate(point) * b.evaluate(point)
    assert abs(lhs - rhs) < 1e-9
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


@given(small_polys(), st.booleans(), st.booleans(), st.floats(-1, 1))
def test_reduction_preserves_values_on_the_cube(p, s1, s2, x0val):
    """x^2 = 1 substitution is sound exactly on +-1 assignments."""
    point = {X11: 1 if s1 else -1, X12: 1 if s2 else -1, X01: x0val}
    assert abs(p.evaluate(point) - p.reduce_binary_squares().evaluate(point)) < 1e-9


# -- normal form --------------------------------------------------------------


def assert_normal(p):
    """Sorted monomials with distinct variables and exponents >= 1, exact
    nonzero coefficients, and nothing left for the constructor to merge."""
    rebuilt = MultilinearPoly(dict(reversed(list(p.terms.items()))))
    assert rebuilt.terms == p.terms
    for mono, coeff in p.terms.items():
        assert coeff != 0 and not isinstance(coeff, float)
        variables = [v for v, _ in mono]
        assert variables == sorted(set(variables))
        assert all(e >= 1 for _, e in mono)


def test_constructor_merges_a_repeated_variable(example1):
    p = MultilinearPoly({((X11, 1), (X11, 1)): 1})
    assert p == MultilinearPoly({((X11, 2),): 1})
    assert (p - 1).identity_zero()  # x11^2 = 1
    assert p.reduce_binary_squares() == MultilinearPoly.constant(1)
    index = MomentIndex(build_cliques(example1), ())
    (mono,) = p.terms
    assert index.resolve(mono) is None  # a binary square, not a pair
    assert index.linearize(p) == (1, {})
    # an input variable keeps its summed exponent; a zero exponent drops
    q = MultilinearPoly({((X11, 1), (X01, 1), (X01, 1)): 2, ((X12, 0), (X01, 2)): 1})
    assert q.terms == {((X01, 2), (X11, 1)): 2, ((X01, 2),): 1}
    with pytest.raises(ValueError, match="negative exponent"):
        MultilinearPoly({((X11, 1), (X11, -2)): 1})


# monomials as the constructor may receive them: unsorted, a variable repeated
raw_monomials = st.lists(
    st.tuples(st.sampled_from([X01, Var(0, 2), X11, X12, X21]), st.integers(1, 2)),
    max_size=3,
).map(tuple)
scalars = st.one_of(
    st.integers(-3, 3),
    st.fractions(-2, 2, max_denominator=8),
    st.floats(-2, 2, allow_nan=False),
)
raw_polys = st.lists(st.tuples(raw_monomials, scalars), max_size=5).map(
    lambda terms: MultilinearPoly(dict(terms))
)


@given(raw_polys, raw_polys, scalars)
def test_ring_operations_return_normal_form(a, b, c):
    x = MultilinearPoly.variable(X11)
    results = [
        a, a + b, a - b, b - a, -a, a * b, a * a, a.scale(c), c * a,
        a + c, c + a, a - c, c - a, a - a, a + (-a), (x + 1) * (x - 1),
        a.reduce_binary_squares(), (a * b).reduce_binary_squares(),
    ]
    for p in results:
        assert_normal(p)
    assert (a - a).is_zero() and (a + (-a)).is_zero()
    # the merged product agrees with the constructor's normalization of the
    # concatenated monomials
    naive = MultilinearPoly.zero()
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            naive = naive + MultilinearPoly({ma + mb: ca * cb})
    assert a * b == naive


@pytest.mark.parametrize("kind", ["linf", "l2"])
def test_encoder_rows_are_in_normal_form(kind):
    rng = np.random.default_rng(10)
    net = random_net(rng, (10, 8, 8, 3))
    region = random_region(rng, 10, kind)
    objective = objective_targeted(net, 1, 2)
    for encode in (encode_standard, encode_tightened, encode_lp, encode_milp):
        inst = encode(net, region, objective)
        assert_normal(inst.objective)
        for con in inst.constraints.inequalities:
            assert_normal(con.poly)
