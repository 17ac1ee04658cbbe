"""Factor algebra: frozen examples and algebraic properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitsel.factor import Factor, FactorError, Variable, multiply_all
from corpus import divide

# The two-node example tables: prior {u1: 0.2, u2: 0.8} and the joint
# obtained by multiplying with the conditional {0.6, 0.4, 0.3, 0.7}.
PRIOR = Factor((0,), (2,), [0.2, 0.8])
COND = Factor((0, 1), (2, 2), [0.6, 0.4, 0.3, 0.7])
JOINT = [0.2 * 0.6, 0.2 * 0.4, 0.8 * 0.3, 0.8 * 0.7]  # 0.12, 0.08, 0.24, 0.56


def test_variable_validation():
    with pytest.raises(FactorError):
        Variable(0, "X", 2, ("a",))
    with pytest.raises(FactorError):
        Variable(0, "X", 2, ("a", "a"))
    with pytest.raises(FactorError):
        Variable(-1, "X", 1, ("a",))


def test_factor_layout_last_variable_fastest():
    f = Factor((0, 1), (2, 3), range(6))
    assert f[{0: 0, 1: 2}] == 2.0
    assert f[{0: 1, 1: 0}] == 3.0
    assert list(f.flat) == list(range(6))


def test_lookup_refuses_bad_states():
    # A state of -1 once read the last state's cell, the cardinality raised a
    # raw IndexError and True read state 1.
    f = Factor((0, 1), (2, 3), range(6))
    for state in (-1, 3, True, 1.0):
        with pytest.raises(FactorError, match="out of range for variable 1"):
            f[{0: 0, 1: state}]
    assert f[{0: np.int64(1), 1: np.int64(2)}] == 5.0


def test_factor_structural_errors():
    with pytest.raises(FactorError):
        Factor((1, 0), (2, 2), [1, 2, 3, 4])  # unsorted scope
    with pytest.raises(FactorError):
        Factor((0,), (2,), [1, 2, 3])  # wrong length
    with pytest.raises(FactorError):
        Factor((0,), (2,), [1, -1])  # negative
    with pytest.raises(FactorError):
        Factor((0,), (2,), [1, float("nan")])


def test_multiply_prior_by_conditional():
    joint = multiply_all([PRIOR, COND])
    assert joint.vids == (0, 1)
    assert np.allclose(joint.flat, JOINT, rtol=1e-12)


def test_multiply_identity_and_absorbing():
    f = Factor((0, 1), (2, 2), JOINT)
    assert multiply_all([f, Factor((0, 1), (2, 2), np.ones(4))]).equal_table(f)
    zeros = Factor((0, 1), (2, 2), np.zeros(4))
    assert multiply_all([f, zeros]).equal_table(zeros)


def test_multiply_cardinality_clash():
    with pytest.raises(FactorError):
        multiply_all([Factor((0,), (2,), [1, 1]), Factor((0,), (3,), [1, 1, 1])])


def test_sum_out_marginal():
    joint = Factor((0, 1), (2, 2), JOINT)
    marg = joint.sum_out({0})
    assert marg.vids == (1,)
    assert np.allclose(marg.flat, [0.36, 0.64], rtol=1e-12)
    assert joint.sum_out(set()) is joint
    # full-scope sum of a normalized conditional row
    row = multiply_all([COND, Factor.indicator(0, 2, 0)]).sum_out({0, 1})
    assert row.vids == ()
    assert math.isclose(row.total(), 1.0, rel_tol=1e-12)


def test_sum_out_missing_variable():
    with pytest.raises(FactorError):
        PRIOR.sum_out({5})


def test_max_out_joint():
    joint = Factor((0, 1), (2, 2), JOINT)
    best, table = joint.max_out({0})
    assert best.vids == (1,)
    assert np.allclose(best.flat, [0.24, 0.56], rtol=1e-12)
    # maximizer is u2 (state 1) in both reduced cells
    assert table.lookup({1: 0}) == {0: 1}
    assert table.lookup({1: 1}) == {0: 1}


def test_max_out_empty_and_constant():
    f = Factor((0,), (2,), [0.5, 0.5])
    same, table = f.max_out(set())
    assert same is f and not table.elim_vids
    best, table = f.max_out({0})
    assert best.vids == () and best.total() == 0.5
    assert table.lookup({}) == {0: 0}  # tie broken toward the first state


def test_maximizer_reconstruction_exact():
    rng = np.random.default_rng(7)
    f = Factor((0, 1, 2), (2, 3, 2), rng.uniform(size=12))
    best, table = f.max_out({0, 2})
    for b in range(3):
        fixed = {1: b}
        arg = table.lookup(fixed)
        assert f[{**fixed, **arg}] == best[fixed]


def test_divide_examples():
    f = Factor((0,), (2,), [0.12, 0.24])
    g = Factor((0,), (2,), [0.2, 0.8])
    q = divide(f, g)
    assert np.allclose(q.flat, [0.6, 0.3], rtol=1e-12)
    h = Factor((0,), (2,), [0.3, 0.4])
    assert divide(h, h).allclose(Factor((0,), (2,), np.ones(2)), rtol=1e-12)
    zero = Factor((0,), (1,), [0.0])
    assert divide(zero, zero).flat[0] == 0.0


def test_divide_errors():
    with pytest.raises(FactorError):
        divide(Factor((0,), (2,), [1, 1]), Factor((1,), (2,), [1, 1]))
    with pytest.raises(FactorError):
        divide(Factor((0,), (2,), [1, 1]), Factor((0,), (2,), [1, 0]))


def test_indicator_product_zeroing():
    # Evidence enters a product as 0/1 indicators: entries that disagree
    # with it become 0, the scope stays the same, and no indicator leaves the
    # table as it was.
    joint = Factor((0, 1), (2, 2), JOINT)
    red = multiply_all([joint, Factor.indicator(1, 2, 0)])
    assert red.vids == (0, 1)
    assert np.allclose(red.flat, [0.12, 0.0, 0.24, 0.0], rtol=1e-12)
    assert multiply_all([joint]).equal_table(joint)
    zeros = Factor((0, 1), (2, 2), np.zeros(4))
    assert multiply_all([zeros, Factor.indicator(0, 2, 1)]).equal_table(zeros)


def test_operation_results_are_read_only():
    f = Factor((0, 1), (2, 2), JOINT)
    g = Factor((1,), (2,), [0.0, 5.0])
    results = [
        multiply_all([f, g]), multiply_all([Factor.scalar(2.0), Factor.scalar(3.0)]),
        f.sum_out({0}), f.sum_out({0, 1}), f.max_out({1})[0], f.max_out({0, 1})[0],
        divide(f, f), multiply_all([f, Factor.indicator(1, 2, 0)]), f.scale(2.0),
        Factor.scalar(2.0).scale(3.0),
    ]
    for r in results:
        assert isinstance(r.values, np.ndarray) and r.values.shape == r.cards
        with pytest.raises(ValueError):
            r.values[...] = 0.0


def test_indicator():
    lam = Factor.indicator(3, 2, 1)
    assert lam.vids == (3,) and list(lam.flat) == [0.0, 1.0]
    for state in (5, -1, True):
        with pytest.raises(FactorError):
            Factor.indicator(3, 2, state)


# -- properties (dyadic values keep float products exact) ---------------------

CARDS = {0: 2, 1: 3, 2: 2, 3: 2}


@st.composite
def factors(draw, max_vars=3):
    vids = tuple(
        sorted(
            draw(
                st.lists(
                    st.sampled_from(sorted(CARDS)), unique=True, max_size=max_vars
                )
            )
        )
    )
    cards = tuple(CARDS[v] for v in vids)
    n = math.prod(cards)
    vals = draw(st.lists(st.integers(0, 31), min_size=n, max_size=n))
    return Factor(vids, cards, np.asarray(vals, dtype=float) / 32.0)


@settings(max_examples=60, deadline=None)
@given(factors(), factors())
def test_multiply_commutative(f, g):
    assert multiply_all([f, g]).equal_table(multiply_all([g, f]))


@settings(max_examples=60, deadline=None)
@given(factors(max_vars=2), factors(max_vars=2), factors(max_vars=2))
def test_multiply_associative(f, g, h):
    left = multiply_all([multiply_all([f, g]), h])
    right = multiply_all([f, multiply_all([g, h])])
    assert left.equal_table(right)


@settings(max_examples=60, deadline=None)
@given(factors(), factors())
def test_sum_out_distributes_over_disjoint_products(f, g):
    outside = [v for v in f.vids if v not in g.vids]
    if not outside:
        return
    v = {outside[0]}
    lhs = multiply_all([f, g]).sum_out(v)
    rhs = multiply_all([f.sum_out(v), g])
    assert lhs.equal_table(rhs)


@settings(max_examples=60, deadline=None)
@given(factors(), factors())
def test_max_out_distributes_over_disjoint_products(f, g):
    outside = [v for v in f.vids if v not in g.vids]
    if not outside:
        return
    v = {outside[0]}
    lhs, _ = multiply_all([f, g]).max_out(v)
    rhs = multiply_all([f.max_out(v)[0], g])
    assert lhs.equal_table(rhs)


@settings(max_examples=60, deadline=None)
@given(factors())
def test_divide_multiply_roundtrip(f):
    g = Factor(f.vids, f.cards, np.full(f.cards, 0.75))
    back = multiply_all([divide(f, g), g])
    assert np.allclose(back.values, f.values, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(factors())
def test_max_out_reconstruction_property(f):
    if not f.vids:
        return
    best, table = f.max_out(set(f.vids))
    arg = table.lookup({})
    assert f[arg] == best.total()


# -- kernels against the numpy reductions they replaced -----------------------


def _old_sum_out(f, vids):
    axes = tuple(i for i, v in enumerate(f.vids) if v in vids)
    kept = tuple(c for v, c in zip(f.vids, f.cards) if v not in vids)
    return f.values.sum(axis=axes, keepdims=True).reshape(kept)


def _old_max_out(f, vids):
    elim = tuple(i for i, v in enumerate(f.vids) if v in vids)
    kept = tuple(i for i, v in enumerate(f.vids) if v not in vids)
    kept_cards = tuple(f.cards[i] for i in kept)
    flat = f.values.transpose(elim + kept).reshape((-1,) + kept_cards)
    arg = flat.argmax(axis=0)
    best = np.take_along_axis(flat, arg[np.newaxis, ...], axis=0).reshape(kept_cards)
    return best, arg


@st.composite
def kernel_cases(draw):
    """A table over 0-4 variables of 1-9 states, as float64 (random or with
    many ties), int64 or object (Python integers beyond 2^63), and a subset
    of its scope to eliminate."""
    cards = tuple(draw(st.lists(st.integers(1, 9), max_size=4)))
    while math.prod(cards) > 2000:
        cards = cards[:-1]
    vids = tuple(sorted(draw(st.lists(st.integers(0, 20), min_size=len(cards),
                                      max_size=len(cards), unique=True))))
    n = math.prod(cards)
    kind = draw(st.sampled_from(["float", "ties", "int64", "object"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "float":
        values = rng.random(n)
    elif kind == "ties":
        values = rng.integers(0, 3, size=n) / 4.0
    elif kind == "int64":
        values = rng.integers(0, 2**40, size=n)
    else:
        values = np.array([2**70 + int(x) for x in rng.integers(0, 3, size=n)], dtype=object)
    f = Factor._trusted(vids, cards, values.reshape(cards))
    elim = set(draw(st.lists(st.sampled_from(vids), unique=True))) if vids else set()
    return f, elim, kind


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_kernels_match_numpy_reductions(case):
    f, elim, kind = case
    kept = tuple(v for v in f.vids if v not in elim)
    summed = f.sum_out(elim)
    best, table = f.max_out(elim)
    assert summed.vids == best.vids == table.kept_vids == kept
    assert summed.values.dtype == best.values.dtype == f.values.dtype
    if not elim:
        assert summed is f and best is f and not table.flat_argmax.any()
        return
    old_sum = _old_sum_out(f, elim)
    assert summed.values.shape == old_sum.shape
    # Sums of integers, and of quarters, are exact in any order. A float sum
    # over one variable with fewer than 8 states adds in the same order as
    # numpy; otherwise numpy may add pairwise, which bounds the difference by
    # twice the summation error of its addends.
    addends = math.prod(f.cards) // math.prod(summed.cards)
    if kind != "float" or (len(elim) == 1 and addends < 8):
        assert np.array_equal(summed.values, old_sum)
    else:
        rtol = 2 * addends * np.finfo(np.float64).eps
        assert np.allclose(summed.values, old_sum, rtol=rtol, atol=0.0)
    old_best, old_arg = _old_max_out(f, elim)
    assert np.array_equal(best.values, old_best)
    assert np.array_equal(table.flat_argmax, old_arg)
    assert table.flat_argmax.shape == summed.cards


def test_sum_over_many_variables_adds_in_a_tree():
    # Summing 16 binary variables out one at a time adds in a tree of depth
    # 16, so the error stays within 16 roundings; adding the 2^16 joint
    # states one after another could drift about sqrt(2^16) roundings off.
    values = np.random.default_rng(7).random((2,) * 16)
    f = Factor(range(16), (2,) * 16, values)
    exact = math.fsum(values.ravel())
    assert abs(f.sum_out(range(16)).total() - exact) <= 16 * np.finfo(float).eps * exact
    half = f.sum_out(range(1, 16)).values
    assert np.allclose(half, [math.fsum(values[s].ravel()) for s in (0, 1)],
                       rtol=15 * np.finfo(float).eps, atol=0.0)
