"""Factor algebra: frozen examples and algebraic properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitsel import make_scm
from unitsel.factor import (Factor, FactorError, MaximizerTable, Variable, max_axis,
                            multiply_all, restrict, sum_axis)
from unitsel.inference import TaggedFactor, eliminate
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
    # Each of these once built a variable that a saved model could not load.
    for name, states in ((1, ("0", "1")), ("X", (0, 1)), ("X", ("0", b"1"))):
        with pytest.raises(FactorError, match="name and state names must be strings$"):
            Variable(0, name, 2, states)


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
    with pytest.raises(FactorError, match="^instantiation missing variable 1$"):
        f[{0: 0}]


def test_factor_structural_errors():
    with pytest.raises(FactorError):
        Factor((1, 0), (2, 2), [1, 2, 3, 4])  # unsorted scope
    with pytest.raises(FactorError):
        Factor((0,), (2,), [1, 2, 3])  # wrong length
    with pytest.raises(FactorError):
        Factor((0,), (2,), [1, -1])  # negative
    with pytest.raises(FactorError):
        Factor((0,), (2,), [1, float("nan")])
    with pytest.raises(FactorError, match="^one cardinality >= 1 required per scope variable$"):
        Factor((0,), (0,), [])


@pytest.mark.parametrize("vid", [1.7, "1", True, -1, np.float64(1)])
def test_factor_refuses_a_scope_id_that_is_not_an_int(vid):
    # Each of these was once coerced to an id (-1 kept as it was).
    with pytest.raises(FactorError, match="^scope must be strictly ascending int ids >= 0"):
        Factor((vid,), (2,), [0.5, 0.5])


@pytest.mark.parametrize("card", [2.7, True, "2", 0, -1])
def test_factor_refuses_a_cardinality_that_is_not_an_int(card):
    # 2.7 was once read as 2 and True as 1.
    with pytest.raises(FactorError, match="^one cardinality >= 1 required per scope variable$"):
        Factor((0,), (card,), [1.0, 1.0])


def test_factor_keeps_numpy_int_ids_and_cardinalities():
    f = Factor(np.array([0, 3]), np.array([2, 1]), [1.0, 2.0])
    assert (f.vids, f.cards) == ((0, 3), (2, 1))
    assert all(type(x) is int for x in (*f.vids, *f.cards))


def test_multiply_prior_by_conditional():
    joint = multiply_all([PRIOR, COND])
    assert joint.vids == (0, 1)
    assert np.allclose(joint.flat, JOINT, rtol=1e-12)


def test_multiply_identity_and_absorbing():
    f = Factor((0, 1), (2, 2), JOINT)
    one = multiply_all([f, Factor((0, 1), (2, 2), np.ones(4))])
    assert (one.vids, one.cards, one.values.tolist()) == (f.vids, f.cards, f.values.tolist())
    zeros = Factor((0, 1), (2, 2), np.zeros(4))
    zero = multiply_all([f, zeros])
    assert (zero.vids, zero.cards, zero.values.tolist()) == (zeros.vids, zeros.cards, zeros.values.tolist())


def test_multiply_cardinality_clash():
    with pytest.raises(FactorError):
        multiply_all([Factor((0,), (2,), [1, 1]), Factor((0,), (3,), [1, 1, 1])])


def test_restrict_slices_the_mentioned_variables():
    f = Factor((1, 4, 7), (2, 3, 2), range(12))
    sliced = restrict(f, {4: 2, 9: 0})
    assert (sliced.vids, sliced.cards) == ((1, 7), (2, 2))
    assert sliced.values.tolist() == f.values[:, 2, :].tolist()
    assert sliced.values.flags.c_contiguous and not sliced.values.flags.writeable
    assert restrict(f, {0: 1, 9: 0}) is f  # mentions none of them
    point = restrict(f, {1: 1, 4: 0, 7: 1})
    assert (point.vids, point.values.shape, float(point.values)) == ((), (), 7.0)
    assert f.values.tolist() == np.arange(12.0).reshape(2, 3, 2).tolist()


def _sum_steps(f, elim):
    """Sum ``elim`` out of ``f`` with ``sum_axis``, one variable at a time in
    ascending id order; returns the table and its scope."""
    table, kept = f.values, f.vids
    for vid in sorted(elim):
        axis = kept.index(vid)
        table, kept = sum_axis(table, axis), kept[:axis] + kept[axis + 1:]
    return table, kept


def _max_steps(f, elim):
    """Maximize ``elim`` out of ``f`` with ``max_axis``, one variable at a
    time in descending id order, as the max steps of a query do; returns the
    table, its scope and one maximizer table per step."""
    table, kept, steps = f.values, f.vids, []
    for vid in sorted(elim, reverse=True):
        axis = kept.index(vid)
        table, arg = max_axis(table, axis)
        kept = kept[:axis] + kept[axis + 1:]
        steps.append(MaximizerTable(kept, vid, arg))
    return table, kept, steps


def _recover(steps, fixed):
    """The maximizing states of the stepped variables, recovered in reverse
    under the kept cell ``fixed``."""
    fixed = dict(fixed)
    for step in reversed(steps):
        fixed.update(step.lookup(fixed))
    return fixed


def test_sum_axis_marginal():
    joint = Factor((0, 1), (2, 2), JOINT)
    marg = sum_axis(joint.values, 0)
    assert marg.shape == (2,)
    assert np.allclose(marg, [0.36, 0.64], rtol=1e-12)
    # full-scope sum of a normalized conditional row
    row, kept = _sum_steps(multiply_all([COND, Factor.indicator(0, 2, 0)]), {0, 1})
    assert kept == () and row.shape == ()
    assert math.isclose(float(row), 1.0, rel_tol=1e-12)


def test_max_axis_joint():
    joint = Factor((0, 1), (2, 2), JOINT)
    best, arg = max_axis(joint.values, 0)
    assert np.allclose(best, [0.24, 0.56], rtol=1e-12)
    # maximizer is u2 (state 1) in both reduced cells
    table = MaximizerTable((1,), 0, arg)
    assert table.lookup({1: 0}) == {0: 1}
    assert table.lookup({1: 1}) == {0: 1}
    with pytest.raises(FactorError, match="maximizer lookup missing variable 1"):
        table.lookup({0: 0})


def test_max_axis_constant():
    best, arg = max_axis(np.array([0.5, 0.5]), 0)
    assert best.shape == () and best == 0.5
    # tie broken toward the first state
    assert MaximizerTable((), 0, arg).lookup({}) == {0: 0}


def test_maximizer_reconstruction_exact():
    rng = np.random.default_rng(7)
    f = Factor((0, 1, 2), (2, 3, 2), rng.uniform(size=12))
    best, kept, steps = _max_steps(f, {0, 2})
    assert kept == (1,)
    for b in range(3):
        arg = _recover(steps, {1: b})
        assert set(arg) == {0, 1, 2}
        assert f[arg] == best[b]


def test_divide_examples():
    f = Factor((0,), (2,), [0.12, 0.24])
    g = Factor((0,), (2,), [0.2, 0.8])
    q = divide(f, g)
    assert np.allclose(q.flat, [0.6, 0.3], rtol=1e-12)
    h = Factor((0,), (2,), [0.3, 0.4])
    q = divide(h, h)
    assert (q.vids, q.cards) == ((0,), (2,)) and np.allclose(q.values, np.ones(2), rtol=1e-12, atol=0.0)
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
    same = multiply_all([joint])
    assert (same.vids, same.cards, same.values.tolist()) == (joint.vids, joint.cards, joint.values.tolist())
    zeros = Factor((0, 1), (2, 2), np.zeros(4))
    zero = multiply_all([zeros, Factor.indicator(0, 2, 1)])
    assert (zero.vids, zero.cards, zero.values.tolist()) == (zeros.vids, zeros.cards, zeros.values.tolist())


def test_operation_results_are_read_only():
    f = Factor((0, 1), (2, 2), JOINT)
    g = Factor((1,), (2,), [0.0, 5.0])
    results = [
        multiply_all([f, g]), multiply_all([Factor.scalar(2.0), Factor.scalar(3.0)]),
        divide(f, f), multiply_all([f, Factor.indicator(1, 2, 0)]), f.scale(2.0),
        Factor.scalar(2.0).scale(3.0),
    ]
    # The factors that sum and max steps create.
    scm = make_scm([("A", ["0", "1"]), ("B", ["0", "1"])], {"A": [], "B": []},
                   {"A": [0.5, 0.5], "B": [0.5, 0.5]})
    pool = [TaggedFactor(("cpt", 0), f), TaggedFactor(("cpt", 1), g)]
    for op in ("sum", "max"):
        results += [tf.factor for tf in eliminate(op, pool, [1], scm)[0]]
        results += [tf.factor for tf in eliminate(op, pool, [1, 0], scm)[0]]
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


def test_indicator_refuses_a_bad_id_or_cardinality():
    # It once built a trusted factor on the id 1.5, -1, True or "a", and a
    # cardinality of 2.0 or True raised a raw TypeError from numpy.
    for vid in (1.5, -1, True, "a"):
        with pytest.raises(FactorError, match="^scope must be strictly ascending int ids >= 0"):
            Factor.indicator(vid, 2, 0)
    for card in (2.0, True):
        with pytest.raises(FactorError, match="^one cardinality >= 1 required per scope variable$"):
            Factor.indicator(0, card, 0)


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
    fg, gf = multiply_all([f, g]), multiply_all([g, f])
    assert (fg.vids, fg.cards, fg.values.tolist()) == (gf.vids, gf.cards, gf.values.tolist())


@settings(max_examples=60, deadline=None)
@given(factors(max_vars=2), factors(max_vars=2), factors(max_vars=2))
def test_multiply_associative(f, g, h):
    left = multiply_all([multiply_all([f, g]), h])
    right = multiply_all([f, multiply_all([g, h])])
    assert (left.vids, left.cards, left.values.tolist()) == (right.vids, right.cards, right.values.tolist())


def _as_factor(table, kept):
    return Factor._trusted(kept, table.shape, table)


@settings(max_examples=60, deadline=None)
@given(factors(), factors())
def test_sum_axis_distributes_over_disjoint_products(f, g):
    outside = [v for v in f.vids if v not in g.vids]
    if not outside:
        return
    v = {outside[0]}
    lhs = _as_factor(*_sum_steps(multiply_all([f, g]), v))
    rhs = multiply_all([_as_factor(*_sum_steps(f, v)), g])
    assert (lhs.vids, lhs.cards, lhs.values.tolist()) == (rhs.vids, rhs.cards, rhs.values.tolist())


@settings(max_examples=60, deadline=None)
@given(factors(), factors())
def test_max_axis_distributes_over_disjoint_products(f, g):
    outside = [v for v in f.vids if v not in g.vids]
    if not outside:
        return
    v = {outside[0]}
    lhs = _as_factor(*_max_steps(multiply_all([f, g]), v)[:2])
    rhs = multiply_all([_as_factor(*_max_steps(f, v)[:2]), g])
    assert (lhs.vids, lhs.cards, lhs.values.tolist()) == (rhs.vids, rhs.cards, rhs.values.tolist())


@settings(max_examples=60, deadline=None)
@given(factors())
def test_divide_multiply_roundtrip(f):
    g = Factor(f.vids, f.cards, np.full(f.cards, 0.75))
    back = multiply_all([divide(f, g), g])
    assert np.allclose(back.values, f.values, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(factors())
def test_maximizer_reconstruction_property(f):
    if not f.vids:
        return
    best, kept, steps = _max_steps(f, f.vids)
    assert kept == ()
    assert f[_recover(steps, {})] == float(best)


# -- kernels against numpy's reductions -------------------------------------------


def _numpy_sum(f, vids):
    axes = tuple(i for i, v in enumerate(f.vids) if v in vids)
    kept = tuple(c for v, c in zip(f.vids, f.cards) if v not in vids)
    return f.values.sum(axis=axes, keepdims=True).reshape(kept)


def _numpy_joint_max(f, vids):
    """The maximum over the joint states of ``vids`` and, per kept cell, the
    C-order index of the first joint state that reaches it."""
    elim = tuple(i for i, v in enumerate(f.vids) if v in vids)
    kept = tuple(i for i, v in enumerate(f.vids) if v not in vids)
    kept_cards = tuple(f.cards[i] for i in kept)
    flat = f.values.transpose(elim + kept).reshape((-1,) + kept_cards)
    arg = flat.argmax(axis=0)
    best = np.take_along_axis(flat, arg[np.newaxis, ...], axis=0).reshape(kept_cards)
    return best, arg


@st.composite
def kernel_cases(draw):
    """A table over 1-4 variables of 1-9 states, as float64 (random or with
    many ties), int64 or object (Python integers beyond 2^63), and a
    non-empty subset of its scope to eliminate."""
    cards = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)))
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
    elim = set(draw(st.lists(st.sampled_from(vids), min_size=1, unique=True)))
    return f, elim, kind


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_kernels_match_numpy_reductions(case):
    f, elim, kind = case
    kept = tuple(v for v in f.vids if v not in elim)
    kept_cards = tuple(c for v, c in zip(f.vids, f.cards) if v not in elim)
    summed, sum_kept = _sum_steps(f, elim)
    best, max_kept, steps = _max_steps(f, elim)
    assert sum_kept == max_kept == kept
    assert summed.shape == best.shape == kept_cards
    assert summed.dtype == best.dtype == f.values.dtype
    old_sum = _numpy_sum(f, elim)
    # Sums of integers, and of quarters, are exact in any order. A float sum
    # over one variable with fewer than 8 states adds in the same order as
    # numpy; otherwise numpy may add pairwise, which bounds the difference by
    # twice the summation error of its addends.
    addends = math.prod(f.cards) // math.prod(kept_cards)
    if kind != "float" or (len(elim) == 1 and addends < 8):
        assert np.array_equal(summed, old_sum)
    else:
        rtol = 2 * addends * np.finfo(np.float64).eps
        assert np.allclose(summed, old_sum, rtol=rtol, atol=0.0)
    old_best, old_arg = _numpy_joint_max(f, elim)
    assert np.array_equal(best, old_best)
    # Max steps in descending id order, recovered in reverse, give every
    # kept cell the first maximizing joint state in C order.
    states = dict(zip(kept, np.indices(kept_cards)))
    for step in reversed(steps):
        assert step.argmax.shape == tuple(c for v, c in zip(f.vids, f.cards)
                                          if v in step.kept_vids)
        states[step.vid] = step.argmax[tuple(states[v] for v in step.kept_vids)]
    grid = tuple(c for v, c in zip(f.vids, f.cards) if v in elim)
    for vid, want in zip(sorted(elim), np.unravel_index(old_arg, grid)):
        assert np.array_equal(np.broadcast_to(states[vid], kept_cards), want)


def test_sum_over_many_variables_adds_in_a_tree():
    # Summing 16 binary variables out one at a time adds in a tree of depth
    # 16, so the error stays within 16 roundings; adding the 2^16 joint
    # states one after another could drift about sqrt(2^16) roundings off.
    values = np.random.default_rng(7).random((2,) * 16)
    f = Factor(range(16), (2,) * 16, values)
    exact = math.fsum(values.ravel())
    assert abs(float(_sum_steps(f, range(16))[0]) - exact) <= 16 * np.finfo(float).eps * exact
    half = _sum_steps(f, range(1, 16))[0]
    assert np.allclose(half, [math.fsum(values[s].ravel()) for s in (0, 1)],
                       rtol=15 * np.finfo(float).eps, atol=0.0)
