"""Tape engine: forward semantics, backward rules vs finite differences."""

import gc
import weakref

import numpy as np
import pytest

from cmpr import autodiff as ad
from cmpr import model
from cmpr.errors import (
    ContractError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    NonFiniteError,
)

from oracles import (
    assert_grads_close,
    gelu_tanh_elementwise,
    layer_norm_rows,
    matmul_triple_loop,
    sum_all,
)


def fd_check(build, params, seeds_note="", rtol=1e-5, atol=1e-8):
    """Compare tape gradients against central finite differences.

    ``build`` maps a dict of numpy parameter arrays to a scalar loss; it is
    evaluated once on a tape for the analytic gradients and many times
    without caring about the tape for the numeric ones.
    """
    tape = ad.Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    loss = build(tape, leaves)
    grads = ad.backward(tape, loss)
    analytic = {k: grads.of(t) for k, t in leaves.items()}

    def f(p):
        t2 = ad.Tape()
        l2 = {k: t2.leaf(v, name=k) for k, v in p.items()}
        return build(t2, l2).item()

    numeric = ad.finite_difference_gradient(f, params, h=1e-5, adaptive=True)
    assert_grads_close(analytic, numeric, rtol=rtol, atol=atol)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity_left():
    tape = ad.Tape()
    x = np.arange(9, dtype=np.float64).reshape(3, 3) + 1
    out = ad.matmul(tape.leaf(np.eye(3)), tape.leaf(x))
    np.testing.assert_array_equal(out.value, x)


def test_matmul_identity_right():
    tape = ad.Tape()
    a = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(a, tape.leaf(np.eye(2)))
    np.testing.assert_array_equal(out.value, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_seeded_against_triple_loop():
    # frozen from the triple-loop oracle at seed 0
    expected = np.array(
        [
            [-0.4762915183133247, -0.13333842997140616],
            [0.2266989786943097, 0.2549293512915272],
            [-3.828804551314534, -0.7562292460745491],
            [3.6961963036042618, 0.7201957974329364],
        ]
    )
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 2))
    np.testing.assert_allclose(matmul_triple_loop(a, b), expected, rtol=0, atol=1e-15)
    tape = ad.Tape()
    out = ad.matmul(tape.leaf(a), tape.leaf(b))
    np.testing.assert_allclose(out.value, expected, rtol=0, atol=1e-15)


def test_matmul_shape_mismatch():
    # inner dims, then a batch mismatch and mixed 2-D/3-D operands
    cases = [((2, 3), (2, 3)), ((2, 3, 4), (3, 4, 5)), ((2, 3, 4), (4, 5)),
             ((3, 4), (2, 4, 5))]
    tape = ad.Tape()
    for a_shape, b_shape in cases:
        with pytest.raises(DimensionError, match="matmul"):
            ad.matmul(tape.leaf(np.ones(a_shape)), tape.leaf(np.ones(b_shape)))


def test_matmul_associativity():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 6))
        c = rng.standard_normal((6, 3))
        tape = ad.Tape()
        ta, tb, tc = tape.leaf(a), tape.leaf(b), tape.leaf(c)
        left = ad.matmul(ad.matmul(ta, tb), tc).value
        right = ad.matmul(ta, ad.matmul(tb, tc)).value
        np.testing.assert_allclose(left, right, rtol=1e-9)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------


def _fused_and_split(x, ws, bs, r):
    """Value and x, w, b gradients of a sum of linear layers that all read
    x, once through ``linear`` and once through ``add_bias(matmul)``."""
    results = []
    for layer in (ad.linear, lambda xt, w, b: ad.add_bias(ad.matmul(xt, w), b)):
        tape = ad.Tape()
        xt = tape.leaf(x)
        wt = [tape.leaf(w) for w in ws]
        bt = [tape.leaf(b) for b in bs]
        outs = [layer(xt, w, b) for w, b in zip(wt, bt)]
        loss = sum_all(ad.mul(outs[0], tape.leaf(r)))
        for out in outs[1:]:
            loss = ad.add(loss, sum_all(ad.mul(out, out)))
        grads = ad.backward(tape, loss)
        results.append((
            [o.value for o in outs],
            grads.of(xt),
            [grads.of(w) for w in wt],
            [grads.of(b) for b in bt],
        ))
    return results


@pytest.mark.parametrize("n_layers", [1, 3], ids=["one", "qkv"])
def test_linear_is_bitwise_matmul_then_add_bias(n_layers):
    # three layers on one input, as q/k/v are, fix the order in which
    # backward accumulates the x gradient
    rng = np.random.default_rng(21)
    x = rng.standard_normal((7, 5))
    ws = [rng.standard_normal((5, 4)) for _ in range(n_layers)]
    bs = [rng.standard_normal(4) for _ in range(n_layers)]
    r = rng.standard_normal((7, 4))
    (out_f, gx_f, gw_f, gb_f), (out_s, gx_s, gw_s, gb_s) = _fused_and_split(
        x, ws, bs, r
    )
    for got, want in zip(out_f + [gx_f] + gw_f + gb_f, out_s + [gx_s] + gw_s + gb_s):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "x_shape, w_shape, b_shape",
    [((2, 3, 4), (4, 5), (5,)), ((2, 3), (4, 5), (5,)), ((2, 4), (4, 5), (4,)),
     ((2, 4), (4, 5), (1, 5))],
    ids=["x_3d", "inner_dims", "bias_length", "bias_2d"],
)
def test_linear_shape_errors(x_shape, w_shape, b_shape):
    tape = ad.Tape()
    x, w, b = (tape.leaf(np.ones(s)) for s in (x_shape, w_shape, b_shape))
    with pytest.raises(DimensionError, match="linear"):
        ad.linear(x, w, b)


def test_linear_overflow_raises_nonfinite():
    # under the suite's filterwarnings = error, numpy's overflow warning
    # would escape first unless the op silences it
    tape = ad.Tape()
    x = tape.leaf([[1e200, 1e200]])
    w = tape.leaf([[1e200], [1.0]])
    with pytest.raises(NonFiniteError, match="'linear'"):
        ad.linear(x, w, tape.leaf([0.0]))


@pytest.mark.parametrize(
    "name, op, inputs",
    [
        ("matmul", ad.matmul, ([[1e200, -1e200]], [[1e200], [1e200]])),
        ("add", ad.add, ([1e308, 1.0], [1e308, 1.0])),
        ("sub", ad.sub, ([1e308, 1.0], [-1e308, 1.0])),
        ("mul", ad.mul, ([1e200, 1.0], [1e200, 1.0])),
        ("scale", lambda a: ad.mul(a, 1e200), ([1e200, 1.0],)),
    ],
    ids=["matmul", "add", "sub", "mul", "scale"],
)
def test_overflowing_output_raises_nonfinite(name, op, inputs):
    # as linear above; matmul's Inf - Inf is numpy's "invalid" warning
    tape = ad.Tape()
    with pytest.raises(NonFiniteError, match=f"'{name}'"):
        op(*[tape.leaf(v) for v in inputs])


@pytest.mark.parametrize(
    "op, inputs, want",
    [
        (ad.layer_norm, ([1e200, -1e200, 0.0], np.ones(3), np.full(3, 0.5)),
         NonFiniteError),
        (ad.gelu, ([1e103, -1e103],), np.array([1e103, -0.0])),
    ],
    ids=["layer_norm_variance", "gelu_cubic"],
)
def test_overflow_inside_an_op(op, inputs, want):
    # an intermediate that overflows ends in the op's own answer, never in
    # numpy's RuntimeWarning: the op's value where that is finite (tanh
    # saturates gelu's infinite cubic), else NonFiniteError naming the op
    # (an infinite variance would scale every entry to zero)
    tape = ad.Tape()
    leaves = [tape.leaf(v) for v in inputs]
    if isinstance(want, type):
        with pytest.raises(want, match=f"'{op.__name__}'"):
            op(*leaves)
    else:
        np.testing.assert_array_equal(op(*leaves).value, want)


# ---------------------------------------------------------------------------
# row_l2_normalize
# ---------------------------------------------------------------------------


def test_normalize_three_four_five():
    tape = ad.Tape()
    out = ad.row_l2_normalize(tape.leaf([[3.0, 4.0]]))
    np.testing.assert_allclose(out.value, [[0.6, 0.8]], rtol=0, atol=1e-15)


def test_normalize_idempotent_on_unit_rows():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 6))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    tape = ad.Tape()
    out = ad.row_l2_normalize(tape.leaf(x))
    np.testing.assert_allclose(out.value, x, rtol=0, atol=1e-15)


def test_normalize_row_norms_and_idempotence():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 8)) * 3.0
    tape = ad.Tape()
    once = ad.row_l2_normalize(tape.leaf(x))
    norms = np.linalg.norm(once.value, axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)
    twice = ad.row_l2_normalize(once)
    np.testing.assert_allclose(twice.value, once.value, rtol=0, atol=1e-12)


def test_normalize_zero_row_rejected():
    tape = ad.Tape()
    with pytest.raises(DegenerateInputError):
        ad.row_l2_normalize(tape.leaf([[0.0, 0.0], [1.0, 2.0]]))


# ---------------------------------------------------------------------------
# elementwise family
# ---------------------------------------------------------------------------


def test_gelu_at_zero_and_asymptote():
    tape = ad.Tape()
    assert ad.gelu(tape.leaf(np.float64(0.0))).item() == 0.0
    assert abs(ad.gelu(tape.leaf(np.float64(10.0))).item() - 10.0) < 1e-4


# values that reach every regime of the tanh: zero, tiny, moderate, saturated
GRID = np.array([0.0, 1e-8, -1e-8, 3.0, -3.0, 30.0, -30.0, 1e3, -1e3])


def _forward_backward(op, inputs, g):
    """Run ``op`` on fresh leaves (sharing the input arrays) and apply its
    backward rule to ``g``; returns (value, input gradients)."""
    tape = ad.Tape()
    out = op(*[tape.leaf(v) for v in inputs])
    return out.value, tape.nodes[out.index].backward_fn(g)


def test_gelu_matches_elementwise_oracle():
    rng = np.random.default_rng(30)
    for x in [np.asarray(v) for v in GRID] + [GRID, GRID.reshape(3, 3)]:
        g = rng.uniform(0.5, 2.0, size=x.shape)
        value, (dx,) = _forward_backward(ad.gelu, (x,), g)
        want, slope = gelu_tanh_elementwise(x)
        assert value.shape == x.shape
        np.testing.assert_allclose(value, want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(dx, g * slope, rtol=1e-12, atol=0)


@pytest.mark.parametrize("magnitude", [1e155, 1e200, 1e300])
@pytest.mark.parametrize("sign, slope", [(1.0, 1.0), (-1.0, 0.0)], ids=["pos", "neg"])
def test_gelu_slope_is_exact_where_x_squared_overflows(magnitude, sign, slope):
    # past |x| ~ 1.3e154, x*x overflows; tanh has long saturated there, so
    # the slope is exactly 1 (or 0), never Inf * 0 = NaN or a RuntimeWarning
    x = np.array([sign * magnitude, 3.0])
    _, (dx,) = _forward_backward(ad.gelu, (x,), np.ones(2))
    assert dx[0] == slope
    np.testing.assert_allclose(dx[1], gelu_tanh_elementwise(x[1:])[1][0], rtol=1e-12)


def test_layer_norm_matches_row_oracle():
    rng = np.random.default_rng(31)
    d = GRID.size
    gamma = rng.standard_normal(d) + 1.0
    beta = rng.standard_normal(d)
    rows = np.stack([np.roll(GRID, i) * (i + 1) for i in range(6)])
    for x in (GRID, rows.reshape(2, 3, d)):
        tape = ad.Tape()
        out = ad.layer_norm(tape.leaf(x), tape.leaf(gamma), tape.leaf(beta))
        np.testing.assert_allclose(
            out.value, layer_norm_rows(x, gamma, beta), rtol=1e-12, atol=1e-12
        )


def test_gelu_and_layer_norm_leave_inputs_intact():
    rng = np.random.default_rng(32)
    x = rng.standard_normal((2, 3, 5))
    gamma, beta = rng.standard_normal(5), rng.standard_normal(5)
    g = rng.standard_normal((2, 3, 5))
    cases = [
        (ad.gelu, (x,), g),
        (ad.gelu, (np.asarray(0.7),), np.asarray(1.3)),
        (ad.layer_norm, (x, gamma, beta), g),
        (ad.layer_norm, (x[0, 0], gamma, beta), g[0, 0]),
    ]
    for op, inputs, grad_out in cases:
        arrays = (*inputs, grad_out)
        before = [a.copy() for a in arrays]
        _forward_backward(op, inputs, grad_out)
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a, b)


def test_second_backward_is_bitwise_equal():
    # a backward rule that wrote into an array its closure captured, or
    # into one a rebuild reads, would change the second pass; linear
    # rebuilds its layer_norm, gelu and 3-D matmul inputs
    rng = np.random.default_rng(33)
    tape = ad.Tape()
    names = ["x", "gamma", "beta", "w", "b", "a"]
    shapes = [(2, 3, 6), (6,), (6,), (6, 6), (6,), (2, 6, 6)]
    x, gamma, beta, w, b, a = (
        tape.leaf(rng.standard_normal(s), name=n) for n, s in zip(names, shapes)
    )
    normed = ad.reshape(ad.layer_norm(x, gamma, beta), (6, 6))
    hdn = ad.gelu(ad.linear(normed, w, b))
    ctx = ad.reshape(ad.matmul(ad.reshape(hdn, (2, 3, 6)), a), (6, 6))
    out = ad.add(ad.linear(hdn, w, b), ad.linear(ctx, w, b))
    loss = sum_all(ad.mul(out, tape.leaf(rng.standard_normal((6, 6)))))
    first = ad.backward(tape, loss)
    second = ad.backward(tape, loss)
    for t in (x, gamma, beta, w, b, a):
        assert first.of(t).tobytes() == second.of(t).tobytes()


# each makes the (6, 4) input of a linear layer
PRODUCERS = {
    "layer_norm": lambda tape, rng: ad.layer_norm(
        tape.leaf(rng.standard_normal((6, 4))),
        tape.leaf(rng.standard_normal(4) + 1.0),
        tape.leaf(rng.standard_normal(4)),
    ),
    "gelu": lambda tape, rng: ad.gelu(tape.leaf(2.0 * rng.standard_normal((6, 4)))),
    "matmul_3d": lambda tape, rng: ad.reshape(
        ad.matmul(tape.leaf(rng.standard_normal((2, 3, 5))),
                  tape.leaf(rng.standard_normal((2, 5, 4)))),
        (6, 4),
    ),
}


@pytest.mark.parametrize("produce", PRODUCERS.values(), ids=PRODUCERS.keys())
def test_linear_rebuilds_its_input_instead_of_keeping_it(produce):
    # the producer's output is freed with its Tensor while the linear that
    # read it stays on the tape, and the linear's rule still gives bitwise
    # what it gives for a leaf holding a copy of that output
    rng = np.random.default_rng(7)
    tape = ad.Tape()
    h = produce(tape, rng)
    w = tape.leaf(rng.standard_normal((4, 3)))
    b = tape.leaf(rng.standard_normal(3))
    y = ad.linear(h, w, b)
    y_leaf = ad.linear(tape.leaf(h.value.copy()), w, b)
    outputs = [weakref.ref(v) for v in (h.value, h.value.base) if v is not None]
    del h
    gc.collect()
    assert all(ref() is None for ref in outputs)
    g = rng.standard_normal((6, 3))
    got = tape.nodes[y.index].backward_fn(g)
    want = tape.nodes[y_leaf.index].backward_fn(g)
    assert y.value.tobytes() == y_leaf.value.tobytes()
    for dgot, dwant in zip(got, want, strict=True):
        assert dgot.shape == dwant.shape and dgot.tobytes() == dwant.tobytes()


def test_exp_log_round_trip():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.1, 5.0, size=(4, 4))
    tape = ad.Tape()
    back = ad.log(ad.exp(tape.leaf(x)))
    np.testing.assert_allclose(back.value, x, rtol=0, atol=1e-12)
    forth = ad.exp(ad.log(tape.leaf(x)))
    np.testing.assert_allclose(forth.value, x, rtol=1e-12)


def test_log_domain_error():
    tape = ad.Tape()
    with pytest.raises(DomainError):
        ad.log(tape.leaf([[1.0, -2.0]]))


def test_equal_shape_only_broadcasting():
    tape = ad.Tape()
    a = tape.leaf(np.ones((2, 3)))
    b = tape.leaf(np.ones((3, 2)))
    with pytest.raises(DimensionError):
        ad.add(a, b)
    with pytest.raises(DimensionError):
        ad.mul(a, b)
    # mul alone also takes a scalar or a 0-d Tensor; add and sub take
    # neither
    s = tape.leaf(np.float64(2.0))
    np.testing.assert_array_equal(ad.mul(a, s).value, 2 * np.ones((2, 3)))
    np.testing.assert_array_equal(ad.mul(a, 2.0).value, 2 * np.ones((2, 3)))
    for op in (ad.add, ad.sub):
        with pytest.raises(DimensionError):
            op(a, s)
        with pytest.raises(ContractError, match="Tensor operand"):
            op(a, 1.0)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_sum_is_ones():
    tape = ad.Tape()
    x = tape.leaf(np.arange(6, dtype=np.float64).reshape(2, 3))
    grads = ad.backward(tape, sum_all(x))
    np.testing.assert_array_equal(grads.of(x), np.ones((2, 3)))


def test_backward_half_norm_squared_is_x():
    tape = ad.Tape()
    v = np.array([[1.0, -2.0], [0.5, 3.0]])
    x = tape.leaf(v)
    loss = ad.mul(sum_all(ad.mul(x, x)), 0.5)
    grads = ad.backward(tape, loss)
    np.testing.assert_allclose(grads.of(x), v, rtol=0, atol=1e-15)


def test_backward_requires_scalar_root():
    tape = ad.Tape()
    x = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ContractError):
        ad.backward(tape, ad.mul(x, 2.0))


def test_gradients_are_kept_for_leaves_only():
    # y feeds z twice, so its gradient is summed from two rules before its
    # own rule runs and the slot is dropped
    tape = ad.Tape()
    xv, wv = np.array([[1.0, -2.0], [0.5, 3.0]]), np.array([[2.0, 0.5], [-1.0, 4.0]])
    x, w = tape.leaf(xv, name="x"), tape.leaf(wv, name="w")
    y = ad.mul(x, w)
    z = ad.add(y, y)
    loss = sum_all(ad.mul(z, z))
    grads = ad.backward(tape, loss)
    # d/dx sum((2xw)^2) = 8 x w^2, and symmetrically for w
    np.testing.assert_array_equal(grads.of(x), 8.0 * xv * wv * wv)
    np.testing.assert_array_equal(grads.of(w), 8.0 * wv * xv * xv)
    assert grads.reached(x) and grads.reached(w)
    for interior in (y, z, loss):
        with pytest.raises(ContractError, match="leaves only"):
            grads.of(interior)
        with pytest.raises(ContractError, match="leaves only"):
            grads.reached(interior)
    other = ad.Tape().leaf(xv)
    with pytest.raises(ContractError):
        grads.of(other)


def test_unreached_leaf_gradient_is_zero():
    tape = ad.Tape()
    x = tape.leaf(np.ones((2, 2)))
    unused = tape.leaf(np.ones(3))
    grads = ad.backward(tape, sum_all(x))
    assert not grads.reached(unused)
    np.testing.assert_array_equal(grads.of(unused), np.zeros(3))


@pytest.mark.parametrize("op, sign", [(ad.add, 1.0), (ad.sub, -1.0)])
@pytest.mark.parametrize("b_shape", [(3, 4), ()])
def test_add_sub_do_not_keep_their_inputs_alive(op, sign, b_shape):
    # their backward rule reads no input value, so the tape must not pin
    # one after the caller lets go of it; the 0-d case is how the loss
    # terms are summed
    rng = np.random.default_rng(5)
    tape = ad.Tape()
    a = tape.leaf(rng.standard_normal(b_shape), name="a")
    b = tape.leaf(rng.standard_normal(b_shape), name="b")
    c = op(a, b)
    a_value = weakref.ref(a.value)
    del a
    gc.collect()
    assert a_value() is None
    grads = ad.backward(tape, sum_all(c))
    np.testing.assert_array_equal(grads.of(b), np.full(b_shape, sign))


def test_backward_names_the_leaf_whose_gradient_is_not_finite():
    # log's value is finite at 1e-320, but its rule's 1/x overflows
    tape = ad.Tape()
    x = tape.leaf([1e-320, 1.0], name="tiny")
    with pytest.raises(NonFiniteError, match="'tiny'"):
        ad.backward(tape, sum_all(ad.log(x)))


def test_nonfinite_forward_is_surfaced():
    tape = ad.Tape()
    x = tape.leaf(np.array([[800.0]]))
    with pytest.raises(NonFiniteError):
        ad.exp(x)


def test_tape_replay_determinism():
    def run():
        rng = np.random.default_rng(33)
        tape = ad.Tape()
        a = tape.leaf(rng.standard_normal((5, 4)))
        b = tape.leaf(rng.standard_normal((4, 3)))
        h = ad.gelu(ad.matmul(a, b))
        loss = ad.mean_all(ad.mul(h, h))
        grads = ad.backward(tape, loss)
        return loss.item(), grads.of(a).copy(), grads.of(b).copy()

    l1, ga1, gb1 = run()
    l2, ga2, gb2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(ga1, ga2)
    np.testing.assert_array_equal(gb1, gb2)


def test_tape_topological_order_invariant():
    tape = ad.Tape()
    a = tape.leaf(np.ones((2, 2)))
    b = ad.mul(a, 2.0)
    c = ad.add(a, b)
    sum_all(c)
    for idx, node in enumerate(tape.nodes):
        assert all(p < idx for p in node.parents)


# ---------------------------------------------------------------------------
# finite differences as an op in its own right
# ---------------------------------------------------------------------------


def test_fd_on_square():
    got = ad.finite_difference_gradient(
        lambda p: float(p["x"] ** 2), {"x": np.array(3.0)}, h=1e-5
    )
    assert abs(got["x"] - 6.0) < 1e-8


def test_fd_on_constant():
    got = ad.finite_difference_gradient(
        lambda p: 7.25, {"x": np.arange(4.0)}, h=1e-5
    )
    np.testing.assert_allclose(got["x"], 0.0, rtol=0, atol=1e-10)


def test_fd_rejects_nonpositive_h():
    with pytest.raises(DomainError):
        ad.finite_difference_gradient(lambda p: 0.0, {"x": np.ones(2)}, h=0.0)


# ---------------------------------------------------------------------------
# gradient checks per op, >=5 seeds each
# ---------------------------------------------------------------------------

SEEDS = [0, 1, 2, 3, 4]


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_matmul(seed):
    rng = np.random.default_rng(seed)
    params = {
        "a": rng.standard_normal((3, 4)),
        "b": rng.standard_normal((4, 2)),
    }
    r = rng.standard_normal((3, 2))

    def build(tape, p):
        return sum_all(ad.mul(ad.matmul(p["a"], p["b"]), tape.leaf(r)))

    fd_check(build, params)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_linear(seed):
    rng = np.random.default_rng(seed)
    params = {
        "x": rng.standard_normal((3, 4)),
        "w": rng.standard_normal((4, 2)),
        "b": rng.standard_normal(2),
    }
    r = rng.standard_normal((3, 2))

    def build(tape, p):
        return sum_all(ad.mul(ad.linear(p["x"], p["w"], p["b"]), tape.leaf(r)))

    fd_check(build, params)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_row_l2_normalize(seed):
    rng = np.random.default_rng(seed)
    params = {"x": rng.standard_normal((4, 5)) + 0.1}
    r = rng.standard_normal((4, 5))

    def build(tape, p):
        return sum_all(ad.mul(ad.row_l2_normalize(p["x"]), tape.leaf(r)))

    fd_check(build, params)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_elementwise_chain(seed):
    rng = np.random.default_rng(seed)
    params = {
        "x": rng.standard_normal((3, 3)),
        "y": rng.standard_normal((3, 3)),
    }

    def build(tape, p):
        h = ad.gelu(ad.add(ad.mul(p["x"], p["y"]), p["x"]))
        h = ad.exp(ad.mul(h, 0.3))
        return ad.mean_all(ad.sub(h, p["y"]))

    fd_check(build, params)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_log(seed):
    rng = np.random.default_rng(seed)
    params = {"x": rng.uniform(0.2, 3.0, size=(4, 3))}

    def build(tape, p):
        return sum_all(ad.log(p["x"]))

    fd_check(build, params)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_softmax_logsumexp_diag(seed):
    rng = np.random.default_rng(seed)
    params = {"x": rng.standard_normal((5, 5))}
    r = rng.standard_normal((5, 5))
    r2 = rng.standard_normal(5)

    def build(tape, p):
        s = ad.softmax(p["x"])
        lse = ad.row_logsumexp(p["x"])
        d = ad.take_diagonal(ad.mul(s, tape.leaf(r)))
        return ad.add(
            sum_all(ad.mul(lse, tape.leaf(r2))), sum_all(ad.mul(d, d))
        )

    fd_check(build, params)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_layer_norm(seed):
    rng = np.random.default_rng(seed)
    params = {
        "x": rng.standard_normal((2, 3, 6)),
        "g": rng.standard_normal(6) + 1.0,
        "b": rng.standard_normal(6),
    }
    r = rng.standard_normal((2, 3, 6))

    def build(tape, p):
        return sum_all(
            ad.mul(ad.layer_norm(p["x"], p["g"], p["b"]), tape.leaf(r))
        )

    fd_check(build, params)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_bmm_transpose_reshape(seed):
    rng = np.random.default_rng(seed)
    params = {
        "q": rng.standard_normal((2, 3, 4)),
        "k": rng.standard_normal((2, 3, 4)),
    }
    r = rng.standard_normal((2, 3, 3))

    def build(tape, p):
        # batched (3-D) matmul, as attention runs it
        scores = ad.matmul(p["q"], ad.transpose(p["k"], (0, 2, 1)))
        a = ad.softmax(ad.mul(scores, 0.5))
        flat = ad.reshape(a, (2 * 3, 3))
        return sum_all(ad.mul(flat, tape.leaf(r.reshape(6, 3))))

    fd_check(build, params)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_bias_and_mean_axis(seed):
    rng = np.random.default_rng(seed)
    params = {
        "x": rng.standard_normal((3, 4, 5)),
        "b": rng.standard_normal(5),
        "pos": rng.standard_normal((4, 5)),
    }
    r = rng.standard_normal((3, 5))

    def build(tape, p):
        h = ad.add_bias(ad.add_bias(p["x"], p["b"]), p["pos"])
        pooled = ad.mean_axis(h, 1)
        return sum_all(ad.mul(pooled, tape.leaf(r)))

    fd_check(build, params)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_transposed_conv2d(seed):
    # the decoder's kernel 2, stride 2 layer, built from matmul, reshape
    # and transpose
    rng = np.random.default_rng(seed)
    for n in (1, 2):
        params = {
            "x": rng.standard_normal((n, 2, 3, 3)),
            "k": rng.standard_normal((2, 3, 2, 2)),
        }
        r = rng.standard_normal((n, 3, 6, 6))

        def build(tape, p):
            out = model._upsample2x(p["x"], p["k"])
            return sum_all(ad.mul(out, tape.leaf(r)))

        fd_check(build, params)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_scalar_broadcast_operands(seed):
    rng = np.random.default_rng(seed)
    params = {
        "x": rng.standard_normal((3, 4)),
        "s": np.array(rng.uniform(0.5, 1.5)),
    }

    def build(tape, p):
        h = ad.mul(p["x"], p["s"])
        h = ad.mul(p["s"], h)
        return ad.mean_all(ad.mul(h, h))

    fd_check(build, params)
