"""Tape engine: forward semantics, backward rules vs finite differences."""

import ctypes
import gc
import math
import os
import platform
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

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
    held_arrays,
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
    # inner dims, then 3-D and mixed 2-D/3-D operands: matmul is 2-D only
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


def test_concat_rows_values_and_backward_slices():
    rng = np.random.default_rng(9)
    tape = ad.Tape()
    parts = [tape.leaf(rng.standard_normal((n, 3))) for n in (2, 1, 4)]
    out = ad.concat_rows(parts)
    np.testing.assert_array_equal(
        out.value, np.concatenate([p.value for p in parts])
    )
    r = rng.standard_normal((7, 3))
    grads = ad.backward(tape, sum_all(ad.mul(out, tape.leaf(r))))
    for p, rows in zip(parts, (r[:2], r[2:3], r[3:])):
        np.testing.assert_array_equal(grads.of(p), rows)
    # the rule splits the gradient into views, not copies
    pieces = tape.nodes[out.index].backward_fn(r)
    assert [piece.shape for piece in pieces] == [(2, 3), (1, 3), (4, 3)]
    assert all(np.shares_memory(piece, r) for piece in pieces)


def test_concat_rows_rejects_bad_parts():
    tape = ad.Tape()
    with pytest.raises(ContractError, match="at least one"):
        ad.concat_rows([])
    with pytest.raises(DimensionError, match="concat_rows"):
        ad.concat_rows([tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((2, 4)))])
    with pytest.raises(DimensionError, match="concat_rows"):
        ad.concat_rows([tape.leaf(np.ones(3)), tape.leaf(np.ones(3))])
    with pytest.raises(ContractError, match="different tapes"):
        ad.concat_rows([tape.leaf(np.ones((1, 3))), ad.Tape().leaf(np.ones((1, 3)))])


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
        ("add_bias", ad.add_bias, ([[1e308, 1.0]], [1e308, 0.0])),
        ("mlp", ad.mlp, ([[1e200, 1e200]], [[1e200], [1.0]], [0.0], [[1.0]], [0.0])),
        ("mlp", ad.mlp, ([[1.0]], [[1e200]], [0.0], [[1e200]], [0.0])),
    ],
    ids=["matmul", "add", "sub", "mul", "scale", "add_bias", "mlp_pre_activation",
         "mlp_output"],
)
def test_overflowing_output_raises_nonfinite(name, op, inputs):
    # as linear above; matmul's Inf - Inf is numpy's "invalid" warning
    tape = ad.Tape()
    with pytest.raises(NonFiniteError, match=f"'{name}'"):
        op(*[tape.leaf(v) for v in inputs])


# C * C / sqrt(2) is 1e308 up to rounding, and C * C is finite
_C = math.sqrt(math.sqrt(2.0) * 1e308)


def _attention_of_weights(x, w):
    """Attention with ``w`` as both wq and wk, identity wv and wo and zero
    biases: with ``x`` the identity too, the output is the softmax weights."""
    eye, zero = x.tape.leaf(np.eye(2)), x.tape.leaf(np.zeros(2))
    return ad.attention(x, [w, w, eye, eye], [zero] * 3, 1)


@pytest.mark.parametrize(
    "op, inputs, want",
    [
        (ad.layer_norm, ([1e200, -1e200, 0.0], np.ones(3), np.full(3, 0.5)),
         NonFiniteError),
        (ad.gelu, ([1e103, -1e103],), np.array([1e103, -0.0])),
        (ad.gelu, ([1.7e308, -1.7e308],), np.array([1.7e308, -0.0])),
        (ad.mlp, ([[1.0]], [[1e103, -1e103]], [0.0, 0.0], np.eye(2), [0.0, 0.0]),
         np.array([[1e103, -0.0]])),
        (lambda x: ad.mean_axis(x, 1), ([[1e308, 1e308], [0.1, 0.2]],),
         np.array([1e308, np.mean([0.1, 0.2])])),
        (ad.mean_all, ([1e308, 1e308],), np.array(1e308)),
        (_attention_of_weights, (np.eye(2), [[_C, 0.0], [-_C, 0.0]]), np.eye(2)),
        (ad.row_logsumexp, ([[1e308, -1e308]],), np.array([1e308])),
    ],
    ids=["layer_norm_variance", "gelu_cubic", "gelu_product", "mlp_cubic",
         "mean_axis_sum", "mean_all_sum", "softmax_shift", "row_logsumexp_shift"],
)
def test_overflow_inside_an_op(op, inputs, want):
    # an intermediate that overflows ends in the op's own answer, never in
    # numpy's RuntimeWarning: the op's value where that is finite (tanh
    # saturates gelu's infinite cubic, in mlp too, where the pre-activation
    # of +-1e103 gives gelu's value, a mean is finite though its sum is
    # not, and x - max(x) overflows only to -inf, whose exp is exactly 0:
    # attention's scores of +-1e308 give the one-hot softmax),
    # else NonFiniteError naming the op (an infinite variance would scale
    # every entry to zero); the row whose sum did not overflow keeps the
    # plain mean's bits
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


def test_normalize_row_whose_norm_overflows():
    # the unit row is finite though its norm (or only its sum of squares)
    # overflows, and its gradient is taken over the true norm; a row whose
    # norm is finite keeps the bits it has alone
    x = np.array([[1e308, 1e308], [1e200, 1e200], [3.0, 4.0]])
    g = np.array([[2.0**60, 0.0], [2.0**60, 0.0], [1.0, 2.0]])
    value, (dx,) = _forward_backward(ad.row_l2_normalize, (x,), g)
    np.testing.assert_allclose(value[:2], np.full((2, 2), 0.70710678), rtol=1e-8)
    for row, scale in ((0, 1e308), (1, 1e200)):
        np.testing.assert_allclose(
            dx[row], np.array([2.0**59, -(2.0**59)]) / (np.sqrt(2.0) * scale),
            rtol=1e-12,
        )
    alone, (alone_dx,) = _forward_backward(ad.row_l2_normalize, (x[2:],), g[2:])
    assert value[2].tobytes() == alone[0].tobytes()
    assert dx[2].tobytes() == alone_dx[0].tobytes()


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
    # into one a rebuild reads, would change the second pass; mlp and
    # attention both rebuild their layer_norm input, and recompute from it
    # the pre-activation and tanh term, and q/k/v and the context
    rng = np.random.default_rng(33)
    tape = ad.Tape()
    names = ["x", "gamma", "beta", "w1", "b1", "w2", "b2"]
    shapes = [(6, 6), (6,), (6,), (6, 12), (12,), (12, 6), (6,)]
    x, gamma, beta, w1, b1, w2, b2 = (
        tape.leaf(rng.standard_normal(s), name=n) for n, s in zip(names, shapes)
    )
    aw = [tape.leaf(rng.standard_normal((6, 6)), name=f"w{p}") for p in "qkvo"]
    ab = [tape.leaf(rng.standard_normal(6), name=f"b{p}") for p in "qvo"]
    normed = ad.layer_norm(x, gamma, beta)
    hdn = ad.mlp(normed, w1, b1, w2, b2)
    ctx = ad.attention(normed, aw, ab, 2)
    out = ad.add(hdn, ad.mlp(ctx, w1, b1, w2, b2))
    loss = sum_all(ad.mul(out, tape.leaf(rng.standard_normal((6, 6)))))
    first = ad.backward(tape, loss)
    second = ad.backward(tape, loss)
    for t in (x, gamma, beta, w1, b1, w2, b2, *aw, *ab):
        assert first.of(t).tobytes() == second.of(t).tobytes()


def _layer_norm_out(tape, rng):
    return ad.layer_norm(
        tape.leaf(rng.standard_normal((6, 4))),
        tape.leaf(rng.standard_normal(4) + 1.0),
        tape.leaf(rng.standard_normal(4)),
    )


def _attention_reader(tape, rng):
    ws = [tape.leaf(rng.standard_normal((4, 4))) for _ in range(4)]
    bs = [tape.leaf(rng.standard_normal(4)) for _ in range(3)]
    return lambda h: ad.attention(h, ws, bs, 2)


def _mlp_reader(tape, rng):
    w1, b1 = tape.leaf(rng.standard_normal((4, 8))), tape.leaf(rng.standard_normal(8))
    w2, b2 = tape.leaf(rng.standard_normal((8, 3))), tape.leaf(rng.standard_normal(3))
    return lambda h: ad.mlp(h, w1, b1, w2, b2)


# each makes the op that reads a (6, 4) layer_norm output
READERS = {"attention": _attention_reader, "mlp": _mlp_reader}


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
def test_reader_rebuilds_its_input_instead_of_keeping_it(reader):
    # the layer_norm output is freed with its Tensor while the op that read
    # it stays on the tape, and the reader's rule still gives bitwise what
    # it gives for a leaf holding a copy of that output
    rng = np.random.default_rng(7)
    tape = ad.Tape()
    h = _layer_norm_out(tape, rng)
    read = reader(tape, rng)
    y = read(h)
    y_leaf = read(tape.leaf(h.value.copy()))
    outputs = [weakref.ref(v) for v in (h.value, h.value.base) if v is not None]
    del h
    gc.collect()
    assert all(ref() is None for ref in outputs)
    g = rng.standard_normal(y.shape)
    got = tape.nodes[y.index].backward_fn(g)
    want = tape.nodes[y_leaf.index].backward_fn(g)
    assert y.value.tobytes() == y_leaf.value.tobytes()
    for dgot, dwant in zip(got, want, strict=True):
        assert dgot.shape == dwant.shape and dgot.tobytes() == dwant.tobytes()


def test_attention_rule_keeps_only_its_softmax_weights(monkeypatch):
    # n = 2 samples of T = 3 tokens of width D = 8, so any (n*T, D) array
    # the rule kept would be larger than the (n, T, T) softmax weights
    n, t, d = 2, 3, 8
    rng = np.random.default_rng(34)
    checked = []

    def check_finite(arr, op):
        if op == "attention" and arr.shape == (n * t, 3 * d):
            checked.append(weakref.ref(arr))
        return real_check_finite(arr, op)

    real_check_finite = ad._check_finite
    monkeypatch.setattr(ad, "_check_finite", check_finite)
    tape = ad.Tape()
    x = ad.layer_norm(tape.leaf(rng.standard_normal((n * t, d))),
                      tape.leaf(np.ones(d)), tape.leaf(np.zeros(d)))
    ws = [tape.leaf(rng.standard_normal((d, d))) for _ in range(4)]
    bs = [tape.leaf(rng.standard_normal(d)) for _ in range(3)]
    y = ad.attention(x, ws, bs, n)
    gc.collect()
    # the forward's q/k/v block was checked, and is freed once the op returns
    assert len(checked) == 1 and checked[0]() is None
    # the parameter values are the leaves', and x's rebuild is the
    # layer_norm's, whose own rule holds its arrays anyway
    rule = tape.nodes[y.index].backward_fn
    params = [p.value for p in (*ws, *bs)]
    held = held_arrays(rule, [x.rebuild, *params])
    largest = max(held, key=lambda arr: arr.size)
    assert largest.shape == (n, t, t)
    np.testing.assert_allclose(largest.sum(axis=-1), 1.0, rtol=1e-12)
    assert [arr.shape for arr in held] == [(n, t, t)]
    assert any(c.cell_contents is x.rebuild for c in rule.__closure__)


def _mlp_and_composition(x_kind, rows, d, hidden, out):
    """Value and rule outputs of ``mlp`` and of ``linear(gelu(linear()))``
    on equal inputs, each on its own tape; the composition's rules are run
    by hand, the three ops' in reverse."""
    results = []
    for fused in (True, False):
        rng = np.random.default_rng(35)
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((rows, d)))
        if x_kind == "layer_norm":
            x = ad.layer_norm(x, tape.leaf(rng.standard_normal(d) + 1.0),
                              tape.leaf(rng.standard_normal(d)))
        w1 = tape.leaf(rng.standard_normal((d, hidden)) / math.sqrt(d))
        b1 = tape.leaf(rng.standard_normal(hidden))
        w2 = tape.leaf(rng.standard_normal((hidden, out)) / math.sqrt(hidden))
        b2 = tape.leaf(rng.standard_normal(out))
        g = rng.standard_normal((rows, out))
        if fused:
            y = ad.mlp(x, w1, b1, w2, b2)
            grads = tape.nodes[y.index].backward_fn(g)
        else:
            pre = ad.linear(x, w1, b1)
            hdn = ad.gelu(pre)
            y = ad.linear(hdn, w2, b2)
            dh, dw2, db2 = tape.nodes[y.index].backward_fn(g)
            (du,) = tape.nodes[hdn.index].backward_fn(dh)
            dx, dw1, db1 = tape.nodes[pre.index].backward_fn(du)
            grads = (dx, dw1, db1, dw2, db2)
        results.append((y.value, grads))
    return results


@pytest.mark.parametrize("x_kind", ["leaf", "layer_norm"])
@pytest.mark.parametrize(
    "rows, d, hidden, out", [(5, 3, 4, 2), (1024, 64, 128, 64)], ids=["tiny", "tile"]
)
def test_mlp_is_bitwise_linear_gelu_linear(x_kind, rows, d, hidden, out):
    # the tile is the encoder's: 64 images of 16 tokens, width 64, hidden 128
    (y_f, grads_f), (y_c, grads_c) = _mlp_and_composition(x_kind, rows, d, hidden, out)
    assert y_f.shape == (rows, out) and y_f.tobytes() == y_c.tobytes()
    for got, want in zip(grads_f, grads_c, strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_mlp_rule_keeps_no_hidden_array(monkeypatch):
    rows, d, hidden = 6, 4, 8
    rng = np.random.default_rng(36)
    checked = []

    def check_finite(arr, op):
        if op == "mlp" and arr.shape == (rows, hidden):
            checked.append(weakref.ref(arr))
        return real_check_finite(arr, op)

    real_check_finite = ad._check_finite
    monkeypatch.setattr(ad, "_check_finite", check_finite)
    tape = ad.Tape()
    x = ad.layer_norm(tape.leaf(rng.standard_normal((rows, d))),
                      tape.leaf(np.ones(d)), tape.leaf(np.zeros(d)))
    params = [tape.leaf(rng.standard_normal(s))
              for s in ((d, hidden), (hidden,), (hidden, d), (d,))]
    y = ad.mlp(x, *params)
    gc.collect()
    # the forward's pre-activation was checked, and is freed once the op
    # returns
    assert len(checked) == 1 and checked[0]() is None
    # the parameter values are the leaves', and x's rebuild is the
    # layer_norm's, whose own rule holds its arrays anyway
    rule = tape.nodes[y.index].backward_fn
    assert held_arrays(rule, [x.rebuild, *(p.value for p in params)]) == []
    assert any(c.cell_contents is x.rebuild for c in rule.__closure__)


@pytest.mark.parametrize(
    "shapes",
    [((2, 3, 4), (4, 5), (5,), (5, 2), (2,)), ((2, 3), (4, 5), (5,), (5, 2), (2,)),
     ((2, 4), (4, 5), (4,), (5, 2), (2,)), ((2, 4), (4, 5), (5,), (4, 2), (2,)),
     ((2, 4), (4, 5), (5,), (5, 2), (5,)), ((2, 4), (4, 5), (5,), (5,), (2,))],
    ids=["x_3d", "inner_dims", "b1_length", "w2_rows", "b2_length", "w2_1d"],
)
def test_mlp_shape_errors(shapes):
    tape = ad.Tape()
    with pytest.raises(DimensionError, match="mlp"):
        ad.mlp(*(tape.leaf(np.ones(s)) for s in shapes))


@pytest.mark.parametrize("n_ws, n_bs", [(4, 4), (4, 2), (3, 3)],
                         ids=["key_bias", "two_biases", "three_weights"])
def test_attention_takes_four_weights_and_three_biases(n_ws, n_bs):
    # bq, bv, bo: a fourth bias would be the key bias, which no gradient
    # reaches
    tape = ad.Tape()
    x = tape.leaf(np.ones((4, 2)))
    ws = [tape.leaf(np.eye(2)) for _ in range(n_ws)]
    bs = [tape.leaf(np.zeros(2)) for _ in range(n_bs)]
    with pytest.raises(ContractError, match=f"4 weights and 3 biases, got {n_ws} and {n_bs}"):
        ad.attention(x, ws, bs, 2)


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
    for interior in (y, z, loss):
        with pytest.raises(ContractError, match="leaves only"):
            grads.of(interior)
    other = ad.Tape().leaf(xv)
    with pytest.raises(ContractError):
        grads.of(other)


def test_unreached_leaf_gradient_is_zero():
    tape = ad.Tape()
    x = tape.leaf(np.ones((2, 2)))
    unused = tape.leaf(np.ones(3))
    grads = ad.backward(tape, sum_all(x))
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
    # big * tiny * 1e10 is finite, but tiny's gradient, big * 1e10 / 2,
    # overflows; big's, tiny * 1e10 / 2, does not
    tape = ad.Tape()
    big = tape.leaf([1e300, 1.0], name="big")
    tiny = tape.leaf([1e-300, 1.0], name="tiny")
    with pytest.raises(NonFiniteError, match="'tiny'"):
        ad.backward(tape, ad.mean_all(ad.mul(ad.mul(big, tiny), 1e10)))


def _branches(tape, leaves, rule):
    """``add`` of one node per leaf, each recorded with ``rule(i, g)`` as
    its backward rule; the rules of branch i and i + 1 can run at once."""
    out = None
    for i, leaf in enumerate(leaves):
        b = tape.record(f"branch{i}", leaf.value, (leaf.index,), lambda g, i=i: rule(i, g))
        out = b if out is None else ad.add(out, b)
    return out


def test_two_workers_add_each_contribution_in_the_serial_order(two_workers):
    # x gets 1, 1e16 and -1e16 from branches 2, 1 and 0, in that order in
    # the serial walk: (1 + 1e16) - 1e16 is 0, as 1 + 1e16 rounds to 1e16.
    # Branch 2 (the first to be ready) waits until branch 0 has run, so
    # its contribution comes last; added as they came, (1e16 - 1e16) + 1
    # would be 1
    tape = ad.Tape()
    x = tape.leaf(np.zeros(()), name="x")
    branch0_ran = threading.Event()

    def rule(i, g):
        if i == 0:
            branch0_ran.set()
        elif i == 2 and not branch0_ran.wait(timeout=30):
            raise TimeoutError("branch 0 never ran")
        return (g * (-1e16, 1e16, 1.0)[i],)

    loss = _branches(tape, [x, x, x], rule)
    assert ad.backward(tape, loss).of(x) == 0.0
    assert branch0_ran.is_set()


def test_an_exception_on_the_helper_is_raised_in_the_caller(two_workers):
    # the barrier holds each worker in one branch's rule until both are,
    # so the helper runs one of them
    raised = []
    barrier = threading.Barrier(2, timeout=30)

    def rule(i, g):
        barrier.wait()
        if threading.current_thread() is not threading.main_thread():
            raised.append(ValueError(f"branch {i} on the helper"))
            raise raised[0]
        return (g,)

    tape = ad.Tape()
    leaves = [tape.leaf(np.ones(2), name=f"x{i}") for i in range(2)]
    with pytest.raises(ValueError) as info:
        ad.backward(tape, ad.mean_all(_branches(tape, leaves, rule)))
    assert info.value is raised[0]

    tape = ad.Tape()
    x = tape.leaf(np.arange(3.0), name="x")
    grads = ad.backward(tape, ad.mean_all(ad.mul(x, x)))
    np.testing.assert_array_equal(grads.of(x), 2.0 * np.arange(3.0) / 3.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflow_on_either_worker_surfaces_at_the_leaf_check(two_workers):
    # each worker runs one branch's rule, whose product overflows; numpy's
    # error state is per thread, so a helper that did not set its own
    # would warn, and the warning would be raised in place of the error
    barrier = threading.Barrier(2, timeout=30)

    def rule(i, g):
        barrier.wait()
        return (g * np.full(2, 1e300) * 1e300,)

    tape = ad.Tape()
    leaves = [tape.leaf(np.ones(2), name=name) for name in ("a", "b")]
    with pytest.raises(NonFiniteError, match="leaf 'a'"):
        ad.backward(tape, ad.mean_all(_branches(tape, leaves, rule)))


@pytest.mark.parametrize("wide, cpus, started", [
    (False, 2, 0), (True, 1, 0), (True, 2, 1),
], ids=["narrow", "wide_one_cpu", "wide_two_cpus"])
def test_a_backward_joins_the_one_thread_it_starts(monkeypatch, wide, cpus, started):
    # the helper lives for one backward, and only for a wide tape where two
    # CPUs may run it; one that lingers after its last rule is waited for
    class Lingering(threading.Thread):
        def run(self):
            super().run()
            time.sleep(0.05)

    monkeypatch.setattr(threading, "Thread", Lingering)
    monkeypatch.setattr(ad, "_cpus", lambda: cpus)
    if wide:
        monkeypatch.setattr(ad, "_TWO_WORKER_MIN", 0)
    before = threading.active_count()
    during = []

    def rule(g):
        during.append(threading.active_count())
        return (g,)

    tape = ad.Tape()
    x = tape.leaf(np.ones((4, 8)))
    y = ad.gelu(ad.matmul(x, tape.leaf(np.ones((8, 16)))))
    loss = ad.mean_all(tape.record("count", y.value, (y.index,), rule))
    assert tape.widest == 64  # the (4, 16) product; leaves do not count
    ad.backward(tape, loss)
    assert during == [before + started]
    assert threading.active_count() == before


# two branches whose rules each run a two-worker backward of their own, at
# once: one on the caller's thread, one on the helper's
_NESTED_BACKWARD = """
import threading
import numpy as np
from cmpr import autodiff as ad

ad._TWO_WORKER_MIN = 0
ad._cpus = lambda: 2
barrier = threading.Barrier(2, timeout=30)

def rule(g):
    barrier.wait()
    tape = ad.Tape()
    x = tape.leaf(np.arange(3.0))
    ad.backward(tape, ad.mean_all(ad.mul(x, x)))
    return (g,)

tape = ad.Tape()
a, b = tape.leaf(np.ones(2)), tape.leaf(np.ones(2))
branches = [tape.record("branch", v.value, (v.index,), rule) for v in (a, b)]
grads = ad.backward(tape, ad.mean_all(ad.add(*branches)))
assert (grads.of(a) == 0.5).all() and (grads.of(b) == 0.5).all()
"""


def _run_python(script):
    """Run ``script`` in a new interpreter that imports this ``cmpr``, and
    return what it printed; a non-zero exit fails the test."""
    src = str(Path(ad.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout


def test_a_rule_may_run_a_backward_of_its_own():
    # the backward inside a rule on the helper's thread starts and joins a
    # helper of its own; a subprocess, so a hang fails at the timeout
    _run_python(_NESTED_BACKWARD)


# a two-worker backward, then the same in a forked child; exits 0 when the
# child's gradient equals the parent's.  A child that hangs dies at the alarm
_FORKED_BACKWARD = """
import os
import signal
import numpy as np
from cmpr import autodiff as ad

ad._TWO_WORKER_MIN = 0
ad._cpus = lambda: 2

def grad():
    tape = ad.Tape()
    x = tape.leaf(np.arange(4.0))
    return ad.backward(tape, ad.mean_all(ad.gelu(ad.mul(x, x)))).of(x)

want = grad()
pid = os.fork()
if pid == 0:
    signal.alarm(30)
    os._exit(0 if grad().tobytes() == want.tobytes() else 1)
raise SystemExit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_forked_child_runs_a_two_worker_backward():
    # no thread is copied into a forked child, so a child that counted on
    # one of the parent's would wait for it for ever
    _run_python(_FORKED_BACKWARD)


@pytest.mark.parametrize("workers", [1, 2], ids=["one_worker", "two_workers"])
@pytest.mark.parametrize("n_gradients", [1, 3], ids=["too_few", "too_many"])
def test_a_rule_must_return_one_gradient_per_input(monkeypatch, workers, n_gradients):
    # on two workers, a parent still waiting for a missing gradient would
    # never become ready
    monkeypatch.setattr(ad, "_TWO_WORKER_MIN", 0 if workers == 2 else 1 << 62)
    monkeypatch.setattr(ad, "_cpus", lambda: 2)
    tape = ad.Tape()
    a, b = tape.leaf(np.ones(2)), tape.leaf(np.ones(2))
    both = tape.record("pair", a.value + b.value, (a.index, b.index),
                       lambda g: (g,) * n_gradients)
    with pytest.raises(ContractError, match=f"'pair' returned {n_gradients} gradients for 2"):
        ad.backward(tape, ad.mean_all(both))


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
# heap policy
# ---------------------------------------------------------------------------

# 64 arrays of 1 MiB, freed, twice: prints the second round's minor
# faults.  The first round runs on the thread FIRST_ON names.
_REALLOC_FAULTS = """
import resource
import threading
import numpy as np
import cmpr.autodiff

def one_round():
    arrays = [np.ones(1 << 17) for _ in range(64)]
    del arrays

if FIRST_ON == "thread":
    first = threading.Thread(target=one_round)
    first.start()
    first.join()
else:
    one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
one_round()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap policy")
def test_freed_arrays_are_reused_without_faulting():
    # by default glibc maps each 1 MiB array on its own and unmaps it on
    # free, so the second round faults in its 16,384 pages afresh
    assert int(_run_python('FIRST_ON = "main"\n' + _REALLOC_FAULTS)) < 1000


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap policy")
def test_arrays_a_thread_freed_are_reused_without_faulting():
    # by default glibc gives a second thread an arena of its own, whose
    # freed pages the main thread cannot reuse: the backward's helper
    # thread frees what the caller's thread would allocate again
    assert int(_run_python('FIRST_ON = "thread"\n' + _REALLOC_FAULTS)) < 1000


def _no_libc(name):
    raise OSError("cannot load libc")


@pytest.mark.parametrize(
    "cdll", [_no_libc, lambda name: object()], ids=["cdll_raises", "no_mallopt"]
)
def test_heap_policy_is_skipped_without_mallopt(monkeypatch, cdll):
    # as where libc cannot be loaded (Windows) or has no mallopt (macOS)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    ad._keep_freed_memory()


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
def test_grad_mlp(seed):
    rng = np.random.default_rng(seed)
    params = {
        "x": rng.standard_normal((3, 4)),
        "w1": rng.standard_normal((4, 5)),
        "b1": rng.standard_normal(5),
        "w2": rng.standard_normal((5, 2)),
        "b2": rng.standard_normal(2),
    }
    r = rng.standard_normal((3, 2))

    def build(tape, p):
        out = ad.mlp(p["x"], p["w1"], p["b1"], p["w2"], p["b2"])
        return sum_all(ad.mul(out, tape.leaf(r)))

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
def test_grad_softmax_logsumexp_diag(seed):
    rng = np.random.default_rng(seed)
    params = {"x": rng.standard_normal((5, 5))}
    r = rng.standard_normal((5, 5))
    r2 = rng.standard_normal(5)

    def build(tape, p):
        # row_logsumexp's rule multiplies by the row softmax
        lse = ad.row_logsumexp(p["x"])
        d = ad.take_diagonal(ad.mul(p["x"], tape.leaf(r)))
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
def test_grad_attention(seed):
    # n = 2 samples of T = 3 tokens of width D = 4
    rng = np.random.default_rng(seed)
    params = {"x": rng.standard_normal((6, 4))}
    for p in "qkvo":
        params[f"w{p}"] = rng.standard_normal((4, 4))
        if p != "k":
            params[f"b{p}"] = rng.standard_normal(4)
    r = rng.standard_normal((6, 4))

    def build(tape, p):
        ws = [p[f"w{q}"] for q in "qkvo"]
        bs = [p[f"b{q}"] for q in "qvo"]
        return sum_all(ad.mul(ad.attention(p["x"], ws, bs, 2), tape.leaf(r)))

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
def test_grad_concat_rows(seed):
    rng = np.random.default_rng(seed)
    params = {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal((3, 3))}
    r = rng.standard_normal((7, 3))

    def build(tape, p):
        # one part twice, so its two row slices add up
        out = ad.concat_rows([p["a"], p["b"], p["a"]])
        return sum_all(ad.mul(ad.gelu(out), tape.leaf(r)))

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
