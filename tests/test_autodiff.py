"""Tape engine: forward semantics, backward rules vs finite differences."""

import gc
import weakref

import numpy as np
import pytest

from cmpr import autodiff as ad
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
    transposed_conv2d_direct,
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
    tape = ad.Tape()
    with pytest.raises(DimensionError):
        ad.matmul(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((2, 3))))


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
    # a backward rule that wrote into an array its closure captured would
    # change the second pass
    rng = np.random.default_rng(33)
    tape = ad.Tape()
    x = tape.leaf(rng.standard_normal((2, 3, 6)), name="x")
    gamma = tape.leaf(rng.standard_normal(6) + 1.0, name="gamma")
    beta = tape.leaf(rng.standard_normal(6), name="beta")
    h = ad.gelu(ad.layer_norm(x, gamma, beta))
    loss = sum_all(ad.mul(h, tape.leaf(rng.standard_normal((2, 3, 6)))))
    first = ad.backward(tape, loss)
    second = ad.backward(tape, loss)
    for t in (x, gamma, beta):
        assert first.of(t).tobytes() == second.of(t).tobytes()


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
    # scalar <-> array stays allowed
    s = tape.leaf(np.float64(2.0))
    np.testing.assert_array_equal(ad.mul(a, s).value, 2 * np.ones((2, 3)))
    np.testing.assert_array_equal(ad.add(a, 1.0).value, 2 * np.ones((2, 3)))


# ---------------------------------------------------------------------------
# transposed convolution
# ---------------------------------------------------------------------------


def test_deconv_delta_input_broadcasts_kernel():
    tape = ad.Tape()
    x = tape.leaf(np.full((1, 1, 1, 1), 3.5))
    k = tape.leaf(np.ones((1, 1, 2, 2)))
    out = ad.transposed_conv2d(x, k, stride=2)
    assert out.value.shape == (1, 1, 2, 2)
    np.testing.assert_array_equal(out.value, np.full((1, 1, 2, 2), 3.5))


def test_deconv_zero_kernel():
    tape = ad.Tape()
    x = tape.leaf(np.random.default_rng(1).standard_normal((1, 2, 3, 3)))
    k = tape.leaf(np.zeros((2, 4, 2, 2)))
    out = ad.transposed_conv2d(x, k, stride=2)
    np.testing.assert_array_equal(out.value, 0.0)


# (kernel, stride): the decoder's (2, 2), a kernel wider than the stride
# (overlapping taps), stride 1, and a stride wider than the kernel (gaps)
DECONV_GEOMETRIES = [(2, 2), (3, 2), (2, 1), (2, 3)]


def test_deconv_seeded_against_direct_summation():
    rng = np.random.default_rng(21)
    for kernel, stride in DECONV_GEOMETRIES:
        for n in (1, 2):
            x = rng.standard_normal((n, 2, 3, 3))
            k = rng.standard_normal((2, 3, kernel, kernel))
            expected = np.stack(
                [transposed_conv2d_direct(xs, k, stride) for xs in x]
            )
            tape = ad.Tape()
            out = ad.transposed_conv2d(tape.leaf(x), tape.leaf(k), stride=stride)
            side = 2 * stride + kernel  # (H - 1) * stride + kernel, H = 3
            assert out.value.shape == (n, 3, side, side)
            np.testing.assert_allclose(
                out.value, expected, rtol=0, atol=1e-13,
                err_msg=f"kernel {kernel} stride {stride} batch {n}",
            )


def test_deconv_output_size_contract():
    # H' = (H-1)*stride + k
    tape = ad.Tape()
    x = tape.leaf(np.ones((1, 1, 4, 4)))
    k = tape.leaf(np.ones((1, 2, 3, 3)))
    out = ad.transposed_conv2d(x, k, stride=2)
    assert out.value.shape == (1, 2, 9, 9)


def test_deconv_channel_mismatch():
    tape = ad.Tape()
    with pytest.raises(DimensionError):
        ad.transposed_conv2d(
            tape.leaf(np.ones((1, 2, 3, 3))), tape.leaf(np.ones((3, 1, 2, 2))), 2
        )


def test_deconv_batched_matches_per_sample():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 2, 3, 3))
    k = rng.standard_normal((2, 4, 2, 2))
    tape = ad.Tape()
    full = ad.transposed_conv2d(tape.leaf(x), tape.leaf(k), stride=2).value
    for n in range(3):
        one = ad.transposed_conv2d(tape.leaf(x[n:n + 1]), tape.leaf(k), stride=2).value
        np.testing.assert_array_equal(full[n], one[0])


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
    # one after the caller lets go of it
    rng = np.random.default_rng(5)
    tape = ad.Tape()
    a = tape.leaf(rng.standard_normal((3, 4)), name="a")
    b = tape.leaf(rng.standard_normal(b_shape), name="b")
    c = op(a, b)
    a_value = weakref.ref(a.value)
    del a
    gc.collect()
    assert a_value() is None
    grads = ad.backward(tape, sum_all(c))
    # a 0-d b is broadcast over all 12 entries of a
    want = np.full(b_shape, sign * (12.0 if b_shape == () else 1.0))
    np.testing.assert_array_equal(grads.of(b), want)


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
        scores = ad.bmm(p["q"], ad.transpose(p["k"], (0, 2, 1)))
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
    rng = np.random.default_rng(seed)
    for kernel, stride in DECONV_GEOMETRIES:
        for n in (1, 2):
            params = {
                "x": rng.standard_normal((n, 2, 3, 3)),
                "k": rng.standard_normal((2, 3, kernel, kernel)),
            }
            side = 2 * stride + kernel
            r = rng.standard_normal((n, 3, side, side))

            def build(tape, p):
                out = ad.transposed_conv2d(p["x"], p["k"], stride=stride)
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
        h = ad.add(h, p["s"])
        return ad.mean_all(ad.mul(h, h))

    fd_check(build, params)
