"""Dense float64 arrays with a minimal reverse-mode gradient tape.

Only the operations the model and losses actually need are implemented;
this is not a general autodiff framework.  Broadcasting is deliberately
narrow: ``add`` and ``sub`` take two Tensors of equal shape; ``mul`` also
takes a Python scalar or a 0-d Tensor; ``matmul`` takes two 2-D operands;
``add_bias`` adds a bias shaped like the trailing dims; and
``concat_rows`` stacks 2-D Tensors of one width along the rows.
Every op that computes new values checks them for NaN/Inf and raises
instead of propagating garbage.  The shape ops (``reshape``,
``transpose``) do not: their value is a view of a checked input, or, when
``reshape`` has to copy a transposed value, a copy of checked values.

A ``Tape`` records nodes in execution order, so topological order holds by
construction; ``backward`` walks the node list once, in reverse.  It runs
the backward rules with numpy's floating-point warnings off and checks
each leaf gradient once at the end, so a gradient that overflowed raises
``NonFiniteError`` naming the leaf; interior gradients go unchecked.

A replayed tape is bitwise equal to the first run only at the same BLAS
thread count: OpenBLAS splits a gemm's sums by thread, so every op that
runs a gemm (``matmul``, ``linear``, ``attention``, ``mlp``) and all that
reads them can round otherwise on another count.  ``cmprbench`` pins the
count to 1.

``attention`` and ``mlp`` recompute their wide intermediates when their
rules run, rather than keep them: ``attention``'s rule keeps only the
(N, T, T) softmax weights and recomputes q/k/v and the context, and
``mlp``'s keeps no (rows, hidden) array and recomputes the pre-activation
and gelu's tanh term, each bitwise as the forward computed them.  Both
read their input again through ``Tensor.rebuild`` when it has one, as a
``layer_norm`` output does: ``layer_norm`` recomputes
``xhat * gamma + beta`` from its normalized input ``xhat`` and its
parameters, which its own rule keeps anyway, and its forward value comes
from the same expression, so a rebuild is bitwise equal to the forward
value.  Every other op keeps what it reads.

Importing this module sets glibc's heap policy for the process, once.  A
dropped tape frees hundreds of activation arrays; by default glibc maps
every array above its dynamic threshold (128 KiB at start) on its own and
trims the heap's free top, so each training step or validation chunk
hands its memory back to the OS and faults it in again as fresh zeroed
pages.  ``M_MMAP_THRESHOLD`` at 32 MiB (the ceiling glibc's dynamic
threshold stops at) keeps arrays below it on the heap, and
``M_TRIM_THRESHOLD`` at 1 GiB keeps their freed pages there for the next
tape to reuse; setting it also stops glibc from moving the mmap threshold.
Arrays of 32 MiB and more are still mapped and unmapped one by one.  Peak
RSS is unchanged: the next tape reuses the pages the last one freed.  The
cost is that the heap is never trimmed, so a process keeps its high-water
heap until it exits.  Where libc has no ``mallopt`` (macOS, Windows) or
ignores it (musl), nothing changes.
"""

from __future__ import annotations

import ctypes
import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    NonFiniteError,
)

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_GELU_X_SAT = 1e150  # gelu's backward clips x to this before squaring it

Scalar = (int, float)

_M_TRIM_THRESHOLD = -1  # glibc's mallopt parameter numbers
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Keep freed arrays below 32 MiB on the heap for reuse (see above)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_memory()


class Node:
    """One recorded operation: kind, input node ids, and the backward rule.

    Forward values needed by the backward rule are captured in the
    ``backward_fn`` closure.  Leaves have ``backward_fn is None``.
    """

    __slots__ = ("op", "parents", "backward_fn")

    def __init__(
        self,
        op: str,
        parents: tuple[int, ...],
        backward_fn: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None,
    ):
        self.op = op
        self.parents = parents
        self.backward_fn = backward_fn


class Tensor:
    """A float64 array recorded on a tape.

    Tensors are immutable views into the tape: they pair a node index with
    the forward value computed for that node.  ``rebuild``, when not None,
    is a zero-argument function that returns an array bitwise equal to
    ``value`` from arrays the producing op's backward rule holds anyway;
    ``attention`` and ``mlp`` keep it in place of ``value``, so ``value``
    is freed with the Tensor.  ``layer_norm`` sets it.
    """

    __slots__ = ("tape", "index", "value", "rebuild")

    def __init__(
        self,
        tape: "Tape",
        index: int,
        value: np.ndarray,
        rebuild: Callable[[], np.ndarray] | None = None,
    ):
        self.tape = tape
        self.index = index
        self.value = value
        self.rebuild = rebuild

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"Tensor(node={self.index}, shape={self.value.shape})"


class Tape:
    """Ordered record of operations; one backward pass per recorded root."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Node] = []

    def leaf(self, value, name: str = "leaf") -> Tensor:
        arr = np.asarray(value, dtype=np.float64)
        _check_finite(arr, name)
        return self.append(name, arr, (), None)

    def record(
        self,
        op: str,
        value: np.ndarray,
        parents: tuple[int, ...],
        backward_fn: Callable[[np.ndarray], tuple[np.ndarray, ...]],
        rebuild: Callable[[], np.ndarray] | None = None,
    ) -> Tensor:
        value = np.asarray(value, dtype=np.float64)
        _check_finite(value, op)
        return self.append(op, value, parents, backward_fn, rebuild)

    def append(
        self,
        op: str,
        value: np.ndarray,
        parents: tuple[int, ...],
        backward_fn: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None,
        rebuild: Callable[[], np.ndarray] | None = None,
    ) -> Tensor:
        """Record ``value`` unchecked: only for a float64 view of a value
        this tape already checked."""
        self.nodes.append(Node(op, parents, backward_fn))
        return Tensor(self, len(self.nodes) - 1, value, rebuild)


class Gradients:
    """Leaf gradients from one backward pass.

    Only leaves (parameters, inputs, constants) keep a gradient: ``backward``
    drops each interior node's gradient once its rule has run.  Asking for
    an interior tensor, or one from another tape, raises ``ContractError``
    rather than answering with zeros.
    """

    def __init__(self, tape: Tape, by_node: list[np.ndarray | None]):
        self._tape = tape
        self._by_node = by_node

    def of(self, t: Tensor) -> np.ndarray:
        """Gradient w.r.t. leaf ``t``; zeros if the root does not depend on it."""
        if t.tape is not self._tape:
            raise ContractError("tensor was not recorded on this tape")
        node = self._tape.nodes[t.index]
        if node.backward_fn is not None:
            raise ContractError(
                f"gradients are kept for leaves only, not op '{node.op}'"
            )
        g = self._by_node[t.index]
        return np.zeros_like(t.value) if g is None else g


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


def _same_tape(*ts: Tensor) -> Tape:
    for t in ts:
        if not isinstance(t, Tensor):
            raise ContractError(f"expected a Tensor operand, got {type(t).__name__}")
        if t.tape is not ts[0].tape:
            raise ContractError("tensors belong to different tapes")
    return ts[0].tape


def backward(tape: Tape, root: Tensor) -> Gradients:
    """Gradient of a scalar root w.r.t. every leaf that feeds it.

    Visits each node exactly once, in reverse recording order, which is a
    valid topological order because inputs always precede their consumers.
    An interior node's gradient is dropped as soon as its rule has run, so
    at most one frontier of gradients is alive at a time.  The tape itself
    is left intact: a second ``backward`` on it gives the same result.
    Raises ``NonFiniteError`` naming the first leaf whose gradient is not
    finite.
    """
    if root.tape is not tape:
        raise ContractError("root tensor was not recorded on this tape")
    if root.value.ndim != 0:
        raise ContractError(
            f"backward root must be scalar, got shape {root.value.shape}"
        )
    grads: list[np.ndarray | None] = [None] * len(tape.nodes)
    grads[root.index] = np.ones((), dtype=np.float64)
    with np.errstate(all="ignore"):  # surfaces at the leaf check below
        for i in range(root.index, -1, -1):
            g = grads[i]
            if g is None:
                continue
            node = tape.nodes[i]
            if node.backward_fn is None:
                continue
            grads[i] = None
            for pidx, pg in zip(node.parents, node.backward_fn(g)):
                if grads[pidx] is None:
                    grads[pidx] = pg
                else:
                    grads[pidx] = grads[pidx] + pg
    # every interior gradient was dropped above, so what is left is a leaf's
    for node, g in zip(tape.nodes, grads):
        if g is not None and not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient reached leaf '{node.op}'")
    return Gradients(tape, grads)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise DimensionError(f"add shapes {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteError
        out = a.value + b.value
    # the rule needs no input value, so it captures none
    return tape.record("add", out, (a.index, b.index), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise DimensionError(f"sub shapes {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteError
        out = a.value - b.value
    return tape.record("sub", out, (a.index, b.index), lambda g: (g, -g))


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        if not isinstance(b, Scalar):
            raise ContractError(f"cannot multiply Tensor by {type(b).__name__}")
        s = float(b)
        with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteError
            out = a.value * s
        return a.tape.record("scale", out, (a.index,), lambda g: (g * s,))
    tape = _same_tape(a, b)
    if a.shape != b.shape and a.value.ndim and b.value.ndim:
        raise DimensionError(f"mul shapes {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteError
        out = a.value * b.value
    av, bv = a.value, b.value

    def bwd(g):
        ga = g * bv
        gb = g * av
        if av.ndim == 0 and bv.ndim != 0:
            ga = np.sum(ga)
        if bv.ndim == 0 and av.ndim != 0:
            gb = np.sum(gb)
        return ga, gb

    return tape.record("mul", out, (a.index, b.index), bwd)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteError
        out = np.exp(a.value)
    return a.tape.record("exp", out, (a.index,), lambda g: (g * out,))


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """gelu's tanh term ``tanh(C * (x + A * x^3))``, in a new array."""
    # x*x*x, not x**3: numpy sends a float power of 3 through libm pow.
    # asarray because x*x on a 0-d x is a numpy scalar, which has no buffer
    # for the in-place updates below.
    with np.errstate(over="ignore"):  # tanh saturates an infinite cubic
        t = np.asarray(x * x)
        t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def _gelu_value(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``0.5 * x * (1 + t)``, finite wherever ``x`` is."""
    # halving 1 + t first is exact, and keeps x * (1 + t) from overflowing
    # where the value itself is finite
    out = 1.0 + t
    out *= 0.5
    out *= x
    return out


def _gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g`` times gelu's slope at ``x``, whose tanh term is ``t``."""
    # 0.5*(1 + t) + 0.5*x*(1 - t^2)*C*(1 + 3*A*x^2), built in two buffers
    s = np.asarray(t * t)
    np.subtract(1.0, s, out=s)
    s *= x
    # tanh is exactly +-1 long before |x| reaches _GELU_X_SAT, so there s is
    # 0 and clipping x changes nothing; an x^2 that overflowed would turn
    # the saturated slope 1 (or 0) into Inf * 0 = NaN
    d = np.asarray(np.clip(x, -_GELU_X_SAT, _GELU_X_SAT))
    d *= d
    d *= 3.0 * _GELU_A
    d += 1.0
    d *= _GELU_C
    d *= s
    d += t
    d += 1.0
    d *= 0.5
    d *= g
    return d


def gelu(a: Tensor) -> Tensor:
    """GELU activation, tanh approximation."""
    x = a.value
    t = _gelu_tanh(x)
    return a.tape.record(
        "gelu", _gelu_value(x, t), (a.index,), lambda g: (_gelu_grad(x, t, g),)
    )


# ---------------------------------------------------------------------------
# linear algebra and shape ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for two 2-D operands."""
    tape = _same_tape(a, b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise DimensionError(
            f"matmul expects two 2-D operands, got {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes {a.shape} vs {b.shape}")
    av, bv = a.value, b.value
    with np.errstate(over="ignore", invalid="ignore"):  # surfaces as NonFiniteError
        out = av @ bv

    def bwd(g):
        return g @ bv.T, av.T @ g

    return tape.record("matmul", out, (a.index, b.index), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a 2-D x and w and a 1-D b, as one node.

    The bias is added in place into the product, so the layer allocates
    one output array and checks it once; the arithmetic is that of
    ``add_bias(matmul(x, w), b)``.
    """
    tape = _same_tape(x, w, b)
    if x.value.ndim != 2 or w.value.ndim != 2:
        raise DimensionError(
            f"linear expects 2-D x and w, got {x.shape} and {w.shape}"
        )
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"linear inner dims {x.shape} vs {w.shape}")
    if b.shape != (w.shape[1],):
        raise DimensionError(f"linear bias shape {b.shape} for weight {w.shape}")
    xv, wv = x.value, w.value
    with np.errstate(over="ignore", invalid="ignore"):  # surfaces as NonFiniteError
        out = xv @ wv
        out += b.value

    def bwd(g):
        return g @ wv.T, xv.T @ g, g.sum(axis=0)

    return tape.record("linear", out, (x.index, w.index, b.index), bwd)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack 2-D Tensors of equal width along the rows.

    The backward rule hands each part its rows of the gradient as views.
    """
    if not parts:
        raise ContractError("concat_rows needs at least one Tensor")
    tape = _same_tape(*parts)
    width = parts[0].shape[1:]
    if any(p.value.ndim != 2 or p.shape[1:] != width for p in parts):
        raise DimensionError(
            f"concat_rows expects 2-D parts of one width, got "
            f"{[p.shape for p in parts]}"
        )
    out = np.concatenate([p.value for p in parts])
    ends = np.cumsum([p.shape[0] for p in parts[:-1]])
    return tape.record(
        "concat_rows", out, tuple(p.index for p in parts),
        lambda g: tuple(np.split(g, ends)),
    )


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(int(i) for i in np.argsort(axes))
    out = a.value.transpose(axes)
    return a.tape.append(
        "transpose", out, (a.index,), lambda g: (g.transpose(inv),)
    )


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != a.value.size:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}")
    orig = a.value.shape
    out = a.value.reshape(shape)
    return a.tape.append("reshape", out, (a.index,), lambda g: (g.reshape(orig),))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a bias whose shape equals the trailing dims of ``x``.

    The backward rule sums the gradient over the broadcast leading axes;
    this is the one sanctioned exception to the equal-shape rule.
    """
    tape = _same_tape(x, b)
    k = b.value.ndim
    if k == 0 or k > x.value.ndim or x.shape[x.value.ndim - k :] != b.shape:
        raise DimensionError(f"bias shape {b.shape} does not trail {x.shape}")
    lead = tuple(range(x.value.ndim - k))
    with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteError
        out = x.value + b.value

    def bwd(g):
        return g, g.sum(axis=lead) if lead else g

    return tape.record("add_bias", out, (x.index, b.index), bwd)


def row_l2_normalize(x: Tensor) -> Tensor:
    """Scale every row of an N x D matrix to unit Euclidean norm."""
    if x.value.ndim != 2:
        raise DimensionError(f"row_l2_normalize expects 2-D, got {x.shape}")
    v = x.value
    with np.errstate(over="ignore"):  # an overflow is rescaled below
        norms = np.linalg.norm(v, axis=1, keepdims=True)
    scale = None
    if np.isinf(norms).any():
        # a finite row whose sum of squares overflows is normalised scaled
        # by the power of two that brings its largest entry into [0.5, 1);
        # the other rows are scaled by 1 and keep their bits
        _, exponent = np.frexp(np.abs(v).max(axis=1, keepdims=True))
        scale = np.where(np.isinf(norms), np.ldexp(1.0, -exponent), 1.0)
        v = v * scale
        norms = np.linalg.norm(v, axis=1, keepdims=True)
    _check_finite(norms, "row_l2_normalize")
    if np.any(norms == 0.0):
        raise DegenerateInputError("zero-norm row cannot be normalized")
    y = v / norms

    def bwd(g):
        dot = np.sum(y * g, axis=1, keepdims=True)
        dx = (g - y * dot) / norms
        if scale is not None:  # the row's true norm is norms / scale
            dx *= scale
        return (dx,)

    return x.tape.record("row_l2_normalize", y, (x.index,), bwd)


def row_logsumexp(x: Tensor) -> Tensor:
    """log(sum(exp(row))) per row, with max-subtraction for stability.

    A transposed input is copied to rows first, so each row is summed in
    the order of a contiguous row, and the result is bitwise that of the
    transposed matrix's contiguous copy.
    """
    if x.value.ndim != 2:
        raise DimensionError(f"row_logsumexp expects 2-D, got {x.shape}")
    xv = np.ascontiguousarray(x.value)
    m = np.max(xv, axis=1, keepdims=True)
    with np.errstate(over="ignore"):  # x - m overflows only to -inf; exp gives 0
        e = np.exp(xv - m)
    s = np.sum(e, axis=1, keepdims=True)
    out = (m + np.log(s)).reshape(-1)
    soft = e / s

    def bwd(g):
        return (soft * g[:, None],)

    return x.tape.record("row_logsumexp", out, (x.index,), bwd)


def take_diagonal(x: Tensor) -> Tensor:
    if x.value.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionError(f"take_diagonal expects square matrix, got {x.shape}")
    n = x.shape[0]
    out = np.diagonal(x.value).copy()

    def bwd(g):
        full = np.zeros((n, n), dtype=np.float64)
        np.fill_diagonal(full, g)
        return (full,)

    return x.tape.record("take_diagonal", out, (x.index,), bwd)


def attention(
    x: Tensor, ws: Sequence[Tensor], bs: Sequence[Tensor], n: int
) -> Tensor:
    """Single-head self-attention within each of ``n`` samples, as one node.

    ``x`` is the (n*T, D) token matrix, ``ws`` the (D, D) weights ``wq``,
    ``wk``, ``wv``, ``wo`` and ``bs`` the (D,) biases ``bq``, ``bv``, ``bo``
    (a key bias shifts a softmax row evenly, so no gradient reaches it).  Per
    sample the output is ``softmax(q k^T / sqrt(D)) v @ wo + bo``.

    The rule keeps the (n, T, T) softmax weights, the parameter values and
    ``x``'s rebuild (``x``'s value if it has none), and no other (n*T, D)
    array: it recomputes q/k/v from ``x``, bitwise as the forward did, and
    the context from them.  The gradients of q, k and v are filled into one
    (n*T, 3D) block, so ``x``'s comes from one gemm and the three weights'
    from one ``x.T @ g``.
    """
    tape = _same_tape(x, *ws, *bs)
    if len(ws) != 4 or len(bs) != 3:
        raise ContractError(
            f"attention takes 4 weights and 3 biases, got {len(ws)} and {len(bs)}"
        )
    if x.value.ndim != 2:
        raise DimensionError(f"attention expects a 2-D x, got {x.shape}")
    rows, d = x.shape
    if n < 1 or rows % n:
        raise DimensionError(f"attention cannot split {rows} rows into {n} samples")
    if any(w.shape != (d, d) for w in ws) or any(b.shape != (d,) for b in bs):
        raise DimensionError(
            f"attention weights {[w.shape for w in ws]} and biases "
            f"{[b.shape for b in bs]} for x {x.shape}"
        )
    t = rows // n
    xv = x.value
    wvals, bvals = [w.value for w in ws], [b.value for b in bs]
    scale = 1.0 / math.sqrt(d)

    def project(xv):
        """[wq|wk|wv], the (n*T, 3D) q/k/v block and its three (n, T, D) views."""
        w3 = np.concatenate(wvals[:3], axis=1)
        qkv = xv @ w3
        qkv += np.concatenate([bvals[0], np.zeros(d), bvals[1]])  # no key bias
        return w3, qkv, [p.reshape(n, t, d) for p in np.split(qkv, 3, axis=1)]

    with np.errstate(over="ignore", invalid="ignore"):  # surfaces as NonFiniteError
        _, qkv, (q, k, v) = project(xv)
        _check_finite(qkv, "attention")
        a = q @ k.swapaxes(1, 2)
        a *= scale
        # a - max overflows only to -inf, whose exp is exactly 0
        a -= a.max(axis=-1, keepdims=True)
        np.exp(a, out=a)
        a /= a.sum(axis=-1, keepdims=True)
        out = (a @ v).reshape(rows, d) @ wvals[3]
        out += bvals[2]
    x_again = x.rebuild or (lambda: xv)

    def bwd(g):
        xr = x_again()
        w3, qkv, (q, k, v) = project(xr)
        ctx = (a @ v).reshape(rows, d)
        dctx = (g @ wvals[3].T).reshape(n, t, d)
        ds = dctx @ v.swapaxes(1, 2)  # d softmax weights, then d scores
        ds -= (ds * a).sum(axis=-1, keepdims=True)
        ds *= a
        ds *= scale
        dqkv = np.empty_like(qkv)
        dq, dk, dv = (p.reshape(n, t, d) for p in np.split(dqkv, 3, axis=1))
        dq[...] = ds @ k
        dk[...] = ds.swapaxes(1, 2) @ q
        dv[...] = a.swapaxes(1, 2) @ dctx
        return (
            dqkv @ w3.T,
            *np.split(xr.T @ dqkv, 3, axis=1), ctx.T @ g,
            *np.split(dqkv.sum(axis=0), 3)[::2], g.sum(axis=0),
        )

    parents = (x.index, *(w.index for w in ws), *(b.index for b in bs))
    return tape.record("attention", out, parents, bwd)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``linear(gelu(linear(x, w1, b1)), w2, b2)`` as one node.

    The forward makes those three ops' numpy calls in their order, so its
    value is bitwise theirs; it checks the pre-activation and the output.
    The rule keeps the parameter values and ``x``'s rebuild (``x``'s value
    if it has none), and no (rows, hidden) array: it recomputes the
    pre-activation and gelu's tanh term from ``x``, bitwise as the forward
    did, and returns bitwise the gradients the three ops' rules return.
    """
    tape = _same_tape(x, w1, b1, w2, b2)
    if (x.value.ndim != 2 or w1.value.ndim != 2 or w2.value.ndim != 2
            or x.shape[1] != w1.shape[0] or w2.shape[0] != w1.shape[1]
            or b1.shape != (w1.shape[1],) or b2.shape != (w2.shape[1],)):
        raise DimensionError(
            f"mlp shapes x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, "
            f"w2 {w2.shape}, b2 {b2.shape}"
        )
    xv = x.value
    w1v, b1v, w2v, b2v = w1.value, b1.value, w2.value, b2.value

    def pre_activation(xv):
        with np.errstate(over="ignore", invalid="ignore"):  # surfaces as NonFiniteError
            u = xv @ w1v
            u += b1v
        return u

    u = pre_activation(xv)
    _check_finite(u, "mlp")
    with np.errstate(over="ignore", invalid="ignore"):  # surfaces as NonFiniteError
        out = _gelu_value(u, _gelu_tanh(u)) @ w2v
        out += b2v
    x_again = x.rebuild or (lambda: xv)

    def bwd(g):
        xr = x_again()
        u = pre_activation(xr)
        t = _gelu_tanh(u)
        dw2 = _gelu_value(u, t).T @ g
        d = _gelu_grad(u, t, g @ w2v.T)
        return d @ w1v.T, xr.T @ d, d.sum(axis=0), dw2, g.sum(axis=0)

    parents = (x.index, w1.index, b1.index, w2.index, b2.index)
    return tape.record("mlp", out, parents, bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply learnable scale and shift."""
    tape = _same_tape(x, gamma, beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm affine params must have shape ({d},), "
            f"got {gamma.shape} and {beta.shape}"
        )
    with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteError
        mu = x.value.mean(axis=-1, keepdims=True)
        xhat = x.value - mu
        var = (xhat * xhat).mean(axis=-1, keepdims=True)
    _check_finite(var, "layer_norm")
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    gv, bv = gamma.value, beta.value

    def rebuild():
        out = xhat * gv
        out += bv
        return out

    lead = tuple(range(x.value.ndim - 1))

    def bwd(g):
        gx = g * xhat
        dgamma = gx.sum(axis=lead) if lead else gx
        dbeta = g.sum(axis=lead) if lead else g
        m2 = (gx * gv).mean(axis=-1, keepdims=True)  # mean(dxhat * xhat)
        dx = g * gv  # dxhat
        dx -= dx.mean(axis=-1, keepdims=True)
        dx -= xhat * m2
        dx *= inv
        return dx, dgamma, dbeta

    return tape.record(
        "layer_norm", rebuild(), (x.index, gamma.index, beta.index), bwd, rebuild
    )


def _mean(v: np.ndarray, n: int, axis: int | None = None) -> np.ndarray:
    """``v.mean(axis)`` over ``n`` values; where the sum overflowed, the mean
    of ``v`` scaled down by a power of two above ``n``, scaled back up.

    ``v`` is finite, so its mean is too.  Power-of-two scaling is exact
    (short of subnormals), so the fallback rounds as the plain mean would
    with an unbounded exponent, and every other entry keeps its bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf - inf
        out = v.mean(axis=axis)
    bad = ~np.isfinite(out)
    if bad.any():
        scale = 2.0 ** n.bit_length()
        out = np.where(bad, (v / scale).mean(axis=axis) * scale, out)
    return out


def mean_axis(x: Tensor, axis: int) -> Tensor:
    n = x.shape[axis]
    out = _mean(x.value, n, axis)

    def bwd(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return x.tape.record("mean_axis", out, (x.index,), bwd)


def mean_all(x: Tensor) -> Tensor:
    n = x.value.size
    out = _mean(x.value, n)
    shape = x.value.shape

    def bwd(g):
        return (np.broadcast_to(g / n, shape).copy(),)

    return x.tape.record("mean_all", out, (x.index,), bwd)


# ---------------------------------------------------------------------------
# finite differences (the independent gradient oracle)
# ---------------------------------------------------------------------------


def finite_difference_gradient(
    f: Callable[[dict[str, np.ndarray]], float],
    params: dict[str, np.ndarray],
    h: float = 1e-5,
    adaptive: bool = False,
    coords: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Central-difference gradient (f(t+h) - f(t-h)) / 2h per coordinate.

    With ``adaptive`` the step is scaled per coordinate as h*(1+|theta|).
    ``coords`` optionally restricts each parameter to a set of flat indices
    (untouched coordinates come back as NaN so callers cannot mistake them
    for computed zeros).
    """
    if h <= 0.0:
        raise DomainError(f"finite-difference step must be positive, got {h}")
    grads: dict[str, np.ndarray] = {}
    work = {k: v.astype(np.float64).copy() for k, v in params.items()}
    for name, theta in work.items():
        flat = theta.reshape(-1)
        if coords is not None and name in coords:
            idxs = np.asarray(coords[name], dtype=np.int64)
            g = np.full(flat.shape, np.nan, dtype=np.float64)
        else:
            idxs = np.arange(flat.size)
            g = np.zeros(flat.shape, dtype=np.float64)
        for i in idxs:
            orig = flat[i]
            step = h * (1.0 + abs(orig)) if adaptive else h
            flat[i] = orig + step
            f_plus = f(work)
            flat[i] = orig - step
            f_minus = f(work)
            flat[i] = orig
            g[i] = (f_plus - f_minus) / (2.0 * step)
        grads[name] = g.reshape(theta.shape)
    return grads
