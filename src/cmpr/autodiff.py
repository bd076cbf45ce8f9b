"""Dense float64 arrays with a minimal reverse-mode gradient tape.

Only the operations the model and losses actually need are implemented;
this is not a general autodiff framework.  Broadcasting is deliberately
narrow: ``add`` and ``sub`` take two Tensors of equal shape; ``mul`` also
takes a Python scalar or a 0-d Tensor; ``matmul`` batches over one shared
leading dimension; and ``add_bias`` adds a bias shaped like the trailing
dims.  Every op that computes new values checks them for NaN/Inf and
raises instead of propagating garbage.  The shape ops (``reshape``,
``transpose``) do not: their value is a view of a checked input, or, when
``reshape`` has to copy a transposed value, a copy of checked values.

A ``Tape`` records nodes in execution order, so topological order holds by
construction; ``backward`` walks the node list once, in reverse.  It runs
the backward rules with numpy's floating-point warnings off and checks
each leaf gradient once at the end, so a gradient that overflowed raises
``NonFiniteError`` naming the leaf; interior gradients go unchecked.

Three outputs are not kept for ``linear``'s weight gradient but rebuilt
when its rule runs (``Tensor.rebuild``): ``layer_norm`` recomputes
``xhat * gamma + beta`` from its normalized input ``xhat`` and its
parameters, ``gelu`` recomputes ``0.5 * x * (1 + t)`` from its input ``x``
and tanh term ``t``, and the 3-D ``matmul`` recomputes ``a @ b`` from its
operands; ``reshape`` passes a rebuild on.  The producer's own backward
rule keeps those arrays anyway, and its forward value comes from the same
expression, so a rebuild is bitwise equal to the forward value.
``linear`` is the only op that consumes a rebuild; every other op keeps
what it reads, and costlier outputs (the q/k/v projections, gelu's tanh)
are kept, not recomputed.
"""

from __future__ import annotations

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
    ``linear`` keeps it in place of ``value``, so ``value`` is freed with
    the Tensor.  ``layer_norm``, ``gelu`` and the 3-D ``matmul`` set it,
    and ``reshape`` passes it on.
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

    def _leaf_grad(self, t: Tensor) -> np.ndarray | None:
        if t.tape is not self._tape:
            raise ContractError("tensor was not recorded on this tape")
        node = self._tape.nodes[t.index]
        if node.backward_fn is not None:
            raise ContractError(
                f"gradients are kept for leaves only, not op '{node.op}'"
            )
        return self._by_node[t.index]

    def of(self, t: Tensor) -> np.ndarray:
        """Gradient w.r.t. leaf ``t``; zeros if the root does not depend on it."""
        g = self._leaf_grad(t)
        if g is None:
            return np.zeros_like(t.value)
        return g

    def reached(self, t: Tensor) -> bool:
        """Whether the root depends on leaf ``t``."""
        return self._leaf_grad(t) is not None


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


def neg(a: Tensor) -> Tensor:
    return a.tape.record("neg", -a.value, (a.index,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteError
        out = np.exp(a.value)
    return a.tape.record("exp", out, (a.index,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    if np.any(a.value <= 0.0):
        raise DomainError("log of non-positive value")
    av = a.value
    out = np.log(av)
    return a.tape.record("log", out, (a.index,), lambda g: (g / av,))


def gelu(a: Tensor) -> Tensor:
    """GELU activation, tanh approximation."""
    x = a.value
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

    def rebuild():
        out = 1.0 + t
        out *= x
        out *= 0.5
        return out

    def bwd(g):
        # 0.5*(1 + t) + 0.5*x*(1 - t^2)*C*(1 + 3*A*x^2), built in two buffers
        s = np.asarray(t * t)
        np.subtract(1.0, s, out=s)
        s *= x
        # tanh is exactly +-1 long before |x| reaches _GELU_X_SAT, so there
        # s is 0 and clipping x changes nothing; an x^2 that overflowed
        # would turn the saturated slope 1 (or 0) into Inf * 0 = NaN
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
        return (d,)

    return a.tape.record("gelu", rebuild(), (a.index,), bwd, rebuild)


# ---------------------------------------------------------------------------
# linear algebra and shape ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for two 2-D operands, or two 3-D operands batched over a
    shared leading dimension: (B, M, K) @ (B, K, N)."""
    tape = _same_tape(a, b)
    if a.value.ndim not in (2, 3) or b.value.ndim != a.value.ndim:
        raise DimensionError(
            f"matmul expects two 2-D or two 3-D operands, got {a.shape} and {b.shape}"
        )
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul shapes {a.shape} vs {b.shape}")
    av, bv = a.value, b.value
    with np.errstate(over="ignore", invalid="ignore"):  # surfaces as NonFiniteError
        out = av @ bv

    def bwd(g):
        return g @ bv.swapaxes(-1, -2), av.swapaxes(-1, -2) @ g

    # only the batched form: attention's context is the one a linear reads
    rebuild = (lambda: av @ bv) if av.ndim == 3 else None
    return tape.record("matmul", out, (a.index, b.index), bwd, rebuild)


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
    # a rebuildable x is read again only here, for dW, and not kept alive
    x_again = x.rebuild or (lambda: xv)

    def bwd(g):
        return g @ wv.T, x_again().T @ g, g.sum(axis=0)

    return tape.record("linear", out, (x.index, w.index, b.index), bwd)


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
    base = a.rebuild
    rebuild = None if base is None else (lambda: base().reshape(shape))
    return a.tape.append(
        "reshape", out, (a.index,), lambda g: (g.reshape(orig),), rebuild
    )


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
    out = x.value + b.value

    def bwd(g):
        return g, g.sum(axis=lead) if lead else g

    return tape.record("add_bias", out, (x.index, b.index), bwd)


def row_l2_normalize(x: Tensor) -> Tensor:
    """Scale every row of an N x D matrix to unit Euclidean norm."""
    if x.value.ndim != 2:
        raise DimensionError(f"row_l2_normalize expects 2-D, got {x.shape}")
    with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteError
        norms = np.linalg.norm(x.value, axis=1, keepdims=True)
    _check_finite(norms, "row_l2_normalize")
    if np.any(norms == 0.0):
        raise DegenerateInputError("zero-norm row cannot be normalized")
    y = x.value / norms

    def bwd(g):
        dot = np.sum(y * g, axis=1, keepdims=True)
        return ((g - y * dot) / norms,)

    return x.tape.record("row_l2_normalize", y, (x.index,), bwd)


def row_logsumexp(x: Tensor) -> Tensor:
    """log(sum(exp(row))) per row, with max-subtraction for stability."""
    if x.value.ndim != 2:
        raise DimensionError(f"row_logsumexp expects 2-D, got {x.shape}")
    m = np.max(x.value, axis=1, keepdims=True)
    e = np.exp(x.value - m)
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


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    m = np.max(x.value, axis=-1, keepdims=True)
    e = np.exp(x.value - m)
    s = e / np.sum(e, axis=-1, keepdims=True)

    def bwd(g):
        inner = np.sum(g * s, axis=-1, keepdims=True)
        return (s * (g - inner),)

    return x.tape.record("softmax", s, (x.index,), bwd)


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


def mean_axis(x: Tensor, axis: int) -> Tensor:
    n = x.shape[axis]
    out = x.value.mean(axis=axis)

    def bwd(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return x.tape.record("mean_axis", out, (x.index,), bwd)


def mean_all(x: Tensor) -> Tensor:
    n = x.value.size
    out = np.asarray(x.value.mean(), dtype=np.float64)
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
