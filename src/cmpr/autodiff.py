"""Dense float64 arrays with a minimal reverse-mode gradient tape.

Only the operations the model and losses actually need are implemented;
this is not a general autodiff framework.  Broadcasting is deliberately
narrow: ``add`` and ``sub`` take two Tensors of equal shape; ``mul`` also
takes a Python scalar, or a 0-d Tensor on the right; ``matmul`` takes two
2-D operands; ``add_bias`` adds a bias shaped like the trailing dims; and
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

A wide tape, one whose widest recorded value holds ``_TWO_WORKER_MIN``
elements or more, runs its backward on two workers when the process may
use two CPUs: the calling thread and one helper thread, started for that
backward and joined before it returns.  The independent branches of a
step (one encoder pass per stream side) then run their rules at once, and
numpy and BLAS release the interpreter lock inside each kernel.  No bit
moves: every rule runs once on the gradient the serial walk would give
it, and every contribution to a node is added in the serial walk's
order, so each gradient is the same sum of the same arrays.  Below the
constant, the serial walk is faster (hand-offs between the workers cost
more than the kernels they overlap), and it starts no thread.

The forward can run on two workers too, where its work splits into parts
that share no interior node: ``model.encode`` records each tile of a batch
on a ``part`` of the tape on either of two threads, then ``splice``
appends the parts in order, each parameter leaf bound to the tape's own.
The spliced tape is node for node the one a single thread records, so the
backward (on one worker or two) cannot tell them apart.

A replayed tape is bitwise equal to the first run only at the same BLAS
thread count: OpenBLAS splits a gemm's sums by thread, so every op that
runs a gemm (``matmul``, ``linear``, ``attention``, ``mlp``) and all that
reads them can round otherwise on another count.  ``cmprbench`` pins the
count to 1.  At either count, a two-worker backward is bitwise the
serial one.

``attention`` and ``mlp`` are the encoder's two pre-norm sublayers, each
one node: ``x + f(layer_norm(x))``, with ``f`` the self-attention or the
two-layer GELU MLP.  They recompute their wide intermediates when their
rules run, rather than keep them.  Each rule keeps the layer norm's
normalized rows ``xhat`` and inverse deviations and the parameter values,
and ``attention``'s also its (N, T, T) softmax weights.  From these it
recomputes the norm's output ``xhat * gamma + beta``, then ``f``'s
intermediates (q/k/v and the context, or the pre-activation and gelu's
tanh term), each bitwise as the forward computed them.  It frees them
before the norm's gradient, which both sublayers share, and adds the
residual's gradient into that of ``x``.  Every other op keeps what it
reads.

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
heap until it exits.  ``M_ARENA_MAX`` at 1 keeps every thread on that one
heap: the backward's helper thread would otherwise get an arena of its
own, whose freed pages the calling thread cannot reuse.  These settings
hold for the whole process, not for ``cmpr`` alone: with one arena, every
thread that allocates (data loaders, BLAS threads, a caller's own pool)
takes that arena's lock, which may serialise their allocations.  Where
libc has no ``mallopt`` (macOS, Windows) or ignores it (musl), nothing
changes.
"""

from __future__ import annotations

import ctypes
import heapq
import math
import os
import threading
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
_LN_EPS = 1e-5  # added to each row's variance in the sublayers' layer norm

Scalar = (int, float)

_M_TRIM_THRESHOLD = -1  # glibc's mallopt parameter numbers
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8

# The widest value, in elements, from which a backward runs on two
# workers.  On a 2-vCPU host, two workers made a four-stream step take 12%
# longer at batch 8 (widest value 8,192; median of 10 benchmark process
# pairs), and 9% and 20% less time at batch 16 (16,384) and 32 (32,768).
_TWO_WORKER_MIN = 1 << 14


def _keep_freed_memory() -> None:
    """Keep freed arrays below 32 MiB on the one heap for reuse (see above)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_ARENA_MAX, 1)


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
    the forward value computed for that node.
    """

    __slots__ = ("tape", "index", "value")

    def __init__(self, tape: "Tape", index: int, value: np.ndarray):
        self.tape = tape
        self.index = index
        self.value = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"Tensor(node={self.index}, shape={self.value.shape})"


class Tape:
    """Ordered record of operations; one backward pass per recorded root.

    ``widest`` is the size of the widest value ``record`` has checked;
    ``backward`` runs on two workers from ``_TWO_WORKER_MIN`` elements up.
    """

    __slots__ = ("nodes", "widest")

    def __init__(self):
        self.nodes: list[Node] = []
        self.widest = 0

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
    ) -> Tensor:
        value = np.asarray(value, dtype=np.float64)
        _check_finite(value, op)
        if value.size > self.widest:
            self.widest = value.size
        return self.append(op, value, parents, backward_fn)

    def append(
        self,
        op: str,
        value: np.ndarray,
        parents: tuple[int, ...],
        backward_fn: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None,
    ) -> Tensor:
        """Record ``value`` unchecked: only for a float64 view of a value
        this tape already checked."""
        self.nodes.append(Node(op, parents, backward_fn))
        return Tensor(self, len(self.nodes) - 1, value)

    def part(self) -> "_Part":
        """An empty tape to record nodes on apart from this one, for
        ``splice`` to append here later.  The part keeps each node's value
        only where this tape's class overrides ``append``: ``Tape.append``
        reads a value only into the Tensor it returns."""
        return _Part(keep_values=type(self).append is not Tape.append)

    def splice(
        self, part: "_Part", out: Tensor, names: dict[int, str],
        bind: Callable[[str], Tensor],
    ) -> Tensor:
        """Append the nodes of ``part`` (made by ``part()``) in their order,
        each through ``append`` with its parents renumbered, and return this
        tape's Tensor for ``out``, a Tensor on ``part``.

        The leaf at each index in ``names`` is not appended: it stands for
        ``bind(name)``, a Tensor on this tape, which ``bind`` may record
        right then.  ``widest`` becomes the wider of the two tapes'.
        """
        values = part.values or [None] * len(part.nodes)
        index: list[int] = []
        for i, (node, value) in enumerate(zip(part.nodes, values)):
            if i in names:
                index.append(bind(names[i]).index)
            else:
                parents = tuple(index[p] for p in node.parents)
                index.append(self.append(node.op, value, parents, node.backward_fn).index)
        self.widest = max(self.widest, part.widest)
        return Tensor(self, index[out.index], out.value)


class _Part(Tape):
    """A tape whose nodes ``Tape.splice`` appends to another; ``values``
    holds each node's value when kept, else is None."""

    __slots__ = ("values",)

    def __init__(self, keep_values: bool):
        super().__init__()
        self.values: list[np.ndarray] | None = [] if keep_values else None

    def append(self, op, value, parents, backward_fn) -> Tensor:
        if self.values is not None:
            self.values.append(value)
        return super().append(op, value, parents, backward_fn)


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
    A wide tape runs on two workers (see the module docstring); its
    gradients are bitwise the serial walk's, and the first exception a rule
    raises on either worker is re-raised here once both have stopped.  A
    rule must return one gradient per input (else ``ContractError``).
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
    if tape.widest >= _TWO_WORKER_MIN and _cpus() > 1:
        _walk_on_two_workers(tape.nodes, grads, root.index)
    else:
        with np.errstate(all="ignore"):  # surfaces at the leaf check below
            for i in range(root.index, -1, -1):
                g = grads[i]
                if g is None:
                    continue
                node = tape.nodes[i]
                if node.backward_fn is None:
                    continue
                grads[i] = None
                for pidx, pg in zip(node.parents, _run_rule(node, g)):
                    if grads[pidx] is None:
                        grads[pidx] = pg
                    else:
                        grads[pidx] = grads[pidx] + pg
    # every interior gradient was dropped above, so what is left is a leaf's
    for node, g in zip(tape.nodes, grads):
        if g is not None and not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient reached leaf '{node.op}'")
    return Gradients(tape, grads)


def _run_rule(node: Node, g: np.ndarray) -> Sequence[np.ndarray]:
    """``node``'s rule on its gradient ``g``: one gradient per parent, else
    ``ContractError``."""
    pgs = node.backward_fn(g)
    if len(pgs) != len(node.parents):
        raise ContractError(
            f"the rule of op '{node.op}' returned {len(pgs)} gradients "
            f"for {len(node.parents)} inputs"
        )
    return pgs


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        return os.cpu_count() or 1


def _walk_on_two_workers(
    nodes: list[Node], grads: list[np.ndarray | None], root: int
) -> None:
    """``backward``'s serial walk, run by the calling thread and a helper
    thread that is joined before this returns.

    A plan pass walks the reached nodes in reverse, as the serial walk
    does, and gives each contribution to a parent its turn: its position
    in the serial walk's sum for that parent.  A node is ready once its
    gradient holds every contribution.  Each worker takes the ready node of
    highest index, runs its rule outside the lock, then adds each
    contribution in its turn; one that comes early waits in ``early``
    until those before it are added.
    """
    turns: dict[int, list[int]] = {}  # rule node -> turn of each parent slot
    need = [0] * len(nodes)  # contributions each node gets; reached if > 0
    for i in range(root, -1, -1):
        if (need[i] or i == root) and nodes[i].backward_fn is not None:
            slots = turns[i] = []
            for p in nodes[i].parents:
                slots.append(need[p])
                need[p] += 1

    added = [0] * len(nodes)
    early: dict[tuple[int, int], np.ndarray] = {}
    ready = [-root]  # a heap of negated node indices: highest index first
    left = len(turns)  # rules still to run
    failure: list[BaseException] = []
    cond = threading.Condition()

    def add_in_turn(p: int, turn: int, pg: np.ndarray) -> None:
        if turn != added[p]:
            early[p, turn] = pg
            return
        while True:
            grads[p] = pg if grads[p] is None else grads[p] + pg
            added[p] += 1
            if (p, added[p]) not in early:
                break
            pg = early.pop((p, added[p]))
        if added[p] == need[p] and nodes[p].backward_fn is not None:
            heapq.heappush(ready, -p)
            cond.notify()

    def work() -> None:
        nonlocal left
        # numpy's error state is per thread: the helper starts with the default
        with np.errstate(all="ignore"):  # surfaces at backward's leaf check
            try:
                while True:
                    with cond:
                        while not ready and left and not failure:
                            cond.wait()
                        if failure or not left:
                            return
                        i = -heapq.heappop(ready)
                        g, grads[i] = grads[i], None
                    pgs = _run_rule(nodes[i], g)
                    g = None
                    with cond:
                        for p, turn, pg in zip(nodes[i].parents, turns[i], pgs):
                            add_in_turn(p, turn, pg)
                        pgs = pg = None  # hold no gradient while waiting
                        left -= 1
                        if not left:
                            cond.notify_all()
            except BaseException as exc:  # re-raised in the caller below
                with cond:
                    failure.append(exc)
                    cond.notify_all()

    # work() catches its own exceptions, so the helper is always joined;
    # after a failure it stops once the rule it is running returns
    helper = threading.Thread(target=work, name="cmpr-backward")
    helper.start()
    work()
    helper.join()
    if failure:
        raise failure[0]


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
    if a.shape != b.shape and b.value.ndim:  # a 0-d b scales every entry of a
        raise DimensionError(f"mul shapes {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteError
        out = a.value * b.value
    av, bv = a.value, b.value

    def bwd(g):
        gb = g * av
        if bv.ndim == 0 and av.ndim != 0:
            gb = np.sum(gb)
        return g * bv, gb

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


def _gelu_grad(
    x: np.ndarray, t: np.ndarray, g: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``g`` times gelu's slope at ``x``, whose tanh term is ``t``; in
    ``out`` when given, which may be ``x`` itself."""
    # 0.5*(1 + t) + 0.5*x*(1 - t^2)*C*(1 + 3*A*x^2), built in two buffers
    s = np.asarray(t * t)
    np.subtract(1.0, s, out=s)
    s *= x
    # tanh is exactly +-1 long before |x| reaches _GELU_X_SAT, so there s is
    # 0 and clipping x changes nothing; an x^2 that overflowed would turn
    # the saturated slope 1 (or 0) into Inf * 0 = NaN
    d = np.asarray(np.clip(x, -_GELU_X_SAT, _GELU_X_SAT, out=out))
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


def _layer_norm(xv, gv, bv, op: str):
    """The sublayers' layer norm of the rows of ``xv``: the normalized rows
    ``xhat``, their inverse deviations ``inv`` and the output.  An infinite
    variance (it would scale every entry to 0) raises ``NonFiniteError``
    naming ``op``.  An output that overflows is left to the sublayer's next
    check: it makes its rows of the gemm it feeds non-finite."""
    with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteError
        mu = xv.mean(axis=-1, keepdims=True)
        xhat = xv - mu
        var = (xhat * xhat).mean(axis=-1, keepdims=True)
        _check_finite(var, op)
        inv = 1.0 / np.sqrt(var + _LN_EPS)
        xhat *= inv
        return xhat, inv, _affine(xhat, gv, bv)


def _affine(xhat, gv, bv):
    """The layer norm's output ``xhat * gamma + beta``, in a new array."""
    out = xhat * gv
    out += bv
    return out


def _norm_grad(dh, g, xhat, inv, gv):
    """The ``x``, ``gamma`` and ``beta`` gradients of a sublayer
    ``x + f(xhat * gamma + beta)`` with output gradient ``g``, from the
    gradient ``dh`` of ``f``'s input."""
    gx = dh * xhat
    dgamma = gx.sum(axis=0)
    dbeta = dh.sum(axis=0)
    m2 = (gx * gv).mean(axis=-1, keepdims=True)  # mean(dxhat * xhat)
    dx = dh * gv  # dxhat
    dx -= dx.mean(axis=-1, keepdims=True)
    dx -= xhat * m2
    dx *= inv
    dx += g  # the residual
    return dx, dgamma, dbeta


def attention(
    x: Tensor, gamma: Tensor, beta: Tensor, ws: Sequence[Tensor],
    bs: Sequence[Tensor], n: int,
) -> Tensor:
    """The pre-norm self-attention sublayer ``x + attn(layer_norm(x))`` as
    one node, single-head within each of ``n`` samples.

    ``x`` is the (n*T, D) token matrix, ``gamma`` and ``beta`` the (D,)
    norm scale and shift, ``ws`` the (D, D) weights ``wq``, ``wk``, ``wv``,
    ``wo`` and ``bs`` the (D,) biases ``bq``, ``bv``, ``bo`` (a key bias
    shifts a softmax row evenly, so no gradient reaches it).  Per sample,
    with ``h = layer_norm(x)``, ``attn`` is
    ``softmax(q k^T / sqrt(D)) v @ wo + bo``.

    The rule keeps the norm's ``xhat`` and inverse deviations, the
    (n, T, T) softmax weights and the parameter values, and no other
    (n*T, D) array: it recomputes ``h``, q/k/v from it and the context from
    them, bitwise as the forward did.  The gradients of q, k and v are
    filled into one (n*T, 3D) block, so ``h``'s comes from one gemm and the
    three weights' from one ``h.T @ g``.
    """
    tape = _same_tape(x, gamma, beta, *ws, *bs)
    if len(ws) != 4 or len(bs) != 3:
        raise ContractError(
            f"attention takes 4 weights and 3 biases, got {len(ws)} and {len(bs)}"
        )
    if x.value.ndim != 2:
        raise DimensionError(f"attention expects a 2-D x, got {x.shape}")
    rows, d = x.shape
    if n < 1 or rows % n:
        raise DimensionError(f"attention cannot split {rows} rows into {n} samples")
    vectors = (gamma, beta, *bs)
    if any(w.shape != (d, d) for w in ws) or any(v.shape != (d,) for v in vectors):
        raise DimensionError(
            f"attention weights {[w.shape for w in ws]} and vectors "
            f"{[v.shape for v in vectors]} for x {x.shape}"
        )
    t = rows // n
    gv, bv = gamma.value, beta.value
    wvals, bvals = [w.value for w in ws], [b.value for b in bs]
    scale = 1.0 / math.sqrt(d)

    def project(h):
        """[wq|wk|wv], the (n*T, 3D) q/k/v block and its three (n, T, D) views."""
        w3 = np.concatenate(wvals[:3], axis=1)
        qkv = h @ w3
        qkv += np.concatenate([bvals[0], np.zeros(d), bvals[1]])  # no key bias
        return w3, qkv, [p.reshape(n, t, d) for p in np.split(qkv, 3, axis=1)]

    xhat, inv, h = _layer_norm(x.value, gv, bv, "attention")
    with np.errstate(over="ignore", invalid="ignore"):  # surfaces as NonFiniteError
        _, qkv, (q, k, v) = project(h)
        _check_finite(qkv, "attention")
        a = q @ k.swapaxes(1, 2)
        a *= scale
        # a - max overflows only to -inf, whose exp is exactly 0
        a -= a.max(axis=-1, keepdims=True)
        np.exp(a, out=a)
        a /= a.sum(axis=-1, keepdims=True)
        out = (a @ v).reshape(rows, d) @ wvals[3]
        out += bvals[2]
        out += x.value

    def bwd(g):
        h = _affine(xhat, gv, bv)
        w3, qkv, (q, k, v) = project(h)
        dwo = (a @ v).reshape(rows, d).T @ g  # the context is needed for dwo alone
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
        dh, dw3, db = dqkv @ w3.T, np.split(h.T @ dqkv, 3, axis=1), dqkv.sum(axis=0)
        del h, qkv, q, k, v, dctx, ds, dqkv, dq, dk, dv  # freed before the norm's gradient
        return (*_norm_grad(dh, g, xhat, inv, gv),
                *dw3, dwo, *np.split(db, 3)[::2], g.sum(axis=0))

    parents = tuple(p.index for p in (x, gamma, beta, *ws, *bs))
    return tape.record("attention", out, parents, bwd)


def mlp(
    x: Tensor, gamma: Tensor, beta: Tensor,
    w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
) -> Tensor:
    """The pre-norm MLP sublayer ``x + m(layer_norm(x))`` as one node, with
    ``m = linear(gelu(linear(., w1, b1)), w2, b2)``.

    The forward makes those ops' numpy calls, and the residual ``add``'s,
    in their order, so its value is bitwise theirs; it checks the norm's
    variance, the pre-activation and the output.  It frees the norm's
    output once the pre-activation is formed, and computes gelu's value in
    the buffer of its tanh term, so that only two (rows, hidden) arrays are
    ever alive at once.  The rule keeps the norm's ``xhat`` and inverse
    deviations and the parameter values, and no (rows, hidden) array: it
    recomputes the norm's output, the pre-activation and gelu's tanh term,
    bitwise as the forward did, and returns bitwise the weight gradients
    the three ops' rules return.
    """
    tape = _same_tape(x, gamma, beta, w1, b1, w2, b2)
    if (x.value.ndim != 2 or w1.value.ndim != 2
            or x.shape[1] != w1.shape[0] or w2.shape != (w1.shape[1], x.shape[1])
            or b1.shape != (w1.shape[1],)
            or any(v.shape != (x.shape[1],) for v in (gamma, beta, b2))):
        raise DimensionError(
            f"mlp shapes x {x.shape}, gamma {gamma.shape}, beta {beta.shape}, "
            f"w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape}, b2 {b2.shape}"
        )
    gv, bv = gamma.value, beta.value
    w1v, b1v, w2v, b2v = w1.value, b1.value, w2.value, b2.value

    def pre_activation(h):
        with np.errstate(over="ignore", invalid="ignore"):  # surfaces as NonFiniteError
            u = h @ w1v
            u += b1v
        return u

    xhat, inv, h = _layer_norm(x.value, gv, bv, "mlp")
    u = pre_activation(h)
    del h
    _check_finite(u, "mlp")
    with np.errstate(over="ignore", invalid="ignore"):  # surfaces as NonFiniteError
        # _gelu_value's arithmetic, in the buffer of its tanh term
        t = _gelu_tanh(u)
        t += 1.0
        t *= 0.5
        t *= u
        del u
        out = t @ w2v
        del t
        out += b2v
        out += x.value

    def bwd(g):
        h = _affine(xhat, gv, bv)
        u = pre_activation(h)
        t = _gelu_tanh(u)
        dw2 = _gelu_value(u, t).T @ g
        d = _gelu_grad(u, t, g @ w2v.T, out=u)  # u is read for the last time
        dh, dw1, db1 = d @ w1v.T, h.T @ d, d.sum(axis=0)
        del h, u, t, d  # freed before the norm's gradient
        return (*_norm_grad(dh, g, xhat, inv, gv), dw1, db1, dw2, g.sum(axis=0))

    parents = tuple(p.index for p in (x, gamma, beta, w1, b1, w2, b2))
    return tape.record("mlp", out, parents, bwd)


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
