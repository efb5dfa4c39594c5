"""Dense-tensor arithmetic with tape-based reverse-mode differentiation.

Everything the encoders and losses need is built from the primitives here:
broadcasting elementwise arithmetic, (batched) matmul and a fused linear
layer, shape ops and a one-entry slice, reductions, GELU, dropout, and layer
norm, soft-target cross-entropy and multi-head attention as single tape nodes
with a closed-form backward.  ``softmax_rows`` is plain numpy on
arrays and records nothing.  Values are kept in float64 so repeated runs with
the same seed reproduce gradients bitwise.

A :class:`Tape` is single-owner while recording and during backward; distinct
tapes may be used from distinct threads.  Operations whose inputs are all
constants (no tape) stay off any tape and just return a constant result, and
no op computes a gradient for a constant operand.  Attention scores heads in
blocks of at most 1 MiB and keeps all T×T scores only when taped; taped and
untaped calls agree bit for bit, and a head that fits in one block (T ≤ 362)
keeps a whole-head product's bits at any batch size.

The sweep contract: a tape is swept by :meth:`Tape.backward` once.  The sweep
releases each node's closure, and with it the forward buffers the closure
holds, and drops each non-leaf gradient once its node has consumed it, so a
swept tape is freed by reference counting alone.  Closures never write to
their incoming gradient, and the sweep never writes to a stored gradient, so
gradients may alias views of one another.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

# tanh-form GELU constant: sqrt(2/pi)
GELU_COEF = 0.7978845608028654
GELU_CUBIC = 0.044715
LAYER_NORM_EPS = 1e-5  # added to the variance before the inverse square root
_SCORE_BLOCK = 1 << 20  # bytes of attention scores per block: fits in cache


class Tape:
    """Recorded computation graph for one forward pass.

    Nodes are stored in execution order, so every parent index precedes its
    child and the backward sweep is a single reverse pass that visits each
    node at most once.
    """

    def __init__(self) -> None:
        # parent node ids, position-aligned with the op's inputs; None marks a constant
        self._parents: list[tuple[int | None, ...]] = []
        self._backwards: list[Callable[[np.ndarray], tuple] | None] = []
        self._leaves: dict[int, np.ndarray] = {}
        self._swept = False

    def __len__(self) -> int:
        return len(self._parents)

    def leaf(self, values) -> "DiffTensor":
        """Register a trainable leaf; its gradient is reported by backward()."""
        data = _as_array(values)
        node_id = self._record((), None)
        self._leaves[node_id] = data
        return DiffTensor(data, tape=self, node_id=node_id)

    def _record(self, parents: tuple[int | None, ...], backward) -> int:
        self._parents.append(parents)
        self._backwards.append(backward)
        return len(self._parents) - 1

    def backward(self, loss: "DiffTensor") -> dict[int, np.ndarray]:
        """Reverse sweep from a scalar loss; a tape can be swept only once.

        Returns a fresh gradient array for every registered leaf, keyed by
        node id; leaves the loss does not reach get a zero gradient.
        """
        if loss.tape is not self:
            raise ContractError("loss tensor was not recorded on this tape")
        if loss.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.data.shape}"
            )
        if self._swept:
            raise ContractError("this tape was already swept; record a new one")
        self._swept = True
        grads: list[np.ndarray | None] = [None] * len(self._parents)
        grads[loss.node_id] = np.ones_like(loss.data)
        for nid in range(len(self._backwards) - 1, -1, -1):
            backward, self._backwards[nid] = self._backwards[nid], None
            gout = grads[nid]
            if gout is None or backward is None:  # unreached, or a leaf
                continue
            grads[nid] = None
            for pid, gparent in zip(self._parents[nid], backward(gout)):
                if pid is None:
                    continue
                prev = grads[pid]
                # order="C" copies only views that are not C-contiguous, so
                # reductions and BLAS downstream see the layout they always saw
                grads[pid] = np.asarray(gparent, order="C") if prev is None else prev + gparent
        out: dict[int, np.ndarray] = {}
        for leaf_id, values in self._leaves.items():
            g = grads[leaf_id]
            out[leaf_id] = np.zeros_like(values) if g is None else g.copy()
        return out


class DiffTensor:
    """A dense array, optionally attached to a tape node.

    Constructing one directly yields a constant (no gradient).  Leaves come
    from :meth:`Tape.leaf`; everything else is produced by the operations in
    this module.
    """

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, values, tape: Tape | None = None, node_id: int | None = None):
        self.data = _as_array(values)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        kind = "const" if self.tape is None else f"node {self.node_id}"
        return f"DiffTensor(shape={self.data.shape}, {kind})"

    # arithmetic sugar; all defer to the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on non-scalar tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))


def _as_array(values) -> np.ndarray:
    if isinstance(values, DiffTensor):
        return values.data
    return np.asarray(values, dtype=np.float64)


def as_tensor(x) -> DiffTensor:
    """Coerce arrays/scalars to a constant DiffTensor; pass tensors through."""
    if isinstance(x, DiffTensor):
        return x
    return DiffTensor(x)


def constant(values) -> DiffTensor:
    return DiffTensor(values)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(grad.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _make(inputs: Sequence[DiffTensor], data: np.ndarray, backward) -> DiffTensor:
    """Record an op on the tape of its taped ``inputs``.

    ``backward(gout)`` returns one gradient per member of ``inputs``
    (position-aligned); the sweep skips those of constant members, which an
    op may return as None.
    """
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ContractError("operands live on different tapes")
    if tape is None:
        return DiffTensor(data)
    node_id = tape._record(tuple(t.node_id for t in inputs), backward)
    return DiffTensor(data, tape=tape, node_id=node_id)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _binary(a: DiffTensor, b: DiffTensor, data: np.ndarray, grad_a, grad_b) -> DiffTensor:
    """Record a broadcasting binary op; ``grad_x(g)`` is x's unreduced gradient."""
    return _make(
        (a, b),
        data,
        lambda g: (
            _unbroadcast(grad_a(g), a.data.shape) if a.tape is not None else None,
            _unbroadcast(grad_b(g), b.data.shape) if b.tape is not None else None,
        ),
    )


def add(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.data * b.data, lambda g: g * b.data, lambda g: g * a.data)


# ---------------------------------------------------------------------------
# linear algebra and shape ops


def matmul(a, b) -> DiffTensor:
    """Matrix product on the last two axes, batched over leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    return _make((a, b), _product(a, b), lambda g: _matmul_grads(a, b, g))


def linear(x, w, b) -> DiffTensor:
    """x @ w + b as one node: the bias is added in place on the fresh product."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    data = _product(x, w)
    data += b.data
    return _make(
        (x, w, b),
        data,
        lambda g: (
            *_matmul_grads(x, w, g),
            _unbroadcast(g, b.data.shape) if b.tape is not None else None,
        ),
    )


def _product(a: DiffTensor, b: DiffTensor) -> np.ndarray:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"matmul requires rank >= 2 operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.data.shape} x {b.data.shape}"
        )
    return a.data @ b.data


def _matmul_grads(a: DiffTensor, b: DiffTensor, g: np.ndarray) -> tuple:
    ga = gb = None
    if a.tape is not None:
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
    if b.tape is not None:
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
    return ga, gb


def transpose(a) -> DiffTensor:
    """Swap the last two axes."""
    a = as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"transpose requires rank >= 2, got shape {a.data.shape}")
    return _make((a,), np.swapaxes(a.data, -1, -2), lambda g: (np.swapaxes(g, -1, -2),))


def reshape(a, shape) -> DiffTensor:
    a = as_tensor(a)
    original = a.data.shape
    return _make((a,), a.data.reshape(shape), lambda g: (g.reshape(original),))


def take(a, index: int, axis: int) -> DiffTensor:
    """Entry ``index`` along ``axis``, which is dropped; a fresh array."""
    a = as_tensor(a)
    shape = a.data.shape
    where = (slice(None),) * (axis % a.ndim) + (index,)

    def backward(g: np.ndarray):
        full = np.zeros(shape)
        full[where] = g
        return (full,)

    return _make((a,), a.data[where].copy(), backward)


def concat(tensors: Sequence, axis: int = -1) -> DiffTensor:
    parts = [as_tensor(t) for t in tensors]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray):
        pieces = []
        for i in range(len(parts)):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(g[tuple(index)])
        return tuple(pieces)

    return _make(parts, data, backward)


# ---------------------------------------------------------------------------
# reductions


def tsum(a, axis=None, keepdims: bool = False) -> DiffTensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g: np.ndarray):  # a read-only broadcast view: the sweep never writes to it
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape),)

    return _make((a,), data, backward)


def tmean(a, axis=None, keepdims: bool = False) -> DiffTensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


# ---------------------------------------------------------------------------
# nonlinearities


def gelu(a) -> DiffTensor:
    """GELU in the tanh approximation.  Forward and backward chain the plain
    expression's IEEE operations, in order, in place on arrays they own
    (``out=`` keeps 0-d results arrays), so the bits match it."""
    a = as_tensor(a)
    x = a.data
    t = np.multiply(GELU_CUBIC, x, out=np.empty_like(x))  # x ** 3 calls pow: ~25x slower
    t *= x
    t *= x
    t += x
    t *= GELU_COEF
    np.tanh(t, out=t)  # tanh(GELU_COEF * (x + GELU_CUBIC * x * x * x))
    data = np.multiply(0.5, x, out=np.empty_like(x))
    data *= 1.0 + t

    def backward(g: np.ndarray):
        # 0.5 * (1 + t) + 0.5 * x * (1 - t²) * GELU_COEF * (1 + 3 * GELU_CUBIC * x²)
        dinner = np.multiply(x, x, out=np.empty_like(x))
        dinner *= 3.0 * GELU_CUBIC
        dinner += 1.0
        dinner *= GELU_COEF
        local = np.multiply(t, t, out=np.empty_like(t))
        np.subtract(1.0, local, out=local)
        tail = np.multiply(0.5, x, out=np.empty_like(x))
        tail *= local
        tail *= dinner
        np.add(t, 1.0, out=local)
        local *= 0.5
        local += tail
        local *= g
        return (local,)

    return _make((a,), data, backward)


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis of a plain array, in place; returns ``a``."""
    a -= a.max(axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)
    return a


def cross_entropy(logits, targets) -> DiffTensor:
    """-sum(targets * log_softmax(logits)) over the last axis as one node; it repeats
    tsum(mul(-targets, log-softmax))'s IEEE operations in order, so the bits match."""
    z, neg_t = as_tensor(logits), -_as_array(targets)
    shifted = z.data - z.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    shifted -= np.log(total)  # now log_softmax(logits)

    def backward(g: np.ndarray):
        gl = np.multiply(g, neg_t, order="C")  # as the sweep stored it: rows sum contiguously
        return (gl - gl.sum(axis=-1, keepdims=True) / total * e,)

    return _make((z,), (neg_t * shifted).sum(), backward)


def dropout(a, rate: float, rng: np.random.Generator | None) -> DiffTensor:
    """Inverted dropout; exact identity without an rng or when rate == 0."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    a = as_tensor(a)
    if rng is None or rate == 0.0:
        return a
    keep = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    return mul(a, constant(keep))


def layer_norm(a, gain, bias) -> DiffTensor:
    """Normalize over the last axis, then apply elementwise gain and bias.

    The backward is the closed form of Ba, Kiros & Hinton (2016): with
    n = (x - mean) / std and gn = g * gain,
    dx = (gn - mean(gn) - n * mean(gn * n)) / std.
    """
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    scale = 1.0 / a.data.shape[-1]
    norm = a.data - a.data.sum(axis=-1, keepdims=True) * scale  # centered, scaled below
    data = norm * norm  # also the buffer of the output
    inv = (data.sum(axis=-1, keepdims=True) * scale + LAYER_NORM_EPS) ** -0.5
    norm *= inv
    np.multiply(norm, gain.data, out=data)
    data += bias.data

    def backward(g: np.ndarray):
        dx = None
        if a.tape is not None:
            gn = g * gain.data
            mean_gn = gn.sum(axis=-1, keepdims=True) * scale
            dx = inv * (gn - mean_gn - norm * ((gn * norm).sum(axis=-1, keepdims=True) * scale))
        return (
            dx,
            _unbroadcast(g * norm, gain.data.shape) if gain.tape is not None else None,
            _unbroadcast(g, bias.data.shape) if bias.tape is not None else None,
        )

    return _make((a, gain, bias), data, backward)


def attention(q, k, v, heads: int) -> DiffTensor:
    """Multi-head scaled dot-product attention over (B, T, d) inputs, one node.

    Splits d into ``heads`` heads of width dh, takes the row softmax P of
    S = q kᵀ / sqrt(dh) per head and merges the heads of P v back to
    (B, T, d).  The backward uses the closed-form softmax Jacobian of
    Vaswani et al. (2017): dS = P ⊙ (dP − rowsum(dP ⊙ P)).  One forward scores
    heads in blocks of at most ``_SCORE_BLOCK`` (1 MiB) of scores (Rabe & Staats,
    2021), each soft-maxed whole: whole heads of several batch items, or equal
    query-row slices of a head that alone is larger.  A taped call writes every
    head's P for the backward, an untaped one reuses one block's buffer: O(B·T·d +
    one block) memory, the same bits.  Unsliced heads (T ≤ 362) keep whole-head bits.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 3 or not q.shape == k.shape == v.shape or q.shape[-1] % heads:
        raise ShapeError(f"attention needs equal (B, T, d) inputs with d divisible by "
                         f"heads={heads}, got {q.shape}, {k.shape}, {v.shape}")
    b, t, d = q.shape
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(z: np.ndarray) -> np.ndarray:  # a (B, H, T, dh) view
        return z.reshape(b, t, heads, dh).transpose(0, 2, 1, 3)

    def merge(z: np.ndarray) -> np.ndarray:  # a fresh (B, T, d) array
        return np.ascontiguousarray(z.transpose(0, 2, 1, 3)).reshape(b, t, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    taped = any(x.tape is not None for x in (q, k, v))
    # equal row slices: a short tail slice would take another BLAS kernel and round differently
    head = max(1, t * t * 8)  # bytes of one batch item's head of scores
    items, rows = max(1, _SCORE_BLOCK // head), max(1, -(-t // -(-head // _SCORE_BLOCK)))
    # taped: every head's P, head-major so each is contiguous; untaped: one block's scores
    ph = np.empty((heads, b, t, t) if taped else (min(b, items), rows, t))
    context = np.empty((b, heads, t, dh))
    for i, s, r in itertools.product(range(heads), range(0, b, items), range(0, t, rows)):
        qr = qh[s : s + items, i, r : r + rows]
        p = ph[i, s : s + items, r : r + rows] if taped else ph[: len(qr), : qr.shape[1]]
        # batched matmul runs one gemm per batch item, so unsliced heads keep the bits
        # of a whole-head product; scaling and softmax act per row, so slices do too
        np.matmul(qr, np.swapaxes(kh[s : s + items, i], -1, -2), out=p)
        p *= scale
        softmax_rows(p)
        np.matmul(p, vh[s : s + items, i], out=context[s : s + items, i, r : r + rows])

    def backward(g: np.ndarray):
        probs = np.swapaxes(ph, 0, 1)  # (B, H, T, T)
        gc = np.ascontiguousarray(split(g))
        gv = merge(np.swapaxes(probs, -1, -2) @ gc) if v.tape is not None else None
        gp = gc @ np.swapaxes(vh, -1, -2)
        gs = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True))
        gs *= scale
        gq = merge(gs @ kh) if q.tape is not None else None
        gk = merge((qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)) if k.tape is not None else None
        return gq, gk, gv

    return _make((q, k, v), merge(context), backward)
