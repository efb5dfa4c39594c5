"""Dense-tensor arithmetic with tape-based reverse-mode differentiation.

Everything the encoders and losses need is built from the primitives here:
broadcasting elementwise arithmetic, (batched) matmul and a fused linear
layer, shape ops and a one-entry slice, reductions, GELU, dropout, and layer
norm, softmax and log-softmax over the last axis as single tape nodes with a
closed-form backward.  Values are kept in float64 so repeated runs with the
same seed reproduce gradients bitwise.

A :class:`Tape` is single-owner while recording and during backward; distinct
tapes may be used from distinct threads.  Operations whose inputs are all
constants (no tape) stay off any tape and just return a constant result, and
no op computes a gradient for a constant operand.

The sweep contract: a tape is swept by :meth:`Tape.backward` once.  The sweep
releases each node's closure, and with it the forward buffers the closure
holds, and drops each non-leaf gradient once its node has consumed it, so a
swept tape is freed by reference counting alone.  Closures never write to
their incoming gradient, and the sweep never writes to a stored gradient, so
gradients may alias views of one another.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

# tanh-form GELU constant: sqrt(2/pi)
GELU_COEF = 0.7978845608028654
GELU_CUBIC = 0.044715


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

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

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


def permute(a, axes: Sequence[int]) -> DiffTensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(int(i) for i in np.argsort(axes))
    return _make((a,), a.data.transpose(axes), lambda g: (g.transpose(inverse),))


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
    """GELU in the tanh approximation."""
    a = as_tensor(a)
    x = a.data
    inner = GELU_COEF * (x + GELU_CUBIC * x * x * x)  # x ** 3 calls pow: ~25x slower
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def backward(g: np.ndarray):
        dinner = GELU_COEF * (1.0 + 3.0 * GELU_CUBIC * x ** 2)
        local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * dinner
        return (g * local,)

    return _make((a,), data, backward)


def softmax_rows(a) -> DiffTensor:
    """Stable softmax along the last axis (the rows of a matrix)."""
    a = as_tensor(a)
    data = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray):
        dot = (g * data).sum(axis=-1, keepdims=True)
        return (data * (g - dot),)

    return _make((a,), data, backward)


def log_softmax_rows(a) -> DiffTensor:
    """log(softmax) along the last axis; shift by the row max for stability."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    data = shifted - np.log(total)
    return _make((a,), data, lambda g: (g - g.sum(axis=-1, keepdims=True) / total * e,))


def dropout(a, rate: float, rng: np.random.Generator | None, training: bool = True) -> DiffTensor:
    """Inverted dropout; exact identity when not training or rate == 0."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    a = as_tensor(a)
    if not training or rate == 0.0:
        return a
    if rng is None:
        raise ContractError("dropout in training mode requires an rng")
    keep = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    return mul(a, constant(keep))


def layer_norm(a, gain, bias, eps: float = 1e-5) -> DiffTensor:
    """Normalize over the last axis, then apply elementwise gain and bias.

    The backward is the closed form of Ba, Kiros & Hinton (2016): with
    n = (x - mean) / std and gn = g * gain,
    dx = (gn - mean(gn) - n * mean(gn * n)) / std.
    """
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    scale = 1.0 / a.data.shape[-1]
    centered = a.data - a.data.sum(axis=-1, keepdims=True) * scale
    inv = ((centered * centered).sum(axis=-1, keepdims=True) * scale + eps) ** -0.5
    norm = centered * inv
    data = norm * gain.data + bias.data

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


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f, x, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must map one DiffTensor to a scalar DiffTensor and must not keep
    state between calls; it is evaluated on constants for the numeric side.
    """
    x0 = _as_array(x)
    tape = Tape()
    xt = tape.leaf(x0)
    out = f(xt)
    if out.data.size != 1:
        raise ContractError(f"grad_check needs a scalar-valued f, got shape {out.data.shape}")
    if out.tape is None:  # f ignored x entirely
        analytic = np.zeros_like(x0)
    else:
        analytic = tape.backward(out)[xt.node_id]

    numeric = np.zeros_like(x0)
    for idx in np.ndindex(x0.shape):
        xp = x0.copy()
        xp[idx] += h
        xm = x0.copy()
        xm[idx] -= h
        fp = f(DiffTensor(xp)).item()
        fm = f(DiffTensor(xm)).item()
        numeric[idx] = (fp - fm) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
