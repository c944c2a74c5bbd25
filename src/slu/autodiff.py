"""Minimal dense-tensor library with reverse-mode automatic differentiation.

Tensors wrap a numpy array plus an optional gradient buffer. Operations build
a computation graph on the fly; calling ``backward()`` on a scalar loss walks
the graph in reverse topological order and accumulates gradients into every
reachable leaf tensor with ``requires_grad`` set.

An op's backward closure takes the gradient of its output and returns one
contribution per parent, in parent order: an array broadcastable to the
parent's shape, or ``None`` for no gradient. Closures never touch a
gradient buffer: ``_accumulate``, called only by ``backward()``, owns them.
It skips parents without ``requires_grad``, stores a first contribution as
a copy in the parent's dtype and adds later ones in place. An op that
reads entries more than once (``getitem`` with repeated ids) sums its own
repeats before it returns.

``backward()`` frees the graph as it goes: once an intermediate tensor has
passed its gradient on, its gradient buffer, its parents and its backward
closure are dropped, so intermediate gradients are not kept and the graph
can be differentiated only once. Leaf gradients accumulate across backward
calls on fresh graphs until explicitly zeroed.

Arrays are float32 by default; pass float64 data for the gradient-check
configuration. Masks and index arrays are plain numpy arrays, never Tensors.

Dtype contract: a model computes in its parameter dtype. An op's result
has the ``np.result_type`` of its operands, so a float32 model's graph is
float32 from the embedding lookup to the loss and a float64 one is float64
throughout. An op constant is therefore a Python float, which
``_as_tensor(x, ref=...)`` casts to the operand's dtype, or an array
already in that dtype; a NumPy float64 scalar or array would promote a
float32 operand to float64 (NEP 50) and everything downstream with it. An
op may compute internally at higher precision (the fused CRF
log-partition runs in float64) as long as its output keeps that dtype.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class GradError(RuntimeError):
    """Gradient-related contract violation (non-scalar backward, missing grad)."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (forward values only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense n-dimensional float array participating in reverse-mode AD."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a one-entry tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; the named functions below do the work.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(_as_tensor(other, ref=self), -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def backward(self) -> None:
        """Reverse-mode pass from a scalar loss.

        Accumulates into ``grad`` of every reachable leaf with
        ``requires_grad``. Leaf gradients accumulate across calls on
        fresh graphs, so zeroing the leaves between calls makes repeated
        passes reproducible. The graph is freed as the pass runs:
        intermediate tensors keep no gradient, and a second ``backward()``
        through any of them raises ``GradError``.
        """
        if self.data.size != 1:
            raise GradError(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        topo = _topo_order(self)
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                for parent, grad in zip(node._parents, node._backward(node.grad),
                                        strict=True):
                    if grad is not None and parent.requires_grad:
                        _accumulate(parent, grad)
                node.grad = None
                node._parents = ()
                node._backward = _freed


def _freed(g: np.ndarray) -> None:
    """Backward closure left on a tensor once ``backward()`` has freed it;
    ``_topo_order`` refuses to walk through a tensor that carries it."""


def _accumulate(node: Tensor, v: np.ndarray) -> None:
    """Add one contribution into ``node.grad``.

    The first is stored as a copy in the node's dtype, so the buffer never
    aliases an array a closure returned; later ones add in place.
    """
    if node.grad is None:
        node.grad = np.array(np.broadcast_to(v, node.data.shape), dtype=node.data.dtype)
    else:
        node.grad += v


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative DFS postorder over grad-requiring nodes (graphs can be deep)."""
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is _freed:
            raise GradError(
                "backward() through a graph that an earlier backward() freed"
            )
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited and parent.requires_grad:
                stack.append((parent, False))
    return topo


def _as_tensor(x, ref: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = ref.data.dtype if ref is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting), as an
    array: numpy gives a scalar for 0-d products and full reductions."""
    if grad.shape != shape:
        extra = grad.ndim - len(shape)
        if extra > 0:
            grad = grad.sum(axis=tuple(range(extra)))
        axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
        if axes:
            grad = grad.sum(axis=axes, keepdims=True)
    return np.asarray(grad)


def _row_sum(x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """``scale`` times the sum of ``x`` over its last axis, keepdims, as one
    matrix-vector product with a constant vector in ``x``'s dtype.

    numpy reduces a short last axis 5-10 times slower than an elementwise
    pass over the same array; BLAS's GEMV does not. A float32 ``x`` stays
    float32. ``scale=1/d`` gives the mean.
    """
    d = x.shape[-1]
    lead = x.shape[:-1]
    w = np.full(d, scale, dtype=x.dtype)
    return (x.reshape(math.prod(lead), d) @ w).reshape(lead + (1,))


def _make_node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# arithmetic primitives
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, ref=a)
    data = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make_node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, ref=a)
    data = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _make_node(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading axes."""
    a = _as_tensor(a)
    b = _as_tensor(b, ref=a)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"matmul requires ndim >= 2 operands, got {a.shape} @ {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.shape} @ {b.shape}"
        )
    data = a.data @ b.data

    def backward(g):
        return (
            _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
            if a.requires_grad else None,
            _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
            if b.requires_grad else None,
        )

    return _make_node(data, (a, b), backward)


def tsum(a) -> Tensor:
    """Sum of every entry, as a 0-d tensor."""
    a = _as_tensor(a)
    return _make_node(a.data.sum(), (a,), lambda g: (g,))


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    data = a.data.transpose(axes)

    def backward(g):
        return (g.transpose(inverse),)

    return _make_node(data, (a,), backward)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    parts = [_as_tensor(t) for t in tensors]
    data = np.concatenate([p.data for p in parts], axis=axis)
    splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def backward(g):
        return np.split(g, splits, axis=axis)

    return _make_node(data, parts, backward)


def getitem(a, idx) -> Tensor:
    """``a[idx]`` for any numpy index.

    The gradient scatters back by one rule: ``np.arange(a.size)`` shaped
    like ``a`` and indexed by ``idx`` gives the flat position of every
    entry the forward read (repeats, negative ids, slices, masks and
    ``None`` alike), and a 1-D ``np.add.at`` sums ``g`` into them.
    """
    a = _as_tensor(a)
    data = a.data[idx]

    def backward(g):
        at = np.arange(a.data.size).reshape(a.data.shape)[idx]
        d = np.zeros(a.data.size, dtype=a.data.dtype)
        np.add.at(d, at.ravel(), g.ravel())
        return (d.reshape(a.data.shape),)

    return _make_node(data, (a,), backward)


# ---------------------------------------------------------------------------
# nonlinearities and normalizers
# ---------------------------------------------------------------------------


def relu(a) -> Tensor:
    a = _as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def backward(g):
        return (g * (a.data > 0),)

    return _make_node(data, (a,), backward)


def softmax(a) -> Tensor:
    """Numerically stabilized softmax along the last axis."""
    a = _as_tensor(a)
    x = a.data
    # Non-finite inputs (a diverging model) flow through as NaN output
    # rather than erroring here, so the caller can see the NaN loss.
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    s = e / _row_sum(e)

    def backward(g):
        return (s * (g - _row_sum(g * s)),)

    return _make_node(s, (a,), backward)


def logsumexp(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    out_k = m + np.log(np.exp(a.data - m).sum(axis=axis, keepdims=True))

    def backward(g):
        return (np.exp(a.data - out_k) * np.expand_dims(g, axis),)

    return _make_node(np.squeeze(out_k, axis=axis), (a,), backward)


def layer_norm(a, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply the affine (gamma, beta)."""
    a = _as_tensor(a)
    gamma = _as_tensor(gamma, ref=a)
    beta = _as_tensor(beta, ref=a)
    d = a.data.shape[-1]
    if d == 0:
        raise ShapeError("layer_norm over an empty feature axis")
    xc = a.data - _row_sum(a.data, 1.0 / d)
    inv = 1.0 / np.sqrt(_row_sum(xc * xc, 1.0 / d) + eps)
    xhat = xc * inv
    data = xhat * gamma.data + beta.data

    def backward(g):
        gx = g * gamma.data
        da = inv * (gx - _row_sum(gx, 1.0 / d) - xhat * _row_sum(gx * xhat, 1.0 / d))
        return da, _unbroadcast(g * xhat, gamma.data.shape), _unbroadcast(g, beta.data.shape)

    return _make_node(data, (a, gamma, beta), backward)


def dropout(a, p: float, rng: np.random.Generator, training: bool,
            pad_mask: np.ndarray | None = None) -> Tensor:
    """Inverted dropout: identity in evaluation mode, scaled mask in training.

    With ``pad_mask``, a (B, n) boolean mask, ``a`` holds the real rows of a
    padded (B, n, ...) tensor, packed as ``pad_mask`` selects them: the keep
    mask is drawn at the padded shape and its real rows kept, so the random
    stream advances as it would for the padded tensor.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    a = _as_tensor(a)
    if not training or p == 0.0:
        return a
    if pad_mask is None:
        keep = rng.random(a.data.shape) >= p
    else:
        keep = rng.random(pad_mask.shape + a.data.shape[1:])[pad_mask] >= p
    return mul(a, Tensor(keep.astype(a.data.dtype) * (1.0 / (1.0 - p))))


def maxpool_over_time(a, lengths: np.ndarray) -> Tensor:
    """Column-wise max over each sentence's packed rows: (N, d) -> (B, d).

    Sentence b owns the ``lengths[b]`` rows after those of sentences
    0..b-1. Ties route the gradient to the earliest winning row; a NaN
    wins its column, so it reaches its own sentence's output and no other.
    """
    a = _as_tensor(a)
    x = a.data
    lengths = np.asarray(lengths)
    if lengths.ndim != 1 or (lengths < 1).any() or lengths.sum() != len(x):
        # np.maximum.reduceat would read the next sentence's first row for
        # an empty one, so a bad split must not reach it.
        raise ValueError(f"maxpool_over_time: lengths must be positive and sum to "
                         f"{len(x)}, got {lengths.tolist()}")
    starts = np.cumsum(lengths) - lengths
    peak = np.maximum.reduceat(x, starts)

    def backward(g):
        at_peak = (x == np.repeat(peak, lengths, axis=0)) | np.isnan(x)
        wins = np.where(at_peak, np.arange(len(x))[:, None], len(x))
        d = np.zeros_like(x)
        d[np.minimum.reduceat(wins, starts), np.arange(x.shape[1])] = g
        return (d,)

    return _make_node(peak, (a,), backward)
