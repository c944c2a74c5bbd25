"""Adam optimizer with decoupled weight decay, plus global-norm clipping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor


@dataclass
class Param:
    """A named trainable tensor. ``decay`` excludes biases and norm affines."""

    name: str
    tensor: Tensor
    decay: bool = True


def clip_global_norm(params: list[Param], max_norm: float) -> float:
    """Scale all gradients jointly so their global L2 norm is <= max_norm.

    Returns the pre-clip norm. ``max_norm == 0`` disables clipping. The
    squares are summed in float64 without a full-size float64 copy of any
    gradient.
    """
    total = 0.0
    for p in params:
        if p.tensor.grad is not None:
            g = p.tensor.grad.ravel()
            total += float(np.einsum("i,i->", g, g, dtype=np.float64))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        ratio = max_norm / norm
        for p in params:
            if p.tensor.grad is not None:
                p.tensor.grad *= ratio
    return norm


# Elements per chunk of an ``Adam.step`` sweep: the size of its two scratch
# arrays per dtype.
_CHUNK = 65536


@dataclass
class Adam:
    """Standard Adam with bias correction; decay is applied outside the moments.

    The optimizer re-homes its parameters when it is built: for each dtype
    it lays them out one after another in one flat array, decay parameters
    first, and each ``tensor.data`` becomes a view of it with unchanged
    values. Gradients, ``m`` and ``v`` use the same layout. Each tensor's
    ``_grad_view`` is its slice of the gradient array, which ``backward()``
    fills (see ``autodiff._accumulate``), so after a backward
    ``tensor.grad`` is that view. Write new values into ``tensor.data`` in
    place; a parameter whose array was replaced makes ``step()`` raise
    ``ValueError``, since its update would land in a detached buffer.

    ``step()`` reads gradients and leaves them untouched; the caller zeroes
    them between batches. A gradient assigned by hand is first copied into
    the view. A parameter without a gradient is left as it is: no decay and
    no moment update. The step sweeps each maximal run of parameters with a
    gradient and one decay flag in chunks of ``_CHUNK`` elements, computing
    the moments and the update with ``out=`` into two chunk-sized scratch
    arrays, so a step allocates no full-size temporary and every element
    goes through the same ufuncs, in the same order, as a per-parameter
    loop would. Gradients must have their parameter's dtype, as
    ``backward()`` stores them.
    """

    params: list[Param]
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    # Per-parameter views of the flat moments, in ``params`` order.
    _m: list[np.ndarray] = field(default_factory=list, repr=False)
    _v: list[np.ndarray] = field(default_factory=list, repr=False)
    # Per dtype: the flat data, gradient, m and v arrays and two scratch arrays.
    _flat: dict[np.dtype, tuple[np.ndarray, ...]] = field(default_factory=dict, repr=False)
    # In layout order: (param, its flat arrays, start, end, data view, grad view).
    _layout: list[tuple] = field(default_factory=list, repr=False)

    def __post_init__(self):
        start: dict[int, int] = {}
        size: dict[np.dtype, int] = {}
        for i in sorted(range(len(self.params)), key=lambda i: not self.params[i].decay):
            a = self.params[i].tensor.data  # decay parameters first, stable
            start[i] = size.get(a.dtype, 0)
            size[a.dtype] = start[i] + a.size
        self._flat = {dt: tuple(np.zeros(n, dt) for _ in range(4))
                      + tuple(np.empty(min(n, _CHUNK), dt) for _ in range(2))
                      for dt, n in size.items()}
        for i, p in enumerate(self.params):
            t = p.tensor
            flat = self._flat[t.data.dtype]
            lo, hi = start[i], start[i] + t.data.size
            data, grad, m, v = (f[lo:hi].reshape(t.data.shape) for f in flat[:4])
            data[...] = t.data
            t.data, t._grad_view = data, grad
            self._m.append(m)
            self._v.append(v)
            self._layout.append((p, flat, lo, hi, data, grad))
        self._layout.sort(key=lambda e: (e[4].dtype.str, e[2]))

    def zero_grad(self) -> None:
        for p in self.params:
            p.tensor.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        runs: list[list] = []  # [flat, start, end, decay]
        for p, flat, lo, hi, data, grad in self._layout:
            if p.tensor.data is not data:
                raise ValueError(f"parameter {p.name}: its data array was replaced after "
                                 "Adam was built; write new values into it in place")
            g = p.tensor.grad
            if g is None:
                continue
            if g is not grad:
                np.copyto(grad, g)
            if runs and runs[-1][0] is flat and runs[-1][2] == lo and runs[-1][3] == p.decay:
                runs[-1][2] = hi
            else:
                runs.append([flat, lo, hi, p.decay])
        for (W, G, M, V, S, R), lo, hi, decay in runs:
            for a in range(lo, hi, _CHUNK):
                b = min(a + _CHUNK, hi)
                g, m, v, w = G[a:b], M[a:b], V[a:b], W[a:b]
                s, r = S[:b - a], R[:b - a]
                m *= self.beta1
                m += np.multiply(g, 1.0 - self.beta1, out=s)
                v *= self.beta2
                np.multiply(g, g, out=s)
                v += np.multiply(s, 1.0 - self.beta2, out=s)
                np.divide(m, bc1, out=s)  # m_hat
                s *= self.lr
                np.sqrt(np.divide(v, bc2, out=r), out=r)  # sqrt(v_hat)
                r += self.epsilon
                s /= r  # the update
                if decay and self.weight_decay > 0.0:
                    s += np.multiply(w, self.lr * self.weight_decay, out=r)
                w -= s
