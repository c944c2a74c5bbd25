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


@dataclass
class Adam:
    """Standard Adam with bias correction; decay is applied outside the moments.

    ``step()`` reads gradients and leaves them untouched; the caller zeroes
    them between batches. It updates each parameter array in place: the
    moments and the update are computed with ``out=`` into two scratch
    arrays per parameter, views of flat buffers as large as the largest
    parameter of each dtype, so a step allocates no full-size temporary.
    Gradients must have their parameter's dtype, as ``backward()`` stores
    them.
    """

    params: list[Param]
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    _m: list[np.ndarray] = field(default_factory=list, repr=False)
    _v: list[np.ndarray] = field(default_factory=list, repr=False)
    _scratch: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list, repr=False)

    def __post_init__(self):
        arrays = [p.tensor.data for p in self.params]
        largest: dict[np.dtype, int] = {}
        for a in arrays:
            self._m.append(np.zeros_like(a))
            self._v.append(np.zeros_like(a))
            largest[a.dtype] = max(largest.get(a.dtype, 0), a.size)
        flat = {dt: (np.empty(n, dt), np.empty(n, dt)) for dt, n in largest.items()}
        self._scratch = [tuple(buf[:a.size].reshape(a.shape) for buf in flat[a.dtype])
                         for a in arrays]

    def zero_grad(self) -> None:
        for p in self.params:
            p.tensor.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p, m, v, (s, r) in zip(self.params, self._m, self._v, self._scratch):
            g = p.tensor.grad
            if g is None:
                continue
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
            if p.decay and self.weight_decay > 0.0:
                s += np.multiply(p.tensor.data, self.lr * self.weight_decay, out=r)
            p.tensor.data -= s
