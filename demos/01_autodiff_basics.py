"""Tour of the tensor library: build a graph, run backward, audit with
finite differences.

Run: python3 demos/01_autodiff_basics.py
"""

import numpy as np

from slu import autodiff as ad

rng = np.random.default_rng(0)

# A tensor tracks gradients when requires_grad is set. Operations on
# tracked tensors record a graph; backward() walks it in reverse.
x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
W = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)

h = ad.relu(ad.matmul(x, W))
loss = ad.tsum(ad.mul(h, h))
print(f"loss = {loss.item():.6f}")

loss.backward()
print(f"dloss/dW has shape {W.grad.shape}")

# Check one coordinate of W against a central finite difference.
i, j = 2, 1
step = 1e-6
base = W.data.copy()

def loss_at(value):
    W_probe = ad.Tensor(base.copy())
    W_probe.data[i, j] = value
    h_probe = ad.relu(ad.matmul(ad.Tensor(x.data), W_probe))
    return ad.tsum(ad.mul(h_probe, h_probe)).item()

numeric = (loss_at(base[i, j] + step) - loss_at(base[i, j] - step)) / (2 * step)
print(f"analytic dloss/dW[{i},{j}] = {W.grad[i, j]:.8f}")
print(f"numeric  dloss/dW[{i},{j}] = {numeric:.8f}")

# Softmax over a row of scores. Attention ignores padding by setting the
# pad keys' scores to -inf before it (inside its fused node), so they get
# zero probability and the rest renormalize.
scores = ad.Tensor(np.array([[1.0, 2.0, 3.0, -np.inf]]))
probs = ad.softmax(scores)
print(f"softmax: {np.round(probs.data, 4)} (last entry is padding)")

# no_grad() turns off graph recording, as used during evaluation.
with ad.no_grad():
    silent = ad.matmul(x, W)
print(f"inside no_grad, result tracks gradients: {silent.requires_grad}")
