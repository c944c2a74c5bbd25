"""Plain float64 reference computations for the output checks.

Each is written from the textbook rule, not from the package's code, so a
change to the package that gets the arithmetic wrong disagrees with it:

* ``path_score`` / ``best_score``: the score of one tag path under a
  linear-chain CRF, and the best score over all paths (max-product);
* ``AdamReference``: global-norm clipping followed by Adam with bias
  correction and decoupled weight decay.

The CRF transition table has the package's layout: shape (S+2, S+2), row
and column S the virtual begin state, S+1 the virtual end state.
"""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


def path_score(emissions: np.ndarray, T: np.ndarray, tags: list[int]) -> float:
    """Score of ``tags`` for one sentence's (n, S) emissions."""
    S = emissions.shape[1]
    em = emissions.astype(np.float64)
    T = T.astype(np.float64)
    path = [S, *tags, S + 1]
    score = sum(em[t, tag] for t, tag in enumerate(tags))
    return float(score + sum(T[a, b] for a, b in zip(path[:-1], path[1:])))


def best_score(emissions: np.ndarray, T: np.ndarray) -> float:
    """Highest path score over all tag paths for one sentence."""
    S = emissions.shape[1]
    em = emissions.astype(np.float64)
    T = T.astype(np.float64)
    best = T[S, :S] + em[0]  # best score of a path ending in each tag
    for t in range(1, len(em)):
        best = (best[:, None] + T[:S, :S]).max(axis=0) + em[t]
    return float((best + T[:S, S + 1]).max())


class AdamReference:
    """Clip-then-Adam over float64 copies of the parameters."""

    def __init__(self, params: list[np.ndarray], decay: list[bool], lr: float,
                 weight_decay: float, clip_norm: float):
        self.params = [p.astype(np.float64) for p in params]
        self.decay = decay
        self.lr = lr
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads: list[np.ndarray | None]) -> list[np.ndarray | None]:
        """Apply one update; returns the clipped gradients."""
        grads = [None if g is None else g.astype(np.float64) for g in grads]
        norm = np.sqrt(sum(float((g * g).sum()) for g in grads if g is not None))
        if self.clip_norm > 0 and norm > self.clip_norm:
            grads = [None if g is None else g * (self.clip_norm / norm) for g in grads]
        self.t += 1
        for i, g in enumerate(grads):
            if g is None:
                continue
            self.m[i] = BETA1 * self.m[i] + (1 - BETA1) * g
            self.v[i] = BETA2 * self.v[i] + (1 - BETA2) * g * g
            m_hat = self.m[i] / (1 - BETA1 ** self.t)
            v_hat = self.v[i] / (1 - BETA2 ** self.t)
            update = self.lr * m_hat / (np.sqrt(v_hat) + EPSILON)
            if self.decay[i]:
                update = update + self.lr * self.weight_decay * self.params[i]
            self.params[i] = self.params[i] - update
        return grads
