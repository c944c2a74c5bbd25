"""What the interaction stack does to its two streams, on a tiny model.

The stack keeps one sequence of vectors per task (slot stream, intent
stream). Each layer first lets every position attend over that task's
own label embeddings, then runs cross-attention so each stream queries
the other, then fuses both through a shared window feed-forward step.
It runs on packed rows: the real positions of the batch, one row each,
sentence after sentence, with no pads; the batch's ``RowMap`` says where
each row sits in the padded (B, n) layout.

Run: python3 demos/03_interaction_toy.py
"""

import numpy as np

from slu import autodiff as ad
from slu.config import AblationMode
from slu.data import RowMap
from slu.interaction import InteractionStack, label_attention

rng = np.random.default_rng(2)
d, n_heads, ffn, n_slots, n_intents = 8, 2, 16, 5, 3
batch, n = 1, 4

rows = RowMap(np.ones((batch, n), dtype=bool))
H = ad.Tensor(rng.normal(size=(batch * n, d)))  # all four positions are real
W_slot = ad.Tensor(rng.normal(size=(d, n_slots)))
W_intent = ad.Tensor(rng.normal(size=(d, n_intents)))

for mode in [AblationMode.FULL, AblationMode.SELF_ATTENTION,
             AblationMode.INTENT_TO_SLOT_ONLY]:
    stack = InteractionStack(d, n_heads, ffn, num_layers=2, mode=mode, dropout=0.0,
                               rng=np.random.default_rng(3))
    H_I, H_S = stack.forward(H, W_intent, W_slot, rows)
    drift_s = float(np.abs(H_S.data - H.data).mean())
    drift_i = float(np.abs(H_I.data - H.data).mean())
    streams_differ = float(np.abs(H_S.data - H_I.data).mean())
    print(f"{mode.value:22s} slot drift {drift_s:.3f}  "
          f"intent drift {drift_i:.3f}  stream gap {streams_differ:.3f}")

# Label attention in isolation: with orthogonal label columns, each
# position mixes in a weighted average of the label embeddings.
W_labels = ad.Tensor(np.eye(d)[:, :n_slots])
H_small = ad.Tensor(rng.normal(size=(2, d)))  # two real rows
out = label_attention(H_small, W_labels)
delta = out.data - H_small.data
print(f"\nlabel attention moved positions by mean |delta| = "
      f"{float(np.abs(delta).mean()):.4f}")
print("each row of the update lives in the span of the label columns:",
      np.allclose(delta[..., n_slots:], 0.0))

# Padding never leaks: a sentence of three real tokens gives three packed
# rows, and padding it to a wider batch (more pad keys for attention to
# mask) leaves every output row unchanged.
stack = InteractionStack(d, n_heads, ffn, 1, AblationMode.FULL, 0.0,
                           np.random.default_rng(4))
three = ad.Tensor(H.data[:3])
narrow = stack.forward(three, W_intent, W_slot, RowMap(np.array([[True] * 3])))
wide = stack.forward(three, W_intent, W_slot, RowMap(np.array([[True] * 3 + [False] * 5])))
print(f"\npacked rows per stream: {narrow[1].shape[0]} (one per real token)")
print("outputs equal with five extra pads:",
      all(np.allclose(a.data, b.data, atol=1e-12) for a, b in zip(narrow, wide)))
