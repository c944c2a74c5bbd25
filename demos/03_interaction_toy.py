"""What the interaction stack does to its two streams, on a tiny model.

The stack keeps one sequence of vectors per task (slot stream, intent
stream). Each layer first lets every position attend over that task's
own label embeddings, then runs cross-attention so each stream queries
the other, then fuses both through a shared window feed-forward step.

Run: python3 demos/03_interaction_toy.py
"""

import numpy as np

from slu import autodiff as ad
from slu.interaction import InteractionStack
from slu.config import AblationMode

rng = np.random.default_rng(2)
d, n_heads, ffn, n_slots, n_intents = 8, 2, 16, 5, 3
batch, n = 1, 4

H = ad.Tensor(rng.normal(size=(batch, n, d)))
W_slot = ad.Tensor(rng.normal(size=(d, n_slots)))
W_intent = ad.Tensor(rng.normal(size=(d, n_intents)))
mask = np.ones((batch, n), dtype=bool)

for mode in [AblationMode.FULL, AblationMode.SELF_ATTENTION,
             AblationMode.INTENT_TO_SLOT_ONLY]:
    stack = InteractionStack(d, n_heads, ffn, num_layers=2, mode=mode,
                               rng=np.random.default_rng(3))
    H_I, H_S = stack.forward(H, W_intent, W_slot, mask)
    drift_s = float(np.abs(H_S.data - H.data).mean())
    drift_i = float(np.abs(H_I.data - H.data).mean())
    streams_differ = float(np.abs(H_S.data - H_I.data).mean())
    print(f"{mode.value:22s} slot drift {drift_s:.3f}  "
          f"intent drift {drift_i:.3f}  stream gap {streams_differ:.3f}")

# Label attention in isolation: with orthogonal label columns, each
# position mixes in a weighted average of the label embeddings.
# Inside the stack every stage runs on packed rows: the real positions of
# the batch, one row each, with no pads.
from slu.interaction import RowMap, label_attention

W_labels = ad.Tensor(np.eye(d)[:, :n_slots])
H_small = ad.Tensor(rng.normal(size=(2, d)))  # two real rows
out = label_attention(H_small, W_labels, RowMap(mask[:, :2]))
delta = out.data - H_small.data
print(f"\nlabel attention moved positions by mean |delta| = "
      f"{float(np.abs(delta).mean()):.4f}")
print("each row of the update lives in the span of the label columns:",
      np.allclose(delta[..., n_slots:], 0.0))

# Padding never leaks: flipping the padded tail leaves real rows alone.
mask_pad = np.array([[True, True, True, False]])
stack = InteractionStack(d, n_heads, ffn, 1, AblationMode.FULL,
                           np.random.default_rng(4))
H_I1, H_S1 = stack.forward(H, W_intent, W_slot, mask_pad)
H_junk = ad.Tensor(H.data.copy())
H_junk.data[0, 3] = 99.0
H_I2, H_S2 = stack.forward(H_junk, W_intent, W_slot, mask_pad)
real_rows_equal = np.array_equal(H_S1.data[0, :3], H_S2.data[0, :3])
print(f"\npadded position junk left real rows unchanged: {real_rows_equal}")
print(f"pad rows of both streams are zero: {not H_I1.data[0, 3].any() and not H_S1.data[0, 3].any()}")
