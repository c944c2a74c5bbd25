"""Train a small joint model on the bundled 16-sentence corpus, then
decode a new utterance with it.

Run: python3 demos/05_train_on_sample.py  (finishes in a few seconds)
"""

from pathlib import Path

import numpy as np

from slu.config import Config
from slu.data import load_dataset
from slu.train import evaluate_model, train

root = Path(__file__).resolve().parent.parent / "sample_data" / "atis16"
splits = load_dataset(root)
print(f"train/dev/test sizes: {len(splits['train'])}/"
      f"{len(splits['dev'])}/{len(splits['test'])}")

config = Config(embed_dim=32, hidden_dim=32, num_layers=1, num_heads=2,
                ffn_dim=64, dropout=0.0, lr=0.005, batch_size=4,
                max_epochs=60, patience=60, weight_decay=0.0, seed=7)

logged = []
result = train(config, splits["train"], splits["dev"],
               log=lambda msg: logged.append(msg))
print(logged[0])
print(logged[-1])
print(f"best dev epoch: {result.best_epoch}")

vocab = result.model.vocab
test_report = evaluate_model(result.model, splits["test"])
print(f"test slot F1 {test_report.slot_f1:.3f}  "
      f"intent acc {test_report.intent_accuracy:.3f}  "
      f"overall {test_report.overall_accuracy:.3f}")

# Decode a sentence the model never saw. Unknown words fall back to the
# <unk> embedding; the CRF still has to produce a coherent tag path.
tokens = "show me morning flights from denver to dallas".split()
ids = np.array([vocab.encode_tokens(tokens)])
mask = np.ones_like(ids, dtype=bool)
intent_ids, tag_ids = result.model.predict(ids, mask)
tags = [vocab.id2slot[t] for t in tag_ids[0]]
print(f"\nutterance: {' '.join(tokens)}")
print(f"intent:    {vocab.id2intent[int(intent_ids[0])]}")
for token, tag in zip(tokens, tags):
    print(f"  {token:10s} {tag}")
