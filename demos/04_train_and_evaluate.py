"""Train two architectures on a synthetic corpus and compare them.

The single-BiLSTM tagger (sb) and its input-attention variant (sb-i) learn
the same synthetic segmentation task.  Training uses cross-entropy
with Adam, holds out whole essays for validation, stops early on validation
loss and restores the best epoch.  Evaluation reports weighted F1, the
class-imbalance-aware score used throughout this package.
"""

import numpy as np

from argseg.corpus import build_sequences
from argseg.embeddings import EmbeddingSpec, load_glove
from argseg.models import ArchitectureId, ModelSpec, build_model
from argseg.toydata import toy_corpus, toy_glove_text
from argseg.training import TrainConfig, evaluate, generalization_gap, train

table = load_glove(toy_glove_text(dim=16, seed=7))
emb = EmbeddingSpec([table], expected_dim=16, label="toy16")

annotated = toy_corpus(30, seed=5)
train_seqs, test_seqs = [], []
for k, (essay, spans) in enumerate(annotated):
    target = test_seqs if k >= 24 else train_seqs
    target.extend(build_sequences(essay, spans, "paragraph"))
print(f"{len(train_seqs)} training sequences, {len(test_seqs)} test sequences\n")

for arch in (ArchitectureId.SB, ArchitectureId.SB_I):
    spec = ModelSpec(arch, input_dim=16, hidden=12, seed=0)
    cfg = TrainConfig(batch_size=16, max_epochs=60, patience=8,
                      learning_rate=5e-3, seed=0)
    model, curve = train(build_model(spec), train_seqs, emb, cfg)
    report = evaluate(model, test_seqs, emb)
    print(f"== {arch.value} ==")
    print(f"stopped after {len(curve)} epochs; "
          f"final train loss {curve.train[-1]:.4f}, val loss {curve.val[-1]:.4f}, "
          f"generalization gap {generalization_gap(curve):+.4f}")
    print(report.summary())
    print()

print("loss curve of the last run (train, validation):")
for epoch in range(0, len(curve), max(1, len(curve) // 8)):
    bar = "#" * int(curve.train[epoch] * 40)
    print(f"  epoch {epoch + 1:3d}  {curve.train[epoch]:.4f} {curve.val[epoch]:.4f}  {bar}")
