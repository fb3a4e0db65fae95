"""Ingesting externally generated contextual token vectors.

Contextual embeddings (e.g. from a pretrained language model) are produced
outside this package and shipped as a binary store keyed by (essay id,
sentence index, token index), with a CRC over the payload.  Stores align
with any sequence granularity through per-essay token ordinals: sentence and
paragraph decompositions enumerate an essay's tokens in the same order.

Here the "language model" is a seeded random generator; the point is the
file format, the stacking, and the end-to-end run.  The store, and a
corrupted copy of it, are written into the working directory.
"""

from pathlib import Path

import numpy as np

from argseg.corpus import build_sequences
from argseg.embeddings import (
    EmbeddingSpec,
    load_glove,
    load_precomputed_file,
    write_precomputed,
)
from argseg.models import ArchitectureId, ModelSpec, build_model
from argseg.toydata import toy_corpus, toy_glove_text
from argseg.training import TrainConfig, evaluate, train

CTX_DIM = 32
rng = np.random.default_rng(11)

annotated = toy_corpus(10, seed=8)

print("== generating a vector store over sentence-level indices ==")
records = []
for essay, spans in annotated:
    for seq in build_sequences(essay, spans, "sentence"):
        for t in range(len(seq)):
            records.append((essay.id, seq.sequence_index, t,
                            rng.standard_normal(CTX_DIM) * 0.2))
store_path = Path("ctx32.pv")
with open(store_path, "wb") as fh:
    write_precomputed(fh, CTX_DIM, records)
print(f"{len(records)} vectors, {store_path.stat().st_size} bytes on disk (CRC-protected)")

store = load_precomputed_file(store_path)
print(f"store round-trip: dim {store.dim}, {len(store)} vectors, "
      f"{len(store.essay_ids())} essays\n")

print("== stacking word vectors with contextual vectors ==")
table = load_glove(toy_glove_text(dim=16, seed=7))
emb = EmbeddingSpec(
    [table, store],
    expected_dim=16 + CTX_DIM,
    label="toy16+ctx32",
)
sequences = []
for essay, spans in annotated:
    sequences.extend(build_sequences(essay, spans, "paragraph"))
row = emb.vectorize(sequences[0])
print(f"paragraph sequences consume sentence-keyed vectors: "
      f"one sequence vectorizes to {row.shape}\n")

print("== end-to-end training run on the stacked features ==")
spec = ModelSpec(ArchitectureId.SB, input_dim=emb.expected_dim, hidden=10, seed=0)
cfg = TrainConfig(batch_size=16, max_epochs=30, patience=6,
                  learning_rate=5e-3, seed=0)
model, curve = train(build_model(spec), sequences, emb, cfg)
report = evaluate(model, sequences, emb)
print(f"{len(curve)} epochs; weighted F1 on the training essays "
      f"{report.weighted_f1:.3f}")

print("\n== corruption is detected ==")
broken = bytearray(store_path.read_bytes())
broken[len(broken) // 2] ^= 0xFF
broken_path = Path("ctx32-broken.pv")
broken_path.write_bytes(broken)
try:
    load_precomputed_file(broken_path)
except Exception as exc:
    print("flipped one byte ->", exc)
