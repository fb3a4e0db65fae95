"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -rs``.  Criteria that need the
real essay corpus and 300-d word vectors are skipped unless
``ARGSEG_CORPUS_DIR`` / ``ARGSEG_GLOVE`` point at them; the multi-hour
training criteria additionally require ``ARGSEG_RUN_FULL=1``.  Everything
else runs self-contained on synthetic fixtures.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from argseg.corpus import (
    ConversionStats,
    bio_label,
    build_sequences,
    load_split,
    reconstruct,
    spans_from_labels,
    tokenize,
)
from argseg.embeddings import EmbeddingSpec, load_glove_file, load_precomputed_file
from argseg.layers import choose_heads
from argseg.models import ArchitectureId, ModelSpec, build_model, predict_labels
from argseg.selftest import (
    check_attention_invariants,
    check_layer_gradients,
    check_model_gradients,
)
from argseg.toydata import toy_corpus
from argseg.training import (
    TrainConfig,
    _assemble,
    evaluate,
    generalization_gap,
    split_by_essay,
    train,
)

from conftest import CORPUS_DIR, GLOVE_PATH, RUN_FULL, needs_corpus, needs_full_run
from toy_files import read_rows, write_store

GRAD_TOLERANCE = 1e-4
BASELINE_F1_FLOOR = 0.80
PARITY_MARGIN = 0.04
ATTENTION_MARGIN = 0.05
ATTENTION_GAIN_CAP = 0.02


def passed(criterion: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion} {name}: PASS{suffix}")


# ---------------------------------------------------------------------------
# real-corpus plumbing (only used when the environment provides the data)
# ---------------------------------------------------------------------------


def load_real_corpus():
    corpus_dir = Path(CORPUS_DIR)
    essays = []
    from argseg.cli import _load_corpus_dir

    essays = _load_corpus_dir(corpus_dir)
    split_path = corpus_dir / "train-test-split.csv"
    split = load_split(
        split_path.read_text(encoding="utf-8-sig"), known_ids=[e.id for e, _ in essays]
    )
    return essays, split


@pytest.fixture(scope="module")
def real_runs():
    """Train every architecture once on the real data; cache the scores."""
    if not (CORPUS_DIR and GLOVE_PATH and RUN_FULL):
        return None
    essays, split = load_real_corpus()
    stats = ConversionStats()
    train_seqs, test_seqs = [], []
    for essay, spans in essays:
        seqs = build_sequences(essay, spans, "paragraph", stats)
        (train_seqs if split[essay.id] == "train" else test_seqs).extend(seqs)
    emb = EmbeddingSpec([load_glove_file(GLOVE_PATH)], expected_dim=300, label="glove300")
    runs = {}
    for arch in ArchitectureId:
        spec = ModelSpec(arch, input_dim=300, hidden=64, seed=0)
        cfg = TrainConfig(batch_size=64, max_epochs=100, patience=10,
                          learning_rate=1e-3, seed=0)
        model = build_model(spec)
        started = time.time()
        model, curve = train(model, train_seqs, emb, cfg)
        report = evaluate(model, test_seqs, emb)
        runs[arch] = {
            "f1": report.weighted_f1,
            "curve": curve,
            "minutes": (time.time() - started) / 60.0,
        }
        print(f"[acceptance] trained {arch.value}: weighted F1 "
              f"{report.weighted_f1:.4f} in {runs[arch]['minutes']:.1f} min")
    return runs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.time()
    worst_layers = check_layer_gradients()
    worst_models = check_model_gradients()
    elapsed = time.time() - started
    assert worst_layers < GRAD_TOLERANCE
    assert worst_models < GRAD_TOLERANCE
    assert elapsed < 60.0
    passed(1, "gradient correctness",
           f"layers {worst_layers:.2e}, models {worst_models:.2e}, {elapsed:.1f}s")


@needs_full_run
def test_criterion_2_baseline_reproduction(real_runs):
    f1 = real_runs[ArchitectureId.SB]["f1"]
    minutes = real_runs[ArchitectureId.SB]["minutes"]
    assert f1 >= BASELINE_F1_FLOOR
    assert minutes <= 240.0
    passed(2, "baseline reproduction", f"single-BiLSTM weighted F1 {f1:.4f}")


@needs_full_run
def test_criterion_3_two_stage_parity(real_runs):
    f1_bl = real_runs[ArchitectureId.BL]["f1"]
    f1_sb = real_runs[ArchitectureId.SB]["f1"]
    assert abs(f1_bl - f1_sb) <= PARITY_MARGIN
    passed(3, "two-stage parity", f"BL {f1_bl:.4f} vs SB {f1_sb:.4f}")


@needs_full_run
def test_criterion_4_attention_variant_direction(real_runs):
    pairs = [
        (ArchitectureId.BL_I, ArchitectureId.BL),
        (ArchitectureId.SB_I, ArchitectureId.SB),
    ]
    for variant, base in pairs:
        f1_v = real_runs[variant]["f1"]
        f1_b = real_runs[base]["f1"]
        assert abs(f1_v - f1_b) <= ATTENTION_MARGIN, (variant, f1_v, f1_b)
        assert f1_v - f1_b <= ATTENTION_GAIN_CAP, (variant, f1_v, f1_b)
    bl_e = real_runs[ArchitectureId.BL_E]["f1"]  # reported, not gated
    passed(4, "attention variants",
           f"BL-I {real_runs[ArchitectureId.BL_I]['f1']:.4f}, "
           f"SB-I {real_runs[ArchitectureId.SB_I]['f1']:.4f}, "
           f"BL-E (ungated) {bl_e:.4f}")


def test_criterion_5_head_divisor_rule():
    assert choose_heads(300) == 6
    assert choose_heads(3072) == 6
    assert choose_heads(4196) == 4
    passed(5, "head divisor rule", "300->6, 3072->6, 4196->4")


@needs_corpus
def test_criterion_6_corpus_pipeline():
    essays, split = load_real_corpus()
    assert len(essays) == 402
    assert len(split) == 402
    for essay, spans in essays:
        tokens = tokenize(essay.text)
        assert reconstruct(essay.text, tokens) == essay.text
        labels = bio_label(tokens, spans)
        units = spans_from_labels(labels)
        expected = []
        for span in sorted(spans, key=lambda s: s.start):
            covered = [
                i for i, t in enumerate(tokens)
                if t.start < span.end and span.start < t.end
            ]
            expected.append((covered[0], covered[-1]))
        assert units == expected, f"span coverage mismatch in {essay.id}"
    passed(6, "corpus pipeline", "402 essays, byte-exact round-trips")


def test_criterion_7_overfit_sanity(toy_embeddings):
    sequences = []
    for essay, spans in toy_corpus(11, seed=1):
        seqs = sorted(build_sequences(essay, spans, "paragraph"), key=len)
        sequences.append(seqs[0])
    accuracies = {}
    for arch in ArchitectureId:
        spec = ModelSpec(arch, input_dim=16, hidden=12, seed=0)
        cfg = TrainConfig(batch_size=16, max_epochs=500, patience=500,
                          learning_rate=1e-2, val_fraction=0.1, seed=0)
        model, _ = train(build_model(spec), sequences, toy_embeddings, cfg)
        trained, _ = split_by_essay(sequences, cfg.val_fraction, cfg.seed)
        assert len(trained) == 10
        batch, gold = _assemble(trained, toy_embeddings)
        predicted = predict_labels(model, batch)
        acc = float((predicted == gold).mean())
        accuracies[arch.value] = acc
        assert acc >= 0.99, f"{arch.value} reached only {acc:.4f}"
    detail = ", ".join(f"{k} {v:.3f}" for k, v in accuracies.items())
    passed(7, "overfit sanity", detail)


def test_criterion_8_attention_invariants():
    worst = check_attention_invariants()
    assert worst <= 1e-9
    passed(8, "attention invariants", f"max deviation {worst:.2e}")


@needs_full_run
def test_criterion_9_loss_curve_artifact(real_runs, tmp_path):
    curve = real_runs[ArchitectureId.BL]["curve"]
    path = tmp_path / "bl-curve.csv"
    with open(path, "w", encoding="utf-8") as fh:
        curve.write_csv(fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) == len(curve) + 1
    gap = generalization_gap(curve)
    assert gap > 0.0
    passed(9, "loss curve artifact", f"generalization gap {gap:+.4f}")


def test_precomputed_store_path_end_to_end(tmp_path):
    """Contextual-vector ingestion at the 3072-dim scale, fully synthetic."""
    dim = 3072
    rng = np.random.default_rng(42)
    annotated = toy_corpus(4, seed=6)

    records = []
    para_seqs = []
    for essay, spans in annotated:
        for seq in build_sequences(essay, spans, "sentence"):
            for t in range(len(seq)):
                records.append((essay.id, seq.sequence_index, t,
                                rng.standard_normal(dim) * 0.1))
        para_seqs.extend(build_sequences(essay, spans, "paragraph"))

    store = load_precomputed_file(write_store(tmp_path / "ctx.pv", dim, records))
    assert store.dim == dim and len(store) == len(records)
    first = {}  # each essay's first record: records run essay by essay in key order
    for k, (essay_id, *_) in enumerate(records):
        first.setdefault(essay_id, k)
    for k in [*range(5), *range(len(records) - 5, len(records))]:
        essay_id, _, _, vec = records[k]
        assert np.array_equal(read_rows(store, essay_id, k - first[essay_id], 1)[0], vec)

    # declared dimension is authoritative; off-by-anything is rejected
    from argseg.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        EmbeddingSpec([store], expected_dim=dim + 1)
    emb = EmbeddingSpec([store], expected_dim=dim)

    spec = ModelSpec(ArchitectureId.SB, input_dim=dim, hidden=6, seed=0)
    cfg = TrainConfig(batch_size=8, max_epochs=2, patience=5,
                      learning_rate=1e-3, val_fraction=0.25, seed=0)
    model, curve = train(build_model(spec), para_seqs, emb, cfg)
    assert len(curve) == 2
    report = evaluate(model, para_seqs, emb)
    assert 0.0 <= report.weighted_f1 <= 1.0
    passed(10, "precomputed-store path",
           f"dim {dim} round-trip + end-to-end run, F1 {report.weighted_f1:.3f}")
