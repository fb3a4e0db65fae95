"""Built-in verification: gradient checks, corpus round-trips, invariants.

Everything here runs from fixed seeds on small fixtures in well under a
minute, so it doubles as an installation smoke test (`argseg selftest`).
"""

from __future__ import annotations

import time

import numpy as np

from . import corpus, toydata
from .layers import (
    AdditiveSelfAttention,
    BiLstm,
    MultiHeadSelfAttention,
    TimeDistributedLinear,
)
from .models import ArchitectureId, ModelSpec, build_model
from .numeric import BatchTensor, grad_check

GRAD_TOLERANCE = 1e-4
EPSILON = 1e-3


def random_batch(rng, features) -> BatchTensor:
    """Two sequences of 3 and 2 tokens, entries drawn at scale 0.5."""
    values = rng.standard_normal((2, 3, features)) * 0.5
    return BatchTensor.from_rows([values[0], values[1, :2]])


def layer_zoo(rng):
    """One small instance of every layer type, with a matching input width."""
    return [
        (TimeDistributedLinear(4, 3, rng, "linear"), 4),
        (BiLstm(4, 5, rng, "bilstm"), 4),
        (AdditiveSelfAttention(4, rng, attn_dim=5, name="attn_add"), 4),
        (MultiHeadSelfAttention(6, 2, rng, "attn_mha"), 6),
    ]


def check_layer_gradients(seeds=range(5)) -> float:
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for layer, width in layer_zoo(rng):
            x = random_batch(rng, width)
            worst = max(worst, grad_check(layer, x, EPSILON, rng))
    return worst


def check_model_gradients(seeds=range(5)) -> float:
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(1_000 + seed)
        for arch in ArchitectureId:
            spec = ModelSpec(arch, input_dim=4, hidden=3, inter_stage_dim=4,
                             attn_dim=4, seed=seed)
            model = build_model(spec)
            x = random_batch(rng, 4)
            worst = max(worst, grad_check(model, x, EPSILON, rng))
    return worst


def check_attention_invariants(trials=20, tol=1e-9) -> float:
    """Permutation equivariance, and the padded-batch contract of both forms.

    On a padded batch each layer must cache (``cache[2]``) one row-stochastic
    weight block per sequence spanning exactly its tokens, give exactly zero
    padded outputs, and match each row run alone.
    """
    worst = 0.0
    for trial in range(trials):
        rng = np.random.default_rng(50 + trial)
        dim = 6
        layers = [
            AdditiveSelfAttention(dim, rng, attn_dim=4, name="add"),
            MultiHeadSelfAttention(dim, 2, rng, "mha"),
        ]
        n = 5
        values = rng.standard_normal((1, n, dim))
        mask = np.ones((1, n), dtype=bool)
        x = BatchTensor(values, mask)
        perm = rng.permutation(n)
        x_perm = BatchTensor(values[:, perm], mask)
        lengths = (n, n - 2, 1)
        x2 = BatchTensor.from_rows([values[0, :m] for m in lengths])
        for layer in layers:
            out, _ = layer.forward(x)
            out_perm, _ = layer.forward(x_perm)
            worst = max(worst, float(np.abs(out.values[:, perm] - out_perm.values).max()))
            out2, cache = layer.forward(x2)
            shapes = [block.shape[-2:] for block in cache[2]]
            if out2.values[~x2.mask].any() or shapes != [(m, m) for m in lengths]:
                worst = max(worst, 1.0)
            for b, (m, block) in enumerate(zip(lengths, cache[2])):
                worst = max(worst, float(np.abs(block.sum(axis=-1) - 1.0).max()))
                alone, _ = layer.forward(BatchTensor(values[:, :m], mask[:, :m]))
                worst = max(worst, float(np.abs(out2.values[b, :m] - alone.values[0]).max()))
    return worst


def check_corpus_roundtrip(n_essays=6, seed=3) -> int:
    """Tokenization reconstructs texts; BIO labels reconstruct span coverage."""
    failures = 0
    for essay, spans in toydata.toy_corpus(n_essays, seed):
        tokens = corpus.tokenize(essay.text)
        if corpus.reconstruct(essay.text, tokens) != essay.text:
            failures += 1
        labels = corpus.bio_label(tokens, spans)
        units = corpus.spans_from_labels(tokens, labels)
        expected = []
        for span in sorted(spans, key=lambda s: s.start):
            covered = [
                i for i, t in enumerate(tokens) if t.start < span.end and span.start < t.end
            ]
            expected.append((covered[0], covered[-1]))
        if units != expected:
            failures += 1
    return failures


def run_selftest(verbose_print=print) -> bool:
    """Run every check, print one PASS/FAIL line each; True if all passed."""
    started = time.time()
    results = []

    worst = check_layer_gradients()
    results.append(("layer gradients", worst < GRAD_TOLERANCE, f"max rel err {worst:.2e}"))

    worst = check_model_gradients()
    results.append(("model gradients", worst < GRAD_TOLERANCE, f"max rel err {worst:.2e}"))

    worst = check_attention_invariants()
    results.append(("attention invariants", worst < 1e-9, f"max deviation {worst:.2e}"))

    failures = check_corpus_roundtrip()
    results.append(("corpus round-trip", failures == 0, f"{failures} failing essays"))

    ok = True
    for name, passed, detail in results:
        ok &= passed
        verbose_print(f"{'PASS' if passed else 'FAIL'}  {name} ({detail})")
    verbose_print(f"selftest finished in {time.time() - started:.1f}s")
    return ok
