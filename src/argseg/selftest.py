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
    values = rng.standard_normal((5, features)) * 0.5
    return BatchTensor.from_rows([values[:3], values[3:]])


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
            spec = ModelSpec(arch, input_dim=4, hidden=3, attn_dim=4, seed=seed)
            model = build_model(spec)
            x = random_batch(rng, 4)
            worst = max(worst, grad_check(model, x, EPSILON, rng))
    return worst


def check_attention_invariants(trials=20) -> float:
    """Permutation equivariance, and the per-sequence blocks of both forms.

    On a batch of three sequences each layer's ``blocks(cache)`` must yield
    exactly one weight block per sequence, spanning its tokens, with rows
    summing to 1, and each layer must give each sequence the rows it gives
    when run alone.
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
        values = rng.standard_normal((n, dim))
        perm = rng.permutation(n)
        lengths = (n, n - 2, 1)
        x2 = BatchTensor.from_rows([values[:m] for m in lengths])
        for layer in layers:
            out, _ = layer.forward(BatchTensor.from_rows([values]))
            out_perm, _ = layer.forward(BatchTensor.from_rows([values[perm]]))
            worst = max(worst, float(np.abs(out.rows[perm] - out_perm.rows).max()))
            out2, cache = layer.forward(x2)
            blocks = list(layer.blocks(cache))
            if [block.shape[-2:] for block in blocks] != [(m, m) for m in lengths]:
                worst = max(worst, 1.0)
            for (lo, hi), block in zip(x2.spans, blocks):
                worst = max(worst, float(np.abs(block.sum(axis=-1) - 1.0).max()))
                alone, _ = layer.forward(BatchTensor.from_rows([values[: hi - lo]]))
                worst = max(worst, float(np.abs(out2.rows[lo:hi] - alone.rows).max()))
    return worst


def check_corpus_roundtrip(n_essays=6, seed=3) -> int:
    """Tokenization reconstructs texts; BIO labels reconstruct span coverage."""
    failures = 0
    for essay, spans in toydata.toy_corpus(n_essays, seed):
        tokens = corpus.tokenize(essay.text)
        if corpus.reconstruct(essay.text, tokens) != essay.text:
            failures += 1
        labels = corpus.bio_label(tokens, spans)
        units = corpus.spans_from_labels(labels)
        expected = []
        for span in sorted(spans, key=lambda s: s.start):
            covered = [
                i for i, t in enumerate(tokens) if t.start < span.end and span.start < t.end
            ]
            expected.append((covered[0], covered[-1]))
        if units != expected:
            failures += 1
    return failures


def run_selftest() -> bool:
    """Run every check, print one PASS/FAIL line each; True if all passed.

    A check that raises fails with the exception named on its line, and the
    checks after it still run.
    """
    started = time.time()
    checks = [
        ("layer gradients", check_layer_gradients,
         lambda worst: (worst < GRAD_TOLERANCE, f"max rel err {worst:.2e}")),
        ("model gradients", check_model_gradients,
         lambda worst: (worst < GRAD_TOLERANCE, f"max rel err {worst:.2e}")),
        ("attention invariants", check_attention_invariants,
         lambda worst: (worst < 1e-9, f"max deviation {worst:.2e}")),
        ("corpus round-trip", check_corpus_roundtrip,
         lambda failures: (failures == 0, f"{failures} failing essays")),
    ]
    ok = True
    for name, check, judge in checks:
        try:
            passed, detail = judge(check())
        except Exception as exc:  # a broken check is reported, not raised
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {name} ({detail})")
    print(f"selftest finished in {time.time() - started:.1f}s")
    return ok
