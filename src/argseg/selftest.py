"""Built-in verification: gradient checks, invariants, distinct rows, corpus round-trips.

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

GRAD_TOLERANCE = 1e-10
# how far, normwise and relative, a product with distinct rows
# (BatchTensor.times) or a weight gradient summed per distinct row
# (BatchTensor.t_times) may lie from the plain product's, in float64 and in
# float32; check_distinct_rows gives about 1.6e-15 and 7.7e-7
DISTINCT_TOLERANCE = 1e-12
DISTINCT_TOLERANCE_F32 = 1e-5


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


def check_layer_gradients() -> float:
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for layer, width in layer_zoo(rng):
            x = random_batch(rng, width)
            worst = max(worst, grad_check(layer, x, rng))
    return worst


def check_model_gradients() -> float:
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(1_000 + seed)
        for arch in ArchitectureId:
            spec = ModelSpec(arch, input_dim=4, hidden=3, attn_dim=4, seed=seed)
            model = build_model(spec)
            x = random_batch(rng, 4)
            worst = max(worst, grad_check(model, x, rng))
    return worst


def check_attention_invariants() -> float:
    """Permutation equivariance, and the per-sequence blocks of both forms.

    On a batch of three sequences each layer's ``blocks(cache)`` must yield
    exactly one weight block per sequence, spanning its tokens, with rows
    summing to 1, and each layer must give each sequence the rows it gives
    when run alone.
    """
    worst = 0.0
    for trial in range(20):
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


# (input depth, projection width): the five architectures' first-layer
# projections at 300-d vectors and the default sizes (the BiLSTM's W is
# 4H = 256 wide, additive attention's W_t and W_x 32, multi-head attention's
# W_q, W_k and W_v 300) and at the training pins' 16-d inputs (4H = 32, and
# 16), with a narrow width (4) and a depth past 384 (385)
DISTINCT_SHAPES = ((300, 256), (300, 32), (300, 300), (16, 32), (16, 16), (16, 4),
                   (385, 32))


def check_distinct_rows(dtype) -> tuple[float, float]:
    """The worst normwise relative deviations of :meth:`BatchTensor.times`
    and of :meth:`BatchTensor.t_times` with distinct rows from the plain
    products of the same rows, in ``dtype``.

    A batch of ``para300``-like lengths (64 sequences of 1 to 44 tokens) whose
    rows come from 49 words is multiplied with and without its distinct rows
    at every shape of :data:`DISTINCT_SHAPES`, in packed and in a permuted
    order, by a weight (``times``) and by a gradient transposed (``t_times``,
    which sums per distinct row).  Rows, weights and gradients all have
    ``dtype``, so float32 checks the BLAS's SGEMM and float64 its DGEMM.
    """
    rng = np.random.default_rng(61)
    lengths = [int(n) for n in rng.integers(1, 45, size=64)]
    worst = [0.0, 0.0]
    for depth, width in DISTINCT_SHAPES:
        distinct = rng.standard_normal((49, depth)).astype(dtype)
        inverse = rng.integers(0, 49, size=sum(lengths))
        rows = distinct[inverse]
        with_pair = BatchTensor(rows, lengths, (distinct, inverse))
        plain = BatchTensor(rows, lengths)
        w = rng.standard_normal((depth, width)).astype(dtype)
        g = rng.standard_normal((len(inverse), width)).astype(dtype)
        order = rng.permutation(len(inverse))
        for args in ((), (order,)):
            for k, (method, operand) in enumerate((("times", w), ("t_times", g))):
                expected = getattr(plain, method)(operand, *args)
                deviation = np.linalg.norm(getattr(with_pair, method)(operand, *args) - expected)
                # np.maximum, unlike max, keeps a NaN, which then fails the line
                worst[k] = float(np.maximum(worst[k], deviation / np.linalg.norm(expected)))
    return worst[0], worst[1]


def check_corpus_roundtrip() -> int:
    """Tokenization reconstructs texts; BIO labels reconstruct span coverage."""
    failures = 0
    for essay, spans in toydata.toy_corpus(6, seed=3):
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


# each dtype the distinct rows are checked in, with its bound on their deviation
DISTINCT_DTYPES = ((np.float64, DISTINCT_TOLERANCE), (np.float32, DISTINCT_TOLERANCE_F32))


def judge_distinct_rows(found: list[tuple[float, float]]) -> tuple[bool, str]:
    """(passed, detail) for :func:`check_distinct_rows`' results, one per
    entry of :data:`DISTINCT_DTYPES`."""
    passed = all(times <= bound and summed <= bound  # False for a NaN
                 for (times, summed), (_, bound) in zip(found, DISTINCT_DTYPES, strict=True))
    detail = "; ".join(
        f"{np.dtype(dtype)}: products off by {times:.1e}, summed gradients off by {summed:.1e}"
        for (times, summed), (dtype, _) in zip(found, DISTINCT_DTYPES))
    return passed, detail


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
        ("distinct rows",
         lambda: [check_distinct_rows(dtype) for dtype, _ in DISTINCT_DTYPES],
         judge_distinct_rows),
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
