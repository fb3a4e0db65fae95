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
# how far, normwise and relative, a weight gradient summed per distinct row
# (BatchTensor.t_times) may lie from the plain product's
SUMMED_TOLERANCE = 1e-12


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
# 16), with a narrow width that times pads (4); then the gate's edge, depths
# 384 and 385, where a 32-wide product's rows depend on the other rows
DISTINCT_SHAPES = ((300, 256), (300, 32), (300, 300), (16, 32), (16, 16), (16, 4),
                   (384, 32), (385, 32))


def check_distinct_rows() -> tuple[int, int, float]:
    """(shapes whose products differ, shapes projected through the distinct
    rows, the worst normwise relative deviation of ``t_times``).

    A batch of ``para300``-like lengths (64 sequences of 1 to 44 tokens) whose
    rows come from 49 words, with its distinct rows, must give the bytes of
    the same rows without them at every shape of
    :data:`DISTINCT_SHAPES`, in packed and in a permuted order.  This checks
    the property :func:`argseg.numeric._rows_stand_alone` asserts of the BLAS
    on the machine that runs it.  In the same orders, its transposed products
    with a gradient (:meth:`BatchTensor.t_times`), summed per distinct row,
    must lie within :data:`SUMMED_TOLERANCE` of the same rows', normwise.
    """
    rng = np.random.default_rng(61)
    lengths = [int(n) for n in rng.integers(1, 45, size=64)]
    differ = projected = 0
    worst = 0.0
    for depth, width in DISTINCT_SHAPES:
        distinct = rng.standard_normal((49, depth))
        inverse = rng.integers(0, 49, size=sum(lengths))
        rows = distinct[inverse]
        with_pair = BatchTensor(rows, lengths, (distinct, inverse))
        plain = BatchTensor(rows, lengths)
        w = rng.standard_normal((depth, width))
        order = rng.permutation(len(inverse))
        projected += with_pair.projects_distinct(w)
        differ += any(with_pair.times(w, *args).tobytes() != plain.times(w, *args).tobytes()
                      for args in ((), (order,)))
        g = rng.standard_normal((len(inverse), width))
        for args in ((), (order,)):
            expected = plain.t_times(g, *args)
            deviation = np.linalg.norm(with_pair.t_times(g, *args) - expected)
            # np.maximum, unlike max, keeps a NaN, which then fails the line
            worst = float(np.maximum(worst, deviation / np.linalg.norm(expected)))
    return differ, projected, worst


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
        ("distinct rows", check_distinct_rows,
         lambda found: (found[0] == 0 and found[2] <= SUMMED_TOLERANCE,
                        f"{found[0]} of {len(DISTINCT_SHAPES)} shapes differ, {found[1]} "
                        f"projected through the distinct rows, summed gradients off by "
                        f"{found[2]:.1e}")),
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
