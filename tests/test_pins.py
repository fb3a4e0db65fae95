"""SHA-256 pins of every layer's passes and of every architecture's training.

A change that moves one bit of a layer's forward, inference pass, input
gradient or parameter gradients, or of a seeded training run, fails here.
The digests hold for numpy 2.4.6 and the OpenBLAS it ships with (0.3.31,
scipy-openblas64) on the x86-64 host they were taken on; OpenBLAS picks
its kernels by CPU and by size, so another build may give other bits.  A
change that moves a digest on purpose names it in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from argseg.layers import (
    AdditiveSelfAttention,
    BiLstm,
    MultiHeadSelfAttention,
    TimeDistributedLinear,
    choose_heads,
)
from argseg.models import ArchitectureId, ModelSpec, build_model
from argseg.numeric import BatchTensor
from argseg.training import TrainConfig, evaluate, train

# (batch size, longest sequence, input width, hidden width); "para300" is
# the shape of a para300 training batch, and "para300-distinct" the same
# shape with rows from WORDS words, carrying its distinct rows
SHAPES = {"small": (3, 5, 4, 5), "para300": (64, 44, 300, 64),
          "para300-distinct": (64, 44, 300, 64)}
WORDS = 49

LAYERS = {
    "linear": lambda rng, d, h: TimeDistributedLinear(d, h, rng),
    "bilstm": lambda rng, d, h: BiLstm(d, h, rng),
    "additive": lambda rng, d, h: AdditiveSelfAttention(d, rng, attn_dim=32),
    "multi_head": lambda rng, d, h: MultiHeadSelfAttention(d, choose_heads(d), rng),
}


def layer_case(name, shape):
    """A seeded layer and batch; only the BiLSTM gets empty sequences."""
    batch, longest, dim, hidden = SHAPES[shape]
    rng = np.random.default_rng(1200 + list(SHAPES).index(shape))
    layer = LAYERS[name](rng, dim, hidden)
    shortest = 0 if name == "bilstm" else 1
    lengths = rng.integers(shortest, longest + 1, size=batch)
    lengths[:2] = shortest, longest
    if shape.endswith("-distinct"):
        distinct = rng.standard_normal((WORDS, dim))
        inverse = rng.integers(0, WORDS, size=lengths.sum())
        return layer, BatchTensor(distinct[inverse], lengths, (distinct, inverse)), rng
    rows = [rng.standard_normal((n, dim)) for n in lengths]
    return layer, BatchTensor.from_rows(rows), rng


def layer_digest(name, shape) -> str:
    """Forward rows, infer rows, the input gradient and every parameter
    gradient, then every parameter gradient of ``input_grad=False``."""
    layer, x, rng = layer_case(name, shape)
    digest = hashlib.sha256()
    out, cache = layer.forward(x)
    digest.update(out.rows.tobytes())
    digest.update(layer.infer(x).rows.tobytes())
    upstream = rng.standard_normal(out.rows.shape)
    digest.update(layer.backward(cache, upstream).tobytes())
    for input_grad in (True, False):
        if not input_grad:
            assert layer.backward(cache, upstream, input_grad=False) is None
        for p in layer.params():
            digest.update(p.grad.tobytes())
    return digest.hexdigest()


LAYER_DIGESTS = {
    ("linear", "small"):
        "fec687e1ef6e6ad80f9ffe9c083388f519c1ef404cacbbdba4e5d0b71f80fdcd",
    ("linear", "para300"):
        "33c02e220eb409e8c10055ebbdc1df74b768d82167f8b1ce11c595e15bc34f2b",
    ("bilstm", "small"):
        "e5ca1f0524dc8124c5e7f6227aab3c68f62a830f8cdee613936001c44320d27b",
    ("bilstm", "para300"):
        "874d411107f0627f5f3cd42ac25b4d28f0b7ddbb7b27f09c4deb83db7fbca8ad",
    ("additive", "small"):
        "6d05d66c4e0ee3707ff183583a246a200f5d1e87486e1a8fca527eaeed0d2161",
    ("additive", "para300"):
        "1bc861f287f05d1495819e1d50eaeaa84a8797ffeaec04126de31cf4425ecd61",
    ("multi_head", "small"):
        "f876748cb7be5ed8f56da32d7167166cb897318c26fa666aef1b9a0ac5ee481c",
    ("multi_head", "para300"):
        "76102abfe82ddae187123e7564ec0754028bf075e7d72574fca0705468bf991d",
    ("bilstm", "para300-distinct"):
        "70ae51c64102554f9c7fa8d0c8ed6bc417e62bfb305194050907b85d1437c9e2",
    ("additive", "para300-distinct"):
        "8b04dbfa512e9e7bf23cae18e26a83f254eb8db6b9d18cd8b1168f6c643ea2b8",
    ("multi_head", "para300-distinct"):
        "d3b598bd98e968f3f63a35f62f0e9966aec640a7d1cc7cb81766aebbea2eafbb",
}


@pytest.fixture(scope="module")
def one_thread_layer_digests():
    """layer_digest of every case, in a child process with one OpenBLAS
    thread, as the benchmark runs: OpenBLAS splits GEMMs of the para300
    shape across its threads, and another split gives other bits."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    code = ("import json, test_pins; "
            "print(json.dumps([test_pins.layer_digest(*case) for case in test_pins.LAYER_DIGESTS]))")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True)
    return dict(zip(LAYER_DIGESTS, json.loads(child.stdout)))


@pytest.mark.parametrize("name,shape", LAYER_DIGESTS, ids=[f"{n}-{s}" for n, s in LAYER_DIGESTS])
def test_layer_bits_are_pinned(name, shape, one_thread_layer_digests):
    assert one_thread_layer_digests[name, shape] == LAYER_DIGESTS[name, shape]


def training_digest(arch, sequences, embeddings) -> str:
    """A seeded 2-epoch train: its parameters, its loss curve, and the
    confusion matrix of evaluating it on every sequence."""
    spec = ModelSpec(arch, input_dim=16, hidden=8, attn_dim=8, seed=6)
    cfg = TrainConfig(batch_size=8, max_epochs=2, patience=5, learning_rate=3e-3, seed=6)
    model, curve = train(build_model(spec), sequences, embeddings, cfg)
    digest = hashlib.sha256()
    for p in model.params():
        digest.update(p.value.tobytes())
    digest.update(np.array(curve.train + curve.val).tobytes())
    digest.update(evaluate(model, sequences, embeddings).confusion.tobytes())
    return digest.hexdigest()


TRAINING_DIGESTS = {
    ArchitectureId.BL: "3dda3ae83a86be505f4df396a893c249963601b2c6ca2d491497cd073deaf9f0",
    ArchitectureId.BL_I: "9e48dfef80727fc12c519bf666aa0f3884455fc0270557e19e5eba600d555eb0",
    ArchitectureId.BL_E: "03f9bcd34ac3b68a89b1a64272be6e0d010fd773aa110e9d88c142fdeb782983",
    ArchitectureId.SB: "469695ea65a538c9eb587397d205ba6d015d5a20ee9618684516cfbe1dab2f34",
    ArchitectureId.SB_I: "d3402c28afce95c4d27ec437617555d766a0c10d929343a9751b04a5391d4a03",
}


@pytest.mark.parametrize("arch", TRAINING_DIGESTS, ids=[a.value for a in TRAINING_DIGESTS])
def test_training_bits_are_pinned(arch, toy_sequences, toy_embeddings):
    assert training_digest(arch, toy_sequences, toy_embeddings) == TRAINING_DIGESTS[arch]
