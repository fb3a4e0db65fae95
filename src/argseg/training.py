"""Cross-entropy training with Adam, early stopping and lr search.

The trainer owns batching: sequences are shuffled every epoch with the run
seed and grouped into fixed-size batches, each packed into one
:class:`~argseg.numeric.BatchTensor` of token rows with the gold labels in
the same packed order.  A batch's sequences are vectorized as the batch is
built, validation batches again each epoch: the batch's one (tokens, dim)
array is allocated first and every source writes its columns into it, so
only one batch's input rows are alive at a time, however large the embedding
source.  Each array lives only while something reads it: a training step's
backward consumes the layer caches its forward made, and the validation loss
and ``evaluate`` run the layers through ``Model.logits``, which keeps no
cache.  Validation essays are split off by essay id (never by sequence) so
no essay leaks across the train/validation boundary.  Early stopping watches
validation loss and always restores the best parameters seen.

A run computes in ``TrainConfig.dtype``, float32 by default: ``train`` casts
the model's parameters to it before the first step, and batches, layer
buffers, gradients and Adam's moments follow the parameters.  ``evaluate``
builds its batches in the model's dtype, so it needs no option.  float64
runs the same arithmetic in double precision, about half as fast.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .corpus import LABELS, LabeledSequence
from .embeddings import EmbeddingSpec
from .errors import ContractViolation, DimensionError, NumericError, TrainingDiverged
from .metrics import MetricsReport, confusion_matrix, metrics_from_confusion
from .models import Model, ModelSpec, build_model, predict_labels
from .numeric import BatchTensor, Parameter


DTYPES = ("float32", "float64")  # the compute dtypes a run may choose


@dataclass
class TrainConfig:
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 10
    learning_rate: float = 1e-3
    val_fraction: float = 0.1
    seed: int = 0
    dtype: str = "float32"  # one of DTYPES

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # also rejects bool
                raise ContractViolation(f"{name} must be an int, got {value!r}")
        for name in ("learning_rate", "val_fraction"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ContractViolation(f"{name} must be a real number, got {value!r}")
        if not math.isfinite(self.learning_rate):
            raise ContractViolation(f"learning_rate must be finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ContractViolation(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0.0 < self.val_fraction < 0.5):
            raise ContractViolation(
                f"val_fraction must lie in (0, 0.5), got {self.val_fraction}"
            )
        if self.max_epochs < 1 or self.patience < 0 or self.learning_rate <= 0:
            raise ContractViolation("max_epochs >= 1, patience >= 0, learning_rate > 0")
        if self.seed < 0:
            raise ContractViolation(f"seed must be >= 0, got {self.seed}")
        if self.dtype not in DTYPES:
            raise ContractViolation(f"dtype must be one of {DTYPES}, got {self.dtype!r}")


@dataclass
class LossCurve:
    train: list[float] = field(default_factory=list)
    val: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.train)

    def write_csv(self, fh):
        fh.write("epoch,train_loss,val_loss\n")
        for epoch, (tr, vl) in enumerate(zip(self.train, self.val), start=1):
            fh.write(f"{epoch},{tr:.8f},{vl:.8f}\n")


def generalization_gap(curve: LossCurve) -> float:
    """Final validation loss minus final training loss."""
    if not curve.train:
        raise ContractViolation("loss curve is empty")
    return curve.val[-1] - curve.train[-1]


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def masked_cross_entropy(pred: BatchTensor, gold: np.ndarray):
    """Mean softmax cross-entropy over the tokens, plus d(loss)/d(pred.rows).

    ``pred`` holds per-token logit rows z and ``gold`` the (N,) label indices
    (B=0, I=1, O=2) in the same packed order.  Each token adds
    logsumexp(z) - z[gold], taken with max-subtraction so finite logits give
    a finite loss; its gradient is (softmax(z) - onehot(gold)) / N.
    """
    n = len(gold)
    if n == 0:
        raise ContractViolation("loss over zero tokens is undefined")
    if pred.rows.shape[0] != n:
        raise DimensionError(f"{n} gold labels for {pred.rows.shape[0]} logit rows")
    z = pred.rows - pred.rows.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1)
    rows = np.arange(n)
    loss = float((np.log(total) - z[rows, gold]).sum() / n)
    d = e / total[:, None]
    d[rows, gold] -= 1.0
    d /= n
    return loss, d


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """First/second moment accumulators mirroring one parameter list."""

    def __init__(self, params: list[Parameter]):
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]


def adam_step(params: list[Parameter], state: AdamState, lr: float):
    """One bias-corrected Adam update in place.

    A gradient that is not finite, or whose square overflows, raises
    :class:`NumericError` naming its parameter before that parameter's
    moments or value change.  The square overflows above about 1.3e154
    in float64 and about 1.8e19 in float32.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for i, p in enumerate(params):
        g = p.grad
        with np.errstate(over="ignore"):
            g2 = g * g
        if not np.isfinite(g2).all():  # g is not finite, or g * g overflows
            what = "non-finite" if not np.isfinite(g).all() else "overflowing"
            raise NumericError(f"{what} gradient for parameter {p.name}")
        state.m[i] += (1 - b1) * (g - state.m[i])
        state.v[i] += (1 - b2) * (g2 - state.v[i])
        m_hat = state.m[i] / (1 - b1**t)
        v_hat = state.v[i] / (1 - b2**t)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


_LABEL_IDS = {label: k for k, label in enumerate(LABELS)}


def _assemble(sequences: list[LabeledSequence], spec: EmbeddingSpec, dtype):
    """One batch of the sequences, vectorized now in ``dtype``, and their gold labels."""
    batch = spec.batch(sequences, dtype)
    labels = chain.from_iterable(seq.labels for seq in sequences)
    return batch, np.fromiter(map(_LABEL_IDS.__getitem__, labels), np.int64, len(batch.rows))


def _batches(sequences: list[LabeledSequence], order, spec: EmbeddingSpec, batch_size: int,
             dtype):
    for lo in range(0, len(order), batch_size):
        yield _assemble([sequences[i] for i in order[lo : lo + batch_size]], spec, dtype)


def _dataset_loss(model: Model, batches) -> float:
    total = 0.0
    count = 0
    for batch, gold in batches:
        loss, _ = masked_cross_entropy(model.logits(batch), gold)
        total += loss * len(gold)
        count += len(gold)
    return total / count


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _train_epoch(model: Model, params: list[Parameter], state: AdamState, lr: float,
                 batches) -> float:
    """One Adam step per batch; the mean training loss over the epoch's tokens.
    A batch whose loss is not finite raises :class:`NumericError` naming it
    and takes no step; :func:`adam_step` raises on a bad gradient; ``train``
    turns either into :class:`TrainingDiverged`.  Each batch's arrays are
    this function's locals, so none of them outlives the epoch."""
    running = 0.0
    seen = 0
    for k, (batch, gold) in enumerate(batches, start=1):
        logits, caches = model.forward(batch)
        loss, grad = masked_cross_entropy(logits, gold)
        if not math.isfinite(loss):
            raise NumericError(f"training loss is {loss} in batch {k}")
        running += loss * len(gold)
        seen += len(gold)
        model.backward(caches, grad, input_grad=False)
        adam_step(params, state, lr)
    return running / seen


def split_by_essay(sequences: list[LabeledSequence], val_fraction: float, seed: int):
    """Deterministically hold out whole essays for validation."""
    essay_ids = sorted({seq.essay_id for seq in sequences})
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(essay_ids))
    n_val = max(1, int(round(val_fraction * len(essay_ids))))
    if n_val >= len(essay_ids):
        raise ContractViolation(
            f"cannot hold out {n_val} of {len(essay_ids)} essays for validation"
        )
    val_ids = {essay_ids[i] for i in order[:n_val]}
    train = [s for s in sequences if s.essay_id not in val_ids]
    val = [s for s in sequences if s.essay_id in val_ids]
    return train, val


def train(model: Model, train_sequences: list[LabeledSequence],
          spec: EmbeddingSpec, cfg: TrainConfig):
    """Train in place; returns (model, LossCurve) with best-epoch weights restored.

    The input rows are fixed vectors that nothing trains, so the backward
    pass forms no gradient for them (``Model.backward(..., input_grad=False)``).
    They are read batch by batch; a sequence the spec does not cover raises
    ``CoverageError`` before the first step, and in float32 so does a token
    whose vector float32 cannot hold, with :class:`NumericError` naming it
    (:meth:`EmbeddingSpec.check_coverage`).  The model is then cast to
    ``cfg.dtype`` (:meth:`Model.cast`), which it keeps; a parameter that is
    not finite after the cast raises :class:`NumericError`, also before the
    first step.

    Training stops once more than ``cfg.patience`` epochs follow the best
    one, the first of the lowest validation losses on the curve.  A
    divergence of any cause (a training loss, gradient, parameter or
    validation loss that is not finite) raises :class:`TrainingDiverged`
    naming the epoch and the cause; the model then carries the parameters of
    the last finite epoch (or its initial ones), which ``argseg train``
    saves before it exits 1.
    """
    if not train_sequences:
        raise ContractViolation("no training sequences")
    train_seqs, val_seqs = split_by_essay(train_sequences, cfg.val_fraction, cfg.seed)
    spec.check_coverage(train_seqs + val_seqs, cfg.dtype)
    model.cast(cfg.dtype)

    rng = np.random.default_rng(cfg.seed)
    params = model.params()
    state = AdamState(params)
    curve = LossCurve()
    last_finite = best_values = model.get_values()  # set_values copies, so they may alias

    for epoch in range(1, cfg.max_epochs + 1):
        batches = _batches(train_seqs, rng.permutation(len(train_seqs)), spec, cfg.batch_size,
                           model.dtype)
        try:
            train_loss = _train_epoch(model, params, state, cfg.learning_rate, batches)
            for p in params:
                if not np.isfinite(p.value).all():
                    raise NumericError(f"parameter {p.name} is not finite")
            val_loss = _dataset_loss(model, _batches(val_seqs, np.arange(len(val_seqs)), spec,
                                                     cfg.batch_size, model.dtype))
            if not math.isfinite(val_loss):
                raise NumericError(f"validation loss is {val_loss}")
        except NumericError as exc:
            model.set_values(last_finite)
            raise TrainingDiverged(
                f"epoch {epoch}: {exc}; model restored to its last finite state") from exc
        curve.train.append(train_loss)
        curve.val.append(val_loss)
        last_finite = model.get_values()

        best = int(np.argmin(curve.val))  # the first of equal losses
        if best == len(curve) - 1:
            best_values = last_finite
        elif len(curve) - 1 - best > cfg.patience:
            break

    model.set_values(best_values)
    return model, curve


def evaluate(model: Model, sequences: list[LabeledSequence],
             spec: EmbeddingSpec, batch_size: int = TrainConfig.batch_size) -> MetricsReport:
    """Metrics of a frozen model over the given sequences, vectorized batch by
    batch in the model's dtype; a sequence the spec does not cover raises
    ``CoverageError`` first, and in float32 so does a token whose vector
    float32 cannot hold, with :class:`NumericError` naming it."""
    if type(batch_size) is not int:  # also rejects bool
        raise ContractViolation(f"batch_size must be an int, got {batch_size!r}")
    if batch_size < 1:
        raise ContractViolation(f"batch_size must be >= 1, got {batch_size}")
    if not sequences:
        raise ContractViolation("no sequences to evaluate")
    spec.check_coverage(sequences, model.dtype)
    total = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    for batch, gold in _batches(sequences, np.arange(len(sequences)), spec, batch_size,
                                model.dtype):
        predicted = predict_labels(model, batch)
        total += confusion_matrix(gold, predicted)
    return metrics_from_confusion(total)


# ---------------------------------------------------------------------------
# Learning-rate search
# ---------------------------------------------------------------------------

LR_RANGE = (1e-4, 1e-2)


def sample_learning_rate(rng) -> float:
    """One log-uniform draw from :data:`LR_RANGE`."""
    low, high = LR_RANGE
    return float(10.0 ** rng.uniform(math.log10(low), math.log10(high)))


def trial_seed(base_seed: int, trial: int) -> int:
    return (base_seed * 1_000_003 + trial * 7_919 + 1) % (2**31)


@dataclass
class TrialResult:
    trial: int
    learning_rate: float
    best_val_loss: float | None
    error: str | None = None


def lr_search(model_spec: ModelSpec, sequences: list[LabeledSequence],
              spec: EmbeddingSpec, cfg: TrainConfig, trials: int = 4):
    """Random search over :data:`LR_RANGE` for the learning rate; every trial is fully seeded.

    Each trial builds a fresh model and trains it; the config with the lowest
    best validation loss wins.  Returns (best TrainConfig, its trained Model,
    its LossCurve, [TrialResult]); the winner is kept, not trained again.
    """
    if type(trials) is not int:  # also rejects bool
        raise ContractViolation(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise ContractViolation(f"need at least one trial, got {trials}")
    results: list[TrialResult] = []
    best: tuple[float, TrainConfig, Model, LossCurve] | None = None
    for k in range(trials):
        seed_k = trial_seed(cfg.seed, k)
        lr = sample_learning_rate(np.random.default_rng(seed_k))
        cfg_k = replace(cfg, learning_rate=lr, seed=seed_k)
        model_k = build_model(replace(model_spec, seed=seed_k))
        try:
            model_k, curve = train(model_k, sequences, spec, cfg_k)
        except TrainingDiverged as exc:
            results.append(TrialResult(k, lr, None, str(exc)))
            continue
        val = min(curve.val)
        results.append(TrialResult(k, lr, val))
        if best is None or val < best[0]:
            best = (val, cfg_k, model_k, curve)
    if best is None:
        detail = "; ".join(f"trial {r.trial} (lr={r.learning_rate:.2e}): {r.error}" for r in results)
        raise NumericError(f"every learning-rate trial diverged: {detail}")
    return *best[1:], results
