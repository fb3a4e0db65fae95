"""The benchmark proper: inputs, set-up, warm-up, timed rounds, checks, metrics.

Each workload is a closed loop: one process, one caller, one call at a time.
The program is driven only through its public API, in the order a user would
call it: ``read_conll`` -> ``EmbeddingSpec.from_file`` -> ``build_model`` ->
``train`` -> ``evaluate``.

A timed round gives every architecture one ``train`` call and one
``evaluate`` call, architectures interleaved so slow drift of the machine
hits them alike.  A ``train`` call is one epoch over a slice of essays sized
so that the epoch is a fixed number of optimizer steps; an ``evaluate`` call
covers a fixed number of batches of the full set, and successive rounds walk
on through the set.  Both are at least two batches, so batch order can act.
Rounds repeat while the next one fits in ``seconds`` (at least
``MIN_ROUNDS`` are played), and every throughput is the interquartile mean
of its calls' rates.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from argseg import (
    ArchitectureId,
    BatchTensor,
    EmbeddingSpec,
    ModelSpec,
    TrainConfig,
    build_model,
    build_sequences,
    evaluate,
    load_checkpoint,
    parse_brat,
    predict_labels,
    read_conll,
    save_checkpoint,
    train,
    write_conll,
)
from argseg.corpus import Essay
from argseg.training import split_by_essay

import inputs
from spans import Tracer, instrument

ARCHS = ("sb", "sb-i", "bl", "bl-i", "bl-e")
SETUP_REPEATS = 5
WARMUP_ROUNDS = 1
MIN_ROUNDS = 3  # timed rounds played even when the next one overruns ``seconds``
CHECK_SEQUENCES = 8  # the fixed batch of the checkpoint round trip
VAL_FRACTION = TrainConfig.val_fraction


@dataclass(frozen=True)
class Workload:
    name: str
    essays: int
    whole_body: bool  # each essay body is one sequence instead of one per paragraph
    store: bool  # vectors come from a precomputed store instead of a GloVe text file
    dim: int
    train_steps: int  # optimizer steps per train() call
    eval_batches: int  # batches per evaluate() call
    hidden: int = 64
    batch_size: int = 64


# Every call spans at least two batches, so the order train() and evaluate()
# give their batches (length bucketing, say) can change the padding they feed.
WORKLOADS = {
    # titles and paragraphs (T 6 to 44): the BiLSTM time loop, padding and Adam dominate
    "para300": Workload("para300", 402, whole_body=False, store=False, dim=300,
                        train_steps=4, eval_batches=4),
    # titles (6 tokens) next to whole bodies (66 to 132): attention's T^2 terms and
    # padding waste dominate; the vectors load from a ~97 MiB precomputed store.
    # Batches of 64 made a round ~16 s, so a run held three rounds and spread
    # by up to 0.15; batches of 32 halve the round
    "essay300": Workload("essay300", 402, whole_body=True, store=True, dim=300,
                         train_steps=2, eval_batches=2, batch_size=32),
}


def blas_version() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("version", "unknown"))
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "warmup_rounds": WARMUP_ROUNDS,
        "setup_repeats": SETUP_REPEATS,
    }


def max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Yardstick:
    """A fixed kernel shaped like one LSTM step, timed on both sides of every timed call.

    The speed of the shared host this benchmark was built on drifts, in spells
    of seconds to tens of seconds, by up to a factor of two, and by much the
    same factor for every architecture: raw throughputs of ten runs spread by
    up to 0.29 (IQR over median).  Dividing each call's
    wall seconds by the kernel's current slowdown (its time over
    ``NOMINAL_S``) cancels that drift.  The kernel is not the program's code,
    so no change to the program can move it.  Reported times are therefore
    seconds at the machine speed where the kernel takes ``NOMINAL_S``; the raw
    wall seconds and factors are in the run's detail line.
    """

    ITERATIONS = 150
    NOMINAL_S = 0.012

    def __init__(self):
        rng = np.random.default_rng(0)
        self.h = rng.random((64, 64))
        self.w = rng.random((64, 256))

    def kernel_seconds(self) -> float:
        start = perf_counter()
        for _ in range(self.ITERATIONS):
            np.tanh(self.h @ self.w)
        return perf_counter() - start

    def time(self, fn):
        """(fn's result, wall seconds, slowdown factor of the machine meanwhile)."""
        before = self.kernel_seconds()
        start = perf_counter()
        result = fn()
        elapsed = perf_counter() - start
        after = self.kernel_seconds()
        return result, elapsed, (before + after) / (2 * self.NOMINAL_S)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def prepare(workload: Workload, seed: int, workdir: Path) -> tuple[Path, Path]:
    """Write the workload's files; returns (CoNLL path, embedding spec path)."""
    corpus = workdir / "brat"
    corpus.mkdir()
    ids = inputs.write_corpus(corpus, workload.essays, seed, workload.whole_body)
    sequences = []
    for essay_id in ids:
        text = (corpus / f"{essay_id}.txt").read_text(encoding="utf-8")
        spans = parse_brat((corpus / f"{essay_id}.ann").read_text(encoding="utf-8"), text)
        sequences.extend(build_sequences(Essay(essay_id, text), spans, "paragraph"))
    conll = workdir / "corpus.conll"
    with open(conll, "w", encoding="utf-8") as fh:
        write_conll(sequences, fh)

    vectors = inputs.word_vectors(workload.dim, seed)
    spec = workdir / "embeddings.json"
    if workload.store:
        inputs.write_store(workdir / "vectors.pv", workload.dim, (
            (seq.essay_id, seq.sequence_index, i, vectors[tok.text.lower()])
            for seq in sequences for i, tok in enumerate(seq.tokens)
        ))
        inputs.write_spec(spec, workload.dim, "precomputed", "vectors.pv")
    else:
        inputs.write_glove(workdir / "glove.txt", vectors)
        inputs.write_spec(spec, workload.dim, "glove", "glove.txt")
    return conll, spec


def setup(conll: Path, spec_path: Path, workload: Workload, seed: int, tracer: Tracer):
    """From files on disk to five built models.

    Returns (seqs, spec, models, growth of the RSS high-water mark in MiB
    across ``EmbeddingSpec.from_file``)."""
    with tracer.span("corpus.read_conll"), open(conll, encoding="utf-8") as fh:
        sequences = read_conll(fh)
    rss_before = max_rss_mib()
    with tracer.span("embeddings.from_file"):
        spec = EmbeddingSpec.from_file(spec_path)
    from_file_rss_mib = max_rss_mib() - rss_before
    models = {}
    for arch in ARCHS:
        with tracer.span("models.build_model"):
            models[arch] = build_model(model_spec(arch, spec.expected_dim, workload, seed))
    return sequences, spec, models, from_file_rss_mib


def model_spec(arch: str, dim: int, workload: Workload, seed: int) -> ModelSpec:
    return ModelSpec(ArchitectureId.from_string(arch), input_dim=dim,
                     hidden=workload.hidden, seed=seed)


# ---------------------------------------------------------------------------
# Slices fed to train() and evaluate()
# ---------------------------------------------------------------------------


def essays_per_train_call(per_essay: int, steps: int, batch_size: int) -> int:
    """Essays to pass so that train() keeps ``steps`` full batches after holding out
    its validation essays (``max(1, round(fraction * n))``, as ``split_by_essay``)."""
    kept = -(-steps * batch_size // per_essay)
    n = kept
    while n - max(1, round(VAL_FRACTION * n)) < kept:
        n += 1
    return n


class Slices:
    """Deterministic, wrapping walks through the essays and the full sequence set."""

    def __init__(self, sequences, workload: Workload):
        self.sequences = sequences
        self.by_essay: dict[str, list] = {}
        for seq in sequences:
            self.by_essay.setdefault(seq.essay_id, []).append(seq)
        self.essay_ids = list(self.by_essay)
        self.per_essay = max(len(v) for v in self.by_essay.values())
        self.batch_size = workload.batch_size
        self.train_essays = self._essays(workload.train_steps)
        self.eval_size = min(len(sequences), workload.eval_batches * workload.batch_size)

    def _essays(self, steps: int) -> int:
        return min(len(self.essay_ids),
                   essays_per_train_call(self.per_essay, steps, self.batch_size))

    def train(self, k: int) -> list:
        n, size = len(self.essay_ids), self.train_essays
        ids = [self.essay_ids[(k * size + i) % n] for i in range(size)]
        return [seq for essay_id in ids for seq in self.by_essay[essay_id]]

    def longest(self) -> tuple[list, list]:
        """One optimizer step's worth of the essays with the longest sequences,
        and one evaluate batch of the longest sequences."""
        ids = sorted(self.essay_ids, key=lambda e: -max(map(len, self.by_essay[e])))
        train = [seq for essay_id in ids[:self._essays(1)] for seq in self.by_essay[essay_id]]
        return train, sorted(self.sequences, key=len)[-self.batch_size:]

    def evaluate(self, k: int) -> list:
        n = len(self.sequences)
        return [self.sequences[(k * self.eval_size + i) % n] for i in range(self.eval_size)]


def tokens(sequences) -> int:
    return sum(len(seq) for seq in sequences)


def trained_tokens(sequences, seed: int) -> int:
    """Valid tokens train() trains on: those of the essays it does not hold out."""
    return tokens(split_by_essay(sequences, VAL_FRACTION, seed)[0])


# ---------------------------------------------------------------------------
# Operations and their output checks
# ---------------------------------------------------------------------------


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, label: str, op):
        """Run ``op``; it returns (result, problem or None).  None if it failed."""
        self.attempted += 1
        try:
            result, problem = op()
        except Exception:  # any failure of the program is counted, not fatal
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None
        if problem:
            self.failures.append(f"{label}: {problem}")
            return None
        return result


def train_op(model, sequences, spec, workload: Workload, seed: int, yardstick: Yardstick):
    cfg = TrainConfig(batch_size=workload.batch_size, max_epochs=1, seed=seed)
    (_, curve), elapsed, slowdown = yardstick.time(lambda: train(model, sequences, spec, cfg))
    losses = curve.train + curve.val
    problem = None if losses and all(map(math.isfinite, losses)) else f"losses {losses}"
    return (elapsed, slowdown, curve.train[-1] if curve.train else math.nan), problem


def eval_op(model, sequences, spec, workload: Workload, yardstick: Yardstick):
    report, elapsed, slowdown = yardstick.time(
        lambda: evaluate(model, sequences, spec, batch_size=workload.batch_size))
    total, expected = int(report.confusion.sum()), tokens(sequences)
    problem = None if total == expected else f"confusion total {total} != {expected} tokens"
    return (elapsed, slowdown, report.weighted_f1), problem


def checkpoint_op(model, sequences, spec, path: Path):
    """save -> load must give identical predictions on one fixed batch."""
    batch = BatchTensor.from_rows([spec.vectorize(seq) for seq in sequences])
    save_checkpoint(model, path)
    same = np.array_equal(predict_labels(model, batch), predict_labels(load_checkpoint(path), batch))
    return None, None if same else "predictions differ after a checkpoint round trip"


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Rounds:
    """Timed rounds over the five models, with their samples and quality figures."""

    def __init__(self, workload: Workload, seed: int, spec, models: dict, slices: Slices,
                 ledger: Ledger, tracer: Tracer, yardstick: Yardstick):
        self.workload, self.seed, self.spec, self.models = workload, seed, spec, models
        self.slices, self.ledger, self.tracer = slices, ledger, tracer
        self.yardstick = yardstick
        # (valid tokens, wall seconds, slowdown) of every timed call
        self.samples = {(phase, arch): [] for phase in ("train", "eval") for arch in ARCHS}
        self.quality: dict[str, float] = {}  # from the first round, so seeded and comparable
        # seconds inside train() and evaluate() per round, corrected for drift
        self.op_time: dict[int, float] = {}
        self.traced: list[int] = []
        self.played = 0

    def play(self, k: int, traced: bool):
        """One round on the k-th slices, optionally with every layer call traced."""
        rnd, wl = self.played, self.workload
        self.played += 1
        train_slice, eval_slice = self.slices.train(k), self.slices.evaluate(k)
        trained = trained_tokens(train_slice, self.seed)
        restore = instrument(self.tracer, self.spec, self.models) if traced else None
        self.tracer.round = rnd
        try:
            for arch in ARCHS:
                self.tracer.arch = arch
                model = self.models[arch]
                out = self.ledger.run(f"round {rnd} train {arch}", lambda: train_op(
                    model, train_slice, self.spec, wl, self.seed, self.yardstick))
                if out:
                    self._record(rnd, "train", arch, trained, out, "final_train_loss")
                out = self.ledger.run(f"round {rnd} evaluate {arch}", lambda: eval_op(
                    model, eval_slice, self.spec, wl, self.yardstick))
                if out:
                    self._record(rnd, "eval", arch, tokens(eval_slice), out, "weighted_f1")
        finally:
            if restore:
                restore()
            self.tracer.round, self.tracer.arch = "checks", ""
        if traced:
            self.traced.append(rnd)

    def _record(self, rnd, phase, arch, count, out, quality_name):
        elapsed, slowdown, quality = out
        self.samples[phase, arch].append((count, elapsed, slowdown))
        self.op_time[rnd] = self.op_time.get(rnd, 0.0) + elapsed / slowdown
        self.quality.setdefault(f"{quality_name}.{arch}", quality)


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    tracer = Tracer(enabled=trace)
    ledger = Ledger()
    phases = {}
    mark = perf_counter()

    def lap(name):
        nonlocal mark
        now = perf_counter()
        phases[name] = now - mark
        mark = now

    conll, spec_path = prepare(workload, seed, workdir)
    lap("prepare")

    yardstick = Yardstick()
    setup_times = []  # (wall seconds, slowdown)
    from_file_rss_mib = None
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # drop the previous set-up before loading again
        state, elapsed, slowdown = yardstick.time(
            lambda: setup(conll, spec_path, workload, seed, tracer))
        setup_times.append((elapsed, slowdown))
        if from_file_rss_mib is None:  # later loads stay below the first one's peak
            from_file_rss_mib = state[3]
    sequences, spec, models, _ = state
    slices = Slices(sequences, workload)
    lap("setup")

    # the first calls of a process pay for lazy initialisation (a cold BiLstm
    # forward took ~1 s against ~0.1 s warm): one step and one evaluate batch
    # per architecture on throwaway models.  They feed the longest sequences,
    # so the largest buffers are allocated and the memory high-water mark is
    # reached here, whatever slices the timed rounds later visit
    warm_train, warm_eval = slices.longest()
    for _ in range(WARMUP_ROUNDS):
        for arch in ARCHS:
            scratch = build_model(model_spec(arch, spec.expected_dim, workload, seed))
            ledger.run(f"warm-up train {arch}",
                       lambda: train_op(scratch, warm_train, spec, workload, seed, yardstick))
            ledger.run(f"warm-up evaluate {arch}",
                       lambda: eval_op(scratch, warm_eval, spec, workload, yardstick))
    lap("warmup")

    rounds = Rounds(workload, seed, spec, models, slices, ledger, tracer, yardstick)
    start = perf_counter()
    k = 0
    while True:
        unit_start = perf_counter()
        if trace:
            # each slice runs once plain and once traced, alternating which goes
            # first, so the traced run measures its own overhead
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                rounds.play(k, traced)
        else:
            rounds.play(k, False)
        k += 1
        now = perf_counter()
        overrun = now - start + (now - unit_start) > seconds  # by the next one
        if overrun and rounds.played >= MIN_ROUNDS:
            break
    lap("measure")

    fixed = sequences[:CHECK_SEQUENCES]
    for arch in ARCHS:
        ledger.run(f"checkpoint {arch}", lambda: checkpoint_op(
            models[arch], fixed, spec, workdir / f"{arch}.ckpt"))
    lap("checks")

    failed = len(ledger.failures)
    result = {"correct": failed == 0, "attempted": ledger.attempted, "failed": failed}
    if trace:
        result["metrics"] = layer_metrics(tracer, rounds, from_file_rss_mib)
    else:
        result["metrics"] = end_to_end_metrics(rounds.samples, setup_times, ledger)
    detail = {
        "environment": environment(workload, seed, seconds, trace),
        "rounds": rounds.played,
        "samples_per_metric": min(len(v) for v in rounds.samples.values()),
        "phase_s": phases,
        "setup": setup_times,
        "quality": rounds.quality,
        "calls": {f"{phase}.{arch}": v for (phase, arch), v in rounds.samples.items()},
        "failures": ledger.failures,
    }
    return {"detail": detail, "result": result}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def interquartile_mean(values) -> float:
    """Mean of the middle half: steadier than the median over a few samples, and
    as deaf as it to one call the host stalled (from three samples on, at least
    the lowest and the highest are left out)."""
    values = sorted(values)
    cut = max(1, len(values) // 4) if len(values) >= 3 else 0
    return float(statistics.fmean(values[cut:len(values) - cut])) if values else 0.0


def end_to_end_metrics(samples, setup_times, ledger: Ledger) -> dict:
    metrics = {"setup_s": (_median([wall / slow for wall, slow in setup_times]), "s")}
    for phase in ("train", "eval"):
        for arch in ARCHS:
            rates = [count * slow / wall for count, wall, slow in samples[phase, arch]]
            metrics[f"{phase}_tok_s.{arch}"] = (interquartile_mean(rates), "tok/s")
    metrics["peak_rss_mb"] = (max_rss_mib(), "MiB")
    # 1 only if every operation passed: one failure moves it by all of its bound
    metrics["ok_ops"] = (0.0 if ledger.failures else 1.0, "flag")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


LAYER_CLASSES = {
    "sb": ("BiLstm", "DenseSoftmax"),
    "sb-i": ("AdditiveSelfAttention", "BiLstm", "DenseSoftmax"),
    "bl": ("BiLstm", "TimeDistributedLinear", "DenseSoftmax"),
    "bl-i": ("MultiHeadSelfAttention", "BiLstm", "TimeDistributedLinear", "DenseSoftmax"),
    "bl-e": ("BiLstm", "TimeDistributedLinear", "MultiHeadSelfAttention", "DenseSoftmax"),
}


def layer_metrics(tracer: Tracer, played: Rounds, from_file_rss_mib: float) -> dict:
    """Per-layer figures: medians over traced rounds of each round's total.

    Times are self times, except ``predict_labels_s``, which includes the
    layer forwards it drives.
    """
    own, whole, calls = tracer.self_times(), tracer.inclusive_times(), tracer.calls()
    rounds, op_time = played.traced, played.op_time

    def per_round(table, arch, name):
        return _median([table.get((r, arch, name), 0.0) for r in rounds])

    def per_round_all(table, name):
        return _median([sum(table.get((r, a, name), 0.0) for a in ARCHS) for r in rounds])

    def setup_median(name):
        reps = [s for s in tracer.spans if s[4] == "setup" and s[0] == name]
        per_rep = len(reps) // SETUP_REPEATS
        return _median([sum(s[2] - s[1] for s in reps[i * per_rep:(i + 1) * per_rep])
                        for i in range(SETUP_REPEATS)])

    m: dict[str, tuple[float, str]] = {}
    for arch in ARCHS:
        for kind in LAYER_CLASSES[arch]:
            m[f"layers.{arch}.{kind}.fwd_s"] = (per_round(own, arch, f"layers.{kind}.fwd"), "s")
            m[f"layers.{arch}.{kind}.bwd_s"] = (per_round(own, arch, f"layers.{kind}.bwd"), "s")
            m[f"layers.{arch}.{kind}.calls"] = (per_round(calls, arch, f"layers.{kind}.fwd"), "count")
        positions = per_round(tracer.counts, arch, "positions")
        valid = per_round(tracer.counts, arch, "valid")
        m[f"layers.{arch}.positions"] = (positions, "count")
        m[f"layers.{arch}.valid_fraction"] = (valid / positions if positions else 0.0, "share")
        m[f"training.{arch}.loss_s"] = (per_round(own, arch, "training.loss"), "s")
        m[f"training.{arch}.adam_s"] = (per_round(own, arch, "training.adam"), "s")
        m[f"training.{arch}.batch_s"] = (per_round(own, arch, "training.batch"), "s")
        m[f"models.{arch}.predict_labels_s"] = (per_round(whole, arch, "models.predict_labels"), "s")
        m[f"metrics.{arch}.confusion_matrix_s"] = (
            per_round(own, arch, "metrics.confusion_matrix"), "s")
    m["embeddings.vectorize_s"] = (per_round_all(own, "embeddings.vectorize"), "s")
    m["embeddings.vectorize_calls"] = (per_round_all(calls, "embeddings.vectorize"), "count")
    m["embeddings.from_file_s"] = (setup_median("embeddings.from_file"), "s")
    m["embeddings.from_file_rss_mb"] = (from_file_rss_mib, "MiB")
    m["corpus.read_conll_s"] = (setup_median("corpus.read_conll"), "s")
    m["models.build_model_s"] = (setup_median("models.build_model"), "s")
    # each traced round r is paired with the plain round run on the same slice
    plain = [r ^ 1 for r in rounds]
    m["trace.overhead"] = (
        sum(op_time[r] for r in rounds) / sum(op_time[r] for r in plain) - 1.0
        if rounds and all(r in op_time for r in rounds + plain) else 0.0, "share")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def run_in_checkout(workload: Workload, seed: int, seconds: float, trace: bool,
                    root: Path) -> dict:
    """Run with every generated file in a temporary directory inside ``root``."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        return run(workload, seed, seconds, trace, Path(workdir))
