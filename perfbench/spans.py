"""Spans around the calls into each layer of the program, recorded from outside.

Nothing in ``src/`` knows about tracing.  :func:`instrument` replaces, for the
duration of one traced round, the module functions the training loop calls
(loss, Adam step, batching, prediction, confusion counts) and the
``forward``/``backward`` of every layer instance with wrappers that open a
span.  Spans stay in memory with a link to their parent and are reduced to
per-layer figures when the run ends; a layer's self time is its span minus
the spans opened inside it.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import argseg.training
from argseg import BatchTensor


class Tracer:
    """In-memory span recorder; spans carry the harness's current labels."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, round, arch]
        self.counts: dict[tuple, float] = defaultdict(float)
        self.round = "setup"
        self.arch = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1,
                  self.round, self.arch]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def count(self, key: str, value: float):
        self.counts[(self.round, self.arch, key)] += value

    def self_times(self) -> dict[tuple, float]:
        """Total self time per (round, arch, span name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[tuple, float] = defaultdict(float)
        for k, (name, start, end, _parent, rnd, arch) in enumerate(self.spans):
            totals[(rnd, arch, name)] += end - start - child[k]
        return totals

    def inclusive_times(self) -> dict[tuple, float]:
        totals: dict[tuple, float] = defaultdict(float)
        for name, start, end, _parent, rnd, arch in self.spans:
            totals[(rnd, arch, name)] += end - start
        return totals

    def calls(self) -> dict[tuple, int]:
        totals: dict[tuple, int] = defaultdict(int)
        for name, _start, _end, _parent, rnd, arch in self.spans:
            totals[(rnd, arch, name)] += 1
        return totals


# module functions the training loop looks up at call time, by span name
_MODULE_FUNCTIONS = {
    "training.loss": "masked_cross_entropy",
    "training.adam": "adam_step",
    "models.predict_labels": "predict_labels",
    "metrics.confusion_matrix": "confusion_matrix",
}


def instrument(tracer: Tracer, spec, models: dict):
    """Wrap every traced call; returns a function that restores the originals.

    A name the program no longer has is skipped, so its figures read zero
    rather than the run failing.
    """
    undo = []

    def patch(owner, attr: str, replacement):
        undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    for span_name, attr in _MODULE_FUNCTIONS.items():
        fn = getattr(argseg.training, attr, None)
        if fn is not None:
            patch(argseg.training, attr, tracer.wrap(fn, span_name))
    from_rows = BatchTensor.from_rows
    patch(BatchTensor, "from_rows",
          classmethod(tracer.wrap(from_rows.__func__, "training.batch")))
    patch(spec, "vectorize", tracer.wrap(spec.vectorize, "embeddings.vectorize"))
    for model in models.values():
        for layer in model.layers:
            kind = type(layer).__name__
            patch(layer, "forward", tracer.wrap(layer.forward, f"layers.{kind}.fwd"))
            patch(layer, "backward", tracer.wrap(layer.backward, f"layers.{kind}.bwd"))
        patch(model, "forward", _counting_forward(tracer, model.forward))

    def restore():
        for owner, attr, original in reversed(undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return restore


def _counting_forward(tracer: Tracer, forward):
    """Model entry: count the B x T positions fed in and how many are real."""

    def counted(batch):
        tracer.count("positions", batch.batch * batch.time)
        tracer.count("valid", int(batch.mask.sum()))
        return forward(batch)

    return counted
