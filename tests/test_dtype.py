"""float32, the default compute dtype of ``train`` and ``evaluate``.

A float32 model keeps every array float32: batches, outputs, caches,
gradients and Adam's moments, and no numpy call of a float32 step takes or
gives float64, bar the sums of ``np.bincount``.
Checkpoints store float64 and load float32 parameters back when every
stored value is a float32.
"""

import numpy as np
import pytest

from argseg import embeddings, layers, models, numeric, training
from argseg.errors import ContractViolation, NumericError
from argseg.models import (
    ArchitectureId,
    ModelSpec,
    build_model,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
)
from argseg.numeric import BatchTensor, as_array
from argseg.training import AdamState, TrainConfig, adam_step, masked_cross_entropy, train

# np.bincount sums its weights in float64 whatever their dtype;
# BatchTensor.t_times rounds each block of sums as it stores it
FLOAT64_RESULTS = {"bincount"}


def holds_float64(value) -> bool:
    if isinstance(value, (list, tuple)):
        return any(map(holds_float64, value))
    return isinstance(value, (np.ndarray, np.generic)) and value.dtype == np.float64


class _Checked:
    """A numpy function that records its name in ``found`` when it is
    given, or gives, a float64 array or scalar."""

    def __init__(self, fn, name: str, found: list):
        self._fn, self._name, self._found = fn, name, found

    def __call__(self, *args, **kwargs):
        result = self._fn(*args, **kwargs)
        if holds_float64((*args, *kwargs.values())) or (
                self._name not in FLOAT64_RESULTS and holds_float64(result)):
            self._found.append(self._name)
        return result

    def __getattr__(self, name):  # a ufunc's methods, such as np.add.reduce
        return getattr(self._fn, name)


class NumpyWithoutFloat64:
    """The numpy module as the package sees it, with every function checked
    by :class:`_Checked`; types, such as ``np.float32``, pass unchanged."""

    def __init__(self, found: list):
        self._found = found

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr
        return _Checked(attr, name, self._found)


@pytest.fixture
def watch_float64(monkeypatch):
    """A function that starts the watch and returns the list of the names of
    the numpy calls that take or give float64 from then on, in the numeric
    core, the embeddings, the layers, the models and the trainer."""

    def start() -> list:
        found = []
        for module in (numeric, embeddings, layers, models, training):
            monkeypatch.setattr(module, "np", NumpyWithoutFloat64(found))
        return found

    return start


def floating_arrays(item):
    """Every floating array in a cache: through tuples and lists, and a
    batch's rows and distinct rows."""
    if isinstance(item, BatchTensor):
        yield item.rows
        if item._distinct is not None:
            yield item._distinct[0]
    elif isinstance(item, np.ndarray):
        if np.issubdtype(item.dtype, np.floating):
            yield item
    elif isinstance(item, (tuple, list)):
        for part in item:
            yield from floating_arrays(part)


@pytest.mark.parametrize("distinct", [True, False], ids=["distinct", "plain"])
@pytest.mark.parametrize("arch", list(ArchitectureId), ids=[a.value for a in ArchitectureId])
def test_a_float32_step_keeps_every_array_float32(arch, distinct, toy_sequences,
                                                  toy_embeddings, watch_float64):
    model = build_model(ModelSpec(arch, input_dim=16, hidden=5, attn_dim=4, seed=3))
    model.cast(np.float32)
    params = model.params()
    state = AdamState(params)
    before = model.get_values()

    float64_calls = watch_float64()
    batch, gold = training._assemble(toy_sequences[:8], toy_embeddings, np.float32)
    assert batch.rows.dtype == batch._distinct[0].dtype == np.float32
    if not distinct:
        batch = BatchTensor(batch.rows, batch.lengths)
    logits, caches = model.forward(batch)
    inferred = model.logits(batch)
    cached = list(floating_arrays(caches))
    loss, grad = masked_cross_entropy(logits, gold)
    assert model.backward(caches, grad, input_grad=False) is None
    adam_step(params, state, 1e-3)

    assert float64_calls == []
    assert len(cached) > len(model.layers)
    assert {a.dtype for a in [logits.rows, inferred.rows, grad, *cached]} == {np.dtype(np.float32)}
    assert {a.dtype for p in params for a in (p.value, p.grad)} == {np.dtype(np.float32)}
    assert {a.dtype for a in state.m + state.v} == {np.dtype(np.float32)}
    assert np.isfinite(loss) and np.array_equal(inferred.rows, logits.rows)
    assert all(not np.array_equal(p.value, old) for p, old in zip(params, before))


def test_float64_calls_are_found(watch_float64):
    # the check itself: a float64 buffer, a float64 scale and a float64 source
    float64_calls = watch_float64()
    rows = np.ones((3, 2), np.float32)
    layers.np.zeros(4)
    rows * layers.np.sqrt(4)
    layers.np.take(np.ones((3, 2)), [0, 1], axis=0, out=rows[:2])
    layers.np.bincount([0, 1], np.ones(2, np.float32))
    assert float64_calls == ["zeros", "sqrt", "take"]


def test_a_float32_batch_is_cast_once_on_entry_of_a_float64_model():
    rng = np.random.default_rng(4)
    model = build_model(ModelSpec(ArchitectureId.SB_I, input_dim=6, hidden=3, seed=1))
    rows = rng.standard_normal((7, 6)).astype(np.float32)
    single = BatchTensor(rows, [3, 4])
    double = BatchTensor(rows.astype(np.float64), [3, 4])
    assert model.logits(single).rows.tobytes() == model.logits(double).rows.tobytes()
    assert model.forward(single)[0].rows.dtype == np.float64


def test_batch_astype_casts_the_distinct_rows_too():
    rng = np.random.default_rng(5)
    distinct = rng.standard_normal((4, 3))
    inverse = rng.integers(0, 4, size=6)
    batch = BatchTensor(distinct[inverse], [2, 4], (distinct, inverse))
    assert batch.astype(np.float64) is batch
    single = batch.astype(np.float32)
    kept, ids = single._distinct
    assert single.rows.dtype == kept.dtype == np.float32
    assert single.rows.tobytes() == kept[ids].tobytes() == batch.rows.astype(np.float32).tobytes()
    assert not kept.flags.writeable and single.lengths is batch.lengths


def test_as_array_keeps_float32_and_makes_the_rest_float64():
    assert as_array(np.ones(2, np.float32)).dtype == np.float32
    for values in ([1, 2], np.ones(2, np.int64), np.ones(2, np.float16), np.ones(2)):
        assert as_array(values).dtype == np.float64


def test_cast_that_overflows_names_the_parameter_and_changes_nothing():
    model = build_model(ModelSpec(ArchitectureId.SB, input_dim=4, hidden=3, seed=0))
    model.layers[-1].b.value[1] = 1e39  # finite in float64, beyond float32's range
    start = model.get_values()
    with pytest.raises(NumericError, match=r"^parameter head\.b is not finite in float32$"):
        model.cast(np.float32)
    assert model.dtype == np.float64
    for p, value in zip(model.params(), start, strict=True):
        assert p.value.dtype == p.grad.dtype == np.float64
        assert np.array_equal(p.value, value), p.name


def test_config_dtype_must_be_float32_or_float64():
    assert TrainConfig().dtype == "float32"
    with pytest.raises(ContractViolation, match=r"dtype must be one of \('float32', "
                                                r"'float64'\), got 'float16'"):
        TrainConfig(dtype="float16")


def small_training(dtype, toy_sequences, toy_embeddings):
    spec = ModelSpec(ArchitectureId.BL_E, input_dim=16, hidden=4, attn_dim=4, seed=9)
    cfg = TrainConfig(batch_size=8, max_epochs=1, seed=9, dtype=dtype)
    return train(build_model(spec), toy_sequences, toy_embeddings, cfg)[0]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_checkpoint_keeps_the_dtype_the_model_was_trained_in(dtype, toy_sequences,
                                                             toy_embeddings, tmp_path):
    model = small_training(dtype, toy_sequences, toy_embeddings)
    assert model.dtype == dtype
    save_checkpoint(model, tmp_path / "m.ckpt")
    restored = load_checkpoint(tmp_path / "m.ckpt")
    assert restored.dtype == dtype
    for p, q in zip(model.params(), restored.params(), strict=True):
        assert q.value.tobytes() == p.value.tobytes(), p.name
        assert q.grad.dtype == p.value.dtype
    batch, _ = training._assemble(toy_sequences, toy_embeddings, np.float64)
    assert np.array_equal(predict_labels(model, batch), predict_labels(restored, batch))
    save_checkpoint(restored, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == (tmp_path / "m.ckpt").read_bytes()

