import io
import math
import re
import warnings
import weakref

import numpy as np
import pytest

from argseg.corpus import LABELS, LabeledSequence
from argseg import training
from argseg.errors import ContractViolation, DimensionError, NumericError, TrainingDiverged
from argseg.metrics import confusion_matrix, metrics_from_confusion
from argseg.models import ArchitectureId, Model, ModelSpec, build_model, save_checkpoint
from argseg.numeric import BatchTensor, Parameter
from argseg.training import (
    LR_RANGE,
    AdamState,
    LossCurve,
    TrainConfig,
    adam_step,
    evaluate,
    generalization_gap,
    lr_search,
    masked_cross_entropy,
    sample_learning_rate,
    split_by_essay,
    train,
    trial_seed,
)
from toy_files import write_store

LN3 = 1.0986122886681098  # ln 3 via mpmath at 50 digits


def logit_batch(logits, lengths=None):
    """Packed (N, 3) logits; one sequence of all N rows unless ``lengths`` says otherwise."""
    logits = np.asarray(logits, dtype=float)
    return BatchTensor(logits, [len(logits)] if lengths is None else lengths)


def reference_loss(logits, gold):
    """Scalar-loop mean of log(sum_c exp z_c) - z_gold over the tokens."""
    total = 0.0
    for z, g in zip(logits, gold, strict=True):
        total += math.log(sum(math.exp(v) for v in z)) - z[g]
    return total / len(gold)


class TestMaskedCrossEntropy:
    def test_perfect_predictions(self):
        logits = np.zeros((3, 3))
        gold = np.array([0, 1, 2])
        logits[np.arange(3), gold] = 40.0
        loss, grad = masked_cross_entropy(logit_batch(logits), gold)
        assert 0.0 <= loss <= 1e-9
        assert np.abs(grad).max() <= 1e-9

    def test_uniform_predictions_ln3(self):
        gold = np.array([0, 1, 2, 0])
        for level in (0.0, -7.5, 1e3):  # equal logits at any level
            loss, _ = masked_cross_entropy(logit_batch(np.full((4, 3), level), [2, 2]), gold)
            assert loss == pytest.approx(LN3, abs=1e-12)

    def test_matches_scalar_loop_and_finite_differences(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((5, 3)) * 2.0
        gold = rng.integers(0, 3, size=5)
        loss, grad = masked_cross_entropy(logit_batch(logits, [3, 2]), gold)
        assert loss == pytest.approx(reference_loss(logits, gold), rel=1e-12)

        # central finite differences on every logit
        eps = 1e-6
        for t in range(5):
            for c in range(3):
                z = logits.copy()
                z[t, c] += eps
                up, _ = masked_cross_entropy(logit_batch(z, [3, 2]), gold)
                z[t, c] -= 2 * eps
                dn, _ = masked_cross_entropy(logit_batch(z, [3, 2]), gold)
                numeric = (up - dn) / (2 * eps)
                assert grad[t, c] == pytest.approx(numeric, rel=1e-5, abs=1e-9)

    def test_padding_receives_zero_gradient(self):
        # a 2-token and an empty sequence: the padded view has two padded
        # positions, and the gradient has no row for either
        logits = np.array([[0.5, -1.0, 2.0], [300.0, -300.0, 0.0]])
        batch = logit_batch(logits, [2, 0])
        assert (~batch.mask).sum() == 2
        loss, grad = masked_cross_entropy(batch, np.zeros(2, dtype=int))
        assert grad.shape == (2, 3)
        assert loss == pytest.approx(reference_loss(logits, [0, 0]), rel=1e-12)

    def test_zero_valid_tokens_rejected(self):
        with pytest.raises(ContractViolation):
            masked_cross_entropy(logit_batch(np.zeros((0, 3)), [0, 0]), np.zeros(0, int))

    def test_gold_must_match_the_rows(self):
        with pytest.raises(DimensionError):
            masked_cross_entropy(logit_batch(np.zeros((3, 3))), np.zeros(2, int))

    def test_loss_invariant_under_batch_permutation(self):
        rng = np.random.default_rng(1)
        lengths = [3, 1, 2, 3]
        seqs = [rng.standard_normal((n, 3)) * 3.0 for n in lengths]
        golds = [rng.integers(0, 3, size=n) for n in lengths]
        l1, _ = masked_cross_entropy(BatchTensor.from_rows(seqs), np.concatenate(golds))
        perm = rng.permutation(4)
        l2, _ = masked_cross_entropy(BatchTensor.from_rows([seqs[i] for i in perm]),
                                     np.concatenate([golds[i] for i in perm]))
        assert l1 == pytest.approx(l2, rel=1e-12)


class TestAdam:
    def make_params(self, values):
        return [Parameter("p", np.array(values, dtype=float))]

    def test_zero_gradient_no_update(self):
        params = self.make_params([[1.0, -2.0]])
        state = AdamState(params)
        adam_step(params, state, lr=0.1)
        assert np.array_equal(params[0].value, [[1.0, -2.0]])

    def test_first_step_magnitude_is_lr(self):
        params = self.make_params([[0.0, 0.0]])
        params[0].grad[...] = np.array([[3.0, -0.5]])
        state = AdamState(params)
        adam_step(params, state, lr=0.01)
        update = params[0].value
        assert np.allclose(np.abs(update), 0.01, rtol=1e-6)
        assert update[0, 0] < 0 and update[0, 1] > 0  # opposite to gradient sign

    def test_quadratic_bowl_converges(self):
        rng = np.random.default_rng(2)
        target = rng.standard_normal((3, 3))
        params = [Parameter("w", np.zeros((3, 3)))]
        state = AdamState(params)
        losses = []
        for _ in range(100):
            diff = params[0].value - target
            losses.append(0.5 * float((diff**2).sum()))
            params[0].grad[...] = diff
            adam_step(params, state, lr=0.05)
        assert losses[-1] < 1e-3 * losses[0]
        # strict descent once past warmup (the very tail may oscillate at
        # the lr-scale floor around the optimum)
        assert all(b < a for a, b in zip(losses[2:80], losses[3:81]))

    def test_nonfinite_gradient_names_parameter(self):
        params = self.make_params([[1.0]])
        params[0].grad[...] = np.nan
        with pytest.raises(NumericError, match="p"):
            adam_step(params, AdamState(params), lr=0.1)

    def test_overflowing_square_names_parameter_and_changes_nothing(self):
        params = [Parameter("head.W", np.array([[1.0, 2.0]]))]
        params[0].grad[...] = np.array([[1e200, 3.0]])  # finite, but g*g overflows
        state = AdamState(params)
        with pytest.raises(NumericError, match=r"head\.W"):
            adam_step(params, state, lr=0.1)
        assert np.array_equal(params[0].value, [[1.0, 2.0]])
        assert not state.m[0].any() and not state.v[0].any()

    def test_overflowing_square_names_parameter_and_changes_nothing_in_float32(self):
        # float32's largest value is about 3.4e38, so g * g overflows above about 1.8e19
        params = [Parameter("head.W", np.array([[1.0, 2.0]], dtype=np.float32))]
        params[0].grad[...] = np.array([[1e19, 3.0]])
        state = AdamState(params)
        adam_step(params, state, lr=0.1)  # 1e38 still fits
        values = params[0].value.copy()
        moments = state.m[0].copy(), state.v[0].copy()
        params[0].grad[...] = np.array([[1e20, 3.0]])
        with pytest.raises(NumericError, match=r"^overflowing gradient for parameter head\.W$"):
            adam_step(params, state, lr=0.1)
        assert params[0].value.tobytes() == values.tobytes()
        assert (state.m[0].tobytes(), state.v[0].tobytes()) == tuple(m.tobytes() for m in moments)


class TestMetrics:
    def test_perfect_diagonal(self):
        confusion = np.diag([4, 3, 13])
        report = metrics_from_confusion(confusion)
        assert report.weighted_f1 == 1.0
        assert report.accuracy == 1.0

    def test_degenerate_supports(self):
        all_o_correct = np.zeros((3, 3), dtype=int)
        all_o_correct[2, 2] = 9
        assert metrics_from_confusion(all_o_correct).weighted_f1 == 1.0

        all_o_as_i = np.zeros((3, 3), dtype=int)
        all_o_as_i[2, 1] = 9
        assert metrics_from_confusion(all_o_as_i).weighted_f1 == 0.0

    def test_hand_computed_ten_token_case(self):
        gold = np.array([0, 1, 1, 2, 2, 2, 0, 1, 2, 2])
        pred = np.array([0, 1, 2, 2, 2, 0, 1, 1, 2, 2])
        report = metrics_from_confusion(confusion_matrix(gold, pred))
        # per-class: P_B = R_B = 1/2, P_I = R_I = 2/3, P_O = R_O = 4/5
        assert np.allclose(report.f1, [0.5, 2 / 3, 0.8])
        assert report.weighted_f1 == pytest.approx(0.7, abs=1e-12)
        assert report.accuracy == pytest.approx(0.7, abs=1e-12)

    def test_weighted_f1_one_iff_diagonal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            confusion = rng.integers(0, 6, size=(3, 3))
            if confusion.sum() == 0:
                continue
            report = metrics_from_confusion(confusion)
            off_diag = confusion - np.diag(np.diag(confusion))
            support = confusion.sum(axis=1)
            diagonal = not off_diag[support > 0].any() and not confusion[:, support == 0].any()
            assert (report.weighted_f1 == 1.0) == diagonal


class TestTrainLoop:
    def test_determinism_and_curve_shape(self, toy_sequences, toy_embeddings):
        spec = ModelSpec(ArchitectureId.SB, input_dim=16, hidden=6, seed=1)
        cfg = TrainConfig(batch_size=8, max_epochs=4, patience=10,
                          learning_rate=3e-3, seed=5)
        _, curve1 = train(build_model(spec), toy_sequences, toy_embeddings, cfg)
        _, curve2 = train(build_model(spec), toy_sequences, toy_embeddings, cfg)
        assert curve1.train == curve2.train
        assert curve1.val == curve2.val
        assert len(curve1) == 4

    @pytest.mark.parametrize("patience", [0, 2])
    def test_patience_stops_at_the_epoch_the_curve_gives(self, toy_sequences, toy_embeddings,
                                                          patience):
        spec = ModelSpec(ArchitectureId.SB, input_dim=16, hidden=6, seed=2)
        cfg = TrainConfig(batch_size=8, max_epochs=50, patience=patience,
                          learning_rate=5e-3, seed=3)
        _, curve = train(build_model(spec), toy_sequences, toy_embeddings, cfg)
        # the first epoch that follows the best so far by more than `patience`
        stop, best = None, 0
        for epoch, val in enumerate(curve.val):
            if val < curve.val[best]:
                best = epoch
            elif epoch - best > patience:
                stop = epoch + 1
                break
        assert stop is not None  # a run that patience, not max_epochs, ends
        assert len(curve) == stop

    def test_best_epoch_parameters_restored(self, toy_sequences, toy_embeddings):
        from argseg.training import _batches, _dataset_loss

        spec = ModelSpec(ArchitectureId.SB, input_dim=16, hidden=6, seed=4)
        cfg = TrainConfig(batch_size=8, max_epochs=6, patience=10,
                          learning_rate=1e-2, seed=7)
        model, curve = train(build_model(spec), toy_sequences, toy_embeddings, cfg)
        _, val_seqs = split_by_essay(toy_sequences, cfg.val_fraction, cfg.seed)
        batches = _batches(val_seqs, np.arange(len(val_seqs)), toy_embeddings, cfg.batch_size,
                           model.dtype)
        assert _dataset_loss(model, batches) == pytest.approx(min(curve.val), abs=1e-12)

    def test_divergence_restores_finite_state(self, toy_sequences, toy_embeddings):
        spec = ModelSpec(ArchitectureId.SB, input_dim=16, hidden=4, seed=5)
        model = build_model(spec)
        # the logits 1e308 * (1 + sum of BiLSTM outputs) overflow to inf
        # wherever that sum exceeds 0.8; inf - inf then makes the loss NaN
        head = model.layers[-1]
        head.w.value[...] = 1e308
        head.b.value[...] = 1e308
        cfg = TrainConfig(batch_size=8, max_epochs=3, patience=5,
                          learning_rate=1e-3, seed=0, dtype="float64")
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDiverged, match="epoch 1"):
            train(model, toy_sequences, toy_embeddings, cfg)
        for p in model.params():
            assert np.isfinite(p.value).all()

    def test_divergence_restores_finite_state_in_float32(self, toy_sequences, toy_embeddings):
        model = build_model(ModelSpec(ArchitectureId.SB, input_dim=16, hidden=4, seed=5))
        # the float32 twin: 3e38 fits float32, but 3e38 * (1 + sum of BiLSTM
        # outputs) overflows wherever that sum exceeds 0.13
        head = model.layers[-1]
        head.w.value[...] = 3e38
        head.b.value[...] = 3e38
        cfg = TrainConfig(batch_size=8, max_epochs=3, patience=5, learning_rate=1e-3, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDiverged, match="^epoch 1: training loss is nan"):
            train(model, toy_sequences, toy_embeddings, cfg)
        assert model.dtype == np.float32
        for p in model.params():
            assert np.isfinite(p.value).all()
        assert (head.w.value == np.float32(3e38)).all()

    def test_overflowing_gradient_diverges_and_restores_in_float32(self, toy_sequences,
                                                                   toy_embeddings):
        model = build_model(ModelSpec(ArchitectureId.SB, input_dim=16, hidden=4, seed=5))
        # the loss stays finite in float32, but the gradient reaching the
        # BiLSTM squares past float32's largest value, about 3.4e38
        model.layers[-1].w.value[...] *= 1e24
        model.cast(np.float32)
        start = model.get_values()
        cfg = TrainConfig(batch_size=8, max_epochs=3, patience=5, seed=0)
        with pytest.raises(TrainingDiverged,
                           match=r"^epoch 1: overflowing gradient for parameter bilstm_1\.fwd\.W; "
                                 r"model restored to its last finite state$"):
            train(model, toy_sequences, toy_embeddings, cfg)
        for p, value in zip(model.params(), start, strict=True):
            assert p.value.tobytes() == value.tobytes(), p.name

    def test_parameter_that_overflows_the_cast_fails_before_any_step(self, toy_sequences,
                                                                     toy_embeddings,
                                                                     monkeypatch):
        steps = []
        monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(args))
        model = build_model(ModelSpec(ArchitectureId.SB, input_dim=16, hidden=4, seed=5))
        model.layers[-1].w.value[0, 0] = 1e39  # beyond float32's range
        start = model.get_values()
        with pytest.raises(NumericError, match=r"^parameter head\.W is not finite in float32$"):
            train(model, toy_sequences, toy_embeddings, TrainConfig(batch_size=8, max_epochs=1))
        assert not steps
        for p, value in zip(model.params(), start, strict=True):
            assert p.value.tobytes() == value.tobytes(), p.name

    def test_overflowing_gradient_diverges_and_restores(self, toy_sequences, toy_embeddings):
        model = build_model(ModelSpec(ArchitectureId.SB, input_dim=16, hidden=4, seed=5))
        # the loss stays finite, but the gradient reaching the BiLSTM squares past 1e308
        model.layers[-1].w.value[...] *= 1e160
        start = model.get_values()
        cfg = TrainConfig(batch_size=8, max_epochs=3, patience=5, seed=0, dtype="float64")
        with pytest.raises(TrainingDiverged,
                           match=r"^epoch 1: overflowing gradient for parameter bilstm_1\.fwd\.W; "
                                 r"model restored to its last finite state$"):
            train(model, toy_sequences, toy_embeddings, cfg)
        for p, value in zip(model.params(), start, strict=True):
            assert np.array_equal(p.value, value), p.name

    def test_saturated_head_loss_stays_finite(self, toy_sequences, toy_embeddings):
        from argseg.training import _assemble

        spec = ModelSpec(ArchitectureId.SB, input_dim=16, hidden=4, seed=5)
        model = build_model(spec)
        # softmax(z) of the I and O classes underflows to exactly zero here
        head = model.layers[-1]
        head.w.value[...] = 0.0
        head.b.value[...] = np.array([2000.0, -2000.0, -2000.0])
        batch, gold = _assemble(toy_sequences[:8], toy_embeddings, model.dtype)
        assert (gold != LABELS.index("B")).any()
        logits, caches = model.forward(batch)
        loss, grad = masked_cross_entropy(logits, gold)
        assert math.isfinite(loss) and loss > 1000.0
        grad_in = model.backward(caches, grad)
        assert np.isfinite(grad_in).all()
        for p in model.params():
            assert np.isfinite(p.grad).all(), p.name

        cfg = TrainConfig(batch_size=8, max_epochs=1, patience=5,
                          learning_rate=1e-3, seed=0)
        _, curve = train(model, toy_sequences, toy_embeddings, cfg)
        assert len(curve) == 1
        assert math.isfinite(curve.train[0]) and math.isfinite(curve.val[0])

    def test_split_by_essay_never_leaks(self, toy_sequences):
        train_part, val_part = split_by_essay(toy_sequences, 0.2, seed=11)
        train_ids = {s.essay_id for s in train_part}
        val_ids = {s.essay_id for s in val_part}
        assert train_ids and val_ids
        assert not (train_ids & val_ids)
        again = split_by_essay(toy_sequences, 0.2, seed=11)
        assert [s.essay_id for s in again[1]] == [s.essay_id for s in val_part]

    def test_backward_skips_the_input_gradient(self, toy_sequences, toy_embeddings,
                                               monkeypatch):
        asked = []
        plain = Model.backward

        def spy(self, caches, grad_out, **kwargs):
            asked.append(kwargs)
            return plain(self, caches, grad_out, **kwargs)

        monkeypatch.setattr(Model, "backward", spy)
        spec = ModelSpec(ArchitectureId.SB, input_dim=16, hidden=4, seed=6)
        cfg = TrainConfig(batch_size=8, max_epochs=1, patience=5, seed=2)
        train(build_model(spec), toy_sequences, toy_embeddings, cfg)
        assert asked and all(kw == {"input_grad": False} for kw in asked)

    @pytest.mark.parametrize("arch", [ArchitectureId.SB_I, ArchitectureId.BL_I,
                                      ArchitectureId.BL])
    def test_artifacts_do_not_depend_on_the_input_gradient(self, toy_sequences,
                                                          toy_embeddings, tmp_path,
                                                          monkeypatch, arch):
        spec = ModelSpec(arch, input_dim=16, hidden=4, seed=8)
        cfg = TrainConfig(batch_size=8, max_epochs=2, patience=5,
                          learning_rate=3e-3, seed=4)

        def artifacts(name):
            model, curve = train(build_model(spec), toy_sequences, toy_embeddings, cfg)
            save_checkpoint(model, tmp_path / f"{name}.ckpt")
            with open(tmp_path / f"{name}.csv", "w", encoding="utf-8") as fh:
                curve.write_csv(fh)
            return [(tmp_path / f"{name}{ext}").read_bytes() for ext in (".ckpt", ".csv")]

        skipped = artifacts("skipped")
        plain = Model.backward
        monkeypatch.setattr(Model, "backward",
                            lambda self, caches, grad_out, **_: plain(self, caches, grad_out))
        assert artifacts("formed") == skipped

    def test_only_one_batch_of_rows_is_alive(self, toy_sequences, toy_embeddings,
                                              monkeypatch):
        """``train`` and ``evaluate`` vectorize each batch as they build it, so
        at every forward pass, the training one with caches and the inference
        one without, only that batch's rows are still referenced."""
        made = []  # a weak reference to the rows of every batch built
        assemble = training._assemble

        def tracked(sequences, spec, dtype):
            batch, gold = assemble(sequences, spec, dtype)
            made.append(weakref.ref(batch.rows))
            return batch, gold

        alive = {"forward": [], "logits": []}
        model = build_model(ModelSpec(ArchitectureId.SB, input_dim=16, hidden=3, seed=0))
        monkeypatch.setattr(training, "_assemble", tracked)
        for name, counts in alive.items():
            monkeypatch.setattr(model, name, lambda batch, inner=getattr(model, name),
                                counts=counts: (counts.append(
                                    sum(ref() is not None for ref in made)), inner(batch))[1])
        cfg = TrainConfig(batch_size=4, max_epochs=2, seed=0)
        train(model, toy_sequences, toy_embeddings, cfg)
        assert len(alive["forward"]) > len(toy_sequences) // 4  # two epochs of steps
        assert alive["logits"]  # the validation loss
        evaluate(model, toy_sequences, toy_embeddings, batch_size=4)
        assert len(made) == len(alive["forward"]) + len(alive["logits"])
        assert set(alive["forward"]) == set(alive["logits"]) == {1}

    def test_uncovered_sequence_fails_before_the_first_step(self, toy_sequences, tmp_path):
        from argseg.embeddings import EmbeddingSpec, load_precomputed_file
        from argseg.errors import CoverageError

        missing = toy_sequences[-1]  # its essay's last sequence
        records = [(seq.essay_id, 0, seq.token_ordinal_start + t, np.full(2, 0.5))
                   for seq in toy_sequences if seq is not missing for t in range(len(seq))]
        spec = EmbeddingSpec([load_precomputed_file(write_store(tmp_path / "v.pv", 2, records))],
                             2)
        model = build_model(ModelSpec(ArchitectureId.SB, input_dim=2, hidden=3, seed=0))
        before = model.get_values()
        with pytest.raises(CoverageError, match=repr(missing.essay_id)):
            train(model, toy_sequences, spec, TrainConfig(batch_size=4, max_epochs=1))
        assert all(np.array_equal(a, b) for a, b in zip(before, model.get_values()))
        with pytest.raises(CoverageError, match=repr(missing.essay_id)):
            evaluate(model, toy_sequences, spec)

    @pytest.mark.parametrize("source,named", [
        ("table", "the vector of word 'big' holds a value beyond float32's range"),
        ("store", "essay 'e2': the vector at sentence 0, token 1 holds a value beyond "
                  "float32's range"),
    ], ids=["table", "store"])
    def test_vector_beyond_float32_named_before_any_step(self, tmp_path, monkeypatch,
                                                         source, named):
        from argseg.embeddings import EmbeddingSpec, load_glove, load_precomputed_file

        # 1e39 is finite in float64 and inf in float32
        sequences = [LabeledSequence(f"e{k}", 0, ["small", "Big", "small"], [0, 6, 10],
                                     [5, 9, 15], ["B", "I", "O"]) for k in range(4)]
        if source == "table":
            spec = EmbeddingSpec([load_glove("big 1e39 0\nsmall 1 2\n")], 2)
        else:
            records = [(seq.essay_id, 0, t, [1e39 if (seq.essay_id, t) == ("e2", 1) else 1.0, 2.0])
                       for seq in sequences for t in range(3)]
            spec = EmbeddingSpec([load_precomputed_file(write_store(tmp_path / "v.pv", 2,
                                                                    records))], 2)
        spec_model = ModelSpec(ArchitectureId.SB, input_dim=2, hidden=3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # float64 holds the vector: training and evaluating run as before
            model, curve = train(build_model(spec_model), sequences, spec,
                                 TrainConfig(batch_size=2, max_epochs=1, dtype="float64"))
            assert np.isfinite(curve.train + curve.val).all()
            evaluate(model, sequences, spec)
            steps = []
            monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(args))
            model = build_model(spec_model)
            before = model.get_values()
            with pytest.raises(NumericError, match=re.escape(named)):
                train(model, sequences, spec, TrainConfig(batch_size=2, max_epochs=1))
            assert not steps
            assert all(a.tobytes() == b.tobytes() for a, b in zip(before, model.get_values()))
            model.cast(np.float32)
            with pytest.raises(NumericError, match=re.escape(named)):
                evaluate(model, sequences, spec)

    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            TrainConfig(batch_size=0)
        with pytest.raises(ContractViolation):
            TrainConfig(val_fraction=0.5)
        with pytest.raises(ContractViolation):
            TrainConfig(val_fraction=0.0)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ContractViolation, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("field,value,problem", [
        ("learning_rate", math.nan, "must be finite, got nan"),
        ("learning_rate", math.inf, "must be finite, got inf"),
        ("learning_rate", -math.inf, "must be finite, got -inf"),
        ("batch_size", 2.5, "must be an int, got 2.5"),
        ("max_epochs", 2.5, "must be an int, got 2.5"),
        ("patience", 3.0, "must be an int, got 3.0"),
        ("seed", True, "must be an int, got True"),
        ("batch_size", "8", "must be an int, got '8'"),
        ("learning_rate", "0.1", "must be a real number, got '0.1'"),
        ("learning_rate", True, "must be a real number, got True"),
        ("val_fraction", "0.1", "must be a real number, got '0.1'"),
        ("val_fraction", None, "must be a real number, got None"),
    ])
    def test_config_that_cannot_train_rejected_by_name(self, field, value, problem):
        with pytest.raises(ContractViolation, match=f"^{field} {problem}$"):
            TrainConfig(**{field: value})


class TestEvaluate:
    def rigged_model(self, favored_class):
        model = build_model(ModelSpec(ArchitectureId.SB, input_dim=16, hidden=3, seed=0))
        head = model.layers[-1]
        head.w.value[...] = 0.0
        head.b.value[...] = -10.0
        head.b.value[favored_class] = 10.0
        return model

    def test_all_correct_and_all_wrong(self, toy_sequences, toy_embeddings):
        all_o = [s for s in toy_sequences if set(s.labels) == {"O"}]
        assert all_o, "toy corpus should contain O-only sequences"
        report = evaluate(self.rigged_model(LABELS.index("O")), all_o, toy_embeddings)
        assert report.weighted_f1 == 1.0
        report = evaluate(self.rigged_model(LABELS.index("I")), all_o, toy_embeddings)
        assert report.weighted_f1 == 0.0

    @pytest.mark.parametrize("batch_size", [0, -1, True, 2.5, "4"])
    def test_bad_batch_size_rejected(self, toy_sequences, toy_embeddings, batch_size):
        model = build_model(ModelSpec(ArchitectureId.SB, input_dim=16, hidden=3, seed=0))
        message = (f"batch_size must be >= 1, got {batch_size}" if type(batch_size) is int
                   else f"batch_size must be an int, got {batch_size!r}")
        with pytest.raises(ContractViolation, match=re.escape(message)):
            evaluate(model, toy_sequences[:4], toy_embeddings, batch_size=batch_size)

    def test_pure_function(self, toy_sequences, toy_embeddings):
        model = build_model(ModelSpec(ArchitectureId.SB, input_dim=16, hidden=4, seed=9))
        r1 = evaluate(model, toy_sequences[:6], toy_embeddings)
        r2 = evaluate(model, toy_sequences[:6], toy_embeddings)
        assert np.array_equal(r1.confusion, r2.confusion)
        assert r1.weighted_f1 == r2.weighted_f1


class TestLrSearch:
    def test_sampled_rates_within_range(self):
        rng = np.random.default_rng(12)
        lo, hi = LR_RANGE
        draws = [sample_learning_rate(rng) for _ in range(1000)]
        assert all(lo <= d <= hi for d in draws)
        assert min(draws) < 3e-4 and max(draws) > 3e-3  # actually spans the range

    def test_trial_seeds_deterministic_and_distinct(self):
        seeds = [trial_seed(42, k) for k in range(4)]
        assert seeds == [trial_seed(42, k) for k in range(4)]
        assert len(set(seeds)) == 4

    def test_single_trial_returns_that_config(self, toy_sequences, toy_embeddings):
        spec = ModelSpec(ArchitectureId.SB, input_dim=16, hidden=4)
        cfg = TrainConfig(batch_size=8, max_epochs=2, patience=5, seed=21)
        best, model, curve, results = lr_search(spec, toy_sequences, toy_embeddings, cfg,
                                                trials=1)
        assert len(results) == 1
        assert best.learning_rate == results[0].learning_rate
        assert best.seed == trial_seed(21, 0)
        # the trial's own model and curve, as a second run of its config gives them
        assert min(curve.val) == results[0].best_val_loss
        again = build_model(ModelSpec(ArchitectureId.SB, input_dim=16, hidden=4, seed=best.seed))
        again, again_curve = train(again, toy_sequences, toy_embeddings, best)
        assert (again_curve.train, again_curve.val) == (curve.train, curve.val)
        for a, b in zip(model.params(), again.params(), strict=True):
            assert a.value.tobytes() == b.value.tobytes()

    def test_default_iteration_count_is_four(self, toy_sequences, toy_embeddings):
        spec = ModelSpec(ArchitectureId.SB, input_dim=16, hidden=4)
        cfg = TrainConfig(batch_size=8, max_epochs=2, patience=5, seed=22)
        best, _, _, results = lr_search(spec, toy_sequences, toy_embeddings, cfg)
        assert len(results) == 4
        finite = [r for r in results if r.best_val_loss is not None]
        assert best.learning_rate in {r.learning_rate for r in finite}
        assert min(r.best_val_loss for r in finite) == pytest.approx(
            next(r.best_val_loss for r in finite if r.learning_rate == best.learning_rate)
        )

    @pytest.mark.parametrize("trials", [2.0, True, "2", None])
    def test_trial_count_must_be_an_int(self, toy_sequences, toy_embeddings, trials):
        spec = ModelSpec(ArchitectureId.SB, input_dim=16, hidden=4)
        with pytest.raises(ContractViolation,
                           match=f"^trials must be an int, got {re.escape(repr(trials))}$"):
            lr_search(spec, toy_sequences, toy_embeddings, TrainConfig(max_epochs=1),
                      trials=trials)

    def test_trial_whose_gradient_overflows_is_recorded(self, toy_sequences, toy_embeddings,
                                                         monkeypatch):
        built = []

        def build(spec):
            model = build_model(spec)
            if not built:  # trial 0
                model.layers[-1].w.value[...] *= 1e160
            built.append(model)
            return model

        monkeypatch.setattr(training, "build_model", build)
        spec = ModelSpec(ArchitectureId.SB, input_dim=16, hidden=4)
        cfg = TrainConfig(batch_size=8, max_epochs=2, patience=5, seed=24, dtype="float64")
        best, model, curve, results = lr_search(spec, toy_sequences, toy_embeddings, cfg,
                                                trials=2)
        assert model is built[1]
        assert best.seed == trial_seed(24, 1)
        assert results[0].best_val_loss is None
        assert "overflowing gradient for parameter" in results[0].error
        assert results[1].best_val_loss == min(curve.val)

    def test_trial_whose_gradient_overflows_in_float32_is_recorded(self, toy_sequences,
                                                                   toy_embeddings, monkeypatch):
        built = []

        def build(spec):
            model = build_model(spec)
            if not built:  # trial 0, at float32's scale
                model.layers[-1].w.value[...] *= 1e24
            built.append(model)
            return model

        monkeypatch.setattr(training, "build_model", build)
        spec = ModelSpec(ArchitectureId.SB, input_dim=16, hidden=4)
        cfg = TrainConfig(batch_size=8, max_epochs=2, patience=5, seed=24)
        best, model, curve, results = lr_search(spec, toy_sequences, toy_embeddings, cfg,
                                                trials=2)
        assert model is built[1] and model.dtype == np.float32
        assert best.seed == trial_seed(24, 1)
        assert results[0].best_val_loss is None
        assert "overflowing gradient for parameter" in results[0].error
        assert results[1].best_val_loss == min(curve.val)

    def test_all_trials_diverging_reported(self, toy_sequences, toy_embeddings, monkeypatch):
        import argseg.training as training_module

        def always_diverges(*args, **kwargs):
            raise TrainingDiverged("synthetic failure")

        monkeypatch.setattr(training_module, "train", always_diverges)
        spec = ModelSpec(ArchitectureId.SB, input_dim=16, hidden=4)
        cfg = TrainConfig(batch_size=8, max_epochs=2, patience=5, seed=23)
        with pytest.raises(NumericError, match="trial 0.*trial 1"):
            lr_search(spec, toy_sequences, toy_embeddings, cfg, trials=2)


class TestGeneralizationGap:
    def test_identical_curves(self):
        curve = LossCurve(train=[0.5, 0.4], val=[0.5, 0.4])
        assert generalization_gap(curve) == 0.0

    def test_synthetic_magnitudes(self):
        curve = LossCurve(train=[0.3, 0.1], val=[0.8, 0.7])
        assert generalization_gap(curve) == pytest.approx(0.6, abs=1e-15)

    def test_empty_curve_rejected(self):
        with pytest.raises(ContractViolation):
            generalization_gap(LossCurve())

    def test_curve_csv_format(self, tmp_path):
        import io

        curve = LossCurve(train=[0.5, 0.25], val=[0.6, 0.5])
        buf = io.StringIO()
        curve.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert lines[1].startswith("1,0.5")
        assert len(lines) == 3


class TestOverfitTwoSequences:
    def test_exact_labels_recovered(self, toy_sequences, toy_embeddings):
        from argseg.models import predict_labels
        from argseg.training import _assemble

        by_essay = {}
        for s in toy_sequences:
            by_essay.setdefault(s.essay_id, []).append(s)
        chosen = []
        for essay_id in sorted(by_essay)[:3]:
            seqs = sorted(by_essay[essay_id], key=lambda s: len(s))
            chosen.append(seqs[0])
        model = build_model(ModelSpec(ArchitectureId.SB, input_dim=16, hidden=8, seed=3))
        cfg = TrainConfig(batch_size=4, max_epochs=300, patience=300,
                          learning_rate=1e-2, val_fraction=0.34, seed=1)
        model, _ = train(model, chosen, toy_embeddings, cfg)

        trained, _ = split_by_essay(chosen, cfg.val_fraction, cfg.seed)
        assert len(trained) == 2
        batch, gold = _assemble(trained, toy_embeddings, model.dtype)
        predicted = predict_labels(model, batch)
        assert np.array_equal(predicted, gold)
