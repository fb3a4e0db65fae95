import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argseg import numeric
from argseg.errors import ContractViolation, DimensionError, NumericError
from argseg.layers import TimeDistributedLinear
from argseg.numeric import BatchTensor, Parameter, grad_check, softmax_rows
from argseg.selftest import (
    DISTINCT_SHAPES,
    GRAD_TOLERANCE,
    SUMMED_TOLERANCE,
    check_distinct_rows,
    check_layer_gradients,
    check_model_gradients,
    layer_zoo,
    random_batch,
)

# reference values computed with mpmath at 50 decimal digits
SOFTMAX_123 = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]


class TestSoftmaxRows:
    def test_uniform_case(self):
        out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_shift_invariance_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 1000.0]]))
        assert np.allclose(out, 0.5, atol=1e-15)

    def test_matches_extended_precision_reference(self):
        out = softmax_rows(np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(out[0], SOFTMAX_123, rtol=1e-14, atol=0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-500, max_value=500, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_rows_nonnegative_and_normalized(self, row):
        out = softmax_rows(np.array([row]))
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) <= 1e-9


class TestParameter:
    def test_grad_starts_zero_and_shape_checked(self):
        p = Parameter("w", np.ones((2, 3)))
        assert p.grad.shape == (2, 3) and not p.grad.any()


class TestBatchTensor:
    def test_from_rows_pads_and_masks(self):
        rows = [np.ones((2, 3)), np.full((4, 3), 2.0)]
        bt = BatchTensor.from_rows(rows)
        assert (bt.batch, bt.time, bt.features) == (2, 4, 3)
        assert bt.rows.shape == (6, 3) and np.array_equal(bt.rows, np.concatenate(rows))
        assert bt.lengths.tolist() == [2, 4] and bt.spans == [(0, 2), (2, 6)]
        assert bt.mask.tolist() == [[True, True, False, False], [True] * 4]
        assert not bt.mask.flags.writeable

    def test_empty_sequence_has_an_empty_span(self):
        bt = BatchTensor.from_rows([np.ones((2, 3)), np.ones((0, 3)), np.ones((1, 3))])
        assert bt.spans == [(0, 2), (2, 2), (2, 3)]
        assert bt.mask.tolist() == [[True, True], [False, False], [True, False]]

    def test_feature_mismatch(self):
        with pytest.raises(DimensionError):
            BatchTensor.from_rows([np.ones((2, 3)), np.ones((2, 4))])

    @pytest.mark.parametrize("rows", [[np.zeros(3)], [np.ones((2, 3)), np.zeros(3)],
                                      [np.float64(1.0)]],
                             ids=["one_1d_row", "later_1d_row", "scalar_row"])
    def test_from_rows_needs_2d_rows(self, rows):
        with pytest.raises(DimensionError):
            BatchTensor.from_rows(rows)

    def test_mask_shape_checked(self):
        # the lengths say where each sequence's rows are; they must cover the rows exactly
        with pytest.raises(DimensionError, match="sum to 4"):
            BatchTensor(np.zeros((5, 4)), [2, 2])

    @pytest.mark.parametrize("rows", [np.zeros(5), np.zeros((1, 5, 4))], ids=["1d", "3d"])
    def test_rows_must_be_2d(self, rows):
        with pytest.raises(DimensionError):
            BatchTensor(rows, [5])

    @pytest.mark.parametrize("lengths", [[[2, 3]], [], [2.0, 3.0], [True, True], [6, -1]],
                             ids=["2d", "empty", "float", "bool", "negative"])
    def test_lengths_must_be_non_negative_integers(self, lengths):
        with pytest.raises((DimensionError, ContractViolation)):
            BatchTensor(np.zeros((5, 4)), lengths)


def pair_batch(rng, lengths, dim, words):
    """Rows taken from ``words`` distinct rows, with the (distinct, inverse) pair."""
    distinct = rng.standard_normal((words, dim))
    inverse = rng.integers(0, words, size=sum(lengths))
    return distinct[inverse], lengths, (distinct, inverse)


class TestDistinctRows:
    def test_pair_is_kept_read_only(self):
        rows, lengths, (distinct, inverse) = pair_batch(np.random.default_rng(0), [2, 3], 4, 3)
        bt = BatchTensor(rows, lengths, (distinct, inverse))
        kept_distinct, kept_inverse = bt._distinct
        assert np.array_equal(kept_distinct[kept_inverse], bt.rows)
        assert not kept_distinct.flags.writeable and not kept_inverse.flags.writeable

    def test_inverse_length_must_match_the_rows(self):
        rows, lengths, (distinct, inverse) = pair_batch(np.random.default_rng(1), [2, 3], 4, 3)
        with pytest.raises(DimensionError, match=r"inverse of shape \(4,\) for a batch of 5"):
            BatchTensor(rows, lengths, (distinct, inverse[:4]))

    def test_distinct_width_must_match_the_rows(self):
        rows, lengths, (distinct, inverse) = pair_batch(np.random.default_rng(2), [2, 3], 4, 3)
        with pytest.raises(DimensionError, match="of 4 features"):
            BatchTensor(rows, lengths, (distinct[:, :3], inverse))

    @pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "past_the_end"])
    def test_inverse_must_index_the_distinct_rows(self, bad):
        rows, lengths, (distinct, inverse) = pair_batch(np.random.default_rng(3), [2, 3], 4, 3)
        inverse[1] = bad
        with pytest.raises(ContractViolation, match=r"must lie in \[0, 3\)"):
            BatchTensor(rows, lengths, (distinct, inverse))

    def test_inverse_must_hold_integers(self):
        rows, lengths, (distinct, inverse) = pair_batch(np.random.default_rng(4), [2, 3], 4, 3)
        with pytest.raises(ContractViolation, match="integers"):
            BatchTensor(rows, lengths, (distinct, inverse.astype(float)))

    def test_new_rows_drop_the_pair(self):
        bt = BatchTensor(*pair_batch(np.random.default_rng(5), [2, 3], 8, 3))
        w = np.ones((8, 8))
        assert bt.projects_distinct(w)
        assert not bt.with_rows(bt.rows * 2.0).projects_distinct(w)

    # (depth, width, distinct rows): inside the sizes at which a product's
    # rows stand alone, with and without a column tail that times pads, then
    # past the depth and with one distinct row, where the plain product is
    # kept, padded too
    @pytest.mark.parametrize("depth,width,words,projects", [
        (4, 8, 2, True), (300, 256, 49, True), (384, 64, 120, True),
        (400, 64, 49, False), (300, 300, 49, True), (16, 20, 49, True), (16, 16, 1, False),
        (400, 20, 49, False)])
    def test_times_gives_the_bytes_of_the_plain_product(self, depth, width, words, projects):
        rng = np.random.default_rng(depth + width + words)
        rows, lengths, pair = pair_batch(rng, [int(n) for n in rng.integers(0, 45, 64)],
                                         depth, words)
        bt = BatchTensor(rows, lengths, pair)
        w = rng.standard_normal((depth, width))
        order = rng.permutation(len(rows))
        assert bt.projects_distinct(w) is projects
        if width % 8:  # w with zero columns to a multiple of 8, then the first width
            w8 = np.hstack([w, np.zeros((depth, -width % 8))])
            expected = (rows @ w8)[:, :width], (rows[order] @ w8)[:, :width]
        else:
            expected = rows @ w, rows[order] @ w
        assert bt.times(w).tobytes() == expected[0].tobytes()
        out = np.empty((len(rows), width))
        assert bt.times(w, order, out=out) is out
        assert out.tobytes() == expected[1].tobytes()

    # (depth, width, distinct rows, whether they are projected)
    @pytest.mark.parametrize("depth,width,words,projects", [
        (300, 300, 49, True), (300, 256, 49, True), (400, 20, 49, False), (16, 16, 1, False)])
    def test_project_gives_times_in_factored_form(self, depth, width, words, projects):
        rng = np.random.default_rng(depth * width + words)
        rows, lengths, pair = pair_batch(rng, [int(n) for n in rng.integers(0, 45, 64)],
                                         depth, words)
        bt = BatchTensor(rows, lengths, pair)
        w = rng.standard_normal((depth, width))
        order = rng.permutation(len(rows))
        for args in ((), (order,)):
            table, ids = bt.project(w, *args)
            assert (ids is not None) is projects
            assert table.shape == ((words if projects else len(rows)), width)
            got = table if ids is None else table[ids]
            assert got.tobytes() == bt.times(w, *args).tobytes()

    def test_rows_stand_alone_at_random_sizes(self):
        # the measured property the distinct product rests on, at 40 random
        # sizes inside it, at any width: times pads it to a multiple of 8
        rng = np.random.default_rng(6)
        for _ in range(40):
            depth, width = int(rng.integers(1, 385)), int(rng.integers(1, 513))
            words = int(rng.integers(2, 121))
            rows, lengths, pair = pair_batch(rng, [int(rng.integers(words, 2001))], depth, words)
            w = rng.standard_normal((depth, width))
            w8 = np.hstack([w, np.zeros((depth, -width % 8))])
            bt = BatchTensor(rows, lengths, pair)
            assert bt.projects_distinct(w)
            assert bt.times(w).tobytes() == (rows @ w8)[:, :width].tobytes(), (depth, width, words)

    def test_selftest_distinct_rows_check_passes(self):
        # every shape but depth 385 is inside the gate
        differ, projected, summed = check_distinct_rows()
        assert (differ, projected) == (0, len(DISTINCT_SHAPES) - 1)
        assert 0.0 < summed <= SUMMED_TOLERANCE

    def test_selftest_distinct_rows_check_fails_with_a_gate_that_admits_depth_385(
            self, monkeypatch):
        monkeypatch.setattr(numeric, "_rows_stand_alone",
                            lambda rows, w: rows > 1 and w.shape[0] <= 385)
        assert check_distinct_rows()[:2] == (1, len(DISTINCT_SHAPES))

    def test_selftest_distinct_rows_check_fails_when_one_word_is_not_summed(self, monkeypatch):
        summed = BatchTensor.t_times

        def drops_a_word(self, g, order=None, out=None):
            if self._distinct is not None:  # the rows of one word add nothing
                ids = self._distinct[1] if order is None else self._distinct[1][order]
                g = g * (ids != ids[0])[:, None]
            return summed(self, g, order, out)

        monkeypatch.setattr(BatchTensor, "t_times", drops_a_word)
        assert check_distinct_rows()[2] > SUMMED_TOLERANCE


def longdouble_t_times(rows, order, g):
    """``rows[order].T @ g`` in extended precision, from float64 operands."""
    taken = rows if order is None else rows[order]
    return taken.astype(np.longdouble).T @ g.astype(np.longdouble)


class TestTransposedTimes:
    @pytest.mark.parametrize("ordered", [False, True])
    def test_without_distinct_rows_it_is_the_plain_product(self, ordered):
        rng = np.random.default_rng(7)
        bt = BatchTensor.from_rows([rng.standard_normal((n, 300)) for n in (44, 0, 17, 30)])
        g = rng.standard_normal((len(bt.rows), 256))
        order = rng.permutation(len(bt.rows)) if ordered else None
        expected = (bt.rows if order is None else bt.rows[order]).T @ g
        assert bt.t_times(g, order).tobytes() == expected.tobytes()
        out = np.empty((300, 256))
        assert bt.t_times(g, order, out=out) is out
        assert out.tobytes() == expected.tobytes()

    def test_distinct_rows_lie_within_the_summation_bound(self):
        # 20 shapes, the first six fixed: the projection widths (4, 32, 256
        # and 300), one distinct row, and a batch of only empty sequences,
        # whose gradient is zero.  The bound is the a-priori one of M + U
        # roundings per entry, (M + U) eps (|X|^T |g|)
        rng = np.random.default_rng(8)
        fixed = [(300, 4, 49), (300, 32, 49), (300, 256, 49), (300, 300, 49), (16, 32, 1),
                 (16, 32, 3)]
        for case in range(20):
            if case < len(fixed):
                depth, width, words = fixed[case]
            else:
                depth, width, words = (int(rng.integers(1, n)) for n in (301, 301, 80))
            lengths = [0, 0] if case == 5 else [int(n) for n in rng.integers(0, 45, 8)]
            rows, lengths, pair = pair_batch(rng, lengths, depth, words)
            bt, plain = BatchTensor(rows, lengths, pair), BatchTensor(rows, lengths)
            g = rng.standard_normal((len(rows), width))
            order = rng.permutation(len(rows)) if case % 2 else None
            got = bt.t_times(g, order)
            taken = rows if order is None else rows[order]
            bound = (len(rows) + words) * np.finfo(float).eps * (np.abs(taken).T @ np.abs(g))
            error = np.abs(got - longdouble_t_times(rows, order, g))
            assert (error <= bound).all(), (depth, width, words)
            expected = plain.t_times(g, order)
            if not len(rows):
                assert got.shape == (depth, width) and not got.any()
                continue
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_distinct_rows_with_out_write_into_it(self):
        rng = np.random.default_rng(9)
        bt = BatchTensor(*pair_batch(rng, [5, 0, 3], 6, 4))
        g = rng.standard_normal((8, 40))  # a block of 32 columns and one of 8
        out = np.empty((6, 40))
        assert bt.t_times(g, out=out) is out
        assert out.tobytes() == bt.t_times(g).tobytes()

    def test_distinct_rows_peak_below_one_gradient_sized_array(self):
        # at the para300 shape and the BiLSTM's 4H = 256 columns, the sums
        # need an (M, 32) index and block, not an (M, W) one
        rng = np.random.default_rng(10)
        lengths = [int(n) for n in rng.integers(1, 45, 64)]
        bt = BatchTensor(*pair_batch(rng, lengths, 300, 49))
        g = rng.standard_normal((len(bt.rows), 256))
        out = np.empty((300, 256))
        order = rng.permutation(len(bt.rows))
        bt.t_times(g, order, out=out)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bt.t_times(g, order, out=out)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < g.nbytes, peak


class _Wrapper:
    """A layer that hands every pass to ``inner``; subclasses change one."""

    def __init__(self, inner):
        self.inner = inner

    def params(self):
        return self.inner.params()

    def forward(self, x):
        return self.inner.forward(x)

    def backward(self, cache, grad_out):
        return self.inner.backward(cache, grad_out)


class _BrokenBackward(_Wrapper):
    """Scales one parameter gradient by ``factor``, for harness sanity."""

    def __init__(self, inner, factor=2.0):
        super().__init__(inner)
        self.factor = factor

    def backward(self, cache, grad_out):
        out = self.inner.backward(cache, grad_out)
        self.inner.params()[0].grad *= self.factor
        return out


class _CentralDifferences(_Wrapper):
    """Backward gives central differences of the probe loss
    sum(grad_out * forward(x).rows), not the layer's own gradients, so
    grad_check on it compares the complex step with central differences.
    ``STEP`` suits a unit-scale ``grad_out``: at 1e-3 the truncation error
    reaches 5e-5 relative on the BiLSTM, at 1e-4 it stays below 1e-6."""

    STEP = 1e-4

    def forward(self, x):
        return self.inner.forward(x)[0], x

    def _differences(self, x, grad_out, values):
        flat = values.reshape(-1)
        grads = np.empty(flat.size)
        for i in range(flat.size):
            orig, losses = flat[i], []
            for moved in (orig + self.STEP, orig - self.STEP):
                flat[i] = moved
                losses.append(np.sum(self.inner.forward(x)[0].rows * grad_out))
            flat[i] = orig
            grads[i] = (losses[0] - losses[1]) / (2.0 * self.STEP)
        return grads.reshape(values.shape)

    def backward(self, x, grad_out):
        for p in self.params():
            p.grad[...] = self._differences(x, grad_out, p.value)
        return self._differences(x, grad_out, x.rows)


class _NanOnComplex(_Wrapper):
    """Forward is NaN on complex rows, so every probe is."""

    def forward(self, x):
        out, cache = self.inner.forward(x)
        if np.iscomplexobj(out.rows):
            out = out.with_rows(np.full_like(out.rows, np.nan))
        return out, cache


class _DropsImaginaryInput(_Wrapper):
    """Reads only the real part of its rows and, wrongly, gives them a zero
    gradient: the complex step sees the same zero."""

    def forward(self, x):
        return self.inner.forward(x.with_rows(x.rows.real.copy()))

    def backward(self, cache, grad_out):
        return np.zeros_like(self.inner.backward(cache, grad_out))


def value_snapshot(layer):
    return [(p.value, p.value.tobytes()) for p in layer.params()]


def assert_values_restored(layer, before):
    """Each parameter holds its float64 array of ``before``, with its bytes."""
    for p, (value, data) in zip(layer.params(), before, strict=True):
        assert p.value is value, p.name
        assert p.value.dtype == np.float64 and p.value.tobytes() == data, p.name


class TestGradCheck:
    def test_linear_layer_is_exact(self):
        rng = np.random.default_rng(0)
        layer = TimeDistributedLinear(4, 3, rng)
        x = BatchTensor.from_rows([rng.standard_normal((3, 4)) * 0.5])
        assert grad_check(layer, x, rng) < 1e-10

    def test_nonfinite_parameter_named(self):
        rng = np.random.default_rng(0)
        layer = TimeDistributedLinear(2, 2, rng, name="probe")
        layer.params()[0].value[0, 0] = np.nan
        x = BatchTensor.from_rows([np.ones((1, 2))])
        with pytest.raises(NumericError, match="probe.W"):
            grad_check(layer, x)

    def test_perturbed_backward_is_caught(self):
        rng = np.random.default_rng(0)
        broken = _BrokenBackward(TimeDistributedLinear(4, 3, rng))
        x = BatchTensor.from_rows([rng.standard_normal((3, 4))])
        assert grad_check(broken, x, rng) > 1e-3

    def test_complex_step_agrees_with_central_differences(self):
        # a forward that is not analytic in its values would break the
        # complex step; central differences need no such forward
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for layer, width in layer_zoo(rng):
                x = random_batch(rng, width)
                err = grad_check(_CentralDifferences(layer), x, rng)
                assert err < 1e-5, f"{layer.name} seed {seed}: {err:.3e}"

    def test_cross_check_catches_what_the_complex_step_cannot(self):
        rng = np.random.default_rng(0)
        layer = _DropsImaginaryInput(TimeDistributedLinear(4, 3, rng))
        x = BatchTensor.from_rows([rng.standard_normal((3, 4))])
        assert grad_check(layer, x, rng) < GRAD_TOLERANCE
        assert grad_check(_CentralDifferences(layer), x, rng) > 1e-3

    def test_zoos_pass_the_bound_and_a_one_in_a_million_slip_fails_it(self):
        assert GRAD_TOLERANCE <= 1e-10
        assert check_layer_gradients() < GRAD_TOLERANCE
        assert check_model_gradients() < GRAD_TOLERANCE
        rng = np.random.default_rng(0)
        for layer, width in layer_zoo(rng):
            err = grad_check(_BrokenBackward(layer, 1.0 + 1e-6), random_batch(rng, width), rng)
            assert err > GRAD_TOLERANCE, layer.name

    def test_parameters_restored_after_the_check(self):
        rng = np.random.default_rng(1)
        for layer, width in layer_zoo(rng):
            before = value_snapshot(layer)
            x = random_batch(rng, width)
            rows = x.rows.tobytes()
            grad_check(layer, x, rng)
            assert_values_restored(layer, before)
            assert x.rows.dtype == np.float64 and x.rows.tobytes() == rows

    def test_parameters_restored_after_a_non_finite_probe(self):
        rng = np.random.default_rng(2)
        layer = TimeDistributedLinear(4, 3, rng, name="probe")
        before = value_snapshot(layer)
        x = BatchTensor.from_rows([rng.standard_normal((3, 4))])
        with pytest.raises(NumericError, match="non-finite probe value while perturbing probe.W"):
            grad_check(_NanOnComplex(layer), x, rng)
        assert_values_restored(layer, before)
