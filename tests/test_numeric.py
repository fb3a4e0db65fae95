import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argseg.errors import ContractViolation, DimensionError, NumericError
from argseg.layers import TimeDistributedLinear
from argseg.numeric import BatchTensor, Parameter, grad_check, softmax_rows

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
        with pytest.raises(DimensionError):
            Parameter("w", np.ones((2, 3)), grad=np.zeros((3, 2)))

    def test_backward_twice_doubles_grads_exactly(self):
        rng = np.random.default_rng(3)
        layer = TimeDistributedLinear(4, 2, rng)
        x = BatchTensor.from_rows([rng.standard_normal((3, 4))])
        out, cache = layer.forward(x)
        upstream = rng.standard_normal(out.values.shape)
        layer.zero_grads()
        layer.backward(cache, upstream)
        once = [p.grad.copy() for p in layer.params()]
        layer.backward(cache, upstream)
        for p, g1 in zip(layer.params(), once):
            assert np.array_equal(p.grad, 2.0 * g1)


class TestBatchTensor:
    def test_from_rows_pads_and_masks(self):
        rows = [np.ones((2, 3)), np.full((4, 3), 2.0)]
        bt = BatchTensor.from_rows(rows)
        assert (bt.batch, bt.time, bt.features) == (2, 4, 3)
        assert bt.mask.tolist() == [[True, True, False, False], [True] * 4]
        assert not bt.values[0, 2:].any()

    def test_feature_mismatch(self):
        with pytest.raises(DimensionError):
            BatchTensor.from_rows([np.ones((2, 3)), np.ones((2, 4))])

    def test_mask_shape_checked(self):
        with pytest.raises(DimensionError):
            BatchTensor(np.zeros((2, 3, 4)), np.ones((2, 4), dtype=bool))

    @pytest.mark.parametrize("row", [[0, 1, 1], [1, 0, 1], [0, 0, 1]],
                             ids=["leading", "interior", "leading_run"])
    def test_padding_before_a_token_rejected(self, row):
        mask = np.array([[1, 1, 1], row], dtype=bool)
        with pytest.raises(ContractViolation, match="mask row 1"):
            BatchTensor(np.zeros((2, 3, 4)), mask)


class _BrokenBackward:
    """Wrapper that corrupts one parameter gradient, for harness sanity."""

    def __init__(self, inner):
        self.inner = inner

    def params(self):
        return self.inner.params()

    def forward(self, x):
        return self.inner.forward(x)

    def backward(self, cache, grad_out):
        out = self.inner.backward(cache, grad_out)
        self.inner.params()[0].grad *= 2.0
        return out


class TestGradCheck:
    def test_linear_layer_is_exact(self):
        rng = np.random.default_rng(0)
        layer = TimeDistributedLinear(4, 3, rng)
        x = BatchTensor.from_rows([rng.standard_normal((3, 4)) * 0.5])
        assert grad_check(layer, x, 1e-3, rng) < 1e-10

    def test_epsilon_domain(self):
        rng = np.random.default_rng(0)
        layer = TimeDistributedLinear(2, 2, rng)
        x = BatchTensor.from_rows([np.ones((1, 2))])
        for eps in (0.0, -1e-3, 0.5):
            with pytest.raises(ValueError):
                grad_check(layer, x, eps)

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
        assert grad_check(broken, x, 1e-3, rng) > 1e-3
