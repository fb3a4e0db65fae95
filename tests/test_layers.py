import math

import numpy as np
import pytest
from scipy.special import expit

from argseg.errors import ConfigurationError, ContractViolation, DimensionError
from argseg.layers import (
    AdditiveSelfAttention,
    BiLstm,
    LstmCell,
    MultiHeadSelfAttention,
    TimeDistributedLinear,
    choose_heads,
)
from argseg.numeric import BatchTensor, grad_check


def full_batch(values):
    values = np.asarray(values, dtype=float)
    return BatchTensor(values, np.ones(values.shape[:2], dtype=bool))


# ---------------------------------------------------------------------------
# LSTM references (independent of the time-major kernel in argseg.layers)
# ---------------------------------------------------------------------------


GATES = ("i", "f", "o", "g")  # column blocks of the fused LSTM parameters


def gate_block(p, gate):
    """The columns of a fused i|f|o|g parameter that belong to one gate."""
    k = GATES.index(gate)
    h = p.value.shape[-1] // 4
    return p.value[..., k * h : (k + 1) * h]


def lstm_cell_step(cell: LstmCell, x_t, h_prev, c_prev):
    """Single step: returns (h_t, c_t) for 1-D or (B, *) inputs.

    i = sigmoid(x W_i + h U_i + b_i), f and o likewise, g = tanh(x W_g + h U_g + b_g);
    c_t = f*c_prev + i*g; h_t = o*tanh(c_t).
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    c_prev = np.asarray(c_prev, dtype=np.float64)
    single = x_t.ndim == 1
    if single:
        x_t, h_prev, c_prev = x_t[None, :], h_prev[None, :], c_prev[None, :]
    if x_t.shape[1] != cell.input_dim or h_prev.shape[1] != cell.hidden:
        raise DimensionError(
            f"{cell.name}: got input {x_t.shape}, state {h_prev.shape}, "
            f"expected dims ({cell.input_dim}, {cell.hidden})"
        )
    hdim = cell.hidden
    a = x_t @ cell.w.value + h_prev @ cell.u.value + cell.b.value
    i = expit(a[:, :hdim])
    f = expit(a[:, hdim : 2 * hdim])
    o = expit(a[:, 2 * hdim : 3 * hdim])
    g = np.tanh(a[:, 3 * hdim :])
    c_t = f * c_prev + i * g
    h_t = o * np.tanh(c_t)
    if single:
        return h_t[0], c_t[0]
    return h_t, c_t


def lstm_reference(layer: BiLstm, x: BatchTensor):
    """Row-by-row, step-by-step BiLSTM: padded steps emit zero and carry the state."""
    bsz, tlen, _ = x.values.shape
    hdim = layer.hidden
    out = np.zeros((bsz, tlen, 2 * hdim))
    for b in range(bsz):
        for cell, steps, lo in ((layer.fwd, range(tlen), 0),
                                (layer.bwd, range(tlen - 1, -1, -1), hdim)):
            h = np.zeros(hdim)
            c = np.zeros(hdim)
            for t in steps:
                if x.mask[b, t]:
                    h, c = lstm_cell_step(cell, x.values[b, t], h, c)
                    out[b, t, lo : lo + hdim] = h
    return out


def scalar_sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


def scalar_lstm_step(cell, x, h_prev, c_prev):
    hidden = cell.hidden
    h_t = np.zeros(hidden)
    c_t = np.zeros(hidden)
    gates = {}
    for gate in GATES:
        w, u, b = (gate_block(p, gate) for p in cell.params())
        pre = np.zeros(hidden)
        for j in range(hidden):
            acc = b[j]
            for k in range(len(x)):
                acc += x[k] * w[k, j]
            for k in range(hidden):
                acc += h_prev[k] * u[k, j]
            pre[j] = acc
        gates[gate] = pre
    for j in range(hidden):
        i = scalar_sigmoid(gates["i"][j])
        f = scalar_sigmoid(gates["f"][j])
        o = scalar_sigmoid(gates["o"][j])
        g = math.tanh(gates["g"][j])
        c_t[j] = f * c_prev[j] + i * g
        h_t[j] = o * math.tanh(c_t[j])
    return h_t, c_t


class TestLstmCell:
    def test_zero_parameters_fixed_point(self):
        rng = np.random.default_rng(0)
        cell = LstmCell(3, 4, rng)
        for p in cell.params():
            p.value[...] = 0.0
        h, c = lstm_cell_step(cell, np.array([1.0, -2.0, 3.0]), np.ones(4), np.ones(4))
        # candidate tanh(0) = 0 forces c_t = 0.5 * c_prev ... but with zero
        # forget bias f = 0.5, c_prev weighted; with c_prev = 0 both vanish
        h0, c0 = lstm_cell_step(cell, np.array([1.0, -2.0, 3.0]), np.zeros(4), np.zeros(4))
        assert np.array_equal(h0, np.zeros(4))
        assert np.array_equal(c0, np.zeros(4))
        assert np.allclose(c, 0.5 * np.ones(4))
        assert np.allclose(h, 0.5 * np.tanh(c))

    def test_saturated_forget_gate_carries_cell_state(self):
        rng = np.random.default_rng(1)
        cell = LstmCell(3, 4, rng)
        gate_block(cell.b, "f")[:] = 50.0  # forget gate pinned open
        gate_block(cell.b, "i")[:] = -50.0  # input gate pinned shut
        c_prev = rng.standard_normal(4)
        _, c_t = lstm_cell_step(cell, rng.standard_normal(3), rng.standard_normal(4), c_prev)
        assert np.allclose(c_t, c_prev, atol=1e-10)

    def test_matches_scalar_loop_reference(self):
        rng = np.random.default_rng(2)
        cell = LstmCell(3, 3, rng)
        x = rng.standard_normal(3)
        h_prev = rng.standard_normal(3)
        c_prev = rng.standard_normal(3)
        h, c = lstm_cell_step(cell, x, h_prev, c_prev)
        h_ref, c_ref = scalar_lstm_step(cell, x, h_prev, c_prev)
        assert np.allclose(h, h_ref, atol=1e-12)
        assert np.allclose(c, c_ref, atol=1e-12)


class TestBiLstm:
    def test_length_one_sequence(self):
        rng = np.random.default_rng(3)
        layer = BiLstm(3, 4, rng)
        x = rng.standard_normal(3)
        out, _ = layer.forward(full_batch(x[None, None, :]))
        h_f, _ = lstm_cell_step(layer.fwd, x, np.zeros(4), np.zeros(4))
        h_b, _ = lstm_cell_step(layer.bwd, x, np.zeros(4), np.zeros(4))
        assert np.allclose(out.values[0, 0], np.concatenate([h_f, h_b]), atol=1e-12)

    def test_palindrome_with_tied_directions(self):
        rng = np.random.default_rng(4)
        layer = BiLstm(3, 4, rng)
        for pf, pb in zip(layer.fwd.params(), layer.bwd.params()):
            pb.value[...] = pf.value
        seq = rng.standard_normal((2, 3))
        palindrome = np.stack([seq[0], seq[1], seq[1], seq[0]])
        out, _ = layer.forward(full_batch(palindrome[None]))
        h = 4
        for t in range(4):
            mirrored = 4 - 1 - t
            swapped = np.concatenate(
                [out.values[0, mirrored, h:], out.values[0, mirrored, :h]]
            )
            assert np.allclose(out.values[0, t], swapped, atol=1e-12)

    def test_matches_unrolled_scalar_reference(self):
        rng = np.random.default_rng(5)
        layer = BiLstm(3, 4, rng)
        seq = rng.standard_normal((3, 3))
        out, _ = layer.forward(full_batch(seq[None]))

        h = np.zeros(4)
        c = np.zeros(4)
        fwd_states = []
        for t in range(3):
            h, c = scalar_lstm_step(layer.fwd, seq[t], h, c)
            fwd_states.append(h)
        h = np.zeros(4)
        c = np.zeros(4)
        bwd_states = [None] * 3
        for t in range(2, -1, -1):
            h, c = scalar_lstm_step(layer.bwd, seq[t], h, c)
            bwd_states[t] = h
        for t in range(3):
            expected = np.concatenate([fwd_states[t], bwd_states[t]])
            assert np.allclose(out.values[0, t], expected, atol=1e-12)

    def test_zero_parameters_give_zero_output(self):
        rng = np.random.default_rng(6)
        layer = BiLstm(3, 4, rng)
        for p in layer.params():
            p.value[...] = 0.0
        out, _ = layer.forward(full_batch(rng.standard_normal((2, 5, 3))))
        assert not out.values.any()

    def test_trailing_padding_matches_unpadded_run(self):
        rng = np.random.default_rng(7)
        layer = BiLstm(3, 4, rng)
        short = rng.standard_normal((3, 3))
        long_ = rng.standard_normal((5, 3))
        padded = BatchTensor.from_rows([short, long_])
        out_padded, _ = layer.forward(padded)
        out_short, _ = layer.forward(full_batch(short[None]))
        assert np.allclose(out_padded.values[0, :3], out_short.values[0], atol=1e-12)
        assert not out_padded.values[0, 3:].any()

    @staticmethod
    def mixed_batch(rng, width=3):
        """Mixed lengths: a full row, an all-padding row, a length-1 row, a padded row."""
        return BatchTensor.from_rows([rng.standard_normal((n, width)) * 0.5 for n in (5, 0, 1, 3)])

    def test_matches_stepwise_reference_on_mixed_batch(self):
        rng = np.random.default_rng(8)
        layer = BiLstm(3, 4, rng)
        x = self.mixed_batch(rng)
        out, _ = layer.forward(x)
        assert np.abs(out.values - lstm_reference(layer, x)).max() <= 1e-12

    def test_gradients_on_mixed_batch(self):
        rng = np.random.default_rng(9)
        layer = BiLstm(3, 4, rng)
        assert grad_check(layer, self.mixed_batch(rng), 1e-3, rng) < 1e-4

    def test_repeated_runs_are_byte_identical(self):
        rng = np.random.default_rng(10)
        layer = BiLstm(3, 4, rng)
        x = self.mixed_batch(rng)
        upstream = rng.standard_normal((4, 5, 8))
        runs = []
        for _ in range(2):
            layer.zero_grads()
            out, cache = layer.forward(x)
            dx = layer.backward(cache, upstream)
            runs.append([out.values, dx] + [p.grad.copy() for p in layer.params()])
        for run in runs[1:]:
            for a, b in zip(runs[0], run, strict=True):
                assert a.tobytes() == b.tobytes()
        assert not runs[0][1][~x.mask].any()  # padded positions get no input gradient


class TestAdditiveAttention:
    def test_identical_tokens_reproduced(self):
        rng = np.random.default_rng(9)
        layer = AdditiveSelfAttention(3, rng, attn_dim=5)
        token = rng.standard_normal(3)
        x = full_batch(np.tile(token, (1, 4, 1)))
        out, _ = layer.forward(x)
        assert np.allclose(out.values, token, atol=1e-12)

    def test_zero_score_vector_gives_mean(self):
        rng = np.random.default_rng(10)
        layer = AdditiveSelfAttention(3, rng, attn_dim=5)
        layer.v_score.value[...] = 0.0
        vals = rng.standard_normal((1, 4, 3))
        out, _ = layer.forward(full_batch(vals))
        assert np.allclose(out.values[0], np.tile(vals[0].mean(axis=0), (4, 1)), atol=1e-12)

    def test_matches_double_loop_reference(self):
        rng = np.random.default_rng(11)
        layer = AdditiveSelfAttention(3, rng, attn_dim=4)
        vals = rng.standard_normal((1, 4, 3))
        out, _ = layer.forward(full_batch(vals))

        w_t, w_x = layer.w_query.value, layer.w_key.value
        b_h, v_a = layer.b_hidden.value, layer.v_score.value[:, 0]
        x = vals[0]
        expected = np.zeros_like(x)
        for t in range(4):
            scores = np.empty(4)
            for s in range(4):
                scores[s] = v_a @ np.tanh(x[t] @ w_t + x[s] @ w_x + b_h)
            e = np.exp(scores - scores.max())
            alpha = e / e.sum()
            for s in range(4):
                expected[t] += alpha[s] * x[s]
        assert np.allclose(out.values[0], expected, atol=1e-12)

    def test_all_padding_row_rejected(self):
        rng = np.random.default_rng(12)
        layer = AdditiveSelfAttention(3, rng)
        values = np.zeros((2, 3, 3))
        mask = np.ones((2, 3), dtype=bool)
        mask[1, :] = False
        with pytest.raises(ContractViolation):
            layer.forward(BatchTensor(values, mask))

    def test_padded_queries_and_keys_inert(self):
        rng = np.random.default_rng(13)
        layer = AdditiveSelfAttention(3, rng, attn_dim=4)
        short = rng.standard_normal((2, 3))
        padded = BatchTensor.from_rows([short, rng.standard_normal((4, 3))])
        out_padded, cache = layer.forward(padded)
        out_short, short_cache = layer.forward(full_batch(short[None]))
        assert np.allclose(out_padded.values[0, :2], out_short.values[0], atol=1e-12)
        assert not out_padded.values[0, 2:].any()
        block = cache[2][0]  # the short row's weights cover its two tokens only
        assert block.shape == (2, 2)
        assert np.abs(block - short_cache[2][0]).max() <= 1e-12


class TestMultiHeadAttention:
    def test_zero_query_uniform_attention(self):
        rng = np.random.default_rng(14)
        layer = MultiHeadSelfAttention(4, 2, rng)
        layer.w_q.value[...] = 0.0
        vals = rng.standard_normal((1, 5, 4))
        out, _ = layer.forward(full_batch(vals))
        v = vals[0] @ layer.w_v.value
        expected = np.tile(v.mean(axis=0), (5, 1)) @ layer.w_o.value
        assert np.allclose(out.values[0], expected, atol=1e-12)

    def test_singleton_sequence(self):
        rng = np.random.default_rng(15)
        layer = MultiHeadSelfAttention(4, 2, rng)
        vals = rng.standard_normal((1, 1, 4))
        out, _ = layer.forward(full_batch(vals))
        expected = vals[0] @ layer.w_v.value @ layer.w_o.value
        assert np.allclose(out.values[0], expected, atol=1e-12)

    def test_matches_per_head_explicit_loop(self):
        rng = np.random.default_rng(16)
        layer = MultiHeadSelfAttention(4, 2, rng)
        vals = rng.standard_normal((1, 3, 4))
        out, _ = layer.forward(full_batch(vals))

        x = vals[0]
        q_all = x @ layer.w_q.value
        k_all = x @ layer.w_k.value
        v_all = x @ layer.w_v.value
        dk = 2
        heads = []
        for h in range(2):
            q = q_all[:, h * dk : (h + 1) * dk]
            k = k_all[:, h * dk : (h + 1) * dk]
            v = v_all[:, h * dk : (h + 1) * dk]
            ctx = np.zeros((3, dk))
            for t in range(3):
                scores = np.array([q[t] @ k[s] / math.sqrt(dk) for s in range(3)])
                e = np.exp(scores - scores.max())
                alpha = e / e.sum()
                for s in range(3):
                    ctx[t] += alpha[s] * v[s]
            heads.append(ctx)
        expected = np.concatenate(heads, axis=1) @ layer.w_o.value
        assert np.allclose(out.values[0], expected, atol=1e-12)

    def test_single_head_equals_unsliced_attention(self):
        rng = np.random.default_rng(17)
        layer = MultiHeadSelfAttention(4, 1, rng)
        vals = rng.standard_normal((1, 3, 4))
        out, _ = layer.forward(full_batch(vals))

        x = vals[0]
        q = x @ layer.w_q.value
        k = x @ layer.w_k.value
        v = x @ layer.w_v.value
        scores = q @ k.T / math.sqrt(4)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        alpha = e / e.sum(axis=1, keepdims=True)
        expected = alpha @ v @ layer.w_o.value
        assert np.allclose(out.values[0], expected, atol=1e-12)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigurationError, match="heads"):
            MultiHeadSelfAttention(5, 2, np.random.default_rng(0))


class TestChooseHeads:
    def test_reference_dimensions(self):
        assert choose_heads(300) == 6
        assert choose_heads(3072) == 6
        assert choose_heads(4196) == 4

    def test_one_always_divides(self):
        assert choose_heads(7) == 1
        assert choose_heads(1) == 1

    def test_cap_respected(self):
        assert choose_heads(12, cap=5) == 4
        assert choose_heads(12, cap=2) == 2

    def test_domain_errors(self):
        with pytest.raises(ConfigurationError):
            choose_heads(0)
        with pytest.raises(ConfigurationError):
            choose_heads(4, cap=0)


class TestAttentionInvariants:
    @pytest.mark.parametrize("kind", ["additive", "multi_head"])
    def test_permutation_equivariance(self, kind):
        for trial in range(10):
            rng = np.random.default_rng(100 + trial)
            if kind == "additive":
                layer = AdditiveSelfAttention(6, rng, attn_dim=4)
            else:
                layer = MultiHeadSelfAttention(6, 3, rng)
            vals = rng.standard_normal((1, 5, 6))
            out, _ = layer.forward(full_batch(vals))
            perm = rng.permutation(5)
            out_perm, _ = layer.forward(full_batch(vals[:, perm]))
            assert np.abs(out.values[:, perm] - out_perm.values).max() <= 1e-9

    @pytest.mark.parametrize("kind", ["additive", "multi_head"])
    def test_weights_row_stochastic_and_zero_on_padding(self, kind):
        for trial in range(10):
            rng = np.random.default_rng(200 + trial)
            if kind == "additive":
                layer = AdditiveSelfAttention(4, rng, attn_dim=3)
            else:
                layer = MultiHeadSelfAttention(4, 2, rng)
            rows = [rng.standard_normal((5, 4)), rng.standard_normal((3, 4))]
            _, cache = layer.forward(BatchTensor.from_rows(rows))
            for row, block in zip(rows, cache[2], strict=True):
                # one query and one key per token: no padded query or key
                assert block.shape[-2:] == (len(row), len(row))
                assert np.abs(block.sum(axis=-1) - 1.0).max() <= 1e-9
                _, alone_cache = layer.forward(full_batch(row[None]))
                assert np.abs(block - alone_cache[2][0]).max() <= 1e-12


def ragged_batch(rng, dim):
    """Rows of length 1, full, 3 and 4."""
    mask = np.array(
        [
            [1, 0, 0, 0, 0],
            [1, 1, 1, 1, 1],
            [1, 1, 1, 0, 0],
            [1, 1, 1, 1, 0],
        ],
        dtype=bool,
    )
    return BatchTensor(rng.standard_normal((4, 5, dim)) * mask[:, :, None], mask)


def forward_backward(layer, x, upstream):
    """Output, input gradient and parameter gradients of one fresh pass."""
    layer.zero_grads()
    out, cache = layer.forward(x)
    dx = layer.backward(cache, upstream)
    return [out.values, dx] + [p.grad.copy() for p in layer.params()]


ATTENTION_LAYERS = {
    "additive": lambda rng: AdditiveSelfAttention(6, rng, attn_dim=4),
    "multi_head": lambda rng: MultiHeadSelfAttention(6, 2, rng),
}


class TestAttentionOnRaggedBatches:
    @pytest.fixture(params=sorted(ATTENTION_LAYERS))
    def case(self, request):
        rng = np.random.default_rng(300)
        layer = ATTENTION_LAYERS[request.param](rng)
        return layer, ragged_batch(rng, 6), rng

    def test_rows_match_each_row_run_alone(self, case):
        layer, x, _ = case
        out, cache = layer.forward(x)
        assert len(cache[2]) == x.batch
        for b, block in enumerate(cache[2]):
            n = int(x.mask[b].sum())
            alone, alone_cache = layer.forward(full_batch(x.values[b, :n][None]))
            assert np.abs(out.values[b, :n] - alone.values[0]).max() <= 1e-12
            # the cached block is the row's own weights, one key per token
            assert block.shape == alone_cache[2][0].shape
            assert block.shape[-1] == n
            assert np.abs(block - alone_cache[2][0]).max() <= 1e-12

    def test_padding_gets_exact_zeros(self, case):
        layer, x, rng = case
        out, dx = forward_backward(layer, x, rng.standard_normal(x.values.shape))[:2]
        assert not out[~x.mask].any()
        assert not dx[~x.mask].any()

    def test_gradients(self, case):
        layer, x, rng = case
        assert grad_check(layer, x, 1e-3, rng) < 1e-4

    def test_repeated_passes_are_byte_identical(self, case):
        layer, x, rng = case
        upstream = rng.standard_normal(x.values.shape)
        first = forward_backward(layer, x, upstream)
        second = forward_backward(layer, x, upstream)
        for a, b in zip(first, second, strict=True):
            assert a.tobytes() == b.tobytes()


def test_additive_query_chunks_match_one_chunk(monkeypatch):
    rng = np.random.default_rng(301)
    layer = AdditiveSelfAttention(6, rng, attn_dim=4)
    x = ragged_batch(rng, 6)
    upstream = rng.standard_normal(x.values.shape)
    whole = forward_backward(layer, x, upstream)
    # two query rows of the full row (5 keys x attn_dim 4) per chunk: 3 chunks
    monkeypatch.setattr(AdditiveSelfAttention, "CHUNK_ELEMENTS", 2 * 5 * 4)
    assert layer._rows_per_chunk(5) == 2
    chunked = forward_backward(layer, x, upstream)
    for a, b in zip(whole, chunked, strict=True):
        assert np.abs(a - b).max() <= 1e-12


LAYER_BUILDERS = [
    ("linear", lambda rng: (TimeDistributedLinear(4, 3, rng), 4)),
    ("bilstm", lambda rng: (BiLstm(4, 5, rng), 4)),
    ("additive", lambda rng: (AdditiveSelfAttention(4, rng, attn_dim=5), 4)),
    ("multi_head", lambda rng: (MultiHeadSelfAttention(6, 2, rng), 6)),
]


@pytest.mark.parametrize("name,builder", LAYER_BUILDERS)
def test_gradients_across_seeds(name, builder):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        layer, width = builder(rng)
        values = rng.standard_normal((2, 3, width)) * 0.5
        mask = np.ones((2, 3), dtype=bool)
        mask[-1, -1] = False
        values[~mask] = 0.0
        err = grad_check(layer, BatchTensor(values, mask), 1e-3, rng)
        assert err < 1e-4, f"{name} seed {seed}: {err:.3e}"


def test_single_step_cell_gradients():
    # one timestep exercises the bare cell equations, no recurrence
    rng = np.random.default_rng(30)
    layer = BiLstm(4, 5, rng)
    x = full_batch(rng.standard_normal((2, 1, 4)) * 0.5)
    assert grad_check(layer, x, 1e-3, rng) < 1e-4


def test_multi_head_gradients_at_reference_shape():
    rng = np.random.default_rng(31)
    layer = MultiHeadSelfAttention(6, 2, rng)
    x = full_batch(rng.standard_normal((2, 3, 6)) * 0.5)
    assert grad_check(layer, x, 1e-3, rng) < 1e-4
