import math
import tracemalloc

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
from argseg.numeric import BatchTensor, grad_check, softmax_rows


def full_batch(values):
    """A batch of equal-length sequences from a (B, T, F) array."""
    return BatchTensor.from_rows(list(np.asarray(values, dtype=float)))


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
    """Sequence-by-sequence, step-by-step BiLSTM over the packed rows."""
    hdim = layer.hidden
    out = np.full((len(x.rows), 2 * hdim), np.nan)
    for lo, hi in x.spans:
        for cell, steps, col in ((layer.fwd, range(lo, hi), 0),
                                 (layer.bwd, range(hi - 1, lo - 1, -1), hdim)):
            h = np.zeros(hdim)
            c = np.zeros(hdim)
            for t in steps:
                h, c = lstm_cell_step(cell, x.rows[t], h, c)
                out[t, col : col + hdim] = h
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
        assert np.allclose(out.rows[0], np.concatenate([h_f, h_b]), atol=1e-12)

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
            swapped = np.concatenate([out.rows[mirrored, h:], out.rows[mirrored, :h]])
            assert np.allclose(out.rows[t], swapped, atol=1e-12)

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
            assert np.allclose(out.rows[t], expected, atol=1e-12)

    def test_zero_parameters_give_zero_output(self):
        rng = np.random.default_rng(6)
        layer = BiLstm(3, 4, rng)
        for p in layer.params():
            p.value[...] = 0.0
        out, _ = layer.forward(full_batch(rng.standard_normal((2, 5, 3))))
        assert out.rows.shape == (10, 8) and not out.rows.any()

    def test_trailing_padding_matches_unpadded_run(self):
        rng = np.random.default_rng(7)
        layer = BiLstm(3, 4, rng)
        short = rng.standard_normal((3, 3))
        long_ = rng.standard_normal((5, 3))
        padded = BatchTensor.from_rows([short, long_])
        out_padded, _ = layer.forward(padded)
        out_short, _ = layer.forward(full_batch(short[None]))
        assert np.allclose(out_padded.rows[:3], out_short.rows, atol=1e-12)

    @staticmethod
    def mixed_batch(rng, width=3):
        """Mixed lengths: the longest row, an empty row, a length-1 row, a shorter row."""
        return BatchTensor.from_rows([rng.standard_normal((n, width)) * 0.5 for n in (5, 0, 1, 3)])

    def test_matches_stepwise_reference_on_mixed_batch(self):
        rng = np.random.default_rng(8)
        layer = BiLstm(3, 4, rng)
        x = self.mixed_batch(rng)
        out, _ = layer.forward(x)
        assert np.abs(out.rows - lstm_reference(layer, x)).max() <= 1e-12

    def test_gradients_on_mixed_batch(self):
        rng = np.random.default_rng(9)
        layer = BiLstm(3, 4, rng)
        assert grad_check(layer, self.mixed_batch(rng), 1e-3, rng) < 1e-4

    def test_repeated_runs_are_byte_identical(self):
        rng = np.random.default_rng(10)
        layer = BiLstm(3, 4, rng)
        x = self.mixed_batch(rng)
        upstream = rng.standard_normal((9, 8))
        runs = []
        for _ in range(2):
            out, cache = layer.forward(x)
            dx = layer.backward(cache, upstream)
            runs.append([out.rows, dx] + [p.grad.copy() for p in layer.params()])
        for run in runs[1:]:
            for a, b in zip(runs[0], run, strict=True):
                assert a.tobytes() == b.tobytes()
        assert runs[0][1].shape == x.rows.shape  # one input-gradient row per token


class TestAdditiveAttention:
    def test_identical_tokens_reproduced(self):
        rng = np.random.default_rng(9)
        layer = AdditiveSelfAttention(3, rng, attn_dim=5)
        token = rng.standard_normal(3)
        x = full_batch(np.tile(token, (1, 4, 1)))
        out, _ = layer.forward(x)
        assert np.allclose(out.rows, token, atol=1e-12)

    def test_zero_score_vector_gives_mean(self):
        rng = np.random.default_rng(10)
        layer = AdditiveSelfAttention(3, rng, attn_dim=5)
        layer.v_score.value[...] = 0.0
        vals = rng.standard_normal((1, 4, 3))
        out, _ = layer.forward(full_batch(vals))
        assert np.allclose(out.rows, np.tile(vals[0].mean(axis=0), (4, 1)), atol=1e-12)

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
        assert np.allclose(out.rows, expected, atol=1e-12)

    def test_all_padding_row_rejected(self):
        rng = np.random.default_rng(12)
        layer = AdditiveSelfAttention(3, rng)
        with pytest.raises(ContractViolation):
            layer.forward(BatchTensor(np.zeros((3, 3)), [3, 0]))

    def test_padded_queries_and_keys_inert(self):
        rng = np.random.default_rng(13)
        layer = AdditiveSelfAttention(3, rng, attn_dim=4)
        short = rng.standard_normal((2, 3))
        padded = BatchTensor.from_rows([short, rng.standard_normal((4, 3))])
        out_padded, cache = layer.forward(padded)
        out_short, short_cache = layer.forward(full_batch(short[None]))
        assert np.allclose(out_padded.rows[:2], out_short.rows, atol=1e-12)
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
        assert np.allclose(out.rows, expected, atol=1e-12)

    def test_singleton_sequence(self):
        rng = np.random.default_rng(15)
        layer = MultiHeadSelfAttention(4, 2, rng)
        vals = rng.standard_normal((1, 1, 4))
        out, _ = layer.forward(full_batch(vals))
        expected = vals[0] @ layer.w_v.value @ layer.w_o.value
        assert np.allclose(out.rows, expected, atol=1e-12)

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
        assert np.allclose(out.rows, expected, atol=1e-12)

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
        assert np.allclose(out.rows, expected, atol=1e-12)

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

    def test_domain_errors(self):
        with pytest.raises(ConfigurationError):
            choose_heads(0)


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
            assert np.abs(out.rows[perm] - out_perm.rows).max() <= 1e-9

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
            for row, block in zip(rows, layer.blocks(cache), strict=True):
                # one query and one key per token: no padded query or key
                assert block.shape[-2:] == (len(row), len(row))
                assert np.abs(block.sum(axis=-1) - 1.0).max() <= 1e-9
                _, alone_cache = layer.forward(full_batch(row[None]))
                (alone_block,) = layer.blocks(alone_cache)
                assert np.abs(block - alone_block).max() <= 1e-12


def ragged_batch(rng, dim):
    """Rows of length 1, 5, 3 and 4."""
    return BatchTensor.from_rows([rng.standard_normal((n, dim)) for n in (1, 5, 3, 4)])


def forward_backward(layer, x, upstream):
    """Output, input gradient and parameter gradients of one fresh pass."""
    out, cache = layer.forward(x)
    dx = layer.backward(cache, upstream)
    return [out.rows, dx] + [p.grad.copy() for p in layer.params()]


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
        blocks = list(layer.blocks(cache))
        assert len(blocks) == x.batch
        for (lo, hi), block in zip(x.spans, blocks):
            n = hi - lo
            alone, alone_cache = layer.forward(full_batch(x.rows[None, lo:hi]))
            assert np.abs(out.rows[lo:hi] - alone.rows).max() <= 1e-12
            # the block is the row's own weights, one key per token
            (alone_block,) = layer.blocks(alone_cache)
            assert block.shape == alone_block.shape
            assert block.shape[-1] == n
            assert np.abs(block - alone_block).max() <= 1e-12

    def test_gradients(self, case):
        layer, x, rng = case
        assert grad_check(layer, x, 1e-3, rng) < 1e-4

    def test_repeated_passes_are_byte_identical(self, case):
        layer, x, rng = case
        upstream = rng.standard_normal(x.rows.shape)
        first = forward_backward(layer, x, upstream)
        second = forward_backward(layer, x, upstream)
        for a, b in zip(first, second, strict=True):
            assert a.tobytes() == b.tobytes()


def test_additive_query_chunks_match_one_chunk(monkeypatch):
    rng = np.random.default_rng(301)
    layer = AdditiveSelfAttention(6, rng, attn_dim=4)
    x = ragged_batch(rng, 6)
    upstream = rng.standard_normal(x.rows.shape)
    whole = forward_backward(layer, x, upstream)
    # two query rows of the full row (5 keys x attn_dim 4) per chunk: 3 chunks
    monkeypatch.setattr(AdditiveSelfAttention, "CHUNK_ELEMENTS", 2 * 5 * 4)
    assert layer._rows_per_chunk(5) == 2
    chunked = forward_backward(layer, x, upstream)
    for a, b in zip(whole, chunked, strict=True):
        assert np.abs(a - b).max() <= 1e-12


def additive_backward_oracle(layer, cache, grad_out):
    """Input and parameter gradients of ``AdditiveSelfAttention`` the way its
    backward formed them before the tiled matrix products: each sequence's
    whole pair block, scaled by d loss / d score and summed along its axes."""
    xv, spans, weights, q, k = cache
    v_flat = layer.v_score.value[:, 0]
    dxv, dq, dk = np.empty_like(xv), np.empty_like(q), np.empty_like(k)
    dv = np.zeros(layer.attn_dim)
    for (lo, hi), block in zip(spans, weights):
        g = grad_out[lo:hi]
        dxv[lo:hi] = block.T @ g
        d_alpha = g @ xv[lo:hi].T
        d_alpha -= (block * d_alpha).sum(axis=1, keepdims=True)
        ds = block * d_alpha
        u = np.tanh(q[lo:hi, None, :] + k[None, lo:hi, :])
        dv += ds.ravel() @ u.reshape(-1, layer.attn_dim)
        pre = (1.0 - u * u) * ds[:, :, None]
        dq[lo:hi] = pre.sum(axis=1)
        dk[lo:hi] = pre.sum(axis=0)
    dq *= v_flat
    dk *= v_flat
    dxv += dq @ layer.w_query.value.T + dk @ layer.w_key.value.T
    return [dxv, xv.T @ dq, xv.T @ dk, dq.sum(axis=0), dv[:, None]]


def multi_head_cached_weights_oracle(layer, x, grad_out, input_grad):
    """Output, input gradient and parameter gradients of
    ``MultiHeadSelfAttention`` the way it formed them when its cache held
    every sequence's weight block and the concatenated head outputs."""
    xv = x.rows
    q, k, v = (xv @ p.value for p in (layer.w_q, layer.w_k, layer.w_v))
    scale = 1.0 / np.sqrt(layer.head_dim)
    weights, ctx = [], np.empty_like(xv)
    for lo, hi in x.spans:
        qb, kb, vb = (layer._heads(m[lo:hi]) for m in (q, k, v))
        block = softmax_rows((qb @ kb.transpose(0, 2, 1)) * scale)
        layer._heads(ctx[lo:hi])[...] = block @ vb
        weights.append(block)
    out = ctx @ layer.w_o.value
    d_ctx = grad_out @ layer.w_o.value.T
    dq, dk, dv = (np.empty_like(xv) for _ in range(3))
    for (lo, hi), block in zip(x.spans, weights):
        qb, kb, vb, dcb = (layer._heads(m[lo:hi]) for m in (q, k, v, d_ctx))
        d_alpha = dcb @ vb.transpose(0, 2, 1)
        layer._heads(dv[lo:hi])[...] = block.transpose(0, 2, 1) @ dcb
        d_alpha -= (block * d_alpha).sum(axis=2, keepdims=True)
        d_logits = block * d_alpha
        layer._heads(dq[lo:hi])[...] = (d_logits @ kb) * scale
        layer._heads(dk[lo:hi])[...] = (d_logits.transpose(0, 2, 1) @ qb) * scale
    grads = [xv.T @ dq, xv.T @ dk, xv.T @ dv, ctx.T @ grad_out]
    dxv = None
    if input_grad:
        dxv = dq @ layer.w_q.value.T
        dxv += dk @ layer.w_k.value.T
        dxv += dv @ layer.w_v.value.T
    return [out, dxv] + grads


def multi_head_case():
    """A 6-head layer at D=24 and a ragged batch with a 1-token sequence."""
    rng = np.random.default_rng(306)
    layer = MultiHeadSelfAttention(24, 6, rng)
    return layer, BatchTensor.from_rows([rng.standard_normal((n, 24)) for n in (40, 1, 25, 33)])


@pytest.mark.parametrize("input_grad", [True, False])
def test_multi_head_matches_cached_weights_oracle(input_grad):
    layer, x = multi_head_case()
    upstream = np.random.default_rng(307).standard_normal(x.rows.shape)
    out, cache = layer.forward(x)
    dx = layer.backward(cache, upstream, input_grad=input_grad)
    got = [out.rows, dx] + [p.grad for p in layer.params()]
    expected = multi_head_cached_weights_oracle(layer, x, upstream, input_grad)
    for a, b in zip(expected, got, strict=True):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


def test_multi_head_rebuilt_blocks_reproduce_the_output():
    layer, x = multi_head_case()
    out, cache = layer.forward(x)
    _, spans, q, k, v = cache
    assert (q.shape, k.shape, v.shape) == (x.rows.shape,) * 3
    ctx = np.empty_like(x.rows)
    for (lo, hi), block in zip(spans, layer.blocks(cache), strict=True):
        assert block.shape == (6, hi - lo, hi - lo)
        layer._heads(ctx[lo:hi])[...] = block @ layer._heads(v[lo:hi])
    assert (ctx @ layer.w_o.value).tobytes() == out.rows.tobytes()


def test_multi_head_cache_holds_only_q_k_v():
    # tracemalloc sees numpy's buffers: after forward, the output and the
    # cache may hold Q, K, V and the output rows, but no weight block and
    # no concatenated head outputs (the input rows and spans are the batch's)
    layer, x = multi_head_case()
    layer.forward(x)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out, cache = layer.forward(x)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n, d = x.rows.shape
    # 1 KiB covers the array headers and tuples, a twentieth of one (N, D) array
    assert held <= 4 * n * d * 8 + 1024, held


def additive_case(name):
    """A layer and a batch: a ragged batch, a batch whose long sequence spans
    several tiles, or one where half the attention units saturate."""
    rng = np.random.default_rng(302)
    if name == "ragged":
        return AdditiveSelfAttention(6, rng, attn_dim=4), ragged_batch(rng, 6)
    if name == "tiled":
        return AdditiveSelfAttention(5, rng, attn_dim=32), BatchTensor.from_rows(
            [rng.standard_normal((n, 5)) for n in (150, 7, 61)])
    layer = AdditiveSelfAttention(6, rng, attn_dim=4)
    layer.b_hidden.value[:2] = (25.0, -25.0)
    return layer, BatchTensor.from_rows([0.5 * rng.standard_normal((n, 6)) for n in (9, 4, 1)])


@pytest.mark.parametrize("name", ["ragged", "tiled", "saturated"])
def test_additive_backward_matches_whole_block_oracle(name):
    layer, x = additive_case(name)
    upstream = np.random.default_rng(303).standard_normal(x.rows.shape)
    _, cache = layer.forward(x)
    q, k = cache[3], cache[4]
    if name == "tiled":
        assert layer._rows_per_chunk(150) * 3 <= 150  # at least 3 tiles
    expected = additive_backward_oracle(layer, cache, upstream)
    got = [layer.backward(cache, upstream)] + [p.grad for p in layer.params()]
    for a, b in zip(expected, got, strict=True):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()
    if name == "saturated":
        pre = q[:, None, :2] + k[None, :, :2]  # every pair, across the sequences too
        assert np.abs(pre).min() >= 20.0
        # tanh' is exactly 0 there, so these units' gradients are exactly 0
        for grad in (layer.w_query.grad, layer.w_key.grad, layer.b_hidden.grad):
            assert not grad[..., :2].any()


def test_additive_scores_do_not_depend_on_the_tile_size(monkeypatch):
    rng = np.random.default_rng(304)
    layer = AdditiveSelfAttention(5, rng, attn_dim=32)
    x = BatchTensor.from_rows([rng.standard_normal((n, 5)) for n in (131, 150, 77, 6, 1)])
    tiled = layer.forward(x)[0].rows
    monkeypatch.setattr(AdditiveSelfAttention, "CHUNK_ELEMENTS", 150 * 150 * 32)
    assert layer._rows_per_chunk(150) == 150
    assert layer.forward(x)[0].rows.tobytes() == tiled.tobytes()


def test_additive_scratch_tile_is_at_most_one_mib():
    layer = AdditiveSelfAttention(4, np.random.default_rng(305))
    for n in range(1, 501):
        assert layer._buffer([(0, n), (n, n + 1)]).nbytes <= 1 << 20


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
        err = grad_check(layer, BatchTensor.from_rows([values[0], values[1, :2]]), 1e-3, rng)
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


@pytest.mark.parametrize("name,builder", LAYER_BUILDERS)
def test_input_grad_off_keeps_parameter_gradients(name, builder):
    rng = np.random.default_rng(302)
    layer, width = builder(rng)
    x = ragged_batch(rng, width)
    out, cache = layer.forward(x)
    upstream = rng.standard_normal(out.rows.shape)
    assert layer.backward(cache, upstream) is not None
    full = [p.grad.copy() for p in layer.params()]
    assert layer.backward(cache, upstream, input_grad=False) is None
    for p, expected in zip(layer.params(), full, strict=True):
        assert p.grad.tobytes() == expected.tobytes(), f"{name}: {p.name}"


@pytest.mark.parametrize("name,builder", LAYER_BUILDERS)
def test_second_backward_writes_the_same_gradients(name, builder):
    # backward writes each parameter gradient, so a second pass over the
    # same cache leaves the same bytes
    rng = np.random.default_rng(303)
    layer, width = builder(rng)
    out, cache = layer.forward(ragged_batch(rng, width))
    upstream = rng.standard_normal(out.rows.shape)
    layer.backward(cache, upstream)
    once = [p.grad.copy() for p in layer.params()]
    assert any(g.any() for g in once)
    layer.backward(cache, upstream)
    for p, expected in zip(layer.params(), once, strict=True):
        assert p.grad.tobytes() == expected.tobytes(), f"{name}: {p.name}"
