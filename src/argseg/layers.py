"""Sequence-labeling building blocks with explicit forward/backward passes.

Four layer types: bidirectional LSTM (two LSTM cells), additive
self-attention, scaled dot-product multi-head self-attention, and a
time-distributed linear map.  Each layer owns its
:class:`~argseg.numeric.Parameter` objects, returns an activation cache from
``forward`` and accumulates parameter gradients in ``backward``.  Caches are
owned by the caller, so one layer can be checked or trained without any
global tape.  A model ends in a linear map to per-token B/I/O logits; the
softmax is applied once, inside the loss.

Shape convention: batches are (B, T, F) with a (B, T) mask, and padding only
ends a row (:class:`~argseg.numeric.BatchTensor` enforces it), so a row of n
tokens holds them at positions 0 .. n-1.  Padded positions hold zero vectors,
produce zero outputs and receive zero gradient.

LSTM parameters are fused per direction, with gate blocks in the order
i|f|o|g (input, forget and output gates, then the candidate).  The BiLSTM
runs its recurrence time-major over the rows that have not ended and
evaluates all four gates with one tanh.

Both attention layers work on tokens only: their projections run over the
tokens of the batch, and each sequence attends over its own block of
query x key pairs, so padding adds nothing to their cost.  Each class
docstring says what its cache holds; in both attention caches ``cache[2]`` is
the list of per-sequence weight blocks, queries by keys, each query row
summing to 1, with no row or column for padding.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ContractViolation, DimensionError
from .numeric import BatchTensor, Parameter, glorot_uniform, softmax_rows


class Layer:
    """Minimal layer protocol shared by everything in this module."""

    name: str

    def params(self) -> list[Parameter]:
        raise NotImplementedError

    def zero_grads(self):
        for p in self.params():
            p.zero_grad()

    def forward(self, x: BatchTensor):
        raise NotImplementedError

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

# Blocks are drawn from the generator in the order i, f, g, o (block indices
# 0, 1, 3, 2), so a seed gives the same numbers as the per-gate parameters
# of checkpoint format 1.
_DRAW_ORDER = (0, 1, 3, 2)


class LstmCell:
    """One LSTM direction with fused gate parameters.

    ``W`` (input_dim, 4*hidden), ``U`` (hidden, 4*hidden) and ``b``
    (4*hidden,) each hold four column blocks in the order i|f|o|g: the input,
    forget and output gates (sigmoid), then the candidate g (tanh).  For
    a = x W + h_prev U + b split into those blocks,
    c_t = f*c_prev + i*g and h_t = o*tanh(c_t).  The forget-gate bias starts
    at 1.0 so memory is initially carried.
    """

    def __init__(self, input_dim: int, hidden: int, rng, name: str = "lstm"):
        self.name = name
        self.input_dim = input_dim
        self.hidden = hidden
        w = np.empty((input_dim, 4 * hidden))
        u = np.empty((hidden, 4 * hidden))
        for fused, fan_in in ((w, input_dim), (u, hidden)):
            for k in _DRAW_ORDER:
                fused[:, k * hidden : (k + 1) * hidden] = glorot_uniform(rng, fan_in, hidden)
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = 1.0
        self.w = Parameter(f"{name}.W", w)
        self.u = Parameter(f"{name}.U", u)
        self.b = Parameter(f"{name}.b", b)

    def params(self) -> list[Parameter]:
        return [self.w, self.u, self.b]

    def halved(self) -> list[np.ndarray]:
        """Copies of W, U and b with the sigmoid columns (i|f|o) halved.

        One tanh over pre-activations built from them gives every gate, since
        sigmoid(a) = (1 + tanh(a/2)) / 2.  Halving is exact in binary.
        """
        scale = np.repeat([0.5, 1.0], [3 * self.hidden, self.hidden])
        return [p.value * scale for p in self.params()]


class _Positions(NamedTuple):
    """Where the recurrence over a (B, T) mask does work.

    Rows are ranked by length, longest first, so the rows still running at
    step t are ranks 0 .. n_t - 1.  Padding only ends a row, so the M running
    (t, rank) pairs are exactly the tokens; they are listed time-major, and
    step t owns [starts[t], starts[t + 1]).
    """

    starts: list[int]
    bt: np.ndarray  # flat b*T + t of each running position, into (B, T, .) arrays
    tr: np.ndarray  # flat t*B + rank of each running position, into (T, B, .) arrays


def _positions(mask: np.ndarray) -> _Positions:
    bsz, tlen = mask.shape
    lengths = mask.sum(axis=1)
    order = np.argsort(-lengths, kind="stable")
    running = (lengths[order][None, :] > np.arange(tlen)[:, None]).sum(axis=1)
    starts = np.concatenate([[0], np.cumsum(running)])
    t_run = np.repeat(np.arange(tlen), running)
    rank = np.arange(starts[-1]) - np.repeat(starts[:-1], running)
    return _Positions(
        starts=starts.tolist(),
        bt=order[rank] * tlen + t_run,
        tr=t_run * bsz + rank,
    )


def _steps(tlen: int, reverse: bool) -> list[tuple[int, int, int]]:
    """(t, slot of the state entering step t, slot step t writes), in order.

    States live in (T+1, B, H) buffers indexed by rank; the zero initial
    state is slot 0 going forward and slot T going in reverse.
    """
    if reverse:
        return [(t, t + 1, t) for t in range(tlen - 1, -1, -1)]
    return [(t, t, t + 1) for t in range(tlen)]


def _run_direction(halved, x_run, pos: _Positions, cache, reverse: bool):
    """Forward pass of one direction, time-major, into caller-allocated arrays.

    ``halved`` is the cell's :meth:`LstmCell.halved` parameters and
    ``x_run`` the (M, D) inputs at the running positions.  ``cache`` =
    (acts, hs, cs, tanh_c): acts (M, 4H) receives the gate activations; hs
    and cs (T+1, B, H) the states; tanh_c (T, B, H) tanh(c).
    """
    w, u, b = halved
    acts, hs, cs, tanh_c = cache
    bsz, hdim = hs.shape[1:]
    sig = 3 * hdim
    np.matmul(x_run, w, out=acts)
    acts += b
    z = np.empty((bsz, 4 * hdim))
    ig = np.empty((bsz, hdim))
    for t, prev, new in _steps(len(pos.starts) - 1, reverse):
        lo, hi = pos.starts[t], pos.starts[t + 1]
        n = hi - lo
        a = acts[lo:hi]
        h_prev, c_prev, c = hs[prev, :n], cs[prev, :n], cs[new, :n]
        np.matmul(h_prev, u, out=z[:n])
        a += z[:n]
        np.tanh(a, out=a)
        a[:, :sig] *= 0.5
        a[:, :sig] += 0.5
        np.multiply(a[:, hdim : 2 * hdim], c_prev, out=c)
        np.multiply(a[:, :hdim], a[:, sig:], out=ig[:n])
        c += ig[:n]
        np.tanh(c, out=tanh_c[t, :n])
        np.multiply(a[:, 2 * hdim : sig], tanh_c[t, :n], out=hs[new, :n])


def _direction_backward(cell: LstmCell, cache, grad_run, x_run, pos: _Positions, work,
                        reverse: bool):
    """Backward pass of one direction into caller-allocated arrays.

    ``grad_run`` (M, H) is the direction's upstream gradient at the running
    positions.  Parameter gradients accumulate into ``cell``; ``work`` =
    (d_acts, h_in, dx_run, dw, du) receives the gate gradients, the states
    entering each step and the input gradient, all at the running positions,
    and the two weight-gradient products before they are accumulated.
    """
    acts, hs, cs, tanh_c = cache
    d_acts, h_in, dx_run, dw, du = work
    bsz, hdim = hs.shape[1:]
    sig = 3 * hdim
    u_t = cell.u.value.T
    dh = np.zeros((bsz, hdim))
    dc = np.zeros((bsz, hdim))
    gh = np.empty((bsz, hdim))
    gc = np.empty((bsz, hdim))
    dsig = np.empty((bsz, sig))
    for t, prev, _ in reversed(_steps(len(pos.starts) - 1, reverse)):
        lo, hi = pos.starts[t], pos.starts[t + 1]
        n = hi - lo
        a, da = acts[lo:hi], d_acts[lo:hi]
        i, f, o, g = (a[:, k * hdim : (k + 1) * hdim] for k in range(4))
        tc = tanh_c[t, :n]
        dh_n, dc_n, gh_n, gc_n, dsig_n = (m[:n] for m in (dh, dc, gh, gc, dsig))
        np.add(grad_run[lo:hi], dh_n, out=gh_n)  # dL/dh_t
        np.multiply(tc, tc, out=gc_n)
        np.subtract(1.0, gc_n, out=gc_n)
        gc_n *= o
        gc_n *= gh_n
        gc_n += dc_n  # dL/dc_t
        np.multiply(gc_n, g, out=da[:, :hdim])
        np.multiply(gc_n, cs[prev, :n], out=da[:, hdim : 2 * hdim])
        np.multiply(gh_n, tc, out=da[:, 2 * hdim : sig])
        np.subtract(1.0, a[:, :sig], out=dsig_n)
        dsig_n *= a[:, :sig]
        da[:, :sig] *= dsig_n
        dg = da[:, sig:]
        np.multiply(g, g, out=dg)
        np.subtract(1.0, dg, out=dg)
        dg *= i
        dg *= gc_n
        np.matmul(da, u_t, out=dh_n)
        np.multiply(gc_n, f, out=dc_n)
    # mode="clip" writes straight into ``out``; the default buffers it
    np.take(hs.reshape(-1, hdim), pos.tr + bsz if reverse else pos.tr, axis=0,
            out=h_in, mode="clip")
    np.matmul(x_run.T, d_acts, out=dw)
    cell.w.grad += dw
    np.matmul(h_in.T, d_acts, out=du)
    cell.u.grad += du
    cell.b.grad += d_acts.sum(axis=0)
    np.matmul(d_acts, cell.w.value.T, out=dx_run)


class BiLstm(Layer):
    """Two LSTM directions over the same sequence, outputs concatenated.

    Output features = 2*hidden; position t holds [forward state at t,
    backward state at t].  Both directions run time-major over the running
    positions only (see :class:`_Positions`): the input projection and the
    input-side gradient GEMMs cover the tokens, gathered once per call, and
    step t works on the rows that have not yet ended.  The two directions
    run one after the other on the calling thread.  The cache is (inputs,
    positions, per direction (gate activations at the tokens, hidden
    states, cell states, tanh of the cell states)).
    """

    def __init__(self, input_dim: int, hidden: int, rng, name: str = "bilstm"):
        self.name = name
        self.input_dim = input_dim
        self.hidden = hidden
        self.fwd = LstmCell(input_dim, hidden, rng, f"{name}.fwd")
        self.bwd = LstmCell(input_dim, hidden, rng, f"{name}.bwd")

    @property
    def output_dim(self) -> int:
        return 2 * self.hidden

    def params(self) -> list[Parameter]:
        return self.fwd.params() + self.bwd.params()

    def forward(self, x: BatchTensor):
        if x.features != self.input_dim:
            raise DimensionError(
                f"{self.name}: input has {x.features} features, expected {self.input_dim}"
            )
        bsz, tlen, _ = x.values.shape
        h = self.hidden
        pos = _positions(x.mask)
        x_run = np.take(x.values.reshape(-1, x.features), pos.bt, axis=0)
        caches = [
            (
                np.empty((len(pos.bt), 4 * h)),
                np.zeros((tlen + 1, bsz, h)),
                np.zeros((tlen + 1, bsz, h)),
                np.empty((tlen, bsz, h)),
            )
            for _ in range(2)
        ]
        for cell, cache, reverse in zip((self.fwd, self.bwd), caches, (False, True)):
            _run_direction(cell.halved(), x_run, pos, cache, reverse)
        # each direction emits the state written at step t: slot t+1 going
        # forward, slot t in reverse; padded positions stay zero
        out = np.zeros((bsz, tlen, 2 * h))
        for k, (cache, slots) in enumerate(zip(caches, (pos.tr + bsz, pos.tr))):
            out.reshape(-1, 2 * h)[pos.bt, k * h : (k + 1) * h] = cache[1].reshape(-1, h)[slots]
        return x.with_values(out), (x.values, pos, caches)

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        values, pos, caches = cache
        dim = values.shape[2]
        h = self.hidden
        n_run = len(pos.bt)
        x_run = np.take(values.reshape(-1, dim), pos.bt, axis=0)
        grad_run = np.take(grad_out.reshape(-1, 2 * h), pos.bt, axis=0)
        d_acts, h_in = np.empty((n_run, 4 * h)), np.empty((n_run, h))
        dw, du = np.empty((dim, 4 * h)), np.empty((h, 4 * h))
        dx_runs = np.empty((2, n_run, dim))
        for k, (cell, reverse) in enumerate(((self.fwd, False), (self.bwd, True))):
            _direction_backward(cell, caches[k], grad_run[:, k * h : (k + 1) * h], x_run, pos,
                                (d_acts, h_in, dx_runs[k], dw, du), reverse)
        dx_run = dx_runs[0]
        dx_run += dx_runs[1]
        dx = np.zeros_like(values)
        dx.reshape(-1, dim)[pos.bt] = dx_run
        return dx


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------


class _Tokens(NamedTuple):
    """The tokens of a (B, T) mask, gathered row by row.

    Padding only ends a row, so sequence b owns gathered rows [lo_b, hi_b)
    and sits at positions 0 .. hi_b - lo_b - 1 of its row.
    """

    sel: np.ndarray  # flat b*T + t of each token, into (B, T, .) arrays
    spans: list[tuple[int, int]]  # (lo_b, hi_b) per sequence


def _tokens(mask: np.ndarray, name: str) -> _Tokens:
    lengths = mask.sum(axis=1)
    if not lengths.all():
        raise ContractViolation(f"{name}: every sequence in the batch needs at least one token")
    ends = np.cumsum(lengths).tolist()
    return _Tokens(np.flatnonzero(mask.ravel()), list(zip([0] + ends[:-1], ends)))


def _scatter(rows: np.ndarray, tokens: _Tokens, shape) -> np.ndarray:
    """(B, T, F) zeros with the tokens' rows filled in."""
    out = np.zeros(shape)
    out.reshape(-1, shape[2])[tokens.sel] = rows
    return out


class AdditiveSelfAttention(Layer):
    """Self-attention with a small feed-forward scorer over position pairs.

    score(t, s) = v_a^T tanh(x_t W_t + x_s W_x + b_h), softmax over the
    tokens s, output_t = sum_s alpha(t, s) x_s.  Shape-preserving.
    The score has no output bias: a constant added to every score of a
    softmax row cancels.

    Only tokens are computed on: the projections run over the tokens of the
    batch, and each sequence b scores just its own n_b x n_b block of pairs.
    The cache is (token rows, spans, weights, queries with b_h, keys), where
    weights holds one (n_b, n_b) block per sequence.
    """

    # pairwise tanh activations are O(sum_b n_b^2 * attn_dim); recomputed in
    # backward instead of cached, and built in chunks of query rows of about
    # this many elements (at least one row), to bound memory
    CHUNK_ELEMENTS = 4_000_000

    def __init__(self, dim: int, rng, attn_dim: int = 32, name: str = "attn"):
        if attn_dim < 1:
            raise ConfigurationError(f"{name}: attention width must be >= 1")
        self.name = name
        self.dim = dim
        self.attn_dim = attn_dim
        self.w_query = Parameter(f"{name}.W_t", glorot_uniform(rng, dim, attn_dim))
        self.w_key = Parameter(f"{name}.W_x", glorot_uniform(rng, dim, attn_dim))
        self.b_hidden = Parameter(f"{name}.b_h", np.zeros(attn_dim))
        self.v_score = Parameter(f"{name}.v_a", glorot_uniform(rng, attn_dim, 1))

    def params(self) -> list[Parameter]:
        return [self.w_query, self.w_key, self.b_hidden, self.v_score]

    def _rows_per_chunk(self, n: int) -> int:
        return max(1, self.CHUNK_ELEMENTS // (n * self.attn_dim))

    def _buffer(self, tokens: _Tokens) -> np.ndarray:
        """One work buffer large enough for any chunk of any sequence."""
        size = max(min(n, self._rows_per_chunk(n)) * n
                   for n in (hi - lo for lo, hi in tokens.spans))
        return np.empty(size * self.attn_dim)

    def _tanh_chunks(self, q: np.ndarray, k: np.ndarray, buf: np.ndarray):
        """Yield (t0, t1, u) with u = tanh(q_t + k_s) for query rows t0:t1.

        q already holds b_h.  u (t1 - t0, n, A) lives in ``buf`` and is
        overwritten by the next chunk.
        """
        n, a = k.shape
        step = self._rows_per_chunk(n)
        for t0 in range(0, n, step):
            t1 = min(n, t0 + step)
            u = buf[: (t1 - t0) * n * a].reshape(t1 - t0, n, a)
            np.add(q[t0:t1, None, :], k[None, :, :], out=u)
            np.tanh(u, out=u)
            yield t0, t1, u

    def forward(self, x: BatchTensor):
        if x.features != self.dim:
            raise DimensionError(
                f"{self.name}: input has {x.features} features, expected {self.dim}"
            )
        tokens = _tokens(x.mask, self.name)
        xv = x.values.reshape(-1, self.dim)[tokens.sel]  # (N, D)
        q = xv @ self.w_query.value
        q += self.b_hidden.value
        k = xv @ self.w_key.value
        v_flat = self.v_score.value[:, 0]
        buf = self._buffer(tokens)

        weights = []
        out = np.empty_like(xv)
        for lo, hi in tokens.spans:
            scores = np.empty((hi - lo, hi - lo))
            for t0, t1, u in self._tanh_chunks(q[lo:hi], k[lo:hi], buf):
                np.matmul(u.reshape(-1, self.attn_dim), v_flat, out=scores[t0:t1].reshape(-1))
            block = softmax_rows(scores)
            np.matmul(block, xv[lo:hi], out=out[lo:hi])
            weights.append(block)
        cache = (xv, tokens, weights, q, k)
        return x.with_values(_scatter(out, tokens, x.values.shape)), cache

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        xv, tokens, weights, q, k = cache
        go = grad_out.reshape(-1, self.dim)[tokens.sel]
        v_flat = self.v_score.value[:, 0]
        buf = self._buffer(tokens)

        dxv = np.empty_like(xv)
        dq = np.empty_like(q)
        dk = np.zeros_like(k)
        dv = np.zeros(self.attn_dim)
        for (lo, hi), block in zip(tokens.spans, weights):
            g = go[lo:hi]
            np.matmul(block.T, g, out=dxv[lo:hi])
            d_alpha = g @ xv[lo:hi].T
            d_alpha -= (block * d_alpha).sum(axis=1, keepdims=True)
            ds = block * d_alpha  # d loss / d score
            for t0, t1, u in self._tanh_chunks(q[lo:hi], k[lo:hi], buf):
                dv += ds[t0:t1].ravel() @ u.reshape(-1, self.attn_dim)
                np.multiply(u, u, out=u)
                np.subtract(1.0, u, out=u)
                u *= ds[t0:t1, :, None]  # d loss / d pre-tanh, less the factor v_a
                u.sum(axis=1, out=dq[lo + t0 : lo + t1])
                dk[lo:hi] += u.sum(axis=0)
        dq *= v_flat
        dk *= v_flat
        self.v_score.grad[:, 0] += dv
        self.b_hidden.grad += dq.sum(axis=0)
        self.w_query.grad += xv.T @ dq
        self.w_key.grad += xv.T @ dk
        dxv += dq @ self.w_query.value.T
        dxv += dk @ self.w_key.value.T
        return _scatter(dxv, tokens, grad_out.shape)


class MultiHeadSelfAttention(Layer):
    """Scaled dot-product attention over h subspaces of the feature dim.

    Q, K, V are full (d, d) projections split into h slices of width d/h;
    per head softmax(Q K^T / sqrt(d_k)) V over the tokens;
    concatenated heads go through an output projection W_o.  No biases
    anywhere.

    Only tokens are computed on: the four projections and their gradient
    GEMMs run over the tokens of the batch, and each sequence b forms just
    its own (h, n_b, n_b) logits.  The cache is (token rows, spans, weights,
    Q, K, V, context), where weights holds one (h, n_b, n_b) block per
    sequence.
    """

    def __init__(self, dim: int, heads: int, rng, name: str = "mha"):
        if heads < 1 or dim % heads != 0:
            raise ConfigurationError(
                f"{name}: {heads} heads do not divide feature dim {dim} "
                f"(divisors: {[k for k in range(1, min(dim, 16) + 1) if dim % k == 0]})"
            )
        self.name = name
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.w_q = Parameter(f"{name}.W_q", glorot_uniform(rng, dim, dim))
        self.w_k = Parameter(f"{name}.W_k", glorot_uniform(rng, dim, dim))
        self.w_v = Parameter(f"{name}.W_v", glorot_uniform(rng, dim, dim))
        self.w_o = Parameter(f"{name}.W_o", glorot_uniform(rng, dim, dim))

    def params(self) -> list[Parameter]:
        return [self.w_q, self.w_k, self.w_v, self.w_o]

    def _heads(self, m: np.ndarray) -> np.ndarray:
        """(n, D) rows of one sequence as an (h, n, d_k) view."""
        return m.reshape(len(m), self.heads, self.head_dim).transpose(1, 0, 2)

    def forward(self, x: BatchTensor):
        if x.features != self.dim:
            raise DimensionError(
                f"{self.name}: input has {x.features} features, expected {self.dim}"
            )
        tokens = _tokens(x.mask, self.name)
        xv = x.values.reshape(-1, self.dim)[tokens.sel]  # (N, D)
        q = xv @ self.w_q.value
        k = xv @ self.w_k.value
        v = xv @ self.w_v.value

        scale = 1.0 / np.sqrt(self.head_dim)
        weights = []
        ctx = np.empty_like(xv)
        for lo, hi in tokens.spans:
            qb, kb, vb = (self._heads(m[lo:hi]) for m in (q, k, v))
            block = softmax_rows((qb @ kb.transpose(0, 2, 1)) * scale)
            self._heads(ctx[lo:hi])[...] = block @ vb
            weights.append(block)
        out = ctx @ self.w_o.value
        cache = (xv, tokens, weights, q, k, v, ctx)
        return x.with_values(_scatter(out, tokens, x.values.shape)), cache

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        xv, tokens, weights, q, k, v, ctx = cache
        go = grad_out.reshape(-1, self.dim)[tokens.sel]
        self.w_o.grad += ctx.T @ go
        d_ctx = go @ self.w_o.value.T

        scale = 1.0 / np.sqrt(self.head_dim)
        dq, dk, dv = (np.empty_like(xv) for _ in range(3))
        for (lo, hi), block in zip(tokens.spans, weights):
            qb, kb, vb, dcb = (self._heads(m[lo:hi]) for m in (q, k, v, d_ctx))
            d_alpha = dcb @ vb.transpose(0, 2, 1)
            self._heads(dv[lo:hi])[...] = block.transpose(0, 2, 1) @ dcb
            d_alpha -= (block * d_alpha).sum(axis=2, keepdims=True)
            d_logits = block * d_alpha
            self._heads(dq[lo:hi])[...] = (d_logits @ kb) * scale
            self._heads(dk[lo:hi])[...] = (d_logits.transpose(0, 2, 1) @ qb) * scale

        self.w_q.grad += xv.T @ dq
        self.w_k.grad += xv.T @ dk
        self.w_v.grad += xv.T @ dv
        dxv = dq @ self.w_q.value.T
        dxv += dk @ self.w_k.value.T
        dxv += dv @ self.w_v.value.T
        return _scatter(dxv, tokens, grad_out.shape)


def choose_heads(dim: int, cap: int = 6) -> int:
    """Largest head count <= cap that divides the feature dimension exactly."""
    if dim < 1 or cap < 1:
        raise ConfigurationError(f"need dim >= 1 and cap >= 1, got {dim}, {cap}")
    for h in range(min(cap, dim), 0, -1):
        if dim % h == 0:
            return h
    return 1


# ---------------------------------------------------------------------------
# Linear maps
# ---------------------------------------------------------------------------


class TimeDistributedLinear(Layer):
    """Per-position affine map; padded positions stay zero.  Caches (inputs, mask)."""

    def __init__(self, input_dim: int, output_dim: int, rng, name: str = "linear"):
        self.name = name
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.w = Parameter(f"{name}.W", glorot_uniform(rng, input_dim, output_dim))
        self.b = Parameter(f"{name}.b", np.zeros(output_dim))

    def params(self) -> list[Parameter]:
        return [self.w, self.b]

    def forward(self, x: BatchTensor):
        if x.features != self.input_dim:
            raise DimensionError(
                f"{self.name}: input has {x.features} features, expected {self.input_dim}"
            )
        out = (x.values @ self.w.value + self.b.value) * x.float_mask()
        return x.with_values(out), (x.values, x.mask)

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        vals, mask = cache
        grad_out = grad_out * mask[:, :, None]
        bsz, tlen, _ = vals.shape
        flat_x = vals.reshape(bsz * tlen, -1)
        flat_g = grad_out.reshape(bsz * tlen, -1)
        self.w.grad += flat_x.T @ flat_g
        self.b.grad += flat_g.sum(axis=0)
        return grad_out @ self.w.value.T
