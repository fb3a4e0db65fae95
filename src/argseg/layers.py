"""Sequence-labeling building blocks with explicit forward/backward passes.

Four layer types: bidirectional LSTM (two LSTM cells), additive
self-attention, scaled dot-product multi-head self-attention, and a
time-distributed linear map.  Each layer owns its
:class:`~argseg.numeric.Parameter` objects, returns an activation cache from
``forward`` and writes every parameter gradient in ``backward``: each
backward sets ``grad`` to the gradient of that pass alone, so no gradient is
ever cleared.  Caches are owned by the caller, so one layer can be checked
or trained without any global tape.  A cache is valid from its forward
until the caller drops it; a layer's ``backward`` only reads it, so one
cache may serve several backwards, but ``Model.backward`` consumes the
caches of a model's forward, and ``Model.logits`` drops each cache as soon
as the next layer has its input.  A model ends in a linear map to
per-token B/I/O logits; the softmax is applied once, inside the loss.

Shape convention: a batch is a :class:`~argseg.numeric.BatchTensor`, its
tokens packed sequence-major into one (N, F) array of rows plus the
sequences' lengths.  Every layer maps (N, F_in) rows to (N, F_out) rows and,
in backward, (N, F_out) gradients to (N, F_in); no layer sees padding.

``backward(cache, grad_out, input_grad=True)``: with ``input_grad=False`` a
layer writes the same parameter gradients, returns ``None`` and skips
the work that only feeds the input gradient.  The BiLSTM skips each
direction's (M, 4H) x (4H, D) GEMM, their sum and the scatter into packed
order; multi-head attention the three (N, D) x (D, D) GEMMs (Q, K and V
gradients are still formed, since the weight gradients need them); additive
attention each sequence's weights-transpose product and the two projection
GEMMs; the linear map its one GEMM.  A model asks this of its first layer
during training, whose input rows are fixed vectors.

LSTM parameters are fused per direction, with gate blocks in the order
i|f|o|g (input, forget and output gates, then the candidate).  The BiLSTM
gathers its inputs into time-major order once, runs its recurrence over the
sequences that have not ended, evaluates all four gates with one tanh, and
writes its output and input gradient back in packed order.

Both attention layers work on the rows directly: their projections run over
all tokens, and each sequence attends over its own block of query x key
pairs.  Each class docstring says what its cache holds.  Both attention
layers have ``blocks(cache)``, which yields the per-sequence weight blocks,
queries by keys, each query row summing to 1: additive attention caches its
blocks, while multi-head attention caches only Q, K and V and builds each
block again.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ContractViolation, DimensionError
from .numeric import BatchTensor, Parameter, glorot_uniform, softmax_rows


class Layer:
    """Minimal layer protocol shared by everything in this module."""

    name: str

    def params(self) -> list[Parameter]:
        raise NotImplementedError

    def forward(self, x: BatchTensor):
        raise NotImplementedError

    def backward(self, cache, grad_out: np.ndarray, input_grad: bool = True):
        """Write every parameter gradient; return d(loss)/d(input rows).

        Each ``grad`` is overwritten with this pass's gradient, so a second
        backward over the same cache leaves the same bytes.  With
        ``input_grad=False`` the parameter gradients are exactly the same,
        the work that only feeds the input gradient is skipped, and the
        result is ``None``.
        """
        raise NotImplementedError

    def _check_input(self, x: BatchTensor, width: int, tokens: bool = False):
        """Raise unless the rows of ``x`` are ``width`` wide and, with
        ``tokens``, every sequence has at least one token."""
        if x.features != width:
            raise DimensionError(f"{self.name}: input has {x.features} features, expected {width}")
        if tokens and not x.lengths.all():
            raise ContractViolation(f"{self.name}: every sequence in the batch needs a token")


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

# Blocks are drawn from the generator in the order i, f, g, o (block indices
# 0, 1, 3, 2), not in their fused order.  The initial values of every seed
# depend on this order, so changing it would change every seeded run.
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
    """Where the recurrence over a batch of the given lengths does work.

    Sequences are ranked by length, longest first, so the sequences still
    running at step t are ranks 0 .. n_t - 1.  The M running (t, rank) pairs
    are exactly the tokens; they are listed time-major, and step t owns
    [starts[t], starts[t + 1]).
    """

    starts: list[int]
    packed: np.ndarray  # packed row of each running position
    step: np.ndarray  # t of each running position
    rank: np.ndarray  # rank of each running position

    @property
    def widest(self) -> int:
        """n_0: the sequences running at step 0, which are all the non-empty ones."""
        return self.starts[1] if len(self.starts) > 1 else 0


def _positions(lengths: np.ndarray) -> _Positions:
    tlen = int(lengths.max())
    order = np.argsort(-lengths, kind="stable")
    running = (lengths[order][None, :] > np.arange(tlen)[:, None]).sum(axis=1)
    starts = np.concatenate([[0], np.cumsum(running)])
    step = np.repeat(np.arange(tlen), running)
    rank = np.arange(starts[-1]) - np.repeat(starts[:-1], running)
    offsets = np.cumsum(lengths) - lengths
    return _Positions(starts.tolist(), offsets[order[rank]] + step, step, rank)


def _state_rows(pos: _Positions, reverse: bool) -> tuple[list[int], list[int]]:
    """Per step t, the first state row entering step t and the first row it writes.

    A direction keeps its hidden and cell states in (M + n_0, H) arrays, a
    step's n_t states in consecutive rows by rank.  Going forward, rows
    0 .. n_0 - 1 hold the zero initial state, step t writes at
    n_0 + starts[t], and the state entering step t is the first n_t rows
    step t - 1 wrote.  In reverse, step t writes at M - starts[t], and the
    state entering it, at M - starts[t + 1], is the n_{t+1} rows step t + 1
    wrote followed by n_t - n_{t+1} rows that stay zero: the initial state
    of the sequences whose last token is t.
    """
    starts = pos.starts
    if reverse:
        return [starts[-1] - s for s in starts[1:]], [starts[-1] - s for s in starts[:-1]]
    written = [pos.widest + s for s in starts[:-1]]
    return [0] + written[:-1], written


def _run_direction(halved, x_run, pos: _Positions, cache, reverse: bool):
    """Forward pass of one direction, time-major, into caller-allocated arrays.

    ``halved`` is the cell's :meth:`LstmCell.halved` parameters and
    ``x_run`` the (M, D) inputs in time-major order.  ``cache`` =
    (acts, hs, cs, tanh_c): acts (M, 4H) receives the gate activations; hs
    and cs (M + n_0, H), zero-filled, the states (see :func:`_state_rows`);
    tanh_c (M, H) tanh(c).
    """
    w, u, b = halved
    acts, hs, cs, tanh_c = cache
    hdim = hs.shape[1]
    sig = 3 * hdim
    np.matmul(x_run, w, out=acts)
    acts += b
    z = np.empty((pos.widest, 4 * hdim))
    ig = np.empty((pos.widest, hdim))
    entering, written = _state_rows(pos, reverse)
    tlen = len(pos.starts) - 1
    for t in (reversed(range(tlen)) if reverse else range(tlen)):
        lo, hi = pos.starts[t], pos.starts[t + 1]
        n = hi - lo
        src, dst = entering[t], written[t]
        a = acts[lo:hi]
        h_prev, c_prev, c = hs[src : src + n], cs[src : src + n], cs[dst : dst + n]
        np.matmul(h_prev, u, out=z[:n])
        a += z[:n]
        np.tanh(a, out=a)
        a[:, :sig] *= 0.5
        a[:, :sig] += 0.5
        np.multiply(a[:, hdim : 2 * hdim], c_prev, out=c)
        np.multiply(a[:, :hdim], a[:, sig:], out=ig[:n])
        c += ig[:n]
        np.tanh(c, out=tanh_c[lo:hi])
        np.multiply(a[:, 2 * hdim : sig], tanh_c[lo:hi], out=hs[dst : dst + n])


def _direction_backward(cell: LstmCell, cache, grad_run, x_run, pos: _Positions, work,
                        reverse: bool):
    """Backward pass of one direction into caller-allocated arrays.

    ``grad_run`` (M, H) is the direction's upstream gradient at the running
    positions.  The parameter gradients are written into ``cell``; ``work`` =
    (d_acts, h_in, dx_run) receives the gate gradients, the states entering
    each step and the input gradient, all at the running positions.  A
    ``dx_run`` of ``None`` skips the input gradient.
    """
    acts, hs, cs, tanh_c = cache
    d_acts, h_in, dx_run = work
    hdim = hs.shape[1]
    sig = 3 * hdim
    u_t = cell.u.value.T
    dh = np.zeros((pos.widest, hdim))
    dc = np.zeros((pos.widest, hdim))
    gh = np.empty((pos.widest, hdim))
    gc = np.empty((pos.widest, hdim))
    dsig = np.empty((pos.widest, sig))
    entering, _ = _state_rows(pos, reverse)
    tlen = len(pos.starts) - 1
    for t in (range(tlen) if reverse else reversed(range(tlen))):
        lo, hi = pos.starts[t], pos.starts[t + 1]
        n = hi - lo
        src = entering[t]
        a, da = acts[lo:hi], d_acts[lo:hi]
        i, f, o, g = (a[:, k * hdim : (k + 1) * hdim] for k in range(4))
        tc = tanh_c[lo:hi]
        dh_n, dc_n, gh_n, gc_n, dsig_n = (m[:n] for m in (dh, dc, gh, gc, dsig))
        np.add(grad_run[lo:hi], dh_n, out=gh_n)  # dL/dh_t
        np.multiply(tc, tc, out=gc_n)
        np.subtract(1.0, gc_n, out=gc_n)
        gc_n *= o
        gc_n *= gh_n
        gc_n += dc_n  # dL/dc_t
        np.multiply(gc_n, g, out=da[:, :hdim])
        np.multiply(gc_n, cs[src : src + n], out=da[:, hdim : 2 * hdim])
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
    np.take(hs, np.take(entering, pos.step) + pos.rank, axis=0, out=h_in, mode="clip")
    np.matmul(x_run.T, d_acts, out=cell.w.grad)
    np.matmul(h_in.T, d_acts, out=cell.u.grad)
    np.sum(d_acts, axis=0, out=cell.b.grad)
    if dx_run is not None:
        np.matmul(d_acts, cell.w.value.T, out=dx_run)


class BiLstm(Layer):
    """Two LSTM directions over the same sequence, outputs concatenated.

    Output features = 2*hidden; the row of token t holds [forward state at
    t, backward state at t].  Both directions run time-major (see
    :class:`_Positions`): forward gathers the input rows into time-major
    order once, the input projection and the input-side gradient GEMMs run
    on that block, and step t works on the sequences that have not yet
    ended.  The two directions run one after the other on the calling
    thread.  The cache is (time-major inputs, positions, per direction (gate
    activations at the tokens, hidden states, cell states, tanh of the cell
    states)).
    """

    def __init__(self, input_dim: int, hidden: int, rng, name: str = "bilstm"):
        self.name = name
        self.input_dim = input_dim
        self.hidden = hidden
        self.fwd = LstmCell(input_dim, hidden, rng, f"{name}.fwd")
        self.bwd = LstmCell(input_dim, hidden, rng, f"{name}.bwd")

    def params(self) -> list[Parameter]:
        return self.fwd.params() + self.bwd.params()

    def forward(self, x: BatchTensor):
        self._check_input(x, self.input_dim)
        h = self.hidden
        pos = _positions(x.lengths)
        n_run = len(pos.packed)
        x_run = np.take(x.rows, pos.packed, axis=0)
        caches = [
            (
                np.empty((n_run, 4 * h)),
                np.zeros((n_run + pos.widest, h)),
                np.zeros((n_run + pos.widest, h)),
                np.empty((n_run, h)),
            )
            for _ in range(2)
        ]
        out = np.empty((n_run, 2 * h))
        directions = zip((self.fwd, self.bwd), caches, (False, True))
        for k, (cell, cache, reverse) in enumerate(directions):
            _run_direction(cell.halved(), x_run, pos, cache, reverse)
            _, written = _state_rows(pos, reverse)
            out[pos.packed, k * h : (k + 1) * h] = cache[1][np.take(written, pos.step) + pos.rank]
        return x.with_rows(out), (x_run, pos, caches)

    def backward(self, cache, grad_out: np.ndarray, input_grad: bool = True):
        x_run, pos, caches = cache
        n_run, dim = x_run.shape
        h = self.hidden
        grad_run = np.take(grad_out, pos.packed, axis=0)
        d_acts, h_in = np.empty((n_run, 4 * h)), np.empty((n_run, h))
        dx_runs = np.empty((2, n_run, dim)) if input_grad else (None, None)
        for k, (cell, reverse) in enumerate(((self.fwd, False), (self.bwd, True))):
            _direction_backward(cell, caches[k], grad_run[:, k * h : (k + 1) * h], x_run, pos,
                                (d_acts, h_in, dx_runs[k]), reverse)
        if not input_grad:
            return None
        dx_run = dx_runs[0]
        dx_run += dx_runs[1]
        dx = np.empty_like(dx_run)
        dx[pos.packed] = dx_run
        return dx


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------


class AdditiveSelfAttention(Layer):
    """Self-attention with a small feed-forward scorer over position pairs.

    score(t, s) = v_a^T tanh(x_t W_t + x_s W_x + b_h), softmax over the
    tokens s, output_t = sum_s alpha(t, s) x_s.  Shape-preserving.
    The score has no output bias: a constant added to every score of a
    softmax row cancels.

    The projections run over all tokens of the batch, and each sequence b
    scores just its own n_b x n_b block of pairs.  The cache is (input rows,
    spans, weights, queries with b_h, keys), where weights holds one
    (n_b, n_b) block per sequence.

    The pairwise activations u = tanh(q_t + k_s) are built one tile of query
    rows at a time, in one scratch buffer (see ``CHUNK_ELEMENTS``).  Backward
    builds them again rather than caching them: a cache would hold
    sum_b n_b^2 * attn_dim floats, over 40 MB for 16 sequences of 77 to 132
    tokens.  Per tile, backward sums d loss / d pre-tanh over keys and over
    queries as two batched matrix products with 1 - u^2.
    """

    # tile size in elements (at least one query row): 1 MiB of float64 stays
    # in L2 and below the 4 MiB at which numpy asks for huge pages
    CHUNK_ELEMENTS = 1 << 17

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
        rows = max(1, self.CHUNK_ELEMENTS // (n * self.attn_dim))
        # tiles of whole groups of 4 pairs where possible: the score GEMV
        # (OpenBLAS) sums 4 output rows at a time, so each score then gets
        # the same bits as in one pass over the whole block
        group = 4 // math.gcd(n, 4)
        return rows - rows % group if rows >= group else rows

    def _buffer(self, spans) -> np.ndarray:
        """One work buffer large enough for any chunk of any sequence."""
        size = max(min(n, self._rows_per_chunk(n)) * n for n in (hi - lo for lo, hi in spans))
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

    def blocks(self, cache):
        """Yield each sequence's (n_b, n_b) weights, as forward cached them."""
        yield from cache[2]

    def forward(self, x: BatchTensor):
        self._check_input(x, self.dim, tokens=True)
        xv = x.rows
        q = xv @ self.w_query.value
        q += self.b_hidden.value
        k = xv @ self.w_key.value
        v_flat = self.v_score.value[:, 0]
        buf = self._buffer(x.spans)

        weights = []
        out = np.empty_like(xv)
        for lo, hi in x.spans:
            scores = np.empty((hi - lo, hi - lo))
            for t0, t1, u in self._tanh_chunks(q[lo:hi], k[lo:hi], buf):
                np.matmul(u.reshape(-1, self.attn_dim), v_flat, out=scores[t0:t1].reshape(-1))
            block = softmax_rows(scores)
            np.matmul(block, xv[lo:hi], out=out[lo:hi])
            weights.append(block)
        return x.with_rows(out), (xv, x.spans, weights, q, k)

    def backward(self, cache, grad_out: np.ndarray, input_grad: bool = True):
        xv, spans, weights, q, k = cache
        v_flat = self.v_score.value[:, 0]
        buf = self._buffer(spans)

        dxv = np.empty_like(xv) if input_grad else None
        dq = np.empty_like(q)
        dk = np.zeros_like(k)
        dv = np.zeros(self.attn_dim)
        for (lo, hi), block in zip(spans, weights):
            g = grad_out[lo:hi]
            if input_grad:
                np.matmul(block.T, g, out=dxv[lo:hi])
            d_alpha = g @ xv[lo:hi].T
            d_alpha -= (block * d_alpha).sum(axis=1, keepdims=True)
            ds = block * d_alpha  # d loss / d score
            for t0, t1, u in self._tanh_chunks(q[lo:hi], k[lo:hi], buf):
                ds_c = ds[t0:t1]
                dv += ds_c.ravel() @ u.reshape(-1, self.attn_dim)
                np.multiply(u, u, out=u)
                np.subtract(1.0, u, out=u)  # tanh' = 1 - u^2
                # d loss / d pre-tanh (less the factor v_a) summed over keys,
                # (t, 1, s) @ (t, s, A), and over queries, (s, 1, t) @ (s, t, A)
                np.matmul(ds_c[:, None, :], u, out=dq[lo + t0 : lo + t1, None, :])
                dk[lo:hi] += np.matmul(ds_c.T[:, None, :], u.transpose(1, 0, 2))[:, 0]
        dq *= v_flat
        dk *= v_flat
        self.v_score.grad[:, 0] = dv
        np.sum(dq, axis=0, out=self.b_hidden.grad)
        np.matmul(xv.T, dq, out=self.w_query.grad)
        np.matmul(xv.T, dk, out=self.w_key.grad)
        if not input_grad:
            return None
        dxv += dq @ self.w_query.value.T
        dxv += dk @ self.w_key.value.T
        return dxv


class MultiHeadSelfAttention(Layer):
    """Scaled dot-product attention over h subspaces of the feature dim.

    Q, K, V are full (d, d) projections split into h slices of width d/h;
    per head softmax(Q K^T / sqrt(d_k)) V over the tokens;
    concatenated heads go through an output projection W_o.  No biases
    anywhere.

    The four projections and their gradient GEMMs run over all tokens of the
    batch, and each sequence b forms just its own (h, n_b, n_b) logits.  The
    cache is (input rows, spans, Q, K, V): no weights and no concatenated
    head outputs.  Each sequence's weight block is a temporary of forward;
    :meth:`blocks` and backward build it again with forward's expression,
    so they see the same bits, and backward rebuilds the head outputs for
    W_o's gradient.  This keeps sum_b h * n_b^2 + N * D floats out of the
    cache, at the price of each block's logits, softmax and head outputs
    once more per batch.
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

    def _block(self, qb: np.ndarray, kb: np.ndarray) -> np.ndarray:
        """The (h, n, n) weights of one sequence from its (h, n, d_k) Q and K."""
        return softmax_rows((qb @ kb.transpose(0, 2, 1)) * (1.0 / np.sqrt(self.head_dim)))

    def blocks(self, cache):
        """Yield each sequence's (h, n_b, n_b) weights, rebuilt from Q and K."""
        _, spans, q, k, _ = cache
        for lo, hi in spans:
            yield self._block(self._heads(q[lo:hi]), self._heads(k[lo:hi]))

    def forward(self, x: BatchTensor):
        self._check_input(x, self.dim, tokens=True)
        xv = x.rows
        q = xv @ self.w_q.value
        k = xv @ self.w_k.value
        v = xv @ self.w_v.value

        ctx = np.empty_like(xv)
        for lo, hi in x.spans:
            qb, kb, vb = (self._heads(m[lo:hi]) for m in (q, k, v))
            self._heads(ctx[lo:hi])[...] = self._block(qb, kb) @ vb
        return x.with_rows(ctx @ self.w_o.value), (xv, x.spans, q, k, v)

    def backward(self, cache, grad_out: np.ndarray, input_grad: bool = True):
        xv, spans, q, k, v = cache
        d_ctx = grad_out @ self.w_o.value.T

        scale = 1.0 / np.sqrt(self.head_dim)
        ctx, dq, dk, dv = (np.empty_like(xv) for _ in range(4))
        for (lo, hi), block in zip(spans, self.blocks(cache)):
            qb, kb, vb, dcb = (self._heads(m[lo:hi]) for m in (q, k, v, d_ctx))
            self._heads(ctx[lo:hi])[...] = block @ vb
            d_alpha = dcb @ vb.transpose(0, 2, 1)
            self._heads(dv[lo:hi])[...] = block.transpose(0, 2, 1) @ dcb
            d_alpha -= (block * d_alpha).sum(axis=2, keepdims=True)
            d_logits = block * d_alpha
            self._heads(dq[lo:hi])[...] = (d_logits @ kb) * scale
            self._heads(dk[lo:hi])[...] = (d_logits.transpose(0, 2, 1) @ qb) * scale

        np.matmul(ctx.T, grad_out, out=self.w_o.grad)
        del ctx  # freed before the input-gradient GEMMs allocate
        np.matmul(xv.T, dq, out=self.w_q.grad)
        np.matmul(xv.T, dk, out=self.w_k.grad)
        np.matmul(xv.T, dv, out=self.w_v.grad)
        if not input_grad:
            return None
        dxv = dq @ self.w_q.value.T
        dxv += dk @ self.w_k.value.T
        dxv += dv @ self.w_v.value.T
        return dxv


HEADS_CAP = 6  # the most attention heads a multi-head layer gets


def choose_heads(dim: int) -> int:
    """Largest head count <= :data:`HEADS_CAP` that divides the feature dimension exactly."""
    if dim < 1:
        raise ConfigurationError(f"need dim >= 1, got {dim}")
    for h in range(min(HEADS_CAP, dim), 0, -1):
        if dim % h == 0:
            return h
    return 1


# ---------------------------------------------------------------------------
# Linear maps
# ---------------------------------------------------------------------------


class TimeDistributedLinear(Layer):
    """Per-token affine map on the rows.  Caches the input rows."""

    def __init__(self, input_dim: int, output_dim: int, rng, name: str = "linear"):
        self.name = name
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.w = Parameter(f"{name}.W", glorot_uniform(rng, input_dim, output_dim))
        self.b = Parameter(f"{name}.b", np.zeros(output_dim))

    def params(self) -> list[Parameter]:
        return [self.w, self.b]

    def forward(self, x: BatchTensor):
        self._check_input(x, self.input_dim)
        out = x.rows @ self.w.value
        out += self.b.value
        return x.with_rows(out), x.rows

    def backward(self, cache, grad_out: np.ndarray, input_grad: bool = True):
        np.matmul(cache.T, grad_out, out=self.w.grad)
        np.sum(grad_out, axis=0, out=self.b.grad)
        return grad_out @ self.w.value.T if input_grad else None
