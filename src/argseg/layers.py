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
caches of a model's forward.  ``infer(x)`` is the inference pass, which
``Model.logits`` calls: the bytes of ``forward(x)[0]`` with no cache kept.
It is ``forward(x)[0]`` itself except for the BiLSTM, whose ``infer``
allocates no training cache at all.  A model ends in a linear map to
per-token B/I/O logits; the softmax is applied once, inside the loss.
A layer computes in its parameters' dtype, float32 or float64, and its input
rows must have that dtype (``Model.forward`` and ``Model.logits`` cast a
batch once, on entry): every buffer, cache and gradient follows it, and no
constant promotes a float32 array to float64.  Forwards allocate in their
input rows' dtype, so that ``grad_check`` can run them on complex rows.

Shape convention: a batch is a :class:`~argseg.numeric.BatchTensor`, its
tokens packed sequence-major into one (N, F) array of rows plus the
sequences' lengths.  Every layer maps (N, F_in) rows to (N, F_out) rows and,
in backward, (N, F_out) gradients to (N, F_in); no layer sees padding.
The input projections ask the batch for its rows times W
(:meth:`~argseg.numeric.BatchTensor.times`, or its factored form
:meth:`~argseg.numeric.BatchTensor.project`): the BiLSTM's W, additive
attention's W_t and W_x and multi-head attention's W_q, W_k and W_v.  A
batch built from word tables carries its distinct rows, and for it only
those are multiplied; multi-head attention keeps Q, K and V as one row per
distinct row.  A layer's output carries none, so only the first layer's
projections use them.  The weight gradients of those projections come from
the transpose twin (:meth:`~argseg.numeric.BatchTensor.t_times`), which for
a batch with distinct rows first sums the gradient's rows per distinct row.
Outputs and gradients with distinct rows agree with the same rows' without
them to rounding.  Such a batch is cached as it is, so the BiLSTM then
gathers no time-major copy of its rows.

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
projects its inputs in time-major order, runs its recurrence over the
sequences that have not ended, evaluates all four gates with one tanh, and
writes its output and input gradient back in packed order.  Its cache holds
what backward reads and nothing it can rebuild with the same bits: not
tanh of the cell states, which backward computes again step by step.

Both attention layers work on the rows directly: their projections run over
all tokens, and each sequence attends over its own block of query x key
pairs.  Each class docstring says what its cache holds.  Both attention
layers have ``blocks(cache)``, which yields the per-sequence weight blocks,
queries by keys, each query row summing to 1: additive attention caches its
blocks, while multi-head attention caches only Q, K and V, per distinct row
where the batch's were projected, and builds each block again.
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

    def infer(self, x: BatchTensor) -> BatchTensor:
        """The output of ``forward`` without keeping its cache."""
        return self.forward(x)[0]

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
        sigmoid(a) = (1 + tanh(a/2)) / 2.  Halving is exact in binary.  The
        scale row has the values' real dtype, so float32 values stay float32.
        """
        scale = np.repeat(np.array([0.5, 1.0], self.w.value.real.dtype),
                          [3 * self.hidden, self.hidden])
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
    wrote followed by n_t - n_{t+1} zero rows: the initial state of the
    sequences whose last token is t.  Every row is written once, by a step
    or as a zero initial state.
    """
    starts = pos.starts
    if reverse:
        return [starts[-1] - s for s in starts[1:]], [starts[-1] - s for s in starts[:-1]]
    written = [pos.widest + s for s in starts[:-1]]
    return [0] + written[:-1], written


def _run_direction(halved, pos: _Positions, acts, states, reverse: bool):
    """Forward pass of one direction, time-major, into caller-allocated arrays.

    ``halved`` is the cell's :meth:`LstmCell.halved` parameters.  acts
    (M, 4H) holds the inputs' projection by the halved W, in time-major
    order, and receives the gate activations.  ``states`` = ((hs, h_rows),
    (cs, c_rows)) holds the hidden and cell states, each with its row maps:
    per step t, the first row entering step t and the first row step t
    writes.  hs is (M + n_0, H) with the rows of :func:`_state_rows`; cs has
    either the same rows, where a backward reads them, or all-zero maps into
    one (n_0, H) block updated in place.  Neither needs initialising: each
    step first zeroes the entering rows of the sequences that start there.
    """
    _, u, b = halved
    (hs, (h_enter, h_write)), (cs, (c_enter, c_write)) = states
    hdim = hs.shape[1]
    sig = 3 * hdim
    # i|f|o become 0.5 tanh + 0.5 (see LstmCell.halved) and g stays tanh, by
    # whole-row operations: x * 1 and x + -0.0 give x back, bit for bit.  The
    # rows have the activations' real dtype: float64 rows would promote float32
    scale, offset = (np.repeat(np.array([0.5, g], acts.real.dtype), [sig, hdim])
                     for g in (1.0, -0.0))
    acts += b
    z = np.empty((pos.widest, 4 * hdim), acts.dtype)
    ig = np.empty((pos.widest, hdim), acts.dtype)
    tanh_c = np.empty((pos.widest, hdim), acts.dtype)
    tlen = len(pos.starts) - 1
    carried = 0  # states that the previous step handed on
    for t in (reversed(range(tlen)) if reverse else range(tlen)):
        lo, hi = pos.starts[t], pos.starts[t + 1]
        n = hi - lo
        h_src, c_src, c_dst = h_enter[t], c_enter[t], c_write[t]
        if n > carried:
            hs[h_src + carried : h_src + n] = 0.0
            cs[c_src + carried : c_src + n] = 0.0
        carried = n
        a = acts[lo:hi]
        c, tc = cs[c_dst : c_dst + n], tanh_c[:n]
        np.matmul(hs[h_src : h_src + n], u, out=z[:n])
        a += z[:n]
        np.tanh(a, out=a)
        a *= scale
        a += offset
        np.multiply(a[:, hdim : 2 * hdim], cs[c_src : c_src + n], out=c)
        np.multiply(a[:, :hdim], a[:, sig:], out=ig[:n])
        c += ig[:n]
        np.tanh(c, out=tc)
        np.multiply(a[:, 2 * hdim : sig], tc, out=hs[h_write[t] : h_write[t] + n])


def _direction_backward(cell: LstmCell, cache, grad_run, pos: _Positions, work, reverse: bool):
    """Backward pass of one direction into caller-allocated arrays.

    ``cache`` = (acts, hs, cs), as :func:`_run_direction` left them with the
    rows of :func:`_state_rows`; each step computes tanh(c_t) again from
    cs, so it gets the forward's bits.  ``grad_run`` (M, H) is the
    direction's upstream gradient at the running positions.  The gradients
    of U and b are written into ``cell``, and the caller forms W's from the
    gate gradients; ``work`` = (d_acts, h_in, dx_run) receives the gate
    gradients, the states entering each step and the input gradient, all at
    the running positions.  A ``dx_run`` of ``None`` skips the input
    gradient.
    """
    acts, hs, cs = cache
    d_acts, h_in, dx_run = work
    hdim = hs.shape[1]
    sig = 3 * hdim
    u_t = cell.u.value.T
    dh, dc = (np.zeros((pos.widest, hdim), acts.dtype) for _ in range(2))
    gh, gc, tanh_c = (np.empty((pos.widest, hdim), acts.dtype) for _ in range(3))
    dsig = np.empty((pos.widest, sig), acts.dtype)
    entering, written = _state_rows(pos, reverse)
    tlen = len(pos.starts) - 1
    for t in (range(tlen) if reverse else reversed(range(tlen))):
        lo, hi = pos.starts[t], pos.starts[t + 1]
        n = hi - lo
        src, dst = entering[t], written[t]
        a, da = acts[lo:hi], d_acts[lo:hi]
        i, f, o, g = (a[:, k * hdim : (k + 1) * hdim] for k in range(4))
        tc = np.tanh(cs[dst : dst + n], out=tanh_c[:n])
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
    # an integer array: indices taken from an empty list would be float
    entering = np.array(entering, dtype=np.intp)
    # mode="clip" writes straight into ``out``; the default buffers it
    np.take(hs, entering[pos.step] + pos.rank, axis=0, out=h_in, mode="clip")
    np.matmul(h_in.T, d_acts, out=cell.u.grad)
    np.sum(d_acts, axis=0, out=cell.b.grad)
    if dx_run is not None:
        np.matmul(d_acts, cell.w.value.T, out=dx_run)


class BiLstm(Layer):
    """Two LSTM directions over the same sequence, outputs concatenated.

    Output features = 2*hidden; the row of token t holds [forward state at
    t, backward state at t].  Both directions run time-major (see
    :class:`_Positions`), and step t works on the sequences that have not
    yet ended.  The input projection comes from :meth:`BatchTensor.times`
    in time-major order: a batch with distinct rows projects only those,
    and otherwise the input rows are gathered into time-major order once
    and projected.  W's gradients come from :meth:`BatchTensor.t_times` on
    the batch in the same order, which sums per distinct row, or else from
    the time-major inputs.  The two directions run one after the other on
    the calling thread, through the same recurrence (:func:`_run_direction`).

    ``forward`` caches (a batch with distinct rows, else the time-major
    inputs; positions; per direction (gate activations
    at the tokens, hidden states, cell states)).  It never holds both, nor
    the rows of a batch without distinct rows, which may be the previous
    layer's output.  Backward computes tanh of each step's cell states
    again.  ``infer`` keeps no
    cache: one activation block and one hidden-state block serve both
    directions, the cell state lives in one (n_0, H) block updated in place,
    and it allocates only these, its output and, for a batch without
    distinct rows, the time-major inputs.  Both give the same output bytes.
    """

    def __init__(self, input_dim: int, hidden: int, rng, name: str = "bilstm"):
        self.name = name
        self.input_dim = input_dim
        self.hidden = hidden
        self.fwd = LstmCell(input_dim, hidden, rng, f"{name}.fwd")
        self.bwd = LstmCell(input_dim, hidden, rng, f"{name}.bwd")

    def params(self) -> list[Parameter]:
        return self.fwd.params() + self.bwd.params()

    def _run(self, x: BatchTensor, keep: bool):
        """(output, time-major inputs, positions, caches); with ``keep`` each
        direction gets arrays of its own, kept as its cache, and without it
        the directions share theirs and ``caches`` is empty.  A batch with
        distinct rows takes no time-major inputs, and they are ``None``."""
        self._check_input(x, self.input_dim)
        h = self.hidden
        pos = _positions(x.lengths)
        n_run = len(pos.packed)
        n_state = n_run + pos.widest
        distinct = x.has_distinct_rows
        x_run = None if distinct else np.take(x.rows, pos.packed, axis=0)
        dtype = x.rows.dtype
        if keep:
            caches = [(np.empty((n_run, 4 * h), dtype), np.empty((n_state, h), dtype),
                       np.empty((n_state, h), dtype)) for _ in range(2)]
            buffers = caches
        else:  # the running sequences' cell states are updated in place
            caches = []
            buffers = [(np.empty((n_run, 4 * h), dtype), np.empty((n_state, h), dtype),
                        np.empty((pos.widest, h), dtype))] * 2
        in_place = ([0] * (len(pos.starts) - 1),) * 2
        out = np.empty((n_run, 2 * h), dtype)
        directions = zip(buffers, (self.fwd, self.bwd), (False, True))
        for k, ((acts, hs, cs), cell, reverse) in enumerate(directions):
            rows = _state_rows(pos, reverse)
            states = ((hs, rows), (cs, rows if keep else in_place))
            halved = cell.halved()
            if distinct:
                x.times(halved[0], pos.packed, out=acts)
            else:
                np.matmul(x_run, halved[0], out=acts)
            _run_direction(halved, pos, acts, states, reverse)
            del halved  # freed before the next direction's copies are made
            # step by step, so no (M, H) gather of the states is allocated
            cols = out[:, k * h : (k + 1) * h]
            for t, dst in enumerate(rows[1]):
                lo, hi = pos.starts[t], pos.starts[t + 1]
                cols[pos.packed[lo:hi]] = hs[dst : dst + hi - lo]
        return x.with_rows(out), x_run, pos, caches

    def forward(self, x: BatchTensor):
        out, x_run, pos, caches = self._run(x, keep=True)
        # the batch itself where it has distinct rows, else the time-major
        # inputs: never both, and never the rows of a batch without
        # distinct rows, so the previous layer's output can be freed
        return out, (x if x_run is None else x_run, pos, caches)

    def infer(self, x: BatchTensor) -> BatchTensor:
        return self._run(x, keep=False)[0]

    def backward(self, cache, grad_out: np.ndarray, input_grad: bool = True):
        inputs, pos, caches = cache
        n_run, h = len(pos.packed), self.hidden
        dtype = caches[0][0].dtype  # the gate activations'
        grad_run = np.take(grad_out, pos.packed, axis=0)
        d_acts, h_in = np.empty((n_run, 4 * h), dtype), np.empty((n_run, h), dtype)
        # both directions' input gradients in one (2, M, D) block; the result
        # is its second half and keeps it alive.  With two separate arrays,
        # glibc's dynamic mmap threshold settled lower, and bl-i's evaluate
        # faulted about 10x as often
        dx_runs = np.empty((2, n_run, self.input_dim), dtype) if input_grad else (None, None)
        for k, (cell, reverse) in enumerate(((self.fwd, False), (self.bwd, True))):
            _direction_backward(cell, caches[k], grad_run[:, k * h : (k + 1) * h], pos,
                                (d_acts, h_in, dx_runs[k]), reverse)
            if isinstance(inputs, BatchTensor):  # its rows, read in time-major order
                inputs.t_times(d_acts, pos.packed, out=cell.w.grad)
            else:
                np.matmul(inputs.T, d_acts, out=cell.w.grad)
        if not input_grad:
            return None
        dx_run, dx = dx_runs
        dx_run += dx
        time_major = np.empty_like(pos.packed)  # the time-major row of each packed row
        time_major[pos.packed] = np.arange(n_run)
        # mode="clip" writes straight into ``out``; the default buffers it
        return np.take(dx_run, time_major, axis=0, out=dx, mode="clip")


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------


class AdditiveSelfAttention(Layer):
    """Self-attention with a small feed-forward scorer over position pairs.

    score(t, s) = v_a^T tanh(x_t W_t + x_s W_x + b_h), softmax over the
    tokens s, output_t = sum_s alpha(t, s) x_s.  Shape-preserving.
    The score has no output bias: a constant added to every score of a
    softmax row cancels.

    The projections come from :meth:`BatchTensor.times` and their weight
    gradients from :meth:`BatchTensor.t_times`; each sequence b scores just
    its own n_b x n_b block of pairs.  The cache is (the batch, weights,
    queries with b_h, keys), where weights holds one (n_b, n_b) block per
    sequence.

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

    def __init__(self, dim: int, rng, attn_dim: int, name: str = "attn"):
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

    def _buffer(self, spans, dtype) -> np.ndarray:
        """One work buffer large enough for any chunk of any sequence."""
        size = max(min(n, self._rows_per_chunk(n)) * n for n in (hi - lo for lo, hi in spans))
        return np.empty(size * self.attn_dim, dtype)

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
        yield from cache[1]

    def forward(self, x: BatchTensor):
        self._check_input(x, self.dim, tokens=True)
        xv = x.rows
        q = x.times(self.w_query.value)
        q += self.b_hidden.value
        k = x.times(self.w_key.value)
        v_flat = self.v_score.value[:, 0]
        buf = self._buffer(x.spans, xv.dtype)

        weights = []
        out = np.empty_like(xv)
        for lo, hi in x.spans:
            scores = np.empty((hi - lo, hi - lo), xv.dtype)
            for t0, t1, u in self._tanh_chunks(q[lo:hi], k[lo:hi], buf):
                np.matmul(u.reshape(-1, self.attn_dim), v_flat, out=scores[t0:t1].reshape(-1))
            block = softmax_rows(scores)
            np.matmul(block, xv[lo:hi], out=out[lo:hi])
            weights.append(block)
        return x.with_rows(out), (x, weights, q, k)

    def backward(self, cache, grad_out: np.ndarray, input_grad: bool = True):
        x, weights, q, k = cache
        xv, spans = x.rows, x.spans
        v_flat = self.v_score.value[:, 0]
        buf = self._buffer(spans, xv.dtype)

        dxv = np.empty_like(xv) if input_grad else None
        dq = np.empty_like(q)
        dk = np.zeros_like(k)
        dv = np.zeros(self.attn_dim, q.dtype)
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
        x.t_times(dq, out=self.w_query.grad)
        x.t_times(dk, out=self.w_key.grad)
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

    Q, K and V come from :meth:`BatchTensor.project` in factored form, a
    table and ids: for a batch with distinct rows, a (U, D) table of their
    rows and each token's row in it, and otherwise the (N, D) product and no
    ids.  Each sequence takes its Q, K and V rows from the tables, by its
    ids or as a slice.  W_q's, W_k's and W_v's gradients come from
    :meth:`BatchTensor.t_times`, which sums per distinct row.  W_o and the
    other gradient GEMMs run over all tokens of the batch, and each
    sequence b forms just its own (h, n_b, n_b) logits.  The cache is (the
    batch, ids, Q, K, V), with Q, K and V as tables: no weights, no
    concatenated head outputs, and for a para300 batch (49 distinct words)
    no per-token Q, K or V.  Each sequence's weight block is a temporary of
    forward; :meth:`blocks` and backward build it again with forward's
    expression, so they see the same bits, and backward rebuilds the head
    outputs for W_o's gradient.  This keeps sum_b h * n_b^2 + N * D floats
    out of the cache, at the price of each block's logits, softmax and head
    outputs once more per batch.
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
        # a Python float: an np.float64 scale would promote float32 logits to float64
        self.scale = 1.0 / math.sqrt(self.head_dim)
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
        return softmax_rows((qb @ kb.transpose(0, 2, 1)) * self.scale)

    def _sequence(self, table: np.ndarray, ids, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi of a projection in factored form (see
        :meth:`BatchTensor.project`) as an (h, n, d_k) view."""
        return self._heads(table[lo:hi] if ids is None else table[ids[lo:hi]])

    def blocks(self, cache):
        """Yield each sequence's (h, n_b, n_b) weights, rebuilt from Q and K."""
        x, ids, q, k, _ = cache
        for lo, hi in x.spans:
            yield self._block(self._sequence(q, ids, lo, hi), self._sequence(k, ids, lo, hi))

    def forward(self, x: BatchTensor):
        self._check_input(x, self.dim, tokens=True)
        # W_q, W_k and W_v are equally deep, so the three share their ids
        (q, ids), (k, _), (v, _) = (x.project(w.value) for w in (self.w_q, self.w_k, self.w_v))

        ctx = np.empty_like(x.rows)
        for lo, hi in x.spans:
            qb, kb, vb = (self._sequence(m, ids, lo, hi) for m in (q, k, v))
            self._heads(ctx[lo:hi])[...] = self._block(qb, kb) @ vb
        return x.with_rows(ctx @ self.w_o.value), (x, ids, q, k, v)

    def backward(self, cache, grad_out: np.ndarray, input_grad: bool = True):
        x, ids, q, k, v = cache
        d_ctx = grad_out @ self.w_o.value.T

        ctx, dq, dk, dv = (np.empty_like(x.rows) for _ in range(4))
        for lo, hi in x.spans:
            qb, kb, vb = (self._sequence(m, ids, lo, hi) for m in (q, k, v))
            dcb = self._heads(d_ctx[lo:hi])
            block = self._block(qb, kb)
            self._heads(ctx[lo:hi])[...] = block @ vb
            d_alpha = dcb @ vb.transpose(0, 2, 1)
            self._heads(dv[lo:hi])[...] = block.transpose(0, 2, 1) @ dcb
            d_alpha -= (block * d_alpha).sum(axis=2, keepdims=True)
            d_logits = block * d_alpha
            self._heads(dq[lo:hi])[...] = (d_logits @ kb) * self.scale
            self._heads(dk[lo:hi])[...] = (d_logits.transpose(0, 2, 1) @ qb) * self.scale

        np.matmul(ctx.T, grad_out, out=self.w_o.grad)
        del ctx  # freed before the input-gradient GEMMs allocate
        x.t_times(dq, out=self.w_q.grad)
        x.t_times(dk, out=self.w_k.grad)
        x.t_times(dv, out=self.w_v.grad)
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
