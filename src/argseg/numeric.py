"""Numeric core: stable softmax, parameters, packed batches, and gradient checks.

Everything downstream (layers, models, training) is built on the primitives
here.  Parameters, batches and gradients are float32 or float64, all of one
dtype within a model: :func:`as_array` keeps float32 and makes everything
else float64, so models are built in float64 and ``train`` casts them to its
run's dtype (float32 by default).  Only ``grad_check`` runs forwards on
complex copies.  A :class:`BatchTensor` holds only tokens:
one (N, F) array of rows, sequence after sequence, plus each sequence's
length, and, for a batch built from word tables, its distinct rows with the
index of each token's row among them.  :meth:`BatchTensor.project` gives
the rows times a weight in factored form, a table and each token's row in
it: with distinct rows the table is their product, and otherwise the
product itself.  :meth:`BatchTensor.times` takes the table's rows for the
tokens.  These are the first layer's projections, multi-head attention's
ones included; multi-head attention keeps the tables.  Its transpose twin
:meth:`BatchTensor.t_times` gives those projections' weight gradients; with
distinct rows it sums the gradient's rows per distinct row first.  Products
and gradients with distinct rows agree with the same rows' without them to
rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, DimensionError, NumericError


def as_array(values) -> np.ndarray:
    """``values`` as a contiguous float array: float32 stays float32, and
    anything else becomes float64."""
    dtype = np.float32 if getattr(values, "dtype", None) == np.float32 else np.float64
    return np.ascontiguousarray(values, dtype=dtype)


# ---------------------------------------------------------------------------
# Softmax
# ---------------------------------------------------------------------------


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed with max-subtraction for stability.

    Every output row is non-negative and sums to 1 for any finite input.
    """
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Parameters and batched tensors
# ---------------------------------------------------------------------------


@dataclass
class Parameter:
    """A named weight array paired with its gradient.

    ``grad`` is allocated once, as zeros of the value's shape.  The owning
    layer's backward overwrites it with the gradient of that pass, and the
    optimizer reads it; nothing adds to it.
    """

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.value = as_array(self.value)
        self.grad = np.zeros_like(self.value)


class BatchTensor:
    """A batch of sequences packed sequence-major: rows (N, F) plus lengths (B,).

    ``rows`` holds the tokens of sequence 0, then those of sequence 1, and so
    on; sequence b owns rows ``spans[b] = (lo, hi)`` with hi - lo =
    ``lengths[b]``.  A sequence may be empty.  There is no padding, so every
    row is a token and every layer, loss and metric works on all of them.
    ``time`` and ``mask`` describe the batch as if it were padded to its
    longest sequence; nothing in the package computes on that view.

    ``pair``, optional, is (distinct (U, F), inverse (N,)) with
    ``rows == distinct[inverse]``, which the caller guarantees: a batch of
    word-table rows, where a token's row depends only on its word.  Both are
    kept read-only; :meth:`project` and :meth:`times` multiply only the U
    distinct rows, and :meth:`t_times` only their sums.
    """

    __slots__ = ("rows", "lengths", "spans", "_distinct")

    def __init__(self, rows: np.ndarray, lengths, pair=None):
        rows = as_array(rows)
        if rows.ndim != 2:
            raise DimensionError(f"batch tensor needs 2-D rows, got {rows.shape}")
        lengths = np.asarray(lengths)
        if lengths.ndim != 1 or lengths.size == 0:
            raise DimensionError(f"lengths must be a non-empty 1-D array, got {lengths.shape}")
        if not np.issubdtype(lengths.dtype, np.integer) or (lengths < 0).any():
            raise ContractViolation(f"lengths must be non-negative integers, got {lengths}")
        ends = np.cumsum(lengths)
        if ends[-1] != rows.shape[0]:
            raise DimensionError(f"lengths sum to {ends[-1]}, but there are {rows.shape[0]} rows")
        self.rows = rows
        self.lengths = lengths.astype(np.int64)
        self.spans = list(zip((ends - lengths).tolist(), ends.tolist()))
        self._distinct = None if pair is None else _distinct_pair(rows, *pair)

    @property
    def batch(self) -> int:
        return len(self.lengths)

    @property
    def time(self) -> int:
        """The longest sequence's length."""
        return int(self.lengths.max())

    @property
    def features(self) -> int:
        return self.rows.shape[1]

    @property
    def mask(self) -> np.ndarray:
        """(batch, time) read-only: True at the positions of the padded view that hold a token."""
        mask = np.arange(self.time) < self.lengths[:, None]
        mask.flags.writeable = False
        return mask

    @property
    def has_distinct_rows(self) -> bool:
        """Whether the batch carries its distinct rows."""
        return self._distinct is not None

    def project(self, w: np.ndarray, order=None) -> tuple[np.ndarray, np.ndarray | None]:
        """``rows[order] @ w`` (``rows @ w`` without an ``order``) in factored
        form: ``(table, ids)`` with the product equal to ``table[ids]``, or to
        ``table`` itself where ``ids`` is ``None``.

        With distinct rows, ``table`` is their (U, width) product and ``ids``
        their inverse, taken in ``order``.  Otherwise ``ids`` is ``None`` and
        ``table`` is the product of the rows, gathered in ``order`` first.
        """
        if self._distinct is not None:
            distinct, inverse = self._distinct
            return distinct @ w, inverse if order is None else inverse[order]
        rows = self.rows if order is None else np.take(self.rows, order, axis=0)
        return rows @ w, None

    def times(self, w: np.ndarray, order=None, out=None) -> np.ndarray:
        """``rows[order] @ w``, or ``rows @ w`` without an ``order``, written
        into ``out`` if given: :meth:`project`'s table, with its rows taken
        by its ids where it has them.  Without ids and without ``out``, the
        table itself is returned."""
        table, ids = self.project(w, order)
        if ids is not None:
            # every index is in range (checked once); "clip" lets take write into
            # a contiguous ``out`` directly, where "raise" goes through a buffer
            return np.take(table, ids, axis=0, out=out, mode="clip")
        if out is None:
            return table
        out[...] = table
        return out

    def t_times(self, g: np.ndarray, order=None, out=None) -> np.ndarray:
        """``rows[order].T @ g``, or ``rows.T @ g`` without an ``order``,
        written into ``out`` if given: the transpose twin of :meth:`times`,
        which gives the weight gradient of a projection :meth:`times` made.

        Without distinct rows it is the plain product.  With them, g's rows
        are first summed per distinct row, in their order, and the (F, U)
        transposed distinct rows are multiplied by the (U, W) sums.  That
        groups each entry's sum otherwise than the plain product does, so
        its last bits may differ; the error stays below (M + U) eps
        (|rows|^T |g|) for M rows of ``g``.  The sums are taken by
        ``np.bincount`` over a (row, column) index, :data:`_SUM_COLUMNS`
        columns of ``g`` at a time, so the index stays an (M, 32) array.
        ``np.bincount`` always sums in float64; each block of sums is
        rounded to ``g``'s dtype as it is stored.
        """
        if self._distinct is None:
            rows = self.rows if order is None else np.take(self.rows, order, axis=0)
            return np.matmul(rows.T, g, out=out)
        distinct, inverse = self._distinct
        ids = inverse if order is None else inverse[order]
        words, width = len(distinct), g.shape[1]
        step = min(width, _SUM_COLUMNS)
        # the bin of each entry of a block of g: its row's distinct row, then its column
        bins = (ids * step)[:, None] + np.arange(step)
        sums = np.empty((words, width), g.dtype)
        for lo in range(0, width, step):
            cols = min(step, width - lo)
            binned = np.bincount(bins[:, :cols].ravel(), g[:, lo : lo + cols].ravel(),
                                 words * step)
            sums[:, lo : lo + cols] = binned.reshape(words, step)[:, :cols]
        return np.matmul(distinct.T, sums, out=out)

    def astype(self, dtype) -> "BatchTensor":
        """The same batch with its rows, and its distinct rows, cast to
        ``dtype``; the batch itself if they already have it."""
        if self.rows.dtype == dtype:
            return self
        out = self.with_rows(self.rows.astype(dtype))
        if self._distinct is not None:
            distinct, inverse = self._distinct
            distinct = distinct.astype(dtype)
            distinct.flags.writeable = False
            out._distinct = distinct, inverse
        return out

    def with_rows(self, rows: np.ndarray) -> "BatchTensor":
        """The same sequences with new per-token features (layers keep the
        lengths); new features are not a function of the word, so the
        distinct rows are dropped."""
        if rows.shape[0] != self.rows.shape[0]:
            raise DimensionError(f"{rows.shape[0]} rows for a batch of {self.rows.shape[0]} tokens")
        out = BatchTensor.__new__(BatchTensor)
        out.rows, out.lengths, out.spans, out._distinct = rows, self.lengths, self.spans, None
        return out

    @classmethod
    def from_rows(cls, rows: list[np.ndarray]) -> "BatchTensor":
        """Concatenate variable-length (T_i, F) sequences into one packed batch."""
        if not rows:
            raise ContractViolation("cannot build a batch from zero sequences")
        rows = [np.asarray(r) for r in rows]
        for i, r in enumerate(rows):
            if r.ndim != 2 or r.shape[1:] != rows[0].shape[1:]:
                raise DimensionError(
                    f"row {i} has shape {r.shape}; rows must be 2-D and equally wide"
                )
        return cls(np.concatenate(rows, dtype=np.float64), [r.shape[0] for r in rows])


_SUM_COLUMNS = 32  # columns of g that one ``np.bincount`` of :meth:`BatchTensor.t_times` sums


def _distinct_pair(rows: np.ndarray, distinct, inverse) -> tuple[np.ndarray, np.ndarray]:
    """The (distinct, inverse) pair of a batch of ``rows``, checked for
    shapes and index range and made read-only."""
    distinct, inverse = as_array(distinct), np.asarray(inverse)
    if distinct.ndim != 2 or distinct.shape[1] != rows.shape[1]:
        raise DimensionError(f"distinct rows of shape {distinct.shape} for a batch of "
                             f"{rows.shape[1]} features")
    if inverse.shape != (rows.shape[0],):
        raise DimensionError(f"inverse of shape {inverse.shape} for a batch of "
                             f"{rows.shape[0]} tokens")
    if not np.issubdtype(inverse.dtype, np.integer):
        raise ContractViolation(f"inverse must hold integers, got {inverse.dtype}")
    if inverse.size and (inverse.min() < 0 or inverse.max() >= len(distinct)):
        raise ContractViolation(f"inverse indices must lie in [0, {len(distinct)}), got "
                                f"[{inverse.min()}, {inverse.max()}]")
    inverse = inverse.astype(np.intp, copy=False)
    distinct.flags.writeable = inverse.flags.writeable = False
    return distinct, inverse


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


STEP = 1e-30  # the complex step


def grad_check(layer, x: BatchTensor, rng=None) -> float:
    """Compare analytic gradients of ``layer`` against complex-step derivatives.

    The probe loss is sum(R * forward(x).rows) for a fixed random weighting
    R, one row per output token.  Each parameter entry and each input entry
    in turn gets an imaginary part :data:`STEP`, and one forward on complex
    values gives the derivative Im(loss) / STEP.  No difference is taken,
    so nothing cancels and the derivative is exact to rounding for any
    small step.  The worst relative error |a - n| / max(|a|, |n|, 1e-8) over
    all entries is returned.

    A forward must be analytic in its values for this to hold: no ``abs``,
    ``maximum`` or comparison on values (the max that
    :func:`softmax_rows` subtracts cancels out).  The parameters get
    complex copies for the probes, and their real arrays are put back
    whether the check returns or raises.

    ``layer`` must expose params(), forward(BatchTensor) -> (BatchTensor,
    cache), and backward(cache, grad_rows) -> grad_rows_in, where backward
    writes every parameter's ``grad``.
    """
    params = layer.params()
    for p in params:
        if not np.isfinite(p.value).all():
            raise NumericError(f"parameter {p.name} is not finite before probing")
    if rng is None:
        rng = np.random.default_rng(0)

    out, cache = layer.forward(x)
    upstream = rng.standard_normal(out.rows.shape)
    grad_in = layer.backward(cache, upstream)

    values = [p.value for p in params]
    x = x.with_rows(x.rows.astype(complex))
    worst = 0.0
    try:
        for p in params:
            p.value = p.value.astype(complex)
        sweeps = [(p.value, p.grad, p.name) for p in params] + [(x.rows, grad_in, "input")]
        for probed, grads, label in sweeps:
            probed, grads = probed.reshape(-1), grads.reshape(-1)
            for i in range(probed.size):
                probed[i] += 1j * STEP
                loss = np.sum(layer.forward(x)[0].rows * upstream)
                probed[i] = probed[i].real
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite probe value while perturbing {label}")
                worst = max(worst, relative_error(grads[i], loss.imag / STEP))
    finally:
        for p, value in zip(params, values):
            p.value = value
    return worst
