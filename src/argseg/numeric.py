"""Float64 core: stable softmax, parameters, padded batches, and gradient checks.

Everything downstream (layers, models, training) is built on the primitives
here.  All arrays are C-contiguous float64; 32-bit precision makes the
finite-difference checks in :func:`grad_check` unreliable at the tolerances
we enforce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DimensionError, NumericError


def as_array(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64)


# ---------------------------------------------------------------------------
# Softmax
# ---------------------------------------------------------------------------


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed with max-subtraction for stability.

    Every output row is non-negative and sums to 1 for any finite input.
    """
    a = np.asarray(a, dtype=np.float64)
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Parameters and batched tensors
# ---------------------------------------------------------------------------


@dataclass
class Parameter:
    """A named weight array paired with an explicitly managed gradient.

    Gradients accumulate across backward calls; they are cleared only by an
    explicit :meth:`zero_grad`, never implicitly.
    """

    name: str
    value: np.ndarray
    grad: np.ndarray | None = None

    def __post_init__(self):
        self.value = as_array(self.value)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        else:
            self.grad = as_array(self.grad)
        if self.grad.shape != self.value.shape:
            raise DimensionError(
                f"parameter {self.name}: grad shape {self.grad.shape} "
                f"!= value shape {self.value.shape}"
            )

    def zero_grad(self):
        self.grad[...] = 0.0


class BatchTensor:
    """A padded batch of sequences: values (batch, time, features) plus a mask.

    mask[b, t] is True for real tokens and False for padding.  Padded
    positions carry zero vectors and must contribute nothing to any loss,
    gradient, or metric.
    """

    __slots__ = ("values", "mask")

    def __init__(self, values: np.ndarray, mask: np.ndarray):
        values = as_array(values)
        if values.ndim != 3:
            raise DimensionError(f"batch tensor needs 3-D values, got {values.shape}")
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != values.shape[:2]:
            raise DimensionError(
                f"mask shape {mask.shape} does not match values {values.shape[:2]}"
            )
        self.values = values
        self.mask = mask

    @property
    def batch(self) -> int:
        return self.values.shape[0]

    @property
    def time(self) -> int:
        return self.values.shape[1]

    @property
    def features(self) -> int:
        return self.values.shape[2]

    def float_mask(self) -> np.ndarray:
        """(batch, time, 1) float view of the mask, for broadcasting."""
        return self.mask[:, :, None].astype(np.float64)

    def with_values(self, values: np.ndarray) -> "BatchTensor":
        """Same mask, new values (layers transform features, not validity)."""
        return BatchTensor(values, self.mask)

    @classmethod
    def from_rows(cls, rows: list[np.ndarray]) -> "BatchTensor":
        """Stack variable-length (T_i, F) rows into one zero-padded batch."""
        if not rows:
            raise ContractViolation("cannot build a batch from zero sequences")
        rows = [as_array(r) for r in rows]
        features = rows[0].shape[1]
        max_t = max(r.shape[0] for r in rows)
        values = np.zeros((len(rows), max_t, features))
        mask = np.zeros((len(rows), max_t), dtype=bool)
        for i, r in enumerate(rows):
            if r.ndim != 2 or r.shape[1] != features:
                raise DimensionError(
                    f"row {i} has shape {r.shape}, expected (*, {features})"
                )
            values[i, : r.shape[0]] = r
            mask[i, : r.shape[0]] = True
        return cls(values, mask)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


def grad_check(layer, x: BatchTensor, epsilon: float = 1e-3, rng=None,
               probe_scale: float = 1e-8) -> float:
    """Compare analytic gradients of ``layer`` against central finite differences.

    The probe loss is sum(R * forward(x)) for a fixed random weighting R that
    is zero at padded positions.  Every parameter entry and every input entry
    is perturbed by +/- epsilon; the worst relative error
    |a - n| / max(|a|, |n|, 1e-8) over all entries is returned.

    R is drawn at ``probe_scale`` magnitude: the backward pass is exactly
    linear in its upstream gradient, so the algebra verified is scale
    independent, while a small probe keeps the O(epsilon^2) truncation error
    of the central difference below the 1e-8 comparison floor instead of
    aliasing into the relative error of near-cancelling gradient entries.

    ``layer`` must expose params(), forward(BatchTensor) -> (BatchTensor,
    cache), and backward(cache, grad_values) -> grad_values_in.
    """
    if not (0.0 < epsilon <= 1e-2):
        raise ValueError(f"epsilon must lie in (0, 1e-2], got {epsilon}")
    params = layer.params()
    for p in params:
        if not np.isfinite(p.value).all():
            raise NumericError(f"parameter {p.name} is not finite before probing")
    if rng is None:
        rng = np.random.default_rng(0)

    out, cache = layer.forward(x)
    upstream = rng.standard_normal(out.values.shape) * probe_scale
    upstream *= out.float_mask()

    for p in params:
        p.zero_grad()
    grad_in = layer.backward(cache, upstream)

    def probe() -> float:
        probed, _ = layer.forward(x)
        return float(np.sum(probed.values * upstream))

    worst = 0.0

    def sweep(flat_values: np.ndarray, flat_grads: np.ndarray, label: str):
        nonlocal worst
        for i in range(flat_values.size):
            orig = flat_values[i]
            flat_values[i] = orig + epsilon
            f_plus = probe()
            flat_values[i] = orig - epsilon
            f_minus = probe()
            flat_values[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"non-finite probe value while perturbing {label}")
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            worst = max(worst, relative_error(flat_grads[i], numeric))

    for p in params:
        sweep(p.value.reshape(-1), p.grad.reshape(-1), p.name)
    sweep(x.values.reshape(-1), grad_in.reshape(-1), "input")
    return worst
