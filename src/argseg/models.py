"""The five evaluated architectures, assembled from layers.

Architecture ids:

* ``BL``   stacked pair of BiLSTMs with a low-dimensional projection (the
           bridge, :data:`BRIDGE_DIM` wide) between them, linear head on top
* ``BL_I`` BL with multi-head self-attention on the raw input vectors
* ``BL_E`` BL with multi-head self-attention between the two BiLSTMs (the
           attention therefore operates on the narrow inter-stage space)
* ``SB``   a single BiLSTM with the linear head
* ``SB_I`` SB with additive self-attention on the raw input vectors

The BL family uses multi-head attention, the SB family additive attention.
Every model ends in a linear head that emits per-token logits over
{B, I, O}; the softmax over them is taken once, inside the training loss.
A model maps a packed :class:`~argseg.numeric.BatchTensor` of (N, D) token
rows to (N, 3) logit rows, one per token.

A checkpoint is the text lines of :func:`_header`, then per parameter its
:func:`_tensor_line` and its values as little-endian float64;
:func:`load_checkpoint` accepts exactly what :func:`save_checkpoint` writes.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import LABELS
from .errors import ConfigurationError, ContractViolation, FormatError
from .files import atomic_write
from .layers import (
    HEADS_CAP,
    AdditiveSelfAttention,
    BiLstm,
    Layer,
    MultiHeadSelfAttention,
    TimeDistributedLinear,
    choose_heads,
)
from .numeric import BatchTensor, Parameter

BRIDGE_DIM = 4  # width of the BL family's projection between its two BiLSTMs


class ArchitectureId(Enum):
    BL = "bl"
    BL_I = "bl-i"
    BL_E = "bl-e"
    SB = "sb"
    SB_I = "sb-i"

    @property
    def is_stacked(self) -> bool:
        return self in (ArchitectureId.BL, ArchitectureId.BL_I, ArchitectureId.BL_E)

    @classmethod
    def from_string(cls, s: str) -> "ArchitectureId":
        try:
            return cls(s.lower().replace("_", "-"))
        except ValueError:
            raise ConfigurationError(
                f"unknown architecture {s!r}; choose from {[a.value for a in cls]}"
            ) from None


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to build one architecture deterministically.

    The fields are what varies between runs: the architecture, the input
    width (the vectors), the LSTM width, the run seed, and ``attn_dim``, the
    additive scorer's width, which the self-test shrinks.  The rest is fixed
    by the family: the BL bridge is :data:`BRIDGE_DIM` wide, BL* use
    multi-head attention (heads from :func:`choose_heads`) and SB* additive
    attention.
    """

    arch: ArchitectureId
    input_dim: int
    hidden: int = 64
    seed: int = 0
    attn_dim: int = 32  # width of the additive scorer

    def __post_init__(self):
        if not isinstance(self.arch, ArchitectureId):
            raise ConfigurationError(f"arch must be an ArchitectureId, got {self.arch!r}")
        for name in ("input_dim", "hidden", "seed", "attn_dim"):
            value = getattr(self, name)
            if type(value) is not int:  # also rejects bool
                raise ConfigurationError(f"{name} must be an int, got {value!r}")
        if min(self.input_dim, self.hidden, self.attn_dim) < 1:
            raise ConfigurationError(f"input_dim, hidden and attn_dim must be >= 1, got "
                                     f"{self.input_dim}, {self.hidden}, {self.attn_dim}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


class Model:
    """An ordered layer stack with chained forward/backward passes.

    ``forward`` returns the caches, one per layer, that the caller hands
    back to ``backward``, which consumes them; ``logits`` is the forward of
    inference, which runs each layer's ``infer`` and keeps no cache.  A
    trainer passes ``input_grad=False``, since nothing trains the input rows.
    """

    def __init__(self, spec: ModelSpec, layers: list[Layer]):
        self.spec = spec
        self.layers = layers

    def params(self) -> list[Parameter]:
        out: list[Parameter] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def forward(self, batch: BatchTensor):
        """(logits, caches): the caches, one per layer in order, stay valid
        until they are handed to ``backward``, and hold every layer's
        activations until then."""
        caches = []
        x = batch
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def logits(self, batch: BatchTensor) -> BatchTensor:
        """The logits of ``forward``, byte for byte, from each layer's
        ``infer``: no cache is kept, and each layer's output is dropped as
        soon as the next layer has returned its own."""
        x = batch
        for layer in self.layers:
            x = layer.infer(x)
        return x

    def backward(self, caches: list, grad_out: np.ndarray, input_grad: bool = True):
        """Write every parameter gradient; return d(loss)/d(input rows).

        ``caches`` is consumed: each layer's cache is popped from the list
        as its backward starts and released when that backward returns, so
        the list is empty afterwards and cannot serve a second backward.
        ``input_grad`` goes to the first layer only: with ``False`` it skips
        the work that only feeds the input gradient and the result is
        ``None``, while every parameter gradient stays the same.
        """
        if len(caches) != len(self.layers):
            raise ContractViolation(f"backward needs {len(self.layers)} layer caches, got "
                                    f"{len(caches)}; a forward's caches serve one backward")
        g = grad_out
        for layer in reversed(self.layers[1:]):
            g = layer.backward(caches.pop(), g)
        return self.layers[0].backward(caches.pop(), g, input_grad=input_grad)

    def get_values(self) -> list[np.ndarray]:
        return [p.value.copy() for p in self.params()]

    def set_values(self, values: list[np.ndarray]):
        for p, v in zip(self.params(), values, strict=True):
            p.value[...] = v


def build_model(spec: ModelSpec) -> Model:
    """Assemble and initialize the layer stack for ``spec``.

    Initialization is driven entirely by ``spec.seed``, so the same spec
    always yields bit-identical parameters.
    """
    rng = np.random.default_rng(spec.seed)
    layers: list[Layer] = []
    arch = spec.arch

    if arch is ArchitectureId.BL_I:
        heads = choose_heads(spec.input_dim)
        layers.append(MultiHeadSelfAttention(spec.input_dim, heads, rng, "attn_in"))
    elif arch is ArchitectureId.SB_I:
        layers.append(AdditiveSelfAttention(spec.input_dim, rng, spec.attn_dim, "attn_in"))

    layers.append(BiLstm(spec.input_dim, spec.hidden, rng, "bilstm_1"))

    if arch.is_stacked:
        layers.append(TimeDistributedLinear(2 * spec.hidden, BRIDGE_DIM, rng, "bridge"))
        if arch is ArchitectureId.BL_E:
            heads = choose_heads(BRIDGE_DIM)
            layers.append(MultiHeadSelfAttention(BRIDGE_DIM, heads, rng, "attn_mid"))
        layers.append(BiLstm(BRIDGE_DIM, spec.hidden, rng, "bilstm_2"))

    layers.append(TimeDistributedLinear(2 * spec.hidden, len(LABELS), rng, "head"))
    return Model(spec, layers)


def parameter_count(spec: ModelSpec) -> int:
    """The number of values in ``build_model(spec).params()``, without building it."""
    d, h, arch = spec.input_dim, spec.hidden, spec.arch
    n = 8 * h * (d + h + 1) + (2 * h + 1) * len(LABELS)  # BiLSTM (W, U, b twice) and head
    if arch is ArchitectureId.BL_I:
        n += 4 * d * d
    elif arch is ArchitectureId.SB_I:
        n += (2 * d + 2) * spec.attn_dim
    if arch.is_stacked:  # the bridge and the second BiLSTM
        n += (2 * h + 1) * BRIDGE_DIM + 8 * h * (BRIDGE_DIM + h + 1)
    if arch is ArchitectureId.BL_E:
        n += 4 * BRIDGE_DIM * BRIDGE_DIM
    return n


def predict_labels(model: Model, batch: BatchTensor) -> np.ndarray:
    """(N,) label indices in packed order; argmax per token, ties resolved B < I < O."""
    return np.argmax(model.logits(batch).rows, axis=1)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = "ARGSEG-CKPT"
_CKPT_VERSION = 3


def _header(spec: ModelSpec, tensors: int) -> list[str]:
    """The header lines of a checkpoint of ``spec`` with ``tensors`` tensors, in
    the order they are written; the three after ``hidden`` name the fixed design."""
    return [
        f"{_CKPT_MAGIC} {_CKPT_VERSION}",
        f"arch {spec.arch.value}",
        f"input_dim {spec.input_dim}",
        f"hidden {spec.hidden}",
        f"inter_stage_dim {BRIDGE_DIM}",
        f"attention {'multi_head' if spec.arch.is_stacked else 'additive'}",
        f"heads_cap {HEADS_CAP}",
        f"seed {spec.seed}",
        f"attn_dim {spec.attn_dim}",
        f"tensors {tensors}",
        "end-header",
    ]


def _tensor_line(p: Parameter) -> str:
    dims = " ".join(str(d) for d in p.value.shape)
    return f"tensor {p.name} {p.value.ndim} {dims}"


def save_checkpoint(model: Model, path):
    """Write ``model``'s checkpoint atomically: an old file is replaced whole or not at all."""
    params = model.params()
    with atomic_write(path, binary=True) as fh:
        for line in _header(model.spec, len(params)):
            fh.write(f"{line}\n".encode("utf-8"))
        for p in params:
            fh.write(_tensor_line(p).encode("utf-8") + b"\n")
            fh.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())


def load_checkpoint(path) -> Model:
    """Rebuild the model that :func:`save_checkpoint` wrote; round-trips byte-exactly.

    Only format 3 is read.  The spec comes from the ``arch``, ``input_dim``,
    ``hidden``, ``seed`` and ``attn_dim`` lines, and the header must then be
    :func:`_header`'s lines for it, in order.  Any other file, and a header
    whose model needs more values than the rest of the file holds, raises
    :class:`FormatError`; for other lines it names the first that differs.
    """
    with open(path, "rb") as fh:

        def read_line() -> str:
            raw = fh.readline()
            if not raw.endswith(b"\n"):
                raise FormatError("checkpoint is truncated inside the header")
            try:
                return raw[:-1].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"checkpoint header is not UTF-8: {exc}") from None

        lines = [read_line()]
        magic, _, version = lines[0].partition(" ")
        if magic != _CKPT_MAGIC:
            raise FormatError("not a checkpoint file (bad magic string)")
        if version != str(_CKPT_VERSION):
            raise FormatError(f"unsupported checkpoint version {version}")
        while lines[-1] != "end-header":
            lines.append(read_line())

        fields = dict(line.partition(" ")[::2] for line in lines)
        try:
            spec = ModelSpec(ArchitectureId.from_string(fields["arch"]), *(
                int(fields[key]) for key in ("input_dim", "hidden", "seed", "attn_dim")))
        except KeyError as exc:
            raise FormatError(f"checkpoint header lacks the {exc.args[0]} line") from None
        except (ValueError, ConfigurationError) as exc:
            raise FormatError(f"checkpoint header is malformed: {exc}") from None
        left, values = os.fstat(fh.fileno()).st_size - fh.tell(), parameter_count(spec)
        if values > left // 8:
            raise FormatError(f"checkpoint header describes a model of {values} values, "
                              f"but only {left} bytes follow it")
        model = build_model(spec)
        params = model.params()
        # each list ends at its one end-header line: unequal lists differ before
        for line, written in zip(lines, _header(spec, len(params))):
            if line != written:
                raise FormatError(f"checkpoint header line {line!r} where a "
                                  f"{spec.arch.value} model writes {written!r}")

        for p in params:
            line = read_line()
            if line != _tensor_line(p):
                raise FormatError(f"tensor line {line!r} where the model's next tensor "
                                  f"is {_tensor_line(p)!r}")
            if fh.readinto(p.value) != p.value.nbytes:
                raise FormatError(f"checkpoint is truncated inside tensor {p.name}")
            if sys.byteorder == "big":  # the blocks are little-endian
                p.value.byteswap(inplace=True)
        if fh.read(1):
            raise FormatError("trailing bytes after the last tensor block")
    return model
