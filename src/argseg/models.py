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
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import LABELS
from .errors import ConfigurationError, ContractViolation, DimensionError, FormatError
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
        if self.input_dim < 1 or self.hidden < 1:
            raise ConfigurationError(
                f"input_dim and hidden must be >= 1, got {self.input_dim}, {self.hidden}"
            )


class Model:
    """An ordered layer stack with chained forward/backward passes.

    ``forward`` returns the caches, one per layer, that the caller hands
    back to ``backward``, which consumes them; ``logits`` is the forward of
    inference, which keeps no cache.  A trainer passes ``input_grad=False``,
    since nothing trains the input rows.
    """

    def __init__(self, spec: ModelSpec, layers: list[Layer]):
        self.spec = spec
        self.layers = layers

    def params(self) -> list[Parameter]:
        out: list[Parameter] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def zero_grads(self):
        for p in self.params():
            p.zero_grad()

    def _check(self, batch: BatchTensor):
        if batch.features != self.spec.input_dim:
            raise DimensionError(
                f"model expects {self.spec.input_dim} input features, "
                f"batch has {batch.features}"
            )

    def forward(self, batch: BatchTensor):
        """(logits, caches): the caches, one per layer in order, stay valid
        until they are handed to ``backward``, and hold every layer's
        activations until then."""
        self._check(batch)
        caches = []
        x = batch
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def logits(self, batch: BatchTensor) -> BatchTensor:
        """The logits of ``forward`` with no cache kept: each layer's cache
        is dropped as soon as the layer returns its output."""
        self._check(batch)
        x = batch
        for layer in self.layers:
            x = layer.forward(x)[0]
        return x

    def backward(self, caches: list, grad_out: np.ndarray, input_grad: bool = True):
        """Accumulate every parameter gradient; return d(loss)/d(input rows).

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


def predict_labels(model: Model, batch: BatchTensor) -> np.ndarray:
    """(N,) label indices in packed order; argmax per token, ties resolved B < I < O."""
    return np.argmax(model.logits(batch).rows, axis=1)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"ARGSEG-CKPT"
_CKPT_VERSION = 3
# Format 1 stored each fused LSTM tensor as four per-gate tensors named
# <cell>.W_i, <cell>.W_f, <cell>.W_c and <cell>.W_o (likewise U and b); this
# is their order in the fused i|f|o|g layout.
_V1_GATES = ("i", "f", "o", "c")


def _fixed_fields(arch: ArchitectureId) -> dict[str, str]:
    """Header fields that every checkpoint of ``arch`` holds with these values;
    they name the design that this package always builds."""
    return {
        "inter_stage_dim": str(BRIDGE_DIM),
        "attention": "multi_head" if arch.is_stacked else "additive",
        "heads_cap": str(HEADS_CAP),
    }


def _spec_to_lines(spec: ModelSpec) -> list[str]:
    fixed = _fixed_fields(spec.arch)
    return [
        f"arch {spec.arch.value}",
        f"input_dim {spec.input_dim}",
        f"hidden {spec.hidden}",
        *(f"{key} {value}" for key, value in fixed.items()),
        f"seed {spec.seed}",
        f"attn_dim {spec.attn_dim}",
    ]


def _spec_from_fields(fields: dict[str, str]) -> ModelSpec:
    try:
        spec = ModelSpec(
            arch=ArchitectureId.from_string(fields["arch"]),
            input_dim=int(fields["input_dim"]),
            hidden=int(fields["hidden"]),
            seed=int(fields["seed"]),
            attn_dim=int(fields.get("attn_dim", 32)),
        )
        fixed = _fixed_fields(spec.arch)
        found = {key: fields[key] for key in ("inter_stage_dim", "heads_cap")}
    except (KeyError, ValueError) as exc:
        raise FormatError(f"checkpoint header is incomplete or malformed: {exc}") from exc
    found["attention"] = fields.get("attention", fixed["attention"])  # optional line
    for key, value in fixed.items():
        if found[key] != value:
            raise FormatError(f"checkpoint field {key} is {found[key]!r}, but a "
                              f"{spec.arch.value} model here always has {value!r}")
    return spec


def save_checkpoint(model: Model, path):
    """Write a versioned header plus named float64 little-endian blocks,
    atomically: an existing checkpoint is replaced whole or not at all."""
    params = model.params()
    with atomic_write(path, binary=True) as fh:
        fh.write(_CKPT_MAGIC + b" %d\n" % _CKPT_VERSION)
        for line in _spec_to_lines(model.spec):
            fh.write(line.encode("utf-8") + b"\n")
        fh.write(b"tensors %d\n" % len(params))
        fh.write(b"end-header\n")
        for p in params:
            dims = " ".join(str(d) for d in p.value.shape)
            fh.write(f"tensor {p.name} {p.value.ndim} {dims}\n".encode("utf-8"))
            fh.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())


def _join_v1_gates(tensors: dict[str, np.ndarray], name: str) -> np.ndarray | None:
    """The fused LSTM tensor ``name`` from its format-1 per-gate blocks, if present."""
    base, _, kind = name.rpartition(".")
    keys = [f"{base}.{kind}_{g}" for g in _V1_GATES]
    if not all(k in tensors for k in keys):
        return None
    blocks = [tensors.pop(k) for k in keys]
    if len({b.shape for b in blocks}) != 1:
        return None
    return np.concatenate(blocks, axis=-1)


def load_checkpoint(path) -> Model:
    """Rebuild the model from a checkpoint; round-trips byte-exactly.

    Reads format 3 and the older formats 2 and 1.  Format 1's per-gate LSTM
    blocks are joined into the fused tensors.  Formats 1 and 2 also hold the
    additive attention's score bias ``<layer>.b_v`` (shape (1,)), which is
    dropped: it shifted every score of a softmax row equally, so it never
    changed an output.  Any malformed file raises :class:`FormatError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    buf = io.BytesIO(data)

    def read_line() -> str:
        raw = buf.readline()
        if not raw.endswith(b"\n"):
            raise FormatError("checkpoint is truncated inside the header")
        try:
            return raw[:-1].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"checkpoint header is not UTF-8: {exc}") from None

    def read_int(text: str, what: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise FormatError(f"checkpoint {what} is not an integer: {text!r}") from None

    first = read_line().split()
    if len(first) != 2 or first[0].encode() != _CKPT_MAGIC:
        raise FormatError("not a checkpoint file (bad magic string)")
    version = read_int(first[1], "version")
    if version not in (1, 2, _CKPT_VERSION):
        raise FormatError(f"unsupported checkpoint version {version}")

    fields: dict[str, str] = {}
    n_tensors = None
    while True:
        line = read_line()
        if line == "end-header":
            break
        key, _, value = line.partition(" ")
        if key == "tensors":
            n_tensors = read_int(value, "tensor count")
        else:
            fields[key] = value
    if n_tensors is None:
        raise FormatError("checkpoint header lacks a tensor count")
    model = build_model(_spec_from_fields(fields))

    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        header = read_line().split()
        if len(header) < 3 or header[0] != "tensor":
            raise FormatError(f"malformed tensor line {' '.join(header)!r}")
        name = header[1]
        ndim = read_int(header[2], f"rank of tensor {name}")
        if len(header) != 3 + ndim:
            raise FormatError(f"tensor {name} has rank {ndim} but {len(header) - 3} dimensions")
        shape = tuple(read_int(d, f"dimension of tensor {name}") for d in header[3:])
        if any(d < 0 for d in shape) or name in tensors:
            raise FormatError(f"bad or repeated tensor line for {name}")
        nbytes = math.prod(shape) * 8  # a Python int: np.prod wraps at 2**63
        if nbytes > len(data) - buf.tell():
            raise FormatError(f"checkpoint is truncated inside tensor {name}")
        tensors[name] = np.frombuffer(buf.read(nbytes), dtype="<f8").reshape(shape)
    if buf.read(1):
        raise FormatError("trailing bytes after the last tensor block")
    if version < 3:
        for name in [n for n, v in tensors.items() if n.endswith(".b_v") and v.shape == (1,)]:
            del tensors[name]

    for p in model.params():
        value = tensors.pop(p.name, None)
        if value is None and version == 1:
            value = _join_v1_gates(tensors, p.name)
        if value is None or value.shape != p.value.shape:
            found = "nothing" if value is None else str(value.shape)
            raise FormatError(
                f"tensor mismatch: model expects {p.name} {p.value.shape}, file has {found}"
            )
        p.value[...] = value
    if tensors:
        raise FormatError(f"checkpoint holds tensors the model lacks: {sorted(tensors)}")
    return model
