"""argseg: a BiLSTM/attention laboratory for argumentative unit segmentation.

Token sequences from persuasive essays are labeled B/I/O (begin / inside /
outside an argumentative unit) by five small architectures built from an
auditable numpy core: a stacked two-BiLSTM tagger, variants with multi-head
or additive self-attention at different positions, and a single-BiLSTM
baseline.  Every layer carries a hand-written backward pass verified against
central finite differences.
"""

from .corpus import (
    AnnotationSpan,
    Essay,
    LabeledSequence,
    Token,
    bio_label,
    build_sequences,
    load_split,
    parse_brat,
    read_conll,
    tokenize,
    write_conll,
)
from .embeddings import (
    EmbeddingSpec,
    EmbeddingTable,
    PrecomputedStore,
    load_glove,
    write_precomputed,
)
from .layers import choose_heads
from .metrics import MetricsReport, metrics_from_confusion
from .models import (
    ArchitectureId,
    Model,
    ModelSpec,
    build_model,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
)
from .numeric import BatchTensor, Parameter, grad_check
from .training import (
    LossCurve,
    TrainConfig,
    evaluate,
    generalization_gap,
    lr_search,
    masked_cross_entropy,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotationSpan",
    "ArchitectureId",
    "BatchTensor",
    "EmbeddingSpec",
    "EmbeddingTable",
    "Essay",
    "LabeledSequence",
    "LossCurve",
    "MetricsReport",
    "Model",
    "ModelSpec",
    "Parameter",
    "PrecomputedStore",
    "Token",
    "TrainConfig",
    "bio_label",
    "build_model",
    "build_sequences",
    "choose_heads",
    "evaluate",
    "generalization_gap",
    "grad_check",
    "load_checkpoint",
    "load_glove",
    "load_split",
    "lr_search",
    "masked_cross_entropy",
    "metrics_from_confusion",
    "parse_brat",
    "predict_labels",
    "read_conll",
    "save_checkpoint",
    "tokenize",
    "train",
    "write_conll",
    "write_precomputed",
]
