import json
import os
from pathlib import Path

import pytest

from argseg.corpus import ConversionStats, build_sequences
from argseg.embeddings import EmbeddingSpec, load_glove
from argseg.toydata import toy_corpus, toy_glove_text
from toy_files import write_toy_corpus_dir

RUN_FULL = os.environ.get("ARGSEG_RUN_FULL") == "1"
CORPUS_DIR = os.environ.get("ARGSEG_CORPUS_DIR")
GLOVE_PATH = os.environ.get("ARGSEG_GLOVE")

needs_corpus = pytest.mark.skipif(
    not CORPUS_DIR, reason="real corpus not available (set ARGSEG_CORPUS_DIR)"
)
needs_full_run = pytest.mark.skipif(
    not (CORPUS_DIR and GLOVE_PATH and RUN_FULL),
    reason="multi-hour corpus training disabled "
    "(set ARGSEG_CORPUS_DIR, ARGSEG_GLOVE and ARGSEG_RUN_FULL=1)",
)


@pytest.fixture(scope="session")
def toy_corpus_dir(tmp_path_factory) -> Path:
    return write_toy_corpus_dir(tmp_path_factory.mktemp("corpus"), n_essays=12, seed=0)


@pytest.fixture(scope="session")
def toy_annotated():
    """12 in-memory (Essay, spans) pairs."""
    return toy_corpus(12, seed=0)


@pytest.fixture(scope="session")
def toy_sequences(toy_annotated):
    stats = ConversionStats()
    seqs = []
    for essay, spans in toy_annotated:
        seqs.extend(build_sequences(essay, spans, "paragraph", stats))
    return seqs


@pytest.fixture(scope="session")
def toy_table():
    return load_glove(toy_glove_text(dim=16, seed=7))


@pytest.fixture(scope="session")
def toy_embeddings(toy_table):
    return EmbeddingSpec([toy_table], expected_dim=16, label="toy16")


@pytest.fixture(scope="session")
def toy_embeddings_file(tmp_path_factory, toy_corpus_dir) -> Path:
    root = tmp_path_factory.mktemp("emb")
    glove_path = root / "toy-vectors.txt"
    glove_path.write_text(toy_glove_text(dim=16, seed=7), encoding="utf-8")
    spec_path = root / "toy16.json"
    spec_path.write_text(
        json.dumps(
            {"expected_dim": 16, "sources": [{"kind": "glove", "path": "toy-vectors.txt"}]}
        ),
        encoding="utf-8",
    )
    return spec_path
