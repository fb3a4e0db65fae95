"""Toy files on disk, for the tests that run the CLI and loaders: corpus
directories, precomputed stores with a helper that reads their rows, and
mutations of a file's bytes."""

from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from argseg.embeddings import write_precomputed
from argseg.toydata import brat_lines, toy_corpus


def write_toy_corpus_dir(directory, n_essays: int = 12, seed: int = 0,
                         test_fraction: float = 0.25) -> Path:
    """Materialize .txt/.ann pairs and a split CSV under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    corpus = toy_corpus(n_essays, seed)
    n_test = max(1, int(round(test_fraction * n_essays)))
    rows = ['"ID";"SET"']
    for k, (essay, spans) in enumerate(corpus):
        (directory / f"{essay.id}.txt").write_text(essay.text, encoding="utf-8")
        (directory / f"{essay.id}.ann").write_text(
            brat_lines(spans, essay.text), encoding="utf-8"
        )
        part = "TEST" if k >= n_essays - n_test else "TRAIN"
        rows.append(f'"{essay.id}";"{part}"')
    (directory / "train-test-split.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return directory


def write_store(path, dim: int, records) -> Path:
    """Write (essay_id, sentence, token, vector) records as a store file."""
    with open(path, "wb") as fh:
        write_precomputed(fh, dim, records)
    return Path(path)


def read_rows(store, essay_id: str, start: int, count: int) -> np.ndarray:
    """``store.rows`` of ``count`` token ordinals, read into a new array."""
    out = np.empty((count, store.dim))
    store.rows(essay_id, start, out)
    return out


@st.composite
def mutations(draw, data: bytes, runs: bytes = b"") -> bytes:
    """``data`` truncated, with one bit flipped, with a slice of it copied
    over another place or, when ``runs`` is given, with a run of one of its
    bytes inserted."""
    kind = draw(st.sampled_from(["truncate", "bit_flip", "splice"] + ["insert"] * bool(runs)))
    body = bytearray(data)
    if kind == "truncate":
        del body[draw(st.integers(0, len(body) - 1)):]
    elif kind == "bit_flip":
        body[draw(st.integers(0, len(body) - 1))] ^= 1 << draw(st.integers(0, 7))
    elif kind == "splice":
        lo = draw(st.integers(0, len(body)))
        hi = draw(st.integers(lo, min(len(body), lo + 64)))
        at = draw(st.integers(0, len(body)))
        body[at : at + draw(st.integers(0, 64))] = data[lo:hi]
    else:
        at = draw(st.integers(0, len(body)))
        body[at:at] = bytes([draw(st.sampled_from(runs))]) * draw(st.integers(1, 8))
    return bytes(body)
