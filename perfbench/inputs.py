"""Seeded input files for the benchmark workloads.

Everything here is written by the benchmark before any timer starts; the
program under test only ever sees the files.  Essays follow the layout of the
persuasive-essay corpus: a title line, a blank line, then one paragraph per
line, with argumentative units drawn from their own vocabulary so the models
have something to learn.  The generator is the benchmark's own, so a change to
the program cannot change the inputs it is measured on.
"""

from __future__ import annotations

import itertools
import json
import struct
import zlib
from pathlib import Path

import numpy as np

FILLER = (
    "many people spend their time at home or at work and some of them "
    "prefer to read while others walk through the town in the evening"
).split()
UNIT = (
    "governments should invest in public transport because cities become "
    "cleaner and citizens save money when fewer cars block the roads"
).split()
TITLE = "why this question matters for everyone now".split()

# sentences in each of an essay's three paragraphs
SHAPES = list(itertools.product(range(2, 5), repeat=3))
SHAPE_STRIDE = 10  # coprime with len(SHAPES), so the cycle visits every shape
SENTENCE_WORDS = 10  # a unit, where a sentence has one, is its last 3 to 7 words
TITLE_WORDS = 6

_STORE_MAGIC = b"ARGSEGPV"
_STORE_VERSION = 1


def vocabulary() -> list[str]:
    words = set(FILLER) | set(UNIT) | set(TITLE) | {"."}
    return sorted(words | {w.capitalize() for w in words})


def _words(rng, pool, count: int) -> list[str]:
    return [pool[int(k)] for k in rng.integers(0, len(pool), count)]


def shape(k: int) -> tuple[int, ...]:
    """Sentences per paragraph of the k-th essay.

    The lengths of the corpus are a property of the workload and not of the
    seed, which varies only the words and the units.  Every essay's length
    follows from its shape, and any 27 consecutive essays hold every shape
    once, so each slice the rounds feed the program pads about the same and
    has the same longest sequence (a 44-token paragraph, a 132-token body),
    and every seed meets the same slices.
    """
    return SHAPES[k * SHAPE_STRIDE % len(SHAPES)]


def essay(rng, paragraphs: tuple[int, ...]) -> tuple[str, list[tuple[int, int]]]:
    """Text of one essay with ``paragraphs[i]`` sentences in paragraph i, plus
    the character spans of its units."""
    parts: list[str] = []
    spans: list[tuple[int, int]] = []
    pos = 0

    def emit(text: str):
        nonlocal pos
        parts.append(text)
        pos += len(text)

    emit(" ".join(_words(rng, TITLE, TITLE_WORDS)) + "\n\n")
    for sentences in paragraphs:
        for s in range(sentences):
            if s:
                emit(" ")
            unit_words = int(rng.integers(3, 8)) if rng.random() < 0.7 else 0
            emit(" ".join(_words(rng, FILLER, SENTENCE_WORDS - unit_words)).capitalize())
            if unit_words:
                emit(" ")
                unit = " ".join(_words(rng, UNIT, unit_words))
                spans.append((pos, pos + len(unit)))
                emit(unit)
            emit(".")
        emit("\n")
    return "".join(parts), spans


def join_body(text: str) -> str:
    """One line per essay body: each paragraph break becomes a space.

    The replacement is one character for one, so span offsets stay valid.
    """
    title, sep, body = text.partition("\n\n")
    return title + sep + body[:-1].replace("\n", " ") + body[-1:]


def write_corpus(directory: Path, n_essays: int, seed: int, whole_body: bool) -> list[str]:
    """Write ``essayNNN.txt``/``.ann`` brat pairs; returns the essay ids."""
    rng = np.random.default_rng(seed)
    ids = []
    for k in range(n_essays):
        essay_id = f"essay{k + 1:03d}"
        text, spans = essay(rng, shape(k))
        if whole_body:
            text = join_body(text)
        ann = [
            f"T{i}\t{('Claim', 'Premise', 'MajorClaim')[i % 3]} {a} {b}\t{text[a:b]}"
            for i, (a, b) in enumerate(spans, start=1)
        ]
        (directory / f"{essay_id}.txt").write_text(text, encoding="utf-8")
        (directory / f"{essay_id}.ann").write_text("\n".join(ann) + "\n", encoding="utf-8")
        ids.append(essay_id)
    return ids


def word_vectors(dim: int, seed: int) -> dict[str, np.ndarray]:
    """One vector per lowercased vocabulary word, as a GloVe file would hold."""
    rng = np.random.default_rng([seed, dim])
    words = sorted({w.lower() for w in vocabulary()})
    return {w: rng.normal(0.0, 0.5, dim) for w in words}


def write_glove(path: Path, vectors: dict[str, np.ndarray]):
    with open(path, "w", encoding="utf-8") as fh:
        for word, vec in vectors.items():
            fh.write(word + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")


def write_store(path: Path, dim: int, records):
    """Stream (essay_id, sentence, token, vector) records into a store file.

    The layout is the program's precomputed-store format.  Records go to disk
    one at a time and the CRC is updated as they pass, so writing a store
    costs this process almost no memory and cannot raise the high-water mark
    that ``peak_rss_mb`` reports.
    """
    crc = count = 0
    with open(path, "wb") as fh:
        fh.write(_STORE_MAGIC + struct.pack("<IIQ", _STORE_VERSION, dim, 0))
        for essay_id, sentence, token, vec in records:
            ident = essay_id.encode("utf-8")
            chunk = (
                struct.pack("<I", len(ident)) + ident + struct.pack("<II", sentence, token)
                + np.ascontiguousarray(vec, dtype="<f8").tobytes()
            )
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)
            count += 1
        fh.write(struct.pack("<I", crc))
        fh.seek(len(_STORE_MAGIC))  # the header's record count, now known
        fh.write(struct.pack("<IIQ", _STORE_VERSION, dim, count))


def write_spec(path: Path, dim: int, kind: str, source: str):
    path.write_text(
        json.dumps({"expected_dim": dim, "sources": [{"kind": kind, "path": source}]}),
        encoding="utf-8",
    )
