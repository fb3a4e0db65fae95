"""Synthetic mini-corpora for experiments, demos and self-verification.

The generator fabricates small brat-annotated "essays" in the same layout as
the real corpus: a title line, then one paragraph per line, with unit spans
whose wording is drawn from a distinct vocabulary so that models can actually
learn the segmentation.  A matching word-vector file can be produced for the
full toy vocabulary, which lets every pipeline stage run end to end without
any external data.
"""

from __future__ import annotations

import numpy as np

from .corpus import AnnotationSpan, Essay

FILLER = (
    "people often talk about many things in daily life and school while "
    "others simply watch the weather or read some books near the old park"
).split()

UNIT_WORDS = (
    "education technology progress matters because society clearly benefits "
    "when students learn critical thinking skills and cooperation improves "
    "therefore communities should support modern schools strongly"
).split()

TITLE_WORDS = "thoughts on a topic worth discussing today".split()


def _sentence(rng, words, low, high) -> list[str]:
    n = int(rng.integers(low, high + 1))
    return [words[int(rng.integers(0, len(words)))] for _ in range(n)]


def toy_essay(essay_id: str, rng) -> tuple[Essay, list[AnnotationSpan]]:
    """One three-paragraph synthetic essay plus its unit spans (word-aligned, non-overlapping)."""
    parts: list[str] = []
    spans: list[AnnotationSpan] = []
    pos = 0

    def emit(text: str):
        nonlocal pos
        parts.append(text)
        pos += len(text)

    emit(" ".join(_sentence(rng, TITLE_WORDS, 4, 7)))
    emit("\n\n")
    for _ in range(3):
        n_sentences = int(rng.integers(2, 5))
        for s in range(n_sentences):
            if s > 0:
                emit(" ")
            words = _sentence(rng, FILLER, 3, 6)
            emit(" ".join(words).capitalize())
            if rng.random() < 0.7:
                # argumentative unit embedded mid-sentence
                emit(" ")
                unit = " ".join(_sentence(rng, UNIT_WORDS, 3, 7))
                unit_type = ("Claim", "Premise", "MajorClaim")[int(rng.integers(0, 3))]
                spans.append(AnnotationSpan(pos, pos + len(unit), unit_type))
                emit(unit)
            emit(".")
        emit("\n")
    return Essay(essay_id, "".join(parts)), spans


def toy_corpus(n_essays: int, seed: int = 0) -> list[tuple[Essay, list[AnnotationSpan]]]:
    rng = np.random.default_rng(seed)
    return [toy_essay(f"essay{k + 1:03d}", rng) for k in range(n_essays)]


def brat_lines(spans: list[AnnotationSpan], text: str) -> str:
    """Render spans in brat standoff form, plus a relation line to be ignored."""
    lines = []
    for k, span in enumerate(spans, start=1):
        surface = text[span.start : span.end]
        lines.append(f"T{k}\t{span.unit_type} {span.start} {span.end}\t{surface}")
    if len(spans) >= 2:
        lines.append("R1\tsupports Arg1:T1 Arg2:T2")
        lines.append("A1\tStance T1 For")
    return "\n".join(lines) + "\n"


def toy_vocabulary() -> list[str]:
    vocab = set(FILLER) | set(UNIT_WORDS) | set(TITLE_WORDS)
    vocab |= {w.capitalize() for w in vocab}
    vocab.add(".")
    return sorted(vocab)


def toy_glove_text(dim: int = 16, seed: int = 7) -> str:
    """A word-vector file body covering the whole toy vocabulary."""
    rng = np.random.default_rng(seed)
    lines = []
    for word in toy_vocabulary():
        vec = rng.normal(0.0, 0.5, size=dim)
        lines.append(word.lower() + " " + " ".join(f"{v:.6f}" for v in vec))
    # keep one canonical row per lowercased key
    seen = set()
    unique = []
    for line in lines:
        key = line.split(" ", 1)[0]
        if key in seen:
            continue
        seen.add(key)
        unique.append(line)
    return "\n".join(unique) + "\n"
