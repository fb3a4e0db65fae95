"""Ingestion of brat-annotated persuasive essays into BIO token sequences.

An essay arrives as a plain-text file plus a brat standoff ``.ann`` file whose
T-lines carry character-offset spans typed MajorClaim/Claim/Premise.  All
three types are collapsed into anonymous argumentative units; every token is
then labeled B (first token of a unit), I (inside a unit) or O (outside).

Sequences fed to the models are either paragraphs or sentences of an essay.
Paragraph boundaries are hard layout breaks (any newline run, so both
blank-line-separated and one-paragraph-per-line essay files work); sentence
boundaries are soft and are suppressed when they would cut through an
annotated unit.  A unit cut by a hard boundary restarts as B in the next
sequence, and the relabel is counted so conversions stay auditable.

A :class:`LabeledSequence` keeps its tokens as parallel columns (words,
start and end offsets, labels), so reading a sequence file builds no object
per token.  Its ``tokens`` view builds :class:`Token` objects on demand; the
convert-time functions (:func:`tokenize`, :func:`reconstruct`,
:func:`bio_label`) work on such ``Token`` lists.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field

from .errors import ContractViolation, CorpusIntegrityError, SplitError

UNIT_TYPES = ("MajorClaim", "Claim", "Premise")
LABELS = ("B", "I", "O")

# words are maximal alphanumeric runs, keeping internal apostrophes/hyphens
# ("state-of-the-art", "don't"); any other non-space character stands alone
_TOKEN_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*|\S")
_PARAGRAPH_BREAK_RE = re.compile(r"[\r\n]+")
_SENTENCE_END_RE = re.compile(r"[.!?](?=\s+[A-Z])")


@dataclass(frozen=True)
class Essay:
    id: str
    text: str

    def __post_init__(self):
        if not self.text:
            raise ContractViolation(f"essay {self.id!r} has empty text")


@dataclass(frozen=True)
class AnnotationSpan:
    start: int
    end: int
    unit_type: str

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise CorpusIntegrityError(
                f"span offsets must satisfy 0 <= start < end, got ({self.start}, {self.end})"
            )


@dataclass(frozen=True)
class Token:
    text: str
    start: int
    end: int


@dataclass
class LabeledSequence:
    """One model-input sequence: tokens with global offsets plus BIO labels.

    The tokens are four parallel plain lists, one entry per token: ``words``
    (the token strings), ``starts`` and ``ends`` (character offsets within
    the essay text) and ``labels``.  ``tokens`` is a read-only view that
    builds the :class:`Token` objects from the columns on each access.

    ``token_ordinal_start`` is the index of the first token within the whole
    essay's token stream; precomputed-vector stores are aligned through it.
    """

    essay_id: str
    sequence_index: int
    words: list[str]
    starts: list[int]
    ends: list[int]
    labels: list[str]
    token_ordinal_start: int = 0

    def __post_init__(self):
        if not len(self.words) == len(self.starts) == len(self.ends):
            raise ContractViolation(
                f"{self.essay_id}[{self.sequence_index}]: {len(self.words)} words vs "
                f"{len(self.starts)} starts and {len(self.ends)} ends"
            )
        if len(self.words) != len(self.labels):
            raise ContractViolation(
                f"{self.essay_id}[{self.sequence_index}]: "
                f"{len(self.words)} tokens vs {len(self.labels)} labels"
            )

    @property
    def tokens(self) -> list[Token]:
        return [Token(w, s, e) for w, s, e in zip(self.words, self.starts, self.ends)]

    def __len__(self) -> int:
        return len(self.words)


@dataclass
class ConversionStats:
    essays: int = 0
    sequences: int = 0
    boundary_relabels: int = 0
    label_counts: dict = field(default_factory=lambda: dict.fromkeys(LABELS, 0))

    def count_labels(self, labels):
        for lab in labels:
            self.label_counts[lab] += 1


def parse_brat(ann_content: str, text: str) -> list[AnnotationSpan]:
    """Extract unit spans from brat standoff content, validated against text.

    Only T-lines typed MajorClaim/Claim/Premise are kept; relations (R),
    attributes (A) and notes (#) are ignored.  Each kept span's surface string
    must equal the text slice it points at.
    """
    spans: list[AnnotationSpan] = []
    for raw in ann_content.splitlines():
        line = raw.rstrip("\r")
        if not line or not line.startswith("T"):
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            raise CorpusIntegrityError(f"malformed annotation line: {line!r}")
        head = parts[1].split()
        if not head:
            raise CorpusIntegrityError(f"malformed annotation line: {line!r}")
        unit_type = head[0]
        if unit_type not in UNIT_TYPES:
            continue
        if len(head) != 3:
            raise CorpusIntegrityError(
                f"expected '<Type> <start> <end>' in line: {line!r}"
            )
        try:
            start, end = int(head[1]), int(head[2])
        except ValueError:
            raise CorpusIntegrityError(f"non-integer offsets in line: {line!r}") from None
        if not (0 <= start < end <= len(text)):
            raise CorpusIntegrityError(
                f"offsets ({start}, {end}) out of range for text of length "
                f"{len(text)} in line: {line!r}"
            )
        surface = parts[2]
        if text[start:end] != surface:
            raise CorpusIntegrityError(
                f"surface mismatch in line {line!r}: text slice is "
                f"{text[start:end]!r}"
            )
        spans.append(AnnotationSpan(start, end, unit_type))

    spans.sort(key=lambda s: s.start)
    for a, b in zip(spans, spans[1:]):
        if a.end > b.start:
            raise CorpusIntegrityError(
                f"overlapping spans ({a.start}, {a.end}) and ({b.start}, {b.end})"
            )
    return spans


def tokenize(text: str) -> list[Token]:
    """Deterministic rule-based tokenizer with exact character offsets."""
    return [Token(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


def reconstruct(text: str, tokens: list[Token]) -> str:
    """Rebuild the text from token strings plus the gaps between offsets."""
    pieces = []
    pos = 0
    for tok in tokens:
        pieces.append(text[pos : tok.start])
        pieces.append(tok.text)
        pos = tok.end
    pieces.append(text[pos:])
    return "".join(pieces)


def bio_label(tokens: list[Token], spans: list[AnnotationSpan]) -> list[str]:
    """Label each token: B at a unit's first token, I inside, O elsewhere.

    A token counts as inside a unit if it overlaps the span by at least one
    character.  A token overlapping two spans breaks the non-overlap
    precondition and raises.
    """
    labels = ["O"] * len(tokens)
    owner = [-1] * len(tokens)
    ordered = sorted(spans, key=lambda s: s.start)
    ti = 0
    for si, span in enumerate(ordered):
        while ti < len(tokens) and tokens[ti].end <= span.start:
            ti += 1
        first = True
        tj = ti
        while tj < len(tokens) and tokens[tj].start < span.end:
            if owner[tj] != -1:
                raise CorpusIntegrityError(
                    f"token {tokens[tj].text!r} at ({tokens[tj].start}, "
                    f"{tokens[tj].end}) overlaps two annotation spans"
                )
            owner[tj] = si
            labels[tj] = "B" if first else "I"
            first = False
            tj += 1
    return labels


def spans_from_labels(labels: list[str]) -> list[tuple[int, int]]:
    """Recover unit token ranges [first, last] from a BIO labeling."""
    units = []
    start = None
    for idx, lab in enumerate(labels):
        if lab == "B":
            if start is not None:
                units.append((start, idx - 1))
            start = idx
        elif lab == "I":
            if start is None:
                raise ContractViolation(f"I without a preceding B at token {idx}")
        else:
            if start is not None:
                units.append((start, idx - 1))
                start = None
    if start is not None:
        units.append((start, len(labels) - 1))
    return units


def _paragraph_bounds(text: str) -> list[tuple[int, int]]:
    bounds = []
    pos = 0
    for m in _PARAGRAPH_BREAK_RE.finditer(text):
        bounds.append((pos, m.start()))
        pos = m.end()
    bounds.append((pos, len(text)))
    return [(s, e) for s, e in bounds if e > s]


def _sentence_points(text: str, spans: list[AnnotationSpan]) -> list[int]:
    points = []
    for m in _SENTENCE_END_RE.finditer(text):
        p = m.start() + 1
        if any(sp.start < p < sp.end for sp in spans):
            continue  # never cut a unit at a sentence boundary
        points.append(p)
    return points


def build_sequences(
    essay: Essay,
    spans: list[AnnotationSpan],
    granularity: str = "paragraph",
    stats: ConversionStats | None = None,
) -> list[LabeledSequence]:
    """Split one essay into labeled sequences at the requested granularity.

    Tokens keep their global character offsets and the sequences form an
    ordered disjoint cover of the essay's tokens.  A sequence that starts in
    the middle of a unit (possible only at hard paragraph breaks) has its
    initial I relabeled to B.
    """
    if granularity not in ("paragraph", "sentence"):
        raise ContractViolation(f"unknown granularity {granularity!r}")
    tokens = tokenize(essay.text)
    labels = bio_label(tokens, spans)

    segments = _paragraph_bounds(essay.text)
    if granularity == "sentence":
        points = _sentence_points(essay.text, spans)
        refined = []
        for seg_start, seg_end in segments:
            cursor = seg_start
            for p in points:
                if seg_start < p < seg_end:
                    refined.append((cursor, p))
                    cursor = p
            refined.append((cursor, seg_end))
        segments = refined

    sequences: list[LabeledSequence] = []
    ti = 0
    ordinal = 0
    for seg_start, seg_end in segments:
        while ti < len(tokens) and tokens[ti].start < seg_start:
            ti += 1
        tj = ti
        while tj < len(tokens) and tokens[tj].start < seg_end:
            tj += 1
        if tj == ti:
            continue
        seq_tokens = tokens[ti:tj]
        seq_labels = labels[ti:tj]
        if seq_labels[0] == "I":
            seq_labels[0] = "B"
            if stats is not None:
                stats.boundary_relabels += 1
        sequences.append(LabeledSequence(
            essay.id, len(sequences), [tok.text for tok in seq_tokens],
            [tok.start for tok in seq_tokens], [tok.end for tok in seq_tokens],
            seq_labels, ordinal,
        ))
        ordinal += len(seq_tokens)
        ti = tj

    if stats is not None:
        stats.essays += 1
        stats.sequences += len(sequences)
        for seq in sequences:
            stats.count_labels(seq.labels)
    return sequences


# ---------------------------------------------------------------------------
# Train/test split
# ---------------------------------------------------------------------------


def load_split(csv_content: str, known_ids=None) -> dict[str, str]:
    """Parse the corpus' split file (``;``-separated, header ``ID;SET``) into
    essay id -> "train" | "test".

    With ``known_ids`` given, the split must cover exactly those essays.
    """
    reader = csv.reader(io.StringIO(csv_content, newline=None), delimiter=";")
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise SplitError(f"split file line {reader.line_num}: {exc}") from None
    if not rows:
        raise SplitError("split file is empty")
    header = [c.strip().upper() for c in rows[0]]
    if header != ["ID", "SET"]:
        raise SplitError(f"expected header ID;SET, got {rows[0]!r}")
    assignment: dict[str, str] = {}
    for row in rows[1:]:
        if len(row) != 2:
            raise SplitError(f"expected two columns, got {row!r}")
        essay_id, part = row[0].strip(), row[1].strip().upper()
        if part not in ("TRAIN", "TEST"):
            raise SplitError(f"unknown set {row[1]!r} for essay {essay_id}")
        if essay_id in assignment:
            raise SplitError(f"duplicate essay id {essay_id!r} in split file")
        assignment[essay_id] = part.lower()
    if known_ids is not None:
        known = set(known_ids)
        unknown = sorted(set(assignment) - known)
        if unknown:
            raise SplitError(f"split names unknown essays: {unknown[:5]}")
        missing = sorted(known - set(assignment))
        if missing:
            raise SplitError(f"split misses essays: {missing[:5]}")
    return assignment


# ---------------------------------------------------------------------------
# CoNLL-style sequence files
# ---------------------------------------------------------------------------


def write_conll(sequences: list[LabeledSequence], fh):
    """One token per line: token, essay id, sequence index, start, end, label.

    Sequences are separated by blank lines.
    """
    first = True
    for seq in sequences:
        if not first:
            fh.write("\n")
        first = False
        for word, start, end, lab in zip(seq.words, seq.starts, seq.ends, seq.labels):
            fh.write(
                f"{word}\t{seq.essay_id}\t{seq.sequence_index}\t"
                f"{start}\t{end}\t{lab}\n"
            )


def read_conll(fh) -> list[LabeledSequence]:
    """Inverse of :func:`write_conll`; restores per-essay token ordinals.

    Each essay's sequence indices must run 0, 1, ... in file order, as
    ``write_conll`` writes ``build_sequences`` output, since the ordinals
    follow file order.
    """
    sequences: list[LabeledSequence] = []
    ordinals: dict[str, int] = {}
    counts: dict[str, int] = {}  # sequences read so far, per essay
    words: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    labels: list[str] = []
    meta: tuple[str, int] | None = None

    def flush():
        nonlocal words, starts, ends, labels, meta
        if not words:
            return
        essay_id, seq_idx = meta
        start = ordinals.get(essay_id, 0)
        sequences.append(LabeledSequence(essay_id, seq_idx, words, starts, ends, labels, start))
        ordinals[essay_id] = start + len(words)
        counts[essay_id] = seq_idx + 1
        words, starts, ends, labels, meta = [], [], [], [], None

    for lineno, raw in enumerate(fh, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            flush()
            continue
        cols = line.split("\t")
        if len(cols) != 6:
            raise CorpusIntegrityError(
                f"line {lineno}: expected 6 tab-separated columns, got {len(cols)}"
            )
        text, essay_id, seq_idx, start, end, label = cols
        if label not in LABELS:
            raise CorpusIntegrityError(f"line {lineno}: unknown label {label!r}")
        try:
            seq_idx, start, end = int(seq_idx), int(start), int(end)
        except ValueError:
            raise CorpusIntegrityError(
                f"line {lineno}: sequence index, start and end must be integers, "
                f"got {seq_idx!r}, {start!r}, {end!r}"
            ) from None
        if start < 0 or end <= start:  # offsets feed span reconstruction
            raise CorpusIntegrityError(
                f"line {lineno}: token offsets must satisfy 0 <= start < end, "
                f"got start {start} and end {end}"
            )
        if meta is None:
            expected = counts.get(essay_id, 0)
            if seq_idx != expected:  # the ordinals would pair the wrong vectors
                raise CorpusIntegrityError(
                    f"line {lineno}: essay {essay_id!r} has sequence index {seq_idx} where "
                    f"{expected} is next (each essay's sequences are numbered 0, 1, ... "
                    "in file order)"
                )
            meta = (essay_id, seq_idx)
        elif meta != (essay_id, seq_idx):
            raise CorpusIntegrityError(
                f"line {lineno}: sequence changed id without a blank separator"
            )
        words.append(text)
        starts.append(start)
        ends.append(end)
        labels.append(label)
    flush()
    return sequences
