"""Per-token input vectors: GloVe-style tables, precomputed stores, stacking.

Two source kinds exist, and each builds a sequence's rows in one array
operation.  A text table is one matrix whose last row is all zeros: its keys
and every query are lowercased, out-of-vocabulary words take the zero row,
and the miss rate is reported per run rather than aborting anything.  A precomputed store ships
contextual vectors generated elsewhere, keyed by (essay id, sentence index,
token index); it serves a sequence as one slice of the essay's read-only
matrix, found through per-essay token ordinals, which line up with any
sequence granularity because sentence and paragraph decompositions enumerate
an essay's tokens in the same order.

An embedding spec stacks one or more sources in a fixed order; the declared
total dimension must match the sum of the source dimensions exactly.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import LabeledSequence
from .errors import ConfigurationError, CoverageError, FormatError

STORE_MAGIC = b"ARGSEGPV"
STORE_VERSION = 1


# ---------------------------------------------------------------------------
# Word-vector tables
# ---------------------------------------------------------------------------


class EmbeddingTable:
    """Vocabulary -> vector table held as one (V + 1, dim) matrix plus an index;
    the last row, all zeros, is the row of every word the index lacks."""

    def __init__(self, dim: int, vectors: np.ndarray, index: dict[str, int],
                 duplicates_skipped: int = 0):
        self.dim = dim
        self.vectors = vectors
        self.index = index
        self.duplicates_skipped = duplicates_skipped

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.index

    def lookup(self, words: list[str]) -> np.ndarray:
        """(len(words), dim) rows in one take; words are lowercased first, and
        unknown words get the zero row."""
        oov = len(self.index)
        return self.vectors[[self.index.get(w.lower(), oov) for w in words]]


def load_glove(content) -> EmbeddingTable:
    """Parse whitespace-separated ``word v1 ... vd`` lines into a table.

    ``content`` may be a string or an iterable of lines.  The first line fixes
    the dimension; any line disagreeing, or holding a value that is not a
    finite number, raises with its line number.  Words are lowercased, as
    lookups are; when a lowercased word repeats, the first occurrence wins and
    each later one is counted in ``duplicates_skipped``.
    """
    if isinstance(content, str):
        lines = content.splitlines()
    else:
        lines = content
    dim = None
    rows: list[np.ndarray] = []
    index: dict[str, int] = {}
    duplicates = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        word, values = parts[0].lower(), parts[1:]
        if dim is None:
            if not values:
                raise FormatError(f"line {lineno}: no vector values")
            dim = len(values)
        elif len(values) != dim:
            raise FormatError(
                f"line {lineno}: expected {dim} values, got {len(values)}"
            )
        if word in index:
            duplicates += 1
            continue
        try:
            vec = np.array(values, dtype=np.float64)
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric vector value") from None
        if not np.isfinite(vec).all():
            raise FormatError(f"line {lineno}: non-finite vector value")
        index[word] = len(rows)
        rows.append(vec)
    if dim is None:
        raise FormatError("embedding table is empty")
    rows.append(np.zeros(dim))  # the out-of-vocabulary row
    return EmbeddingTable(dim, np.vstack(rows), index, duplicates_skipped=duplicates)


def load_glove_file(path) -> EmbeddingTable:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return load_glove(fh)
        except UnicodeDecodeError:
            raise FormatError(f"embedding table {path} is not UTF-8 text") from None


def oov_statistics(table: EmbeddingTable, sequences: list[LabeledSequence]):
    """(misses, total) over every token of the given sequences."""
    words = [tok.text for seq in sequences for tok in seq.tokens]
    return sum(word not in table for word in words), len(words)


# ---------------------------------------------------------------------------
# Precomputed contextual vectors
# ---------------------------------------------------------------------------

# binary layout, all little-endian:
#   magic(8) | version u32 | dim u32 | count u64
#   count records: id_len u32, id bytes (UTF-8), sentence u32, token u32,
#                  dim float64 values
#   crc32 u32 over everything between the header and the checksum


class PrecomputedStore:
    """Contextual vectors for every token of the essays it covers.

    Per essay, records must tile the token stream: sentence indices start at
    0 and are consecutive, token indices within each sentence likewise.  That
    guarantee makes the ordinal view (`rows`) unambiguous.  Each essay's
    vectors are one read-only matrix in key order, kept with the essay's last
    (sentence, token) key.
    """

    def __init__(self, dim: int, essays: dict[str, tuple[tuple[int, int], np.ndarray]]):
        self.dim = dim
        self._essays = essays

    def __len__(self) -> int:
        return sum(m.shape[0] for _, m in self._essays.values())

    def essay_ids(self) -> list[str]:
        return sorted(self._essays)

    def rows(self, essay_id: str, start: int, count: int) -> np.ndarray:
        """The vectors of token ordinals ``start .. start + count - 1``, as one
        read-only (count, dim) view of the essay's matrix."""
        entry = self._essays.get(essay_id)
        if entry is None:
            raise CoverageError(f"store has no vectors for essay {essay_id!r}")
        (last_sent, last_tok), matrix = entry
        if start + count > len(matrix):
            raise CoverageError(
                f"essay {essay_id!r}: token ordinal {max(start, len(matrix))} is not covered "
                f"(store ends at sentence {last_sent}, token {last_tok})"
            )
        return matrix[start : start + count]


def _validate_contiguous(essay_id: str, keys: list[tuple[int, int]]):
    expected_sentence = 0
    expected_token = 0
    for sent, tok in keys:
        if sent == expected_sentence and tok == expected_token:
            expected_token += 1
            continue
        if sent == expected_sentence + 1 and tok == 0 and expected_token > 0:
            expected_sentence += 1
            expected_token = 1
            continue
        raise FormatError(
            f"essay {essay_id!r}: vector keys are not contiguous at "
            f"sentence {sent}, token {tok}"
        )


def write_precomputed(fh, dim: int, records):
    """Serialize (essay_id, sentence, token, vector) records with a CRC32."""
    payload = bytearray()
    count = 0
    for essay_id, sentence, token, vec in records:
        vec = np.ascontiguousarray(vec, dtype="<f8")
        if vec.shape != (dim,):
            raise FormatError(
                f"vector for ({essay_id}, {sentence}, {token}) has shape "
                f"{vec.shape}, expected ({dim},)"
            )
        ident = essay_id.encode("utf-8")
        payload += struct.pack("<I", len(ident))
        payload += ident
        payload += struct.pack("<II", sentence, token)
        payload += vec.tobytes()
        count += 1
    body = bytes(payload)
    fh.write(STORE_MAGIC)
    fh.write(struct.pack("<IIQ", STORE_VERSION, dim, count))
    fh.write(body)
    fh.write(struct.pack("<I", zlib.crc32(body)))


def load_precomputed(data: bytes) -> PrecomputedStore:
    """Parse and verify a store blob; any corruption raises a format error."""
    header = struct.calcsize("<IIQ")
    if len(data) < len(STORE_MAGIC) + header + 4:
        raise FormatError("precomputed store is truncated (no complete header)")
    if data[: len(STORE_MAGIC)] != STORE_MAGIC:
        raise FormatError("not a precomputed vector store (bad magic)")
    version, dim, count = struct.unpack_from("<IIQ", data, len(STORE_MAGIC))
    if version != STORE_VERSION:
        raise FormatError(f"unsupported store version {version}")
    if dim < 1:
        raise FormatError(f"store declares non-positive dimension {dim}")
    payload = data[len(STORE_MAGIC) + header : -4]
    (crc_stored,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(payload) != crc_stored:
        raise FormatError("store checksum mismatch; payload is corrupted")

    raw: dict[str, list[tuple[int, int, np.ndarray]]] = {}
    pos = 0
    vec_bytes = dim * 8
    for _ in range(count):
        if pos + 4 > len(payload):
            raise FormatError("store payload is truncated inside a record")
        (id_len,) = struct.unpack_from("<I", payload, pos)
        pos += 4
        end = pos + id_len + 8 + vec_bytes
        if end > len(payload):
            raise FormatError("store payload is truncated inside a record")
        try:
            essay_id = payload[pos : pos + id_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"store essay id at payload byte {pos} is not UTF-8") from None
        pos += id_len
        sentence, token = struct.unpack_from("<II", payload, pos)
        pos += 8
        vec = np.frombuffer(payload, dtype="<f8", count=dim, offset=pos).copy()
        pos += vec_bytes
        raw.setdefault(essay_id, []).append((sentence, token, vec))
    if pos != len(payload):
        raise FormatError("store payload has trailing bytes after the last record")

    essays: dict[str, tuple[tuple[int, int], np.ndarray]] = {}
    for essay_id, entries in raw.items():
        entries.sort(key=lambda e: (e[0], e[1]))
        keys = [(s, t) for s, t, _ in entries]
        if len(set(keys)) != len(keys):
            raise FormatError(f"essay {essay_id!r}: duplicate vector keys")
        _validate_contiguous(essay_id, keys)
        matrix = np.vstack([v for _, _, v in entries])
        bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
        if bad.size:
            sentence, token = keys[bad[0]]
            raise FormatError(f"essay {essay_id!r}: non-finite vector value at "
                              f"sentence {sentence}, token {token}")
        matrix.flags.writeable = False  # rows() hands out views of it
        essays[essay_id] = (keys[-1], matrix)
    return PrecomputedStore(dim, essays)


def load_precomputed_file(path) -> PrecomputedStore:
    with open(path, "rb") as fh:
        return load_precomputed(fh.read())


# ---------------------------------------------------------------------------
# Stacked embedding specs
# ---------------------------------------------------------------------------


@dataclass
class GloveSource:
    table: EmbeddingTable

    @property
    def dim(self) -> int:
        return self.table.dim

    def rows(self, seq: LabeledSequence) -> np.ndarray:
        return self.table.lookup([tok.text for tok in seq.tokens])


@dataclass
class PrecomputedSource:
    store: PrecomputedStore

    @property
    def dim(self) -> int:
        return self.store.dim

    def rows(self, seq: LabeledSequence) -> np.ndarray:
        return self.store.rows(seq.essay_id, seq.token_ordinal_start, len(seq))


class EmbeddingSpec:
    """An ordered stack of sources with a declared (and enforced) total dim."""

    def __init__(self, sources: list, expected_dim: int, label: str = ""):
        if not sources:
            raise ConfigurationError("embedding spec needs at least one source")
        total = sum(s.dim for s in sources)
        if total != expected_dim:
            raise ConfigurationError(
                f"declared embedding dim {expected_dim} != sum of source dims {total}"
            )
        self.sources = list(sources)
        self.expected_dim = expected_dim
        self.label = label or "+".join(
            f"{'glove' if isinstance(s, GloveSource) else 'precomputed'}{s.dim}"
            for s in sources
        )

    @classmethod
    def from_file(cls, path) -> "EmbeddingSpec":
        """Load a JSON spec: {"expected_dim": d, "sources": [{kind, path}, ...]}.

        Source paths are resolved relative to the spec file's directory.
        """
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # bad JSON or not UTF-8
            raise FormatError(f"embedding spec {path}: invalid JSON ({exc})") from exc
        try:
            expected = doc["expected_dim"]
            entries = doc["sources"]
        except (KeyError, TypeError) as exc:
            raise FormatError(
                f"embedding spec {path}: needs expected_dim and sources"
            ) from exc
        if type(expected) is not int or expected < 1:
            raise FormatError(f"embedding spec {path}: expected_dim must be an integer >= 1, "
                              f"got {expected!r}")
        label = doc.get("label", path.stem)
        if not isinstance(label, str) or any(c in label for c in ",\r\n"):
            raise FormatError(f"embedding spec {path}: label must be a string without commas "
                              f"or line breaks (it is a results.csv field), got {label!r}")
        if not isinstance(entries, list) or not all(
                isinstance(e, dict) and isinstance(e.get("path"), str) for e in entries):
            raise FormatError(f"embedding spec {path}: sources must be objects with a string path")
        sources = []
        for entry in entries:
            kind = entry.get("kind")
            src_path = path.parent / entry["path"]
            if kind == "glove":
                sources.append(GloveSource(load_glove_file(src_path)))
            elif kind == "precomputed":
                sources.append(PrecomputedSource(load_precomputed_file(src_path)))
            else:
                raise FormatError(
                    f"embedding spec {path}: unknown source kind {kind!r}"
                )
        return cls(sources, expected, label=label)

    def vectorize(self, seq: LabeledSequence) -> np.ndarray:
        """(len(seq), expected_dim) matrix: sources concatenated in order; a
        lone precomputed source gives a read-only view of the store."""
        parts = [src.rows(seq) for src in self.sources]
        out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        return np.ascontiguousarray(out, dtype=np.float64)
