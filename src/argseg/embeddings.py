"""Per-token input vectors: GloVe-style tables, precomputed stores, stacking.

Two source kinds exist, and each builds a sequence's rows in one array
operation.  A text table is one matrix whose last row is all zeros: its keys
and every query are lowercased, out-of-vocabulary words take the zero row,
and the miss rate is reported per run rather than aborting anything.  A precomputed store ships
contextual vectors generated elsewhere, keyed by (essay id, sentence index,
token index); it serves a sequence as one slice of the essay's read-only
matrix, found through per-essay token ordinals, which line up with any
sequence granularity because sentence and paragraph decompositions enumerate
an essay's tokens in the same order.  A store file is read once into one
buffer and checked with array operations over it; an essay whose records sit
together in key order is a strided view into that buffer, not a copy.

An embedding spec stacks one or more sources in a fixed order; the declared
total dimension must match the sum of the source dimensions exactly.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import LabeledSequence
from .errors import ConfigurationError, CoverageError, FormatError

STORE_MAGIC = b"ARGSEGPV"
STORE_VERSION = 1
_HEADER = struct.Struct("<IIQ")  # version, dim, record count; follows the magic


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
    vectors are one read-only (tokens, dim) matrix in key order, kept with
    the essay's last (sentence, token) key.  An essay whose records form one
    run in key order is a strided view into the loaded buffer, with no copy;
    an interleaved or out-of-order essay is gathered into a matrix of its own.
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


def write_precomputed(fh, dim: int, records):
    """Stream (essay_id, sentence, token, vector) records into ``fh`` with a CRC32.

    One record is in memory at a time, and the CRC runs over the records as
    they are written.  ``fh`` must be seekable: the header goes out with a
    record count of 0, which is patched once the records are written, and
    ``fh`` is then left at the end of the store.  A vector of the wrong shape
    raises ``FormatError`` and leaves an incomplete store behind.
    """
    start = fh.tell()
    fh.write(STORE_MAGIC + _HEADER.pack(STORE_VERSION, dim, 0))
    crc = count = 0
    for essay_id, sentence, token, vec in records:
        vec = np.ascontiguousarray(vec, dtype="<f8")
        if vec.shape != (dim,):
            raise FormatError(
                f"vector for ({essay_id}, {sentence}, {token}) has shape "
                f"{vec.shape}, expected ({dim},)"
            )
        ident = essay_id.encode("utf-8")
        record = (struct.pack("<I", len(ident)) + ident + struct.pack("<II", sentence, token)
                  + vec.tobytes())
        crc = zlib.crc32(record, crc)
        fh.write(record)
        count += 1
    fh.write(struct.pack("<I", crc))
    end = fh.tell()
    fh.seek(start + len(STORE_MAGIC))
    fh.write(_HEADER.pack(STORE_VERSION, dim, count))
    fh.seek(end)


def load_precomputed(data) -> PrecomputedStore:
    """Parse and verify a store held in any bytes-like object; any corruption
    raises a format error.

    Nothing is copied up front: the CRC runs over a view of ``data``, and an
    essay whose records form one run in key order is served as a read-only
    strided view of it, so ``data`` must not change while the store is used.
    """
    view = memoryview(data).cast("B")
    start = len(STORE_MAGIC) + _HEADER.size
    if len(view) < start + 4:
        raise FormatError("precomputed store is truncated (no complete header)")
    if view[: len(STORE_MAGIC)] != STORE_MAGIC:
        raise FormatError("not a precomputed vector store (bad magic)")
    version, dim, count = _HEADER.unpack_from(view, len(STORE_MAGIC))
    if version != STORE_VERSION:
        raise FormatError(f"unsupported store version {version}")
    if dim < 1:
        raise FormatError(f"store declares non-positive dimension {dim}")
    payload = view[start:-4]
    (crc_stored,) = struct.unpack_from("<I", view, len(view) - 4)
    if zlib.crc32(payload) != crc_stored:
        raise FormatError("store checksum mismatch; payload is corrupted")
    runs = _scan_runs(payload, dim, count)
    return PrecomputedStore(dim, {essay_id: _essay_matrix(essay_id, parts)
                                  for essay_id, parts in runs.items()})


def _scan_runs(payload: memoryview, dim: int, count: int) -> dict[str, list[np.ndarray]]:
    """Each essay's runs of consecutive records, in record order.

    Records with the same id have the same length, so a run is one
    structured array over ``payload`` with fields ``head`` (id length and id
    bytes), ``key`` (sentence, token) and ``vec``.  It ends at the first
    record whose head differs, so the record boundaries, and the errors, are
    those of reading the records one by one.
    """
    runs: dict[str, list[np.ndarray]] = {}
    layouts: dict[int, np.dtype] = {}  # record dtype by id length
    pos = 0
    while count:
        if pos + 4 > len(payload):
            raise FormatError("store payload is truncated inside a record")
        (id_len,) = struct.unpack_from("<I", payload, pos)
        stride = 4 + id_len + 8 + 8 * dim
        if pos + stride > len(payload):  # before any dtype of that size exists
            raise FormatError("store payload is truncated inside a record")
        try:
            essay_id = bytes(payload[pos + 4 : pos + 4 + id_len]).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"store essay id at payload byte {pos + 4} is not UTF-8") from None
        if id_len not in layouts:
            layouts[id_len] = np.dtype([("head", "u1", (4 + id_len,)), ("key", "<u4", (2,)),
                                        ("vec", "<f8", (dim,))])
        records = np.frombuffer(payload, layouts[id_len], offset=pos,
                                count=min(count, (len(payload) - pos) // stride))
        n = _leading_equal(records["head"])
        runs.setdefault(essay_id, []).append(records[:n])
        pos += n * stride
        count -= n
    if pos != len(payload):
        raise FormatError("store payload has trailing bytes after the last record")
    return runs


def _leading_equal(rows: np.ndarray) -> int:
    """How many leading rows equal the first.  The second row is compared on
    its own, which settles the runs of one record that an interleaved store
    is made of, then probes of 64, 128, 256, ... rows, so that the work grows
    with the answer, not with ``len(rows)``."""
    if len(rows) == 1 or rows[1].tobytes() != rows[0].tobytes():
        return 1
    lo, probe = 2, 64
    while lo < len(rows):
        hi = min(lo + probe, len(rows))
        differ = np.flatnonzero((rows[lo:hi] != rows[0]).any(axis=1))
        if differ.size:
            return lo + int(differ[0])
        lo, probe = hi, 2 * probe
    return len(rows)


def _first_gap(keys: np.ndarray) -> int | None:
    """Index of the first (sentence, token) key that breaks the tiling
    (0, 0), (0, 1), ..., (1, 0), ...: each key must follow the one before in
    its sentence or start the next sentence at token 0."""
    sent, tok = keys[:, 0], keys[:, 1]
    follows = np.empty(len(keys), dtype=bool)
    follows[0] = sent[0] == 0 and tok[0] == 0
    follows[1:] = (((sent[1:] == sent[:-1]) & (tok[1:] == tok[:-1] + 1))
                   | ((sent[1:] == sent[:-1] + 1) & (tok[1:] == 0)))
    gaps = np.flatnonzero(~follows)
    return int(gaps[0]) if gaps.size else None


def _essay_matrix(essay_id: str, runs: list[np.ndarray]) -> tuple[tuple[int, int], np.ndarray]:
    """The essay's last key and read-only matrix in key order, checked for
    duplicate keys, then for gaps, then for non-finite values."""
    keys = np.concatenate([run["key"] for run in runs]).astype(np.int64)
    if len(runs) == 1 and _first_gap(keys) is None:
        matrix = runs[0]["vec"]  # already in key order: a view, no copy
    else:
        order = np.lexsort((keys[:, 1], keys[:, 0]))
        keys = keys[order]
        if (keys[1:] == keys[:-1]).all(axis=1).any():
            raise FormatError(f"essay {essay_id!r}: duplicate vector keys")
        gap = _first_gap(keys)
        if gap is not None:
            sentence, token = keys[gap]
            raise FormatError(f"essay {essay_id!r}: vector keys are not contiguous at "
                              f"sentence {sentence}, token {token}")
        matrix = np.concatenate([run["vec"] for run in runs])[order]
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        sentence, token = keys[bad[0]]
        raise FormatError(f"essay {essay_id!r}: non-finite vector value at "
                          f"sentence {sentence}, token {token}")
    matrix.flags.writeable = False  # rows() hands out views of it
    return (int(keys[-1, 0]), int(keys[-1, 1])), matrix


def load_precomputed_file(path) -> PrecomputedStore:
    """Read a store file with one ``readinto`` into one buffer, which the
    loaded store's per-essay views then share.  The buffer is sized by
    ``fstat``, so ``path`` must name a regular file, not a pipe."""
    with open(path, "rb") as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        size = fh.readinto(buf)
    return load_precomputed(buf[:size])


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
        """(len(seq), expected_dim) float64 rows: sources concatenated in order; a
        lone precomputed source gives its read-only view of the store, uncopied
        and possibly strided (``BatchTensor.from_rows`` concatenates it)."""
        parts = [src.rows(seq) for src in self.sources]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
