"""Per-token input vectors: GloVe-style tables, precomputed stores, stacking.

The two sources are an ``EmbeddingTable`` and a ``PrecomputedStore``.  Each
has a ``dim`` and a ``write_rows`` that writes the rows of a batch's
sequences straight into its columns of one (tokens, dim) array that the
caller allocates: a table in one gather, a store one read of each
covering run of records at a time.  A text table is one matrix whose last
row is all zeros: its keys and every query are lowercased, out-of-vocabulary
words take the zero row, and the miss rate is reported per run rather than
aborting anything.  A precomputed store ships contextual vectors generated
elsewhere, keyed by (essay id, sentence index, token index); it serves a
sequence as one slice of the essay's token stream, found through per-essay
token ordinals, which line up with any sequence granularity because sentence
and paragraph decompositions enumerate an essay's tokens in the same order.
A store is always a file, verified in one streaming pass of fixed-size reads
that keeps only an index of record offsets; each sequence's records are then
read from the file into one reused buffer when its batch is built and copied
into the batch's rows, so memory holds the index, that buffer and one
batch's rows, not the file.

An embedding spec stacks one or more sources in a fixed order; the declared
total dimension must match the sum of the source dimensions exactly.  It
builds each batch (``EmbeddingSpec.batch``); when every source is a table,
the batch carries its distinct words' rows, which the first layer's input
projections multiply in place of every token's row.  Every source notes, as
it is loaded, the vectors holding a value that float32 cannot hold, so that
a float32 run names such a vector before it starts (``check_coverage``).
"""

from __future__ import annotations

import json
import os
import struct
import weakref
import zlib
from dataclasses import dataclass
from itertools import chain, count
from pathlib import Path

import numpy as np

from .corpus import LabeledSequence
from .errors import ConfigurationError, CoverageError, FormatError, NumericError
from .numeric import BatchTensor

STORE_MAGIC = b"ARGSEGPV"
STORE_VERSION = 1
_HEADER = struct.Struct("<IIQ")  # version, dim, record count; follows the magic


# ---------------------------------------------------------------------------
# Word-vector tables
# ---------------------------------------------------------------------------


class EmbeddingTable:
    """Vocabulary -> vector table held as one (V + 1, dim) matrix plus an index;
    the last row, all zeros, is the row of every word the index lacks.
    ``beyond_float32`` holds the words whose vectors hold a value that
    rounds to inf in float32."""

    def __init__(self, vectors: np.ndarray, index: dict[str, int], duplicates_skipped: int = 0):
        self.dim = vectors.shape[1]
        self.vectors = vectors
        self.index = index
        self.duplicates_skipped = duplicates_skipped
        # each row's largest magnitude, by two reductions: no temporary the
        # size of the table
        peak = np.maximum(vectors.max(axis=1, initial=0.0), -vectors.min(axis=1, initial=0.0))
        with np.errstate(over="ignore"):  # a value float32 cannot hold becomes inf
            wide = np.isinf(peak.astype(np.float32))
        self.beyond_float32 = set()
        if wide.any():
            self.beyond_float32 = {word for word, row in index.items() if wide[row]}

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.index

    def check_float32(self, seq: LabeledSequence):
        """Raise ``NumericError`` naming the first word of ``seq`` in
        ``beyond_float32``."""
        for i, word in enumerate(seq.words):
            if word.lower() in self.beyond_float32:
                raise NumericError(f"the vector of word {word.lower()!r} holds a value beyond "
                                   f"float32's range (essay {seq.essay_id!r}, sequence "
                                   f"{seq.sequence_index}, token {i})")

    def write_rows(self, sequences: list[LabeledSequence], out: np.ndarray):
        """Write the sequences' rows, one after another, into ``out``, a
        (tokens, dim) float array, in one gather; words are lowercased
        first, and unknown words get the zero row."""
        self.write_keys((word.lower() for seq in sequences for word in seq.words), out)

    def write_keys(self, keys, out: np.ndarray):
        """Write the rows of lowercased ``keys`` into ``out``, a (keys, dim)
        float array, in one gather; unknown keys get the zero row.  The
        table's float64 rows are cast to ``out``'s dtype as they are written."""
        oov = len(self.index)
        # gathered, then written: np.take into an ``out`` of another dtype
        # casts through a buffer, and was seen to warn of invalid values there
        out[...] = self.vectors[[self.index.get(key, oov) for key in keys]]


def load_glove(content) -> EmbeddingTable:
    """Parse whitespace-separated ``word v1 ... vd`` lines into a table.

    ``content`` may be a string or an iterable of lines.  The first line fixes
    the dimension; any line disagreeing, or holding a value that is not a
    finite number, raises with its line number.  Words are lowercased, as
    queries are; when a lowercased word repeats, the first occurrence wins and
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
    return EmbeddingTable(np.vstack(rows), index, duplicates_skipped=duplicates)


def load_glove_file(path) -> EmbeddingTable:
    with open(path, "r", encoding="utf-8-sig") as fh:  # drops a leading BOM
        try:
            return load_glove(fh)
        except UnicodeDecodeError:
            raise FormatError(f"embedding table {path} is not UTF-8 text") from None


def oov_statistics(table: EmbeddingTable, sequences: list[LabeledSequence]):
    """(misses, total) over every token of the given sequences."""
    words = [word for seq in sequences for word in seq.words]
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
    """Contextual vectors for every token of the essays it covers, read from
    the store file when asked for.

    Per essay, records must tile the token stream: sentence indices start at
    0 and are consecutive, token indices within each sentence likewise.  That
    guarantee makes the ordinal view (`rows`) unambiguous.  The store keeps
    no vector: each essay is an index of its records' offsets in key order,
    as runs of records that lie next to each other in the file, plus the
    essay's last (sentence, token) key.  An essay whose records sit together
    in key order is one run.  ``beyond_float32`` maps each essay with vectors
    holding a value that rounds to inf in float32 to their token ordinals
    and keys.
    """

    def __init__(self, dim: int, essays: dict[str, "_EssayIndex"], reader):
        self.dim = dim
        self._essays = essays
        self._reader = reader
        self.beyond_float32 = {essay_id: essay.beyond_float32
                               for essay_id, essay in essays.items() if essay.beyond_float32}

    def __len__(self) -> int:
        return sum(essay.length for essay in self._essays.values())

    def essay_ids(self) -> list[str]:
        return sorted(self._essays)

    def locate(self, essay_id: str, start: int, count: int) -> "_EssayIndex":
        """The index of an essay that covers token ordinals ``start .. start +
        count - 1``; reads nothing, and raises ``CoverageError`` otherwise."""
        essay = self._essays.get(essay_id)
        if essay is None:
            raise CoverageError(f"store has no vectors for essay {essay_id!r}")
        if start + count > essay.length:
            last_sent, last_tok = essay.last
            raise CoverageError(
                f"essay {essay_id!r}: token ordinal {max(start, essay.length)} is not covered "
                f"(store ends at sentence {last_sent}, token {last_tok})"
            )
        return essay

    def rows(self, essay_id: str, start: int, out: np.ndarray):
        """Read the vectors of token ordinals ``start .. start + len(out) - 1``
        into ``out``, a (count, dim) float array that may be strided, such as
        a batch's columns; the stored float64 values are cast to its dtype.

        Each run of records that lie together is read in pieces of at most
        ``_CHUNK`` bytes (or one record) into the reader's one reused buffer,
        and the pieces' ``vec`` fields are copied into place.  A store file
        that changed since the load, or that reads short, raises
        ``FormatError`` naming the essay.
        """
        essay = self.locate(essay_id, start, len(out))
        stride = essay.layout.itemsize
        per_read = max(1, _CHUNK // stride)
        bounds = essay.run_bounds
        run = int(np.searchsorted(bounds, start, side="right")) - 1
        ordinal, stop = start, start + len(out)
        while ordinal < stop:
            n = min(stop, int(bounds[run + 1]), ordinal + per_read) - ordinal
            offset = int(essay.run_offset[run]) + (ordinal - int(bounds[run])) * stride
            data = self._reader.read(offset, n * stride, f"essay {essay_id!r}: ")
            out[ordinal - start : ordinal - start + n] = np.frombuffer(data, essay.layout)["vec"]
            ordinal += n
            if ordinal == bounds[run + 1]:
                run += 1

    def check_float32(self, seq: LabeledSequence):
        """Raise ``NumericError`` naming the first token of ``seq`` in
        ``beyond_float32``."""
        start = seq.token_ordinal_start
        for ordinal, (sentence, token) in sorted(self.beyond_float32.get(seq.essay_id, {}).items()):
            if start <= ordinal < start + len(seq):
                raise NumericError(f"essay {seq.essay_id!r}: the vector at sentence {sentence}, "
                                   f"token {token} holds a value beyond float32's range")

    def write_rows(self, sequences: list[LabeledSequence], out: np.ndarray):
        """Read each sequence's records straight into its slice of ``out``, a
        (tokens, dim) float array, one sequence after another."""
        lo = 0
        for seq in sequences:
            self.rows(seq.essay_id, seq.token_ordinal_start, out[lo : lo + len(seq)])
            lo += len(seq)


@dataclass
class _EssayIndex:
    last: tuple[int, int]  # the essay's last (sentence, token) key
    length: int  # tokens
    layout: np.dtype  # one record: fields head (id length and id bytes), key, vec
    run_bounds: np.ndarray  # (runs + 1,) first token ordinal of each run, then length
    run_offset: np.ndarray  # (runs,) file offset of each run's first record
    beyond_float32: dict[int, tuple[int, int]]  # ordinal -> key of each vector float32 overflows


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


# Bytes the load verifies per read.  A record longer than this is read whole.
_CHUNK = 1 << 20


class _FileReader:
    """A store file held open and read with ``os.preadv`` into one reused
    buffer of ``_CHUNK`` bytes, or one record if that is longer.  Every read,
    the load's and each later one, first checks the file against the size
    and modification time seen when it was opened.  No ``mmap``: a mapped
    file that shrinks raises SIGBUS where a read returns short."""

    def __init__(self, path):
        self._path = path
        self._fd = os.open(path, os.O_RDONLY)
        weakref.finalize(self, os.close, self._fd)
        st = os.fstat(self._fd)
        self.size = st.st_size
        self._stamp = (st.st_size, st.st_mtime_ns)
        self._buffer = bytearray()

    def read(self, offset: int, n: int, where: str = "") -> memoryview:
        """``n`` bytes at ``offset``, valid until the next read; ``where``
        starts the text of the ``FormatError`` a changed file or a short read
        raises."""
        st = os.fstat(self._fd)
        if (st.st_size, st.st_mtime_ns) != self._stamp:
            raise FormatError(f"{where}store file {self._path} changed since it was loaded")
        if len(self._buffer) < n:
            self._buffer = bytearray(max(n, _CHUNK))
        view = memoryview(self._buffer)[:n]
        got = os.preadv(self._fd, [view], offset)
        if got != n:
            raise FormatError(f"{where}short read from store file {self._path} "
                              f"({got} of {n} bytes at offset {offset})")
        return view


def load_precomputed_file(path) -> PrecomputedStore:
    """Verify a store file in one pass of fixed-size reads and index it; any
    corruption raises a format error.  The store then reads each sequence's
    records from the file when asked.

    Memory is the index, about 16 bytes per token while loading and one entry
    per run after it, plus one read buffer of ``_CHUNK`` bytes or one record.
    ``path`` must name a regular file, not a pipe, and it stays open while
    the store is alive.
    """
    reader = _FileReader(path)
    start = len(STORE_MAGIC) + _HEADER.size
    if reader.size < start + 4:
        raise FormatError("precomputed store is truncated (no complete header)")
    head = bytes(reader.read(0, start))
    if head[: len(STORE_MAGIC)] != STORE_MAGIC:
        raise FormatError("not a precomputed vector store (bad magic)")
    version, dim, count = _HEADER.unpack_from(head, len(STORE_MAGIC))
    if version != STORE_VERSION:
        raise FormatError(f"unsupported store version {version}")
    if dim < 1:
        raise FormatError(f"store declares non-positive dimension {dim}")
    end = reader.size - 4
    (crc_stored,) = struct.unpack("<I", reader.read(end, 4))
    scan = _Scan(dim, count, start, end)
    scan.run(reader)
    if scan.crc != crc_stored:
        raise FormatError("store checksum mismatch; payload is corrupted")
    if scan.error is not None:
        raise scan.error
    return PrecomputedStore(dim, {essay_id: _index_essay(essay_id, *parts)
                                  for essay_id, parts in scan.essays.items()}, reader)


class _Scan:
    """One pass over the payload (``start`` to ``end``) in windows of at least
    ``_CHUNK`` bytes, taking its CRC and finding its records.

    Records with the same id have the same length, so a run of them in a
    window is one structured array with fields ``head`` (id length and id
    bytes), ``key`` (sentence, token) and ``vec``.  A run ends at the first
    record whose head differs, so the record boundaries, and the errors, are
    those of reading the records one by one.  A record cut by the end of a
    window starts the next window.  For each essay the scan keeps, in record
    order, its layout, its keys, its records' offsets and the keys of its
    records holding a non-finite value and of those holding a value that
    rounds to inf in float32.  The first record error stops the
    parsing, and the CRC, which the reference checks first, still runs to
    the end.
    """

    def __init__(self, dim: int, count: int, start: int, end: int):
        self.dim, self.count, self.start, self.end = dim, count, start, end
        self.crc = 0
        self.error: FormatError | None = None
        self.essays: dict[str, tuple[np.dtype, list, list, list, list]] = {}
        self._layouts: dict[int, np.dtype] = {}  # record dtype by id length

    def run(self, reader):
        pos = checked = self.start  # next record; end of the bytes the CRC covers
        need = 0  # length of the record cut by the last window's end
        while self.count and self.error is None:
            window = reader.read(pos, min(self.end - pos, max(_CHUNK, need)))
            self.crc = zlib.crc32(window[checked - pos :], self.crc)
            checked = pos + len(window)
            try:
                used, need = self._records(window, pos)
            except FormatError as exc:
                self.error = exc
            else:
                pos += used
        while checked < self.end:
            window = reader.read(checked, min(self.end - checked, _CHUNK))
            self.crc = zlib.crc32(window, self.crc)
            checked += len(window)
        if self.error is None and pos != self.end:
            self.error = FormatError("store payload has trailing bytes after the last record")

    def _records(self, window: memoryview, base: int) -> tuple[int, int]:
        """Take the whole records at the start of ``window``, which lies at
        ``base``; returns the bytes they use and the length of the record the
        window cuts, or 0."""
        pos = 0
        while self.count:
            if base + pos + 4 > self.end:
                raise FormatError("store payload is truncated inside a record")
            if pos + 4 > len(window):
                return pos, 4
            (id_len,) = struct.unpack_from("<I", window, pos)
            stride = 4 + id_len + 8 + 8 * self.dim
            if base + pos + stride > self.end:  # before any dtype of that size exists
                raise FormatError("store payload is truncated inside a record")
            if pos + stride > len(window):
                return pos, stride
            try:
                essay_id = bytes(window[pos + 4 : pos + 4 + id_len]).decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"store essay id at payload byte {base + pos + 4 - self.start} "
                                  "is not UTF-8") from None
            if id_len not in self._layouts:
                self._layouts[id_len] = np.dtype([("head", "u1", (4 + id_len,)),
                                                  ("key", "<u4", (2,)),
                                                  ("vec", "<f8", (self.dim,))])
            records = np.frombuffer(window, self._layouts[id_len], offset=pos,
                                    count=min(self.count, (len(window) - pos) // stride))
            n = _leading_equal(records["head"])
            records = records[:n]
            _, keys, offsets, bad, wide = self.essays.setdefault(
                essay_id, (self._layouts[id_len], [], [], [], []))
            keys.append(records["key"].copy())
            offsets.append(base + pos + stride * np.arange(n, dtype=np.int64))
            with np.errstate(over="ignore"):  # a value float32 cannot hold becomes inf
                fits = np.isfinite(records["vec"].astype(np.float32)).all(axis=1)
            if not fits.all():
                finite = np.isfinite(records["vec"][~fits]).all(axis=1)
                misfits = records["key"][~fits]
                if not finite.all():
                    bad.append(misfits[~finite])
                wide.append(misfits[finite])
            pos += n * stride
            self.count -= n
        return pos, 0


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


def _index_essay(essay_id: str, layout: np.dtype, keys: list[np.ndarray],
                 offsets: list[np.ndarray], bad: list[np.ndarray],
                 wide: list[np.ndarray]) -> _EssayIndex:
    """The essay's records in key order as runs, checked for duplicate keys,
    then for gaps, then for non-finite values, with the ordinals of the
    ``wide`` keys."""
    keys = np.concatenate(keys).astype(np.int64)
    offsets = np.concatenate(offsets)
    if _first_gap(keys) is not None:  # not already in key order
        order = np.lexsort((keys[:, 1], keys[:, 0]))
        keys, offsets = keys[order], offsets[order]
        if (keys[1:] == keys[:-1]).all(axis=1).any():
            raise FormatError(f"essay {essay_id!r}: duplicate vector keys")
        gap = _first_gap(keys)
        if gap is not None:
            sentence, token = keys[gap]
            raise FormatError(f"essay {essay_id!r}: vector keys are not contiguous at "
                              f"sentence {sentence}, token {token}")
    if bad:
        bad = np.concatenate(bad)
        sentence, token = bad[np.lexsort((bad[:, 1], bad[:, 0]))[0]]
        raise FormatError(f"essay {essay_id!r}: non-finite vector value at "
                          f"sentence {sentence}, token {token}")
    beyond = {}
    for sentence, token in (np.concatenate(wide) if wide else ()):
        ordinal = np.flatnonzero((keys[:, 0] == sentence) & (keys[:, 1] == token))[0]
        beyond[int(ordinal)] = (int(sentence), int(token))
    run_start = np.flatnonzero(np.r_[True, np.diff(offsets) != layout.itemsize])
    return _EssayIndex((int(keys[-1, 0]), int(keys[-1, 1])), len(keys), layout,
                       np.r_[run_start, len(keys)], offsets[run_start], beyond)


# ---------------------------------------------------------------------------
# Stacked embedding specs
# ---------------------------------------------------------------------------


class EmbeddingSpec:
    """An ordered stack of sources, tables and stores, with a declared (and
    enforced) total dim, and the files the sources were read from (``paths``)."""

    def __init__(self, sources: list[EmbeddingTable | PrecomputedStore], expected_dim: int,
                 label: str = "", paths: list[Path] = ()):
        if not sources:
            raise ConfigurationError("embedding spec needs at least one source")
        total = sum(s.dim for s in sources)
        if total != expected_dim:
            raise ConfigurationError(
                f"declared embedding dim {expected_dim} != sum of source dims {total}"
            )
        self.sources = list(sources)
        self.expected_dim = expected_dim
        self.label = label
        self.paths = list(paths)

    @classmethod
    def from_file(cls, path) -> "EmbeddingSpec":
        """Load a JSON spec: {"expected_dim": d, "sources": [{kind, path}, ...]}.

        Source paths are resolved relative to the spec file's directory.
        """
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8-sig"))  # drops a leading BOM
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
        paths = [path.parent / entry["path"] for entry in entries]
        for entry, src_path in zip(entries, paths):
            kind = entry.get("kind")
            if kind not in ("glove", "precomputed"):
                raise FormatError(f"embedding spec {path}: unknown source kind {kind!r}")
            try:
                sources.append(load_glove_file(src_path) if kind == "glove"
                               else load_precomputed_file(src_path))
            except (OSError, ValueError) as exc:  # missing, a directory, a NUL in the name
                raise FormatError(f"embedding spec {path}: cannot read source "
                                  f"{entry['path']!r} ({exc})") from exc
        return cls(sources, expected, label=label, paths=paths)

    def check_coverage(self, sequences: list[LabeledSequence], dtype):
        """Raise ``CoverageError`` for the first sequence that a precomputed
        source has no vectors for, from the stores' indexes, reading nothing.
        In float32, then raise ``NumericError`` naming the first token whose
        vector holds a value that rounds to inf in float32, from what each
        source noted at load."""
        stores = [src for src in self.sources if isinstance(src, PrecomputedStore)]
        for seq in sequences:
            for store in stores:
                store.locate(seq.essay_id, seq.token_ordinal_start, len(seq))
        if np.dtype(dtype) == np.float32:
            wide = [src for src in self.sources if src.beyond_float32]
            for seq in sequences:
                for src in wide:
                    src.check_float32(seq)

    def write_rows(self, sequences: list[LabeledSequence], out: np.ndarray) -> np.ndarray:
        """Write the rows of ``sequences``, one sequence after another, into
        ``out``, a float (total tokens, expected_dim) array, and return it.
        Each source writes its own columns in place, in order, so no
        per-sequence or per-source array is made."""
        col = 0
        for src in self.sources:
            src.write_rows(sequences, out[:, col : col + src.dim])
            col += src.dim
        return out

    def batch(self, sequences: list[LabeledSequence], dtype=np.float64) -> BatchTensor:
        """The batch of the sequences' rows, one sequence after another, in
        ``dtype``.

        When every source is a word table, a token's row depends only on its
        lowercased word.  One pass over the tokens then gives each word a
        distinct id, each table writes its columns of the distinct words'
        rows only, cast to ``dtype`` there, and one take writes the tokens'
        rows from them; the batch carries the distinct rows and the ids (see
        ``BatchTensor``).  With any precomputed store, the rows are written
        by ``write_rows`` and the batch carries no distinct rows.
        """
        lengths = [len(seq) for seq in sequences]
        rows = np.empty((sum(lengths), self.expected_dim), dtype)
        if not all(isinstance(src, EmbeddingTable) for src in self.sources):
            return BatchTensor(self.write_rows(sequences, rows), lengths)
        keys = list(map(str.lower, chain.from_iterable(seq.words for seq in sequences)))
        # dict.fromkeys keeps first appearances in order: word k is distinct row k
        ids = dict(zip(dict.fromkeys(keys), count()))
        inverse = np.fromiter(map(ids.__getitem__, keys), np.intp, len(keys))
        distinct = np.empty((len(ids), self.expected_dim), dtype)
        col = 0
        for table in self.sources:
            table.write_keys(ids, distinct[:, col : col + table.dim])
            col += table.dim
        # both of ``dtype``; every index is in range by construction, and "clip"
        # lets take write into ``rows`` directly, where "raise" goes through a buffer
        np.take(distinct, inverse, axis=0, out=rows, mode="clip")
        return BatchTensor(rows, lengths, (distinct, inverse))

    def vectorize(self, seq: LabeledSequence) -> np.ndarray:
        """(len(seq), expected_dim) float64 rows, read-only: sources
        concatenated in order, written by ``write_rows`` into a new array."""
        rows = self.write_rows([seq], np.empty((len(seq), self.expected_dim)))
        rows.flags.writeable = False
        return rows
