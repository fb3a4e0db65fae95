"""The precomputed-store reader as a record-by-record loop: the reference the
array loader in ``argseg.embeddings`` must match, error text included.

It reads one record at a time, copies every vector and sorts each essay's
records with Python tuples, so it is slow and holds several copies of a
store, but each rule is plain to see.
"""

import struct
import zlib

import numpy as np

from argseg.embeddings import STORE_MAGIC, STORE_VERSION
from argseg.errors import FormatError


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


def oracle_load(data: bytes) -> tuple[int, dict[str, tuple[tuple[int, int], np.ndarray]]]:
    """(dim, essay id -> (last key, matrix in key order)), essays in the order
    of their first record; any corruption raises ``FormatError``."""
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
        essays[essay_id] = (keys[-1], matrix)
    return dim, essays
