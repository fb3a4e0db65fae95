"""The precomputed-store loader against the record-by-record oracle: random
valid stores give the same essays, last keys and matrices; mutated stores give
the same store or the same ``FormatError`` and never another exception.  Both
hold for bytes in memory and for files read in windows small enough that
records straddle them; a file that changes after the load raises
``FormatError`` on the next read.  Every read copies the records out of the
reader, so what a store returns is never a view of its source."""

import io
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from argseg import embeddings
from argseg.embeddings import load_precomputed, load_precomputed_file, write_precomputed
from argseg.errors import FormatError
from store_oracle import oracle_load

HEADER = 8 + 16  # magic, then version u32, dim u32, count u64


def essay_records(essay_ids, sentence_lengths, dim, seed):
    """Per essay, its records in key order; sentence ``s`` of essay ``k`` has
    ``sentence_lengths[k][s]`` tokens."""
    rng = np.random.default_rng(seed)
    return [[(essay_id, s, t, rng.standard_normal(dim))
             for s, n in enumerate(lengths) for t in range(n)]
            for essay_id, lengths in zip(essay_ids, sentence_lengths)]


def interleave(groups):
    """Round robin over the essays, each keeping its key order."""
    out = []
    for k in range(max(len(g) for g in groups)):
        out += [g[k] for g in groups if k < len(g)]
    return out


def blob_of(dim, records) -> bytes:
    buf = io.BytesIO()
    write_precomputed(buf, dim, records)
    return buf.getvalue()


def outcome(load, data):
    """The loaded essays as plain values, or the error's text."""
    try:
        essays = load(data)
    except FormatError as exc:
        return "error", str(exc)
    return "store", {essay_id: (last, matrix.tobytes()) for essay_id, (last, matrix)
                     in essays.items()}


def essays_of(store):
    """Each essay's last key and rows, in first-record order."""
    essays = {essay_id: (essay.last, store.rows(essay_id, 0, essay.length))
              for essay_id, essay in store._essays.items()}
    assert all(not m.flags.writeable for _, m in essays.values())
    return essays


def loader_outcome(data):
    return essays_of(load_precomputed(data))


@pytest.fixture(scope="module")
def store_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("stores") / "v.pv"


def file_outcome(path: Path, data: bytes, chunk: int):
    """The outcome of loading ``data`` from a file in windows of ``chunk`` bytes."""
    path.write_bytes(data)
    with mock.patch.object(embeddings, "_CHUNK", chunk):
        return outcome(lambda p: essays_of(load_precomputed_file(p)), path)


def oracle_outcome(data):
    return oracle_load(data)[1]


essay_ids = st.lists(st.text(max_size=6), min_size=1, max_size=4, unique=True)
sentence_lengths = st.lists(st.integers(1, 4), min_size=1, max_size=3)


@st.composite
def stores(draw):
    """(dim, records, layout) of a valid store."""
    ids = draw(essay_ids)
    dim = draw(st.integers(1, 4))
    groups = essay_records(ids, [draw(sentence_lengths) for _ in ids], dim,
                           draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["grouped", "interleaved", "shuffled"]))
    if layout == "grouped":
        records = [r for g in groups for r in g]
    elif layout == "interleaved":
        records = interleave(groups)
    else:
        records = draw(st.permutations([r for g in groups for r in g]))
    return dim, records, layout


@settings(max_examples=150, deadline=None)
@given(stores())
@example((2, [(essay_id, 0, t, np.array([t, -1.5])) for essay_id in ("", "é文")
              for t in range(2)], "grouped"))
def test_random_stores_equal_the_oracle(store):
    dim, records, layout = store
    blob = blob_of(dim, records)
    expected = oracle_load(blob)[1]
    loaded = load_precomputed(blob)
    assert loaded.dim == dim and loaded.essay_ids() == sorted(expected)
    essays = essays_of(loaded)
    assert list(essays) == list(expected)  # first-record order
    for essay_id, (last, matrix) in expected.items():
        got_last, got = essays[essay_id]
        assert got_last == last and type(got_last[0]) is int
        assert np.array_equal(got, matrix) and got.tobytes() == matrix.tobytes()
        assert not got.flags.writeable
        assert not np.shares_memory(got, np.frombuffer(blob, np.uint8))  # a copy
        if layout == "grouped":  # one run in key order
            assert len(loaded._essays[essay_id].run_offset) == 1


@settings(max_examples=150, deadline=None)
@given(stores(), st.integers(1, 64))
def test_file_stores_read_in_small_windows_equal_the_oracle(store_path, store, chunk):
    dim, records, _ = store
    blob = blob_of(dim, records)
    assert file_outcome(store_path, blob, chunk) == outcome(oracle_outcome, blob)


def test_in_order_single_run_essay_is_one_read_into_a_read_only_copy():
    groups = essay_records(["a", "bb"], [[3, 2], [1]], 5, seed=8)
    buf = bytearray(blob_of(5, groups[0] + groups[1]))
    store = load_precomputed(buf)
    reads = []
    read = store._reader.read
    store._reader.read = lambda offset, n, essay_id: reads.append(n) or read(offset, n, essay_id)
    backing = np.frombuffer(buf, np.uint8)
    for essay_id, records in zip(["a", "bb"], groups):
        expected = np.stack([vec for *_, vec in records])
        rows = store.rows(essay_id, 0, len(records))
        assert reads.pop() == len(records) * store._essays[essay_id].layout.itemsize
        assert not reads
        assert not np.shares_memory(rows, backing) and rows.flags.owndata
        assert not rows.flags.writeable
        assert rows.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        buf[HEADER:-4] = bytes(len(buf) - HEADER - 4)  # the copy outlives the bytes
        assert rows.tobytes() == expected.tobytes()
        buf[:] = blob_of(5, groups[0] + groups[1])


def test_rows_written_into_a_batchs_columns():
    """With ``out`` the rows go into the caller's (possibly strided) array,
    which stays writable, and nothing beside it changes."""
    (records,) = essay_records(["a"], [[2, 2]], 3, seed=16)
    store = load_precomputed(blob_of(3, records[::-1]))  # four runs of one record
    batch = np.full((5, 7), -1.0)
    got = store.rows("a", 1, 3, out=batch[1:4, 2:5])
    expected = np.stack([vec for *_, vec in records[1:]])
    assert got.base is batch and got.flags.writeable
    assert batch[1:4, 2:5].tobytes() == expected.tobytes()
    batch[1:4, 2:5] = -1.0
    assert (batch == -1.0).all()


def test_out_of_order_essay_is_gathered_into_a_copy():
    (records,) = essay_records(["a"], [[3]], 2, seed=9)
    blob = blob_of(2, records[::-1])
    rows = load_precomputed(blob).rows("a", 0, 3)
    assert not np.shares_memory(rows, np.frombuffer(blob, np.uint8))
    assert not rows.flags.writeable
    assert np.array_equal(rows, np.stack([vec for *_, vec in records]))


def test_file_store_reads_each_sequence_from_the_file(tmp_path, monkeypatch):
    """Each ``rows`` call reads exactly its records with ``os.preadv``, into
    the reader's one buffer, reused from read to read, and returns a copy."""
    groups = essay_records(["e1", "e2"], [[2, 2], [3]], 3, seed=10)
    path = tmp_path / "v.pv"
    with open(path, "wb") as fh:
        write_precomputed(fh, 3, groups[0] + groups[1])
    store = load_precomputed_file(path)
    buffer = store._reader._buffer
    reads = []
    preadv = os.preadv

    def spy(fd, buffers, offset):
        reads.append(([view.obj for view in buffers], sum(view.nbytes for view in buffers)))
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", spy)
    stride = 4 + 2 + 8 + 8 * 3
    for essay_id, records in zip(["e1", "e2"], groups):
        rows = store.rows(essay_id, 1, len(records) - 1)
        expected = np.stack([vec for *_, vec in records[1:]])
        assert rows.tobytes() == expected.tobytes() and not rows.flags.writeable
        assert reads.pop() == ([buffer], (len(records) - 1) * stride) and not reads
        assert not np.shares_memory(rows, np.frombuffer(buffer, np.uint8))
    assert store._reader._buffer is buffer
    first, second = store.rows("e1", 0, 4), store.rows("e1", 0, 4)
    assert not np.shares_memory(first, second) and first.tobytes() == second.tobytes()


def test_file_store_reads_a_long_run_in_pieces_of_one_buffer(tmp_path, monkeypatch):
    """A run longer than ``_CHUNK`` bytes is read in pieces that fit the one
    buffer, which never grows past ``_CHUNK`` or one record."""
    (records,) = essay_records(["e"], [[7, 6]], 4, seed=17)
    path = tmp_path / "v.pv"
    with open(path, "wb") as fh:
        write_precomputed(fh, 4, records)
    stride = 4 + 1 + 8 + 8 * 4
    monkeypatch.setattr(embeddings, "_CHUNK", 3 * stride + 1)
    store = load_precomputed_file(path)
    sizes = []
    preadv = os.preadv
    monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset: (
        sizes.append(buffers[0].nbytes), preadv(fd, buffers, offset))[1])
    rows = store.rows("e", 2, 10)
    assert rows.tobytes() == np.stack([vec for *_, vec in records[2:12]]).tobytes()
    assert sizes == [3 * stride, 3 * stride, 3 * stride, stride]
    assert len(store._reader._buffer) == 3 * stride + 1


def write_two_essays(path: Path, seed: int):
    with open(path, "wb") as fh:
        write_precomputed(fh, 2, [r for g in essay_records(["e1", "e2"], [[3], [2]], 2, seed)
                                  for r in g])


def truncate(path: Path):
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size - 40)


def rewrite_longer(path: Path):
    with open(path, "ab") as fh:
        fh.write(b"\0" * 8)


def rewrite_same_size(path: Path):
    stamp = path.stat().st_mtime_ns
    write_two_essays(path, seed=99)
    os.utime(path, ns=(stamp + 10**9, stamp + 10**9))  # as if written a second later


@pytest.mark.parametrize("change", [truncate, rewrite_longer, rewrite_same_size])
def test_file_changed_after_load_raises_format_error_naming_the_essay(tmp_path, change):
    path = tmp_path / "v.pv"
    write_two_essays(path, seed=13)
    store = load_precomputed_file(path)
    store.rows("e2", 0, 2)
    change(path)
    with pytest.raises(FormatError, match=f"essay 'e2': store file {path} changed since "
                                          "it was loaded"):
        store.rows("e2", 0, 2)


def test_short_read_raises_format_error_naming_the_essay(tmp_path, monkeypatch):
    path = tmp_path / "v.pv"
    write_two_essays(path, seed=14)
    store = load_precomputed_file(path)
    preadv = os.preadv
    monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset: preadv(
        fd, [view[:-1] for view in buffers], offset))
    with pytest.raises(FormatError, match=r"essay 'e1': short read from store file .* "
                                          r"\(89 of 90 bytes at offset 24\)"):
        store.rows("e1", 0, 3)


def test_loading_a_3072_d_store_grows_peak_rss_by_at_most_a_quarter_of_the_file(tmp_path):
    path = tmp_path / "ctx.pv"
    rng = np.random.default_rng(15)
    with open(path, "wb") as fh:
        write_precomputed(fh, 3072, ((f"essay{k // 100:02d}", 0, k % 100,
                                      rng.standard_normal(3072)) for k in range(2000)))
    script = ("import resource, sys\n"
              "from argseg.embeddings import load_precomputed_file\n"
              "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024\n"
              "before = peak()\n"
              "store = load_precomputed_file(sys.argv[1])\n"
              "print(len(store), peak() - before)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", script, str(path)],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    tokens, growth = map(int, result.stdout.split())
    assert tokens == 2000 and growth <= 0.25 * path.stat().st_size


def test_loader_accepts_any_bytes_like_object():
    blob = blob_of(2, essay_records(["e"], [[2]], 2, seed=11)[0])
    expected = outcome(oracle_outcome, blob)
    for data in (blob, bytearray(blob), memoryview(blob), np.frombuffer(blob, np.uint8)):
        assert outcome(loader_outcome, data) == expected


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------


def record_offsets(records) -> list[int]:
    """Payload offset of each record, as ``write_precomputed`` lays them out."""
    offsets, pos = [], 0
    for essay_id, _, _, vec in records:
        offsets.append(pos)
        pos += 4 + len(essay_id.encode("utf-8")) + 8 + 8 * len(vec)
    return offsets


u32 = st.one_of(st.sampled_from([0, 1, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1))
u64 = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))


@st.composite
def mutated_stores(draw):
    """A valid store's bytes, damaged in one of seven ways.  Three times in four
    the CRC is then recomputed, so that the record parser, not only the
    checksum, meets the damage."""
    dim, records, _ = draw(stores())
    blob = bytearray(blob_of(dim, records))
    body = blob[:-4]  # header and payload
    kind = draw(st.sampled_from(["truncate", "bit_flip", "splice", "dim", "count", "id_len",
                                 "key"]))
    if kind == "truncate":
        del body[draw(st.integers(0, len(body) - 1)):]
    elif kind == "bit_flip":
        at = draw(st.integers(0, len(body) - 1))
        body[at] ^= 1 << draw(st.integers(0, 7))
    elif kind == "splice":  # a slice of the store copied over another place
        lo = draw(st.integers(0, len(body)))
        hi = draw(st.integers(lo, min(len(body), lo + 64)))
        at = draw(st.integers(HEADER, len(body)))
        body[at : at + draw(st.integers(0, 64))] = blob[lo:hi]
    elif kind == "dim":
        struct.pack_into("<I", body, 12, draw(u32))
    elif kind == "count":
        struct.pack_into("<Q", body, 16, draw(u64))
    elif kind == "id_len":
        at = HEADER + draw(st.sampled_from(record_offsets(records)))
        struct.pack_into("<I", body, at, draw(u32))
    else:  # a small (sentence, token) key, often a duplicate or a gap
        k = draw(st.integers(0, len(records) - 1))
        at = HEADER + record_offsets(records)[k] + 4 + len(records[k][0].encode("utf-8"))
        struct.pack_into("<II", body, at, draw(st.integers(0, 3)), draw(st.integers(0, 4)))
    if draw(st.integers(0, 3)) == 0 or len(body) < HEADER:  # the old checksum
        return bytes(body) + blob[-4:]
    return bytes(body) + struct.pack("<I", zlib.crc32(body[HEADER:]))


@settings(max_examples=300, deadline=None)
@given(mutated_stores())
def test_mutated_stores_load_as_the_oracle_does(data):
    # any other exception (ValueError, IndexError, struct.error, MemoryError)
    # escapes and fails the test
    assert outcome(loader_outcome, data) == outcome(oracle_outcome, data)


@settings(max_examples=300, deadline=None)
@given(mutated_stores(), st.integers(1, 64))
def test_mutated_file_stores_read_in_small_windows_load_as_the_oracle_does(store_path, data,
                                                                          chunk):
    assert file_outcome(store_path, data, chunk) == outcome(oracle_outcome, data)


@pytest.mark.parametrize("keys,message", [
    ([(0, 0), (0, 2)], "not contiguous at sentence 0, token 2"),
    ([(0, 1), (0, 2)], "not contiguous at sentence 0, token 1"),
    ([(1, 0), (1, 1)], "not contiguous at sentence 1, token 0"),
    ([(0, 0), (1, 1)], "not contiguous at sentence 1, token 1"),
    ([(0, 0), (2, 0)], "not contiguous at sentence 2, token 0"),
    ([(1, 0), (0, 0), (0, 1), (3, 0)], "not contiguous at sentence 3, token 0"),
    ([(0, 0), (0, 1), (0, 0)], "duplicate vector keys"),
    ([(0, 0), (4294967295, 0)], "not contiguous at sentence 4294967295, token 0"),
    ([(0, 4294967295), (0, 0)], "not contiguous at sentence 0, token 4294967295"),
])
def test_bad_keys_raise_the_oracles_error(keys, message):
    blob = blob_of(1, [("e", s, t, np.zeros(1)) for s, t in keys])
    with pytest.raises(FormatError, match=f"essay 'e': .*{message}"):
        oracle_load(blob)
    assert outcome(loader_outcome, blob) == outcome(oracle_outcome, blob)


@pytest.mark.parametrize("chunk", [1, 1 << 20])
def test_first_non_finite_value_is_named_in_key_order(store_path, chunk):
    """The reported key is the first in key order, not in file order."""
    blob = blob_of(1, [("e", 0, 2, np.array([np.nan])), ("e", 0, 0, np.zeros(1)),
                       ("e", 0, 1, np.array([-np.inf]))])
    expected = outcome(oracle_outcome, blob)
    assert expected == ("error", "essay 'e': non-finite vector value at sentence 0, token 1")
    assert outcome(loader_outcome, blob) == expected
    assert file_outcome(store_path, blob, chunk) == expected


@pytest.mark.parametrize("dim", [2**31, 2**32 - 1])
def test_huge_declared_dim_is_rejected_before_allocating(dim):
    blob = bytearray(blob_of(2, essay_records(["e"], [[1]], 2, seed=12)[0]))
    struct.pack_into("<I", blob, 12, dim)
    with pytest.raises(FormatError, match="truncated inside a record"):
        load_precomputed(blob)
