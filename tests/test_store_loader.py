"""The precomputed-store loader against the record-by-record oracle, which
reads bytes: random valid store files give the same essays, last keys and
matrices; mutated ones give the same store or the same ``FormatError`` and
never another exception.  Both hold for files read in the default 1 MiB
windows and in windows small enough that records straddle them.  A file that
changes or reads short, during the load or after it, raises ``FormatError``.
``rows`` writes into the caller's array and never hands out the reader's
buffer."""

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
from argseg.embeddings import load_precomputed_file, write_precomputed
from argseg.errors import FormatError
from store_oracle import oracle_load
from toy_files import read_rows, write_store

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
    return {essay_id: (essay.last, read_rows(store, essay_id, 0, essay.length))
            for essay_id, essay in store._essays.items()}


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
chunks = st.one_of(st.integers(1, 64), st.just(1 << 20))  # a few records, or the default
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
@given(stores(), chunks)
@example((2, [(essay_id, 0, t, np.array([t, -1.5])) for essay_id in ("", "é文")
              for t in range(2)], "grouped"), 1 << 20)
def test_file_stores_read_in_small_windows_equal_the_oracle(store_path, store, chunk):
    dim, records, layout = store
    blob = blob_of(dim, records)
    store_path.write_bytes(blob)
    expected = oracle_load(blob)[1]
    with mock.patch.object(embeddings, "_CHUNK", chunk):
        loaded = load_precomputed_file(store_path)
        essays = essays_of(loaded)
    assert loaded.dim == dim and loaded.essay_ids() == sorted(expected)
    assert list(essays) == list(expected)  # first-record order
    buffer = np.frombuffer(loaded._reader._buffer, np.uint8)
    for essay_id, (last, matrix) in expected.items():
        got_last, got = essays[essay_id]
        assert got_last == last and type(got_last[0]) is int
        assert got.tobytes() == matrix.tobytes()
        assert not np.shares_memory(got, buffer)
        if layout == "grouped":  # one run in key order
            assert len(loaded._essays[essay_id].run_offset) == 1


def test_rows_written_into_a_batchs_columns(tmp_path):
    """The rows go into the caller's (possibly strided) array, and nothing
    beside it changes."""
    (records,) = essay_records(["a"], [[2, 2]], 3, seed=16)
    store = load_precomputed_file(write_store(tmp_path / "v.pv", 3, records[::-1]))  # 4 runs
    batch = np.full((5, 7), -1.0)
    store.rows("a", 1, batch[1:4, 2:5])
    expected = np.stack([vec for *_, vec in records[1:]])
    assert batch[1:4, 2:5].tobytes() == expected.tobytes()
    batch[1:4, 2:5] = -1.0
    assert (batch == -1.0).all()


def test_out_of_order_essay_is_gathered_into_a_copy(tmp_path):
    (records,) = essay_records(["a"], [[3]], 2, seed=9)
    store = load_precomputed_file(write_store(tmp_path / "v.pv", 2, records[::-1]))
    rows = read_rows(store, "a", 0, 3)
    assert not np.shares_memory(rows, np.frombuffer(store._reader._buffer, np.uint8))
    assert np.array_equal(rows, np.stack([vec for *_, vec in records]))


def test_file_store_reads_each_sequence_from_the_file(tmp_path, monkeypatch):
    """Each ``rows`` call reads exactly its records with one ``os.preadv``,
    into the reader's one buffer, reused from read to read, and copies them
    into the caller's array."""
    groups = essay_records(["e1", "e2"], [[2, 2], [3]], 3, seed=10)
    store = load_precomputed_file(write_store(tmp_path / "v.pv", 3, groups[0] + groups[1]))
    buffer = store._reader._buffer
    reads = []
    preadv = os.preadv

    def spy(fd, buffers, offset):
        reads.append(([view.obj for view in buffers], sum(view.nbytes for view in buffers)))
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", spy)
    stride = 4 + 2 + 8 + 8 * 3
    for essay_id, records in zip(["e1", "e2"], groups):
        rows = read_rows(store, essay_id, 1, len(records) - 1)
        expected = np.stack([vec for *_, vec in records[1:]])
        assert rows.tobytes() == expected.tobytes()
        assert reads.pop() == ([buffer], (len(records) - 1) * stride) and not reads
    assert store._reader._buffer is buffer
    assert read_rows(store, "e1", 0, 4).tobytes() == read_rows(store, "e1", 0, 4).tobytes()


def test_file_store_reads_a_long_run_in_pieces_of_one_buffer(tmp_path, monkeypatch):
    """A run longer than ``_CHUNK`` bytes is read in pieces that fit the one
    buffer, which never grows past ``_CHUNK`` or one record."""
    (records,) = essay_records(["e"], [[7, 6]], 4, seed=17)
    stride = 4 + 1 + 8 + 8 * 4
    monkeypatch.setattr(embeddings, "_CHUNK", 3 * stride + 1)
    store = load_precomputed_file(write_store(tmp_path / "v.pv", 4, records))
    sizes = []
    preadv = os.preadv
    monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset: (
        sizes.append(buffers[0].nbytes), preadv(fd, buffers, offset))[1])
    rows = read_rows(store, "e", 2, 10)
    assert rows.tobytes() == np.stack([vec for *_, vec in records[2:12]]).tobytes()
    assert sizes == [3 * stride, 3 * stride, 3 * stride, stride]
    assert len(store._reader._buffer) == 3 * stride + 1


def write_two_essays(path: Path, seed: int):
    write_store(path, 2, [r for g in essay_records(["e1", "e2"], [[3], [2]], 2, seed) for r in g])


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
    read_rows(store, "e2", 0, 2)
    change(path)
    with pytest.raises(FormatError, match=f"essay 'e2': store file {path} changed since "
                                          "it was loaded"):
        read_rows(store, "e2", 0, 2)


def test_short_read_raises_format_error_naming_the_essay(tmp_path, monkeypatch):
    path = tmp_path / "v.pv"
    write_two_essays(path, seed=14)
    store = load_precomputed_file(path)
    preadv = os.preadv
    monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset: preadv(
        fd, [view[:-1] for view in buffers], offset))
    with pytest.raises(FormatError, match=r"essay 'e1': short read from store file .* "
                                          r"\(89 of 90 bytes at offset 24\)"):
        read_rows(store, "e1", 0, 3)


@pytest.mark.parametrize("chunk", [50, 1 << 20])
def test_short_read_during_the_load_raises_format_error(tmp_path, monkeypatch, chunk):
    """The scan's first window, at offset 24, reads one byte short."""
    path = tmp_path / "v.pv"
    write_two_essays(path, seed=19)
    monkeypatch.setattr(embeddings, "_CHUNK", chunk)
    preadv = os.preadv
    monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset: preadv(
        fd, [view[:-1] if offset == HEADER else view for view in buffers], offset))
    n = min(chunk, path.stat().st_size - HEADER - 4)
    with pytest.raises(FormatError, match=f"^short read from store file {path} "
                                          rf"\({n - 1} of {n} bytes at offset 24\)$"):
        load_precomputed_file(path)


def test_file_changed_during_the_load_raises_format_error(tmp_path, monkeypatch):
    """A write that keeps the size but moves the modification time between
    two of the load's reads is caught at the next read."""
    path = tmp_path / "v.pv"
    write_two_essays(path, seed=20)
    monkeypatch.setattr(embeddings, "_CHUNK", 50)
    preadv = os.preadv

    def touch_after_first_window(fd, buffers, offset):
        got = preadv(fd, buffers, offset)
        if offset == HEADER:
            stamp = path.stat().st_mtime_ns + 10**9
            os.utime(path, ns=(stamp, stamp))
        return got

    monkeypatch.setattr(os, "preadv", touch_after_first_window)
    with pytest.raises(FormatError, match=f"^store file {path} changed since it was loaded$"):
        load_precomputed_file(path)


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
@given(mutated_stores(), chunks)
def test_mutated_file_stores_read_in_small_windows_load_as_the_oracle_does(store_path, data,
                                                                          chunk):
    # any other exception (ValueError, IndexError, struct.error, MemoryError)
    # escapes and fails the test
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
def test_bad_keys_raise_the_oracles_error(store_path, keys, message):
    blob = blob_of(1, [("e", s, t, np.zeros(1)) for s, t in keys])
    with pytest.raises(FormatError, match=f"essay 'e': .*{message}"):
        oracle_load(blob)
    assert file_outcome(store_path, blob, 1 << 20) == outcome(oracle_outcome, blob)


@pytest.mark.parametrize("chunk", [1, 1 << 20])
def test_first_non_finite_value_is_named_in_key_order(store_path, chunk):
    """The reported key is the first in key order, not in file order."""
    blob = blob_of(1, [("e", 0, 2, np.array([np.nan])), ("e", 0, 0, np.zeros(1)),
                       ("e", 0, 1, np.array([-np.inf]))])
    expected = outcome(oracle_outcome, blob)
    assert expected == ("error", "essay 'e': non-finite vector value at sentence 0, token 1")
    assert file_outcome(store_path, blob, chunk) == expected


@pytest.mark.parametrize("dim", [2**31, 2**32 - 1])
def test_huge_declared_dim_is_rejected_before_allocating(tmp_path, dim):
    blob = bytearray(blob_of(2, essay_records(["e"], [[1]], 2, seed=12)[0]))
    struct.pack_into("<I", blob, 12, dim)
    (tmp_path / "v.pv").write_bytes(blob)
    with pytest.raises(FormatError, match="truncated inside a record"):
        load_precomputed_file(tmp_path / "v.pv")
