import hashlib
import io
import json
import struct
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argseg import embeddings
from argseg.corpus import LabeledSequence, build_sequences
from argseg.embeddings import (
    EmbeddingSpec,
    load_glove,
    load_glove_file,
    load_precomputed_file,
    oov_statistics,
    write_precomputed,
)
from argseg.errors import ArgsegError, ConfigurationError, CoverageError, FormatError
from argseg.toydata import toy_corpus, toy_glove_text
from argseg.training import _assemble
from toy_files import mutations, read_rows, write_store


def seq_of(words, essay_id="e1", seq_idx=0, ordinal=0):
    starts, ends = [], []
    pos = 0
    for w in words:
        starts.append(pos)
        ends.append(pos + len(w))
        pos += len(w) + 1
    return LabeledSequence(essay_id, seq_idx, list(words), starts, ends, ["O"] * len(words),
                           ordinal)


def lookup(table, words):
    """The table's rows for ``words``, written by ``write_rows``."""
    out = np.empty((len(words), table.dim))
    table.write_rows([seq_of(words)], out)
    return out


def load_bytes(directory: Path, data: bytes):
    """Load ``data`` as a store file."""
    path = directory / "v.pv"
    path.write_bytes(data)
    return load_precomputed_file(path)


def glove_oracle(table, seq):
    """Rows built token by token: the lowercased word's vector, else zeros."""
    rows = []
    for tok in seq.tokens:
        row = table.index.get(tok.text.lower())
        rows.append(np.zeros(table.dim) if row is None else table.vectors[row])
    return np.stack(rows)


def store_oracle(records, seq):
    """Rows built token by token from the records: an essay's ordinals count
    its (sentence, token) keys in sorted order."""
    by_key = {(e, s, t): vec for e, s, t, vec in records}
    keys = sorted(k for k in by_key if k[0] == seq.essay_id)
    base = seq.token_ordinal_start
    return np.stack([by_key[keys[base + i]] for i in range(len(seq))])


def assert_same_bytes(actual, expected):
    assert actual.dtype == np.float64 and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestLoadGlove:
    def test_single_line(self):
        table = load_glove("the 0.1 0.2 0.3")
        assert table.dim == 3
        assert np.allclose(lookup(table, ["the"]), [[0.1, 0.2, 0.3]])

    def test_vocabulary_size_matches_line_count_oracle(self):
        lines = [f"word{k} {k} {k + 1}" for k in range(50)]
        content = "\n".join(lines)
        table = load_glove(content)
        assert len(table.index) == len(content.splitlines())

    def test_inconsistent_dimension_names_line(self):
        with pytest.raises(FormatError, match="line 3"):
            load_glove("a 1 2\nb 3 4\nc 5 6 7\n")

    def test_duplicate_first_wins(self):
        table = load_glove("a 1 2\na 3 4\n")
        assert np.allclose(lookup(table, ["a"]), [[1.0, 2.0]])
        assert table.duplicates_skipped == 1

    def test_cased_keys_lowercased_first_wins(self):
        table = load_glove("Cat 9 9\nthe 1 2\ncat 5 5")
        assert len(table.index) == 2
        assert np.array_equal(lookup(table, ["CAT"]), [[9.0, 9.0]])
        assert np.array_equal(lookup(table, ["Cat", "cat"]), [[9.0, 9.0], [9.0, 9.0]])
        assert "Cat" in table
        assert table.duplicates_skipped == 1

    def test_non_numeric_value(self):
        with pytest.raises(FormatError, match="line 2"):
            load_glove("a 1 2\nb x 4\n")

    def test_empty_table_rejected(self):
        with pytest.raises(FormatError, match="empty"):
            load_glove("")

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_names_line(self, value):
        with pytest.raises(FormatError, match="line 2: non-finite"):
            load_glove(f"a 1 2\nb {value} 4\n")


class TestLookup:
    def test_in_vocabulary(self):
        table = load_glove("cat 1 2 3")
        assert np.allclose(lookup(table, ["cat"]), [[1, 2, 3]])

    def test_case_folded(self):
        table = load_glove("cat 1 2 3")
        assert np.allclose(lookup(table, ["Cat", "CAT"]), [[1, 2, 3], [1, 2, 3]])
        assert "CAT" in table

    def test_oov_zero_vector(self):
        table = load_glove("cat 1 2 3")
        assert np.array_equal(lookup(table, ["zzqqy", "cat"]), [[0, 0, 0], [1, 2, 3]])

    def test_oov_statistics_sweep(self, toy_table, toy_sequences):
        misses, total = oov_statistics(toy_table, toy_sequences)
        assert total == sum(len(s) for s in toy_sequences)
        assert misses == 0  # toy vectors cover the toy vocabulary


class TestPrecomputedStore:
    def build(self, dim=4, essays=("e1", "e2"), sentences=2, tokens=3, seed=0):
        rng = np.random.default_rng(seed)
        records = []
        for essay in essays:
            for s in range(sentences):
                for t in range(tokens):
                    records.append((essay, s, t, rng.standard_normal(dim)))
        buf = io.BytesIO()
        write_precomputed(buf, dim, records)
        return buf.getvalue(), records

    def test_roundtrip_bit_identical(self, tmp_path):
        blob, records = self.build()
        store = load_bytes(tmp_path, blob)
        assert store.dim == 4
        assert len(store) == len(records)
        for essay, s, t, vec in records:  # 3 tokens per sentence
            assert np.array_equal(read_rows(store, essay, 3 * s + t, 1)[0], vec)

    def test_writer_output_is_pinned(self):
        """Interleaved essays, out-of-order keys, an empty and a non-ASCII id:
        the bytes are those of the writer that built the whole store in memory."""
        keys = [("e1", 0, 0), ("", 0, 0), ("e1", 0, 1), ("essä-ü", 1, 0), ("essä-ü", 0, 0),
                ("e1", 1, 0), ("", 0, 1)]
        records = [(e, s, t, np.array([k * 0.5 - 3.0, k / 7.0, (-1.0) ** k * 1e300]))
                   for k, (e, s, t) in enumerate(keys)]
        buf = io.BytesIO()
        write_precomputed(buf, 3, records)
        blob = buf.getvalue()
        assert len(blob) == 302 and hashlib.sha256(blob).hexdigest() == (
            "d39cbb96ac32597dcbdc79d3a82442abb221771d2f63a8296eb07c40cebf931f")

    def test_writer_patches_the_count_where_the_store_starts(self):
        blob, records = self.build()
        buf = io.BytesIO()
        buf.write(b"prefix")
        write_precomputed(buf, 4, records)
        assert buf.tell() == len(buf.getvalue()) == len(b"prefix") + len(blob)
        assert buf.getvalue()[len(b"prefix"):] == blob
        assert struct.unpack_from("<Q", blob, 16) == (len(records),)

    def test_single_record_store(self, tmp_path):
        store = load_precomputed_file(write_store(tmp_path / "v.pv", 3,
                                                  [("only", 0, 0, np.arange(3.0))]))
        assert len(store) == 1
        assert np.array_equal(read_rows(store, "only", 0, 1)[0], [0.0, 1.0, 2.0])

    def test_header_dim_3072_accepted_by_spec(self, tmp_path):
        blob, _ = self.build(dim=3072, essays=("e1",), sentences=1, tokens=2)
        spec = EmbeddingSpec([load_bytes(tmp_path, blob)], expected_dim=3072)
        assert spec.expected_dim == 3072

    def test_truncated_payload_rejected(self, tmp_path):
        blob, _ = self.build()
        with pytest.raises(FormatError):
            load_bytes(tmp_path, blob[: len(blob) // 2])

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        blob, _ = self.build()
        corrupted = bytearray(blob)
        corrupted[len(blob) // 2] ^= 0xFF
        with pytest.raises(FormatError, match="checksum"):
            load_bytes(tmp_path, bytes(corrupted))

    def test_non_utf8_essay_id_rejected(self, tmp_path):
        blob, _ = self.build(essays=("ab",), sentences=1, tokens=1)
        header = len(b"ARGSEGPV") + 16
        payload = blob[header:-4].replace(b"ab", b"\xff\xfe", 1)
        bad = blob[:header] + payload + struct.pack("<I", zlib.crc32(payload))
        with pytest.raises(FormatError, match="UTF-8"):
            load_bytes(tmp_path, bad)

    def test_bad_magic(self, tmp_path):
        with pytest.raises(FormatError, match="magic"):
            load_bytes(tmp_path, b"WRONGMAG" + b"\x00" * 32)

    def test_gap_in_keys_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        records = [("e1", 0, 0, rng.standard_normal(2)), ("e1", 0, 2, rng.standard_normal(2))]
        with pytest.raises(FormatError, match="contiguous"):
            load_precomputed_file(write_store(tmp_path / "v.pv", 2, records))

    def test_ordinal_view_spans_sentences(self, tmp_path):
        blob, records = self.build(essays=("e1",), sentences=3, tokens=2)
        store = load_bytes(tmp_path, blob)
        vectors = np.stack([vec for *_, vec in records])
        assert np.array_equal(read_rows(store, "e1", 0, len(records)), vectors)
        for ordinal in range(len(records) - 1):
            assert np.array_equal(read_rows(store, "e1", ordinal, 2),
                                  vectors[ordinal : ordinal + 2])

    def test_coverage_errors_name_location(self, tmp_path):
        blob, _ = self.build(essays=("e1",), sentences=1, tokens=2)
        store = load_bytes(tmp_path, blob)
        with pytest.raises(CoverageError, match="no vectors for essay 'nowhere'"):
            read_rows(store, "nowhere", 0, 1)
        ends = r"is not covered \(store ends at sentence 0, token 1\)"
        with pytest.raises(CoverageError, match="'e1': token ordinal 7 " + ends):
            read_rows(store, "e1", 7, 1)
        with pytest.raises(CoverageError, match="'e1': token ordinal 2 " + ends):
            read_rows(store, "e1", 1, 2)

    def test_non_finite_value_names_location(self, tmp_path):
        rng = np.random.default_rng(4)
        records = [("e1", 0, 0, rng.standard_normal(2)), ("e2", 0, 0, rng.standard_normal(2)),
                   ("e2", 1, 0, np.array([0.5, np.nan])), ("e2", 1, 1, np.array([np.inf, 0.0]))]
        with pytest.raises(FormatError, match="essay 'e2': non-finite .* sentence 1, token 0"):
            load_precomputed_file(write_store(tmp_path / "v.pv", 2, records))


class TestEmbeddingSpec:
    def test_stacked_concatenation_order(self, tmp_path):
        table = load_glove("tok 1 2 3")
        rng = np.random.default_rng(2)
        vec = rng.standard_normal(2)
        store = load_precomputed_file(write_store(tmp_path / "v.pv", 2, [("e1", 0, 0, vec)]))
        spec = EmbeddingSpec([table, store], expected_dim=5)
        seq = seq_of(["tok"])
        row = spec.vectorize(seq)
        assert row.shape == (1, 5)
        assert np.allclose(row[0, :3], [1, 2, 3])
        assert np.allclose(row[0, 3:], vec)

        flipped = EmbeddingSpec([store, table], expected_dim=5)
        row2 = flipped.vectorize(seq)
        assert np.allclose(row2[0, :2], vec)
        assert np.allclose(row2[0, 2:], [1, 2, 3])

    def test_glove_only_equals_lookup(self, toy_table, toy_sequences):
        spec = EmbeddingSpec([toy_table], expected_dim=toy_table.dim)
        for seq in toy_sequences[:20]:
            assert_same_bytes(spec.vectorize(seq), glove_oracle(toy_table, seq))

    def test_glove_mixed_case_and_oov_equal_oracle(self):
        table = load_glove("the 1 2\ncat 3 -4.5\nsat 0.25 1e-300\nCat 9 9\n")
        spec = EmbeddingSpec([table], expected_dim=2)
        seq = seq_of(["The", "CAT", "sat", "on", "the", "Mat", "cat", "tHe"])
        rows = spec.vectorize(seq)
        assert_same_bytes(rows, glove_oracle(table, seq))
        assert not rows[3].any() and not rows[5].any()

    def test_store_rows_equal_oracle_across_granularity(self, tmp_path):
        essays = toy_corpus(2, seed=9)
        rng = np.random.default_rng(5)
        records = []
        for essay, spans in essays:
            for seq in build_sequences(essay, spans, "sentence"):
                for t in range(len(seq)):
                    records.append((essay.id, seq.sequence_index, t, rng.standard_normal(3)))
        shuffled = [records[i] for i in rng.permutation(len(records))]
        spec = EmbeddingSpec([load_precomputed_file(write_store(tmp_path / "v.pv", 3, shuffled))],
                             expected_dim=3)
        for essay, spans in essays:
            for seq in build_sequences(essay, spans, "paragraph"):
                assert_same_bytes(spec.vectorize(seq), store_oracle(records, seq))

    def test_store_backed_rows_are_read_only(self, tmp_path):
        records = [("e1", 0, t, np.array([t, -t], dtype=float)) for t in range(3)]
        store = load_precomputed_file(write_store(tmp_path / "v.pv", 2, records))
        rows = EmbeddingSpec([store], expected_dim=2).vectorize(seq_of(["a", "b"]))
        with pytest.raises(ValueError):
            rows[0, 0] = 7.0
        with pytest.raises(ValueError):
            rows += 1.0
        for _, _, t, vec in records:  # one sentence
            assert np.array_equal(read_rows(store, "e1", t, 1)[0], vec)

    def test_dimension_audit_rejects_mismatch(self):
        table = load_glove("tok " + " ".join(["0.5"] * 300))
        with pytest.raises(ConfigurationError, match="4196"):
            EmbeddingSpec([table], expected_dim=4196)

    def test_missing_vector_coverage_error(self, tmp_path):
        store = load_precomputed_file(write_store(tmp_path / "v.pv", 2,
                                                  [("e1", 0, 0, np.zeros(2))]))
        spec = EmbeddingSpec([store], expected_dim=2)
        seq = seq_of(["a", "b"])  # two tokens, store has one vector
        with pytest.raises(CoverageError, match="e1"):
            spec.vectorize(seq)

    def test_ordinals_align_paragraph_and_sentence_views(self, tmp_path):
        essay, spans = toy_corpus(1, seed=9)[0]
        sent_seqs = build_sequences(essay, spans, "sentence")
        rng = np.random.default_rng(3)
        records = []
        for seq in sent_seqs:
            for t in range(len(seq)):
                records.append((essay.id, seq.sequence_index, t, rng.standard_normal(3)))
        spec = EmbeddingSpec([load_precomputed_file(write_store(tmp_path / "v.pv", 3, records))],
                             expected_dim=3)

        para_seqs = build_sequences(essay, spans, "paragraph")
        flat_sentence = np.concatenate([spec.vectorize(s) for s in sent_seqs])
        flat_paragraph = np.concatenate([spec.vectorize(s) for s in para_seqs])
        assert np.array_equal(flat_sentence, flat_paragraph)

    def test_from_file(self, toy_embeddings_file):
        spec = EmbeddingSpec.from_file(toy_embeddings_file)
        assert spec.expected_dim == 16
        assert spec.label == "toy16"

    def test_from_file_keeps_the_source_paths(self, toy_embeddings_file):
        spec = EmbeddingSpec.from_file(toy_embeddings_file)
        assert spec.paths == [toy_embeddings_file.parent / "toy-vectors.txt"]

    def test_byte_order_marks_are_dropped_from_spec_and_table(self, tmp_path):
        bom = "\ufeff".encode("utf-8")
        (tmp_path / "v.txt").write_bytes(bom + b"the 1 2\ncat 3 4\n")
        path = tmp_path / "spec.json"
        path.write_bytes(bom + json.dumps(
            {"expected_dim": 2, "sources": [{"kind": "glove", "path": "v.txt"}]}).encode())
        (table,) = EmbeddingSpec.from_file(path).sources
        assert set(table.index) == {"the", "cat"}
        assert np.array_equal(lookup(table, ["The"]), [[1.0, 2.0]])

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError, match="JSON"):
            EmbeddingSpec.from_file(path)

    def test_from_file_unknown_kind(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"expected_dim": 3, "sources": [{"kind": "fasttext", "path": "x"}]}),
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match="fasttext"):
            EmbeddingSpec.from_file(path)

    @pytest.mark.parametrize(
        "spec,glove",
        [
            ('{"expected_dim": 2, "sources": 5}', None),
            ('{"expected_dim": 2, "sources": ["v.txt"]}', None),
            ('{"expected_dim": 2, "sources": [{"kind": "glove"}]}', None),
            ('{"expected_dim": 2, "sources": [{"kind": "glove", "path": 3}]}', None),
            (b'{"expected_dim": 2, "label": "\xff", "sources": []}', None),
            ('{"expected_dim": 2, "sources": [{"kind": "glove", "path": "v.txt"}]}',
             b"a 1 2\n\xfe 3 4\n"),
            ('{"expected_dim": 2, "label": "x,y", "sources": []}', None),
            ('{"expected_dim": 2, "label": "x\\ny", "sources": []}', None),
            ('{"expected_dim": 2, "label": ["p", "q"], "sources": []}', None),
            ('{"expected_dim": 2, "label": 5, "sources": []}', None),
            ('{"expected_dim": 2.7, "sources": []}', None),
            ('{"expected_dim": "300", "sources": []}', None),
            ('{"expected_dim": true, "sources": []}', None),
            ('{"expected_dim": 0, "sources": []}', None),
            ('[2]', None),
            ('{"expected_dim": 2, "sources": [{"kind": ["glove"], "path": "v.txt"}]}', None),
            ('{"expected_dim": 2, "sources": [{"kind": "glove", "path": "missing.txt"}]}', None),
            ('{"expected_dim": 2, "sources": [{"kind": "glove", "path": "v\\u0000.txt"}]}',
             None),
        ],
        ids=["sources_int", "source_str", "no_path", "path_int", "spec_not_utf8",
             "glove_not_utf8", "label_comma", "label_newline", "label_list", "label_int",
             "dim_float", "dim_str", "dim_bool", "dim_zero", "doc_list", "kind_list",
             "source_missing", "source_nul"],
    )
    def test_from_file_malformed_is_format_error(self, tmp_path, spec, glove):
        path = tmp_path / "spec.json"
        path.write_bytes(spec if isinstance(spec, bytes) else spec.encode())
        if glove is not None:
            (tmp_path / "v.txt").write_bytes(glove)
        with pytest.raises(FormatError, match="v.txt" if glove else "spec.json"):
            EmbeddingSpec.from_file(path)


# ---------------------------------------------------------------------------
# Batches built in place
# ---------------------------------------------------------------------------

VOCAB = ["the", "Cat", "SAT", "on", "mat", "zzqqy", "."]  # "zzqqy" is out of vocabulary


# two tables, mixed case, out-of-vocabulary words, an empty sequence and a
# word whose lowercase is longer than it ("İ")
SPEC_TABLES = ("the 1 2\ncat 3 -4.5\nsat 0.25 1e-300\nCat 9 9\n", "sat 7\nmat -1\ni̇ 5\n")
SPEC_WORDS = [["The", "CAT", "sat", "on"], [], ["the", "Mat", "cat", "tHe", "İ"], ["ON", "sat"]]


class TestSpecBatch:
    @staticmethod
    def sequences():
        return [seq_of(words, seq_idx=k) for k, words in enumerate(SPEC_WORDS)]

    def test_tables_give_the_oracle_rows_and_their_distinct_rows(self):
        tables = [load_glove(text) for text in SPEC_TABLES]
        spec = EmbeddingSpec(tables, expected_dim=3)
        sequences = self.sequences()
        batch = spec.batch(sequences)
        every = seq_of([word for words in SPEC_WORDS for word in words])
        oracle = np.concatenate([glove_oracle(table, every) for table in tables], axis=1)
        assert_same_bytes(batch.rows, oracle)
        assert_same_bytes(batch.rows, spec.write_rows(sequences, np.empty(oracle.shape)))
        assert batch.lengths.tolist() == [len(words) for words in SPEC_WORDS]
        distinct, inverse = batch._distinct
        assert_same_bytes(distinct[inverse], batch.rows)
        lowered = [word.lower() for word in every.words]
        assert len(distinct) == len(set(lowered)) == 6
        assert [lowered[inverse.tolist().index(k)] for k in range(len(distinct))] == list(
            dict.fromkeys(lowered))

    def test_vectorize_gives_the_oracle_rows(self):
        tables = [load_glove(text) for text in SPEC_TABLES]
        spec = EmbeddingSpec(tables, expected_dim=3)
        for seq in self.sequences():
            if len(seq):
                rows = spec.vectorize(seq)
                oracle = np.concatenate([glove_oracle(table, seq) for table in tables], axis=1)
                assert_same_bytes(rows, oracle)
                assert_same_bytes(rows, spec.batch([seq]).rows)

    @pytest.mark.parametrize("with_table", [False, True], ids=["store", "glove_and_store"])
    def test_a_store_gives_the_oracle_rows_and_no_distinct_rows(self, tmp_path, with_table):
        rng = np.random.default_rng(11)
        sequences = [seq_of(words, seq_idx=k, ordinal=sum(map(len, SPEC_WORDS[:k])))
                     for k, words in enumerate(SPEC_WORDS)]
        records = [("e1", 0, t, rng.standard_normal(2)) for t in range(11)]
        store = load_precomputed_file(write_store(tmp_path / "v.pv", 2, records))
        table = load_glove(SPEC_TABLES[0])
        spec = EmbeddingSpec([table, store] if with_table else [store],
                             expected_dim=4 if with_table else 2)
        batch = spec.batch(sequences)
        assert batch._distinct is None
        every = seq_of([word for words in SPEC_WORDS for word in words])
        oracle = store_oracle(records, every)
        if with_table:
            oracle = np.concatenate([glove_oracle(table, every), oracle], axis=1)
        assert_same_bytes(batch.rows, oracle)

    def test_training_batches_carry_the_distinct_rows(self, toy_embeddings, toy_sequences):
        batch, _ = _assemble(toy_sequences[:8], toy_embeddings)
        distinct, inverse = batch._distinct
        assert len(distinct) < len(batch.rows)
        assert_same_bytes(distinct[inverse], batch.rows)


@st.composite
def stacked_batches(draw):
    """(glove text, store dim, store records, sequences of one batch, store
    first?) for essays whose sequences cut the token stream anywhere."""
    glove_dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    glove = "".join(f"{w.lower()} {' '.join(map(repr, rng.standard_normal(glove_dim).tolist()))}\n"
                    for w in VOCAB[:-2] + ["."])
    store_dim = draw(st.integers(1, 4))
    groups, sequences = [], []
    for essay_id in draw(st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True)):
        sentences = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        groups.append([(essay_id, s, t, rng.standard_normal(store_dim))
                       for s, n in enumerate(sentences) for t in range(n)])
        length = sum(sentences)
        cuts = sorted(draw(st.sets(st.integers(1, length - 1), max_size=3))) if length > 1 else []
        for k, (lo, hi) in enumerate(zip([0] + cuts, cuts + [length])):
            words = [draw(st.sampled_from(VOCAB)) for _ in range(hi - lo)]
            sequences.append(seq_of(words, essay_id, k, ordinal=lo))
    layout = draw(st.sampled_from(["grouped", "interleaved", "shuffled"]))
    if layout == "grouped":
        records = [r for g in groups for r in g]
    elif layout == "interleaved":
        records = [g[k] for k in range(max(map(len, groups))) for g in groups if k < len(g)]
    else:
        records = draw(st.permutations([r for g in groups for r in g]))
    batch = draw(st.permutations(sequences))[: draw(st.integers(1, len(sequences)))]
    return glove, store_dim, records, batch, draw(st.booleans())


@pytest.fixture(scope="module")
def store_file(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("batch") / "v.pv"


@settings(max_examples=150, deadline=None)
@given(stacked_batches(), st.integers(1, 200))
def test_batch_built_in_place_equals_the_per_sequence_oracle(store_file, case, chunk):
    glove, store_dim, records, sequences, store_first = case
    table = load_glove(glove)
    write_store(store_file, store_dim, records)
    with mock.patch.object(embeddings, "_CHUNK", chunk):  # reads of a few records each
        store = load_precomputed_file(store_file)
        sources = [table, store]
        spec = EmbeddingSpec(sources[::-1] if store_first else sources,
                             expected_dim=table.dim + store_dim)
        batch, gold = _assemble(sequences, spec)
        alone = [spec.vectorize(seq) for seq in sequences]
    oracle = [np.concatenate([glove_oracle(table, seq), store_oracle(records, seq)][
        ::-1 if store_first else 1], axis=1) for seq in sequences]
    assert batch.lengths.tolist() == [len(seq) for seq in sequences]
    assert len(gold) == len(batch.rows)
    assert_same_bytes(batch.rows, np.concatenate(oracle))
    for rows, expected in zip(alone, oracle):
        assert_same_bytes(rows, expected)
        assert not rows.flags.writeable


# ---------------------------------------------------------------------------
# Mutated embedding files
# ---------------------------------------------------------------------------


TOY_GLOVE = toy_glove_text(dim=3, seed=7).encode("utf-8")


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=300, deadline=None)
@given(mutations(TOY_GLOVE))
def test_mutated_glove_file_gives_a_table_or_a_format_error(mutation_dir, data):
    path = mutation_dir / "v.txt"
    path.write_bytes(data)
    try:
        table = load_glove_file(path)
    except ArgsegError:
        return
    assert table.vectors.shape == (len(table.index) + 1, table.dim)
    assert np.isfinite(table.vectors).all() and not table.vectors[-1].any()


def toy_spec_files() -> dict[str, bytes]:
    """A stacked spec and its two sources: the toy GloVe text and a 2-d store."""
    rng = np.random.default_rng(18)
    buf = io.BytesIO()
    write_precomputed(buf, 2, [("e1", s, t, rng.standard_normal(2))
                               for s in range(2) for t in range(3)])
    spec = {"expected_dim": 5, "label": "toy5",
            "sources": [{"kind": "glove", "path": "v.txt"},
                        {"kind": "precomputed", "path": "s.pv"}]}
    return {"spec.json": json.dumps(spec).encode("utf-8"), "v.txt": TOY_GLOVE,
            "s.pv": buf.getvalue()}


TOY_SPEC_FILES = toy_spec_files()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(TOY_SPEC_FILES)).flatmap(
    lambda name: st.tuples(st.just(name), mutations(TOY_SPEC_FILES[name]))))
def test_mutated_spec_or_source_gives_a_spec_or_an_argseg_error(mutation_dir, mutated):
    name, data = mutated
    for other, original in TOY_SPEC_FILES.items():
        (mutation_dir / other).write_bytes(data if other == name else original)
    try:
        spec = EmbeddingSpec.from_file(mutation_dir / "spec.json")
    except ArgsegError:
        return
    assert spec.expected_dim == sum(src.dim for src in spec.sources)
