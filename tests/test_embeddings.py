import io
import json
import struct
import zlib

import numpy as np
import pytest

from argseg.corpus import LabeledSequence, Token, build_sequences
from argseg.embeddings import (
    EmbeddingSpec,
    GloveSource,
    PrecomputedSource,
    load_glove,
    load_precomputed,
    oov_statistics,
    write_precomputed,
)
from argseg.errors import ConfigurationError, CoverageError, FormatError
from argseg.toydata import toy_corpus


def seq_of(words, essay_id="e1", seq_idx=0, ordinal=0):
    tokens = []
    pos = 0
    for w in words:
        tokens.append(Token(w, pos, pos + len(w)))
        pos += len(w) + 1
    return LabeledSequence(essay_id, seq_idx, tokens, ["O"] * len(words), ordinal)


class TestLoadGlove:
    def test_single_line(self):
        table = load_glove("the 0.1 0.2 0.3")
        assert table.dim == 3
        assert np.allclose(table.lookup("the"), [0.1, 0.2, 0.3])

    def test_vocabulary_size_matches_line_count_oracle(self):
        lines = [f"word{k} {k} {k + 1}" for k in range(50)]
        content = "\n".join(lines)
        table = load_glove(content)
        assert len(table) == len(content.splitlines())

    def test_inconsistent_dimension_names_line(self):
        with pytest.raises(FormatError, match="line 3"):
            load_glove("a 1 2\nb 3 4\nc 5 6 7\n")

    def test_duplicate_first_wins(self):
        table = load_glove("a 1 2\na 3 4\n")
        assert np.allclose(table.lookup("a"), [1.0, 2.0])
        assert table.duplicates_skipped == 1

    def test_non_numeric_value(self):
        with pytest.raises(FormatError, match="line 2"):
            load_glove("a 1 2\nb x 4\n")

    def test_empty_table_rejected(self):
        with pytest.raises(FormatError, match="empty"):
            load_glove("")


class TestLookup:
    def test_in_vocabulary(self):
        table = load_glove("cat 1 2 3")
        assert np.allclose(table.lookup("cat"), [1, 2, 3])

    def test_case_folded(self):
        table = load_glove("cat 1 2 3")
        assert np.allclose(table.lookup("Cat"), [1, 2, 3])
        assert "CAT" in table

    def test_oov_zero_vector(self):
        table = load_glove("cat 1 2 3")
        assert np.array_equal(table.lookup("zzqqy"), np.zeros(3))

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

    def test_roundtrip_bit_identical(self):
        blob, records = self.build()
        store = load_precomputed(blob)
        assert store.dim == 4
        assert len(store) == len(records)
        for essay, s, t, vec in records:
            assert np.array_equal(store.vector(essay, s, t), vec)

    def test_single_record_store(self):
        buf = io.BytesIO()
        write_precomputed(buf, 3, [("only", 0, 0, np.arange(3.0))])
        store = load_precomputed(buf.getvalue())
        assert len(store) == 1
        assert np.array_equal(store.vector("only", 0, 0), [0.0, 1.0, 2.0])

    def test_header_dim_3072_accepted_by_spec(self):
        blob, _ = self.build(dim=3072, essays=("e1",), sentences=1, tokens=2)
        store = load_precomputed(blob)
        spec = EmbeddingSpec([PrecomputedSource(store)], expected_dim=3072)
        assert spec.expected_dim == 3072

    def test_truncated_payload_rejected(self):
        blob, _ = self.build()
        with pytest.raises(FormatError):
            load_precomputed(blob[: len(blob) // 2])

    def test_corrupted_payload_fails_checksum(self):
        blob, _ = self.build()
        corrupted = bytearray(blob)
        corrupted[len(blob) // 2] ^= 0xFF
        with pytest.raises(FormatError, match="checksum"):
            load_precomputed(bytes(corrupted))

    def test_non_utf8_essay_id_rejected(self):
        blob, _ = self.build(essays=("ab",), sentences=1, tokens=1)
        header = len(b"ARGSEGPV") + 16
        payload = blob[header:-4].replace(b"ab", b"\xff\xfe", 1)
        bad = blob[:header] + payload + struct.pack("<I", zlib.crc32(payload))
        with pytest.raises(FormatError, match="UTF-8"):
            load_precomputed(bad)

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            load_precomputed(b"WRONGMAG" + b"\x00" * 32)

    def test_gap_in_keys_rejected(self):
        rng = np.random.default_rng(1)
        buf = io.BytesIO()
        records = [("e1", 0, 0, rng.standard_normal(2)), ("e1", 0, 2, rng.standard_normal(2))]
        write_precomputed(buf, 2, records)
        with pytest.raises(FormatError, match="contiguous"):
            load_precomputed(buf.getvalue())

    def test_ordinal_view_spans_sentences(self):
        blob, records = self.build(essays=("e1",), sentences=3, tokens=2)
        store = load_precomputed(blob)
        for ordinal, (_, s, t, vec) in enumerate(records):
            assert np.array_equal(store.vector_by_ordinal("e1", ordinal), vec)

    def test_coverage_errors_name_location(self):
        blob, _ = self.build(essays=("e1",), sentences=1, tokens=2)
        store = load_precomputed(blob)
        with pytest.raises(CoverageError, match="nowhere"):
            store.vector_by_ordinal("nowhere", 0)
        with pytest.raises(CoverageError, match="sentence 0, token 1"):
            store.vector_by_ordinal("e1", 7)
        with pytest.raises(CoverageError, match="sentence 4"):
            store.vector("e1", 4, 0)


class TestEmbeddingSpec:
    def test_stacked_concatenation_order(self):
        table = load_glove("tok 1 2 3")
        rng = np.random.default_rng(2)
        buf = io.BytesIO()
        vec = rng.standard_normal(2)
        write_precomputed(buf, 2, [("e1", 0, 0, vec)])
        store = load_precomputed(buf.getvalue())
        spec = EmbeddingSpec(
            [GloveSource(table), PrecomputedSource(store)], expected_dim=5
        )
        seq = seq_of(["tok"])
        row = spec.vectorize(seq)
        assert row.shape == (1, 5)
        assert np.allclose(row[0, :3], [1, 2, 3])
        assert np.allclose(row[0, 3:], vec)

        flipped = EmbeddingSpec(
            [PrecomputedSource(store), GloveSource(table)], expected_dim=5
        )
        row2 = flipped.vectorize(seq)
        assert np.allclose(row2[0, :2], vec)
        assert np.allclose(row2[0, 2:], [1, 2, 3])

    def test_glove_only_equals_lookup(self, toy_table, toy_sequences):
        spec = EmbeddingSpec([GloveSource(toy_table)], expected_dim=toy_table.dim)
        seq = toy_sequences[0]
        rows = spec.vectorize(seq)
        for i, tok in enumerate(seq.tokens):
            assert np.array_equal(rows[i], toy_table.lookup(tok.text))

    def test_dimension_audit_rejects_mismatch(self):
        table = load_glove("tok " + " ".join(["0.5"] * 300))
        with pytest.raises(ConfigurationError, match="4196"):
            EmbeddingSpec([GloveSource(table)], expected_dim=4196)

    def test_missing_vector_coverage_error(self):
        buf = io.BytesIO()
        write_precomputed(buf, 2, [("e1", 0, 0, np.zeros(2))])
        store = load_precomputed(buf.getvalue())
        spec = EmbeddingSpec([PrecomputedSource(store)], expected_dim=2)
        seq = seq_of(["a", "b"])  # two tokens, store has one vector
        with pytest.raises(CoverageError, match="e1"):
            spec.vectorize(seq)

    def test_ordinals_align_paragraph_and_sentence_views(self):
        essay, spans = toy_corpus(1, seed=9)[0]
        sent_seqs = build_sequences(essay, spans, "sentence")
        rng = np.random.default_rng(3)
        records = []
        for seq in sent_seqs:
            for t in range(len(seq)):
                records.append((essay.id, seq.sequence_index, t, rng.standard_normal(3)))
        buf = io.BytesIO()
        write_precomputed(buf, 3, records)
        store = load_precomputed(buf.getvalue())
        spec = EmbeddingSpec([PrecomputedSource(store)], expected_dim=3)

        para_seqs = build_sequences(essay, spans, "paragraph")
        flat_sentence = np.concatenate([spec.vectorize(s) for s in sent_seqs])
        flat_paragraph = np.concatenate([spec.vectorize(s) for s in para_seqs])
        assert np.array_equal(flat_sentence, flat_paragraph)

    def test_from_file(self, toy_embeddings_file):
        spec = EmbeddingSpec.from_file(toy_embeddings_file)
        assert spec.expected_dim == 16
        assert spec.label == "toy16"

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
        ],
        ids=["sources_int", "source_str", "no_path", "path_int", "spec_not_utf8",
             "glove_not_utf8"],
    )
    def test_from_file_malformed_is_format_error(self, tmp_path, spec, glove):
        path = tmp_path / "spec.json"
        path.write_bytes(spec if isinstance(spec, bytes) else spec.encode())
        if glove is not None:
            (tmp_path / "v.txt").write_bytes(glove)
        with pytest.raises(FormatError, match="v.txt" if glove else "spec.json"):
            EmbeddingSpec.from_file(path)
