import csv
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argseg.cli import main
from argseg.corpus import (
    AnnotationSpan,
    ConversionStats,
    Essay,
    LabeledSequence,
    Token,
    bio_label,
    build_sequences,
    load_split,
    parse_brat,
    read_conll,
    reconstruct,
    spans_from_labels,
    tokenize,
    write_conll,
)
from argseg.errors import ArgsegError, ContractViolation, CorpusIntegrityError, SplitError
from argseg.files import read_text
from argseg.toydata import brat_lines, toy_corpus
from toy_files import mutations


class TestParseBrat:
    TEXT = "We should value honest debate. It matters a lot."

    def test_single_span(self):
        ann = "T1\tClaim 10 29\tvalue honest debate\n"
        assert self.TEXT[10:29] == "value honest debate"
        spans = parse_brat(ann, self.TEXT)
        assert spans == [AnnotationSpan(10, 29, "Claim")]

    def test_relations_and_attributes_ignored(self):
        ann = "R1\tsupports Arg1:T1 Arg2:T2\nA1\tStance T1 For\n#1\tAnnotatorNotes T1\tok\n"
        assert parse_brat(ann, self.TEXT) == []

    def test_non_unit_types_ignored(self):
        ann = "T1\tTopic 0 2\tWe\n"
        assert parse_brat(ann, self.TEXT) == []

    def test_offsets_out_of_range(self):
        with pytest.raises(CorpusIntegrityError, match="out of range"):
            parse_brat("T1\tClaim 10 9999\tx\n", self.TEXT)

    def test_surface_mismatch_names_line(self):
        with pytest.raises(CorpusIntegrityError, match="surface mismatch.*T1"):
            parse_brat("T1\tClaim 10 29\twrong surface text\n", self.TEXT)

    def test_overlap_rejected(self):
        ann = (
            "T1\tClaim 3 15\tshould value\n"
            "T2\tPremise 10 29\tvalue honest debate\n"
        )
        with pytest.raises(CorpusIntegrityError, match="overlapping"):
            parse_brat(ann, self.TEXT)

    def test_malformed_line(self):
        with pytest.raises(CorpusIntegrityError, match="malformed"):
            parse_brat("T1\tClaim 10\n", self.TEXT)

    def test_count_matches_line_grep_oracle(self):
        for essay, spans in toy_corpus(6, seed=1):
            ann = brat_lines(spans, essay.text)
            expected = len(
                re.findall(r"^T\d+\t(?:MajorClaim|Claim|Premise) ", ann, re.MULTILINE)
            )
            assert len(parse_brat(ann, essay.text)) == expected


class TestTokenize:
    def test_basic_sentence(self):
        toks = [t.text for t in tokenize("Cloning is wrong.")]
        assert toks == ["Cloning", "is", "wrong", "."]

    def test_hyphenated_word_is_one_token(self):
        toks = [t.text for t in tokenize("state-of-the-art")]
        assert toks == ["state-of-the-art"]

    def test_apostrophe_kept_inside(self):
        toks = [t.text for t in tokenize("don't stop")]
        assert toks == ["don't", "stop"]

    def test_punctuation_single_char(self):
        toks = [t.text for t in tokenize('He said: "go!"')]
        assert toks == ["He", "said", ":", '"', "go", "!", '"']

    def test_offsets_faithful(self):
        text = "A b-c, d'e!\n  f"
        for tok in tokenize(text):
            assert text[tok.start : tok.end] == tok.text

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=80))
    def test_reconstruction_property(self, text):
        assert reconstruct(text, tokenize(text)) == text

    def test_reconstruction_over_toy_corpus(self):
        for essay, _ in toy_corpus(8, seed=2):
            assert reconstruct(essay.text, tokenize(essay.text)) == essay.text


class TestBioLabel:
    def test_canonical_case(self):
        text = "aa bb cc dd ee ff"
        tokens = tokenize(text)
        spans = [AnnotationSpan(6, 14, "Claim")]  # covers cc dd ee
        assert bio_label(tokens, spans) == ["O", "O", "B", "I", "I", "O"]

    def test_no_spans_all_outside(self):
        tokens = tokenize("one two three")
        assert bio_label(tokens, []) == ["O"] * 3

    def test_every_span_contributes_one_begin(self):
        for essay, spans in toy_corpus(8, seed=3):
            labels = bio_label(tokenize(essay.text), spans)
            assert labels.count("B") == len(spans)

    def test_histogram_matches_interval_sweep_oracle(self):
        for essay, spans in toy_corpus(8, seed=4):
            tokens = tokenize(essay.text)
            labels = bio_label(tokens, spans)
            # oracle: character-interval sweep, no BIO logic shared
            inside_total = 0
            for tok in tokens:
                if any(s.start < tok.end and tok.start < s.end for s in spans):
                    inside_total += 1
            expected = {
                "B": len(spans),
                "I": inside_total - len(spans),
                "O": len(tokens) - inside_total,
            }
            got = {lab: labels.count(lab) for lab in ("B", "I", "O")}
            assert got == expected

    def test_token_spanning_two_units_rejected(self):
        text = "ab-cd"
        tokens = tokenize(text)  # one hyphenated token
        assert len(tokens) == 1
        spans = [AnnotationSpan(0, 2, "Claim"), AnnotationSpan(3, 5, "Premise")]
        with pytest.raises(CorpusIntegrityError, match="two annotation spans"):
            bio_label(tokens, spans)

    def test_roundtrip_reconstructs_span_coverage(self):
        for essay, spans in toy_corpus(8, seed=5):
            tokens = tokenize(essay.text)
            labels = bio_label(tokens, spans)
            units = spans_from_labels(labels)
            expected = []
            for span in sorted(spans, key=lambda s: s.start):
                covered = [
                    i
                    for i, t in enumerate(tokens)
                    if t.start < span.end and span.start < t.end
                ]
                expected.append((covered[0], covered[-1]))
            assert units == expected


class TestBuildSequences:
    def test_two_paragraphs_partition_tokens(self):
        essay = Essay("e1", "First little paragraph.\n\nSecond one here.")
        seqs = build_sequences(essay, [], "paragraph")
        assert len(seqs) == 2
        merged = [t.text for s in seqs for t in s.tokens]
        assert merged == [t.text for t in tokenize(essay.text)]
        assert seqs[0].token_ordinal_start == 0
        assert seqs[1].token_ordinal_start == len(seqs[0])

    def test_single_newline_also_splits(self):
        essay = Essay("e1", "Title line\n\nPara one text.\nPara two text.\n")
        seqs = build_sequences(essay, [], "paragraph")
        assert len(seqs) == 3

    def test_sentence_granularity_splits_on_terminators(self):
        essay = Essay("e1", "One thing here. Another thing there! Is it so? Yes.")
        seqs = build_sequences(essay, [], "sentence")
        assert len(seqs) == 4
        assert [t.text for t in seqs[0].tokens] == ["One", "thing", "here", "."]

    def test_sentence_split_suppressed_inside_unit(self):
        text = "He argued this. Strongly so. Then left."
        # unit crosses the first sentence boundary
        span = AnnotationSpan(text.index("this"), text.index("so") + 2, "Claim")
        essay = Essay("e1", text)
        seqs = build_sequences(essay, [span], "sentence")
        assert len(seqs) == 2  # only the second boundary splits
        assert "Strongly" in [t.text for t in seqs[0].tokens]

    def test_unit_cut_by_paragraph_gets_relabeled(self):
        text = "Start of a unit here\nand it continues after the break."
        span = AnnotationSpan(text.index("unit"), text.index("continues") + 9, "Premise")
        essay = Essay("e1", text)
        stats = ConversionStats()
        seqs = build_sequences(essay, [span], "paragraph", stats)
        assert len(seqs) == 2
        assert seqs[1].labels[0] == "B"
        assert stats.boundary_relabels == 1

    def test_corpus_wide_bio_well_formedness(self):
        stats = ConversionStats()
        for essay, spans in toy_corpus(10, seed=6):
            for granularity in ("paragraph", "sentence"):
                for seq in build_sequences(essay, spans, granularity, stats):
                    previous = None
                    for lab in seq.labels:
                        assert lab in ("B", "I", "O")
                        if lab == "I":
                            assert previous in ("B", "I")
                        previous = lab

    def test_sequences_cover_essay_tokens_disjointly(self):
        for essay, spans in toy_corpus(6, seed=7):
            seqs = build_sequences(essay, spans, "sentence")
            merged = [
                (t.start, t.end) for s in seqs for t in s.tokens
            ]
            full = [(t.start, t.end) for t in tokenize(essay.text)]
            assert merged == full

    def test_unknown_granularity(self):
        with pytest.raises(ContractViolation):
            build_sequences(Essay("e", "x"), [], "document")


class TestLoadSplit:
    def test_basic_and_quoted(self):
        plain = "ID;SET\nessay001;TRAIN\nessay002;TEST\n"
        quoted = '"ID";"SET"\n"essay001";"TRAIN"\n"essay002";"TEST"\n'
        for content in (plain, quoted):
            split = load_split(content)
            assert split == {"essay001": "train", "essay002": "test"}

    def test_full_coverage_counts(self):
        rows = ["ID;SET"] + [
            f"essay{k:03d};{'TRAIN' if k % 4 else 'TEST'}" for k in range(1, 31)
        ]
        split = load_split("\n".join(rows))
        parts = list(split.values())
        assert len(parts) == 30 and parts.count("test") == 7

    def test_duplicate_rejected(self):
        with pytest.raises(SplitError, match="duplicate"):
            load_split("ID;SET\ne1;TRAIN\ne1;TEST\n")

    def test_unknown_and_missing_ids(self):
        content = "ID;SET\ne1;TRAIN\ne2;TEST\n"
        with pytest.raises(SplitError, match="unknown"):
            load_split(content, known_ids=["e1"])
        with pytest.raises(SplitError, match="misses"):
            load_split(content, known_ids=["e1", "e2", "e3"])

    def test_bad_header_and_bad_set(self):
        with pytest.raises(SplitError, match="header"):
            load_split("NAME;PART\ne1;TRAIN\n")
        with pytest.raises(SplitError, match="unknown set"):
            load_split("ID;SET\ne1;DEV\n")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_any_line_ending_loads(self, newline):
        content = newline.join(["ID;SET", "e1;TRAIN", '"e2";"TEST"', ""])
        assert load_split(content) == {"e1": "train", "e2": "test"}

    def test_stray_carriage_return_ends_the_line(self):
        with pytest.raises(SplitError, match="^unknown set 'TR' for essay e1$"):
            load_split("ID;SET\ne1;TR\rAIN\n")

    def test_csv_error_is_a_split_error_naming_the_line(self):
        too_long = "x" * (csv.field_size_limit() + 1)
        with pytest.raises(SplitError, match=r"^split file line 3: field larger than field limit"):
            load_split(f"ID;SET\ne1;TRAIN\n{too_long};TEST\n")


class TestLabeledSequence:
    COLUMNS = {"words": ["a", "b"], "starts": [0, 2], "ends": [1, 3], "labels": ["O", "B"]}

    @pytest.mark.parametrize("column", list(COLUMNS))
    def test_columns_of_unequal_length_rejected(self, column):
        columns = {**self.COLUMNS, column: self.COLUMNS[column][:1]}
        with pytest.raises(ContractViolation, match=r"^e1\[3\]: "):
            LabeledSequence("e1", 3, **columns)

    def test_tokens_are_built_from_the_columns(self):
        seq = LabeledSequence("e1", 0, **self.COLUMNS)
        assert len(seq) == 2
        assert seq.tokens == [Token("a", 0, 1), Token("b", 2, 3)]


@pytest.fixture(scope="module")
def converted_train(tmp_path_factory, toy_corpus_dir):
    """``train.conll`` of ``argseg convert`` over the toy corpus directory."""
    out = tmp_path_factory.mktemp("converted")
    assert main(["convert", str(toy_corpus_dir), str(toy_corpus_dir / "train-test-split.csv"),
                 "--out", str(out)]) == 0
    return out / "train.conll"


class TestConll:
    @pytest.mark.parametrize("granularity", ["paragraph", "sentence"])
    def test_write_read_roundtrip(self, tmp_path, granularity):
        sequences = []
        for essay, spans in toy_corpus(4, seed=8):
            built = build_sequences(essay, spans, granularity)
            tokens = tokenize(essay.text)
            for seq in built:  # each sequence's columns are its slice of the essay's tokens
                ordinal = seq.token_ordinal_start
                assert seq.tokens == tokens[ordinal:ordinal + len(seq)]
            sequences.extend(built)
        path = tmp_path / "seqs.conll"
        with open(path, "w", encoding="utf-8") as fh:
            write_conll(sequences, fh)
        with open(path, "r", encoding="utf-8") as fh:
            restored = read_conll(fh)
        assert restored == sequences  # every column, id, index and ordinal

    def test_read_conll_builds_no_token(self, converted_train, monkeypatch):
        made = []
        init = Token.__init__

        def counting_init(self, *args):
            made.append(args)
            init(self, *args)

        monkeypatch.setattr(Token, "__init__", counting_init)
        with open(converted_train, encoding="utf-8") as fh:
            sequences = read_conll(fh)
        assert sequences and made == []
        sequences[0].tokens  # the count does see the view's tokens
        assert len(made) == len(sequences[0])

    def test_rewrite_reproduces_a_converted_file(self, converted_train):
        with open(converted_train, encoding="utf-8", newline="") as fh:
            sequences = read_conll(fh)
        out = io.StringIO(newline="")
        write_conll(sequences, out)
        assert out.getvalue().encode("utf-8") == converted_train.read_bytes()

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("just two\tcolumns\n", encoding="utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            with pytest.raises(CorpusIntegrityError, match="line 1"):
                read_conll(fh)

    @pytest.mark.parametrize("column", [2, 3, 4])  # seq_index, start, end
    def test_non_integer_field_rejected(self, tmp_path, column):
        cols = ["word", "essay001", "0", "0", "4", "O"]
        good = "\t".join(cols) + "\n"
        cols[column] = "x1"
        path = tmp_path / "bad.conll"
        path.write_text(good + "\t".join(cols) + "\n", encoding="utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            with pytest.raises(CorpusIntegrityError, match="line 2"):
                read_conll(fh)

    @pytest.mark.parametrize("start,end", [(-7, -9), (-1, 3), (4, 4), (5, 2)])
    def test_offsets_outside_a_token_rejected(self, start, end):
        text = f"w\te\t0\t0\t1\tO\nw\te\t0\t{start}\t{end}\tO\n"
        with pytest.raises(CorpusIntegrityError, match=f"^line 2: token offsets must satisfy "
                                                       f"0 <= start < end, got start {start} "
                                                       f"and end {end}$"):
            read_conll(io.StringIO(text))

    @staticmethod
    def blocks(keys) -> str:
        """One one-token sequence per (essay id, sequence index), in order."""
        return "\n".join(f"w\t{essay_id}\t{index}\t0\t1\tO\n" for essay_id, index in keys)

    @pytest.mark.parametrize("keys,line,index,expected", [
        ([("e", 1), ("e", 0)], 1, 1, 0),  # swapped: each would get the other's ordinal
        ([("e", 0), ("e", 0)], 3, 0, 1),  # repeated
        ([("e", 0), ("f", 0), ("e", 2)], 5, 2, 1),  # skipped
    ])
    def test_sequence_index_out_of_file_order_rejected(self, keys, line, index, expected):
        with pytest.raises(CorpusIntegrityError, match=f"^line {line}: essay 'e' has sequence "
                                                       f"index {index} where {expected} is next"):
            read_conll(io.StringIO(self.blocks(keys)))

    def test_interleaved_essays_keep_their_ordinals(self):
        sequences = read_conll(io.StringIO(self.blocks([("e", 0), ("f", 0), ("e", 1)])))
        assert [(s.essay_id, s.sequence_index, s.token_ordinal_start) for s in sequences] == [
            ("e", 0, 0), ("f", 0, 0), ("e", 1, 1)]


# ---------------------------------------------------------------------------
# Mutated corpus files
# ---------------------------------------------------------------------------


def toy_corpus_files():
    """(essay text, essay ids, file name -> bytes) for three toy essays: the
    first essay's brat annotations, a split file with quoted and unquoted
    rows, and a CoNLL file."""
    annotated = toy_corpus(3, seed=5)
    essay, spans = annotated[0]
    split = '"{}";"TRAIN"\n{};TRAIN\n{};TEST\n'.format(*(e.id for e, _ in annotated))
    conll = io.StringIO()
    write_conll([seq for e, sp in annotated for seq in build_sequences(e, sp)], conll)
    files = {"essay.ann": brat_lines(spans, essay.text), "split.csv": '"ID";"SET"\n' + split,
             "seqs.conll": conll.getvalue()}
    return essay.text, [e.id for e, _ in annotated], {
        name: text.encode("utf-8") for name, text in files.items()}


ESSAY_TEXT, ESSAY_IDS, CORPUS_FILES = toy_corpus_files()
RUNS = b'9-\t\r\n;"\x00'  # digits, signs and every separator the three formats use


def load_corpus_file(name: str, text: str):
    """Parse ``text`` as the CLI parses the file ``name``."""
    if name == "essay.ann":
        return parse_brat(text, ESSAY_TEXT)
    if name == "split.csv":
        return load_split(text, known_ids=ESSAY_IDS)
    return read_conll(io.StringIO(text, newline=None))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_unmutated_corpus_files_load():
    for name, data in CORPUS_FILES.items():
        assert load_corpus_file(name, data.decode("utf-8"))


@pytest.mark.parametrize("name", sorted(CORPUS_FILES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_corpus_file_gives_a_value_or_an_argseg_error(fuzz_dir, name, data):
    """Decoded as strict UTF-8 by ``read_text``, as the CLI decodes it; any
    other exception (``csv.Error``, ``ValueError``, ``IndexError``) escapes
    and fails the test."""
    path = fuzz_dir / name
    path.write_bytes(data.draw(mutations(CORPUS_FILES[name], RUNS)))
    try:
        loaded = load_corpus_file(name, read_text(path))
    except ArgsegError:
        return
    assert isinstance(loaded, list) or set(loaded) == set(ESSAY_IDS)
