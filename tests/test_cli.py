import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from argseg import cli
from argseg.cli import main
from argseg.corpus import read_conll
from argseg.models import ArchitectureId, ModelSpec, build_model, load_checkpoint
from toy_files import write_toy_corpus_dir


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_artifacts_digest(out: Path, arch: str) -> dict[str, str]:
    """SHA-256 of a train run's checkpoint and curve, and apart from them of
    its manifest less the paths and clock readings, so that a key added to
    the manifest moves only the second."""
    manifest = json.loads((out / "manifest-train.json").read_text())
    for volatile in ("arguments", "outputs", "started_unix", "finished_unix"):
        del manifest[volatile]
    digest = hashlib.sha256((out / f"{arch}.ckpt").read_bytes())
    digest.update((out / f"{arch}-curve.csv").read_bytes())
    return {"checkpoint and curve": digest.hexdigest(),
            "manifest": hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()}


# train_artifacts_digest of test_lr_search_flag's run
LR_SEARCH_DIGEST = {
    "checkpoint and curve": "74907cf3dc8a150e9891f25453f8a98e7465319dee0cb8b487b6132252751259",
    "manifest": "9cbb301e7a8445353634d6e60282f563dcf8523a439e798d6aeadb969cd394a8",
}


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    return write_toy_corpus_dir(tmp_path_factory.mktemp("clicorpus"), n_essays=8, seed=4)


@pytest.fixture(scope="module")
def converted(tmp_path_factory, small_corpus):
    out = tmp_path_factory.mktemp("converted")
    rc = main([
        "convert", str(small_corpus), str(small_corpus / "train-test-split.csv"),
        "--granularity", "paragraph", "--out", str(out),
    ])
    assert rc == 0
    return out


class TestConvert:
    def test_outputs_and_report(self, converted):
        assert (converted / "train.conll").exists()
        assert (converted / "test.conll").exists()
        report = json.loads((converted / "conversion-report.json").read_text())
        assert report["essays"] == 8
        assert report["label_histogram"]["B"] > 0
        assert (converted / "manifest-convert.json").exists()

    def test_rerun_byte_identical(self, small_corpus, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main([
                "convert", str(small_corpus),
                str(small_corpus / "train-test-split.csv"), "--out", str(out),
            ])
            assert rc == 0
        assert sha(out1 / "train.conll") == sha(out2 / "train.conll")
        assert sha(out1 / "test.conll") == sha(out2 / "test.conll")

    def test_empty_directory_fails_without_outputs(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "out"
        rc = main(["convert", str(empty), str(tmp_path / "split.csv"), "--out", str(out)])
        assert rc == 1
        assert not (out / "train.conll").exists()

    def test_split_errors_propagate(self, small_corpus, tmp_path):
        bad_split = tmp_path / "bad.csv"
        bad_split.write_text("ID;SET\nessay001;TRAIN\n", encoding="utf-8")
        rc = main(["convert", str(small_corpus), str(bad_split), "--out", str(tmp_path / "o")])
        assert rc == 1


class TestTrainCommand:
    def test_train_writes_artifacts(self, converted, toy_embeddings_file, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "train", str(converted / "train.conll"),
            "--arch", "sb", "--embeddings", str(toy_embeddings_file),
            "--hidden", "6", "--max-epochs", "3", "--patience", "5",
            "--lr", "0.005", "--seed", "7", "--batch-size", "8",
            "--out", str(out),
        ])
        assert rc == 0
        assert (out / "sb.ckpt").exists()
        curve = (out / "sb-curve.csv").read_text().splitlines()
        assert curve[0] == "epoch,train_loss,val_loss"
        assert len(curve) == 4
        manifest = json.loads((out / "manifest-train.json").read_text())
        assert manifest["command"] == "train"
        assert "generalization_gap" in manifest

    def test_seeded_training_reproduces_checkpoint(self, converted, toy_embeddings_file, tmp_path):
        hashes = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            rc = main([
                "train", str(converted / "train.conll"),
                "--arch", "sb-i", "--embeddings", str(toy_embeddings_file),
                "--hidden", "5", "--max-epochs", "2", "--patience", "5",
                "--lr", "0.003", "--seed", "11", "--batch-size", "8",
                "--out", str(out),
            ])
            assert rc == 0
            hashes.append(sha(out / "sb-i.ckpt"))
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("flag,value,problem", [
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--lr", "nan", "learning_rate must be finite, got nan"),
    ], ids=["negative_seed", "non_finite_lr"])
    def test_setting_that_cannot_train_is_named_error(self, converted, toy_embeddings_file,
                                                      tmp_path, capsys, flag, value, problem):
        out = tmp_path / "bad"
        rc = main([
            "train", str(converted / "train.conll"),
            "--arch", "sb", "--embeddings", str(toy_embeddings_file),
            flag, value, "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not (out / "sb.ckpt").exists()

    def test_diverged_run_keeps_the_last_finite_checkpoint(self, converted, toy_embeddings_file,
                                                           tmp_path, capsys):
        out = tmp_path / "diverged"
        # Adam's first step moves every parameter by about the rate, so the
        # next batch's logits overflow
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main([
                "train", str(converted / "train.conll"),
                "--arch", "sb", "--embeddings", str(toy_embeddings_file),
                "--hidden", "4", "--max-epochs", "3", "--lr", "1e308",
                "--seed", "2", "--batch-size", "8", "--out", str(out),
            ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("training diverged: epoch 1: "), err
        assert err.endswith("; last finite checkpoint kept\n"), err
        model = load_checkpoint(out / "sb.ckpt")
        fresh = build_model(ModelSpec(ArchitectureId.SB, input_dim=16, hidden=4, seed=2))
        for p, q in zip(model.params(), fresh.params(), strict=True):
            assert np.isfinite(p.value).all(), p.name
            assert np.array_equal(p.value, q.value), p.name
        manifest = json.loads((out / "manifest-train.json").read_text())
        assert "curve" not in manifest["outputs"]
        assert not (out / "sb-curve.csv").exists()

    def test_unknown_arch_is_usage_error(self, converted, toy_embeddings_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "train", str(converted / "train.conll"),
                "--arch", "lstm-crf", "--embeddings", str(toy_embeddings_file),
                "--out", str(tmp_path / "x"),
            ])
        assert exc.value.code == 2

    def test_manifest_checksums_the_vector_files(self, converted, toy_embeddings_file, tmp_path):
        """Two runs under the same spec JSON, whose tables differ in one value."""
        word, first, rest = (toy_embeddings_file.parent / "toy-vectors.txt").read_text(
            encoding="utf-8").split(" ", 2)
        inputs = []
        for sub, value in (("a", first), ("b", "0.125")):
            emb = tmp_path / sub / "emb"
            emb.mkdir(parents=True)
            shutil.copy(toy_embeddings_file, emb / "toy16.json")
            (emb / "toy-vectors.txt").write_text(f"{word} {value} {rest}", encoding="utf-8")
            rc = main(["train", str(converted / "train.conll"), "--arch", "sb",
                       "--embeddings", str(emb / "toy16.json"), "--hidden", "2",
                       "--max-epochs", "1", "--out", str(tmp_path / sub / "run")])
            assert rc == 0
            manifest = json.loads((tmp_path / sub / "run" / "manifest-train.json").read_text())
            inputs.append(manifest["inputs_sha256"])
        assert inputs[0]["embeddings"] == inputs[1]["embeddings"]
        assert inputs[0]["embeddings.sources[0]"] == sha(
            toy_embeddings_file.parent / "toy-vectors.txt")
        assert inputs[0]["embeddings.sources[0]"] != inputs[1]["embeddings.sources[0]"]

    def test_vocabulary_line_and_manifest_count_merged_keys(self, converted, tmp_path, capsys):
        (tmp_path / "v.txt").write_text("The 1 2\nthe 3 4\n", encoding="utf-8")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"expected_dim": 2, "sources": [{"kind": "glove", "path": "v.txt"}]}), encoding="utf-8")
        rc = main(["train", str(converted / "train.conll"), "--arch", "sb",
                   "--embeddings", str(spec), "--hidden", "2", "--max-epochs", "1",
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        assert "; duplicate keys skipped: 1\n" in capsys.readouterr().out
        with open(converted / "train.conll", encoding="utf-8") as fh:
            words = [word.lower() for seq in read_conll(fh) for word in seq.words]
        manifest = json.loads((tmp_path / "run" / "manifest-train.json").read_text())
        misses = len(words) - words.count("the")
        assert manifest["vocabulary"] == [{"source": 0, "oov_tokens": misses,
                                           "tokens": len(words), "duplicates_skipped": 1}]

    def test_lr_search_flag(self, converted, toy_embeddings_file, tmp_path):
        out = tmp_path / "search"
        rc = main([
            "train", str(converted / "train.conll"),
            "--arch", "sb", "--embeddings", str(toy_embeddings_file),
            "--hidden", "4", "--max-epochs", "2", "--patience", "5",
            "--lr-search", "2", "--seed", "3", "--batch-size", "8",
            "--out", str(out),
        ])
        assert rc == 0
        manifest = json.loads((out / "manifest-train.json").read_text())
        assert len(manifest["lr_search"]) == 2
        lr = manifest["config"]["learning_rate"]
        assert 1e-4 <= lr <= 1e-2
        # the same bytes as when the winning trial was trained a second time
        assert train_artifacts_digest(out, "sb") == LR_SEARCH_DIGEST


@pytest.fixture(scope="module")
def trained(converted, toy_embeddings_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    rc = main([
        "train", str(converted / "train.conll"),
        "--arch", "sb", "--embeddings", str(toy_embeddings_file),
        "--hidden", "8", "--max-epochs", "60", "--patience", "60",
        "--lr", "0.01", "--seed", "1", "--batch-size", "8",
        "--out", str(out),
    ])
    assert rc == 0
    return out


class TestEvaluateCommand:
    def test_evaluate_appends_results(self, trained, converted, toy_embeddings_file, tmp_path):
        out = tmp_path / "eval"
        rc = main([
            "evaluate", str(trained / "sb.ckpt"), str(converted / "test.conll"),
            "--embeddings", str(toy_embeddings_file), "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "arch,embedding,seed,lr,weighted_f1,accuracy,f1_B,f1_I,f1_O,gap"
        assert lines[1].startswith("sb,")
        f1 = float(lines[1].split(",")[4])
        assert 0.0 <= f1 <= 1.0

    def test_evaluate_manifest_checksums_the_vector_files(self, trained, converted,
                                                          toy_embeddings_file, tmp_path):
        out = tmp_path / "eval"
        rc = main([
            "evaluate", str(trained / "sb.ckpt"), str(converted / "test.conll"),
            "--embeddings", str(toy_embeddings_file), "--out", str(out),
        ])
        assert rc == 0
        inputs = json.loads((out / "manifest-evaluate.json").read_text())["inputs_sha256"]
        glove = toy_embeddings_file.parent / "toy-vectors.txt"
        assert inputs["embeddings.sources[0]"] == sha(glove)

    def test_train_score_at_least_test_score(self, trained, converted, toy_embeddings_file, tmp_path):
        from argseg.embeddings import EmbeddingSpec
        from argseg.corpus import read_conll
        from argseg.training import evaluate

        model = load_checkpoint(trained / "sb.ckpt")
        emb = EmbeddingSpec.from_file(toy_embeddings_file)
        with open(converted / "train.conll", encoding="utf-8") as fh:
            train_seqs = read_conll(fh)
        with open(converted / "test.conll", encoding="utf-8") as fh:
            test_seqs = read_conll(fh)
        f1_train = evaluate(model, train_seqs, emb).weighted_f1
        f1_test = evaluate(model, test_seqs, emb).weighted_f1
        assert f1_train >= f1_test

    def test_missing_checkpoint_is_io_error(self, converted, toy_embeddings_file, tmp_path):
        rc = main([
            "evaluate", str(tmp_path / "nope.ckpt"), str(converted / "test.conll"),
            "--embeddings", str(toy_embeddings_file), "--out", str(tmp_path / "o"),
        ])
        assert rc == 1

    def test_dimension_mismatch_is_runtime_error(self, trained, converted, tmp_path):
        bad_spec = tmp_path / "bad.json"
        glove = tmp_path / "tiny.txt"
        glove.write_text("a 1 2\n", encoding="utf-8")
        bad_spec.write_text(
            json.dumps({"expected_dim": 2, "sources": [{"kind": "glove", "path": "tiny.txt"}]}),
            encoding="utf-8",
        )
        rc = main([
            "evaluate", str(trained / "sb.ckpt"), str(converted / "test.conll"),
            "--embeddings", str(bad_spec), "--out", str(tmp_path / "o"),
        ])
        assert rc == 1


def evaluate_beside(trained, converted, embeddings, tmp_path, sibling=None, content=b""):
    """Evaluate a copy of the trained checkpoint with one chosen sibling file next to it."""
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(trained / "sb.ckpt", run / "sb.ckpt")
    if sibling:
        (run / sibling).write_bytes(content)
    return main([
        "evaluate", str(run / "sb.ckpt"), str(converted / "test.conll"),
        "--embeddings", str(embeddings), "--out", str(tmp_path / "eval"),
    ])


@pytest.mark.parametrize(
    "sibling,content",
    [
        ("manifest-train.json", b"[1, 2]"),
        ("manifest-train.json", b'{"config": "fast"}'),
        ("manifest-train.json",
         b'{"config": {"learning_rate": 0.01}, "generalization_gap": "small"}'),
        ("manifest-train.json", b'{"config": {"learning_rate": 0.01}} \xff'),
    ],
    ids=["manifest_list", "manifest_config_str", "manifest_gap_str", "manifest_not_utf8"],
)
def test_evaluate_malformed_sibling_is_error(trained, converted, toy_embeddings_file, tmp_path,
                                             capsys, sibling, content):
    rc = evaluate_beside(trained, converted, toy_embeddings_file, tmp_path, sibling, content)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and sibling in err


def test_evaluate_without_siblings_reports_nan(trained, converted, toy_embeddings_file,
                                               tmp_path):
    assert evaluate_beside(trained, converted, toy_embeddings_file, tmp_path) == 0
    row = (tmp_path / "eval" / "results.csv").read_text().splitlines()[1].split(",")
    assert row[3] == "nan" and row[-1] == "nan"  # lr and gap


def test_evaluate_reports_the_rate_of_the_checkpoints_own_run(converted, toy_embeddings_file,
                                                              tmp_path):
    # one --out, two architectures: the manifest is the later run's, the
    # checkpoints and curves are one per architecture
    out = tmp_path / "run"
    for arch, lr in (("sb", "0.001"), ("bl-i", "0.009")):
        assert main(["train", str(converted / "train.conll"), "--arch", arch,
                     "--embeddings", str(toy_embeddings_file), "--hidden", "4",
                     "--max-epochs", "1", "--lr", lr, "--batch-size", "8",
                     "--out", str(out)]) == 0
    results = tmp_path / "eval" / "results.csv"
    for arch in ("sb", "bl-i"):
        assert main(["evaluate", str(out / f"{arch}.ckpt"), str(converted / "test.conll"),
                     "--embeddings", str(toy_embeddings_file),
                     "--out", str(results.parent)]) == 0
    rows = [line.split(",") for line in results.read_text().splitlines()]
    assert [(row[0], row[3]) for row in rows[1:]] == [("sb", "nan"), ("bl-i", "0.009")]
    # the gap, too, is read from the manifest only for the run it records
    assert rows[1][-1] == "nan" and rows[2][-1] != "nan"


def test_evaluate_after_a_diverged_run_reports_no_gap(converted, toy_embeddings_file,
                                                      tmp_path):
    # a finished run, then a diverged one into the same --out: the curve file
    # left by the first run is not the diverged checkpoint's
    out = tmp_path / "run"
    for lr, epochs, rc in (("0.01", "2", 0), ("1e308", "3", 1)):
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", str(converted / "train.conll"), "--arch", "sb",
                         "--embeddings", str(toy_embeddings_file), "--hidden", "4",
                         "--max-epochs", epochs, "--lr", lr, "--seed", "2",
                         "--batch-size", "8", "--out", str(out)]) == rc
    assert (out / "sb-curve.csv").exists()
    manifest = json.loads((out / "manifest-train.json").read_text())
    assert "generalization_gap" not in manifest
    results = tmp_path / "eval" / "results.csv"
    assert main(["evaluate", str(out / "sb.ckpt"), str(converted / "test.conll"),
                 "--embeddings", str(toy_embeddings_file), "--out", str(results.parent)]) == 0
    row = results.read_text().splitlines()[1].split(",")
    assert (row[0], row[3], row[-1]) == ("sb", "1e+308", "nan")


def test_selftest_command_passes(capsys):
    import time

    started = time.time()
    assert main(["selftest"]) == 0
    assert time.time() - started < 60.0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 5
    assert ("PASS  distinct rows (0 of 8 shapes differ, 7 projected through the distinct rows, "
            "summed gradients off by ") in out
    assert "FAIL" not in out


def test_selftest_reports_a_raising_check_and_runs_the_rest(capsys, monkeypatch):
    from argseg import selftest

    def broken():
        raise ValueError("core dimension mismatch")

    # the slowest check raises; the checks before and after it run for real
    monkeypatch.setattr(selftest, "check_model_gradients", broken)
    assert main(["selftest"]) == 1
    captured = capsys.readouterr()
    lines = [ln for ln in captured.out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 5
    assert lines[1] == "FAIL  model gradients (ValueError: core dimension mismatch)"
    assert all(ln.startswith("PASS") for ln in lines[:1] + lines[2:])
    assert "Traceback" not in captured.out + captured.err


def test_package_imports_without_scipy():
    # numpy is the only runtime dependency; scipy is a test-only oracle
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", "import argseg, sys; assert 'scipy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr[-2000:]


def with_bad_byte(path: Path, offset: int, bom: bool = False) -> Path:
    """``path``'s bytes with the byte at ``offset`` (counted in the new file,
    after any byte-order mark) replaced by 0xff."""
    data = bytearray(b"\xef\xbb\xbf" * bom + path.read_bytes())
    data[offset] = 0xFF
    path.write_bytes(bytes(data))
    return path


@pytest.mark.parametrize("which,offset,bom", [
    ("essay001.txt", 7, False),
    ("essay001.txt", 9, True),
    ("essay002.ann", 4, False),
    ("train-test-split.csv", 12, True),
])
def test_convert_names_a_non_utf8_byte(small_corpus, tmp_path, capsys, which, offset, bom):
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus)
    bad = with_bad_byte(corpus / which, offset, bom)
    out = tmp_path / "out"
    rc = main(["convert", str(corpus), str(corpus / "train-test-split.csv"), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and not (out / "train.conll").exists()
    assert err == f"error: {bad}: not UTF-8 text (byte 0xff at offset {offset})\n"


@pytest.mark.parametrize("newline", [b"\r", b"\r\n"])
def test_convert_reads_a_split_file_with_other_line_endings(small_corpus, converted, tmp_path,
                                                            newline):
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus)
    split = corpus / "train-test-split.csv"
    split.write_bytes(split.read_bytes().replace(b"\n", newline))
    out = tmp_path / "out"
    assert main(["convert", str(corpus), str(split), "--out", str(out)]) == 0
    for part in ("train.conll", "test.conll"):
        assert sha(out / part) == sha(converted / part)


def test_convert_names_the_split_line_the_csv_reader_rejects(small_corpus, tmp_path, capsys):
    split = tmp_path / "split.csv"
    split.write_text("ID;SET\n" + "x" * 131073 + ";TRAIN\n", encoding="utf-8")
    rc = main(["convert", str(small_corpus), str(split), "--out", str(tmp_path / "out")])
    assert rc == 1 and not (tmp_path / "out").exists()
    assert capsys.readouterr().err == (
        f"error: {split}: split file line 2: field larger than field limit (131072)\n")


@pytest.mark.parametrize("edit,message", [
    (lambda text: text.replace("TRAIN", "DEV", 1), "unknown set 'DEV' for essay "),
    (lambda text: text.rsplit("\n", 2)[0] + "\n", "split misses essays: "),
    (lambda text: "ID;SET;X\n", "expected header ID;SET, got "),
])
def test_convert_names_the_split_file_of_every_split_error(small_corpus, tmp_path, capsys,
                                                            edit, message):
    split = tmp_path / "split.csv"
    split.write_text(edit((small_corpus / "train-test-split.csv").read_text()), encoding="utf-8")
    rc = main(["convert", str(small_corpus), str(split), "--out", str(tmp_path / "out")])
    assert rc == 1 and not (tmp_path / "out").exists()
    assert capsys.readouterr().err.startswith(f"error: {split}: {message}")


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_train_and_evaluate_name_a_non_utf8_byte(trained, converted, toy_embeddings_file,
                                                 tmp_path, capsys, command):
    bad = tmp_path / "bad.conll"
    shutil.copy(converted / "test.conll", bad)
    with_bad_byte(bad, 30)
    first = ["train", str(bad), "--arch", "sb"] if command == "train" else [
        "evaluate", str(trained / "sb.ckpt"), str(bad)]
    rc = main(first + ["--embeddings", str(toy_embeddings_file), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (byte 0xff at offset 30)\n"


def test_evaluate_rewrites_results_with_one_header(trained, converted, toy_embeddings_file,
                                                   tmp_path):
    args = ["evaluate", str(trained / "sb.ckpt"), str(converted / "test.conll"),
            "--embeddings", str(toy_embeddings_file), "--out", str(tmp_path)]
    assert main(args) == 0
    first = (tmp_path / "results.csv").read_bytes()
    assert main(args) == 0
    lines = first.decode().splitlines()
    assert (tmp_path / "results.csv").read_bytes() == first + (lines[1] + "\n").encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "manifest-evaluate.json", "results.csv"]


@pytest.mark.parametrize("content,problem", [
    (b"name,score\nx,1\n", "first line is 'name,score'"),
    (b"arch,embedding,seed,lr,weighted_f1,accuracy,f1_B,f1_I,f1_O\nsb,e,0,nan,1,1,1,1,1\n",
     "first line is 'arch,embedding,seed,lr,weighted_f1,accuracy,f1_B,f1_I,f1_O'"),
    (b"arch,embedding,seed,lr,weighted_f1,accuracy,f1_B,f1_I,f1_O,gap\nsb,\xff\n",
     "not UTF-8 text (byte 0xff at offset 66)"),
], ids=["other_tool", "older_layout", "not_utf8"])
def test_evaluate_leaves_a_results_file_of_another_layout_as_it_is(
        trained, converted, toy_embeddings_file, tmp_path, capsys, monkeypatch, content,
        problem):
    def never(*args, **kwargs):
        raise AssertionError("the table is refused before any checkpoint is read or scored")

    monkeypatch.setattr(cli, "load_checkpoint", never)
    monkeypatch.setattr(cli, "evaluate", never)
    results = tmp_path / "results.csv"
    results.write_bytes(content)
    assert main(["evaluate", str(trained / "sb.ckpt"), str(converted / "test.conll"),
                 "--embeddings", str(toy_embeddings_file), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: results table {results}: {problem}")
    assert results.read_bytes() == content
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv"]


def test_convert_that_fails_while_writing_keeps_the_old_outputs(small_corpus, tmp_path,
                                                                monkeypatch, capsys):
    out = tmp_path / "out"
    args = ["convert", str(small_corpus), str(small_corpus / "train-test-split.csv"),
            "--out", str(out)]
    assert main(args) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def write_conll_then_fail(sequences, fh):
        fh.write("partial\tline\n")
        raise OSError("disk full")

    monkeypatch.setattr("argseg.cli.write_conll", write_conll_then_fail)
    assert main(args) == 1
    assert capsys.readouterr().err == "i/o error: disk full\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
