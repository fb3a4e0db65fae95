import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from argseg.cli import main
from argseg.models import load_checkpoint
from argseg.toydata import write_toy_corpus_dir


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

    def test_unknown_arch_is_usage_error(self, converted, toy_embeddings_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "train", str(converted / "train.conll"),
                "--arch", "lstm-crf", "--embeddings", str(toy_embeddings_file),
                "--out", str(tmp_path / "x"),
            ])
        assert exc.value.code == 2

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


HEADER = b"epoch,train_loss,val_loss\n"


@pytest.mark.parametrize(
    "sibling,content",
    [
        ("sb-curve.csv", HEADER + b"1,0.5\n"),
        ("sb-curve.csv", HEADER + b"1,low,0.5\n"),
        ("sb-curve.csv", HEADER + b"1,0.5,0.\xff\n"),
        ("manifest-train.json", b"[1, 2]"),
        ("manifest-train.json", b'{"config": "fast"}'),
    ],
    ids=["curve_two_fields", "curve_not_numeric", "curve_not_utf8", "manifest_list",
         "manifest_config_str"],
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


def test_selftest_command_passes(capsys):
    import time

    started = time.time()
    assert main(["selftest"]) == 0
    assert time.time() - started < 60.0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 4
    assert "FAIL" not in out


def test_package_imports_without_scipy():
    # numpy is the only runtime dependency; scipy is a test-only oracle
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", "import argseg, sys; assert 'scipy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr[-2000:]
