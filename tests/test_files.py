"""Strict UTF-8 reading and atomic writing (``argseg.files``)."""

import numpy as np
import pytest

from argseg.errors import CorpusIntegrityError
from argseg.files import atomic_write, read_text
from argseg.models import ArchitectureId, ModelSpec, build_model, save_checkpoint


def test_read_text_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"\xef\xbb\xbfcaf\xc3\xa9\r\n")
    assert read_text(path) == "café\r\n"


def test_read_text_names_the_file_and_the_offset(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"\xef\xbb\xbfok \xc3(")
    with pytest.raises(CorpusIntegrityError,
                       match=r"t\.txt: not UTF-8 text \(byte 0xc3 at offset 6\)"):
        read_text(path)


@pytest.mark.parametrize("binary", [False, True])
def test_write_that_raises_partway_leaves_the_old_file(tmp_path, binary):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old contents\n")
    with pytest.raises(RuntimeError, match="stop"):
        with atomic_write(path, binary=binary) as fh:
            fh.write(b"new" if binary else "new")
            fh.flush()
            raise RuntimeError("stop")
    assert path.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_replaces_the_file_whole(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("a much longer old text\n", encoding="utf-8")
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_checkpoint_that_fails_partway_leaves_the_old_one(tmp_path):
    path = tmp_path / "sb.ckpt"
    model = build_model(ModelSpec(ArchitectureId.SB, input_dim=4, hidden=3, seed=0))
    save_checkpoint(model, path)
    old = path.read_bytes()
    last = model.params()[-1]
    last.value = np.array(["not a number"] * last.value.size)  # fails as the last tensor
    with pytest.raises(ValueError):
        save_checkpoint(model, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["sb.ckpt"]
