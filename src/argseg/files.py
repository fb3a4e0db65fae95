"""Reading input text strictly and writing outputs atomically.

Every corpus, split and sequence file is decoded as strict UTF-8, so a bad byte
raises :class:`CorpusIntegrityError` naming the file and the byte's offset.
Every file they write goes to a temporary file in the same directory, which
then replaces the target in one ``os.replace``: an interrupted or failed
write leaves the old file as it was.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import CorpusIntegrityError


def read_text(path) -> str:
    """The file's text, decoded as strict UTF-8 with a leading byte-order mark
    dropped; an undecodable byte raises ``CorpusIntegrityError``."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusIntegrityError(f"{path}: not UTF-8 text (byte 0x{data[exc.start]:02x} "
                                   f"at offset {exc.start})") from None
    return text.removeprefix("\ufeff")


@contextmanager
def atomic_write(path, binary: bool = False):
    """A file object whose contents replace ``path`` when the block ends
    without an exception; if it raises, ``path`` is untouched and the
    temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
