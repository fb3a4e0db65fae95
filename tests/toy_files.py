"""Toy corpus directories on disk, for the tests that run the CLI and loaders."""

from pathlib import Path

from argseg.toydata import brat_lines, toy_corpus


def write_toy_corpus_dir(directory, n_essays: int = 12, seed: int = 0,
                         test_fraction: float = 0.25) -> Path:
    """Materialize .txt/.ann pairs and a split CSV under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    corpus = toy_corpus(n_essays, seed)
    n_test = max(1, int(round(test_fraction * n_essays)))
    rows = ['"ID";"SET"']
    for k, (essay, spans) in enumerate(corpus):
        (directory / f"{essay.id}.txt").write_text(essay.text, encoding="utf-8")
        (directory / f"{essay.id}.ann").write_text(
            brat_lines(spans, essay.text), encoding="utf-8"
        )
        part = "TEST" if k >= n_essays - n_test else "TRAIN"
        rows.append(f'"{essay.id}";"{part}"')
    (directory / "train-test-split.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return directory
