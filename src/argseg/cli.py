"""Command-line entry point: convert, train, evaluate, selftest.

Every command is deterministic given its inputs and --seed, writes its
artifacts under --out, and records a manifest (inputs, checksums, config,
timestamps, outputs) so any result can be traced back and reproduced.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import sys
import time
from pathlib import Path

from . import __version__
from .corpus import (
    ConversionStats,
    Essay,
    LabeledSequence,
    build_sequences,
    load_split,
    parse_brat,
    read_conll,
    write_conll,
)
from .embeddings import EmbeddingSpec, EmbeddingTable, oov_statistics
from .errors import (
    ArgsegError,
    ConfigurationError,
    CorpusIntegrityError,
    FormatError,
    SplitError,
    TrainingDiverged,
)
from .files import atomic_write, read_text
from .metrics import REPORT_CSV_HEADER, report_csv_row
from .models import ArchitectureId, ModelSpec, build_model, load_checkpoint, save_checkpoint
from .selftest import run_selftest
from .training import TrainConfig, evaluate, generalization_gap, lr_search, train

ARCH_CHOICES = [a.value for a in ArchitectureId]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _embedding_inputs(spec_path: str, emb: EmbeddingSpec) -> dict[str, str]:
    """Checksums of the embedding spec and of each vector file it names."""
    return {"embeddings": _sha256(Path(spec_path)),
            **{f"embeddings.sources[{i}]": _sha256(p) for i, p in enumerate(emb.paths)}}


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace,
                    inputs: dict[str, str], extra: dict, started: float):
    manifest = {
        "command": command,
        "package_version": __version__,
        "arguments": {k: str(v) for k, v in vars(args).items() if k != "func"},
        "inputs_sha256": inputs,
        "started_unix": started,
        "finished_unix": time.time(),
    }
    manifest.update(extra)
    path = out_dir / f"manifest-{command}.json"
    with atomic_write(path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _spec_record(spec: ModelSpec) -> dict:
    """``spec`` as the train manifest records it."""
    return {**dataclasses.asdict(spec), "arch": spec.arch.value}


def _load_corpus_dir(corpus_dir: Path):
    txt_files = sorted(corpus_dir.glob("*.txt"))
    if not txt_files:
        raise CorpusIntegrityError(f"no .txt essays found in {corpus_dir}")
    essays = []
    for txt in txt_files:
        ann = txt.with_suffix(".ann")
        if not ann.exists():
            raise CorpusIntegrityError(f"essay {txt.name} has no matching .ann file")
        text = read_text(txt)
        ann_text = read_text(ann)
        try:
            spans = parse_brat(ann_text, text)
        except CorpusIntegrityError as exc:
            raise CorpusIntegrityError(f"{ann.name}: {exc}") from exc
        essays.append((Essay(txt.stem, text), spans))
    return essays


def cmd_convert(args: argparse.Namespace) -> int:
    started = time.time()
    corpus_dir = Path(args.corpus_dir)
    out_dir = Path(args.out)
    essays = _load_corpus_dir(corpus_dir)
    try:
        split = load_split(read_text(args.split_csv), known_ids=[e.id for e, _ in essays])
    except SplitError as exc:
        raise SplitError(f"{args.split_csv}: {exc}") from exc

    out_dir.mkdir(parents=True, exist_ok=True)
    stats = ConversionStats()
    parts: dict[str, list[LabeledSequence]] = {"train": [], "test": []}
    for essay, spans in essays:
        seqs = build_sequences(essay, spans, args.granularity, stats)
        parts[split[essay.id]].extend(seqs)

    outputs = {}
    for part, seqs in parts.items():
        path = out_dir / f"{part}.conll"
        with atomic_write(path) as fh:
            write_conll(seqs, fh)
        outputs[part] = str(path)

    report = {
        "essays": stats.essays,
        "sequences": stats.sequences,
        "label_histogram": stats.label_counts,
        "boundary_relabels": stats.boundary_relabels,
        "granularity": args.granularity,
        "train_sequences": len(parts["train"]),
        "test_sequences": len(parts["test"]),
    }
    with atomic_write(out_dir / "conversion-report.json") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")
    corpus_files = sorted(list(corpus_dir.glob("*.txt")) + list(corpus_dir.glob("*.ann")))
    inputs = {
        "split_csv": _sha256(Path(args.split_csv)),
        "corpus": hashlib.sha256(
            "".join(f"{p.name}:{_sha256(p)}\n" for p in corpus_files).encode()
        ).hexdigest(),
    }
    _write_manifest(out_dir, "convert", args, inputs, {"outputs": outputs, "report": report}, started)
    print(
        f"converted {stats.essays} essays -> {len(parts['train'])} train / "
        f"{len(parts['test'])} test sequences ({args.granularity}); "
        f"labels {stats.label_counts}, boundary relabels {stats.boundary_relabels}"
    )
    return 0


def _results_table(path: Path) -> bytes:
    """The results table's bytes, or just its header when there is none yet.

    An existing table must be UTF-8 text whose first line is
    :data:`REPORT_CSV_HEADER`; any other file raises ``FormatError``, so no
    row lands under another layout's header."""
    header = REPORT_CSV_HEADER + "\n"
    if not path.exists():
        return header.encode("utf-8")
    old = path.read_bytes()
    try:
        text = old.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"results table {path}: not UTF-8 text (byte "
                          f"0x{old[exc.start]:02x} at offset {exc.start})") from None
    if not text.startswith(header):
        first = text.partition("\n")[0]
        raise FormatError(f"results table {path}: first line is {first!r}, "
                          f"not {REPORT_CSV_HEADER!r}")
    return old


def cmd_train(args: argparse.Namespace) -> int:
    started = time.time()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    emb = EmbeddingSpec.from_file(args.embeddings)
    sequences = read_conll(io.StringIO(read_text(args.train_file), newline=None))

    arch = ArchitectureId.from_string(args.arch)
    model_spec = ModelSpec(arch, input_dim=emb.expected_dim, hidden=args.hidden,
                           seed=args.seed)
    cfg = TrainConfig(batch_size=args.batch_size, max_epochs=args.max_epochs,
                      patience=args.patience, learning_rate=args.lr, seed=args.seed)

    vocabulary = []
    for i, src in enumerate(emb.sources):
        if isinstance(src, EmbeddingTable):
            misses, total = oov_statistics(src, sequences)
            rate = misses / total if total else 0.0
            print(f"vocabulary coverage: {total - misses}/{total} tokens "
                  f"(OOV rate {rate:.3%}); duplicate keys skipped: {src.duplicates_skipped}")
            vocabulary.append({"source": i, "oov_tokens": misses, "tokens": total,
                               "duplicates_skipped": src.duplicates_skipped})

    extra = {"vocabulary": vocabulary}
    diverged = curve = None
    if args.lr_search:
        cfg, model, curve, trials = lr_search(model_spec, sequences, emb, cfg,
                                              trials=args.lr_search)
        extra["lr_search"] = [dataclasses.asdict(t) for t in trials]
        print(f"lr search picked {cfg.learning_rate:.3e} "
              f"(seed {cfg.seed}) from {args.lr_search} trials")
    else:
        model = build_model(model_spec)
        try:
            model, curve = train(model, sequences, emb, cfg)
        except TrainingDiverged as exc:
            diverged = str(exc)

    ckpt_path = out_dir / f"{arch.value}.ckpt"
    save_checkpoint(model, ckpt_path)
    outputs = {"checkpoint": str(ckpt_path)}
    extra.update(outputs=outputs, config=dataclasses.asdict(cfg),
                 model_spec=_spec_record(model.spec))
    if curve is not None:
        curves_path = out_dir / f"{arch.value}-curve.csv"
        with atomic_write(curves_path) as fh:
            curve.write_csv(fh)
        outputs["curve"] = str(curves_path)
        gap = generalization_gap(curve)
        extra.update(final_train_loss=curve.train[-1], final_val_loss=curve.val[-1],
                     generalization_gap=gap)
        print(f"trained {arch.value} for {len(curve)} epochs; "
              f"final train loss {curve.train[-1]:.4f}, "
              f"val loss {curve.val[-1]:.4f}, gap {gap:+.4f}")
    inputs = {"train_file": _sha256(Path(args.train_file)),
              **_embedding_inputs(args.embeddings, emb)}
    _write_manifest(out_dir, "train", args, inputs, extra, started)
    if diverged:
        print(f"training diverged: {diverged}; last finite checkpoint kept", file=sys.stderr)
        return 1
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    started = time.time()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    _results_table(results_path)  # refuse a table of another layout before scoring
    model = load_checkpoint(args.checkpoint)
    emb = EmbeddingSpec.from_file(args.embeddings)
    if emb.expected_dim != model.spec.input_dim:
        raise ConfigurationError(
            f"checkpoint expects {model.spec.input_dim}-dim inputs but the "
            f"embedding spec provides {emb.expected_dim}"
        )
    sequences = read_conll(io.StringIO(read_text(args.test_file), newline=None))
    report = evaluate(model, sequences, emb)

    # the training manifest beside the checkpoint, when it came from cmd_train
    gap = float("nan")
    lr = float("nan")
    train_manifest = Path(args.checkpoint).with_name("manifest-train.json")
    if train_manifest.exists():
        try:
            manifest = json.loads(train_manifest.read_text(encoding="utf-8"))
            trained_lr = float(manifest["config"]["learning_rate"])
            # a diverged run records no loss curve, hence no gap
            trained_gap = float(manifest.get("generalization_gap", "nan"))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(
                f"training manifest {train_manifest}: no numeric config.learning_rate "
                f"and generalization_gap ({exc!r})"
            ) from exc
        # the manifest is the directory's last train run, which may have
        # trained another checkpoint: its rate and gap are this one's only
        # if its model_spec is this checkpoint's
        if manifest.get("model_spec") == _spec_record(model.spec):
            lr, gap = trained_lr, trained_gap

    row = report_csv_row(report, model.spec.arch.value, emb.label,
                         model.spec.seed, lr, gap)
    old = _results_table(results_path)  # again: it may have changed while scoring
    with atomic_write(results_path, binary=True) as fh:
        fh.write(old + (row + "\n").encode("utf-8"))
    print(report.summary())
    inputs = {"checkpoint": _sha256(Path(args.checkpoint)),
              "test_file": _sha256(Path(args.test_file)),
              **_embedding_inputs(args.embeddings, emb)}
    _write_manifest(out_dir, "evaluate", args, inputs,
                    {"outputs": {"results": str(results_path)},
                     "weighted_f1": report.weighted_f1,
                     "accuracy": report.accuracy}, started)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    return 0 if run_selftest() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="argseg",
        description="BiLSTM/attention laboratory for argumentative unit segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="brat corpus -> CoNLL-style sequence files")
    p.add_argument("corpus_dir", help="directory of paired .txt/.ann files")
    p.add_argument("split_csv", help="train/test split file (header ID;SET)")
    p.add_argument("--granularity", choices=["paragraph", "sentence"],
                   default="paragraph")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="train one architecture on a sequence file")
    p.add_argument("train_file", help="CoNLL-style training sequences")
    p.add_argument("--arch", choices=ARCH_CHOICES, required=True)
    p.add_argument("--embeddings", required=True, help="embedding spec JSON")
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--lr-search", type=int, default=0, metavar="TRIALS",
                   help="random-search the learning rate first")
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--hidden", type=int, default=ModelSpec.hidden)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a sequence file")
    p.add_argument("checkpoint")
    p.add_argument("test_file")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("selftest", help="gradient checks and corpus round-trips")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArgsegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
