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
from .embeddings import EmbeddingSpec, GloveSource, oov_statistics
from .errors import (
    ArgsegError,
    ConfigurationError,
    CorpusIntegrityError,
    FormatError,
    TrainingDiverged,
)
from .metrics import report_csv_header, report_csv_row
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
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _load_corpus_dir(corpus_dir: Path):
    txt_files = sorted(corpus_dir.glob("*.txt"))
    if not txt_files:
        raise CorpusIntegrityError(f"no .txt essays found in {corpus_dir}")
    essays = []
    for txt in txt_files:
        ann = txt.with_suffix(".ann")
        if not ann.exists():
            raise CorpusIntegrityError(f"essay {txt.name} has no matching .ann file")
        text = txt.read_text(encoding="utf-8-sig")
        try:
            spans = parse_brat(ann.read_text(encoding="utf-8-sig"), text)
        except CorpusIntegrityError as exc:
            raise CorpusIntegrityError(f"{ann.name}: {exc}") from exc
        essays.append((Essay(txt.stem, text), spans))
    return essays


def cmd_convert(args: argparse.Namespace) -> int:
    started = time.time()
    corpus_dir = Path(args.corpus_dir)
    out_dir = Path(args.out)
    essays = _load_corpus_dir(corpus_dir)
    split = load_split(
        Path(args.split_csv).read_text(encoding="utf-8-sig"),
        known_ids=[e.id for e, _ in essays],
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    stats = ConversionStats()
    parts: dict[str, list[LabeledSequence]] = {"train": [], "test": []}
    for essay, spans in essays:
        seqs = build_sequences(essay, spans, args.granularity, stats)
        parts[split.assignment[essay.id]].extend(seqs)

    outputs = {}
    for part, seqs in parts.items():
        path = out_dir / f"{part}.conll"
        with open(path, "w", encoding="utf-8") as fh:
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
    (out_dir / "conversion-report.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
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


def _results_csv_append(path: Path, row: str):
    new = not path.exists()
    with open(path, "a", encoding="utf-8") as fh:
        if new:
            fh.write(report_csv_header() + "\n")
        fh.write(row + "\n")


def cmd_train(args: argparse.Namespace) -> int:
    started = time.time()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    emb = EmbeddingSpec.from_file(args.embeddings)
    with open(args.train_file, "r", encoding="utf-8") as fh:
        sequences = read_conll(fh)

    arch = ArchitectureId.from_string(args.arch)
    model_spec = ModelSpec(arch, input_dim=emb.expected_dim, hidden=args.hidden,
                           seed=args.seed)
    cfg = TrainConfig(
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        learning_rate=args.lr,
        seed=args.seed,
    )

    search_report = None
    if args.lr_search:
        cfg, trials = lr_search(model_spec, sequences, emb, cfg, trials=args.lr_search)
        search_report = [dataclasses.asdict(t) for t in trials]
        print(f"lr search picked {cfg.learning_rate:.3e} "
              f"(seed {cfg.seed}) from {args.lr_search} trials")
        model_spec = dataclasses.replace(model_spec, seed=cfg.seed)

    model = build_model(model_spec)
    for src in emb.sources:
        if isinstance(src, GloveSource):
            misses, total = oov_statistics(src.table, sequences)
            rate = misses / total if total else 0.0
            print(f"vocabulary coverage: {total - misses}/{total} tokens "
                  f"(OOV rate {rate:.3%})")

    diverged = None
    try:
        model, curve = train(model, sequences, emb, cfg)
    except TrainingDiverged as exc:
        diverged = str(exc)
        curve = None

    ckpt_path = out_dir / f"{arch.value}.ckpt"
    save_checkpoint(model, ckpt_path)
    outputs = {"checkpoint": str(ckpt_path)}
    extra = {"outputs": outputs, "config": dataclasses.asdict(cfg),
             "model_spec": {**dataclasses.asdict(model_spec), "arch": arch.value}}
    if search_report:
        extra["lr_search"] = search_report
    if curve is not None:
        curves_path = out_dir / f"{arch.value}-curve.csv"
        with open(curves_path, "w", encoding="utf-8") as fh:
            curve.write_csv(fh)
        outputs["curve"] = str(curves_path)
        gap = generalization_gap(curve)
        extra["final_train_loss"] = curve.train[-1]
        extra["final_val_loss"] = curve.val[-1]
        extra["generalization_gap"] = gap
        print(f"trained {arch.value} for {len(curve)} epochs; "
              f"final train loss {curve.train[-1]:.4f}, "
              f"val loss {curve.val[-1]:.4f}, gap {gap:+.4f}")
    inputs = {"train_file": _sha256(Path(args.train_file)),
              "embeddings": _sha256(Path(args.embeddings))}
    _write_manifest(out_dir, "train", args, inputs, extra, started)
    if diverged:
        print(f"training diverged: {diverged}; last finite checkpoint kept", file=sys.stderr)
        return 1
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    started = time.time()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = load_checkpoint(args.checkpoint)
    emb = EmbeddingSpec.from_file(args.embeddings)
    if emb.expected_dim != model.spec.input_dim:
        raise ConfigurationError(
            f"checkpoint expects {model.spec.input_dim}-dim inputs but the "
            f"embedding spec provides {emb.expected_dim}"
        )
    with open(args.test_file, "r", encoding="utf-8") as fh:
        sequences = read_conll(fh)
    report = evaluate(model, sequences, emb)

    # sibling training artifacts, when the checkpoint came from cmd_train
    gap = float("nan")
    lr = float("nan")
    ckpt = Path(args.checkpoint)
    curve_path = ckpt.with_name(ckpt.stem + "-curve.csv")
    if curve_path.exists():
        try:
            lines = curve_path.read_text(encoding="utf-8").strip().splitlines()
            if len(lines) > 1:
                _, tr, vl = lines[-1].split(",")
                gap = float(vl) - float(tr)
        except ValueError as exc:  # wrong field count, not a number, not UTF-8
            raise FormatError(f"loss curve {curve_path}: malformed ({exc})") from exc
    train_manifest = ckpt.with_name("manifest-train.json")
    if train_manifest.exists():
        try:
            lr = float(json.loads(train_manifest.read_text(encoding="utf-8"))
                       ["config"]["learning_rate"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(
                f"training manifest {train_manifest}: no numeric config.learning_rate ({exc!r})"
            ) from exc

    row = report_csv_row(report, model.spec.arch.value, emb.label,
                         model.spec.seed, lr, gap)
    results_path = out_dir / "results.csv"
    _results_csv_append(results_path, row)
    print(report.summary())
    inputs = {"checkpoint": _sha256(Path(args.checkpoint)),
              "test_file": _sha256(Path(args.test_file)),
              "embeddings": _sha256(Path(args.embeddings))}
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
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--lr-search", type=int, default=0, metavar="TRIALS",
                   help="random-search the learning rate first")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-epochs", type=int, default=100)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--hidden", type=int, default=64)
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
