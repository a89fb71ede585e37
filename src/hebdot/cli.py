"""Command line front end.

Subcommands: ``train``, ``dot``, ``eval``, ``stats`` and ``gradcheck``.
``train`` has one flag per field of :class:`TrainPlan` and
:class:`ModelConfig` (``vocab_size`` aside), and its config file takes the
same names; both dataclasses check their own values.  Data goes to stdout,
diagnostics to stderr.  Exit codes: 0 success, 1 a check failed, 2 usage
error (argparse), 3 data problems (a config value of the wrong type, a bad
plan, or a ``dot --out`` naming the input among them), 4 unreadable or
incompatible checkpoints (a header value of the wrong type, or decision
letters other than this build's, among them), and models whose states or
logits go non-finite in ``dot`` or ``eval``.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .corpus import SPLITS, EmptyCorpus, Vocabulary, load_corpus, load_dir, split_stats
from .dotter import INFERENCE_BATCH_SIZE, Dotter
from .metrics import LetterStreamMismatch, evaluate, render_report
from .network import (
    CorruptCheckpoint,
    ModelConfig,
    NonFiniteActivation,
    VersionMismatch,
    check_setting,
    field_types,
    gradient_check,
    make_dropout_masks,
    make_synthetic_batch,
)
from .trainer import TrainPlan, parse_config_file, train

log = logging.getLogger(__name__)

# each train setting, in declaration order, and the dataclass that holds it
_SETTINGS = {
    name: cls
    for cls in (TrainPlan, ModelConfig)
    for name in field_types(cls)
    if name != "vocab_size"
}


def _open_in(target: str):
    """The input of ``dot``, read with its line ends as they are, so CRLF
    text stays CRLF; a real stdin is switched to read the same way."""
    if target == "-":
        if isinstance(sys.stdin, io.TextIOWrapper):
            sys.stdin.reconfigure(newline="")
        return sys.stdin
    return open(target, "r", encoding="utf-8", newline="")


def _open_out(target: str, src):
    """The output of ``dot``, written with the line ends it is given.  A
    file that ``src`` reads is refused: opening it would empty the input
    before it is read.  A ``src`` with no descriptor is never that file."""
    if target == "-":
        return sys.stdout
    try:
        same = os.path.samestat(os.fstat(src.fileno()), os.stat(target))
    except (AttributeError, OSError):  # no descriptor, or no file at target yet
        same = False
    if same:
        raise ValueError(f"--out {target} is the input file")
    return open(target, "w", encoding="utf-8", newline="")


def _merge_settings(args: argparse.Namespace) -> tuple[ModelConfig | None, TrainPlan]:
    """Defaults, overwritten by the config file, overwritten by flags.  A
    file value is checked by its dataclass's rule even when a flag wins."""
    kwargs: dict[type, dict[str, object]] = {TrainPlan: {}, ModelConfig: {}}
    if args.config:
        from_file = parse_config_file(args.config)
        unknown = from_file.keys() - _SETTINGS.keys()
        if unknown:
            raise ValueError(
                f"unknown config key(s): {', '.join(sorted(unknown))}"
            )
        for key, value in from_file.items():
            try:
                check_setting(_SETTINGS[key], key, value)
            except ValueError as exc:
                raise ValueError(f"{args.config}: {exc}") from None
            kwargs[_SETTINGS[key]][key] = value
    for key, cls in _SETTINGS.items():
        if (flag := getattr(args, key)) is not None:
            kwargs[cls][key] = flag

    plan = TrainPlan(**kwargs[TrainPlan])
    config = None
    if kwargs[ModelConfig]:
        config = ModelConfig(vocab_size=Vocabulary().size, **kwargs[ModelConfig])
    return config, plan


def _cmd_train(args: argparse.Namespace) -> int:
    config, plan = _merge_settings(args)
    if args.verbose:
        effective = dataclasses.asdict(plan)
        if config is not None:
            effective.update(dataclasses.asdict(config))
        for key in sorted(effective):
            print(f"{key} = {effective[key]}", file=sys.stderr)
    result = train(args.corpus, args.out, config=config, plan=plan)
    log.info("finished after %d steps", result.steps)
    if result.best_path is not None:
        log.info(
            "best validation WOR %.4f kept at %s", result.best_wor, result.best_path
        )
    print(result.checkpoint_path)
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    dotter = Dotter.load(args.model, batch_size=args.batch_size)
    src = dst = None
    try:
        src = _open_in(args.input)
        dst = _open_out(args.out, src)
        for dotted in dotter.dot_stream(src, keep_existing=args.keep_existing):
            dst.write(dotted)
        dst.flush()
    finally:
        for stream in (src, dst):
            if stream not in (None, sys.stdin, sys.stdout):
                stream.close()
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    golds = load_dir(Path(args.gold))
    dotter = Dotter.load(args.model, batch_size=args.batch_size)
    report = evaluate(golds, dotter.label_documents(golds))
    if args.baseline:
        other = Dotter.load(args.baseline, batch_size=args.batch_size)
        base_report = evaluate(golds, other.label_documents(golds))
        print("metric\tmodel\tbaseline")
        for name in ("dec", "cha", "wor", "voc"):
            print(
                f"{name}\t{100.0 * report.macro[name]:.2f}"
                f"\t{100.0 * base_report.macro[name]:.2f}"
            )
    else:
        print(render_report(report, counts=args.counts))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    splits = args.splits or list(SPLITS)
    bad = [s for s in splits if s not in SPLITS]
    if bad:
        raise ValueError(f"unknown split(s): {', '.join(bad)}")
    shown = 0
    for split in splits:
        try:
            docs = load_corpus(args.corpus, split)
        except EmptyCorpus:
            log.warning("split %s: missing or empty", split)
            continue
        s = split_stats(docs)
        print(f"{split}\t{s.documents}\t{s.tokens}\t{s.chars}")
        shown += 1
    if shown == 0:
        raise EmptyCorpus(f"no usable splits under {args.corpus}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    config = ModelConfig(
        vocab_size=args.vocab_size,
        embed_dim=args.embed_dim,
        hidden_dim=args.hidden_dim,
        dropout=args.dropout,
    )
    ids, lengths, golds, masks = make_synthetic_batch(
        config, args.batch, args.width, seed=args.seed
    )
    drop_rng = np.random.Generator(np.random.PCG64(args.seed + 7))
    dropout_masks = make_dropout_masks(config, args.batch, args.width, drop_rng)
    report = gradient_check(
        config,
        ids,
        lengths,
        golds,
        masks,
        seed=args.seed,
        samples_per_array=args.samples,
        tolerance=args.tolerance,
        dropout_masks=dropout_masks,
    )
    for name in sorted(report.per_array):
        print(f"{name}\t{report.per_array[name]:.3e}")
    print(f"max_rel_err\t{report.max_rel_err:.3e}")
    print(f"samples\t{report.samples}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hebdot",
        description="Train, run and evaluate a Hebrew diacritization model.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="chatty diagnostics on stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model on a corpus tree")
    p_train.add_argument("--corpus", required=True, help="corpus root directory")
    p_train.add_argument("--out", required=True, help="checkpoint output path")
    p_train.add_argument("--config", help="key = value settings file")
    for name, cls in _SETTINGS.items():
        p_train.add_argument("--" + name.replace("_", "-"), type=field_types(cls)[name])
    p_train.set_defaults(func=_cmd_train)

    p_dot = sub.add_parser("dot", help="add diacritics to plain text")
    p_dot.add_argument("--model", required=True, help="checkpoint to load")
    p_dot.add_argument(
        "input", nargs="?", default="-", help="input file, '-' for stdin"
    )
    p_dot.add_argument("--out", default="-", help="output file, '-' for stdout")
    p_dot.add_argument(
        "--keep-existing",
        action="store_true",
        help="marks already present in the input win over predictions",
    )
    p_dot.add_argument("--batch-size", type=int, default=INFERENCE_BATCH_SIZE)
    p_dot.set_defaults(func=_cmd_dot)

    p_eval = sub.add_parser("eval", help="score a model against dotted gold files")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--gold", required=True, help="directory of gold .txt files")
    p_eval.add_argument("--baseline", help="second checkpoint for a side-by-side")
    p_eval.add_argument(
        "--counts", action="store_true", help="append raw correct/total counts"
    )
    p_eval.add_argument("--batch-size", type=int, default=INFERENCE_BATCH_SIZE)
    p_eval.set_defaults(func=_cmd_eval)

    p_stats = sub.add_parser("stats", help="corpus statistics per split")
    p_stats.add_argument("--corpus", required=True)
    p_stats.add_argument("splits", nargs="*", help="subset of splits to show")
    p_stats.set_defaults(func=_cmd_stats)

    p_gc = sub.add_parser(
        "gradcheck", help="compare analytic gradients with finite differences"
    )
    p_gc.add_argument("--vocab-size", type=int, default=10)
    p_gc.add_argument("--embed-dim", type=int, default=8)
    p_gc.add_argument("--hidden-dim", type=int, default=8)
    p_gc.add_argument("--batch", type=int, default=2)
    p_gc.add_argument("--width", type=int, default=12)
    p_gc.add_argument("--dropout", type=float, default=0.1)
    p_gc.add_argument("--samples", type=int, default=500)
    p_gc.add_argument("--tolerance", type=float, default=1e-4)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (CorruptCheckpoint, VersionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NonFiniteActivation as exc:
        if args.command not in ("dot", "eval"):
            raise  # a diverging training run keeps its log line and traceback
        print(f"error: the model is unusable: {exc}", file=sys.stderr)
        return 4
    except (
        EmptyCorpus,
        LetterStreamMismatch,
        UnicodeDecodeError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
