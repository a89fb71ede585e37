"""The three workloads: inputs, timed commands through ``hebdot.cli.main``,
and the checks on every output.

A workload runs commands back to back until its time is up; the command
that is running when time runs out finishes and counts.  Every command goes
through ``hebdot.cli.main``, the function the ``hebdot`` script calls, with
stand-ins for stdin and stdout that time each line as the program pulls it
and as it writes the answer.  A failed check is counted, never raised.
"""

from __future__ import annotations

import io
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs

MODEL_SEED = 2105  # the dot model's weights; its reference labels are stored

PAPER = {"embed_dim": 400, "hidden_dim": 400, "num_layers": 2}
SMALL = {"embed_dim": 16, "hidden_dim": 16, "num_layers": 2}
BATCH = 64
TRAIN_STEPS = 2  # full batches per train command
EVAL_COPIES = 3  # copies of each bundled file per eval command
LINES = 6000  # more stdin lines than any run can pull


class LineFeed:
    """stdin stand-in.  Hands out one line each time the program asks, until
    the deadline, and notes when it did: a closed loop with one caller."""

    def __init__(self, lines: list[str], deadline: float, on_line=None) -> None:
        self.lines = lines
        self.deadline = deadline
        self.on_line = on_line
        self.handed: list[float] = []

    def __iter__(self):
        return self

    def __next__(self) -> str:
        k = len(self.handed)
        if k >= len(self.lines) or (k and time.perf_counter() >= self.deadline):
            raise StopIteration
        if self.on_line:
            self.on_line(f"line:{k}")
        self.handed.append(time.perf_counter())
        return self.lines[k]


class Sink:
    """stdout stand-in.  Keeps the text and the time each newline arrived.
    With ``tamper`` it alters the first letter it is given, which every check
    must catch."""

    def __init__(self, tamper: bool = False) -> None:
        self.parts: list[str] = []
        self.newlines: list[float] = []
        self.tamper = tamper

    def write(self, text: str) -> int:
        now = time.perf_counter()
        if self.tamper:
            at = next((i for i, ch in enumerate(text) if ch.isalpha()), None)
            if at is not None:
                text = text[:at] + chr(ord(text[at]) + 1) + text[at + 1 :]
                self.tamper = False
        self.parts.append(text)
        self.newlines.extend([now] * text.count("\n"))
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


@dataclass
class Command:
    code: int | None  # None when cli.main raised
    wall: float
    latencies: list[float]  # seconds per output line
    out: str
    handed: int


def run_command(hebdot, argv: list[str], feed: LineFeed | None, tamper: bool,
                tracer=None) -> Command:
    """One ``hebdot`` invocation in-process, traced when given a tracer.
    A line's latency runs from its hand-off on stdin, or from the start for
    commands that read no stdin, until its newline reaches stdout."""
    sink = Sink(tamper)
    saved = sys.stdin, sys.stdout
    sys.stdin = feed if feed is not None else io.StringIO()
    sys.stdout = sink
    if tracer is not None:
        tracer.start_command()
    start = time.perf_counter()
    try:
        code = hebdot.cli.main(argv)
    except Exception as exc:  # a crash is a failed command, not a failed run
        print(f"bench: {argv[0]} raised {exc!r}", file=sys.stderr)
        code = None
    finally:
        wall = time.perf_counter() - start
        sys.stdin, sys.stdout = saved
        if tracer is not None:
            tracer.uninstall()
    handed = feed.handed if feed is not None else []
    lat = [
        t - (handed[i] if i < len(handed) else start)
        for i, t in enumerate(sink.newlines)
    ]
    return Command(code, wall, lat, sink.text(), len(handed))


@dataclass
class Outcome:
    """What a workload measured: untraced figures, checks, and the wall time
    and letters of traced commands."""

    attempted: int = 0
    failed: int = 0
    chars_per_s: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    traced_walls: list[float] = field(default_factory=list)
    traced_chars: int = 0
    untraced_walls: list[float] = field(default_factory=list)
    untraced_chars: int = 0


def _timed(fn, reps: int) -> list[float]:
    out = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t)
    return out


def _command_loop(res: Outcome, setup, reps: int, seconds: float, trace: bool,
                  tracer, step) -> None:
    """Time ``setup`` ``reps`` times before the commands and again after,
    so the median spans the run, and run ``step(tracer or None, deadline)``
    until time is up in between.  With tracing, untraced and traced
    commands alternate so both see the same conditions."""
    res.setup = _timed(setup, reps)
    deadline = time.perf_counter() + seconds
    n = 0
    while n == 0 or time.perf_counter() < deadline or (trace and n < 2):
        step(tracer if trace and n % 2 == 1 else None, deadline)
        n += 1
    res.setup += _timed(setup, reps)


# -- train-paper -------------------------------------------------------------

def train_paper(hebdot, root, work, seed, seconds, dims, trace, tracer, tamper=False):
    letters = inputs.write_train_corpus(root, work / "corpus", seed, TRAIN_STEPS, BATCH)
    from hebdot.corpus import Vocabulary, load_corpus
    from hebdot.network import ModelConfig, init_params, load_checkpoint

    config = ModelConfig(vocab_size=Vocabulary().size, **dims)
    res = Outcome()

    def setup():
        for split in ("modern", "validation"):
            load_corpus(work / "corpus", split)
        init_params(config, seed)

    argv = [
        "train", "--corpus", str(work / "corpus"), "--seed", str(seed),
        "--premodern-epochs", "0", "--modern-epochs", "1",
        "--batch-size", str(BATCH),
        "--embed-dim", str(dims["embed_dim"]), "--hidden-dim", str(dims["hidden_dim"]),
        "--num-layers", str(dims["num_layers"]),
    ]
    losses: list[float] = []

    def step(traced, _deadline):
        out = work / f"model{len(res.chars_per_s) + len(res.traced_walls)}.nkdm"
        cmd = run_command(hebdot, argv + ["--out", str(out)], None, tamper, traced)
        res.attempted += TRAIN_STEPS
        res.failed += _check_train(cmd, out, config, load_checkpoint, losses)
        _account(res, cmd, letters, traced)
        for p in out.parent.glob(out.name + "*"):
            p.unlink()

    _command_loop(res, setup, 5, seconds, trace, tracer, step)
    res.checks = {"final_loss": losses[-1] if losses else math.nan}
    return res


def _check_train(cmd, out: Path, config, load_checkpoint, losses) -> int:
    """Failed steps of one train command: all of them unless it exited 0
    and left a checkpoint that loads with the requested config; else the
    log rows missing or with a non-finite loss."""
    if cmd.code != 0 or cmd.out.strip() != str(out):
        return TRAIN_STEPS
    try:
        if load_checkpoint(out).config != config:
            return TRAIN_STEPS
        rows = out.with_name(out.name + ".log").read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError):
        return TRAIN_STEPS
    good = 0
    for k, row in enumerate(rows[:TRAIN_STEPS], start=1):
        cells = row.split("\t")
        try:
            ok = len(cells) == 4 and int(cells[0]) == k and math.isfinite(float(cells[2]))
        except ValueError:
            ok = False
        if ok:
            good += 1
            losses.append(float(cells[2]))
    return min(TRAIN_STEPS, TRAIN_STEPS - good + (len(rows) > TRAIN_STEPS))


def _account(res: Outcome, cmd: Command, chars: int, traced) -> None:
    if traced:
        res.traced_walls.append(cmd.wall)
        res.traced_chars += chars
        return
    res.untraced_walls.append(cmd.wall)
    res.untraced_chars += chars
    res.chars_per_s.append(chars / cmd.wall)
    res.latencies.extend(cmd.latencies)


# -- dot-lines-paper ---------------------------------------------------------

def _save_model(work: Path, dims: dict, seed: int) -> Path:
    from hebdot.corpus import Vocabulary
    from hebdot.network import ModelConfig, init_params, save_checkpoint

    vocab = Vocabulary()
    config = ModelConfig(vocab_size=vocab.size, **dims)
    path = work / "model.nkdm"
    save_checkpoint(path, init_params(config, seed), config, vocab, meta={"seed": seed})
    return path


def _load(path: Path):
    """The timed set-up of dot and eval: loading their checkpoint."""
    from hebdot.network import load_checkpoint

    return lambda: load_checkpoint(path)


def dot_lines_paper(hebdot, root, work, seed, seconds, dims, trace, tracer, tamper=False):
    lines = inputs.write_lines(root, work / "lines.txt", seed, LINES)
    reference = _reference(dims)
    res = Outcome()
    model = _save_model(work, dims, MODEL_SEED)
    matched = total = 0
    at = 0

    def step(traced, deadline):
        nonlocal matched, total, at
        if trace:  # untraced and traced halves of the window
            deadline = min(deadline, time.perf_counter() + seconds / 2)
        feed = LineFeed(lines[at:], deadline, traced.set_op if traced else None)
        cmd = run_command(hebdot, ["dot", "--model", str(model)], feed, tamper, traced)
        sent = lines[at : at + cmd.handed]
        at += cmd.handed
        res.attempted += len(sent)
        bad, m, t = _check_dot(cmd, sent, reference)
        res.failed += bad
        matched, total = matched + m, total + t
        _account(res, cmd, sum(inputs.letter_count(s) for s in sent), traced)

    _command_loop(res, _load(model), 8, seconds, trace, tracer, step)
    res.checks = {"label_match": matched / total if total else 0.0}
    return res


def _reference(dims: dict) -> dict[str, str]:
    path = Path(__file__).parent / "reference" / "dot_lines.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    for entry in data["models"]:
        if entry["seed"] == MODEL_SEED and entry["dims"] == dims:
            return entry["lines"]
    return {}


def _check_dot(cmd: Command, sent: list[str], reference: dict[str, str]):
    """(failed lines, matching decisions, decisions).  A line fails when its
    output, marks removed, differs from it in any byte, or is missing."""
    if cmd.code != 0:
        return len(sent), 0, sum(3 * len(inputs.decisions(s)) for s in sent)
    got = cmd.out.splitlines(keepends=True)
    failed = abs(len(got) - len(sent))
    matched = total = 0
    for line, out in zip(sent, got):
        if inputs.strip_marks(out).encode() != line.encode():
            failed += 1
        want = inputs.decisions(reference.get(line.rstrip("\n"), ""))
        have = inputs.decisions(out)
        total += 3 * max(len(want), len(have))
        if len(want) == len(have):
            matched += sum(a == b for w, h in zip(want, have) for a, b in zip(w, h))
    return min(failed, len(sent)), matched, total


# -- eval-docs-small ---------------------------------------------------------

def eval_docs_small(hebdot, root, work, seed, seconds, dims, trace, tracer, tamper=False):
    gold = work / "gold"
    docs = inputs.write_gold_dir(root, gold, seed, EVAL_COPIES)
    letters = sum(n for _, n in docs)
    res = Outcome()
    model = _save_model(work, dims, seed)
    argv = ["eval", "--model", str(model), "--gold", str(gold)]

    def step(traced, _deadline):
        cmd = run_command(hebdot, argv, None, tamper, traced)
        res.attempted += len(docs)
        res.failed += _check_eval(cmd, [d for d, _ in docs])
        _account(res, cmd, letters, traced)

    _command_loop(res, _load(model), 50, seconds, trace, tracer, step)
    return res


def _check_eval(cmd: Command, doc_ids: list[str]) -> int:
    """Failed documents: all when the command did not exit 0 or its report
    lacks the header or MACRO row; else documents whose row is missing or
    has VOC below WOR."""
    rows = cmd.out.splitlines()
    if cmd.code != 0 or len(rows) < 2 or rows[0] != "doc_id\tdec\tcha\twor\tvoc":
        return len(doc_ids)
    if not rows[-1].startswith("MACRO\t") or len(rows) != len(doc_ids) + 2:
        return len(doc_ids)
    failed = 0
    for doc_id, row in zip(doc_ids, rows[1:-1]):
        cells = row.split("\t")
        try:
            ok = cells[0] == doc_id and len(cells) == 5 and float(cells[4]) >= float(cells[3])
        except ValueError:
            ok = False
        failed += not ok
    return failed


WORKLOADS = {
    "train-paper": (train_paper, PAPER),
    "dot-lines-paper": (dot_lines_paper, PAPER),
    "eval-docs-small": (eval_docs_small, SMALL),
}


def percentile(values: list[float], q: int) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]
