"""Training loop: Adam with a cyclical learning rate over two corpus phases.

Training first passes over the premodern split, then the modern one; the
optimizer state carries across but the learning-rate cycle restarts per
phase, sized to that phase's epoch length.  A phase encodes its split
once, and each step's batch is gathered only when the loop reaches it.
For one NumPy/BLAS build at one BLAS thread count, every run is bitwise
reproducible from the plan seed: shuffles and dropout masks derive from
it, and nothing reads entropy elsewhere.  Across thread counts the
trained weights can differ in their last bits.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .corpus import (
    Batch,
    Chunks,
    Document,
    EmptyCorpus,
    Vocabulary,
    encode_document,
    load_corpus,
    make_batches,
)
from .dotter import Dotter
from .metrics import evaluate, score_document
from .network import (
    Checkpoint,
    ModelConfig,
    NonFiniteActivation,
    NonFiniteLoss,
    check_setting,
    field_types,
    flat_of,
    init_params,
    loss_and_grads,
    make_dropout_masks,
    save_checkpoint,
)

__all__ = [
    "LRSchedule",
    "AdamState",
    "adam_step",
    "TrainPlan",
    "StepLog",
    "TrainResult",
    "train",
    "validation_wor",
    "ProbeResult",
    "overfit_probe",
    "parse_config_file",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LRSchedule:
    """Cyclical learning rate: linear ramp base -> max -> base.

    ``step_size_up`` is the step count of the ramp's rising half.
    """

    base_lr: float = 3e-4
    max_lr: float = 3e-3
    step_size_up: int = 1

    def __post_init__(self) -> None:
        if self.step_size_up < 1:
            raise ValueError("step_size_up must be positive")
        if not 0.0 < self.base_lr <= self.max_lr < math.inf:
            raise ValueError("need 0 < base_lr <= max_lr < inf")

    def lr_at(self, step: int) -> float:
        if step < 0:
            raise ValueError("step must be non-negative")
        # integer modulo first, so every cycle evaluates on bitwise-identical
        # inputs and the schedule is exactly periodic
        x = (step % (2 * self.step_size_up)) / self.step_size_up
        pos = 1.0 - abs(x - 1.0)  # 0 at the valleys, 1 at the peaks
        # interpolation written so the valleys return base_lr exactly and
        # the peaks return max_lr exactly
        return self.base_lr * (1.0 - pos) + self.max_lr * pos


@dataclass
class AdamState:
    m: np.ndarray  # flat, shaped as the parameter buffer
    v: np.ndarray
    t: int = 0

    @classmethod
    def init(cls, flat: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(flat), v=np.zeros_like(flat))


_ADAM_SLICE = 1 << 16  # elements per pass: temporaries this size stay in cache


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float
) -> None:
    """One in-place Adam update with bias correction of flat buffers (see
    :func:`~hebdot.network.flat_of`), at Kingma and Ba's recommended beta1
    0.9, beta2 0.999 and eps 1e-8; eps sits outside the square root.
    Elements update independently, so slicing changes no bit."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for start in range(0, len(params), _ADAM_SLICE):
        at = slice(start, start + _ADAM_SLICE)
        p, g, m, v = params[at], grads[at], state.m[at], state.v[at]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


@dataclass(frozen=True)
class TrainPlan:
    seed: int = 0
    premodern_epochs: int = 1
    modern_epochs: int = 5
    batch_size: int = 64
    base_lr: float = 3e-4
    max_lr: float = 3e-3
    checkpoint_every: int = 500

    def __post_init__(self) -> None:
        for name in field_types(TrainPlan):
            check_setting(TrainPlan, name, getattr(self, name))
        if self.premodern_epochs < 0 or self.modern_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.premodern_epochs + self.modern_epochs == 0:
            raise ValueError("no epochs to train: both epoch counts are 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        try:  # the schedule's own rule, checked before train opens any file
            LRSchedule(self.base_lr, self.max_lr)
        except ValueError as exc:
            raise ValueError(f"base_lr, max_lr: {exc}") from None


class StepLog(NamedTuple):
    step: int
    lr: float
    loss: float
    split: str


@dataclass
class TrainResult:
    checkpoint_path: Path
    steps: int
    history: list[StepLog] = field(default_factory=list)
    val_history: list[tuple[str, int, float]] = field(default_factory=list)
    best_path: Path | None = None
    best_wor: float | None = None


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _train_step(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    adam: AdamState,
    batch: Batch,
    drop_rng: np.random.Generator,
    lr: float,
) -> float:
    """One optimizer step on one batch: fresh dropout masks from
    ``drop_rng``, loss and gradients, then an in-place :func:`adam_step`.
    Returns the batch loss; parameters stay untouched if the loss or an
    activation is non-finite."""
    masks = make_dropout_masks(
        config, batch.size, batch.letter_ids.shape[1], drop_rng
    )
    loss, grads = loss_and_grads(
        params,
        config,
        batch.letter_ids,
        batch.lengths,
        batch.golds,
        batch.masks,
        masks,
    )
    adam_step(flat_of(params), flat_of(grads), adam, lr)
    return loss


def _fit_epoch(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    adam: AdamState,
    chunks: Chunks,
    batch_size: int,
    key: tuple[int, ...],
    lr_at: Callable[[int], float],
) -> Iterator[tuple[float, float]]:
    """One shuffled pass over ``chunks``, yielding ``(lr, loss)`` after each
    :func:`_train_step`.  The shuffle and the dropout masks derive from
    ``key`` alone, and the pass's step i takes the learning rate
    ``lr_at(i)``."""
    batches = make_batches(chunks, batch_size, seed=_derived_seed(*key, 1))
    drop_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((*key, 2))))
    for i, batch in enumerate(batches):
        lr = lr_at(i)
        yield lr, _train_step(params, config, adam, batch, drop_rng, lr)


_LOG_EVERY = 50  # -v logs step 1, then every this many steps


def train(
    root: Path | str,
    out_path: Path | str,
    config: ModelConfig | None = None,
    plan: TrainPlan = TrainPlan(),
) -> TrainResult:
    """Run the two-phase schedule and leave a checkpoint at ``out_path``.

    A step log lands next to it at ``<out_path>.log`` and, when a
    validation split exists, the epoch with the best validation word
    accuracy is kept at ``<out_path>.best``.  A split a phase needs that is
    missing or empty raises EmptyCorpus before any file is written.  On a
    non-finite loss the run raises after logging; the last periodically
    saved checkpoint survives.
    """
    root = Path(root)
    out_path = Path(out_path)
    if config is None:
        config = ModelConfig(vocab_size=Vocabulary.size)
    if config.vocab_size != Vocabulary.size:
        raise ValueError(
            f"config.vocab_size {config.vocab_size} != vocabulary size {Vocabulary.size}"
        )
    params = init_params(config, plan.seed)
    adam = AdamState.init(flat_of(params))

    try:
        val_docs: list[Document] | None = load_corpus(root, "validation")
    except EmptyCorpus:
        val_docs = None
        log.info("no validation split; best-checkpoint tracking disabled")

    # every phase encodes before the log opens, so a corpus that lacks a
    # needed split fails before it touches an earlier run's log
    phases = [
        (phase_idx, split, epochs, encode_document(load_corpus(root, split)))
        for phase_idx, (split, epochs) in enumerate(
            [("premodern", plan.premodern_epochs), ("modern", plan.modern_epochs)]
        )
        if epochs
    ]
    result = TrainResult(checkpoint_path=out_path, steps=0)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    log_path = out_path.with_name(out_path.name + ".log")

    def snapshot(path: Path, **meta) -> None:
        save_checkpoint(
            path,
            params,
            config,
            Vocabulary(),
            meta={"seed": plan.seed, "step": result.steps, **meta},
        )

    global_step = 0
    with log_path.open("w", encoding="utf-8") as log_file:
        for phase_idx, split, epochs, chunks in phases:
            steps_per_epoch = math.ceil(len(chunks) / plan.batch_size)
            sched = LRSchedule(
                base_lr=plan.base_lr,
                max_lr=plan.max_lr,
                step_size_up=steps_per_epoch,
            )
            log.info(
                "phase %s: %d chunks, %d steps/epoch, %d epoch(s)",
                split,
                len(chunks),
                steps_per_epoch,
                epochs,
            )
            for epoch in range(epochs):
                steps = _fit_epoch(
                    params, config, adam, chunks, plan.batch_size,
                    key=(plan.seed, phase_idx, epoch),
                    # the cycle runs on across the phase's epochs
                    lr_at=lambda i: sched.lr_at(epoch * steps_per_epoch + i),
                )
                try:
                    for lr, loss in steps:
                        global_step += 1
                        result.steps = global_step
                        entry = StepLog(global_step, lr, loss, split)
                        result.history.append(entry)
                        log_file.write(
                            f"{entry.step}\t{entry.lr:.8g}\t{entry.loss:.6f}\t{split}\n"
                        )
                        if global_step % _LOG_EVERY == 0 or global_step == 1:
                            log.info(
                                "step %d lr %.5f loss %.4f (%s)",
                                global_step,
                                lr,
                                loss,
                                split,
                            )
                        if (
                            plan.checkpoint_every
                            and global_step % plan.checkpoint_every == 0
                        ):
                            snapshot(out_path, phase=split, epoch=epoch)
                except (NonFiniteActivation, NonFiniteLoss):
                    log.error(
                        "non-finite at step %d; aborting, the last saved "
                        "checkpoint remains on disk",
                        global_step,
                    )
                    raise
                if val_docs is not None:
                    score = validation_wor(params, config, val_docs)
                    result.val_history.append((split, epoch, score))
                    log.info(
                        "phase %s epoch %d: validation WOR %.4f", split, epoch, score
                    )
                    if result.best_wor is None or score > result.best_wor:
                        result.best_wor = score
                        result.best_path = out_path.with_name(out_path.name + ".best")
                        snapshot(
                            result.best_path,
                            phase=split,
                            epoch=epoch,
                            validation_wor=score,
                        )
    snapshot(out_path, final=True)
    return result


def validation_wor(
    params: dict[str, np.ndarray], config: ModelConfig, docs: list[Document]
) -> float:
    """Macro word accuracy of the current parameters over held-out docs."""
    dotter = Dotter(Checkpoint(params=params, config=config, meta={}))
    return evaluate(docs, dotter.label_documents(docs)).macro["wor"]


@dataclass(frozen=True)
class ProbeResult:
    dec_history: tuple[float, ...]  # decision accuracy after each epoch
    loss_history: tuple[float, ...]  # mean training loss of each epoch
    target: float

    @property
    def epochs(self) -> int:
        return len(self.dec_history)

    @property
    def final_dec(self) -> float:
        return self.dec_history[-1] if self.dec_history else 0.0

    @property
    def reached(self) -> bool:
        return bool(self.dec_history) and self.final_dec >= self.target


def overfit_probe(
    doc: Document,
    embed_dim: int = 64,
    hidden_dim: int = 64,
    dropout: float = 0.1,
    max_epochs: int = 200,
    target: float = 0.995,
    seed: int = 0,
    batch_size: int = 8,
    lr: float = 2e-3,
) -> ProbeResult:
    """Sanity check that the whole learning stack can memorize one document.

    Trains a small model on the document alone and measures decision
    accuracy (inference mode, through :class:`~hebdot.dotter.Dotter`)
    after every epoch, stopping early once the target is reached.  A
    document with no decisions scores 0, and an epoch with no steps (a
    document with no letters) records a loss of 0.
    """
    config = ModelConfig(
        vocab_size=Vocabulary.size,
        embed_dim=embed_dim,
        hidden_dim=hidden_dim,
        dropout=dropout,
    )
    params = init_params(config, seed)
    adam = AdamState.init(flat_of(params))
    chunks = encode_document([doc])
    dec_history: list[float] = []
    loss_history: list[float] = []
    for epoch in range(max_epochs):
        steps = _fit_epoch(
            params, config, adam, chunks, batch_size, (seed, epoch), lambda i: lr
        )
        losses = [loss for _, loss in steps]
        loss_history.append(float(np.mean(losses)) if losses else 0.0)
        dotter = Dotter(Checkpoint(params, config, {}))
        dec = score_document(doc, dotter.label_documents([doc])[0]).dec
        dec_history.append(dec.correct / dec.total if dec.total else 0.0)
        if dec_history[-1] >= target:
            break
    return ProbeResult(tuple(dec_history), tuple(loss_history), target)


def parse_config_file(path: Path | str) -> dict[str, object]:
    """Read ``key = value`` lines; '#' starts a comment, blanks are skipped.

    Values parse as int, then float, else stay strings.
    """
    out: dict[str, object] = {}
    for lineno, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ValueError(f"{path}:{lineno}: empty key or value")
        out[key] = _parse_value(value)
    return out


def _parse_value(value: str) -> object:
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value
