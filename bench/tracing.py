"""Spans around the public functions of each hebdot module, from outside.

:class:`Tracer` replaces each public function with a wrapper under every name
a caller looks it up by (``hebdot.dotter.forward`` and
``hebdot.trainer.forward`` are both the network's ``forward``) for the length
of one traced command, records one span per call, and puts every original
back afterwards, so untraced commands run the program untouched.
A span holds its name, start, end, parent span and the operation it serves:
a stdin line, a training step or a document.  Spans stay in memory until the
run writes them out.

Helpers called once per letter are not wrapped: a span per letter would cost
more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

MODULES = ("cli", "codec", "corpus", "network", "trainer", "dotter", "metrics")

PER_LETTER = frozenset(
    {
        "codec.char_class",
        "codec.marks_of",
        "codec.can_dagesh",
        "codec.can_niqqud",
        "codec.is_shin",
        "codec.is_hebrew_letter",
        "codec.vocalization_signature",
        "codec.MarkedChar.violation",
        "corpus.Vocabulary.id",
    }
)


def _flop(config, batch: int, width: int) -> float:
    """Multiply-add flops (2 per MAC) of the forward GEMMs for one batch."""
    from hebdot.network import HEAD_SIZES

    h, per_pos, in_dim = config.hidden_dim, 0, config.embed_dim
    for _ in range(config.num_layers):
        per_pos += 2 * (in_dim * 4 * h + h * 4 * h)  # both directions
        in_dim = 2 * h
    per_pos += 2 * h * 2 * h + 2 * h * sum(HEAD_SIZES.values())
    return 2.0 * per_pos * batch * width


class Tracer:
    def __init__(self) -> None:
        self.op = ""
        self.commands = 0
        self.spans: list[list] = []  # [name, start, end, parent, op, attrs]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._steps = 0

    # -- operation ids -------------------------------------------------------
    def start_command(self) -> None:
        """Install the wrappers.  Until a call marks a finer operation, the
        spans belong to the command as a whole."""
        self.install()
        self.commands += 1
        self.op = f"command:{self.commands}"

    def set_op(self, op: str) -> None:
        self.op = op

    def _enter_op(self, name: str, args: tuple) -> str | None:
        """Start a new operation where a call marks one; returns the op to
        restore when the span ends, or None to keep the new one."""
        prev = self.op
        if name == "network.make_dropout_masks":  # first call of each step
            self._steps += 1
            self.op = f"step:{self._steps}"
            return None
        if name == "dotter.Dotter.dot_document":
            self.op = f"doc:{args[1].id}"
        elif name == "metrics.score_document":
            self.op = f"doc:{args[0].id}"
        elif name == "trainer.validation_wor":
            self.op = f"validation:{self._steps}"
        else:
            return None
        return prev

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, name: str, fn):
        attrs_of = _ATTRS.get(name)
        sig = inspect.signature(fn) if attrs_of else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            restore = self._enter_op(name, args)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if restore is not None:
                    self.op = restore
            if attrs_of:
                span[5] = attrs_of(sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function and public method of the modules."""
        hebdot = importlib.import_module("hebdot")
        modules = {m: importlib.import_module(f"hebdot.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in modules.items():
            public = getattr(mod, "__all__", None) or [
                a for a in vars(mod) if not a.startswith("_")
            ]
            for attr in public:
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) and name not in PER_LETTER:
                    wrappers[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(name, obj)
        for mod in [hebdot, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def _wrap_methods(self, class_name: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            name = f"{class_name}.{attr}"
            if attr.startswith("_") or name in PER_LETTER:
                continue
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------------
    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if attrs:
                    row["attrs"] = attrs
                out.write(json.dumps(row) + "\n")


def _shape_attrs(args: dict, _result) -> dict:
    batch, width = args["ids"].shape
    return {"positions": batch * width, "flop": _flop(args["config"], batch, width)}


def _batch_attrs(_args: dict, batches) -> dict:
    cells = sum(b.letter_ids.size for b in batches)
    real = sum(int(b.lengths.sum()) for b in batches)
    return {"batches": len(batches), "rows": sum(b.size for b in batches),
            "cells": cells, "padded": cells - real}


_ATTRS = {
    "network.forward": _shape_attrs,
    "network.loss_and_grads": _shape_attrs,
    "corpus.make_batches": _batch_attrs,
}


# -- per-layer metrics ------------------------------------------------------

def _self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _outermost(spans: list[list], names: set[str]) -> list[int]:
    """Spans named in ``names`` with no ancestor also named there."""
    out = []
    for i, s in enumerate(spans):
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if s[0] in names and p < 0:
            out.append(i)
    return out


def layer_metrics(spans: list[list], commands: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures, each per traced command: busy seconds with their
    call counts, self times, and counts taken from call shapes."""
    own = _self_times(spans)
    per = 1.0 / commands
    out: dict[str, tuple[float, str]] = {}

    def busy(metric: str, *names: str) -> float:
        idx = _outermost(spans, set(names))
        total = sum(spans[i][2] - spans[i][1] for i in idx)
        out[f"{metric}_s"] = (total * per, "s")
        out[f"{metric}.calls"] = (len(idx) * per, "count")
        return total

    def self_time(metric: str, spans_of) -> float:
        idx = [i for i, s in enumerate(spans) if spans_of(s[0])]
        total = sum(own[i] for i in idx)
        out[f"{metric}_s"] = (total * per, "s")
        out[f"{metric}.calls"] = (len(idx) * per, "count")
        return total

    def attr_sum(name: str, key: str) -> float:
        return sum(s[5][key] for s in spans if s[0] == name and s[5])

    def count(name: str) -> int:
        return sum(1 for s in spans if s[0] == name)

    forward_s = busy("network.forward", "network.forward")
    out["network.forward_positions"] = (attr_sum("network.forward", "positions") * per, "count")
    backward_s = self_time("network.backward", lambda n: n == "network.loss_and_grads")
    # A training step's backward GEMMs are counted as twice its forward ones.
    gflop = (attr_sum("network.forward", "flop")
             + 2 * attr_sum("network.loss_and_grads", "flop")) / 1e9
    out["network.gflop"] = (gflop * per, "GFLOP_computed")
    rate = gflop / (forward_s + backward_s) if forward_s + backward_s > 0 else 0.0
    out["network.gflop_per_s"] = (rate, "GFLOP/s_computed")
    busy("network.dropout_masks", "network.make_dropout_masks")
    busy("network.load_checkpoint", "network.load_checkpoint")
    busy("network.save_checkpoint", "network.save_checkpoint")

    busy("trainer.adam_step", "trainer.adam_step")
    out["trainer.steps"] = (count("trainer.adam_step") * per, "count")
    busy("trainer.validation", "trainer.validation_wor")
    self_time("trainer.self", lambda n: n.startswith("trainer."))

    busy("corpus.load", "corpus.load_corpus", "corpus.load_dir", "corpus.load_file")
    busy("corpus.encode", "corpus.encode_document")
    busy("corpus.make_batches", "corpus.make_batches")
    batches = attr_sum("corpus.make_batches", "batches")
    cells = attr_sum("corpus.make_batches", "cells")
    rows = attr_sum("corpus.make_batches", "rows")
    out["corpus.rows_per_batch"] = (rows / batches if batches else 0.0, "rows")
    padded = attr_sum("corpus.make_batches", "padded")
    out["corpus.pad_share"] = (padded / cells if cells else 0.0, "share")

    busy("codec.normalize_mapped", "codec.normalize_mapped")
    busy("codec.strip_diacritics", "codec.strip_diacritics")
    busy("codec.decompose", "codec.decompose")
    busy("codec.compose", "codec.compose")

    busy("dotter.dot", "dotter.Dotter.dot")
    busy("dotter.dot_document", "dotter.Dotter.dot_document")
    busy("dotter.decode_labels", "dotter.decode_labels")
    self_time("dotter.self", lambda n: n.startswith("dotter."))

    busy("metrics.evaluate", "metrics.evaluate")
    docs = count("metrics.score_document")
    out["metrics.align_per_doc"] = (count("metrics.align") / docs if docs else 0.0, "calls/doc")
    self_time("metrics.self", lambda n: n.startswith("metrics."))

    busy("cli.main", "cli.main")
    return out
