"""Character BiLSTM tagger with three classification heads, in plain numpy.

The model embeds characters, runs them through stacked bidirectional LSTM
layers with inter-layer dropout, projects the top features through one
shared linear map, and scores each diacritic category with its own linear
head.  Forward, loss and analytic gradients are implemented here directly;
:func:`gradient_check` compares those gradients against central finite
differences and is wired into both the test suite and the CLI.

The LSTM stack is time-major: each direction fills a (T, B, 4H) gate
buffer, gates laid out i|f|g|o, keeps one rolling (B, H) cell state and
writes its hidden states as (T, B, H), so every step of the recurrence
reads and writes one contiguous (B, ·) block.  Training caches only the
activated gates; the backward pass rebuilds the states from them, bit for
bit and without a GEMM, the hidden states into the spent cell states'
buffer.  The backward direction runs in each row's reversed time order:
:func:`_flip_rows` reverses arrays the passes own in place, row by row,
so no reversed copy of a layer's input, output or gradient is made.  The
input projection ``u @ Wx + b`` fills the gate buffer for all time steps
before the time loop.  Layer 0's input is one of a small,
closed set of vocabulary ids, so :func:`layer0_tables` computes its input
term for every id once and layer 0 gathers from those tables into time
order: a loaded model builds them once, training once per call.  The
layers above take one whole-sequence GEMM.  The time loop adds only
``h @ Wh`` and activates the gates in place, sigmoid written as
``0.5 * tanh(0.5 * x) + 0.5``.  The backward pass writes each step's gate
gradient into the same buffer, keeps only ``dz @ Wh.T`` in the reverse
loop, and computes the weight, bias and input gradients afterwards as
whole-sequence GEMMs; at layer 0 it first sums the gate gradients per
vocabulary id with a one-hot GEMM and works in that vocabulary space.  The
top layer writes its output once, into the document-order (B, T, 2H)
features.  Nothing nonlinear sits between the projection and the heads, so
the logits are one product with their fold, :func:`head_fold`, and both
weight gradients come from one (2H, 16) product ``feats.T @ dL``.

Parameters, gradients and Adam's moments share the loader's layout,
:func:`param_layout`: one flat buffer, arrays in sorted name order at
16-byte boundaries, handed out as a dict of views.  A checkpoint can be
read from a pipe as well as from a regular file.

Everything is deterministic given the seeds: parameter init draws in a
fixed order, and dropout masks are created outside the forward pass so the
same masks can be replayed.  They are kept bit-packed and unpacked one
layer at a time, where they are applied.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import stat
import struct
import typing
from dataclasses import dataclass
from functools import cache, lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .codec import DAGESH_CAPABLE, NIQQUD_CAPABLE, Dagesh, Niqqud, Sin
from .corpus import CATEGORIES, Vocabulary

__all__ = [
    "HEAD_SIZES",
    "ModelConfig",
    "ShapeMismatch",
    "NonFiniteActivation",
    "NonFiniteLoss",
    "CorruptCheckpoint",
    "VersionMismatch",
    "Checkpoint",
    "field_types",
    "check_setting",
    "param_shapes",
    "param_layout",
    "param_views",
    "flat_of",
    "init_params",
    "make_dropout_masks",
    "layer0_tables",
    "head_fold",
    "forward",
    "effective_targets",
    "masked_loss",
    "compute_loss",
    "loss_and_grads",
    "gradient_check",
    "GradCheckReport",
    "make_synthetic_batch",
    "save_checkpoint",
    "load_checkpoint",
]

# Sin head scores only the two dot kinds; a bare shin never occurs in fully
# dotted text, so the no-dot case is excluded from the loss instead of being
# a class.
HEAD_SIZES = {
    "niqqud": len(Niqqud),
    "dagesh": len(Dagesh),
    "sin": len(Sin) - 1,
}
# each head's columns when the heads sit side by side in CATEGORIES order
_HEAD_ENDS = np.cumsum([HEAD_SIZES[k] for k in CATEGORIES]).tolist()
_HEAD_COLUMNS = {k: slice(e - HEAD_SIZES[k], e) for k, e in zip(CATEGORIES, _HEAD_ENDS)}


class ShapeMismatch(ValueError):
    """Model inputs disagree with the configuration."""


class NonFiniteActivation(FloatingPointError):
    """A hidden state went inf/nan during the forward pass."""


class NonFiniteLoss(FloatingPointError):
    """The loss value is not finite."""


class CorruptCheckpoint(ValueError):
    """Checkpoint bytes do not parse as the expected format."""


class VersionMismatch(ValueError):
    """Checkpoint was written by an incompatible format version."""


@cache
def field_types(cls: type) -> Mapping[str, type]:
    """A settings dataclass's field names and types, in declaration order;
    read-only and cached, since resolving the hints costs a third of a small
    checkpoint's load."""
    return MappingProxyType(typing.get_type_hints(cls))


def check_setting(cls: type, name: str, value: object) -> None:
    """Raise ValueError unless ``value`` fits field ``name`` of ``cls``: int
    fields take ints but not bools, float fields ints or floats."""
    want = field_types(cls)[name]
    if isinstance(value, bool) or not isinstance(value, (int, float) if want is float else want):
        raise ValueError(f"{name} must be {want.__name__}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int = 400
    hidden_dim: int = 400
    num_layers: int = 2
    dropout: float = 0.1

    def __post_init__(self) -> None:
        for name in field_types(ModelConfig):
            check_setting(ModelConfig, name, getattr(self, name))
        if self.vocab_size < 2:
            raise ValueError("vocab_size must cover padding and fallback ids")
        if self.embed_dim < 1 or self.hidden_dim < 1 or self.num_layers < 1:
            raise ValueError("model dimensions must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")


_DIRECTIONS = ("fwd", "bwd")


@lru_cache(maxsize=8)
def param_shapes(config: ModelConfig) -> Mapping[str, tuple[int, ...]]:
    """Every parameter's name and shape, in the order :func:`init_params`
    draws them; read-only, built once per config."""
    h = config.hidden_dim
    shapes = {"embedding": (config.vocab_size, config.embed_dim)}
    in_dim = config.embed_dim
    for layer in range(config.num_layers):
        for direction in _DIRECTIONS:
            prefix = f"lstm{layer}_{direction}"
            shapes[f"{prefix}_Wx"] = (in_dim, 4 * h)
            shapes[f"{prefix}_Wh"] = (h, 4 * h)
            shapes[f"{prefix}_b"] = (4 * h,)
        in_dim = 2 * h
    shapes["proj_W"] = (2 * h, 2 * h)
    shapes["proj_b"] = (2 * h,)
    for k in CATEGORIES:
        shapes[f"head_{k}_W"] = (2 * h, HEAD_SIZES[k])
        shapes[f"head_{k}_b"] = (HEAD_SIZES[k],)
    return MappingProxyType(shapes)


@lru_cache(maxsize=8)
def param_layout(config: ModelConfig) -> tuple[Mapping[str, slice], int]:
    """Each parameter's span in one flat buffer, and its length: sorted name
    order, as :func:`save_checkpoint` writes, spans 4-element aligned; cached."""
    spans, end = {}, 0
    for name, shape in sorted(param_shapes(config).items()):
        n = math.prod(shape)
        spans[name], end = slice(end, end + n), end + -(-n // 4) * 4
    return MappingProxyType(spans), end


def param_views(config: ModelConfig, flat: np.ndarray) -> dict[str, np.ndarray]:
    """``flat`` as views named and shaped as :func:`param_shapes`, in its order."""
    spans = param_layout(config)[0]
    return {k: flat[spans[k]].reshape(shape) for k, shape in param_shapes(config).items()}


def flat_of(views: Mapping[str, np.ndarray]) -> np.ndarray:
    """The one buffer every array of ``views`` is a view of, else ValueError."""
    flat = next(iter(views.values())).base
    if flat is None or any(v.base is not flat for v in views.values()):
        raise ValueError("arrays are not views of one parameter buffer")
    return flat


def init_params(
    config: ModelConfig, seed: int, dtype: np.dtype = np.float32
) -> dict[str, np.ndarray]:
    """Fresh parameters, :func:`param_views` of one buffer.  Weights are
    Xavier-uniform, biases zero but the LSTM forget-gate slice, which starts
    at 1 so early gradients flow."""
    rng = np.random.Generator(np.random.PCG64(seed))
    h = config.hidden_dim
    params = param_views(config, np.zeros(param_layout(config)[1], dtype))
    for name, p in params.items():
        if p.ndim == 2:
            fan_in, fan_out = p.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            # at most 64 rows per draw, the same values as one draw: float64
            # temporaries of a whole array would stay resident in the heap
            for block in np.array_split(p, -(-fan_in // 64)):
                block[...] = rng.uniform(-limit, limit, size=block.shape)
        elif name.startswith("lstm"):
            p[h : 2 * h] = 1.0  # gate layout: input | forget | cell | output
    return params


def make_dropout_masks(
    config: ModelConfig, batch: int, width: int, rng: np.random.Generator
) -> list[np.ndarray] | None:
    """Per-layer keep masks for one training step; None when dropout is off.

    Each layer's mask is ``rng.random((batch, width, 2H)) >= dropout``,
    bit-packed along the feature axis by ``np.packbits``: (batch, width,
    ceil(2H / 8)) uint8, an eighth of the bool array.  The draws are the
    same, so the random stream does not depend on the packing."""
    if config.dropout == 0.0:
        return None
    F = 2 * config.hidden_dim
    masks = [np.empty((batch, width, -(-F // 8)), np.uint8) for _ in range(config.num_layers)]
    for packed in masks:
        # at most 8 rows per draw, the same values as one draw: a whole
        # float64 draw would be 64 times the size of the packed mask
        for start in range(0, batch, 8):
            rows = packed[start : start + 8]
            rows[...] = np.packbits(
                rng.random((len(rows), width, F)) >= config.dropout, axis=-1
            )
    return masks


@lru_cache(maxsize=8)
def _gate_affine(H: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Scale and shift rows that activate a whole i|f|g|o gate vector with
    one tanh: ``scale * tanh(scale * z) + shift`` is
    ``sigmoid(z) = 0.5 * tanh(0.5 * z) + 0.5`` on the i, f and o slices and
    ``tanh(z)`` on g.  Stable for every z and free of boolean gathers;
    scaling by 0.5 or 1 is exact, so each slice rounds as its formula does."""
    scale = np.full(4 * H, 0.5, dtype)
    scale[2 * H : 3 * H] = 1.0
    shift = np.full(4 * H, 0.5, dtype)
    shift[2 * H : 3 * H] = 0.0
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def _flip_rows(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Reverse the first ``lengths[b]`` time steps of each row b of the
    time-major ``x`` in place, and return ``x``.  Padding slots stay where
    they are, so the flip is its own inverse, and because real positions
    stay a contiguous prefix, states at real positions never depend on
    batch width.  Each row takes one copy of itself at most, never the
    whole array."""
    for b, n in enumerate(lengths.tolist()):
        row = x[:n, b]
        row[...] = row[::-1]  # numpy reads an overlapping source from a copy
    return x


def _unpack_mask(packed: np.ndarray, width: int) -> np.ndarray:
    """One layer's :func:`make_dropout_masks` mask as 0/1 uint8, (B, T,
    ``width``), read time-major through a (T, B, ``width``) view."""
    return np.unpackbits(packed, axis=-1, count=width).transpose(1, 0, 2)


@dataclass
class ForwardCache:
    """What :func:`loss_and_grads` reads back; it spends the cache, taking
    out or setting to None each part as soon as its last reader is done.
    Arrays are in forward time order, except that each direction's gates
    are in its own; the backward pass flips a layer's input in place once
    the forward direction has read it."""

    gates: list[dict[str, np.ndarray]]  # per layer, (T, B, 4H) activated, own time order
    inputs: list[np.ndarray | None]  # (T, B, 2H) input of each layer above 0, time order
    feats: np.ndarray | None  # (B, T, 2H) top features, document order


def _run_direction(gates: np.ndarray, Wh: np.ndarray) -> np.ndarray:
    """The recurrence of one direction over its filled (T, B, 4H) gate
    buffer, which holds ``x @ Wx + b`` for every step in this direction's
    time order; only ``h @ Wh`` is sequential.  Activates the gates in
    place and returns the (T, B, H) hidden states; the cell state is one
    rolling (B, H) row, updated in place."""
    T, B, _ = gates.shape
    H = Wh.shape[0]
    dtype = gates.dtype
    scale, shift = _gate_affine(H, dtype)
    h_s = np.empty((T, B, H), dtype)
    c = np.zeros((B, H), dtype)
    for t in range(T):
        z = gates[t]
        if t:  # the recurrent input is zero at t == 0
            z += h @ Wh
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += shift
        h = h_s[t]
        np.multiply(z[:, H : 2 * H], c, out=c)
        c += z[:, :H] * z[:, 2 * H : 3 * H]
        np.tanh(c, out=h)
        h *= z[:, 3 * H :]
    return h_s


def layer0_tables(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Per direction, layer 0's input term ``embedding @ Wx + b`` of every
    vocabulary id, (V, 4H): what :func:`forward` gathers layer 0 from."""
    tables = {}
    for direction in _DIRECTIONS:
        table = params["embedding"] @ params[f"lstm0_{direction}_Wx"]
        table += params[f"lstm0_{direction}_b"]
        tables[direction] = table
    return tables


def head_fold(params: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The projection folded into the heads, which sit side by side in
    ``W_heads`` and ``b_heads``: ``proj_W @ W_heads`` (2H, 16) and
    ``proj_b @ W_heads + b_heads``, what :func:`forward`'s logits read."""
    W_heads = np.concatenate([params[f"head_{k}_W"] for k in CATEGORIES], axis=1)
    b_heads = np.concatenate([params[f"head_{k}_b"] for k in CATEGORIES])
    # taken as its (16, 2H) transpose: BLAS then packs 16 rows, not 2H, and
    # a loaded model keeps about 1 MB less of its buffers resident
    W_fold = (W_heads.T @ params["proj_W"].T).T
    return W_fold, params["proj_b"] @ W_heads + b_heads


def forward(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    ids: np.ndarray,
    lengths: np.ndarray,
    dropout_masks: list[np.ndarray] | None = None,
    keep_cache: bool = True,
    layer0: dict[str, np.ndarray] | None = None,
    fold: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[dict[str, np.ndarray], ForwardCache | None]:
    """Score every position.  Returns per-category logits (B, T, n_labels),
    views of one block, and the cache :func:`loss_and_grads` consumes.

    The cache keeps only each direction's activated gates, from which
    :func:`loss_and_grads` rebuilds the cell and hidden states.  With
    ``keep_cache=False`` (inference) it is None, and each gate buffer goes
    as soon as its hidden states have been taken.  The logits are the same
    either way, bit for bit.  ``dropout_masks`` are packed as
    :func:`make_dropout_masks` returns them.
    Layer 0 gathers from ``layer0``, the :func:`layer0_tables` of
    ``params``, and the logits come from ``fold``, its :func:`head_fold`; a
    caller whose weights stay fixed between calls (inference) builds them
    once, and without them each call builds its own.  Raises
    NonFiniteActivation if a state or a logit is not finite.
    """
    if ids.ndim != 2:
        raise ShapeMismatch(f"ids must be (batch, time), got shape {ids.shape}")
    B, T = ids.shape
    if lengths.shape != (B,):
        raise ShapeMismatch(f"lengths shape {lengths.shape} does not match batch {B}")
    if T == 0 or np.any(lengths < 1) or np.any(lengths > T):
        raise ShapeMismatch("row lengths must lie in [1, width]")
    if np.any(ids < 0) or np.any(ids >= config.vocab_size):
        raise ShapeMismatch("character ids outside the vocabulary")
    if dropout_masks is not None and len(dropout_masks) != config.num_layers:
        raise ShapeMismatch("need one dropout mask per layer")

    dtype = params["embedding"].dtype
    if layer0 is None:
        layer0 = layer0_tables(params)
    if fold is None:
        fold = head_fold(params)

    H = config.hidden_dim
    kept: list[dict[str, np.ndarray]] = []  # each layer's gates, per direction
    # each layer's output is concat(fwd, bwd) after dropout; the top layer
    # writes straight into the document-order features, through a view
    lower: list[np.ndarray] = []  # (T, B, 2H) outputs of the layers below the top
    feats = np.empty((B, T, 2 * H), dtype)
    inv_keep = 1.0 / (1.0 - config.dropout) if config.dropout else 1.0
    for layer in range(config.num_layers):
        per_dir: dict[str, np.ndarray] = {}
        top = layer == config.num_layers - 1
        H_layer = feats.transpose(1, 0, 2) if top else np.empty((T, B, 2 * H), dtype)
        for di, direction in enumerate(_DIRECTIONS):
            prefix = f"lstm{layer}_{direction}"
            flip = direction == "bwd"
            if layer == 0:
                gates = layer0[direction][_flip_rows(ids.T.copy(), lengths) if flip else ids.T]
            else:
                # the backward direction reads the layer below flipped in
                # place for its GEMM, and flipped back for the next reader
                x = lower[-1]
                if flip:
                    _flip_rows(x, lengths)
                gates = (x.reshape(T * B, -1) @ params[f"{prefix}_Wx"]).reshape(T, B, -1)
                if flip:
                    _flip_rows(x, lengths)
                gates += params[f"{prefix}_b"]
            h = _run_direction(gates, params[f"{prefix}_Wh"])
            H_layer[:, :, di * H : (di + 1) * H] = _flip_rows(h, lengths) if flip else h
            del h
            if keep_cache:
                per_dir[direction] = gates
            del gates  # unless kept, freed here
        layer0 = None  # read by layer 0 only: tables built here are freed
        if not np.all(np.isfinite(H_layer)):
            raise NonFiniteActivation(f"layer {layer} produced non-finite states")
        if dropout_masks is not None:
            # in place, in the order of ``H * mask * inv_keep``; one
            # layer's mask is unpacked at a time, for this product only
            H_layer *= _unpack_mask(dropout_masks[layer], 2 * H)
            H_layer *= inv_keep
        if not top:
            lower.append(H_layer)
        kept.append(per_dir)
    scores = (feats.reshape(B * T, 2 * H) @ fold[0]).reshape(B, T, -1)
    scores += fold[1]
    assert dtype == scores.dtype
    if not np.all(np.isfinite(scores)):
        raise NonFiniteActivation("the heads produced non-finite logits")
    logits = {k: scores[:, :, c] for k, c in _HEAD_COLUMNS.items()}
    if not keep_cache:
        return logits, None
    return logits, ForwardCache(gates=kept, inputs=lower, feats=feats)


def effective_targets(
    golds: dict[str, np.ndarray], masks: dict[str, np.ndarray]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Head-space targets and loss masks per category.

    Sin decisions whose gold carries no dot (undotted source) drop out of
    the loss, and the remaining sin golds shift down by one to index the
    two-way head.
    """
    out = {}
    for k in CATEGORIES:
        g = golds[k]
        m = masks[k]
        if k == "sin":
            m = m & (g > 0)
            g = np.where(m, g - 1, 0).astype(g.dtype)
        out[k] = (g, m)
    return out


def _nll_and_softmax(
    sel: np.ndarray, gold: np.ndarray
) -> tuple[np.float64, np.ndarray]:
    m = sel.max(axis=1, keepdims=True)
    shifted = sel - m
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    # summed, not averaged; accumulate in float64 regardless of model dtype
    nll = np.sum(
        np.log(denom[:, 0]) - shifted[np.arange(sel.shape[0]), gold],
        dtype=np.float64,
    )
    return nll, exp / denom


def _head_nll(
    logits: dict[str, np.ndarray],
    golds: dict[str, np.ndarray],
    masks: dict[str, np.ndarray],
) -> tuple[float, int, dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The masked loss, the number of live decisions, and per head with any
    live decision its loss mask, live golds and live softmax rows."""
    targets = effective_targets(golds, masks)
    total = np.float64(0.0)
    count = 0
    live = {}
    for k in CATEGORIES:
        g, m = targets[k]
        if not m.any():
            continue
        nll, soft = _nll_and_softmax(logits[k][m], g[m])
        total += nll
        count += int(m.sum())
        live[k] = (m, g[m], soft)
    if count == 0:
        return 0.0, 0, live
    loss = float(total / count)
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"loss is {loss}")
    return loss, count, live


def masked_loss(
    logits: dict[str, np.ndarray],
    golds: dict[str, np.ndarray],
    masks: dict[str, np.ndarray],
) -> float:
    """Masked cross-entropy from raw logits.

    Summed over every live decision in every category and divided by the
    total number of live decisions; zero live decisions give exactly 0.
    Masked positions are never gathered, so their logit values cannot move
    the result even by rounding.
    """
    return _head_nll(logits, golds, masks)[0]


def compute_loss(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    ids: np.ndarray,
    lengths: np.ndarray,
    golds: dict[str, np.ndarray],
    masks: dict[str, np.ndarray],
    dropout_masks: list[np.ndarray] | None = None,
) -> float:
    """Forward pass followed by :func:`masked_loss`."""
    logits, _ = forward(params, config, ids, lengths, dropout_masks, keep_cache=False)
    return masked_loss(logits, golds, masks)


def loss_and_grads(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    ids: np.ndarray,
    lengths: np.ndarray,
    golds: dict[str, np.ndarray],
    masks: dict[str, np.ndarray],
    dropout_masks: list[np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus analytic gradients for every parameter, as
    :func:`param_views` of one zeroed buffer.

    Masked positions contribute exactly zero: their rows are never gathered
    into the loss, so no rounding residue from them can reach a gradient.
    The projection's and the heads' weight gradients both come from one
    (2H, 16) product ``feats.T @ dL``, as the logits read the projection
    only through :func:`head_fold`.  Each direction's states are rebuilt
    from its cached gates while its backward pass runs.  The backward pass
    spends the forward cache as it goes, dropping each array
    once its last reader is done and taking over gradient buffers instead of
    summing them into zeros, so a step peaks at about the cached forward's
    own size; ``params`` and ``dropout_masks`` are only read.
    """
    dtype = params["embedding"].dtype
    # allocated before the forward pass: taken after it, one buffer this
    # size finds no freed hole to reuse and a step's resident peak grows
    grads = param_views(config, np.zeros(param_layout(config)[1], dtype))
    fold = head_fold(params)
    logits, cache = forward(params, config, ids, lengths, dropout_masks, fold=fold)
    loss, count, live = _head_nll(logits, golds, masks)
    del logits
    if count == 0:
        return 0.0, grads

    B, T = ids.shape
    H2 = 2 * config.hidden_dim
    # logit gradients of all heads side by side, one column block per head
    dL = np.zeros((B * T, sum(HEAD_SIZES.values())), dtype)
    for k, (m, g, soft) in live.items():
        soft[np.arange(g.size), g] -= 1.0
        dL[m.reshape(-1), _HEAD_COLUMNS[k]] = soft / count
    del live

    # the heads' weight gradient is ``P.T @ dL`` with the projection's
    # output ``P = feats @ proj_W + proj_b``, expanded so P is never formed
    W_heads = np.concatenate([params[f"head_{k}_W"] for k in CATEGORIES], axis=1)
    G = cache.feats.reshape(B * T, H2).T @ dL
    cache.feats = None
    gb_heads = dL.sum(axis=0)
    grads["proj_W"] += G @ W_heads.T
    grads["proj_b"] += gb_heads @ W_heads.T
    gW_heads = params["proj_W"].T @ G + np.outer(params["proj_b"], gb_heads)
    for k in CATEGORIES:
        grads[f"head_{k}_W"] += gW_heads[:, _HEAD_COLUMNS[k]]
        grads[f"head_{k}_b"] += gb_heads[_HEAD_COLUMNS[k]]
    dfeats = (dL @ fold[0].T).reshape(B, T, H2)
    del dL, fold

    # each layer's output gradient: the top layer takes over dfeats (back
    # in the stack's time-major layout) and each lower one the input
    # gradient of the layer above
    dH = dfeats.transpose(1, 0, 2)
    del dfeats

    inv_keep = 1.0 / (1.0 - config.dropout) if config.dropout else 1.0
    H = config.hidden_dim
    for layer in range(config.num_layers - 1, -1, -1):
        if dropout_masks is not None:
            # in place, in the order of ``dD * mask * inv_keep``
            dH *= _unpack_mask(dropout_masks[layer], H2)
            dH *= inv_keep
        for di, direction in enumerate(_DIRECTIONS):
            prefix = f"lstm{layer}_{direction}"
            Wx = params[f"{prefix}_Wx"]
            # the backward direction works in its own time order: it flips
            # in place its half of dH, its input and its input gradient,
            # each of which it is the last to read
            flip = direction == "bwd"
            dh = dH[:, :, di * H : (di + 1) * H]
            dZ = _backprop_direction(
                cache.gates[layer].pop(direction),
                _flip_rows(dh, lengths) if flip else dh,
                params[f"{prefix}_Wh"],
                grads[f"{prefix}_Wh"],
                grads[f"{prefix}_b"],
            )
            del dh
            if layer == 0:
                # sum dZ per vocabulary id, then work in vocabulary space
                at = _flip_rows(ids.T.copy(), lengths) if flip else ids.T
                onehot = np.zeros((config.vocab_size, T * B), dtype)
                onehot[at.reshape(-1), np.arange(T * B)] = 1.0
                S = onehot @ dZ
                del dZ, onehot
                grads[f"{prefix}_Wx"] += params["embedding"].T @ S
                grads["embedding"] += S @ Wx.T
            else:
                u = cache.inputs[layer - 1]
                if flip:
                    _flip_rows(u, lengths)
                grads[f"{prefix}_Wx"] += u.reshape(T * B, -1).T @ dZ
                del u
                dU = (dZ @ Wx.T).reshape(T, B, -1)
                del dZ
                if flip:
                    dU_total += _flip_rows(dU, lengths)
                else:
                    dU_total = dU
                del dU
        del dH
        if layer > 0:
            cache.inputs[layer - 1] = None
            dH = dU_total
            del dU_total
    return loss, grads


def _backprop_direction(
    gates: np.ndarray,
    dh_seq: np.ndarray,
    Wh: np.ndarray,
    gWh: np.ndarray,
    gb: np.ndarray,
) -> np.ndarray:
    """Reverse-time pass for one direction over its cached (T, B, 4H)
    activated gates, accumulating into the recurrent weight and bias
    gradient buffers.  ``dh_seq`` is (T, B, H) in this direction's time
    order.  Returns the (T*B, 4H) gate pre-activation gradient dZ, from
    which the caller takes the input weight and input gradients.

    The cell states are rebuilt first, in one sweep over the gates with
    :func:`_run_direction`'s operations in its order, and the reverse loop
    writes each step's hidden state ``tanh(c) * o``, as it takes the tanh
    anyway: both match the forward's bit for bit.  Step t's hidden state
    goes into cell-state slot t once the step has taken that tanh; step
    t + 1 has read the slot already, so one (T, B, H) buffer holds both.
    Each step's dz replaces that step's activated gates, so the cache is
    spent afterwards and dZ is a view of it.  Only ``dz @ Wh.T`` is
    sequential; the recurrent weight gradient is one whole-sequence GEMM
    after the loop.
    """
    T, B, H = dh_seq.shape
    dtype = dh_seq.dtype
    zeros = np.zeros((B, H), dtype)
    c_s = np.empty((T, B, H), dtype)
    c = zeros
    for t in range(T):
        z = gates[t]
        np.multiply(z[:, H : 2 * H], c, out=c_s[t])
        c_s[t] += z[:, :H] * z[:, 2 * H : 3 * H]
        c = c_s[t]
    h_s = c_s  # one buffer: slot t turns from c[t] into h[t] at step t
    WhT = np.ascontiguousarray(Wh.T)  # faster per step than the transposed view
    dh_next = np.zeros((B, H), dtype)
    dc_next = np.zeros((B, H), dtype)
    for t in range(T - 1, -1, -1):
        act = gates[t].copy()
        i, f = act[:, :H], act[:, H : 2 * H]
        g, o = act[:, 2 * H : 3 * H], act[:, 3 * H :]
        c_prev = c_s[t - 1] if t > 0 else zeros
        tc = np.tanh(c_s[t])
        np.multiply(tc, o, out=h_s[t])  # c[t]'s last reader was the tanh
        dh = dh_seq[t] + dh_next
        dc = dh * o * (1.0 - tc * tc) + dc_next
        dz = gates[t]
        np.multiply(dc * g, i * (1.0 - i), out=dz[:, :H])
        np.multiply(dc * c_prev, f * (1.0 - f), out=dz[:, H : 2 * H])
        np.multiply(dc * i, 1.0 - g * g, out=dz[:, 2 * H : 3 * H])
        np.multiply(dh * tc, o * (1.0 - o), out=dz[:, 3 * H :])
        dh_next = dz @ WhT
        dc_next = dc * f
    dZ = gates.reshape(T * B, 4 * H)
    # step t's recurrent input is h[t-1]; h[-1] = 0 contributes nothing, so
    # the first step's B rows of dZ drop out
    gWh += h_s[:-1].reshape((T - 1) * B, H).T @ dZ[B:]
    gb += dZ.sum(axis=0)
    return dZ


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    per_array: dict[str, float]
    samples: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def gradient_check(
    config: ModelConfig,
    ids: np.ndarray,
    lengths: np.ndarray,
    golds: dict[str, np.ndarray],
    masks: dict[str, np.ndarray],
    seed: int = 0,
    step: float = 1e-3,
    samples_per_array: int = 500,
    tolerance: float = 1e-4,
    dropout_masks: list[np.ndarray] | None = None,
) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    Runs the whole computation in float64; the same dropout masks are
    replayed on every evaluation so the loss stays a deterministic function
    of the parameters.  Relative error uses a small floor so near-zero
    entries compare by absolute difference.  Raises ValueError unless
    ``samples_per_array`` is positive: a check of nothing passes nothing.
    """
    if samples_per_array < 1:
        raise ValueError(f"samples per array must be positive, got {samples_per_array}")
    params = init_params(config, seed=seed, dtype=np.float64)
    _, grads = loss_and_grads(
        params, config, ids, lengths, golds, masks, dropout_masks
    )
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    floor = 1e-8
    per_array: dict[str, float] = {}
    total_samples = 0
    for name in sorted(params):
        arr = params[name]
        n = min(samples_per_array, arr.size)
        flat_idx = rng.choice(arr.size, size=n, replace=False)
        total_samples += n
        worst = 0.0
        flat = arr.reshape(-1)
        for j in flat_idx:
            orig = flat[j]
            flat[j] = orig + step
            up = compute_loss(params, config, ids, lengths, golds, masks, dropout_masks)
            flat[j] = orig - step
            down = compute_loss(
                params, config, ids, lengths, golds, masks, dropout_masks
            )
            flat[j] = orig
            fd = (up - down) / (2.0 * step)
            an = grads[name].reshape(-1)[j]
            rel = abs(an - fd) / max(abs(an), abs(fd), floor)
            worst = max(worst, rel)
        per_array[name] = worst
    return GradCheckReport(
        max_rel_err=max(per_array.values()),
        per_array=per_array,
        samples=total_samples,
        tolerance=tolerance,
    )


def make_synthetic_batch(
    config: ModelConfig, batch: int, width: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Random but well-formed model inputs for gradient checking.

    Rows get varied lengths (the first spans the full width), masks are off
    past each row's length, and sin golds include the no-dot case so the
    loss exclusion path gets exercised too.  Letter ids are drawn from
    ``[2, vocab_size)``, past the padding and fallback ids.  Raises
    ValueError unless ``batch`` and ``width`` are positive and the
    vocabulary has at least one such letter.
    """
    for name, size in (("batch", batch), ("width", width)):
        if size < 1:
            raise ValueError(f"{name} must be positive, got {size}")
    if config.vocab_size < 3:
        raise ValueError(
            f"vocab_size must be at least 3 to leave a letter id, got {config.vocab_size}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    ids = rng.integers(2, config.vocab_size, size=(batch, width), dtype=np.int32)
    lengths = rng.integers(
        max(1, width // 2), width + 1, size=batch, dtype=np.int32
    )
    lengths[0] = width
    golds = {
        "niqqud": rng.integers(0, HEAD_SIZES["niqqud"], size=(batch, width)).astype(
            np.int8
        ),
        "dagesh": rng.integers(0, HEAD_SIZES["dagesh"], size=(batch, width)).astype(
            np.int8
        ),
        "sin": rng.integers(0, 3, size=(batch, width)).astype(np.int8),
    }
    masks = {
        "niqqud": rng.random((batch, width)) < 0.7,
        "dagesh": rng.random((batch, width)) < 0.6,
        "sin": rng.random((batch, width)) < 0.2,
    }
    live = np.arange(width)[None, :] < lengths[:, None]
    ids[~live] = 0
    for k in CATEGORIES:
        masks[k] &= live
        golds[k][~masks[k]] = 0
    return ids, lengths, golds, masks


CHECKPOINT_MAGIC = b"NKDM"
CHECKPOINT_VERSION = 1
# the letters that take each decision, as every header records them
_DECISION_LETTERS = {
    "dagesh_capable": "".join(sorted(DAGESH_CAPABLE)),
    "niqqud_capable": "".join(sorted(NIQQUD_CAPABLE)),
}


@dataclass(frozen=True)
class Checkpoint:
    params: dict[str, np.ndarray]
    config: ModelConfig
    vocab: Vocabulary
    meta: dict


def save_checkpoint(
    path: Path | str,
    params: dict[str, np.ndarray],
    config: ModelConfig,
    vocab: Vocabulary,
    meta: dict | None = None,
) -> None:
    """Write a self-describing binary checkpoint.

    Layout: magic, u32 version, length-prefixed JSON header (config,
    vocabulary, the codec's decision letters, free-form metadata), then each
    array as a length-prefixed name, u32 rank, u32 dims and row-major float32
    bytes.  All integers little-endian.  The decision letters are recorded
    for :func:`load_checkpoint` to check against the codec's.  Arrays are
    written in sorted name order so equal models produce identical bytes.  They are written straight to
    ``<path>.tmp``, synced to disk, and then replace ``path`` whole, so a
    crash mid-write leaves the previous checkpoint intact.
    """
    header = {
        "config": dataclasses.asdict(config),
        "vocab": vocab.to_json(),
        **_DECISION_LETTERS,
        "meta": meta or {},
    }
    blob = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(
                CHECKPOINT_MAGIC
                + struct.pack("<II", CHECKPOINT_VERSION, len(blob))
                + blob
                + struct.pack("<I", len(params))
            )
            for name in sorted(params):
                arr = np.ascontiguousarray(params[name], dtype="<f4")
                name_b = name.encode("utf-8")
                f.write(
                    struct.pack("<I", len(name_b))
                    + name_b
                    + struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
                )
                f.write(memoryview(arr).cast("B"))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: Path | str) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Reads the file front to back, each array straight into its place in one
    float32 buffer of :func:`param_layout` (one allocation, which the C
    allocator keeps for a later load), so a load holds one copy of the
    weights; the arrays are :func:`param_views` of it, the padding between
    them zero.  A file that is not a regular one, such as a pipe, is read
    whole and parsed from memory.  Every length in the file is checked
    against the bytes left before it is read or allocated for.
    Raises VersionMismatch for a future format version and CorruptCheckpoint
    for anything that does not parse cleanly: a config value of the wrong
    type, a ``residual`` setting other than false, decision letters other
    than the codec's, or arrays whose names and shapes differ from
    :func:`param_shapes` of the stored config.
    """
    with open(path, "rb") as raw:
        st = os.fstat(raw.fileno())
        f, size = raw, st.st_size
        if not stat.S_ISREG(st.st_mode):  # a pipe's size reads 0
            data = raw.read()
            f, size = io.BytesIO(data), len(data)
        pos = 0  # where the next field starts

        def fits(n: int) -> int:
            if n > size - pos:
                raise CorruptCheckpoint(f"{path}: truncated at byte {pos}")
            return n

        def take(n: int) -> bytes:
            nonlocal pos
            pos += fits(n)
            return f.read(n)

        def take_u32() -> int:
            return struct.unpack("<I", take(4))[0]

        if take(4) != CHECKPOINT_MAGIC:
            raise CorruptCheckpoint(f"{path}: bad magic, not a model checkpoint")
        version = take_u32()
        if version != CHECKPOINT_VERSION:
            raise VersionMismatch(
                f"{path}: format version {version}, this build reads {CHECKPOINT_VERSION}"
            )
        try:
            header = json.loads(take(take_u32()).decode("utf-8"))
            settings = header["config"]
            # a setting since removed; files that hold it as false still load
            if settings.pop("residual", False) is not False:
                raise CorruptCheckpoint(f"{path}: residual models are no longer supported")
            config = ModelConfig(**settings)
            vocab = Vocabulary.from_json(header["vocab"])
            if vocab.size != config.vocab_size:
                raise CorruptCheckpoint(f"{path}: vocabulary size != config.vocab_size")
            if any(header[k] != v for k, v in _DECISION_LETTERS.items()):
                raise CorruptCheckpoint(f"{path}: decision letters differ from this build's")
            # names and shapes only: a pass over the elements would cost more
            # than the load; non-finite weights surface as NonFiniteActivation
            expected = param_shapes(config)
            spans, end = param_layout(config)
            fits(4 * end)  # before the allocation; no padding outweighs a name and dims
            flat = np.empty(end, dtype="<f4")
            n_arrays = fits(take_u32())
            seen: set[str] = set()
            for _ in range(n_arrays):
                name = take(take_u32()).decode("utf-8")
                rank = take_u32()
                shape = struct.unpack(f"<{rank}I", take(4 * rank))
                if expected.get(name) != shape or name in seen:
                    raise CorruptCheckpoint(
                        f"{path}: array {name!r} of shape {shape} is unexpected,"
                        " misshapen or repeated for the config"
                    )
                seen.add(name)
                arr = flat[spans[name]]
                pos += fits(arr.nbytes)
                f.readinto(arr)
            for span in spans.values():  # the padding after each array
                if span.stop % 4:  # a slice assignment costs more than the test
                    flat[span.stop : -(-span.stop // 4) * 4] = 0.0
        except (AttributeError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            if isinstance(exc, (CorruptCheckpoint, VersionMismatch)):
                raise
            raise CorruptCheckpoint(f"{path}: malformed checkpoint ({exc})") from exc
        if f.tell() != pos:  # a read came up short: the file shrank under us
            raise CorruptCheckpoint(f"{path}: truncated at byte {f.tell()}")
    if pos != size:
        raise CorruptCheckpoint(f"{path}: {size - pos} trailing bytes")
    if len(seen) != len(expected):
        missing = ", ".join(sorted(expected.keys() - seen))
        raise CorruptCheckpoint(f"{path}: arrays missing for the config: {missing}")
    return Checkpoint(
        # no-op when little-endian
        params=param_views(config, flat.astype(np.float32, copy=False)),
        config=config,
        vocab=vocab,
        meta=header.get("meta", {}),
    )
