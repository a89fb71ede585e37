"""Reference inference forward for :func:`hebdot.network.forward`.

It computes the model the plain way: every position's embedding row times
each layer-0 input matrix (``emb[ids] @ Wx + b``), a textbook LSTM step
loop per row and direction, and the projection applied before the heads
(``(feats @ proj_W + proj_b) @ head_W + head_b``).  It shares no code with
the package; ``forward`` instead gathers layer 0 from tables of every
vocabulary id, so the two agree to rounding.
"""

from __future__ import annotations

import numpy as np

from hebdot.corpus import CATEGORIES


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _lstm_row(x: np.ndarray, Wx: np.ndarray, Wh: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hidden states of one direction over one row's (n, in) inputs."""
    H = Wh.shape[0]
    z_in = x @ Wx + b
    h = np.zeros(H, x.dtype)
    c = np.zeros(H, x.dtype)
    out = np.empty((len(x), H), x.dtype)
    for t in range(len(x)):
        z = z_in[t] + h @ Wh
        i, f = _sigmoid(z[:H]), _sigmoid(z[H : 2 * H])
        g, o = np.tanh(z[2 * H : 3 * H]), _sigmoid(z[3 * H :])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def reference_forward(params, config, ids, lengths) -> dict[str, np.ndarray]:
    """Per-category logits (B, T, n) at the real positions; padding stays 0."""
    B, T = ids.shape
    logits = {
        k: np.zeros((B, T, params[f"head_{k}_b"].shape[0]), params["embedding"].dtype)
        for k in CATEGORIES
    }
    for r in range(B):
        n = int(lengths[r])
        x = params["embedding"][ids[r, :n]]
        for layer in range(config.num_layers):
            p = f"lstm{layer}_"
            fwd = _lstm_row(x, params[p + "fwd_Wx"], params[p + "fwd_Wh"], params[p + "fwd_b"])
            bwd = _lstm_row(
                x[::-1], params[p + "bwd_Wx"], params[p + "bwd_Wh"], params[p + "bwd_b"]
            )[::-1]
            x = np.concatenate([fwd, bwd], axis=1)
        proj = x @ params["proj_W"] + params["proj_b"]
        for k in CATEGORIES:
            logits[k][r, :n] = proj @ params[f"head_{k}_W"] + params[f"head_{k}_b"]
    return logits
