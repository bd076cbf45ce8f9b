"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written the slow, obvious way (explicit
loops, no shared code with the package) so the oracles stay independent
of the implementations they check.
"""

from __future__ import annotations

import math

import numpy as np


def matmul_triple_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def transposed_conv2d_direct(
    x: np.ndarray, kernel: np.ndarray, stride: int
) -> np.ndarray:
    """Direct scatter-sum definition of the fractionally-strided convolution."""
    c, h, w = x.shape
    c2, co, kh, kw = kernel.shape
    assert c == c2
    ho = (h - 1) * stride + kh
    wo = (w - 1) * stride + kw
    out = np.zeros((co, ho, wo), dtype=np.float64)
    for ci in range(c):
        for o in range(co):
            for i in range(h):
                for j in range(w):
                    for di in range(kh):
                        for dj in range(kw):
                            out[o, i * stride + di, j * stride + dj] += (
                                x[ci, i, j] * kernel[ci, o, di, dj]
                            )
    return out


def gelu_tanh_elementwise(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximated GELU and its derivative, one element at a time
    through ``math.tanh``."""
    c = math.sqrt(2.0 / math.pi)
    a = 0.044715
    x = np.asarray(x, dtype=np.float64)
    value = np.zeros(x.shape, dtype=np.float64)
    slope = np.zeros(x.shape, dtype=np.float64)
    for idx in np.ndindex(x.shape):
        v = float(x[idx])
        t = math.tanh(c * (v + a * v * v * v))
        value[idx] = 0.5 * v * (1.0 + t)
        slope[idx] = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * c * (
            1.0 + 3.0 * a * v * v
        )
    return value, slope


def layer_norm_rows(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Layer norm over the last axis, one row at a time with Python sums."""
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    rows = x.reshape(-1, d)
    out = np.zeros(rows.shape, dtype=np.float64)
    for r in range(rows.shape[0]):
        row = [float(v) for v in rows[r]]
        mean = sum(row) / d
        var = sum((v - mean) * (v - mean) for v in row) / d
        scale = 1.0 / math.sqrt(var + eps)
        for j in range(d):
            out[r, j] = gamma[j] * (row[j] - mean) * scale + beta[j]
    return out.reshape(x.shape)


def top_k_full_sort(sim: np.ndarray, k: int) -> float:
    """Sort every row (descending value, ascending column on ties) and check
    whether the diagonal index survives in the first k entries."""
    n = sim.shape[0]
    hits = 0
    for i in range(n):
        order = sorted(range(n), key=lambda j: (-sim[i, j], j))
        if i in order[:k]:
            hits += 1
    return hits / n


def auc_pairwise(labels: np.ndarray, scores: np.ndarray) -> float:
    """Exhaustive pairwise concordance with half-credit for ties."""
    pos = [s for lab, s in zip(labels, scores) if lab == 1]
    neg = [s for lab, s in zip(labels, scores) if lab == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def r_squared_two_pass(y: np.ndarray, y_hat: np.ndarray) -> float:
    mean = sum(y) / len(y)
    ss_res = sum((a - b) ** 2 for a, b in zip(y, y_hat))
    ss_tot = sum((a - mean) ** 2 for a in y)
    return 1.0 - ss_res / ss_tot


def assert_grads_close(
    analytic: dict[str, np.ndarray],
    numeric: dict[str, np.ndarray],
    rtol: float = 1e-5,
    atol: float = 1e-8,
) -> None:
    """Elementwise |a-n| <= atol + rtol*|n|, skipping unprobed (NaN) coords."""
    assert set(analytic) == set(numeric)
    for name in analytic:
        a = analytic[name]
        n = numeric[name]
        mask = ~np.isnan(n)
        assert mask.any(), f"no probed coordinates for {name}"
        diff = np.abs(a[mask] - n[mask])
        bound = atol + rtol * np.abs(n[mask])
        worst = np.max(diff - bound)
        assert np.all(diff <= bound), (
            f"gradient mismatch for {name}: worst excess {worst:.3e}"
        )


# ---------------------------------------------------------------------------
# test-only helpers on the package's own types
# ---------------------------------------------------------------------------


def sum_all(x):
    """Sum of every element of tape tensor ``x`` as a scalar tape node; a
    plain reduction for building test losses."""
    out = np.asarray(x.value.sum(), dtype=np.float64)
    shape = x.value.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).copy(),)

    return x.tape.record("sum_all", out, (x.index,), bwd)


def expected_param_count(config, learnable_tau: bool = False) -> int:
    """Closed-form parameter count of an ``EncoderConfig`` (both
    modalities), written from the architecture rather than the init code."""
    d = config.embed_dim
    hidden = 2 * d  # encoder MLP width
    per_block = 2 * d + 4 * (d * d + d) + 2 * d + (
        d * hidden + hidden + hidden * d + d
    )
    patch_dim = 3 * config.patch_size**2
    n_tokens = (config.image_size // config.patch_size) ** 2
    enc = patch_dim * d + d + n_tokens * d + config.depth * per_block
    proj = d * config.proj_dim + config.proj_dim
    pred = d * config.pred_hidden + config.pred_hidden + (
        config.pred_hidden * config.n_measures + config.n_measures
    )
    hw = config.image_size // 2 ** len(config.decoder_channels)
    c0 = config.decoder_channels[0]
    dec = d * c0 * hw * hw + c0 * hw * hw
    chain = [*config.decoder_channels, 3]
    for i in range(len(chain) - 1):
        dec += chain[i] * chain[i + 1] * 4
    return 2 * (enc + proj + pred + dec) + (1 if learnable_tau else 0)
