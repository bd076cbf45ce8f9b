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


def encode_loops(
    arrays: dict[str, np.ndarray],
    modality: str,
    images: np.ndarray,
    patch: int,
    depth: int,
) -> np.ndarray:
    """Mean-pooled pre-norm transformer embedding, one sample and one token
    at a time: patch linear plus position, then per block single-head
    softmax attention and a GELU MLP, each on layer-normed input and added
    back, then the mean over tokens."""

    def p(name):
        return arrays[f"{modality}.{name}"]

    out = []
    for img in images:
        _, h, w = img.shape
        tokens = []
        for gi in range(h // patch):
            for gj in range(w // patch):
                # channel-major pixels of one patch, patches in raster order
                pixels = img[:, gi * patch:(gi + 1) * patch,
                             gj * patch:(gj + 1) * patch].reshape(-1)
                tokens.append(pixels @ p("patch.w") + p("patch.b"))
        x = np.array(tokens) + p("pos")
        t, d = x.shape
        for i in range(depth):
            b = f"block{i}"
            normed = layer_norm_rows(x, p(f"{b}.ln1.g"), p(f"{b}.ln1.b"))
            q = [row @ p(f"{b}.attn.wq") + p(f"{b}.attn.bq") for row in normed]
            k = [row @ p(f"{b}.attn.wk") + p(f"{b}.attn.bk") for row in normed]
            v = [row @ p(f"{b}.attn.wv") + p(f"{b}.attn.bv") for row in normed]
            attended = np.zeros((t, d))
            for a in range(t):
                scores = [float(q[a] @ k[j]) / math.sqrt(d) for j in range(t)]
                top = max(scores)
                weights = [math.exp(s - top) for s in scores]
                total = sum(weights)
                ctx = sum(wt / total * v[j] for j, wt in enumerate(weights))
                attended[a] = ctx @ p(f"{b}.attn.wo") + p(f"{b}.attn.bo")
            x = x + attended
            normed = layer_norm_rows(x, p(f"{b}.ln2.g"), p(f"{b}.ln2.b"))
            mlp = np.zeros((t, d))
            for a in range(t):
                pre = normed[a] @ p(f"{b}.mlp.w1") + p(f"{b}.mlp.b1")
                hidden, _ = gelu_tanh_elementwise(pre)
                mlp[a] = hidden @ p(f"{b}.mlp.w2") + p(f"{b}.mlp.b2")
            x = x + mlp
        out.append(sum(x[a] for a in range(t)) / t)
    return np.array(out)


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
