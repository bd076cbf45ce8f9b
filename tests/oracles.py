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
            k = [row @ p(f"{b}.attn.wk") for row in normed]
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


def generate_cohort_per_image(n_participants: int, config, seed: int) -> list[dict]:
    """The synthetic cohort one participant, visit and image at a time:
    each participant's draws taken as they are needed, each image rendered
    by its own matrix-vector product, ``sin`` and ``clip``.  One dict per
    sample, keyed by ``CohortSample``'s fields, with ``presence_mask`` as
    the (right eye, left eye, carotid) flags."""
    bank = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    n_pix = 3 * config.image_size**2
    ell = config.latent_dim
    fundus_w = bank.normal(0.0, config.render_freq, size=(n_pix, ell))
    fundus_phase = bank.uniform(0.0, 2.0 * np.pi, size=n_pix)
    left_eye_phase = bank.normal(0.0, 0.8, size=n_pix)
    carotid_w = bank.normal(0.0, config.render_freq, size=(n_pix, ell))
    carotid_phase = bank.uniform(0.0, 2.0 * np.pi, size=n_pix)
    measure_map = bank.standard_normal((config.n_measures, ell)) / np.sqrt(ell)
    w = bank.standard_normal(ell)
    label_w = w * (config.label_scale / np.linalg.norm(w))
    scale, offset = config.measure_affine()

    def render(z, kind, noise):
        if kind == "carotid":
            arg = carotid_w @ z + carotid_phase
        else:
            phase = fundus_phase + (left_eye_phase if kind == "left" else 0.0)
            arg = fundus_w @ z + phase
        raw = 0.5 + config.render_amp * np.sin(arg)
        img = np.clip(raw + config.pixel_noise * noise, 0.0, 1.0)
        return img.reshape(3, config.image_size, config.image_size)

    def label_prob(z):
        return float(1.0 / (1.0 + np.exp(-label_w @ z)))

    samples = []
    for pid in range(n_participants):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1, pid]))
        z1 = rng.standard_normal(ell)
        z2 = z1 + config.drift * rng.standard_normal(ell)
        has_second_visit = rng.uniform() < config.second_visit_fraction
        diagnosis = int(rng.uniform() < label_prob(z1))
        prognosis = int(rng.uniform() < label_prob(z2))
        visits = [("t", z1)] + ([("t_prime", z2)] if has_second_visit else [])
        for visit, z in visits:
            mask = (False, False, False)
            while not any(mask):
                mask = tuple(rng.uniform() >= config.missing_prob for _ in range(3))
            images = {}
            for kind, present in zip(("right", "left", "carotid"), mask):
                images[kind] = (
                    render(z, kind, rng.standard_normal(n_pix)) if present else None
                )
            core = measure_map @ z + config.measure_noise * rng.standard_normal(
                config.n_measures
            )
            samples.append({
                "participant_id": pid,
                "visit": visit,
                "fundus_right": images["right"],
                "fundus_left": images["left"],
                "carotid": images["carotid"],
                "measures": offset + scale * core,
                "diagnosis_label": diagnosis,
                "prognosis_label": prognosis if diagnosis == 0 else None,
                "presence_mask": mask,
            })
    return samples


def stream_members_longhand(samples, stream: str) -> list[tuple]:
    """The members of one scheduler stream, one branch per kind of pairing,
    as (participant id, left image, right image, measures or None):

    fc:   fundus (right eye if present, else left) x carotid, same sample
    fv:   a participant's visit-t fundus x visit-t' fundus, by participant
    cv:   the same for carotid
    eyes: right eye x left eye of one sample
    """

    def fundus(s):
        return s.fundus_right if s.fundus_right is not None else s.fundus_left

    members = []
    if stream == "fc":
        for s in samples:
            if fundus(s) is not None and s.carotid is not None:
                members.append((s.participant_id, fundus(s), s.carotid, s.measures))
    elif stream == "eyes":
        for s in samples:
            if s.fundus_right is not None and s.fundus_left is not None:
                members.append(
                    (s.participant_id, s.fundus_right, s.fundus_left, s.measures)
                )
    else:
        image = fundus if stream == "fv" else (lambda s: s.carotid)
        for pid in sorted({s.participant_id for s in samples}):
            first = [s for s in samples if s.participant_id == pid and s.visit == "t"]
            second = [
                s for s in samples if s.participant_id == pid and s.visit == "t_prime"
            ]
            if not first or not second:
                continue
            a, b = image(first[0]), image(second[0])
            if a is not None and b is not None:
                members.append((pid, a, b, None))
    return members


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


def backward_serial(tape, root):
    """Gradients by node index from one plain reverse walk of ``tape`` from
    scalar ``root`` on this thread: each reached rule run in turn, each
    contribution added as it comes.  Interior gradients are dropped, so
    what is left is the leaves'."""
    grads = [None] * len(tape.nodes)
    grads[root.index] = np.ones((), dtype=np.float64)
    with np.errstate(all="ignore"):
        for i in range(root.index, -1, -1):
            node = tape.nodes[i]
            if grads[i] is None or node.backward_fn is None:
                continue
            g, grads[i] = grads[i], None
            for p, pg in zip(node.parents, node.backward_fn(g)):
                grads[p] = pg if grads[p] is None else grads[p] + pg
    return grads


def held_arrays(fn, skip):
    """Arrays a function keeps through its closure cells, walked as
    ``test_no_backward_rule_captures_a_tensor`` walks them, into the lists
    and functions it holds too, but not into the objects in ``skip``."""
    found, cells = [], list(fn.__closure__ or ())
    while cells:
        held = cells.pop().cell_contents
        if any(held is s for s in skip):
            continue
        if isinstance(held, np.ndarray):
            found.append(held)
        elif isinstance(held, (list, tuple)):
            cells.extend(_Cell(item) for item in held)
        cells.extend(getattr(held, "__closure__", None) or ())
    return found


class _Cell:
    __slots__ = ("cell_contents",)

    def __init__(self, value):
        self.cell_contents = value


def expected_param_count(config, learnable_tau: bool = False) -> int:
    """Closed-form parameter count of an ``EncoderConfig`` (both
    modalities), written from the architecture rather than the init code."""
    d = config.embed_dim
    hidden = 2 * d  # encoder MLP width
    # attention has four (D, D) weights and three biases: no key bias
    per_block = 2 * d + 4 * d * d + 3 * d + 2 * d + (
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
