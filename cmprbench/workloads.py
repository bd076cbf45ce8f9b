"""The cmpr benchmark workloads, built only from cmpr's public calls.

``train_b64`` / ``train_b8`` compose one four-stream pretraining step
(scheduler -> encode -> project -> contrastive terms, plus prediction and
reconstruction terms on the ``fc`` stream -> total loss -> backward -> a
plain SGD update owned here), then run a frozen-encoder retrieval eval of
the validation split.  ``eval_retrieval`` round-trips a large cohort and a
checkpoint through disk and times a forward-only retrieval eval of the
test split.  No training loop exists in cmpr yet; the composed step here
stands in for it.

Every layer is timed from outside, by a span around each public call.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import shutil
import statistics
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cmpr import autodiff, losses, metrics, model, synthdata
from cmpr.errors import CmprError
from cmpr.losses import EmbeddingBatch, Modality, View
from spans import Tracer

TAU_INIT = 0.07
LR = 0.01
WEIGHTS = losses.LossWeights()
# A run is this many rounds, each set up afresh; set-up time is their median.
# Spreading the set-ups over the run lets them sample the host's speed
# phases as the steps do, rather than only the first seconds.
ROUNDS = 5
DIGEST_STEPS = 8  # every round runs steps 0..7; the loss digest covers them
VAL_PASSES = 6  # spread over the training run, like periodic validation

# stream -> (contrastive pairing, (modality, view) of the left and right side)
STREAM_SPECS = {
    "fc": ("fc", ("fundus", View.PLAIN), ("carotid", View.PLAIN)),
    "fv": ("fv", ("fundus", View.VISIT_T), ("fundus", View.VISIT_T_PRIME)),
    "cv": ("cv", ("carotid", View.VISIT_T), ("carotid", View.VISIT_T_PRIME)),
    "eyes": ("eye", ("fundus", View.EYE_RIGHT), ("fundus", View.EYE_LEFT)),
}
# modality -> (prediction term, reconstruction term) on the fc stream
HEAD_TERMS = {"fundus": ("pred_r", "rec_f"), "carotid": ("pred_c", "rec_c")}

# one coordinate of each is checked against central differences
FD_PARAMS = (
    "log_tau",
    "fundus.patch.w",
    "carotid.block0.attn.wq",
    "fundus.block0.mlp.w1",
    "carotid.proj.w",
    "fundus.pred.w2",
    "carotid.dec.conv1.k",
    "fundus.dec.seed.b",
)
FD_ROWS = 3
FD_RTOL, FD_ATOL = 1e-5, 1e-8

OP_KINDS = (
    "leaf", "matmul", "add_bias", "reshape", "transpose", "bmm", "scale",
    "softmax", "layer_norm", "add", "gelu", "mean_axis", "row_l2_normalize",
    "row_logsumexp", "take_diagonal", "sub", "mul", "mean_all", "exp", "log",
    "neg", "transposed_conv2d",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "steps_per_s": "1/s",
    "samples_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "eval_s": "s",
    "images_per_s": "1/s",
}

_SETUP_CALLS = (
    "synthdata.generate_cohort",
    "synthdata.scheduler_init",
    "synthdata.save_cohort",
    "synthdata.load_cohort",
    "model.init_params",
)
_STEP_CALLS = (
    "synthdata.batches_for_step",
    "model.encode",
    "model.project",
    "model.predict_measures",
    "model.decode",
    "losses.instantiate_contrastive",
    "losses.prediction_mse",
    "losses.reconstruction_mse",
    "losses.total_loss",
    "autodiff.backward",
    "model.save_checkpoint",
    "model.load_checkpoint",
    "metrics.similarity_matrix",
    "metrics.topk_report",
    "bench.sgd_update",
    "bench.gc_collect",
)
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in _SETUP_CALLS},
    **{f"{name}_ms": "ms" for name in _STEP_CALLS},
    "model.checkpoint_bytes": "B",
    "autodiff.tape_nodes": "count",
    **{f"autodiff.tape_nodes.{op}": "count" for op in OP_KINDS},
    "autodiff.tape_nodes.other": "count",
    "bench.trace_overhead_ms": "ms",
}


@dataclass(frozen=True)
class Size:
    train_participants: int
    eval_participants: int
    cohort: synthdata.CohortConfig
    encoder: model.EncoderConfig
    chunk: int  # images per forward chunk in the retrieval eval


FULL = Size(2000, 10000, synthdata.CohortConfig(), model.EncoderConfig(), 256)
TINY = Size(
    60,
    120,
    synthdata.CohortConfig(image_size=8),
    model.EncoderConfig(image_size=8, embed_dim=8, depth=1, proj_dim=4,
                        pred_hidden=4, decoder_channels=[4, 2]),
    16,
)

WORKLOADS = {"train_b64": 64, "train_b8": 8, "eval_retrieval": None}


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)  # raw timings
    tracer: Tracer = field(default_factory=Tracer)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


# ---------------------------------------------------------------------------
# the composed training step
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    config: model.EncoderConfig
    params: model.ModelParams
    scheduler: synthdata.StreamScheduler
    measure_mean: np.ndarray
    measure_std: np.ndarray
    eval_sides: dict[str, tuple[np.ndarray, np.ndarray]]


def init_params(config: model.EncoderConfig, seed: int, tracer: Tracer) -> model.ModelParams:
    """``model.init_params`` with a learnable temperature whose ``log_tau``
    is kept as a one-element array.

    ``model.save_checkpoint`` cannot store a 0-d array: ``arrayio``'s
    ``np.ascontiguousarray`` gives it shape (1,), so a checkpointed 0-d
    ``log_tau`` comes back with the wrong shape.  Keeping it at shape (1,)
    and reshaping it to a scalar on the tape (``forward``) lets the
    checkpoint checks stay bitwise on every name, shape and byte.
    """
    with tracer.span("model.init_params"):
        params = model.init_params(config, seed, learnable_tau_init=TAU_INIT)
    params.arrays["log_tau"] = params.arrays["log_tau"].reshape(1)
    return params


def forward(state: TrainState, params: model.ModelParams, batches, tracer: Tracer, step: int):
    """One step's loss on a fresh tape: (view, report, total tensor)."""
    cfg = state.config
    tape = autodiff.Tape()
    view = model.ParamView(tape, params)
    log_tau = autodiff.reshape(view["log_tau"], ())  # stored as (1,); see init_params
    tau = losses.Temperature(TAU_INIT, learnable=True).resolve(log_tau)
    terms = {}
    for stream, batch in batches.items():
        if batch is None:
            continue
        pairing, (lmod, lview), (rmod, rview) = STREAM_SPECS[stream]
        sides = []
        for images, modality, view_tag in ((batch.left, lmod, lview), (batch.right, rmod, rview)):
            with tracer.span("model.encode"):
                emb = model.encode(view, cfg, images, modality)
            with tracer.span("model.project"):
                proj = model.project(view, cfg, emb, modality)
            sides.append((emb, EmbeddingBatch(proj, Modality(modality), view_tag), images, modality))
        with tracer.span("losses.instantiate_contrastive"):
            name, term = losses.instantiate_contrastive(pairing, (sides[0][1], sides[1][1]), tau)
        terms[name] = term
        if stream != "fc":
            continue
        measures = tape.leaf((batch.measures - state.measure_mean) / state.measure_std, name="measures")
        for emb, _, images, modality in sides:
            pred_name, rec_name = HEAD_TERMS[modality]
            with tracer.span("model.predict_measures"):
                predicted = model.predict_measures(view, cfg, emb, modality)
            with tracer.span("losses.prediction_mse"):
                terms[pred_name] = losses.prediction_mse(measures, predicted)
            with tracer.span("model.decode"):
                decoded = model.decode(view, cfg, emb, modality)
            with tracer.span("losses.reconstruction_mse"):
                terms[rec_name] = losses.reconstruction_mse(
                    tape.leaf(images, name=f"{modality}.target"), decoded
                )
    with tracer.span("losses.total_loss"):
        report, total = losses.total_loss(terms, WEIGHTS, step)
    return view, report, total


def train_step(state: TrainState, step: int, tracer: Tracer):
    """Data -> forward -> backward -> SGD: (report, tape, pairs consumed)."""
    with tracer.span("step"):
        with tracer.span("bench.gc_collect"):
            gc.collect(0)  # frees the previous step's tape; see run()
        with tracer.span("synthdata.batches_for_step"):
            batches = state.scheduler.batches_for_step(step)
        view, report, total = forward(state, state.params, batches, tracer, step)
        with tracer.span("autodiff.backward"):
            grads = autodiff.backward(view.tape, total)
        with tracer.span("bench.sgd_update"):
            for name, leaf in view.used().items():
                state.params.arrays[name] -= LR * grads.of(leaf)
    return report, view.tape, sum(b.n for b in batches.values() if b is not None)


def op_counts(tape: autodiff.Tape) -> Counter:
    """Node count per op kind; every leaf counts as ``leaf`` (leaves carry
    a parameter or input name as their op)."""
    return Counter("leaf" if n.backward_fn is None else n.op for n in tape.nodes)


def _finite(report: losses.LossReport) -> bool:
    return all(math.isfinite(v) for v in (*report.terms.values(), report.total))


def _bitwise_equal(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _params_diff(saved: model.ModelParams, loaded: model.ModelParams) -> str | None:
    """The first way ``loaded`` differs from ``saved``, or None."""
    if list(saved.arrays) != list(loaded.arrays):
        return "parameter names or order differ"
    for name, a in saved.arrays.items():
        b = loaded.arrays[name]
        if not _bitwise_equal(a, b):
            return f"{name}: saved {a.dtype}{a.shape}, loaded {b.dtype}{b.shape}"
    return None


def _loss_digest(reports: list[losses.LossReport]) -> str:
    h = hashlib.sha256()
    for r in reports:
        h.update(np.asarray([r.terms.get(t, np.nan) for t in losses.TERM_ORDER] + [r.total]).tobytes())
    return h.hexdigest()[:16]


def fd_check(state: TrainState, seed: int, res: Result) -> None:
    """Analytic vs central-difference gradient on a tiny fixed batch.
    Each forward first frees the tapes before it, so the check adds nothing
    to peak RSS."""
    batches = {}
    for stream in synthdata.STREAMS:
        b = state.scheduler.batch_at(stream, 0)
        if b is not None:
            rows = slice(0, FD_ROWS)
            batches[stream] = synthdata.StreamBatch(
                stream, b.left[rows], b.right[rows],
                None if b.measures is None else b.measures[rows], b.participant_ids[rows],
            )
    off = Tracer()
    gc.collect(0)
    view, _, total = forward(state, state.params, batches, off, 0)
    grads = autodiff.backward(view.tape, total)
    used = view.used()
    names = [n for n in FD_PARAMS if n in used]
    rng = np.random.default_rng(seed)
    coords = {n: np.asarray([rng.integers(state.params.arrays[n].size)]) for n in names}

    def loss_of(replaced: dict[str, np.ndarray]) -> float:
        params = model.ModelParams(OrderedDict(state.params.arrays))
        params.arrays.update(replaced)
        gc.collect(0)
        return forward(state, params, batches, off, 0)[2].item()

    fd = autodiff.finite_difference_gradient(
        loss_of, {n: state.params.arrays[n] for n in names}, coords=coords
    )
    for n in names:
        i = int(coords[n][0])
        a = grads.of(used[n]).reshape(-1)[i]
        f = fd[n].reshape(-1)[i]
        res.check(
            abs(a - f) <= FD_ATOL + FD_RTOL * max(abs(a), abs(f)),
            f"FD gradient {n}[{i}]: analytic {a!r} vs central difference {f!r}",
        )


# ---------------------------------------------------------------------------
# the retrieval eval
# ---------------------------------------------------------------------------


def stream_sides(samples, chunk: int, seed: int, tracer: Tracer):
    """Stacked left/right images of every stream with at least two members."""
    with tracer.span("synthdata.scheduler_init"):
        sched = synthdata.StreamScheduler(samples, chunk, seed)
    sides = {}
    for stream in synthdata.STREAMS:
        members = sched.members(stream)
        if len(members) >= 2:
            sides[stream] = (np.stack([m.left for m in members]),
                             np.stack([m.right for m in members]))
    return sides


def k_values(n: int) -> tuple[int, ...]:
    return tuple(k for k in metrics.DEFAULT_K_VALUES if k <= n) or (1,)


def brute_force_topk(sim: np.ndarray, ks) -> tuple[dict[int, float], dict[int, float]]:
    """Top-k and multiplicative top-k from each row's full stable ranking
    (descending similarity, ties to the lower column)."""
    n = sim.shape[0]
    ranks = [int(np.flatnonzero(np.argsort(-sim[i], kind="stable") == i)[0]) for i in range(n)]
    top = {k: sum(r < k for r in ranks) / n for k in ks}
    return top, {k: top[k] * n / k for k in ks}


def _embed_chunk(params, cfg, images, modality: str, tracer: Tracer):
    """Projected embeddings of one chunk on a fresh tape: (values, tape)."""
    with tracer.span("eval.chunk"):
        with tracer.span("bench.gc_collect"):
            gc.collect(0)  # frees the previous chunk's tape; see run()
        view = model.ParamView(autodiff.Tape(), params)
        with tracer.span("model.encode"):
            emb = model.encode(view, cfg, images, modality)
        with tracer.span("model.project"):
            return model.project(view, cfg, emb, modality).value, view.tape


def eval_pass(params, cfg, sides, chunk: int, tracer: Tracer, chunk_ms: list[float]):
    """Forward-only encode+project of every side in fixed chunks, each on a
    fresh tape, then similarity and top-k per pairing.

    Returns (reports, sims, encode seconds, images, pairs, op counts of the
    last chunk's tape)."""
    encode_s = 0.0
    embs = {}
    n_images = n_pairs = 0
    ops = Counter()
    for stream, images_lr in sides.items():
        _, lspec, rspec = STREAM_SPECS[stream]
        pair = []
        for images, (modality, _) in zip(images_lr, (lspec, rspec)):
            parts = []
            for lo in range(0, len(images), chunk):
                t0 = time.perf_counter()
                proj, tape = _embed_chunk(params, cfg, images[lo:lo + chunk], modality, tracer)
                dt = time.perf_counter() - t0
                chunk_ms.append(dt * 1e3)
                encode_s += dt
                parts.append(proj)
                if tracer.enabled:
                    ops = op_counts(tape)
                del tape  # one chunk's tape alive at a time
            pair.append(np.concatenate(parts))
            n_images += len(images)
        n_pairs += len(images_lr[0])
        embs[stream] = pair
    reports, sims = {}, {}
    for stream, (u, v) in embs.items():
        with tracer.span("metrics.similarity_matrix"):
            sims[stream] = metrics.similarity_matrix(u, v)
        with tracer.span("metrics.topk_report"):
            reports[stream] = metrics.topk_report(sims[stream], k_values(len(u)))
    return reports, sims, encode_s, n_images, n_pairs, ops


@dataclass
class EvalRuns:
    pass_s: list[float] = field(default_factory=list)
    images_per_s: list[float] = field(default_factory=list)
    pairs_per_s: list[float] = field(default_factory=list)
    chunk_ms: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    untraced_s: list[float] = field(default_factory=list)
    ops: list[Counter] = field(default_factory=list)


def eval_once(params, cfg, sides, chunk: int, res: Result, runs: EvalRuns, trace: bool) -> None:
    """One timed eval pass, appended to ``runs``; each report is checked
    against the brute-force ranking.  With ``trace``, every second pass
    is traced."""
    traced = trace and len(runs.pass_s) % 2 == 1
    res.tracer.enabled = traced
    t0 = time.perf_counter()
    with res.tracer.span("eval.pass"):
        reports, sims, encode_s, n_images, n_pairs, ops = eval_pass(
            params, cfg, sides, chunk, res.tracer, runs.chunk_ms
        )
    dt = time.perf_counter() - t0
    res.tracer.enabled = False
    runs.pass_s.append(dt)
    (runs.traced_s if traced else runs.untraced_s).append(dt)
    runs.images_per_s.append(n_images / encode_s)
    runs.pairs_per_s.append(n_pairs / dt)
    if traced:
        runs.ops.append(ops)
    for stream, report in reports.items():
        top, mult = brute_force_topk(sims[stream], report.k_values)
        res.check(
            top == report.top_k and mult == report.mult_top_k,
            f"topk_report for {stream} disagrees with the brute-force ranking",
        )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _split_samples(samples, split: synthdata.CohortSplit, name: str):
    ids = set(split.of(name))
    return [s for s in samples if s.participant_id in ids]


def setup_train(size: Size, batch_size: int, seed: int, tracer: Tracer) -> TrainState:
    with tracer.span("synthdata.generate_cohort"):
        samples = synthdata.generate_cohort(size.train_participants, size.cohort, seed)
    split = synthdata.split_cohort(samples, seed)
    train = _split_samples(samples, split, "train")
    with tracer.span("synthdata.scheduler_init"):
        scheduler = synthdata.StreamScheduler(train, batch_size, seed)
    measures = np.stack([s.measures for s in train])
    eval_sides = stream_sides(_split_samples(samples, split, "validation"), size.chunk, seed, tracer)
    params = init_params(size.encoder, seed, tracer)
    return TrainState(size.encoder, params, scheduler, measures.mean(axis=0),
                      measures.std(axis=0), eval_sides)


def timed_setup(make, res: Result, trace: bool):
    """One set-up: (what ``make`` returns, seconds).  The caller has freed
    the previous round's state, so no two set-ups' data are alive at once."""
    gc.collect()
    res.tracer.enabled = trace
    t0 = time.perf_counter()
    with res.tracer.span("setup"):
        out = make()
    dt = time.perf_counter() - t0
    res.tracer.enabled = False
    return out, dt


def checkpoint_round_trip(state: TrainState, step: int, work: Path, res: Result,
                          trace: bool):
    """Save before ``step``, load back, compare bitwise.  Returns (save
    seconds, loaded params, file bytes)."""
    path = work / "mid_run.cmpr"
    res.tracer.enabled = trace
    with res.tracer.span("checkpoint"):
        t0 = time.perf_counter()
        with res.tracer.span("model.save_checkpoint"):
            model.save_checkpoint(path, state.params, state.config, step)
        save_s = time.perf_counter() - t0
        with res.tracer.span("model.load_checkpoint"):
            params, _, loaded_step, _, _ = model.load_checkpoint(path)
    res.tracer.enabled = False
    diff = _params_diff(state.params, params)
    res.check(diff is None and loaded_step == step,
              f"checkpoint did not round-trip bitwise: {diff}")
    return save_s, params, path.stat().st_size


def replay_check(state: TrainState, loaded: model.ModelParams, step: int,
                 report: losses.LossReport, res: Result) -> None:
    """The step's loss recomputed from the loaded params must be bitwise
    equal to the one computed from the live params."""
    gc.collect(0)  # frees the live step's tape, so the check adds nothing to peak RSS
    try:
        again = forward(state, loaded, state.scheduler.batches_for_step(step), Tracer(), step)[1]
    except CmprError as exc:
        res.check(False, f"step {step} from loaded params raised {exc!r}")
        return
    res.check(again.total == report.total,
              f"loss from loaded params {again.total!r} != {report.total!r}")


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_train(batch_size: int, size: Size, seed: int, seconds: float, trace: bool,
              work: Path) -> Result:
    """ROUNDS rounds.  Each sets up afresh from the same seed, runs one
    untimed warm-up step, then trains for its share of ``seconds`` and at
    least to step DIGEST_STEPS - 1."""
    res = Result()
    reports = []  # the first round's come first, for the digest

    def attempt(state: TrainState, step: int, traced: bool):
        """One step: (report, pairs, seconds, op counts when traced) or None.
        The tape is dropped here, so no two steps' tapes are alive at once."""
        res.tracer.enabled = traced
        try:
            t0 = time.perf_counter()
            report, tape, pairs = train_step(state, step, res.tracer)
            dt = time.perf_counter() - t0
        except CmprError as exc:
            res.check(False, f"step {step} raised {exc!r}")
            return None
        finally:
            res.tracer.enabled = False
        res.check(_finite(report), f"step {step} has a non-finite loss term")
        reports.append(report)
        return report, pairs, dt, op_counts(tape) if traced else None

    evals = EvalRuns()
    setup_times, step_ms, traced_ms, untraced_ms, ops = [], [], [], [], []
    busy = 0.0
    pairs_done = 0
    ckpt = ckpt_bytes = None
    for rnd in range(ROUNDS):
        state = None  # frees the last round's cohort and weights
        state, dt = timed_setup(lambda: setup_train(size, batch_size, seed, res.tracer), res, trace)
        setup_times.append(dt)
        attempt(state, 0, False)  # warm-up, untimed
        step = 1
        while busy < seconds * (rnd + 1) / ROUNDS or step < DIGEST_STEPS:
            if len(evals.pass_s) < VAL_PASSES * min(busy / seconds, 1):  # periodic validation
                eval_once(state.params, state.config, state.eval_sides, size.chunk, res, evals, trace)
            if ckpt is None and busy >= seconds / 2:
                save_s, loaded, ckpt_bytes = checkpoint_round_trip(state, step, work, res, trace)
                busy += save_s  # the stall counts against steps/s
                ckpt = (rnd, step)
            traced = trace and step % 2 == 1
            out = attempt(state, step, traced)
            if out is not None:
                report, pairs, dt, counts = out
                step_ms.append(dt * 1e3)
                (traced_ms if traced else untraced_ms).append(dt * 1e3)
                busy += dt
                pairs_done += pairs
                if traced:
                    ops.append(counts)
                if ckpt == (rnd, step):
                    replay_check(state, loaded, step, report, res)
            step += 1

    while len(evals.pass_s) < VAL_PASSES:
        eval_once(state.params, state.config, state.eval_sides, size.chunk, res, evals, trace)
    fd_check(state, seed, res)

    value, pct = tail(step_ms)
    res.samples = {"step_ms": step_ms, "eval_pass_s": evals.pass_s, "setup_s": setup_times}
    digest = reports[:DIGEST_STEPS]
    res.end_to_end = {
        "setup_s": statistics.median(setup_times),
        "steps_per_s": len(step_ms) / busy,
        "samples_per_s": pairs_done / busy,
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_tail": value,
        "eval_s": statistics.median(evals.pass_s),
        "images_per_s": statistics.median(evals.images_per_s),
    }
    res.notes += [
        f"step_ms_tail is p{pct:.1f} of {len(step_ms)} timed steps",
        f"eval_s / images_per_s: median of {len(evals.pass_s)} validation-split passes",
        f"loss digest (steps 0..{DIGEST_STEPS - 1}): {_loss_digest(digest)}; "
        f"total at step 0 {digest[0].total!r}, at step {DIGEST_STEPS - 1} {digest[-1].total!r}",
    ]
    if trace:
        res.per_layer = _per_layer(res.tracer, ops, traced_ms, untraced_ms,
                                   ckpt_bytes or 0)
    return res


def _cohorts_equal(a: synthdata.Cohort, b: synthdata.Cohort) -> bool:
    if (a.split, a.config, a.seed, a.n_participants, len(a.samples)) != (
        b.split, b.config, b.seed, b.n_participants, len(b.samples)
    ):
        return False
    for x, y in zip(a.samples, b.samples):
        if (x.participant_id, x.visit, x.diagnosis_label, x.prognosis_label, x.presence_mask) != (
            y.participant_id, y.visit, y.diagnosis_label, y.prognosis_label, y.presence_mask
        ):
            return False
        if not all(_bitwise_equal(getattr(x, f), getattr(y, f))
                   for f in ("fundus_right", "fundus_left", "carotid", "measures")):
            return False
    return True


def setup_eval(size: Size, seed: int, work: Path, tracer: Tracer):
    """Cohort and checkpoint through disk and back; returns what the eval
    reads plus the originals for the round-trip checks."""
    cfg = size.cohort
    with tracer.span("synthdata.generate_cohort"):
        samples = synthdata.generate_cohort(size.eval_participants, cfg, seed)
    cohort = synthdata.Cohort(samples, synthdata.split_cohort(samples, seed), cfg, seed,
                              size.eval_participants)
    with tracer.span("synthdata.save_cohort"):
        synthdata.save_cohort(work / "cohort", cohort)
    with tracer.span("synthdata.load_cohort"):
        loaded = synthdata.load_cohort(work / "cohort")
    params = init_params(size.encoder, seed, tracer)
    path = work / "encoder.cmpr"
    with tracer.span("model.save_checkpoint"):
        model.save_checkpoint(path, params, size.encoder, 0)
    with tracer.span("model.load_checkpoint"):
        ckpt = model.load_checkpoint(path)
    sides = stream_sides(loaded.samples_for("test"), size.chunk, seed, tracer)
    return cohort, loaded, params, ckpt, sides, path.stat().st_size


def run_eval(size: Size, seed: int, seconds: float, trace: bool, work: Path) -> Result:
    res = Result()

    def make():
        out = setup_eval(size, seed, work, res.tracer)
        cohort, loaded, params, ckpt, _, _ = out
        res.check(_cohorts_equal(cohort, loaded), "loaded cohort differs from the saved one")
        diff = _params_diff(params, ckpt[0])
        res.check(diff is None and ckpt[1] == size.encoder,
                  f"loaded checkpoint differs from the saved one: {diff}")
        return out

    evals = EvalRuns()
    setup_times = []
    for rnd in range(ROUNDS):  # each round: a fresh set-up, then at least one pass
        ckpt = sides = None  # frees the last round's data
        # keeps only what the passes read; the cohorts are freed here
        (_, _, _, ckpt, sides, ckpt_bytes), dt = timed_setup(make, res, trace)
        setup_times.append(dt)
        eval_once(ckpt[0], ckpt[1], sides, size.chunk, res, evals, trace)
        while sum(evals.pass_s) < seconds * (rnd + 1) / ROUNDS:
            eval_once(ckpt[0], ckpt[1], sides, size.chunk, res, evals, trace)
    value, pct = tail(evals.chunk_ms)
    res.samples = {"step_ms": evals.chunk_ms, "eval_pass_s": evals.pass_s, "setup_s": setup_times}
    busy = sum(evals.pass_s)
    res.end_to_end = {
        "setup_s": statistics.median(setup_times),
        "steps_per_s": len(evals.chunk_ms) / busy,
        "samples_per_s": statistics.median(evals.pairs_per_s),
        "step_ms_p50": statistics.median(evals.chunk_ms),
        "step_ms_tail": value,
        "eval_s": statistics.median(evals.pass_s),
        "images_per_s": statistics.median(evals.images_per_s),
    }
    n_images = sum(len(left) + len(right) for left, right in sides.values())
    res.notes += [
        f"a step is one forward chunk of up to {size.chunk} images; step_ms_tail is "
        f"p{pct:.1f} of {len(evals.chunk_ms)} chunks",
        f"eval_s / images_per_s: median of {len(evals.pass_s)} test-split passes "
        f"over {n_images} images",
    ]
    if trace:
        res.per_layer = _per_layer(res.tracer, evals.ops, [s * 1e3 for s in evals.traced_s],
                                   [s * 1e3 for s in evals.untraced_s], ckpt_bytes)
    return res


def _per_layer(tracer: Tracer, ops: list[Counter], traced_ms, untraced_ms,
               ckpt_bytes: int) -> dict[str, float]:
    """Per-layer numbers from the spans: each ``_ms`` call metric is the
    median per step (or per eval pass, or per checkpoint/set-up where the
    call only runs there) of the call's total time; ``_s`` metrics are the
    median per set-up."""
    kinds = [tracer.units(u) for u in ("step", "eval.pass", "checkpoint", "setup")]

    def median_total(name: str) -> float:
        for units in kinds:
            if any(name in u for u in units):
                return statistics.median(u.get(name, 0) for u in units)
        return 0.0

    out: dict[str, float] = {}
    for metric, unit in PER_LAYER_UNITS.items():
        if unit == "s":
            out[metric] = median_total(metric[:-2]) / 1e9
        elif unit == "ms" and metric != "bench.trace_overhead_ms":
            out[metric] = median_total(metric[:-3]) / 1e6
    for kind in OP_KINDS:
        out[f"autodiff.tape_nodes.{kind}"] = statistics.median(c[kind] for c in ops) if ops else 0
    out["autodiff.tape_nodes.other"] = statistics.median(
        sum(v for k, v in c.items() if k not in OP_KINDS) for c in ops
    ) if ops else 0
    out["autodiff.tape_nodes"] = statistics.median(sum(c.values()) for c in ops) if ops else 0
    out["model.checkpoint_bytes"] = ckpt_bytes
    out["bench.trace_overhead_ms"] = (
        statistics.median(traced_ms) - statistics.median(untraced_ms)
        if traced_ms and untraced_ms else 0.0
    )
    return {k: out[k] for k in PER_LAYER_UNITS}


def run(workload: str, size: Size, seed: int, seconds: float, trace: bool,
        work: Path) -> Result:
    """Run one workload in this process.

    A tape is a reference cycle (its nodes' closures hold the tensors that
    point back at it), so only the cycle collector frees it.  Left to its
    allocation-count triggers, the collector lets a run-length-dependent
    number of dead tapes pile up, which makes peak RSS and step times vary
    from run to run.  So the automatic collector is off, and each step or
    eval chunk starts with a young-generation collection, timed inside the
    step as ``bench.gc_collect``.
    """
    work.mkdir(parents=True, exist_ok=True)
    gc.disable()
    try:
        if WORKLOADS[workload] is None:
            res = run_eval(size, seed, seconds, trace, work)
        else:
            res = run_train(WORKLOADS[workload], size, seed, seconds, trace, work)
    finally:
        gc.enable()
        shutil.rmtree(work, ignore_errors=True)
    res.end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    res.end_to_end = {k: res.end_to_end[k] for k in END_TO_END_UNITS}
    return res
