"""Synthetic longitudinal two-modality cohort with shared latent factors.

Every participant carries a latent state z (standard normal); a second
visit drifts it.  Fundus (right/left eye) and carotid images are fixed
seeded sinusoidal renderings of z, measures are a noisy linear readout,
and diagnosis/prognosis labels are Bernoulli draws from logistic models on
the visit-1 and visit-2 latents.  Because all modalities share z, an
oracle matcher exists and every pretraining objective has learnable
structure.

The random stream defines the cohort.  The feature banks come from the
generator seeded by (seed, 0); participant ``pid`` draws from its own
generator seeded by (seed, 1, pid), in this order:

1. ``2 * latent_dim`` standard normals: z at visit t, then the drift that
   gives z at visit t' as ``z + drift * d``;
2. three uniforms on [0, 1): a second visit where the first is below
   ``second_visit_fraction``; diagnosis 1 where the second is below the
   logistic label probability of z at t; prognosis the same from the third
   and z at t', kept only where the diagnosis is 0;
3. per visit, t then t' if there is one: the presence mask as three
   uniforms (right eye, left eye, carotid; present when at least
   ``missing_prob``), drawn again until one image is present; then
   ``3 * image_size**2`` pixel-noise normals per present image in that
   order; then ``n_measures`` measure-noise normals.

Generation draws a block of participants this way, then renders the
block's images, measures and labels together, each image kind in one
array pass.

Also home to the four-stream batch scheduler.  ``STREAMS`` gives each
contrastive pairing its two sides and whether they are one sample's images
or a participant's visits t and t'.  Every sample or participant with both
sides present, and no other (no imputation), is served once per epoch, in
an order seeded by the stream's position in the table.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import arrayio
from .errors import (
    ConfigError,
    ContractError,
    FormatError,
    check_config_keys,
    check_field_types,
    check_seed,
    is_int,
    manifest_field,
)

# stream -> (left side, right side, whether the sides are a participant's
# visits t and t' rather than one sample's images).  A side names a
# ``CohortSample`` image; ``fundus`` is the preferred eye.
STREAMS = {
    "fc": ("fundus", "carotid", False),  # fundus x carotid, same visit
    "fv": ("fundus", "fundus", True),  # visit-t fundus x visit-t' fundus
    "cv": ("carotid", "carotid", True),  # visit-t carotid x visit-t' carotid
    "eyes": ("fundus_right", "fundus_left", False),  # right x left eye, same visit
}
_VISITS = ("t", "t_prime")  # saved as their index
_EYE_PHASE_STD = 0.8

# age, fractal dimension, vessel density and artery width: plausible
# clinical magnitudes so the measures have wildly different units
DEFAULT_MEASURE_SCALES = (12.0, 0.08, 0.05, 1.5)
DEFAULT_MEASURE_OFFSETS = (55.0, 1.45, 0.12, 6.0)


@dataclass
class CohortConfig:
    latent_dim: int = 8
    drift: float = 0.3
    n_measures: int = 4
    image_size: int = 16
    pixel_noise: float = 0.05
    measure_noise: float = 0.1
    missing_prob: float = 0.1
    second_visit_fraction: float = 0.13
    render_freq: float = 0.35
    render_amp: float = 0.35
    label_scale: float = 4.0

    def __post_init__(self):
        check_field_types(self)
        if self.latent_dim < 1 or self.n_measures < 1 or self.image_size < 2:
            raise ConfigError("latent_dim, n_measures and image_size must be >= 1/2")
        for name in ("missing_prob", "second_visit_fraction"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {p}")
        if self.drift < 0.0 or self.pixel_noise < 0.0 or self.measure_noise < 0.0:
            raise ConfigError("noise and drift levels must be non-negative")

    def measure_affine(self) -> tuple[np.ndarray, np.ndarray]:
        if self.n_measures == len(DEFAULT_MEASURE_SCALES):
            return (
                np.asarray(DEFAULT_MEASURE_SCALES, dtype=np.float64),
                np.asarray(DEFAULT_MEASURE_OFFSETS, dtype=np.float64),
            )
        return np.ones(self.n_measures), np.zeros(self.n_measures)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CohortConfig":
        check_config_keys(cls, d)
        return cls(**d)


@dataclass
class CohortSample:
    """One participant-visit record.  A missing image is ``None``; which
    images are present is read off that."""

    participant_id: int
    visit: str  # "t" or "t_prime"
    fundus_right: np.ndarray | None
    fundus_left: np.ndarray | None
    carotid: np.ndarray | None
    measures: np.ndarray
    diagnosis_label: int
    prognosis_label: int | None  # None unless healthy at baseline

    @property
    def presence_mask(self) -> tuple[bool, bool, bool]:
        """Whether the right eye, left eye and carotid images are present."""
        return (self.fundus_right is not None, self.fundus_left is not None,
                self.carotid is not None)

    @property
    def fundus(self) -> np.ndarray | None:
        """Preferred fundus image: right eye if present, else left."""
        return self.fundus_left if self.fundus_right is None else self.fundus_right


@dataclass
class CohortSplit:
    train: list[int]
    validation: list[int]
    test: list[int]

    def of(self, name: str) -> list[int]:
        if name not in ("train", "validation", "test"):
            raise ContractError(f"unknown split {name!r}")
        return getattr(self, name)


@dataclass
class Cohort:
    samples: list[CohortSample]
    split: CohortSplit
    config: CohortConfig
    seed: int
    n_participants: int

    def samples_for(self, split_name: str) -> list[CohortSample]:
        ids = set(self.split.of(split_name))
        return [s for s in self.samples if s.participant_id in ids]


# participants drawn, then rendered, together.  At 16 the per-image
# array calls are already few, and the block's buffers stay under 1 MB
_BLOCK = 16


class _Renderer:
    """Fixed seeded sinusoidal feature banks mapping latents to images, and
    the buffers that one block of participants is drawn and rendered in."""

    def __init__(self, config: CohortConfig, rng: np.random.Generator):
        n_pix = 3 * config.image_size**2
        ell = config.latent_dim
        self.config = config
        fundus_w = rng.normal(0.0, config.render_freq, size=(n_pix, ell))
        fundus_phase = rng.uniform(0.0, 2.0 * np.pi, size=n_pix)
        left_eye_phase = rng.normal(0.0, _EYE_PHASE_STD, size=n_pix)
        carotid_w = rng.normal(0.0, config.render_freq, size=(n_pix, ell))
        carotid_phase = rng.uniform(0.0, 2.0 * np.pi, size=n_pix)
        self.measure_map = rng.standard_normal(
            (config.n_measures, ell)
        ) / np.sqrt(ell)
        w = rng.standard_normal(ell)
        self.label_w = w * (config.label_scale / np.linalg.norm(w))
        # (weights, phase) per image kind, in draw order: right eye, left
        # eye, carotid
        self.kinds = (
            (fundus_w, fundus_phase),
            (fundus_w, fundus_phase + left_eye_phase),
            (carotid_w, carotid_phase),
        )
        # allocated once per cohort, so that the heap holds little besides
        # the samples' own arrays; at most one image of a kind per visit
        self.latents = np.empty((_BLOCK, 2 * ell))
        self.uniforms = np.empty((_BLOCK, 3))
        self.noise = np.empty((len(self.kinds), 2 * _BLOCK, n_pix))
        self.measure_noise = np.empty((2 * _BLOCK, config.n_measures))
        self.pixels = np.empty((2 * _BLOCK, n_pix))

    def block(self, seed: int, pids: range) -> list[CohortSample]:
        """The samples of up to ``_BLOCK`` participants, in cohort order."""
        cfg = self.config
        n, ell = len(pids), cfg.latent_dim
        zd, u = self.latents[:n], self.uniforms[:n]
        rows: list[list[int]] = [[] for _ in self.kinds]  # latent row per image
        visits = []  # (block index, visit, image row per kind or None)

        # pass 1: every participant's draws, in the order the module
        # docstring gives
        for i, pid in enumerate(pids):
            rng = _participant_rng(seed, pid)
            rng.standard_normal(out=zd[i])
            rng.random(out=u[i])
            for visit in range(1 + (u[i, 0] < cfg.second_visit_fraction)):
                while True:
                    mask = [m >= cfg.missing_prob for m in rng.random(3).tolist()]
                    if any(mask):
                        break
                at: list[int | None] = [None, None, None]
                for kind, present in enumerate(mask):
                    if present:
                        at[kind] = len(rows[kind])
                        rng.standard_normal(out=self.noise[kind, at[kind]])
                        rows[kind].append(visit * n + i)
                rng.standard_normal(out=self.measure_noise[len(visits)])
                visits.append((i, visit, at))

        # pass 2: render the block, one array op at a time per image kind
        z1 = zd[:, :ell]
        z = np.concatenate([z1, z1 + cfg.drift * zd[:, ell:]])  # t rows, then t'
        images = [self._images(kind, z[r]) for kind, r in enumerate(rows)]
        measures = self._measures(z[[i + v * n for i, v, _ in visits]])
        diagnosis = self._labels(z[:n], u[:, 1])
        prognosis = self._labels(z[n:], u[:, 2])

        samples = []
        for j, (i, visit, at) in enumerate(visits):
            fr, fl, car = (None if a is None else images[kind][a]
                           for kind, a in enumerate(at))
            samples.append(
                CohortSample(
                    participant_id=pids[i],
                    visit=_VISITS[visit],
                    fundus_right=fr,
                    fundus_left=fl,
                    carotid=car,
                    measures=measures[j],
                    diagnosis_label=diagnosis[i],
                    prognosis_label=prognosis[i] if diagnosis[i] == 0 else None,
                )
            )
        return samples

    def _images(self, kind: int, z: np.ndarray) -> list[np.ndarray]:
        """Images of one kind for latents ``z`` (k x L) and the first k rows
        of that kind's noise, which this overwrites."""
        cfg = self.config
        w, phase = self.kinds[kind]
        k = len(z)
        noise, out = self.noise[kind, :k], self.pixels[:k]
        # matmul over a stack runs the per-vector gemv of ``w @ z``; z @ w.T
        # would take another BLAS kernel and other last bits
        np.matmul(w[None], z[:, :, None], out=out[:, :, None])
        out += phase
        np.sin(out, out=out)
        out *= cfg.render_amp
        out += 0.5
        noise *= cfg.pixel_noise
        out += noise
        np.clip(out, 0.0, 1.0, out=out)
        # every sample owns its arrays, so dropping a split frees its images
        return [img.copy() for img in out.reshape(k, 3, cfg.image_size, cfg.image_size)]

    def _measures(self, z: np.ndarray) -> list[np.ndarray]:
        scale, offset = self.config.measure_affine()
        noise = self.measure_noise[: len(z)]
        out = np.matmul(self.measure_map[None], z[:, :, None])[:, :, 0]
        noise *= self.config.measure_noise
        out += noise
        out *= scale
        out += offset
        return [row.copy() for row in out]

    def _labels(self, z: np.ndarray, u: np.ndarray) -> list[int]:
        """Bernoulli draws ``u < sigmoid(label_w . z)`` per row of ``z``."""
        logit = np.matmul(-self.label_w, z[:, :, None])[:, 0]  # one dot per row
        return (u < 1.0 / (1.0 + np.exp(logit))).astype(int).tolist()


def _participant_rng(seed: int, pid: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1, pid]))


def generate_cohort(
    n_participants: int, config: CohortConfig, seed: int
) -> list[CohortSample]:
    """Deterministic cohort; per-participant derived seeds allow parallel
    generation without changing results.  ``n_participants`` must be an
    integer and ``seed`` an integer >= 0 (else ``ContractError``)."""
    if not is_int(n_participants):
        raise ContractError(f"n_participants must be an integer, got {n_participants!r}")
    check_seed(seed)
    if n_participants < 10:
        raise ConfigError(f"need at least 10 participants, got {n_participants}")
    bank_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    renderer = _Renderer(config, bank_rng)
    samples: list[CohortSample] = []
    for lo in range(0, n_participants, _BLOCK):
        samples += renderer.block(seed, range(lo, min(lo + _BLOCK, n_participants)))
    return samples


def split_cohort(samples: list[CohortSample], seed: int) -> CohortSplit:
    """Participant-level 80/20 train/test split, validation = 20% of train;
    ``seed`` must be an integer >= 0 (else ``ContractError``)."""
    check_seed(seed)
    ids = sorted({s.participant_id for s in samples})
    if len(ids) < 10:
        raise ContractError(f"need at least 10 participants, got {len(ids)}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    order = [ids[i] for i in rng.permutation(len(ids))]
    n_test = int(len(ids) * 0.2)
    n_val = int((len(ids) - n_test) * 0.2)
    test = sorted(order[:n_test])
    validation = sorted(order[n_test : n_test + n_val])
    train = sorted(order[n_test + n_val :])
    return CohortSplit(train=train, validation=validation, test=test)


def build_cohort(n_participants: int, config: CohortConfig, seed: int) -> Cohort:
    samples = generate_cohort(n_participants, config, seed)
    split = split_cohort(samples, seed)
    return Cohort(
        samples=samples,
        split=split,
        config=config,
        seed=seed,
        n_participants=n_participants,
    )


# ---------------------------------------------------------------------------
# stream batches
# ---------------------------------------------------------------------------


@dataclass
class StreamMember:
    """One qualifying pair for a stream: its ``STREAMS`` left and right
    sides, the u and v of the stream's contrastive term."""

    participant_id: int
    left: np.ndarray
    right: np.ndarray
    measures: np.ndarray | None


@dataclass
class StreamBatch:
    stream: str
    left: np.ndarray
    right: np.ndarray
    measures: np.ndarray | None
    participant_ids: np.ndarray

    @property
    def n(self) -> int:
        return self.left.shape[0]


def stream_members(samples: list[CohortSample], stream: str) -> list[StreamMember]:
    """Every sample, or for a stream across visits every participant, with
    both of the stream's sides present, in cohort order (across visits: in
    participant order).  Only single-sample members carry measures."""
    if stream not in STREAMS:
        raise ContractError(f"unknown stream {stream!r}")
    left, right, across_visits = STREAMS[stream]
    if across_visits:
        by_pid: dict[int, dict[str, CohortSample]] = {}
        for s in samples:
            by_pid.setdefault(s.participant_id, {})[s.visit] = s
        pairs = [(v["t"], v["t_prime"]) for _, v in sorted(by_pid.items())
                 if len(v) == len(_VISITS)]
    else:
        pairs = zip(samples, samples)
    members = []
    for a, b in pairs:
        u, v = getattr(a, left), getattr(b, right)
        if u is not None and v is not None:
            measures = None if across_visits else a.measures
            members.append(StreamMember(a.participant_id, u, v, measures))
    return members


def _batch_from(stream: str, members: list[StreamMember]) -> StreamBatch:
    return StreamBatch(
        stream=stream,
        left=np.stack([m.left for m in members]),
        right=np.stack([m.right for m in members]),
        measures=(
            np.stack([m.measures for m in members])
            if members[0].measures is not None
            else None
        ),
        participant_ids=np.asarray([m.participant_id for m in members]),
    )


class StreamScheduler:
    """Deterministic per-stream epochs of shuffled batches.

    The batch served for a global index is a pure function of
    (seed, stream, index): the epoch shuffle is keyed by the epoch number,
    so training can resume mid-run and reproduce the exact batch sequence.
    A trailing batch shorter than 2 is dropped (contrastive terms need
    at least two rows).  ``batch_size`` must be an integer >= 2, and
    ``seed`` and every batch index integers >= 0; a bool is not one.
    """

    def __init__(self, samples: list[CohortSample], batch_size: int, seed: int):
        if not (is_int(batch_size) and batch_size >= 2):
            raise ContractError(f"batch_size must be an integer >= 2, got {batch_size!r}")
        check_seed(seed)
        self.batch_size = batch_size
        self.seed = seed
        self._members = {s: stream_members(samples, s) for s in STREAMS}
        if all(self.n_batches(s) == 0 for s in STREAMS):
            raise ContractError("all four streams are empty")

    def members(self, stream: str) -> list[StreamMember]:
        if stream not in self._members:
            raise ContractError(f"unknown stream {stream!r}, not one of {list(STREAMS)}")
        return self._members[stream]

    def n_batches(self, stream: str) -> int:
        m = len(self.members(stream))
        if m < 2:
            return 0
        full, rem = divmod(m, self.batch_size)
        return full + (1 if rem >= 2 else 0)

    def epoch_order(self, stream: str, epoch: int) -> np.ndarray:
        m = len(self.members(stream))
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, 3, list(STREAMS).index(stream), epoch])
        )
        return rng.permutation(m)

    def batch_at(self, stream: str, index: int) -> StreamBatch | None:
        """Batch ``index`` of ``stream`` counted across epochs; None if the
        stream has no batch."""
        nb = self.n_batches(stream)
        if not (is_int(index) and index >= 0):
            raise ContractError(f"batch index must be an integer >= 0, got {index!r}")
        if nb == 0:
            return None
        epoch, offset = divmod(index, nb)
        order = self.epoch_order(stream, epoch)
        lo = offset * self.batch_size
        chosen = order[lo : lo + self.batch_size]
        members = [self._members[stream][i] for i in chosen]
        return _batch_from(stream, members)

    def batches_for_step(self, step: int) -> dict[str, StreamBatch | None]:
        return {s: self.batch_at(s, step) for s in STREAMS}


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_PROGNOSIS_UNDEFINED = -1.0
# the values each label column may hold; participant_id is any integer
_COLUMN_VALUES = {
    "diagnosis": (0, 1),
    "prognosis": (_PROGNOSIS_UNDEFINED, 0, 1),
    "presence": (0, 1),
    "visit": tuple(range(len(_VISITS))),
}
_SPLITS = ("train", "validation", "test")


def _columns(config: CohortConfig) -> dict:
    """The arrays of a saved cohort, in file order: name -> (per-sample
    shape, the sample's row or None for a missing image)."""
    image = (3, config.image_size, config.image_size)
    return {
        "fundus_right": (image, lambda s: s.fundus_right),
        "fundus_left": (image, lambda s: s.fundus_left),
        "carotid": (image, lambda s: s.carotid),
        "measures": ((config.n_measures,), lambda s: s.measures),
        "diagnosis": ((), lambda s: s.diagnosis_label),
        "prognosis": ((), lambda s: _PROGNOSIS_UNDEFINED
                      if s.prognosis_label is None else s.prognosis_label),
        "presence": ((3,), lambda s: s.presence_mask),
        "participant_id": ((), lambda s: s.participant_id),
        "visit": ((), lambda s: _VISITS.index(s.visit)),
    }


def save_cohort(path: str | Path, cohort: Cohort) -> None:
    """Write ``cohort`` as one CMPR bundle (crash-safe, see ``arrayio``).

    The manifest holds kind, seed, n_participants, config and splits.  Each
    array has one row per sample, in cohort order: the three image stacks
    (zeros where an image is missing), measures, diagnosis, prognosis (-1
    where undefined), presence flags, participant id and visit (0 for t,
    1 for t').  Byte output is deterministic for a given cohort.
    """
    manifest = {
        "kind": "cohort",
        "seed": cohort.seed,
        "n_participants": cohort.n_participants,
        "config": cohort.config.to_dict(),
        "splits": {name: cohort.split.of(name) for name in _SPLITS},
    }
    arrays = OrderedDict()
    for name, (shape, row) in _columns(cohort.config).items():
        arrays[name] = np.zeros((len(cohort.samples), *shape))
        for i, s in enumerate(cohort.samples):
            if (value := row(s)) is not None:
                arrays[name][i] = value
    arrayio.write_bundle(path, manifest, arrays)


def load_cohort(path: str | Path) -> Cohort:
    """Read back a cohort written by ``save_cohort``, samples in saved order.

    A manifest key that is missing or of the wrong type, an array that is
    missing or whose shape disagrees with the config and the other arrays'
    length, a label, visit or participant id column holding a value it
    cannot hold, and a split entry that is not an integer, is not a
    ``participant_id`` in the arrays or repeats an id of any split raise
    ``FormatError`` naming the file and the key.
    """
    manifest, arrays = arrayio.read_bundle(path)
    if manifest.get("kind") != "cohort":
        raise ContractError(f"{path} is not a cohort bundle")
    config = CohortConfig.from_dict(manifest_field(path, manifest, "config", dict))
    splits = manifest_field(path, manifest, "splits", dict)
    split = CohortSplit(*(manifest_field(path, splits, name, list) for name in _SPLITS))
    shapes = {name: shape for name, (shape, _) in _columns(config).items()}
    for name in shapes:
        if name not in arrays:
            raise FormatError(f"{path}: cohort array {name!r} is missing")
    lengths = [len(arrays[name]) if arrays[name].ndim else None for name in shapes]
    n = max(lengths, key=lengths.count)  # the length most arrays agree on
    for name, shape in shapes.items():
        if arrays[name].shape != (n, *shape):
            raise FormatError(f"{path}: cohort array {name!r} has shape "
                              f"{arrays[name].shape}, expected {(n, *shape)}")
    for name, allowed in _COLUMN_VALUES.items():
        if not np.isin(arrays[name], allowed).all():
            raise FormatError(f"{path}: cohort array {name!r} holds a value "
                              f"outside {allowed}")
    pid = arrays["participant_id"]
    if not (np.isfinite(pid) & (pid == np.trunc(pid))).all():
        raise FormatError(f"{path}: cohort array 'participant_id' holds a "
                          f"non-integral or non-finite value")
    known, seen = set(pid.tolist()), set()
    for name in _SPLITS:
        for i in split.of(name):
            problem = ("is not an integer" if type(i) is not int
                       else "is no participant_id of the arrays" if i not in known
                       else "is listed twice across the splits" if i in seen else None)
            if problem:
                raise FormatError(f"{path}: split {name!r} entry {i!r} {problem}")
            seen.add(i)

    fr, fl, car, measures, diagnosis, prognosis, presence, pid, visit = (
        arrays[name] for name in shapes
    )
    samples = []
    for i, (has_fr, has_fl, has_car) in enumerate((presence == 1.0).tolist()):
        samples.append(
            CohortSample(
                participant_id=int(pid[i]),
                visit=_VISITS[int(visit[i])],
                fundus_right=fr[i] if has_fr else None,
                fundus_left=fl[i] if has_fl else None,
                carotid=car[i] if has_car else None,
                measures=measures[i],
                diagnosis_label=int(diagnosis[i]),
                prognosis_label=(None if prognosis[i] == _PROGNOSIS_UNDEFINED
                                 else int(prognosis[i])),
            )
        )
    seed = manifest_field(path, manifest, "seed", int)
    n_participants = manifest_field(path, manifest, "n_participants", int)
    return Cohort(samples, split, config, seed, n_participants)
