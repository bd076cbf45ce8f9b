"""Synthetic longitudinal two-modality cohort with shared latent factors.

Every participant carries a latent state z (standard normal); a second
visit drifts it.  Fundus (right/left eye) and carotid images are fixed
seeded sinusoidal renderings of z, measures are a noisy linear readout,
and diagnosis/prognosis labels are Bernoulli draws from logistic models on
the visit-1 and visit-2 latents.  Because all modalities share z, an
oracle matcher exists and every pretraining objective has learnable
structure.

Also home to the four-stream batch scheduler: one stream per contrastive
pairing, each including every qualifying sample exactly once per epoch,
with missing modalities handled by qualification rather than imputation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from . import arrayio
from .errors import (
    ConfigError,
    ContractError,
    FormatError,
    check_config_keys,
    check_field_types,
    manifest_field,
)

STREAMS = ("fc", "fv", "cv", "eyes")
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
class PresenceMask:
    fundus_right: bool
    fundus_left: bool
    carotid: bool

    def any(self) -> bool:
        return self.fundus_right or self.fundus_left or self.carotid


@dataclass
class CohortSample:
    """One participant-visit record."""

    participant_id: int
    visit: str  # "t" or "t_prime"
    fundus_right: np.ndarray | None
    fundus_left: np.ndarray | None
    carotid: np.ndarray | None
    measures: np.ndarray
    diagnosis_label: int
    prognosis_label: int | None  # None unless healthy at baseline
    presence_mask: PresenceMask

    def fundus_any(self) -> np.ndarray | None:
        """Preferred fundus image: right eye if present, else left."""
        if self.presence_mask.fundus_right:
            return self.fundus_right
        if self.presence_mask.fundus_left:
            return self.fundus_left
        return None


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


class _Renderer:
    """Fixed seeded sinusoidal feature banks mapping latents to images."""

    def __init__(self, config: CohortConfig, rng: np.random.Generator):
        n_pix = 3 * config.image_size**2
        ell = config.latent_dim
        self.config = config
        self.fundus_w = rng.normal(0.0, config.render_freq, size=(n_pix, ell))
        self.fundus_phase = rng.uniform(0.0, 2.0 * np.pi, size=n_pix)
        self.left_eye_phase = rng.normal(0.0, _EYE_PHASE_STD, size=n_pix)
        self.carotid_w = rng.normal(0.0, config.render_freq, size=(n_pix, ell))
        self.carotid_phase = rng.uniform(0.0, 2.0 * np.pi, size=n_pix)
        self.measure_map = rng.standard_normal(
            (config.n_measures, ell)
        ) / np.sqrt(ell)
        w = rng.standard_normal(ell)
        self.label_w = w * (config.label_scale / np.linalg.norm(w))

    def render(self, z: np.ndarray, modality: str, eye: str | None,
               noise: np.ndarray) -> np.ndarray:
        cfg = self.config
        if modality == "fundus":
            phase = self.fundus_phase + (
                self.left_eye_phase if eye == "left" else 0.0
            )
            raw = 0.5 + cfg.render_amp * np.sin(self.fundus_w @ z + phase)
        else:
            raw = 0.5 + cfg.render_amp * np.sin(self.carotid_w @ z + self.carotid_phase)
        img = np.clip(raw + cfg.pixel_noise * noise, 0.0, 1.0)
        return img.reshape(3, cfg.image_size, cfg.image_size)

    def measures(self, z: np.ndarray, noise: np.ndarray) -> np.ndarray:
        scale, offset = self.config.measure_affine()
        core = self.measure_map @ z + self.config.measure_noise * noise
        return offset + scale * core

    def label_prob(self, z: np.ndarray) -> float:
        return float(1.0 / (1.0 + np.exp(-self.label_w @ z)))


def _participant_rng(seed: int, pid: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1, pid]))


def generate_cohort(
    n_participants: int, config: CohortConfig, seed: int
) -> list[CohortSample]:
    """Deterministic cohort; per-participant derived seeds allow parallel
    generation without changing results."""
    if n_participants < 10:
        raise ConfigError(f"need at least 10 participants, got {n_participants}")
    bank_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    renderer = _Renderer(config, bank_rng)
    n_pix = 3 * config.image_size**2

    samples: list[CohortSample] = []
    for pid in range(n_participants):
        rng = _participant_rng(seed, pid)
        z1 = rng.standard_normal(config.latent_dim)
        z2 = z1 + config.drift * rng.standard_normal(config.latent_dim)
        has_second_visit = rng.uniform() < config.second_visit_fraction
        diagnosis = int(rng.uniform() < renderer.label_prob(z1))
        prognosis_draw = int(rng.uniform() < renderer.label_prob(z2))
        prognosis = prognosis_draw if diagnosis == 0 else None

        visits = [("t", z1)] + ([("t_prime", z2)] if has_second_visit else [])
        for visit, z in visits:
            while True:
                mask = PresenceMask(
                    fundus_right=rng.uniform() >= config.missing_prob,
                    fundus_left=rng.uniform() >= config.missing_prob,
                    carotid=rng.uniform() >= config.missing_prob,
                )
                if mask.any():
                    break
            fr = fl = car = None
            if mask.fundus_right:
                fr = renderer.render(z, "fundus", "right", rng.standard_normal(n_pix))
            if mask.fundus_left:
                fl = renderer.render(z, "fundus", "left", rng.standard_normal(n_pix))
            if mask.carotid:
                car = renderer.render(z, "carotid", None, rng.standard_normal(n_pix))
            measures = renderer.measures(z, rng.standard_normal(config.n_measures))
            samples.append(
                CohortSample(
                    participant_id=pid,
                    visit=visit,
                    fundus_right=fr,
                    fundus_left=fl,
                    carotid=car,
                    measures=measures,
                    diagnosis_label=diagnosis,
                    prognosis_label=prognosis,
                    presence_mask=mask,
                )
            )
    return samples


def split_cohort(samples: list[CohortSample], seed: int) -> CohortSplit:
    """Participant-level 80/20 train/test split, validation = 20% of train."""
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
    """One qualifying pair for a stream; ``left``/``right`` are the u/v
    sides of the corresponding contrastive term (for the eyes stream,
    ``left`` is the right-eye image)."""

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
    """Every sample/participant qualifying for a stream, in cohort order.

    fc:   fundus (preferred eye) x carotid at the same visit
    fv:   participant's visit-t fundus x visit-t' fundus
    cv:   same for carotid
    eyes: right eye x left eye of one sample
    """
    if stream not in STREAMS:
        raise ContractError(f"unknown stream {stream!r}")
    members: list[StreamMember] = []
    if stream == "fc":
        for s in samples:
            f = s.fundus_any()
            if f is not None and s.presence_mask.carotid:
                members.append(StreamMember(s.participant_id, f, s.carotid, s.measures))
    elif stream == "eyes":
        for s in samples:
            if s.presence_mask.fundus_right and s.presence_mask.fundus_left:
                members.append(
                    StreamMember(s.participant_id, s.fundus_right, s.fundus_left,
                                 s.measures)
                )
    else:
        by_pid: dict[int, dict[str, CohortSample]] = {}
        for s in samples:
            by_pid.setdefault(s.participant_id, {})[s.visit] = s
        for pid in sorted(by_pid):
            pair = by_pid[pid]
            if "t" not in pair or "t_prime" not in pair:
                continue
            if stream == "fv":
                a, b = pair["t"].fundus_any(), pair["t_prime"].fundus_any()
            else:
                a = pair["t"].carotid if pair["t"].presence_mask.carotid else None
                b = (pair["t_prime"].carotid
                     if pair["t_prime"].presence_mask.carotid else None)
            if a is not None and b is not None:
                members.append(StreamMember(pid, a, b, None))
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
    at least two rows).
    """

    def __init__(self, samples: list[CohortSample], batch_size: int, seed: int):
        if batch_size < 2:
            raise ContractError(f"batch_size must be >= 2, got {batch_size}")
        self.batch_size = batch_size
        self.seed = seed
        self._members = {s: stream_members(samples, s) for s in STREAMS}
        if all(self.n_batches(s) == 0 for s in STREAMS):
            raise ContractError("all four streams are empty")

    def members(self, stream: str) -> list[StreamMember]:
        if stream not in self._members:
            raise ContractError(f"unknown stream {stream!r}, not one of {STREAMS}")
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
            np.random.SeedSequence([self.seed, 3, STREAMS.index(stream), epoch])
        )
        return rng.permutation(m)

    def batch_at(self, stream: str, index: int) -> StreamBatch | None:
        """Batch ``index`` of ``stream`` counted across epochs; None if the
        stream has no batch."""
        nb = self.n_batches(stream)
        if index < 0:
            raise ContractError(f"batch index must be >= 0, got {index}")
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

_VISITS = ("t", "t_prime")  # saved as their index
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
        "presence": ((3,), lambda s: astuple(s.presence_mask)),
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
    length, and a label, visit or participant id column holding a value it
    cannot hold raise ``FormatError`` naming the file and the key.
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

    fr, fl, car, measures, diagnosis, prognosis, presence, pid, visit = (
        arrays[name] for name in shapes
    )
    samples = []
    for i in range(n):
        mask = PresenceMask(*map(bool, presence[i]))
        samples.append(
            CohortSample(
                participant_id=int(pid[i]),
                visit=_VISITS[int(visit[i])],
                fundus_right=fr[i] if mask.fundus_right else None,
                fundus_left=fl[i] if mask.fundus_left else None,
                carotid=car[i] if mask.carotid else None,
                measures=measures[i],
                diagnosis_label=int(diagnosis[i]),
                prognosis_label=(None if prognosis[i] == _PROGNOSIS_UNDEFINED
                                 else int(prognosis[i])),
                presence_mask=mask,
            )
        )
    seed = manifest_field(path, manifest, "seed", int)
    n_participants = manifest_field(path, manifest, "n_participants", int)
    return Cohort(samples, split, config, seed, n_participants)
