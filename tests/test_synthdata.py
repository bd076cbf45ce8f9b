"""Synthetic cohort: configuration, generation, splits, persistence and
the stream scheduler."""

import pytest

from cmpr.errors import ConfigError, ContractError
from cmpr.synthdata import (
    STREAMS,
    CohortConfig,
    StreamScheduler,
    build_cohort,
    generate_cohort,
    load_cohort,
    save_cohort,
)


def test_config_round_trip():
    cfg = CohortConfig(latent_dim=5, drift=0.1)
    assert CohortConfig.from_dict(cfg.to_dict()) == cfg


def test_config_from_dict_names_unknown_key():
    d = {**CohortConfig().to_dict(), "pixel_nosie": 0.05}
    with pytest.raises(ConfigError, match="pixel_nosie"):
        CohortConfig.from_dict(d)


def test_config_from_dict_names_missing_key():
    d = CohortConfig().to_dict()
    del d["drift"]
    with pytest.raises(ConfigError, match="drift"):
        CohortConfig.from_dict(d)


def test_batch_at_rejects_negative_index_and_unknown_stream():
    cohort = build_cohort(40, CohortConfig(), seed=3)
    sched = StreamScheduler(cohort.samples, batch_size=4, seed=3)
    for stream in STREAMS:
        assert sched.batch_at(stream, 0) is not None
        with pytest.raises(ContractError, match="-1"):
            sched.batch_at(stream, -1)
    with pytest.raises(ContractError, match="eye"):
        sched.batch_at("eye", 0)


# ---------------------------------------------------------------------------
# generation, splits, persistence and the scheduler's epochs
# ---------------------------------------------------------------------------


def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_sample(a, b):
    return (
        (a.participant_id, a.visit, a.diagnosis_label, a.prognosis_label)
        == (b.participant_id, b.visit, b.diagnosis_label, b.prognosis_label)
        and a.presence_mask == b.presence_mask
        and all(
            _same_bits(getattr(a, f), getattr(b, f))
            for f in ("fundus_right", "fundus_left", "carotid", "measures")
        )
    )


def test_generate_cohort_is_bitwise_deterministic():
    a = generate_cohort(30, CohortConfig(), seed=11)
    b = generate_cohort(30, CohortConfig(), seed=11)
    assert len(a) == len(b)
    assert all(_same_sample(x, y) for x, y in zip(a, b))
    c = generate_cohort(30, CohortConfig(), seed=12)
    assert not all(_same_sample(x, y) for x, y in zip(a, c))


def test_generate_cohort_is_prefix_stable():
    # every participant draws from its own derived seed, so the first k
    # participants of a larger cohort are exactly a k-participant cohort
    small = generate_cohort(12, CohortConfig(), seed=4)
    large = generate_cohort(40, CohortConfig(), seed=4)
    prefix = [s for s in large if s.participant_id < 12]
    assert len(prefix) == len(small)
    assert all(_same_sample(x, y) for x, y in zip(small, prefix))


def test_splits_are_disjoint_and_cover_every_participant():
    cohort = build_cohort(57, CohortConfig(), seed=6)
    train, val, test = (
        set(cohort.split.of(name)) for name in ("train", "validation", "test")
    )
    assert not (train & val or train & test or val & test)
    assert train | val | test == set(range(57))
    assert all(len(part) > 0 for part in (train, val, test))


def test_save_load_round_trip_is_bitwise(tmp_path):
    cohort = build_cohort(25, CohortConfig(), seed=8)
    save_cohort(tmp_path / "c", cohort)
    back = load_cohort(tmp_path / "c")
    assert (back.config, back.seed, back.n_participants, back.split) == (
        cohort.config, cohort.seed, cohort.n_participants, cohort.split
    )
    assert len(back.samples) == len(cohort.samples)
    assert all(_same_sample(x, y) for x, y in zip(cohort.samples, back.samples))


def test_each_epoch_serves_every_member_once():
    cohort = build_cohort(60, CohortConfig(second_visit_fraction=0.5), seed=9)
    n_fc = len(StreamScheduler(cohort.samples, 2, seed=9).members("fc"))
    # n_fc - 1 leaves exactly one fc member over, which is dropped
    for batch_size in (2, 3, 5, n_fc - 1):
        sched = StreamScheduler(cohort.samples, batch_size, seed=9)
        for stream in STREAMS:
            members = sched.members(stream)
            key = {
                (m.participant_id, m.left.tobytes()): i for i, m in enumerate(members)
            }
            assert len(key) == len(members)
            nb = sched.n_batches(stream)
            for epoch in (0, 1):
                served = []
                for index in range(epoch * nb, (epoch + 1) * nb):
                    batch = sched.batch_at(stream, index)
                    assert batch.n >= 2
                    served += [
                        key[(int(pid), left.tobytes())]
                        for pid, left in zip(batch.participant_ids, batch.left)
                    ]
                assert len(served) == len(set(served))
                dropped = len(members) % batch_size == 1
                assert len(served) == len(members) - dropped
