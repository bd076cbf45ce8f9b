"""Synthetic cohort: configuration, generation, splits, persistence and
the stream scheduler."""

from collections import OrderedDict

import numpy as np
import pytest

from cmpr import arrayio
from cmpr.errors import ConfigError, ContractError, FormatError
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


@pytest.mark.parametrize(
    "key, value",
    [("latent_dim", "x"), ("drift", None)],
    ids=["latent_dim_str", "drift_none"],
)
def test_config_wrong_field_type_raises_config_error(tmp_path, key, value):
    d = {**CohortConfig().to_dict(), key: value}
    with pytest.raises(ConfigError, match=f"CohortConfig.{key}"):
        CohortConfig.from_dict(d)
    # and through a saved cohort's manifest
    path = tmp_path / "c.cmpr"
    save_cohort(path, build_cohort(12, CohortConfig(), seed=1))
    manifest, arrays = arrayio.read_bundle(path)
    manifest["config"][key] = value
    arrayio.write_bundle(path, manifest, arrays)
    with pytest.raises(ConfigError, match=f"CohortConfig.{key}"):
        load_cohort(path)


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


def test_saved_cohort_is_one_file(tmp_path):
    save_cohort(tmp_path / "c", build_cohort(12, CohortConfig(), seed=2))
    assert [p.name for p in tmp_path.iterdir()] == ["c"]
    manifest, arrays = arrayio.read_bundle(tmp_path / "c")
    assert sorted(manifest) == ["config", "kind", "n_participants", "seed", "splits"]


def test_interrupted_save_keeps_previous_cohort(tmp_path, torn_writes):
    path = tmp_path / "cohort"
    old = build_cohort(25, CohortConfig(), seed=8)
    save_cohort(path, old)
    # past the manifest, inside the first images
    with torn_writes(4096), pytest.raises(OSError, match="disk full"):
        save_cohort(path, build_cohort(25, CohortConfig(), seed=9))
    assert [p.name for p in tmp_path.iterdir()] == ["cohort"]
    back = load_cohort(path)
    assert (back.seed, back.split) == (old.seed, old.split)
    assert len(back.samples) == len(old.samples)
    assert all(_same_sample(x, y) for x, y in zip(old.samples, back.samples))


@pytest.fixture(scope="module")
def saved_cohort(tmp_path_factory):
    """(manifest, arrays) of a small saved cohort."""
    path = tmp_path_factory.mktemp("cohort") / "c.cmpr"
    save_cohort(path, build_cohort(12, CohortConfig(), seed=5))
    return arrayio.read_bundle(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("config", None),
        ("config", [1]),
        ("splits", None),
        ("splits", [[0], [1], [2]]),
        ("seed", None),
        ("seed", "5"),
        ("n_participants", None),
        ("n_participants", 12.0),
        ("test", None),
        ("train", {"0": 1}),
    ],
    ids=[
        "no_config",
        "config_not_object",
        "no_splits",
        "splits_not_object",
        "no_seed",
        "seed_not_int",
        "no_n_participants",
        "n_participants_not_int",
        "no_test_split",
        "train_split_not_list",
    ],
)
def test_load_cohort_malformed_manifest_raises_format_error(
    tmp_path, saved_cohort, key, value
):
    manifest, arrays = saved_cohort
    manifest = {**manifest, "splits": dict(manifest["splits"])}
    where = manifest["splits"] if key in manifest["splits"] else manifest
    if value is None:
        del where[key]
    else:
        where[key] = value
    path = tmp_path / "bad.cmpr"
    arrayio.write_bundle(path, manifest, arrays)
    with pytest.raises(FormatError, match=f"bad.cmpr.*'{key}'"):
        load_cohort(path)


_COHORT_ARRAYS = ["fundus_right", "fundus_left", "carotid", "measures", "diagnosis",
                  "prognosis", "presence", "participant_id", "visit"]


@pytest.mark.parametrize("case", ["missing", "short"])
@pytest.mark.parametrize("name", _COHORT_ARRAYS)
def test_load_cohort_malformed_array_raises_format_error(
    tmp_path, saved_cohort, name, case
):
    manifest, arrays = saved_cohort
    assert list(arrays) == _COHORT_ARRAYS
    arrays = OrderedDict(arrays)
    if case == "missing":
        del arrays[name]
    else:
        arrays[name] = arrays[name][:-1]
    path = tmp_path / "bad.cmpr"
    arrayio.write_bundle(path, manifest, arrays)
    with pytest.raises(FormatError, match=f"bad.cmpr.*'{name}'"):
        load_cohort(path)


@pytest.mark.parametrize(
    "name, value",
    [
        ("visit", 2.0),
        ("participant_id", np.nan),
        ("participant_id", np.inf),
        ("participant_id", 1.5),
        ("diagnosis", 0.5),
        ("prognosis", 7.0),
        ("presence", 0.5),
    ],
    ids=["visit_2", "participant_id_nan", "participant_id_inf",
         "participant_id_fraction", "diagnosis_half", "prognosis_7", "presence_half"],
)
def test_load_cohort_bad_column_value_raises_format_error(
    tmp_path, saved_cohort, name, value
):
    manifest, arrays = saved_cohort
    arrays = OrderedDict(arrays)
    arrays[name] = arrays[name].copy()
    arrays[name].flat[0] = value
    path = tmp_path / "bad.cmpr"
    arrayio.write_bundle(path, manifest, arrays)
    with pytest.raises(FormatError, match=f"bad.cmpr.*'{name}'"):
        load_cohort(path)


def test_load_cohort_rejects_a_checkpoint(tmp_path):
    path = tmp_path / "ckpt.cmpr"
    arrayio.write_bundle(path, {"kind": "checkpoint"}, OrderedDict([("x", np.ones(2))]))
    with pytest.raises(ContractError, match="not a cohort"):
        load_cohort(path)


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
