"""Synthetic cohort: configuration, generation, splits, persistence and
the stream scheduler."""

import hashlib
from collections import OrderedDict

import numpy as np
import pytest

from cmpr import arrayio, synthdata
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

from oracles import generate_cohort_per_image, stream_members_longhand


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
    [("latent_dim", "x"), ("drift", None), ("drift", float("nan")),
     ("pixel_noise", float("inf")), ("measure_noise", float("-inf"))],
    ids=["latent_dim_str", "drift_none", "drift_nan", "pixel_noise_inf",
         "measure_noise_minus_inf"],
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


@pytest.mark.parametrize("key", ["drift", "pixel_noise", "measure_noise", "render_freq"])
def test_config_rejects_a_negative_scale(key):
    # render_freq is the std of the rendering weights: numpy's normal would
    # otherwise reject it only inside generate_cohort, with a ValueError
    with pytest.raises(ConfigError, match="must be non-negative"):
        CohortConfig(**{key: -0.35})


def test_a_negative_render_amp_or_label_scale_generates():
    # each only flips the sign of what it scales
    for key in ("render_amp", "label_scale"):
        assert len(generate_cohort(20, CohortConfig(**{key: -0.35}), 1)) >= 20


def test_batch_at_rejects_negative_index_and_unknown_stream():
    cohort = build_cohort(40, CohortConfig(), seed=3)
    sched = StreamScheduler(cohort.samples, batch_size=4, seed=3)
    for stream in STREAMS:
        assert sched.batch_at(stream, 0) is not None
        with pytest.raises(ContractError, match="-1"):
            sched.batch_at(stream, -1)
    with pytest.raises(ContractError, match="eye"):
        sched.batch_at("eye", 0)


@pytest.mark.parametrize(
    "batch_size, seed, message",
    [(2.5, 0, "batch_size"), (1, 0, "batch_size"), (True, 0, "batch_size"),
     ("4", 0, "batch_size"), (4, -1, "seed"), (4, 1.0, "seed"), (4, True, "seed")],
    ids=["batch_float", "batch_one", "batch_bool", "batch_str", "seed_negative",
         "seed_float", "seed_bool"],
)
def test_scheduler_rejects_bad_batch_size_and_seed(batch_size, seed, message):
    # numpy would otherwise reject a float or negative seed only at the
    # first batch, and a float batch size not at all before it
    cohort = build_cohort(40, CohortConfig(), seed=3)
    with pytest.raises(ContractError, match=f"{message} must be an integer"):
        StreamScheduler(cohort.samples, batch_size, seed)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: generate_cohort(20.0, CohortConfig(), 1), "n_participants must be an integer"),
        (lambda: generate_cohort(True, CohortConfig(), 1), "n_participants must be an integer"),
        (lambda: generate_cohort(20, CohortConfig(), -1), "seed must be an integer >= 0"),
        (lambda: generate_cohort(20, CohortConfig(), 1.0), "seed must be an integer >= 0"),
        (lambda: synthdata.split_cohort(generate_cohort(20, CohortConfig(), 1), -3),
         "seed must be an integer >= 0"),
        (lambda: synthdata.split_cohort(generate_cohort(20, CohortConfig(), 1), 2.5),
         "seed must be an integer >= 0"),
    ],
    ids=["count_float", "count_bool", "seed_negative", "seed_float", "split_seed_negative",
         "split_seed_float"],
)
def test_cohort_rejects_bad_counts_and_seeds(call, message):
    # numpy would otherwise raise TypeError or ValueError
    with pytest.raises(ContractError, match=message):
        call()


@pytest.mark.parametrize("index", [1.0, True, "0"], ids=["float", "bool", "str"])
def test_batch_at_rejects_a_non_integer_index(index):
    cohort = build_cohort(40, CohortConfig(), seed=3)
    sched = StreamScheduler(cohort.samples, np.int64(4), seed=np.int64(3))
    with pytest.raises(ContractError, match="batch index must be an integer"):
        sched.batch_at("fc", index)


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


@pytest.mark.parametrize(
    "n, config, seed",
    [
        (2 * synthdata._BLOCK, CohortConfig(), 3),
        # every participant has a second visit, and most masks are redrawn
        (37, CohortConfig(image_size=8, latent_dim=1, n_measures=2,
                          missing_prob=0.8, second_visit_fraction=1.0), 2),
        (33, CohortConfig(second_visit_fraction=0.0, missing_prob=0.0), 4),
        (synthdata._BLOCK + 5, CohortConfig(), 7),
    ],
    ids=["default", "all_second_visits_mask_redraws", "one_visit_all_present",
         "partial_block"],
)
def test_generate_cohort_matches_per_image_oracle(n, config, seed):
    got = generate_cohort(n, config, seed)
    want = generate_cohort_per_image(n, config, seed)
    assert len(got) == len(want)
    for s, w in zip(got, want):
        assert s.presence_mask == w["presence_mask"]
        for name in ("participant_id", "visit", "diagnosis_label", "prognosis_label"):
            assert getattr(s, name) == w[name]
            assert type(getattr(s, name)) is type(w[name])
        for name in ("fundus_right", "fundus_left", "carotid", "measures"):
            assert _same_bits(getattr(s, name), w[name])


def test_generated_arrays_own_their_memory():
    # a view into the renderer's shared buffers would keep them alive and
    # be overwritten by the next block
    for s in generate_cohort(2 * synthdata._BLOCK + 3, CohortConfig(), seed=1):
        for a in (s.fundus_right, s.fundus_left, s.carotid, s.measures):
            if a is not None:
                assert a.base is None
                assert a.flags.c_contiguous and a.dtype == np.float64


def test_saved_cohort_fingerprint(tmp_path):
    # pins the per-participant draw order: a reordered, added or dropped
    # draw changes these bytes
    save_cohort(tmp_path / "c", build_cohort(40, CohortConfig(), seed=3))
    digest = hashlib.sha256((tmp_path / "c").read_bytes()).hexdigest()
    assert digest == "dcaa3274df1107c9168ac7adcf54f00563e960a23b9222d93f2591d6ab62aeee"


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
        ("train", ["a"]),
        ("train", [1.5]),
        ("train", [True]),
        ("train", [999]),
        ("train", lambda splits: splits["train"] + splits["train"][:1]),
        ("test", lambda splits: splits["test"] + splits["train"][:1]),
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
        "train_id_not_int",
        "train_id_float",
        "train_id_bool",
        "train_id_unknown",
        "train_id_twice",
        "train_id_in_test",
    ],
)
def test_load_cohort_malformed_manifest_raises_format_error(
    tmp_path, saved_cohort, key, value
):
    manifest, arrays = saved_cohort
    manifest = {**manifest, "splits": dict(manifest["splits"])}
    where = manifest["splits"] if key in manifest["splits"] else manifest
    if callable(value):  # a list made from the saved splits
        value = value(manifest["splits"])
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


@pytest.mark.parametrize(
    "second_visits, saved, order",
    [(0.5, False, 1), (1.0, False, 1), (0.5, True, 1), (1.0, False, -1)],
    ids=["half_second_visits", "all_second_visits", "saved_and_loaded",
         "reversed_samples"],
)
@pytest.mark.parametrize("stream", list(STREAMS))
def test_stream_members_match_longhand_oracle(
    tmp_path, stream, second_visits, saved, order
):
    cfg = CohortConfig(missing_prob=0.5, second_visit_fraction=second_visits)
    cohort = build_cohort(60, cfg, seed=11)
    if saved:
        save_cohort(tmp_path / "c", cohort)
        cohort = load_cohort(tmp_path / "c")
    # reversed, the visit pairs still come in participant order
    samples = cohort.samples[::order]
    got = synthdata.stream_members(samples, stream)
    want = stream_members_longhand(samples, stream)
    assert len(want) >= 5  # every stream has members to compare
    assert len(got) == len(want)
    for m, (pid, left, right, measures) in zip(got, want):
        assert m.participant_id == pid
        assert _same_bits(m.left, left) and _same_bits(m.right, right)
        assert _same_bits(m.measures, measures)


def test_scheduler_batch_order_is_pinned():
    # each stream's shuffle is seeded by its position in STREAMS, so
    # reordering the table, or any member list, changes these ids
    cohort = build_cohort(40, CohortConfig(second_visit_fraction=0.5), seed=3)
    sched = StreamScheduler(cohort.samples, batch_size=4, seed=3)
    got = {stream: [sched.batch_at(stream, i).participant_ids.tolist()
                    for i in range(3)] for stream in STREAMS}
    assert got == {
        "fc": [[38, 22, 22, 10], [13, 14, 39, 37], [31, 32, 21, 20]],
        "fv": [[30, 13, 4, 17], [35, 1, 25, 10], [11, 14, 38, 32]],
        "cv": [[37, 13, 22, 36], [20, 32, 21, 19], [27, 1, 30, 35]],
        "eyes": [[23, 22, 32, 29], [3, 10, 37, 31], [33, 25, 34, 35]],
    }
