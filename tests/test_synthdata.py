"""Synthetic cohort: configuration."""

import pytest

from cmpr.errors import ConfigError, ContractError
from cmpr.synthdata import STREAMS, CohortConfig, StreamScheduler, build_cohort


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
