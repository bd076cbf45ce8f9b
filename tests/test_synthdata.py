"""Synthetic cohort: configuration."""

import pytest

from cmpr.errors import ConfigError
from cmpr.synthdata import CohortConfig


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
