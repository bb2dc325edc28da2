"""Configuration validation."""

import pytest

from repro.core.config import SCHEME_NAMES, CoronaConfig


class TestValidation:
    def test_defaults_match_paper(self):
        config = CoronaConfig()
        assert config.polling_interval == 1800.0  # 30 min, §5.1
        assert config.maintenance_interval == 3600.0  # 1 h, §5.1
        assert config.base == 16  # §4
        assert config.tradeoff_bins == 16  # §4
        assert config.scheme == "lite"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"polling_interval": 0},
            {"maintenance_interval": -1},
            {"base": 1},
            {"tradeoff_bins": 0},
            {"scheme": "turbo"},
            {"latency_target": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CoronaConfig(**kwargs)

    def test_all_schemes_constructible(self):
        for scheme in SCHEME_NAMES:
            assert CoronaConfig(scheme=scheme).scheme == scheme
