"""Link arithmetic: MemoryConfig transfers, channel contention, presets."""

import math

import pytest

from repro.config import MemoryConfig
from repro.errors import ConfigError, MemoryModelError
from repro.memsys import (
    MEMORY_PRESETS,
    contenders_per_channel,
    ddr4_2400,
    memory_preset,
    unlimited,
)

# 20 GB/s at 100% burst over a 200 MHz clock = 100 bytes per cycle.
LINK = MemoryConfig(
    bandwidth_gbps=20.0, burst_efficiency=1.0, transfer_latency_cycles=10
)
CLOCK = 200.0


class TestTransferCycles:
    def test_latency_plus_ceil_of_payload(self):
        assert LINK.bytes_per_cycle(CLOCK) == 100.0
        assert LINK.transfer_cycles(1000, CLOCK) == 10 + 10
        assert LINK.transfer_cycles(1001, CLOCK) == 10 + 11

    def test_contenders_split_bandwidth_not_latency(self):
        assert LINK.transfer_cycles(1000, CLOCK, contenders=2) == 10 + 20

    def test_zero_bytes_is_free(self):
        assert LINK.transfer_cycles(0, CLOCK) == 0

    def test_infinite_bandwidth_pays_latency_only(self):
        lat_only = MemoryConfig(transfer_latency_cycles=7)
        assert not lat_only.is_unlimited
        assert lat_only.transfer_cycles(10**9, CLOCK) == 7

    def test_default_config_is_unlimited_and_free(self):
        mem = MemoryConfig()
        assert mem.is_unlimited
        assert mem.transfer_cycles(10**9, CLOCK) == 0

    def test_burst_efficiency_derates_bandwidth(self):
        derated = LINK.with_updates(burst_efficiency=0.5)
        assert derated.transfer_cycles(1000, CLOCK) == 10 + 20

    def test_validation_rejects_bad_values(self):
        for bad in (
            dict(bandwidth_gbps=0.0),
            dict(bandwidth_gbps=-1.0),
            dict(burst_efficiency=0.0),
            dict(burst_efficiency=1.5),
            dict(transfer_latency_cycles=-1),
            dict(shared_channels=0),
            dict(weight_cache_kib=-2.0),
        ):
            with pytest.raises(ConfigError):
                MemoryConfig(**bad)


class TestPresets:
    def test_contenders_per_channel(self):
        assert contenders_per_channel(4, 2) == 2
        assert contenders_per_channel(5, 2) == 3
        assert contenders_per_channel(1, 8) == 1
        with pytest.raises(MemoryModelError):
            contenders_per_channel(0, 1)

    def test_known_presets_validate(self):
        for name, mem in MEMORY_PRESETS.items():
            mem.validate()
            assert memory_preset(name) == mem

    def test_lookup_is_case_insensitive(self):
        assert memory_preset(" DDR4-2400 ") == ddr4_2400()

    def test_unknown_preset_raises(self):
        with pytest.raises(MemoryModelError):
            memory_preset("sram-9000")

    def test_unlimited_preset(self):
        assert unlimited().is_unlimited
        assert math.isinf(unlimited().effective_bytes_per_s)
