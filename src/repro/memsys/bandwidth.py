"""Off-chip link models: channel contention and named presets.

The cycle arithmetic itself lives on :class:`repro.config.MemoryConfig`
(``transfer_cycles``) so the core scheduler can price a fetch without
importing this package; :func:`contenders_per_channel` gives the
contenders the serving pool passes it when replicas share channels.

The presets are sustained numbers for common embedded/server parts —
peak GB/s with a typical burst efficiency and a fixed request latency
in 200 MHz accelerator cycles.
"""

from __future__ import annotations

from ..config import MemoryConfig
from ..errors import MemoryModelError


def contenders_per_channel(num_requesters: int, channels: int) -> int:
    """Requesters contending on the busiest of ``channels`` links."""
    if num_requesters <= 0 or channels <= 0:
        raise MemoryModelError(
            "num_requesters and channels must be positive"
        )
    return -(-num_requesters // channels)


def lpddr4_2133() -> MemoryConfig:
    """One 32-bit LPDDR4-2133 channel (embedded target)."""
    return MemoryConfig(
        bandwidth_gbps=8.5, burst_efficiency=0.75, transfer_latency_cycles=28,
    )


def ddr4_2400() -> MemoryConfig:
    """One 64-bit DDR4-2400 channel (the FPGA-card baseline)."""
    return MemoryConfig(
        bandwidth_gbps=19.2, burst_efficiency=0.8, transfer_latency_cycles=24,
    )


def ddr4_3200() -> MemoryConfig:
    """One 64-bit DDR4-3200 channel."""
    return MemoryConfig(
        bandwidth_gbps=25.6, burst_efficiency=0.8, transfer_latency_cycles=24,
    )


def hbm2_pc() -> MemoryConfig:
    """One HBM2 pseudo-channel (64-bit at 2 Gb/s/pin)."""
    return MemoryConfig(
        bandwidth_gbps=16.0, burst_efficiency=0.9, transfer_latency_cycles=16,
    )


def unlimited() -> MemoryConfig:
    """Free transfers — the paper's implicit on-chip-only assumption."""
    return MemoryConfig()


#: Named presets for the CLI's ``--memory`` choices.
MEMORY_PRESETS: dict[str, MemoryConfig] = {
    "lpddr4-2133": lpddr4_2133(),
    "ddr4-2400": ddr4_2400(),
    "ddr4-3200": ddr4_3200(),
    "hbm2-pc": hbm2_pc(),
    "unlimited": unlimited(),
}


def memory_preset(name: str) -> MemoryConfig:
    """Look up a memory preset by (case-insensitive) name."""
    key = name.strip().lower()
    if key not in MEMORY_PRESETS:
        raise MemoryModelError(
            f"unknown memory preset {name!r}; "
            f"available: {sorted(MEMORY_PRESETS)}"
        )
    return MEMORY_PRESETS[key]
