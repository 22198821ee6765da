"""Configuration tests: Table I presets, accelerator parameters, the base."""

import ast
import dataclasses
import pathlib

import pytest

import repro.config as config_module
from repro.config import (
    AcceleratorConfig,
    AutoscalerConfig,
    ClusterConfig,
    CompressionSpec,
    DecodeConfig,
    MemoryConfig,
    ModelConfig,
    PoolConfig,
    ServingConfig,
    TABLE1_PRESETS,
    TenantConfig,
    bert_base,
    bert_large,
    paper_accelerator,
    preset,
    transformer_base,
    transformer_big,
)
from repro.errors import ConfigError


class TestTable1Presets:
    @pytest.mark.parametrize("config,d_model,d_ff,h", [
        (transformer_base(), 512, 2048, 8),
        (transformer_big(), 1024, 4096, 16),
        (bert_base(), 768, 3072, 12),
        (bert_large(), 1024, 4096, 16),
    ])
    def test_table1_rows(self, config, d_model, d_ff, h):
        assert config.d_model == d_model
        assert config.d_ff == d_ff
        assert config.num_heads == h

    def test_all_presets_follow_64h_pattern(self):
        # Section III's key structural observation.
        for config in TABLE1_PRESETS.values():
            assert config.d_model == 64 * config.num_heads
            assert config.head_dim == 64

    def test_all_presets_follow_dff_pattern(self):
        for config in TABLE1_PRESETS.values():
            assert config.follows_dff_pattern
            assert config.d_ff == 256 * config.num_heads

    def test_block_counts(self):
        base = transformer_base()
        assert base.num_w1_blocks == 4 * base.num_heads
        assert base.num_w2_blocks == base.num_heads

    def test_bert_is_encoder_only(self):
        assert bert_base().num_decoder_layers == 0
        assert bert_base().num_encoder_layers == 12

    def test_preset_lookup(self):
        assert preset("Transformer-Base").d_model == 512
        with pytest.raises(ConfigError):
            preset("gpt-5")


class TestModelConfigValidation:
    def test_rejects_non_64_head_dim(self):
        with pytest.raises(ConfigError):
            ModelConfig("bad", d_model=512, d_ff=2048, num_heads=16)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ConfigError):
            ModelConfig("bad", d_model=100, d_ff=400, num_heads=3)

    def test_rejects_indivisible_dff(self):
        with pytest.raises(ConfigError):
            ModelConfig("bad", d_model=64, d_ff=100, num_heads=1)

    def test_rejects_bad_dropout(self):
        with pytest.raises(ConfigError):
            ModelConfig("bad", d_model=64, d_ff=256, num_heads=1,
                        dropout=1.0)

    def test_with_updates(self):
        updated = transformer_base().with_updates(max_seq_len=128)
        assert updated.max_seq_len == 128
        assert updated.d_model == 512

    def test_mac_counts(self):
        base = transformer_base()
        # FFN: 2 GEMMs of s*d_model*d_ff MACs.
        assert base.ffn_macs(64) == 2 * 64 * 512 * 2048
        # MHA: 4 projection groups + 2 attention matmuls.
        expected = (
            3 * 8 * 64 * 512 * 64 + 2 * 8 * 64 * 64 * 64 + 64 * 512 * 512
        )
        assert base.mha_macs(64) == expected


class TestAcceleratorConfig:
    def test_paper_defaults(self):
        acc = paper_accelerator()
        assert acc.seq_len == 64
        assert acc.sa_cols == 64
        assert acc.clock_mhz == 200.0
        assert acc.num_pes == 4096

    def test_cycles_to_us(self):
        acc = paper_accelerator()
        assert acc.cycles_to_us(21_344) == pytest.approx(106.72)

    def test_clock_period(self):
        assert paper_accelerator().clock_period_us == pytest.approx(0.005)

    def test_invalid_layernorm_mode(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig(layernorm_mode="magic")

    def test_negative_overhead_rejected(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig(sa_drain_cycles=-1)

    def test_accumulator_width_check(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig(act_bits=8, weight_bits=8, acc_bits=15)

    def test_invalid_clock(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig(clock_mhz=0)

    def test_with_updates_revalidates(self):
        acc = paper_accelerator()
        with pytest.raises(ConfigError):
            acc.with_updates(layernorm_mode="nope")


#: Every frozen config class, built at a valid point.
CONFIGS = [
    transformer_base(),
    AcceleratorConfig(),
    MemoryConfig(),
    CompressionSpec(),
    TenantConfig(name="t"),
    PoolConfig(name="p"),
    AutoscalerConfig(),
    ClusterConfig(pools=(PoolConfig(name="p"),),
                  tenants=(TenantConfig(name="t"),)),
    ServingConfig(),
    DecodeConfig(),
]

#: One invalid value per config class.
INVALID = {
    "ModelConfig": {"dropout": 1.5},
    "AcceleratorConfig": {"clock_mhz": 0.0},
    "MemoryConfig": {"bandwidth_gbps": 0.0},
    "CompressionSpec": {"scheme": "lowrank"},
    "TenantConfig": {"rate_rps": 0.0},
    "PoolConfig": {"kind": "tpu"},
    "AutoscalerConfig": {"interval_us": 0.0},
    "ClusterConfig": {"router_policy": "random"},
    "ServingConfig": {"num_requests": 0},
    "DecodeConfig": {"num_streams": 0},
}


def _config_classes():
    return [
        cls for cls in vars(config_module).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        and cls.__module__ == config_module.__name__
    ]


class TestConfigBase:
    def test_every_config_class_is_covered(self):
        assert sorted(type(c).__name__ for c in CONFIGS) == sorted(INVALID)
        assert sorted(c.__name__ for c in _config_classes()) == sorted(INVALID)

    @pytest.mark.parametrize("config", CONFIGS,
                             ids=[type(c).__name__ for c in CONFIGS])
    def test_with_updates_keeps_the_class_and_revalidates(self, config):
        name = dataclasses.fields(config)[-1].name
        copy = config.with_updates(**{name: getattr(config, name)})
        assert type(copy) is type(config)
        assert copy == config
        with pytest.raises(ConfigError):
            config.with_updates(**INVALID[type(config).__name__])


def _attributes_read_outside_config() -> set[str]:
    """Every ``.name`` attribute read in ``src/repro`` outside config.py."""
    config_path = pathlib.Path(config_module.__file__)
    names = set()
    for path in config_path.parent.rglob("*.py"):
        if path == config_path:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_config_field_is_read_outside_config():
    """A field that nothing reads is a knob that turns nothing."""
    read = _attributes_read_outside_config()
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in _config_classes()
        for field in dataclasses.fields(cls)
        if field.name not in read
    ]
    assert not unread, f"config fields nothing reads: {unread}"
