import json
import re

import pytest

from ragplan.config import RunConfig
from ragplan.errors import ConfigError, SpecError
from ragplan.meta import MetaConfig
from ragplan.policy import RlConfig
from ragplan.serialize import read_fields
from ragplan.world import SyntheticWorldSpec

HOOK = "no-lookup-before-search"


def test_missing_keys_take_the_dataclass_defaults():
    config = read_fields(RunConfig, {})
    assert config == RunConfig()
    assert config.rl == RlConfig() and config.meta == MetaConfig()
    assert config.meta.iterations == 40
    assert config.rl.rule_hooks == ()


def test_top_level_keys_set_their_section_fields():
    config = read_fields(RunConfig, {"k": 5, "seed": 9, "strict_qpa": True})
    assert (config.rl.k, config.meta.seed, config.meta.strict_qpa) == (5, 9, True)
    assert config.backend.seed == 0


def test_values_take_their_field_types():
    config = read_fields(RunConfig, {"delta": 1, "rl": {"rule_hooks": [HOOK]}})
    assert type(config.delta) is float and config.delta == 1.0
    assert config.rl.rule_hooks == (HOOK,)


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"strict_qpa": 1}, "'strict_qpa'"),
        ({"seed": True}, "'seed'"),
        ({"rl": {"rule_hooks": HOOK}}, "rl.rule_hooks"),
        ({"rl": {"rule_hooks": [1]}}, "rl.rule_hooks"),
        ({"rl": {"k": 3}}, "rl.k"),
        ({"meta": {"seed": 1}}, "meta.seed"),
        ({"meta": {"strict_qpa": True}}, "meta.strict_qpa"),
        ({"backend": {"seed": 1}}, "backend.seed"),
        ({"rl": {"learning_rate": 0.001}}, "rl.learning_rate"),
        ({"delta": 1.5}, "delta"),
        ({"k": 0}, "K"),
    ],
)
def test_rejected_values_name_their_key(doc, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        read_fields(RunConfig, doc)


def test_values_read_over_a_base_keep_the_rest_of_it():
    base = read_fields(RunConfig, {"k": 2, "backend": {"noise": 0.5}})
    config = read_fields(RunConfig, {"delta": 0.5, "backend": {"kind": "mock"}}, base=base)
    assert (config.k, config.rl.k, config.backend.noise, config.delta) == (2, 2, 0.5, 0.5)


def test_file_layout_round_trips():
    config = read_fields(
        RunConfig,
        {"k": 2, "seed": 4, "strict_qpa": True, "rl": {"rule_hooks": [HOOK]},
         "meta": {"iterations": 3}, "backend": {"noise": 0.25}},
    )
    doc = json.loads(json.dumps(config.to_json()))
    assert "k" not in doc["rl"] and "seed" not in doc["meta"] and "seed" not in doc["backend"]
    assert read_fields(RunConfig, doc) == config


def test_world_spec_reads_through_the_same_reader():
    spec = SyntheticWorldSpec.from_json({"entity_count": 30, "hop_range": [1, 3]})
    assert spec == SyntheticWorldSpec(entity_count=30, hop_range=(1, 3))
    with pytest.raises(ConfigError, match="hop_range"):
        SyntheticWorldSpec.from_json({"hop_range": [1, 2, 3]})
    with pytest.raises(SpecError):
        SyntheticWorldSpec.from_json({"task_family_count": 9})
