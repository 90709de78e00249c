import json
from dataclasses import fields

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedchain.config import ConfigError, ExperimentConfig, apply_env_overrides, validate
from fedchain.simulation import run_experiment

# Every (section, key, default) of the schema.
SCHEMA = [(s.name, f.name, getattr(s.default_factory(), f.name))
          for s in fields(ExperimentConfig) for f in fields(s.default_factory())]

# Words the enumerated string fields accept, so string draws often validate.
WORDS = ["synthetic", "idx", "csv", "mlp", "cnn", "sgd", "adam", "encrypted",
         "plaintext", "relative", "absolute"]


def values_like(default):
    """Values of the default's type; not all of them pass validation."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(0, 6)
    if isinstance(default, float):
        return st.floats(0.0, 1.0)
    if isinstance(default, str):
        return st.sampled_from(WORDS) | st.text(max_size=8)
    return st.lists(st.integers(1, 64), max_size=3)


field_and_value = st.sampled_from(SCHEMA).flatmap(
    lambda f: st.tuples(st.just(f[0]), st.just(f[1]), values_like(f[2])))


@settings(max_examples=200, deadline=None)
@given(field_and_value)
def test_env_override_sets_exactly_its_field(override):
    section, key, value = override
    try:
        direct = validate({section: {key: value}})
    except ConfigError:
        assume(False)
    env = {f"FEDCHAIN_{section.upper()}__{key.upper()}": json.dumps(value),
           "FEDCHAIN_SELFTEST_FAULT": "sharing", "HOME": "/home/x"}  # not overrides
    got = validate(apply_env_overrides({}, env)).to_dict()
    want = validate({}).to_dict()
    want[section][key] = getattr(getattr(direct, section), key)
    assert got == want == direct.to_dict()


def test_shipped_defaults_learn():
    summary = run_experiment(validate({}))
    assert not summary["aborted"]
    assert summary["final_global_accuracy"] >= 0.9


def test_shipped_defaults_survive_the_verifier():
    # With the verifier on, every round must keep at least one client.
    summary = run_experiment(validate({"verifier": {"enabled": True}, "train": {"rounds": 3}}))
    assert not summary["aborted"] and summary["rounds_completed"] == 3
