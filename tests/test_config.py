import json
from dataclasses import fields

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedchain.config import ConfigError, ExperimentConfig, load_config, validate
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
def test_one_raw_field_changes_exactly_its_field(override):
    section, key, value = override
    try:
        got = validate({section: {key: value}}).to_dict()
    except ConfigError:
        assume(False)
    want = validate({}).to_dict()
    want[section][key] = value
    assert got == want


def test_load_config_reads_the_file_alone(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train": {"rounds": 2}, "seeds": {"master": 3}}))
    monkeypatch.setenv("FEDCHAIN_TRAIN__ROUNDS", "99")
    monkeypatch.setenv("FEDCHAIN_SEEDS__MASTER", "5")
    assert load_config(str(path)) == validate(json.loads(path.read_text()))


def test_shipped_defaults_learn():
    summary = run_experiment(validate({}))
    assert not summary["aborted"]
    assert summary["final_global_accuracy"] >= 0.9


def test_shipped_defaults_survive_the_verifier():
    # With the verifier on, every round must keep at least one client.
    summary = run_experiment(validate({"verifier": {"enabled": True}, "train": {"rounds": 3}}))
    assert not summary["aborted"] and summary["rounds_completed"] == 3
