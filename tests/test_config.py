import json
from dataclasses import fields

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedchain.config import ConfigError, ExperimentConfig, load_config, validate
from fedchain.simulation import run_experiment

# Every (section, key, default) of the schema.
SCHEMA = [(s.name, f.name, getattr(s.default_factory(), f.name))
          for s in fields(ExperimentConfig) for f in fields(s.default_factory())]

# Words the enumerated string fields accept, so string draws often validate.
WORDS = ["synthetic", "idx", "mlp", "cnn", "sgd", "encrypted",
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


def test_adam_is_refused():
    # Only plain SGD trains; the field stays so that configs pinning it load.
    with pytest.raises(ConfigError, match="train.optimizer: must be sgd"):
        validate({"train": {"optimizer": "adam"}})


@pytest.mark.parametrize("data, message", [
    ({"kind": "csv"}, "data.kind: must be synthetic or idx"),
    ({"csv_path": "x"}, "data.csv_path: unknown key"),
], ids=["csv_kind", "csv_path"])
def test_the_csv_input_is_refused(data, message):
    with pytest.raises(ConfigError, match=message):
        validate({"data": data})


@pytest.mark.parametrize("paths", [{}, {"images_path": "images.idx"}, {"labels_path": "labels.idx"}],
                         ids=["no_paths", "no_labels", "no_images"])
def test_an_idx_config_names_its_files(paths):
    with pytest.raises(ConfigError, match="data.images_path, data.labels_path: both required"):
        validate({"data": {"kind": "idx", **paths}})


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


FLOAT_FIELDS = [(section, key) for section, key, default in SCHEMA if isinstance(default, float)]


@pytest.mark.parametrize("section, key", FLOAT_FIELDS,
                         ids=[f"{section}.{key}" for section, key in FLOAT_FIELDS])
@pytest.mark.parametrize("text, shown", [("NaN", "nan"), ("Infinity", "inf"),
                                         ("-Infinity", "-inf"), ("1" + "0" * 400, "inf")],
                         ids=["nan", "inf", "minus_inf", "int_past_float64"])
def test_a_float_field_refuses_a_non_finite_number(tmp_path, section, key, text, shown):
    # json.load reads NaN and Infinity, and an int too large for float64.
    path = tmp_path / "config.json"
    path.write_text(f'{{"{section}": {{"{key}": {text}}}}}')
    with pytest.raises(ConfigError) as caught:
        load_config(str(path))
    assert str(caught.value) == f"{section}.{key}: must be a finite number, got {shown}"
