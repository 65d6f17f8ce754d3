import json
import math

import numpy as np
import pytest

from fedunlearn.config import (
    config_hash,
    load_config,
    parse_config,
    serialize_config,
)
from fedunlearn.errors import ConfigError
from fedunlearn.models import ModelKind, Regime, RegimeConstants
from fedunlearn.serialize import dumps17, fmt17


def base_doc():
    return {
        "name": "unit",
        "model": {"kind": "ridge", "dims": [3], "l2": 0.1},
        "data": {
            "clients": 4,
            "samples_per_client": 10,
            "features": 3,
            "heterogeneity": 0.5,
            "seed": 7,
            "noise": 0.1,
        },
        "federation": {
            "eta": 0.25,
            "local_steps": 2,
            "rounds": 12,
            "seed": 3,
            "init": "normal",
        },
        "budget": {"epsilon": 1.0, "delta": 0.05, "sigma": 0.4},
        "checkpoint_interval": 1,
        "requests": [[0], [2, 3]],
        "stopping": {"loss_threshold": 0.5, "min_rounds": 0, "max_rounds": 100},
    }


def parse(doc):
    return parse_config(json.dumps(doc))


def test_basic_fields_land_where_expected():
    config = parse(base_doc())
    assert config.name == "unit"
    assert config.model.kind is ModelKind.RIDGE
    assert config.model.l2 == 0.1
    assert config.data.task == "regression"
    assert config.eta == 0.25
    assert config.federation_seed == 3
    assert config.weights is None
    assert config.requests == ((0,), (2, 3))


def test_logistic_kind_implies_classification_data():
    doc = base_doc()
    doc["model"] = {"kind": "logistic", "dims": [3]}
    config = parse(doc)
    assert config.data.task == "classification"


def test_serialize_round_trips_exactly():
    doc = base_doc()
    doc["federation"]["eta"] = "2/(beta+mu)"
    doc["federation"]["weights"] = [0.5, 0.25, 0.125, 0.125]
    doc["stopping"]["loss_threshold"] = "inf"
    config = parse(doc)
    text = serialize_config(config)
    again = parse_config(text)
    assert again == config
    assert serialize_config(again) == text


def test_round_trip_preserves_awkward_floats():
    doc = base_doc()
    doc["budget"]["sigma"] = 0.1864
    doc["stopping"]["loss_threshold"] = 0.3137
    doc["data"]["heterogeneity"] = 1.0 / 3.0
    config = parse(doc)
    again = parse_config(serialize_config(config))
    assert again.budget.sigma == 0.1864
    assert again.stopping.loss_threshold == 0.3137
    assert again.data.heterogeneity == 1.0 / 3.0


def test_config_hash_tracks_content():
    a = parse(base_doc())
    doc = base_doc()
    doc["federation"]["rounds"] = 13
    b = parse(doc)
    assert config_hash(a) == config_hash(parse(base_doc()))
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 32


def test_symbolic_eta_resolution():
    constants = RegimeConstants(Regime.STRONGLY_CONVEX, 2.0, 0.5, 0.1)
    doc = base_doc()
    for form, want in (
        ("1/beta", 0.5),
        ("2/beta", 1.0),
        ("2/(beta+mu)", 0.8),
    ):
        doc["federation"]["eta"] = form
        assert parse(doc).resolve_eta(constants) == pytest.approx(want, rel=1e-15)
    doc["federation"]["eta"] = 0.125
    assert parse(doc).resolve_eta(constants) == 0.125


def test_unknown_symbolic_eta_rejected():
    doc = base_doc()
    doc["federation"]["eta"] = "3/beta"
    with pytest.raises(ConfigError, match="symbolic eta"):
        parse(doc)


def test_unknown_and_missing_keys_rejected():
    doc = base_doc()
    doc["extra"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        parse(doc)
    doc = base_doc()
    doc["model"]["hidden"] = 4
    with pytest.raises(ConfigError, match="unknown keys"):
        parse(doc)
    doc = base_doc()
    doc["federation"]["batch_size"] = 4  # the removed stochastic mode
    with pytest.raises(ConfigError, match="unknown keys"):
        parse(doc)
    doc = base_doc()
    del doc["budget"]
    with pytest.raises(ConfigError, match="missing keys"):
        parse(doc)
    doc = base_doc()
    del doc["stopping"]["min_rounds"]
    with pytest.raises(ConfigError, match="missing keys"):
        parse(doc)


def test_type_checks_reject_bools_posing_as_ints():
    doc = base_doc()
    doc["federation"]["rounds"] = True
    with pytest.raises(ConfigError, match="expected an integer"):
        parse(doc)
    doc = base_doc()
    doc["budget"]["epsilon"] = "one"
    with pytest.raises(ConfigError, match="expected a number"):
        parse(doc)
    doc = base_doc()
    doc["requests"] = [0]
    with pytest.raises(ConfigError, match="expected a list"):
        parse(doc)


def test_invalid_json_and_non_object_root():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")
    with pytest.raises(ConfigError, match="root"):
        parse_config("[1, 2]")


def test_name_must_be_path_safe():
    for bad in ("", "a/b", "a b", "a\\b"):
        doc = base_doc()
        doc["name"] = bad
        with pytest.raises(ConfigError):
            parse(doc)


def test_features_must_match_model_input():
    doc = base_doc()
    doc["data"]["features"] = 5
    with pytest.raises(ConfigError, match="input dimension"):
        parse(doc)


def test_requests_must_name_known_clients():
    doc = base_doc()
    doc["requests"] = [[0], [4]]
    with pytest.raises(ConfigError, match="unknown client"):
        parse(doc)
    doc["requests"] = [[]]
    with pytest.raises(ConfigError, match="at least one client"):
        parse(doc)
    doc["requests"] = [[0], [0]]
    with pytest.raises(ConfigError, match="more than one request"):
        parse(doc)
    doc["requests"] = [[0, 1], [2, 3]]
    with pytest.raises(ConfigError, match="every client"):
        parse(doc)


def test_weights_validated_against_client_count():
    doc = base_doc()
    doc["federation"]["weights"] = [0.5, 0.5]
    with pytest.raises(ConfigError, match="length"):
        parse(doc)
    doc["federation"]["weights"] = [0.5, 0.3, 0.1, 0.2]
    with pytest.raises(ConfigError, match="sum to 1"):
        parse(doc)


def test_psi_star_cross_check():
    doc = base_doc()
    config = parse(doc)
    doc["budget"]["psi_star"] = config.budget.psi_star
    assert parse(doc) == config
    doc["budget"]["psi_star"] = config.budget.psi_star * 1.5
    with pytest.raises(ConfigError, match="psi_star"):
        parse(doc)


def test_threshold_words():
    doc = base_doc()
    doc["stopping"]["loss_threshold"] = "inf"
    assert parse(doc).stopping.loss_threshold == math.inf
    doc["stopping"]["loss_threshold"] = "huge"
    with pytest.raises(ConfigError):
        parse(doc)


def test_bad_nested_values_surface_as_config_errors():
    doc = base_doc()
    doc["model"]["kind"] = "tree"
    with pytest.raises(ConfigError, match="unknown kind"):
        parse(doc)
    doc = base_doc()
    doc["data"]["clients"] = 1
    with pytest.raises(ConfigError, match="data"):
        parse(doc)
    doc = base_doc()
    doc["budget"]["delta"] = 2.0
    with pytest.raises(ConfigError, match="budget"):
        parse(doc)
    doc = base_doc()
    doc["stopping"]["min_rounds"] = 5
    doc["stopping"]["max_rounds"] = 2
    with pytest.raises(ConfigError, match="stopping"):
        parse(doc)
    # train keeps every round's model; the key stays required and must be 1
    for interval in (0, 2):
        doc = base_doc()
        doc["checkpoint_interval"] = interval
        with pytest.raises(ConfigError, match="checkpoint_interval must be 1"):
            parse(doc)
    doc = base_doc()
    del doc["checkpoint_interval"]
    with pytest.raises(ConfigError, match="missing keys \\['checkpoint_interval'\\]"):
        parse(doc)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(base_doc()))
    assert load_config(path) == parse(base_doc())


# ---------------------------------------------------------------------------
# deterministic text encoding
# ---------------------------------------------------------------------------


def test_fmt17_round_trips_doubles():
    rng = np.random.default_rng(70)
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))
        assert float(fmt17(x)) == x
    assert fmt17(0.1) == "0.10000000000000001"
    assert fmt17(float("inf")) == "Infinity"
    assert fmt17(float("-inf")) == "-Infinity"
    assert fmt17(float("nan")) == "NaN"


def test_dumps17_is_stable_and_sorted():
    doc = {"b": 0.1, "a": [1, 2.5, None, True], "c": {"y": "txt", "x": float("inf")}}
    flat = dumps17(doc)
    assert flat == dumps17(doc)
    assert flat.index('"a"') < flat.index('"b"') < flat.index('"c"')
    assert "0.10000000000000001" in flat
    assert "Infinity" in flat
    wide = dumps17(doc, indent=2)
    assert wide.count("\n") > 0
    assert dumps17({}) == "{}"
    assert dumps17([]) == "[]"
    with pytest.raises(TypeError):
        dumps17(object())


@pytest.mark.parametrize(
    "text",
    ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "caf\u00e9 \u03c8* \U0001f600", "", "plain"],
    ids=["quotes", "backslash", "control", "non-ascii", "empty", "plain"],
)
def test_dumps17_writes_a_string_as_json_dumps_does(text):
    assert dumps17(text) == json.dumps(text)
    assert dumps17({text: text}) == "{" + json.dumps(text) + ": " + json.dumps(text) + "}"
