import json

import pytest

from deepref.config import RunConfig, load_run_config
from deepref.errors import ConfigError


def write(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


def test_defaults():
    cfg = RunConfig()
    assert cfg.q_set == [8, 16, 32, 64]
    assert cfg.extraction.block_size == 32
    assert cfg.train.lr0 == 1e-4
    assert cfg.search.search_range == 16
    assert cfg.model.trunk_channels == 64


def test_load_full_document(tmp_path):
    path = write(tmp_path, {
        "seed": 7,
        "q_set": [4, 8, 16, 32],
        "extraction": {"block_size": 16, "stride": 8},
        "model": {"head_channels": 8, "trunk_channels": 8,
                  "branch_reduce_channels": 4, "branch_out_channels": 4},
        "train": {"epochs": 5, "batch_size": 8},
        "search": {"search_range": 4},
    })
    cfg = load_run_config(path)
    assert cfg.extraction.stride == 8
    assert cfg.model.head_channels == 8
    assert cfg.train.epochs == 5
    assert cfg.search.search_range == 4
    # top-level seed propagates where no explicit seed was given
    assert cfg.model.seed == 7
    assert cfg.train.shuffle_seed == 7


@pytest.mark.parametrize("seed", ["abc", 1.5, -3, True])
@pytest.mark.parametrize("where", ["top", "model", "train"])
def test_seed_must_be_a_non_negative_integer(tmp_path, seed, where):
    doc = {"top": {"seed": seed}, "model": {"model": {"seed": seed}},
           "train": {"train": {"shuffle_seed": seed}}}[where]
    with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
        load_run_config(write(tmp_path, doc))


def test_section_seed_wins_over_top_level(tmp_path):
    path = write(tmp_path, {"seed": 7, "model": {"seed": 3}})
    assert load_run_config(path).model.seed == 3


def test_unknown_top_level_key_rejected(tmp_path):
    path = write(tmp_path, {"inptu_path": "x.y4m"})
    with pytest.raises(ConfigError, match="inptu_path"):
        load_run_config(path)


def test_unknown_section_key_rejected(tmp_path):
    path = write(tmp_path, {"extraction": {"block_sz": 16}})
    with pytest.raises(ConfigError, match="block_sz"):
        load_run_config(path)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_run_config(path)


def test_non_utf8_json_rejected(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"seed": "\xff"}')
    with pytest.raises(ConfigError, match="UTF-8"):
        load_run_config(path)


def test_bad_q_set_rejected():
    with pytest.raises(ConfigError):
        RunConfig(q_set=[])
    with pytest.raises(ConfigError):
        RunConfig(q_set=[8, 0])


@pytest.mark.parametrize("doc", [
    {"q_set": "x"}, {"q_set": "88"}, {"q_set": 5}, {"q_set": [None]}, {"q_set": [1e999]},
    {"extraction": [1]}, {"model": "ab"}, {"model": {"dtype": {"": ""}}},
    # a bool, a fraction, NaN, infinity or a string in a numeric field
    {"train": {"epochs": True}}, {"q_set": [8.7]}, {"q_set": [True]},
    {"search": {"lambda_mv": float("nan")}}, {"train": {"lr0": float("inf")}},
    {"model": {"k": True}}, {"extraction": {"block_size": 16.5}},
    {"width": "ab"}, {"width": True}, {"height": 2.5}, {"input_format": "mp4"},
    # integers beyond the int range, a null dtype, and keys that are no fields:
    # input_path and the flow constants INTEGER_SNAP, LK_ITERATIONS, LK_EPS and
    # MV_CLAMP, with degenerate blocks always kept
    {"search": {"search_range": 99999999999999999999}}, {"q_set": [8, 2**31]},
    {"model": {"dtype": None}}, {"input_path": "seq.y4m"},
    {"extraction": {"integer_snap": 0.02}}, {"extraction": {"lk_iterations": 5}},
    {"extraction": {"lk_eps": 0.01}}, {"extraction": {"mv_clamp": 8.0}},
    {"extraction": {"keep_degenerate": True}},
    # a top level that is no JSON object
    [{"seed": 4}],
])
def test_malformed_values_rejected(tmp_path, doc):
    with pytest.raises(ConfigError):
        load_run_config(write(tmp_path, doc))


def test_train_model_key_rejected(tmp_path):
    path = write(tmp_path, {"train": {"model": {}}})
    with pytest.raises(ConfigError, match=r"train: unknown keys \['model'\]"):
        load_run_config(path)
