"""Flat key = value run configuration: parsing, validation, canonical echo."""
import pytest
from hypothesis import given, settings

from conftest import run_configs
from prefdiff.config import (RunConfig, load_config, normalized_text,
                             parse_config_text)
from prefdiff.errors import ConfigurationError
from prefdiff.variants import SELECTORS


def test_defaults_validate():
    cfg = RunConfig()
    cfg.validate()
    assert cfg.resolved_t_prime() == cfg.T


def test_parse_overrides_and_types():
    cfg = parse_config_text(
        "# a comment\n"
        "\n"
        "T = 50\n"
        "eta=0.3\n"
        "loss_weighting = variance_weighted\n"
        "t_prime = 10\n")
    assert cfg.T == 50 and cfg.eta == 0.3
    assert cfg.loss_weighting == "variance_weighted"
    assert cfg.resolved_t_prime() == 10


def test_unknown_keys_all_listed():
    with pytest.raises(ConfigurationError, match=r"\['bogus1', 'bogus2'\]"):
        parse_config_text("bogus2 = 1\nbogus1 = 2\nT = 5\n")


def test_repeated_keys_all_listed():
    # a pasted duplicate used to win silently: T = 8 here
    with pytest.raises(ConfigurationError) as info:
        parse_config_text("T = 5\nT = 8\neta = 0.2\nomega = 1\neta = 0.3\n")
    msg = str(info.value)
    assert "config keys given more than once: ['T', 'eta']" in msg
    assert "omega" not in msg


def test_unknown_and_repeated_keys_in_one_error():
    with pytest.raises(ConfigurationError) as info:
        parse_config_text("bogus = 1\nT = 5\nT = 5\n")
    assert "unknown config keys: ['bogus']" in str(info.value)
    assert "more than once: ['T']" in str(info.value)


def test_bad_value_type():
    with pytest.raises(ConfigurationError, match="cannot parse"):
        parse_config_text("T = five\n")


def test_missing_equals():
    with pytest.raises(ConfigurationError, match="line 1"):
        parse_config_text("T 5\n")


@pytest.mark.parametrize("text", [
    "fraction = 1.5\n",
    "eta = 0\n",
    "alpha_min = 20\n",          # > alpha_max default
    "lam = 2\n",
    "omega = -1\n",
    "T = 5\nt_prime = 6\n",
    "variant = 9\n",
    "ablation = what\n",
    "variant = 2\nablation = no_tf\n",
    "dtype = bogus\n",
    "p_uncond = 2\n",
    "batch_size = 0\n",
    "T = 0\n",
    "n_heads = 3\nd1 = 64\n",
    "max_history_len = 0\n",
    "epochs = -1\n",
    "mlp_layers = 0\n",
    "seed = -1\n",
    "t_prime = -2\n",
    "enc_layers = -1\n",
    "hidden = 0\n",
    "init_scale = -1\n",
    "init_scale = nan\n",
    "init_scale = inf\n",
    "learning_rate = 0\n",
    "learning_rate = nan\n",
    "learning_rate = inf\n",
    "omega = inf\n",
    "omega = nan\n",
])
def test_validation_failures(text):
    with pytest.raises(ConfigurationError):
        parse_config_text(text)


def test_validation_lists_every_problem():
    with pytest.raises(ConfigurationError) as info:
        parse_config_text("dtype = bogus\nbatch_size = 0\n")
    assert "dtype" in str(info.value) and "batch_size" in str(info.value)
    with pytest.raises(ConfigurationError) as info:
        parse_config_text("init_scale = -1\nlearning_rate = nan\nomega = inf\nT = 0\n")
    for key in ("init_scale", "learning_rate", "omega", "T must"):
        assert key in str(info.value)


def test_overrides_replace_file_values_before_validation():
    cfg = parse_config_text("seed = 1\nvariant = 2\n", seed=5, variant=None)
    assert (cfg.seed, cfg.variant) == (5, 2)
    with pytest.raises(ConfigurationError, match=r"\(variant, ablation\) = \(3, 'no_tf'\)"):
        parse_config_text("ablation = no_tf\n", variant=3)


@pytest.mark.parametrize("selector,pair", [
    ("variant = 9\n", "(9, 'none')"),
    ("ablation = what\n", "(0, 'what')"),
    ("variant = 2\nablation = no_tf\n", "(2, 'no_tf')"),
])
def test_a_selector_outside_the_table_is_one_more_problem(selector, pair):
    # the message names the pair and the accepted ones, beside every other problem
    with pytest.raises(ConfigurationError) as info:
        parse_config_text(selector + "batch_size = 0\n")
    message = str(info.value)
    assert f"(variant, ablation) = {pair} is not one of {list(SELECTORS)}" in message
    assert "batch_size must be >= 1" in message


def test_normalized_round_trip(tmp_path):
    cfg = parse_config_text("T = 12\nomega = 1.5\nvariant = 4\ndtype = float64\n")
    echo = normalized_text(cfg)
    assert parse_config_text(echo) == cfg
    p = tmp_path / "run.conf"
    p.write_text(echo)
    assert load_config(p) == cfg


@settings(max_examples=200, deadline=None)
@given(cfg=run_configs())
def test_normalized_round_trip_property(cfg):
    assert parse_config_text(normalized_text(cfg)) == cfg
