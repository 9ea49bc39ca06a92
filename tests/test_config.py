"""Hyperparameter containers and key=value config parsing."""

import pytest

from a2cf.config import (RunConfig, TrainConfig, build_run_config,
                         parse_config_file)


def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.embed_dim == 64
    assert cfg.subst_weight == 0.7
    assert cfg.subst_temp == 8.0
    assert cfg.pers_temp == 8.0
    assert cfg.dropout == 0.4
    assert cfg.negatives == 5
    assert cfg.subst_use_attrs and cfg.pers_use_attrs
    assert cfg.hidden_dim == 128


def test_train_config_validation():
    with pytest.raises(ValueError, match="embed_dim"):
        TrainConfig(embed_dim=0)
    with pytest.raises(ValueError, match="subst_weight"):
        TrainConfig(subst_weight=1.5)
    with pytest.raises(ValueError, match="temperatures"):
        TrainConfig(subst_temp=0.0)
    with pytest.raises(ValueError, match="dropout"):
        TrainConfig(dropout=1.0)
    with pytest.raises(ValueError, match="rating_max"):
        TrainConfig(rating_max=1.0)


@pytest.mark.parametrize("field", ["rating_max", "subst_temp", "pers_temp",
                                   "learning_rate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_train_config_rejects_non_finite_floats(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("rate", [0.0, -1.0, -1e-3])
def test_train_config_rejects_non_positive_learning_rate(rate):
    with pytest.raises(ValueError, match="learning_rate must be > 0"):
        TrainConfig(learning_rate=rate)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_run_config_rejects_non_finite_convergence_tol(value):
    with pytest.raises(ValueError, match="convergence_tol must be finite"):
        RunConfig(convergence_tol=value)


def test_run_config_validation():
    with pytest.raises(ValueError, match="rounds_max"):
        RunConfig(rounds_max=0)
    with pytest.raises(ValueError, match="convergence_tol"):
        RunConfig(convergence_tol=-1e-3)
    with pytest.raises(TypeError, match="eval_cutoffs"):
        RunConfig(eval_cutoffs=())      # evaluation settings are not run fields


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment line\n"
                    "embed_dim = 16\n"
                    "subst_weight=0.25   # trailing comment\n"
                    "seed=7\n"
                    "subst_use_attrs=no\n"
                    "\n")
    overrides = parse_config_file(str(path))
    assert overrides == {"embed_dim": 16, "subst_weight": 0.25,
                         "seed": 7, "subst_use_attrs": False}


def test_parse_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("embed_dim=8\nwidth=3\n")
    with pytest.raises(ValueError, match=r"run\.cfg:2.*unknown config key"):
        parse_config_file(str(path))


@pytest.mark.parametrize("key", ["eval_negatives", "eval_cutoffs",
                                 "explain_attrs"])
def test_parse_config_file_rejects_evaluation_keys(tmp_path, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"{key}=50\n")
    with pytest.raises(ValueError, match=rf"run\.cfg:1.*unknown config key '{key}'"):
        parse_config_file(str(path))


def test_parse_config_file_bad_boolean(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("pers_use_attrs=maybe\n")
    with pytest.raises(ValueError, match="bad boolean"):
        parse_config_file(str(path))


def test_parse_config_file_missing_equals(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("embed_dim 8\n")
    with pytest.raises(ValueError, match="expected key=value"):
        parse_config_file(str(path))


def test_build_run_config_precedence():
    cfg = build_run_config(file_overrides={"embed_dim": 16, "seed": 7},
                           cli_overrides={"embed_dim": 32},
                           env={})
    assert cfg.train.embed_dim == 32      # CLI beats file
    assert cfg.seed == 7                  # file beats default
    assert cfg.rounds_max == 10           # untouched default


def test_build_run_config_env_seed_fallback():
    cfg = build_run_config(env={"A2CF_SEED": "99"})
    assert cfg.seed == 99
    cfg = build_run_config(file_overrides={"seed": 3}, env={"A2CF_SEED": "99"})
    assert cfg.seed == 3
    with pytest.raises(ValueError, match="A2CF_SEED"):
        build_run_config(env={"A2CF_SEED": "north"})


def test_build_run_config_ignores_none_cli_values():
    cfg = build_run_config(cli_overrides={"embed_dim": None, "seed": None},
                           env={})
    assert cfg.train.embed_dim == 64
    assert cfg.seed == 42
