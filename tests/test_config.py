"""Hyperparameter containers and key=value config parsing."""

import dataclasses

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


@pytest.mark.parametrize("field", ["embed_dim", "tower_depth", "batch_size",
                                   "negatives"])
@pytest.mark.parametrize("value", [4.0, True, "4"])
def test_train_config_rejects_non_int_counts(field, value):
    """A checkpoint header or a library caller can pass these; 4.0 would
    reach every shape computation as a float."""
    with pytest.raises(ValueError, match=f"{field} must be an int, got "):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field", ["subst_use_attrs", "pers_use_attrs"])
@pytest.mark.parametrize("value", ["false", 0, 1, 1.0, None])
def test_train_config_rejects_non_bool_switches(field, value):
    """A checkpoint header could hold "false", which is truthy: the
    attribute head would stay on."""
    with pytest.raises(ValueError, match=f"{field} must be a bool, got "):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field", ["subst_weight", "subst_temp", "pers_temp",
                                   "learning_rate", "dropout"])
@pytest.mark.parametrize("value", [True, False, "0.5", None])
def test_train_config_rejects_non_number_floats(field, value):
    with pytest.raises(ValueError,
                       match=f"{field} must be an int or float, got "):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("value", [True, "0.001", None])
def test_run_config_rejects_non_number_convergence_tol(value):
    with pytest.raises(ValueError,
                       match="convergence_tol must be an int or float, got "):
        RunConfig(convergence_tol=value)


def test_float_fields_take_an_int():
    cfg = TrainConfig(subst_temp=5, subst_weight=1, dropout=0)
    assert (cfg.subst_temp, cfg.subst_weight, cfg.dropout) == (5, 1, 0)
    assert RunConfig(convergence_tol=0).convergence_tol == 0


@pytest.mark.parametrize("field", ["subst_temp", "pers_temp",
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


@pytest.mark.parametrize("field", ["seed", "rounds_max", "phase1_steps",
                                   "phase2_steps"])
@pytest.mark.parametrize("value", [2.0, True, "2"])
def test_run_config_rejects_non_int_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an int, got "):
        RunConfig(**{field: value})


def test_run_config_rejects_the_float_and_bool_schedule():
    """Each of these used to construct, and training then raised a
    TypeError the command line does not catch."""
    with pytest.raises(ValueError, match="seed must be an int, got 1.5"):
        RunConfig(rounds_max=2.0, phase1_steps=True, seed=1.5)
    with pytest.raises(ValueError, match="rounds_max must be an int, got 2.0"):
        RunConfig(rounds_max=2.0, phase1_steps=True)
    with pytest.raises(ValueError,
                       match="phase1_steps must be an int, got True"):
        RunConfig(phase1_steps=True)


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


def test_parse_config_file_drops_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed=7\nembed_dim=16\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert parse_config_file(str(path)) == {"seed": 7, "embed_dim": 16}


def test_config_file_of_every_default_parses_to_the_default(tmp_path):
    defaults = RunConfig()
    fields = {**dataclasses.asdict(defaults.train),
              **{k: v for k, v in dataclasses.asdict(defaults).items()
                 if k != "train"}}
    assert len(fields) == 16
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    overrides = parse_config_file(str(path))
    assert {k: (type(v), v) for k, v in overrides.items()} \
        == {k: (type(v), v) for k, v in fields.items()}
    assert build_run_config(overrides) == defaults


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
                           cli_overrides={"embed_dim": 32})
    assert cfg.train.embed_dim == 32      # CLI beats file
    assert cfg.seed == 7                  # file beats default
    assert cfg.rounds_max == 10           # untouched default


def test_build_run_config_ignores_none_cli_values():
    cfg = build_run_config(cli_overrides={"embed_dim": None, "seed": None})
    assert cfg.train.embed_dim == 64
    assert cfg.seed == 42
