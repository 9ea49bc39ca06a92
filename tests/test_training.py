"""Alternating training loop, convergence control, and checkpoint format."""

import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest

from a2cf import training
from a2cf.config import RunConfig, TrainConfig
from a2cf.data import SplitTriplets
from a2cf.network import ModelParams, init_params
from a2cf.training import (CHECKPOINT_MAGIC, checkpoint_roundtrip,
                           load_checkpoint, save_checkpoint, train_pipeline)


def tiny_params():
    cfg = TrainConfig(embed_dim=4, tower_depth=2)
    params = init_params(5, 6, 4, cfg, 3)
    params.user_emb[0, 0] = -0.0
    params.user_emb[0, 1] = np.nextafter(1.0, 2.0)
    params.item_emb[1, 2] = 5e-324          # denormal survives the format
    return params, cfg


# ------------------------------------------------------------- checkpoints

def test_checkpoint_save_load_save_identical_bytes(tmp_path):
    params, cfg = tiny_params()
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(str(a), params, cfg)
    loaded, loaded_cfg = load_checkpoint(str(a))
    assert loaded_cfg == cfg
    save_checkpoint(str(b), loaded, loaded_cfg)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params, cfg = tiny_params()
    loaded = checkpoint_roundtrip(params, cfg, str(tmp_path / "m.ckpt"))
    for name, t in params.tensors().items():
        got = getattr(loaded, name)
        assert np.array_equal(t.view(np.uint64), got.view(np.uint64))
    assert np.signbit(loaded.user_emb[0, 0])


def test_checkpoint_bad_magic(tmp_path):
    params, cfg = tiny_params()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg)
    raw = path.read_bytes()
    path.write_bytes(b"NOTACKPT" + raw[8:])
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(str(path))


def test_checkpoint_corrupt_header(tmp_path):
    params, cfg = tiny_params()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    path.write_bytes(raw[:12] + b"\xff" * hlen + raw[12 + hlen:])
    with pytest.raises(ValueError, match="corrupt checkpoint header"):
        load_checkpoint(str(path))


def test_checkpoint_unsupported_format(tmp_path):
    blob = json.dumps({"format": 999}).encode("utf-8")
    path = tmp_path / "m.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(ValueError, match="unsupported checkpoint format"):
        load_checkpoint(str(path))


def _narrow_item_emb(params, cfg):
    params.item_emb = params.item_emb[:, :3].copy()
    return cfg


@pytest.mark.parametrize("tamper,message", [
    (lambda p, cfg: dataclasses.replace(cfg, embed_dim=3),
     "'user_emb' has shape (5, 4), expected (5, 3)"),
    (_narrow_item_emb, "'item_emb' has shape (6, 3), expected (6, 4)"),
    (lambda p, cfg: dataclasses.replace(cfg, tower_depth=1),
     "'user_tower_w' has shape (2, 8, 8), expected (1, 8, 8)"),
    (lambda p, cfg: dataclasses.replace(cfg, subst_use_attrs=False),
     "'subst_proj' has shape (8,), expected (4,)"),
    (lambda p, cfg: dataclasses.replace(cfg, pers_use_attrs=False),
     "'pers_proj' has shape (8,), expected (4,)"),
], ids=["embed_dim", "one_embedding", "tower_depth", "subst_ablation",
        "pers_ablation"])
def test_checkpoint_shapes_checked_against_config(tmp_path, tamper, message):
    params, cfg = tiny_params()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, tamper(params, cfg))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: checkpoint tensor {message}")):
        load_checkpoint(str(path))


def test_checkpoint_truncated(tmp_path):
    params, cfg = tiny_params()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated checkpoint"):
        load_checkpoint(str(path))


def test_checkpoint_trailing_bytes(tmp_path):
    params, cfg = tiny_params()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(ValueError, match="2 trailing bytes"):
        load_checkpoint(str(path))


# ------------------------------------------------------------ training loop

def test_phase1_window_means_strictly_decrease(small_trained):
    _, _, _, result = small_trained
    losses = np.array(result.history[0]["losses"])
    means = [losses[i * 30:(i + 1) * 30].mean() for i in range(5)]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_phase2_per_pair_starts_near_log2_and_decreases(small_trained):
    _, _, _, result = small_trained
    per_pair = result.history[1]["losses"]
    assert abs(per_pair[0] - math.log(2.0)) < 0.01
    assert per_pair[-1] < per_pair[0]


def test_single_round_step_accounting(small_trained):
    _, _, run, result = small_trained
    assert result.rounds_run == 1
    assert result.converged is False
    assert len(result.history) == 2
    p1, p2 = result.history
    assert (p1["round"], p1["phase"], p1["steps"]) == (1, 1, run.phase1_steps)
    assert len(p1["losses"]) == run.phase1_steps
    assert (p2["round"], p2["phase"], p2["steps"]) == (1, 2, run.phase2_steps)
    assert len(p2["losses"]) == run.phase2_steps
    assert result.final_loss == p2["loss"] > 0.0


def short_run(**kwargs):
    train = TrainConfig(embed_dim=8, learning_rate=1e-3, dropout=0.2)
    defaults = dict(train=train, seed=33, rounds_max=1, phase1_steps=25,
                    phase2_steps=15, convergence_tol=0.0)
    defaults.update(kwargs)
    return RunConfig(**defaults)


def test_training_is_deterministic(synth_corpus, synth_splits):
    a = train_pipeline(synth_corpus, synth_splits, short_run())
    b = train_pipeline(synth_corpus, synth_splits, short_run())
    for name, t in a.params.tensors().items():
        np.testing.assert_array_equal(t, getattr(b.params, name))
    np.testing.assert_array_equal(a.est.user_attr, b.est.user_attr)
    np.testing.assert_array_equal(a.est.item_attr, b.est.item_attr)
    for ha, hb in zip(a.history, b.history):
        assert ha["losses"] == hb["losses"]


def test_convergence_stops_before_rounds_max(synth_corpus, synth_splits):
    run = short_run(rounds_max=4, phase1_steps=5, phase2_steps=5,
                    convergence_tol=1.0)
    result = train_pipeline(synth_corpus, synth_splits, run)
    # any positive round loss improves by less than 100 percent
    assert result.converged is True
    assert result.rounds_run == 2
    assert len(result.history) == 4


def test_zero_phase2_steps_stops_without_ranking_loss(synth_corpus,
                                                      synth_splits):
    run = short_run(rounds_max=3, phase1_steps=5, phase2_steps=0)
    result = train_pipeline(synth_corpus, synth_splits, run)
    assert result.rounds_run == 1
    assert result.converged is False
    assert result.final_loss is None
    assert result.history[1]["steps"] == 0
    assert result.history[1]["loss"] is None


def test_train_log_contents(tmp_path, synth_corpus, synth_splits):
    log = tmp_path / "train.log"
    train_pipeline(synth_corpus, synth_splits,
                   short_run(phase1_steps=5, phase2_steps=5),
                   log_path=str(log))
    lines = log.read_text().splitlines()
    assert lines[0].startswith("corpus users=50 items=60 attrs=20 train=")
    assert any(ln.startswith("round=1 phase=1 step=1 loss=") for ln in lines)
    assert "round=1 estimated matrices refreshed" in lines
    assert any(ln.startswith("round=1 phase=2 step=5 loss=")
               and "per_pair=" in ln for ln in lines)
    assert any(ln.startswith("round=1 mean_pair_loss=") for ln in lines)
    assert lines[-1] == "training finished after 1 round(s), converged=False"


def test_nonfinite_loss_aborts_with_diagnostic(tmp_path, monkeypatch,
                                               synth_corpus, synth_splits):
    def poisoned(params, user_cells, item_cells, rating_max, dropout, rng):
        return float("nan"), ModelParams.zeros_like(params)

    monkeypatch.setattr(training, "phase1_forward_backward", poisoned)
    diag = tmp_path / "diag"
    with pytest.raises(FloatingPointError,
                       match="non-finite loss nan in round 1 phase 1 step 1"):
        train_pipeline(synth_corpus, synth_splits, short_run(),
                       diag_dir=str(diag))
    params, _ = load_checkpoint(str(diag / "diagnostic.ckpt"))
    assert params.user_emb.shape[0] == synth_corpus.n_users


def test_empty_training_split_error(synth_corpus):
    empty = np.empty((0, 3), dtype=np.int64)
    splits = SplitTriplets(train=empty, valid=empty, test=empty)
    with pytest.raises(ValueError, match="empty training split"):
        train_pipeline(synth_corpus, splits, short_run())


def test_estimates_refresh_once_per_round_plus_final(monkeypatch,
                                                     synth_corpus,
                                                     synth_splits):
    real = training.estimate_matrices
    produced = []

    def counting(user_mat, item_mat, params):
        est = real(user_mat, item_mat, params)
        produced.append(est)
        return est

    monkeypatch.setattr(training, "estimate_matrices", counting)
    run = short_run(rounds_max=2, phase1_steps=3, phase2_steps=3)
    result = train_pipeline(synth_corpus, synth_splits, run)
    assert result.rounds_run == 2
    assert len(produced) == 2       # one per round, none for the final params
    est = result.est
    assert len(produced) == 3       # the final completion, on first read
    assert est is produced[-1]


def test_final_estimate_equals_eager_completion(synth_corpus, synth_splits):
    result = train_pipeline(synth_corpus, synth_splits,
                            short_run(rounds_max=2, phase1_steps=3,
                                      phase2_steps=3))
    eager = training.estimate_matrices(result.user_mat, result.item_mat,
                                       result.params)
    for name in ("user_attr", "item_attr"):
        got, want = getattr(result.est, name), getattr(eager, name)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert result.est is result.est


def test_raise_mid_phase_leaves_train_log_closed(tmp_path, monkeypatch,
                                                 synth_corpus, synth_splits):
    def broken(*args):
        raise RuntimeError("sampler failed")

    monkeypatch.setattr(training, "sample_negatives", broken)
    log = tmp_path / "train.log"
    with pytest.raises(RuntimeError, match="sampler failed") as excinfo:
        train_pipeline(synth_corpus, synth_splits,
                       short_run(phase1_steps=5, phase2_steps=5),
                       log_path=str(log))
    lines = log.read_text().splitlines()
    assert lines[0].startswith("corpus users=50 items=60 attrs=20 train=")
    assert lines[-1] == "round=1 estimated matrices refreshed"
    # the traceback still holds the training frame, and so its file object
    frame = next(entry.frame for entry in excinfo.traceback
                 if entry.name == "train_pipeline")
    assert frame.f_locals["fh"].closed
