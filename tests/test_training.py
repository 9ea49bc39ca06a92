"""Alternating training loop, convergence control, and checkpoint format."""

import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest

from a2cf import network, training
from a2cf.config import RunConfig, TrainConfig
from a2cf.data import RATING_MAX, SplitTriplets
from a2cf.matrices import build_matrices
from a2cf.network import (AdamState, ModelParams, adam_step, init_params,
                          param_shapes, tower_slice)
from a2cf.ranking import EstimatedMatrices, bpr_s_forward_backward
from a2cf.training import (CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint,
                           train_pipeline)
from conftest import assert_flat_layout, written_out_adam


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
    loaded, loaded_cfg, items = load_checkpoint(str(a))
    assert loaded_cfg == cfg and items is None
    save_checkpoint(str(b), loaded, loaded_cfg)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params, cfg = tiny_params()
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, params, cfg)
    loaded, _, _ = load_checkpoint(path)
    for name, t in params.tensors().items():
        got = getattr(loaded, name)
        assert got.shape == t.shape
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
    return dataclasses.replace(params, item_emb=params.item_emb[:, :3]), cfg


@pytest.mark.parametrize("tamper,message", [
    (lambda p, cfg: (p, dataclasses.replace(cfg, embed_dim=3)),
     "'user_emb' has shape (5, 4), the config gives (5, 3)"),
    (_narrow_item_emb, "'item_emb' has shape (6, 3), the config gives (6, 4)"),
    (lambda p, cfg: (p, dataclasses.replace(cfg, tower_depth=1)),
     "'user_tower_w' has shape (2, 8, 8), the config gives (1, 8, 8)"),
    (lambda p, cfg: (p, dataclasses.replace(cfg, subst_use_attrs=False)),
     "'subst_proj' has shape (8,), the config gives (4,)"),
    (lambda p, cfg: (p, dataclasses.replace(cfg, pers_use_attrs=False)),
     "'pers_proj' has shape (8,), the config gives (4,)"),
], ids=["embed_dim", "one_embedding", "tower_depth", "subst_ablation",
        "pers_ablation"])
def test_checkpoint_shapes_checked_against_config(tmp_path, tamper, message):
    """At save time: a format-2 file holds no shapes, only the counts and
    the config they follow from."""
    params, cfg = tiny_params()
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match=re.escape(f"{path}: tensor {message}")):
        save_checkpoint(str(path), *tamper(params, cfg))
    assert not path.exists()


def test_checkpoint_header_is_config_counts_and_format(tmp_path):
    params, cfg = tiny_params()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    assert header == {"config": dataclasses.asdict(cfg), "counts": [5, 6, 4],
                      "format": 2}
    assert len(raw) == 12 + hlen + 8 * sum(
        t.size for t in params.tensors().values())


def tiny_item_attr():
    """A (6, 4) item completion for tiny_params, with both ends of the
    range [1, RATING_MAX] in it."""
    item_attr = np.random.default_rng(5).uniform(1.0, RATING_MAX, (6, 4))
    item_attr[0, :2] = 1.0, RATING_MAX
    return item_attr


def test_format3_checkpoint_ships_the_item_completion(tmp_path):
    params, cfg = tiny_params()
    item_attr = tiny_item_attr()
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(str(a), params, cfg, item_attr)
    raw = a.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    assert json.loads(raw[12:12 + hlen]) == {
        "config": dataclasses.asdict(cfg), "counts": [5, 6, 4], "format": 3}
    # the tensors as format 2 writes them, then the item matrix
    save_checkpoint(str(b), params, cfg)
    tensors = b.read_bytes()[12 + hlen:]
    assert raw[12 + hlen:] == tensors + item_attr.tobytes()
    loaded, loaded_cfg, items = load_checkpoint(str(a))
    assert np.array_equal(items.view(np.uint64), item_attr.view(np.uint64))
    save_checkpoint(str(b), loaded, loaded_cfg, items)
    assert b.read_bytes() == raw


@pytest.mark.parametrize("fmt", [2, 3])
def test_loaded_tensors_are_views_of_the_section_written(tmp_path, fmt):
    """The tensor section of the file is params.flat's bytes, and the
    loader makes it one vector whose views are the 11 tensors."""
    params, cfg = tiny_params()
    item_attr = tiny_item_attr() if fmt == 3 else None
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg, item_attr)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    section = raw[12 + hlen:12 + hlen + params.flat.nbytes]
    assert params.flat.tobytes() == section
    loaded, _, _ = load_checkpoint(str(path))
    assert_flat_layout(loaded, param_shapes(5, 6, 4, cfg))
    assert loaded.flat.tobytes() == section
    with pytest.raises(dataclasses.FrozenInstanceError):
        loaded.pers_proj = params.pers_proj


@pytest.mark.parametrize("edit,message", [
    (lambda m: m[:5], "item completion has shape (5, 4), the counts give "
                      "(6, 4)"),
    (lambda m: m.T, "item completion has shape (4, 6), the counts give "
                    "(6, 4)"),
    (lambda m: np.where(m == 1.0, np.nextafter(1.0, 0.0), m),
     "item completion holds a value that is non-finite or outside [1, 5]"),
    (lambda m: np.where(m == 5.0, np.inf, m),
     "item completion holds a value that is non-finite or outside [1, 5]"),
], ids=["rows", "transposed", "below_one", "inf"])
def test_save_refuses_an_item_completion_the_loader_would(tmp_path, edit,
                                                           message):
    params, cfg = tiny_params()
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")
                       + ".*" + re.escape(message)):
        save_checkpoint(str(path), params, cfg, edit(tiny_item_attr()))
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_tensor_names_path_and_tensor(tmp_path, value):
    params, cfg = tiny_params()
    params.pers_proj[1] = value
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: checkpoint tensor 'pers_proj' holds non-finite values")):
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


def read_log(path):
    """train.log as (corpus line, phase records), each line parsed as JSON."""
    first, *records = [json.loads(ln) for ln in path.read_text().splitlines()]
    return first, records


def test_training_is_deterministic(synth_corpus, synth_splits):
    a = train_pipeline(synth_corpus, synth_splits, short_run())
    b = train_pipeline(synth_corpus, synth_splits, short_run())
    for name, t in a.params.tensors().items():
        np.testing.assert_array_equal(t, getattr(b.params, name))
    np.testing.assert_array_equal(a.est.user_attr, b.est.user_attr)
    np.testing.assert_array_equal(a.est.item_attr, b.est.item_attr)
    for ha, hb in zip(a.history, b.history):
        assert ha["losses"] == hb["losses"]


def test_training_with_per_tensor_adam_is_bit_identical(
        tmp_path, monkeypatch, synth_corpus, synth_splits):
    """adam_step walks the flat vectors in blocks; a per-tensor Adam in
    its place gives every tensor and every byte of model.ckpt."""
    run = short_run(rounds_max=2)
    results = [train_pipeline(synth_corpus, synth_splits, run,
                              str(tmp_path / "0"))]
    monkeypatch.setattr(training, "adam_step", written_out_adam)
    results.append(train_pipeline(synth_corpus, synth_splits, run,
                                  str(tmp_path / "1")))
    a, b = (r.params for r in results)
    for (name, t), u in zip(a.tensors().items(), b.tensors().values()):
        assert np.array_equal(t.view(np.uint64), u.view(np.uint64)), name
    assert ((tmp_path / "0" / "model.ckpt").read_bytes()
            == (tmp_path / "1" / "model.ckpt").read_bytes())


def test_phase2_adam_skipping_the_tower_slice_is_bit_identical(monkeypatch):
    """tower_slice spans user_tower_w through item_head. Phase-2 gradients
    are zero there, so an Adam step that skips the slice leaves params, m
    and v with the bits of the full pass, also at blocks of 7 values, where
    the slice's edges fall inside a block."""
    cfg = TrainConfig(embed_dim=4, tower_depth=2)
    params = init_params(3, 7, 5, cfg, seed=8)
    towers = tower_slice(params)
    marks = ModelParams.zeros_like(params)
    marks.flat[towers] = 1.0
    tower_names = ("user_tower_w", "user_tower_b", "item_tower_w",
                   "item_tower_b", "user_head", "item_head")
    for name, t in marks.tensors().items():
        assert (t == (name in tower_names)).all(), name
    rng = np.random.default_rng(8)
    est = EstimatedMatrices(user_attr=rng.uniform(1.0, 5.0, size=(3, 5)),
                            item_attr=rng.uniform(1.0, 5.0, size=(7, 5)))
    for block_bytes in (network._BLOCK_BYTES, 8 * 7):
        monkeypatch.setattr(network, "_BLOCK_BYTES", block_bytes)
        full, skipped = (ModelParams(**params.tensors()) for _ in range(2))
        full_state, skip_state = (AdamState.zeros_like(params)
                                  for _ in range(2))
        for _ in range(4):
            batch = (rng.integers(3, size=6), rng.integers(7, size=6),
                     rng.integers(7, size=6), rng.integers(7, size=(6, 2)))
            _, grads = bpr_s_forward_backward(full, est, cfg, *batch)
            assert not grads.flat[towers].any()
            adam_step(full, grads, full_state, lr=1e-2)
            adam_step(skipped, grads, skip_state, lr=1e-2, skip=towers)
            for got, want in ((skipped, full), (skip_state.m, full_state.m),
                              (skip_state.v, full_state.v)):
                assert np.array_equal(got.flat.view(np.uint64),
                                      want.flat.view(np.uint64)), block_bytes
        assert skip_state.step == full_state.step == 4


def test_convergence_stops_before_rounds_max(synth_corpus, synth_splits):
    run = short_run(rounds_max=4, phase1_steps=5, phase2_steps=5,
                    convergence_tol=1.0)
    result = train_pipeline(synth_corpus, synth_splits, run)
    # any positive round loss improves by less than 100 percent
    assert result.converged is True
    assert result.rounds_run == 2
    assert [r["converged"] for r in result.history[1::2]] == [False, True]


def test_zero_phase2_steps_stops_without_ranking_loss(tmp_path, synth_corpus,
                                                      synth_splits):
    run = short_run(rounds_max=3, phase1_steps=5, phase2_steps=0)
    result = train_pipeline(synth_corpus, synth_splits, run, str(tmp_path))
    assert result.rounds_run == 1
    assert result.converged is False
    assert result.final_loss is None
    # the phase-2 record is written all the same
    assert read_log(tmp_path / "train.log")[1] == result.history
    p2 = result.history[1]
    assert (p2["phase"], p2["steps"], p2["losses"], p2["loss"]) == (
        2, 0, [], None)
    assert (p2["pairs"], p2["skipped_updates"], p2["converged"]) == (
        0, 0, False)


def test_train_log_contents(tmp_path, synth_corpus, synth_splits):
    run = short_run(phase1_steps=5, phase2_steps=5)
    result = train_pipeline(synth_corpus, synth_splits, run, str(tmp_path))
    user_mat, item_mat = build_matrices(synth_corpus)
    first, records = read_log(tmp_path / "train.log")
    assert first == {"users": 50, "items": 60, "attrs": 20,
                     "train": len(synth_splits.train),
                     "valid": len(synth_splits.valid),
                     "test": len(synth_splits.test),
                     "cells_filled": (50 + 60) * 20
                     - np.count_nonzero(user_mat)
                     - np.count_nonzero(item_mat)}
    assert first["cells_filled"] > 0
    assert records == result.history
    p1, p2 = records
    assert (p1["round"], p1["phase"], p1["steps"]) == (1, 1, 5)
    assert len(p1["losses"]) == 5 and p1["losses"][0] > 0.0
    assert (p2["round"], p2["phase"], p2["steps"]) == (1, 2, 5)
    assert len(p2["losses"]) == 5
    assert p2["loss"] == pytest.approx(np.mean(p2["losses"]))
    batch = min(run.train.batch_size, len(synth_splits.train))
    assert p2["pairs"] == 5 * batch * run.train.negatives
    assert p1["skipped_updates"] == p2["skipped_updates"] == 0
    assert p1["seconds"] > 0.0 and p2["seconds"] > 0.0
    assert (result.rounds_run, p2["converged"]) == (1, False)


def test_floor_valued_item_cell_is_observed(tmp_path, synth_corpus,
                                            synth_splits):
    """An item cell whose 40 mentions are all -1 is worth
    1 + 4 * sigmoid(-40), exactly 1.0, the floor of the scale: it is
    nonzero in the observed matrix, completion keeps it verbatim, and
    train.log's cells_filled does not count it."""
    lex = synth_corpus.lexicon
    mentioned = np.zeros((60, 20), dtype=bool)
    mentioned[lex[:, 1], lex[:, 2]] = True
    v, a = np.argwhere(~mentioned)[0]
    floor = np.column_stack([np.arange(40), np.full(40, v), np.full(40, a),
                             np.full(40, -1)])
    lex = np.concatenate([lex, floor])
    corpus = dataclasses.replace(synth_corpus,
                                 lexicon=lex[np.lexsort(lex.T[::-1])])
    user_obs, item_obs = build_matrices(corpus)
    assert item_obs[v, a] == 1.0
    params = init_params(50, 60, 20, TrainConfig(embed_dim=8), seed=40)
    est = training.estimate_matrices(user_obs, item_obs, params)
    assert est.item_attr[v, a] == 1.0
    train_pipeline(corpus, synth_splits,
                   short_run(phase1_steps=1, phase2_steps=1), str(tmp_path))
    first, _ = read_log(tmp_path / "train.log")
    user_cells = {(u, a) for u, _, a, _ in corpus.lexicon.tolist()}
    item_cells = {(v, a) for _, v, a, _ in corpus.lexicon.tolist()}
    assert (int(v), int(a)) in item_cells
    assert first["cells_filled"] == (50 + 60) * 20 - len(user_cells) \
        - len(item_cells)


def test_nonfinite_loss_aborts_with_diagnostic(tmp_path, monkeypatch,
                                               synth_corpus, synth_splits):
    def poisoned(params, user_cells, item_cells, dropout, rng, grads):
        return float("nan"), ModelParams.zeros_like(params)

    monkeypatch.setattr(training, "phase1_forward_backward", poisoned)
    diag = tmp_path / "diag"
    with pytest.raises(FloatingPointError,
                       match="non-finite loss nan in round 1 phase 1 step 1"):
        train_pipeline(synth_corpus, synth_splits, short_run(), str(diag))
    params, _, items = load_checkpoint(str(diag / "diagnostic.ckpt"))
    assert params.user_emb.shape[0] == synth_corpus.n_users
    assert items is None            # format 2, params only
    assert not (diag / "model.ckpt").exists()


@pytest.mark.parametrize("site", ["phase1_forward_backward",
                                  "estimate_matrices"])
def test_activation_blowup_aborts_with_diagnostic(tmp_path, monkeypatch,
                                                  synth_corpus, synth_splits,
                                                  site):
    # a phase-1 step and the per-round completion each run residual_forward,
    # which raises on a non-finite activation
    def overflowing(*args, **kwargs):
        raise FloatingPointError("non-finite activation after residual block 0")

    monkeypatch.setattr(training, site, overflowing)
    diag = tmp_path / "diag"
    with pytest.raises(FloatingPointError, match="non-finite activation"):
        train_pipeline(synth_corpus, synth_splits, short_run(), str(diag))
    params, _, items = load_checkpoint(str(diag / "diagnostic.ckpt"))
    assert params.user_emb.shape[0] == synth_corpus.n_users
    assert items is None            # format 2, params only
    assert not (diag / "model.ckpt").exists()


def _poison_phase1(monkeypatch):
    """Make every phase-1 step return a NaN loss, so training blows up."""
    monkeypatch.setattr(training, "phase1_forward_backward",
                        lambda params, *args, **kwargs: (
                            float("nan"), ModelParams.zeros_like(params)))


def test_blowup_removes_an_earlier_model_checkpoint(tmp_path, monkeypatch,
                                                    synth_corpus,
                                                    synth_splits):
    """A run that raises leaves no model.ckpt, not even an earlier run's,
    beside its own train.log and diagnostic.ckpt."""
    run = short_run(phase1_steps=2, phase2_steps=2)
    train_pipeline(synth_corpus, synth_splits, run, str(tmp_path))
    _poison_phase1(monkeypatch)
    with pytest.raises(FloatingPointError, match="non-finite loss"):
        train_pipeline(synth_corpus, synth_splits, run, str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "diagnostic.ckpt", "train.log"]


def test_finished_run_removes_an_earlier_diagnostic(tmp_path, monkeypatch,
                                                    synth_corpus,
                                                    synth_splits):
    """A run that returns leaves no diagnostic.ckpt from an earlier run
    that blew up in the same directory."""
    run = short_run(phase1_steps=2, phase2_steps=2)
    with monkeypatch.context() as patch:
        _poison_phase1(patch)
        with pytest.raises(FloatingPointError, match="non-finite loss"):
            train_pipeline(synth_corpus, synth_splits, run, str(tmp_path))
    assert (tmp_path / "diagnostic.ckpt").is_file()
    train_pipeline(synth_corpus, synth_splits, run, str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "model.ckpt", "train.log"]


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
    assert len(produced) == 3       # one per round, then the final params
    assert result.est is produced[-1]


def test_final_estimate_equals_eager_completion(synth_corpus, synth_splits):
    result = train_pipeline(synth_corpus, synth_splits,
                            short_run(rounds_max=2, phase1_steps=3,
                                      phase2_steps=3))
    eager = training.estimate_matrices(*build_matrices(synth_corpus),
                                       result.params)
    for name in ("user_attr", "item_attr"):
        got, want = getattr(result.est, name), getattr(eager, name)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert result.est is result.est


def test_out_dir_receives_the_format3_model(tmp_path, monkeypatch,
                                            synth_corpus, synth_splits):
    """model.ckpt holds the final params and the item section of the final
    completion, bit for bit; without out_dir no file is written."""
    run = short_run(phase1_steps=5, phase2_steps=5)
    out = tmp_path / "model"
    result = train_pipeline(synth_corpus, synth_splits, run, str(out))
    assert sorted(p.name for p in out.iterdir()) == ["model.ckpt",
                                                     "train.log"]
    raw = (out / "model.ckpt").read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    assert json.loads(raw[12:12 + hlen])["format"] == training.SERVING_FORMAT
    params, cfg, items = load_checkpoint(str(out / "model.ckpt"))
    assert cfg == run.train
    for (name, t), u in zip(result.params.tensors().items(),
                            params.tensors().values()):
        assert np.array_equal(t.view(np.uint64), u.view(np.uint64)), name
    assert items.shape == result.est.item_attr.shape
    assert np.array_equal(items.view(np.uint64),
                          result.est.item_attr.view(np.uint64))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    train_pipeline(synth_corpus, synth_splits, run)
    assert list(cwd.iterdir()) == []


def test_raise_mid_phase_leaves_train_log_closed(tmp_path, monkeypatch,
                                                 synth_corpus, synth_splits):
    def broken(*args):
        raise RuntimeError("sampler failed")

    monkeypatch.setattr(training, "sample_negatives", broken)
    with pytest.raises(RuntimeError, match="sampler failed") as excinfo:
        train_pipeline(synth_corpus, synth_splits,
                       short_run(phase1_steps=5, phase2_steps=5),
                       str(tmp_path))
    # the corpus line and phase 1's record, which follows the refresh
    first, records = read_log(tmp_path / "train.log")
    assert (first["users"], first["items"], first["attrs"]) == (50, 60, 20)
    assert [(r["round"], r["phase"], r["steps"]) for r in records] == [
        (1, 1, 5)]
    assert not (tmp_path / "model.ckpt").exists()
    # the traceback still holds the training frame, and so its file object
    frame = next(entry.frame for entry in excinfo.traceback
                 if entry.name == "train_pipeline")
    assert frame.f_locals["fh"].closed
