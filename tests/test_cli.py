"""End-to-end command-line flows: synth -> prepare -> train -> consume."""

import io
import json
import math
import re
import struct
import zipfile

import numpy as np
import pytest
from numpy.lib import format as npformat

from a2cf import cli, training
from a2cf.cli import cli_dispatch
from a2cf.config import TrainConfig
from a2cf.data import load_prepared
from a2cf.network import init_params
from a2cf.training import CHECKPOINT_MAGIC, save_checkpoint

REC_LINE = re.compile(r"^u\d{3}\ti\d{3}\t\d+\ti\d{3}\t-?\d+\.\d{6}$")


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """One synth -> prepare -> train chain shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw"
    prep = root / "prep"
    model = root / "model"
    assert cli_dispatch(["synth", "--out-dir", str(raw), "--seed", "2024",
                         "--users", "50", "--items", "60",
                         "--attributes", "20", "--clusters", "10"]) == 0
    assert cli_dispatch(["prepare",
                         "--reviews", str(raw / "reviews.tsv"),
                         "--lexicon", str(raw / "lexicon.tsv"),
                         "--substitutes", str(raw / "substitutes.tsv"),
                         "--out-dir", str(prep), "--seed", "11"]) == 0
    assert cli_dispatch(["train", "--data", str(prep / "prepared.npz"),
                         "--out-dir", str(model), "--seed", "11",
                         "--embed-dim", "8", "--rounds-max", "1",
                         "--phase1-steps", "60", "--phase2-steps", "40"]) == 0
    return {"root": root, "raw": raw, "prep": prep, "model": model,
            "data": str(prep / "prepared.npz"),
            "ckpt": str(model / "model.ckpt")}


def test_pipeline_outputs_exist(pipeline):
    assert (pipeline["prep"] / "prepared.npz").is_file()
    assert (pipeline["prep"] / "corpus.manifest").is_file()
    assert (pipeline["model"] / "model.ckpt").is_file()
    assert (pipeline["model"] / "train.log").is_file()


def test_prepare_reports_corpus_counts(pipeline, capsys, tmp_path):
    raw = pipeline["raw"]
    assert cli_dispatch(["prepare",
                         "--reviews", str(raw / "reviews.tsv"),
                         "--lexicon", str(raw / "lexicon.tsv"),
                         "--substitutes", str(raw / "substitutes.tsv"),
                         "--out-dir", str(tmp_path), "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "users=50 items=60 attrs=20" in out


def test_recommend_writes_ranked_list(pipeline, tmp_path):
    assert cli_dispatch(["recommend", "--data", pipeline["data"],
                         "--checkpoint", pipeline["ckpt"],
                         "--out-dir", str(tmp_path),
                         "--user", "u003", "--query", "i012",
                         "--top-k", "5"]) == 0
    lines = (tmp_path / "recs.tsv").read_text().splitlines()
    assert len(lines) == 5
    for rank, line in enumerate(lines, start=1):
        assert REC_LINE.match(line)
        user, query, rk, item, _ = line.split("\t")
        assert (user, query, int(rk)) == ("u003", "i012", rank)
        assert item != "i012"
    scores = [float(ln.split("\t")[4]) for ln in lines]
    assert scores == sorted(scores, reverse=True)


def test_explain_writes_requested_line_count(pipeline, tmp_path):
    assert cli_dispatch(["explain", "--data", pipeline["data"],
                         "--checkpoint", pipeline["ckpt"],
                         "--out-dir", str(tmp_path),
                         "--user", "u003", "--query", "i012",
                         "--top-k", "10", "--z", "3"]) == 0
    lines = (tmp_path / "explanations.txt").read_text().splitlines()
    assert len(lines) == 10
    for line in lines:
        user, query, item, text = line.split("\t")
        assert (user, query) == ("u003", "i012")
        assert text.startswith(f"Based on the item i012 you are currently "
                               f"browsing, we recommend you to try {item} ")
        clauses = text.split("comes with: ")[1].split(", ")
        assert len(clauses) == 3


def test_evaluate_writes_metrics_report(pipeline, tmp_path, capsys):
    assert cli_dispatch(["evaluate", "--data", pipeline["data"],
                         "--checkpoint", pipeline["ckpt"],
                         "--out-dir", str(tmp_path),
                         "--eval-negatives", "100", "--seed", "5"]) == 0
    lines = (tmp_path / "metrics.txt").read_text().splitlines()
    names = [ln.split("=")[0] for ln in lines]
    assert names == ["HR@5", "HR@10", "HR@20", "HR@50",
                     "NDCG@5", "NDCG@10", "NDCG@20", "NDCG@50", "ATC"]
    for ln in lines:
        assert re.match(r"^[A-Z@0-9]+=\d\.\d{4}$", ln)
    out = capsys.readouterr().out
    assert "HR@10=" in out and "metrics:" in out


def test_evaluate_reports_effective_negatives(pipeline, tmp_path, capsys):
    # 60 items leave 59 negatives per case; metrics.txt stays in [0, 1]
    assert cli_dispatch(["evaluate", "--data", pipeline["data"],
                         "--checkpoint", pipeline["ckpt"],
                         "--out-dir", str(tmp_path),
                         "--eval-negatives", "1000", "--seed", "5"]) == 0
    assert "negatives=59 requested=1000\n" in capsys.readouterr().out
    assert "negatives" not in (tmp_path / "metrics.txt").read_text()


def test_evaluate_deterministic_bytes(pipeline, tmp_path):
    args = ["evaluate", "--data", pipeline["data"],
            "--checkpoint", pipeline["ckpt"],
            "--eval-negatives", "100", "--seed", "5"]
    assert cli_dispatch(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert cli_dispatch(args + ["--out-dir", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "metrics.txt").read_bytes()
            == (tmp_path / "b" / "metrics.txt").read_bytes())


def test_seed_env_fallback_matches_flag(pipeline, tmp_path, monkeypatch):
    base = ["evaluate", "--data", pipeline["data"],
            "--checkpoint", pipeline["ckpt"], "--eval-negatives", "100"]
    assert cli_dispatch(base + ["--seed", "99",
                                "--out-dir", str(tmp_path / "flag")]) == 0
    monkeypatch.setenv("A2CF_SEED", "99")
    assert cli_dispatch(base + ["--out-dir", str(tmp_path / "env")]) == 0
    assert ((tmp_path / "flag" / "metrics.txt").read_bytes()
            == (tmp_path / "env" / "metrics.txt").read_bytes())


def test_seed_env_invalid_is_runtime_error(pipeline, tmp_path, monkeypatch,
                                           capsys):
    monkeypatch.setenv("A2CF_SEED", "abc")
    code = cli_dispatch(["evaluate", "--data", pipeline["data"],
                         "--checkpoint", pipeline["ckpt"],
                         "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_seed_beaten_by_flag(pipeline, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=7\n")
    base = ["evaluate", "--data", pipeline["data"],
            "--checkpoint", pipeline["ckpt"], "--eval-negatives", "100"]
    assert cli_dispatch(base + ["--config", str(cfg),
                                "--out-dir", str(tmp_path / "file")]) == 0
    assert cli_dispatch(base + ["--seed", "7",
                                "--out-dir", str(tmp_path / "plain")]) == 0
    assert cli_dispatch(base + ["--config", str(cfg), "--seed", "99",
                                "--out-dir", str(tmp_path / "both")]) == 0
    assert cli_dispatch(base + ["--seed", "99",
                                "--out-dir", str(tmp_path / "n99")]) == 0
    read = lambda d: (tmp_path / d / "metrics.txt").read_bytes()
    assert read("file") == read("plain")
    assert read("both") == read("n99")


def test_missing_required_flag_is_usage_error(pipeline, capsys):
    assert cli_dispatch(["recommend", "--data", pipeline["data"]]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli_dispatch(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("negatives", ["0", "-3"])
def test_eval_negatives_below_one_is_one_line_error(pipeline, tmp_path, capsys,
                                                     negatives):
    code = cli_dispatch(["evaluate", "--data", pipeline["data"],
                         "--checkpoint", pipeline["ckpt"],
                         "--out-dir", str(tmp_path),
                         "--eval-negatives", negatives])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: eval negatives must be >= 1, got {negatives}"]
    assert not (tmp_path / "metrics.txt").exists()


def _captured_args(monkeypatch, command):
    """Replace `command`'s handler; returns the list its args land in."""
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command,
                        lambda args: seen.append(vars(args)) or 0)
    return seen


def test_dispatch_flags_do_not_carry_over(monkeypatch):
    seen = _captured_args(monkeypatch, "train")
    base = ["train", "--data", "p.npz", "--out-dir", "out"]
    assert cli_dispatch(base + ["--no-subst-use-attrs", "--embed-dim", "4",
                                "--seed", "3"]) == 0
    assert cli_dispatch(base) == 0
    assert cli_dispatch(base + ["--subst-use-attrs"]) == 0
    assert [(a["subst_use_attrs"], a["embed_dim"], a["seed"]) for a in seen] \
        == [(False, 4, 3), (None, None, None), (True, None, None)]
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("argv", [
    ["synth", "--out-dir", "o"],
    ["synth", "--out-dir", "o", "--seed", "4", "--users", "7", "--noise", "0.5"],
    ["prepare", "--reviews", "r", "--lexicon", "l", "--substitutes", "s",
     "--out-dir", "o", "--min-item-users", "2", "--dropout", "0.1"],
    ["train", "--data", "d", "--out-dir", "o", "--no-pers-use-attrs",
     "--convergence-tol", "0", "--config", "c.cfg"],
    ["train", "--data", "d", "--out-dir", "o"],
    ["recommend", "--data", "d", "--checkpoint", "c", "--out-dir", "o",
     "--user", "u1", "--query", "i2"],
    ["recommend", "--data", "d", "--checkpoint", "c", "--out-dir", "o",
     "--user", "u1", "--query", "i2", "--top-k", "3"],
    ["explain", "--data", "d", "--checkpoint", "c", "--out-dir", "o",
     "--user", "u1", "--query", "i2", "--z", "5"],
    ["evaluate", "--data", "d", "--checkpoint", "c", "--out-dir", "o"],
    ["evaluate", "--data", "d", "--checkpoint", "c", "--out-dir", "o",
     "--eval-negatives", "9", "--seed", "2"],
])
def test_reused_parser_parses_like_a_fresh_one(monkeypatch, argv):
    seen = _captured_args(monkeypatch, argv[0])
    for _ in range(2):
        assert cli_dispatch(argv) == 0
    fresh = vars(cli._build_parser.__wrapped__().parse_args(argv))
    assert seen == [fresh, fresh]


CONFIG_OPTIONS = [
    "--config", "--seed", "--embed-dim", "--tower-depth", "--rating-max",
    "--subst-weight", "--subst-temp", "--pers-temp", "--learning-rate",
    "--batch-size", "--dropout", "--negatives", "--subst-use-attrs",
    "--no-subst-use-attrs", "--pers-use-attrs", "--no-pers-use-attrs",
    "--rounds-max", "--phase1-steps", "--phase2-steps", "--convergence-tol"]


@pytest.mark.parametrize("command, own", [
    ("prepare", ["--reviews", "--lexicon", "--substitutes", "--out-dir",
                 "--min-user-items", "--min-item-users",
                 "--min-attr-mentions"]),
    ("train", ["--data", "--out-dir"]),
])
def test_config_flag_option_strings(command, own):
    sub = cli._build_parser()._subparsers._group_actions[0].choices[command]
    options = [opt for action in sub._actions for opt in action.option_strings]
    assert options == ["-h", "--help"] + own + CONFIG_OPTIONS


def test_unknown_item_token_is_runtime_error(pipeline, tmp_path, capsys):
    code = cli_dispatch(["recommend", "--data", pipeline["data"],
                         "--checkpoint", pipeline["ckpt"],
                         "--out-dir", str(tmp_path),
                         "--user", "u003", "--query", "i999"])
    assert code == 1
    assert "error: unknown item 'i999'" in capsys.readouterr().err


def test_checkpoint_corpus_dims_mismatch(pipeline, tmp_path, capsys):
    cfg = TrainConfig(embed_dim=4)
    bogus = tmp_path / "bogus.ckpt"
    save_checkpoint(str(bogus), init_params(5, 6, 4, cfg, 0), cfg)
    code = cli_dispatch(["recommend", "--data", pipeline["data"],
                         "--checkpoint", str(bogus),
                         "--out-dir", str(tmp_path),
                         "--user", "u003", "--query", "i012"])
    assert code == 1
    err = capsys.readouterr().err
    assert "checkpoint dimensions do not match the prepared corpus" in err


def _train_argv(pipeline, out_dir, *flags):
    """A short `train` run on the shared corpus, with extra `flags`."""
    return ["train", "--data", pipeline["data"], "--out-dir", str(out_dir),
            "--seed", "11", "--embed-dim", "8", "--rounds-max", "2",
            "--phase1-steps", "5", "--phase2-steps", "5",
            "--convergence-tol", "0", *flags]


def test_train_completes_once_per_round(pipeline, tmp_path, monkeypatch,
                                        capsys):
    real = training.estimate_matrices
    calls = []
    monkeypatch.setattr(training, "estimate_matrices",
                        lambda *args: calls.append(1) or real(*args))
    assert cli_dispatch(_train_argv(pipeline, tmp_path)) == 0
    assert "rounds=2 " in capsys.readouterr().out
    assert len(calls) == 2


@pytest.mark.parametrize("flags,message", [
    (["--learning-rate", "-1"], "learning_rate must be > 0"),
    (["--learning-rate", "0"], "learning_rate must be > 0"),
    (["--subst-temp", "nan"], "subst_temp must be finite, got nan"),
    (["--pers-temp", "inf"], "pers_temp must be finite, got inf"),
    (["--rating-max", "inf"], "rating_max must be finite, got inf"),
    (["--convergence-tol", "nan"], "convergence_tol must be finite, got nan"),
], ids=["negative_rate", "zero_rate", "nan_subst_temp", "inf_pers_temp",
        "inf_rating_max", "nan_convergence_tol"])
def test_train_rejects_useless_floats_before_training(pipeline, tmp_path,
                                                      capsys, flags, message):
    out = tmp_path / "model"
    assert cli_dispatch(_train_argv(pipeline, out, *flags)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_config_file_nan_is_one_line_error(pipeline, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("learning_rate = nan\n")
    out = tmp_path / "model"
    assert cli_dispatch(_train_argv(pipeline, out, "--config", str(cfg))) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: learning_rate must be finite, got nan"]
    assert not out.exists()


def test_prepare_rejects_infinite_rating_max(pipeline, tmp_path, capsys):
    raw = pipeline["raw"]
    out = tmp_path / "prep"
    code = cli_dispatch(["prepare", "--reviews", str(raw / "reviews.tsv"),
                         "--lexicon", str(raw / "lexicon.tsv"),
                         "--substitutes", str(raw / "substitutes.tsv"),
                         "--out-dir", str(out), "--rating-max", "inf"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: rating_max must be finite, got inf"]
    assert not out.exists()


def test_synth_seed_from_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=31\n")
    args = ["synth", "--users", "30", "--items", "24", "--attributes", "20",
            "--clusters", "8"]
    assert cli_dispatch(args + ["--out-dir", str(tmp_path / "a"),
                                "--config", str(cfg)]) == 0
    assert cli_dispatch(args + ["--out-dir", str(tmp_path / "b"),
                                "--seed", "31"]) == 0
    assert ((tmp_path / "a" / "reviews.tsv").read_bytes()
            == (tmp_path / "b" / "reviews.tsv").read_bytes())


def _rewrite_header(raw: bytes, edit) -> bytes:
    """The checkpoint `raw` with its JSON header passed through `edit`."""
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    return CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob + raw[12 + hlen:]


def _unknown_config_key(header):
    header["config"]["bogus"] = 1


def _missing_tensor(header):
    header["tensors"] = [t for t in header["tensors"] if t[0] != "attr_emb"]


def _no_config(header):
    del header["config"]


def _no_tensors(header):
    del header["tensors"]


def _wrong_shape(header):
    """Same byte count as the trained (1, 16, 16), so only shapes catch it."""
    for entry in header["tensors"]:
        if entry[0] == "user_tower_w":
            assert entry[1] == [1, 16, 16]
            entry[1] = [2, 8, 16]


def _set_config(field, value):
    def edit(header):
        header["config"][field] = value
    return edit


def _huge_user_emb(rows):
    """user_emb declared with `rows` rows; the config still fits, so only
    the byte count can catch it."""
    def edit(header):
        for entry in header["tensors"]:
            if entry[0] == "user_emb":
                entry[1][0] = rows
    return edit


@pytest.mark.parametrize("corrupt,message", [
    (lambda raw: raw[:11], "truncated checkpoint header"),
    (lambda raw: _rewrite_header(raw, _unknown_config_key),
     "bad checkpoint config"),
    (lambda raw: _rewrite_header(raw, _missing_tensor), "missing attr_emb"),
    (lambda raw: _rewrite_header(raw, _no_config), "lacks 'config'"),
    (lambda raw: _rewrite_header(raw, _no_tensors), "lacks 'tensors'"),
    (lambda raw: _rewrite_header(raw, _wrong_shape),
     "tensor 'user_tower_w' has shape (2, 8, 16), expected (1, 16, 16)"),
    (lambda raw: _rewrite_header(raw, _huge_user_emb(10**20)),
     "truncated checkpoint at tensor 'user_emb'"),
    (lambda raw: _rewrite_header(raw, _huge_user_emb(2**62)),
     "truncated checkpoint at tensor 'user_emb'"),
    (lambda raw: _rewrite_header(raw, _set_config("subst_temp", math.nan)),
     "bad checkpoint config: subst_temp must be finite, got nan"),
    (lambda raw: _rewrite_header(raw, _set_config("rating_max", math.inf)),
     "bad checkpoint config: rating_max must be finite, got inf"),
    (lambda raw: _rewrite_header(raw, _set_config("learning_rate", -1.0)),
     "bad checkpoint config: learning_rate must be > 0"),
], ids=["short_file", "unknown_config_key", "missing_tensor", "no_config",
        "no_tensors", "wrong_shape", "rows_overflow_int64",
        "rows_wrap_int64", "nan_subst_temp", "inf_rating_max",
        "negative_learning_rate"])
def test_malformed_checkpoint_is_one_line_error(pipeline, tmp_path, capsys,
                                                corrupt, message):
    bad = tmp_path / "bad.ckpt"
    with open(pipeline["ckpt"], "rb") as fh:
        bad.write_bytes(corrupt(fh.read()))
    code = cli_dispatch(["evaluate", "--data", pipeline["data"],
                         "--checkpoint", str(bad),
                         "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {bad}: ")
    assert message in err[0]


def _flip_member_byte(raw: bytes) -> bytes:
    """One byte inside the first member's data, which its CRC-32 covers."""
    pos = raw.index(b"\x93NUMPY") + 200
    return raw[:pos] + bytes([raw[pos] ^ 0xFF]) + raw[pos + 1:]


def _edit_members(edit):
    """A corrupter that rewrites the archive with its arrays passed
    through `edit`."""
    def corrupt(raw: bytes) -> bytes:
        with np.load(io.BytesIO(raw)) as blob:
            arrays = {name: blob[name] for name in blob.files}
        edit(arrays)
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        return buf.getvalue()
    return corrupt


def _huge_test_member(raw: bytes) -> bytes:
    """`test.npy` replaced by a header declaring 10**12 rows and no data;
    its CRC-32 is valid, so only the allocation can fail."""
    member = io.BytesIO()
    npformat.write_array_header_1_0(member, {
        "descr": "<i8", "fortran_order": False, "shape": (10**12, 3)})
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(raw)) as src, \
            zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            dst.writestr(info, member.getvalue() if info.filename == "test.npy"
                         else src.read(info))
    return out.getvalue()


def _set_cell(name, col, value):
    def edit(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][0, col] = value
    return edit


@pytest.mark.parametrize("corrupt,message", [
    (lambda raw: raw[:len(raw) // 2], "unreadable prepared corpus"),
    (_flip_member_byte, "Bad CRC-32"),
    (lambda raw: b"", "unreadable prepared corpus"),
    (_edit_members(lambda a: a.pop("lexicon")),
     "lexicon is not a file in the archive"),
    (_huge_test_member, "Unable to allocate"),
    (_edit_members(lambda a: a.update(user_tokens=a["user_tokens"][None])),
     "user_tokens is not a 1-D string array"),
    (_edit_members(lambda a: a.update(item_tokens=np.arange(60))),
     "item_tokens is not a 1-D string array"),
    (_edit_members(lambda a: a.update(interactions=a["interactions"][:, 0])),
     "interactions is not an integer array of width 2"),
    (_edit_members(lambda a: a.update(
        interactions=a["interactions"].astype(np.float64))),
     "interactions is not an integer array of width 2"),
    (_edit_members(lambda a: a.update(lexicon=a["lexicon"][:, :3])),
     "lexicon is not an integer array of width 4"),
    (_edit_members(_set_cell("interactions", 1, 60)),
     "interactions column 1 has ids outside [0, 60)"),
    (_edit_members(_set_cell("interactions", 0, -1)),
     "interactions column 0 has ids outside [0, 50)"),
    (_edit_members(_set_cell("lexicon", 2, 20)),
     "lexicon column 2 has ids outside [0, 20)"),
    (_edit_members(_set_cell("lexicon", 3, 0)),
     "lexicon has a sentiment other than +1/-1"),
    (_edit_members(_set_cell("substitute_pairs", 1, 60)),
     "substitute_pairs column 1 has ids outside [0, 60)"),
    (_edit_members(_set_cell("test", 1, 10**6)),
     "test column 1 has ids outside [0, 60)"),
], ids=["truncated", "flipped_byte", "empty_file", "missing_member",
        "huge_member", "tokens_2d", "tokens_not_strings", "interactions_1d",
        "interactions_float", "lexicon_width", "item_id_range",
        "negative_user_id", "attr_id_range", "zero_sentiment",
        "substitute_id_range", "test_id_range"])
def test_malformed_prepared_is_one_line_error(pipeline, tmp_path, capsys,
                                              corrupt, message):
    bad = tmp_path / "bad.npz"
    with open(pipeline["data"], "rb") as fh:
        bad.write_bytes(corrupt(fh.read()))
    code = cli_dispatch(["evaluate", "--data", str(bad),
                         "--checkpoint", pipeline["ckpt"],
                         "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {bad}: ")
    assert message in err[0]


def test_empty_id_arrays_load(pipeline, tmp_path):
    """Zero-row id arrays are valid input, not a malformed file."""
    path = tmp_path / "empty.npz"
    with open(pipeline["data"], "rb") as fh:
        empty = _edit_members(lambda a: a.update(
            {name: a[name][:0] for name in ("lexicon", "substitute_pairs",
                                            "valid", "test")}))
        path.write_bytes(empty(fh.read()))
    corpus, splits = load_prepared(str(path))
    assert corpus.lexicon.shape == (0, 4)
    assert corpus.substitute_pairs.shape == (0, 2)
    assert splits.test.shape == (0, 3)
