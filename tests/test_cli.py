"""End-to-end command-line flows: synth -> prepare -> train -> consume."""

import json
import re
import struct

import numpy as np
import pytest

from a2cf.cli import cli_dispatch
from a2cf.config import TrainConfig
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


@pytest.mark.parametrize("corrupt,message", [
    (lambda raw: raw[:11], "truncated checkpoint header"),
    (lambda raw: _rewrite_header(raw, _unknown_config_key),
     "bad checkpoint config"),
    (lambda raw: _rewrite_header(raw, _missing_tensor), "missing attr_emb"),
    (lambda raw: _rewrite_header(raw, _no_config), "lacks 'config'"),
    (lambda raw: _rewrite_header(raw, _no_tensors), "lacks 'tensors'"),
    (lambda raw: _rewrite_header(raw, _wrong_shape),
     "tensor 'user_tower_w' has shape (2, 8, 16), expected (1, 16, 16)"),
], ids=["short_file", "unknown_config_key", "missing_tensor", "no_config",
        "no_tensors", "wrong_shape"])
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
