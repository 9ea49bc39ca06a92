"""End-to-end command-line flows: synth -> prepare -> train -> consume."""

import io
import json
import math
import re
import shutil
import struct
import zipfile

import numpy as np
import pytest
from numpy.lib import format as npformat

from a2cf import cli, ranking, training
from a2cf.cli import EXPLAIN_NAME, METRICS_NAME, RECS_NAME, cli_dispatch
from a2cf.config import TrainConfig
from a2cf.data import SplitTriplets, load_prepared, save_prepared
from a2cf.matrices import build_matrices
from a2cf.network import init_params, param_shapes
from a2cf.synthetic import SyntheticSpec, generate_synthetic
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


def test_prepare_counts_dropped_rows_in_the_manifest(tmp_path, capsys,
                                                     caplog):
    """Ten users buy p and three buy q, with p and q each other's only
    substitute, so every (query, positive) pair has siblings and the one
    test triplet always leaks, whatever the split puts in valid. The
    first q buyer also buys r, which has no substitute, and one review is
    repeated."""
    p_buyers = [f"u{n:02d}" for n in range(10)]
    q_buyers = ["w0", "w1", "w2"]
    reviews = ([f"{u}\tp\t5" for u in p_buyers]
               + [f"{w}\tq\t4" for w in q_buyers] + ["w0\tr\t3", "w0\tr\t2"])
    (tmp_path / "reviews.tsv").write_text("\n".join(reviews) + "\n")
    (tmp_path / "lexicon.tsv").write_text("u00\tp\tcolour\t+1\n")
    (tmp_path / "substitutes.tsv").write_text("p\tq\n")
    out = tmp_path / "prep"
    assert cli_dispatch(["prepare",
                         "--reviews", str(tmp_path / "reviews.tsv"),
                         "--lexicon", str(tmp_path / "lexicon.tsv"),
                         "--substitutes", str(tmp_path / "substitutes.tsv"),
                         "--out-dir", str(out), "--seed", "3",
                         "--min-user-items", "1", "--min-item-users", "1",
                         "--min-attr-mentions", "1"]) == 0
    assert capsys.readouterr().err == ""
    assert caplog.records == []
    assert (out / "corpus.manifest").read_text().splitlines()[-6:] == [
        "train_triplets=11", "valid_triplets=1", "test_triplets=0",
        "duplicate_review_pairs=1", "interactions_without_query=1",
        "leaked_test_triplets=1"]


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


@pytest.mark.parametrize("over", [0, 1, 4000])
def test_request_sizes_past_the_corpus_are_clamped_on_stdout(
        pipeline, tmp_path, capsys, over):
    """--top-k past the candidates and --top-attrs past the attributes get
    what there is, each with one stdout line; stderr stays empty and no
    warning is raised (pytest makes a UserWarning an error)."""
    corpus, _ = load_prepared(pipeline["data"])
    n_cands, n_attrs = corpus.n_items - 1, corpus.n_attrs
    k, z = n_cands + over, n_attrs + over
    request = ["--data", pipeline["data"], "--checkpoint", pipeline["ckpt"],
               "--out-dir", str(tmp_path), "--user", "u003", "--query", "i012",
               "--top-k", str(k)]
    clamped_k = [f"top_k={n_cands} requested={k}"] if over else []
    clamped_z = [f"top_attrs={n_attrs} requested={z}"] if over else []
    assert cli_dispatch(["recommend", *request]) == 0
    out, err = capsys.readouterr()
    assert (out.splitlines(), err) == (
        [*clamped_k, f"recommendations: {tmp_path / RECS_NAME}"], "")
    assert len((tmp_path / RECS_NAME).read_text().splitlines()) == n_cands
    assert cli_dispatch(["explain", *request, "--top-attrs", str(z)]) == 0
    out, err = capsys.readouterr()
    assert (out.splitlines(), err) == (
        [*clamped_k, *clamped_z, f"explanations: {tmp_path / EXPLAIN_NAME}"],
        "")
    lines = (tmp_path / EXPLAIN_NAME).read_text().splitlines()
    assert len(lines) == n_cands
    assert all(len(ln.split("comes with: ")[1].split(", ")) == n_attrs
               for ln in lines)


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
    assert err == [f"error: --eval-negatives must be >= 1, got {negatives}"]
    assert not (tmp_path / "metrics.txt").exists()


def _model_argv(pipeline, command, out_dir, *flags):
    """`command` on the shared model, writing into `out_dir`."""
    return [command, "--data", pipeline["data"],
            "--checkpoint", pipeline["ckpt"], "--out-dir", str(out_dir), *flags]


def _request_argv(pipeline, command, out_dir, *flags):
    return _model_argv(pipeline, command, out_dir, "--user", "u003",
                       "--query", "i012", *flags)


@pytest.mark.parametrize("argv, flag", [
    (["recommend", "--user", "u003", "--query", "i012"], "--top-k"),
    (["explain", "--user", "u003", "--query", "i012"], "--top-k"),
    (["explain", "--user", "u003", "--query", "i012"], "--top-attrs"),
    (["evaluate"], "--eval-negatives")],
    ids=["recommend_top_k", "explain_top_k", "explain_top_attrs",
         "evaluate_negatives"])
def test_count_flag_below_one_fails_before_completion(pipeline, tmp_path,
                                                      monkeypatch, capsys,
                                                      argv, flag):
    def completion(*args):
        raise AssertionError("estimate_matrices ran")

    monkeypatch.setattr(ranking, "estimate_matrices", completion)
    assert cli_dispatch(_model_argv(pipeline, argv[0], tmp_path, *argv[1:],
                                    flag, "0")) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"error: {flag} must be >= 1, got 0"


@pytest.mark.parametrize("command", ["recommend", "explain"])
@pytest.mark.parametrize("tokens, message", [
    (("--user", "nosuch", "--query", "i012"), "unknown user 'nosuch'"),
    (("--user", "u003", "--query", "nosuch"), "unknown item 'nosuch'")],
    ids=["user", "query"])
def test_unknown_token_fails_before_completion(pipeline, tmp_path, monkeypatch,
                                               capsys, command, tokens,
                                               message):
    def completion(*args):
        raise AssertionError("estimate_matrices ran")

    monkeypatch.setattr(ranking, "estimate_matrices", completion)
    assert cli_dispatch(_model_argv(pipeline, command, tmp_path, *tokens)) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"


# The corpora of the two bench workloads (bench/run.py) at seed 1, each
# trained briefly at its workload's embed_dim.
SEED1_CORPORA = {
    "planted": (dict(interactions_per_user=22, home_clusters=5), "8"),
    "catalog": (dict(users=300, items=1010, attributes=100, clusters=101,
                     functional_attrs=40, interactions_per_user=22,
                     home_clusters=5), "64"),
}


@pytest.fixture(scope="module", params=sorted(SEED1_CORPORA))
def seed1_model(request, tmp_path_factory):
    spec, embed_dim = SEED1_CORPORA[request.param]
    root = tmp_path_factory.mktemp(request.param)
    paths = generate_synthetic(SyntheticSpec(**spec), 1, str(root / "raw"))
    assert cli_dispatch(["prepare", "--reviews", paths["reviews"],
                         "--lexicon", paths["lexicon"],
                         "--substitutes", paths["substitutes"],
                         "--out-dir", str(root / "prep"), "--seed", "1"]) == 0
    data = str(root / "prep" / "prepared.npz")
    assert cli_dispatch(["train", "--data", data,
                         "--out-dir", str(root / "model"), "--seed", "1",
                         "--embed-dim", embed_dim, "--rounds-max", "1",
                         "--phase1-steps", "30", "--phase2-steps", "10"]) == 0
    return data, str(root / "model" / "model.ckpt")


def test_request_completing_its_user_row_writes_the_full_bytes(
        seed1_model, tmp_path, monkeypatch):
    """On a format-3 model, requests complete their user's row and
    `evaluate` every user row, each over the shipped item completion and
    without the item predictor; their files are those of a per-request
    completion of both matrices in full."""
    data, ckpt = seed1_model
    corpus, _ = load_prepared(data)
    real, real_items = ranking.estimate_matrices, ranking.predict_item_attr_batch
    rows, item_calls = [], []

    def one_row(*args):
        rows.append(args[3])
        return real(*args)

    def every_row(*args):
        return real(*args[:3])

    monkeypatch.setattr(ranking, "predict_item_attr_batch",
                        lambda *args, **kwargs: item_calls.append(1)
                        or real_items(*args, **kwargs))

    def written_by(argv, name, completion):
        monkeypatch.setattr(ranking, "estimate_matrices", completion)
        out = tmp_path / completion.__name__
        item_calls.clear()
        assert cli_dispatch([*argv, "--data", data, "--checkpoint", ckpt,
                             "--out-dir", str(out)]) == 0
        assert len(item_calls) == (completion is every_row)
        return (out / name).read_bytes()

    for user in np.linspace(0, corpus.n_users - 1, 4).astype(int):
        query = corpus.item_tokens[7 * user % corpus.n_items]
        for command, name in (("recommend", RECS_NAME),
                              ("explain", EXPLAIN_NAME)):
            argv = [command, "--user", corpus.user_tokens[user],
                    "--query", query]
            assert (written_by(argv, name, one_row)
                    == written_by(argv, name, every_row))
            assert rows.pop() == [user]
    argv = ["evaluate", "--eval-negatives", "100", "--seed", "1"]
    assert (written_by(argv, METRICS_NAME, one_row)
            == written_by(argv, METRICS_NAME, every_row))
    assert rows.pop() is None


def test_shipped_item_completion_is_the_bits_of_a_full_completion(
        seed1_model):
    """The item matrix in model.ckpt is the completion of the params beside
    it, bit for bit, and keeps the observed item cells verbatim."""
    data, ckpt = seed1_model
    corpus, _ = load_prepared(data)
    params, _, shipped = training.load_checkpoint(ckpt)
    user_obs, item_obs = build_matrices(corpus)
    full = ranking.estimate_matrices(user_obs, item_obs, params).item_attr
    assert shipped.shape == full.shape == (corpus.n_items, corpus.n_attrs)
    assert np.array_equal(shipped.view(np.uint64), full.view(np.uint64))
    observed = item_obs != 0.0
    assert np.array_equal(shipped[observed].view(np.uint64),
                          item_obs[observed].view(np.uint64))


def test_short_pool_evaluate_reports_on_stdout_only(seed1_model, tmp_path,
                                                    capsys, caplog):
    # planted has 300 items, so its cases rank 299 negatives, not 1000;
    # caplog holds any log record, which the CLI would print to stderr
    data, ckpt = seed1_model
    corpus, _ = load_prepared(data)
    assert cli_dispatch(["evaluate", "--data", data, "--checkpoint", ckpt,
                         "--out-dir", str(tmp_path),
                         "--eval-negatives", "1000", "--seed", "1"]) == 0
    out, err = capsys.readouterr()
    effective = min(1000, corpus.n_items - 1)
    assert f"negatives={effective} requested=1000\n" in out
    assert err == ""
    assert caplog.records == []


def test_failed_explain_keeps_the_earlier_explanations(pipeline, tmp_path,
                                                       monkeypatch, capsys):
    assert cli_dispatch(_request_argv(pipeline, "explain", tmp_path)) == 0
    path = tmp_path / "explanations.txt"
    before = path.read_bytes()
    assert len(before.splitlines()) == 10
    calls = []
    monkeypatch.setattr(ranking, "estimate_matrices",
                        lambda *args: calls.append(1))
    assert cli_dispatch(_request_argv(pipeline, "explain", tmp_path,
                                      "--top-attrs", "0")) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error:") and "--top-attrs" in err[-1]
    assert calls == []
    assert path.read_bytes() == before


def test_explain_renders_every_line_before_opening_its_file(
        pipeline, tmp_path, monkeypatch, capsys):
    # a rendering failure past the argument checks leaves the file as it was
    assert cli_dispatch(_request_argv(pipeline, "explain", tmp_path)) == 0
    path = tmp_path / "explanations.txt"
    before = path.read_bytes()
    real = cli.render_interpretation
    rendered = []

    def render_one_then_fail(*args):
        if rendered:
            raise ValueError("rendering failed")
        rendered.append(1)
        return real(*args)

    monkeypatch.setattr(cli, "render_interpretation", render_one_then_fail)
    assert cli_dispatch(_request_argv(pipeline, "explain", tmp_path)) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: rendering failed"
    assert path.read_bytes() == before


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
     "--out-dir", "o", "--min-item-users", "2", "--seed", "7"],
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
    "--config", "--seed", "--embed-dim", "--tower-depth", "--subst-weight",
    "--subst-temp", "--pers-temp", "--learning-rate", "--batch-size",
    "--dropout", "--negatives", "--subst-use-attrs", "--no-subst-use-attrs",
    "--pers-use-attrs", "--no-pers-use-attrs", "--rounds-max",
    "--phase1-steps", "--phase2-steps", "--convergence-tol"]


# `prepare` reads only this run value
PREPARE_CONFIG_OPTIONS = ["--config", "--seed"]


@pytest.mark.parametrize("command, own", [
    ("prepare", ["--reviews", "--lexicon", "--substitutes", "--out-dir",
                 "--min-user-items", "--min-item-users",
                 "--min-attr-mentions"]),
    ("train", ["--data", "--out-dir"]),
])
def test_config_flag_option_strings(command, own):
    sub = cli._build_parser()._subparsers._group_actions[0].choices[command]
    options = [opt for action in sub._actions for opt in action.option_strings]
    config = PREPARE_CONFIG_OPTIONS if command == "prepare" else CONFIG_OPTIONS
    assert options == ["-h", "--help"] + own + config


def _prepare_argv(pipeline, out_dir, *flags):
    raw = pipeline["raw"]
    return ["prepare", "--reviews", str(raw / "reviews.tsv"),
            "--lexicon", str(raw / "lexicon.tsv"),
            "--substitutes", str(raw / "substitutes.tsv"),
            "--out-dir", str(out_dir), *flags]


def test_prepare_rejects_a_training_flag(pipeline, tmp_path, capsys):
    out = tmp_path / "prep"
    assert cli_dispatch(_prepare_argv(pipeline, out, "--embed-dim", "8")) == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        "a2cf: error: unrecognized arguments: --embed-dim 8"
    assert not out.exists()


def test_prepare_reads_a_shared_config_file(pipeline, tmp_path):
    """A config file written for `train` loads; its training keys change
    nothing, and --seed gives the bytes of the shared pipeline's
    `prepare --seed 11`."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nembed_dim = 3\nlearning_rate = 5\n"
                   "negatives = 9\nrounds_max = 1\n")
    out = tmp_path / "prep"
    assert cli_dispatch(_prepare_argv(pipeline, out, "--config", str(cfg),
                                      "--seed", "11")) == 0
    for name in ("prepared.npz", "corpus.manifest"):
        assert (out / name).read_bytes() == \
            (pipeline["prep"] / name).read_bytes()


def _config_argv(pipeline, command, out_dir):
    """`command` with every required flag, writing into `out_dir`."""
    if command == "synth":
        return ["synth", "--out-dir", str(out_dir)]
    if command == "prepare":
        return _prepare_argv(pipeline, out_dir)
    if command == "train":
        return _train_argv(pipeline, out_dir)
    return _model_argv(pipeline, command, out_dir)


@pytest.mark.parametrize("command", ["prepare", "train"])
def test_rating_max_flag_is_usage_error(pipeline, tmp_path, capsys, command):
    """The rating scale is data.RATING_MAX, which no flag sets."""
    out = tmp_path / "out"
    argv = _config_argv(pipeline, command, out) + ["--rating-max", "5"]
    assert cli_dispatch(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        "a2cf: error: unrecognized arguments: --rating-max 5"
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "prepare", "train", "evaluate"])
def test_config_file_setting_rating_max_is_refused(pipeline, tmp_path,
                                                   capsys, command):
    """Every command that reads a config file refuses one written while
    the rating scale was a setting, before it writes anything."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nrating_max = 5\n")
    out = tmp_path / "out"
    argv = _config_argv(pipeline, command, out) + ["--config", str(cfg)]
    assert cli_dispatch(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {cfg}:2: unknown config key 'rating_max'"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_config_file_is_read_before_the_corpus(pipeline, tmp_path, capsys,
                                               monkeypatch, command):
    """A bad config file fails before the prepared corpus is read. The spy
    records its calls in a list: cli_dispatch would turn an assert raised
    inside it into an error line."""
    calls = []

    def spy(path):
        calls.append(path)
        return load_prepared(path)

    monkeypatch.setattr(cli.data, "load_prepared", spy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rating_max = 5\n")
    argv = _config_argv(pipeline, command, tmp_path / "out")
    assert cli_dispatch(argv + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {cfg}:1: unknown config key 'rating_max'"]
    assert calls == []


def test_explain_help_names_the_request_tokens(capsys):
    assert cli_dispatch(["explain", "--help"]) == 0
    out = capsys.readouterr().out
    assert "user token" in out
    assert "query item token" in out


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


def test_checkpoint_swapped_counts_mismatch(pipeline, tmp_path, capsys):
    """Swapping the user and item counts keeps the byte total of the
    tensors but not of the item completion, whose rows are items, so a
    format-3 file fails to load and the error names it. A format-2 file,
    the tensors alone, loads; only the corpus can tell."""
    def swap(header):
        users, items, attrs = header["counts"]
        assert users != items
        header["counts"] = [items, users, attrs]
    swapped = tmp_path / "swapped.ckpt"
    with open(pipeline["ckpt"], "rb") as fh:
        swapped.write_bytes(_rewrite_header(fh.read(), swap))
    code = cli_dispatch(["recommend", "--data", pipeline["data"],
                         "--checkpoint", str(swapped),
                         "--out-dir", str(tmp_path),
                         "--user", "u003", "--query", "i012"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(rf"error: {re.escape(str(swapped))}: (\d+ trailing "
                        rf"bytes|truncated checkpoint: .*)", err[0])
    params, cfg, _ = training.load_checkpoint(pipeline["ckpt"])
    save_checkpoint(str(swapped), params, cfg)
    swapped.write_bytes(_rewrite_header(swapped.read_bytes(), swap))
    training.load_checkpoint(str(swapped))
    code = cli_dispatch(["recommend", "--data", pipeline["data"],
                         "--checkpoint", str(swapped),
                         "--out-dir", str(tmp_path),
                         "--user", "u003", "--query", "i012"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: checkpoint dimensions do not match the prepared corpus"]


def test_mismatched_item_completion_is_one_line_error(pipeline, tmp_path,
                                                      capsys):
    """A shipped item completion whose observed cell differs from the
    prepared corpus's value loads, and `recommend` refuses it."""
    corpus, _ = load_prepared(pipeline["data"])
    _, item_obs = build_matrices(corpus)
    with open(pipeline["ckpt"], "rb") as fh:
        raw = fh.read()
    row, col = (int(i[0]) for i in np.nonzero(item_obs))
    val = item_obs[row, col]
    cell = (len(raw) - 8 * corpus.n_items * corpus.n_attrs
            + 8 * (row * corpus.n_attrs + col))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:cell] + np.float64(3.0 if val != 3.0 else 4.0)
                    .tobytes() + raw[cell + 8:])
    training.load_checkpoint(str(bad))
    assert cli_dispatch(_request_argv(
        {**pipeline, "ckpt": str(bad)}, "recommend", tmp_path)) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: checkpoint item completion does not match the prepared "
        "corpus"]


def _train_argv(pipeline, out_dir, *flags):
    """A short `train` run on the shared corpus, with extra `flags`."""
    return ["train", "--data", pipeline["data"], "--out-dir", str(out_dir),
            "--seed", "11", "--embed-dim", "8", "--rounds-max", "2",
            "--phase1-steps", "5", "--phase2-steps", "5",
            "--convergence-tol", "0", *flags]


def test_train_completes_once_per_round(pipeline, tmp_path, monkeypatch,
                                        capsys):
    """A full completion per round, then one of the final params, whose
    item section model.ckpt ships; all of them inside training."""
    real = training.estimate_matrices
    calls = []
    for module in (training, ranking):
        monkeypatch.setattr(
            module, "estimate_matrices",
            lambda *args, name=module.__name__:
                calls.append((name, args[4:])) or real(*args))
    assert cli_dispatch(_train_argv(pipeline, tmp_path)) == 0
    assert "rounds=2 " in capsys.readouterr().out
    assert calls == [("a2cf.training", ())] * 3


def test_train_reports_a_skipped_update(pipeline, tmp_path, monkeypatch,
                                        capsys, caplog):
    real = training.phase1_forward_backward
    calls = []

    def nan_gradient_on_step_3(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 3:
            grads.item_tower_w[...] = np.nan
        return loss, grads

    monkeypatch.setattr(training, "phase1_forward_backward",
                        nan_gradient_on_step_3)
    assert cli_dispatch(_train_argv(pipeline, tmp_path)) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].endswith(" skipped_updates=1")
    assert err == "" and caplog.records == []
    records = [json.loads(line) for line in
               (tmp_path / "train.log").read_text().splitlines()[1:]]
    assert [(r["round"], r["phase"], r["skipped_updates"])
            for r in records] == [(1, 1, 1), (1, 2, 0), (2, 1, 0), (2, 2, 0)]


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 8.00 EiB for an array"),
     "error: Unable to allocate 8.00 EiB for an array"),
    (MemoryError(), "error: MemoryError"),
], ids=["numpy_message", "bare"])
def test_memory_error_is_one_line_error(pipeline, tmp_path, monkeypatch,
                                        capsys, exc, message):
    def out_of_memory(*args):
        raise exc

    monkeypatch.setattr(cli.data, "load_prepared", out_of_memory)
    assert cli_dispatch(_train_argv(pipeline, tmp_path)) == 1
    assert capsys.readouterr().err.splitlines() == [message]


def test_train_blowup_writes_diagnostic_checkpoint(pipeline, tmp_path,
                                                   capsys):
    # one Adam step at this rate moves each weight by about 1e300; the next
    # forward pass overflows inside a residual block
    out = tmp_path / "model"
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli_dispatch(_train_argv(pipeline, out, "--learning-rate",
                                        "1e300")) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error: ")
    params, _, items = training.load_checkpoint(str(out / "diagnostic.ckpt"))
    assert params.all_finite() and items is None    # format 2, params only
    peak = max(np.abs(t).max() for t in params.tensors().values())
    assert 1e299 < peak < 1e301
    assert not (out / "model.ckpt").exists()


def test_completion_blowup_writes_diagnostic_checkpoint(pipeline, tmp_path,
                                                       capsys):
    # one phase-1 step at this rate moves each weight by about 1e300, and
    # the round's completion, not a training forward, overflows first
    out = tmp_path / "model"
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli_dispatch(_train_argv(
            pipeline, out, "--learning-rate", "1e300",
            "--phase1-steps", "1", "--phase2-steps", "0")) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "error: non-finite activation after residual block 0"
    params, _, items = training.load_checkpoint(str(out / "diagnostic.ckpt"))
    assert params.all_finite() and items is None    # format 2, params only
    assert not (out / "model.ckpt").exists()


def test_final_completion_blowup_writes_diagnostic_checkpoint(
        pipeline, tmp_path, monkeypatch, capsys):
    # two rounds complete, then the final params, whose completion
    # overflows
    real = training.estimate_matrices
    calls = []

    def overflowing_third(*args):
        calls.append(1)
        if len(calls) == 3:
            raise FloatingPointError(
                "non-finite activation after residual block 0")
        return real(*args)

    monkeypatch.setattr(training, "estimate_matrices", overflowing_third)
    out = tmp_path / "model"
    assert cli_dispatch(_train_argv(pipeline, out)) == 1
    assert len(calls) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: non-finite activation after residual block 0"]
    params, _, items = training.load_checkpoint(str(out / "diagnostic.ckpt"))
    assert params.all_finite() and items is None
    assert not (out / "model.ckpt").exists()


@pytest.fixture(scope="module")
def diagnostic_ckpt(pipeline, tmp_path_factory):
    """The format-2 diagnostic.ckpt of a run on the shared corpus that
    blows up in its first round."""
    out = tmp_path_factory.mktemp("blowup")
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli_dispatch(_train_argv(pipeline, out, "--learning-rate",
                                        "1e300")) == 1
    return str(out / "diagnostic.ckpt")


@pytest.mark.parametrize("command, flags", [
    ("recommend", ("--user", "u003", "--query", "i012")),
    ("explain", ("--user", "u003", "--query", "i012")),
    ("evaluate", ())], ids=["recommend", "explain", "evaluate"])
def test_format2_checkpoint_is_one_line_error(pipeline, diagnostic_ckpt,
                                              tmp_path, capsys, command,
                                              flags):
    capsys.readouterr()
    assert cli_dispatch(_model_argv({**pipeline, "ckpt": diagnostic_ckpt},
                                    command, tmp_path, *flags)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {diagnostic_ckpt}: a format-2 checkpoint holds no item "
        f"completion; retrain with `a2cf train`"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags,message", [
    (["--learning-rate", "-1"], "learning_rate must be > 0"),
    (["--learning-rate", "0"], "learning_rate must be > 0"),
    (["--subst-temp", "nan"], "subst_temp must be finite, got nan"),
    (["--pers-temp", "inf"], "pers_temp must be finite, got inf"),
    (["--convergence-tol", "nan"], "convergence_tol must be finite, got nan"),
], ids=["negative_rate", "zero_rate", "nan_subst_temp", "inf_pers_temp",
        "nan_convergence_tol"])
def test_train_rejects_useless_floats_before_training(pipeline, tmp_path,
                                                      capsys, flags, message):
    out = tmp_path / "model"
    assert cli_dispatch(_train_argv(pipeline, out, *flags)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def _empty_training_split(pipeline, tmp_path):
    """The shared prepared corpus with no training triplets."""
    corpus, splits = load_prepared(pipeline["data"])
    path = tmp_path / "empty.npz"
    save_prepared(str(path), corpus,
                  SplitTriplets(splits.train[:0], splits.valid, splits.test))
    return str(path)


@pytest.mark.parametrize("data, flags, message", [
    (_empty_training_split, [], "error: empty training split"),
    (None, ["--learning-rate", "-1"], "error: learning_rate must be > 0"),
    (None, ["--seed", "-1"], "error: seed must be >= 0, got -1"),
    (lambda pipeline, tmp_path: str(tmp_path / "missing.npz"), [],
     "error: [Errno 2] No such file or directory"),
], ids=["empty_split", "negative_rate", "negative_seed", "missing_data"])
def test_train_failing_before_its_first_step_keeps_the_out_dir(
        pipeline, tmp_path, capsys, data, flags, message):
    """A run that fails before training starts leaves --out-dir as it was:
    an earlier run's model.ckpt and train.log keep their bytes."""
    stale = tmp_path / "stale"
    shutil.copytree(pipeline["model"], stale)
    before = {p.name: p.read_bytes() for p in stale.iterdir()}
    run = {**pipeline, "data": data(pipeline, tmp_path)} if data else pipeline
    assert cli_dispatch(_train_argv(run, stale, *flags)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message), err
    assert {p.name: p.read_bytes() for p in stale.iterdir()} == before


@pytest.mark.parametrize("command", ["prepare", "synth", "evaluate"])
def test_negative_seed_is_one_line_error(pipeline, tmp_path, capsys,
                                         command):
    raw = pipeline["raw"]
    out = tmp_path / "out"
    argv = {"prepare": ["prepare", "--reviews", str(raw / "reviews.tsv"),
                        "--lexicon", str(raw / "lexicon.tsv"),
                        "--substitutes", str(raw / "substitutes.tsv"),
                        "--out-dir", str(out)],
            "synth": ["synth", "--out-dir", str(out)],
            "evaluate": _model_argv(pipeline, "evaluate", out)}[command]
    assert cli_dispatch(argv + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: seed must be >= 0, got -1"]
    assert not out.exists()


def test_config_file_nan_is_one_line_error(pipeline, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("learning_rate = nan\n")
    out = tmp_path / "model"
    assert cli_dispatch(_train_argv(pipeline, out, "--config", str(cfg))) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: learning_rate must be finite, got nan"]
    assert not out.exists()


def test_config_file_undecodable_is_one_line_error(pipeline, tmp_path,
                                                   capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed = 3\nembed_dim = \xff8\n")
    out = tmp_path / "model"
    assert cli_dispatch(_train_argv(pipeline, out, "--config", str(cfg))) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {cfg}: not UTF-8: ")
    assert not out.exists()


def test_prepare_threshold_below_one_is_one_line_error(pipeline, tmp_path,
                                                      capsys):
    raw = pipeline["raw"]
    out = tmp_path / "prep"
    code = cli_dispatch(["prepare", "--reviews", str(raw / "reviews.tsv"),
                         "--lexicon", str(raw / "lexicon.tsv"),
                         "--substitutes", str(raw / "substitutes.tsv"),
                         "--out-dir", str(out), "--min-user-items", "0"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: activity thresholds must be >= 1, got min_user_items=0, "
        "min_item_users=5, min_attr_mentions=2"]
    assert not out.exists()


def test_prepare_undecodable_input_is_one_line_error(pipeline, tmp_path,
                                                     capsys):
    raw = pipeline["raw"]
    bad = tmp_path / "lexicon.tsv"
    bad.write_bytes((raw / "lexicon.tsv").read_bytes()
                    + b"u000\ti\xff\ta000\t+1\n")
    out = tmp_path / "prep"
    code = cli_dispatch(["prepare", "--reviews", str(raw / "reviews.tsv"),
                         "--lexicon", str(bad),
                         "--substitutes", str(raw / "substitutes.tsv"),
                         "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {bad}: not UTF-8: ")
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


def _header_bytes(blob: bytes):
    """A corrupter that puts `blob` in place of the JSON header."""
    def corrupt(raw: bytes) -> bytes:
        (hlen,) = struct.unpack("<I", raw[8:12])
        return (CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob
                + raw[12 + hlen:])
    return corrupt


def _unknown_config_key(header):
    header["config"]["bogus"] = 1


def _no_config(header):
    del header["config"]


def _no_counts(header):
    del header["counts"]


def _nan_tensors(*names):
    """A corrupter that sets every value of the named tensors to NaN."""
    def corrupt(raw: bytes) -> bytes:
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + hlen])
        shapes = param_shapes(*header["counts"], TrainConfig(**header["config"]))
        out = bytearray(raw)
        offset = 12 + hlen
        for name, shape in shapes.items():
            size = math.prod(shape)
            if name in names:
                out[offset:offset + 8 * size] = np.full(size, np.nan).tobytes()
            offset += 8 * size
        return bytes(out)
    return corrupt


def _set(key, value):
    def edit(header):
        header[key] = value
    return edit


def _set_config(field, value):
    def edit(header):
        header["config"][field] = value
    return edit


def _set_count(position, value):
    def edit(header):
        header["counts"][position] = value
    return edit


def _absurd_dims(header):
    """No tensor bytes at all under zero counts, except for the heads and
    projections, whose (2 * 10**19,) shapes the payload must cover."""
    header["counts"] = [0, 0, 0]
    header["config"].update(embed_dim=10**19, tower_depth=0)


@pytest.mark.parametrize("corrupt,message", [
    (lambda raw: raw[:11], "truncated checkpoint header"),
    (_header_bytes(b"[" * 2000 + b"]" * 2000), "corrupt checkpoint header"),
    (_header_bytes(b'{"counts": [' + b"9" * 5000 + b"]}"),
     "corrupt checkpoint header"),
    (lambda raw: _rewrite_header(raw, _unknown_config_key),
     "bad checkpoint config: unknown key 'bogus'"),
    (lambda raw: _rewrite_header(raw, _set("config", "abc")),
     "bad checkpoint config: "),
    (lambda raw: _rewrite_header(raw, _no_config), "lacks 'config'"),
    (lambda raw: _rewrite_header(raw, _no_counts), "lacks 'counts'"),
    (lambda raw: _rewrite_header(raw, _set("format", 1)),
     "unsupported checkpoint format 1"),
    (lambda raw: _rewrite_header(raw, _set_count(0, -1)),
     "checkpoint counts must be three ints >= 0"),
    (lambda raw: _rewrite_header(raw, _set_count(1, 60.0)),
     "checkpoint counts must be three ints >= 0"),
    (lambda raw: _rewrite_header(raw, _set_count(2, True)),
     "checkpoint counts must be three ints >= 0"),
    (lambda raw: _rewrite_header(raw, _set("counts", [50, 60])),
     "checkpoint counts must be three ints >= 0, got [50, 60]"),
    (lambda raw: _rewrite_header(raw, _set_count(0, 10**20)),
     "truncated checkpoint"),
    (lambda raw: _rewrite_header(raw, _set_count(0, 2**62)),
     "truncated checkpoint"),
    (lambda raw: _rewrite_header(raw, _absurd_dims), "truncated checkpoint"),
    (lambda raw: _rewrite_header(raw, _set_config("tower_depth", 2)),
     "truncated checkpoint: the header's shapes take"),
    (lambda raw: _rewrite_header(raw, _set_config("embed_dim", 8.0)),
     "bad checkpoint config: embed_dim must be an int, got 8.0"),
    (lambda raw: _rewrite_header(raw, _set_config("tower_depth", True)),
     "bad checkpoint config: tower_depth must be an int, got True"),
    (lambda raw: _rewrite_header(raw, _set_config("pers_use_attrs",
                                                  "false")),
     "bad checkpoint config: pers_use_attrs must be a bool, got 'false'"),
    (lambda raw: _rewrite_header(raw, _set_config("subst_temp", math.nan)),
     "bad checkpoint config: subst_temp must be finite, got nan"),
    (lambda raw: _rewrite_header(raw, _set_config("learning_rate", -1.0)),
     "bad checkpoint config: learning_rate must be > 0"),
    (_nan_tensors("subst_proj", "pers_proj"),
     "checkpoint tensor 'subst_proj' holds non-finite values"),
    (lambda raw: raw[:-8] + np.float64(np.nan).tobytes(),
     "checkpoint item completion holds a value that is non-finite"),
    (lambda raw: _rewrite_header(raw, _set("format", 2)), "trailing bytes"),
], ids=["short_file", "nested_header", "long_count", "unknown_config_key",
        "string_config", "no_config", "no_counts", "format_1",
        "negative_count", "float_count", "bool_count", "missing_count",
        "rows_overflow_int64", "rows_wrap_int64", "absurd_dims",
        "wrong_shape", "float_embed_dim", "bool_tower_depth",
        "string_pers_use_attrs", "nan_subst_temp", "negative_learning_rate",
        "nan_projections", "nan_item_value", "format_2_with_items"])
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


@pytest.mark.parametrize("command, flags", [
    ("recommend", ("--user", "u003", "--query", "i012")),
    ("explain", ("--user", "u003", "--query", "i012")),
    ("evaluate", ())], ids=["recommend", "explain", "evaluate"])
def test_checkpoint_naming_rating_max_is_one_line_error(pipeline, tmp_path,
                                                       capsys, command,
                                                       flags):
    """Every checkpoint written while the rating scale was a setting holds
    "rating_max": 5.0 in its config. It is refused; the fix is a retrain."""
    stale = tmp_path / "stale.ckpt"
    with open(pipeline["ckpt"], "rb") as fh:
        stale.write_bytes(_rewrite_header(fh.read(),
                                          _set_config("rating_max", 5.0)))
    out = tmp_path / "out"
    assert cli_dispatch(_model_argv({**pipeline, "ckpt": str(stale)},
                                    command, out, *flags)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {stale}: bad checkpoint config: unknown key 'rating_max'"]
    assert not out.exists()


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
    its CRC-32 is valid, so only the check of the data length against the
    header, made before any allocation, can refuse it."""
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
    (_huge_test_member,
     "test.npy: 0 data bytes where the header declares 24000000000000"),
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
