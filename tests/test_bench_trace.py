"""Every traced call site records a call in each stage that expects it.

bench/spans.py treats a site that records no call in a stage LAYERS names
as a failed traced run. This runs each CLI command once on the small
conftest corpus under the tracer, so a change that stops a site firing
fails here, not only in a traced bench run."""

import a2cf
import a2cf.cli
from a2cf.cli import cli_dispatch
from a2cf.data import load_prepared
from a2cf.matrices import build_matrices
from test_bench_sites import spans


def test_every_traced_site_fires_in_its_stages(synth_paths, tmp_path):
    prep, model, req = (str(tmp_path / name)
                        for name in ("prep", "model", "req"))
    data = f"{prep}/prepared.npz"
    consumer = ["--data", data, "--checkpoint", f"{model}/model.ckpt"]
    tracer = spans.Tracer(a2cf)

    def run(*argv):
        with tracer.span(f"cli.{argv[0]}"):
            assert cli_dispatch(list(argv)) == 0

    with tracer.install():
        run("prepare", "--reviews", synth_paths["reviews"],
            "--lexicon", synth_paths["lexicon"],
            "--substitutes", synth_paths["substitutes"],
            "--out-dir", prep, "--seed", "1")
        run("train", "--data", data, "--out-dir", model, "--seed", "1",
            "--embed-dim", "8", "--rounds-max", "1", "--phase1-steps", "5",
            "--phase2-steps", "5")
        run("evaluate", *consumer, "--out-dir", model,
            "--eval-negatives", "20")
        corpus, splits = load_prepared(data)
        user, query, _ = splits.test[0]
        # a request calls the user predictor only on its row's unobserved
        # cells, so network.predict_s fires in recommend and explain only
        # because this row has one
        assert not build_matrices(corpus)[0][user].all()
        request = [*consumer, "--out-dir", req,
                   "--user", corpus.user_tokens[user],
                   "--query", corpus.item_tokens[query]]
        run("recommend", *request)
        run("explain", *request)
    assert tracer.summary()[1] == []
