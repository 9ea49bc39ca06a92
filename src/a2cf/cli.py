"""Command-line front end: corpus preparation, training, recommendation,
interpretation, evaluation, and synthetic-data generation.

Every command writing results takes --out-dir and uses fixed file names
(corpus.manifest, prepared.npz, model.ckpt, train.log, recs.tsv,
explanations.txt, metrics.txt) so runs are scriptable.

`train` leaves what training.train_pipeline writes to --out-dir: train.log,
then model.ckpt in checkpoint format 3, which ships the item completion of
the final params. `recommend`, `explain` and `evaluate` rebuild the
observed matrices from the prepared corpus, take the item rows from the
checkpoint and complete only the user rows they read: the requested user's
row, or every row for `evaluate`. They reject a format-2 checkpoint, such
as diagnostic.ckpt, and ask for a retrain.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import data, evaluation, ranking, training
from .config import (_RUN_FIELDS, _TRAIN_FIELDS, build_run_config,
                     parse_config_file)
from .interpret import attribute_advantage, render_interpretation
from .matrices import build_matrices
from .synthetic import SyntheticSpec, generate_synthetic

PREPARED_NAME = "prepared.npz"
MANIFEST_NAME = "corpus.manifest"
RECS_NAME = "recs.tsv"
EXPLAIN_NAME = "explanations.txt"
METRICS_NAME = "metrics.txt"


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """--config, --seed, then one override flag per other config field, in
    field order: --embed-dim sets embed_dim; a bool field gets a
    --x/--no-x pair."""
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int)
    grp = parser.add_argument_group("hyperparameter overrides")
    for name, typ in {**_TRAIN_FIELDS, **_RUN_FIELDS}.items():
        flag = "--" + name.replace("_", "-")
        if typ is bool:
            grp.add_argument(flag, action=argparse.BooleanOptionalAction,
                             default=None, dest=name)
        elif name != "seed":        # --seed is added above, outside the group
            grp.add_argument(flag, type=typ, dest=name)


def _run_config(args):
    file_overrides = parse_config_file(args.config) if args.config else {}
    return build_run_config(file_overrides, vars(args))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="a2cf",
        description="attribute-aware substitute recommendation")
    sub = parser.add_subparsers(dest="command", required=True)
    # the inputs and output of every command that reads a trained model
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--data", required=True)
    model.add_argument("--checkpoint", required=True)
    model.add_argument("--out-dir", required=True)
    # one ranking request
    request = argparse.ArgumentParser(add_help=False)
    request.add_argument("--user", required=True, help="user token")
    request.add_argument("--query", required=True, help="query item token")
    request.add_argument("--top-k", type=int, default=10)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="key=value config file (seed only)")
    p.add_argument("--users", type=int, default=SyntheticSpec.users)
    p.add_argument("--items", type=int, default=SyntheticSpec.items)
    p.add_argument("--attributes", type=int, default=SyntheticSpec.attributes)
    p.add_argument("--clusters", type=int, default=SyntheticSpec.clusters)
    p.add_argument("--interactions-per-user", type=int,
                   default=SyntheticSpec.interactions_per_user)
    p.add_argument("--noise", type=float, default=SyntheticSpec.noise)

    p = sub.add_parser("prepare", help="filter a corpus and build splits")
    p.add_argument("--reviews", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--substitutes", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--min-user-items", type=int, default=data.MIN_USER_ITEMS)
    p.add_argument("--min-item-users", type=int, default=data.MIN_ITEM_USERS)
    p.add_argument("--min-attr-mentions", type=int,
                   default=data.MIN_ATTR_MENTIONS)
    # the one run value preparation reads; a `train` config file still loads
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train", help="train a model on a prepared corpus")
    p.add_argument("--data", required=True, help="prepared.npz from `prepare`")
    p.add_argument("--out-dir", required=True)
    _add_config_flags(p)

    sub.add_parser("recommend", parents=[model, request],
                   help="rank substitute candidates")

    p = sub.add_parser("explain", parents=[model, request],
                       help="render attribute-level interpretations")
    p.add_argument("--top-attrs", "--z", type=int, default=3, dest="top_attrs",
                   help="attributes per rendered interpretation")

    p = sub.add_parser("evaluate", parents=[model],
                       help="run the ranking protocol on the test split")
    p.add_argument("--eval-negatives", type=int, default=1000)
    p.add_argument("--config", help="key=value config file (seed only)")
    p.add_argument("--seed", type=int)
    return parser


def _resolve_token(token: str, tokens: list, kind: str) -> int:
    try:
        return tokens.index(token)
    except ValueError:
        raise ValueError(f"unknown {kind} {token!r}") from None


def _check_counts(args, *flags) -> None:
    """Reject a count flag below 1 before any model is loaded."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")


def _clamp(name: str, requested: int, limit: int) -> int:
    """`requested`, or `limit` when it is smaller and at least 1; a clamp
    is reported on stdout in the form `evaluate` reports its negatives."""
    if not 1 <= limit < requested:
        return requested
    print(f"{name}={limit} requested={requested}")
    return limit


def _load_model(args):
    """The prepared corpus and splits, and the params, config and shipped
    item completion of a format-3 checkpoint."""
    corpus, splits = data.load_prepared(args.data)
    params, cfg, item_attr = training.load_checkpoint(args.checkpoint)
    if (params.user_emb.shape[0] != corpus.n_users
            or params.item_emb.shape[0] != corpus.n_items
            or params.attr_emb.shape[0] != corpus.n_attrs):
        raise ValueError("checkpoint dimensions do not match the prepared corpus")
    if item_attr is None:
        raise ValueError(f"{args.checkpoint}: a format-2 checkpoint holds no "
                         f"item completion; retrain with `a2cf train`")
    return corpus, splits, params, cfg, item_attr


def _estimate(corpus, params, cfg, item_attr, users=None):
    """The completed matrices: the item rows the checkpoint ships, and the
    user rows completed here, only the `users` rows when given (see
    ranking.estimate_matrices)."""
    user_obs, item_obs = build_matrices(corpus)
    if not ((item_attr == item_obs) | (item_obs == 0.0)).all():
        raise ValueError("checkpoint item completion does not match the "
                         "prepared corpus")
    return ranking.estimate_matrices(user_obs, item_obs, params, users,
                                     item_attr)


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(users=args.users, items=args.items,
                         attributes=args.attributes, clusters=args.clusters,
                         interactions_per_user=args.interactions_per_user,
                         noise=args.noise)
    paths = generate_synthetic(spec, _run_config(args).seed, args.out_dir)
    for name in ("reviews", "lexicon", "substitutes", "planted"):
        print(f"{name}: {paths[name]}")
    return 0


def _cmd_prepare(args) -> int:
    run = _run_config(args)
    reviews = data.load_reviews(args.reviews)
    lexicon = data.load_lexicon(args.lexicon)
    substitutes = data.load_substitutes(args.substitutes)
    corpus = data.filter_corpus(reviews, lexicon, substitutes,
                                args.min_user_items, args.min_item_users,
                                args.min_attr_mentions)
    t_seed, s_seed = np.random.SeedSequence(run.seed).spawn(2)
    triplets = data.build_triplets(corpus, np.random.default_rng(t_seed))
    splits = data.split_triplets(triplets, s_seed)
    os.makedirs(args.out_dir, exist_ok=True)
    prepared = os.path.join(args.out_dir, PREPARED_NAME)
    manifest = os.path.join(args.out_dir, MANIFEST_NAME)
    data.save_prepared(prepared, corpus, splits)
    # the rows preparation drops: repeated (user, item) reviews, interactions
    # no query can be drawn for, and test triplets that leak training pairs
    dropped = {
        "duplicate_review_pairs":
            len(reviews[0]) - len(set(zip(*reviews))),
        "interactions_without_query": len(corpus.interactions) - len(triplets),
        "leaked_test_triplets": len(triplets) - sum(
            len(part) for part in (splits.train, splits.valid, splits.test))}
    data.write_corpus_manifest(manifest, corpus, splits, dropped)
    print(f"prepared corpus: {prepared}")
    print(f"manifest: {manifest}")
    print(f"users={corpus.n_users} items={corpus.n_items} "
          f"attrs={corpus.n_attrs} train={len(splits.train)} "
          f"valid={len(splits.valid)} test={len(splits.test)}")
    return 0


def _cmd_train(args) -> int:
    run = _run_config(args)
    corpus, splits = data.load_prepared(args.data)
    result = training.train_pipeline(corpus, splits, run, args.out_dir)
    loss = "n/a" if result.final_loss is None else f"{result.final_loss:.6f}"
    print(f"checkpoint: {os.path.join(args.out_dir, training.CHECKPOINT_NAME)}")
    skipped = sum(entry["skipped_updates"] for entry in result.history)
    print(f"rounds={result.rounds_run} converged={result.converged} "
          f"mean_pair_loss={loss} skipped_updates={skipped}")
    return 0


def _rank_request(args):
    """Load the model and rank the --top-k substitutes of --query for
    --user; returns (corpus, est, user, query, ranked) once --out-dir
    exists. Both tokens resolve before the completion, which fills only
    the user's row of the user matrix."""
    corpus, _, params, cfg, item_attr = _load_model(args)
    user = _resolve_token(args.user, corpus.user_tokens, "user")
    query = _resolve_token(args.query, corpus.item_tokens, "item")
    est = _estimate(corpus, params, cfg, item_attr, users=[user])
    candidates = np.delete(np.arange(corpus.n_items), query)
    ranked = ranking.recommend_top_k(
        params, est, cfg, user, query, candidates,
        _clamp("top_k", args.top_k, len(candidates)))
    os.makedirs(args.out_dir, exist_ok=True)
    return corpus, est, user, query, ranked


def _cmd_recommend(args) -> int:
    _check_counts(args, "--top-k")
    corpus, _, _, _, ranked = _rank_request(args)
    path = os.path.join(args.out_dir, RECS_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        for rank, (item, score) in enumerate(zip(ranked.items, ranked.scores),
                                             start=1):
            fh.write(f"{args.user}\t{args.query}\t{rank}\t"
                     f"{corpus.item_tokens[item]}\t{score:.6f}\n")
    print(f"recommendations: {path}")
    return 0


def _cmd_explain(args) -> int:
    _check_counts(args, "--top-k", "--top-attrs")
    corpus, est, user, query, ranked = _rank_request(args)
    top_attrs = _clamp("top_attrs", args.top_attrs, corpus.n_attrs)
    lines = []
    for item in ranked.items:
        adv = attribute_advantage(est.user_attr[user], est.item_attr[query],
                                  est.item_attr[item])
        report = render_interpretation(adv, top_attrs, corpus.attr_tokens,
                                       args.query, corpus.item_tokens[item])
        lines.append(f"{args.user}\t{args.query}\t"
                     f"{corpus.item_tokens[item]}\t{report.text}\n")
    # rendered in full first, so a failure leaves an earlier file intact
    path = os.path.join(args.out_dir, EXPLAIN_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    print(f"explanations: {path}")
    return 0


def _cmd_evaluate(args) -> int:
    _check_counts(args, "--eval-negatives")
    seed = _run_config(args).seed
    corpus, splits, params, cfg, item_attr = _load_model(args)
    est = _estimate(corpus, params, cfg, item_attr)
    report = evaluation.evaluate_protocol(
        params, est, cfg, corpus, splits.test, seed=seed,
        negatives=args.eval_negatives)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, METRICS_NAME)
    evaluation.write_metrics_report(path, report)
    for name, value in report.metrics.items():
        print(f"{name}={value:.4f}")
    print(f"negatives={report.negatives} requested={report.requested}")
    print(f"metrics: {path}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "prepare": _cmd_prepare,
    "train": _cmd_train,
    "recommend": _cmd_recommend,
    "explain": _cmd_explain,
    "evaluate": _cmd_evaluate,
}


def cli_dispatch(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit code
    (2 for usage errors, 1 for runtime failures)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return 1
    except (OSError, ValueError, RuntimeError, FloatingPointError,
            AssertionError, MemoryError) as exc:
        # a bare MemoryError has no message; name it instead
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
