"""Train on a planted synthetic corpus and inspect what the model learned.

Generates a corpus whose substitute clusters and user tastes are known,
runs the two-phase loop, reports ranking metrics against the planted
ground truth, and prints rendered trade-off sentences for one query.
"""

import argparse
import tempfile

import numpy as np

from a2cf.config import RunConfig, TrainConfig
from a2cf.data import (build_triplets, filter_corpus, load_lexicon,
                       load_reviews, load_substitutes, split_triplets)
from a2cf.evaluation import evaluate_protocol
from a2cf.interpret import attribute_advantage, render_interpretation
from a2cf.ranking import recommend_top_k
from a2cf.synthetic import SyntheticSpec, generate_synthetic
from a2cf.training import train_pipeline


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--users", type=int, default=50)
    ap.add_argument("--items", type=int, default=60)
    ap.add_argument("--attributes", type=int, default=20)
    ap.add_argument("--clusters", type=int, default=10)
    ap.add_argument("--embed-dim", type=int, default=8)
    ap.add_argument("--phase1-steps", type=int, default=300)
    ap.add_argument("--phase2-steps", type=int, default=200)
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--seed", type=int, default=11)
    return ap.parse_args()


def main():
    args = parse_args()
    spec = SyntheticSpec(users=args.users, items=args.items,
                         attributes=args.attributes, clusters=args.clusters)
    with tempfile.TemporaryDirectory() as work:
        paths = generate_synthetic(spec, args.seed, work)
        corpus = filter_corpus(load_reviews(paths["reviews"]),
                               load_lexicon(paths["lexicon"]),
                               load_substitutes(paths["substitutes"]))
    print(f"corpus: {corpus.n_users} users, {corpus.n_items} items, "
          f"{corpus.n_attrs} attributes, "
          f"{len(corpus.interactions)} interactions")

    rng = np.random.default_rng(args.seed + 1)
    triplets = build_triplets(corpus, rng)
    splits = split_triplets(triplets, args.seed + 2)
    print(f"triplets: {len(splits.train)} train / {len(splits.valid)} valid "
          f"/ {len(splits.test)} test")

    cfg = TrainConfig(embed_dim=args.embed_dim, subst_weight=0.8,
                      subst_temp=8.0, pers_temp=4.0, dropout=0.4)
    run = RunConfig(train=cfg, seed=args.seed, rounds_max=args.rounds,
                    phase1_steps=args.phase1_steps,
                    phase2_steps=args.phase2_steps, convergence_tol=0.0)
    result = train_pipeline(corpus, splits, run)

    p1 = np.array(result.history[0]["losses"])
    w = max(1, len(p1) // 5)
    means = [p1[i * w:(i + 1) * w].mean() for i in range(5)]
    print("phase-1 loss, window means:",
          " -> ".join(f"{m:.1f}" for m in means))
    print(f"final mean pair loss: {result.final_loss:.4f} "
          f"after {result.rounds_run} round(s)")

    report = evaluate_protocol(result.params, result.est, cfg, corpus,
                               splits.test, seed=args.seed + 9000,
                               negatives=1000)
    print("\nranking metrics over", report.cases, "held-out cases:")
    for name, value in report.metrics.items():
        print(f"  {name} = {value:.4f}")

    user, query, _ = (int(x) for x in splits.test[0])
    candidates = np.delete(np.arange(corpus.n_items), query)
    ranked = recommend_top_k(result.params, result.est, cfg, user, query,
                             candidates, 5)
    print(f"\ntop substitutes for user {corpus.user_tokens[user]} "
          f"browsing {corpus.item_tokens[query]}:")
    for item, score in zip(ranked.items, ranked.scores):
        adv = attribute_advantage(result.est.user_attr[user],
                                  result.est.item_attr[query],
                                  result.est.item_attr[item])
        sentence = render_interpretation(adv, 3, corpus.attr_tokens,
                                         corpus.item_tokens[query],
                                         corpus.item_tokens[item])
        print(f"  {corpus.item_tokens[item]} ({score:+.4f}): {sentence.text}")


if __name__ == "__main__":
    main()
