"""Ranking metrics and the sampled-negative evaluation protocol."""

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .data import Corpus
from .interpret import attribute_advantage
from .network import ModelParams
from .ranking import EstimatedMatrices, score_candidates

MAP_TRUNCATION = 500
CUTOFFS = (5, 10, 20, 50)       # ascending; the HR@k and NDCG@k reported


def hr_at_k(ranked_items, truth: int, k: int) -> float:
    """1.0 when the ground-truth item sits within the top k, else 0.0."""
    return float(_rank_of(ranked_items, truth) <= k)


def ndcg_at_k(ranked_items, truth: int, k: int) -> float:
    """Single-relevant NDCG: 1/log2(rank+1) within the cutoff, else 0."""
    return float(_ndcg(_rank_of(ranked_items, truth), k))


def _ndcg(ranks, k: int) -> np.ndarray:
    """1/log2(rank+1) for each of `ranks` within the cutoff k, else 0."""
    return np.where(ranks <= k, 1.0 / np.log2(ranks + 1), 0.0)


def _rank_of(ranked_items, truth: int) -> int:
    ranked = np.asarray(ranked_items)
    hits = np.nonzero(ranked == truth)[0]
    if len(hits) == 0:
        raise ValueError(f"ground-truth item {truth} absent from the ranking")
    return int(hits[0]) + 1


def map_attributes(ranking, relevant) -> float:
    """Average precision of one attribute ranking against the mentioned set.

    Precision is accumulated at each relevant attribute found within the
    first MAP_TRUNCATION positions; the denominator is the full relevant-set
    size. An empty relevant set scores 0.
    """
    relevant = set(int(a) for a in relevant)
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for pos, attr in enumerate(np.asarray(ranking)[:MAP_TRUNCATION], start=1):
        if int(attr) in relevant:
            hits += 1
            total += hits / pos
    return total / len(relevant)


def atc(map_scores, ndcg_scores) -> float:
    """Mean per-case harmonic mean of an accuracy score and an
    interpretation score; a (0, 0) case contributes 0."""
    map_scores = np.asarray(map_scores, dtype=np.float64)
    ndcg_scores = np.asarray(ndcg_scores, dtype=np.float64)
    if map_scores.shape != ndcg_scores.shape or map_scores.ndim != 1:
        raise ValueError("score arrays must be 1-D and aligned")
    if len(map_scores) == 0:
        raise ValueError("no cases to aggregate")
    sums = map_scores + ndcg_scores
    prods = 2.0 * map_scores * ndcg_scores
    safe = np.where(sums > 0.0, sums, 1.0)
    return float(np.mean(np.where(sums > 0.0, prods / safe, 0.0)))


def sample_negative_pool(rng: np.random.Generator, n_items: int,
                         exclude: int, count: int) -> np.ndarray:
    """Uniform sample without replacement from all items except `exclude`."""
    if count > n_items - 1:
        raise ValueError(f"cannot draw {count} negatives from {n_items - 1} items")
    drawn = rng.choice(n_items - 1, size=count, replace=False)
    return np.where(drawn >= exclude, drawn + 1, drawn).astype(np.int64)


def relevant_attributes(corpus: Corpus, users: np.ndarray,
                        items: np.ndarray) -> list:
    """Per (users[c], items[c]) pair, the attribute ids the lexicon mentions
    for it, repeats included, found by binary search over the lexicon's
    sorted user * n_items + item keys."""
    lexicon = np.reshape(corpus.lexicon, (-1, 4))
    keys = lexicon[:, 0] * corpus.n_items + lexicon[:, 1]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    wanted = np.asarray(users) * corpus.n_items + np.asarray(items)
    lo = np.searchsorted(keys, wanted, side="left")
    hi = np.searchsorted(keys, wanted, side="right")
    return [lexicon[order[a:b], 2] for a, b in zip(lo, hi)]


@dataclass
class ProtocolReport:
    metrics: dict                   # name -> float, in output order
    cases: int
    negatives: int                  # negatives each case really ranked against
    requested: int                  # negatives asked for


def evaluate_protocol(params: ModelParams | None, est: EstimatedMatrices,
                      cfg: TrainConfig | None, corpus: Corpus,
                      test_triplets: np.ndarray, seed: int,
                      negatives: int = 1000,
                      scorer=None) -> ProtocolReport:
    """Run the sampled-negative protocol over test triplets.

    Per case the positive competes against `negatives` uniform negatives
    (never the positive itself); when the corpus is too small the pool falls
    back to every other item, and the report's `negatives` says so. It
    reports HR@k and NDCG@k for each k in CUTOFFS, then ATC. Each
    case draws its own generator from (seed, case index) so results do not
    depend on evaluation order.

    `scorer(user, query, candidates, rng)` overrides the model scorer, e.g.
    for calibration tests.
    """
    if len(test_triplets) == 0:
        raise ValueError("no test triplets to evaluate")
    if negatives < 1:
        raise ValueError(f"eval negatives must be >= 1, got {negatives}")
    n_items = corpus.n_items
    pool_size = min(negatives, n_items - 1)
    if pool_size < 1:
        raise ValueError("need at least 2 items to evaluate")
    if scorer is None:
        if params is None or cfg is None:
            raise ValueError("model scoring needs params and cfg")
        scorer = lambda u, q, cands, rng: score_candidates(
            params, est, cfg, u, q, cands)
    ranks = np.empty(len(test_triplets), dtype=np.int64)
    for idx, (u, q, p) in enumerate(test_triplets):
        u, q, p = int(u), int(q), int(p)
        rng = np.random.default_rng([seed, idx])
        pool = sample_negative_pool(rng, n_items, p, pool_size)
        candidates = np.concatenate(([p], pool))
        scores = np.asarray(scorer(u, q, candidates, rng), dtype=np.float64)
        # rank of p under ranking.rank_order: score descending, ties toward
        # the smaller id, NaN scores last
        s_p = scores[0]
        if np.isnan(s_p):
            ahead = ~np.isnan(scores) | (candidates < p)
        else:
            ahead = (scores > s_p) | ((scores == s_p) & (candidates < p))
        ranks[idx] = 1 + np.count_nonzero(ahead)
    users, queries, positives = test_triplets.T
    adv = attribute_advantage(est.user_attr[users], est.item_attr[queries],
                              est.item_attr[positives])
    map_cases = [map_attributes(row, rel) for row, rel in zip(
        adv.ranking, relevant_attributes(corpus, users, positives))]
    metrics = {f"HR@{k}": float(np.mean(ranks <= k)) for k in CUTOFFS}
    metrics.update({f"NDCG@{k}": float(_ndcg(ranks, k).mean())
                    for k in CUTOFFS})
    metrics["ATC"] = atc(map_cases, _ndcg(ranks, pool_size + 1))
    return ProtocolReport(metrics=metrics, cases=len(ranks), negatives=pool_size,
                          requested=negatives)


def write_metrics_report(path: str, report: ProtocolReport) -> None:
    """Write metric lines as name=value with 4 decimal places."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, value in report.metrics.items():
            fh.write(f"{name}={value:.4f}\n")
