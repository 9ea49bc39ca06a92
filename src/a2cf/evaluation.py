"""Ranking metrics and the sampled-negative evaluation protocol."""

import logging
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .data import Corpus
from .interpret import attribute_advantage
from .network import ModelParams
from .ranking import EstimatedMatrices, score_candidates

logger = logging.getLogger(__name__)

MAP_TRUNCATION = 500


def hr_at_k(ranked_items, truth: int, k: int) -> float:
    """1.0 when the ground-truth item sits within the top k, else 0.0."""
    return _hit(_rank_of(ranked_items, truth), k)


def ndcg_at_k(ranked_items, truth: int, k: int) -> float:
    """Single-relevant NDCG: 1/log2(rank+1) within the cutoff, else 0."""
    return _ndcg(_rank_of(ranked_items, truth), k)


def _hit(rank: int, k: int) -> float:
    return 1.0 if rank <= k else 0.0


def _ndcg(rank: int, k: int) -> float:
    return 1.0 / float(np.log2(rank + 1)) if rank <= k else 0.0


def _rank_of(ranked_items, truth: int) -> int:
    ranked = np.asarray(ranked_items)
    hits = np.nonzero(ranked == truth)[0]
    if len(hits) == 0:
        raise ValueError(f"ground-truth item {truth} absent from the ranking")
    return int(hits[0]) + 1


def map_attributes(ranking, relevant, truncation: int = MAP_TRUNCATION) -> float:
    """Average precision of one attribute ranking against the mentioned set.

    Precision is accumulated at each relevant attribute found within the
    truncated prefix; the denominator is the full relevant-set size. An empty
    relevant set scores 0.
    """
    relevant = set(int(a) for a in relevant)
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for pos, attr in enumerate(np.asarray(ranking)[:truncation], start=1):
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
                      cutoffs: tuple = (5, 10, 20, 50),
                      truncation: int = MAP_TRUNCATION,
                      scorer=None) -> ProtocolReport:
    """Run the sampled-negative protocol over test triplets.

    Per case the positive competes against `negatives` uniform negatives
    (never the positive itself); when the corpus is too small the pool falls
    back to every other item, logged once. Each case draws its own generator
    from (seed, case index) so results do not depend on evaluation order.

    `scorer(user, query, candidates, rng)` overrides the model scorer, e.g.
    for calibration tests.
    """
    if len(test_triplets) == 0:
        raise ValueError("no test triplets to evaluate")
    if negatives < 1:
        raise ValueError(f"eval negatives must be >= 1, got {negatives}")
    n_items = corpus.n_items
    pool_size = negatives
    if n_items - 1 < negatives:
        pool_size = n_items - 1
        logger.warning("only %d candidate negatives available (requested %d); "
                       "using all items minus the positive", pool_size, negatives)
    if pool_size < 1:
        raise ValueError("need at least 2 items to evaluate")
    if scorer is None:
        if params is None or cfg is None:
            raise ValueError("model scoring needs params and cfg")
        scorer = lambda u, q, cands, rng: score_candidates(
            params, est, cfg, u, q, cands)
    rel = relevant_attributes(corpus, test_triplets[:, 0], test_triplets[:, 2])
    ks = sorted(cutoffs)
    hr_sums = {k: 0.0 for k in ks}
    ndcg_sums = {k: 0.0 for k in ks}
    map_cases = np.zeros(len(test_triplets))
    ndcg_full_cases = np.zeros(len(test_triplets))
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
        rank = 1 + int(np.count_nonzero(ahead))
        for k in ks:
            hr_sums[k] += _hit(rank, k)
            ndcg_sums[k] += _ndcg(rank, k)
        adv = attribute_advantage(est.user_attr[u], est.item_attr[q],
                                  est.item_attr[p], user=u, query=q, item=p)
        map_cases[idx] = map_attributes(adv.ranking, rel[idx], truncation)
        ndcg_full_cases[idx] = _ndcg(rank, len(candidates))
    n = len(test_triplets)
    metrics = {}
    for k in ks:
        metrics[f"HR@{k}"] = hr_sums[k] / n
    for k in ks:
        metrics[f"NDCG@{k}"] = ndcg_sums[k] / n
    metrics["ATC"] = atc(map_cases, ndcg_full_cases)
    return ProtocolReport(metrics=metrics, cases=n, negatives=pool_size,
                          requested=negatives)


def write_metrics_report(path: str, report: ProtocolReport) -> None:
    """Write metric lines as name=value with 4 decimal places."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, value in report.metrics.items():
            fh.write(f"{name}={value:.4f}\n")
