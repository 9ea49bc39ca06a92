"""Completion of the attribute matrices and the substitute ranking model.

Scoring blends two heads:
  substitution      w_s . [v_q * v_j ; agg_s]   (query/candidate interaction)
  personalization   w_p . [u_i * v_j ; agg_p]   (user/candidate interaction)
where agg_* are attention-weighted sums of attribute embeddings driven by the
completed attribute matrices. Either aggregated block can be ablated away, in
which case the projection covers only the product term.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .config import TrainConfig
from .data import Corpus
from .matrices import SparseAttributeMatrix
from .network import (ModelParams, predict_item_attr_batch,
                      predict_user_attr_batch, scatter_rows)

logger = logging.getLogger(__name__)

NEGATIVE_SAMPLE_FACTOR = 1000   # rejection budget per requested negative
_ESTIMATE_CHUNK = 4096          # max cells regressed per forward pass


@dataclass
class EstimatedMatrices:
    """Dense completions: observed cells verbatim, absent cells regressed."""

    user_attr: np.ndarray       # (n_users, n_attrs)
    item_attr: np.ndarray       # (n_items, n_attrs)


def _complete(sparse: SparseAttributeMatrix, predict,
              params: ModelParams) -> np.ndarray:
    dense = sparse.to_dense()
    cells = np.nonzero(~sparse.observed_mask())
    for start in range(0, len(cells[0]), _ESTIMATE_CHUNK):
        r, c = (idx[start:start + _ESTIMATE_CHUNK] for idx in cells)
        dense[r, c] = predict(params, r, c, sparse.scale_cap)
    return dense


def estimate_matrices(user_mat: SparseAttributeMatrix,
                      item_mat: SparseAttributeMatrix,
                      params: ModelParams) -> EstimatedMatrices:
    """Fill every unobserved cell with the eval-mode tower regression.

    Observed cells are copied bit-for-bit from the sparse inputs.
    """
    return EstimatedMatrices(
        user_attr=_complete(user_mat, predict_user_attr_batch, params),
        item_attr=_complete(item_mat, predict_item_attr_batch, params))


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def attention(a_row: np.ndarray, b_row: np.ndarray, temp: float) -> np.ndarray:
    """Attention over attributes from two completed attribute rows: a query
    and a candidate item row (substitution head), or a user and a candidate
    item row (personalization head). Rows may be batched along axis 0."""
    return softmax((a_row * b_row) / temp, axis=-1)


def aggregate_attributes(weights: np.ndarray, attr_emb: np.ndarray) -> np.ndarray:
    """Convex combination of attribute embeddings; weights sum to 1 per row."""
    if weights.shape[-1] != attr_emb.shape[0]:
        raise ValueError(f"weights cover {weights.shape[-1]} attributes, "
                         f"embedding table has {attr_emb.shape[0]}")
    return weights @ attr_emb


def _score_rows(params: ModelParams, est: EstimatedMatrices, cfg: TrainConfig,
                users: np.ndarray, queries: np.ndarray, items: np.ndarray):
    """Blended scores for row-aligned (user, query, candidate) triples.

    Returns (scores, cache) with everything backward needs.
    """
    d = params.embed_dim
    w_s, w_p = params.subst_proj, params.pers_proj
    v_q = params.item_emb[queries]
    v_j = params.item_emb[items]
    u_i = params.user_emb[users]

    y_q = est.item_attr[queries]
    y_j = est.item_attr[items]
    phi = attention(y_q, y_j, cfg.subst_temp)
    f_s = (v_q * v_j) @ w_s[:d]
    agg_s = agg_p = None
    if cfg.subst_use_attrs:
        agg_s = phi @ params.attr_emb
        f_s = f_s + agg_s @ w_s[d:]

    x_i = est.user_attr[users]
    lam = attention(x_i, y_j, cfg.pers_temp)
    f_p = (u_i * v_j) @ w_p[:d]
    if cfg.pers_use_attrs:
        agg_p = lam @ params.attr_emb
        f_p = f_p + agg_p @ w_p[d:]

    g = cfg.subst_weight
    scores = g * f_s + (1.0 - g) * f_p
    cache = (users, queries, items, u_i, v_q, v_j, phi, lam, agg_s, agg_p)
    return scores, cache


def _score_rows_backward(params: ModelParams, cfg: TrainConfig, parts,
                         grads: ModelParams) -> None:
    """Accumulate d(sum_b upstream_b * score_b)/d(params) into `grads`, summed
    over `parts`, a sequence of (cache, upstream) pairs.

    The embedding-row contributions of all parts are gathered and scattered
    with one ordered bincount per tensor, so each row sums them in the order
    np.add.at would, part by part. Completed matrix rows are constants here
    by contract: the estimation step is refreshed between phases, not
    differentiated through.
    """
    d = params.embed_dim
    w_s, w_p = params.subst_proj, params.pers_proj
    item_rows, item_grads, user_rows, user_grads = [], [], [], []
    for cache, upstream in parts:
        users, queries, items, u_i, v_q, v_j, phi, lam, agg_s, agg_p = cache
        g_s = (upstream * cfg.subst_weight)[:, None]
        g_p = (upstream * (1.0 - cfg.subst_weight))[:, None]

        grads.subst_proj[:d] += (g_s * (v_q * v_j)).sum(axis=0)
        item_rows += [queries, items]
        item_grads += [g_s * (w_s[:d] * v_j), g_s * (w_s[:d] * v_q)]
        if cfg.subst_use_attrs:
            grads.subst_proj[d:] += (g_s * agg_s).sum(axis=0)
            grads.attr_emb += phi.T @ (g_s * w_s[None, d:])

        grads.pers_proj[:d] += (g_p * (u_i * v_j)).sum(axis=0)
        user_rows.append(users)
        user_grads.append(g_p * (w_p[:d] * v_j))
        item_rows.append(items)
        item_grads.append(g_p * (w_p[:d] * u_i))
        if cfg.pers_use_attrs:
            grads.pers_proj[d:] += (g_p * agg_p).sum(axis=0)
            grads.attr_emb += lam.T @ (g_p * w_p[None, d:])
    grads.item_emb += scatter_rows(len(grads.item_emb), item_rows, item_grads)
    grads.user_emb += scatter_rows(len(grads.user_emb), user_rows, user_grads)


def score_substitution(query: int, item: int, params: ModelParams,
                       est: EstimatedMatrices, cfg: TrainConfig) -> float:
    """Substitution head alone for one (query, candidate) pair."""
    d = params.embed_dim
    w_s = params.subst_proj
    val = float((params.item_emb[query] * params.item_emb[item]) @ w_s[:d])
    if cfg.subst_use_attrs:
        phi = attention(est.item_attr[query], est.item_attr[item],
                        cfg.subst_temp)
        val += float(aggregate_attributes(phi, params.attr_emb) @ w_s[d:])
    return val


def score_personalization(user: int, item: int, params: ModelParams,
                          est: EstimatedMatrices, cfg: TrainConfig) -> float:
    """Personalization head alone for one (user, candidate) pair."""
    d = params.embed_dim
    w_p = params.pers_proj
    val = float((params.user_emb[user] * params.item_emb[item]) @ w_p[:d])
    if cfg.pers_use_attrs:
        lam = attention(est.user_attr[user], est.item_attr[item],
                        cfg.pers_temp)
        val += float(aggregate_attributes(lam, params.attr_emb) @ w_p[d:])
    return val


def triplet_score(user: int, query: int, item: int, params: ModelParams,
                  est: EstimatedMatrices, cfg: TrainConfig) -> float:
    """Convex blend of the two heads for one candidate."""
    g = cfg.subst_weight
    return (g * score_substitution(query, item, params, est, cfg)
            + (1.0 - g) * score_personalization(user, item, params, est, cfg))


def score_candidates(params: ModelParams, est: EstimatedMatrices,
                     cfg: TrainConfig, user: int, query: int,
                     items: np.ndarray) -> np.ndarray:
    """Vectorized triplet_score over a candidate array."""
    items = np.asarray(items, dtype=np.int64)
    users = np.full(len(items), user, dtype=np.int64)
    queries = np.full(len(items), query, dtype=np.int64)
    scores, _ = _score_rows(params, est, cfg, users, queries, items)
    return scores


def sample_negatives(users: np.ndarray, queries: np.ndarray, corpus: Corpus,
                     count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` negatives per (user, query) row, uniformly over items,
    rejecting only candidates that are both interacted by the user and
    substitutes of the query. Returns a (len(users), count) array.

    The result and the rng state afterwards are those of drawing one item at
    a time with rng.integers(n_items), row after row, until each row has
    `count` accepted: one rng call draws every slot still missing, and after
    a rejection the later draws move one slot on.

    Raises RuntimeError once a row has spent its rejection budget
    (NEGATIVE_SAMPLE_FACTOR per requested negative).
    """
    users = np.asarray(users, dtype=np.int64)
    queries = np.asarray(queries, dtype=np.int64)
    bought, subst = corpus.sampling_tables
    n_items = corpus.n_items
    forbidden = (bought[users] & subst[queries]).ravel()
    total = len(users) * count
    out = np.empty(total, dtype=np.int64)
    budget = NEGATIVE_SAMPLE_FACTOR * count
    filled = 0      # slots fill in row-major order; first empty slot
    spent = 0       # draws already made for the row of slot `filled`
    while filled < total:
        # never draw past the point where the current row's budget runs out
        size = min(total - filled, budget - spent)
        draws = rng.integers(n_items, size=size)
        # A draw's slot depends on the rejections before it, and whether it
        # is rejected depends on its slot's row. Iterate to the fixed point:
        # each pass settles at least one more draw.
        unshifted = filled + np.arange(size)
        rejected = np.zeros(size, dtype=bool)
        while True:
            slot = unshifted - (np.cumsum(rejected) - rejected)
            row = slot // count
            now = forbidden[row * n_items + draws]
            if np.array_equal(now, rejected):
                break
            rejected = now
        out[slot[~rejected]] = draws[~rejected]
        first_row = filled // count
        filled += size - int(rejected.sum())
        cur = filled // count
        spent = ((spent if cur == first_row else 0)
                 + int(np.count_nonzero(row == cur)))
        if spent >= budget:
            raise RuntimeError(
                f"negative sampling for user {users[cur]}, query "
                f"{queries[cur]} exhausted {budget} draws; corpus too "
                f"degenerate")
    return out.reshape(len(users), count)


def _bpr_s_forward(params: ModelParams, est: EstimatedMatrices,
                   cfg: TrainConfig, users: np.ndarray, queries: np.ndarray,
                   positives: np.ndarray, negatives: np.ndarray):
    """(loss, margins, positive cache, negative cache) for row-aligned
    quadruples; the loss sums -log sigmoid(score(i,q,j+) - score(i,q,j-)),
    overflow-safe."""
    pos_scores, pos_cache = _score_rows(params, est, cfg, users, queries, positives)
    neg_scores, neg_cache = _score_rows(params, est, cfg, users, queries, negatives)
    margins = pos_scores - neg_scores
    loss = float(np.logaddexp(0.0, -margins).sum())
    return loss, margins, pos_cache, neg_cache


def bpr_s_loss(params: ModelParams, est: EstimatedMatrices, cfg: TrainConfig,
               users: np.ndarray, queries: np.ndarray,
               positives: np.ndarray, negatives: np.ndarray) -> float:
    """Summed pairwise logistic loss over row-aligned quadruples."""
    return _bpr_s_forward(params, est, cfg, users, queries, positives,
                          negatives)[0]


def bpr_s_forward_backward(params: ModelParams, est: EstimatedMatrices,
                           cfg: TrainConfig, users: np.ndarray,
                           queries: np.ndarray, positives: np.ndarray,
                           negatives: np.ndarray):
    """Loss plus analytic gradients for one quadruple batch."""
    loss, margins, pos_cache, neg_cache = _bpr_s_forward(
        params, est, cfg, users, queries, positives, negatives)
    # d/dm of softplus(-m) is sigmoid(m) - 1
    up_pos = expit(margins) - 1.0
    grads = ModelParams.zeros_like(params)
    _score_rows_backward(params, cfg,
                         ((pos_cache, up_pos), (neg_cache, -up_pos)), grads)
    return loss, grads


def rank_order(scores: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Positions that sort `scores` descending, ties toward the smaller id."""
    return np.lexsort((ids, -scores))


@dataclass
class RankedList:
    user: int
    query: int
    items: np.ndarray
    scores: np.ndarray


def recommend_top_k(params: ModelParams, est: EstimatedMatrices,
                    cfg: TrainConfig, user: int, query: int,
                    candidates: np.ndarray, k: int) -> RankedList:
    """Rank candidates by blended score, descending; ties break toward the
    smaller item index. Duplicates in `candidates` are collapsed."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cands = np.unique(np.asarray(candidates, dtype=np.int64))
    if len(cands) == 0:
        raise ValueError("empty candidate set")
    scores = score_candidates(params, est, cfg, user, query, cands)
    take = rank_order(scores, cands)[:k]
    return RankedList(user=user, query=query, items=cands[take],
                      scores=scores[take])
