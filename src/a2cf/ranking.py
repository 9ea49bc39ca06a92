"""Completion of the attribute matrices and the substitute ranking model.

Scoring blends two heads, each w . [product ; attn @ E] with E the attribute
embedding table and attn an attention over completed attribute rows:
  substitution      (v_q * v_j) @ w_s[:d] + phi @ (E @ w_s[d:])
  personalization   (u_i * v_j) @ w_p[:d] + lam @ (E @ w_p[d:])
The attribute block is computed as (e @ (E @ w[d:])) / z, with e the
row-max-shifted exponentials of the attention logits and z their row sums,
so neither the normalized (rows, attrs) attention nor the (rows, d)
aggregate attn @ E is formed. Either block can be ablated away, leaving only
the product term.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .config import TrainConfig
from .data import Corpus
from .matrices import SparseAttributeMatrix
from .network import (ModelParams, predict_item_attr_batch,
                      predict_user_attr_batch, scatter_rows)

NEGATIVE_SAMPLE_FACTOR = 1000   # rejection budget per requested negative


@dataclass
class EstimatedMatrices:
    """Dense completions: observed cells verbatim, absent cells regressed."""

    user_attr: np.ndarray       # (n_users, n_attrs)
    item_attr: np.ndarray       # (n_items, n_attrs)


def _complete(sparse: SparseAttributeMatrix, predict, params: ModelParams,
              rows=None) -> np.ndarray:
    """`sparse` densified, its unobserved cells (of `rows` only, every other
    row NaN, when given) regressed in one row-major predictor call, if any."""
    dense, unobserved = sparse.to_dense(), ~sparse.observed_mask()
    if rows is not None:
        other = np.isin(np.arange(len(dense)), rows, invert=True)
        dense[other], unobserved[other] = np.nan, False
    r, c = np.nonzero(unobserved)
    if len(r):
        dense[r, c] = predict(params, r, c, sparse.scale_cap)
    return dense


def estimate_matrices(user_mat: SparseAttributeMatrix,
                      item_mat: SparseAttributeMatrix,
                      params: ModelParams, users=None,
                      item_attr=None) -> EstimatedMatrices:
    """Fill every unobserved cell with the eval-mode tower regression, one
    predictor call per matrix that has one; observed cells are copied
    bit-for-bit.

    `users` limits the user matrix to those rows, for a caller that reads
    no other: only their unobserved cells are regressed, with the bits of
    the full completion (network module docstring), and every other user
    row is NaN. None completes every row. An id that is not an integer in
    [0, n_users) raises ValueError.

    `item_attr`, an item completion of these params such as the one a
    format-3 checkpoint ships, is taken as the item matrix instead of
    completing it; a shape other than item_mat's raises ValueError.
    """
    if users is not None:
        n_users = user_mat.shape[0]
        bad = [u for u in np.asarray(users).ravel().tolist()
               if type(u) is not int or not 0 <= u < n_users]
        if bad:
            raise ValueError(f"users must be integers in [0, {n_users}), "
                             f"got {bad}")
    if item_attr is not None and item_attr.shape != item_mat.shape:
        raise ValueError(f"item_attr has shape {item_attr.shape}, the item "
                         f"matrix {item_mat.shape}")
    user_attr = _complete(user_mat, predict_user_attr_batch, params, users)
    if item_attr is None:
        item_attr = _complete(item_mat, predict_item_attr_batch, params)
    return EstimatedMatrices(user_attr=user_attr, item_attr=item_attr)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by its max for stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def attention(a_row: np.ndarray, b_row: np.ndarray, temp: float) -> np.ndarray:
    """Attention over attributes from two completed attribute rows: a query
    and a candidate item row (substitution head), or a user and a candidate
    item row (personalization head). Rows may be batched along axis 0."""
    return softmax((a_row * b_row) / temp)


def aggregate_attributes(weights: np.ndarray, attr_emb: np.ndarray) -> np.ndarray:
    """Convex combination of attribute embeddings; weights sum to 1 per row."""
    if weights.shape[-1] != attr_emb.shape[0]:
        raise ValueError(f"weights cover {weights.shape[-1]} attributes, "
                         f"embedding table has {attr_emb.shape[0]}")
    return weights @ attr_emb


def _attend(a_row: np.ndarray, b_row: np.ndarray, temp: float):
    """attention(a_row, b_row, temp) before its division: (e, z) with
    e = exp(l - max l) per row for l = (a_row * b_row) / temp, and
    z = e.sum(-1), so that attention is e / z[..., None]."""
    e = a_row * b_row
    e /= temp
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    return e, e.sum(axis=-1)


def _head(a: np.ndarray, b: np.ndarray, attn, w: np.ndarray,
          attr_emb: np.ndarray) -> np.ndarray:
    """w . [a * b ; attn @ attr_emb] per row, for attn = (e, z) from
    _attend, with the attribute block taken as (e @ (attr_emb @ w[d:])) / z;
    attn None ablates that block."""
    d = a.shape[-1]
    score = (a * b) @ w[:d]
    if attn is not None:
        e, z = attn
        score = score + (e @ (attr_emb @ w[d:])) / z
    return score


def _head_backward(a: np.ndarray, b: np.ndarray, attn, w: np.ndarray,
                   attr_emb: np.ndarray, g: np.ndarray, w_grad: np.ndarray,
                   attr_grad: np.ndarray):
    """Add the gradients of sum(g * _head(a, b, attn, w, attr_emb)) for w and
    attr_emb into w_grad and attr_grad; return the row gradients for a, b."""
    d = a.shape[-1]
    w_grad[:d] += g @ (a * b)
    if attn is not None:
        e, z = attn
        attn_g = e.T @ (g / z)
        w_grad[d:] += attn_g @ attr_emb
        attr_grad += np.outer(attn_g, w[d:])
    g = g[:, None]
    return g * (w[:d] * b), g * (w[:d] * a)


def _score_rows(params: ModelParams, est: EstimatedMatrices, cfg: TrainConfig,
                users: np.ndarray, queries: np.ndarray, items: np.ndarray):
    """Blended scores for row-aligned (user, query, candidate) triples; a
    scalar user or query is paired with every candidate.

    Returns (scores, cache) with everything backward needs.
    """
    v_q = params.item_emb[queries]
    v_j = params.item_emb[items]
    u_i = params.user_emb[users]
    y_j = est.item_attr[items]
    phi = (_attend(est.item_attr[queries], y_j, cfg.subst_temp)
           if cfg.subst_use_attrs else None)
    lam = (_attend(est.user_attr[users], y_j, cfg.pers_temp)
           if cfg.pers_use_attrs else None)
    g = cfg.subst_weight
    scores = (g * _head(v_q, v_j, phi, params.subst_proj, params.attr_emb)
              + (1.0 - g) * _head(u_i, v_j, lam, params.pers_proj,
                                  params.attr_emb))
    return scores, (users, queries, items, u_i, v_q, v_j, phi, lam)


def _score_rows_backward(params: ModelParams, cfg: TrainConfig, cache,
                         upstream: np.ndarray, grads: ModelParams) -> None:
    """Accumulate d(sum_b upstream_b * score_b)/d(params) into `grads`.

    The embedding-row contributions are scattered with one ordered bincount
    per tensor, so each row sums them in the order np.add.at would: query,
    candidate (substitution head), then user, candidate (personalization
    head). Completed matrix rows are constants here by contract: the
    estimation step is refreshed between phases, not differentiated through.
    """
    users, queries, items, u_i, v_q, v_j, phi, lam = cache
    g_q, g_js = _head_backward(v_q, v_j, phi, params.subst_proj,
                               params.attr_emb, upstream * cfg.subst_weight,
                               grads.subst_proj, grads.attr_emb)
    g_u, g_jp = _head_backward(u_i, v_j, lam, params.pers_proj,
                               params.attr_emb,
                               upstream * (1.0 - cfg.subst_weight),
                               grads.pers_proj, grads.attr_emb)
    grads.item_emb[...] += scatter_rows(len(grads.item_emb),
                                        [queries, items, items],
                                        [g_q, g_js, g_jp])
    grads.user_emb[...] += scatter_rows(len(grads.user_emb), [users], [g_u])


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
    return _score_rows(params, est, cfg, user, query,
                       np.asarray(items, dtype=np.int64))[0]


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


def bpr_s_forward_backward(params: ModelParams, est: EstimatedMatrices,
                           cfg: TrainConfig, users: np.ndarray,
                           queries: np.ndarray, positives: np.ndarray,
                           negatives: np.ndarray,
                           grads: ModelParams | None = None):
    """(loss, gradients) for row-aligned (user, query, positive) triples,
    each against its row of `negatives`, shape (n, k) or, for k = 1, (n,).
    The loss sums -log sigmoid(score(i,q,j+) - score(i,q,j-)) over every
    (triple, negative) pair, overflow-safe; each positive is scored once.
    The gradients go into `grads`, zeroed first, when given, else into a
    new buffer."""
    n, negatives = len(users), np.asarray(negatives)
    if negatives.ndim not in (1, 2) or len(negatives) != n:
        raise ValueError(f"negatives must have shape ({n},) or ({n}, k), "
                         f"got {negatives.shape}")
    k = negatives.shape[1] if negatives.ndim == 2 else 1
    rows = [np.concatenate([x, np.repeat(x, k)]) for x in (users, queries)]
    scores, cache = _score_rows(params, est, cfg, *rows,
                                np.concatenate([positives, negatives.ravel()]))
    margins = scores[:n, None] - scores[n:].reshape(n, k)
    loss = float(np.logaddexp(0.0, -margins).sum())
    # d/dm of softplus(-m) is sigmoid(m) - 1, summed per positive over k
    up = expit(margins) - 1.0
    grads = ModelParams.zeros_like(params, out=grads)
    _score_rows_backward(params, cfg, cache,
                         np.concatenate([up.sum(axis=1), -up.ravel()]), grads)
    return loss, grads


def rank_order(scores: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Positions that sort `scores` descending along the last axis, ties
    toward the smaller id; `ids` is broadcast to the shape of `scores`."""
    return np.lexsort((np.broadcast_to(ids, scores.shape), -scores))


@dataclass
class RankedList:
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
    return RankedList(items=cands[take], scores=scores[take])
