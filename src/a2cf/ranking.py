"""Completion of the attribute matrices and the substitute ranking model.

Scoring blends two heads, each w . [product ; attn @ E] with E the attribute
embedding table and attn an attention over completed attribute rows:
  substitution      (v_q * v_j) @ w_s[:d] + phi @ (E @ w_s[d:])
  personalization   (u_i * v_j) @ w_p[:d] + lam @ (E @ w_p[d:])
Phase 2 and serving score one grid: n rows of (user, query), each against
its own c candidates, shape (n, c). Training puts the positive in column 0
and its k negatives after it (c = 1 + k); a request is one row (n = 1). A
row's user and query are broadcast over its candidates, never repeated.

The attention runs attribute-major. A grid's logits are the (A, n, c) array
(a.T / temp)[:, :, None] * Y[:, cands], with a the (n, A) query or user rows
and Y the (A, n_items) item table `EstimatedMatrices.item_attr_t`, so the
temperature divides the n rows before the product, and the max and the sum
run over axis 0, a slab of n * c values at a time. The attribute block is
((E @ w[d:]) @ e) / z, with e the max-shifted exponentials of the logits and
z their sums over the attributes, so neither the normalized attention nor
the aggregate attn @ E is formed. Either block can be ablated away, leaving
only the product term.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .data import Corpus
from .network import (ModelParams, _expit, predict_item_attr_batch,
                      predict_user_attr_batch, scatter_rows)

NEGATIVE_SAMPLE_FACTOR = 1000   # rejection budget per requested negative


@dataclass(frozen=True)
class EstimatedMatrices:
    """Dense completions: observed cells verbatim, absent cells regressed."""

    user_attr: np.ndarray       # (n_users, n_attrs)
    item_attr: np.ndarray       # (n_items, n_attrs)

    @functools.cached_property
    def item_attr_t(self) -> np.ndarray:
        """item_attr attribute-major, (n_attrs, n_items), the table scoring
        gathers from. Derived on first read; from then on item_attr is
        read-only, so that an edit raises instead of going unscored."""
        self.item_attr.flags.writeable = False
        return np.ascontiguousarray(self.item_attr.T)


def _checked_ids(what: str, ids, n: int) -> np.ndarray:
    """`ids` as an int64 array; ValueError naming every id that is not an
    integer in [0, n)."""
    arr = np.asarray(ids)
    if arr.dtype.kind not in "iu" or (
            arr.size and (arr.min() < 0 or arr.max() >= n)):
        bad = [i for i in arr.ravel().tolist()
               if type(i) is not int or not 0 <= i < n]
        if bad:
            raise ValueError(f"{what} must be integers in [0, {n}), "
                             f"got {bad}")
    return arr.astype(np.int64, copy=False)


def _complete(observed: np.ndarray, predict, params: ModelParams,
              rows=None) -> np.ndarray:
    """A copy of `observed` with its 0.0 cells (of `rows` only, every other
    row NaN, when given) regressed in one row-major predictor call, if any."""
    dense = observed.copy()
    unobserved = dense == 0.0
    if rows is not None:
        other = np.ones(len(dense), dtype=bool)
        other[rows] = False
        dense[other], unobserved[other] = np.nan, False
    r, c = np.nonzero(unobserved)
    if len(r):
        dense[r, c] = predict(params, r, c)
    return dense


def estimate_matrices(user_obs: np.ndarray, item_obs: np.ndarray,
                      params: ModelParams, users=None,
                      item_attr=None) -> EstimatedMatrices:
    """Fill every unobserved (0.0) cell of the observed matrices with the
    eval-mode tower regression on the scale [1, RATING_MAX], one predictor
    call per matrix that has one; observed cells are copied bit-for-bit.

    `users` limits the user matrix to those rows, for a caller that reads
    no other: only their unobserved cells are regressed, with the bits of
    the full completion (network module docstring), and every other user
    row is NaN. None completes every row. An id that is not an integer in
    [0, n_users) raises ValueError.

    `item_attr`, an item completion of these params such as the one a
    format-3 checkpoint ships, is taken as the item matrix instead of
    completing it; a shape other than item_obs's raises ValueError.
    """
    if users is not None:
        users = _checked_ids("users", users, user_obs.shape[0])
    if item_attr is not None and item_attr.shape != item_obs.shape:
        raise ValueError(f"item_attr has shape {item_attr.shape}, the item "
                         f"matrix {item_obs.shape}")
    user_attr = _complete(user_obs, predict_user_attr_batch, params, users)
    if item_attr is None:
        item_attr = _complete(item_obs, predict_item_attr_batch, params)
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


def _attend(rows_t: np.ndarray, item_attr_t: np.ndarray, cands: np.ndarray,
            temp: float):
    """The attention of each (row, candidate) pair of a grid before its
    division, attribute-major: (e, z) with e = exp(l - max l), the max over
    axis 0 of the (A, n, c) logits l = (rows_t / temp)[:, :, None] *
    item_attr_t[:, cands], reshaped to (A, n * c), and z = e.sum(axis=0).
    rows_t holds the n query or user rows as columns, (A, n)."""
    e = np.take(item_attr_t, cands, axis=1)
    e *= (rows_t / temp)[:, :, None]
    e -= e.max(axis=0)
    np.exp(e, out=e)
    e = e.reshape(len(e), -1)
    return e, e.sum(axis=0)


def _head(a: np.ndarray, b: np.ndarray, attn, w: np.ndarray,
          attr_emb: np.ndarray) -> np.ndarray:
    """w . [a * b ; attn @ attr_emb] for each (row, candidate) pair, a the
    (n, d) rows and b their (n, c, d) candidates, shape (n, c): the product
    block is b @ (a * w[:d]) per row, and the attribute block, for attn =
    (e, z) from _attend, ((attr_emb @ w[d:]) @ e) / z. attn None ablates
    the attribute block."""
    d = a.shape[-1]
    score = (b @ (a * w[:d])[:, :, None])[:, :, 0]
    if attn is not None:
        e, z = attn
        score = score + (((attr_emb @ w[d:]) @ e) / z).reshape(score.shape)
    return score


def _head_backward(a: np.ndarray, b: np.ndarray, attn, w: np.ndarray,
                   attr_emb: np.ndarray, g: np.ndarray, w_grad: np.ndarray,
                   attr_grad: np.ndarray):
    """Add the gradients of sum(g * _head(a, b, attn, w, attr_emb)), g of
    shape (n, c), for w and attr_emb into w_grad and attr_grad. Return the
    gradient for a, each row's summed over its c candidates, and w[:d] * a,
    the gradient for b[r, j] per unit of g[r, j]."""
    d = a.shape[-1]
    g_b = (g[:, None, :] @ b)[:, 0]     # sum over candidates of g * b
    w_grad[:d] += np.einsum("nd,nd->d", a, g_b)
    if attn is not None:
        e, z = attn
        attn_g = e @ (g.ravel() / z)
        w_grad[d:] += attn_g @ attr_emb
        attr_grad += np.outer(attn_g, w[d:])
    return w[:d] * g_b, w[:d] * a


def _score_rows(params: ModelParams, est: EstimatedMatrices, cfg: TrainConfig,
                users: np.ndarray, queries: np.ndarray, cands: np.ndarray):
    """Blended scores of the (n, c) grid: the user and query of row r,
    users[r] and queries[r], against each of its candidates cands[r].

    Returns (scores, cache), scores of shape (n, c), the cache holding
    everything backward needs.
    """
    v_q = params.item_emb[queries]
    u_i = params.user_emb[users]
    v_j = params.item_emb[cands]
    y_t = est.item_attr_t
    phi = (_attend(y_t[:, queries], y_t, cands, cfg.subst_temp)
           if cfg.subst_use_attrs else None)
    lam = (_attend(est.user_attr[users].T, y_t, cands, cfg.pers_temp)
           if cfg.pers_use_attrs else None)
    g = cfg.subst_weight
    scores = (g * _head(v_q, v_j, phi, params.subst_proj, params.attr_emb)
              + (1.0 - g) * _head(u_i, v_j, lam, params.pers_proj,
                                  params.attr_emb))
    return scores, (users, queries, cands, u_i, v_q, v_j, phi, lam)


def _score_rows_backward(params: ModelParams, cfg: TrainConfig, cache,
                         upstream: np.ndarray, grads: ModelParams) -> None:
    """Accumulate d(sum upstream * scores)/d(params) into `grads`, upstream
    of the grid's shape (n, c).

    Each row's query and user gradient is summed over its c candidates. The
    two heads' candidate gradients are one (n, c, d) buffer, upstream times
    the blend of their per-unit gradients. So the item scatter takes n +
    n * c rows and the user scatter n, each one ordered bincount, so that
    every row sums its contributions in the order np.add.at would: queries,
    then candidates. Completed matrix rows are constants here by contract:
    the estimation step is refreshed between phases, not differentiated
    through.
    """
    users, queries, cands, u_i, v_q, v_j, phi, lam = cache
    gamma = cfg.subst_weight
    g_q, x_s = _head_backward(v_q, v_j, phi, params.subst_proj,
                              params.attr_emb, upstream * gamma,
                              grads.subst_proj, grads.attr_emb)
    g_u, x_p = _head_backward(u_i, v_j, lam, params.pers_proj,
                              params.attr_emb, upstream * (1.0 - gamma),
                              grads.pers_proj, grads.attr_emb)
    g_j = upstream[:, :, None] * (gamma * x_s + (1.0 - gamma) * x_p)[:, None]
    grads.item_emb[...] += scatter_rows(
        len(grads.item_emb), [queries, cands.ravel()],
        [g_q, g_j.reshape(-1, params.embed_dim)])
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
    """Vectorized triplet_score over a 1-D candidate array, as a grid of one
    row. A user, query or candidate that is not an integer id of its table
    raises ValueError naming it."""
    n_items = len(params.item_emb)
    users = _checked_ids("users", user, len(params.user_emb)).reshape(1)
    queries = _checked_ids("queries", query, n_items).reshape(1)
    cands = _checked_ids("candidates", items, n_items)
    return _score_rows(params, est, cfg, users, queries, cands[None, :])[0][0]


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
    (triple, negative) pair, overflow-safe. Row r is scored as the grid
    row [positives[r], *negatives[r]], so each positive is scored once.
    The gradients go into `grads`, zeroed first, when given, else into a
    new buffer."""
    n, negatives = len(users), np.asarray(negatives)
    if negatives.ndim not in (1, 2) or len(negatives) != n:
        raise ValueError(f"negatives must have shape ({n},) or ({n}, k), "
                         f"got {negatives.shape}")
    scores, cache = _score_rows(params, est, cfg, users, queries,
                                np.column_stack((positives, negatives)))
    margins = scores[:, :1] - scores[:, 1:]
    loss = float(np.logaddexp(0.0, -margins).sum())
    # d/dm of softplus(-m) is sigmoid(m) - 1, summed per positive over k
    up = _expit(margins) - 1.0
    grads = ModelParams.zeros_like(params, out=grads)
    _score_rows_backward(params, cfg, cache,
                         np.column_stack((up.sum(axis=1), -up)), grads)
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
    smaller item index. Duplicates in `candidates` are collapsed; an id
    outside its table raises ValueError, as in score_candidates."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cands = np.unique(np.asarray(candidates))
    if len(cands) == 0:
        raise ValueError("empty candidate set")
    scores = score_candidates(params, est, cfg, user, query, cands)
    take = rank_order(scores, cands)[:k]
    return RankedList(items=cands[take], scores=scores[take])
