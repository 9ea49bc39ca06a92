"""The bincount scatter-adds in the analytic backward passes give gradients
bit-identical to a reference that scatters with np.add.at, one call per
contribution group, in the order the groups are produced. The phase-2
algebra (an (n, 1 + k) candidate grid, attribute-major attention) also
agrees with the repeated-row algebra it replaced, kept here as an oracle."""

import numpy as np
import pytest

from a2cf.config import TrainConfig
from a2cf.network import (ModelParams, _expit, dropout_mask, init_params,
                          phase1_forward_backward, residual_backward,
                          residual_forward, tanh_rescaled, tanh_rescaled_grad)
from a2cf.ranking import EstimatedMatrices, bpr_s_forward_backward, softmax


def addat_bpr_s(params, est, cfg, users, queries, positives, negatives):
    """Reference BPR-S loss and gradients in the grid algebra: row r scores
    its user and query against the candidates [positives[r], *negatives[r]],
    an (n, 1 + k) grid; a positive's upstream is the sum of its k margins'.
    The attention is attribute-major: logits (A, n, c) are
    (rows.T / temp)[:, :, None] * item_attr.T[:, cands], e = exp(logits -
    their max over axis 0), z = e.sum(axis=0), and the attribute terms are
    ((attr_emb @ w[d:]) @ e) / z forward and e @ (g / z) backward. A row's
    query and user gradients sum over its candidates, and a candidate's
    gradient is upstream * (gamma w_s[:d] v_q + (1 - gamma) w_p[:d] u_i).
    np.add.at scatters per group: query rows, then candidate rows, then
    user rows."""
    d = params.embed_dim
    w_s, w_p, gamma = params.subst_proj, params.pers_proj, cfg.subst_weight
    cands = np.column_stack((positives, negatives))
    n, c = cands.shape
    v_q, u_i, v_j = (params.item_emb[queries], params.user_emb[users],
                     params.item_emb[cands])
    item_attr_t = np.ascontiguousarray(est.item_attr.T)

    def exp_and_sum(rows_t, temp):
        logits = ((rows_t / temp)[:, :, None]
                  * np.take(item_attr_t, cands, axis=1))
        e = np.exp(logits - logits.max(axis=0)).reshape(len(logits), n * c)
        return e, e.sum(axis=0)

    e_s, z_s = exp_and_sum(item_attr_t[:, queries], cfg.subst_temp)
    e_p, z_p = exp_and_sum(est.user_attr[users].T, cfg.pers_temp)
    f_s = (v_j @ (v_q * w_s[:d])[:, :, None])[:, :, 0]
    if cfg.subst_use_attrs:
        f_s = f_s + (((params.attr_emb @ w_s[d:]) @ e_s) / z_s).reshape(n, c)
    f_p = (v_j @ (u_i * w_p[:d])[:, :, None])[:, :, 0]
    if cfg.pers_use_attrs:
        f_p = f_p + (((params.attr_emb @ w_p[d:]) @ e_p) / z_p).reshape(n, c)
    scores = gamma * f_s + (1.0 - gamma) * f_p
    margins = scores[:, :1] - scores[:, 1:]
    up = _expit(margins) - 1.0
    upstream = np.column_stack((up.sum(axis=1), -up))

    grads = ModelParams.zeros_like(params)
    g_s, g_p = upstream * gamma, upstream * (1.0 - gamma)
    sum_s = (g_s[:, None, :] @ v_j)[:, 0]
    sum_p = (g_p[:, None, :] @ v_j)[:, 0]
    grads.subst_proj[:d] += np.einsum("nd,nd->d", v_q, sum_s)
    if cfg.subst_use_attrs:
        attn_g = e_s @ (g_s.ravel() / z_s)
        grads.subst_proj[d:] += attn_g @ params.attr_emb
        grads.attr_emb[...] += np.outer(attn_g, w_s[d:])
    grads.pers_proj[:d] += np.einsum("nd,nd->d", u_i, sum_p)
    if cfg.pers_use_attrs:
        attn_g = e_p @ (g_p.ravel() / z_p)
        grads.pers_proj[d:] += attn_g @ params.attr_emb
        grads.attr_emb[...] += np.outer(attn_g, w_p[d:])
    g_j = upstream[:, :, None] * (gamma * (w_s[:d] * v_q)
                                  + (1.0 - gamma) * (w_p[:d] * u_i))[:, None]
    np.add.at(grads.item_emb, queries, w_s[:d] * sum_s)
    np.add.at(grads.item_emb, cands.ravel(), g_j.reshape(-1, d))
    np.add.at(grads.user_emb, users, w_p[:d] * sum_p)
    return float(np.logaddexp(0.0, -margins).sum()), grads


def repeated_rows_bpr_s(params, est, cfg, users, queries, positives,
                        negatives):
    """Oracle in the replaced algebra: every positive repeated once per
    negative, attribute blocks aggregated as phi @ attr_emb before the
    projection, np.add.at per group, positive rows before negative rows."""
    d = params.embed_dim
    w_s, w_p = params.subst_proj, params.pers_proj
    g = cfg.subst_weight
    k = negatives.shape[1]
    users, queries = np.repeat(users, k), np.repeat(queries, k)
    positives, negatives = np.repeat(positives, k), negatives.ravel()

    def forward(items):
        v_q, v_j, u_i = (params.item_emb[queries], params.item_emb[items],
                         params.user_emb[users])
        phi = softmax((est.item_attr[queries] * est.item_attr[items])
                      / cfg.subst_temp)
        lam = softmax((est.user_attr[users] * est.item_attr[items])
                      / cfg.pers_temp)
        f_s = (v_q * v_j) @ w_s[:d]
        if cfg.subst_use_attrs:
            f_s = f_s + (phi @ params.attr_emb) @ w_s[d:]
        f_p = (u_i * v_j) @ w_p[:d]
        if cfg.pers_use_attrs:
            f_p = f_p + (lam @ params.attr_emb) @ w_p[d:]
        return g * f_s + (1.0 - g) * f_p, (items, u_i, v_q, v_j, phi, lam)

    def backward(cache, upstream, grads):
        items, u_i, v_q, v_j, phi, lam = cache
        g_s = (upstream * g)[:, None]
        g_p = (upstream * (1.0 - g))[:, None]
        grads.subst_proj[:d] += (g_s * (v_q * v_j)).sum(axis=0)
        np.add.at(grads.item_emb, queries, g_s * (w_s[:d] * v_j))
        np.add.at(grads.item_emb, items, g_s * (w_s[:d] * v_q))
        if cfg.subst_use_attrs:
            grads.subst_proj[d:] += (g_s * (phi @ params.attr_emb)).sum(axis=0)
            grads.attr_emb[...] += phi.T @ (g_s * w_s[None, d:])
        grads.pers_proj[:d] += (g_p * (u_i * v_j)).sum(axis=0)
        np.add.at(grads.user_emb, users, g_p * (w_p[:d] * v_j))
        np.add.at(grads.item_emb, items, g_p * (w_p[:d] * u_i))
        if cfg.pers_use_attrs:
            grads.pers_proj[d:] += (g_p * (lam @ params.attr_emb)).sum(axis=0)
            grads.attr_emb[...] += lam.T @ (g_p * w_p[None, d:])

    pos_scores, pos_cache = forward(positives)
    neg_scores, neg_cache = forward(negatives)
    margins = pos_scores - neg_scores
    up_pos = _expit(margins) - 1.0
    grads = ModelParams.zeros_like(params)
    backward(pos_cache, up_pos, grads)
    backward(neg_cache, -up_pos, grads)
    return float(np.logaddexp(0.0, -margins).sum()), grads


def addat_phase1(params, user_cells, item_cells, dropout, rng):
    """Reference phase-1 loss and gradients: np.add.at per tower, user
    tower before item tower."""
    d = params.embed_dim
    grads = ModelParams.zeros_like(params)
    loss = 0.0
    for side, cells in (("user", user_cells), ("item", item_cells)):
        rows, attrs, targets = cells
        masks = [dropout_mask((len(rows), 2 * d), dropout, rng)
                 for _ in range(params.tower_depth)]
        emb, tower_w, tower_b, head = (getattr(params, f"{side}_{name}") for name
                                       in ("emb", "tower_w", "tower_b", "head"))
        h0 = np.concatenate([emb[rows], params.attr_emb[attrs]], axis=1)
        h_out, cache = residual_forward(h0, tower_w, tower_b, masks)
        r = h_out @ head
        err = tanh_rescaled(r) - targets
        loss += float((err ** 2).sum())
        dr = 2.0 * err * tanh_rescaled_grad(r)
        getattr(grads, f"{side}_head")[...] += h_out.T @ dr
        grad_h0, gw, gb = residual_backward(dr[:, None] * head[None, :],
                                            tower_w, cache)
        getattr(grads, f"{side}_tower_w")[...] += gw
        getattr(grads, f"{side}_tower_b")[...] += gb
        np.add.at(getattr(grads, f"{side}_emb"), rows, grad_h0[:, :d])
        np.add.at(grads.attr_emb, attrs, grad_h0[:, d:])
    return loss, grads


def assert_bit_identical(got, want):
    for name, w in want.tensors().items():
        g = getattr(got, name)
        assert g.shape == w.shape, name
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), name


ABLATIONS = [(True, True), (False, True), (True, False)]


def bpr_s_case(seed, subst_attrs, pers_attrs, k):
    """A small model and a batch with many repeats of every user and item,
    a query that is also a candidate, and negatives of shape (40, k)."""
    cfg = TrainConfig(embed_dim=4, tower_depth=1, subst_weight=0.7,
                      subst_use_attrs=subst_attrs, pers_use_attrs=pers_attrs)
    n_users, n_items, n_attrs = 3, 7, 5
    params = init_params(n_users, n_items, n_attrs, cfg, seed=seed)
    rng = np.random.default_rng(seed + 50)
    est = EstimatedMatrices(
        user_attr=rng.uniform(1.0, 5.0, size=(n_users, n_attrs)),
        item_attr=rng.uniform(1.0, 5.0, size=(n_items, n_attrs)))
    rows = 40
    users = rng.integers(n_users, size=rows)
    queries = rng.integers(n_items, size=rows)
    positives = rng.integers(n_items, size=rows)
    negatives = rng.integers(n_items, size=(rows, k))
    negatives[:5, 0] = queries[:5]
    positives[5:10] = queries[5:10]
    return cfg, params, est, (users, queries, positives, negatives)


@pytest.mark.parametrize("subst_attrs,pers_attrs", ABLATIONS)
@pytest.mark.parametrize("seed", range(3))
def test_bpr_s_gradients_bit_identical_to_add_at(seed, subst_attrs, pers_attrs):
    for k in (1, 3, 5):
        cfg, params, est, args = bpr_s_case(seed, subst_attrs, pers_attrs, k)
        got_loss, got = bpr_s_forward_backward(params, est, cfg, *args)
        want_loss, want = addat_bpr_s(params, est, cfg, *args)
        assert got_loss == want_loss, k
        assert_bit_identical(got, want)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("subst_attrs,pers_attrs", ABLATIONS)
@pytest.mark.parametrize("seed", range(3))
def test_bpr_s_matches_repeated_rows_oracle(seed, subst_attrs, pers_attrs, k):
    cfg, params, est, args = bpr_s_case(seed, subst_attrs, pers_attrs, k)
    got_loss, got = bpr_s_forward_backward(params, est, cfg, *args)
    want_loss, want = repeated_rows_bpr_s(params, est, cfg, *args)
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    for name, w in want.tensors().items():
        gap = np.abs(getattr(got, name) - w).max()
        assert gap <= 1e-12 * np.abs(w).max(), (name, gap)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("seed", range(3))
def test_phase1_gradients_bit_identical_to_add_at(seed, dropout):
    cfg = TrainConfig(embed_dim=4, tower_depth=2)
    n_users, n_items, n_attrs = 3, 4, 5
    params = init_params(n_users, n_items, n_attrs, cfg, seed=seed)
    rng = np.random.default_rng(seed + 70)

    def cells(n_rows, size):
        return (rng.integers(n_rows, size=size), rng.integers(n_attrs, size=size),
                rng.uniform(1.0, 5.0, size=size))

    user_cells, item_cells = cells(n_users, 30), cells(n_items, 25)
    got_loss, got = phase1_forward_backward(
        params, user_cells, item_cells, dropout=dropout,
        rng=np.random.default_rng(seed))
    want_loss, want = addat_phase1(params, user_cells, item_cells, dropout,
                                   np.random.default_rng(seed))
    assert got_loss == want_loss
    assert_bit_identical(got, want)
