"""Matrix completion, attention scoring heads, BPR loss, and top-K ranking."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from a2cf import network, ranking
from a2cf.config import TrainConfig
from a2cf.data import Corpus
from a2cf.matrices import build_matrices
from a2cf.network import (ModelParams, init_params,
                          predict_item_attr_batch, predict_user_attr_batch)
from a2cf.ranking import (NEGATIVE_SAMPLE_FACTOR, EstimatedMatrices,
                          aggregate_attributes, attention,
                          bpr_s_forward_backward,
                          estimate_matrices, recommend_top_k, sample_negatives,
                          score_candidates, score_personalization,
                          score_substitution, softmax, triplet_score)
from conftest import central_diff_grads, relation_sets, worst_relative_gap
from test_gradient_scatter import ABLATIONS, repeated_rows_bpr_s

# softmax of (0.5, 1.125, 2.0), high-precision reference
PHI_REFERENCE = (0.13605562446765804, 0.25418537039761871, 0.60975900513472325)
LAM_REFERENCE_4 = (0.6525594163648751, 0.21185502462078136,
                   0.088314313442459043, 0.04727124557188449)


def scoring_cfg(**kw):
    base = dict(embed_dim=3, tower_depth=1, dropout=0.0)
    base.update(kw)
    return TrainConfig(**base)


def random_setup(seed, n_users=4, n_items=6, n_attrs=4, **cfg_kw):
    cfg = scoring_cfg(**cfg_kw)
    params = init_params(n_users, n_items, n_attrs, cfg, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    est = EstimatedMatrices(
        user_attr=rng.uniform(1.0, 5.0, size=(n_users, n_attrs)),
        item_attr=rng.uniform(1.0, 5.0, size=(n_items, n_attrs)))
    return cfg, params, est


# --------------------------------------------------------------- estimation

def test_estimation_preserves_observed_verbatim():
    user_mat, item_mat = np.zeros((2, 2)), np.zeros((2, 2))
    user_mat[0, 1], item_mat[1, 0] = 4.2, 1.7
    params = init_params(2, 2, 2, scoring_cfg(), seed=3)
    est = estimate_matrices(user_mat, item_mat, params)
    assert est.user_attr[0, 1] == 4.2
    assert est.item_attr[1, 0] == 1.7


def test_estimation_identity_when_fully_observed(monkeypatch):
    rows, cols = np.indices((3, 2))
    mat = 1.0 + 0.5 * (rows + cols)
    params = init_params(3, 3, 2, scoring_cfg(), seed=4)
    seen = _count_predicted_cells(monkeypatch)
    est = estimate_matrices(mat, mat.copy(), params)
    assert seen == []
    np.testing.assert_array_equal(est.user_attr, mat)
    np.testing.assert_array_equal(est.item_attr, mat)


def test_estimation_missing_cells_get_midpoint_under_zero_params(grid_corpus):
    user_mat, item_mat = build_matrices(grid_corpus)
    params = init_params(6, 6, 3, scoring_cfg(), seed=5)
    for t in params.tensors().values():
        t[...] = 0.0
    est = estimate_matrices(user_mat, item_mat, params)
    assert est.user_attr[5, 0] == 3.0      # uF never mentions anything
    assert est.item_attr[4, 2] == 3.0
    assert est.user_attr[0, 0] == user_mat[0, 0]


def test_estimation_range_and_determinism(grid_corpus):
    user_mat, item_mat = build_matrices(grid_corpus)
    params = init_params(6, 6, 3, scoring_cfg(), seed=6)
    est1 = estimate_matrices(user_mat, item_mat, params)
    est2 = estimate_matrices(user_mat, item_mat, params)
    np.testing.assert_array_equal(est1.user_attr, est2.user_attr)
    np.testing.assert_array_equal(est1.item_attr, est2.item_attr)
    for arr in (est1.user_attr, est1.item_attr):
        assert np.all(arr >= 1.0) and np.all(arr <= 5.0)


def full_grid_complete(observed, predict_rows, chunk=262144):
    """Reference completion: regress every cell of the grid in row blocks,
    then keep the observed (nonzero) cells' values."""
    dense = observed.copy()
    mask = observed != 0.0
    n_rows, n_cols = dense.shape
    block = max(1, chunk // max(1, n_cols))
    for start in range(0, n_rows, block):
        rows = np.arange(start, min(start + block, n_rows))
        row_idx = np.repeat(rows, n_cols)
        col_idx = np.tile(np.arange(n_cols), len(rows))
        preds = predict_rows(row_idx, col_idx).reshape(len(rows), n_cols)
        sub = mask[rows]
        dense[rows] = np.where(sub, dense[rows], preds)
    return dense


def full_grid_estimate(user_mat, item_mat, params):
    return EstimatedMatrices(
        user_attr=full_grid_complete(user_mat, lambda r, c: (
            predict_user_attr_batch(params, r, c))),
        item_attr=full_grid_complete(item_mat, lambda r, c: (
            predict_item_attr_batch(params, r, c))))


def random_observed(rng, shape, density, cap=5.0):
    """Each cell observed with probability `density`, values in [1, cap];
    every other cell 0.0."""
    observed = rng.random(shape) < density
    mat = np.zeros(shape)
    mat[observed] = rng.uniform(1.0, cap, size=int(observed.sum()))
    return mat


def assert_matches_full_grid(est, ref, mats):
    """Observed cells bit for bit (and equal to the inputs), filled cells
    within 1e-12 of the full-grid reference."""
    for got, want, mat in zip((est.user_attr, est.item_attr),
                              (ref.user_attr, ref.item_attr), mats):
        assert got.shape == mat.shape
        mask = mat != 0.0
        np.testing.assert_array_equal(got[mask].view(np.uint64),
                                      want[mask].view(np.uint64))
        np.testing.assert_array_equal(got[mask].view(np.uint64),
                                      mat[mask].view(np.uint64))
        np.testing.assert_allclose(got[~mask], want[~mask], rtol=0,
                                   atol=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_estimation_matches_full_grid_reference(seed):
    rng = np.random.default_rng([seed, 77])
    n_users, n_items, n_attrs = (int(n) for n in rng.integers(1, 40, size=3))
    density = [0.0, 0.05, 0.2, 0.5, 0.9, 1.0][seed % 6]
    cap = (5.0, 3.0)[seed % 2]
    cfg = scoring_cfg(embed_dim=int(rng.integers(1, 9)),
                      tower_depth=int(rng.integers(0, 3)))
    params = init_params(n_users, n_items, n_attrs, cfg, seed=seed)
    mats = (random_observed(rng, (n_users, n_attrs), density, cap),
            random_observed(rng, (n_items, n_attrs), density, cap))
    assert_matches_full_grid(estimate_matrices(*mats, params),
                             full_grid_estimate(*mats, params), mats)


def _count_predicted_cells(monkeypatch):
    """Record (side, rows, attrs) of every batch both predictors regress."""
    seen = []
    for side in ("user", "item"):
        name = f"predict_{side}_attr_batch"

        def spy(p, r, a, side=side, real=getattr(ranking, name)):
            seen.append((side, r, a))
            return real(p, r, a)
        monkeypatch.setattr(ranking, name, spy)
    return seen


def test_estimation_calls_each_predictor_once_in_row_major_order(
        monkeypatch):
    rng = np.random.default_rng(5)
    user_mat, item_mat = (random_observed(rng, (n, 7), 0.3) for n in (9, 11))
    params = init_params(9, 11, 7, scoring_cfg(), seed=9)
    ref = full_grid_estimate(user_mat, item_mat, params)
    seen = _count_predicted_cells(monkeypatch)
    est = estimate_matrices(user_mat, item_mat, params)
    assert [side for side, *_ in seen] == ["user", "item"]
    for (_, rows, attrs), mat in zip(seen, (user_mat, item_mat)):
        want = np.argwhere(mat == 0.0)
        np.testing.assert_array_equal(np.stack([rows, attrs], axis=1), want)
    assert_matches_full_grid(est, ref, (user_mat, item_mat))
    seen.clear()
    estimate_matrices(user_mat, item_mat, params, users=[7, 2])
    assert [side for side, *_ in seen] == ["user", "item"]
    (_, rows, attrs), _ = seen
    want = np.argwhere(user_mat == 0.0)
    want = want[np.isin(want[:, 0], [2, 7])]
    assert set(want[:, 0]) == {2, 7}
    np.testing.assert_array_equal(np.stack([rows, attrs], axis=1), want)


def test_repeated_user_ids_complete_each_row_once(monkeypatch):
    """`users=[8, 2, 2]`, a repeated id and the last row: one user-predictor
    call on exactly the unobserved cells of rows 2 and 8, which keep the
    bits of the full completion; every other row is NaN."""
    rng = np.random.default_rng(8)
    user_mat, item_mat = (random_observed(rng, (n, 7), 0.3) for n in (9, 11))
    params = init_params(9, 11, 7, scoring_cfg(), seed=8)
    full = estimate_matrices(user_mat, item_mat, params)
    seen = _count_predicted_cells(monkeypatch)
    est = estimate_matrices(user_mat, item_mat, params, users=[8, 2, 2])
    assert [side for side, *_ in seen] == ["user", "item"]
    (_, rows, attrs), _ = seen
    want = np.argwhere(user_mat == 0.0)
    want = want[(want[:, 0] == 2) | (want[:, 0] == 8)]
    assert set(want[:, 0]) == {2, 8}
    np.testing.assert_array_equal(np.stack([rows, attrs], axis=1), want)
    np.testing.assert_array_equal(est.user_attr[[2, 8]].view(np.uint64),
                                  full.user_attr[[2, 8]].view(np.uint64))
    assert np.isnan(np.delete(est.user_attr, [2, 8], axis=0)).all()


def test_fully_observed_user_row_comes_back_verbatim_with_no_call(
        monkeypatch):
    rng = np.random.default_rng(6)
    user_mat, item_mat = (random_observed(rng, (n, 7), 0.3) for n in (9, 11))
    user_mat[4] = rng.uniform(1.0, 5.0, 7)
    assert user_mat[4].all()
    params = init_params(9, 11, 7, scoring_cfg(), seed=6)
    full = estimate_matrices(user_mat, item_mat, params)
    seen = _count_predicted_cells(monkeypatch)
    est = estimate_matrices(user_mat, item_mat, params, [4],
                            full.item_attr)
    assert seen == []
    np.testing.assert_array_equal(est.user_attr[4].view(np.uint64),
                                  user_mat[4].view(np.uint64))
    assert np.isnan(np.delete(est.user_attr, 4, axis=0)).all()


def test_no_requested_user_calls_no_user_predictor(monkeypatch):
    """`users=[]` asks for no user row: the item matrix is completed whole
    and no user cell is regressed."""
    rng = np.random.default_rng(7)
    user_mat, item_mat = (random_observed(rng, (n, 7), 0.3) for n in (9, 11))
    params = init_params(9, 11, 7, scoring_cfg(), seed=7)
    full = estimate_matrices(user_mat, item_mat, params)
    seen = _count_predicted_cells(monkeypatch)
    est = estimate_matrices(user_mat, item_mat, params, users=[])
    assert [side for side, *_ in seen] == ["item"]
    np.testing.assert_array_equal(est.item_attr.view(np.uint64),
                                  full.item_attr.view(np.uint64))
    assert np.isnan(est.user_attr).all()


def test_estimation_over_a_given_item_matrix_runs_only_the_user_predictor(
        monkeypatch):
    rng = np.random.default_rng(5)
    user_mat, item_mat = (random_observed(rng, (n, 7), 0.3) for n in (9, 11))
    params = init_params(9, 11, 7, scoring_cfg(), seed=9)
    full = estimate_matrices(user_mat, item_mat, params)
    seen = _count_predicted_cells(monkeypatch)
    est = estimate_matrices(user_mat, item_mat, params, [2, 7],
                            full.item_attr)
    assert [side for side, *_ in seen] == ["user"]
    assert est.item_attr is full.item_attr
    np.testing.assert_array_equal(est.user_attr[[2, 7]].view(np.uint64),
                                  full.user_attr[[2, 7]].view(np.uint64))
    with pytest.raises(ValueError, match=re.escape(
            "item_attr has shape (7, 11), the item matrix (11, 7)")):
        estimate_matrices(user_mat, item_mat, params,
                          item_attr=full.item_attr.T)


@pytest.mark.parametrize("embed_dim, depth", [(8, 1), (64, 1), (3, 1), (4, 2)])
def test_estimation_of_some_user_rows_keeps_their_bits(embed_dim, depth):
    """Completing some user rows gives them, and every item row, the bits of
    the full completion; every other user row is NaN."""
    rng = np.random.default_rng([embed_dim, depth, 61])
    params = init_params(300, 40, 100, scoring_cfg(embed_dim=embed_dim,
                                                   tower_depth=depth), seed=61)
    user_mat = random_observed(rng, (300, 100), 0.3)
    item_mat = random_observed(rng, (40, 100), 0.3)
    full = estimate_matrices(user_mat, item_mat, params)
    for users in ([0], [137], [299], [5, 6, 250]):
        est = estimate_matrices(user_mat, item_mat, params, users=users)
        np.testing.assert_array_equal(est.user_attr[users].view(np.uint64),
                                      full.user_attr[users].view(np.uint64))
        np.testing.assert_array_equal(est.item_attr.view(np.uint64),
                                      full.item_attr.view(np.uint64))
        assert np.isnan(np.delete(est.user_attr, users, axis=0)).all()


def test_deep_tower_completion_runs_the_training_forward_per_row(
        monkeypatch):
    """At depth 2 a completion calls `_tower_predict` once per row that
    holds an unobserved cell, on that row's cells, and takes its bits; a
    request for one user makes one call, on that user's row alone."""
    rng = np.random.default_rng(62)
    params = init_params(300, 40, 100, scoring_cfg(embed_dim=4,
                                                   tower_depth=2), seed=62)
    user_mat = random_observed(rng, (300, 100), 0.3)
    item_mat = random_observed(rng, (40, 100), 0.3)
    user_mat[17] = rng.uniform(1.0, 5.0, 100)   # fully observed: no call
    unobserved = user_mat == 0.0
    held = [u for u in range(300) if unobserved[u].any()]
    assert len(held) == 299
    real, calls = network._tower_predict, []
    monkeypatch.setattr(network, "_tower_predict", lambda p, side, r, a, *rest:
                        calls.append((side, r, a)) or real(p, side, r, a,
                                                           *rest))
    est = estimate_matrices(user_mat, item_mat, params)
    user_calls = [(r, a) for side, r, a in calls if side == "user"]
    assert len(user_calls) == len(held)
    for u, (r, a) in zip(held, user_calls):
        np.testing.assert_array_equal(r, np.full(unobserved[u].sum(), u))
        np.testing.assert_array_equal(a, np.flatnonzero(unobserved[u]))
        want = real(params, "user", r, a)[0]
        np.testing.assert_array_equal(est.user_attr[u, a].view(np.uint64),
                                      want.view(np.uint64))
    calls.clear()
    estimate_matrices(user_mat, item_mat, params, users=[150],
                      item_attr=est.item_attr)
    (side, r, a), = calls
    assert side == "user"
    np.testing.assert_array_equal(r, np.full(unobserved[150].sum(), 150))
    np.testing.assert_array_equal(a, np.flatnonzero(unobserved[150]))


@pytest.mark.parametrize("users, bad", [
    ([4], "[4]"), ([-1], "[-1]"), ([1.5], "[1.5]"), ([0, 4, 3, 9], "[4, 9]"),
    (np.array([2.0]), "[2.0]"), ([True], "[True]")])
def test_estimation_rejects_user_ids_outside_the_matrix(users, bad):
    user_mat, item_mat = (random_observed(np.random.default_rng(3), (n, 3), 0.3)
                          for n in (4, 5))
    params = init_params(4, 5, 3, scoring_cfg(), seed=3)
    with pytest.raises(ValueError) as err:
        estimate_matrices(user_mat, item_mat, params, users=users)
    assert str(err.value) == f"users must be integers in [0, 4), got {bad}"


def test_completion_at_depth_one_runs_no_residual_block(monkeypatch):
    """The split first block is the whole tower at depth 1: completion
    never falls back to the unsplit (cells, 2d) forward."""
    rng = np.random.default_rng(41)
    params = init_params(20, 30, 12, scoring_cfg(embed_dim=8), seed=41)
    mats = (random_observed(rng, (20, 12), 0.2), random_observed(rng, (30, 12), 0.2))
    ref = full_grid_estimate(*mats, params)

    def unsplit(*args, **kwargs):
        raise AssertionError("residual_forward ran")

    monkeypatch.setattr(network, "residual_forward", unsplit)
    assert_matches_full_grid(estimate_matrices(*mats, params), ref, mats)


def test_estimation_peak_memory_at_catalog_shape():
    """300 users and 1010 items x 100 attributes, 18% observed, at
    embed_dim 64: the completion's transient arrays stay small."""
    rng = np.random.default_rng(18)
    params = init_params(300, 1010, 100, TrainConfig(embed_dim=64), seed=18)
    user_mat, item_mat = (random_observed(rng, (n, 100), 0.18) for n in (300, 1010))
    tracemalloc.start()
    try:
        estimate_matrices(user_mat, item_mat, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# ---------------------------------------------------------------- attention

def test_substitution_attention_uniform_for_constant_product():
    phi = attention(np.full(5, 2.0), np.full(5, 3.0), temp=8.0)
    np.testing.assert_allclose(phi, 0.2, atol=1e-12)


def test_substitution_attention_uniform_limit_large_temp():
    q = np.array([1.0, 3.0, 5.0])
    j = np.array([2.0, 4.0, 1.0])
    phi = attention(q, j, temp=1e12)
    np.testing.assert_allclose(phi, 1.0 / 3.0, atol=1e-9)


def test_substitution_attention_reference_case():
    row = np.array([2.0, 3.0, 4.0])
    phi = attention(row, row, temp=8.0)
    np.testing.assert_allclose(phi, PHI_REFERENCE, atol=1e-12)


def test_personalization_attention_reference_cases():
    lam = attention(np.array([5.0, 4.0, 3.0, 2.0]),
                    np.array([5.0, 4.0, 3.0, 2.0]), temp=8.0)
    np.testing.assert_allclose(lam, LAM_REFERENCE_4, atol=1e-12)
    lam = attention(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4), temp=1.0)
    np.testing.assert_allclose(
        lam, (0.032058603280084988, 0.087144318742032567,
              0.23688281808991013, 0.64391425988797231), atol=1e-12)


def test_attention_is_probability_distribution():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.uniform(1.0, 5.0, size=8)
        b = rng.uniform(1.0, 5.0, size=8)
        # one row pair, and the same pairs as a batch of rows
        for w in (attention(a, b, 4.0),
                  *attention(np.stack([a, b]), np.stack([b, a]), 4.0)):
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) < 1e-9


def test_attention_entropy_non_decreasing_in_temperature():
    a = np.array([5.0, 1.2, 3.3, 2.0])
    b = np.array([4.1, 1.0, 4.9, 1.5])

    def entropy(w):
        return float(-(w * np.log(w)).sum())

    temps = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    ent = [entropy(attention(a, b, t)) for t in temps]
    assert all(e2 > e1 for e1, e2 in zip(ent, ent[1:]))


def test_softmax_shift_stability():
    logits = np.array([1000.0, 1001.0, 999.0])
    w = softmax(logits)
    assert np.isfinite(w).all()
    np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)


# -------------------------------------------------------------- aggregation

def test_aggregate_one_hot_recovers_row():
    attr_emb = np.random.default_rng(8).normal(size=(4, 3))
    weights = np.array([0.0, 0.0, 1.0, 0.0])
    np.testing.assert_array_equal(aggregate_attributes(weights, attr_emb),
                                  attr_emb[2])


def test_aggregate_uniform_is_mean():
    attr_emb = np.random.default_rng(9).normal(size=(5, 3))
    weights = np.full(5, 0.2)
    np.testing.assert_allclose(aggregate_attributes(weights, attr_emb),
                               attr_emb.mean(axis=0), atol=1e-12)


def test_aggregate_manual_weighted_sum():
    attr_emb = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5], [-2.0, 1.0]])
    weights = np.array([0.1, 0.4, 0.3, 0.2])
    expected = (0.1 * attr_emb[0] + 0.4 * attr_emb[1]
                + 0.3 * attr_emb[2] + 0.2 * attr_emb[3])
    np.testing.assert_allclose(aggregate_attributes(weights, attr_emb),
                               expected, atol=1e-12)


def test_aggregate_length_mismatch_error():
    with pytest.raises(ValueError, match="attributes"):
        aggregate_attributes(np.ones(3) / 3, np.zeros((4, 2)))


# ------------------------------------------------------------ scoring heads

def test_substitution_score_zero_projection():
    cfg, params, est = random_setup(10)
    params.subst_proj[...] = 0.0
    for q, j in ((0, 1), (2, 3), (4, 5)):
        assert score_substitution(q, j, params, est, cfg) == 0.0


def test_substitution_score_attr_half_only_when_query_embedding_zero():
    cfg, params, est = random_setup(11)
    d = params.embed_dim
    params.item_emb[0] = 0.0
    phi = attention(est.item_attr[0], est.item_attr[3], cfg.subst_temp)
    expected = float((phi @ params.attr_emb) @ params.subst_proj[d:])
    assert score_substitution(0, 3, params, est, cfg) == pytest.approx(
        expected, abs=1e-12)


def test_substitution_score_tiny_hand_case():
    cfg = TrainConfig(embed_dim=2, tower_depth=1, dropout=0.0, subst_temp=8.0)
    params = init_params(1, 2, 2, cfg, seed=12)
    params.item_emb[0] = [0.2, -0.1]
    params.item_emb[1] = [0.3, 0.4]
    params.attr_emb[...] = [[0.5, -0.2], [0.1, 0.3]]
    params.subst_proj[...] = [0.4, -0.3, 0.2, 0.1]
    est = EstimatedMatrices(user_attr=np.ones((1, 2)),
                            item_attr=np.array([[2.0, 3.0], [4.0, 2.0]]))

    logits = np.array([2.0 * 4.0, 3.0 * 2.0]) / 8.0
    e = np.exp(logits - logits.max())
    phi = e / e.sum()
    agg = phi[0] * np.array([0.5, -0.2]) + phi[1] * np.array([0.1, 0.3])
    expected = (0.2 * 0.3 * 0.4 + (-0.1) * 0.4 * (-0.3)
                + agg[0] * 0.2 + agg[1] * 0.1)
    assert score_substitution(0, 1, params, est, cfg) == pytest.approx(
        expected, abs=1e-12)


def test_personalization_score_zero_projection():
    cfg, params, est = random_setup(13)
    params.pers_proj[...] = 0.0
    assert score_personalization(0, 1, params, est, cfg) == 0.0


def test_personalization_score_attr_half_only_when_user_embedding_zero():
    cfg, params, est = random_setup(14)
    d = params.embed_dim
    params.user_emb[2] = 0.0
    lam = attention(est.user_attr[2], est.item_attr[1], cfg.pers_temp)
    expected = float((lam @ params.attr_emb) @ params.pers_proj[d:])
    assert score_personalization(2, 1, params, est, cfg) == pytest.approx(
        expected, abs=1e-12)


def test_personalization_score_tiny_hand_case():
    cfg = TrainConfig(embed_dim=2, tower_depth=1, dropout=0.0, pers_temp=4.0)
    params = init_params(1, 1, 2, cfg, seed=15)
    params.user_emb[0] = [0.5, -0.4]
    params.item_emb[0] = [0.1, 0.6]
    params.attr_emb[...] = [[-0.3, 0.2], [0.7, 0.1]]
    params.pers_proj[...] = [0.2, 0.5, -0.1, 0.3]
    est = EstimatedMatrices(user_attr=np.array([[3.0, 1.5]]),
                            item_attr=np.array([[2.0, 4.0]]))

    logits = np.array([3.0 * 2.0, 1.5 * 4.0]) / 4.0
    e = np.exp(logits - logits.max())
    lam = e / e.sum()
    agg = lam[0] * np.array([-0.3, 0.2]) + lam[1] * np.array([0.7, 0.1])
    expected = (0.5 * 0.1 * 0.2 + (-0.4) * 0.6 * 0.5
                + agg[0] * (-0.1) + agg[1] * 0.3)
    assert score_personalization(0, 0, params, est, cfg) == pytest.approx(
        expected, abs=1e-12)


def test_triplet_score_blend():
    # d=1, |A|=1: scores reduce to hand-settable products
    cfg = TrainConfig(embed_dim=1, tower_depth=1, dropout=0.0,
                      subst_weight=0.5)
    params = init_params(1, 3, 1, cfg, seed=16)
    params.user_emb[0] = [2.0]
    params.item_emb[...] = [[0.0], [1.0], [2.0]]   # query=1, candidate=2
    params.attr_emb[...] = [[0.0]]
    params.subst_proj[...] = [1.0, 0.0]
    params.pers_proj[...] = [1.0, 0.0]
    est = EstimatedMatrices(user_attr=np.ones((1, 1)),
                            item_attr=np.ones((3, 1)))
    f_s = score_substitution(1, 2, params, est, cfg)
    f_p = score_personalization(0, 2, params, est, cfg)
    assert f_s == 2.0 and f_p == 4.0
    assert triplet_score(0, 1, 2, params, est, cfg) == 3.0

    cfg_s = TrainConfig(embed_dim=1, tower_depth=1, dropout=0.0, subst_weight=1.0)
    assert triplet_score(0, 1, 2, params, est, cfg_s) == f_s
    cfg_p = TrainConfig(embed_dim=1, tower_depth=1, dropout=0.0, subst_weight=0.0)
    assert triplet_score(0, 1, 2, params, est, cfg_p) == f_p


def test_score_candidates_matches_scalar_scores():
    cfg, params, est = random_setup(17)
    items = np.array([0, 2, 3, 5])
    vec = score_candidates(params, est, cfg, 1, 4, items)
    for k, j in enumerate(items):
        assert vec[k] == pytest.approx(
            triplet_score(1, 4, int(j), params, est, cfg), abs=1e-12)


def test_score_candidates_respects_ablation_switches():
    for kw in (dict(subst_use_attrs=False), dict(pers_use_attrs=False)):
        cfg, params, est = random_setup(18, **kw)
        vec = score_candidates(params, est, cfg, 0, 1, np.array([2, 3]))
        for k, j in enumerate((2, 3)):
            expected = (cfg.subst_weight
                        * score_substitution(1, j, params, est, cfg)
                        + (1 - cfg.subst_weight)
                        * score_personalization(0, j, params, est, cfg))
            assert vec[k] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("c", [1, 4])
@pytest.mark.parametrize("temp", [1e-3, 1e6])
@pytest.mark.parametrize("subst_attrs,pers_attrs", ABLATIONS)
def test_grid_scores_match_triplet_score(subst_attrs, pers_attrs, temp, c):
    """Each (row, candidate) score of an (n, c) grid is triplet_score's to
    within 1e-12, on a grid whose users, queries and candidates repeat
    (rows 0 and 1 are equal) and where a query is among its own
    candidates (row 2)."""
    cfg, params, est = random_setup(
        45, n_users=3, n_items=7, n_attrs=5, subst_temp=temp, pers_temp=temp,
        subst_use_attrs=subst_attrs, pers_use_attrs=pers_attrs)
    rng = np.random.default_rng(46)
    users, queries = rng.integers(3, size=8), rng.integers(7, size=8)
    cands = rng.integers(7, size=(8, c))
    users[1], queries[1], cands[1] = users[0], queries[0], cands[0]
    cands[2, -1] = queries[2]
    scores, _ = ranking._score_rows(params, est, cfg, users, queries, cands)
    want = [[triplet_score(int(u), int(q), int(j), params, est, cfg)
             for j in row] for u, q, row in zip(users, queries, cands)]
    assert scores.shape == (8, c) and np.isfinite(scores).all()
    assert np.abs(scores - np.array(want)).max() <= 1e-12


@pytest.mark.parametrize("user, query, items, message", [
    (-1, 1, [2, 3], "users must be integers in [0, 4), got [-1]"),
    (4, 1, [2, 3], "users must be integers in [0, 4), got [4]"),
    (0, -1, [2, 3], "queries must be integers in [0, 6), got [-1]"),
    (0, 6, [2, 3], "queries must be integers in [0, 6), got [6]"),
    (0, 1, [-2, 5, 3], "candidates must be integers in [0, 6), got [-2]"),
    (0, 1, [2, 6, 9], "candidates must be integers in [0, 6), got [6, 9]"),
    (0, 1, [2.0, 3.5], "candidates must be integers in [0, 6), "
                       "got [2.0, 3.5]"),
])
def test_scoring_rejects_ids_outside_the_tables(user, query, items, message):
    """A negative id would wrap to the end of its table, and one past it
    would raise IndexError; either is a ValueError naming the ids."""
    cfg, params, est = random_setup(47)
    with pytest.raises(ValueError) as err:
        score_candidates(params, est, cfg, user, query, np.array(items))
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        recommend_top_k(params, est, cfg, user, query, np.array(items), k=3)
    assert str(err.value) == message


def test_item_attr_is_read_only_once_its_transpose_is_derived():
    cfg, params, est = random_setup(48)
    est.item_attr[0, 0] = 2.5
    score_candidates(params, est, cfg, 0, 1, np.array([0, 3]))
    table = est.item_attr_t
    score_candidates(params, est, cfg, 1, 2, np.array([0, 4]))
    assert est.item_attr_t is table
    np.testing.assert_array_equal(table, est.item_attr.T)
    with pytest.raises(ValueError, match="read-only"):
        est.item_attr[0, 0] = 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        est.item_attr = est.item_attr.copy()


@pytest.mark.parametrize("subst_attrs,pers_attrs", ABLATIONS)
@pytest.mark.parametrize("temp", [1e-3, 1e6])
def test_scoring_at_extreme_temperatures_matches_normalized_oracles(
        temp, subst_attrs, pers_attrs):
    # completed cells in [1, 5]: at 1e-3 the logits reach about 25,000, at
    # 1e6 they are all within 2.5e-5 of 0
    cfg, params, est = random_setup(
        43, n_users=3, n_items=7, n_attrs=5, subst_temp=temp, pers_temp=temp,
        subst_use_attrs=subst_attrs, pers_use_attrs=pers_attrs)
    items = np.arange(7)
    vec = score_candidates(params, est, cfg, 1, 4, items)
    want = np.array([triplet_score(1, 4, int(j), params, est, cfg)
                     for j in items])
    assert np.isfinite(vec).all()
    assert np.abs(vec - want).max() <= 1e-12 * np.abs(want).max()

    rng = np.random.default_rng(44)
    args = (rng.integers(3, size=6), rng.integers(7, size=6),
            rng.integers(7, size=6), rng.integers(7, size=(6, 3)))
    loss, got = bpr_s_forward_backward(params, est, cfg, *args)
    want_loss, want_grads = repeated_rows_bpr_s(params, est, cfg, *args)
    assert np.isfinite(loss) and got.all_finite()
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    # Each pair's upstreams sum to zero, so at 1e6, where the attention is
    # uniform to 1e-5, the attr_emb gradient cancels to about 1e-5 of the
    # other tensors'; every tensor is compared on the whole gradient's scale.
    scale = max(np.abs(w).max() for w in want_grads.tensors().values())
    for name, w in want_grads.tensors().items():
        gap = np.abs(getattr(got, name) - w).max()
        assert gap <= 1e-12 * scale, (name, gap)


# --------------------------------------------------------- negative sampling

def _neg_corpus():
    """Items: 0 bought+substitute, 1 bought only, 2 substitute only, 3 free,
    4 the query. User 0 bought {0, 1, 4}... bought set chosen per test."""
    inter = [(0, 0), (0, 1)]
    return Corpus(user_tokens=["u0"], item_tokens=["a", "b", "c", "d", "q"],
                  attr_tokens=["x"],
                  interactions=np.array(inter, dtype=np.int64),
                  lexicon=np.empty((0, 4), dtype=np.int64),
                  substitute_pairs=np.array([(0, 4), (2, 4)], dtype=np.int64))


def test_negative_sampling_eligibility_rule():
    corpus = _neg_corpus()
    rng = np.random.default_rng(20)
    draws = sample_negatives([0], [4], corpus, 500, rng)
    assert draws.shape == (1, 500)
    seen = set(int(x) for x in draws[0])
    assert 0 not in seen          # bought AND substitutable: always rejected
    assert 1 in seen              # bought only: eligible
    assert 2 in seen              # substitutable only: eligible
    assert 3 in seen              # neither: eligible


def test_negative_sampling_never_returns_positive():
    # the positive of a training triplet is by construction bought and
    # substitutable, which is exactly the rejected combination
    corpus = _neg_corpus()
    rng = np.random.default_rng(21)
    draws = sample_negatives(np.zeros(20), np.full(20, 4), corpus, 5, rng)
    assert draws.shape == (20, 5)
    assert 0 not in draws


def test_negative_sampling_budget_exhaustion():
    class StuckRng:
        def integers(self, n, size=None):
            return np.zeros(size, dtype=np.int64)   # always the rejected item

    corpus = _neg_corpus()
    with pytest.raises(RuntimeError, match="exhausted"):
        sample_negatives([0], [4], corpus, 2, StuckRng())


def test_sampling_tables_are_lazy_and_mirror_the_sets():
    corpus = dense_corpus(np.random.default_rng(3), 4, 9, 0.6)
    assert "sampling_tables" not in vars(corpus)
    sample_negatives([0], [1], corpus, 2, np.random.default_rng(0))
    bought, subst = vars(corpus)["sampling_tables"]
    assert bought.shape == (4, 9) and subst.shape == (9, 9)
    assert bought.nbytes + subst.nbytes == 4 * 9 + 9 * 9
    user_items, substitutes = relation_sets(corpus)
    for u in range(4):
        assert set(np.flatnonzero(bought[u])) == user_items[u]
    for q in range(9):
        assert set(np.flatnonzero(subst[q])) == substitutes[q]


def per_row_negatives(users, queries, corpus, count, rng):
    """Reference sampler: one scalar draw at a time, row after row, testing
    each candidate against Python sets of the corpus's relations."""
    user_items, substitutes = relation_sets(corpus)
    out = []
    budget = NEGATIVE_SAMPLE_FACTOR * count
    for user, query in zip(users, queries):
        interacted = user_items[user]
        subs = substitutes[query]
        row = []
        for _ in range(budget):
            cand = int(rng.integers(corpus.n_items))
            if cand in interacted and cand in subs:
                continue
            row.append(cand)
            if len(row) == count:
                break
        else:
            raise RuntimeError(
                f"negative sampling for user {user}, query {query} exhausted "
                f"{budget} draws; corpus too degenerate")
        out.append(row)
    return np.array(out, dtype=np.int64).reshape(len(users), count)


def dense_corpus(rng, n_users, n_items, density):
    """Corpus where most (bought, substitute) candidates are rejected."""
    inter = [(u, v) for u in range(n_users) for v in range(n_items)
             if rng.random() < density]
    pairs = [(a, b) for a in range(n_items) for b in range(a + 1, n_items)
             if rng.random() < density]
    return Corpus(user_tokens=[f"u{u}" for u in range(n_users)],
                  item_tokens=[f"i{v}" for v in range(n_items)],
                  attr_tokens=["x"],
                  interactions=np.array(inter, dtype=np.int64).reshape(-1, 2),
                  lexicon=np.empty((0, 4), dtype=np.int64),
                  substitute_pairs=np.array(pairs, dtype=np.int64).reshape(-1, 2))


def sampler_outcome(sampler, users, queries, corpus, count, seed):
    rng = np.random.default_rng(seed)
    try:
        result = sampler(users, queries, corpus, count, rng)
    except RuntimeError as exc:
        result = str(exc)
    return result, rng.bit_generator.state


@pytest.mark.parametrize("seed", range(12))
def test_batched_sampler_equals_per_row_loop(seed):
    rng = np.random.default_rng(seed)
    corpus = dense_corpus(rng, int(rng.integers(1, 6)),
                          int(rng.integers(2, 12)), rng.uniform(0.5, 0.95))
    rows = int(rng.integers(1, 40))
    users = rng.integers(corpus.n_users, size=rows)
    queries = rng.integers(corpus.n_items, size=rows)
    count = int(rng.integers(1, 6))
    got, got_state = sampler_outcome(sample_negatives, users, queries,
                                     corpus, count, seed + 100)
    want, want_state = sampler_outcome(per_row_negatives, users, queries,
                                       corpus, count, seed + 100)
    assert isinstance(want, np.ndarray)
    np.testing.assert_array_equal(got, want)
    assert got_state == want_state


class PoolRng:
    """Generator stand-in that draws uniformly from `pool` only, so rows
    whose forbidden set covers the pool exhaust their budget."""

    def __init__(self, pool, seed):
        self.pool = np.asarray(pool)
        self.inner = np.random.default_rng(seed)

    def integers(self, n, size=None):
        return self.pool[self.inner.integers(len(self.pool), size=size)]


@pytest.mark.parametrize("seed", range(2))
def test_batched_sampler_exhausts_like_per_row_loop(seed):
    # item 0 is rejected for (user 0, query 4) only: the rows before the
    # first query-4 row fill, that row spends its whole budget
    corpus = _neg_corpus()
    users = np.zeros(5, dtype=np.int64)
    queries = np.array([1, 2, 4, 3, 4])
    outcomes = []
    for sampler in (sample_negatives, per_row_negatives):
        rng = PoolRng([0, 0], seed)
        with pytest.raises(RuntimeError) as err:
            sampler(users, queries, corpus, 3, rng)
        outcomes.append((str(err.value), rng.inner.bit_generator.state))
    assert outcomes[0] == outcomes[1]
    assert "user 0, query 4 exhausted 3000 draws" in outcomes[0][0]


# ----------------------------------------------------------------- BPR loss

def margin_setup(margin):
    """d=1 personalization-only instance whose single pairwise margin is
    exactly `margin`: score(candidate j) = item_emb[j]."""
    cfg = TrainConfig(embed_dim=1, tower_depth=1, dropout=0.0,
                      subst_weight=0.0, pers_use_attrs=False)
    params = init_params(1, 3, 2, cfg, seed=22)
    params.user_emb[0] = [1.0]
    params.pers_proj[...] = [1.0]
    params.item_emb[...] = [[0.0], [margin], [0.0]]   # query=0, pos=1, neg=2
    est = EstimatedMatrices(user_attr=np.ones((1, 2)),
                            item_attr=np.ones((3, 2)))
    args = (np.array([0]), np.array([0]), np.array([1]), np.array([2]))
    return cfg, params, est, args


@pytest.mark.parametrize("margin,expected", [
    (0.0, 0.69314718055994531),
    (1.0, 0.31326168751822283),
    (-1.0, 1.3132616875182228),
    (-2.5, 2.5788897342925496),
    (5.0, 0.0067153484891180686),
    (-10.0, 10.000045398899217),
    (20.0, 2.0611536203143807e-09),
])
def test_bpr_loss_margin_table(margin, expected):
    cfg, params, est, args = margin_setup(margin)
    assert bpr_s_forward_backward(params, est, cfg, *args)[0] == pytest.approx(
        expected, abs=1e-12)


def test_bpr_loss_overflow_safe_at_extreme_margins():
    for margin in (-800.0, 800.0):
        cfg, params, est, args = margin_setup(margin)
        loss = bpr_s_forward_backward(params, est, cfg, *args)[0]
        assert np.isfinite(loss)
        if margin < 0:
            assert loss == pytest.approx(-margin, abs=1e-9)
        else:
            assert loss == 0.0


def test_bpr_loss_shift_invariance():
    cfg, params, est, args = margin_setup(0.5)
    base = bpr_s_forward_backward(params, est, cfg, *args)[0]
    params.item_emb[1, 0] += 2.0      # dyadic shift keeps the margin exact
    params.item_emb[2, 0] += 2.0
    assert bpr_s_forward_backward(params, est, cfg, *args)[0] == base


def test_bpr_loss_sums_per_quadruple_terms():
    cfg, params, est, _ = margin_setup(0.0)
    users = np.zeros(4, dtype=np.int64)
    queries = np.zeros(4, dtype=np.int64)
    positives = np.array([1, 1, 1, 1])
    negatives = np.array([2, 2, 2, 2])
    loss = bpr_s_forward_backward(params, est, cfg, users, queries, positives,
                                  negatives)[0]
    assert loss == pytest.approx(4 * 0.69314718055994531, abs=1e-12)


def test_bpr_gradients_match_finite_differences():
    cfg, params, est = random_setup(23, n_users=3, n_items=5, n_attrs=4)
    users = np.array([0, 1, 2, 0])
    queries = np.array([1, 3, 0, 2])
    positives = np.array([2, 4, 1, 3])
    negatives = np.array([0, 2, 3, 4])
    _, analytic = bpr_s_forward_backward(params, est, cfg, users, queries,
                                         positives, negatives)
    numeric = central_diff_grads(
        params,
        lambda: bpr_s_forward_backward(params, est, cfg, users, queries,
                                       positives, negatives)[0])
    assert worst_relative_gap(analytic, numeric) < 1e-4


def test_bpr_gradients_match_finite_differences_under_ablations():
    for kw in (dict(subst_use_attrs=False), dict(pers_use_attrs=False),
               dict(subst_weight=0.0), dict(subst_weight=1.0)):
        cfg, params, est = random_setup(24, n_users=3, n_items=5, n_attrs=3,
                                        **kw)
        users = np.array([0, 2])
        queries = np.array([1, 0])
        positives = np.array([3, 2])
        negatives = np.array([4, 1])
        _, analytic = bpr_s_forward_backward(params, est, cfg, users, queries,
                                             positives, negatives)
        numeric = central_diff_grads(
            params,
            lambda: bpr_s_forward_backward(params, est, cfg, users, queries,
                                           positives, negatives)[0])
        assert worst_relative_gap(analytic, numeric) < 1e-4, kw


def test_bpr_gradients_match_finite_differences_with_k_negatives():
    cfg, params, est = random_setup(31, n_users=3, n_items=5, n_attrs=4)
    users = np.array([0, 1, 2, 0])
    queries = np.array([1, 3, 0, 2])
    positives = np.array([2, 4, 1, 3])
    negatives = np.array([[0, 3, 4], [2, 0, 1], [3, 4, 2], [4, 1, 0]])
    loss, analytic = bpr_s_forward_backward(params, est, cfg, users, queries,
                                            positives, negatives)
    pairs = sum(bpr_s_forward_backward(params, est, cfg, users, queries,
                                       positives, negatives[:, c])[0]
                for c in range(3))
    assert loss == pytest.approx(pairs, rel=1e-12)
    numeric = central_diff_grads(
        params,
        lambda: bpr_s_forward_backward(params, est, cfg, users, queries,
                                       positives, negatives)[0])
    assert worst_relative_gap(analytic, numeric) < 1e-4


def test_bpr_one_negative_per_row_as_vector_or_column():
    cfg, params, est = random_setup(32, n_users=3, n_items=5, n_attrs=4)
    args = (np.array([0, 2, 1]), np.array([1, 0, 3]), np.array([3, 2, 4]))
    negatives = np.array([4, 1, 0])
    loss_1d, g_1d = bpr_s_forward_backward(params, est, cfg, *args, negatives)
    loss_2d, g_2d = bpr_s_forward_backward(params, est, cfg, *args,
                                           negatives[:, None])
    assert loss_1d == loss_2d
    for a, b in zip(g_1d.tensors().values(), g_2d.tensors().values()):
        np.testing.assert_array_equal(a, b)


def test_bpr_into_a_used_buffer_gives_the_bits_of_a_new_one():
    cfg, params, est = random_setup(34, n_users=3, n_items=5, n_attrs=4)
    args = (np.array([0, 2, 1]), np.array([1, 0, 3]), np.array([3, 2, 4]),
            np.array([[4, 1], [1, 2], [0, 4]]))
    want_loss, want = bpr_s_forward_backward(params, est, cfg, *args)
    buf = ModelParams.zeros_like(params)
    buf.flat[...] = np.nan
    loss, got = bpr_s_forward_backward(params, est, cfg, *args, grads=buf)
    assert got is buf and loss == want_loss
    assert np.array_equal(got.flat.view(np.uint64), want.flat.view(np.uint64))


@pytest.mark.parametrize("negatives", [
    np.array([4, 1]),                   # one row short
    np.array([[4], [1], [0], [2]]),     # one row over
    np.array([[4, 1, 0]]),              # (1, n): k laid along the wrong axis
    np.zeros((3, 2, 1), dtype=np.int64),
    np.array(4),
])
def test_bpr_negatives_shape_mismatch_is_value_error(negatives):
    cfg, params, est = random_setup(33, n_users=3, n_items=5, n_attrs=4)
    args = (np.array([0, 2, 1]), np.array([1, 0, 3]), np.array([3, 2, 4]))
    with pytest.raises(ValueError, match="negatives must have shape"):
        bpr_s_forward_backward(params, est, cfg, *args, negatives)


def test_bpr_gradients_treat_estimates_as_constants():
    # phase-2 gradients must not depend on perturbations applied to the
    # completed matrices' role as variables: same params, different est give
    # gradients computed against each est snapshot without cross-talk
    cfg, params, est = random_setup(25, n_users=2, n_items=4, n_attrs=3)
    args = (np.array([0]), np.array([1]), np.array([2]), np.array([3]))
    _, g1 = bpr_s_forward_backward(params, est, cfg, *args)
    _, g2 = bpr_s_forward_backward(params, est, cfg, *args)
    for a, b in zip(g1.tensors().values(), g2.tensors().values()):
        np.testing.assert_array_equal(a, b)


# -------------------------------------------------------------------- top-k

def test_top_k_full_list_when_k_exceeds_candidates():
    cfg, params, est = random_setup(26)
    ranked = recommend_top_k(params, est, cfg, 0, 1, np.array([2, 3, 4]), k=50)
    assert len(ranked.items) == 3
    assert list(ranked.scores) == sorted(ranked.scores, reverse=True)
    assert set(int(i) for i in ranked.items) == {2, 3, 4}


def test_top_k_matches_brute_force_on_200_candidates():
    cfg, params, est = random_setup(27, n_users=5, n_items=250, n_attrs=6)
    rng = np.random.default_rng(28)
    candidates = rng.choice(250, size=200, replace=False)
    ranked = recommend_top_k(params, est, cfg, 2, 7, candidates, k=10)

    scores = {int(j): triplet_score(2, 7, int(j), params, est, cfg)
              for j in candidates}
    brute = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert [int(i) for i in ranked.items] == [j for j, _ in brute]
    np.testing.assert_allclose(ranked.scores, [s for _, s in brute],
                               atol=1e-12)


def test_top_k_tie_breaks_toward_lower_index():
    cfg, params, est = random_setup(29)
    params.subst_proj[...] = 0.0
    params.pers_proj[...] = 0.0      # every candidate scores exactly 0
    ranked = recommend_top_k(params, est, cfg, 0, 1,
                             np.array([5, 3, 2, 4]), k=3)
    assert [int(i) for i in ranked.items] == [2, 3, 4]


def test_top_k_collapses_duplicates_and_validates():
    cfg, params, est = random_setup(30)
    ranked = recommend_top_k(params, est, cfg, 0, 1,
                             np.array([2, 2, 3, 3]), k=10)
    assert sorted(int(i) for i in ranked.items) == [2, 3]
    with pytest.raises(ValueError, match="k must be"):
        recommend_top_k(params, est, cfg, 0, 1, np.array([2]), k=0)
    with pytest.raises(ValueError, match="empty candidate"):
        recommend_top_k(params, est, cfg, 0, 1, np.array([], dtype=np.int64),
                        k=1)
