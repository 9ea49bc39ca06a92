"""Observed user-attribute and item-attribute matrix construction."""

import numpy as np
import pytest

from a2cf.data import Corpus, LexiconEntry, filter_corpus
from a2cf.matrices import build_matrices, item_attr_value, user_attr_value
from conftest import SUB_PAIRS, grid_reviews

# values checked against a high-precision evaluation of
# 1 + (N-1) * tanh(t/2) and 1 + (N-1) * sigmoid(t * s)
USER_VALUE_T1 = 2.848468629040039
USER_VALUE_T2 = 4.0463766238230596
ITEM_VALUE_POS = 3.9242343145200195    # t=1, s=+1, N=5
ITEM_VALUE_NEG = 2.0757656854799805    # t=1, s=-1, N=5
ITEM_VALUE_T2_POS = 4.5231883119115298  # t=2, s=+1, N=5


def test_user_attr_value_small_counts():
    assert user_attr_value(1, 5.0) == pytest.approx(USER_VALUE_T1, abs=1e-12)
    assert user_attr_value(2, 5.0) == pytest.approx(USER_VALUE_T2, abs=1e-12)


def test_user_attr_value_saturates_at_scale_cap():
    val = user_attr_value(200, 5.0)
    assert abs(val - 5.0) < 1e-12
    assert val <= 5.0


def test_user_attr_value_strictly_increasing():
    vals = [user_attr_value(t, 5.0) for t in range(1, 12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(1.0 < v <= 5.0 for v in vals)


def test_user_attr_value_other_scale_cap():
    assert user_attr_value(2, 10.0) == pytest.approx(7.854347403601884, abs=1e-12)


def test_user_attr_value_rejects_nonpositive_count():
    with pytest.raises(ValueError, match="mention count"):
        user_attr_value(0)
    with pytest.raises(ValueError):
        user_attr_value(-3)


def test_item_attr_value_neutral_sentiment_is_midpoint():
    assert item_attr_value(1, 0.0, 5.0) == 3.0
    assert item_attr_value(9, 0.0, 5.0) == 3.0


def test_item_attr_value_single_mention():
    assert item_attr_value(1, 1.0, 5.0) == pytest.approx(ITEM_VALUE_POS, abs=1e-12)
    assert item_attr_value(1, -1.0, 5.0) == pytest.approx(ITEM_VALUE_NEG, abs=1e-12)


def test_item_attr_value_symmetric_about_midpoint():
    for t, s in [(1, 1.0), (3, 0.25), (5, 0.6)]:
        hi = item_attr_value(t, s, 5.0)
        lo = item_attr_value(t, -s, 5.0)
        assert hi + lo == pytest.approx(6.0, abs=1e-12)


def test_item_attr_value_rejects_bad_inputs():
    with pytest.raises(ValueError, match="mention count"):
        item_attr_value(0, 0.5)
    with pytest.raises(ValueError, match="mean sentiment"):
        item_attr_value(2, 1.5)


def test_build_matrices_counts_and_mean_sentiment(grid_corpus):
    x, y = build_matrices(grid_corpus)
    # attrs sorted: battery=0, price=1, screen=2; users uA..uF = 0..5
    assert x[0, 0] == user_attr_value(2)          # uA mentions battery twice
    assert x[1, 0] == user_attr_value(1)
    assert x[0, 1] == user_attr_value(1)
    assert not x[5].any()                         # uF mentions nothing
    assert y[0, 0] == item_attr_value(2, 1.0)     # p0 battery: uA+1, uB+1
    assert y[1, 0] == item_attr_value(1, -1.0)
    assert y[3, 2] == item_attr_value(2, 1.0)


def test_build_matrices_full_hand_table(grid_corpus):
    user_mat, item_mat = build_matrices(grid_corpus)
    expected_x = np.zeros((6, 3))
    expected_x[0, 0] = USER_VALUE_T2       # uA battery, two mentions
    expected_x[0, 1] = USER_VALUE_T1       # uA price
    expected_x[1, 0] = USER_VALUE_T1       # uB battery
    expected_x[2, 1] = USER_VALUE_T1       # uC price
    expected_x[3, 2] = USER_VALUE_T1       # uD screen
    expected_x[4, 2] = USER_VALUE_T1       # uE screen
    np.testing.assert_allclose(user_mat, expected_x, atol=1e-12)

    expected_y = np.zeros((6, 3))
    expected_y[0, 0] = ITEM_VALUE_T2_POS   # p0 battery: t=2, mean +1
    expected_y[0, 1] = ITEM_VALUE_POS      # p0 price
    expected_y[1, 0] = ITEM_VALUE_NEG      # p1 battery: t=1, mean -1
    expected_y[2, 1] = ITEM_VALUE_NEG      # p2 price
    expected_y[3, 2] = ITEM_VALUE_T2_POS   # p3 screen: t=2, mean +1
    np.testing.assert_allclose(item_mat, expected_y, atol=1e-12)


def test_build_matrices_absent_cells_are_exact_zero(grid_corpus):
    user_mat, item_mat = build_matrices(grid_corpus)
    assert user_mat[5, 0] == 0.0
    assert user_mat[5, 2] == 0.0
    assert item_mat[4, 0] == 0.0
    assert user_mat.dtype == item_mat.dtype == np.float64


def test_build_matrices_mixed_sentiment_cancels_to_midpoint():
    lex = [LexiconEntry("uA", "p0", "battery", 1),
           LexiconEntry("uB", "p0", "battery", -1)]
    corpus = filter_corpus(grid_reviews(), lex, list(SUB_PAIRS))
    _, item_mat = build_matrices(corpus)
    # one cell, two mentions, mean sentiment 0
    assert [c.tolist() for c in np.nonzero(item_mat)] == [[0], [0]]
    assert item_mat[0, 0] == item_attr_value(2, 0.0) == 3.0


def test_build_matrices_observed_values_within_scale(grid_corpus):
    user_mat, item_mat = build_matrices(grid_corpus)
    for mat in (user_mat, item_mat):
        vals = mat[mat != 0.0]
        assert np.all(vals >= 1.0)
        assert np.all(vals <= 5.0)


def test_observed_matrix_shapes(grid_corpus):
    user_mat, item_mat = build_matrices(grid_corpus)
    assert user_mat.shape == item_mat.shape == (6, 3)
    assert np.count_nonzero(user_mat) == 6
    assert np.count_nonzero(item_mat) == 5


def random_lexicon_corpus(seed):
    """A corpus of random mentions: repeats, mixed sentiment, and users and
    items that mention nothing. Seed 0 has no mention at all."""
    rng = np.random.default_rng(seed)
    n_users, n_items, n_attrs = (int(n) for n in rng.integers(2, 9, size=3))
    n_lex = 0 if seed == 0 else int(rng.integers(1, 200))
    lex = np.column_stack([
        rng.integers(n_users - 1, size=n_lex),      # the last user is silent
        rng.integers(n_items - 1, size=n_lex),      # so is the last item
        rng.integers(n_attrs, size=n_lex),
        rng.choice([-1, 1], size=n_lex)]).astype(np.int64)
    return Corpus(user_tokens=[f"u{i}" for i in range(n_users)],
                  item_tokens=[f"i{i}" for i in range(n_items)],
                  attr_tokens=[f"a{i}" for i in range(n_attrs)],
                  interactions=np.empty((0, 2), dtype=np.int64),
                  lexicon=lex.reshape(-1, 4),
                  substitute_pairs=np.empty((0, 2), dtype=np.int64))


def brute_force_matrices(corpus):
    """Dense matrices filled cell by cell from the scalar value maps."""
    lex = corpus.lexicon
    x = np.zeros((corpus.n_users, corpus.n_attrs))
    y = np.zeros((corpus.n_items, corpus.n_attrs))
    for a in range(corpus.n_attrs):
        for u in range(corpus.n_users):
            hits = (lex[:, 0] == u) & (lex[:, 2] == a)
            if hits.any():
                x[u, a] = user_attr_value(int(hits.sum()))
        for v in range(corpus.n_items):
            hits = (lex[:, 1] == v) & (lex[:, 2] == a)
            if hits.any():
                count = int(hits.sum())
                mean = int(lex[hits, 3].sum()) / count
                y[v, a] = item_attr_value(count, mean)
    return x, y


@pytest.mark.parametrize("seed", range(12))
def test_build_matrices_bit_identical_to_scalar_value_maps(seed):
    corpus = random_lexicon_corpus(seed)
    mats = build_matrices(corpus)
    for got, want in zip(mats, brute_force_matrices(corpus)):
        assert got.shape == want.shape
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_build_matrices_matches_item_attr_value_at_every_integer_sum():
    """Attribute a of one item has |k| mentions of sign k, k = a - 400 (k = 0
    one of each sign), so t * mean sentiment is every integer in
    [-400, 400]. The sigmoid of a value alone has the bits it has in the
    matrix, at the integers where numpy's exp and libm's differ too."""
    ks = np.arange(-400, 401)
    attrs = np.concatenate([np.repeat(np.flatnonzero(ks), np.abs(ks[ks != 0])),
                            [400, 400]])
    sentiment = np.concatenate([np.sign(ks[attrs[:-2]]), [1, -1]])
    lex = np.column_stack([np.zeros_like(attrs), np.zeros_like(attrs),
                           attrs, sentiment]).astype(np.int64)
    corpus = Corpus(user_tokens=["u0"], item_tokens=["i0"],
                    attr_tokens=[f"a{a:03d}" for a in range(len(ks))],
                    interactions=np.empty((0, 2), dtype=np.int64),
                    lexicon=lex,
                    substitute_pairs=np.empty((0, 2), dtype=np.int64))
    _, item_mat = build_matrices(corpus)
    want = np.array([item_attr_value(abs(k) or 2, float(np.sign(k)))
                     for k in ks.tolist()])
    assert np.array_equal(item_mat[0].view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_build_matrices_counts_the_last_grid_cell(seed):
    """A mention of the last user, item and attribute lands in cell
    n * n_attrs - 1 of each grid, the edge of its bincount's minlength."""
    corpus = random_lexicon_corpus(seed)
    last = [corpus.n_users - 1, corpus.n_items - 1, corpus.n_attrs - 1]
    extra = np.array([last + [1], last + [-1], last + [1]], dtype=np.int64)
    corpus.lexicon = np.concatenate([corpus.lexicon, extra])
    mats = build_matrices(corpus)
    for got, want in zip(mats, brute_force_matrices(corpus)):
        assert want[-1, -1] != 0.0
        assert got[-1, -1] != 0.0
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

