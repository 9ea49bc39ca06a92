"""Residual towers, prediction heads, analytic gradients, and Adam."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from a2cf import network
from a2cf.config import TrainConfig
from a2cf.network import (AdamState, INIT_SCALE, ModelParams, _block_rows,
                          _expit, _tower_predict, adam_step, dropout_mask,
                          init_params, param_shapes, phase1_forward_backward,
                          predict_item_attr_batch, predict_user_attr_batch,
                          residual_backward, residual_forward, tanh_rescaled,
                          tanh_rescaled_grad)
from conftest import (assert_flat_layout, central_diff_grads,
                      worst_relative_gap, written_out_adam)

TANH_ONE_ON_FIVE = 4.5231883119115298


def small_cfg(**kw):
    base = dict(embed_dim=4, tower_depth=2, dropout=0.0)
    base.update(kw)
    return TrainConfig(**base)


def user_cell(params, user, attr):
    """One user-attribute cell through the batch predictor."""
    return predict_user_attr_batch(params, [user], [attr])[0]


def item_cell(params, item, attr):
    return predict_item_attr_batch(params, [item], [attr])[0]


def zeroed_params(cfg, n_users=3, n_items=3, n_attrs=3):
    params = init_params(n_users, n_items, n_attrs, cfg, seed=0)
    for t in params.tensors().values():
        t[...] = 0.0
    return params


# ------------------------------------------------------------------- init

def test_init_same_seed_bit_identical():
    cfg = small_cfg()
    a = init_params(5, 6, 4, cfg, seed=123)
    b = init_params(5, 6, 4, cfg, seed=123)
    for ta, tb in zip(a.tensors().values(), b.tensors().values()):
        np.testing.assert_array_equal(ta, tb)


def test_init_within_scale_and_zero_biases():
    params = init_params(8, 9, 5, small_cfg(), seed=7)
    for name, t in params.tensors().items():
        assert np.all(np.abs(t) <= INIT_SCALE), name
    assert np.all(params.user_tower_b == 0.0)
    assert np.all(params.item_tower_b == 0.0)


def _views_and_frozen(params, shapes):
    assert_flat_layout(params, shapes)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.user_emb = params.user_emb.copy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.flat = params.flat.copy()


@pytest.mark.parametrize("reduced", [False, True])
def test_every_way_of_making_params_lays_tensors_out_in_flat(reduced):
    """init_params, zeros_like, zeros, construction from arrays and
    dataclasses.replace each give one vector whose views are the 11
    tensors at their field-order offsets; the last two copy their arrays
    into a vector of their own."""
    cfg = small_cfg(subst_use_attrs=not reduced, pers_use_attrs=not reduced)
    shapes = param_shapes(5, 6, 4, cfg)
    params = init_params(5, 6, 4, cfg, seed=8)
    _views_and_frozen(params, shapes)
    for zeros in (ModelParams.zeros_like(params), ModelParams.zeros(shapes)):
        _views_and_frozen(zeros, shapes)
        assert not zeros.flat.any()
    built = ModelParams(**params.tensors())
    _views_and_frozen(built, shapes)
    assert not np.shares_memory(built.flat, params.flat)
    assert np.array_equal(built.flat.view(np.uint64),
                          params.flat.view(np.uint64))
    emb = np.full(shapes["item_emb"], 0.5)
    swapped = dataclasses.replace(params, item_emb=emb)
    _views_and_frozen(swapped, shapes)
    assert not np.shares_memory(swapped.flat, params.flat)
    assert not np.shares_memory(swapped.item_emb, emb)
    for name, t in swapped.tensors().items():
        want = emb if name == "item_emb" else getattr(params, name)
        assert np.array_equal(t, want), name


def test_init_different_seeds_differ():
    cfg = small_cfg()
    a = init_params(5, 6, 4, cfg, seed=1)
    b = init_params(5, 6, 4, cfg, seed=2)
    assert not np.array_equal(a.user_emb, b.user_emb)


def test_init_shapes_follow_config():
    cfg = small_cfg(embed_dim=3, tower_depth=2)
    params = init_params(4, 5, 6, cfg, seed=0)
    assert params.user_emb.shape == (4, 3)
    assert params.attr_emb.shape == (6, 3)
    assert params.user_tower_w.shape == (2, 6, 6)
    assert params.user_head.shape == (6,)
    assert params.subst_proj.shape == (6,)
    assert params.embed_dim == 3 and params.tower_depth == 2


def test_init_reduced_projection_under_ablation():
    cfg = small_cfg(embed_dim=3, subst_use_attrs=False)
    params = init_params(4, 5, 6, cfg, seed=0)
    assert params.subst_proj.shape == (3,)
    assert params.pers_proj.shape == (6,)
    cfg = small_cfg(embed_dim=3, pers_use_attrs=False)
    params = init_params(4, 5, 6, cfg, seed=0)
    assert params.pers_proj.shape == (3,)


# --------------------------------------------------------- residual tower

def test_residual_identity_with_zero_weights():
    h0 = np.random.default_rng(0).normal(size=(3, 6))
    weights = np.zeros((2, 6, 6))
    biases = np.zeros((2, 6))
    out, _ = residual_forward(h0, weights, biases)
    np.testing.assert_array_equal(out, h0)


def test_residual_identity_with_large_negative_bias():
    h0 = np.random.default_rng(1).normal(size=(4, 6))
    weights = np.zeros((2, 6, 6))
    biases = np.full((2, 6), -100.0)
    out, _ = residual_forward(h0, weights, biases)
    np.testing.assert_array_equal(out, h0)


def test_residual_two_layer_matches_hand_evaluation():
    rng = np.random.default_rng(2)
    h0 = rng.normal(size=(3, 6))
    weights = rng.normal(scale=0.5, size=(2, 6, 6))
    biases = rng.normal(scale=0.1, size=(2, 6))
    out, _ = residual_forward(h0, weights, biases)

    h = h0.copy()
    for k in range(2):
        pre = np.empty_like(h)
        for row in range(h.shape[0]):
            for j in range(6):
                pre[row, j] = float(np.dot(weights[k][j], h[row])) + biases[k][j]
        h = h + np.where(pre > 0.0, pre, 0.0)
    np.testing.assert_allclose(out, h, atol=1e-12)


def test_residual_nonfinite_activation_names_block():
    h0 = np.full((1, 4), np.inf)
    weights = np.ones((2, 4, 4))
    biases = np.zeros((2, 4))
    with pytest.raises(FloatingPointError, match="block 0"):
        residual_forward(h0, weights, biases)


def test_residual_backward_matches_finite_differences_with_masks():
    rng = np.random.default_rng(3)
    h0 = rng.normal(size=(3, 4))
    weights = rng.normal(scale=0.4, size=(2, 4, 4))
    biases = rng.normal(scale=0.1, size=(2, 4))
    masks = [dropout_mask((3, 4), 0.4, rng) for _ in range(2)]

    def loss():
        out, _ = residual_forward(h0, weights, biases, masks)
        return float(out.sum())

    out, cache = residual_forward(h0, weights, biases, masks)
    g_h0, grad_w, grad_b = residual_backward(np.ones_like(out), weights, cache)

    step = 1e-6
    for arr, grad in ((weights, grad_w), (biases, grad_b), (h0, g_h0)):
        flat, gflat = arr.ravel(), grad.ravel()
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + step
            hi = loss()
            flat[k] = keep - step
            lo = loss()
            flat[k] = keep
            fd = (hi - lo) / (2 * step)
            assert abs(fd - gflat[k]) < 1e-5


# ------------------------------------------------------- logistic sigmoid

# every integer an item cell's sentiment sum can take with up to 400
# mentions, beside a dense grid; numpy's exp differs from libm's by an ulp
# at some of both
EXPIT_GRID = np.concatenate([np.linspace(-800.0, 800.0, 1_600_001),
                             np.arange(-400.0, 401.0)])


def libm_expit(e):
    """1 / (1 + e) for e = exp(-x), each operation rounded once."""
    return 1.0 / (1.0 + e)


def test_expit_is_the_libm_formula_on_an_exp_within_one_ulp():
    """_expit(x) lies between 1 / (1 + e) at the two neighbours of libm's
    e = exp(-x), inf where math.exp overflows: the formula is libm's, and
    only the exp, a SIMD loop in numpy, may move by an ulp. The quotient
    is monotone in e, but one ulp of e can carry 1 + e across a rounding
    boundary, so the result itself can move by more than one ulp."""
    def libm_exp(x):
        try:
            return math.exp(-x)
        except OverflowError:
            return math.inf
    e = np.array([libm_exp(x) for x in EXPIT_GRID.tolist()])
    got = _expit(EXPIT_GRID)
    lo = libm_expit(np.nextafter(e, math.inf))
    hi = libm_expit(np.nextafter(e, 0.0))
    assert ((lo <= got) & (got <= hi)).all()
    # the bits move only where the two exps differ
    with np.errstate(over="ignore"):
        same_exp = np.exp(-EXPIT_GRID) == e
    assert np.array_equal(got[same_exp], libm_expit(e[same_exp]))


def test_expit_limits_are_exact_and_silent():
    """0.0 where exp(-x) overflows, 1.0 where 1 + exp(-x) rounds to 1, and
    no overflow warning on the way."""
    past_overflow = np.concatenate([np.linspace(-800.0, -709.79, 9022),
                                    [-1e300, -math.inf]])
    saturated = np.concatenate([np.linspace(37.0, 800.0, 7631),
                                [1e300, math.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (_expit(past_overflow) == 0.0).all()
        assert (_expit(saturated) == 1.0).all()
        assert _expit(-800.0) == 0.0 and _expit(800.0) == 1.0
    assert not np.signbit(_expit(past_overflow)).any()
    assert _expit(0.0) == 0.5


def test_expit_alone_has_the_bits_it_has_in_an_array():
    xs = np.concatenate([np.arange(-400.0, 401.0), EXPIT_GRID[::997]])
    alone = np.array([_expit(x) for x in xs.tolist()])
    assert np.array_equal(alone.view(np.uint64), _expit(xs).view(np.uint64))


# ----------------------------------------------------------- rescale head

def test_tanh_rescaled_midpoint_and_unit():
    assert tanh_rescaled(0.0, 5.0) == 3.0
    assert tanh_rescaled(1.0, 5.0) == pytest.approx(TANH_ONE_ON_FIVE, abs=1e-12)


def test_tanh_rescaled_saturates_without_overflow():
    assert abs(tanh_rescaled(40.0, 5.0) - 5.0) < 1e-12
    assert abs(tanh_rescaled(-40.0, 5.0) - 1.0) < 1e-12
    assert np.isfinite(tanh_rescaled(1e6, 5.0))


@pytest.mark.parametrize("rating_max", [1 + 2.0 ** -52, 7.3, 1e16])
def test_tanh_rescaled_stays_on_the_rating_scale(rating_max):
    """Unclipped, saturation rounds to 1 - 2**-53, 7.300000000000001 and 0
    at these scales; a format-3 checkpoint rejects a completion that
    leaves [1, rating_max]."""
    r = np.array([-40.0, -19.0, 0.0, 19.0, 40.0])
    out = tanh_rescaled(r, rating_max)
    assert ((out >= 1.0) & (out <= rating_max)).all()
    assert (np.diff(out) >= 0).all()


def test_tanh_rescaled_clip_changes_no_bit_at_five():
    r = np.linspace(-50.0, 50.0, 20001)
    raw = 2.0 * np.tanh(r) + 3.0
    np.testing.assert_array_equal(tanh_rescaled(r, 5.0).view(np.uint64),
                                  raw.view(np.uint64))


def test_tanh_rescaled_odd_symmetry():
    for r in (0.1, 0.7, 2.0, 13.0):
        total = tanh_rescaled(r, 5.0) + tanh_rescaled(-r, 5.0)
        assert total == pytest.approx(6.0, abs=1e-12)


def test_tanh_rescaled_grad_matches_finite_differences():
    for r in (-2.0, -0.3, 0.0, 0.5, 1.7):
        fd = (tanh_rescaled(r + 1e-6, 5.0) - tanh_rescaled(r - 1e-6, 5.0)) / 2e-6
        assert tanh_rescaled_grad(r, 5.0) == pytest.approx(fd, abs=1e-8)


# ------------------------------------------------------------- predictors

def test_predict_zero_weights_gives_midpoint():
    params = zeroed_params(small_cfg())
    assert user_cell(params, 0, 0) == 3.0
    assert item_cell(params, 2, 1) == 3.0


def test_predict_range_over_many_random_params():
    cfg = small_cfg(embed_dim=3)
    count = 0
    for seed in range(100):
        params = init_params(4, 4, 4, cfg, seed=seed)
        for u in range(4):
            for a in range(4):
                if count >= 1000:
                    break
                x = user_cell(params, u, a)
                y = item_cell(params, u, a)
                assert 1.0 < x < 5.0
                assert 1.0 < y < 5.0
                count += 1
    assert count == 1000


def test_predict_user_attribute_hand_value():
    cfg = TrainConfig(embed_dim=2, tower_depth=1, dropout=0.0)
    params = zeroed_params(cfg, n_users=1, n_items=1, n_attrs=1)
    params.user_emb[0] = [0.1, -0.2]
    params.attr_emb[0] = [0.3, 0.05]
    params.user_tower_w[0] = [[0.5, -0.25, 0.1, 0.0],
                              [0.2, 0.3, -0.1, 0.4],
                              [-0.3, 0.1, 0.2, 0.1],
                              [0.0, -0.2, 0.15, 0.25]]
    params.user_tower_b[0] = [0.05, -0.02, 0.0, 0.1]
    params.user_head[...] = [0.4, -0.1, 0.3, 0.2]

    h0 = np.array([0.1, -0.2, 0.3, 0.05])
    z = params.user_tower_w[0] @ h0 + params.user_tower_b[0]
    h = h0 + np.maximum(z, 0.0)
    r = float(params.user_head @ h)
    expected = 2.0 * np.tanh(r) + 3.0
    assert user_cell(params, 0, 0) == pytest.approx(expected, abs=1e-12)


def test_predict_item_attribute_hand_value():
    cfg = TrainConfig(embed_dim=2, tower_depth=1, dropout=0.0)
    params = zeroed_params(cfg, n_users=1, n_items=1, n_attrs=1)
    params.item_emb[0] = [-0.15, 0.25]
    params.attr_emb[0] = [0.1, -0.3]
    params.item_tower_w[0] = np.array([[0.2, 0.1, -0.1, 0.3],
                                       [-0.4, 0.2, 0.1, 0.0],
                                       [0.1, -0.1, 0.3, 0.2],
                                       [0.25, 0.0, -0.2, 0.1]])
    params.item_tower_b[0] = [0.0, 0.05, -0.1, 0.02]
    params.item_head[...] = [-0.2, 0.3, 0.1, 0.4]

    h0 = np.array([-0.15, 0.25, 0.1, -0.3])
    z = params.item_tower_w[0] @ h0 + params.item_tower_b[0]
    h = h0 + np.maximum(z, 0.0)
    expected = 2.0 * np.tanh(float(params.item_head @ h)) + 3.0
    assert item_cell(params, 0, 0) == pytest.approx(expected, abs=1e-12)


def test_attr_embedding_shared_between_towers():
    params = init_params(3, 3, 3, small_cfg(), seed=11)
    x_before = user_cell(params, 1, 2)
    y_before = item_cell(params, 1, 2)
    params.attr_emb[2] += 0.01
    assert user_cell(params, 1, 2) != x_before
    assert item_cell(params, 1, 2) != y_before


def test_batched_prediction_matches_scalar():
    params = init_params(5, 5, 4, small_cfg(), seed=13)
    users = np.array([0, 2, 4, 1])
    attrs = np.array([3, 1, 0, 2])
    batch = predict_user_attr_batch(params, users, attrs)
    for k, (u, a) in enumerate(zip(users, attrs)):
        assert batch[k] == pytest.approx(user_cell(params, u, a), abs=1e-12)
    batch = predict_item_attr_batch(params, users, attrs)
    for k, (v, a) in enumerate(zip(users, attrs)):
        assert batch[k] == pytest.approx(item_cell(params, v, a), abs=1e-12)


PREDICTORS = {"user": predict_user_attr_batch, "item": predict_item_attr_batch}


@pytest.mark.parametrize("seed", range(24))
def test_split_predictors_match_unsplit_forward(seed):
    # the unsplit training forward, in eval mode, is the reference
    rng = np.random.default_rng([seed, 31])
    cfg = small_cfg(embed_dim=int(rng.integers(1, 9)),
                    tower_depth=int(rng.integers(0, 4)))
    params = init_params(6, 7, 5, cfg, seed=seed)
    for t in params.tensors().values():
        t[...] = rng.normal(scale=0.5, size=t.shape)
    n = int(rng.integers(2, 60))
    for side, predict in PREDICTORS.items():
        n_rows = len(getattr(params, f"{side}_emb"))
        # unsorted, with repeats, plus one cell and no cells
        for rows, attrs in ((rng.integers(0, n_rows, n), rng.integers(0, 5, n)),
                            (np.array([n_rows - 1]), np.array([3])),
                            (np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64))):
            got = predict(params, rows, attrs)
            want = _tower_predict(params, side, rows, attrs)[0]
            assert got.shape == want.shape == (len(rows),)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _one_cell_tower(side, depth, emb, attr, weights=(), head=(1.0, 1.0)):
    """embed_dim 1 params whose `side` tower sees h0 = [emb, attr] for the
    cell (0, 0), with the given (depth, 2, 2) weights, zero biases and the
    given head."""
    params = zeroed_params(small_cfg(embed_dim=1, tower_depth=depth),
                           n_users=1, n_items=1, n_attrs=1)
    getattr(params, f"{side}_emb")[0] = emb
    params.attr_emb[0] = attr
    getattr(params, f"{side}_tower_w")[...] = np.reshape(weights, (depth, 2, 2))
    getattr(params, f"{side}_head")[...] = head
    return params


OVERFLOW_CASES = {
    # name: (kwargs of _one_cell_tower, expected reference outcome)
    "inf_attr_emb": (dict(depth=1, emb=0.5, attr=np.inf,
                          weights=[[0.5, 0.5], [0.5, 0.5]]), "block 0"),
    "p_plus_q_overflows": (dict(depth=1, emb=1.0, attr=1.0,
                                weights=[[1e308, 1e308], [0.0, 0.0]]),
                           "block 0"),
    "skip_plus_branch_overflows": (dict(depth=1, emb=1e308, attr=0.0,
                                        weights=[[1.0, 0.0], [0.0, 0.0]]),
                                   "block 0"),
    "bound_overflows_cells_finite": (dict(depth=1, emb=-1e308, attr=1e308,
                                          weights=[[-1.0, 0.0], [0.0, 0.0]],
                                          head=(1e-300, 1e-300)), None),
    "depth2_first_overflow_in_block1": (dict(
        depth=2, emb=1e307, attr=0.0,
        weights=[[[0.0, 0.0], [0.0, 0.0]], [[100.0, 0.0], [0.0, 0.0]]]),
        "block 1"),
    "depth0_huge_head": (dict(depth=0, emb=1e10, attr=1e10,
                              head=(1e300, 1e300)), None),
}


@pytest.mark.parametrize("side", ["user", "item"])
@pytest.mark.parametrize("case", OVERFLOW_CASES)
def test_split_predictors_raise_where_unsplit_forward_raises(side, case):
    kwargs, expected = OVERFLOW_CASES[case]
    params = _one_cell_tower(side, **kwargs)
    rows = attrs = np.zeros(3, dtype=np.int64)

    def outcome(predict):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return predict()
        except FloatingPointError as exc:
            return str(exc)

    want = outcome(lambda: _tower_predict(params, side, rows, attrs)[0])
    got = outcome(lambda: PREDICTORS[side](params, rows, attrs))
    if expected is None:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    else:
        assert want == f"non-finite activation after residual {expected}"
        assert got == want


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _tower_per_run(params, side, rows, attrs):
    """`_tower_predict` once per run of equal row ids: the reference of the
    unsplit path."""
    starts = [k for k in range(len(rows)) if k == 0 or rows[k] != rows[k - 1]]
    ends = starts[1:] + [len(rows)]
    return np.concatenate([np.empty(0)] + [
        _tower_predict(params, side, rows[i:j], attrs[i:j])[0]
        for i, j in zip(starts, ends)])


@pytest.mark.parametrize("depth", [0, 2, 3])
@pytest.mark.parametrize("seed", range(24))
def test_predictors_off_the_split_are_the_reference_bit_for_bit(seed, depth):
    # only a one-block tower is split; any other depth runs the reference
    rng = np.random.default_rng([seed, depth, 37])
    cfg = small_cfg(embed_dim=int(rng.integers(1, 9)), tower_depth=depth)
    params = init_params(6, 7, 5, cfg, seed=seed)
    for t in params.tensors().values():
        t[...] = rng.normal(scale=0.5, size=t.shape)
    n = int(rng.integers(2, 60))
    for side, predict in PREDICTORS.items():
        rows = rng.integers(0, len(getattr(params, f"{side}_emb")), n)
        attrs = rng.integers(0, 5, n)
        _assert_same_bits(predict(params, rows, attrs),
                          _tower_per_run(params, side, rows, attrs))


@pytest.mark.parametrize("seed", range(4))
def test_predictors_past_the_overflow_bound_are_the_reference_bit_for_bit(
        seed):
    # one block, finite cells, but |e| + |a| overflows the split's bound
    rng = np.random.default_rng([seed, 41])
    params = init_params(6, 7, 5, small_cfg(tower_depth=1), seed=seed)
    for t in params.tensors().values():
        t[...] = rng.normal(scale=0.5, size=t.shape)
    for side, predict in PREDICTORS.items():
        getattr(params, f"{side}_tower_w")[...] *= 0.1
        getattr(params, f"{side}_emb")[0, 0] = 1e308
        params.attr_emb[0, 1] = 1e308
        rows = rng.integers(0, len(getattr(params, f"{side}_emb")), 40)
        attrs = rng.integers(0, 5, 40)
        rows[0], attrs[1] = 0, 0
        keep = (rows != 0) | (attrs != 0)
        rows, attrs = rows[keep], attrs[keep]
        with np.errstate(over="ignore"):
            got = predict(params, rows, attrs)
        _assert_same_bits(got, _tower_per_run(params, side, rows, attrs))


def _whole_call_split(params, side, rows, attrs):
    """The split one-block formula over the whole call at once, with P, Q
    and the head terms over the whole tables and the branch dot as numpy's
    einsum loop: the reference the blocked kernel must match bit for
    bit."""
    d = params.embed_dim
    emb, a = getattr(params, f"{side}_emb"), params.attr_emb
    w = getattr(params, f"{side}_tower_w")[0]
    b = getattr(params, f"{side}_tower_b")[0]
    head = getattr(params, f"{side}_head")
    p, q = emb @ w[:, :d].T, a @ w[:, d:].T + b
    r = ((emb @ head[:d])[rows] + (a @ head[d:])[attrs]
         + np.einsum("ij,j->i", np.maximum(p[rows] + q[attrs], 0.0), head))
    return tanh_rescaled(r, 5.0)


def _random_one_block(embed_dim, seed, n_rows=90, n_attrs=70):
    rng = np.random.default_rng([seed, embed_dim, 43])
    params = init_params(n_rows, n_rows, n_attrs,
                         small_cfg(embed_dim=embed_dim, tower_depth=1),
                         seed=seed)
    for t in params.tensors().values():
        t[...] = rng.normal(scale=0.5, size=t.shape)
    return params, rng


@pytest.mark.parametrize("embed_dim", [3, 8, 48, 64])
def test_blocked_split_matches_the_whole_call_bit_for_bit(embed_dim):
    params, rng = _random_one_block(embed_dim, seed=3)
    block = _block_rows(embed_dim)
    for n in sorted({0, 1, block - 1, block, block + 1, 4096}):
        for side, predict in PREDICTORS.items():
            rows, attrs = rng.integers(0, 90, n), rng.integers(0, 70, n)
            _assert_same_bits(predict(params, rows, attrs),
                              _whole_call_split(params, side, rows, attrs))


def _bad_cell_in_a_later_block(side, case):
    """embed_dim 64 params and a call of 2.5 blocks in which only the last
    cell (row 0, attribute 0) has a non-finite branch: +inf for "overflow",
    inf - inf = NaN for "nan". Every earlier cell is finite, so the first
    block alone runs split."""
    params, rng = _random_one_block(64, seed=5)
    n = _block_rows(64) * 5 // 2
    rows, attrs = rng.integers(1, 90, n), rng.integers(1, 70, n)
    rows[-1] = attrs[-1] = 0
    w = getattr(params, f"{side}_tower_w")[0]
    getattr(params, f"{side}_emb")[0, 0] = 1e300
    w[7, 0] = 1e10                  # P[row 0] = +inf in component 7
    if case == "nan":
        params.attr_emb[0, 0] = 1e300
        w[7, 64] = -1e10            # Q[attribute 0] = -inf there
        attrs[:-1] = rng.integers(0, 70, n - 1)
    return params, rows, attrs


@pytest.mark.parametrize("side", ["user", "item"])
@pytest.mark.parametrize("case", ["overflow", "nan"])
def test_bad_branch_in_a_later_block_takes_the_unsplit_path(side, case):
    params, rows, attrs = _bad_cell_in_a_later_block(side, case)
    predict = PREDICTORS[side]
    first = slice(0, _block_rows(64))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(predict(params, rows[first], attrs[first])).all()
        with pytest.raises(FloatingPointError) as want:
            _tower_predict(params, side, rows, attrs)
        with pytest.raises(FloatingPointError) as got:
            predict(params, rows, attrs)
    assert str(want.value) == "non-finite activation after residual block 0"
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("block", [1, 5, 255, 341])
def test_a_cell_keeps_its_bits_at_any_block_size_and_in_any_slice(
        block, monkeypatch):
    """Whatever the block length, a split call has the bits of the whole
    call, and a contiguous slice of it the bits of that slice; at depth 2 a
    slice of whole row runs keeps its bits too. So a request that passes
    only its user's cells gets the full completion's bits."""
    monkeypatch.setattr(network, "_block_rows", lambda embed_dim: block)
    for embed_dim in (3, 64):
        params, rng = _random_one_block(embed_dim, seed=block)
        rows, attrs = rng.integers(0, 90, 1100), rng.integers(0, 70, 1100)
        for side, predict in PREDICTORS.items():
            whole = predict(params, rows, attrs)
            _assert_same_bits(whole, _whole_call_split(params, side, rows,
                                                       attrs))
            for lo, hi in ((0, 1), (1, 2), (3, 700), (255, 596), (7, 1100),
                           (1099, 1100), (341, 1023)):
                _assert_same_bits(predict(params, rows[lo:hi], attrs[lo:hi]),
                                  whole[lo:hi])
    rng = np.random.default_rng([block, 47])
    params = init_params(90, 90, 70, small_cfg(embed_dim=8, tower_depth=2),
                         seed=block)
    for t in params.tensors().values():
        t[...] = rng.normal(scale=0.5, size=t.shape)
    lengths = rng.integers(1, 70, 40)
    rows = np.repeat(rng.permutation(90)[:40], lengths)
    attrs = rng.integers(0, 70, len(rows))
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    for side, predict in PREDICTORS.items():
        whole = predict(params, rows, attrs)
        _assert_same_bits(whole, _tower_per_run(params, side, rows, attrs))
        for lo, hi in ((0, 1), (5, 6), (3, 17), (20, 40), (0, 40)):
            cells = slice(bounds[lo], bounds[hi])
            _assert_same_bits(predict(params, rows[cells], attrs[cells]),
                              whole[cells])


def test_split_predictors_index_like_the_tables():
    # a negative id counts from the end, as emb[rows] does; past the end
    # raises, on either side of the cell
    params, rng = _random_one_block(8, seed=11)
    rows, attrs = rng.integers(-90, 90, 600), rng.integers(-70, 70, 600)
    for side, predict in PREDICTORS.items():
        _assert_same_bits(predict(params, rows, attrs),
                          _whole_call_split(params, side, rows, attrs))
        for bad in ((np.array([90]), np.array([0])),
                    (np.array([0]), np.array([-71]))):
            with pytest.raises(IndexError):
                predict(params, *bad)


# ----------------------------------------------------------- phase-1 loss

def test_phase1_loss_zero_on_perfect_predictions():
    params = zeroed_params(small_cfg())
    cells = (np.array([0, 1]), np.array([0, 2]), np.array([3.0, 3.0]))
    assert phase1_forward_backward(params, cells, None)[0] == 0.0
    assert phase1_forward_backward(params, None, cells)[0] == 0.0
    assert phase1_forward_backward(params, None, None)[0] == 0.0


def test_phase1_loss_squared_residuals():
    params = zeroed_params(small_cfg())   # every prediction is 3.0
    user_cells = (np.array([0]), np.array([0]), np.array([2.0]))
    item_cells = (np.array([1]), np.array([1]), np.array([5.0]))
    loss = phase1_forward_backward(params, user_cells, item_cells)[0]
    assert loss == pytest.approx(5.0, abs=1e-12)


def test_phase1_gradients_match_finite_differences():
    # seed chosen so no relu pre-activation sits within the finite-difference
    # step of the kink (there the FD oracle itself is invalid)
    cfg = small_cfg(embed_dim=4, tower_depth=2)
    params = init_params(5, 6, 6, cfg, seed=91)
    user_cells = (np.array([0, 2, 4]), np.array([1, 3, 5]),
                  np.array([2.5, 4.0, 1.5]))
    item_cells = (np.array([1, 3]), np.array([0, 2]), np.array([3.5, 2.0]))
    loss, analytic = phase1_forward_backward(params, user_cells, item_cells)
    # the loss is the squared error of the eval-mode predictions
    squared = sum(((predict(params, rows, attrs) - targets) ** 2).sum()
                  for predict, (rows, attrs, targets) in (
                      (predict_user_attr_batch, user_cells),
                      (predict_item_attr_batch, item_cells)))
    assert loss == pytest.approx(squared, abs=1e-12)
    numeric = central_diff_grads(
        params,
        lambda: phase1_forward_backward(params, user_cells, item_cells)[0])
    assert worst_relative_gap(analytic, numeric) < 1e-4


def test_phase1_gradients_zero_off_path():
    cfg = small_cfg()
    params = init_params(5, 6, 6, cfg, seed=22)
    user_cells = (np.array([1]), np.array([2]), np.array([4.0]))
    _, grads = phase1_forward_backward(params, user_cells, None)
    assert np.all(grads.user_emb[0] == 0.0)
    assert np.all(grads.user_emb[2:] == 0.0)
    assert np.any(grads.user_emb[1] != 0.0)
    assert np.all(grads.item_emb == 0.0)
    assert np.all(grads.item_tower_w == 0.0)
    assert np.all(grads.item_head == 0.0)
    assert np.all(grads.attr_emb[0] == 0.0)
    assert np.any(grads.attr_emb[2] != 0.0)
    assert np.all(grads.subst_proj == 0.0) and np.all(grads.pers_proj == 0.0)


def test_phase1_gradients_scale_linearly():
    cfg = small_cfg()
    params = init_params(4, 4, 4, cfg, seed=23)
    cells = (np.array([0, 3]), np.array([1, 2]), np.array([1.5, 4.5]))
    _, once = phase1_forward_backward(params, cells, None)
    doubled = tuple(np.concatenate([arr, arr]) for arr in cells)
    _, twice = phase1_forward_backward(params, doubled, None)
    for g1, g2 in zip(once.tensors().values(), twice.tensors().values()):
        np.testing.assert_allclose(g2, 2.0 * g1, atol=1e-12)


def test_phase1_shared_attr_grads_accumulate_both_towers():
    cfg = small_cfg()
    params = init_params(4, 4, 4, cfg, seed=24)
    user_cells = (np.array([0]), np.array([1]), np.array([2.0]))
    item_cells = (np.array([2]), np.array([1]), np.array([4.0]))
    _, g_user = phase1_forward_backward(params, user_cells, None)
    _, g_item = phase1_forward_backward(params, None, item_cells)
    _, g_both = phase1_forward_backward(params, user_cells, item_cells)
    np.testing.assert_allclose(g_both.attr_emb,
                               g_user.attr_emb + g_item.attr_emb, atol=1e-12)


def test_phase1_into_a_used_buffer_gives_the_bits_of_a_new_one():
    params = init_params(3, 4, 3, small_cfg(), seed=26)
    user_cells = (np.array([0, 2, 2]), np.array([1, 0, 2]),
                  np.array([3.0, 4.5, 1.0]))
    item_cells = (np.array([3, 1]), np.array([2, 2]), np.array([2.0, 5.0]))
    want_loss, want = phase1_forward_backward(params, user_cells, item_cells)
    buf = ModelParams.zeros_like(params)
    buf.flat[...] = np.nan
    loss, got = phase1_forward_backward(params, user_cells, item_cells,
                                        grads=buf)
    assert got is buf and loss == want_loss
    assert np.array_equal(got.flat.view(np.uint64), want.flat.view(np.uint64))


def test_phase1_dropout_requires_rng():
    params = init_params(3, 3, 3, small_cfg(), seed=25)
    cells = (np.array([0]), np.array([0]), np.array([3.0]))
    with pytest.raises(ValueError, match="rng"):
        phase1_forward_backward(params, cells, None, dropout=0.4)


# ------------------------------------------------------------------- adam

def test_adam_zero_gradient_leaves_params():
    params = init_params(3, 3, 3, small_cfg(), seed=31)
    before = {k: t.copy() for k, t in params.tensors().items()}
    state = AdamState.zeros_like(params)
    adam_step(params, ModelParams.zeros_like(params), state, lr=0.01)
    for k, t in params.tensors().items():
        np.testing.assert_array_equal(t, before[k])


def test_adam_first_step_magnitude_is_learning_rate():
    params = init_params(2, 2, 2, small_cfg(embed_dim=2), seed=32)
    before = params.user_emb.copy()
    grads = ModelParams.zeros_like(params)
    grads.user_emb[...] = np.array([[0.3, -0.7], [1.2, -0.05]])
    state = AdamState.zeros_like(params)
    adam_step(params, grads, state, lr=1e-3)
    delta = params.user_emb - before
    np.testing.assert_allclose(np.abs(delta), 1e-3, rtol=1e-5)
    assert np.all(np.sign(delta) == -np.sign(grads.user_emb))
    assert state.step == 1


def test_adam_skips_nonfinite_gradients():
    params = init_params(2, 2, 2, small_cfg(embed_dim=2), seed=33)
    before = params.user_emb.copy()
    grads = ModelParams.zeros_like(params)
    grads.user_emb[0, 0] = np.nan
    state = AdamState.zeros_like(params)
    adam_step(params, grads, state, lr=0.1)
    np.testing.assert_array_equal(params.user_emb, before)
    assert state.step == 0


@pytest.mark.parametrize("seed", range(3))
def test_adam_bit_identical_to_written_out_formula(seed, monkeypatch):
    """At the default block size, where the 368-value vector is one block,
    and at blocks of 100 and 7 values, which split it into 4 and 53."""
    for block_bytes in (network._BLOCK_BYTES, 8 * 100, 8 * 7):
        monkeypatch.setattr(network, "_BLOCK_BYTES", block_bytes)
        params = init_params(4, 5, 3, small_cfg(), seed=seed)
        assert params.flat.size == 368
        # construction copies the arrays into a vector of its own
        start = ModelParams(**params.tensors())
        want = ModelParams(**params.tensors())
        got_state, want_state = (AdamState.zeros_like(params)
                                 for _ in range(2))
        zero = ("user_tower_w", "item_head", "pers_proj")
        rng = np.random.default_rng(seed + 40)
        for _ in range(5):
            grads = ModelParams.zeros_like(params)
            for name, g in grads.tensors().items():
                if name not in zero:
                    g[...] = rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]),
                                        size=g.shape)
            sent = {k: g.copy() for k, g in grads.tensors().items()}
            adam_step(params, grads, got_state, lr=1e-2)
            written_out_adam(want, grads, want_state, lr=1e-2)
            for name, g in grads.tensors().items():
                assert np.array_equal(g.view(np.uint64),
                                      sent[name].view(np.uint64)), name
        assert got_state.step == want_state.step == 5
        for got, ref in ((params, want), (got_state.m, want_state.m),
                         (got_state.v, want_state.v)):
            for (name, g), r in zip(got.tensors().items(),
                                    ref.tensors().values()):
                assert np.array_equal(g.view(np.uint64),
                                      r.view(np.uint64)), (block_bytes, name)
        for name in zero:
            assert np.array_equal(getattr(params, name).view(np.uint64),
                                  getattr(start, name).view(np.uint64)), name


def test_adam_nan_in_the_last_block_skips_the_whole_step(monkeypatch):
    """A NaN in the last value of the vector, pers_proj[-1], which lies in
    the last of 4 blocks, leaves every block of the params and both
    moments as they were, and the step count too."""
    monkeypatch.setattr(network, "_BLOCK_BYTES", 8 * 100)
    params = init_params(4, 5, 3, small_cfg(), seed=34)
    state = AdamState.zeros_like(params)
    rng = np.random.default_rng(34)
    grads = ModelParams.zeros_like(params)
    grads.flat[...] = rng.normal(size=grads.flat.size)
    adam_step(params, grads, state, lr=1e-2)
    before = [t.flat.copy() for t in (params, state.m, state.v)]
    grads.flat[...] = rng.normal(size=grads.flat.size)
    grads.pers_proj[-1] = np.nan
    assert np.isnan(grads.flat[-1]) and params.flat.size // 100 == 3
    adam_step(params, grads, state, lr=1e-2)
    assert state.step == 1
    for got, was in zip((params, state.m, state.v), before):
        assert np.array_equal(got.flat.view(np.uint64), was.view(np.uint64))


def test_adam_converges_on_quadratic():
    cfg = TrainConfig(embed_dim=2, tower_depth=1, dropout=0.0)
    params = zeroed_params(cfg, n_users=1, n_items=1, n_attrs=1)
    target = np.array([1.5, -0.7])
    state = AdamState.zeros_like(params)
    for _ in range(200):
        grads = ModelParams.zeros_like(params)
        grads.user_emb[0] = 2.0 * (params.user_emb[0] - target)
        adam_step(params, grads, state, lr=0.05)
    np.testing.assert_allclose(params.user_emb[0], target, atol=1e-3)


# ---------------------------------------------------------------- dropout

def test_dropout_rate_zero_is_identity_mask():
    mask = dropout_mask((4, 5), 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(mask, np.ones((4, 5)))


def test_dropout_mask_values_and_frequencies():
    rng = np.random.default_rng(41)
    mask = dropout_mask((100_000,), 0.4, rng)
    np.testing.assert_allclose(np.unique(mask), [0.0, 1.0 / 0.6], atol=1e-12)
    zero_frac = float((mask == 0.0).mean())
    assert abs(zero_frac - 0.4) < 0.01
    assert abs(mask.mean() - 1.0) < 0.01


def test_dropout_mask_rejects_bad_rate():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="dropout rate"):
        dropout_mask((3,), 1.0, rng)
    with pytest.raises(ValueError):
        dropout_mask((3,), -0.1, rng)
