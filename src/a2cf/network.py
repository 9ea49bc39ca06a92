"""Two residual regression towers over shared attribute embeddings.

Each tower consumes the concatenation of an entity embedding and an attribute
embedding (width 2d), applies `tower_depth` residual blocks
h <- h + relu(W h + b) at constant width, and maps the result through a linear
head followed by a tanh rescaled onto the rating scale [1, RATING_MAX] of
`data`. All gradients are analytic; no autodiff anywhere.

The eval-mode predictors split a one-block tower by the halves of its input:
W0 [e; a] = W0[:, :d] e + W0[:, d:] a, so each call computes P = E W0[:, :d]^T
over the whole entity table and Q = A W0[:, d:]^T + b0 over the whole
attribute table, and the head splits too: r = e . head[:d] + a . head[d:] +
relu(P + Q) . head, a gather by the cell's ids, an add, a relu and a dot per
cell. Every other depth runs the training forward without dropout, once per
run of equal row ids.

A cell's bits depend only on its run of equal row ids, never on the rest of
the call, so a caller that passes some of a completion's row runs gets the
bits the whole completion gives them. The split dot with the head is thus
np.einsum's own per-row loop, not a BLAS matvec, which sums a row by its
position in the call. The split cells run in cache-sized blocks through one
reused buffer. The overflow bound carries its branch maximum across blocks with
np.maximum, so a NaN in any block reaches the bound and sends the call to
the training forward.

The 11 parameter tensors are views of one float64 vector, `ModelParams.flat`,
in field order, and so are gradient buffers and Adam's moments. Adam checks
the gradient's finiteness once over that vector and updates it in blocks of
at most _BLOCK_BYTES through two reused scratch buffers, and a checkpoint
writes it as its tensor section. Phase 2 never touches the tower tensors,
which lie together in the middle of that vector (`tower_slice`), so its Adam
updates only the two slices around them.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .data import RATING_MAX

INIT_SCALE = 0.05
_BLOCK_BYTES = 2 ** 18      # one block of the split kernel and of Adam,
                            # sized for cache


@dataclass(frozen=True)
class ModelParams:
    """The 11 parameter tensors, as reshaped views of one contiguous float64
    vector `flat` laid out in field order, the serialization order. A
    gradient buffer or an Adam moment is a ModelParams of zeros, so code
    that treats every value alike (Adam, finiteness, checkpoints) walks
    `flat` once. The class is frozen, so a field cannot be rebound away from
    `flat`; write through a view (`grads.user_emb[...] += g`). Construction
    from arrays, `dataclasses.replace` included, copies them into a new
    vector; `from_flat` wraps an existing one.
    """

    user_emb: np.ndarray        # (n_users, d)
    item_emb: np.ndarray        # (n_items, d)
    attr_emb: np.ndarray        # (n_attrs, d), shared by both towers
    user_tower_w: np.ndarray    # (depth, 2d, 2d)
    user_tower_b: np.ndarray    # (depth, 2d)
    item_tower_w: np.ndarray    # (depth, 2d, 2d)
    item_tower_b: np.ndarray    # (depth, 2d)
    user_head: np.ndarray       # (2d,)
    item_head: np.ndarray       # (2d,)
    subst_proj: np.ndarray      # (2d,) or (d,) under the reduced ablation
    pers_proj: np.ndarray       # (2d,) or (d,)
    flat: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        arrays = {name: np.asarray(t, dtype=np.float64)
                  for name, t in self.tensors().items()}
        self._bind(np.empty(sum(a.size for a in arrays.values())),
                   {name: a.shape for name, a in arrays.items()})
        for name, a in arrays.items():
            getattr(self, name)[...] = a

    def _bind(self, flat: np.ndarray, shapes: dict) -> None:
        """Make `flat` this object's vector and each field its view,
        shaped by `shapes` in field order."""
        offset = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            object.__setattr__(self, name,
                               flat[offset:offset + size].reshape(shape))
            offset += size
        if offset != flat.size:
            raise ValueError(f"the shapes take {offset} values, the vector "
                             f"holds {flat.size}")
        object.__setattr__(self, "flat", flat)

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes: dict) -> "ModelParams":
        """Views of the 1-D float64 `flat` itself, not a copy, shaped by
        `shapes` (name -> shape in field order, as `param_shapes` gives)."""
        params = object.__new__(cls)
        params._bind(flat, shapes)
        return params

    def tensors(self) -> dict:
        """Name -> array view, in field order."""
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self) if f.init}

    @classmethod
    def zeros(cls, shapes: dict) -> "ModelParams":
        """Zero tensors of `shapes` in one allocation."""
        return cls.from_flat(
            np.zeros(sum(math.prod(shape) for shape in shapes.values())),
            shapes)

    @classmethod
    def zeros_like(cls, params: "ModelParams",
                   out: "ModelParams | None" = None) -> "ModelParams":
        """Zeros in the layout of `params`: `out`, of that layout, zeroed in
        place when given, else a new allocation."""
        if out is None:
            return cls.zeros({k: t.shape for k, t in params.tensors().items()})
        out.flat[...] = 0.0
        return out

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())

    @property
    def embed_dim(self) -> int:
        return self.user_emb.shape[1]

    @property
    def tower_depth(self) -> int:
        return self.user_tower_w.shape[0]


def param_shapes(n_users: int, n_items: int, n_attrs: int,
                 cfg: TrainConfig) -> dict:
    """Name -> shape of every ModelParams tensor under `cfg`, in field order."""
    d, dh, depth = cfg.embed_dim, cfg.hidden_dim, cfg.tower_depth
    return {"user_emb": (n_users, d), "item_emb": (n_items, d),
            "attr_emb": (n_attrs, d),
            "user_tower_w": (depth, dh, dh), "user_tower_b": (depth, dh),
            "item_tower_w": (depth, dh, dh), "item_tower_b": (depth, dh),
            "user_head": (dh,), "item_head": (dh,),
            # component-product block plus aggregated-attribute block
            "subst_proj": (dh if cfg.subst_use_attrs else d,),
            "pers_proj": (dh if cfg.pers_use_attrs else d,)}


def init_params(n_users: int, n_items: int, n_attrs: int, cfg: TrainConfig,
                seed) -> ModelParams:
    """Draw all weights uniformly from [-INIT_SCALE, INIT_SCALE]; biases zero.

    Tensors are drawn in a fixed order, the two projections first and then
    the rest in field order, so a given seed always yields the same model.
    `seed` may be an int or anything numpy accepts as one.
    """
    rng = np.random.default_rng(seed)
    shapes = param_shapes(n_users, n_items, n_attrs, cfg)
    params = ModelParams.zeros(shapes)
    projections = ("subst_proj", "pers_proj")
    for name in (*projections, *(n for n in shapes if n not in projections)):
        if not name.endswith("_b"):
            getattr(params, name)[...] = rng.uniform(
                -INIT_SCALE, INIT_SCALE, size=shapes[name])
    return params


def scatter_rows(n_rows: int, index_parts, value_parts) -> np.ndarray:
    """Sum row-aligned (k, d) contributions into a zero (n_rows, d) array.

    One ordered bincount over all parts: every cell adds its contributions
    from 0.0 in input order, exactly as a chain of np.add.at calls on a zero
    buffer does, so the result is bit-identical and much faster.
    """
    rows = np.concatenate(index_parts)
    values = np.concatenate(value_parts)
    d = values.shape[1]
    cells = (rows[:, None] * d + np.arange(d)).ravel()
    return np.bincount(cells, weights=values.ravel(),
                       minlength=n_rows * d).reshape(n_rows, d)


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted dropout mask: zeros with probability `rate`, survivors scaled
    by 1/(1-rate) so the expectation is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def residual_forward(h0: np.ndarray, weights: np.ndarray, biases: np.ndarray,
                     masks=None):
    """Run h <- h + mask * relu(W h + b) over every block of the stack.

    The tower forward of training, and of eval mode except where a one-block
    tower runs split (`_split_predict`). h0: (batch, 2d). masks: optional
    per-block list of (batch, 2d) dropout masks applied to the relu branch
    only; the skip path is never masked. Returns (output, cache) where cache
    holds what backward needs. A non-finite activation raises
    FloatingPointError naming its block.
    """
    h = h0
    cache = []
    for k in range(weights.shape[0]):
        z = h @ weights[k].T + biases[k]
        branch = np.maximum(z, 0.0)
        mask = None if masks is None else masks[k]
        if mask is not None:
            branch = branch * mask
        cache.append((h, z, mask))
        h = h + branch
        if not np.isfinite(h).all():
            raise FloatingPointError(
                f"non-finite activation after residual block {k}")
    return h, cache


def residual_backward(grad_out: np.ndarray, weights: np.ndarray, cache):
    """Backprop through the residual stack.

    Returns (grad_h0, grad_weights, grad_biases) with grad_weights/biases
    stacked like the parameter tensors.
    """
    depth = weights.shape[0]
    grad_w = np.zeros_like(weights)
    grad_b = np.zeros((depth, weights.shape[1]))
    g = grad_out
    for k in range(depth - 1, -1, -1):
        h_in, z, mask = cache[k]
        gate = (z > 0.0).astype(np.float64)
        if mask is not None:
            gate = gate * mask
        gz = g * gate
        grad_w[k] = gz.T @ h_in
        grad_b[k] = gz.sum(axis=0)
        g = g + gz @ weights[k]
    return g, grad_w, grad_b


def _expit(x):
    """The logistic sigmoid 1 / (1 + exp(-x)), elementwise. Where exp(-x)
    overflows (x below about -709.78) the result is the exact limit 0.0,
    with no warning; where exp(-x) is at most half an ulp of 1 it is
    exactly 1.0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def tanh_rescaled(r, rating_max: float = RATING_MAX):
    """Monotone squash of the real line into [1, rating_max]:
    (rating_max - 1)/2 * tanh(r) + (rating_max + 1)/2, clipped to that
    range, which rounding leaves by an ulp where tanh saturates for some
    rating_max (7.3 gives 7.300000000000001); at 5 the clip changes no bit."""
    return np.clip(0.5 * (rating_max - 1.0) * np.tanh(r)
                   + 0.5 * (rating_max + 1.0), 1.0, rating_max)


def tanh_rescaled_grad(r, rating_max: float = RATING_MAX):
    t = np.tanh(r)
    return 0.5 * (rating_max - 1.0) * (1.0 - t * t)


def _tower(tensors: ModelParams, side: str) -> tuple:
    """One side's (entity embedding, tower weights, tower biases, head) by
    the `user_`/`item_` name prefix, from parameters or gradients alike."""
    return tuple(getattr(tensors, f"{side}_{name}")
                 for name in ("emb", "tower_w", "tower_b", "head"))


def _tower_predict(params: ModelParams, side: str, rows, attrs, masks=None):
    """Training forward over whole (cells, 2d) rows, with the cache that
    backward reads."""
    emb, weights, biases, head = _tower(params, side)
    h0 = np.concatenate([emb[rows], params.attr_emb[attrs]], axis=1)
    h_out, cache = residual_forward(h0, weights, biases, masks)
    r = h_out @ head
    return tanh_rescaled(r), (h_out, r, cache)


def _block_rows(embed_dim: int) -> int:
    """Cells per block of the split kernel: as many (cells, 2d) float64 rows
    as fit in _BLOCK_BYTES, and at least 1."""
    return max(1, _BLOCK_BYTES // (16 * embed_dim))


def _split_predict(params: ModelParams, side: str, rows, attrs) -> np.ndarray:
    """Eval-mode tower output per (row, attr) cell. A one-block tower runs
    split (module docstring) when the bound below shows every activation
    finite; every other call runs the training forward `_tower_predict`
    once per run of equal row ids, so the predictor raises exactly where it
    does. Either way a cell's bits depend only on its row run.
    """
    emb, weights, biases, head = _tower(params, side)
    if len(weights) == 1:
        d, attr_emb = params.embed_dim, params.attr_emb
        p = emb @ weights[0][:, :d].T
        q = attr_emb @ weights[0][:, d:].T + biases[0]
        # this indexing raises on an id out of range, so "wrap" below takes
        # the rows that emb[rows] takes, without an intermediate copy
        base = (emb @ head[:d])[rows] + (attr_emb @ head[d:])[attrs]
        n, step = len(base), _block_rows(d)
        buf = np.empty((min(n, step), 2 * d))
        dot = np.empty(n)
        peak = 0.0
        for start in range(0, n, step):
            blk = slice(start, start + step)
            branch = buf[:len(dot[blk])]
            np.take(p, rows[blk], axis=0, out=branch, mode="wrap")
            branch += q[attrs[blk]]
            np.maximum(branch, 0.0, out=branch)
            peak = np.maximum(peak, branch.max())
            np.einsum("ij,j->i", branch, head, out=dot[blk])
        # branch >= 0, so h0 + branch is finite wherever this bound is
        if np.isfinite(peak + np.abs(emb).max(initial=0.0)
                       + np.abs(attr_emb).max(initial=0.0)):
            return tanh_rescaled(base + dot)
    runs = np.flatnonzero(np.diff(rows)) + 1
    return np.concatenate(
        [_tower_predict(params, side, r, a)[0]
         for r, a in zip(np.split(rows, runs), np.split(attrs, runs))])


def predict_user_attr_batch(params: ModelParams, users: np.ndarray,
                            attrs: np.ndarray) -> np.ndarray:
    return _split_predict(params, "user", users, attrs)


def predict_item_attr_batch(params: ModelParams, items: np.ndarray,
                            attrs: np.ndarray) -> np.ndarray:
    return _split_predict(params, "item", items, attrs)


def _tower_backward(params: ModelParams, grads: ModelParams, side: str,
                    rows: np.ndarray, attrs: np.ndarray, targets: np.ndarray,
                    masks=None):
    """Forward + backward for one tower's squared loss; accumulates the tower
    and entity-embedding gradients into `grads` and returns (loss, attribute
    embedding gradient rows), the latter aligned with `attrs`."""
    d = params.embed_dim
    _, tower_w, _, head = _tower(params, side)
    g_emb, g_tw, g_tb, g_head = _tower(grads, side)
    pred, (h_out, r, cache) = _tower_predict(params, side, rows, attrs, masks)
    err = pred - targets
    loss = float((err ** 2).sum())
    dr = 2.0 * err * tanh_rescaled_grad(r)
    g_head += h_out.T @ dr
    grad_h = dr[:, None] * head[None, :]
    grad_h0, gw, gb = residual_backward(grad_h, tower_w, cache)
    g_tw += gw
    g_tb += gb
    g_emb += scatter_rows(len(g_emb), [rows], [grad_h0[:, :d]])
    return loss, grad_h0[:, d:]


def phase1_forward_backward(params: ModelParams, user_cells, item_cells,
                            dropout: float = 0.0,
                            rng: np.random.Generator | None = None,
                            grads: ModelParams | None = None):
    """Loss and analytic gradients for one regression batch.

    With dropout > 0 an rng must be supplied; a fresh mask is drawn per
    residual block and tower. The gradients go into `grads`, zeroed first,
    when given (a training loop reuses one buffer), else into a new one.
    """
    if dropout > 0.0 and rng is None:
        raise ValueError("dropout requires an rng")
    grads = ModelParams.zeros_like(params, out=grads)
    depth = params.tower_depth
    dh = 2 * params.embed_dim
    loss = 0.0
    attr_rows, attr_grads = [], []
    for side, cells in (("user", user_cells), ("item", item_cells)):
        if cells is None or not len(cells[0]):
            continue
        rows, attrs, targets = cells
        masks = None
        if dropout > 0.0:
            masks = [dropout_mask((len(rows), dh), dropout, rng)
                     for _ in range(depth)]
        side_loss, side_attr_grads = _tower_backward(
            params, grads, side, rows, attrs,
            np.asarray(targets, dtype=np.float64), masks)
        loss += side_loss
        attr_rows.append(attrs)
        attr_grads.append(side_attr_grads)
    if attr_rows:
        # both towers in one scatter, user side first, as np.add.at would
        grads.attr_emb[...] += scatter_rows(len(grads.attr_emb), attr_rows,
                                            attr_grads)
    return loss, grads


@dataclass
class AdamState:
    """First/second moment accumulators, zero ModelParams that share the
    parameters' layout, plus the shared step counter."""

    m: ModelParams
    v: ModelParams
    step: int = 0

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "AdamState":
        return cls(m=ModelParams.zeros_like(params),
                   v=ModelParams.zeros_like(params))


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def tower_slice(params: ModelParams) -> slice:
    """The span of `flat` that holds the tower tensors, user_tower_w through
    item_head, between the embeddings and the projections: the values
    phase 2 neither reads nor differentiates."""
    start = params.user_emb.size + params.item_emb.size + params.attr_emb.size
    return slice(start, params.flat.size - params.subst_proj.size
                 - params.pers_proj.size)


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              lr: float, skip: slice | None = None) -> ModelParams:
    """One in-place Adam update with bias correction over the `flat` vectors.

    A batch with any non-finite gradient is skipped entirely, leaving
    parameters, moments and `state.step` untouched. The update runs over
    blocks of at most _BLOCK_BYTES of the vectors, through two reused
    scratch buffers: every operation is elementwise, so the bits are those
    of the per-tensor formula.

    `skip`, a span of `flat` whose gradient and both moments are zero (the
    tower slice in phase 2), is left out: Adam would move it by exactly 0
    and keep its moments 0, so the bits are those of the full pass.
    """
    if not grads.all_finite():
        return params
    state.step += 1
    t = state.step
    correct1 = 1.0 - ADAM_BETA1 ** t
    correct2 = 1.0 - ADAM_BETA2 ** t
    p, g, m, v = params.flat, grads.flat, state.m.flat, state.v.flat
    block = max(1, _BLOCK_BYTES // g.itemsize)
    a_buf, b_buf = np.empty(min(g.size, block)), np.empty(min(g.size, block))
    spans = ([(0, g.size)] if skip is None
             else [(0, skip.start), (skip.stop, g.size)])
    for lo, hi in spans:
        for start in range(lo, hi, block):
            blk = slice(start, min(start + block, hi))
            gb, mb, vb = g[blk], m[blk], v[blk]
            a, b = a_buf[:gb.size], b_buf[:gb.size]
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
            # p -= lr (m / c1) / (sqrt(v / c2) + eps), in that operation
            # order, so the bits are those of the written-out formula; the
            # two scratch buffers hold what would be its temporaries
            np.multiply(gb, 1.0 - ADAM_BETA1, out=a)
            mb *= ADAM_BETA1
            mb += a
            np.multiply(gb, gb, out=a)
            a *= 1.0 - ADAM_BETA2
            vb *= ADAM_BETA2
            vb += a
            np.divide(vb, correct2, out=a)
            np.sqrt(a, out=a)
            a += ADAM_EPS
            np.divide(mb, correct1, out=b)
            b /= a
            b *= lr
            p[blk] -= b
    return params
