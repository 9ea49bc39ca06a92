"""Alternating two-phase training loop and binary checkpointing.

Each round runs `phase1_steps` regression batches (both towers, shared Adam
state), re-estimates the completed attribute matrices, then runs
`phase2_steps` ranking batches against those frozen completions. Rounds stop
at `rounds_max` or when the relative improvement of the mean per-pair ranking
loss falls below `convergence_tol`. `TrainResult.est` is the completion of
the final params.

A checkpoint holds the config, the entity counts and the parameter tensors
(format 2), and in format 3 also the item completion of those tensors, so
that serving completes only user rows. `train_pipeline` writes `train.log`
to its `out_dir`, then a format-3 `model.ckpt`, or on a numeric blow-up a
format-2 `diagnostic.ckpt`.
"""

import contextlib
import dataclasses
import json
import math
import os
import struct
import time

import numpy as np

from .config import _TRAIN_FIELDS, RunConfig, TrainConfig
from .data import RATING_MAX, Corpus, SplitTriplets
from .matrices import build_matrices
from .network import (AdamState, ModelParams, adam_step, init_params,
                      param_shapes, phase1_forward_backward, tower_slice)
from .ranking import (EstimatedMatrices, bpr_s_forward_backward,
                      estimate_matrices, sample_negatives)

CHECKPOINT_MAGIC = b"A2CFCKPT"
PARAMS_FORMAT = 2       # the 11 parameter tensors
SERVING_FORMAT = 3      # the tensors, then the item completion
CHECKPOINT_NAME = "model.ckpt"
DIAGNOSTIC_NAME = "diagnostic.ckpt"


def _check_item_attr(path: str, item_attr: np.ndarray, shape: tuple) -> None:
    """Raise ValueError naming `path` unless `item_attr` has `shape` and
    every value lies on the rating scale [1, RATING_MAX], the range of both
    the observed cells and the tower's squash."""
    if item_attr.shape != shape:
        raise ValueError(f"{path}: item completion has shape "
                         f"{item_attr.shape}, the counts give {shape}")
    if not ((item_attr >= 1.0) & (item_attr <= RATING_MAX)).all():
        raise ValueError(f"{path}: checkpoint item completion holds a value "
                         f"that is non-finite or outside [1, {RATING_MAX}]")


def save_checkpoint(path: str, params: ModelParams, cfg: TrainConfig,
                    item_attr: np.ndarray | None = None) -> None:
    """Serialize config and parameter tensors to one binary file.

    Layout: 8-byte magic, u32 header length, UTF-8 JSON header (`config`,
    `counts` = [n_users, n_items, n_attrs], `format`), then the tensor
    section, `params.flat` (the tensors in field order) as raw
    little-endian float64. With `item_attr`, the (n_items, n_attrs) item
    completion of these params, the file is format 3 and that matrix
    follows the tensors; without it, format 2. The counts and the config
    give every shape (`param_shapes`), so a tensor whose shape `cfg` does
    not give, or an item completion of another shape or outside
    [1, RATING_MAX], raises ValueError before anything is written.
    Identical inputs yield identical bytes.
    """
    counts = [len(params.user_emb), len(params.item_emb), len(params.attr_emb)]
    shapes = param_shapes(*counts, cfg)
    for name, t in params.tensors().items():
        if t.shape != shapes[name]:
            raise ValueError(f"{path}: tensor {name!r} has shape {t.shape}, "
                             f"the config gives {shapes[name]}")
    if item_attr is not None:
        _check_item_attr(path, item_attr, tuple(counts[1:]))
    header = {"config": dataclasses.asdict(cfg), "counts": counts,
              "format": PARAMS_FORMAT if item_attr is None else SERVING_FORMAT}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)
        fh.write(params.flat.astype("<f8", copy=False).tobytes())
        if item_attr is not None:
            fh.write(np.ascontiguousarray(item_attr, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> tuple:
    """Read a checkpoint back into (ModelParams, TrainConfig, item_attr),
    item_attr being the item completion of a format-3 file and None for
    format 2.

    Every malformed file raises ValueError naming `path`, among them a
    config key that names no TrainConfig field, counts that are not three
    ints >= 0, a payload whose length is not the one the header's shapes
    give, a tensor holding NaN or inf, and an item completion with a value
    that is non-finite or outside [1, RATING_MAX].
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a model checkpoint (bad magic)")
    if len(raw) < 12:
        raise ValueError(f"{path}: truncated checkpoint header")
    (hlen,) = struct.unpack("<I", raw[8:12])
    try:
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers a bad UTF-8 or JSON header and an integer past
        # Python's digit limit; RecursionError a header nested too deep
        raise ValueError(f"{path}: corrupt checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: corrupt checkpoint header: not an object")
    fmt = header.get("format")
    if fmt not in (PARAMS_FORMAT, SERVING_FORMAT):
        raise ValueError(f"{path}: unsupported checkpoint format {fmt!r}")
    missing = [key for key in ("config", "counts") if key not in header]
    if missing:
        raise ValueError(f"{path}: checkpoint header lacks "
                         f"{' and '.join(map(repr, missing))}")
    try:
        # a config that is no JSON object raises TypeError here
        config = dict(**header["config"])
        unknown = [key for key in config if key not in _TRAIN_FIELDS]
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}")
        cfg = TrainConfig(**config)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad checkpoint config: {exc}") from None
    counts = header["counts"]
    if not (isinstance(counts, list) and len(counts) == 3
            and all(type(n) is int and n >= 0 for n in counts)):
        raise ValueError(f"{path}: checkpoint counts must be three ints >= 0, "
                         f"got {counts!r}")
    shapes = param_shapes(*counts, cfg)
    item_shape = tuple(counts[1:]) if fmt == SERVING_FORMAT else (0,)
    # checked before any reshape: a zero-size shape may still hold a
    # dimension numpy cannot represent (Python ints cannot overflow)
    offset = 12 + hlen
    payload = len(raw) - offset
    n_params = sum(math.prod(shape) for shape in shapes.values())
    need = 8 * (n_params + math.prod(item_shape))
    if need > payload:
        raise ValueError(f"{path}: truncated checkpoint: the header's shapes "
                         f"take {need} bytes, {max(payload, 0)} follow it")
    if need < payload:
        raise ValueError(f"{path}: {payload - need} trailing bytes")
    params = ModelParams.from_flat(
        np.frombuffer(raw, dtype="<f8", count=n_params,
                      offset=offset).astype(np.float64), shapes)
    if not params.all_finite():
        name = next(name for name, t in params.tensors().items()
                    if not np.isfinite(t).all())
        raise ValueError(f"{path}: checkpoint tensor {name!r} holds "
                         f"non-finite values")
    if fmt == PARAMS_FORMAT:
        return params, cfg, None
    item_attr = np.frombuffer(raw, dtype="<f8", offset=offset + 8 * n_params
                              ).astype(np.float64).reshape(item_shape)
    _check_item_attr(path, item_attr, item_shape)
    return params, cfg, item_attr


@dataclasses.dataclass
class TrainResult:
    """What `train_pipeline` returns; `est` is the completion of the final
    params."""

    params: ModelParams
    history: list
    rounds_run: int
    converged: bool
    final_loss: float | None
    est: EstimatedMatrices


def _batches(pool: np.ndarray, size: int, rng: np.random.Generator):
    """Endless stream of `size`-element batches of `pool`. A fresh
    rng.permutation of the pool is queued whenever fewer than `size`
    elements remain, so a batch may span two passes."""
    queue = np.empty(0, dtype=np.int64)
    while True:
        while len(queue) < size:
            queue = np.concatenate([queue, rng.permutation(pool)])
        yield queue[:size]
        queue = queue[size:]


@contextlib.contextmanager
def _diagnostic_on_blowup(out_dir: str | None, params: ModelParams,
                          cfg: TrainConfig):
    """Save `params` to `out_dir`/diagnostic.ckpt when the block raises
    FloatingPointError, then let the error propagate."""
    try:
        yield
    except FloatingPointError:
        if out_dir:
            save_checkpoint(os.path.join(out_dir, DIAGNOSTIC_NAME),
                            params, cfg)
        raise


def _observed_cells(mat: np.ndarray) -> tuple:
    """The (rows, cols, vals) of the nonzero cells of `mat`, row-major."""
    rows, cols = np.nonzero(mat)
    return rows, cols, mat[rows, cols]


def _cells(observed: tuple, idx: np.ndarray):
    """The (rows, cols, vals) of the observed cells at `idx`, or None."""
    return tuple(a[idx] for a in observed) if len(idx) else None


def train_pipeline(corpus: Corpus, splits: SplitTriplets, run: RunConfig,
                   out_dir: str | None = None) -> TrainResult:
    """Run the full alternating optimization and return the trained model.

    Child seeds are derived from run.seed in a fixed order (init, phase-1
    order, dropout, phase-2 order, negatives), so results are reproducible
    bit-for-bit for a given corpus and config. A numeric blow-up, a
    non-finite loss or activation, raises FloatingPointError after saving
    the params to `out_dir`/diagnostic.ckpt.

    `history` holds one record per phase per round (fields in README,
    Command line); phase 1 ends with the round's refresh of the completed
    matrices. `out_dir`, created if missing, receives train.log, one JSON
    line of corpus counts and `cells_filled`, then each record as its phase
    ends, closed on return and on any exception; then model.ckpt, the
    final params and the item section of `est`; an earlier run's
    model.ckpt and diagnostic.ckpt go once the seeds are spawned and the
    params built, so a failure before then, an empty training split among
    them, leaves `out_dir` untouched. Without it nothing is written.
    """
    cfg = run.train
    train = splits.train
    if len(train) == 0:
        raise ValueError("empty training split")
    user_mat, item_mat = build_matrices(corpus)
    seeds = np.random.SeedSequence(run.seed).spawn(5)
    init_seed, p1_seed, drop_seed, p2_seed, neg_seed = seeds
    params = init_params(corpus.n_users, corpus.n_items, corpus.n_attrs,
                         cfg, init_seed)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        for name in (CHECKPOINT_NAME, DIAGNOSTIC_NAME):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))
    drop_rng = np.random.default_rng(drop_seed)
    neg_rng = np.random.default_rng(neg_seed)
    adam_p1 = AdamState.zeros_like(params)
    adam_p2 = AdamState.zeros_like(params)
    # phase 2 leaves the towers' gradient and adam_p2 moments zero
    towers = tower_slice(params)
    # one gradient buffer for the run, zeroed by each step: a new vector per
    # step kept two alive at once and raised the peak resident memory
    grads = ModelParams.zeros_like(params)

    user_cells = _observed_cells(user_mat)
    item_cells = _observed_cells(item_mat)
    n_user_cells = len(user_cells[0])
    cells = np.arange(n_user_cells + len(item_cells[0]))
    cell_batches = _batches(cells, min(cfg.batch_size, len(cells)),
                            np.random.default_rng(p1_seed))
    train_batches = _batches(np.arange(len(train)),
                             min(cfg.batch_size, len(train)),
                             np.random.default_rng(p2_seed))
    history = []
    final_loss = None
    converged = False

    with (open(os.path.join(out_dir, "train.log"), "w", encoding="utf-8")
          if out_dir else contextlib.nullcontext()) as fh, \
            _diagnostic_on_blowup(out_dir, params, cfg):
        def record(entry: dict) -> None:
            if fh:
                fh.write(json.dumps(entry) + "\n")

        def fail(round_no, phase, step, value):
            raise FloatingPointError(
                f"non-finite loss {value!r} in round {round_no} "
                f"phase {phase} step {step}")

        record({"users": corpus.n_users, "items": corpus.n_items,
                "attrs": corpus.n_attrs, "train": len(train),
                "valid": len(splits.valid), "test": len(splits.test),
                "cells_filled": user_mat.size + item_mat.size - len(cells)})
        for round_no in range(1, run.rounds_max + 1):
            start, adam_start = time.perf_counter(), adam_p1.step
            p1_losses = []
            for step in range(1, run.phase1_steps + 1):
                batch = next(cell_batches)
                loss, grads = phase1_forward_backward(
                    params, _cells(user_cells, batch[batch < n_user_cells]),
                    _cells(item_cells, batch[batch >= n_user_cells]
                           - n_user_cells),
                    dropout=cfg.dropout, rng=drop_rng, grads=grads)
                if not np.isfinite(loss):
                    fail(round_no, 1, step, loss)
                adam_step(params, grads, adam_p1, cfg.learning_rate)
                p1_losses.append(loss)
            est = estimate_matrices(user_mat, item_mat, params)
            skipped = run.phase1_steps - (adam_p1.step - adam_start)
            history.append({"round": round_no, "phase": 1,
                            "steps": run.phase1_steps, "losses": p1_losses,
                            "skipped_updates": skipped,
                            "seconds": time.perf_counter() - start})
            record(history[-1])

            start, adam_start = time.perf_counter(), adam_p2.step
            loss_sum = 0.0
            pair_count = 0
            p2_losses = []
            for step in range(1, run.phase2_steps + 1):
                rows = train[next(train_batches)]
                neg = sample_negatives(rows[:, 0], rows[:, 1], corpus,
                                       cfg.negatives, neg_rng)
                loss, grads = bpr_s_forward_backward(
                    params, est, cfg, rows[:, 0], rows[:, 1], rows[:, 2], neg,
                    grads=grads)
                if not np.isfinite(loss):
                    fail(round_no, 2, step, loss)
                adam_step(params, grads, adam_p2, cfg.learning_rate,
                          skip=towers)
                loss_sum += loss
                pair_count += neg.size
                p2_losses.append(loss / neg.size)
            round_loss = loss_sum / pair_count if pair_count else None
            if final_loss is not None and final_loss > 0.0:
                converged = ((final_loss - round_loss) / final_loss
                             < run.convergence_tol)
            skipped = run.phase2_steps - (adam_p2.step - adam_start)
            history.append({"round": round_no, "phase": 2,
                            "steps": run.phase2_steps, "losses": p2_losses,
                            "loss": round_loss, "skipped_updates": skipped,
                            "seconds": time.perf_counter() - start,
                            "pairs": pair_count, "converged": converged})
            record(history[-1])
            if round_loss is None:
                break
            final_loss = round_loss
            if converged:
                break
        est = estimate_matrices(user_mat, item_mat, params)
    if out_dir:
        save_checkpoint(os.path.join(out_dir, CHECKPOINT_NAME), params, cfg,
                        est.item_attr)
    return TrainResult(params=params, history=history, rounds_run=round_no,
                       converged=converged, final_loss=final_loss, est=est)
