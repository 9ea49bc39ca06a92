"""Alternating two-phase training loop and binary checkpointing.

Each round runs `phase1_steps` regression batches (both towers, shared Adam
state), re-estimates the completed attribute matrices, then runs
`phase2_steps` ranking batches against those frozen completions. Rounds stop
at `rounds_max` or when the relative improvement of the mean per-pair ranking
loss falls below `convergence_tol`. The completion of the final params is
`TrainResult.est`, computed only when a caller first reads it.
"""

import contextlib
import dataclasses
import functools
import io
import json
import logging
import math
import os
import struct

import numpy as np

from .config import RunConfig, TrainConfig
from .data import Corpus, SplitTriplets
from .matrices import SparseAttributeMatrix, build_matrices
from .network import (AdamState, ModelParams, adam_step, init_params,
                      param_shapes, phase1_forward_backward)
from .ranking import (EstimatedMatrices, bpr_s_forward_backward,
                      estimate_matrices, sample_negatives)

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"A2CFCKPT"
CHECKPOINT_FORMAT = 1


def save_checkpoint(path: str, params: ModelParams, cfg: TrainConfig) -> None:
    """Serialize config and parameter tensors to one binary file.

    Layout: 8-byte magic, u32 header length, UTF-8 JSON header (format
    version, config, tensor manifest), then raw little-endian float64 tensor
    bytes in manifest order. Identical params yield identical bytes.
    """
    tensors = params.tensors()
    header = {
        "format": CHECKPOINT_FORMAT,
        "config": dataclasses.asdict(cfg),
        "tensors": [[name, list(t.shape)] for name, t in tensors.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", len(blob)))
    buf.write(blob)
    for _, t in tensors.items():
        buf.write(np.ascontiguousarray(t, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _checkpoint_manifest(path: str, header, cfg: TrainConfig) -> list:
    """The header's tensor manifest as (name, shape) pairs; it must name
    every ModelParams tensor exactly once, each with the shape `cfg` gives
    it."""
    try:
        manifest = [(name, tuple(int(n) for n in shape))
                    for name, shape in header["tensors"]]
    except (TypeError, ValueError):
        raise ValueError(
            f"{path}: malformed checkpoint tensor manifest") from None
    names = sorted(name for name, _ in manifest)
    expected = sorted(f.name for f in dataclasses.fields(ModelParams))
    if names != expected:
        missing = ", ".join(sorted(set(expected) - set(names)))
        raise ValueError(f"{path}: checkpoint tensors do not match the model"
                         + (f"; missing {missing}" if missing else ""))
    if any(n < 0 for _, shape in manifest for n in shape):
        raise ValueError(f"{path}: negative dimension in checkpoint manifest")
    shapes = dict(manifest)
    counts = [shapes[name][0] if shapes[name] else 0
              for name in ("user_emb", "item_emb", "attr_emb")]
    want = param_shapes(*counts, cfg)
    for name, shape in manifest:
        if shape != want[name]:
            raise ValueError(f"{path}: checkpoint tensor {name!r} has shape "
                             f"{shape}, expected {want[name]}")
    return manifest


def load_checkpoint(path: str) -> tuple:
    """Read a checkpoint back into (ModelParams, TrainConfig).

    Every malformed file raises ValueError naming `path`.
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: corrupt checkpoint header: not an object")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: unsupported checkpoint format "
                         f"{header.get('format')!r}")
    missing = [key for key in ("config", "tensors") if key not in header]
    if missing:
        raise ValueError(f"{path}: checkpoint header lacks "
                         f"{' and '.join(map(repr, missing))}")
    try:
        cfg = TrainConfig(**header["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad checkpoint config: {exc}") from None
    offset = 12 + hlen
    fields = {}
    for name, shape in _checkpoint_manifest(path, header, cfg):
        nbytes = math.prod(shape) * 8      # Python ints cannot overflow
        if offset + nbytes > len(raw):
            raise ValueError(f"{path}: truncated checkpoint at tensor {name!r}")
        arr = np.frombuffer(raw[offset:offset + nbytes], dtype="<f8").astype(
            np.float64).reshape(shape)
        fields[name] = arr.copy()
        offset += nbytes
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} trailing bytes")
    return ModelParams(**fields), cfg


def checkpoint_roundtrip(params: ModelParams, cfg: TrainConfig,
                         path: str) -> ModelParams:
    """Save, reload, and verify bit-identity of every tensor."""
    save_checkpoint(path, params, cfg)
    loaded, _ = load_checkpoint(path)
    for name, t in params.tensors().items():
        back = getattr(loaded, name)
        if t.shape != back.shape or not np.array_equal(
                t.view(np.uint64), back.view(np.uint64)):
            raise AssertionError(f"checkpoint roundtrip altered tensor {name!r}")
    return loaded


@dataclasses.dataclass
class TrainResult:
    """What `train_pipeline` returns. `est`, the completion of the final
    params, is computed on first read and cached."""

    params: ModelParams
    user_mat: SparseAttributeMatrix
    item_mat: SparseAttributeMatrix
    history: list
    rounds_run: int
    converged: bool
    final_loss: float | None

    @functools.cached_property
    def est(self) -> EstimatedMatrices:
        return estimate_matrices(self.user_mat, self.item_mat, self.params)


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


def _cells(mat: SparseAttributeMatrix, idx: np.ndarray):
    """The (rows, cols, vals) of the observed cells at `idx`, or None."""
    return (mat.rows[idx], mat.cols[idx], mat.vals[idx]) if len(idx) else None


def train_pipeline(corpus: Corpus, splits: SplitTriplets, run: RunConfig,
                   log_path: str | None = None,
                   diag_dir: str | None = None) -> TrainResult:
    """Run the full alternating optimization and return the trained model.

    Child seeds are derived from run.seed in a fixed order (init, phase-1
    order, dropout, phase-2 order, negatives), so results are reproducible
    bit-for-bit for a given corpus and config. The log at `log_path` is
    closed on return and on any exception; a non-finite loss first saves
    the params to `diag_dir`/diagnostic.ckpt, then raises FloatingPointError.
    """
    cfg = run.train
    user_mat, item_mat = build_matrices(corpus, cfg.rating_max)
    seeds = np.random.SeedSequence(run.seed).spawn(5)
    init_seed, p1_seed, drop_seed, p2_seed, neg_seed = seeds
    params = init_params(corpus.n_users, corpus.n_items, corpus.n_attrs,
                         cfg, init_seed)
    drop_rng = np.random.default_rng(drop_seed)
    neg_rng = np.random.default_rng(neg_seed)
    adam_p1 = AdamState.zeros_like(params)
    adam_p2 = AdamState.zeros_like(params)

    n_user_cells = len(user_mat.rows)
    cells = np.arange(n_user_cells + len(item_mat.rows))
    train = splits.train
    if len(train) == 0:
        raise ValueError("empty training split")
    cell_batches = _batches(cells, min(cfg.batch_size, len(cells)),
                            np.random.default_rng(p1_seed))
    train_batches = _batches(np.arange(len(train)),
                             min(cfg.batch_size, len(train)),
                             np.random.default_rng(p2_seed))
    history = []
    final_loss = None
    converged = False

    with (open(log_path, "w", encoding="utf-8") if log_path
          else contextlib.nullcontext()) as fh:
        def log(text: str) -> None:
            logger.debug("%s", text)
            if fh:
                fh.write(text + "\n")

        def fail(round_no, phase, step, value):
            if diag_dir:
                os.makedirs(diag_dir, exist_ok=True)
                save_checkpoint(os.path.join(diag_dir, "diagnostic.ckpt"),
                                params, cfg)
            raise FloatingPointError(
                f"non-finite loss {value!r} in round {round_no} "
                f"phase {phase} step {step}")

        log(f"corpus users={corpus.n_users} items={corpus.n_items} "
            f"attrs={corpus.n_attrs} train={len(train)} "
            f"valid={len(splits.valid)} test={len(splits.test)}")
        for round_no in range(1, run.rounds_max + 1):
            p1_losses = []
            for step in range(1, run.phase1_steps + 1):
                batch = next(cell_batches)
                loss, grads = phase1_forward_backward(
                    params, _cells(user_mat, batch[batch < n_user_cells]),
                    _cells(item_mat, batch[batch >= n_user_cells]
                           - n_user_cells),
                    cfg.rating_max, dropout=cfg.dropout, rng=drop_rng)
                if not np.isfinite(loss):
                    fail(round_no, 1, step, loss)
                adam_step(params, grads, adam_p1, cfg.learning_rate)
                p1_losses.append(loss)
                if step == 1 or step % 50 == 0 or step == run.phase1_steps:
                    log(f"round={round_no} phase=1 step={step} "
                        f"loss={loss:.6f}")
            history.append({"round": round_no, "phase": 1,
                            "steps": run.phase1_steps, "losses": p1_losses})

            est = estimate_matrices(user_mat, item_mat, params)
            log(f"round={round_no} estimated matrices refreshed")

            loss_sum = 0.0
            pair_count = 0
            p2_losses = []
            for step in range(1, run.phase2_steps + 1):
                rows = train[next(train_batches)]
                neg = sample_negatives(rows[:, 0], rows[:, 1], corpus,
                                       cfg.negatives, neg_rng)
                loss, grads = bpr_s_forward_backward(
                    params, est, cfg, rows[:, 0], rows[:, 1], rows[:, 2], neg)
                if not np.isfinite(loss):
                    fail(round_no, 2, step, loss)
                adam_step(params, grads, adam_p2, cfg.learning_rate)
                loss_sum += loss
                pair_count += neg.size
                p2_losses.append(loss / neg.size)
                if step == 1 or step % 50 == 0 or step == run.phase2_steps:
                    log(f"round={round_no} phase=2 step={step} "
                        f"loss={loss:.6f} per_pair={loss / neg.size:.6f}")
            round_loss = loss_sum / pair_count if pair_count else None
            history.append({"round": round_no, "phase": 2,
                            "steps": run.phase2_steps, "losses": p2_losses,
                            "loss": round_loss})
            if round_loss is None:
                log(f"round={round_no} done (no ranking steps); stopping")
                break
            log(f"round={round_no} mean_pair_loss={round_loss:.6f}")
            if final_loss is not None and final_loss > 0.0:
                improvement = (final_loss - round_loss) / final_loss
                converged = improvement < run.convergence_tol
            final_loss = round_loss
            if converged:
                log(f"converged: relative improvement "
                    f"{improvement:.6f} < {run.convergence_tol}")
                break
        log(f"training finished after {round_no} round(s), "
            f"converged={converged}")
    return TrainResult(params=params, user_mat=user_mat, item_mat=item_mat,
                       history=history, rounds_run=round_no,
                       converged=converged, final_loss=final_loss)
