"""Adam optimization with the plateau schedule, minibatching, grid search.

Training starts at lr 0.1 with batch size 16. When the epoch loss stops
improving for `patience` epochs the learning rate halves; once halving
would cross LR_FLOOR (1e-7) the batch size doubles instead and the rate
resets. Runs stop after `max_epochs`, after `max_grow_cycles` batch-growth
actions, or (by default) once an epoch shows zero loss with 100% R@1 on
val_records in both directions. Only when val_records are the training
records does that mean every hinge is satisfied globally, so that further
steps would only apply optimizer-moment drift. Zero loss alone is not
enough to stop: a pair violated across batches produces no loss until a
later shuffle puts it into one batch.

Everything is a deterministic function of (data, config, seed): shuffles
come from a dedicated child generator, batches are consumed in order, and
gradient summation order is fixed.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .evaluation import evaluate_records
from .io import Checkpoint, DataFormatError, FeatureTable, record_rows, save_checkpoint
from .loss import LossConfig, batch_loss
from .model import (ModelDims, ModelParams, encode_image_batch, encode_text_batch,
                    param_shapes)
from .text import Vocabulary

LR_INIT_DEFAULT = 0.1
LR_FLOOR = 1e-7
BATCH_INIT_DEFAULT = 16
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # the textbook defaults
# Elements per block of adam_step: the block's slices of its five arrays and
# one scratch array (128 KiB each) stay in cache through the dozen passes.
ADAM_BLOCK = 1 << 14


class NumericsError(RuntimeError):
    """An embedding batch, loss or gradient went non-finite; the run must abort."""


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, tensors: dict[str, np.ndarray]) -> "AdamState":
        return cls(m={n: np.zeros_like(a) for n, a in tensors.items()},
                   v={n: np.zeros_like(a) for n, a in tensors.items()})


def adam_step(tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update; returns new tensors, mutates state."""
    if not 0 <= lr < np.inf:  # NaN fails both comparisons
        raise ValueError(f"lr must be finite and >= 0, got {lr!r}")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericsError(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    t = state.t
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    tmp = np.empty(ADAM_BLOCK)  # scratch that stays in cache across blocks
    out = {}
    for name, theta in tensors.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        new = np.empty(theta.shape)
        # Flat views; an array not in C order gives a copy, so the moments'
        # copies are written back below.
        flat = [a.reshape(-1) for a in (theta, g, m, v, new)]
        for lo in range(0, theta.size, ADAM_BLOCK):
            th, gb, mb, vb, nb = (a[lo:lo + ADAM_BLOCK] for a in flat)
            tb = tmp[:th.size]
            # The textbook order of operations, so blocking keeps every bit.
            np.multiply(1.0 - ADAM_BETA1, gb, out=tb)
            mb *= ADAM_BETA1
            mb += tb
            np.multiply(1.0 - ADAM_BETA2, gb, out=tb)
            tb *= gb
            vb *= ADAM_BETA2
            vb += tb
            np.sqrt(np.divide(vb, bc2, out=tb), out=tb)
            tb += ADAM_EPS
            np.divide(mb, bc1, out=nb)
            nb *= lr
            nb /= tb  # lr * m_hat / (sqrt(v_hat) + eps)
            np.subtract(th, nb, out=nb)
        for moment, f in ((m, flat[2]), (v, flat[3])):
            if not np.may_share_memory(moment, f):
                moment[...] = f.reshape(moment.shape)
        out[name] = new
    return out


@dataclass
class ScheduleState:
    lr: float = LR_INIT_DEFAULT
    batch_size: int = BATCH_INIT_DEFAULT
    best_loss: float = float("inf")
    epochs_since_improve: int = 0
    patience: int = 3
    tol: float = 1e-4
    lr_reset: float = LR_INIT_DEFAULT
    grow_cycles: int = 0


def schedule_update(state: ScheduleState, epoch_loss: float) -> str:
    """Advance the plateau state machine; returns the action taken.

    Actions: "none", "halve_lr", or "grow_batch_reset_lr". Improvement means
    dropping below best_loss by a relative tolerance.
    """
    if np.isinf(state.best_loss):
        improved = True
    else:
        improved = epoch_loss < state.best_loss - state.tol * abs(state.best_loss)
    if improved:
        state.best_loss = epoch_loss
        state.epochs_since_improve = 0
        return "none"
    state.epochs_since_improve += 1
    if state.epochs_since_improve < state.patience:
        return "none"
    state.epochs_since_improve = 0
    if state.lr / 2.0 >= LR_FLOOR:
        state.lr /= 2.0
        return "halve_lr"
    state.batch_size *= 2
    state.lr = state.lr_reset
    state.grow_cycles += 1
    return "grow_batch_reset_lr"


@dataclass
class TrainConfig:
    dims: ModelDims
    loss: LossConfig
    seq_len: int = 70
    seed: int = 0
    lr_init: float = LR_INIT_DEFAULT
    batch_size: int = BATCH_INIT_DEFAULT
    max_epochs: int = 500
    max_grow_cycles: int = 3
    stop_when_perfect: bool = True


@dataclass
class TrainingData:
    records: list
    features: FeatureTable
    vocab: Vocabulary
    val_records: list  # evaluated after each epoch; must be non-empty


@dataclass
class TrainResult:
    params: ModelParams
    log: list[dict]
    adam: AdamState
    schedule: ScheduleState
    stop_reason: str


def prepare_pairs(records, features: FeatureTable, vocab: Vocabulary,
                  seq_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Flatten records into aligned (token_ids (N, L), feats (N, f)) pairs,
    one pair per caption.

    Training does not call this: it keeps one feature row per record and
    gathers each batch's rows through io.record_rows' owner index, so a
    record's features are not copied once per caption.
    """
    token_ids, owner, image_feats = record_rows(records, features, vocab, seq_len)
    if not len(token_ids):
        raise ValueError("no training pairs")
    return token_ids, image_feats[owner]


def _batch_step(token_ids, feats, params: ModelParams, cfg: TrainConfig,
                adam: AdamState, lr: float) -> tuple[ModelParams, float]:
    tape = ad.Tape()
    tracked = params.as_tracked(tape)
    v_txt = encode_text_batch(token_ids, tracked)
    v_img = encode_image_batch(feats, tracked)
    for branch, v in (("text", v_txt), ("image", v_img)):
        if not np.isfinite(v.data).all():
            raise NumericsError(f"non-finite {branch} embedding batch")
    loss_t = batch_loss(v_txt, v_img, cfg.loss)
    if not np.isfinite(loss_t.data):
        raise NumericsError(f"non-finite batch loss {float(loss_t.data)!r}")
    grads_by_node = ad.backward(tape, loss_t)
    grads = {name: grads_by_node[leaf.node_id] for name, leaf in tracked.items()}
    new_tensors = adam_step(params.tensors, grads, adam, lr)
    return params.with_tensors(new_tensors), float(loss_t.data)


def train(data: TrainingData, params: ModelParams, cfg: TrainConfig,
          log_path=None) -> TrainResult:
    """Run the full schedule; returns trained parameters and the epoch log."""
    schedule = ScheduleState(lr=cfg.lr_init, batch_size=cfg.batch_size,
                             lr_reset=cfg.lr_init)
    return _train_from_state(data, params, AdamState.zeros_like(params.tensors),
                             schedule, cfg, log_path)


def checkpoint_tensors(params: ModelParams, adam: AdamState,
                       schedule: ScheduleState) -> dict[str, np.ndarray]:
    tensors = dict(params.tensors)
    for name in params.tensors:
        tensors[f"adam.m.{name}"] = adam.m[name]
        tensors[f"adam.v.{name}"] = adam.v[name]
    tensors["schedule.best_loss"] = np.array([schedule.best_loss])
    tensors["schedule.epochs_since_improve"] = np.array(
        [float(schedule.epochs_since_improve)])
    return tensors


def save_training_checkpoint(path, params: ModelParams, adam: AdamState,
                             schedule: ScheduleState) -> None:
    save_checkpoint(path, checkpoint_tensors(params, adam, schedule),
                    step=adam.t, lr=schedule.lr, batch_size=schedule.batch_size,
                    phase=schedule.grow_cycles)


def restore_training_state(ck: Checkpoint, cfg: TrainConfig,
                           ) -> tuple[ModelParams, AdamState, ScheduleState]:
    """Rebuild (params, adam, schedule) from a checkpoint, validating every tensor.

    The moments are copied, because `adam_step` updates them in place.
    """
    def read(key, shape):
        if key not in ck.tensors:
            raise DataFormatError(f"checkpoint missing tensor {key!r}")
        if ck.tensors[key].shape != shape:
            raise DataFormatError(
                f"checkpoint tensor {key!r} has shape {ck.tensors[key].shape}, "
                f"config wants {shape}"
            )
        return ck.tensors[key]

    expected = param_shapes(cfg.dims)
    params = ModelParams(cfg.dims, {n: read(n, s) for n, s in expected.items()})
    m, v = ({n: np.array(read(f"adam.{k}.{n}", s), dtype=np.float64)
             for n, s in expected.items()} for k in "mv")
    schedule = ScheduleState(
        lr=ck.lr, batch_size=ck.batch_size,
        best_loss=float(read("schedule.best_loss", (1,))[0]),
        epochs_since_improve=int(read("schedule.epochs_since_improve", (1,))[0]),
        lr_reset=cfg.lr_init, grow_cycles=ck.phase)
    return params, AdamState(m, v, t=ck.step), schedule


def resume_train(data: TrainingData, ck: Checkpoint, cfg: TrainConfig,
                 log_path=None) -> TrainResult:
    """Continue a run from a checkpoint (schedule and moments persist)."""
    params, adam, schedule = restore_training_state(ck, cfg)
    return _train_from_state(data, params, adam, schedule, cfg, log_path)


def _train_from_state(data: TrainingData, params: ModelParams, adam: AdamState,
                      schedule: ScheduleState, cfg: TrainConfig,
                      log_path) -> TrainResult:
    if schedule.batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {schedule.batch_size}")
    if cfg.max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    # One feature row per record; a batch gathers its rows through owner.
    token_ids, owner, feats = record_rows(data.records, data.features, data.vocab,
                                          cfg.seq_len)
    n_pairs = len(token_ids)
    if n_pairs < 2:
        raise ValueError("need at least 2 training pairs to form negatives")
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    if not data.val_records:
        raise ValueError("val_records is empty: nothing to evaluate after each epoch")

    log: list[dict] = []
    sink = open(log_path, "a", encoding="utf-8") if log_path else None
    stop_reason = "max_epochs"
    try:
        for epoch in range(1, cfg.max_epochs + 1):
            t0 = time.perf_counter()
            order = shuffle_rng.permutation(n_pairs)
            loss_sum = 0.0
            pairs_seen = 0
            for lo in range(0, n_pairs, schedule.batch_size):
                batch = order[lo : lo + schedule.batch_size]
                if len(batch) < 2:
                    continue  # a tail of one has no negatives
                params, batch_loss_val = _batch_step(
                    token_ids[batch], feats[owner[batch]], params, cfg, adam,
                    schedule.lr)
                loss_sum += batch_loss_val
                pairs_seen += len(batch)
            epoch_loss = loss_sum / pairs_seen

            reports = evaluate_records(data.val_records, data.features, data.vocab,
                                       params, cfg.seq_len, protocol="full_5k")
            lr_logged, batch_logged = schedule.lr, schedule.batch_size
            schedule_update(schedule, epoch_loss)
            entry = {
                "epoch": epoch,
                "loss": epoch_loss,
                "lr": lr_logged,
                "batch_size": batch_logged,
                "val_r1_sent": reports["sentence_retrieval"].overall.r_at[1],
                "val_r1_img": reports["image_retrieval"].overall.r_at[1],
                "wall_ms": int((time.perf_counter() - t0) * 1000),
            }
            log.append(entry)
            if sink:
                sink.write(json.dumps(entry) + "\n")
                sink.flush()

            if (cfg.stop_when_perfect and epoch_loss == 0.0
                    and entry["val_r1_sent"] == 100.0
                    and entry["val_r1_img"] == 100.0):
                stop_reason = "perfect_fit"
                break
            if schedule.grow_cycles >= cfg.max_grow_cycles:
                stop_reason = "max_grow_cycles"
                break
    finally:
        if sink:
            sink.close()
    return TrainResult(params, log, adam, schedule, stop_reason)


def grid_search(grid: dict[str, list], data: TrainingData, base_cfg: TrainConfig,
                ) -> tuple[TrainConfig, list[dict]]:
    """Train one model per grid point and select by validation R@1 sum.

    A key naming a LossConfig field sets that field of the config's loss;
    any other key sets a TrainConfig field. Points are visited in
    Cartesian-product order of the grid's insertion order; ties keep the
    earliest point.
    """
    if not grid:
        raise ValueError("grid must be non-empty")
    keys = list(grid)
    loss_fields = {f.name for f in fields(LossConfig)}
    results = []
    best_cfg, best_score = None, -1.0
    for values in itertools.product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, values))
        loss_over = {k: v for k, v in overrides.items() if k in loss_fields}
        cfg_over = {k: v for k, v in overrides.items() if k not in loss_over}
        cfg = replace(base_cfg, **cfg_over)
        if loss_over:
            cfg = replace(cfg, loss=replace(base_cfg.loss, **loss_over))
        params = ModelParams.init(
            cfg.dims, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0])))
        # train's last epoch already scored the final params on the same records
        last = train(data, params, cfg).log[-1]
        score = last["val_r1_sent"] + last["val_r1_img"]
        results.append({**overrides, "score": score,
                        "r1_sent": last["val_r1_sent"], "r1_img": last["val_r1_img"]})
        if score > best_score:
            best_cfg, best_score = cfg, score
    return best_cfg, results
