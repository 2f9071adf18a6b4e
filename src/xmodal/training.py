"""Adam optimization with the plateau schedule, minibatching, grid search.

Training starts at lr 0.1 with batch size 16. When the epoch loss stops
improving for `patience` epochs the learning rate halves; once halving
would cross the 1e-7 floor the batch size doubles instead and the rate
resets. Runs stop after `max_epochs`, after `max_grow_cycles` batch-growth
actions, or (by default) once an epoch shows zero loss with 100% R@1 in
both directions: every hinge is satisfied globally and further steps would
only apply optimizer-moment drift. Zero loss alone is not enough to stop:
a pair violated across batches produces no loss until a later shuffle puts
it into one batch.

Everything is a deterministic function of (data, config, seed): shuffles
come from a dedicated child generator, batches are consumed in order, and
gradient summation order is fixed.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .evaluation import evaluate_records
from .io import Checkpoint, DataFormatError, FeatureTable, save_checkpoint
from .loss import LossConfig, batch_loss
from .model import ModelDims, ModelParams, encode_image_batch, encode_text_batch
from .text import Vocabulary, concat_captions, encode, normalize

LR_INIT_DEFAULT = 0.1
LR_FLOOR_DEFAULT = 1e-7
BATCH_INIT_DEFAULT = 16


class NumericsError(RuntimeError):
    """A loss or gradient went non-finite; the run must abort."""


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros_like(cls, tensors: dict[str, np.ndarray], beta1=0.9, beta2=0.999,
                   eps=1e-8) -> "AdamState":
        return cls(
            m={n: np.zeros_like(a) for n, a in tensors.items()},
            v={n: np.zeros_like(a) for n, a in tensors.items()},
            t=0, beta1=beta1, beta2=beta2, eps=eps,
        )


def adam_step(tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update; returns new tensors, mutates state."""
    if lr < 0:
        raise ValueError("lr must be >= 0")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericsError(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    t = state.t
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    out = {}
    for name, theta in tensors.items():
        g = grads[name]
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        out[name] = theta - lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return out


@dataclass
class ScheduleState:
    lr: float = LR_INIT_DEFAULT
    batch_size: int = BATCH_INIT_DEFAULT
    best_loss: float = float("inf")
    epochs_since_improve: int = 0
    patience: int = 3
    tol: float = 1e-4
    lr_floor: float = LR_FLOOR_DEFAULT
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
    if state.lr / 2.0 >= state.lr_floor:
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
    lr_floor: float = LR_FLOOR_DEFAULT
    batch_size: int = BATCH_INIT_DEFAULT
    plateau_patience: int = 3
    plateau_tol: float = 1e-4
    max_epochs: int = 500
    max_grow_cycles: int = 3
    stop_when_perfect: bool = True
    reset_moments_on_grow: bool = False
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    caption_mode: str = "individual"  # or "concat"
    image_activation: str = "relu_zero_floor"


@dataclass
class TrainingData:
    records: list
    features: FeatureTable
    vocab: Vocabulary
    val_records: list | None = None  # falls back to the training records


@dataclass
class TrainResult:
    params: ModelParams
    log: list[dict]
    adam: AdamState
    schedule: ScheduleState
    stop_reason: str


def prepare_pairs(records, features: FeatureTable, vocab: Vocabulary,
                  seq_len: int, caption_mode: str = "individual",
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Flatten records into aligned (token_ids (N, L), feats (N, f)) pairs.

    "individual" makes one pair per caption; "concat" joins each record's
    captions into one long description first.
    """
    if caption_mode not in ("individual", "concat"):
        raise ValueError(f"unknown caption_mode {caption_mode!r}")
    ids, feats = [], []
    for rec in records:
        caps = [concat_captions(rec.captions)] if caption_mode == "concat" else rec.captions
        for cap in caps:
            ids.append(encode(normalize(cap), vocab, seq_len).indices)
            feats.append(features[rec.feature_ref].astype(np.float64))
    if not ids:
        raise ValueError("no training pairs")
    return np.stack(ids), np.stack(feats)


def _batch_step(token_ids, feats, params: ModelParams, cfg: TrainConfig,
                adam: AdamState, lr: float) -> tuple[ModelParams, float]:
    tape = ad.Tape()
    tracked = params.as_tracked(tape)
    v_txt = encode_text_batch(token_ids, tracked)
    v_img = encode_image_batch(feats, tracked, cfg.image_activation)
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
    if cfg.batch_size < 2:
        raise ValueError("batch_size must be >= 2")
    adam = AdamState.zeros_like(params.tensors, cfg.adam_beta1, cfg.adam_beta2,
                                cfg.adam_eps)
    schedule = ScheduleState(
        lr=cfg.lr_init, batch_size=cfg.batch_size, patience=cfg.plateau_patience,
        tol=cfg.plateau_tol, lr_floor=cfg.lr_floor, lr_reset=cfg.lr_init)
    return _train_from_state(data, params, adam, schedule, cfg, log_path)


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


def restore_training_state(ck: Checkpoint, dims: ModelDims, cfg: TrainConfig,
                           ) -> tuple[ModelParams, AdamState, ScheduleState]:
    """Rebuild (params, adam, schedule) from a checkpoint, validating shapes."""
    from .model import param_shapes

    expected = param_shapes(dims)
    for name, shape in expected.items():
        for key in (name, f"adam.m.{name}", f"adam.v.{name}"):
            if key not in ck.tensors:
                raise DataFormatError(f"checkpoint missing tensor {key!r}")
        if ck.tensors[name].shape != shape:
            raise DataFormatError(
                f"checkpoint tensor {name!r} has shape {ck.tensors[name].shape}, "
                f"config wants {shape}"
            )
    params = ModelParams(dims, {n: ck.tensors[n] for n in expected})
    adam = AdamState(
        m={n: ck.tensors[f"adam.m.{n}"] for n in expected},
        v={n: ck.tensors[f"adam.v.{n}"] for n in expected},
        t=ck.step, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2, eps=cfg.adam_eps)
    schedule = ScheduleState(
        lr=ck.lr, batch_size=ck.batch_size,
        best_loss=float(ck.tensors["schedule.best_loss"][0]),
        epochs_since_improve=int(ck.tensors["schedule.epochs_since_improve"][0]),
        patience=cfg.plateau_patience, tol=cfg.plateau_tol,
        lr_floor=cfg.lr_floor, lr_reset=cfg.lr_init, grow_cycles=ck.phase)
    return params, adam, schedule


def resume_train(data: TrainingData, ck: Checkpoint, cfg: TrainConfig,
                 log_path=None) -> TrainResult:
    """Continue a run from a checkpoint (schedule and moments persist)."""
    params, adam, schedule = restore_training_state(ck, cfg.dims, cfg)
    return _train_from_state(data, params, adam, schedule, cfg, log_path)


def _train_from_state(data: TrainingData, params: ModelParams, adam: AdamState,
                      schedule: ScheduleState, cfg: TrainConfig,
                      log_path) -> TrainResult:
    token_ids, feats = prepare_pairs(
        data.records, data.features, data.vocab, cfg.seq_len, cfg.caption_mode)
    n_pairs = len(token_ids)
    if n_pairs < 2:
        raise ValueError("need at least 2 training pairs to form negatives")
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    val_records = data.val_records if data.val_records is not None else data.records

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
                    token_ids[batch], feats[batch], params, cfg, adam, schedule.lr)
                loss_sum += batch_loss_val
                pairs_seen += len(batch)
            epoch_loss = loss_sum / pairs_seen if pairs_seen else 0.0

            reports = evaluate_records(
                val_records, data.features, data.vocab, params, cfg.seq_len,
                protocol="full_5k", image_activation=cfg.image_activation)
            lr_logged, batch_logged = schedule.lr, schedule.batch_size
            action = schedule_update(schedule, epoch_loss)
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

            if action == "grow_batch_reset_lr" and cfg.reset_moments_on_grow:
                adam = AdamState.zeros_like(params.tensors, cfg.adam_beta1,
                                            cfg.adam_beta2, cfg.adam_eps)
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
                init_rng_seed: int | None = None,
                ) -> tuple[TrainConfig, list[dict]]:
    """Train one model per grid point and select by validation R@1 sum.

    Points are visited in Cartesian-product order of the grid's insertion
    order; ties keep the earliest point.
    """
    if not grid:
        raise ValueError("grid must be non-empty")
    keys = list(grid)
    results = []
    best_cfg, best_score = None, -1.0
    for values in itertools.product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, values))
        loss_over = {k: v for k, v in overrides.items()
                     if k in ("alpha", "lambda_var", "negative_mode", "variance_scope")}
        cfg_over = {k: v for k, v in overrides.items() if k not in loss_over}
        cfg = replace(base_cfg, **cfg_over)
        if loss_over:
            cfg = replace(cfg, loss=replace(base_cfg.loss, **loss_over))
        seed = init_rng_seed if init_rng_seed is not None else cfg.seed
        params = ModelParams.init(
            cfg.dims, np.random.default_rng(np.random.SeedSequence([seed, 0])))
        result = train(data, params, cfg)
        val = data.val_records if data.val_records is not None else data.records
        reports = evaluate_records(val, data.features, data.vocab, result.params,
                                   cfg.seq_len, "full_5k", cfg.image_activation)
        score = (reports["sentence_retrieval"].overall.r_at[1]
                 + reports["image_retrieval"].overall.r_at[1])
        results.append({**overrides, "score": score,
                        "r1_sent": reports["sentence_retrieval"].overall.r_at[1],
                        "r1_img": reports["image_retrieval"].overall.r_at[1]})
        if score > best_score:
            best_cfg, best_score = cfg, score
    return best_cfg, results
