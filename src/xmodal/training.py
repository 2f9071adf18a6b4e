"""Adam optimization with the plateau schedule and minibatching.

Training starts at lr 1e-3 with batch size 16. When the epoch loss stops
improving (by the relative IMPROVE_TOL) for PATIENCE epochs the learning
rate halves; once halving would cross LR_FLOOR (1e-7) the batch size
doubles instead and the rate resets to lr_init. The default rate is the
Adam rate the order-embedding and VSE++ models train with: at 0.1 the
image MLP's rectifiers die and the LSTM saturates, so held-out ranks fall
to chance. Runs stop after `max_epochs`, after MAX_GROW_CYCLES
batch-growth actions, or once an epoch shows zero loss with 100% R@1 on
val_records in both directions. Only when val_records are the training
records does that mean every hinge is satisfied globally, so that further
steps would only apply optimizer-moment drift. Zero loss alone is not
enough to stop: a pair violated across batches produces no loss until a
later shuffle puts it into one batch.

Adam (Kingma & Ba 2015, arXiv:1412.6980) runs in the paper's efficient
order: the bias corrections fold into one step size and one eps_hat =
eps * sqrt(1 - beta2^t) per call, so an entry's update takes one division
and one square root. It works through each tensor in ADAM_BLOCK slices,
the gradients' finiteness check too, so no pass builds a whole-tensor
temporary.

Everything is a deterministic function of (data, config, seed): epoch e
shuffles with a generator seeded by SeedSequence([seed, 1, e]), batches
are consumed in order, and gradient summation order is fixed. `train`
works on its own copy of the parameters, which `adam_step` updates in
place like the Adam moments, so the caller's parameters are left as they
were.

The run's state is the parameters, the Adam moments and step count, and
every ScheduleState field, `epoch` (epochs completed) among them. A
checkpoint holds all of it as named tensors, so a resumed run continues
bit for bit as the uninterrupted one would: `max_epochs` counts epochs
over the whole run, and the log's `epoch` keeps counting. `_stop_reason`
decides from that state alone whether a run stops, so a resumed run that
had already stopped, on `max_epochs`, `max_grow_cycles` or `perfect_fit`,
runs no epoch and gives the same stop reason: ScheduleState.perfect_fit
records whether the last epoch fit perfectly.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .evaluation import evaluate_records
from .io import (DataFormatError, FeatureTable, check_feature_refs, record_rows,
                 save_checkpoint)
from .loss import LossConfig, batch_loss
from .model import (ModelDims, ModelParams, check_int_fields, encode_image_batch,
                    encode_text_batch, param_shapes)
from .text import DEFAULT_SEQ_LEN, Vocabulary

LR_INIT_DEFAULT = 1e-3
LR_FLOOR = 1e-7
PATIENCE = 3  # epochs without improvement before the schedule acts
IMPROVE_TOL = 1e-4  # relative drop below best_loss that counts as improvement
MAX_GROW_CYCLES = 3  # batch-growth actions after which a run stops
BATCH_INIT_DEFAULT = 16
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # the textbook defaults
# Elements per block of adam_step: the block's slices of its four arrays and
# two scratch arrays (128 KiB each) stay in cache through the 12 passes.
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
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of `tensors`, `state.m` and `state.v`,
    in place. Nothing is written unless lr and every gradient are finite.

    The update takes Kingma & Ba's efficient order (arXiv:1412.6980, end of
    section 2): with step = lr * sqrt(1 - beta2^t) / (1 - beta1^t) and
    eps_hat = eps * sqrt(1 - beta2^t), formed once per call, each entry
    moves by step * m / (sqrt(v) + eps_hat). In real arithmetic that is the
    textbook lr * m_hat / (sqrt(v_hat) + eps); in float64 it takes one
    division per entry instead of three and rounds differently, by about
    an ulp of theta per step. m and v follow the textbook recurrence.
    """
    if not 0 <= lr < np.inf:  # NaN fails both comparisons
        raise ValueError(f"lr must be finite and >= 0, got {lr!r}")
    ok = np.empty(ADAM_BLOCK, dtype=bool)  # one block's check, not a whole tensor's
    for name, g in grads.items():
        flat = g.ravel(order="K")  # a view in memory order, for C or F arrays
        for lo in range(0, flat.size, ADAM_BLOCK):
            gb = flat[lo:lo + ADAM_BLOCK]
            if not np.isfinite(gb, out=ok[:gb.size]).all():
                raise NumericsError(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    t = state.t
    root_bc2 = np.sqrt(1.0 - ADAM_BETA2 ** t)
    step = lr * root_bc2 / (1.0 - ADAM_BETA1 ** t)
    eps_hat = ADAM_EPS * root_bc2
    tmp, upd = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)  # scratch kept in cache
    for name, theta in tensors.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        # Flat views; an array not in C order gives a copy, so the copies of
        # theta and the moments are written back below.
        flat = [a.reshape(-1) for a in (theta, g, m, v)]
        for lo in range(0, theta.size, ADAM_BLOCK):
            th, gb, mb, vb = (a[lo:lo + ADAM_BLOCK] for a in flat)
            tb, nb = tmp[:th.size], upd[:th.size]
            # Elementwise only, so blocking keeps every bit.
            np.multiply(1.0 - ADAM_BETA1, gb, out=tb)
            mb *= ADAM_BETA1
            mb += tb
            np.multiply(1.0 - ADAM_BETA2, gb, out=tb)
            tb *= gb
            vb *= ADAM_BETA2
            vb += tb
            np.sqrt(vb, out=tb)
            tb += eps_hat
            np.multiply(mb, step, out=nb)
            nb /= tb  # step * m / (sqrt(v) + eps_hat)
            np.subtract(th, nb, out=th)
        for a, f in ((theta, flat[0]), (m, flat[2]), (v, flat[3])):
            if not np.may_share_memory(a, f):
                a[...] = f.reshape(a.shape)


@dataclass
class ScheduleState:
    lr: float = LR_INIT_DEFAULT
    batch_size: int = BATCH_INIT_DEFAULT
    best_loss: float = float("inf")
    epochs_since_improve: int = 0
    grow_cycles: int = 0
    epoch: int = 0  # epochs completed
    perfect_fit: int = 0  # 1 if the last epoch had zero loss and 100% val R@1 both ways


def schedule_update(state: ScheduleState, epoch_loss: float, lr_init: float) -> str:
    """Advance the plateau state machine; returns the action taken.

    Actions: "none", "halve_lr", or "grow_batch_reset_lr" (the rate goes back
    to lr_init). Improvement means dropping below best_loss by IMPROVE_TOL,
    relative.
    """
    if np.isinf(state.best_loss):
        improved = True
    else:
        improved = epoch_loss < state.best_loss - IMPROVE_TOL * abs(state.best_loss)
    if improved:
        state.best_loss = epoch_loss
        state.epochs_since_improve = 0
        return "none"
    state.epochs_since_improve += 1
    if state.epochs_since_improve < PATIENCE:
        return "none"
    state.epochs_since_improve = 0
    if state.lr / 2.0 >= LR_FLOOR:
        state.lr /= 2.0
        return "halve_lr"
    state.batch_size *= 2
    state.lr = lr_init
    state.grow_cycles += 1
    return "grow_batch_reset_lr"


def _stop_reason(state: ScheduleState, max_epochs: int) -> str | None:
    """Why a run in this state takes no further epoch, or None if it goes on.
    A fresh run always takes its first epoch."""
    if state.perfect_fit:
        return "perfect_fit"
    if state.epoch > 0 and state.grow_cycles >= MAX_GROW_CYCLES:
        return "max_grow_cycles"
    if state.epoch >= max_epochs:
        return "max_epochs"
    return None


@dataclass
class TrainConfig:
    dims: ModelDims
    loss: LossConfig
    seq_len: int = DEFAULT_SEQ_LEN
    seed: int = 0
    lr_init: float = LR_INIT_DEFAULT
    batch_size: int = BATCH_INIT_DEFAULT
    max_epochs: int = 500

    def __post_init__(self):
        # NaN fails both comparisons, as in adam_step
        if not 0 <= self.lr_init < np.inf:
            raise ValueError(f"lr_init must be finite and >= 0, got {self.lr_init!r}")
        check_int_fields(self, {"seed": 0, "batch_size": 2, "max_epochs": 1, "seq_len": 1})


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
                adam: AdamState, lr: float) -> float:
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
    adam_step(params.tensors, grads, adam, lr)
    return float(loss_t.data)


def train(data: TrainingData, params: ModelParams, cfg: TrainConfig,
          log_path=None) -> TrainResult:
    """Run the full schedule; returns trained parameters and the epoch log."""
    schedule = ScheduleState(lr=cfg.lr_init, batch_size=cfg.batch_size)
    return _train_from_state(data, params, AdamState.zeros_like(params.tensors),
                             schedule, cfg, log_path)


def checkpoint_tensors(params: ModelParams, adam: AdamState,
                       schedule: ScheduleState) -> dict[str, np.ndarray]:
    tensors = dict(params.tensors)
    for name in params.tensors:
        tensors[f"adam.m.{name}"] = adam.m[name]
        tensors[f"adam.v.{name}"] = adam.v[name]
    tensors["adam.t"] = np.array([float(adam.t)])
    for f in fields(ScheduleState):
        tensors[f"schedule.{f.name}"] = np.array([float(getattr(schedule, f.name))])
    return tensors


def save_training_checkpoint(path, params: ModelParams, adam: AdamState,
                             schedule: ScheduleState) -> None:
    save_checkpoint(path, checkpoint_tensors(params, adam, schedule))


def restore_training_state(tensors: dict[str, np.ndarray], cfg: TrainConfig,
                           ) -> tuple[ModelParams, AdamState, ScheduleState]:
    """Rebuild (params, adam, schedule) from checkpoint tensors, validating
    every one.

    The moments are copied, because `adam_step` updates them in place.
    """
    def read(key, shape):
        if key not in tensors:
            raise DataFormatError(f"checkpoint missing tensor {key!r}")
        if tensors[key].shape != shape:
            raise DataFormatError(
                f"checkpoint tensor {key!r} has shape {tensors[key].shape}, "
                f"config wants {shape}"
            )
        return tensors[key]

    def scalar(key, count: bool):
        x = float(read(key, (1,))[0])
        if count and not (0 <= x < 2**53 and x.is_integer()):  # NaN fails
            raise DataFormatError(
                f"checkpoint tensor {key!r} holds {x!r}, not an integer in [0, 2**53)")
        return int(x) if count else x

    expected = param_shapes(cfg.dims)
    params = ModelParams(cfg.dims, {n: read(n, s) for n, s in expected.items()})
    m, v = ({n: np.array(read(f"adam.{k}.{n}", s), dtype=np.float64)
             for n, s in expected.items()} for k in "mv")
    for k, moments, want in (("m", m, "finite"), ("v", v, "finite and >= 0")):
        for n, a in moments.items():
            if not (np.isfinite(a).all() and (k == "m" or (a >= 0).all())):
                raise DataFormatError(f"checkpoint tensor 'adam.{k}.{n}' holds an "
                                      f"entry that is not {want}")
    schedule = ScheduleState(**{
        f.name: scalar(f"schedule.{f.name}", isinstance(f.default, int))
        for f in fields(ScheduleState)})
    if not 0 <= schedule.lr < np.inf:
        raise DataFormatError(f"checkpoint tensor 'schedule.lr' holds {schedule.lr!r}, "
                              f"not a finite rate >= 0")
    if not schedule.best_loss >= 0:  # a sum of hinges; NaN fails too
        raise DataFormatError(f"checkpoint tensor 'schedule.best_loss' holds "
                              f"{schedule.best_loss!r}, not a loss >= 0")
    if schedule.perfect_fit > 1:
        raise DataFormatError(f"checkpoint tensor 'schedule.perfect_fit' holds "
                              f"{schedule.perfect_fit}, not 0 or 1")
    return params, AdamState(m, v, t=scalar("adam.t", True)), schedule


def resume_train(data: TrainingData, tensors: dict[str, np.ndarray], cfg: TrainConfig,
                 log_path=None) -> TrainResult:
    """Continue a run from checkpoint tensors, as `load_checkpoint` returns
    them; the run goes on from the epoch after the last completed one."""
    params, adam, schedule = restore_training_state(tensors, cfg)
    return _train_from_state(data, params, adam, schedule, cfg, log_path)


def _train_from_state(data: TrainingData, params: ModelParams, adam: AdamState,
                      schedule: ScheduleState, cfg: TrainConfig,
                      log_path) -> TrainResult:
    if schedule.batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {schedule.batch_size}")
    # One feature row per record; a batch gathers its rows through owner.
    token_ids, owner, feats = record_rows(data.records, data.features, data.vocab,
                                          cfg.seq_len)
    n_pairs = len(token_ids)
    if n_pairs < 2:
        raise ValueError("need at least 2 training pairs to form negatives")
    if not data.val_records:
        raise ValueError("val_records is empty: nothing to evaluate after each epoch")
    check_feature_refs(data.val_records, data.features)  # before an epoch, not after
    # adam_step updates this copy in place; the caller's parameters stay as they were
    params = ModelParams(params.dims, {n: a.copy() for n, a in params.tensors.items()})

    log: list[dict] = []
    sink = open(log_path, "a", encoding="utf-8") if log_path else None
    try:
        while (stop_reason := _stop_reason(schedule, cfg.max_epochs)) is None:
            epoch = schedule.epoch + 1
            t0 = time.perf_counter()
            order = np.random.default_rng([cfg.seed, 1, epoch]).permutation(n_pairs)
            loss_sum = 0.0
            pairs_seen = 0
            for lo in range(0, n_pairs, schedule.batch_size):
                batch = order[lo : lo + schedule.batch_size]
                if len(batch) < 2:
                    continue  # a tail of one has no negatives
                loss_sum += _batch_step(
                    token_ids[batch], feats[owner[batch]], params, cfg, adam,
                    schedule.lr)
                pairs_seen += len(batch)
            epoch_loss = loss_sum / pairs_seen

            reports = evaluate_records(data.val_records, data.features, data.vocab,
                                       params, cfg.seq_len, protocol="full_5k")
            lr_logged, batch_logged = schedule.lr, schedule.batch_size
            schedule_update(schedule, epoch_loss, cfg.lr_init)
            schedule.epoch = epoch
            entry = {
                "epoch": epoch,
                "loss": epoch_loss,
                "lr": lr_logged,
                "batch_size": batch_logged,
                "val_r1_sent": reports["sentence_retrieval"].overall.r_at[1],
                "val_r1_img": reports["image_retrieval"].overall.r_at[1],
                "wall_ms": int((time.perf_counter() - t0) * 1000),
            }
            schedule.perfect_fit = int(epoch_loss == 0.0 and entry["val_r1_sent"] == 100.0
                                       and entry["val_r1_img"] == 100.0)
            log.append(entry)
            if sink:
                sink.write(json.dumps(entry) + "\n")
                sink.flush()
    finally:
        if sink:
            sink.close()
    return TrainResult(params, log, adam, schedule, stop_reason)
