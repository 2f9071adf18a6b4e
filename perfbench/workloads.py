"""The three workloads and the phases every run goes through.

A run, in one fresh process:

1. writes the corpus for (workload, seed) with `corpus.write_corpus`;
2. set-up: `read_feature_file`, `load_dataset`, `normalize` on every
   caption, `build_vocab`, `ModelParams.init`, timed several times;
3. warm-up: two `train` epochs on the first few records, and one
   `encode_corpus` of the eval set (the rank oracle ranks those embeddings
   after the first eval rep);
4. the measured phases, a `train` phase and an `evaluate_records` phase,
   each repeated from the same set-up parameters until its share of
   --seconds is spent; the workload's primary phase gets most of it;
5. the correctness checks, outside any timed region.

run.py decides the order of these steps.

Every workload runs both phases, so every metric exists on every workload;
the workload's shapes decide which layer dominates. See README.md for why
each workload exists and what it should and should not move. The
workloads' names and reasons are in BENCHMARK.json.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from xmodal.evaluation import encode_corpus, evaluate_records
from xmodal.io import load_dataset, read_feature_file
from xmodal.loss import LossConfig, batch_loss
from xmodal.model import ModelDims, ModelParams, encode_image_batch, encode_text_batch
from xmodal.text import build_vocab, normalize
from xmodal.training import NumericsError, TrainConfig, TrainingData, prepare_pairs, train

from . import oracles
from .corpus import CorpusSpec, write_corpus

VAL_RECORDS = 4       # validation set train() evaluates after each epoch
ALPHA = 0.05
PRIMARY_SHARE = 0.75  # share of --seconds given to the workload's primary phase
SETUP_BLOCK = 3       # set-ups per block; run.py spreads four blocks over a run


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSpec
    embed_dim: int        # e
    joint_dim: int        # h = j
    seq_len: int          # L
    batch_size: int       # B
    train_records: int    # records 0..train_records train (5 pairs each)
    warmup_records: int   # records the warm-up epoch trains on
    eval_start: int       # records eval_start..eval_start+eval_records are evaluated
    eval_records: int
    eval_protocol: str
    primary: str          # "train" or "eval"

    @property
    def val_slice(self) -> slice:
        return slice(self.train_records, self.train_records + VAL_RECORDS)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-paper-step",
        corpus=CorpusSpec(n_images=1000, captions_per_image=5, feature_dim=4096),
        embed_dim=300, joint_dim=1024, seq_len=70, batch_size=16,
        train_records=20, warmup_records=3, eval_start=24, eval_records=20,
        eval_protocol="full_5k", primary="train"),
    Workload(
        name="train-wide-batch",
        corpus=CorpusSpec(n_images=1000, captions_per_image=5, feature_dim=1024),
        embed_dim=64, joint_dim=256, seq_len=8, batch_size=128,
        train_records=204, warmup_records=204, eval_start=208, eval_records=100,
        eval_protocol="full_5k", primary="train"),
    Workload(
        name="eval-1k-fold",
        corpus=CorpusSpec(n_images=1000, captions_per_image=5, feature_dim=1024),
        embed_dim=128, joint_dim=256, seq_len=32, batch_size=16,
        train_records=12, warmup_records=12, eval_start=0, eval_records=1000,
        eval_protocol="folds_1k", primary="eval"),
)}


@dataclass
class SetupResult:
    records: list
    features: object
    vocab: object
    params: ModelParams
    feature_bytes: int


def _span(tracer, name, fn, *args):
    return fn(*args) if tracer is None else tracer.call(name, fn, *args)


def setup(files, w: Workload, seed: int, tracer=None) -> SetupResult:
    """The timed set-up: read both files, build the vocabulary, init the model."""
    features = _span(tracer, "io.read_features", read_feature_file, files.features)
    records = _span(tracer, "io.load_dataset", load_dataset, files.dataset, features)
    tokens = _span(tracer, "text.normalize",
                   lambda: [normalize(c) for r in records for c in r.captions])
    vocab = _span(tracer, "text.build_vocab", build_vocab, tokens)
    dims = ModelDims(vocab.size, w.embed_dim, w.joint_dim, w.corpus.feature_dim)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    params = _span(tracer, "model.init", ModelParams.init, dims, rng)
    if tracer is not None:
        tracer.count("text.captions", len(tokens))
    return SetupResult(records, features, vocab, params, files.features.stat().st_size)


def train_config(w: Workload, dims: ModelDims) -> TrainConfig:
    return TrainConfig(dims, LossConfig(alpha=ALPHA), seq_len=w.seq_len,
                       batch_size=w.batch_size, max_epochs=1, seed=0)


def steps_per_epoch(n_pairs: int, batch_size: int) -> int:
    """Batches train() runs in one epoch (a tail of one pair is skipped)."""
    full, tail = divmod(n_pairs, batch_size)
    return full + (1 if tail >= 2 else 0)


class WorkloadRun:
    """One run: the corpus, the set-ups, the measured phases and the checks."""

    def __init__(self, w: Workload, seed: int, workdir):
        self.w = w
        self.seed = seed
        self.files = write_corpus(w.corpus, seed, workdir)
        self.setup_s: list[float] = []
        self.s: SetupResult | None = None
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.times: dict[str, list[float]] = {}
        # Per rep, the garbage collections of generations 0, 1 and 2 it ran.
        self.gc_collections: dict[str, list[list[int]]] = {}
        self.rss_mb_after: dict[str, float] = {}  # ru_maxrss after each stage
        self.oracle_metrics = None
        self.epoch_losses = None   # losses of the first train rep
        self.trained = None        # parameters after the last train rep

    # -- set-up and warm-up --------------------------------------------

    def run_setups(self, n: int, tracer=None) -> None:
        """Time n set-ups; the first one ever made is the one the phases use."""
        phase = tracer.phase if tracer is not None else None
        if tracer is not None:
            tracer.phase = "setup"
        for _ in range(n):
            gc.collect()
            t0 = time.perf_counter()
            s = setup(self.files, self.w, self.seed, tracer)
            self.setup_s.append(time.perf_counter() - t0)
            if self.s is None:
                self._use(s)
        if tracer is not None:
            tracer.phase = phase

    def _use(self, s: SetupResult) -> None:
        w = self.w
        self.s = s
        self.cfg = train_config(w, s.params.dims)
        self.data = TrainingData(s.records[:w.train_records], s.features, s.vocab,
                                 s.records[w.val_slice])
        self.eval_records = s.records[w.eval_start:w.eval_start + w.eval_records]
        self.train_pairs = sum(len(r.captions) for r in self.data.records)
        self.eval_queries = len(self.eval_records) + sum(
            len(r.captions) for r in self.eval_records)

    def warm_up(self) -> None:
        """Two train epochs, and the eval set's embeddings for the rank oracle.

        One warm-up epoch is not enough: the first measured epoch after it
        still runs about a fifth slower than the ones that follow. The
        oracle itself runs after the first eval rep, so that its memory does
        not count towards the peak RSS read after the first primary rep.
        """
        s, w = self.s, self.w
        warm = TrainingData(s.records[:w.warmup_records], s.features, s.vocab,
                            s.records[w.val_slice])
        for _ in range(2):
            gc.collect()
            train(warm, s.params, self.cfg)
        self.record_rss("warm-up train")
        self.oracle_inputs = encode_corpus(
            self.eval_records, s.features, s.vocab, s.params, w.seq_len)
        self.record_rss("warm-up encode")

    # -- measured phases -------------------------------------------------

    def measure(self, phase: str, budget_s: float, key: str | None = None,
                rss_label: str | None = None) -> None:
        """Time reps of `phase` ("train" or "eval") until budget_s is spent.

        The rep times go to self.times[key], by default under the phase name.
        A rep expected to overrun the budget is not started, but at least one
        runs. Garbage is collected before each rep and the outputs are checked
        after it, both outside the timed region, so no rep pays to free the
        tapes an earlier one left behind. With rss_label, ru_maxrss is read
        under that label after the first rep, before its check.
        """
        run_once, check = ((self._train, self._check_train) if phase == "train"
                           else (self._eval, self._check_eval))
        key = key or phase
        all_times = self.times.setdefault(key, [])
        collections = self.gc_collections.setdefault(key, [])
        times: list[float] = []
        while True:
            gc.collect()
            before = [g["collections"] for g in gc.get_stats()]
            t0 = time.perf_counter()
            out = run_once()
            times.append(time.perf_counter() - t0)
            collections.append([g["collections"] - b
                                for g, b in zip(gc.get_stats(), before)])
            if rss_label and len(times) == 1:
                self.record_rss(rss_label)
            check(out)
            if sum(times) + statistics.median(times) > budget_s:
                all_times += times
                return

    def _train(self):
        self.attempted += steps_per_epoch(self.train_pairs, self.w.batch_size)
        try:
            return train(self.data, self.s.params, self.cfg)
        except (NumericsError, MemoryError) as e:
            self.failed += 1
            self.mismatches.append(f"train raised {type(e).__name__}: {e}")
            return None

    def _eval(self):
        self.attempted += 1
        return evaluate_records(self.eval_records, self.s.features, self.s.vocab,
                                self.s.params, self.w.seq_len,
                                protocol=self.w.eval_protocol)

    def record_rss(self, label: str) -> None:
        """The process's peak RSS so far, in MB, under `label`.

        ru_maxrss only grows, so the increase from one label to the next
        shows which stage raised it.
        """
        self.rss_mb_after[label] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    # -- checks ------------------------------------------------------------

    def _check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append(what)

    def _check_train(self, res) -> None:
        """Finite parameters and losses; the same losses on every rep."""
        if res is None:
            return
        self._check(all(np.isfinite(a).all() for a in res.params.tensors.values()),
                    "non-finite parameter after training")
        losses = [e["loss"] for e in res.log]
        self._check(all(np.isfinite(losses)), f"non-finite epoch loss {losses}")
        if self.epoch_losses is None:
            self.epoch_losses = losses
        self._check(losses == self.epoch_losses,
                    f"epoch losses {losses} differ from the first rep's {self.epoch_losses}")
        self.trained = res.params

    def _check_eval(self, reports) -> None:
        """R@K and med r equal the brute-force rank oracle's."""
        if self.oracle_metrics is None:
            v_img, v_txt, owner = self.oracle_inputs
            self.oracle_metrics = oracles.retrieval_metrics(
                v_img, v_txt, owner, self.w.eval_protocol)
        for direction, ref in self.oracle_metrics.items():
            got = reports[direction].overall
            self._check(got.r_at == ref["r_at"] and got.med_r == ref["med_r"],
                        f"{direction}: R@K {got.r_at} med r {got.med_r}, oracle {ref}")

    def check_loss(self) -> None:
        """batch_loss on a held batch against the numpy hinge oracle."""
        if self.trained is None:
            return
        w = self.w
        ids, feats = prepare_pairs(self.data.records, self.s.features, self.s.vocab,
                                   w.seq_len)
        p = self.trained.as_tracked(None)
        v_txt = encode_text_batch(ids[:w.batch_size], p)
        v_img = encode_image_batch(feats[:w.batch_size], p)
        got = float(batch_loss(v_txt, v_img, self.cfg.loss).data)
        want = oracles.hinge_loss(v_txt.data, v_img.data, ALPHA)
        self._check(bool(np.isclose(got, want, rtol=1e-9, atol=1e-12)),
                    f"batch_loss {got!r} != oracle {want!r}")
