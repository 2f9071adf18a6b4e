"""The benchmark's own tests: tiny shapes of every workload, generator determinism."""

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import corpus, run, workloads

ROOT = Path(__file__).resolve().parents[2]


def tiny(w: workloads.Workload) -> workloads.Workload:
    """Same record layout, batch size and protocol; tiny everything else."""
    n_images = max(w.train_records + workloads.VAL_RECORDS, w.eval_start + w.eval_records)
    return dataclasses.replace(
        w, corpus=corpus.CorpusSpec(n_images, captions_per_image=2, feature_dim=8),
        embed_dim=4, joint_dim=4, seq_len=min(w.seq_len, 5))


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    spec = corpus.CorpusSpec(n_images=30, captions_per_image=5, feature_dim=16)
    a = corpus.write_corpus(spec, 7, tmp_path / "a")
    b = corpus.write_corpus(spec, 7, tmp_path / "b")
    c = corpus.write_corpus(spec, 8, tmp_path / "c")
    assert a.dataset.read_bytes() == b.dataset.read_bytes()
    assert a.features.read_bytes() == b.features.read_bytes()
    assert a.dataset.read_bytes() != c.dataset.read_bytes()
    assert a.features.read_bytes() != c.features.read_bytes()


def test_generated_features_are_nonnegative_unit_rows():
    spec = corpus.CorpusSpec(n_images=20, captions_per_image=2, feature_dim=32)
    _, table = corpus.build_corpus(spec, 3)
    m = table.matrix(table.ids())
    assert (m >= 0).all()
    assert (m * m).sum(axis=1) == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_clean(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOFLINE_SECONDS", 0.01)
    w = tiny(workloads.WORKLOADS[name])
    result, detail = run.run(w, seed=5, seconds=0.01, trace=trace, workdir=tmp_path)
    assert detail["mismatches"] == []
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3
    assert list(result["metrics"]) == list(run.PER_LAYER if trace else run.END_TO_END)
    for name_, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name_
    if not trace:
        assert all(result["metrics"][n]["value"] > 0 for n in run.END_TO_END)


def test_tracer_restores_what_it_patched():
    import xmodal.autodiff as ad
    import xmodal.loss
    import xmodal.training as tr
    from perfbench.tracing import Tracer

    table = dict(ad.OP_TABLE)
    with Tracer():
        assert tr.batch_loss is not xmodal.loss.batch_loss
        assert ad.OP_TABLE["matmul"] is not table["matmul"]
    assert tr.batch_loss is xmodal.loss.batch_loss
    assert ad.OP_TABLE == table


def test_oracle_mismatch_is_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.oracles, "hinge_loss", lambda *a: -1.0)
    w = tiny(workloads.WORKLOADS["train-paper-step"])
    result, detail = run.run(w, seed=5, seconds=0.01, trace=False, workdir=tmp_path)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "batch_loss" in detail["mismatches"][0]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-1k-fold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
