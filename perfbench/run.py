"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload train-paper-step --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports xmodal from ./src and writes
its corpus to a temporary directory under perfbench/_work that it removes
on exit. Standard output ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (set-up time, training
and evaluation throughput, peak RSS). With --trace 1 they are the per-layer
ones from a traced run, plus the tracing overhead; see README.md. Earlier
lines carry the environment and the raw per-rep figures.

Exits with status 2, printing no result, when ./src/xmodal is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Workload names and metric names and units, in output order.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
ROOFLINE_SECONDS = 0.5


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": np.__version__, "python": platform.python_version(),
        "machine": platform.machine(),
    }


def gemm_gflops(m: int, k: int, n: int) -> float:
    """Median float64 GEMM rate for (m,k)@(k,n) over ROOFLINE_SECONDS."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.random((m, k)), rng.random((k, n))
    a @ b
    rates = []
    start = time.perf_counter()
    while time.perf_counter() - start < ROOFLINE_SECONDS or len(rates) < 3:
        t0 = time.perf_counter()
        a @ b
        rates.append(2.0 * m * k * n / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rate(work_per_rep: int, times: list[float]) -> float:
    """Work per second over all reps: total work over total time."""
    return work_per_rep * len(times) / sum(times)


def layer_metrics(tracer, bench, untraced: list[float],
                  traced: list[float]) -> dict[str, float]:
    """Per-layer figures from the traced phases (per step or per eval call)."""
    from perfbench.tracing import LAYERS, OP_KINDS

    t = tracer
    steps = max(1, len(t.durations("train", "training.adam")))
    evals = max(1, len(t.durations("eval", "evaluation.encode")))

    def per_step(name):
        return sum(t.durations("train", name)) / steps

    def per_eval(name):
        return sum(t.durations("eval", name)) / evals

    text_s = sum(t.durations("train", "model.text_fwd"))
    penalty_s = sum(t.durations("eval", "evaluation.penalty"))
    backward = per_step("autodiff.backward")
    bw_by_layer = {layer: 0.0 for layer in LAYERS}
    bw_by_kind = {kind: 0.0 for kind in OP_KINDS + ("other",)}
    for (layer, kind), sec in t.bw_time.items():
        bw_by_layer[LAYERS[layer]] += sec / steps
        bw_by_kind[kind if kind in OP_KINDS else "other"] += sec / steps
    nodes_by_layer = {layer: 0 for layer in LAYERS}
    nodes_by_kind = {kind: 0 for kind in OP_KINDS + ("other",)}
    for (layer, kind), n in t.bw_nodes.items():
        nodes_by_layer[LAYERS[layer]] += n / steps
        nodes_by_kind[kind if kind in OP_KINDS else "other"] += n / steps

    # A step runs from the text forward to the end of its Adam update.
    starts = [s.start for s in t.spans if s.phase == "train" and s.name == "model.text_fwd"]
    ends = [s.end for s in t.spans if s.phase == "train" and s.name == "training.adam"]
    step_s = sorted(e - s for s, e in zip(starts, ends))
    # Highest percentile with at least ten samples beyond it; the maximum
    # when there are fewer than eleven samples.
    tail_idx = len(step_s) - 11 if len(step_s) >= 11 else len(step_s) - 1

    hinges = t.counts[("train", "loss.hinges_attempted")]
    out = {
        "model.text_fwd_s": text_s / steps,
        "model.text_fwd_nodes": t.counts[("train", "model.text_fwd.nodes")] / steps,
        "model.text_fwd_gflops":
            t.counts[("train", "model.text_fwd.flops")] / max(text_s, 1e-12) / 1e9,
        "model.image_fwd_s": per_step("model.image_fwd"),
        "loss.fwd_s": per_step("loss.fwd"),
        "loss.nodes": t.counts[("train", "loss.fwd.nodes")] / steps,
        "loss.active_hinge_frac":
            t.counts[("train", "loss.hinges_active")] / max(hinges, 1.0),
        "autodiff.backward_s": backward,
        "autodiff.nodes": float(sum(nodes_by_layer.values())),
    }
    for layer in LAYERS[1:]:
        out[f"autodiff.backward_s.{layer}"] = bw_by_layer[layer]
    out["autodiff.backward_s.accum"] = backward - sum(bw_by_layer.values())
    for layer in LAYERS[1:]:
        out[f"autodiff.nodes.{layer}"] = float(nodes_by_layer[layer])
    for kind in OP_KINDS + ("other",):
        out[f"autodiff.backward_s.op.{kind}"] = bw_by_kind[kind]
        out[f"autodiff.nodes.op.{kind}"] = float(nodes_by_kind[kind])
    untraced_s, traced_s = _median(untraced), _median(traced)
    out.update({
        "training.adam_s": per_step("training.adam"),
        "training.step_s.median": _median(step_s),
        "training.step_s.tail": step_s[tail_idx] if step_s else 0.0,
        "training.step_s.tail_pct": 100.0 * (tail_idx + 1) / max(1, len(step_s)),
        "training.step_s.samples": float(len(step_s)),
        "training.prepare_pairs_s": _median(t.durations("train", "training.prepare_pairs")),
        "training.epoch_eval_s": _median(t.durations("train", "training.epoch_eval")),
        "evaluation.encode_s": per_eval("evaluation.encode"),
        "model.text_encode_s": per_eval("model.text_encode"),
        "model.image_encode_s": per_eval("model.image_encode"),
        "evaluation.penalty_s": penalty_s / evals,
        "evaluation.penalty_gflops":
            t.counts[("eval", "evaluation.penalty.flops")] / max(penalty_s, 1e-12) / 1e9,
        "evaluation.rank_s": sum(t.self_times("eval", "evaluation.rank")) / evals,
        "text.normalize_s": _median(t.durations("setup", "text.normalize")),
        "text.captions": t.counts[("setup", "text.captions")] / len(bench.setup_s),
        "text.build_vocab_s": _median(t.durations("setup", "text.build_vocab")),
        "model.init_s": _median(t.durations("setup", "model.init")),
        "io.read_features_s": _median(t.durations("setup", "io.read_features")),
        "io.load_dataset_s": _median(t.durations("setup", "io.load_dataset")),
        "io.feature_bytes": float(bench.s.feature_bytes),
        "roofline.gemm_gflops.square": gemm_gflops(1024, 1024, 1024),
        "roofline.gemm_gflops.recurrent": gemm_gflops(16, 1024, 4096),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s if untraced_s else 0.0,
    })
    return out


def run(w, seed: int, seconds: float, trace: bool, workdir) -> tuple[dict, dict]:
    """Run workload `w`; returns (result line, detail line)."""
    from perfbench.tracing import Tracer
    from perfbench.workloads import PRIMARY_SHARE, SETUP_BLOCK, WorkloadRun

    bench = WorkloadRun(w, seed, workdir)
    secondary = "eval" if w.primary == "train" else "train"
    budget = seconds * PRIMARY_SHARE
    first_primary = f"first {w.primary} rep"
    tracer = Tracer() if trace else None
    # Four blocks of set-ups, spread over the run so that one slow spell of a
    # shared machine does not set their median. The primary phase comes
    # right after the warm-up: what ran before its first rep, and so the peak
    # RSS that rep reaches, must not depend on how many reps fit into a phase.
    bench.run_setups(SETUP_BLOCK, tracer)
    bench.record_rss("set-up")
    bench.warm_up()
    if not trace:
        bench.run_setups(SETUP_BLOCK)
        bench.measure(w.primary, budget, rss_label=first_primary)
        bench.run_setups(SETUP_BLOCK)
        bench.measure(secondary, seconds - budget)
        bench.run_setups(SETUP_BLOCK)
    else:
        bench.measure(w.primary, budget / 2, key="untraced")
        bench.run_setups(SETUP_BLOCK, tracer)
        with tracer:
            tracer.phase = w.primary
            bench.measure(w.primary, budget / 2)
            bench.run_setups(SETUP_BLOCK, tracer)
            tracer.phase = secondary
            bench.measure(secondary, seconds - budget)
            bench.run_setups(SETUP_BLOCK, tracer)
    bench.check_loss()
    bench.record_rss("end")

    times = bench.times
    detail: dict = {"times": times | {"setup": bench.setup_s},
                    "gc_collections": bench.gc_collections,
                    "rss_mb_after": bench.rss_mb_after}
    if trace:
        values = layer_metrics(tracer, bench, times["untraced"], times[w.primary])
        units = PER_LAYER
        detail["spans"] = tracer.summary()
    else:
        values = {
            "setup_s": statistics.median(bench.setup_s),
            "train_pairs_per_s": _rate(bench.train_pairs, times["train"]),
            "eval_queries_per_s": _rate(bench.eval_queries, times["eval"]),
            "peak_rss_mb": bench.rss_mb_after[first_primary],
        }
        units = END_TO_END
    detail["mismatches"] = bench.mismatches
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "xmodal" / "__init__.py").is_file():
        print(f"perfbench: no xmodal sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    work_root = ROOT / "perfbench" / "_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        result, detail = run(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), workdir)
    print(json.dumps({"env": environment(args.workload, args.seed)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
