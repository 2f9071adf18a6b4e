"""Spans and counters recorded from outside xmodal, for the traced run.

Nothing under src/ knows about tracing. While a Tracer is installed it
replaces public functions at the module attribute where their callers look
them up (for example `xmodal.training.batch_loss`, which `_batch_step`
calls), and the backward entries of `xmodal.autodiff.OP_TABLE`. `remove()`
puts every original back.

A span is (phase, name, start, end, parent). The phase is set by the
benchmark ("setup", "train", "eval", ...) and groups the spans of one
repetition, like a request id. A span's self time is its duration minus
the time its direct children cover.

Backward time is attributed per node: each forward wrapper records the
range of tape node ids its call appended, under the layer that made them
(text, image, loss), and each VJP call is timed and charged to the layer
that recorded its node and to the node's op kind. Backward time not spent
inside a VJP (the loop, gradient accumulation, the zero fill for
unreachable nodes) is reported as `accum`.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import xmodal.autodiff as ad
import xmodal.evaluation as ev
import xmodal.training as tr
from xmodal.autodiff import Tensor

from .oracles import penalty_matrix

LAYERS = ("other", "text", "image", "loss")  # index 0: leaves and unattributed
# Op kinds reported one by one; any other kind (a future fused op, say) is "other".
OP_KINDS = ("matmul", "add", "elementwise_mul", "sigmoid", "tanh",
            "relu_zero_floor", "abs", "square", "sum", "gather_rows", "slice_row")


@dataclass
class Span:
    phase: str
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


def _tape_of(*objs) -> ad.Tape | None:
    """The tape of the first tracked tensor among objs (or dict values)."""
    for obj in objs:
        items = obj.values() if isinstance(obj, dict) else (obj,)
        for item in items:
            if isinstance(item, Tensor) and item.tape is not None:
                return item.tape
    return None


class Tracer:
    """In-memory span recorder that patches xmodal while installed."""

    def __init__(self):
        self.phase = "setup"
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.bw_time: dict[tuple[int, str], float] = defaultdict(float)
        self.bw_nodes: dict[tuple[int, str], int] = defaultdict(int)
        self._ranges: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        self._layer_of = np.zeros(0, dtype=np.int8)

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(self.phase, name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span nesting broken: closed {idx}, open {popped}")

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def count(self, name: str, value: float) -> None:
        self.counts[(self.phase, name)] += value

    # -- patching ------------------------------------------------------

    def _patch(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr)  # AttributeError if xmodal moved it
        self._patched.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def _spanned(self, name: str, layer: int = 0, after=None):
        """Wrapper factory: a span, the tape nodes appended, an optional hook."""
        def make(fn):
            def wrapper(*args, **kwargs):
                tape = _tape_of(*args) if layer else None
                n0 = len(tape.nodes) if tape is not None else 0
                idx = self.begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.end(idx)
                if tape is not None:
                    n1 = len(tape.nodes)
                    self._ranges[id(tape)].append((n0, n1, layer))
                    self.count(name + ".nodes", n1 - n0)
                if after is not None:
                    after(args, out)
                return out
            return wrapper
        return make

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        text, image, loss = (LAYERS.index(n) for n in ("text", "image", "loss"))
        # Training: the functions _batch_step and train look up in xmodal.training.
        self._patch(tr, "prepare_pairs", self._spanned("training.prepare_pairs"))
        self._patch(tr, "encode_text_batch",
                    self._spanned("model.text_fwd", text, self._after_text))
        self._patch(tr, "encode_image_batch", self._spanned("model.image_fwd", image))
        self._patch(tr, "batch_loss", self._spanned("loss.fwd", loss, self._after_loss))
        self._patch(tr, "adam_step", self._spanned("training.adam"))
        self._patch(tr, "evaluate_records", self._spanned("training.epoch_eval"))
        self._patch(ad, "backward", self._wrap_backward)
        # Evaluation: what evaluate_records and encode_corpus look up.
        self._patch(ev, "encode_corpus", self._spanned("evaluation.encode"))
        self._patch(ev, "encode_text_batch", self._spanned("model.text_encode"))
        self._patch(ev, "encode_image_batch", self._spanned("model.image_encode"))
        self._patch(ev, "retrieval_ranks", self._spanned("evaluation.rank"))
        self._patch(ev, "pairwise_order_penalty",
                    self._spanned("evaluation.penalty", after=self._after_penalty))
        for kind, entry in list(ad.OP_TABLE.items()):
            self._patched.append((ad.OP_TABLE, kind, entry))
            arity, check, fw, bw = entry
            ad.OP_TABLE[kind] = (arity, check, fw, self._timed_vjp(kind, bw))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if owner is ad.OP_TABLE:
                ad.OP_TABLE[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- hooks ---------------------------------------------------------

    def _after_text(self, args, out) -> None:
        token_ids, p = args[0], args[1]
        b, seq_len = np.asarray(token_ids).shape
        e = p["embedding"].shape[1]
        h = out.shape[1]
        # LSTM matmul FLOPs from the shapes: 4 gates, input and recurrent.
        self.count("model.text_fwd.flops", seq_len * 2.0 * b * (e + h) * 4 * h)

    def _after_loss(self, args, out) -> None:
        v_txt, v_img, cfg = args[0], args[1], args[2]
        pen = penalty_matrix(v_txt.data, v_img.data)
        diag = np.diag(pen)
        off = ~np.eye(len(diag), dtype=bool)
        # Hinges as batch_loss forms them: caption-side (column) and image-side (row).
        active = ((cfg.alpha - pen + diag[None, :] > 0) & off).sum()
        active += ((cfg.alpha - pen + diag[:, None] > 0) & off).sum()
        self.count("loss.hinges_active", float(active))
        self.count("loss.hinges_attempted", 2.0 * off.sum())

    def _after_penalty(self, args, out) -> None:
        n, j = np.asarray(args[0]).shape
        m = np.asarray(args[1]).shape[0]
        # subtract, square and accumulate per element; the max is not counted
        self.count("evaluation.penalty.flops", 3.0 * n * m * j)

    def _wrap_backward(self, backward):
        def wrapper(tape, loss):
            layer_of = np.zeros(len(tape.nodes), dtype=np.int8)
            for n0, n1, layer in self._ranges.pop(id(tape), ()):
                layer_of[n0:n1] = layer
            for node in tape.nodes[: loss.node_id + 1]:
                if node.kind != "leaf":
                    self.bw_nodes[(int(layer_of[node.output.node_id]),
                                   node.kind)] += 1
            self._layer_of = layer_of
            idx = self.begin("autodiff.backward")
            try:
                return backward(tape, loss)
            finally:
                self.end(idx)
                self._layer_of = np.zeros(0, dtype=np.int8)
        return wrapper

    def _timed_vjp(self, kind: str, vjp):
        def timed(node, g):
            t0 = time.perf_counter()
            out = vjp(node, g)
            self.bw_time[(int(self._layer_of[node.output.node_id]), kind)] += (
                time.perf_counter() - t0)
            return out
        return timed

    # -- summaries -----------------------------------------------------

    def durations(self, phase: str, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.phase == phase and s.name == name]

    def _self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def self_times(self, phase: str, name: str) -> list[float]:
        own = self._self_times()
        return [own[i] for i, s in enumerate(self.spans)
                if s.phase == phase and s.name == name]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per (phase, span name): count, total and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, self._self_times()):
            row = out.setdefault(f"{s.phase}/{s.name}",
                                 {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s.duration
            row["self_s"] += own
        return out
