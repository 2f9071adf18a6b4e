"""Retrieval evaluation: Recall@K and median rank in both directions.

Directions follow the usual convention: "sentence retrieval" queries with
an image against the caption gallery, "image retrieval" queries with a
caption against the image gallery. The folds_1k protocol splits the first
5000 images into folds of 1000 in record order and reports each fold plus
the mean.

A gallery is ordered by penalty ascending (similarity descending), ties by
ascending gallery index. A query with several relevant items scores the best
of them: the one with the lowest penalty `best`, and the lowest index `first`
among equals. Its 1-based rank is

    1 + #(penalty < best) + #(penalty == best and index < first)

over the float64 penalties. `retrieval_ranks` counts this for both
directions without holding the (captions, images) penalty matrix:

- A relevant pass computes each caption's penalty against its own image with
  autodiff's `paired_order_penalty`, whose bits equal the float64 matrix
  entry's. That is the caption's `best`, and its image is its `first`. Each
  image's `best` is the least of its captions' penalties, its `first` the
  lowest caption index holding that value.
- A screened pass forms the matrix one (chunk, images) slab at a time in
  float32: `pairwise_order_penalty` of the chunk's captions and the images,
  both cast to float32. `screen_bound` bounds each float32 entry's distance
  from the float64 one by K P32 + F, with F from the two rows' norms. That
  turns each query's `best` into two float32 thresholds, rounded outward: an
  entry below the lower one is certainly ahead of the query's best relevant
  item, an entry above the upper one certainly is not. Each caption's
  counts run along its slab row, each image's down the slab's columns.
- The pairs between a query's two thresholds, typically well under 1% of
  them, are rechecked: `paired_order_penalty` gives their float64 penalties
  through the relevant pass's loop, and they are counted by the rule above.
- Where more than DENSE of a chunk's pairs fall between thresholds, as in a
  collapsed or heavily tied gallery, nothing of the screen is counted: the
  chunk is counted on its float64 slab with `count_ahead`, the exact pass
  the screen replaced.

So the ranks equal the float64 matrix's. The screen runs when no float32
penalty can overflow (so every float32 entry is finite); otherwise every
chunk takes the float64 pass. A chunk is one round of the order-penalty
thread pool: one block of captions per pool thread, so no core waits on an
odd last block, and a float32 block has as many rows as a float64 one.
Memory is O(chunk x images): a chunk is screened whole or counted whole on
float64, its float32 slab is half its float64 slab, and its boolean masks
are 3/4 of its float32 slab.

encode_corpus takes its token rows, caption owners and image features from
io.record_rows, the path training takes too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# module globals, so wrapping evaluation's names covers every call ranking makes
from .autodiff import (paired_order_penalty, pairwise_order_penalty, penalty_block_rows,
                       penalty_round_rows)
from .model import ModelParams, encode_image_batch, encode_text_batch
from .io import record_rows
from .text import Vocabulary

RECALL_KS = (1, 5, 10)
FOLD_SIZE = 1000


@dataclass
class Metrics:
    r_at: dict[int, float]  # K -> percentage in [0, 100]
    med_r: float
    n_queries: int

    def row(self) -> str:
        return (f"{self.r_at[1]:5.1f} {self.r_at[5]:5.1f} {self.r_at[10]:5.1f} "
                f"{self.med_r:7.1f}")

    def to_json_dict(self) -> dict:
        return {**{f"r{k}": self.r_at[k] for k in RECALL_KS},
                "medr": self.med_r, "n_queries": self.n_queries}


def _ahead(penalty, index, best, first):
    """Whether a gallery item at `index` with `penalty` ranks ahead of the
    relevant item at `first` with `best`: a lower penalty, or an equal one at
    a lower gallery index. Broadcasts like a comparison."""
    return (penalty < best) | ((penalty == best) & (index < first))


def count_ahead(penalties: np.ndarray, best: np.ndarray, first: np.ndarray,
                start: int = 0) -> np.ndarray:
    """Per query row: the gallery items ranked ahead of its best relevant one.

    Row q of `penalties` scores query q against gallery items start,
    start + 1, ...; best[q] and first[q] are the penalty and gallery index
    of its best relevant item. The counts over the parts of a gallery, plus
    one, give the rank stated in the module docstring.
    """
    index = np.arange(start, start + penalties.shape[1])
    return np.sum(_ahead(penalties, index, best[:, None], first[:, None]), axis=1)


def recall_at_k(best_ranks, k: int) -> float:
    ranks = np.asarray(best_ranks)
    if ranks.size == 0:
        raise ValueError("recall_at_k: no outcomes")
    if k < 1:
        raise ValueError("recall_at_k: K must be >= 1")
    return 100.0 * float(np.sum(ranks <= k)) / ranks.size


def median_rank(best_ranks) -> float:
    ranks = np.asarray(best_ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("median_rank: no outcomes")
    return float(np.median(ranks))


def metrics_from_ranks(best_ranks) -> Metrics:
    ranks = np.asarray(best_ranks)
    return Metrics(
        r_at={k: recall_at_k(ranks, k) for k in RECALL_KS},
        med_r=median_rank(ranks),
        n_queries=int(ranks.size),
    )


def _caption_owners(cap_owner, n_caps: int, n_imgs: int) -> np.ndarray:
    """cap_owner as image indices, after checking it names an image per caption
    and a caption per image."""
    owner = np.asarray(cap_owner)
    if owner.shape != (n_caps,):
        raise ValueError(f"cap_owner has shape {owner.shape}; "
                         f"{n_caps} captions need shape ({n_caps},)")
    if owner.dtype.kind not in "iuf":
        raise ValueError(f"cap_owner holds {owner.dtype}, not image indices")
    bad = ~((owner >= 0) & (owner < n_imgs) & (owner == np.floor(owner)))
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"caption row {row}: owner {owner[row]} is not an "
                         f"image index in [0, {n_imgs})")
    owner = owner.astype(np.intp)
    unowned = np.flatnonzero(np.bincount(owner, minlength=n_imgs) == 0)
    if unowned.size:
        raise ValueError(f"{unowned.size} of {n_imgs} queries have no relevant item "
                         f"(image {unowned[0]} owns no caption)")
    return owner


KAPPA = 2.0 ** -22  # splits the cross term of screen_bound's error bound
DENSE = 0.25  # undecided share of a screened chunk above which it is counted on float64


def screen_bound(j: int, norm_sum) -> tuple[float, np.ndarray]:
    """(K, F) with |P32 - P64| <= K P32 + F for the penalty of two rows x, y
    of j float64 entries whose norms add up to at most `norm_sum`.

    P64 is the entry pairwise_order_penalty gives for the float64 rows, P32
    the one it gives for the rows cast to float32, and P the exact real
    ||max(0, y - x)||^2. With u = 2^-24, u64 = 2^-53, gamma_n = n u / (1 - n u)
    in float32 and g64 the same in float64 (Higham 2002, section 3.1), and
    v the float32 vector max(0, fl(fl(y) - fl(x))) whose squares P32 sums
    (the kernel forms it as max(y, x) - x, the same bits on finite rows):

    - Cast and subtraction: each entry of fl(y) - fl(x) carries at most one
      rounding of x, one of y and one of the difference, so v is within
      D = (2u + u^2)(||x|| + ||y||) + j 2^-148 of max(0, y - x) in norm,
      since max(0, .) is 1-Lipschitz; j 2^-148 covers a cast or a
      difference that lands below float32's normal range.
    - Reduction: j products and j - 1 additions in any order, np.vecdot's
      included, give |P32 - ||v||^2| <= gamma_j ||v||^2 + j 2^-148, the
      last term for products that underflow.
    - Cross term: ||v||^2 - P = 2<v, d> - ||d||^2 for d = v - max(0, y - x),
      and 2 |<v, d>| <= KAPPA ||v||^2 + D^2 / KAPPA, so
      |||v||^2 - P| <= KAPPA ||v||^2 + (1 + 1/KAPPA) D^2.
    - float64, the same np.vecdot kernel: rounding the difference gives each
      square a factor (1 + delta)^2 with |delta| <= u64, and a dot product of
      j terms, in any order and with or without fused multiply-adds, one
      within g64(j) of 1, so |P64 - P| <= g64(j + 2) P + j 2^-1072.

    Adding them, with ||v||^2 <= (P32 + j 2^-148) / (1 - gamma_j):
    K = (gamma_j + KAPPA + g64(j + 2)(1 + KAPPA)) / (1 - gamma_j) and
    F = (1 + g64(j + 2))(1 + 1/KAPPA) D^2 + (1 + K) j 2^-148 + j 2^-1072.
    Both are raised by a factor 1 + 2^-30, which covers the float64
    rounding of this arithmetic and of the norms. KAPPA = 2^-22 balances
    KAPPA P against D^2 / KAPPA at penalties and norms near 1. The bound
    assumes no float32 overflow, j u < 1/2 and finite P64.
    """
    u, u64, tiny = 2.0 ** -24, 2.0 ** -53, j * 2.0 ** -148
    g32 = j * u / (1 - j * u)
    g64 = (j + 2) * u64 / (1 - (j + 2) * u64)
    k = (g32 + KAPPA + g64 * (1 + KAPPA)) / (1 - g32)
    d = (2 * u + u * u) * np.asarray(norm_sum, dtype=np.float64) + tiny
    f = (1 + g64) * (1 + 1 / KAPPA) * d * d + (1 + k) * tiny + j * 2.0 ** -1072
    return k * (1 + 2.0 ** -30), f * (1 + 2.0 ** -30)


def _thresholds(best: np.ndarray, k: float, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float32 (lo, hi) per query: P32 < lo proves P64 < best and P32 > hi
    proves P64 > best, by screen_bound. Rounded to float32 and then one
    float32 step outward, which also covers this float64 arithmetic."""
    lo = ((best - f) / (1 + k)).astype(np.float32)
    hi = ((best + f) / (1 - k)).astype(np.float32)
    return (np.nextafter(lo, np.float32(-np.inf)), np.nextafter(hi, np.float32(np.inf)))


def _screens(v_txt: np.ndarray, v_img: np.ndarray) -> bool:
    """Whether screen_bound holds for these rows: no penalty can overflow in
    float32 (so none in float64), and j u stays far below 1/2."""
    j = v_txt.shape[1]
    big = max(max(float(v.max(initial=0.0)), -float(v.min(initial=0.0))) for v in (v_txt, v_img))
    return j <= 1 << 16 and 4.0 * j * big * big <= 2.0 ** 126


class _Ranker:
    """Each query's best relevant item, its screen thresholds and its
    running rank, counted one caption chunk at a time."""

    def __init__(self, v_txt: np.ndarray, v_img: np.ndarray, owner: np.ndarray):
        self.v_txt, self.v_img, self.owner = v_txt, v_img, owner
        n_caps, n_imgs = len(v_txt), len(v_img)
        cap_best = self.paired(np.arange(n_caps), owner)
        img_best = np.full(n_imgs, np.inf)
        np.minimum.at(img_best, owner, cap_best)
        holders = np.flatnonzero(cap_best == img_best[owner])
        img_first = np.full(n_imgs, n_caps)
        np.minimum.at(img_first, owner[holders], holders)
        self.cap_best, self.img_best, self.img_first = cap_best, img_best, img_first
        self.s_ranks = np.ones(n_imgs, dtype=np.int64)
        self.i_ranks = np.ones(n_caps, dtype=np.int64)
        self.screens = _screens(v_txt, v_img)
        if self.screens:
            j = v_txt.shape[1]
            n_txt, n_img = (np.sqrt(np.vecdot(v, v)) for v in (v_txt, v_img))
            k, f_cap = screen_bound(j, n_txt + n_img.max(initial=0.0))
            _, f_img = screen_bound(j, n_img + n_txt.max(initial=0.0))
            self.cap_lo, self.cap_hi = _thresholds(cap_best, k, f_cap)
            self.img_lo, self.img_hi = _thresholds(img_best, k, f_img)
            self.y32 = v_img.astype(np.float32)

    def paired(self, caps: np.ndarray, imgs: np.ndarray) -> np.ndarray:
        """float64 penalties of the pairs (caps[i], imgs[i]), bit-equal to the
        matrix's, formed in pieces of one order_penalty block of gathered rows."""
        out = np.empty(len(caps))
        piece = penalty_block_rows(self.v_txt)
        for lo in range(0, len(caps), piece):
            c, i = caps[lo:lo + piece], imgs[lo:lo + piece]
            out[lo:lo + piece] = paired_order_penalty(self.v_txt[c], self.v_img[i])
        return out

    def count(self, lo: int, hi: int) -> None:
        """Count captions lo..hi, at most one pool round: through the float32
        screen where it decides the chunk, else on their float64 slab."""
        if self.screens and self.count_screened(lo, hi):
            return
        slab = pairwise_order_penalty(self.v_txt[lo:hi], self.v_img)  # (rows, n_imgs)
        self.i_ranks[lo:hi] += count_ahead(slab, self.cap_best[lo:hi], self.owner[lo:hi])
        self.s_ranks += count_ahead(slab.T, self.img_best, self.img_first, lo)

    def count_screened(self, lo: int, hi: int) -> bool:
        """Count captions lo..hi on their float32 slab, rechecking in float64
        the pairs that lie between a threshold pair. Counts nothing and
        returns False if more than DENSE of the chunk's pairs do."""
        p = pairwise_order_penalty(self.v_txt[lo:hi].astype(np.float32), self.y32)
        below, cap_decided, img_decided = np.empty((3, *p.shape), dtype=bool)
        np.less(p, self.cap_lo[lo:hi, None], out=below)
        cap_ahead = np.count_nonzero(below, axis=1)
        np.greater(p, self.cap_hi[lo:hi, None], out=cap_decided)
        cap_decided |= below
        np.less(p, self.img_lo, out=below)
        img_ahead = np.count_nonzero(below, axis=0)
        np.greater(p, self.img_hi, out=img_decided)
        img_decided |= below
        cap_decided &= img_decided
        undecided = np.logical_not(cap_decided, out=cap_decided)  # in either direction
        if np.count_nonzero(undecided) > DENSE * p.size:
            return False
        self.i_ranks[lo:hi] += cap_ahead
        self.s_ranks += img_ahead
        # free the slab and masks before rechecking the undecided pairs in float64
        p32, (caps, imgs) = p[undecided], np.nonzero(undecided)
        del p, below, cap_decided, img_decided, undecided
        caps += lo
        pen = self.paired(caps, imgs)
        cap = _ahead(pen, imgs, self.cap_best[caps], self.owner[caps])
        img = _ahead(pen, caps, self.img_best[imgs], self.img_first[imgs])
        np.add.at(self.i_ranks, caps, cap.astype(np.int64) - (p32 < self.cap_lo[caps]))
        np.add.at(self.s_ranks, imgs, img.astype(np.int64) - (p32 < self.img_lo[imgs]))
        return True


def retrieval_ranks(v_txt: np.ndarray, v_img: np.ndarray,
                    cap_owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best ranks for both directions from embedding matrices, streamed over
    caption chunks as the module docstring describes.

    v_txt: (n_caps, j) caption embeddings; v_img: (n_imgs, j); cap_owner maps
    caption row -> owning image row. Returns (sentence_ranks per image,
    image_ranks per caption). Raises ValueError, before any penalty is
    formed, when an embedding is not finite (naming the side and its first
    such row; the penalty kernel takes finite rows only), when an owner is
    not an image index (naming the first such caption row) or when an image
    owns no caption.
    """
    v_txt = np.asarray(v_txt, dtype=np.float64)
    v_img = np.asarray(v_img, dtype=np.float64)
    for side, v in (("caption", v_txt), ("image", v_img)):
        # every comparison with NaN is false, so NaN rows would rank first
        finite = np.isfinite(v).all(axis=1)
        if not finite.all():
            raise ValueError(f"{side} embedding row {int(np.argmin(finite))} "
                             f"is not finite")
    n_caps = len(v_txt)
    ranker = _Ranker(v_txt, v_img, _caption_owners(cap_owner, n_caps, len(v_img)))
    rows = penalty_round_rows(v_txt)
    for lo in range(0, n_caps, rows):
        ranker.count(lo, min(lo + rows, n_caps))
    return ranker.s_ranks, ranker.i_ranks


def encode_corpus(records, features, vocab: Vocabulary, params: ModelParams,
                  seq_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Embed every image and caption of `records`.

    Returns (v_img (n_imgs, j), v_txt (n_caps, j), cap_owner).
    This is the caller whose tape-free lstm scan can exceed
    autodiff.LSTM_BLOCK captions, so its blocks run on the thread pool with
    OpenBLAS held to one thread; no other thread may call BLAS meanwhile.
    """
    token_ids, cap_owner, feats = record_rows(records, features, vocab, seq_len)
    p = params.as_tracked(None)
    v_img = encode_image_batch(feats, p).data
    v_txt = encode_text_batch(token_ids, p).data
    return v_img, v_txt, cap_owner


@dataclass
class DirectionReport:
    direction: str
    protocol: str
    overall: Metrics
    folds: list[Metrics] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {"direction": self.direction, "protocol": self.protocol,
                **self.overall.to_json_dict(),
                "folds": [m.to_json_dict() for m in self.folds]}


def evaluate_embeddings(v_img, v_txt, cap_owner, protocol: str,
                        ) -> dict[str, DirectionReport]:
    """Metrics for both directions under `protocol` ("full_5k" or "folds_1k").

    folds_1k averages up to 5 folds of 1000 images, taken from the front in
    record order; full_5k is one fold of every image, and lists no folds.
    """
    n_imgs = len(v_img)
    if n_imgs == 0:
        raise ValueError(f"{protocol}: nothing to evaluate, no images or records")
    if protocol == "full_5k":
        fold_ranks = [retrieval_ranks(v_txt, v_img, cap_owner)]
    elif protocol == "folds_1k":
        if n_imgs < FOLD_SIZE:
            raise ValueError(f"folds_1k needs at least {FOLD_SIZE} images, got {n_imgs}")
        cap_owner = np.asarray(cap_owner)
        fold_ranks = []
        for lo in range(0, min(5, n_imgs // FOLD_SIZE) * FOLD_SIZE, FOLD_SIZE):
            caps = (cap_owner >= lo) & (cap_owner < lo + FOLD_SIZE)
            fold_ranks.append(retrieval_ranks(v_txt[caps], v_img[lo:lo + FOLD_SIZE],
                                              cap_owner[caps] - lo))
    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    out = {}
    for d, direction in enumerate(("sentence_retrieval", "image_retrieval")):
        folds = [metrics_from_ranks(ranks[d]) for ranks in fold_ranks]
        mean = Metrics(
            r_at={k: float(np.mean([m.r_at[k] for m in folds])) for k in RECALL_KS},
            med_r=float(np.mean([m.med_r for m in folds])),
            n_queries=sum(m.n_queries for m in folds),
        )
        out[direction] = DirectionReport(direction, protocol, mean,
                                         folds if protocol == "folds_1k" else [])
    return out


def evaluate_records(records, features, vocab, params, seq_len: int,
                     protocol: str = "full_5k") -> dict[str, DirectionReport]:
    v_img, v_txt, cap_owner = encode_corpus(records, features, vocab, params, seq_len)
    return evaluate_embeddings(v_img, v_txt, cap_owner, protocol)


def format_table(reports: dict[str, DirectionReport]) -> str:
    lines = [
        "Task                  R@1   R@5  R@10   Med r",
        "Sentence Retrieval  " + reports["sentence_retrieval"].overall.row(),
        "Image Retrieval     " + reports["image_retrieval"].overall.row(),
    ]
    sr = reports["sentence_retrieval"]
    if sr.folds:
        lines.append(f"(mean of {len(sr.folds)} folds of {FOLD_SIZE} images; "
                     f"fold 0: {sr.folds[0].row()} / "
                     f"{reports['image_retrieval'].folds[0].row()})")
    return "\n".join(lines)


def reports_to_json(reports: dict[str, DirectionReport]) -> str:
    return json.dumps([reports[d].to_json_dict()
                       for d in ("sentence_retrieval", "image_retrieval")])
