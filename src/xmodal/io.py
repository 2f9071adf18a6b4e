"""File formats: word vectors, image feature tables, datasets, checkpoints.

All binary layouts are little-endian and fixed, so files are portable and
round-trips are bit-exact:

  feature file   magic "IMFT", u32 version=1, u32 count, u32 dim, then per
                 record u16 id length, id bytes (utf-8), dim x f32 values.
  checkpoint     u32 version=2, u32 tensor count, then per tensor u16 name
                 length, name bytes (utf-8), u8 rank, u32 extents, f64
                 values. Nothing follows the last tensor: a checkpoint is
                 named float64 tensors only, and training decides what
                 they hold.

Feature vectors are held as float32, the storage dtype, so that a table
written and read back compares bit-equal.

record_rows is the one path from records to model inputs, for training and
evaluation alike: caption token rows, each caption's owning record, and
each record's feature row.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .model import INIT_SCALE
from .text import Vocabulary, encode, normalize

FEATURE_MAGIC = b"IMFT"
FEATURE_VERSION = 1
CHECKPOINT_VERSION = 2


class DataFormatError(ValueError):
    """Malformed input file."""


class FeatureTable:
    """Image id -> feature vector (float32, fixed dim, all finite)."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("feature dim must be >= 1")
        self.dim = int(dim)
        self.entries: dict[str, np.ndarray] = {}

    def add(self, image_id: str, vector) -> None:
        vec = np.asarray(vector, dtype=np.float32)
        if vec.shape != (self.dim,):
            raise DataFormatError(
                f"feature for {image_id!r} has shape {vec.shape}, want ({self.dim},)"
            )
        if not np.isfinite(vec).all():
            raise DataFormatError(f"feature for {image_id!r} has non-finite values")
        if image_id in self.entries:
            raise DataFormatError(f"duplicate image id {image_id!r}")
        self.entries[image_id] = vec

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self.entries

    def ids(self) -> list[str]:
        return list(self.entries)

    def matrix(self, image_ids) -> np.ndarray:
        """Stack features for the given ids as float64 rows."""
        rows = [self.entries[i] for i in image_ids]
        return np.array(rows, dtype=np.float64).reshape(len(rows), self.dim)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureTable) or self.dim != other.dim:
            return NotImplemented if not isinstance(other, FeatureTable) else False
        return list(self.entries) == list(other.entries) and all(
            np.array_equal(self.entries[k], other.entries[k]) for k in self.entries
        )


class _Reader:
    """Bounds-checked sequential reads over the bytes of a binary file."""

    def __init__(self, path):
        with open(path, "rb") as f:
            self.blob = f.read()
        self.path = path
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.blob):
            raise DataFormatError(f"{self.path}: truncated {what} at offset {self.off}")
        self.off += n
        return self.blob[self.off - n : self.off]

    def text(self, n: int, what: str) -> str:
        off = self.off
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError:
            raise DataFormatError(
                f"{self.path}: {what} is not valid utf-8 at offset {off}") from None

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def left(self) -> int:
        return len(self.blob) - self.off


def write_feature_file(table: FeatureTable, path) -> None:
    """Write `table` to `path`. Every id is encoded and checked before `path`
    is opened, so an id that does not fit leaves the old file as it was."""
    ids = [image_id.encode("utf-8") for image_id in table.entries]
    for image_id, idb in zip(table.entries, ids):
        if len(idb) > 0xFFFF:
            raise DataFormatError(f"image id too long: {image_id[:32]!r}...")
    with open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<III", FEATURE_VERSION, len(table), table.dim))
        for idb, vec in zip(ids, table.entries.values()):
            f.write(struct.pack("<H", len(idb)))
            f.write(idb)
            f.write(vec.astype("<f4").tobytes())


def read_feature_file(path) -> FeatureTable:
    r = _Reader(path)
    if r.take(4, "magic") != FEATURE_MAGIC:
        raise DataFormatError(f"{path}: bad magic, not a feature file")
    version, count, dim = r.unpack("<III", "header")
    if version != FEATURE_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    if dim < 1:
        raise DataFormatError(f"{path}: invalid dim {dim}")
    table = FeatureTable(dim)
    for _ in range(count):
        (id_len,) = r.unpack("<H", "id length")
        image_id = r.text(id_len, "id")
        vec = np.frombuffer(r.take(4 * dim, f"record {image_id!r}"), dtype="<f4")
        table.add(image_id, vec)
    if r.left():
        raise DataFormatError(f"{path}: {r.left()} trailing bytes after {count} records")
    return table


@dataclass
class DatasetRecord:
    id: str
    feature_ref: str
    captions: list[str]


def load_dataset(path, features: FeatureTable | None = None) -> list[DatasetRecord]:
    """Read JSONL records; feature_refs are validated when a table is given."""
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataFormatError(f"{path}:{lineno}: invalid json: {e}") from None
            if not isinstance(obj, dict):
                raise DataFormatError(f"{path}:{lineno}: expected a json object")
            for field in ("id", "feature_ref", "captions"):
                if field not in obj:
                    raise DataFormatError(f"{path}:{lineno}: missing field {field!r}")
            for field in ("id", "feature_ref"):
                if not isinstance(obj[field], str):
                    raise DataFormatError(f"{path}:{lineno}: {field} must be a string")
            if not isinstance(obj["captions"], list) or not obj["captions"]:
                raise DataFormatError(f"{path}:{lineno}: captions must be non-empty")
            if not all(isinstance(c, str) for c in obj["captions"]):
                raise DataFormatError(f"{path}:{lineno}: captions must be strings")
            if features is not None and obj["feature_ref"] not in features:
                raise DataFormatError(
                    f"{path}:{lineno}: record {obj['id']!r} references unknown "
                    f"feature {obj['feature_ref']!r}"
                )
            records.append(DatasetRecord(obj["id"], obj["feature_ref"], list(obj["captions"])))
    return records


def check_feature_refs(records, features: FeatureTable) -> None:
    """Raise DataFormatError naming the first record whose feature_ref is
    missing from `features`."""
    for rec in records:
        if rec.feature_ref not in features:
            raise DataFormatError(
                f"record {rec.id!r} references unknown feature {rec.feature_ref!r}")


def record_rows(records, features: FeatureTable, vocab: Vocabulary, seq_len: int,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Model inputs for `records`: (token_ids (N, L) int64, cap_owner (N,)
    int64, feats (len(records), f) float64).

    There is one token row per caption. cap_owner maps a token row to its
    record's index, which is also its row of feats. A feature_ref missing
    from `features` raises DataFormatError naming the record.
    """
    check_feature_refs(records, features)
    token_lists, owner = [], []
    for i, rec in enumerate(records):
        token_lists += [normalize(cap) for cap in rec.captions]
        owner += [i] * len(rec.captions)
    return (encode(token_lists, vocab, seq_len), np.asarray(owner, dtype=np.int64),
            features.matrix([rec.feature_ref for rec in records]))


def save_dataset(records: list[DatasetRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(
                {"id": r.id, "feature_ref": r.feature_ref, "captions": r.captions}
            ) + "\n")


def load_word_vectors(path, vocab: Vocabulary,
                      rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Build a (d+1, dim) embedding matrix from a text word-vector file.

    Row 0 (padding) is zeros; vocabulary tokens found in the file get their
    vector verbatim, the rest draw uniform [-INIT_SCALE, INIT_SCALE] (as a
    random embedding does) from `rng` in index order. Returns (matrix,
    matched/d coverage).
    """
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                raise DataFormatError(f"{path}:{lineno}: expected `token v1 ... vdim`")
            token = parts[0]
            if dim is None:
                dim = len(parts) - 1
            elif len(parts) - 1 != dim:
                raise DataFormatError(
                    f"{path}:{lineno}: dim {len(parts) - 1} differs from first line ({dim})"
                )
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: unparseable float") from None
            if not np.isfinite(vec).all():
                raise DataFormatError(f"{path}:{lineno}: non-finite value for {token!r}")
            if token in vocab:
                vectors[token] = vec
    if dim is None:
        raise DataFormatError(f"{path}: empty word-vector file")

    d = vocab.size
    matrix = np.zeros((d + 1, dim), dtype=np.float64)
    matched = 0
    for token in vocab.tokens_by_index():
        idx = vocab[token]
        vec = vectors.get(token)
        if vec is not None:
            matrix[idx] = vec
            matched += 1
        else:
            matrix[idx] = rng.uniform(-INIT_SCALE, INIT_SCALE, dim)
    coverage = matched / d if d else 1.0
    return matrix, coverage


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Write `tensors` as float64 via a temporary file that replaces `path`,
    so an error leaves it as it was."""
    for name, arr in tensors.items():
        if len(name.encode("utf-8")) > 0xFFFF:
            raise ValueError(f"checkpoint tensor name too long: {name[:32]!r}...")
        # Extents are u32; the u8 rank needs no check, as numpy caps it at 64.
        if max(np.shape(arr), default=0) >= 1 << 32:
            raise ValueError(f"checkpoint tensor {name!r} has shape {np.shape(arr)}, "
                             f"an extent over u32")
    fd, tmp = tempfile.mkstemp(prefix=".ckpt-", dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(struct.pack("<II", CHECKPOINT_VERSION, len(tensors)))
            for name, arr in tensors.items():
                a = np.asarray(arr, dtype=np.float64)
                nameb = name.encode("utf-8")
                f.write(struct.pack("<H", len(nameb)))
                f.write(nameb)
                f.write(struct.pack("<B", a.ndim))
                f.write(struct.pack(f"<{a.ndim}I", *a.shape))
                f.write(a.astype("<f8").tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read the named float64 tensors of a checkpoint, in file order."""
    r = _Reader(path)
    version, count = r.unpack("<II", "header")
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H", "tensor name length")
        name = r.text(name_len, "tensor name")
        (rank,) = r.unpack("<B", f"rank of {name!r}")
        shape = r.unpack(f"<{rank}I", f"extents of {name!r}")
        n = math.prod(shape)  # np.prod would wrap in int64
        data = np.frombuffer(r.take(8 * n, f"data of {name!r}"), dtype="<f8")
        if name in tensors:
            raise DataFormatError(f"{path}: duplicate tensor {name!r}")
        tensors[name] = data.reshape(shape).copy()
    if r.left():
        raise DataFormatError(f"{path}: {r.left()} trailing bytes")
    return tensors
