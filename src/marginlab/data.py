"""Finite labeled datasets on the unit box: synthetic generators and an IDX
(big-endian image/label file) reader."""

from __future__ import annotations

import numbers
import struct
from dataclasses import dataclass, fields

import numpy as np

KINDS = ("gaussian_blobs", "two_moons_3class", "xor_grid", "idx_files")

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxMagicError(ValueError):
    pass


class IdxCountMismatchError(ValueError):
    pass


class IdxTruncationError(ValueError):
    pass


def check_numbers(config) -> None:
    """Reject a dataclass field declared int, float, bool or tuple[int, ...]
    that holds anything else (a bool is no number), and a negative seed; the
    declared default passes."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind = {"float": numbers.Real, "bool": bool}.get(f.type, numbers.Integral)
        items = value if f.type == "tuple[int, ...]" else [value]
        if (f.type in ("int", "float", "bool", "tuple[int, ...]")
                and value is not f.default and not (
                    isinstance(items, (list, tuple)) and all(
                        isinstance(v, kind) and isinstance(v, bool) == (kind is bool)
                        for v in items))):
            raise ValueError(f"{type(config).__name__}.{f.name} must be "
                             f"{f.type}, got {value!r}")
        if f.name == "seed" and value < 0:
            raise ValueError(f"{type(config).__name__}.seed must be >= 0, got {value}")


SPLIT, SHUFFLE, TRAIN, MONITOR, EVAL = range(5)  # what a derived stream draws


def stream(seed, kind, epoch=0, step=0, slot=0) -> np.random.Generator:
    """The random stream of (kind, epoch, step, slot) under seed.  Keys keep
    these four fields, each in [0, 2**32), as other shapes can alias; the
    dataset and init draw from default_rng(seed), whose key is empty."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(kind, epoch, step, slot)))


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    n: int
    class_count: int = 2
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_numbers(self)
        if self.kind not in KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if not 1 <= self.class_count <= self.n:
            raise ValueError(f"need 1 <= class_count <= n (one sample per "
                             f"class), got class_count={self.class_count}, "
                             f"n={self.n}")


@dataclass
class Dataset:
    X: np.ndarray   # [n, d], values in [0, 1]
    y: np.ndarray   # [n] int class labels

    def __len__(self):
        return self.X.shape[0]

    @property
    def dim(self):
        return self.X.shape[1]

    def subset(self, idx):
        return Dataset(self.X[idx], self.y[idx])


def _balanced_labels(n, k):
    # counts differ by at most one across classes
    return np.concatenate([np.full(n // k + (1 if c < n % k else 0), c, dtype=np.intp)
                           for c in range(k)])


def _scale_unit_box(X):
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span[span == 0] = 1.0
    return (X - lo) / span


def generate_dataset(spec: DatasetSpec) -> Dataset:
    """Deterministic synthetic data, min-max scaled into the unit box."""
    rng = np.random.default_rng(spec.seed)
    y = _balanced_labels(spec.n, spec.class_count)
    if spec.kind == "gaussian_blobs":
        angles = 2 * np.pi * np.arange(spec.class_count) / spec.class_count + np.pi / 2
        centers = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        X = centers[y] + spec.noise * rng.standard_normal((spec.n, 2))
        if spec.noise == 0:
            # degenerate case: spread the box scaling over the centers alone
            X = centers[y].copy()
    elif spec.kind == "two_moons_3class":
        t = rng.uniform(0, np.pi, spec.n)
        upper = np.stack([np.cos(t), np.sin(t)], axis=1)
        lower = np.stack([1 - np.cos(t), -np.sin(t) + 0.5], axis=1)
        blob = np.array([0.5, 1.6]) + 0.25 * rng.standard_normal((spec.n, 2))
        X = np.where((y == 0)[:, None], upper,
                     np.where((y == 1)[:, None], lower, blob))
        X = X + spec.noise * rng.standard_normal((spec.n, 2))
    elif spec.kind == "xor_grid":
        corners = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=np.float64)
        quadrant = np.array([2 * yi + (i % 2) for i, yi in enumerate(y)])
        X = corners[quadrant] + spec.noise * rng.standard_normal((spec.n, 2))
    else:
        raise ValueError("idx_files datasets come from load_idx, not a generator")
    X = _scale_unit_box(X)
    perm = rng.permutation(spec.n)
    return Dataset(X[perm], y[perm])


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Read big-endian IDX image/label files; pixels scaled to [0, 1]."""
    with open(images_path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise IdxTruncationError(f"{images_path}: header truncated")
    magic, n, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise IdxMagicError(f"{images_path}: bad magic 0x{magic:08x}")
    if len(raw) != 16 + n * rows * cols:
        raise IdxTruncationError(
            f"{images_path}: expected {16 + n * rows * cols} bytes, got {len(raw)}")
    X = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(n, rows * cols)

    with open(labels_path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise IdxTruncationError(f"{labels_path}: header truncated")
    magic, n_labels = struct.unpack(">II", raw[:8])
    if magic != IDX_LABELS_MAGIC:
        raise IdxMagicError(f"{labels_path}: bad magic 0x{magic:08x}")
    if len(raw) != 8 + n_labels:
        raise IdxTruncationError(
            f"{labels_path}: expected {8 + n_labels} bytes, got {len(raw)}")
    if n_labels != n:
        raise IdxCountMismatchError(
            f"{n} images but {n_labels} labels")
    y = np.frombuffer(raw, dtype=np.uint8, offset=8).astype(np.intp)
    return Dataset(X.astype(np.float64) / 255.0, y)


def train_val_split(data: Dataset, val_fraction: float, seed: int):
    """Deterministic shuffle; the last val_fraction of rows become validation."""
    perm = stream(seed, SPLIT).permutation(len(data))
    cut = len(data) - int(round(len(data) * val_fraction))
    return data.subset(perm[:cut]), data.subset(perm[cut:])
