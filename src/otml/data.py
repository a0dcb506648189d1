"""Dataset loading and the sampling protocol for the skew experiments.

Three on-disk formats are understood:

* ``csv``: one sample per row, features in columns, optionally a trailing
  integer label column.
* ``rawf64``: a little-endian binary dump. Layout: u64 feature count d,
  u64 sample count N, then d*N float64 values in column-major order (one
  column per sample), then a u8 flag, then N u32 labels when the flag is
  nonzero.
* ``idx``: the big-endian image/label container commonly used for digit
  corpora (magic 0x00000803 for u8 image tensors, 0x00000801 for u8 label
  vectors). Pixels are rescaled to [0, 1]; each image is flattened
  column by column into a feature vector.

Samplers draw class-balanced or deliberately skewed subsets with a
seeded generator; all tie-breaking is by ascending class index so runs
are reproducible.
"""

import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

FORMATS = ("csv", "rawf64", "idx")


@dataclass
class RawDataset:
    """A feature matrix with points as columns, optionally labeled.

    ``indices`` optionally records which columns of the originating
    dataset a sample was drawn from, for provenance and disjointness checks.
    """

    features: np.ndarray
    labels: "np.ndarray | None" = None
    class_count: int = 0
    indices: "np.ndarray | None" = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array (points as columns)")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int).ravel()
            if self.labels.size != self.features.shape[1]:
                raise ValueError(
                    f"{self.labels.size} labels for {self.features.shape[1]} samples"
                )
            if self.labels.size and self.labels.min() < 0:
                raise ValueError("labels must be nonnegative")
            if self.class_count == 0:
                self.class_count = int(self.labels.max()) + 1 if self.labels.size else 0
            elif self.labels.size and self.labels.max() >= self.class_count:
                raise ValueError(
                    f"label {self.labels.max()} out of range for "
                    f"{self.class_count} classes"
                )

    @property
    def size(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SkewSpec:
    """How to bias one class when sampling a labeled subset.

    The skewed class receives ``skew_percent`` percent of the
    ``sample_size`` draws (rounded to nearest); the remainder is split as
    evenly as possible over the other classes, ties broken toward lower
    class indices.
    """

    skew_class: int
    skew_percent: float
    sample_size: int

    def __post_init__(self):
        if self.skew_class < 0:
            raise ValueError("skew_class must be nonnegative")
        if not 0.0 < self.skew_percent < 100.0:
            raise ValueError(
                f"skew_percent must lie in (0, 100), got {self.skew_percent}"
            )
        if self.sample_size < 1:
            raise ValueError("sample_size must be positive")


def _detect_format(path: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        return "csv"
    if ext in (".rawf64", ".raw", ".bin"):
        return "rawf64"
    return "idx"


def _load_csv(path: str, labeled: bool) -> RawDataset:
    with open(path, "r") as fh:
        first = fh.readline()
    skip = 0
    try:
        float(first.split(",")[0])
    except ValueError:
        skip = 1
    with warnings.catch_warnings():
        # A file without data rows is an error that load_matrix reports.
        warnings.simplefilter("ignore", UserWarning)
        table = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    if labeled:
        if table.size and table.shape[1] < 2:
            raise ValueError(f"{path}: labeled csv needs at least 2 columns")
        labels = table[:, -1]
        if not np.all(labels == np.round(labels)):
            raise ValueError(f"{path}: label column is not integral")
        return RawDataset(table[:, :-1].T, labels.astype(int))
    return RawDataset(table.T)


def _read_payload(fh, size: int, what: str) -> bytes:
    # The header's size is checked against the file before anything is
    # read, so a truncated file cannot make the read allocate that size.
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{fh.name}: truncated {what}")
    return fh.read(size)


def _load_rawf64(path: str) -> RawDataset:
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16:
            raise ValueError(f"{path}: truncated rawf64 header")
        d, n = struct.unpack("<QQ", head)
        if d == 0 or n == 0 or d * n > 1 << 32:
            raise ValueError(f"{path}: implausible rawf64 dimensions {d}x{n}")
        body = _read_payload(fh, 8 * d * n, "rawf64 payload")
        feats = np.frombuffer(body, dtype="<f8").reshape(d, n, order="F")
        flag = fh.read(1)
        labels = None
        if flag and flag[0]:
            lab = _read_payload(fh, 4 * n, "rawf64 label block")
            labels = np.frombuffer(lab, dtype="<u4").astype(int)
    return RawDataset(feats.copy(), labels)


def rawf64_bytes(features: np.ndarray, labels: "np.ndarray | None" = None) -> bytes:
    """The rawf64 encoding of a feature matrix (points as columns)."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError("features must be 2-d")
    d, n = features.shape
    body = np.asarray(features, dtype="<f8").tobytes(order="F")
    parts = [struct.pack("<QQ", d, n), body]
    if labels is None:
        parts.append(struct.pack("B", 0))
    else:
        labels = np.asarray(labels).ravel()
        if labels.size != n:
            raise ValueError(f"{labels.size} labels for {n} samples")
        parts += [struct.pack("B", 1), labels.astype("<u4").tobytes()]
    return b"".join(parts)


def write_atomic(path: str, payload: bytes):
    """Write ``payload`` to ``path`` through a temp file and a rename.

    A reader sees the old file or the whole new one, never a partial
    write; on failure the temp file is removed and the old file stays.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_rawf64(path: str, features: np.ndarray, labels: "np.ndarray | None" = None):
    """Serialize a feature matrix (points as columns) to the rawf64 layout."""
    write_atomic(path, rawf64_bytes(features, labels))


def _read_idx_labels(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8:
            raise ValueError(f"{path}: truncated idx label header")
        magic, count = struct.unpack(">II", head)
        if magic != IDX_LABEL_MAGIC:
            raise ValueError(f"{path}: bad idx label magic {magic:#010x}")
        body = _read_payload(fh, count, "idx label payload")
    return np.frombuffer(body, dtype=np.uint8).astype(int)


def _guess_labels_path(images_path: str) -> "str | None":
    for a, b in (("images-idx3", "labels-idx1"), ("images", "labels")):
        cand = images_path.replace(a, b)
        if cand != images_path and os.path.exists(cand):
            return cand
    return None


def _load_idx(path: str, labels_path: "str | None", downsample: int) -> RawDataset:
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16:
            raise ValueError(f"{path}: truncated idx image header")
        magic, count, rows, cols = struct.unpack(">IIII", head)
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError(f"{path}: bad idx image magic {magic:#010x}")
        body = _read_payload(fh, count * rows * cols, "idx image payload")
    imgs = np.frombuffer(body, dtype=np.uint8).reshape(count, rows, cols)
    imgs = imgs.astype(float) / 255.0
    if downsample > 1:
        if rows % downsample or cols % downsample:
            raise ValueError(
                f"downsample factor {downsample} does not divide {rows}x{cols}"
            )
        r, c = rows // downsample, cols // downsample
        imgs = imgs.reshape(count, r, downsample, c, downsample).mean(axis=(2, 4))
    # flatten each image column by column, stack images as matrix columns;
    # the pixel count is explicit so that a file of no images reshapes too
    pixels = imgs.shape[1] * imgs.shape[2]
    feats = imgs.transpose(0, 2, 1).reshape(count, pixels).T
    if labels_path is None:
        labels_path = _guess_labels_path(path)
    labels = None
    if labels_path is not None:
        labels = _read_idx_labels(labels_path)
        if labels.size != count:
            raise ValueError(
                f"{labels_path}: {labels.size} labels for {count} images"
            )
    return RawDataset(np.ascontiguousarray(feats), labels)


def write_idx_images(path: str, images: np.ndarray):
    """Serialize a (count, rows, cols) u8 image stack in idx format."""
    images = np.asarray(images)
    if images.ndim != 3:
        raise ValueError("images must have shape (count, rows, cols)")
    if images.dtype != np.uint8:
        if images.min() < 0 or images.max() > 255:
            raise ValueError("pixel values outside [0, 255]")
        images = np.round(images).astype(np.uint8)
    count, rows, cols = images.shape
    write_atomic(path, struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols) + images.tobytes())


def write_idx_labels(path: str, labels: np.ndarray):
    """Serialize an integer label vector in idx format."""
    labels = np.asarray(labels).ravel()
    if labels.size and (labels.min() < 0 or labels.max() > 255):
        raise ValueError("labels outside u8 range")
    write_atomic(
        path, struct.pack(">II", IDX_LABEL_MAGIC, labels.size) + labels.astype(np.uint8).tobytes()
    )


def load_matrix(
    path: str,
    fmt: "str | None" = None,
    labeled: bool = False,
    labels_path: "str | None" = None,
    downsample: int = 1,
) -> RawDataset:
    """Load a dataset from disk.

    Parameters
    ----------
    path : str
    fmt : {"csv", "rawf64", "idx"}, optional
        Inferred from the extension when omitted (.csv, .rawf64/.raw/.bin,
        anything else is treated as idx).
    labeled : bool
        csv only: take the last column as integer labels.
    labels_path : str, optional
        idx only: companion label file. When omitted, the conventional
        sibling name (images -> labels) is probed.
    downsample : int
        idx only: average-pool images by this factor per side.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    if fmt is None:
        fmt = _detect_format(path)
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    if fmt != "idx" and (downsample != 1 or labels_path is not None):
        raise ValueError(f"{path}: downsample and labels_path apply to idx files only")
    if fmt == "csv":
        ds = _load_csv(path, labeled)
    elif fmt == "rawf64":
        ds = _load_rawf64(path)
    else:
        ds = _load_idx(path, labels_path, downsample)
    if ds.size == 0:
        raise ValueError(f"{path}: no points")
    if not np.isfinite(ds.features).all():
        raise ValueError(f"{path}: non-finite feature value")
    return ds


def _require_labels(ds: RawDataset):
    # Samplers size their work by class_count, so every class below it
    # must occur: a stray large label would otherwise size it.
    if ds.labels is None:
        raise ValueError("sampling requires a labeled dataset")
    if ds.class_count < 2:
        raise ValueError("sampling requires at least 2 classes")
    present = np.unique(ds.labels).size
    if present != ds.class_count:
        raise ValueError(
            f"labels cover {present} of classes 0..{ds.class_count - 1}; "
            "a sampling pool needs every class"
        )


def _uniform_counts(n: int, k: int) -> np.ndarray:
    base, rem = divmod(n, k)
    counts = np.full(k, base, dtype=int)
    counts[:rem] += 1
    return counts


def _skewed_counts(n: int, k: int, skew_class: int, percent: float) -> np.ndarray:
    skew_n = int(np.floor(percent * n / 100.0 + 0.5))
    if skew_n * k < n:
        raise ValueError(
            f"skew_percent {percent} would under-represent class {skew_class} "
            f"relative to a uniform draw over {k} classes"
        )
    if skew_n > n:
        raise ValueError("skew share exceeds the sample size")
    rest = n - skew_n
    base, rem = divmod(rest, k - 1)
    counts = np.full(k, base, dtype=int)
    counts[skew_class] = skew_n
    others = [j for j in range(k) if j != skew_class]
    for j in others[:rem]:
        counts[j] += 1
    return counts


def _draw_by_counts(
    ds: RawDataset, counts: "list[np.ndarray]", rng: np.random.Generator
) -> "list[RawDataset]":
    # One sample per count vector, cut in order from one draw per class.
    parts = [[] for _ in counts]
    for j in range(ds.class_count):
        sizes = [int(c[j]) for c in counts]
        need = sum(sizes)
        if need == 0:
            continue
        pool = np.flatnonzero(ds.labels == j)
        if pool.size < need:
            split = " for a disjoint split" if len(counts) > 1 else ""
            raise ValueError(f"class {j} has {pool.size} samples, need {need}{split}")
        draw = rng.choice(pool, size=need, replace=False)
        for part, piece in zip(parts, np.split(draw, np.cumsum(sizes)[:-1])):
            part.append(piece)
    return [_subset(ds, np.concatenate(part)) for part in parts]


def _subset(ds: RawDataset, idx: np.ndarray) -> RawDataset:
    return RawDataset(ds.features[:, idx], ds.labels[idx], ds.class_count, idx)


def uniform_sample(ds: RawDataset, n: int, seed: int) -> RawDataset:
    """Draw n points with per-class counts differing by at most one.

    When n is not a multiple of the class count, the lowest-indexed
    classes receive the extra draws.
    """
    _require_labels(ds)
    if n < 1:
        raise ValueError("sample size must be positive")
    rng = np.random.default_rng(seed)
    return _draw_by_counts(ds, [_uniform_counts(n, ds.class_count)], rng)[0]


def disjoint_split(
    ds: RawDataset, spec_t: SkewSpec, spec_e: SkewSpec, seed: int
) -> "tuple[RawDataset, RawDataset]":
    """Draw two index-disjoint samples, one per SkewSpec.

    Per class, both samples' draws come from one sample without
    replacement, so the samples never share a dataset column.
    """
    _require_labels(ds)
    counts = []
    for spec in (spec_t, spec_e):
        if spec.skew_class >= ds.class_count:
            raise ValueError(
                f"skew_class {spec.skew_class} out of range for "
                f"{ds.class_count} classes"
            )
        counts.append(
            _skewed_counts(
                spec.sample_size, ds.class_count, spec.skew_class, spec.skew_percent
            )
        )
    first, second = _draw_by_counts(ds, counts, np.random.default_rng(seed))
    return first, second


def split_even(ds: RawDataset, seed: int) -> "tuple[RawDataset, RawDataset]":
    """Split every class roughly in half (odd counts favor the first half)."""
    _require_labels(ds)
    rng = np.random.default_rng(seed)
    first, second = [], []
    for j in range(ds.class_count):
        perm = rng.permutation(np.flatnonzero(ds.labels == j))
        half = (perm.size + 1) // 2
        first.append(perm[:half])
        second.append(perm[half:])
    return _subset(ds, np.concatenate(first)), _subset(ds, np.concatenate(second))
