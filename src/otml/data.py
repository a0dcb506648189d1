"""Dataset loading and the sampling protocol for the skew experiments.

Three on-disk formats are understood:

* ``csv``: one sample per row, features in columns, optionally a trailing
  integer label column.
* ``rawf64``: a little-endian binary dump. Layout: u64 feature count d,
  u64 sample count N, then d*N float64 values in column-major order (one
  column per sample), then a u8 flag (0 or 1), then N u32 labels when the
  flag is 1.
* ``idx``: the big-endian image/label container commonly used for digit
  corpora (magic 0x00000803 for u8 image tensors, 0x00000801 for u8 label
  vectors). Pixels are rescaled to [0, 1]; each image is flattened
  column by column into a feature vector.

Samplers draw class-balanced or deliberately skewed subsets with a
seeded generator; all tie-breaking is by ascending class index so runs
are reproducible.
"""

import math
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
            self.labels = _int_labels(self.labels)
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


def _int_labels(labels, where: str = "") -> np.ndarray:
    """``labels`` as a 1-d int array, refused before the cast when an entry
    is not finite, beyond int64 or not integral (a complex entry with an
    imaginary part is not); ``where`` (a file name and ": ") starts the
    message."""
    values = np.asarray(labels).ravel()
    if np.can_cast(values.dtype, int):
        return values.astype(int)
    if values.dtype.kind == "u":
        inside = values <= np.iinfo(np.int64).max
    else:
        try:  # to complex, so that an imaginary part is seen, not dropped
            values = values.astype(complex)
        except OverflowError:  # a Python int beyond the float range
            raise ValueError(f"{where}label not finite or out of int64 range") from None
        if values.imag.any():
            raise ValueError(f"{where}label not integral: {values[values.imag != 0][0]}")
        values = values.real
        inside = (values >= -(2.0**63)) & (values < 2.0**63)  # false on nan
    if not inside.all():
        raise ValueError(f"{where}label not finite or out of int64 range: {values[~inside][0]}")
    fractional = values != np.round(values)
    if fractional.any():
        raise ValueError(f"{where}label not integral: {values[fractional][0]}")
    return values.astype(int)


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
    with open(path, "r", encoding="utf-8-sig") as fh:  # drops a byte-order mark
        first = fh.readline()
    skip = 0
    try:
        float(first.split(",")[0])
    except ValueError:
        skip = 1
    with warnings.catch_warnings():
        # A file without data rows is an error that load_matrix reports.
        warnings.simplefilter("ignore", UserWarning)
        table = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2, encoding="utf-8-sig")
    if labeled:
        if table.size and table.shape[1] < 2:
            raise ValueError(f"{path}: labeled csv needs at least 2 columns")
        return RawDataset(table[:, :-1].T, _int_labels(table[:, -1], f"{path}: "))
    return RawDataset(table.T)


def _read_payload(fh, shape: tuple, dtype: str, what: str) -> np.ndarray:
    """Read an array of ``shape`` and ``dtype`` straight into a new buffer."""
    # The header's size is checked against the file before anything is
    # allocated, so a truncated file cannot make the read allocate that size.
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{fh.name}: truncated {what}")
    out = np.empty(shape, dtype=dtype)
    if fh.readinto(out) != size:
        raise ValueError(f"{fh.name}: truncated {what} (short read)")
    return out


def _check_end(fh, what: str):
    """Raise when bytes follow ``what``: a header understated the count."""
    extra = os.fstat(fh.fileno()).st_size - fh.tell()
    if extra:
        raise ValueError(f"{fh.name}: {extra} bytes after the {what}")


def _load_rawf64(path: str) -> RawDataset:
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16:
            raise ValueError(f"{path}: truncated rawf64 header")
        d, n = struct.unpack("<QQ", head)
        if d == 0 or n == 0 or d * n > 1 << 32:
            raise ValueError(f"{path}: implausible rawf64 dimensions {d}x{n}")
        # point-major on disk: the (n, d) array's transpose is the feature matrix
        points = _read_payload(fh, (n, d), "<f8", "rawf64 payload")
        flag = fh.read(1)
        if flag > b"\x01":
            raise ValueError(f"{path}: rawf64 label flag {flag[0]}, not 0 or 1")
        labels = _read_payload(fh, (n,), "<u4", "rawf64 label block") if flag == b"\x01" else None
        _check_end(fh, "rawf64 data")
    return RawDataset(points.T, labels)


def rawf64_bytes(features: np.ndarray, labels: "np.ndarray | None" = None) -> bytes:
    """The rawf64 encoding of features (points as columns) and labels in [0, 2**32)."""
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
        parts += [struct.pack("B", 1), _label_bytes(labels, "<u4")]
    return b"".join(parts)


def _label_bytes(labels, dtype: str) -> bytes:
    """``labels`` as the unsigned integer ``dtype``'s bytes, refused unless
    every label is integral and within that type's range."""
    labels = _int_labels(labels)
    top = np.iinfo(dtype).max
    if labels.size and (labels.min() < 0 or labels.max() > top):
        raise ValueError(f"labels outside [0, {top}]")
    return labels.astype(dtype).tobytes()


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
        labels = _read_payload(fh, (count,), "u1", "idx label payload")
        _check_end(fh, "idx label payload")
    return labels


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
        imgs = _read_payload(fh, (count, rows, cols), "u1", "idx image payload")
        _check_end(fh, "idx image payload")
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
        # NaN fails both comparisons, so it is refused with the out-of-range values.
        if not ((images >= 0) & (images <= 255)).all():
            raise ValueError("pixel values not finite or outside [0, 255]")
        images = np.round(images).astype(np.uint8)
    count, rows, cols = images.shape
    write_atomic(path, struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols) + images.tobytes())


def write_idx_labels(path: str, labels: np.ndarray):
    """Serialize an integer label vector (each in [0, 255]) in idx format."""
    payload = _label_bytes(labels, "u1")  # one byte per label
    write_atomic(path, struct.pack(">II", IDX_LABEL_MAGIC, len(payload)) + payload)


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
        raise FileNotFoundError(f"{path}: no such file")
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
    return np.insert(_uniform_counts(n - skew_n, k - 1), skew_class, skew_n)


def _draw_by_counts(
    ds: RawDataset, counts: "list[np.ndarray]", rng: "np.random.Generator"
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


def skew_round(source, target, m: int, n: int, skew_class: int, skew_percent, entropy):
    """A uniform m-point source sample and two disjoint n-point target samples in
    which ``skew_class`` takes ``skew_percent`` %, seeded by ``SeedSequence(entropy)``."""
    s_src, s_tgt = (int(v) for v in np.random.SeedSequence(entropy).generate_state(2))
    x = uniform_sample(source, m, s_src)
    spec = SkewSpec(skew_class, float(skew_percent), n)
    return (x, *disjoint_split(target, spec, spec, s_tgt))


def split_per_class(ds: RawDataset, seed: int, count=None) -> "tuple[RawDataset, RawDataset]":
    """Cut every class in two: one seeded permutation per class, in class
    order, and its first ``count`` points (half, rounded up, if None) first."""
    _require_labels(ds)
    if count is not None and count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    first, second = [], []
    for j in range(ds.class_count):
        perm = rng.permutation(np.flatnonzero(ds.labels == j))
        cut = (perm.size + 1) // 2 if count is None else count
        first.append(perm[:cut])
        second.append(perm[cut:])
    return _subset(ds, np.concatenate(first)), _subset(ds, np.concatenate(second))
