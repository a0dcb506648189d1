import os
import struct
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otml import adapt, gml
from otml import data as dt
from otml import sinkhorn as sk


def make_ds(per_class, k=4, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    n = per_class * k
    labels = np.repeat(np.arange(k), per_class)
    feats = rng.normal(size=(dim, n))
    feats[0] = np.arange(n)  # row 0 identifies the sample
    return dt.RawDataset(feats, labels)


# ---------------------------------------------------------------------------
# dataclasses


def test_rawdataset_validation():
    with pytest.raises(ValueError):
        dt.RawDataset(np.zeros(3))
    with pytest.raises(ValueError):
        dt.RawDataset(np.zeros((2, 3)), labels=np.array([0, 1]))
    with pytest.raises(ValueError):
        dt.RawDataset(np.zeros((2, 2)), labels=np.array([0, -1]))
    with pytest.raises(ValueError):
        dt.RawDataset(np.zeros((2, 2)), labels=np.array([0, 5]), class_count=3)
    ds = dt.RawDataset(np.zeros((2, 3)), labels=np.array([0, 2, 1]))
    assert ds.class_count == 3
    assert ds.size == 3


@pytest.mark.parametrize("container", [list, np.array], ids=["list", "ndarray"])
@pytest.mark.parametrize(
    "label, message",
    [(2.5, "label not integral: 2.5"),
     (np.inf, "label not finite or out of int64 range: inf"),
     (-np.inf, "label not finite or out of int64 range: -inf"),
     (1e300, "label not finite or out of int64 range: 1e[+]300"),
     (2.0**63, "label not finite or out of int64 range: 9.2"),
     (np.nan, "label not finite or out of int64 range: nan")],
)
def test_rawdataset_refuses_labels_before_the_int_cast(container, label, message):
    # A cast to int would truncate 2.5 to 2 and warn on the others, then
    # name the wrong fault; the check runs first and names the label.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=message):
            dt.RawDataset(np.zeros((1, 2)), container([0, label]))


@pytest.mark.parametrize(
    "container", [list, np.array, lambda v: np.array(v, dtype=object)],
    ids=["list", "ndarray", "object"],
)
@pytest.mark.parametrize(
    "label, message",
    [(10**400, "label not finite or out of int64 range$"),
     (-(10**400), "label not finite or out of int64 range$"),
     (1 + 2j, r"label not integral: \(1\+2j\)"),
     (complex(0, np.nan), "label not integral: nanj")],
    ids=["int-beyond-float", "negative-int-beyond-float", "complex", "complex-nan"],
)
def test_rawdataset_refuses_labels_a_float_cannot_hold(container, label, message):
    # A cast to float overflowed on such an int, and dropped the imaginary
    # part of a complex label with a ComplexWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            dt.RawDataset(np.zeros((1, 2)), container([0, label]))


def test_rawdataset_takes_integral_labels_of_any_type():
    ds = dt.RawDataset(np.zeros((1, 4)), [0, 2.0, np.uint8(1), True])
    assert ds.labels.dtype == int and ds.labels.tolist() == [0, 2, 1, 1]
    assert ds.class_count == 3
    assert dt.RawDataset(np.zeros((1, 2)), [2 + 0j, 1]).labels.tolist() == [2, 1]
    big = np.array([np.iinfo(np.int64).max], dtype=np.uint64)
    assert dt.RawDataset(np.zeros((1, 1)), big).labels[0] == np.iinfo(np.int64).max
    with pytest.raises(ValueError, match="out of int64 range"):
        dt.RawDataset(np.zeros((1, 1)), big + 1)


def test_skewspec_validation():
    with pytest.raises(ValueError):
        dt.SkewSpec(skew_class=-1, skew_percent=10, sample_size=10)
    with pytest.raises(ValueError):
        dt.SkewSpec(skew_class=0, skew_percent=0.0, sample_size=10)
    with pytest.raises(ValueError):
        dt.SkewSpec(skew_class=0, skew_percent=100.0, sample_size=10)
    with pytest.raises(ValueError):
        dt.SkewSpec(skew_class=0, skew_percent=10, sample_size=0)


# ---------------------------------------------------------------------------
# csv


def test_csv_plain_matrix(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.5,2.0\n-3.0,4.25\n0.5,1.0\n")
    ds = dt.load_matrix(str(path))
    # rows of the file are samples, stored as columns
    np.testing.assert_array_equal(
        ds.features, np.array([[1.5, -3.0, 0.5], [2.0, 4.25, 1.0]])
    )
    assert ds.labels is None


def test_csv_header_skipped(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("f0,f1\n1.0,2.0\n3.0,4.0\n")
    ds = dt.load_matrix(str(path))
    np.testing.assert_array_equal(ds.features, np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_csv_byte_order_mark_is_no_header(tmp_path):
    # Read with the mark, the first row's first cell is not a number, and the
    # row was skipped as a header.
    path = tmp_path / "m.csv"
    path.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    ds = dt.load_matrix(str(path))
    np.testing.assert_array_equal(ds.features, np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]))
    path.write_bytes(b"\xef\xbb\xbff0,f1\n1.0,2.0\n3.0,4.0\n")
    ds = dt.load_matrix(str(path))
    np.testing.assert_array_equal(ds.features, np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_csv_labeled_last_column(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0,0\n3.0,4.0,2\n5.0,6.0,1\n")
    ds = dt.load_matrix(str(path), labeled=True)
    np.testing.assert_array_equal(ds.features, np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]))
    np.testing.assert_array_equal(ds.labels, [0, 2, 1])
    assert ds.class_count == 3


def test_csv_fractional_labels_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,0.5\n2.0,1.0\n")
    with pytest.raises(ValueError):
        dt.load_matrix(str(path), labeled=True)


@pytest.mark.parametrize("label", ["inf", "-inf", "1e300"])
def test_csv_label_beyond_int64_rejected_before_the_cast(tmp_path, label):
    # These labels pass the integral check; a cast to int would warn and
    # give a meaningless label, then a wrong message.
    path = tmp_path / "m.csv"
    path.write_text(f"1.0,0\n2.0,{label}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="label not finite or out of int64 range") as err:
            dt.load_matrix(str(path), labeled=True)
    assert str(path) in str(err.value)


def test_csv_negative_label_reaches_the_dataset_check(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,0\n2.0,-1\n")
    with pytest.raises(ValueError, match="labels must be nonnegative"):
        dt.load_matrix(str(path), labeled=True)


# ---------------------------------------------------------------------------
# rawf64


def test_rawf64_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(5, 9))
    path = str(tmp_path / "x.rawf64")
    dt.save_rawf64(path, feats)
    back = dt.load_matrix(path)
    np.testing.assert_array_equal(back.features, feats)
    assert back.labels is None


def test_rawf64_roundtrip_with_labels(tmp_path):
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(3, 7))
    labels = rng.integers(0, 4, size=7)
    path = str(tmp_path / "x.raw")
    dt.save_rawf64(path, feats, labels)
    back = dt.load_matrix(path)
    np.testing.assert_array_equal(back.features, feats)
    np.testing.assert_array_equal(back.labels, labels)


def test_rawf64_truncation_errors(tmp_path):
    short = tmp_path / "short.rawf64"
    short.write_bytes(b"\x01\x02")
    with pytest.raises(ValueError, match="truncated"):
        dt.load_matrix(str(short))

    cut = tmp_path / "cut.rawf64"
    cut.write_bytes(struct.pack("<QQ", 2, 3) + b"\x00" * 10)
    with pytest.raises(ValueError, match="truncated"):
        dt.load_matrix(str(cut))

    nolab = tmp_path / "nolab.rawf64"
    nolab.write_bytes(struct.pack("<QQ", 1, 2) + b"\x00" * 16 + b"\x01" + b"\x00" * 3)
    with pytest.raises(ValueError, match="label"):
        dt.load_matrix(str(nolab))

    # 2^32 values (32 GiB) pass the plausibility cap; the claim is checked
    # against the file size before anything that large is allocated.
    claims = tmp_path / "claims.rawf64"
    claims.write_bytes(struct.pack("<QQ", 1 << 16, 1 << 16) + b"\x00" * 64)
    with pytest.raises(ValueError, match="truncated"):
        dt.load_matrix(str(claims))


def patched_count(payload: bytes, fmt: str, offset: int, count: int) -> bytes:
    # The file's bytes with the point count in its header replaced.
    size = struct.calcsize(fmt)
    return payload[:offset] + struct.pack(fmt, count) + payload[offset + size:]


@pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
@pytest.mark.parametrize("count", [3, 2])
def test_rawf64_rejects_bytes_after_the_last_block(tmp_path, labeled, count):
    # A header that understates N leaves bytes after the last block: the
    # labels, or the flag when it is 0. Read as before, N = 3 of a labeled
    # 4-point file gave a (2, 3) cloud and took its flag from a float.
    feats = np.arange(8.0).reshape(2, 4) + 1.0
    payload = dt.rawf64_bytes(feats, np.arange(4) % 2 if labeled else None)
    path = tmp_path / "x.rawf64"
    path.write_bytes(patched_count(payload, "<Q", 8, count))
    with pytest.raises(ValueError, match="bytes after the rawf64 data"):
        dt.load_matrix(str(path))
    path.write_bytes(payload + b"\x00")
    with pytest.raises(ValueError, match="1 bytes after"):
        dt.load_matrix(str(path))


def test_rawf64_may_end_after_the_payload(tmp_path):
    feats = np.arange(6.0).reshape(3, 2)
    path = tmp_path / "x.rawf64"
    path.write_bytes(dt.rawf64_bytes(feats)[:-1])
    back = dt.load_matrix(str(path))
    np.testing.assert_array_equal(back.features, feats)
    assert back.labels is None


@pytest.mark.parametrize("flag", [2, 255])
def test_rawf64_label_flag_is_0_or_1(tmp_path, flag):
    payload = dt.rawf64_bytes(np.arange(4.0).reshape(2, 2), [0, 1])
    path = tmp_path / "x.rawf64"
    path.write_bytes(payload[:48] + bytes([flag]) + payload[49:])
    with pytest.raises(ValueError, match=f"x.rawf64: rawf64 label flag {flag}, not 0 or 1"):
        dt.load_matrix(str(path))


def test_rawf64_implausible_dimensions(tmp_path):
    bad = tmp_path / "bad.rawf64"
    bad.write_bytes(struct.pack("<QQ", 0, 5))
    with pytest.raises(ValueError, match="implausible"):
        dt.load_matrix(str(bad))
    huge = tmp_path / "huge.rawf64"
    huge.write_bytes(struct.pack("<QQ", 1 << 40, 1 << 40))
    with pytest.raises(ValueError, match="implausible"):
        dt.load_matrix(str(huge))


def save_pool(tmp_path, d, n, k):
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(d, n))
    path = str(tmp_path / "pool.rawf64")
    dt.save_rawf64(path, feats, np.arange(n) % k)
    return path, feats


def test_rawf64_load_reads_the_payload_in_place(tmp_path):
    path, feats = save_pool(tmp_path, 64, 4500, 10)
    tracemalloc.start()
    try:
        ds = dt.load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one payload-sized array, not a bytes object and a transposing copy
    assert peak < 1.5 * feats.nbytes
    with open(path, "rb") as fh:
        body = fh.read()[16:16 + feats.nbytes]
    decoded = np.frombuffer(body, dtype="<f8").reshape(feats.shape, order="F")
    assert np.array_equal(ds.features.view(np.uint64), decoded.view(np.uint64))
    assert ds.features.flags.writeable


def test_rawf64_short_read_raises(tmp_path, monkeypatch):
    # a file that shrinks after its size was checked reads short
    cut = tmp_path / "cut.rawf64"
    cut.write_bytes(struct.pack("<QQ", 2, 3) + b"\x00" * 10)
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=fstat(fd).st_size + 64))
    with pytest.raises(ValueError, match="short read"):
        dt.load_matrix(str(cut))


def test_samples_of_a_loaded_pool_keep_values_and_strides(tmp_path):
    # a loaded pool's features are the transpose of a points-contiguous
    # array; its samples are those of the feature-contiguous copy
    path, _ = save_pool(tmp_path, 8, 60, 3)
    pool = dt.load_matrix(path)
    copy = dt.RawDataset(np.ascontiguousarray(pool.features), pool.labels)
    spec = dt.SkewSpec(1, 50.0, 12)
    for draw in (lambda ds: [dt.uniform_sample(ds, 12, 3)],
                 lambda ds: dt.disjoint_split(ds, spec, spec, 4)):
        for got, want in zip(draw(pool), draw(copy)):
            np.testing.assert_array_equal(got.features, want.features)
            assert got.features.strides == want.features.strides


# ---------------------------------------------------------------------------
# idx


def test_idx_roundtrip_and_scaling(tmp_path):
    imgs = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    path = str(tmp_path / "imgs.idx")
    dt.write_idx_images(path, imgs)
    ds = dt.load_matrix(path)
    assert ds.features.shape == (12, 2)
    assert ds.features.max() <= 1.0
    np.testing.assert_allclose(
        ds.features[:, 0].max(), imgs[0].max() / 255.0, atol=1e-12
    )


def test_idx_flatten_is_column_major():
    # one 2x3 image with distinct pixels: features must read the image
    # column by column
    img = np.array([[[10, 20, 30], [40, 50, 60]]], dtype=np.uint8)
    path = None
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "one.idx")
        dt.write_idx_images(path, img)
        ds = dt.load_matrix(path)
        np.testing.assert_allclose(
            ds.features[:, 0] * 255.0, [10, 40, 20, 50, 30, 60], atol=1e-9
        )


def test_idx_bad_magic_rejected(tmp_path):
    labels_path = str(tmp_path / "labels.idx")
    dt.write_idx_labels(labels_path, np.array([1, 2, 3]))
    with pytest.raises(ValueError, match="magic"):
        dt.load_matrix(labels_path)  # label file read as images
    imgs_path = str(tmp_path / "oneimgs.idx")
    dt.write_idx_images(imgs_path, np.zeros((1, 2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="magic"):
        dt.load_matrix(imgs_path, labels_path=imgs_path)


def test_idx_truncated_payload(tmp_path):
    path = tmp_path / "trunc.idx"
    path.write_bytes(struct.pack(">IIII", dt.IDX_IMAGE_MAGIC, 2, 4, 4) + b"\x00" * 5)
    with pytest.raises(ValueError, match="truncated"):
        dt.load_matrix(str(path))
    # An 80-byte file claiming 2^20 images of 1024 x 1024 (1 TiB), and a
    # label file claiming 2^32 - 1 labels: checked against the file size,
    # not allocated.
    huge = tmp_path / "huge.idx"
    huge.write_bytes(struct.pack(">IIII", dt.IDX_IMAGE_MAGIC, 1 << 20, 1024, 1024) + b"\x00" * 64)
    with pytest.raises(ValueError, match="truncated"):
        dt.load_matrix(str(huge))
    labels = tmp_path / "many-labels.idx"
    labels.write_bytes(struct.pack(">II", dt.IDX_LABEL_MAGIC, (1 << 32) - 1) + b"\x00" * 8)
    dt.write_idx_images(str(path), np.zeros((1, 2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="truncated idx label"):
        dt.load_matrix(str(path), labels_path=str(labels))


def test_idx_rejects_bytes_after_the_payload(tmp_path):
    # An image or label count patched from 4 to 3 once loaded 3 of them.
    images = str(tmp_path / "a-images-idx3-ubyte")
    labels = str(tmp_path / "a-labels-idx1-ubyte")
    dt.write_idx_images(images, np.arange(16, dtype=np.uint8).reshape(4, 2, 2))
    dt.write_idx_labels(labels, np.arange(4))
    assert dt.load_matrix(images).features.shape == (4, 4)
    for path, offset, what in ((images, 4, "image"), (labels, 4, "label")):
        with open(path, "rb") as fh:
            payload = fh.read()
        with open(path, "wb") as fh:
            fh.write(patched_count(payload, ">I", offset, 3))
        with pytest.raises(ValueError, match=f"bytes after the idx {what} payload"):
            dt.load_matrix(images, labels_path=labels)
        with open(path, "wb") as fh:
            fh.write(payload)


def test_idx_label_count_mismatch(tmp_path):
    imgs_path = str(tmp_path / "a-images-idx3-ubyte")
    dt.write_idx_images(imgs_path, np.zeros((3, 2, 2), dtype=np.uint8))
    labels_path = str(tmp_path / "a-labels-idx1-ubyte")
    dt.write_idx_labels(labels_path, np.array([0, 1]))
    with pytest.raises(ValueError, match="labels for"):
        dt.load_matrix(imgs_path)


def test_idx_sibling_label_discovery(tmp_path):
    imgs_path = str(tmp_path / "train-images-idx3-ubyte")
    dt.write_idx_images(imgs_path, np.zeros((4, 2, 2), dtype=np.uint8))
    dt.write_idx_labels(str(tmp_path / "train-labels-idx1-ubyte"), np.array([0, 1, 2, 1]))
    ds = dt.load_matrix(imgs_path)
    np.testing.assert_array_equal(ds.labels, [0, 1, 2, 1])

    plain = str(tmp_path / "setimages.idx")
    dt.write_idx_images(plain, np.zeros((2, 2, 2), dtype=np.uint8))
    dt.write_idx_labels(str(tmp_path / "setlabels.idx"), np.array([5, 6]))
    ds2 = dt.load_matrix(plain)
    np.testing.assert_array_equal(ds2.labels, [5, 6])


def test_idx_explicit_labels_path(tmp_path):
    imgs_path = str(tmp_path / "pics.idx")
    dt.write_idx_images(imgs_path, np.zeros((2, 2, 2), dtype=np.uint8))
    other = str(tmp_path / "elsewhere.idx")
    dt.write_idx_labels(other, np.array([9, 8]))
    ds = dt.load_matrix(imgs_path, labels_path=other)
    np.testing.assert_array_equal(ds.labels, [9, 8])


def test_idx_downsample_average_pools(tmp_path):
    rng = np.random.default_rng(3)
    imgs = rng.integers(0, 256, size=(2, 4, 6), dtype=np.uint8)
    path = str(tmp_path / "ds.idx")
    dt.write_idx_images(path, imgs)
    ds = dt.load_matrix(path, downsample=2)
    assert ds.features.shape == (6, 2)
    scaled = imgs.astype(float) / 255.0
    for k in range(2):
        manual = np.zeros((2, 3))
        for i in range(2):
            for j in range(3):
                manual[i, j] = scaled[k, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean()
        np.testing.assert_allclose(ds.features[:, k], manual.T.ravel(), atol=1e-12)


def test_idx_downsample_must_divide(tmp_path):
    path = str(tmp_path / "odd.idx")
    dt.write_idx_images(path, np.zeros((1, 3, 4), dtype=np.uint8))
    with pytest.raises(ValueError, match="downsample"):
        dt.load_matrix(path, downsample=2)


def test_write_idx_rejects_out_of_range():
    with pytest.raises(ValueError):
        dt.write_idx_images("unused", np.full((1, 2, 2), 300.0))
    with pytest.raises(ValueError):
        dt.write_idx_labels("unused", np.array([0, 999]))


@pytest.mark.parametrize("pixel", [np.nan, np.inf, -np.inf])
def test_write_idx_images_refuses_non_finite_pixels(tmp_path, pixel):
    # A NaN pixel was once written as byte 0, with only a RuntimeWarning.
    images = np.full((1, 2, 2), 7.0)
    images[0, 1, 0] = pixel
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="pixel values not finite"):
            dt.write_idx_images(str(tmp_path / "imgs.idx"), images)
    assert os.listdir(tmp_path) == []


def test_write_idx_images_writes_an_empty_float_stack_as_an_empty_u8_one(tmp_path):
    floats, u8 = tmp_path / "f.idx", tmp_path / "u.idx"
    dt.write_idx_images(str(floats), np.zeros((0, 2, 3)))
    dt.write_idx_images(str(u8), np.zeros((0, 2, 3), dtype=np.uint8))
    header = struct.pack(">IIII", dt.IDX_IMAGE_MAGIC, 0, 2, 3)
    assert floats.read_bytes() == u8.read_bytes() == header


LABEL_WRITERS = {
    "save_rawf64": lambda path, labels: dt.save_rawf64(path, np.ones((1, 2)), labels),
    "write_idx_labels": dt.write_idx_labels,
}


@pytest.mark.parametrize("writer", list(LABEL_WRITERS))
@pytest.mark.parametrize(
    "labels, message",
    [([-1, 3], r"labels outside \[0, "),
     ([1.7, 2], "label not integral: 1.7"),
     ([np.nan, 1], "label not finite or out of int64 range: nan"),
     ([2**64, 1], "out of int64 range")],
    ids=["negative", "fractional", "nan", "beyond-int64"],
)
def test_label_writers_refuse_labels_they_cannot_store(tmp_path, writer, labels, message):
    # The u4 and u1 casts once wrapped -1, truncated 1.7 and made nan 0.
    path = tmp_path / "out.bin"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            LABEL_WRITERS[writer](str(path), labels)
    assert os.listdir(tmp_path) == []


def test_label_writers_refuse_a_label_past_their_width(tmp_path):
    # rawf64 once read 2**32 + 5 back as 5; both take their widest label.
    path = str(tmp_path / "out.bin")
    with pytest.raises(ValueError, match=r"labels outside \[0, 4294967295\]"):
        dt.save_rawf64(path, np.ones((1, 2)), [2**32 + 5, 1])
    with pytest.raises(ValueError, match=r"labels outside \[0, 255\]"):
        dt.write_idx_labels(path, [256, 1])
    assert os.listdir(tmp_path) == []
    dt.save_rawf64(path, np.ones((1, 2)), [2**32 - 1, 0])
    assert dt.load_matrix(path, fmt="rawf64").labels.tolist() == [2**32 - 1, 0]
    dt.write_idx_labels(path, [255, 0])
    assert dt._read_idx_labels(path).tolist() == [255, 0]


@pytest.mark.parametrize(
    "labels",
    [[0, 3, 1], [True, False, True], [2.0, 0.0, 1.0], np.array([7, 0, 255], dtype=np.uint8)],
    ids=["int", "bool", "integral-float", "u1"],
)
def test_label_writers_store_valid_labels_as_their_unsigned_cast(tmp_path, labels):
    # The bytes of every valid label vector are those of the plain cast.
    feats = np.arange(6.0).reshape(2, 3)
    want = np.asarray(labels)
    assert dt.rawf64_bytes(feats, labels) == (
        struct.pack("<QQ", 2, 3) + feats.tobytes(order="F") + b"\x01"
        + want.astype("<u4").tobytes()
    )
    path = tmp_path / "labels.idx"
    dt.write_idx_labels(str(path), labels)
    assert path.read_bytes() == (
        struct.pack(">II", dt.IDX_LABEL_MAGIC, 3) + want.astype(np.uint8).tobytes()
    )


WRITERS = {
    "write_atomic": lambda path: dt.write_atomic(path, b"new"),
    "save_rawf64": lambda path: dt.save_rawf64(path, np.ones((2, 3)), np.array([0, 1, 0])),
    "write_idx_images": lambda path: dt.write_idx_images(path, np.ones((2, 3, 3))),
    "write_idx_labels": lambda path: dt.write_idx_labels(path, np.array([0, 1, 2])),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_writers_replace_the_file_whole_or_not_at_all(tmp_path, monkeypatch, writer):
    # Every writer goes through a temp file and a rename: a failed rename
    # leaves the old file as it was and no temp file behind.
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")

    def no_rename(src, dst):
        raise OSError("rename refused")

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", no_rename)
        with pytest.raises(OSError, match="rename refused"):
            WRITERS[writer](str(path))
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.bin"]
    WRITERS[writer](str(path))
    assert path.read_bytes() != b"old"
    assert os.listdir(tmp_path) == ["out.bin"]


# ---------------------------------------------------------------------------
# load_matrix dispatch


def test_load_matrix_missing_file():
    with pytest.raises(FileNotFoundError, match="^/nonexistent/path.csv: no such file$"):
        dt.load_matrix("/nonexistent/path.csv")


def test_load_matrix_unknown_format(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.0\n")
    with pytest.raises(ValueError, match="format"):
        dt.load_matrix(str(path), fmt="hdf5")


@pytest.mark.parametrize("name", ["x.csv", "x.rawf64"])
@pytest.mark.parametrize("option", [{"downsample": 2}, {"labels_path": "labels-idx1"}])
def test_load_matrix_rejects_idx_options_for_other_formats(tmp_path, name, option):
    # Silently ignoring either option would hand back data it did not ask for.
    path = str(tmp_path / name)
    if name.endswith(".csv"):
        np.savetxt(path, np.ones((3, 2)), delimiter=",")
    else:
        dt.save_rawf64(path, np.ones((2, 3)))
    with pytest.raises(ValueError, match="idx files only"):
        dt.load_matrix(path, **option)


BAD_FILES = {
    "nan.csv": (b"1.0,2.0\nnan,3.0\n", "non-finite"),
    "inf.csv": (b"1.0,inf\n", "non-finite"),
    "header.csv": (b"a,b\n", "no points"),
    "empty.csv": (b"", "no points"),
    "nan.rawf64": (dt.rawf64_bytes(np.array([[1.0, np.nan]])), "non-finite"),
    "none-idx3-ubyte": (struct.pack(">IIII", dt.IDX_IMAGE_MAGIC, 0, 2, 2), "no points"),
}


@pytest.mark.parametrize("name", list(BAD_FILES))
def test_load_matrix_rejects_non_finite_and_empty(tmp_path, name):
    payload, match = BAD_FILES[name]
    path = tmp_path / name
    path.write_bytes(payload)
    with pytest.raises(ValueError, match=match):
        dt.load_matrix(str(path))


def test_format_detection_by_extension(tmp_path):
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(2, 3))
    for ext in (".rawf64", ".raw", ".bin"):
        path = str(tmp_path / f"f{ext}")
        dt.save_rawf64(path, feats)
        np.testing.assert_array_equal(dt.load_matrix(path).features, feats)


# ---------------------------------------------------------------------------
# sampling


def test_uniform_sample_even_split():
    ds = make_ds(per_class=5, k=4)
    cloud = dt.uniform_sample(ds, 12, seed=0)
    assert cloud.size == 12
    np.testing.assert_array_equal(np.bincount(cloud.labels, minlength=4), [3, 3, 3, 3])
    # returned points really are the dataset columns they claim to be
    np.testing.assert_array_equal(cloud.features, ds.features[:, cloud.indices])
    assert len(set(cloud.indices.tolist())) == 12


def test_uniform_sample_remainder_goes_to_low_classes():
    ds = make_ds(per_class=5, k=3)
    cloud = dt.uniform_sample(ds, 7, seed=1)
    np.testing.assert_array_equal(np.bincount(cloud.labels, minlength=3), [3, 2, 2])


def test_uniform_sample_deterministic():
    ds = make_ds(per_class=6, k=4)
    a = dt.uniform_sample(ds, 10, seed=7)
    b = dt.uniform_sample(ds, 10, seed=7)
    np.testing.assert_array_equal(a.indices, b.indices)
    c = dt.uniform_sample(ds, 10, seed=8)
    assert not np.array_equal(a.indices, c.indices)


def test_uniform_sample_insufficient_class():
    ds = make_ds(per_class=2, k=3)
    with pytest.raises(ValueError, match="need"):
        dt.uniform_sample(ds, 12, seed=0)


def test_uniform_sample_requires_labels():
    ds = dt.RawDataset(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="label"):
        dt.uniform_sample(ds, 2, seed=0)


def test_samplers_require_every_class_below_class_count():
    # Work is sized by class_count, the largest label + 1; one stray label
    # of 2^60 must not size it (an allocation that large is refused).
    ds = make_ds(per_class=5, k=3)
    labels = ds.labels.copy()
    labels[0] = 1 << 60
    stray = dt.RawDataset(ds.features, labels)
    spec = dt.SkewSpec(1, 50.0, 4)
    for draw in (lambda: dt.uniform_sample(stray, 6, seed=0),
                 lambda: dt.disjoint_split(stray, spec, spec, seed=0),
                 lambda: dt.split_per_class(stray, seed=0)):
        with pytest.raises(ValueError, match="every class"):
            draw()


def test_samplers_reject_a_pool_with_one_class():
    one = dt.RawDataset(np.zeros((2, 6)), np.zeros(6, dtype=int))
    spec = dt.SkewSpec(0, 50.0, 2)
    for draw in (lambda: dt.uniform_sample(one, 2, seed=0),
                 lambda: dt.disjoint_split(one, spec, spec, seed=0),
                 lambda: dt.split_per_class(one, seed=0)):
        with pytest.raises(ValueError, match="at least 2 classes"):
            draw()


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 1000), k=st.integers(2, 20), data=st.data(),
       percent=st.floats(0.0, 100.0, exclude_min=True, exclude_max=True))
def test_skewed_counts_split_the_sample_size(n, k, percent, data):
    # SkewSpec keeps percent in (0, 100), so the skewed class's share
    # floor(percent * n / 100 + 0.5) never exceeds n.
    skew_class = data.draw(st.integers(0, k - 1))
    spec = dt.SkewSpec(skew_class, percent, n)
    try:
        counts = dt._skewed_counts(n, k, spec.skew_class, spec.skew_percent)
    except ValueError as e:
        assert "under-represent" in str(e)
        return
    assert counts.sum() == n
    assert 0 <= counts.min() and counts.max() <= n
    assert counts[skew_class] == int(np.floor(percent * n / 100.0 + 0.5))
    # The other classes differ by at most one, and their extra draws go to
    # the lowest-indexed of them: in index order they never increase.
    others = np.delete(counts, skew_class)
    assert others.max() - others.min() <= 1
    assert (np.diff(others) <= 0).all()


@pytest.mark.parametrize(
    "n,k,skew_class,percent,expected",
    [
        # 30% of 100 to class 3, remaining 70 over 9 others: 7 each plus
        # one extra for the first 7 non-skew classes in ascending order
        (100, 10, 3, 30.0, [8, 8, 8, 30, 8, 8, 8, 8, 7, 7]),
        # rounding: 42% of 50 rounds to 21
        (50, 5, 0, 42.0, [21, 8, 7, 7, 7]),
        # rounding up from 2.5
        (10, 4, 2, 25.0, [3, 2, 3, 2]),
    ],
)
def test_skewed_sample_exact_composition(n, k, skew_class, percent, expected):
    # Both halves of a disjoint split are skewed samples of the spec.
    ds = make_ds(per_class=n, k=k)
    spec = dt.SkewSpec(skew_class=skew_class, skew_percent=percent, sample_size=n)
    for cloud in dt.disjoint_split(ds, spec, spec, seed=0):
        np.testing.assert_array_equal(np.bincount(cloud.labels, minlength=k), expected)
        assert len(set(cloud.indices.tolist())) == n


def test_skewed_sample_at_uniform_share_matches_uniform_counts():
    ds = make_ds(per_class=20, k=10)
    spec = dt.SkewSpec(skew_class=4, skew_percent=10.0, sample_size=100)
    for cloud in dt.disjoint_split(ds, spec, spec, seed=0):
        np.testing.assert_array_equal(np.bincount(cloud.labels, minlength=10), [10] * 10)


def test_skewed_sample_rejects_under_representation():
    ds = make_ds(per_class=20, k=10)
    spec = dt.SkewSpec(skew_class=0, skew_percent=5.0, sample_size=100)
    with pytest.raises(ValueError, match="under-represent"):
        dt.disjoint_split(ds, spec, spec, seed=0)


def test_skewed_sample_class_out_of_range():
    ds = make_ds(per_class=10, k=3)
    spec = dt.SkewSpec(skew_class=5, skew_percent=50.0, sample_size=9)
    with pytest.raises(ValueError, match="out of range"):
        dt.disjoint_split(ds, spec, spec, seed=0)


def test_disjoint_split_never_shares_rows():
    ds = make_ds(per_class=40, k=4)
    spec = dt.SkewSpec(skew_class=1, skew_percent=40.0, sample_size=40)
    for seed in range(20):
        a, b = dt.disjoint_split(ds, spec, spec, seed)
        assert a.size == 40 and b.size == 40
        assert not set(a.indices.tolist()) & set(b.indices.tolist())
        np.testing.assert_array_equal(a.features, ds.features[:, a.indices])
        np.testing.assert_array_equal(b.features, ds.features[:, b.indices])


def test_disjoint_split_respects_both_specs():
    ds = make_ds(per_class=50, k=5)
    spec_t = dt.SkewSpec(skew_class=0, skew_percent=60.0, sample_size=30)
    spec_e = dt.SkewSpec(skew_class=2, skew_percent=40.0, sample_size=20)
    a, b = dt.disjoint_split(ds, spec_t, spec_e, seed=3)
    np.testing.assert_array_equal(
        np.bincount(a.labels, minlength=5), [18, 3, 3, 3, 3]
    )
    np.testing.assert_array_equal(
        np.bincount(b.labels, minlength=5), [3, 3, 8, 3, 3]
    )


def test_disjoint_split_can_exhaust_dataset():
    # both halves together take every sample of the skewed class
    ds = make_ds(per_class=10, k=2)
    spec = dt.SkewSpec(skew_class=0, skew_percent=50.0, sample_size=10)
    a, b = dt.disjoint_split(ds, spec, spec, seed=0)
    used = set(a.indices.tolist()) | set(b.indices.tolist())
    assert len(used) == 20


def test_disjoint_split_insufficient_pool():
    ds = make_ds(per_class=10, k=2)
    spec = dt.SkewSpec(skew_class=0, skew_percent=60.0, sample_size=10)
    with pytest.raises(ValueError, match="disjoint"):
        dt.disjoint_split(ds, spec, spec, seed=0)


def test_split_per_class_partitions_each_class():
    ds = make_ds(per_class=7, k=3)
    a, b = dt.split_per_class(ds, seed=0)
    assert a.size == 12 and b.size == 9  # odd class counts favor the first half
    np.testing.assert_array_equal(np.bincount(a.labels, minlength=3), [4, 4, 4])
    np.testing.assert_array_equal(np.bincount(b.labels, minlength=3), [3, 3, 3])
    assert not set(a.indices.tolist()) & set(b.indices.tolist())
    assert len(set(a.indices.tolist()) | set(b.indices.tolist())) == 21


@pytest.mark.parametrize("count", [None, 0, 2, 5, 9])
def test_split_per_class_is_one_permutation_per_class(count):
    # The per-class loop every pool split used: one permutation per class,
    # in class order, cut at the count or at half rounded up. Class 1 has
    # an odd size and class 3 one point.
    labels = np.array([0] * 6 + [1] * 5 + [2] * 8 + [3])
    ds = dt.RawDataset(np.random.default_rng(1).normal(size=(2, 20)), labels)
    rng = np.random.default_rng(12345)
    first, second = [], []
    for c in range(4):
        perm = rng.permutation(np.flatnonzero(labels == c))
        cut = (perm.size + 1) // 2 if count is None else count
        first.append(perm[:cut])
        second.append(perm[cut:])
    a, b = dt.split_per_class(ds, 12345, count)
    np.testing.assert_array_equal(a.indices, np.concatenate(first))
    np.testing.assert_array_equal(b.indices, np.concatenate(second))
    for part in (a, b):
        np.testing.assert_array_equal(part.features, ds.features[:, part.indices])
        np.testing.assert_array_equal(part.labels, labels[part.indices])


def test_samples_are_pool_datasets_that_run_task_takes():
    # Class 3 has one point: the skewed halves and split_per_class's second half
    # draw none of it, yet every sample keeps the pool's class count.
    labels = np.array([0] * 8 + [1] * 8 + [2] * 8 + [3])
    ds = dt.RawDataset(np.random.default_rng(5).normal(size=(2, 25)), labels)
    spec = dt.SkewSpec(skew_class=1, skew_percent=50.0, sample_size=4)
    source = dt.uniform_sample(ds, 6, seed=0)
    train, test = dt.disjoint_split(ds, spec, spec, seed=1)
    samples = [source, train, test, *dt.split_per_class(ds, seed=2)]
    assert train.labels.max() == 2
    for sample in samples:
        assert isinstance(sample, dt.RawDataset)
        assert sample.class_count == 4
        np.testing.assert_array_equal(sample.features, ds.features[:, sample.indices])
        np.testing.assert_array_equal(sample.labels, ds.labels[sample.indices])
    cfg = gml.GmlConfig(sinkhorn=sk.SinkhornConfig(lam=0.5))
    report = adapt.run_task(source, train, test, "euclidean", [0.5], cfg, seed=4)
    assert report.lambda_chosen == 0.5 and report.seed == 4
