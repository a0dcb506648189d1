import os
import struct

import numpy as np
import pytest

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


def test_rawf64_implausible_dimensions(tmp_path):
    bad = tmp_path / "bad.rawf64"
    bad.write_bytes(struct.pack("<QQ", 0, 5))
    with pytest.raises(ValueError, match="implausible"):
        dt.load_matrix(str(bad))
    huge = tmp_path / "huge.rawf64"
    huge.write_bytes(struct.pack("<QQ", 1 << 40, 1 << 40))
    with pytest.raises(ValueError, match="implausible"):
        dt.load_matrix(str(huge))


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
    with pytest.raises(FileNotFoundError):
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
                 lambda: dt.split_even(stray, seed=0)):
        with pytest.raises(ValueError, match="every class"):
            draw()


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


def test_split_even_partitions_each_class():
    ds = make_ds(per_class=7, k=3)
    a, b = dt.split_even(ds, seed=0)
    assert a.size == 12 and b.size == 9  # odd class counts favor the first half
    np.testing.assert_array_equal(np.bincount(a.labels, minlength=3), [4, 4, 4])
    np.testing.assert_array_equal(np.bincount(b.labels, minlength=3), [3, 3, 3])
    assert not set(a.indices.tolist()) & set(b.indices.tolist())
    assert len(set(a.indices.tolist()) | set(b.indices.tolist())) == 21


def test_samples_are_pool_datasets_that_run_task_takes():
    # Class 3 has one point: the skewed halves and split_even's second half
    # draw none of it, yet every sample keeps the pool's class count.
    labels = np.array([0] * 8 + [1] * 8 + [2] * 8 + [3])
    ds = dt.RawDataset(np.random.default_rng(5).normal(size=(2, 25)), labels)
    spec = dt.SkewSpec(skew_class=1, skew_percent=50.0, sample_size=4)
    source = dt.uniform_sample(ds, 6, seed=0)
    train, test = dt.disjoint_split(ds, spec, spec, seed=1)
    samples = [source, train, test, *dt.split_even(ds, seed=2)]
    assert train.labels.max() == 2
    for sample in samples:
        assert isinstance(sample, dt.RawDataset)
        assert sample.class_count == 4
        np.testing.assert_array_equal(sample.features, ds.features[:, sample.indices])
        np.testing.assert_array_equal(sample.labels, ds.labels[sample.indices])
    cfg = gml.GmlConfig(sinkhorn=sk.SinkhornConfig(lam=0.5))
    report = adapt.run_task(source, train, test, "euclidean", [0.5], cfg, seed=4)
    assert report.lambda_chosen == 0.5 and report.seed == 4
