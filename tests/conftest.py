import importlib.util
from pathlib import Path

import numpy as np
import pytest

from otml import data as dt


@pytest.fixture(scope="session")
def digits_idx(tmp_path_factory):
    """The bundled 8x8 digits corpus exported to idx files.

    Serves as the offline stand-in for a real handwritten-digit corpus:
    tests exercise the same idx ingestion path that full-size data would
    take.
    """
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    digits = sklearn_datasets.load_digits()
    # pixel values are 0..16; stretch onto the u8 range the format carries
    images = np.round(digits.images * 15.0).astype(np.uint8)
    root = tmp_path_factory.mktemp("digits")
    images_path = str(root / "digits-images-idx3-ubyte")
    labels_path = str(root / "digits-labels-idx1-ubyte")
    dt.write_idx_images(images_path, images)
    dt.write_idx_labels(labels_path, digits.target)
    return images_path, labels_path


@pytest.fixture(scope="session")
def digits_pools(digits_idx):
    """Disjoint source/target sampling pools over the digits corpus.

    25 points per class go to the source pool, the rest to the target
    pool, mirroring the separate-origin pools of the skew protocol.
    """
    images_path, _ = digits_idx
    ds = dt.load_matrix(images_path)
    assert ds.labels is not None, "sibling label discovery failed"
    return dt.split_per_class(ds, 12345, 25)


@pytest.fixture(scope="session")
def run_office():
    """``scripts/run_office.py`` imported as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_office.py"
    spec = importlib.util.spec_from_file_location("run_office", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
