"""Tests for the synthetic dataset generators."""

import hashlib

import numpy as np
import pytest

from repro.bnn import Dataset, digit_template, synthetic_mnist, synthetic_motion
from repro.bnn.datasets import min_max_normalize, synthetic_keywords
from repro.errors import ConfigurationError
from repro.workloads import motion_features as mf


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class TestDigitTemplate:
    def test_shape_and_range(self):
        image = digit_template(3)
        assert image.shape == (16, 16)
        assert image.min() >= 0 and image.max() <= 1

    def test_distinct_digits(self):
        assert not np.array_equal(digit_template(1), digit_template(8))

    def test_digit_range_checked(self):
        with pytest.raises(ConfigurationError):
            digit_template(10)

    def test_glyph_fits(self):
        with pytest.raises(ConfigurationError):
            digit_template(0, size=8, scale=2)


class TestSyntheticMnist:
    def test_deterministic(self):
        a = synthetic_mnist(n_samples=50, seed=7)
        b = synthetic_mnist(n_samples=50, seed=7)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = synthetic_mnist(n_samples=50, seed=1)
        b = synthetic_mnist(n_samples=50, seed=2)
        assert not np.array_equal(a.images, b.images)

    def test_shapes(self):
        ds = synthetic_mnist(n_samples=100, size=16)
        assert ds.images.shape == (100, 256)
        assert ds.labels.shape == (100,)
        assert ds.n_classes == 10

    def test_values_in_unit_interval(self):
        ds = synthetic_mnist(n_samples=30)
        assert ds.images.min() >= 0 and ds.images.max() <= 1

    def test_all_classes_present(self):
        ds = synthetic_mnist(n_samples=500)
        assert set(np.unique(ds.labels)) == set(range(10))

    def test_binarized_domain(self):
        signs = synthetic_mnist(n_samples=10).binarized()
        assert set(np.unique(signs)) <= {-1, 1}

    def test_split_partitions(self):
        ds = synthetic_mnist(n_samples=100)
        train, test = ds.split(0.8)
        assert len(train) == 80 and len(test) == 20
        assert train.n_features == test.n_features == 256

    def test_split_deterministic(self):
        ds = synthetic_mnist(n_samples=60)
        t1, _ = ds.split(0.5, rng=np.random.default_rng(3))
        t2, _ = ds.split(0.5, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(t1.labels, t2.labels)

    @pytest.mark.parametrize("n_samples, seed, expected", [
        (64, 7, "cb6c412cdd9ffeecdc47420ecb7fc11d"
                "21703a70a9454d620882b54f28619588"),
        (300, 3, "7e6dab2cf23b8d55b9790948b0eeafff"
                 "9b328daa9c6dc2ff6a6209b38577d46c"),
    ])
    def test_golden_digest(self, n_samples, seed, expected):
        # pinned from the per-sample generator; the batched one must
        # reproduce every image bit and label
        ds = synthetic_mnist(n_samples=n_samples, seed=seed)
        assert _sha256(ds.images, ds.labels) == expected

    def test_empty(self):
        ds = synthetic_mnist(n_samples=0)
        assert ds.images.shape == (0, 256) and len(ds) == 0

    def test_images_look_like_digits(self):
        # with low noise, samples correlate best with their own template
        ds = synthetic_mnist(n_samples=200, noise_flip=0.01, max_shift=0)
        templates = np.array([digit_template(d).reshape(-1) for d in range(10)])
        hits = 0
        for image, label in zip(ds.images, ds.labels):
            scores = templates @ image
            hits += int(np.argmax(scores) == label)
        assert hits / len(ds) > 0.9


class TestSyntheticMotion:
    def test_shapes(self):
        md = synthetic_motion(n_samples=40, length=64)
        assert md.traces.shape == (40, 6, 64)
        assert md.n_classes == 6
        assert md.n_channels == 6
        assert md.length == 64

    def test_deterministic(self):
        a = synthetic_motion(n_samples=20, seed=5)
        b = synthetic_motion(n_samples=20, seed=5)
        np.testing.assert_array_equal(a.traces, b.traces)

    def test_classes_have_distinct_low_noise_signatures(self):
        md = synthetic_motion(n_samples=300, noise_sigma=0.01)
        means = np.array([md.traces[md.labels == c].mean(axis=(0, 2))
                          for c in range(md.n_classes)])
        # class-mean channel offsets should differ pairwise
        for i in range(md.n_classes):
            for j in range(i + 1, md.n_classes):
                assert np.abs(means[i] - means[j]).max() > 0.05

    def test_feature_dataset(self):
        md = synthetic_motion(n_samples=30)
        ds = md.to_feature_dataset(lambda trace: trace.mean(axis=1))
        assert isinstance(ds, Dataset)
        assert ds.images.shape == (30, 6)
        assert ds.images.min() >= 0 and ds.images.max() <= 1

    def test_motion_feature_golden_digest(self):
        ds = synthetic_motion(n_samples=40, seed=0).to_feature_dataset(
            mf.float_features)
        assert _sha256(ds.images, ds.labels) == (
            "f9ec76ef706dcff8a37ffa47d2fcce72"
            "4a35638430fc431c9c6332f1b58c0df3")

    def test_mismatched_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(images=np.zeros((3, 4)), labels=np.zeros(2), n_classes=2)


class TestSyntheticKeywords:
    def test_shapes(self):
        ds = synthetic_keywords(n_samples=30)
        assert ds.signals.shape == (30, 256)
        assert ds.n_classes == 4
        assert ds.length == 256

    def test_deterministic(self):
        a = synthetic_keywords(n_samples=10, seed=4)
        b = synthetic_keywords(n_samples=10, seed=4)
        np.testing.assert_array_equal(a.signals, b.signals)

    def test_background_class_is_noise(self):
        ds = synthetic_keywords(n_samples=400, noise_sigma=0.1)
        background = ds.signals[ds.labels == 0]
        keyword = ds.signals[ds.labels == 2]
        assert np.abs(background).mean() < np.abs(keyword).mean()

    def test_feature_dataset(self):
        ds = synthetic_keywords(n_samples=20).to_feature_dataset(
            lambda signal: np.array([signal.mean(), signal.std()]))
        assert isinstance(ds, Dataset)
        assert ds.images.shape == (20, 2)

    def test_feature_golden_digest(self):
        # a constant feature column exercises the zero-span guard
        ds = synthetic_keywords(n_samples=30, seed=0).to_feature_dataset(
            lambda s: np.array([s.mean(), s.std(), 0.0]))
        assert _sha256(ds.images, ds.labels) == (
            "86c84c14f227b1abe86130d1971283f2"
            "955626168cdddbbcebbee920c537021e")


class TestMinMaxNormalize:
    def test_columns_span_unit_interval(self):
        features = np.array([[1.0, 5.0], [3.0, 5.0], [2.0, 5.0]])
        np.testing.assert_array_equal(
            min_max_normalize(features),
            [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
