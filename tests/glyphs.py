"""Seeded digit-like glyphs: a small image dataset made by the tests' own
code, numpy only.

Ten polyline glyphs, one per class, are drawn on a SIZE x SIZE canvas
with a Gaussian stroke profile.  Each sample gets its own random
rotation (up to 0.25 rad either way), shear (up to 0.2), per-axis scale
(up to 12% either way), shift (up to 8% of the canvas per axis) and
stroke width (the profile's sigma, up to 30% either way around 0.1 of
the canvas), plus Gaussian pixel noise of sigma 0.3.  Thinner strokes
favour the linear ablation: at 0.06, kernel_ncm fell below ncm on 2 of
8 seeds (``test_glyph_ordering.py``).  Most glyphs are not mirror
symmetric, so a flipped copy is new information.

The same seed gives the same images: the draw is numpy's PCG64, and
the rendering is elementwise float64 arithmetic.
"""

from __future__ import annotations

import numpy as np

from randumb import dataset_from_features
from randumb.data_io import DatasetDescriptor, RawDataset

SIZE = 16
CLASSES = 10
NOISE = 0.3


def _ellipse(cx, cy, rx, ry, points=12):
    angles = np.linspace(0.0, 2.0 * np.pi, points + 1)
    return list(zip(cx + rx * np.cos(angles), cy + ry * np.sin(angles)))


# Strokes per class, in canvas units: x to the right, y down, centre 0.5.
GLYPHS = (
    [_ellipse(0.5, 0.5, 0.22, 0.32)],
    [[(0.4, 0.3), (0.55, 0.18), (0.55, 0.82)], [(0.4, 0.82), (0.7, 0.82)]],
    [[(0.28, 0.32), (0.4, 0.2), (0.6, 0.2), (0.72, 0.32), (0.7, 0.45), (0.28, 0.82),
      (0.74, 0.82)]],
    [[(0.28, 0.22), (0.7, 0.22), (0.5, 0.48), (0.7, 0.6), (0.68, 0.76), (0.5, 0.84),
      (0.28, 0.78)]],
    [[(0.62, 0.84), (0.62, 0.18), (0.24, 0.62), (0.78, 0.62)]],
    [[(0.72, 0.2), (0.32, 0.2), (0.3, 0.46), (0.6, 0.44), (0.72, 0.6), (0.66, 0.78),
      (0.46, 0.84), (0.28, 0.78)]],
    [[(0.66, 0.2), (0.42, 0.34), (0.3, 0.6), (0.36, 0.8), (0.56, 0.84), (0.7, 0.7),
      (0.62, 0.54), (0.42, 0.52), (0.31, 0.6)]],
    [[(0.26, 0.2), (0.74, 0.2), (0.44, 0.84)]],
    [_ellipse(0.5, 0.34, 0.17, 0.15), _ellipse(0.5, 0.66, 0.2, 0.17)],
    [[(0.68, 0.46), (0.5, 0.5), (0.34, 0.42), (0.34, 0.26), (0.5, 0.18), (0.66, 0.24),
      (0.68, 0.46), (0.6, 0.84)]],
)

# The canvas's pixel centres, (SIZE * SIZE, 2) as (x, y), row-major.
_ys, _xs = np.mgrid[0:SIZE, 0:SIZE]
_PIXELS = (np.stack([_xs.ravel(), _ys.ravel()], axis=1) + 0.5) / SIZE


def _segments(label: int) -> np.ndarray:
    """The glyph's strokes as (k, 2, 2) segment end points."""
    return np.array([
        (a, b) for stroke in GLYPHS[label] for a, b in zip(stroke[:-1], stroke[1:])
    ])


def _render(label: int, count: int, rng) -> np.ndarray:
    """``count`` noisy renderings of one glyph, float64 (count, SIZE, SIZE)."""
    theta = rng.uniform(-0.25, 0.25, count)
    shear = rng.uniform(-0.2, 0.2, count)
    scale = rng.uniform(0.88, 1.12, (count, 2))
    shift = rng.uniform(-0.08, 0.08, (count, 1, 1, 2))
    width = 0.1 * rng.uniform(0.7, 1.3, (count, 1, 1))
    cos, sin = np.cos(theta), np.sin(theta)
    # per sample: scale, then shear, then rotate, about the canvas centre
    rotate = np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)
    shape = np.zeros((count, 2, 2))
    shape[:, 0, 0], shape[:, 0, 1], shape[:, 1, 1] = scale[:, 0], shear * scale[:, 1], scale[:, 1]
    affine = rotate @ shape
    ends = np.einsum("nij,kpj->nkpi", affine, _segments(label) - 0.5) + 0.5 + shift
    # distance from each pixel to each segment, x and y apart: (count, pixels, k)
    ax, ay = ends[:, None, :, 0, 0], ends[:, None, :, 0, 1]
    abx, aby = ends[:, None, :, 1, 0] - ax, ends[:, None, :, 1, 1] - ay
    apx, apy = _PIXELS[None, :, None, 0] - ax, _PIXELS[None, :, None, 1] - ay
    t = np.clip((apx * abx + apy * aby) / (abx * abx + aby * aby), 0.0, 1.0)
    apx -= t * abx
    apy -= t * aby
    dist2 = (apx * apx + apy * apy).min(axis=-1)  # (count, pixels)
    ink = np.exp(-dist2 / (2.0 * width[:, :, 0] ** 2))
    ink += NOISE * rng.standard_normal(ink.shape)
    return ink.reshape(count, SIZE, SIZE)


def glyph_images(seed: int, train: int, test: int) -> tuple[np.ndarray, np.ndarray]:
    """``train`` then ``test`` glyphs, each split holding the classes in
    turn, shuffled within the split: float64 images (train + test, SIZE,
    SIZE) and int64 labels."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.arange(train), np.arange(test)]) % CLASSES
    images = np.empty((len(labels), SIZE, SIZE))
    for label in range(CLASSES):
        members = np.flatnonzero(labels == label)
        images[members] = _render(label, len(members), rng)
    order = np.concatenate([rng.permutation(train), train + rng.permutation(test)])
    return images[order], labels[order].astype(np.int64)


def glyph_features(seed: int, train: int, test: int) -> RawDataset:
    """A features dataset of ``train`` + ``test`` glyphs, flattened and
    standardized by the train split's global mean and std."""
    images, labels = glyph_images(seed, train, test)
    flat = images.reshape(len(images), -1)
    mean, std = flat[:train].mean(), flat[:train].std()
    flat = (flat - mean) / std
    return dataset_from_features(
        flat[:train], labels[:train], flat[train:], labels[train:], name="glyphs"
    )


def glyph_dataset(seed: int, train: int, test: int) -> RawDataset:
    """An image dataset of ``train`` + ``test`` glyphs, stored as uint8
    pixels and normalized by the train split's mean and std, so a run
    may flip it."""
    images, labels = glyph_images(seed, train, test)
    pixels = np.clip(np.rint(255.0 * (images + 1.0) / 3.0), 0, 255).astype(np.uint8)
    scaled = pixels[:train] / 255.0
    descriptor = DatasetDescriptor(
        name="glyphs", kind="images", input_dim=SIZE * SIZE, num_classes=CLASSES,
        channel_means=(float(scaled.mean()),), channel_stds=(float(scaled.std()),),
        image_shape=(SIZE, SIZE),
    )
    return RawDataset(
        descriptor, pixels[:train], labels[:train], pixels[train:], labels[train:]
    )
