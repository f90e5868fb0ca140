"""The paper's ablation claim on data generated here, with no download.

RanDumb's claim is that a kernel embedding plus decorrelation beats
dropping either one.  ``antipodal_dataset`` is built so that each step
is needed: every class is two antipodal modes +v_c and -v_c, so each
class mean is about zero and no linear rule on the raw inputs
separates the classes (``slda``, ``ncm``), while shared noise along a
few directions with 100x the variance of the rest swamps the kernel
means unless the embedding is decorrelated (``kernel_ncm``).

The configuration below was frozen after checking seeds 0..19: randumb
scored 0.73-0.87 and every ablation at most 0.27, and randumb led the
best ablation by at least 0.46 (seed 3).  The tests run seeds 0..4.
The ordering between kernel_ncm and slda flips between seeds and is
not asserted.
"""

import numpy as np
import pytest

from randumb import run_ablation
from randumb.data_io import dataset_from_features

CLASSES = 8
DIM = 32
PER_CLASS = 200  # train and test samples per class each
RADIUS = 2.0  # |v_c|
NOISE = 0.3  # isotropic noise std
LOUD = 4  # shared high-variance directions
LOUD_STD = 3.0  # their std: 100x the isotropic variance
EMBED_DIM = 1024
GAMMA = 0.02
RIDGE = 1e-3
SEEDS = [0, 1, 2, 3, 4]
MARGIN = 0.25  # about half the worst lead over seeds 0..19


def antipodal_dataset(seed: int):
    """Train and test splits of CLASSES classes of two antipodal modes
    each, with shared anisotropic noise, in shuffled order; and the
    (CLASSES, DIM) mode vectors v_c."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((CLASSES, DIM))
    v *= RADIUS / np.linalg.norm(v, axis=1, keepdims=True)
    loud, _ = np.linalg.qr(rng.standard_normal((DIM, LOUD)))

    def draw():
        y = np.repeat(np.arange(CLASSES), PER_CLASS)
        sign = rng.choice([-1.0, 1.0], size=len(y))[:, None]
        x = sign * v[y] + NOISE * rng.standard_normal((len(y), DIM))
        x += (LOUD_STD * rng.standard_normal((len(y), LOUD))) @ loud.T
        order = rng.permutation(len(y))
        return x[order], y[order]

    return dataset_from_features(*draw(), *draw(), name="antipodal"), v


@pytest.mark.parametrize("seed", SEEDS)
def test_each_class_mean_cancels_its_modes(seed):
    """Along its own +-v_c axis each class averages to about zero, so the
    mean cannot tell the class apart; the residue is sampling error."""
    data, v = antipodal_dataset(seed)
    x, y = data.train_x.astype(np.float64), data.train_y
    for c in range(CLASSES):
        members = x[y == c] @ (v[c] / RADIUS)
        assert abs(members.mean()) < 0.25 * RADIUS
        assert np.abs(members).mean() > 0.5 * RADIUS


@pytest.mark.parametrize("seed", SEEDS)
def test_decorrelated_kernel_variant_beats_each_ablation(seed):
    results = run_ablation(
        antipodal_dataset(seed)[0],
        variants=("randumb", "kernel_ncm", "slda", "ncm"),
        embed_dim=EMBED_DIM,
        gamma=GAMMA,
        ridge=RIDGE,
        seed=seed,
    )
    accs = {r.config["variant"]: r.average_accuracy for r in results}
    for ablation in ("kernel_ncm", "slda", "ncm"):
        assert accs["randumb"] > accs[ablation] + MARGIN, accs
