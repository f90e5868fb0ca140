"""The paper's ablation ordering, randumb > slda > kernel_ncm > ncm, on
generated glyphs (``glyphs.py``), so it is checked on every run of the
suite, with no dataset on disk and no scikit-learn.

The configuration: 1200 train and 600 test glyphs, standardized by the
train split's global mean and std, ``run_ablation`` at E = 2048,
gamma = 1e-3 and ridge 1e-4, with the run seed equal to the data seed.
Over data seeds 0..49 the ordering held on all 50.  The mean accuracies
were 0.951 / 0.911 / 0.811 / 0.720, and the worst per-link margins were
0.018 (randumb over slda), 0.047 (slda over kernel_ncm) and 0.022
(kernel_ncm over ncm): at least 11 of the 600 test points.  The two
frozen seeds are those with the largest smallest margin:

    seed  randumb  slda    kernel_ncm  ncm     margins
    22    0.9567   0.9017  0.7867      0.7267  0.0550  0.1150  0.0600
    5     0.9400   0.8867  0.7800      0.6933  0.0533  0.1067  0.0867

A change that breaks the ordering at these seeds breaks the paper's
result on this data; the configuration and the seeds are not to be
re-tuned around it.
"""

import pytest

from glyphs import glyph_features
from randumb import run_ablation

EMBED_DIM = 2048
GAMMA = 1e-3
RIDGE = 1e-4
TRAIN, TEST = 1200, 600


@pytest.mark.parametrize("seed", [22, 5])
def test_decorrelated_kernel_variant_beats_each_ablation_on_glyphs(seed):
    results = run_ablation(
        glyph_features(seed, TRAIN, TEST),
        variants=("randumb", "slda", "kernel_ncm", "ncm"),
        embed_dim=EMBED_DIM,
        gamma=GAMMA,
        ridge=RIDGE,
        seed=seed,
    )
    accs = {r.config["variant"]: r.average_accuracy for r in results}
    assert accs["randumb"] > accs["slda"] > accs["kernel_ncm"] > accs["ncm"], accs
