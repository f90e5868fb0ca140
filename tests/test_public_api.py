"""The package's public surface: every exported name resolves, and the
names the shared random-map spec and the single covariance replaced
stay gone."""

from dataclasses import fields

import randumb
from randumb import classifier, fourier, streaming


def test_every_exported_name_resolves():
    for name in randumb.__all__:
        assert getattr(randumb, name) is not None, name


def test_one_random_map_spec():
    for module in (randumb, classifier, fourier):
        for gone in ("RPSpec", "num_bases_for_embed_dim", "PRECISION_VARIANTS",
                     "EMBEDDED_VARIANTS"):
            assert not hasattr(module, gone), (module.__name__, gone)
    assert randumb.RandomReluMap is classifier.RandomReluMap
    assert issubclass(randumb.RandomReluMap, randumb.FeatureMap)
    assert tuple(randumb.VARIANTS) == ("randumb", "kernel_ncm", "slda", "ncm", "rp_relu")


def test_one_checkpoint_kind():
    """Checkpoints belong to the classifier; the estimator only holds the
    arrays they store."""
    from randumb import StreamingClassifier, StreamingEstimator

    for gone in ("save", "load", "_state", "_from_state"):
        assert not hasattr(StreamingEstimator, gone), gone
    assert not hasattr(streaming, "ClassStats")
    for kept in ("save", "load", "_state", "_from_state"):
        assert hasattr(StreamingClassifier, kept), kept


def test_one_covariance():
    """The pooled within-class scatter over n - 1 is the only estimator:
    the centering modes and the options that chose them are gone."""
    for gone in ("MODES", "MODE_POOLED", "MODE_GLOBAL"):
        assert not hasattr(streaming, gone), gone
    assert [f.name for f in fields(randumb.ModelVariant)] == [
        "variant", "embedding", "ridge", "input_dim",
    ]
