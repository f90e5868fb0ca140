"""The package's public surface: every exported name resolves, and the
names the shared random-map spec, the single covariance and the one run
function replaced stay gone."""

import inspect
from dataclasses import fields

import randumb
from randumb import classifier, fourier, harness, streaming


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
        "variant", "num_classes", "embedding", "ridge", "input_dim",
    ]


def test_one_run_entry_point():
    """run_on_dataset is the run: it builds the stream and the model
    from its keywords, with no config-level steps in between."""
    for module in (randumb, harness):
        for gone in ("run_benchmark", "build_model_config"):
            assert not hasattr(module, gone), (module.__name__, gone)
    assert list(inspect.signature(randumb.run_on_dataset).parameters) == [
        "data", "variant", "embed_dim", "gamma", "ridge", "seed", "augment",
        "classes_per_task", "eval_every", "memory_cap_bytes",
    ]
