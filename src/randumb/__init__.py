"""Single-pass, exemplar-free streaming classification.

Pipeline: a frozen random Fourier embedding, exact online class means
and pooled covariance, oracle-approximating shrinkage plus a ridge, and
Mahalanobis nearest-class-mean scoring, with a class-incremental
benchmark harness around it.
"""

from .classifier import (
    ModelVariant,
    StreamingClassifier,
    VARIANTS,
)
from .data_io import (
    DatasetDescriptor,
    RawDataset,
    dataset_from_features,
    load_dataset,
    load_feature_file,
    write_feature_file,
)
from .errors import (
    ConfigurationError,
    DataError,
    DataFormatError,
    EmptyModelError,
    InsufficientDataError,
    ModelStateError,
    NumericalError,
    RanDumbError,
    ShapeError,
    UnsupportedAugmentationError,
)
from .fourier import FeatureMap, FeatureMapSpec, RandomReluMap
from .harness import (
    RunResult,
    StreamBlock,
    compute_accuracy,
    make_stream,
    run_ablation,
    run_on_dataset,
    sweep_embedding,
)
from .precision import PrecisionModel, ShrinkageResult, oas_shrink
from .reference import OracleReport, run_verify
from .streaming import StreamingEstimator

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DataError",
    "DataFormatError",
    "DatasetDescriptor",
    "EmptyModelError",
    "FeatureMap",
    "FeatureMapSpec",
    "InsufficientDataError",
    "ModelStateError",
    "ModelVariant",
    "NumericalError",
    "OracleReport",
    "PrecisionModel",
    "RanDumbError",
    "RandomReluMap",
    "RawDataset",
    "RunResult",
    "ShapeError",
    "ShrinkageResult",
    "StreamBlock",
    "StreamingClassifier",
    "StreamingEstimator",
    "UnsupportedAugmentationError",
    "VARIANTS",
    "compute_accuracy",
    "dataset_from_features",
    "load_dataset",
    "load_feature_file",
    "make_stream",
    "oas_shrink",
    "run_ablation",
    "run_on_dataset",
    "run_verify",
    "sweep_embedding",
    "write_feature_file",
    "__version__",
]
