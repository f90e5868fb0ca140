"""Frozen random maps: the random Fourier embedding and its relu ablation.

Both heads are one object: a (num_bases, input_dim) matrix W of
standard normals from a seeded PCG64 generator (numpy's
``standard_normal``, ziggurat method), stored float32, followed by a
fixed nonlinearity.

* ``fourier``: W is scaled by sqrt(2*gamma), so its rows are drawn from
  N(0, 2*gamma*I), and each input x emits the interleaved cosine/sine
  pairs of Wx scaled by 1/sqrt(D).  Inner products of embeddings then
  approximate the Gaussian kernel exp(-gamma * ||x - y||^2) (Rahimi &
  Recht, 2007).  D = num_bases frequencies give E = 2*D entries.
* ``relu``: relu(Wx) with W iid N(0, 1); E = D entries.

Embeddings are float32.  The same spec always yields the same matrix,
which is what makes whole runs bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError

GENERATOR_NAME = "numpy PCG64, ziggurat standard_normal"

HEADS = ("fourier", "relu")

_DEFAULT_BLOCK = 256


@dataclass(frozen=True)
class FeatureMapSpec:
    """Immutable description of one random map: its head, the input and
    embedding sizes, the seed, and (fourier only) the kernel width."""

    head: str
    input_dim: int
    embed_dim: int
    seed: int
    gamma: float | None = None

    def __post_init__(self):
        if self.head not in HEADS:
            raise ConfigurationError(f"head must be one of {HEADS}, got {self.head!r}")
        if self.input_dim < 1:
            raise ConfigurationError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.head == "fourier":
            if self.embed_dim < 2 or self.embed_dim % 2 != 0:
                raise ConfigurationError(
                    f"embedding size must be a positive even number (one cosine "
                    f"and one sine per frequency), got {self.embed_dim}"
                )
            if self.gamma is None or not (self.gamma > 0) or not np.isfinite(self.gamma):
                raise ConfigurationError(
                    f"gamma must be finite and > 0, got {self.gamma}"
                )
        else:
            if self.embed_dim < 1:
                raise ConfigurationError(f"embed_dim must be >= 1, got {self.embed_dim}")
            if self.gamma is not None:
                raise ConfigurationError(
                    f"the relu head takes no gamma, got {self.gamma}"
                )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    @property
    def num_bases(self) -> int:
        """Rows of the random matrix: E/2 frequencies or E projections."""
        return self.embed_dim // 2 if self.head == "fourier" else self.embed_dim


class FeatureMap:
    """A frozen random map: a spec and the weight matrix it determines."""

    def __init__(self, spec: FeatureMapSpec):
        self.spec = spec
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        weights = rng.standard_normal((spec.num_bases, spec.input_dim))
        if spec.head == "fourier":
            weights *= np.sqrt(2.0 * spec.gamma)
        self.weights = weights.astype(np.float32)

    @property
    def embed_dim(self) -> int:
        return self.spec.embed_dim

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Embed one input vector; returns a float32 vector of length E."""
        x = np.asarray(x)
        if x.ndim != 1 or x.shape[0] != self.spec.input_dim:
            raise ShapeError(
                f"expected a flat vector of length {self.spec.input_dim}, "
                f"got shape {x.shape}"
            )
        return self.embed_batch(x[None, :])[0]

    def embed_batch(self, X: np.ndarray, block: int = _DEFAULT_BLOCK) -> np.ndarray:
        """Embed rows of X in fixed-size blocks.

        Blocking bounds the size of the (block, D) projection temporary;
        the result is identical for any block size because each row's
        embedding depends only on that row.
        """
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.spec.input_dim:
            raise ShapeError(
                f"expected (n, {self.spec.input_dim}) inputs, got shape {X.shape}"
            )
        if block < 1:
            raise ConfigurationError(f"block must be >= 1, got {block}")
        n = X.shape[0]
        fourier = self.spec.head == "fourier"
        out = np.empty((n, self.embed_dim), dtype=np.float32)
        X32 = X.astype(np.float32, copy=False)
        for start in range(0, n, block):
            stop = min(start + block, n)
            proj = X32[start:stop] @ self.weights.T
            if fourier:
                out[start:stop, 0::2] = np.cos(proj)
                out[start:stop, 1::2] = np.sin(proj)
            else:
                np.maximum(proj, 0.0, out=out[start:stop])
        if fourier:
            out *= np.float32(1.0 / np.sqrt(self.spec.num_bases))
        return out


class RandomReluMap(FeatureMap):
    """The map of a relu-head spec.

    The benchmark's layer trace (``perfbench/spans.py``) times each head
    by wrapping these three names on its own class, so they are bound
    here rather than only inherited.
    """

    __init__ = FeatureMap.__init__
    embed = FeatureMap.embed
    embed_batch = FeatureMap.embed_batch


def build_map(spec: FeatureMapSpec) -> FeatureMap:
    """The frozen map of ``spec``, as the class of its head."""
    return (RandomReluMap if spec.head == "relu" else FeatureMap)(spec)
