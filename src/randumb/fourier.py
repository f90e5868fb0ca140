"""Random Fourier feature embedding.

Projects d-dimensional inputs onto D random frequencies drawn from
N(0, 2*gamma*I) and emits interleaved cosine/sine pairs scaled by
1/sqrt(D), so that inner products of embeddings approximate the
Gaussian kernel exp(-gamma * ||x - y||^2).  The embedding dimension is
E = 2*D.

Frequencies are sampled once from a seeded PCG64 generator (numpy's
``standard_normal``, ziggurat method) and stored as float32; embeddings
are float32.  The same (seed, d, D, gamma) always yields the same bases,
which is what makes whole runs bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError

GENERATOR_NAME = "numpy PCG64, ziggurat standard_normal"

_DEFAULT_BLOCK = 256


@dataclass(frozen=True)
class FeatureMapSpec:
    """Immutable description of one random embedding.

    num_bases is the frequency count D; the output embedding has 2*D
    entries (a cosine and a sine per frequency).
    """

    input_dim: int
    num_bases: int
    gamma: float
    seed: int

    def __post_init__(self):
        if self.input_dim < 1:
            raise ConfigurationError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_bases < 1:
            raise ConfigurationError(f"num_bases must be >= 1, got {self.num_bases}")
        if not (self.gamma > 0) or not np.isfinite(self.gamma):
            raise ConfigurationError(f"gamma must be finite and > 0, got {self.gamma}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    @property
    def embed_dim(self) -> int:
        return 2 * self.num_bases


def num_bases_for_embed_dim(embed_dim: int) -> int:
    """Map a public embedding size E to the frequency count D = E/2.

    Odd sizes cannot be split into cos/sin pairs and are rejected.
    """
    if embed_dim < 2 or embed_dim % 2 != 0:
        raise ConfigurationError(
            f"embedding size must be a positive even number (one cosine and "
            f"one sine per frequency), got {embed_dim}"
        )
    return embed_dim // 2


class FeatureMap:
    """A frozen random embedding: a spec and the frequency matrix it
    determines.

    The (num_bases, input_dim) matrix has rows drawn independently from
    N(0, 2*gamma*I): standard normals from PCG64 scaled by
    sqrt(2*gamma), stored float32.
    """

    def __init__(self, spec: FeatureMapSpec):
        self.spec = spec
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        omegas = rng.standard_normal((spec.num_bases, spec.input_dim))
        omegas *= np.sqrt(2.0 * spec.gamma)
        self.omegas = omegas.astype(np.float32)

    @property
    def embed_dim(self) -> int:
        return self.spec.embed_dim

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Embed one input vector; returns a float32 vector of length 2*D."""
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
        out = np.empty((n, self.embed_dim), dtype=np.float32)
        inv_sqrt_d = np.float32(1.0 / np.sqrt(self.spec.num_bases))
        X32 = X.astype(np.float32, copy=False)
        for start in range(0, n, block):
            stop = min(start + block, n)
            proj = X32[start:stop] @ self.omegas.T
            out[start:stop, 0::2] = np.cos(proj)
            out[start:stop, 1::2] = np.sin(proj)
        out *= inv_sqrt_d
        return out
