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

A map for flip-augmented images is mirror-paired: its spec carries the
image width, W0 is the draw above at D/2 rows, and W = [W0; W0 P], where
P mirrors a flat channel-major image left-right.  Row i + D/2 is row i
mirrored, so (row i + D/2) . Px = (row i) . x: the embedding of a
mirrored image is the embedding of the original with its two halves
swapped, and a flipped copy costs no projection
(``StreamingClassifier.observe`` emits it so).
Each row is still N(0, 2*gamma*I) (or N(0, I)), but only D/2 of them are
independent.  Fourier coordinates 2i, 2i + 1 (rows i) and E/2 + 2i,
E/2 + 2i + 1 (rows i + D/2) pair up when D is even, so a paired
Fourier map needs E % 4 == 0, and a paired relu map an even E.

Embeddings are float32.  The same spec always yields the same matrix,
which is what makes whole runs bit-reproducible.  A map embeds exactly
the rows it is handed, in one projection; callers cut their inputs into
blocks (``harness.BLOCK_ROWS``) to bound the projection temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import sgemm

from .errors import ConfigurationError, ShapeError, check_int, check_real

GENERATOR_NAME = "numpy PCG64, ziggurat standard_normal"

# Entries of W drawn per call: 1 MiB of float64.  The generator yields
# the same sequence however the draw is cut, so W does not depend on it.
DRAW_CHUNK = 1 << 17

HEADS = ("fourier", "relu")


@dataclass(frozen=True)
class FeatureMapSpec:
    """Immutable description of one random map: its head, the input and
    embedding sizes, the seed, and (fourier only) the kernel width."""

    head: str
    input_dim: int
    embed_dim: int
    seed: int
    gamma: float | None = None
    mirror_width: int | None = None

    def __post_init__(self):
        if self.head not in HEADS:
            raise ConfigurationError(f"head must be one of {HEADS}, got {self.head!r}")
        check_int("input_dim", self.input_dim, 1)
        # the fourier head words its own lower bound, below
        check_int("embed_dim", self.embed_dim, None if self.head == "fourier" else 1)
        check_int("seed", self.seed, 0)
        if self.gamma is not None:
            check_real("gamma", self.gamma)
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
        elif self.gamma is not None:
            raise ConfigurationError(f"the relu head takes no gamma, got {self.gamma}")
        if self.mirror_width is not None:
            self._check_pairing()

    def _check_pairing(self) -> None:
        width = self.mirror_width
        check_int("mirror_width", width, 1)
        if self.input_dim % width != 0:
            raise ConfigurationError(
                f"mirror_width must divide input_dim {self.input_dim}, got {width}"
            )
        # rows i and i + D/2 must land in the two halves of the embedding
        multiple = 4 if self.head == "fourier" else 2
        if self.embed_dim % multiple != 0:
            raise ConfigurationError(
                f"--embed-dim {self.embed_dim} cannot be split into mirror pairs: a "
                f"flip run's {self.head} map needs --embed-dim divisible by {multiple} "
                f"(or --no-augment)"
            )

    @property
    def num_bases(self) -> int:
        """Rows of the random matrix: E/2 frequencies or E projections."""
        return self.embed_dim // 2 if self.head == "fourier" else self.embed_dim


def mirror_pixels(rows: np.ndarray, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """P applied to each row: a flat channel-major image mirrored
    left-right, every run of ``width`` entries reversed.  Written into
    ``out`` (a new array by default), which must not overlap ``rows``."""
    if out is None:
        out = np.empty_like(rows)
    out.reshape(len(rows), -1, width)[:] = rows.reshape(len(rows), -1, width)[..., ::-1]
    return out


class FeatureMap:
    """A frozen random map: a spec and the weight matrix it determines."""

    def __init__(self, spec: FeatureMapSpec):
        self.spec = spec
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        self.weights = np.empty((spec.num_bases, spec.input_dim), dtype=np.float32)
        drawn = self.weights
        if spec.mirror_width is not None:
            drawn = self.weights[: spec.num_bases // 2]
        # Drawn in float64 one chunk at a time, in row-major order, so the
        # build holds W plus one chunk rather than a float64 copy of W.
        flat = drawn.reshape(-1)
        buffer = np.empty(min(DRAW_CHUNK, flat.size))
        for start in range(0, flat.size, DRAW_CHUNK):
            chunk = rng.standard_normal(out=buffer[: flat.size - start])
            if spec.head == "fourier":
                chunk *= np.sqrt(2.0 * spec.gamma)
            flat[start : start + len(chunk)] = chunk
        if spec.mirror_width is not None:
            mirror_pixels(drawn, spec.mirror_width, out=self.weights[len(drawn):])

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

    def embed_batch(self, X: np.ndarray) -> np.ndarray:
        """Embed the rows of X in one projection; returns float32 (n, E).

        Each row's embedding depends only on that row.  At the sizes the
        tests and the benchmark run, all with D d >= 2^20, its bits do not
        depend on which block carried it either, a block of one included;
        a smaller product can take OpenBLAS's small-matrix kernels, whose
        rounding differs in the last bits.  The (n, D) projection
        temporary is the caller's to bound.
        """
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.spec.input_dim:
            raise ShapeError(
                f"expected (n, {self.spec.input_dim}) inputs, got shape {X.shape}"
            )
        # X W^T, computed as (W X^T)^T in scipy's BLAS: both operands and
        # the result are F-contiguous views, so f2py copies nothing.
        X = X.astype(np.float32, copy=False)
        proj = sgemm(1.0, self.weights.T, X.T, trans_a=1).T
        if self.spec.head == "relu":
            return np.maximum(proj, 0.0, out=proj)
        out = np.empty((len(X), self.embed_dim), dtype=np.float32)
        np.cos(proj, out=out[:, 0::2])
        np.sin(proj, out=out[:, 1::2])
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
