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
(``StreamingClassifier.observe`` emits it so, or on an inner-product
model folds the pair into its symmetric half, below).
Each row is still N(0, 2*gamma*I) (or N(0, I)), but only D/2 of them are
independent.  Fourier coordinates 2i, 2i + 1 (rows i) and E/2 + 2i,
E/2 + 2i + 1 (rows i + D/2) pair up when D is even, so a paired
Fourier map needs E % 4 == 0, and a paired relu map an even E.

A paired map does not store W.  For each mirror pair of columns
(j, j' = P(j)) of an image row, with u = x_j + x_j', v = x_j - x_j',
p = (a_j + a_j') / 2 and q = (a_j - a_j') / 2 over the columns a of W0,

    W0 x = A u + B v,    W0 P x = A u - B v,

where A holds the p columns and B the q columns, each (D/2) x (d/2).
At an odd width the middle column is its own mirror: it goes whole into
A (p = a_m, u = x_m) and has no column in B.  The map stores A and B,
half the bytes of W, and projects [S, T] with S = A u and T = B v: half
the multiply-adds of W x.  The nonlinearity then takes [S + T, S - T],
which is W x.  Px has the same u and the opposite v, so its S is the
same and its T is -T to the bit, and the half swap is exact.

A Fourier map's flip pair (phi_1, phi_2) and (phi_2, phi_1), phi_1 and
phi_2 the two halves, is in the orthogonal basis s = (phi_1 + phi_2)/sqrt(2),
a = (phi_1 - phi_2)/sqrt(2) the two rows (s, a) and (s, -a).  By the
product-to-sum identities s = sqrt(2) [cos S cos T, sin S cos T] / sqrt(D),
interleaved as phi is: three transcendentals per frequency pair instead
of four (``activate_symmetric``).

Embeddings are float32.  The same spec always yields the same weights,
which is what makes whole runs bit-reproducible.  A map embeds exactly
the rows it is handed, in one projection (``project``) followed by the
nonlinearity (``activate``); callers cut their inputs into blocks
(``harness.BLOCK_ROWS``) to bound the projection temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator

from .errors import ConfigurationError, ShapeError, check_int, check_real
from .kernels import sgemm

GENERATOR_NAME = "numpy PCG64, ziggurat standard_normal"

# Entries of W drawn per call: 1 MiB of float64 (whole image rows of W0,
# at most that, on a paired map).  The generator yields the same sequence
# however the draw is cut, so the weights do not depend on it.
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
    """A frozen random map: a spec and the weights it determines, W for
    an unpaired spec, A and B for a paired one (module docstring)."""

    def __init__(self, spec: FeatureMapSpec):
        self.spec = spec
        rng = Generator(PCG64(spec.seed))
        width = spec.mirror_width
        rows = spec.num_bases if width is None else spec.num_bases // 2
        self.weights = self.sum_weights = self.diff_weights = None
        if width is None:
            self.weights = np.empty((rows, spec.input_dim), dtype=np.float32)
        else:
            half, runs = width // 2, spec.input_dim // width
            self.sum_weights = np.empty((rows, runs * (width - half)), dtype=np.float32)
            self.diff_weights = np.empty((rows, runs * half), dtype=np.float32)
        # Drawn in float64 one chunk at a time, in row-major order, so the
        # build holds the stored weights plus one chunk rather than a
        # float64 copy of them.  A paired map's chunks are whole image
        # rows of W0, which fold into A and B on their own.
        size = rows * spec.input_dim
        unit = width or 1
        step = max(unit, DRAW_CHUNK - DRAW_CHUNK % unit)
        buffer = np.empty(min(step, size))
        for start in range(0, size, step):
            chunk = rng.standard_normal(out=buffer[: size - start])
            if spec.head == "fourier":
                chunk *= np.sqrt(2.0 * spec.gamma)
            if width is None:
                self.weights.reshape(-1)[start : start + len(chunk)] = chunk
            else:
                self._fold(start // width, chunk.reshape(-1, width))

    def _fold(self, first: int, runs: np.ndarray) -> None:
        """Fold image rows ``first``, ``first + 1``, ... of W0 (float64,
        one per row of ``runs``) into A and B: p = (a_j + a_j') / 2 and
        q = (a_j - a_j') / 2 of the float32 entries, and a middle column
        whole into A."""
        width = runs.shape[1]
        half = width // 2
        total = self.sum_weights.size // (width - half)
        sums = self.sum_weights.reshape(total, width - half)[first : first + len(runs)]
        diffs = self.diff_weights.reshape(total, half)[first : first + len(runs)]
        left, right = runs[:, :half], runs[:, ::-1][:, :half]
        np.add(left, right, out=sums[:, :half], dtype=np.float32)
        sums[:, :half] *= 0.5
        sums[:, half:] = runs[:, half : width - half]
        np.subtract(left, right, out=diffs, dtype=np.float32)
        diffs *= 0.5

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
        """Embed the rows of X; returns float32 (n, E): ``activate`` of
        ``project``.

        Each row's embedding depends only on that row.  Its bits do not
        depend on which block carried it either, as long as every product
        of the block has M N K > 10^6 (M and K the rows and columns of
        W, A or B, N the block's rows): below that OpenBLAS takes a
        small-matrix kernel, whose rounding differs in the last bits.  An
        unpaired map with D d > 10^6 is past it at any block, one row
        included.  A paired map's products are (D/2)(d/2), so a block of
        one can fall below it where the whole block does not: at
        D = 1024, d = 3072 a row embedded alone differs in its last bits
        from the same row in a 256-row block, while a 44-row block
        matches.  A run cuts its stream and test split at the same places
        every time, so its bits, and a resumed run's, stay fixed.  A call
        allocates the projection, a few times (n, D) and on a paired map
        about (n, d/2) for the sums and differences, and the float32
        (n, E) result (on relu, the projection itself); the caller bounds
        n.  Evaluation does not call this: ``predict_batch`` projects a
        block and activates it a slice of rows at a time, so it holds the
        block's projection and one slice, never the block's embedding.
        """
        proj = self.project(X)
        if self.spec.head == "relu":
            return self.activate(proj, proj)
        return self.activate(proj, np.empty((len(proj), self.embed_dim), dtype=np.float32))

    def project(self, X: np.ndarray) -> np.ndarray:
        """The rows of X cast to float32 and projected in one call:
        float32 (n, D), Wx per row ([S, T] on a paired map, whose
        [S + T, S - T] is [W0 x, W0 P x])."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.spec.input_dim:
            raise ShapeError(
                f"expected (n, {self.spec.input_dim}) inputs, got shape {X.shape}"
            )
        X = X.astype(np.float32, copy=False)
        return self._project(X) if self.weights is None else _sgemm(self.weights, X)

    def activate(self, proj: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The head's nonlinearity on ``proj``, float32 (n, D) from
        ``project``, written into ``out``, float32 (n, E), and returned:
        the cosine/sine pairs scaled by 1/sqrt(D), or relu, where ``out``
        may be ``proj``.  A paired map's [S, T] is first formed into
        [S + T, S - T] in a float32 (n, D) temporary."""
        if self.weights is None:
            half = proj.shape[1] // 2
            S, T = proj[:, :half], proj[:, half:]
            proj = np.empty_like(proj)
            np.add(S, T, out=proj[:, :half])
            np.subtract(S, T, out=proj[:, half:])
        if self.spec.head == "relu":
            return np.maximum(proj, 0.0, out=out)
        np.cos(proj, out=out[:, 0::2])
        np.sin(proj, out=out[:, 1::2])
        out *= np.float32(1.0 / np.sqrt(self.spec.num_bases))
        return out

    def activate_symmetric(self, proj: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The symmetric half s = (phi_1 + phi_2)/sqrt(2) of a paired
        Fourier map's [S, T], float32 (n, D), written into ``out``,
        float32 (n, E/2), and returned:
        sqrt(2) [cos S cos T, sin S cos T] / sqrt(D), interleaved as phi
        (module docstring).  A flip pair's two rows share it."""
        half = proj.shape[1] // 2
        S, T = proj[:, :half], proj[:, half:]
        np.cos(S, out=out[:, 0::2])
        np.sin(S, out=out[:, 1::2])
        cos_t = np.cos(T)
        cos_t *= np.float32(np.sqrt(2.0 / self.spec.num_bases))
        out[:, 0::2] *= cos_t
        out[:, 1::2] *= cos_t
        return out

    def _project(self, X: np.ndarray) -> np.ndarray:
        """[S, T] for each row x of X, S = A u and T = B v, u and v the
        sums and differences of each mirror pair of columns (a middle
        column goes whole into u)."""
        width = self.spec.mirror_width
        half = width // 2
        runs = X.reshape(-1, width)
        left, right = runs[:, :half], runs[:, ::-1][:, :half]
        A, B = self.sum_weights, self.diff_weights
        # v overwrites u once s is formed: one (n, about d/2) temporary
        pairs = np.empty(len(runs) * (width - half), dtype=np.float32)
        u = pairs.reshape(len(runs), width - half)
        np.add(left, right, out=u[:, :half])
        u[:, half:] = runs[:, half : width - half]
        s = _sgemm(A, pairs.reshape(len(X), A.shape[1]))
        v = pairs[: len(runs) * half].reshape(len(runs), half)
        np.subtract(left, right, out=v)
        t = _sgemm(B, v.reshape(len(X), B.shape[1]))
        return np.concatenate([s, t], axis=1)


def _sgemm(weights: np.ndarray, X: np.ndarray) -> np.ndarray:
    """X weights^T, computed as (weights X^T)^T in scipy's BLAS: both
    operands and the result are F-contiguous views, so f2py copies
    nothing."""
    return sgemm(1.0, weights.T, X.T, trans_a=1).T


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
