"""Exact sampling of fractional Gaussian noise increments.

The default sampler embeds the n x n Toeplitz covariance in a circulant of
size 2m (m a power of two >= n), diagonalizes it with one FFT, and colours
complex white noise; for this covariance family the embedding eigenvalues are
nonnegative, so the draw is exact, O(n log n), and cheap enough for the
Monte Carlo experiments.  A dense Cholesky sampler is kept as the independent
cross-check of that route; nothing falls back to it, and a failed embedding
raises ``EmbeddingError``.

Paths carry their spacing: increments are spacing^h times unit-spacing noise,
so a path over [0, 1] on n points uses spacing 1/n.  ``rescale`` undoes the
spacing factor to recover the unit-variance increments the limit theorems are
stated for.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import IO, Iterable, Optional, Union

import numpy as np

from .symbols import _hurst_value, autocov_seq
from .toeplitz import toeplitz_matrix

__all__ = [
    "FgnPath", "RescaledSample", "EmbeddingError", "embedding_eigenvalues",
    "sample_fgn", "sample_fgn_cholesky", "rescale", "replicate_rng",
    "write_path_csv", "read_path_csv",
]

_EIG_TOL = -1e-9


class EmbeddingError(RuntimeError):
    """Circulant embedding produced a materially negative eigenvalue."""


@dataclass(frozen=True)
class FgnPath:
    """Sampled increments together with the parameters that produced them."""
    increments: np.ndarray
    h: float
    spacing: float
    seed: Optional[int] = None

    def __post_init__(self):
        inc = np.ascontiguousarray(self.increments, dtype=float)
        if inc.ndim != 1 or inc.size < 1:
            raise ValueError("increments must be a nonempty vector")
        if not np.all(np.isfinite(inc)):
            raise ValueError("increments must be finite")
        if not (0.0 < self.spacing):
            raise ValueError("spacing must be positive")
        _hurst_value(self.h)
        object.__setattr__(self, "increments", inc)

    @property
    def n(self) -> int:
        return self.increments.size


@dataclass(frozen=True)
class RescaledSample:
    """Unit-spacing increments xi = spacing^{-h} * y used by limit statements."""
    values: np.ndarray
    h: float


def replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent stream for replicate ``index`` of an experiment.

    Spawning from the pair keeps replicates independent and reproducible
    without coordinating state across them.
    """
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(index)]))


def _embedding_size(n: int) -> int:
    return 1 << max(1, int(math.ceil(math.log2(n))))


def embedding_eigenvalues(h, n: int, m: Optional[int] = None):
    """Eigenvalues of the circulant embedding of the order-n covariance.

    Returns (eigs, m) with the circulant of size 2m.  Tiny negative values
    (roundoff) are clipped to zero; anything below -1e-9 raises, since the
    colouring step would then be sampling from the wrong law.
    """
    hv = _hurst_value(h)
    if m is None:
        m = _embedding_size(n)
    if m < n:
        raise ValueError("embedding half-size must be at least n")
    gam = autocov_seq(hv, m + 1).gammas
    first_row = np.concatenate([gam, gam[m - 1:0:-1]])
    eigs = np.fft.fft(first_row).real
    worst = eigs.min()
    if worst < _EIG_TOL:
        raise EmbeddingError(
            f"circulant embedding of size {2 * m} has eigenvalue {worst:.3e}")
    return np.maximum(eigs, 0.0), m


def _unit_fgn_circulant(hv: float, n: int, rng: np.random.Generator) -> np.ndarray:
    eigs, m = embedding_eigenvalues(hv, n)
    # Hermitian-symmetric complex white noise; endpoints are real
    w = np.empty(2 * m, dtype=complex)
    w[0] = rng.standard_normal()
    w[m] = rng.standard_normal()
    u = rng.standard_normal(m - 1)
    v = rng.standard_normal(m - 1)
    w[1:m] = (u + 1j * v) / math.sqrt(2.0)
    w[m + 1:] = np.conj(w[m - 1:0:-1])
    z = np.fft.ifft(np.sqrt(eigs) * w)
    return math.sqrt(2 * m) * z.real[:n]


def _cholesky_factor(hv: float, n: int) -> np.ndarray:
    """Exact lower-triangular factor of the n x n covariance for Hurst hv."""
    return np.linalg.cholesky(toeplitz_matrix(autocov_seq(hv, n).gammas))


def _unit_fgn_cholesky(hv: float, n: int, rng: np.random.Generator) -> np.ndarray:
    return _cholesky_factor(hv, n) @ rng.standard_normal(n)


def _resolve_rng(rng, seed):
    if rng is not None and seed is not None:
        raise ValueError("pass either rng or seed, not both")
    if rng is not None:
        return rng, None
    if seed is not None:
        return np.random.default_rng(int(seed)), int(seed)
    return np.random.default_rng(), None


def _sample(unit_draw, h, n, spacing, rng, seed) -> FgnPath:
    # the checks and scaling both samplers share; unit_draw(hv, n, gen)
    # returns unit-spacing increments
    hv = _hurst_value(h)
    if n < 1:
        raise ValueError("need at least one increment")
    if spacing is None:
        spacing = 1.0 / n
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    gen, used_seed = _resolve_rng(rng, seed)
    return FgnPath(spacing ** hv * unit_draw(hv, n, gen), hv, spacing, used_seed)


def sample_fgn(h, n: int, *, spacing: Optional[float] = None,
               rng: Optional[np.random.Generator] = None,
               seed: Optional[int] = None) -> FgnPath:
    """One exact draw of n fractional Gaussian noise increments.

    ``spacing`` defaults to 1/n (a path over the unit interval); increments
    scale as spacing^h.
    """
    return _sample(_unit_fgn_circulant, h, n, spacing, rng, seed)


def sample_fgn_cholesky(h, n: int, *, spacing: Optional[float] = None,
                        rng: Optional[np.random.Generator] = None,
                        seed: Optional[int] = None) -> FgnPath:
    """Dense O(n^3) sampler; independent of the FFT route, the cross-check of
    it.  ``sample_fgn`` never falls back to it."""
    return _sample(_unit_fgn_cholesky, h, n, spacing, rng, seed)


def rescale(path: FgnPath) -> RescaledSample:
    """Undo the spacing factor: xi = spacing^{-h} * increments has the
    unit-spacing covariance whatever the sampling resolution."""
    return RescaledSample(path.increments * path.spacing ** (-path.h), path.h)


_HEADER_RE = re.compile(
    r"#\s*fgn\s+h=(?P<h>\S+)\s+n=(?P<n>\d+)\s+spacing=(?P<spacing>\S+)"
    r"\s+seed=(?P<seed>\S+)\s*$")


def write_path_csv(path: FgnPath, stream: Union[str, IO[str]]) -> None:
    """One increment per line under a '# fgn h=.. n=.. spacing=.. seed=..'
    header; floats use repr so the round trip is bitwise."""
    own = isinstance(stream, str)
    fh = open(stream, "w") if own else stream
    try:
        seed = "none" if path.seed is None else str(path.seed)
        fh.write(f"# fgn h={path.h!r} n={path.n} spacing={path.spacing!r} seed={seed}\n")
        for val in path.increments:
            fh.write(f"{float(val)!r}\n")
    finally:
        if own:
            fh.close()


def _parse_lines(lines: Iterable[str]) -> FgnPath:
    it = iter(lines)
    try:
        header = next(it)
    except StopIteration:
        raise ValueError("empty path file") from None
    match = _HEADER_RE.match(header.strip())
    if match is None:
        raise ValueError(f"line 1: malformed path header: {header.strip()!r}")
    h = float(match["h"])
    n = int(match["n"])
    spacing = float(match["spacing"])
    seed = None if match["seed"] == "none" else int(match["seed"])
    values = []
    for lineno, line in enumerate(it, start=2):
        if not line.strip():
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ValueError(
                f"line {lineno}: not a number: {line.strip()!r}") from None
    if len(values) != n:
        raise ValueError(f"header promises {n} increments, file has {len(values)}")
    return FgnPath(np.asarray(values), h, spacing, seed)


def read_path_csv(stream: Union[str, IO[str]]) -> FgnPath:
    own = isinstance(stream, str)
    fh = open(stream) if own else stream
    try:
        return _parse_lines(fh)
    finally:
        if own:
            fh.close()
