"""Sample-quality metrics: histogram TV, marginal accuracy, mode masses.

Histograms use shared explicit edges so every comparison is a like-for-like
binning; mass falling outside the edge range is tracked separately and
merged into TV as one extra virtual bin, never silently dropped.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .targets import IsotropicGaussianMixture

Array = np.ndarray

__all__ = [
    "Histogram1D",
    "MetricsRow",
    "SortedReference",
    "histogram_tv",
    "marginal_accuracy",
    "mode_mass",
    "pooled_edges",
    "second_moment",
]


@dataclass(frozen=True)
class Histogram1D:
    """Binned fractions of a 1-D sample; mass sums to 1 - out_of_range."""

    edges: Array
    mass: Array
    out_of_range: float
    n: int

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64)
        mass = np.asarray(self.mass, dtype=np.float64)
        if edges.ndim != 1 or edges.size < 2 or not (np.diff(edges) > 0).all():
            raise ValueError("edges must be strictly increasing with >= 2 entries")
        if mass.shape != (edges.size - 1,) or (mass < 0).any():
            raise ValueError("mass must be nonnegative with one entry per bin")
        if self.n < 0:
            raise ValueError("sample count cannot be negative")
        if self.n > 0 and abs(mass.sum() + self.out_of_range - 1.0) > 1e-12:
            raise ValueError("mass and out_of_range must sum to 1")
        for name, arr in (("edges", edges), ("mass", mass)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def empty(self) -> bool:
        return self.n == 0

    @classmethod
    def from_samples(cls, x: Array, edges: Array) -> "Histogram1D":
        return cls._from_sorted(np.sort(np.asarray(x, dtype=np.float64), axis=None),
                                np.asarray(edges, dtype=np.float64))

    @classmethod
    def _from_sorted(cls, col: Array, edges: Array) -> "Histogram1D":
        n = col.size
        if n == 0:
            return cls(edges, np.zeros(edges.size - 1), 0.0, 0)
        # np.histogram's explicit-edges counts, by its own binary search on
        # sorted data: the last bin holds its right edge, NaN and inf fall
        # outside every bin.  A strided column is searched without a copy.
        counts = np.diff(np.concatenate([col.searchsorted(edges[:-1], "left"),
                                         col.searchsorted(edges[-1:], "right")]))
        return cls(edges, counts / n, float((n - counts.sum()) / n), n)

    def tv(self, other: "Histogram1D") -> float:
        """0.5 sum |mass - other.mass| + 0.5 |oor - other.oor|, in [0, 1]."""
        return float(0.5 * np.abs(self.mass - other.mass).sum()
                     + 0.5 * abs(self.out_of_range - other.out_of_range))


def _finite_range(col: Array) -> tuple[float, float]:
    """(min, max) over the finite entries of a sorted column; (inf, -inf) if none."""
    i, j = col.searchsorted(-np.inf, "right"), col.searchsorted(np.inf, "left")
    return (col[i], col[j - 1]) if j > i else (np.inf, -np.inf)


def _uniform_edges(lo: float, hi: float, bins: int) -> Array:
    if bins < 1:
        raise ValueError("need at least one bin")
    if not (hi >= lo):  # no finite entry on either side
        lo = hi = 0.0
    if not (hi > lo):
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, bins + 1)


def pooled_edges(a: Array, b: Array, bins: int) -> Array:
    """Uniform edges spanning the pooled finite min/max of both sample sets.

    NaN and inf entries are left out of the range, so they fall in a
    histogram's out_of_range mass.
    """
    (lo_a, hi_a), (lo_b, hi_b) = (_finite_range(np.sort(np.asarray(x), axis=None))
                                  for x in (a, b))
    return _uniform_edges(min(lo_a, lo_b), max(hi_a, hi_b), bins)


def histogram_tv(a: Array, b: Array, edges: Array) -> float:
    """Total variation (Histogram1D.tv) of two samples binned on shared edges."""
    if np.size(a) == 0 or np.size(b) == 0:
        raise ValueError("histogram_tv needs nonempty samples on both sides")
    return Histogram1D.from_samples(a, edges).tv(Histogram1D.from_samples(b, edges))


class SortedReference:
    """A reference sample, (n, d), that owns its array and sorts it once.

    The first metric call sorts the columns in place (no copy) under a lock,
    so threads may share one instance; the array is then read-only.
    """

    def __init__(self, samples: Array):
        self._data = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        self._ranges: list[tuple[float, float]] | None = None
        self._lock = threading.Lock()

    def sorted_columns(self) -> tuple[Array, list[tuple[float, float]]]:
        """The column-sorted (n, d) array and each column's finite (min, max)."""
        with self._lock:
            if self._ranges is None:
                self._data.sort(axis=0)
                self._data.setflags(write=False)
                self._ranges = [_finite_range(col) for col in self._data.T]
        return self._data, self._ranges


def marginal_accuracy(samples: Array, reference: SortedReference | Array,
                      bins_per_dim: int = 100) -> float:
    """1 - 0.5 * (mean over dimensions of per-dimension histogram TV).

    Each dimension is binned on the pooled_edges of both columns.  A plain
    reference array is copied, never changed.
    """
    if not isinstance(reference, SortedReference):
        reference = SortedReference(np.array(reference, dtype=np.float64))
    ref, ref_ranges = reference.sorted_columns()
    samples = np.sort(np.atleast_2d(np.asarray(samples, dtype=np.float64)), axis=0)
    if samples.shape[1] != ref.shape[1]:
        raise ValueError("samples and reference dimensions differ")
    tvs = []
    for col, ref_col, (lo_r, hi_r) in zip(samples.T, ref.T, ref_ranges):
        lo_s, hi_s = _finite_range(col)
        edges = _uniform_edges(min(lo_s, lo_r), max(hi_s, hi_r), bins_per_dim)
        tvs.append(Histogram1D._from_sorted(col, edges)
                   .tv(Histogram1D._from_sorted(ref_col, edges)))
    return float(1.0 - 0.5 * np.mean(tvs))


def mode_mass(samples: Array, mix: IsotropicGaussianMixture) -> Array:
    """Fraction of samples nearest (Euclidean) to each component mean.

    The nearest mean minimizes ||mu||^2 - 2 x.mu, so no sample is squared.
    A row with a NaN or inf entry counts toward component 0.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    means = mix.means
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.einsum("kd,kd->k", means, means) - samples @ (2.0 * means.T)
    nearest = dist.argmin(axis=1)
    nearest[~np.isfinite(dist[:, 0])] = 0
    return np.bincount(nearest, minlength=mix.n_components) / samples.shape[0]


def second_moment(samples: Array) -> float:
    """Mean of ||x||^2 over rows; inf, without a warning, when a square overflows."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] == 0:
        raise ValueError("second_moment needs at least one sample")
    with np.errstate(over="ignore"):
        return float((samples * samples).sum(axis=1).mean())


@dataclass(frozen=True)
class MetricsRow:
    """One benchmark result line; serializes to the fixed CSV schema."""

    method: str
    nfe: int
    seed: int
    marginal_accuracy: float
    second_moment: float
    accept_rate: float
    wall_ms: float
    per_mode_mass: tuple[float, ...] | None = None

    CSV_HEADER = "method,nfe,seed,marginal_accuracy,second_moment,accept_rate,wall_ms"

    def __post_init__(self):
        if not (0.0 <= self.marginal_accuracy <= 1.0):
            raise ValueError("marginal_accuracy must lie in [0, 1]")
        if self.nfe < 0:
            raise ValueError("nfe cannot be negative")

    def csv_row(self) -> str:
        return (f"{self.method},{self.nfe},{self.seed},"
                f"{self.marginal_accuracy:.10g},{self.second_moment:.10g},"
                f"{self.accept_rate:.10g},{self.wall_ms:.10g}")
