"""Sample-quality metrics: histogram TV, marginal accuracy, mode masses.

Histograms use shared explicit edges so every comparison is a like-for-like
binning; mass falling outside the edge range is tracked separately and
merged into TV as one extra virtual bin, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .targets import IsotropicGaussianMixture

Array = np.ndarray

__all__ = [
    "ConditionalHistogram",
    "Histogram1D",
    "MetricsRow",
    "conditional_histogram",
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
        x = np.asarray(x, dtype=np.float64).ravel()
        edges = np.asarray(edges, dtype=np.float64)
        n = x.size
        if n == 0:
            return cls(edges, np.zeros(edges.size - 1), 0.0, 0)
        counts, _ = np.histogram(x, bins=edges)
        mass = counts / n
        return cls(edges, mass, float((n - counts.sum()) / n), n)


def _finite_range(x: Array) -> tuple[float, float]:
    """(min, max) over the finite entries; (inf, -inf) when there are none."""
    lo, hi = np.min(x, initial=np.inf), np.max(x, initial=-np.inf)
    if np.isfinite(lo) and np.isfinite(hi):  # no NaN or inf: no copy needed
        return lo, hi
    finite = x[np.isfinite(x)]
    return np.min(finite, initial=np.inf), np.max(finite, initial=-np.inf)


def pooled_edges(a: Array, b: Array, bins: int) -> Array:
    """Uniform edges spanning the pooled finite min/max of both sample sets.

    NaN and inf entries are left out of the range, so they fall in a
    histogram's out_of_range mass.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    (lo_a, hi_a), (lo_b, hi_b) = _finite_range(np.asarray(a)), _finite_range(np.asarray(b))
    lo, hi = min(lo_a, lo_b), max(hi_a, hi_b)
    if not (hi >= lo):  # no finite entry on either side
        lo = hi = 0.0
    if not (hi > lo):
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, bins + 1)


def histogram_tv(a: Array, b: Array, edges: Array) -> float:
    """Total variation between two samples binned on shared edges.

    0.5 sum |mass_a - mass_b| + 0.5 |oor_a - oor_b|, in [0, 1].
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("histogram_tv needs nonempty samples on both sides")
    ha = Histogram1D.from_samples(a, edges)
    hb = Histogram1D.from_samples(b, edges)
    return float(0.5 * np.abs(ha.mass - hb.mass).sum()
                 + 0.5 * abs(ha.out_of_range - hb.out_of_range))


def marginal_accuracy(samples: Array, reference: Array, bins_per_dim: int = 100) -> float:
    """1 - 0.5 * (mean over dimensions of per-dimension histogram TV)."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    reference = np.atleast_2d(np.asarray(reference, dtype=np.float64))
    if samples.shape[1] != reference.shape[1]:
        raise ValueError("samples and reference dimensions differ")
    tvs = []
    for j in range(samples.shape[1]):
        edges = pooled_edges(samples[:, j], reference[:, j], bins_per_dim)
        tvs.append(histogram_tv(samples[:, j], reference[:, j], edges))
    return float(1.0 - 0.5 * np.mean(tvs))


@dataclass(frozen=True)
class ConditionalHistogram:
    """Histogram of one coordinate restricted by a window on another."""

    histogram: Histogram1D
    retained_fraction: float

    @property
    def empty(self) -> bool:
        return self.histogram.empty


def conditional_histogram(samples: Array, cond_dim: int, low: float, high: float,
                          target_dim: int, bins: int = 100,
                          edges: Array | None = None) -> ConditionalHistogram:
    """Histogram of samples[:, target_dim] where samples[:, cond_dim] in (low, high).

    The window is open on both sides.  An empty selection yields a flagged
    empty histogram rather than an error.
    """
    if not (low < high):
        raise ValueError("low must be below high")
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    col = samples[:, cond_dim]
    keep = (col > low) & (col < high)
    kept = samples[keep, target_dim]
    retained = kept.size / samples.shape[0] if samples.shape[0] else 0.0
    if kept.size == 0:
        hist = Histogram1D(np.array([0.0, 1.0]) if edges is None else edges,
                           np.zeros(1 if edges is None else len(edges) - 1), 0.0, 0)
        return ConditionalHistogram(hist, retained)
    if edges is None:
        edges = pooled_edges(kept, kept, bins)
    return ConditionalHistogram(Histogram1D.from_samples(kept, edges), retained)


def mode_mass(samples: Array, mix: IsotropicGaussianMixture) -> Array:
    """Fraction of samples nearest (Euclidean) to each component mean."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    diff = samples[:, None, :] - mix.means[None, :, :]
    nearest = np.argmin((diff * diff).sum(axis=-1), axis=1)
    return np.bincount(nearest, minlength=mix.n_components) / samples.shape[0]


def second_moment(samples: Array) -> float:
    """Mean of ||x||^2 over rows."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] == 0:
        raise ValueError("second_moment needs at least one sample")
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
