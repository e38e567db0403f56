"""Sample-quality metrics: marginal accuracy, mode masses, second moment.

Each marginal is binned on explicit edges shared by the sample and the
reference, so every comparison is a like-for-like binning; mass falling
outside the edge range is tracked separately and merged into TV as one
extra virtual bin, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .targets import IsotropicGaussianMixture

Array = np.ndarray

__all__ = [
    "MetricsRow",
    "SortedReference",
    "marginal_accuracy",
    "mode_mass",
    "second_moment",
]


def _bin_fractions(col: Array, edges: Array) -> tuple[Array, float]:
    """(fraction per bin, fraction out of range) of a sorted, nonempty column.

    These are np.histogram's explicit-edges counts, by its own binary search
    on sorted data: the last bin holds its right edge, NaN and inf fall
    outside every bin.  A strided column is searched without a copy.
    """
    n = col.size
    counts = np.diff(np.concatenate([col.searchsorted(edges[:-1], "left"),
                                     col.searchsorted(edges[-1:], "right")]))
    return counts / n, float((n - counts.sum()) / n)


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


class SortedReference:
    """A reference sample, (n, d), that owns its array and sorts it once.

    The first metric call sorts the columns in place (no copy); the array is
    then read-only.  A run builds one instance per process.
    """

    def __init__(self, samples: Array):
        self._data = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        self._ranges: list[tuple[float, float]] | None = None

    def sorted_columns(self) -> tuple[Array, list[tuple[float, float]]]:
        """The column-sorted (n, d) array and each column's finite (min, max)."""
        if self._ranges is None:
            self._data.sort(axis=0)
            self._data.setflags(write=False)
            self._ranges = [_finite_range(col) for col in self._data.T]
        return self._data, self._ranges


def marginal_accuracy(samples: Array, reference: SortedReference | Array,
                      bins_per_dim: int = 100) -> float:
    """1 - 0.5 * (mean over dimensions of per-dimension histogram TV).

    Each dimension is binned on bins_per_dim uniform edges over the pooled
    finite range of both columns; NaN and inf entries count as out-of-range
    mass, one extra bin of the TV.  A plain reference array is copied, never
    changed.
    """
    if not isinstance(reference, SortedReference):
        reference = SortedReference(np.array(reference, dtype=np.float64))
    ref, ref_ranges = reference.sorted_columns()
    samples = np.sort(np.atleast_2d(np.asarray(samples, dtype=np.float64)), axis=0)
    if samples.shape[1] != ref.shape[1]:
        raise ValueError("samples and reference dimensions differ")
    if samples.shape[0] == 0 or ref.shape[0] == 0:
        raise ValueError("marginal_accuracy needs nonempty samples and reference")
    tvs = []
    for col, ref_col, (lo_r, hi_r) in zip(samples.T, ref.T, ref_ranges):
        lo_s, hi_s = _finite_range(col)
        edges = _uniform_edges(min(lo_s, lo_r), max(hi_s, hi_r), bins_per_dim)
        mass, oor = _bin_fractions(col, edges)
        ref_mass, ref_oor = _bin_fractions(ref_col, edges)
        tvs.append(float(0.5 * np.abs(mass - ref_mass).sum() + 0.5 * abs(oor - ref_oor)))
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
