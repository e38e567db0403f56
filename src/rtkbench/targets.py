"""Isotropic Gaussian mixtures under the rate-1 Ornstein-Uhlenbeck flow.

The forward noising process is dx_t = -x_t dt + sqrt(2) dB_t, whose
transition kernel is N(e^(-s) x, (1 - e^(-2s)) I) over a window of length s
and whose stationary law is N(0, I).  An isotropic Gaussian mixture is closed
under this flow: component (w, mu, s2) becomes
(w, mu e^(-t), s2 e^(-2t) + 1 - e^(-2t)).

Everything here is analytic.  ScoreOracle adds optional worst-case error
injection on score and energy-difference queries so samplers can be tested
against imperfect (learned-like) score models.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

Array = np.ndarray

_TIME_QUANTUM = 1e-9  # time resolution used when hashing error-field queries


def _readonly(a: Array) -> Array:
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DiffusionTime:
    """A point on the diffusion clock, optionally tied to a horizon T."""

    t: float
    horizon: float = math.inf

    def __post_init__(self):
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive")
        if not (0.0 <= self.t <= self.horizon):
            raise ValueError(f"time {self.t} outside [0, {self.horizon}]")


def _time_value(t) -> float:
    t = t.t if isinstance(t, DiffusionTime) else float(t)
    if not (t >= 0.0) or not math.isfinite(t):
        raise ValueError(f"diffusion time must be finite and >= 0, got {t}")
    return t


@dataclass(frozen=True)
class IsotropicGaussianMixture:
    """Mixture of isotropic Gaussians sum_k w_k N(mu_k, s2_k I)."""

    weights: Array    # (K,)
    means: Array      # (K, d)
    variances: Array  # (K,)

    def __post_init__(self):
        w = _readonly(self.weights)
        m = _readonly(np.atleast_2d(self.means))
        v = _readonly(self.variances)
        if w.ndim != 1 or v.ndim != 1 or m.ndim != 2:
            raise ValueError("weights (K,), means (K, d), variances (K,) expected")
        if not (w.shape[0] == m.shape[0] == v.shape[0]):
            raise ValueError("component count mismatch between weights/means/variances")
        if w.shape[0] == 0:
            raise ValueError("mixture needs at least one component")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
        if np.any(v <= 0):
            raise ValueError("component variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @classmethod
    def standard_normal(cls, dim: int) -> "IsotropicGaussianMixture":
        return cls(np.ones(1), np.zeros((1, dim)), np.ones(1))

    @classmethod
    def ring(cls, n_components: int, dim: int, radius: float = 1.0,
             variance: float = 0.007) -> "IsotropicGaussianMixture":
        """Equal-weight components on a circle in the first two coordinates."""
        if dim < 2:
            raise ValueError("ring mixture needs dim >= 2")
        angles = 2.0 * np.pi * np.arange(n_components) / n_components
        means = np.zeros((n_components, dim))
        means[:, 0] = radius * np.cos(angles)
        means[:, 1] = radius * np.sin(angles)
        return cls(np.full(n_components, 1.0 / n_components), means,
                   np.full(n_components, variance))

    def second_moment(self) -> float:
        """E ||x||^2 = sum_k w_k (||mu_k||^2 + d s2_k)."""
        return float(np.sum(self.weights * ((self.means ** 2).sum(axis=1)
                                            + self.dim * self.variances)))


def forward_marginal(mix: IsotropicGaussianMixture, t) -> IsotropicGaussianMixture:
    """Mixture representing the law of x_t when x_0 ~ mix."""
    t = _time_value(t)
    decay = math.exp(-t)
    return IsotropicGaussianMixture(
        mix.weights,
        mix.means * decay,
        mix.variances * decay * decay + (1.0 - decay * decay),
    )


def _component_logpdfs(mix: IsotropicGaussianMixture, t, x: Array):
    """Per-component log w_k + log N(x; mu_k(t), v_k(t) I), shape (..., K).

    Squared distances come in GEMM form, ||x||^2 - 2 x.mu^T + ||mu||^2
    clamped at 0, so no (..., K, d) difference tensor is built.  Also
    returns the diffused means (K, d) and variances (K,).
    """
    t = _time_value(t)
    decay = math.exp(-t)
    x = np.asarray(x, dtype=np.float64)
    d = mix.dim
    if x.shape[-1] != d:
        raise ValueError(f"points have dim {x.shape[-1]}, mixture has dim {d}")
    means = mix.means * decay                                   # (K, d)
    var = mix.variances * decay * decay + (1.0 - decay * decay)  # (K,)
    sq = (x * x).sum(axis=-1)[..., None] - 2.0 * (x @ means.T)
    sq += (means * means).sum(axis=-1)
    np.maximum(sq, 0.0, out=sq)
    logw = np.log(mix.weights)
    return logw - 0.5 * d * np.log(2.0 * np.pi * var) - sq / (2.0 * var), means, var


def log_density(mix: IsotropicGaussianMixture, t, x) -> Array | float:
    """log p_t(x) for x of shape (d,) or (n, d)."""
    comp, _, _ = _component_logpdfs(mix, t, x)
    top = comp.max(axis=-1)
    out = top + np.log(np.exp(comp - top[..., None]).sum(axis=-1))
    return float(out) if out.ndim == 0 else out


def score(mix: IsotropicGaussianMixture, t, x, with_log_density: bool = False):
    """grad_x log p_t(x), the exact score of the diffused mixture.

    With with_log_density the same pass also returns log p_t(x), bit-equal
    to log_density(mix, t, x), as a (score, log p) pair.
    """
    x = np.asarray(x, dtype=np.float64)
    comp, means, var = _component_logpdfs(mix, t, x)
    top = comp.max(axis=-1)
    resp = np.exp(comp - top[..., None])
    total = resp.sum(axis=-1)
    resp /= total[..., None]                                     # (..., K)
    w = resp / var
    out = w @ means - w.sum(axis=-1)[..., None] * x
    if not with_log_density:
        return out
    logp = top + np.log(total)
    return out, (float(logp) if logp.ndim == 0 else logp)


def sample_base(mix: IsotropicGaussianMixture, n: int, rng: np.random.Generator) -> Array:
    """n exact draws from the mixture, shape (n, d)."""
    if n < 0:
        raise ValueError("sample count must be >= 0")
    idx = rng.choice(mix.n_components, size=n, p=mix.weights)
    noise = rng.standard_normal((n, mix.dim))
    return mix.means[idx] + np.sqrt(mix.variances[idx])[:, None] * noise


@lru_cache(maxsize=16384)
def _hashed_unit_direction(payload: bytes, dim: int) -> Array:
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    g = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
    vec = g.standard_normal(dim)
    norm = np.linalg.norm(vec)
    while norm == 0.0:  # astronomically unlikely; redraw for safety
        vec = g.standard_normal(dim)
        norm = np.linalg.norm(vec)
    return _readonly(vec / norm)


@lru_cache(maxsize=16384)
def _hashed_sign(payload: bytes) -> float:
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return 1.0 if digest[0] % 2 == 0 else -1.0


@dataclass(frozen=True)
class ScoreOracle:
    """Analytic score/energy queries with optional deterministic error.

    score_error bounds the Euclidean norm of the score perturbation ([E1]);
    energy_error bounds the energy-difference perturbation ([E2]).  Both are
    realized at the bound along a pseudorandom unit direction hashed from
    (error_seed, t, x quantized to error_cell), so repeated queries are
    bit-identical.  error_cell sets the spatial grain of the error field:
    small cells act like frozen white noise, one huge cell gives a single
    systematic direction per query time, the worst case of the error model.

    When every row of a score batch falls in one error cell, the direction
    is hashed once and broadcast; energy-difference rows whose two points
    share a cell get a zero perturbation without being hashed.  Either way
    the result is the same as hashing row by row.  Every score row is meant
    to enter through score(), which is where calls are counted.
    """

    base: IsotropicGaussianMixture
    score_error: float = 0.0
    energy_error: float = 0.0
    error_seed: int = 0
    error_cell: float = 1e-6

    def __post_init__(self):
        if self.score_error < 0 or self.energy_error < 0:
            raise ValueError("error magnitudes must be >= 0")
        if not (self.error_cell > 0):
            raise ValueError("error_cell must be positive")

    @property
    def dim(self) -> int:
        return self.base.dim

    def marginal(self, t) -> IsotropicGaussianMixture:
        return forward_marginal(self.base, t)

    def log_density(self, t, x):
        """Exact log p_t(x); error injection applies to score/energy only."""
        return log_density(self.base, t, x)

    def _cells(self, x: Array) -> np.ndarray:
        return np.round(np.asarray(x, dtype=np.float64) / self.error_cell).astype(np.int64)

    def _key_prefix(self, t: float) -> bytes:
        tq = int(round(_time_value(t) / _TIME_QUANTUM))
        return self.error_seed.to_bytes(8, "little", signed=True) + tq.to_bytes(8, "little", signed=True)

    def _score_perturbation(self, t, x: Array) -> Array:
        cells = self._cells(x)
        prefix = self._key_prefix(t)
        flat = cells.reshape(-1, cells.shape[-1])
        if flat.shape[0] > 0 and (flat == flat[0]).all():
            return self.score_error * _hashed_unit_direction(prefix + flat[0].tobytes(), self.dim)
        out = np.empty((flat.shape[0], self.dim))
        for i, row in enumerate(flat):
            out[i] = _hashed_unit_direction(prefix + row.tobytes(), self.dim)
        return self.score_error * out.reshape(cells.shape[:-1] + (self.dim,))

    def score(self, t, x, with_log_density: bool = False):
        """Score query s_(theta,t)(x), within score_error of the exact score.

        With with_log_density, returns (score, exact log p_t(x)) from one
        mixture pass; the log density carries no error.
        """
        exact = score(self.base, t, x, with_log_density=with_log_density)
        if self.score_error == 0.0:
            return exact
        noise = self._score_perturbation(t, np.asarray(x, dtype=np.float64))
        if with_log_density:
            return exact[0] + noise, exact[1]
        return exact + noise

    def energy_difference(self, t, z, z2, log_p=None):
        """f_t(z2) - f_t(z) with f_t = -log p_t, within energy_error.

        The perturbation is +-energy_error with a hash-derived sign that
        flips under argument swap, so the estimate stays antisymmetric, and
        it vanishes when both points fall in the same error cell (in
        particular for z2 == z).  log_p = (log p_t(z), log p_t(z2)), when the
        caller already holds them from score(..., with_log_density=True),
        replaces the two log-density passes.
        """
        z = np.asarray(z, dtype=np.float64)
        z2 = np.asarray(z2, dtype=np.float64)
        if log_p is None:
            exact = log_density(self.base, t, z) - log_density(self.base, t, z2)
        else:
            exact = log_p[0] - log_p[1]
        if self.energy_error == 0.0:
            return exact
        ca = self._cells(z)
        cb = self._cells(z2)
        prefix = self._key_prefix(t)
        fa = ca.reshape(-1, ca.shape[-1])
        fb = cb.reshape(-1, cb.shape[-1])
        delta = np.zeros(fa.shape[0])
        for i in np.flatnonzero((fa != fb).any(axis=-1)):
            a, b = fa[i].tobytes(), fb[i].tobytes()
            if a < b:
                delta[i] = _hashed_sign(prefix + a + b)
            else:
                delta[i] = -_hashed_sign(prefix + b + a)
        delta = delta.reshape(ca.shape[:-1])
        out = exact + self.energy_error * delta
        return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class SmoothnessEstimate:
    """Probe-based lower estimate of L = sup ||hess log p_t|| with its probes."""

    value: float
    probes: tuple  # tuple of (t, points-array) pairs, for reproducibility
    step: float

    def __float__(self) -> float:
        return self.value


def hessian_log_density(mix: IsotropicGaussianMixture, t, x: Array,
                        step: float = 1e-4) -> Array:
    """Central-difference Hessian of log p_t at points x, shape (..., d, d)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    n, d = pts.shape
    eye = np.eye(d)
    shifted = np.concatenate([pts[:, None, :] + step * eye,
                              pts[:, None, :] - step * eye], axis=1)  # (n, 2d, d)
    s = score(mix, t, shifted.reshape(n * 2 * d, d)).reshape(n, 2, d, d)
    hess = (s[:, 0] - s[:, 1]) / (2.0 * step)       # rows: d/dx_j of score
    hess = 0.5 * (hess + np.swapaxes(hess, 1, 2))   # symmetrize
    return hess[0] if single else hess


def estimate_smoothness(oracle: ScoreOracle | IsotropicGaussianMixture,
                        times: Sequence[float], probes: int,
                        rng: np.random.Generator,
                        step: float = 1e-4) -> SmoothnessEstimate:
    """Max spectral norm of the log-density Hessian over probed (t, x).

    Probes are drawn from the diffused mixture at each time (that is where
    samplers actually evaluate scores) plus the diffused component means.
    This is a lower estimate of the true Lipschitz constant; the probe set is
    returned so downstream checks can reuse exactly the same points.
    """
    mix = oracle.base if isinstance(oracle, ScoreOracle) else oracle
    if probes < 0:
        raise ValueError("probe count must be >= 0")
    worst = 0.0
    probe_sets = []
    for t in times:
        t = _time_value(t)
        marg = forward_marginal(mix, t)
        pts = np.vstack([marg.means, sample_base(marg, probes, rng)])
        hess = hessian_log_density(mix, t, pts, step=step)
        norms = np.abs(np.linalg.eigvalsh(hess)).max(axis=1)
        worst = max(worst, float(norms.max()))
        probe_sets.append((t, _readonly(pts)))
    return SmoothnessEstimate(worst, tuple(probe_sets), step)
