"""Outer decomposition of the reverse diffusion into conditional targets.

A schedule slices the reverse process into segments.  Segment k conditions on
the previous output x_prev and targets

    p(z | x_prev)  with energy  g(z) = f_t(z) + ||x_prev - e^(-eta) z||^2 / (2 (1 - e^(-2 eta)))

where f_t = -log p_t at the segment's base time t and eta is the segment
length.  Theory schedules pick eta = eta_for(L) so that the quadratic term
contributes exactly 2L to the Hessian, making g L-strongly log-concave and
3L-smooth whenever ||hess log p_t|| <= L.  Fixed schedules replay an explicit
list of transition times instead (the benchmark setting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .targets import ScoreOracle, _readonly, _time_value

Array = np.ndarray


def eta_for(L: float) -> float:
    """Segment length 0.5 ln((2L+1)/(2L)), so e^(-2 eta)/(1-e^(-2 eta)) = 2L."""
    if not (L > 0):
        raise ValueError("smoothness L must be positive")
    return 0.5 * math.log1p(1.0 / (2.0 * L))


def outer_steps(L: float, dim: int, grad0_norm: float, eps: float) -> int:
    """Segment count ceil(4 L ln(((1+L^2) d + ||grad f(0)||^2) / eps^2)), at least 1."""
    if not (L > 0) or dim < 1 or grad0_norm < 0 or not (eps > 0):
        raise ValueError("need L > 0, dim >= 1, grad0_norm >= 0, eps > 0")
    arg = ((1.0 + L * L) * dim + grad0_norm * grad0_norm) / (eps * eps)
    return max(1, math.ceil(4.0 * L * math.log(arg)))


@dataclass(frozen=True)
class Segment:
    """One reverse step: from time t_base + eta down to t_base."""

    index: int
    t_base: float
    eta: float

    def __post_init__(self):
        if self.t_base < 0 or not (self.eta > 0):
            raise ValueError("segment needs t_base >= 0 and eta > 0")


@dataclass(frozen=True)
class RtkSchedule:
    """Uniform theory schedule: K segments of length eta = eta_for(L)."""

    L: float
    eta: float
    K: int
    T: float

    def __post_init__(self):
        if not (self.L > 0):
            raise ValueError("L must be positive")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if abs(self.eta - eta_for(self.L)) > 1e-12:
            raise ValueError("eta must equal eta_for(L)")
        if abs(self.T - self.K * self.eta) > 1e-12:
            raise ValueError("T must equal K * eta")

    @classmethod
    def theory(cls, L: float, dim: int, grad0_norm: float, eps: float,
               max_outer_steps: int = 64) -> "RtkSchedule":
        if max_outer_steps < 1:
            raise ValueError("max_outer_steps must be >= 1")
        k = min(outer_steps(L, dim, grad0_norm, eps), max_outer_steps)
        eta = eta_for(L)
        return cls(L=L, eta=eta, K=k, T=k * eta)

    @property
    def horizon(self) -> float:
        return self.T

    def segments(self) -> tuple[Segment, ...]:
        return tuple(Segment(k, (self.K - k - 1) * self.eta, self.eta)
                     for k in range(self.K))


@dataclass(frozen=True)
class FixedSchedule:
    """Explicit transition times (ascending, in [0, horizon)).

    times[j] are the base times the reverse chain visits; the chain starts at
    the horizon and steps down through them.  An empty list means zero
    segments (the output is just the N(0, I) initialization).  L is the
    smoothness value fed to the initialization formulas.
    """

    times: tuple
    horizon: float
    L: float

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if not (self.horizon > 0) or not (self.L > 0):
            raise ValueError("horizon and L must be positive")
        if times:
            if times[0] < 0:
                raise ValueError("times must be >= 0")
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("times must be strictly ascending")
            if times[-1] >= self.horizon:
                raise ValueError("times must stay below the horizon")
        object.__setattr__(self, "times", times)

    @property
    def K(self) -> int:
        return len(self.times)

    @property
    def eta(self) -> float:
        segs = self.segments()
        if not segs:
            raise ValueError("empty schedule has no segment length")
        etas = {round(s.eta, 15) for s in segs}
        if len(etas) > 1:
            raise ValueError("segments are not uniform; use per-segment eta")
        return segs[0].eta

    def segments(self) -> tuple[Segment, ...]:
        bounds = list(self.times) + [self.horizon]
        out = []
        for k in range(len(self.times)):
            hi = bounds[len(self.times) - k]
            lo = bounds[len(self.times) - k - 1]
            out.append(Segment(k, lo, hi - lo))
        return tuple(out)


class RtkTarget:
    """Energy, gradient, and difference queries for one segment's target.

    x_prev may be a single point (d,) or a per-chain batch (n, d); z queries
    broadcast accordingly.  All oracle error injection flows through here.
    """

    def __init__(self, oracle: ScoreOracle, t_base: float, eta: float,
                 x_prev: Array, index: int = 0):
        if not (eta > 0):
            raise ValueError("eta must be positive")
        self.oracle = oracle
        self.t_base = _time_value(t_base)
        self.eta = float(eta)
        self.x_prev = _readonly(x_prev)
        if self.x_prev.shape[-1] != oracle.dim:
            raise ValueError("x_prev dimension does not match the oracle")
        self.index = int(index)
        self.decay = math.exp(-self.eta)            # e^(-eta)
        self.denom = -math.expm1(-2.0 * self.eta)   # 1 - e^(-2 eta)
        self.quad_weight = (self.decay * self.decay) / self.denom

    @property
    def dim(self) -> int:
        return self.oracle.dim

    def score(self, z: Array, with_log_density: bool = False):
        """Oracle score at the base time (one score call per row).

        with_log_density also returns log p_t(z) from the same pass, for
        energy_diff's log_p.
        """
        return self.oracle.score(self.t_base, z, with_log_density=with_log_density)

    def grad_energy(self, z: Array, score_value: Array | None = None) -> Array:
        """grad g(z) = -score(t, z) + (e^(-2 eta) z - e^(-eta) x_prev) / (1 - e^(-2 eta))."""
        z = np.asarray(z, dtype=np.float64)
        s = self.score(z) if score_value is None else score_value
        return -s + (self.decay * self.decay * z - self.decay * self.x_prev) / self.denom

    def quadratic_diff(self, z: Array, z2: Array) -> Array:
        """Exact quadratic part of g(z2) - g(z)."""
        z = np.asarray(z, dtype=np.float64)
        z2 = np.asarray(z2, dtype=np.float64)
        a = self.x_prev - self.decay * z2
        b = self.x_prev - self.decay * z
        return ((a * a).sum(axis=-1) - (b * b).sum(axis=-1)) / (2.0 * self.denom)

    def energy_diff(self, z: Array, z2: Array, log_p=None) -> Array:
        """g(z2) - g(z) via the oracle's energy-difference query (zero NFE).

        log_p = (log p_t(z), log p_t(z2)) skips the oracle's log-density
        passes; the energy error and the quadratic part still apply.
        """
        return (self.oracle.energy_difference(self.t_base, z, z2, log_p=log_p)
                + self.quadratic_diff(z, z2))

    def energy(self, z: Array) -> Array:
        """g(z) up to the additive constant -log p_t normalization carries.

        Exact (bypasses [E2] injection); meant for tests and diagnostics.
        """
        z = np.asarray(z, dtype=np.float64)
        quad = ((self.x_prev - self.decay * z) ** 2).sum(axis=-1) / (2.0 * self.denom)
        return -self.oracle.log_density(self.t_base, z) + quad


def make_target(oracle: ScoreOracle, schedule, k: int, x_prev: Array) -> RtkTarget:
    """Target for segment k of the schedule, conditioned on x_prev."""
    segs = schedule.segments()
    if not (0 <= k < len(segs)):
        raise ValueError(f"segment index {k} outside [0, {len(segs)})")
    seg = segs[k]
    return RtkTarget(oracle, seg.t_base, seg.eta, x_prev, index=k)


def energy_hessian(target: RtkTarget, z: Array, step: float = 1e-4) -> Array:
    """Central-difference Hessian of the target energy at a single point z."""
    z = np.asarray(z, dtype=np.float64)
    d = z.shape[-1]
    eye = np.eye(d)
    pts = np.concatenate([z + step * eye, z - step * eye], axis=0)
    grads = target.grad_energy(pts)
    hess = (grads[:d] - grads[d:]) / (2.0 * step)
    return 0.5 * (hess + hess.T)


@dataclass(frozen=True)
class GaussianInit:
    """Isotropic Gaussian initialization N(mean, variance I)."""

    mean: Array
    variance: float

    def __post_init__(self):
        if not (self.variance > 0):
            raise ValueError("variance must be positive")
        object.__setattr__(self, "mean", _readonly(self.mean))

    def sample(self, rng: np.random.Generator, n: int | None = None) -> Array:
        mean = self.mean
        if n is not None and mean.ndim == 1:
            mean = np.broadcast_to(mean, (n, mean.shape[-1]))
        return mean + math.sqrt(self.variance) * rng.standard_normal(mean.shape)


def mala_init(schedule, x_prev: Array, eta: float | None = None,
              L: float | None = None) -> GaussianInit:
    """Gaussian completing the square of exp(-L ||z||^2 - ||x_prev - e^(-eta) z||^2 / (2(1-e^(-2 eta)))).

    With quadratic weight c = e^(-2 eta)/(1 - e^(-2 eta)) this is
    N(x_prev e^(-eta) / ((1-e^(-2 eta)) (2L + c)), 1/(2L + c) I); for theory
    schedules c = 2L, giving variance 1/(4L) and mean (2L+1) e^(-eta) x_prev / (4L).
    L defaults to the schedule's global smoothness; fixed-schedule callers may
    pass the segment's own curvature instead.
    """
    L = schedule.L if L is None else float(L)
    eta = schedule.eta if eta is None else float(eta)
    em2 = math.exp(-2.0 * eta)
    c = em2 / (1.0 - em2)
    a = 2.0 * L + c
    mean = (math.exp(-eta) / (1.0 - em2)) * np.asarray(x_prev, dtype=np.float64) / a
    return GaussianInit(mean, 1.0 / a)


def uld_init(schedule, shape, rng: np.random.Generator,
             eta: float | None = None) -> tuple[Array, Array]:
    """Position/velocity draw N(0, (e^(2 eta) - 1) I) x N(0, I).

    For theory schedules e^(2 eta) - 1 = 1/(2L), matching the scale of the
    segment targets.  shape is the output array shape, e.g. (n, d).
    """
    eta = schedule.eta if eta is None else float(eta)
    z_var = math.expm1(2.0 * eta)
    z = math.sqrt(z_var) * rng.standard_normal(shape)
    v = rng.standard_normal(shape)
    return z, v
