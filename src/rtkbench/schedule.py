"""Outer decomposition of the reverse diffusion into conditional targets.

A schedule slices the reverse process into segments.  Segment k conditions on
the previous output x_prev and targets

    p(z | x_prev)  with energy  g(z) = f_t(z) + ||x_prev - e^(-eta) z||^2 / (2 (1 - e^(-2 eta)))

where f_t = -log p_t at the segment's base time t and eta is the segment
length.  Each segment also carries its curvature L.  Theory schedules
(FixedSchedule.theory) pick eta = eta_for(L) so that the quadratic term
contributes exactly 2L to the Hessian, making g L-strongly log-concave and
3L-smooth whenever ||hess log p_t|| <= L.  The benchmark's fixed schedules
give explicit transition times and a curvature bound per segment instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .targets import ScoreOracle, _readonly, _time_value

Array = np.ndarray

__all__ = [
    "FixedSchedule",
    "GaussianInit",
    "RtkTarget",
    "Segment",
    "energy_hessian",
    "eta_for",
    "make_target",
    "mala_init",
    "outer_steps",
    "uld_init",
]


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
    """One reverse step, from time t_base + eta down to t_base, with curvature L."""

    index: int
    t_base: float
    eta: float
    L: float

    def __post_init__(self):
        if self.t_base < 0 or not (self.eta > 0) or not (self.L > 0):
            raise ValueError("segment needs t_base >= 0, eta > 0 and L > 0")


@dataclass(frozen=True)
class FixedSchedule:
    """Explicit transition times (ascending, in [0, horizon)).

    times[j] are the base times the reverse chain visits; the chain starts at
    the horizon and steps down through them.  An empty list means zero
    segments (the output is just the N(0, I) initialization).  L is the
    curvature of every segment, either one float for all of them or one value
    per segment in segments() order (largest t_base first).
    """

    times: tuple
    horizon: float
    L: float | tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive")
        if times:
            if times[0] < 0:
                raise ValueError("times must be >= 0")
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("times must be strictly ascending")
            if times[-1] >= self.horizon:
                raise ValueError("times must stay below the horizon")
        L = float(self.L) if np.ndim(self.L) == 0 else tuple(float(v) for v in self.L)
        if isinstance(L, tuple) and len(L) != len(times):
            raise ValueError(f"need one L per segment, got {len(L)} for {len(times)} segments")
        if not (np.asarray(L) > 0).all():
            raise ValueError("L must be positive")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "L", L)

    @classmethod
    def theory(cls, L: float, dim: int, grad0_norm: float, eps: float,
               max_outer_steps: int = 64) -> "FixedSchedule":
        """Uniform theory schedule: K = outer_steps(...) segments of length eta_for(L)."""
        if max_outer_steps < 1:
            raise ValueError("max_outer_steps must be >= 1")
        k = min(outer_steps(L, dim, grad0_norm, eps), max_outer_steps)
        eta = eta_for(L)
        return cls(times=tuple(j * eta for j in range(k)), horizon=k * eta, L=L)

    @property
    def K(self) -> int:
        return len(self.times)

    def segments(self) -> tuple[Segment, ...]:
        n = len(self.times)
        bounds = list(self.times) + [self.horizon]
        curvatures = self.L if isinstance(self.L, tuple) else (self.L,) * n
        return tuple(Segment(k, bounds[n - k - 1], bounds[n - k] - bounds[n - k - 1],
                             curvatures[k])
                     for k in range(n))


class RtkTarget:
    """Energy, gradient, and difference queries for one segment's target.

    x_prev may be a single point (d,) or a per-chain batch (n, d); z queries
    broadcast accordingly.  All oracle error injection flows through here.
    """

    def __init__(self, oracle: ScoreOracle, t_base: float, eta: float,
                 x_prev: Array):
        if not (eta > 0):
            raise ValueError("eta must be positive")
        self.oracle = oracle
        self.t_base = _time_value(t_base)
        self.eta = float(eta)
        self.x_prev = _readonly(x_prev)
        if self.x_prev.shape[-1] != oracle.dim:
            raise ValueError("x_prev dimension does not match the oracle")
        self.decay = math.exp(-self.eta)            # e^(-eta)
        self.denom = -math.expm1(-2.0 * self.eta)   # 1 - e^(-2 eta)
        self.quad_weight = (self.decay * self.decay) / self.denom
        self._decay_x_prev = self.decay * self.x_prev

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
        return -s + (self.decay * self.decay * z - self._decay_x_prev) / self.denom

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
    return RtkTarget(oracle, seg.t_base, seg.eta, x_prev)


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

    def sample(self, rng: np.random.Generator) -> Array:
        return self.mean + math.sqrt(self.variance) * rng.standard_normal(self.mean.shape)


def mala_init(seg: Segment, x_prev: Array) -> GaussianInit:
    """Gaussian completing the square of exp(-L ||z||^2 - ||x_prev - e^(-eta) z||^2 / (2(1-e^(-2 eta)))).

    With quadratic weight c = e^(-2 eta)/(1 - e^(-2 eta)) this is
    N(x_prev e^(-eta) / ((1-e^(-2 eta)) (2L + c)), 1/(2L + c) I); for theory
    schedules c = 2L, giving variance 1/(4L) and mean (2L+1) e^(-eta) x_prev / (4L).
    eta and L are the segment's own.
    """
    em2 = math.exp(-2.0 * seg.eta)
    c = em2 / (1.0 - em2)
    a = 2.0 * seg.L + c
    mean = (math.exp(-seg.eta) / (1.0 - em2)) * np.asarray(x_prev, dtype=np.float64) / a
    return GaussianInit(mean, 1.0 / a)


def uld_init(seg: Segment, shape, rng: np.random.Generator) -> tuple[Array, Array]:
    """Position/velocity draw N(0, (e^(2 eta) - 1) I) x N(0, I) for the segment's eta.

    For theory schedules e^(2 eta) - 1 = 1/(2L), matching the scale of the
    segment targets.  shape is the output array shape, e.g. (n, d).
    """
    z_var = math.expm1(2.0 * seg.eta)
    z = math.sqrt(z_var) * rng.standard_normal(shape)
    v = rng.standard_normal(shape)
    return z, v
