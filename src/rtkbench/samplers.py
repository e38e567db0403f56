"""Inner-loop samplers: DDPM baseline, ULA, MALA, projected MALA, and ULD.

Everything runs vectorized over chains: positions are (n, d) arrays and one
Generator drives the whole batch, so a run is a pure function of its inputs
and the seed.  NFE bookkeeping follows the score-call budget convention:
one unit per score query, zero for analytic energy differences, and
2**(u-1) units for each score-only Taylor energy difference of order u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedule import RtkTarget, mala_init, uld_init
from .targets import ScoreOracle

Array = np.ndarray

__all__ = [
    "ChainState",
    "MalaSpec",
    "SegmentTrace",
    "UlaSpec",
    "UldSpec",
    "ddpm_run",
    "default_projection_params",
    "mala_accept_log",
    "mala_run",
    "projected_gate",
    "rtk_run",
    "taylor_energy_diff",
    "ula_run",
    "ula_step",
    "uld_noise_covariance",
    "uld_noise_pair",
    "uld_run",
    "uld_step",
]

# 2^-4 3^-8 7^-2, the constant in the theoretical projected-MALA step size.
PROJECTION_TAU_CONSTANT = 1.0 / (16.0 * 6561.0 * 49.0)

# Below this gamma*tau the closed-form position variance cancels
# catastrophically in float64; switch to its series.
_ULD_SERIES_CUTOFF = 1e-3


@dataclass(frozen=True)
class UlaSpec:
    """Unadjusted Langevin: steps of size tau, no correction."""

    steps: int
    tau: float

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if not (self.tau > 0):
            raise ValueError("tau must be positive")


@dataclass(frozen=True)
class MalaSpec:
    """Metropolis-adjusted Langevin.

    estimator "exact" uses the oracle's energy-difference query; "taylor"
    reconstructs it from scores alone (order taylor_order on a grid of
    spacing taylor_dt; None resolves to sqrt(score_error) or 1e-3 at run
    time).  projected adds the stay-unless-inside B(z, r) & B(0, R) gate.
    """

    steps: int
    tau: float
    projected: bool = False
    radius_R: float = 0.0
    radius_r: float = 0.0
    estimator: str = "exact"
    taylor_order: int = 2
    taylor_dt: float | None = None

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if not (self.tau > 0):
            raise ValueError("tau must be positive")
        if self.projected and not (self.radius_R > self.radius_r > 0):
            raise ValueError("projection needs R > r > 0")
        if self.estimator not in ("exact", "taylor"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.taylor_order < 1:
            raise ValueError("taylor_order must be >= 1")
        if self.taylor_dt is not None and not (self.taylor_dt > 0):
            raise ValueError("taylor_dt must be positive")

    @property
    def step_nfe(self) -> int:
        """Charged score calls per proposal."""
        return 2 ** (self.taylor_order - 1) if self.estimator == "taylor" else 1


@dataclass(frozen=True)
class UldSpec:
    """Underdamped Langevin, exact one-step integration.

    init selects the per-segment initialization inside rtk_run: "gaussian"
    is the zero-centered theory pair, "warm" reuses the MALA completing-
    square Gaussian for positions with fresh standard-normal velocities.
    """

    steps: int
    tau: float
    gamma: float
    init: str = "gaussian"

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if not (self.tau > 0):
            raise ValueError("tau must be positive")
        if not (self.gamma > 0):
            raise ValueError("gamma must be positive")
        if self.init not in ("gaussian", "warm"):
            raise ValueError(f"unknown init {self.init!r}")


class ChainState:
    """Mutable batch of chains plus the counters the contracts track.

    The counters are plain ints summed over the batch, matching the paper's
    cost model of score calls across all chains: nfe is the score rows
    charged, propose_count the proposals made and accept_count those
    accepted.  Chains advance in lockstep, so per-chain NFE is
    nfe // n_chains.
    """

    def __init__(self, positions: Array, rng: np.random.Generator,
                 velocity: Array | None = None):
        self.positions = np.asarray(positions, dtype=np.float64)
        self.velocity = None if velocity is None else np.asarray(velocity, dtype=np.float64)
        self.rng = rng
        self.nfe = 0
        self.accept_count = 0
        self.propose_count = 0
        self.noise_clamps = 0

    @property
    def n_chains(self) -> int:
        return self.positions.shape[0]

    def accept_rate(self) -> float:
        """Pooled acceptance fraction; 1.0 when nothing was proposed."""
        if self.propose_count == 0:
            return 1.0
        return self.accept_count / self.propose_count


def _sqnorm(x: Array) -> Array:
    return (x * x).sum(axis=-1)


def ddpm_run(oracle: ScoreOracle, horizon: float, steps: int, n_chains: int,
             rng: np.random.Generator) -> ChainState:
    """Run the closed-form DDPM reverse chain from N(0, I).

    Per segment of length eta = horizon/steps,
        x <- e^eta x + 2 (e^eta - 1) score(t, x) + sqrt(e^(2 eta) - 1) xi,
    with the score queried at t = horizon - k*eta, k = 0..steps-1, so the
    earliest query time is eta, never 0.
    """
    if steps < 1:
        raise ValueError("DDPM needs at least one step")
    if not (horizon > 0):
        raise ValueError("horizon must be positive")
    dim = oracle.dim
    eta = horizon / steps
    drift = 2.0 * math.expm1(eta)
    grow = math.exp(eta)
    noise = math.sqrt(math.expm1(2.0 * eta))
    state = ChainState(rng.standard_normal((n_chains, dim)), rng)
    x = state.positions
    for k in range(steps):
        t = horizon - k * eta
        s = oracle.score(t, x)
        x = grow * x + drift * s + noise * state.rng.standard_normal(x.shape)
        state.nfe += n_chains
    state.positions = x
    return state


def ula_step(target, state: ChainState, tau: float) -> ChainState:
    """One unadjusted step z <- z - tau grad g(z) + sqrt(2 tau) xi; NFE += n_chains."""
    z = state.positions
    g = target.grad_energy(z)
    state.positions = z - tau * g + math.sqrt(2.0 * tau) * state.rng.standard_normal(z.shape)
    state.nfe += state.n_chains
    return state


def ula_run(target, spec: UlaSpec, state: ChainState) -> ChainState:
    for _ in range(spec.steps):
        ula_step(target, state, spec.tau)
    return state


def mala_accept_log(target, z: Array, z_prop: Array, tau: float, *,
                    grad_z: Array | None = None,
                    grad_prop: Array | None = None,
                    neg_energy_diff: Array | None = None) -> Array:
    """Log MH ratio for the Langevin proposal N(z - tau grad g(z), 2 tau I).

    Returns r_g(z, z_prop) + (||z_prop - z + tau grad g(z)||^2
    - ||z - z_prop + tau grad g(z_prop)||^2) / (4 tau), where r_g estimates
    g(z) - g(z_prop).  neg_energy_diff supplies r_g (e.g. from the Taylor
    estimator); by default the target's exact energy difference is used.
    """
    if not (tau > 0):
        raise ValueError("tau must be positive")
    z = np.asarray(z, dtype=np.float64)
    z_prop = np.asarray(z_prop, dtype=np.float64)
    if grad_z is None:
        grad_z = target.grad_energy(z)
    if grad_prop is None:
        grad_prop = target.grad_energy(z_prop)
    if neg_energy_diff is None:
        neg_energy_diff = -target.energy_diff(z, z_prop)
    fwd = z_prop - z + tau * grad_z
    rev = z - z_prop + tau * grad_prop
    return neg_energy_diff + (_sqnorm(fwd) - _sqnorm(rev)) / (4.0 * tau)


def projected_gate(z: Array, z_prop: Array, r: float, R: float) -> Array:
    """True where the proposal stays within B(z, r) and B(0, R), closed balls."""
    z = np.asarray(z, dtype=np.float64)
    z_prop = np.asarray(z_prop, dtype=np.float64)
    return (_sqnorm(z_prop - z) <= r * r) & (_sqnorm(z_prop) <= R * R)


def default_projection_params(L: float, d: int, m2: float, x0_norm: float,
                              S: int, eps: float) -> tuple[float, float, float]:
    """Theoretical projected-MALA parameters (R, r, tau).

    R = 63 sqrt((d + m2^2 + ||x0||^2) log(16 S / eps)),
    tau = C / (L^2 (d + m2^2 + ||x0||^2) log(16 S / eps)) with
    C = 2^-4 3^-8 7^-2, and r = 3 sqrt(tau d log(8 S / eps)).
    """
    if not (L > 0) or d < 1 or m2 < 0 or x0_norm < 0 or S < 1:
        raise ValueError("invalid projection inputs")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    scale = (d + m2 * m2 + x0_norm * x0_norm) * math.log(16.0 * S / eps)
    R = 63.0 * math.sqrt(scale)
    tau = PROJECTION_TAU_CONSTANT / (L * L * scale)
    r = 3.0 * math.sqrt(tau * d * math.log(8.0 * S / eps))
    return R, r, tau


def taylor_energy_diff(score_fn, z: Array, z2: Array, u: int = 2,
                       dt: float = 1e-3,
                       score_at_z: Array | None = None) -> tuple[Array, int]:
    """Score-only estimate of f(z2) - f(z), plus its charged score calls.

    With h(t) = f(z + t (z2 - z)), the derivative h'(t) = -score(z + t dz) . dz
    is sampled on the grid {0, dt, ..., (u-1) dt}; higher derivatives at 0
    come from the forward-difference pyramid and the estimate is
    sum_{i=1..u} h~(i)(0) / i!.  score_at_z short-circuits the t = 0 query
    when the caller already holds score(z).
    """
    if u < 1:
        raise ValueError("order must be >= 1")
    if not (dt > 0):
        raise ValueError("dt must be positive")
    z = np.asarray(z, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    dz = z2 - z
    level = []
    for j in range(u):
        if j == 0 and score_at_z is not None:
            s = score_at_z
        else:
            s = score_fn(z + (j * dt) * dz)
        level.append(-(s * dz).sum(axis=-1))
    total = level[0]
    factorial = 1.0
    for i in range(2, u + 1):
        level = [(level[j + 1] - level[j]) / dt for j in range(len(level) - 1)]
        factorial *= i
        total = total + level[0] / factorial
    return total, 2 ** (u - 1)


def _resolve_taylor_dt(spec: MalaSpec, oracle: ScoreOracle) -> float:
    if spec.taylor_dt is not None:
        return min(spec.taylor_dt, 1.0)
    if oracle.score_error > 0:
        return min(math.sqrt(oracle.score_error), 1.0)
    return 1e-3


def mala_run(target, spec: MalaSpec, state: ChainState) -> ChainState:
    """Run spec.steps MALA iterations, caching the current-point score.

    The initial score query costs one NFE unit per chain; each subsequent
    proposal costs spec.step_nfe per chain (1 exact, 2^(u-1) score-only).
    The exact estimator also carries log p at the current point, taken from
    the same mixture pass as each score, so a proposal costs one pass.  The
    projected gate, when enabled, masks acceptance after the ordinary draws
    so a gated run replays a standard run bit-for-bit whenever the gate
    never fires.
    """
    if spec.steps == 0:
        return state
    z = state.positions
    rng = state.rng
    tau = spec.tau
    taylor = spec.estimator == "taylor"
    dt = _resolve_taylor_dt(spec, target.oracle) if taylor else 0.0
    if taylor:
        score_z = target.score(z)
    else:
        score_z, logp_z = target.score(z, with_log_density=True)
    grad_z = target.grad_energy(z, score_value=score_z)
    state.nfe += state.n_chains
    root = math.sqrt(2.0 * tau)
    for _ in range(spec.steps):
        noise = rng.standard_normal(z.shape)
        z_prop = z - tau * grad_z + root * noise
        log_u = np.log(rng.random(state.n_chains))
        if taylor:
            score_prop = target.score(z_prop)
            f_diff, _ = taylor_energy_diff(target.score, z, z_prop,
                                           u=spec.taylor_order, dt=dt,
                                           score_at_z=score_z)
            r = -(f_diff + target.quadratic_diff(z, z_prop))
        else:
            score_prop, logp_prop = target.score(z_prop, with_log_density=True)
            r = -target.energy_diff(z, z_prop, log_p=(logp_z, logp_prop))
        grad_prop = target.grad_energy(z_prop, score_value=score_prop)
        log_a = mala_accept_log(target, z, z_prop, tau, grad_z=grad_z,
                                grad_prop=grad_prop, neg_energy_diff=r)
        accept = log_u < log_a
        if spec.projected:
            accept &= projected_gate(z, z_prop, spec.radius_r, spec.radius_R)
        state.propose_count += state.n_chains
        state.accept_count += int(accept.sum())
        state.nfe += spec.step_nfe * state.n_chains
        keep = accept[:, None]
        z = np.where(keep, z_prop, z)
        score_z = np.where(keep, score_prop, score_z)
        grad_z = np.where(keep, grad_prop, grad_z)
        if not taylor:
            logp_z = np.where(accept, logp_prop, logp_z)
    state.positions = z
    return state


def uld_noise_covariance(gamma: float, tau: float) -> tuple[float, float, float, bool]:
    """Per-coordinate covariance (var_z, cov_zv, var_v, clamped) of the ULD noise pair.

    var_z = (2/g)(tau - (2/g)(1 - e^-gt) + (1/(2g))(1 - e^-2gt)),
    cov   = (1/g)(1 - e^-gt)^2,
    var_v = 1 - e^-2gt.
    The var_z closed form loses all precision for gt << 1 and switches to
    its series 2 g tau^3 (1/3 - x/4 + 7x^2/60 - x^3/24); if rounding still
    leaves the 2x2 block indefinite, the off-diagonal is clamped to the PSD
    boundary and flagged.
    """
    if not (gamma > 0) or not (tau > 0):
        raise ValueError("gamma and tau must be positive")
    x = gamma * tau
    one_minus = -math.expm1(-x)
    var_v = -math.expm1(-2.0 * x)
    cov = one_minus * one_minus / gamma
    if x < _ULD_SERIES_CUTOFF:
        var_z = 2.0 * gamma * tau ** 3 * (
            1.0 / 3.0 - x / 4.0 + 7.0 * x * x / 60.0 - x ** 3 / 24.0)
    else:
        var_z = (2.0 / gamma) * (tau - (2.0 / gamma) * one_minus
                                 + var_v / (2.0 * gamma))
    clamped = False
    bound = math.sqrt(max(var_z, 0.0) * var_v)
    if cov > bound:
        cov = bound
        clamped = True
    return var_z, cov, var_v, clamped


def uld_noise_pair(gamma: float, tau: float, rng: np.random.Generator,
                   shape=()) -> tuple[Array, Array, bool]:
    """Draw (xi_z, xi_v) with the integrated OU covariance, coordinates iid."""
    var_z, cov, var_v, clamped = uld_noise_covariance(gamma, tau)
    a = math.sqrt(var_z)
    b = cov / a if a > 0 else 0.0
    c = math.sqrt(max(var_v - b * b, 0.0))
    e1 = rng.standard_normal(shape)
    e2 = rng.standard_normal(shape)
    return a * e1, b * e1 + c * e2, clamped


def uld_step(target, state: ChainState, tau: float, gamma: float) -> ChainState:
    """One exact underdamped update with the gradient frozen over the step.

    z' = z + (1-e^-gt)/g v - (tau - (1-e^-gt)/g)/g grad g(z) + xi_z
    v' = e^-gt v - (1-e^-gt)/g grad g(z) + xi_v
    """
    if state.velocity is None:
        raise ValueError("ULD needs a velocity; initialize the state with one")
    z = state.positions
    v = state.velocity
    grad = target.grad_energy(z)
    x = gamma * tau
    c1 = -math.expm1(-x) / gamma
    xi_z, xi_v, clamped = uld_noise_pair(gamma, tau, state.rng, z.shape)
    state.positions = z + c1 * v - ((tau - c1) / gamma) * grad + xi_z
    state.velocity = math.exp(-x) * v - c1 * grad + xi_v
    state.nfe += state.n_chains
    state.noise_clamps += int(clamped)
    return state


def uld_run(target, spec: UldSpec, state: ChainState) -> ChainState:
    for _ in range(spec.steps):
        uld_step(target, state, spec.tau, spec.gamma)
    return state


@dataclass(frozen=True)
class SegmentTrace:
    """Per-segment acceptance bookkeeping from an RTK run."""

    index: int
    t_base: float
    steps: int
    accepts: int
    proposals: int


def rtk_run(oracle: ScoreOracle, schedule, specs, n_chains: int,
            rng: np.random.Generator) -> tuple[ChainState, list[SegmentTrace]]:
    """Outer annealing loop: from N(0, I) through each segment's target.

    specs is a single inner spec applied to every segment or a per-segment
    sequence ordered like schedule.segments() (largest t_base first).
    Initialization per kind: MALA restarts every segment from its
    completing-square Gaussian; ULA does so only for the first segment and
    then warm-starts from the previous output; ULD draws the theory pair or,
    with init="warm", MALA-style positions plus fresh N(0, I) velocities.
    Those Gaussians use each segment's own eta and curvature L.
    """
    segments = schedule.segments()
    if isinstance(specs, (UlaSpec, MalaSpec, UldSpec)):
        specs = [specs] * len(segments)
    specs = list(specs)
    if len(specs) != len(segments):
        raise ValueError(f"need {len(segments)} inner specs, got {len(specs)}")
    dim = oracle.dim
    state = ChainState(rng.standard_normal((n_chains, dim)), rng)
    traces: list[SegmentTrace] = []
    for seg, spec in zip(segments, specs):
        target = RtkTarget(oracle, seg.t_base, seg.eta, state.positions)
        accepts0, proposals0 = state.accept_count, state.propose_count
        if isinstance(spec, MalaSpec):
            init = mala_init(seg, state.positions)
            state.positions = init.sample(state.rng)
            mala_run(target, spec, state)
        elif isinstance(spec, UlaSpec):
            if seg.index == 0:
                init = mala_init(seg, state.positions)
                state.positions = init.sample(state.rng)
            ula_run(target, spec, state)
        elif isinstance(spec, UldSpec):
            if spec.init == "warm":
                init = mala_init(seg, state.positions)
                state.positions = init.sample(state.rng)
                state.velocity = state.rng.standard_normal((n_chains, dim))
            else:
                z, v = uld_init(seg, (n_chains, dim), state.rng)
                state.positions = z
                state.velocity = v
            uld_run(target, spec, state)
        else:
            raise TypeError(f"rtk_run cannot drive {type(spec).__name__}")
        traces.append(SegmentTrace(seg.index, seg.t_base, spec.steps,
                                   state.accept_count - accepts0,
                                   state.propose_count - proposals0))
    return state, traces
