"""Inner-loop samplers: DDPM baseline, ULA, MALA, and ULD.

Everything runs vectorized over chains: positions are (n, d) arrays and one
Generator drives the whole batch, so a run is a pure function of its inputs
and the seed.  NFE bookkeeping follows the score-call budget convention:
one unit per score query, zero for analytic energy differences, and
2**(u-1) units for each score-only Taylor energy difference of order u.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .schedule import RtkTarget, Segment, mala_init, uld_init
from .targets import ScoreOracle

Array = np.ndarray

__all__ = [
    "ChainState",
    "MalaSpec",
    "SegmentTrace",
    "UlaSpec",
    "UldSpec",
    "ddpm_run",
    "mala_accept_log",
    "mala_run",
    "rtk_run",
    "taylor_energy_diff",
    "ula_run",
    "ula_step",
    "uld_noise_covariance",
    "uld_noise_pair",
    "uld_run",
    "uld_step",
]

# Below this gamma*tau the closed-form position variance cancels
# catastrophically in float64; switch to its series.
_ULD_SERIES_CUTOFF = 1e-3

# A plan whose largest draw is smaller draws inline: below this a handoff to
# the helper (~40 us) costs more than it saves.  Pool workers set it to inf.
_AHEAD_MIN_SIZE = 4096


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _DrawAhead:
    """state.rng for one unit: its planned draws, made ahead.

    plan lists tasks in draw order, each a tuple of (method, size) draws: a
    unit's prior, each segment's initialization and each step.  One helper
    thread, the only one to touch the Generator, makes them a task at a
    time, at most two tasks ahead, while numpy fills them without the GIL.
    A request other than the next planned draw raises, and so does a unit
    that ends with planned draws left.  With no draw of _AHEAD_MIN_SIZE
    elements, or one usable core, the draws are made inline.
    """

    def __init__(self, state: "ChainState", plan: list):
        self._state, self._rng, self._plan = state, state.rng, iter(plan)
        self._ahead, self._task = collections.deque(), collections.deque()
        self._pool = None
        largest = max((np.prod(size) for task in set(plan) for _, size in task), default=0)
        if largest >= _AHEAD_MIN_SIZE and _usable_cores() > 1:
            from concurrent.futures import ThreadPoolExecutor  # slow to import
            self._pool = ThreadPoolExecutor(1)

    def __enter__(self):
        self._submit(2)
        self._state.rng = self
        return self

    def __exit__(self, exc_type, *exc_info):
        self._state.rng = self._rng
        if self._pool:  # cancels the tasks not begun and joins the helper
            self._pool.shutdown(cancel_futures=True)
        if exc_type is None and (self._task or self._ahead or next(self._plan, None)):
            raise RuntimeError("the unit ended with planned draws left")

    def _draw(self, task: tuple) -> list:
        return [getattr(self._rng, kind)(size) for kind, size in task]

    def _submit(self, count: int) -> None:
        for task in itertools.islice(self._plan, count if self._pool else 0):
            self._ahead.append((task, self._pool.submit(self._draw, task)))

    def _take(self, kind: str, size):
        if not self._task:  # the last task is used up: open the next
            task, ahead = self._ahead.popleft() if self._ahead else (next(self._plan, ()), None)
            self._submit(1)
            self._task.extend(zip(task, ahead.result() if ahead else [None] * len(task)))
        planned, drawn = self._task.popleft() if self._task else (None, None)
        if planned != (kind, size):
            raise RuntimeError(f"unplanned draw {kind}({size!r}); the plan has "
                               f"{planned or 'nothing'} next")
        return getattr(self._rng, kind)(size) if drawn is None else drawn

    standard_normal = functools.partialmethod(_take, "standard_normal")
    random = functools.partialmethod(_take, "random")


def _normals(shape, count: int = 1) -> tuple:
    """A task of count standard normals of the given shape."""
    return (("standard_normal", shape),) * count


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
    spacing taylor_dt in (0, 1]; None resolves to min(sqrt(score_error), 1)
    or 1e-3 at run time).
    """

    steps: int
    tau: float
    estimator: str = "exact"
    taylor_order: int = 2
    taylor_dt: float | None = None

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if not (self.tau > 0):
            raise ValueError("tau must be positive")
        if self.estimator not in ("exact", "taylor"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.taylor_order < 1:
            raise ValueError("taylor_order must be >= 1")
        if self.taylor_dt is not None and not (0 < self.taylor_dt <= 1):
            raise ValueError("taylor_dt must lie in (0, 1]")

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
    earliest query time is eta, never 0.  The prior and every step's noise
    form one plan for _DrawAhead.
    """
    if steps < 1:
        raise ValueError("DDPM needs at least one step")
    if not (horizon > 0):
        raise ValueError("horizon must be positive")
    shape = (n_chains, oracle.dim)
    eta = horizon / steps
    drift = 2.0 * math.expm1(eta)
    grow = math.exp(eta)
    noise = math.sqrt(math.expm1(2.0 * eta))
    state = ChainState(np.empty(shape), rng)
    with _DrawAhead(state, [_normals(shape)] * (1 + steps)):  # the prior, then each step's
        x = state.positions = state.rng.standard_normal(shape)
        for k in range(steps):
            s = oracle.score(horizon - k * eta, x)
            x *= grow
            x += drift * s
            x += noise * state.rng.standard_normal(x.shape)
            state.nfe += n_chains
    return state


def ula_step(target, state: ChainState, tau: float) -> ChainState:
    """One unadjusted step z <- z - tau grad g(z) + sqrt(2 tau) xi; NFE += n_chains."""
    z = state.positions
    noise = math.sqrt(2.0 * tau) * state.rng.standard_normal(z.shape)
    state.positions = np.add(z - tau * target.grad_energy(z), noise, out=noise)
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


def taylor_energy_diff(score_fn, z: Array, z2: Array, u: int = 2,
                       dt: float = 1e-3,
                       score_at_z: Array | None = None,
                       score_at_z2: Array | None = None) -> tuple[Array, int]:
    """Score-only estimate of f(z2) - f(z), plus its charged score calls.

    With h(t) = f(z + t (z2 - z)), the derivative h'(t) = -score(z + t dz) . dz
    is sampled on the grid {0, dt, ..., (u-1) dt}; higher derivatives at 0
    come from the forward-difference pyramid and the estimate is
    sum_{i=1..u} h~(i)(0) / i!.  score_at_z short-circuits the t = 0 query
    when the caller already holds score(z), and score_at_z2 the node at
    t = j dt = 1, which is z2 (z + dz only up to rounding).  The charge is
    2^(u-1) either way.
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
        elif j * dt == 1.0 and score_at_z2 is not None:
            s = score_at_z2
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
        return spec.taylor_dt
    if oracle.score_error > 0:
        return min(math.sqrt(oracle.score_error), 1.0)
    return 1e-3


def mala_run(target, spec: MalaSpec, state: ChainState) -> ChainState:
    """Run spec.steps MALA iterations, caching the current-point score.

    The initial score query costs one NFE unit per chain; each subsequent
    proposal costs spec.step_nfe per chain (1 exact, 2^(u-1) score-only).
    The score-only estimator reuses score(z) and, when a node of its grid
    is the proposal (dt = 1), the proposal's score, so it evaluates fewer
    rows than it is charged.  The exact estimator also carries log p at the
    current point, taken from the same mixture pass as each score, so a
    proposal costs one pass.
    """
    if spec.steps == 0:
        return state
    z = state.positions.copy()  # the loop's own; accepted rows are copied in
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
    keep = np.empty(z.shape, dtype=bool)  # accept, one row per chain, for the copies
    for _ in range(spec.steps):
        z_prop = z - tau * grad_z
        z_prop += root * state.rng.standard_normal(z.shape)
        log_u = np.log(state.rng.random(state.n_chains))
        if taylor:
            score_prop = target.score(z_prop)
            f_diff, _ = taylor_energy_diff(target.score, z, z_prop,
                                           u=spec.taylor_order, dt=dt,
                                           score_at_z=score_z,
                                           score_at_z2=score_prop)
            r = -(f_diff + target.quadratic_diff(z, z_prop))
        else:
            score_prop, logp_prop = target.score(z_prop, with_log_density=True)
            r = -target.energy_diff(z, z_prop, log_p=(logp_z, logp_prop))
        grad_prop = target.grad_energy(z_prop, score_value=score_prop)
        log_a = mala_accept_log(target, z, z_prop, tau, grad_z=grad_z,
                                grad_prop=grad_prop, neg_energy_diff=r)
        accept = log_u < log_a
        state.propose_count += state.n_chains
        state.accept_count += int(accept.sum())
        state.nfe += spec.step_nfe * state.n_chains
        np.copyto(keep, accept[:, None])
        np.copyto(z, z_prop, where=keep)
        np.copyto(grad_z, grad_prop, where=keep)
        if taylor:  # the exact path reads score_z only for the first gradient
            np.copyto(score_z, score_prop, where=keep)
        else:
            np.copyto(logp_z, logp_prop, where=accept)
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
    xi_v = b * e1
    xi_v += c * rng.standard_normal(shape)
    return np.multiply(e1, a, out=e1), xi_v, clamped


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
    xi_z += z + c1 * v - ((tau - c1) / gamma) * grad  # IEEE addition commutes
    xi_v += math.exp(-x) * v - c1 * grad
    state.positions, state.velocity = xi_z, xi_v
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


def _inner_loop(spec, shape):
    """(the inner loop that runs spec, the task of one of its steps' draws).

    A MALA step draws its proposal's normal, then its accept test's uniform;
    a ULA step ula_step's normal; a ULD step uld_noise_pair's two normals.
    """
    if isinstance(spec, MalaSpec):
        return mala_run, _normals(shape) + (("random", shape[0]),)
    if isinstance(spec, UlaSpec):
        return ula_run, _normals(shape)
    if isinstance(spec, UldSpec):
        return uld_run, _normals(shape, 2)
    raise TypeError(f"rtk_run cannot drive {type(spec).__name__}")


def _init_draws(seg: Segment, spec, shape) -> list:
    """rtk_run's initialization draws for a segment, as one task: a normal,
    two for ULD, none for a warm-started ULA segment."""
    if isinstance(spec, UlaSpec) and seg.index > 0:
        return []
    return [_normals(shape, 2 if isinstance(spec, UldSpec) else 1)]


def rtk_run(oracle: ScoreOracle, schedule, specs, n_chains: int,
            rng: np.random.Generator) -> tuple[ChainState, list[SegmentTrace]]:
    """Outer annealing loop: from N(0, I) through each segment's target.

    specs is a single inner spec applied to every segment or a per-segment
    sequence ordered like schedule.segments() (largest t_base first).
    Initialization per kind: MALA restarts every segment from its
    completing-square Gaussian; ULA does so only for the first segment and
    then warm-starts from the previous output; ULD draws the theory pair or,
    with init="warm", MALA-style positions plus fresh N(0, I) velocities.
    Those Gaussians use each segment's own eta and curvature L.  The unit's
    draws, from the prior to the last step, form one plan for _DrawAhead.
    """
    segments = schedule.segments()
    if isinstance(specs, (UlaSpec, MalaSpec, UldSpec)):
        specs = [specs] * len(segments)
    specs = list(specs)
    if len(specs) != len(segments):
        raise ValueError(f"need {len(segments)} inner specs, got {len(specs)}")
    shape = (n_chains, oracle.dim)
    loops = [_inner_loop(spec, shape) for spec in specs]
    plan = [_normals(shape)]  # the prior
    for seg, spec, (_, step) in zip(segments, specs, loops):
        plan += _init_draws(seg, spec, shape) + [step] * spec.steps
    state = ChainState(np.empty(shape), rng)
    traces: list[SegmentTrace] = []
    with _DrawAhead(state, plan):
        state.positions = state.rng.standard_normal(shape)
        for seg, spec, (run, _) in zip(segments, specs, loops):
            target = RtkTarget(oracle, seg.t_base, seg.eta, state.positions)
            accepts0, proposals0 = state.accept_count, state.propose_count
            if isinstance(spec, UldSpec) and spec.init == "gaussian":
                state.positions, state.velocity = uld_init(seg, shape, state.rng)
            elif not isinstance(spec, UlaSpec) or seg.index == 0:
                state.positions = mala_init(seg, state.positions).sample(state.rng)
                if isinstance(spec, UldSpec):
                    state.velocity = state.rng.standard_normal(shape)
            run(target, spec, state)
            traces.append(SegmentTrace(seg.index, seg.t_base, spec.steps,
                                       state.accept_count - accepts0,
                                       state.propose_count - proposals0))
    return state, traces
