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

import functools
import hashlib
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

Array = np.ndarray

__all__ = [
    "IsotropicGaussianMixture",
    "ScoreOracle",
    "forward_marginal",
    "log_density",
    "sample_base",
    "score",
]

_TIME_QUANTUM = 1e-9  # time resolution used when hashing error-field queries
_TIME_CONSTANTS_KEPT = 16  # query times per mixture whose kernel constants are kept


def _readonly(a: Array) -> Array:
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def _time_value(t) -> float:
    t = float(t)
    if not (t >= 0.0) or not math.isfinite(t):
        raise ValueError(f"diffusion time must be finite and >= 0, got {t}")
    return t


@dataclass(frozen=True)
class IsotropicGaussianMixture:
    """Mixture of isotropic Gaussians sum_k w_k N(mu_k, s2_k I)."""

    weights: Array    # (K,)
    means: Array      # (K, d)
    variances: Array  # (K,)
    _constants: OrderedDict = field(default_factory=OrderedDict, init=False,
                                    repr=False, compare=False)

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
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12):  # NaN fails too
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
        if not (np.all(v > 0) and np.isfinite(v).all() and np.isfinite(m).all()):
            raise ValueError("component means must be finite, variances finite and positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    def __reduce__(self):
        """Unpickle through __post_init__: checks re-run, arrays read-only, memo empty."""
        return type(self), (self.weights, self.means, self.variances)

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
        if n_components < 1:
            raise ValueError("ring mixture needs n_components >= 1")
        angles = 2.0 * np.pi * np.arange(n_components) / n_components
        means = np.zeros((n_components, dim))
        means[:, 0] = radius * np.cos(angles)
        means[:, 1] = radius * np.sin(angles)
        return cls(np.full(n_components, 1.0 / n_components), means,
                   np.full(n_components, variance))

    def _time_constants(self, t: float) -> tuple[Array, ...]:
        """(A, bias, 0.5 / v, 1 / v) at time t, memoized first-in first-out.

        log w_k N(x; mu_k, v_k I) = A_k x + bias_k - ||x||^2 / (2 v_k) for the
        diffused means mu and variances v, so A = mu / v and bias holds the rest.
        """
        found = self._constants.get(t)
        if found is not None:
            return found
        decay = math.exp(-t)
        means = self.means * decay                                    # (K, d)
        var = self.variances * decay * decay + (1.0 - decay * decay)  # (K,)
        half = 0.5 / var
        bias = (np.log(self.weights) - 0.5 * self.dim * np.log(2.0 * np.pi * var)
                - half * np.einsum("kd,kd->k", means, means))
        found = tuple(_readonly(c) for c in (means / var[:, None], bias, half, 1.0 / var))
        self._constants[t] = found
        while len(self._constants) > _TIME_CONSTANTS_KEPT:
            self._constants.popitem(last=False)
        return found

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


def _mixture_pass(mix: IsotropicGaussianMixture, t, x, with_score: bool):
    """(score or None, log p_t(x)) at points x of shape (..., d), in one pass.

    The log-component matrix is (K, n), so the reductions over components
    run elementwise across contiguous rows.
    """
    x = np.asarray(x, dtype=np.float64)
    d = mix.dim
    if x.shape[-1] != d:
        raise ValueError(f"points have dim {x.shape[-1]}, mixture has dim {d}")
    a, bias, half, inv = mix._time_constants(_time_value(t))
    flat = x.reshape(-1, d)
    comp = a @ flat.T                                             # (K, n)
    comp += bias[:, None]
    comp -= half[:, None] * np.einsum("ij,ij->i", flat, flat)
    top = comp.max(axis=0)
    comp -= top
    np.exp(comp, out=comp)
    total = comp.sum(axis=0)
    logp = top + np.log(total)
    logp = float(logp[0]) if x.ndim == 1 else logp.reshape(x.shape[:-1])
    if not with_score:
        return None, logp
    out = comp.T @ a  # sum_k resp_k (mu_k - x) / v_k with resp = comp / total
    out -= (inv @ comp)[:, None] * flat
    out /= total[:, None]
    return out.reshape(x.shape), logp


def log_density(mix: IsotropicGaussianMixture, t, x) -> Array | float:
    """log p_t(x) for x of shape (..., d)."""
    return _mixture_pass(mix, t, x, with_score=False)[1]


def score(mix: IsotropicGaussianMixture, t, x, with_log_density: bool = False):
    """grad_x log p_t(x), the exact score of the diffused mixture.

    With with_log_density the same pass also returns log p_t(x), bit-equal
    to log_density(mix, t, x), as a (score, log p) pair.
    """
    out, logp = _mixture_pass(mix, t, x, with_score=True)
    return (out, logp) if with_log_density else out


def sample_base(mix: IsotropicGaussianMixture, n: int, rng: np.random.Generator) -> Array:
    """n exact draws from the mixture, shape (n, d)."""
    if n < 0:
        raise ValueError("sample count must be >= 0")
    idx = rng.choice(mix.n_components, size=n, p=mix.weights)
    out = rng.standard_normal((n, mix.dim))
    out *= np.sqrt(mix.variances[idx])[:, None]  # means[idx] is the one (n, d) temporary
    out += mix.means[idx]
    return out


# SeedSequence's hashing constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier, for the batched seed derivation below.
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_U32 = 0xFFFFFFFF
_U128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_state(entropy: Array) -> Array:
    """SeedSequence(n).generate_state(4, np.uint64) for many ints n at once.

    entropy is (m, 4) uint32, the little-endian words of each n.  An int
    drops its high zero words, and SeedSequence fills the rest of its
    4-word pool by hashing zeros, so zero words give the same pool.
    Returns (m, 4) uint64.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    hash_a = _SS_INIT_A

    def hashmix(v):
        nonlocal hash_a
        v = v ^ np.uint32(hash_a)
        hash_a = (hash_a * _SS_MULT_A) & _U32
        v = v * np.uint32(hash_a)
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(entropy[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    words = np.empty((entropy.shape[0], 8), dtype="<u4")
    hash_b = _SS_INIT_B
    for i in range(8):
        v = pool[i % 4] ^ np.uint32(hash_b)
        hash_b = (hash_b * _SS_MULT_B) & _U32
        v = v * np.uint32(hash_b)
        words[:, i] = v ^ (v >> np.uint32(16))
    return words.view("<u8").astype(np.uint64)


def _pcg64_states(digests: bytes) -> list[tuple[int, int]]:
    """(state, inc) of PCG64(int.from_bytes(d, "little")) per 16-byte digest d."""
    seeds = _seed_sequence_state(np.frombuffer(digests, dtype="<u4").reshape(-1, 4))
    out = []
    for s0, s1, s2, s3 in seeds.tolist():
        # PCG64's srandom: inc = 2 initseq + 1, then two LCG steps from
        # state 0 with initstate added in between; the first step yields inc.
        inc = ((((s2 << 64) | s3) << 1) | 1) & _U128
        initstate = (s0 << 64) | s1
        out.append((((initstate + inc) * _PCG_MULT + inc) & _U128, inc))
    return out


def _hashed_unit_directions(payloads: Sequence[bytes], dim: int) -> Array:
    """One pseudorandom unit vector per payload, shape (len(payloads), dim).

    Row i is bit-equal to the per-row derivation
    g = Generator(PCG64(int.from_bytes(blake2b(payload, digest_size=16), "little")));
    v = g.standard_normal(dim); v / np.linalg.norm(v), redrawing from g
    while the norm is 0.  The seeding runs as one SeedSequence pass over
    the batch; one generator is then set to each row's state in turn.
    """
    digests = [hashlib.blake2b(p, digest_size=16).digest() for p in payloads]
    out = np.empty((len(digests), dim))
    gen = np.random.Generator(np.random.PCG64(0))
    bg = gen.bit_generator
    inner = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    for row, (start, inc) in zip(out, _pcg64_states(b"".join(digests))):
        inner["state"], inner["inc"] = start, inc
        bg.state = state
        gen.standard_normal(out=row)
    # A stacked vector-vector matmul is the same dot product as the 1-D
    # np.linalg.norm, bit for bit; a row-wise sum is not.
    norms = np.sqrt(np.matmul(out[:, None, :], out[:, :, None])[:, 0, 0])
    for i in np.flatnonzero(norms == 0.0):  # astronomically unlikely
        gen = np.random.Generator(np.random.PCG64(int.from_bytes(digests[i], "little")))
        gen.standard_normal(out=out[i])
        while norms[i] == 0.0:
            gen.standard_normal(out=out[i])
            norms[i] = np.linalg.norm(out[i])
    out /= norms[:, None]
    return out


@functools.lru_cache(maxsize=4096)
def _cell_direction(payload: bytes, dim: int) -> Array:
    """_hashed_unit_directions([payload], dim)[0], read-only and kept.

    The single-cell fast path asks for one direction per query time; the
    bound holds every query time of the preset grid.
    """
    row = _hashed_unit_directions([payload], dim)[0]
    row.flags.writeable = False
    return row


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

    The directions of a score batch are derived in one batched pass, and
    when every row falls in one error cell the cell's direction, kept in a
    bounded cache, is broadcast; energy-difference rows whose two points
    share a cell get a zero perturbation without being hashed.  Either way
    the result is the same as hashing row by row.  A cell with a coordinate
    beyond int64 (|x / error_cell| >= 2^63, or non-finite) is keyed by its
    float64 bytes, so distinct far points keep distinct directions.  Every
    score row is meant to enter through score(), which is where calls are
    counted.
    """

    base: IsotropicGaussianMixture
    score_error: float = 0.0
    energy_error: float = 0.0
    error_seed: int = 0
    error_cell: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "error_seed", operator.index(self.error_seed))
        if not (0 <= self.score_error < math.inf and 0 <= self.energy_error < math.inf):
            raise ValueError("error magnitudes must be finite and >= 0")
        if not (self.error_cell > 0):
            raise ValueError("error_cell must be positive")
        if not (-2**63 <= self.error_seed < 2**63):
            raise ValueError("error_seed must fit in a signed 64-bit integer")

    @property
    def dim(self) -> int:
        return self.base.dim

    def log_density(self, t, x):
        """Exact log p_t(x); error injection applies to score/energy only."""
        return log_density(self.base, t, x)

    def _cells(self, x: Array) -> Array:
        """round(x / error_cell) as float64, flattened to (n, d)."""
        return np.round(np.asarray(x, dtype=np.float64).reshape(-1, self.dim) / self.error_cell)

    @staticmethod
    def _cell_keys(cells: Array, prefix: bytes = b"") -> list[bytes]:
        """prefix + the int64 bytes of each row of cells, in one pass.

        A far cell (a coordinate of magnitude 2^63 or more, or non-finite)
        has no int64 form; it gets prefix, a 0x01 tag byte and its float64
        bytes instead, a key length no in-range cell has.
        """
        n, width = cells.shape[0], len(prefix) + 8 * cells.shape[1]
        far, ints = [], cells
        if n and not (-2.0 ** 63 < cells.min() and cells.max() < 2.0 ** 63):  # NaN too
            ok = np.abs(cells) < 2.0 ** 63
            far = np.flatnonzero(~ok.all(axis=-1))
            ints = np.where(ok, cells, 0.0)
        raw = np.empty((n, width), dtype=np.uint8)
        raw[:, :len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
        raw[:, len(prefix):] = ints.astype(np.int64).view(np.uint8).reshape(n, width - len(prefix))
        keys = raw.view(f"V{width}").ravel().tolist()
        for i in far:
            keys[i] = prefix + b"\x01" + (cells[i] + 0.0).tobytes()  # + 0.0 maps -0.0 to 0.0
        return keys

    def _key_prefix(self, t: float) -> bytes:
        tq = int(round(_time_value(t) / _TIME_QUANTUM))
        return self.error_seed.to_bytes(8, "little", signed=True) + tq.to_bytes(8, "little", signed=True)

    def _score_perturbation(self, t, x: Array) -> Array:
        cells = self._cells(x)
        prefix = self._key_prefix(t)
        if cells.shape[0] > 0 and (cells == cells[0]).all():  # NaN rows never match
            payload = self._cell_keys(cells[:1], prefix)[0]
            return self.score_error * _cell_direction(payload, self.dim)
        out = _hashed_unit_directions(self._cell_keys(cells, prefix), self.dim)
        return self.score_error * out.reshape(np.shape(x)[:-1] + (self.dim,))

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
        ca, cb = self._cells(z), self._cells(z2)
        rows = np.flatnonzero((ca != cb).any(axis=-1))
        keys_a, keys_b = self._cell_keys(ca[rows]), self._cell_keys(cb[rows])
        prefix = self._key_prefix(t)
        delta = np.zeros(ca.shape[0])
        # Rows with a NaN cell compare unequal even when their keys match.
        delta[rows] = [0.0 if a == b else
                       _hashed_sign(prefix + a + b) if a < b else -_hashed_sign(prefix + b + a)
                       for a, b in zip(keys_a, keys_b)]
        delta = delta.reshape(np.shape(z)[:-1])
        out = exact + self.energy_error * delta
        return float(out) if np.ndim(out) == 0 else out

