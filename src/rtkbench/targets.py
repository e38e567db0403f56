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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _ziggurat

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
_SAMPLE_CHUNK_BYTES, _TILE_ROWS = 4 << 20, 4096  # sample_base's noise chunk and transposed tile


def _readonly(a: Array) -> Array:
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def _time_value(t) -> float:
    t = float(t)
    if not (t >= 0.0) or not math.isfinite(t):
        raise ValueError(f"diffusion time must be finite and >= 0, got {t}")
    return t


def _shared_column(c: Array) -> Array:
    """c as a (K, 1) column, or as (1, 1) when its K entries have the same bits."""
    return c[:1, None] if c.tobytes() == c[:1].tobytes() * c.size else c[:, None]


@dataclass(frozen=True)
class IsotropicGaussianMixture:
    """Mixture of isotropic Gaussians sum_k w_k N(mu_k, s2_k I)."""

    weights: Array    # (K,)
    means: Array      # (K, d)
    variances: Array  # (K,)
    _constants: tuple = field(default=(None, None), init=False, repr=False, compare=False)
    _support: slice = field(init=False, repr=False, compare=False)

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
        # The coordinates from the first to the last where some mean is not +0.0.
        cols = np.flatnonzero(m.view(np.uint64).any(axis=0))
        object.__setattr__(self, "_support",
                           slice(int(cols[0]), int(cols[-1]) + 1) if cols.size else slice(0, 0))

    def __reduce__(self):
        """Unpickle through __post_init__: checks re-run, arrays read-only, slot empty."""
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

    def _time_constants(self, t: float) -> tuple:
        """(A, support, bias, 0.5 / v, 1 / v) at time t, kept for the last query time only.

        log w_k N(x; mu_k, v_k I) = A_k x + bias_k - ||x||^2 / (2 v_k) for the
        diffused means mu and variances v, so A = mu / v and bias holds the rest.
        A is stored on the support slice only: the coordinates from the first
        to the last where some mean is not +0.0 (the ring's 0:2).  bias and
        0.5 / v are (K, 1) columns, or (1, 1) when all K entries are equal.
        """
        last, found = self._constants
        if last == t:
            return found
        decay = math.exp(-t)
        means = self.means * decay                                    # (K, d)
        var = self.variances * decay * decay + (1.0 - decay * decay)  # (K,)
        half = 0.5 / var
        bias = (np.log(self.weights) - 0.5 * self.dim * np.log(2.0 * np.pi * var)
                - half * np.einsum("kd,kd->k", means, means))
        found = (_readonly(means[:, self._support] / var[:, None]), self._support,
                 *(_readonly(_shared_column(c)) for c in (bias, half)), _readonly(1.0 / var))
        object.__setattr__(self, "_constants", (t, found))
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
    run elementwise across contiguous rows.  Two shortcuts skip redundant
    work.  The GEMMs run over the means' support slice only: a dropped term
    is a product with an exact +0 of A, and a score column off the support
    is +0.  A bias or ||x||^2 / (2 v) term that all components share is one
    row, broadcast: it holds the same products as each row it replaces.
    The sum of the kept terms is left to BLAS, whose order may depend on
    the GEMM's width, so the pass is not bit-equal to the full-width one
    in general.  On the OpenBLAS x86 kernels tried (SkylakeX, Haswell,
    Prescott) it was bit-equal on row counts that are a multiple of 8, as
    every batch of the shipped configs is, and differed in the last bits
    on some other row counts and on a single point.
    """
    x = np.asarray(x, dtype=np.float64)
    d = mix.dim
    if x.shape[-1] != d:
        raise ValueError(f"points have dim {x.shape[-1]}, mixture has dim {d}")
    a, s, bias, half, inv = mix._time_constants(_time_value(t))
    flat = x.reshape(-1, d)
    comp = a @ flat[:, s].T                                       # (K, n)
    comp += bias
    comp -= half * np.einsum("ij,ij->i", flat, flat)
    top = comp.max(axis=0)
    comp -= top
    np.exp(comp, out=comp)
    total = comp.sum(axis=0)
    logp = top + np.log(total)
    logp = float(logp[0]) if x.ndim == 1 else logp.reshape(x.shape[:-1])
    if not with_score:
        return None, logp
    out = (np.empty_like if a.shape[1] == d else np.zeros_like)(flat)  # +0 off the support
    np.matmul(comp.T, a, out=out[:, s])  # sum_k resp_k (mu_k - x) / v_k with resp = comp / total
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
    """n exact draws from the mixture, shape (n, d): the transpose of a (d, n) array.

    Bit-equal to means[idx] + sqrt(variances[idx]) * standard_normal((n, d)),
    each drawn in one call; the noise is drawn one 4 MiB chunk at a time, so
    the peak is the output plus that chunk and idx (README "Determinism").
    """
    if n < 0:
        raise ValueError("sample count must be >= 0")
    idx = rng.choice(mix.n_components, size=n, p=mix.weights)
    out = np.empty((mix.dim, n))
    chunk = _TILE_ROWS * -(-_SAMPLE_CHUNK_BYTES // (out.itemsize * mix.dim * _TILE_ROWS))
    noise = np.empty((min(chunk, n), mix.dim))
    for lo in range(0, n, _TILE_ROWS):  # each chunk is transposed a cache-sized tile at a time
        if lo % chunk == 0:
            rng.standard_normal(out=noise[:n - lo])
        hi = min(lo + _TILE_ROWS, n)
        np.multiply(noise[lo % chunk:][:hi - lo].T, np.sqrt(mix.variances[idx[lo:hi]]), out=out[:, lo:hi])
    del noise  # freed before the means[idx] columns are gathered
    s = mix._support
    for row, mean in zip(out[s], mix.means.T[s]):
        row += mean[idx]
    out[:s.start] += 0.0  # every mean off the support is +0.0: no gather
    out[s.stop:] += 0.0
    return out.T


# SeedSequence's hashing constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier, for the batched seed derivation below.
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_U32, _U64 = (1 << 32) - 1, (1 << 64) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_LIMBS = tuple(np.uint64(v) for v in (_PCG_MULT >> 64, _PCG_MULT & _U64))
# numpy's ziggurat tables; the PCG64 words a row may read beyond one per
# normal, enough for a few wedge draws; and the relative margin within which
# np.exp may not decide a wedge test.
_ZIG_KI, _ZIG_WI, _ZIG_FI = (np.array(t, dtype=dt) for t, dt in (
    (_ziggurat.KI, np.uint64), (_ziggurat.WI, np.float64), (_ziggurat.FI, np.float64)))
_SPARE_WORDS = 4
_WEDGE_MARGIN = 2.0**-48


def _hash_constants(init: int, mult: int, count: int) -> Array:
    """The count + 1 successive values of a SeedSequence hash constant, as a
    (count + 1, 1) uint32 column: call j xors with row j and multiplies by row j + 1."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & _U32)
    return np.array(values, dtype=np.uint32)[:, None]


# hash_a over the 4 entropy hashmixes, then 3 per pool word; hash_b over the 8 output words.
_SS_HASH_A = _hash_constants(_SS_INIT_A, _SS_MULT_A, 16)
_SS_HASH_B = _hash_constants(_SS_INIT_B, _SS_MULT_B, 8)
_SS_OTHERS = tuple([dst for dst in range(4) if dst != src] for src in range(4))


def _seed_sequence_state(entropy: Array) -> Array:
    """SeedSequence(n).generate_state(4, np.uint64) for many ints n at once.

    entropy is (m, 4) uint32, the little-endian words of each n.  An int
    drops its high zero words, and SeedSequence fills the rest of its
    4-word pool by hashing zeros, so zero words give the same pool.
    The pool is (4, m), one contiguous row per word: each source word's
    three hashmixes, and the 8 output words, are one call over stacked
    rows with one hash constant per row.  Returns (m, 4) uint64.
    """
    def hashmix(v, j, k):  # hashmix calls j..j + k - 1, one per row, of v broadcast to k rows
        v = v ^ _SS_HASH_A[j:j + k]
        v *= _SS_HASH_A[j + 1:j + 1 + k]
        v ^= v >> np.uint32(16)
        return v

    pool = hashmix(np.ascontiguousarray(np.asarray(entropy, dtype=np.uint32).T), 0, 4)
    for src, dst in enumerate(_SS_OTHERS):
        mixed = np.uint32(_SS_MIX_L) * pool[dst]
        mixed -= np.uint32(_SS_MIX_R) * hashmix(pool[src], 4 + 3 * src, 3)
        mixed ^= mixed >> np.uint32(16)
        pool[dst] = mixed
    words = np.tile(pool, (2, 1))
    words ^= _SS_HASH_B[:-1]
    words *= _SS_HASH_B[1:]
    words ^= words >> np.uint32(16)
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _mul128(ah, al, bh, bl):
    """(hi, lo) uint64 limbs of a * b mod 2^128.

    The high half of al * bl is built from 32-bit partial products; the
    partial sums stay below 2^64.  Temporaries are reused in place.
    """
    a0, a1, b0, b1 = al & _U32, al >> 32, bl & _U32, bl >> 32
    t = a0 * b0
    t >>= 32
    u = a1 * b0
    u += t
    v = a0 * b1
    v += np.bitwise_and(u, _U32, out=t)
    hi = a1 * b1
    u >>= 32
    hi += u
    v >>= 32
    hi += v
    hi += np.multiply(al, bh, out=t)
    hi += np.multiply(ah, bl, out=t)
    return hi, np.multiply(al, bl, out=u)


def _add128(ah, al, bh, bl):
    lo = al + bl
    hi = ah + bh
    hi += lo < bl
    return hi, lo


def _pcg64_states(seeds: Array) -> tuple[Array, Array, Array, Array]:
    """(state hi, state lo, inc hi, inc lo) of PCG64 seeded with each row of
    SeedSequence words seeds (m, 4) uint64, as uint64 limbs."""
    s0, s1, s2, s3 = seeds.T
    inc_hi, inc_lo = (s2 << 1) | (s3 >> 63), (s3 << 1) | 1  # inc = 2 initseq + 1
    # PCG64's srandom: two LCG steps from state 0 with initstate added in
    # between; the first step yields inc.
    hi, lo = _add128(s0, s1, inc_hi, inc_lo)
    hi, lo = _mul128(hi, lo, *_PCG_MULT_LIMBS)
    hi, lo = _add128(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _pcg64_ahead(hi: Array, lo: Array, inc_hi: Array, inc_lo: Array,
                 k: int) -> tuple[Array, Array]:
    """(hi, lo) limbs, each (k, m), of the states 1..k LCG steps after each
    PCG64 state (hi, lo) with increment (inc_hi, inc_lo).

    Each step is s <- M s + inc mod 2^128.  States run along the last axis,
    so each numpy call sweeps m contiguous values.
    """
    out_hi = np.empty((k,) + np.shape(hi), dtype=np.uint64)
    out_lo = np.empty_like(out_hi)
    for j in range(k):
        hi, lo = _add128(*_mul128(hi, lo, *_PCG_MULT_LIMBS), inc_hi, inc_lo)
        out_hi[j], out_lo[j] = hi, lo
    return out_hi, out_lo


def _xsl_rr(hi: Array, lo: Array) -> Array:
    """PCG64's 64-bit output of each state: hi ^ lo rotated right by the top 6 bits."""
    word, rot = hi ^ lo, hi >> 58
    out = word >> rot
    np.subtract(64, rot, out=rot)
    rot &= 63
    word <<= rot
    out |= word
    return out


def _ziggurat_candidates(words: Array) -> tuple[Array, Array, Array]:
    """(layer, value, fast) of each word read as a ziggurat candidate draw."""
    layer = words.astype(np.uint8)  # the low byte
    rabs = words >> 9
    rabs &= 0xFFFFFFFFFFFFF
    x = rabs * _ZIG_WI[layer]
    sign = words >> 8
    sign &= 1
    sign <<= 63
    bits = x.view(np.uint64)
    bits ^= sign  # x = -x where the sign bit is set
    return layer, x, rabs < _ZIG_KI[layer]


def _generator_normals(limbs: tuple[Array, ...], rows: Array, dim: int) -> Array:
    """Generator(PCG64).standard_normal(dim) drawn by numpy itself from the
    PCG64 state limbs = (hi, lo, inc hi, inc lo) of each of rows, shape
    (len(rows), dim)."""
    out = np.empty((len(rows), dim))
    if not len(rows):
        return out
    bits = np.random.PCG64(0)
    gen, state = np.random.Generator(bits), bits.state
    for j, (hi, lo, inc_hi, inc_lo) in enumerate(zip(*(limb[rows].tolist() for limb in limbs))):
        state["state"] = {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}
        bits.state = state
        gen.standard_normal(out=out[j])
    return out


def _standard_normals(limbs: tuple[Array, ...], dim: int) -> Array:
    """Generator(PCG64).standard_normal(dim) for each PCG64 state limbs =
    (hi, lo, inc hi, inc lo), in lockstep, shape (m, dim).

    This is random_standard_normal's ziggurat.  A fast draw takes one word;
    a wedge draw takes one more word as next_double and is redrawn when
    rejected.  Rows whose first dim words are all fast are done in one pass;
    the rest read up to _SPARE_WORDS more words.  A row the pass cannot
    finish is drawn by numpy from its own state: one with a tail candidate,
    a wedge test within _WEDGE_MARGIN (relative) of its bound, where np.exp
    need not match libm's exp to the last bit, or too few words.
    """
    hi, lo = _pcg64_ahead(*limbs, dim)
    words = _xsl_rr(hi, lo)  # (dim, m)
    _, x, fast = _ziggurat_candidates(words)
    values = np.ascontiguousarray(x.T)
    hard = np.flatnonzero(~fast.all(axis=0))
    if hard.size == 0:
        return values
    spare = _pcg64_ahead(hi[-1, hard], lo[-1, hard], limbs[2][hard], limbs[3][hard],
                         _SPARE_WORDS)
    words = np.vstack([words[:, hard], _xsl_rr(*spare)]).T
    layer, x, fast = _ziggurat_candidates(words)
    k = words.shape[1]
    take = fast.copy()  # the words whose candidate becomes a draw
    pending = ~fast     # slow words not yet read as a candidate or a uniform
    unfinished = np.zeros(hard.size, dtype=bool)
    rows = np.arange(hard.size)
    while True:
        # A row's first pending word is its next candidate, unless the row
        # has its dim draws before it.
        q = pending.argmax(axis=1)
        live = pending[rows, q] & (np.cumsum(take, axis=1)[rows, q] < dim) & ~unfinished
        if not live.any():
            break
        r, q = rows[live], q[live]
        i = layer[r, q]
        wedge = (i > 0) & (q + 1 < k)  # not a tail candidate, and a word left for a uniform
        unfinished[r[~wedge]] = True
        r, q, i = r[wedge], q[wedge], i[wedge]
        u = (words[r, q + 1] >> 11) * (1.0 / 9007199254740992.0)
        test = (_ZIG_FI[i - 1] - _ZIG_FI[i]) * u + _ZIG_FI[i]
        xq = x[r, q]
        bound = np.exp(-0.5 * xq * xq)
        unfinished[r[np.abs(test - bound) <= bound * _WEDGE_MARGIN]] = True
        take[r, q], take[r, q + 1] = test < bound, False
        pending[r, q], pending[r, q + 1] = False, False
    take &= np.cumsum(take, axis=1) <= dim
    unfinished |= take.sum(axis=1) < dim
    done = ~unfinished
    values[hard[done]] = x[done][take[done]].reshape(-1, dim)
    values[hard[unfinished]] = _generator_normals(limbs, hard[unfinished], dim)
    return values


def _row_direction(digest: bytes, dim: int) -> Array:
    """The error field's defining formula for one row: v / ||v|| with
    v = Generator(PCG64(int.from_bytes(digest, "little"))).standard_normal(dim),
    redrawn from the same generator while ||v|| = 0."""
    gen = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
    vec = gen.standard_normal(dim)
    norm = np.linalg.norm(vec)
    while norm == 0.0:
        vec = gen.standard_normal(dim)
        norm = np.linalg.norm(vec)
    return vec / norm


# blake2b's set-up, done once per digest size; only ever copied, never updated.
_BLAKE2B = {size: hashlib.blake2b(digest_size=size) for size in (8, 16)}


def _prefixed(prefix: bytes, size: int):
    """The size template, copied and fed prefix.  A copy of this state fed a
    payload digests like blake2b(prefix + payload, digest_size=size)."""
    state = _BLAKE2B[size].copy()
    state.update(prefix)
    return state


def _hashed_unit_directions(keys: Sequence[bytes], dim: int, prefix: bytes = b"") -> Array:
    """One pseudorandom unit vector per key, shape (len(keys), dim).

    Row i is bit-equal to _row_direction(blake2b(prefix + keys[i],
    digest_size=16), dim).  The seeding, the PCG64 draws and the ziggurat
    run in lockstep over the batch; a row whose draws are all zero, so
    that its norm is 0, is derived by _row_direction itself.
    """
    state, digests = _prefixed(prefix, 16), []
    for key in keys:
        row = state.copy()
        row.update(key)
        digests.append(row.digest())
    seeds = _seed_sequence_state(np.frombuffer(b"".join(digests), dtype="<u4").reshape(-1, 4))
    out = _standard_normals(_pcg64_states(seeds), dim)
    # A stacked vector-vector matmul is the same dot product as the 1-D
    # np.linalg.norm, bit for bit; a row-wise sum is not.
    norms = np.sqrt(np.matmul(out[:, None, :], out[:, :, None])[:, 0, 0])
    zero = np.flatnonzero(norms == 0.0)
    norms[zero] = 1.0
    out /= norms[:, None]
    for i in zero:
        out[i] = _row_direction(digests[i], dim)
    return out


@functools.lru_cache(maxsize=4096)
def _cell_direction(payload: bytes, dim: int) -> Array:
    """_row_direction of the payload's digest, read-only and kept.

    A score batch within half a cell of 0 asks for cell 0's direction, one
    per query time; the bound holds every query time of the preset grid.
    """
    row = _row_direction(_prefixed(payload, 16).digest(), dim)
    row.flags.writeable = False
    return row


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

    A score batch takes one of two paths.  When every coordinate lies
    within half a cell of 0, cell 0's direction, kept in a bounded cache,
    is broadcast; any other batch is derived in one lockstep pass over its
    rows.  Energy-difference rows whose two points share a cell get a zero
    perturbation without being hashed.  Either way the result is the same
    as hashing row by row.  A cell with a coordinate beyond int64
    (|x / error_cell| >= 2^63, or non-finite) is keyed by its float64
    bytes, so distinct far points keep distinct directions.  Every score
    row is meant to enter through score(), which is where calls are
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
    def _cell_keys(cells: Array) -> list[bytes]:
        """The int64 bytes of each row of cells, in one pass.

        A far cell (a coordinate of magnitude 2^63 or more, or non-finite)
        has no int64 form; it gets a 0x01 tag byte and its float64 bytes
        instead, a key length no in-range cell has.
        """
        n, width = cells.shape[0], 8 * cells.shape[1]
        far, ints = [], cells
        if n and not (-2.0 ** 63 < cells.min() and cells.max() < 2.0 ** 63):  # NaN too
            ok = np.abs(cells) < 2.0 ** 63
            far = np.flatnonzero(~ok.all(axis=-1))
            ints = np.where(ok, cells, 0.0)
        keys = ints.astype(np.int64).view(f"V{width}").ravel().tolist()
        for i in far:
            keys[i] = b"\x01" + (cells[i] + 0.0).tobytes()  # + 0.0 maps -0.0 to 0.0
        return keys

    def _key_prefix(self, t: float) -> bytes:
        tq = int(round(_time_value(t) / _TIME_QUANTUM))
        return self.error_seed.to_bytes(8, "little", signed=True) + tq.to_bytes(8, "little", signed=True)

    def _score_perturbation(self, t, x: Array) -> Array:
        prefix = self._key_prefix(t)
        # x / error_cell within [-1/2, 1/2] rounds half to even to cell 0; NaN fails.
        if x.size and np.abs(x).max() < self.error_cell / 2:
            return self.score_error * _cell_direction(prefix + bytes(8 * self.dim), self.dim)
        out = _hashed_unit_directions(self._cell_keys(self._cells(x)), self.dim, prefix)
        return self.score_error * out.reshape(x.shape)

    def score(self, t, x, with_log_density: bool = False):
        """Score query s_(theta,t)(x), within score_error of the exact score.

        With with_log_density, returns (score, exact log p_t(x)) from one
        mixture pass; the log density carries no error.
        """
        exact = score(self.base, t, x, with_log_density=with_log_density)
        if self.score_error == 0.0:
            return exact
        noise = self._score_perturbation(t, np.asarray(x, dtype=np.float64))
        out = exact[0] if with_log_density else exact
        out += noise  # the pass's fresh array
        return exact

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
        state, signs = _prefixed(self._key_prefix(t), 8), []
        # The digest of a row's keys in ascending order sets its sign, which
        # flips with the order.  Rows with a NaN cell compare unequal even
        # when their keys match.
        for a, b in zip(self._cell_keys(ca[rows]), self._cell_keys(cb[rows])):
            if a == b:
                signs.append(0.0)
                continue
            low, high, flip = (a, b, 1.0) if a < b else (b, a, -1.0)
            pair = state.copy()
            pair.update(low)
            pair.update(high)
            signs.append(flip if pair.digest()[0] % 2 == 0 else -flip)
        delta = np.zeros(ca.shape[0])
        delta[rows] = signs
        delta = delta.reshape(np.shape(z)[:-1])
        out = exact + self.energy_error * delta
        return float(out) if np.ndim(out) == 0 else out

