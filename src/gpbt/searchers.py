"""Search functions mapping an evaluation history to the next hyperparameter proposal.

Four kinds are provided: random, TPE (kernel density ratio), a diagonal CMA
simplification, and GP-UCB (lower confidence bound, losses are minimized).
A history is a pair of arrays: the evaluated points in the unit cube [0, 1]^d
and their losses. Every searcher is a pure function of (d, history, rng)
returning a point in the unit cube; `suggest` picks it by the config's kind and
maps that point to native units once, so every suggestion validates against
the space.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from .space import HpVector, SearchSpace

SEARCHER_KINDS = ("random", "tpe", "cma", "gp_ucb")

# TPE: the share of the history routed to the good density, the candidates
# drawn from it, the observations required before modelling, the bandwidth
# floor (unit space) and the density floor for the ratio.
TPE_GAMMA = 0.25
TPE_POOL = 24
TPE_STARTUP = 4
TPE_BANDWIDTH_FLOOR = 0.05
TPE_DENSITY_FLOOR = 1e-12
# NumPy's `pairwise_sum` adds at most this many terms before splitting in two.
_PAIRWISE_BLOCK = 128

# Diagonal CMA: the most recent observations used for the update, and the std
# clamp in unit space.
CMA_WINDOW = 12
CMA_SIGMA_MIN = 0.01
CMA_SIGMA_MAX = 0.5

# GP-UCB internals: the confidence parameter delta, candidate pool size,
# squared-exponential lengthscale in unit space, observation-noise variance
# relative to (standardized) loss variance, and the jitter used on a singular
# kernel matrix.
GP_BETA_DELTA = 0.1
GP_POOL = 256
GP_LENGTHSCALE = 0.2
GP_NOISE_VAR = 1e-4
GP_JITTER = 1e-6

# Bits per Sobol coordinate (scipy's default), and the number of direction
# numbers that the first GP_POOL points use.
SOBOL_BITS = 30
SOBOL_DIRECTIONS = (GP_POOL - 1).bit_length()
_SOBOL_WEIGHTS = 2 ** np.arange(SOBOL_BITS, dtype=np.uint32)
# For each bit p, counted from the most significant end, the mask of the bits
# before it: the strict lower triangle of row p of a scrambling matrix.
_SOBOL_STRICT_LOWER = np.cumsum(_SOBOL_WEIGHTS[::-1], dtype=np.uint32) - _SOBOL_WEIGHTS[::-1]


@dataclass(frozen=True)
class History:
    """Evaluated points in evaluation order: `u` is an (H, d) array of unit-cube
    coordinates and `loss` the (H,) array of their losses, which are minimized."""

    u: np.ndarray
    loss: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "loss", np.asarray(self.loss, dtype=float))
        if self.u.ndim != 2 or self.loss.shape != (self.u.shape[0],):
            raise ValueError("history points and losses disagree in shape")
        if not np.isfinite(self.loss).all():
            raise ValueError("observation loss must be finite")

    def __len__(self) -> int:
        return self.loss.shape[0]


@dataclass(frozen=True)
class SearcherConfig:
    kind: str = "tpe"

    def __post_init__(self):
        if self.kind not in SEARCHER_KINDS:
            raise ValueError(f"kind must be one of {', '.join(SEARCHER_KINDS)}, not {self.kind!r}")


def suggest(
    config: SearcherConfig,
    space: SearchSpace,
    history: History,
    rng: np.random.Generator,
) -> HpVector:
    """Propose the next hyperparameter vector given the unit-space history."""
    d = space.dim
    if history.u.shape[1] != d:
        raise ValueError(f"history points have {history.u.shape[1]} coordinates, space has {d}")
    if config.kind == "random":
        u = rng.random(d)
    elif config.kind == "tpe":
        u = _tpe_suggest(d, history, rng)
    elif config.kind == "cma":
        u = _cma_suggest(d, history, rng)
    else:
        beta_t = gp_ucb_beta(d, len(history) + 1, GP_BETA_DELTA)
        u = gp_ucb_suggest(history, d, beta_t, rng)
    return space.from_unit(u)


# ---------------------------------------------------------------------------
# TPE


def tpe_split(loss: np.ndarray, gamma: float) -> np.ndarray:
    """Mask of the good observations: the ceil(gamma*n) lowest losses.

    Ties are broken by insertion order, earlier observations entering good
    first; the sort must therefore be stable.
    """
    if len(loss) == 0:
        raise ValueError("tpe_split needs a non-empty history")
    n_good = math.ceil(gamma * len(loss))
    good = np.zeros(len(loss), dtype=bool)
    good[np.argsort(loss, kind="stable")[:n_good]] = True
    return good


def tpe_bandwidths(points: np.ndarray) -> np.ndarray:
    """Per-dimension Silverman bandwidth with a floor, in unit space."""
    n = points.shape[0]
    # `points.std(axis=0)` through the ufunc calls of NumPy's `_var` and `_std`,
    # without their Python wrappers: the same bits.
    mean = np.add.reduce(points, axis=0)
    mean /= n
    dev = points - mean
    np.square(dev, out=dev)
    var = np.add.reduce(dev, axis=0)
    var /= n
    std = np.sqrt(var, out=var)
    return np.maximum(1.06 * std * n ** (-0.2), TPE_BANDWIDTH_FLOOR)


def _pairwise_sum(term, lo: int, hi: int) -> np.ndarray:
    """The sum of the arrays `term(k)` for k in [lo, hi), added in the order of
    NumPy's `pairwise_sum`, which reduces a contiguous last axis: fewer than 8
    terms in sequence; up to `_PAIRWISE_BLOCK` terms through 8 partial sums over
    the full blocks of 8, combined pairwise, then the rest in sequence; more
    than that as two halves split at a multiple of 8. It adds into the arrays
    that `term` returns."""
    n = hi - lo
    if n < 8:
        total = term(lo)
        for k in range(lo + 1, hi):
            total += term(k)
        return total
    if n <= _PAIRWISE_BLOCK:
        r = [term(lo + j) for j in range(8)]
        full = hi - n % 8
        for i in range(lo + 8, full, 8):
            for j in range(8):
                r[j] += term(i + j)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for k in range(full, hi):
            total += term(k)
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(term, lo, lo + half) + _pairwise_sum(term, lo + half, hi)


def tpe_score(
    candidates: np.ndarray,
    good: np.ndarray,
    bad: np.ndarray,
    bandwidths: tuple[np.ndarray, np.ndarray | None],
) -> np.ndarray:
    """Density ratio l(x)/g(x) of each of the (m, d) unit-space `candidates`.

    l and g are kernel densities over the good and the bad centers, with
    diagonal Gaussian kernels plus one uniform-prior component weighted like
    an extra observation, so a density over zero centers is exactly the
    uniform density 1 on the cube. `bandwidths` is the (good, bad) pair; the
    bad entry may be None when bad is empty.

    One pass serves both densities. The scaled differences of every candidate
    to all G + B centers along every dimension form one (d, m, G + B) array
    from one broadcast subtract, one divide and one square; its d planes are
    added in the order of NumPy's pairwise reduction over a last axis and split
    into the good and the bad kernel sums only after the exp. Each density
    therefore equals the one summed from `(z * z).sum(axis=2)` over its own
    (m, H, d) array z bit for bit.
    """
    good_bw, bad_bw = bandwidths
    m, d = candidates.shape
    n_good = good.shape[0]
    # The candidates are spread over a (d, m, G + B) array first, so that
    # subtracting the (d, 1, G + B) centers, dividing by their bandwidths and
    # squaring all work in place, along contiguous rows of G + B.
    centers = np.empty((d, 1, n_good + len(bad)))
    centers[:, 0, :n_good] = good.T
    centers[:, 0, n_good:] = bad.T
    bw = np.empty_like(centers)
    bw[:, 0, :n_good] = good_bw[:, None]
    if len(bad):
        bw[:, 0, n_good:] = bad_bw[:, None]
    z = np.empty((d, m, centers.shape[2]))
    z[...] = candidates.T[:, :, None]
    z -= centers
    z /= bw
    np.square(z, out=z)
    kernels = _pairwise_sum(z.__getitem__, 0, d)  # adds into the planes of z
    kernels *= -0.5
    np.exp(kernels, out=kernels)

    def density(sums: np.ndarray, widths: np.ndarray | None) -> np.ndarray:
        n = sums.shape[1]
        if n == 0:
            return np.ones(m)
        norm = np.multiply.reduce(widths) * (2.0 * math.pi) ** (d / 2.0)
        return (1.0 + np.add.reduce(sums, axis=1) / norm) / (n + 1)

    l = density(kernels[:, :n_good], good_bw)
    g = density(kernels[:, n_good:], bad_bw)
    return l / np.maximum(g, TPE_DENSITY_FLOOR)


def _tpe_suggest(d: int, history: History, rng: np.random.Generator) -> np.ndarray:
    if len(history) < TPE_STARTUP:
        return rng.random(d)
    mask = tpe_split(history.loss, TPE_GAMMA)
    good_u, bad_u = history.u[mask], history.u[~mask]
    good_bw = tpe_bandwidths(good_u)
    bad_bw = tpe_bandwidths(bad_u) if len(bad_u) else None

    # Draw candidates from l itself: each of the good kernels and the uniform
    # prior component are equally likely sources.
    component = rng.integers(0, len(good_u) + 1, size=TPE_POOL)
    jitter = rng.standard_normal((TPE_POOL, d)) * good_bw
    uniform = rng.random((TPE_POOL, d))
    candidates = np.where(
        (component < len(good_u))[:, None],
        good_u[np.minimum(component, len(good_u) - 1)] + jitter,
        uniform,
    )
    # np.clip's values without its Python wrappers. The two differ only on a
    # -0.0 input, which `from_unit` maps to `lower` as it does 0.0.
    candidates = np.minimum(np.maximum(candidates, 0.0), 1.0)
    scores = tpe_score(candidates, good_u, bad_u, (good_bw, bad_bw))
    return candidates[int(np.argmax(scores))]


# ---------------------------------------------------------------------------
# Diagonal CMA


@dataclass(frozen=True)
class CmaState:
    mean: np.ndarray   # unit space
    sigma: np.ndarray  # per-dimension std, unit space


def cma_update(u: np.ndarray, loss: np.ndarray) -> CmaState:
    """Recompute the sampling state from the most recent window of points and losses.

    The state is derived purely from the window (no carried momentum) so that
    histories remain the single source of truth.
    """
    # At least two observations: the std of a single point is degenerate and
    # would pin sigma to the clamp floor before any search has happened.
    k = max(2, math.ceil(len(loss) / 4))
    top = np.argsort(loss, kind="stable")[:k]
    top_pts = u[top]
    weights = np.arange(k, 0, -1, dtype=float)  # best observation heaviest
    weights /= weights.sum()
    mean = weights @ top_pts
    sigma = np.minimum(np.maximum(top_pts.std(axis=0), CMA_SIGMA_MIN), CMA_SIGMA_MAX)
    return CmaState(mean=mean, sigma=sigma)


def _cma_suggest(d: int, history: History, rng: np.random.Generator) -> np.ndarray:
    # Sample uniformly until a full window exists: the window size doubles as
    # the exploration budget, preventing premature convergence on the first
    # few draws.
    if len(history) < CMA_WINDOW:
        return rng.random(d)
    state = cma_update(history.u[-CMA_WINDOW:], history.loss[-CMA_WINDOW:])
    u = state.mean + state.sigma * rng.standard_normal(d)
    return np.minimum(np.maximum(u, 0.0), 1.0)


# ---------------------------------------------------------------------------
# GP-UCB


def gp_ucb_beta(dim: int, t: int, delta: float) -> float:
    """Confidence scaling beta_t = 2 log(d t^2 pi^2 / (6 delta))."""
    return 2.0 * math.log(dim * t * t * math.pi * math.pi / (6.0 * delta))


@functools.cache
def _sobol_directions(d: int) -> np.ndarray:
    """The first SOBOL_DIRECTIONS unscrambled Sobol direction numbers of each
    of `d` dimensions, as a read-only (d, n) array of SOBOL_BITS-bit integers:
    the directions of `scipy.stats.qmc.Sobol(d, scramble=False)`."""
    # scipy's Joe & Kuo (2008) table, read without importing scipy.stats, which
    # takes longer to import than the rest of gpbt: `poly` holds each
    # dimension's primitive polynomial and `vinit` its initial direction numbers.
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    with np.load(os.path.join(scipy_dir, "stats", "_sobol_direction_numbers.npz")) as table:
        poly, vinit = table["poly"], table["vinit"]
    if d > len(poly):
        raise ValueError(f"Sobol directions exist for at most {len(poly)} dimensions, not {d}")

    # Row 0 is all ones. Row r starts with the m initial numbers of its
    # degree-m polynomial and goes on by the Bratley & Fox (1988) recurrence,
    # as scipy's `_initialize_v` builds it; only the first n columns are used.
    n = SOBOL_DIRECTIONS
    v = vinit[:d, :n].copy()
    v[:1] = 1
    for r in range(1, d):
        p = int(poly[r])
        m = p.bit_length() - 1
        for j in range(m, n):
            new = v[r, j - m]
            for k in range(m):
                if p >> (m - 1 - k) & 1:
                    new ^= v[r, j - k - 1] << (k + 1)
            v[r, j] = new
    directions = (v << (SOBOL_BITS - 1 - np.arange(n))).astype(np.uint32)
    directions.setflags(write=False)
    return directions


def sobol_pool(d: int, seed: int) -> np.ndarray:
    """The first GP_POOL points of the Sobol sequence under a random linear
    matrix scramble and digital shift: the same array, byte for byte, as
    `scipy.stats.qmc.Sobol(d, scramble=True, seed=seed).random(GP_POOL)`.

    The scramble is drawn from `np.random.default_rng(seed)` in scipy's order:
    (d, SOBOL_BITS) shift bits, then (d, SOBOL_BITS, SOBOL_BITS) matrices whose
    strict lower triangles are used, with unit diagonals. Only the directions
    the pool uses are scrambled.
    """
    # scipy's two calls are one `integers(0, 2, n, np.uint32)` stream. NumPy
    # takes each bit from one 32-bit draw x as (2 * x) >> 32, the top bit of x
    # (Lemire's method). It redraws only when the low word of 2 * x is below
    # 2**32 % 2, which is 0, so a range of 2 never rejects. PCG64 hands out the
    # low half of each 64-bit output before its high half: bits 2i and 2i + 1
    # are bits 31 and 63 of raw output i.
    raw = np.random.PCG64(seed).random_raw(d * SOBOL_BITS * (1 + SOBOL_BITS) // 2)
    bits = np.empty(2 * raw.size, np.uint32)
    bits[0::2] = raw >> 31 & 1
    bits[1::2] = raw >> 63
    lms = bits[d * SOBOL_BITS :].reshape(d, SOBOL_BITS, SOBOL_BITS)
    # Row p of a matrix, read as an integer with column 0 as its most
    # significant bit, selects the bits of a direction whose parity is bit p
    # of the scrambled direction, again counting from the most significant.
    msb_first = _SOBOL_WEIGHTS[::-1]
    rows = (lms @ msb_first & _SOBOL_STRICT_LOWER) | msb_first
    parity = rows[:, None, :] & _sobol_directions(d)[:, :, None]
    for s in (16, 8, 4, 2, 1):
        parity ^= parity >> s
    scrambled = (parity & 1) @ msb_first

    # Gray-code order: point k is point 2**(b+1) - 1 - k XOR direction b for
    # 2**b <= k < 2**(b+1), and point 0 is the shift.
    points = np.empty((2**SOBOL_DIRECTIONS, d), np.uint32)
    points[0] = bits[: d * SOBOL_BITS].reshape(d, SOBOL_BITS) @ _SOBOL_WEIGHTS
    for b in range(SOBOL_DIRECTIONS):
        half = 1 << b
        np.bitwise_xor(points[half - 1 :: -1], scrambled[:, b], out=points[half : 2 * half])
    return points[:GP_POOL] * 2.0**-SOBOL_BITS


def _rbf(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    from scipy.spatial.distance import cdist  # loaded by GP-UCB alone

    # cdist sums the squared differences in dimension order, as a loop would.
    # One divide by -2 L^2 gives the bits of -0.5 * d2 / L^2: scaling by a
    # power of two commutes with rounding.
    k = cdist(a, b, "sqeuclidean")
    k /= -2.0 * (GP_LENGTHSCALE * GP_LENGTHSCALE)
    return np.exp(k, out=k)


def _solve_upper(upper: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """Solve `upper @ x = b` (trans=0) or `upper.T @ x = b` (trans=1) for an
    F-contiguous upper triangle, overwriting `b` when it is F-contiguous: the
    LAPACK call that `scipy.linalg.solve_triangular` makes, without its checks."""
    from scipy.linalg.lapack import dtrtrs  # loaded by GP-UCB alone

    x, info = dtrtrs(upper, b, lower=0, trans=trans, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def gp_ucb_suggest(
    history: History,
    d: int,
    beta_t: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Minimize the lower confidence bound of a GP fit on unit-space inputs.

    Losses are standardized before the fit; candidates are a scrambled Sobol
    pool plus the incumbent best. A singular kernel matrix gets one jitter
    retry, then the call degrades to a uniform sample. The posterior comes
    from the Cholesky factor by triangular solves (GPML, Alg. 2.1).

    The factor is NumPy's: SciPy's `dpotrf` comes from another OpenBLAS build
    and can differ in the last bits. Its transpose, an F-contiguous upper
    triangle, goes straight to LAPACK's `dtrtrs` for the three solves, and the
    variance solve overwrites K*^T in place once the mean has been read from it.
    """
    if not history:
        return rng.random(d)
    x, y = history.u, history.loss
    h = len(x)
    # `y.mean()` and `y.std()` through the ufunc calls NumPy's `_mean` and
    # `_var` make, sharing the deviations: the same bits.
    dev = y - np.add.reduce(y) / h
    std = math.sqrt(np.add.reduce(dev * dev) / h)
    y_s = dev / std if std > 0 else dev

    k = _rbf(x, x)
    k.ravel()[:: h + 1] += GP_NOISE_VAR
    try:
        chol = np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(k + GP_JITTER * np.eye(h))
        except np.linalg.LinAlgError:
            return rng.random(d)

    candidates = np.empty((GP_POOL + 1, d))
    candidates[:GP_POOL] = sobol_pool(d, int(rng.integers(2**31)))
    candidates[GP_POOL] = x[int(np.argmin(y))]  # the incumbent

    # Every operand is finite, so no solve scans for NaN or inf: History
    # rejects non-finite losses, the factor comes from a Cholesky that
    # succeeded, and k_star is the exp of finite squared distances.
    upper = chol.T
    k_star = _rbf(candidates, x)
    alpha = _solve_upper(upper, _solve_upper(upper, y_s, 1), 0)
    mu = k_star @ alpha
    v = _solve_upper(upper, k_star.T, 1)  # overwrites k_star
    v *= v
    var = np.maximum(1.0 - np.add.reduce(v, axis=0), 0.0)  # prior variance is 1
    lcb = mu - math.sqrt(beta_t) * np.sqrt(var)
    return np.minimum(np.maximum(candidates[int(np.argmin(lcb))], 0.0), 1.0)
