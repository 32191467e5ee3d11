"""Dynamic weaving: delta-packings, latent codes, and memorizing hypernetworks.

A sequence of parameter vectors (theta_t) is stored as latent codes
z_t = (theta_t / M_T, p_t, t / (T - 1)): M_T = max(1, max pairwise
|theta_t - theta_s|), (p_t) is a delta-packing of the unit ball in R^Q that
keeps the codes pairwise well-separated regardless of the thetas, and the
last coordinate is a clock (0 at T = 1).  A ReLU network memorizes the
successor map z_t -> z_{t+1} exactly along the clock, and a linear readout
(scale the first P coordinates by M_T) recovers each theta in turn.

With N = T - 1 >= 2 memorized pairs the hypernetwork is the one-knot
interpolant of :func:`memorize` with the clock as its projection: dims
(P+Q+1, 1, N-1, P+Q+1).  Weaves saved before the clock have (P+Q)-wide
codes and one of three earlier layouts, tiled (P+Q, 2(N-1), P+Q), signed
(P+Q, 1, 2(N-1), P+Q) or paired (P+Q, 1, 2(N-1), N-1, P+Q); they are plain
ReLU nets, so they load, pass the successor gate and decode unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import net
from .errors import (BudgetOverflowError, IntegrityError, InvalidArgumentError,
                     PackingInfeasibleError)

__all__ = [
    "Packing",
    "WeaveModel",
    "Memorizer",
    "pack_ball",
    "aspect_ratio",
    "memorize",
    "build_weave",
    "rollout",
    "table2_report",
    "viable_horizon",
]

_PACK_RESTARTS = 8  # seeded random pools the greedy packing tries
_SEARCH_TRIES = 256  # random directions memorize scores for its projection
SUCCESSOR_TOLERANCE = 1e-9  # a code's largest one-step miss, over the codes' scale
SUCCESSOR_BLOCK = 128  # the most codes per forward of the successor gate


@dataclass(frozen=True)
class Packing:
    """Points in the closed ball of radius R with pairwise distances > delta."""

    Q: int
    R: float
    delta: float
    points: np.ndarray  # (count, Q)
    # measured once, by the validation, for min_separation to report
    _separation: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.R) and 0 < self.delta < self.R):
            raise InvalidArgumentError(
                f"need a finite R and 0 < delta < R, got R={self.R}, delta={self.delta}"
            )
        pts = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != self.Q:
            raise InvalidArgumentError(f"points must be (count, {self.Q})")
        if not np.isfinite(pts).all():
            raise InvalidArgumentError("packing points must be finite")
        norms = np.linalg.norm(pts, axis=1)
        if np.any(norms > self.R + 1e-12):
            raise InvalidArgumentError("packing point outside the ball")
        sep = _distance_extremes(pts)[0] if len(pts) > 1 else math.inf
        if sep <= self.delta:
            raise InvalidArgumentError(
                f"packing separation {sep:.6g} not strictly above delta={self.delta}"
            )
        object.__setattr__(self, "_separation", sep)

    @property
    def count(self):
        return len(self.points)

    def min_separation(self) -> float:
        """The least distance between two points (inf for fewer than two)."""
        return self._separation


# The BLAS screens.  _screened_rows and _greedy_farthest rank pairs by their
# squared distance |x|^2 + |y|^2 - 2 x.y, taken from a matrix product, and
# only the pairs that the ranking cannot rule out are measured by the direct
# sqrt(sum((x - y)^2)).  So _distance_extremes and _greedy_farthest return the
# same floats as a direct pass over every pair, at any BLAS thread count.
#
# The margin.  With u = 2^-53 and gamma_k = k u / (1 - k u), a k-term dot
# product, summed in any order, with or without fused multiply-adds, is within
# gamma_k sum |x_i y_i| of its real value.  Take two rows x, y of n columns
# (centred as c = fl(p - mu) by _screened_rows; the greedy pool is not
# centred) and sigma = |x|^2 + |y|^2.  Then
#   - the screen's squared norms are within gamma_n sigma, and forming
#     |x|^2 + |y|^2 - 2 x.y, as a dot product and two additions or as one
#     (n+2)-term dot product, adds at most 2 gamma_{n+2} (1 + gamma_n) sigma:
#     3.1 gamma_{n+2} sigma in all;
#   - centring moves each coordinate of x - y by at most
#     gamma_1 (|x_i| + |y_i|), so the squared distance by at most
#     4.01 gamma_1 sigma;
#   - the direct pass rounds the difference, its square and an n-term sum of
#     non-negative terms, so it is within gamma_{n+2} |p - q|^2
#     <= 2.01 gamma_{n+2} sigma of the real squared distance.
# A screened squared distance is thus within E = 9.2 gamma_{n+2} sigma
# <= 19 gamma_{n+2} scale of the direct one, scale being the largest screened
# squared norm, and so is a row's screened minimum (maximum) of its direct one:
# the row that holds the direct extreme screens within 2E of the screened
# extreme.  The greedy pass also needs the first index of the largest direct
# distance, and fl(sqrt) maps squared distances up to a factor 1 + 4.2 u apart
# to one float: another 4.2 u times at most 4.1 scale.  64 gamma_{n+2} scale
# covers it all (56 would).  Underflow adds at most half a subnormal per
# product, 5n per pair: the absolute term.  A wider margin only lets more
# pairs through to the direct pass.  From _SCREEN_LIMIT on the screen could
# overflow, so every pair is measured directly.
_SCREEN_LIMIT = 2.0 ** 1020  # the largest squared norm the screen is trusted with
# Below this many points the direct pass alone is faster: the screen costs a
# fixed ~0.07 ms, more than the whole direct pass over 8 points, and was as
# fast or faster from 12 points on, at widths 2 to 50 (2-core VM).
_SCREEN_MIN_ROWS = 12


def _screen_margin(n: int, scale: float) -> float:
    """How far below (above) a screened maximum (minimum) of squared
    distances between rows of n columns a screened value may lie and still
    belong to the direct one; inf when the screen cannot be trusted."""
    if not scale < _SCREEN_LIMIT:  # NaN too
        return math.inf
    k = (n + 2) * np.finfo(np.float64).eps / 2
    return 64.0 * (k / (1.0 - k) * scale + (n + 2) * np.finfo(np.float64).smallest_subnormal)


def _screened_rows(pts: np.ndarray) -> np.ndarray:
    """The rows a of two or more points whose distances to the rows after
    them may hold the least or the largest of all pairwise distances, by a
    BLAS screen of the centred squared distances (see _screen_margin).  It
    runs on blocks of at most 8 max(1, n) rows, so memory stays linear in the size
    of ``pts``."""
    T, n = pts.shape
    with np.errstate(over="ignore", invalid="ignore"):
        c = pts - pts.mean(axis=0)
        sq = np.einsum("ij,ij->i", c, c)
        margin = _screen_margin(n, float(sq.max()))
        lo = np.empty(T - 1)
        hi = np.empty(T - 1)
        block = 8 * max(1, n)
        for i in range(0, T - 1, block):
            j = min(i + block, T - 1)
            # row a = i + r against b = i + 1 + k: the pairs b <= a lie below the diagonal
            d = c[i:j] @ c[i + 1:].T
            d *= -2.0
            d += sq[i:j, None]
            d += sq[None, i + 1:]
            below = np.tril_indices(j - i, -1)
            d[below] = np.inf
            d.min(axis=1, out=lo[i:j])
            d[below] = -np.inf
            d.max(axis=1, out=hi[i:j])
        finite = np.isfinite(lo) & np.isfinite(hi)
        keep = ~finite
        if finite.any():
            keep |= lo <= lo[finite].min() + margin
            keep |= hi >= hi[finite].max() - margin
    return np.flatnonzero(keep)


def _distance_extremes(pts: np.ndarray) -> tuple:
    """(min, max) distance between distinct rows of two or more points.  One
    row at a time, keeping only each row's extremes, so memory stays linear
    in the size of ``pts``; from _SCREEN_MIN_ROWS points on, only the rows
    that :func:`_screened_rows` cannot rule out."""
    rows = _screened_rows(pts) if len(pts) >= _SCREEN_MIN_ROWS else range(len(pts) - 1)
    lo = np.empty(len(rows))
    hi = np.empty(len(rows))
    for k, a in enumerate(rows):
        diff = pts[a + 1:] - pts[a]
        d = np.sqrt(np.sum(diff * diff, axis=-1))
        lo[k] = d.min()
        hi[k] = d.max()
    return float(lo.min()), float(hi.max())


def _greedy_farthest(pool: np.ndarray, delta: float, T_needed: int, start: int):
    """Farthest-point pass over a candidate pool; stops at T_needed points or
    when no candidate stays strictly beyond delta from the chosen set.

    Each step takes one gemv of the rows (x, 1, |x|^2) of the pool with
    (-2 p, |p|^2, 1) for the newly chosen point p, the screened squared
    distance |x|^2 + |p|^2 - 2 x.p of every x, into a running minimum.  Only
    the candidates within _screen_margin of the screened maximum are measured
    directly, each against the points chosen since it was last measured.
    The next point is the first index of the largest direct distance, so the
    pass picks the points, and stops, exactly where a direct pass over the
    whole pool would, and never measures more pairs than it."""
    size, n = pool.shape
    chosen = np.empty((T_needed, n))
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", pool, pool)
        margin = _screen_margin(n, float(sq.max()))
        rows = np.vstack([pool.T, np.ones(size), sq])
    vec = np.empty(n + 2)
    vec[n + 1] = 1.0
    screened = np.full(size, np.inf)
    gap = np.empty(size)
    near = np.full(size, np.inf)  # the least direct distance to chosen[:seen]
    seen = np.zeros(size, dtype=np.intp)
    i = start
    for k in range(1, T_needed + 1):
        chosen[k - 1] = pool[i]
        if k == T_needed:
            break
        np.multiply(pool[i], -2.0, out=vec[:n])
        vec[n] = sq[i]
        with np.errstate(over="ignore", invalid="ignore"):
            np.dot(vec, rows, out=gap)
            np.minimum(screened, gap, out=screened)
            # a NaN screens as a candidate
            cand = np.flatnonzero(~(screened < screened.max() - margin))
        for s in np.unique(seen[cand]):
            group = cand[seen[cand] == s]
            step = max(1, size // (k - s))  # at most `size` differences at a time
            for g in range(0, len(group), step):
                part = group[g:g + step]
                d = np.linalg.norm(pool[part, None] - chosen[None, s:k], axis=2)
                near[part] = np.minimum(near[part], d.min(axis=1))
        seen[cand] = k
        best = int(np.argmax(near[cand]))
        i = int(cand[best])
        if near[i] <= delta:
            break
    return chosen[:k]


def _pack_points(Q: int, R: float, delta: float, T: int, seed: int) -> np.ndarray:
    """T points in the radius-R ball, pairwise more than delta apart, from
    greedy farthest-point passes over seeded random pools; unchecked, since
    :class:`Packing` validates them.  Fails cleanly with the best achieved
    count when T is unreachable."""
    if not 0 < delta < R:
        raise InvalidArgumentError(f"need 0 < delta < R, got delta={delta}, R={R}")
    if T < 1:
        raise InvalidArgumentError(f"T_needed must be >= 1, got {T}")
    # covering-style upper bound on any packing of the ball
    log_cap = Q * math.log(3.0 * R / delta)
    if log_cap < 50 and T > math.exp(log_cap):
        raise PackingInfeasibleError(
            f"T_needed={T} exceeds the packing upper bound {math.exp(log_cap):.3g}",
            achieved=0,
        )
    rng = np.random.default_rng(seed)
    achieved = 0
    pool_size = min(max(4096, 64 * T), 40_000)
    for _ in range(_PACK_RESTARTS):
        raw = rng.standard_normal((pool_size, Q))
        radii = rng.random(pool_size) ** (1.0 / Q)
        pool = raw / np.linalg.norm(raw, axis=1, keepdims=True) * (R * radii)[:, None]
        start = int(rng.integers(pool_size))
        chosen = _greedy_farthest(pool, delta, T, start)
        if len(chosen) == T:
            return chosen
        achieved = max(achieved, len(chosen))
    raise PackingInfeasibleError(
        f"could not pack {T} points (Q={Q}, R={R}, delta={delta}); achieved {achieved}",
        achieved=achieved,
    )


def pack_ball(Q: int, R: float, delta: float, T_needed: int, seed: int = 0) -> Packing:
    """Construct a delta-packing of T_needed points in the radius-R ball from
    greedy farthest-point passes over seeded random pools.  Fails cleanly
    with the best achieved count when T_needed is unreachable."""
    return Packing(Q, R, delta, _pack_points(Q, R, delta, T_needed, seed))


def aspect_ratio(points) -> float:
    """max pairwise distance over min pairwise distance."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if len(pts) < 2:
        raise InvalidArgumentError("need at least two points")
    if not np.isfinite(pts).all():
        raise InvalidArgumentError("points must be finite")
    lo, hi = _distance_extremes(pts)
    if lo == 0.0:
        raise InvalidArgumentError("duplicate points have no aspect ratio")
    return hi / lo


class Memorizer(NamedTuple):
    """An exact-interpolation network."""

    spec: net.NetSpec
    theta: np.ndarray


def _projection_direction(xs: np.ndarray, rng) -> np.ndarray:
    """The best-separating of _SEARCH_TRIES random directions for the anchor
    rows ``xs``: the one whose sorted projections have the largest min-gap
    over span.

    Only the projections D w of the centered anchors D = xs - mean matter,
    and with the Gram D D^T = V diag(lam) V^T they are N(0, D D^T) both for a
    standard normal w in R^n and for w = D^T V lam^-1/2 g with g standard
    normal in R^r, r <= N - 1 the Gram's rank.  So each try draws r numbers,
    not n; its centered projections are V lam^1/2 g, all tries are scored by
    one sort, and only the winner becomes an n-vector, inside the row space
    of D.  Equal anchors give the zero vector.
    """
    D = xs - xs.mean(axis=0)
    lam, V = np.linalg.eigh(D @ D.T)
    # eigenvalues at the Gram's rounding level carry no direction
    keep = lam > lam[-1] * max(D.shape) * np.finfo(np.float64).eps
    lam, V = lam[keep], V[:, keep]
    if lam.size == 0:  # every anchor equal
        return np.zeros(xs.shape[1])
    g = rng.standard_normal((lam.size, _SEARCH_TRIES))
    proj = np.sort(V @ (np.sqrt(lam)[:, None] * g), axis=0)  # (N, tries)
    quality = np.diff(proj, axis=0).min(axis=0) / (proj[-1] - proj[0])
    k = int(np.argmax(quality))
    return (V @ (g[:, k] / np.sqrt(lam))) @ D


def memorize(pairs, seed: int = 0) -> Memorizer:
    """Build a ReLU network with NN(x_i) = y_i exactly (to ~1e-13).

    Construction: project the anchors to a line (the best-separating of 256
    seeded random directions in the span of the centered anchors; one
    eigendecomposition of the N x N Gram lets every try draw at most N - 1
    numbers, not n), then interpolate along it with one knot per anchor but
    the last.  For N >= 2 anchors and K = N - 1 the network has dims
    ``(n, 1, K, d)``:

    - layer 0 is the projection direction w as a 1 x n block; its input
      shift beta moves the coordinates w reads of every anchor into the
      positive orthant, so it computes p = relu(x + beta) . w = (x + beta) . w
      on the anchors;
    - layer 1 is a column of ones with the scalar input shift
      gamma = 1 + max(0, -min_k p_k), so its ReLU passes s = p + gamma >= 1
      unchanged and fans it out to the K knot units;
    - layer 2 has the knot biases -s_i of the sorted anchors but the last,
      so knot unit i computes relu(s - s_i), and the d x K slope block,
      whose column a_i is the change of slope at s_i.  With the first
      anchor's target y_0 as output bias the network is
      f(s) = y_0 + sum_i a_i relu(s - s_i).

    It holds 2n + K(d + 2) + d + 4 numbers, each slope change once.  Every
    coordinate's head reads the same knot units.  gamma and the knots are
    taken at p as the network computes it, not at x . w, so anchors far
    from the origin, where beta is large, keep their fit.  A single anchor
    gives the constant net ``(n, d)``.  Anchors that are equal, or too close
    for any searched projection to separate, raise InvalidArgumentError.
    """
    xs = np.asarray([np.atleast_1d(np.asarray(p[0], dtype=np.float64)) for p in pairs])
    ys = np.asarray([np.atleast_1d(np.asarray(p[1], dtype=np.float64)) for p in pairs])
    if xs.ndim != 2 or ys.ndim != 2 or len(xs) != len(ys) or len(xs) == 0:
        raise InvalidArgumentError("pairs must be a nonempty list of (x, y) vectors")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise InvalidArgumentError("anchors and their targets must be finite")
    # the search is also the distinctness check: equal anchors give a zero
    # (or rounding-level) gap on every projection, which _interpolant rejects
    w = _projection_direction(xs, np.random.default_rng(seed)) if len(xs) > 1 else None
    return _interpolant(xs, ys, w)


def _interpolant(xs: np.ndarray, ys: np.ndarray, w) -> Memorizer:
    """The one-knot ReLU interpolant of the anchor rows ``xs`` to the target
    rows ``ys`` along the direction ``w`` (see :func:`memorize`); the
    constant net for a single anchor, whatever ``w``."""
    N, n = xs.shape
    d = ys.shape[1]
    if N == 1:
        spec = net.NetSpec((n, d), "relu")
        theta = net.pack(spec, [(np.zeros((d, n)), np.zeros(n), 0.0)], ys[0])
        return Memorizer(spec, theta)
    K = N - 1
    spec = net.NetSpec((n, 1, K, d), "relu")
    # every block is written through views into theta, so no model-sized
    # array but theta is built
    theta = np.zeros(net.param_count(spec))
    ((A0, b0, _), (A1, b1, _), (A2, b2, _)), c = net._blocks(spec, theta)
    A0[0] = w
    # p as layer 0 computes it, on the columns w reads: the others add exact
    # zeros, and a sparse w (the weave's clock) copies no more than it reads
    read = slice(None) if np.all(w) else np.flatnonzero(w)
    shifted = xs[:, read]
    # beta >= -min of those columns (none if w is zero), and rounding is
    # monotone, so they stay >= 0 after the shift: layer 0's ReLU passes them
    b0[:] = 1.0 - float(shifted.min(initial=0.0))
    shifted = shifted + b0[0]
    p = np.dot(np.maximum(shifted, 0.0, out=shifted), A0[:, read].T)[:, 0]
    A1[:] = 1.0
    b1[0] = 1.0 + max(0.0, -float(p.min()))
    s = p + b1[0]  # the knot units' input, as layer 1 computes it
    order = np.argsort(s)
    s = s[order]
    gaps = np.diff(s)
    if not (s[-1] > s[0] and gaps.min() / (s[-1] - s[0]) > 1e-12):
        raise InvalidArgumentError("anchor inputs must be pairwise distinct: some are "
                                   "equal, or too close for a random projection to separate")
    b2[:] = -s[:-1]
    # column i: segment i's slope less segment i - 1's, one target row at a time
    previous = 0.0
    for i in range(K):
        slope = ys[order[i + 1]] - ys[order[i]]
        slope /= gaps[i]
        np.subtract(slope, previous, out=A2[:, i])
        previous = slope
    c[:] = ys[order[0]]
    return Memorizer(spec, theta)


def _clock(T: int) -> np.ndarray:
    """The codes' last column: t / (T - 1) for t < T, and 0 at T = 1."""
    return np.arange(T) / max(1, T - 1)


@dataclass(frozen=True)
class WeaveModel:
    """Latent codes, the memorizing hypernetwork, and the scaling readout.

    The one place that knows the codes' layout: the theta / M_T block is
    the first P columns, the packing block the next Q, and the clock
    t / (T - 1) the last.  Weaves saved before the clock have no clock
    column.  ``packing`` is not stored: it is the packing block, with R and
    delta, and is validated as a :class:`Packing` at construction."""

    Q: int
    P: int
    M_T: float
    delta: float
    R: float
    codes: np.ndarray  # (T, P + Q + 1), or (T, P + Q) without the clock
    hyper_spec: net.NetSpec
    hyper_theta: np.ndarray
    seed: int
    packing: Packing = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        P, Q, codes = self.P, self.Q, self.codes
        if codes.ndim != 2 or len(codes) == 0 or codes.shape[1] not in (P + Q, P + Q + 1):
            raise InvalidArgumentError(f"codes must be a nonempty (T, {P + Q + 1}) array, "
                                       f"or (T, {P + Q}) without the clock; got {codes.shape}")
        if self.clocked and not np.array_equal(codes[:, -1], _clock(self.T)):
            raise InvalidArgumentError("the codes' last column is not the clock t / (T - 1)")
        width = codes.shape[1]
        if (self.hyper_spec.d_in, self.hyper_spec.d_out) != (width, width):
            raise InvalidArgumentError(f"hypernetwork dims {self.hyper_spec.dims} must map "
                                       f"the {width}-wide codes to codes")
        if not (math.isfinite(self.M_T) and self.M_T >= 1):
            raise InvalidArgumentError(f"M_T must be finite and at least 1, got {self.M_T}")
        object.__setattr__(self, "packing", Packing(Q, self.R, self.delta, codes[:, P:P + Q]))

    @staticmethod
    def assemble_codes(thetas: np.ndarray, M_T: float, points: np.ndarray) -> np.ndarray:
        """The codes (thetas / M_T, points, clock) of the (T, P) ``thetas``
        and the (T, Q) packing ``points``."""
        return np.hstack([thetas / M_T, points, _clock(len(thetas))[:, None]])

    @property
    def T(self):
        return len(self.codes)

    @property
    def clocked(self) -> bool:
        return self.codes.shape[1] > self.P + self.Q

    @property
    def aspect_bound(self) -> float:
        """The bound on the codes' aspect ratio: the packing keeps them more
        than delta apart, and their squared diameter is at most 1 from the
        theta block (M_T is the thetas' diameter), 4R^2 from the packing and
        1 from the clock."""
        return math.sqrt(1 + self.clocked + 4 * self.R ** 2) / self.delta

    @cached_property
    def hyper_layers(self) -> tuple:
        """The hypernetwork's ``([(A_j, b_j, alpha_j)], c)`` views, unpacked on
        first use; the rollout and the successor gate share them."""
        return net.unpack(self.hyper_spec, self.hyper_theta)

    @cached_property
    def successor_residuals(self) -> np.ndarray:
        """Each code's one-step miss max|NN(z_t) - z_{t+1}| over the codes'
        scale max(1, max|z|), for t < T - 1: batched forwards, not a rollout,
        computed on first use and then read by the successor gate and
        ``inspect`` alike.  The codes are split evenly into blocks of at most
        SUCCESSOR_BLOCK, so the hidden layer is held for one block at a time
        and no block is a sliver of a few rows, which BLAS would round
        differently from one forward over all the codes."""
        codes = self.codes
        n = self.T - 1
        miss = np.empty(n)
        layers, c = self.hyper_layers
        blocks = -(-n // SUCCESSOR_BLOCK)
        # in place: the gate runs on every load, next to the bundle's own arrays
        for k in range(blocks):
            i, j = k * n // blocks, (k + 1) * n // blocks
            block = net._realize(layers, c, codes[i:j])
            block -= codes[i + 1:j + 1]
            np.abs(block, out=block).max(axis=1, out=miss[i:j])
        miss /= max(1.0, float(codes.max()), -float(codes.min()))
        miss.flags.writeable = False
        return miss

    def check_successors(self):
        """Raise IntegrityError unless the hypernetwork maps every code to the
        next one within SUCCESSOR_TOLERANCE of the codes' scale: the gate that
        construction, load and ``weave-test`` run."""
        residuals = self.successor_residuals
        bad = np.flatnonzero(~(residuals <= SUCCESSOR_TOLERANCE))  # a NaN miss is a miss
        if bad.size:
            t = int(bad[0])
            raise IntegrityError(
                f"the weave misses window {t + 1}: its hypernetwork maps window {t}'s "
                f"code {residuals[t]:.3g} of the codes' scale away from window {t + 1}'s "
                f"(tolerance {SUCCESSOR_TOLERANCE:g})"
            )

    @property
    def z0(self):
        return self.codes[0]

    def readout(self, z: np.ndarray, out=None) -> np.ndarray:
        """L(z): scale the first P coordinates of a code, or of each row of a
        stack of codes, back to parameter space (into ``out`` if given)."""
        return np.multiply(np.asarray(z)[..., : self.P], self.M_T, out=out)


def viable_horizon(Q: int, delta: float) -> int:
    """I_{delta,Q} = floor(delta^-Q): the most parameter vectors a weave with
    Q code dimensions and code separation delta can hold."""
    if not delta > 0:
        raise InvalidArgumentError(f"delta must be positive, got {delta}")
    try:
        return math.floor(delta ** (-Q))
    except OverflowError as e:
        raise BudgetOverflowError(f"delta^-Q overflows for delta={delta}, Q={Q}",
                                  log_value=-Q * math.log(delta)) from e


def build_weave(thetas, Q: int, delta: float, seed: int = 0) -> WeaveModel:
    """Assemble latent codes for a parameter sequence and memorize successors.
    The packing block is a delta-packing of the unit ball, validated once, by
    the returned model.  The successors are memorized along the clock, whose
    anchors lie 1 / (T - 1) apart, so no projection is searched and the
    codes are not copied.  A single code has no successor, so it memorizes
    z0 -> z0: the constant net ``(P+Q+1, P+Q+1)``, which a one-step rollout
    never evaluates."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 2 or len(thetas) == 0:
        raise InvalidArgumentError("thetas must be a nonempty (T, P) array")
    if not np.all(np.isfinite(thetas)):
        raise InvalidArgumentError("thetas must be finite")
    T, P = thetas.shape
    horizon = viable_horizon(Q, delta)
    if T > horizon:
        raise InvalidArgumentError(
            f"T={T} exceeds the viable horizon floor(delta^-Q)={horizon}"
        )
    m_t = _distance_extremes(thetas)[1] if T > 1 else 0.0
    M_T = max(1.0, m_t)
    codes = WeaveModel.assemble_codes(thetas, M_T, _pack_points(Q, 1.0, delta, T, seed))
    clock = np.zeros(codes.shape[1])
    clock[-1] = 1.0
    # every code but the last maps to the next; a lone code maps to itself
    anchors, targets = (codes[:-1], codes[1:]) if T > 1 else (codes, codes)
    mem = _interpolant(anchors, targets, clock)
    return WeaveModel(
        Q=Q, P=P, M_T=M_T, delta=delta, R=1.0, codes=codes,
        hyper_spec=mem.spec, hyper_theta=mem.theta, seed=seed,
    )


def rollout(w: WeaveModel, steps: int) -> np.ndarray:
    """theta-hat sequence as a (steps, P) array: read out, advance the latent
    code, repeat.  Each readout is written into its row, so the sequence is
    the only model-sized array the rollout makes."""
    if steps < 1 or steps > w.T:
        raise InvalidArgumentError(f"steps must be in [1, {w.T}], got {steps}")
    # each step is net.forward's layer loop and the readout, nothing else
    layers, c = w.hyper_layers
    out = np.empty((steps, w.P))
    z = w.z0
    for i in range(steps):
        w.readout(z, out=out[i])
        if i < steps - 1:
            z = net._realize(layers, c, z)
    return out


def table2_report(P: int, Q: int, delta: float, T: int, measured_width=None) -> dict:
    """Closed-form hypernetwork complexity bounds next to measured values.

    The depth and parameter-count expressions are asymptotic; they are
    evaluated with every unstated constant set to 1 (recorded in the output)
    and never asserted against measurements.
    """
    I = viable_horizon(Q, delta)
    if T > I:
        raise InvalidArgumentError(f"T={T} exceeds I_delta_Q={I}")
    width_bound = (P + Q) * I + 12
    log_i = math.log(I) if I > 1 else 1.0
    try:
        bracket = max(0.0, 1.0 + (math.log(I * I * math.sqrt(2.0)) - math.log(delta)) / math.log(2.0))
        depth_expr = I * (1.0 + math.sqrt(I * log_i) * (1.0 + math.log(2.0) / log_i * bracket))
        params_expr = (
            I ** 3 * (P + Q) ** 2
            * (1.0 + (P + Q) * math.sqrt(I * log_i)
               * (1.0 + math.log(2.0) / log_i * max(0.0, width_bound + (math.log(I * I * math.sqrt(2.0)) - math.log(delta)) / math.log(2.0))))
        )
    except OverflowError:  # an integer horizon past float range
        raise BudgetOverflowError(f"the Table-2 expressions overflow float range at "
                                  f"I_delta_Q={I}", log_value=math.log(I)) from None
    report = {
        "I_delta_Q": I,
        "width_bound": width_bound,
        "depth_expr_at_constant_1": depth_expr,
        "params_expr_at_constant_1": params_expr,
        "constants_set_to_1": True,
    }
    if measured_width is not None:
        report["measured_width"] = int(measured_width)
        report["within_width_bound"] = bool(measured_width <= width_bound)
    return report
