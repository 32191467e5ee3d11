"""Concrete separable spaces with ordered bases and compatible metrics.

Four instances are provided:

* ``euclidean(dim)`` — R^dim with the standard basis and the single norm |.|_2.
* ``weighted_sequence()`` — finitely supported coordinate sequences with the
  increasing seminorm family p_k(x) = max_{j<=k} |x_j|.
* ``fourier_l2(horizon)`` — L^2([0, t]) with the orthonormal trigonometric
  basis of :func:`trig_mode`: f_1 = 1/sqrt(t), f_{2j}(s) = sqrt(2/t) sin(2 pi j s / t),
  f_{2j+1}(s) = sqrt(2/t) cos(2 pi j s / t).  Projection is an inner product
  with each mode, and by Parseval the coordinate 2-norm is the L^2 norm.
* ``chaos_l2(mode_count, horizon)`` — first-order chaos coordinates
  (mean, stochastic-integral coefficients) of square-integrable variables,
  the integrands expanded in the same modes, so the second moment is exactly
  mean^2 + |coeffs|^2.

The metric is the weighted series  d(x, y) = sum_k 2^{-k} Phi(p_k(x - y)) with
Phi(u) = u / (1 + u).  Banach instances have a single norm, the coordinate
2-norm, so the series is the single term 2^{-1} Phi(|x - y|); the sequence
space sums the series to ``k_max`` terms with tail bound 2^{-k_max}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, SpaceMismatchError

__all__ = [
    "SchauderSpace",
    "CoordVector",
    "FourierFunction",
    "euclidean",
    "weighted_sequence",
    "fourier_l2",
    "chaos_l2",
    "trig_mode",
    "phi",
    "project",
    "reconstruct",
    "metric",
    "metric_tail",
    "truncate",
]

K_MAX_DEFAULT = 64
QUADRATURE_POINTS = 1024
KINDS = ("euclidean", "weighted_sequence", "fourier_l2", "chaos_l2")


def phi(u):
    """The bounded clamp Phi(u) = u / (1 + u) applied to each seminorm term."""
    return u / (1.0 + u)


@dataclass(frozen=True)
class SchauderSpace:
    """A concrete space instance; immutable and freely shareable."""

    kind: str  # one of KINDS
    dim: int = 0  # euclidean only
    horizon: float = 0.0  # fourier_l2 / chaos_l2
    mode_count: int = 0  # chaos_l2 only
    k_max: int = K_MAX_DEFAULT

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidArgumentError(f"unknown space kind {self.kind!r}")

    def coord_dim(self):
        """Natural coordinate dimension, or None when unbounded."""
        if self.kind == "euclidean":
            return self.dim
        if self.kind == "chaos_l2":
            return 1 + self.mode_count
        return None

    def describe(self) -> dict:
        """Serializable description (kind + parameters)."""
        return {
            "kind": self.kind,
            "dim": self.dim,
            "horizon": self.horizon,
            "mode_count": self.mode_count,
            "k_max": self.k_max,
        }


def from_description(d: dict) -> SchauderSpace:
    return SchauderSpace(
        kind=d["kind"],
        dim=int(d.get("dim", 0)),
        horizon=float(d.get("horizon", 0.0)),
        mode_count=int(d.get("mode_count", 0)),
        k_max=int(d.get("k_max", K_MAX_DEFAULT)),
    )


def euclidean(dim: int, k_max: int = K_MAX_DEFAULT) -> SchauderSpace:
    if dim < 1:
        raise InvalidArgumentError(f"dim must be >= 1, got {dim}")
    return SchauderSpace("euclidean", dim=dim, k_max=k_max)


def weighted_sequence(k_max: int = K_MAX_DEFAULT) -> SchauderSpace:
    return SchauderSpace("weighted_sequence", k_max=k_max)


def fourier_l2(horizon: float, k_max: int = K_MAX_DEFAULT) -> SchauderSpace:
    if horizon <= 0:
        raise InvalidArgumentError(f"horizon must be positive, got {horizon}")
    return SchauderSpace("fourier_l2", horizon=float(horizon), k_max=k_max)


def chaos_l2(mode_count: int, horizon: float, k_max: int = K_MAX_DEFAULT) -> SchauderSpace:
    if mode_count < 0:
        raise InvalidArgumentError(f"mode_count must be >= 0, got {mode_count}")
    if horizon < 0:
        raise InvalidArgumentError(f"horizon must be >= 0, got {horizon}")
    return SchauderSpace(
        "chaos_l2", mode_count=int(mode_count), horizon=float(horizon), k_max=k_max
    )


@dataclass(frozen=True)
class CoordVector:
    """First-n basis coefficients of an element of a space."""

    coords: np.ndarray
    space: SchauderSpace

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.float64)
        if c.ndim != 1:
            raise InvalidArgumentError(f"coords must be 1-D, got shape {c.shape}")
        object.__setattr__(self, "coords", c)


@dataclass(frozen=True)
class FourierFunction:
    """An element of L^2([0, t]) stored by its exact basis coefficients.

    Callable pointwise; projection reads the stored coefficients back
    bit-for-bit rather than re-running quadrature.
    """

    coeffs: np.ndarray
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64))

    def __call__(self, s):
        s = np.asarray(s, dtype=np.float64)
        out = np.zeros_like(s, dtype=np.float64)
        for k, ck in enumerate(self.coeffs, start=1):
            if ck != 0.0:
                out = out + ck * trig_mode(k, self.horizon, s)
        return out


def trig_mode(k: int, t: float, s):
    """k-th mode of the orthonormal trigonometric basis of L^2([0, t]).

    Mode 1 is the constant 1/sqrt(t); modes 2j and 2j+1 are
    sqrt(2/t) sin(2 pi j s / t) and sqrt(2/t) cos(2 pi j s / t).  The system
    is orthonormal, which makes ``fourier_l2``'s projection an inner product
    and the Ito isometry E[eta^2] = mean^2 + |coeffs|^2 of ``chaos_l2`` exact.
    """
    if t <= 0:
        raise InvalidArgumentError("modes need a positive horizon")
    s = np.asarray(s, dtype=np.float64)
    if k == 1:
        return math.sqrt(1.0 / t) * np.ones_like(s)
    j = k // 2
    if k % 2 == 0:
        return math.sqrt(2.0 / t) * np.sin(2.0 * j * math.pi * s / t)
    return math.sqrt(2.0 / t) * np.cos(2.0 * j * math.pi * s / t)


def _as_coords(space: SchauderSpace, x) -> np.ndarray:
    """Coerce an element representation to a full coordinate array."""
    if isinstance(x, CoordVector):
        if x.space != space:
            raise SpaceMismatchError(
                f"coordinate vector belongs to {x.space.kind}, not {space.kind}"
            )
        return x.coords
    if isinstance(x, FourierFunction):
        if space.kind != "fourier_l2" or x.horizon != space.horizon:
            raise SpaceMismatchError("FourierFunction horizon does not match space")
        return x.coeffs
    if callable(x):
        return _quadrature_coords(space, x, 2 * space.k_max)
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidArgumentError(f"element must be 1-D, got shape {arr.shape}")
    cd = space.coord_dim()
    if cd is not None and len(arr) != cd:
        raise InvalidArgumentError(f"{space.kind} element needs length {cd}, got {len(arr)}")
    return arr


def _quadrature_coords(space: SchauderSpace, f, n: int) -> np.ndarray:
    """Inner products of a callable with the first n modes, by composite
    Simpson on QUADRATURE_POINTS intervals (an even count)."""
    if space.kind != "fourier_l2":
        raise InvalidArgumentError(
            f"callable elements are only supported in fourier_l2, not {space.kind}"
        )
    s, w = _simpson(space.horizon)
    fs = w * np.asarray(f(s), dtype=np.float64)
    return np.array([trig_mode(k, space.horizon, s) @ fs for k in range(1, n + 1)])


def _simpson(t: float):
    """The QUADRATURE_POINTS + 1 nodes on [0, t] and their composite-Simpson
    weights."""
    s = np.linspace(0.0, t, QUADRATURE_POINTS + 1)
    w = np.full(len(s), 2.0)
    w[1::2] = 4.0
    w[[0, -1]] = 1.0
    w *= (s[1] - s[0]) / 3.0
    return s, w


def _pointwise(x) -> bool:
    """Whether an element is given only by its values (a plain callable)."""
    return callable(x) and not isinstance(x, FourierFunction)


def _values(space: SchauderSpace, x, s: np.ndarray) -> np.ndarray:
    """An element of ``fourier_l2`` evaluated at the nodes ``s``."""
    if _pointwise(x):
        return np.asarray(x(s), dtype=np.float64)
    return FourierFunction(_as_coords(space, x), space.horizon)(s)


def project(space: SchauderSpace, x, n: int) -> CoordVector:
    """First n Schauder coordinates of an element."""
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    cd = space.coord_dim()
    if cd is not None and n > cd:
        raise InvalidArgumentError(f"n={n} exceeds the space's dimension {cd}")
    if _pointwise(x):
        return CoordVector(_quadrature_coords(space, x, n), space)
    full = _as_coords(space, x)
    coords = np.zeros(n)
    take = min(n, len(full))
    coords[:take] = full[:take]
    return CoordVector(coords, space)


def reconstruct(space: SchauderSpace, v: CoordVector):
    """Sum of the first-n basis elements weighted by the coordinates."""
    if v.space != space:
        raise SpaceMismatchError("coordinate vector belongs to a different space")
    if space.kind == "fourier_l2":
        return FourierFunction(np.array(v.coords, copy=True), space.horizon)
    cd = space.coord_dim()
    out = np.zeros(len(v.coords) if cd is None else cd)
    out[: len(v.coords)] = v.coords
    return out


def truncate(space: SchauderSpace, x, n: int):
    """A_n(x) = reconstruct(project(x, n)); the rank-n approximation of x."""
    return reconstruct(space, project(space, x, n))


def metric_tail(space: SchauderSpace) -> float:
    """Upper bound on the truncated part of the metric series."""
    if space.kind == "weighted_sequence":
        return 2.0 ** (-space.k_max)
    return 0.0


def metric(space: SchauderSpace, x, y) -> float:
    """d(x, y) = sum_k 2^{-k} Phi(p_k(x - y)), evaluated to k_max terms.

    The reported value is exact for the Banach instances (single term) and
    within :func:`metric_tail` for the sequence space.  When either element
    of ``fourier_l2`` is a plain callable, |x - y| is its L^2 norm by the
    composite-Simpson weights of projection on QUADRATURE_POINTS = 1024
    intervals, which integrate |x - y|^2 exactly while its modes stay below
    512; higher modes alias.
    """
    if space.kind == "fourier_l2" and (_pointwise(x) or _pointwise(y)):
        s, w = _simpson(space.horizon)
        diff = _values(space, x, s) - _values(space, y, s)
        return 0.5 * phi(math.sqrt(float(w @ (diff * diff))))
    cx = _as_coords(space, x)
    cy = _as_coords(space, y)
    n = max(len(cx), len(cy))
    z = np.zeros(n)
    z[: len(cx)] += cx
    z[: len(cy)] -= cy
    if space.kind == "weighted_sequence":
        total = 0.0
        running_max = 0.0
        for k in range(1, space.k_max + 1):
            if k <= n:
                running_max = max(running_max, abs(z[k - 1]))
            total += 2.0 ** (-k) * phi(running_max)
        return total
    return 0.5 * phi(float(np.linalg.norm(z)))
