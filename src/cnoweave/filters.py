"""Neural filters and the complexity-budget calculators.

A neural filter is the composite  decode ∘ network ∘ encode: project the
input element to its first ``n_in`` basis coordinates, run a (P)ReLU network,
and reconstruct an output-space element from the ``n_out`` outputs.

The budget calculators evaluate the width/depth formulas for the smooth and
Holder regularity classes exactly as printed (with ceilings applied after
log-space evaluation), including the special function V — the inverse of
u -> u^4 log_3(u + 2) — and generalized inverses of monotone maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import net, spaces
from .errors import BudgetOverflowError, InvalidArgumentError, SpaceMismatchError
from .regularity import Holder, Smooth

__all__ = [
    "NeuralFilter",
    "BudgetInput",
    "Budget",
    "MonotoneTable",
    "ErrorSplit",
    "filter_forward",
    "special_V",
    "generalized_inverse",
    "budget_smooth",
    "budget_holder",
    "error_decomposition",
]

_LOG_OVERFLOW = 700.0  # exp() beyond this leaves float64 range


@dataclass(frozen=True)
class NeuralFilter:
    """Encode dims + network core + the two space references."""

    in_space: spaces.SchauderSpace
    out_space: spaces.SchauderSpace
    n_in: int
    n_out: int
    spec: net.NetSpec
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=np.float64))
        if self.spec.d_in != self.n_in or self.spec.d_out != self.n_out:
            raise InvalidArgumentError(
                f"core dims {self.spec.dims} inconsistent with "
                f"n_in={self.n_in}, n_out={self.n_out}"
            )


def filter_forward(f: NeuralFilter, x):
    """decode(network(encode(x))) — returns an element of the output space."""
    v = spaces.project(f.in_space, x, f.n_in)
    out_coords = net.forward(f.spec, f.theta, v.coords)
    return spaces.reconstruct(f.out_space, spaces.CoordVector(out_coords, f.out_space))


def _v_target(u: float) -> float:
    """g(u) = u^4 log_3(u + 2); strictly increasing from 0 on [0, inf)."""
    return u ** 4 * math.log(u + 2.0, 3.0)


def special_V(y: float) -> float:
    """Inverse of g(u) = u^4 log_3(u + 2) by bracketing bisection.

    Exact at the anchors V(0) = 0 and V(1) = 1; elsewhere bisected until the
    bracket collapses to machine resolution (residual <= 1e-10 absolute for
    moderate y; relative at the float64 limit for huge y).
    """
    if y < 0:
        raise InvalidArgumentError(f"y must be nonnegative, got {y}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while _v_target(hi) < y:
        hi *= 2.0
        if not math.isfinite(hi):
            raise BudgetOverflowError("V argument beyond float range", log_value=math.inf)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _v_target(mid) < y:
            lo = mid
        else:
            hi = mid
    return hi if abs(_v_target(hi) - y) <= abs(_v_target(lo) - y) else lo


@dataclass(frozen=True)
class MonotoneTable:
    """A nondecreasing map represented on a finite grid.

    The represented map extends off-grid by constants: T(x) = ys[0] left of
    the grid and T(x) = ys[-1] right of it.  Under this extension the
    generalized inverse returns -inf exactly when every represented value is
    >= y, and +inf exactly when every value is < y.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 1 or len(xs) == 0:
            raise InvalidArgumentError("xs and ys must be equal-length 1-D arrays")
        if np.any(np.diff(xs) <= 0):
            raise InvalidArgumentError("grid xs must be strictly increasing")
        if np.any(np.diff(ys) < 0):
            raise InvalidArgumentError("ys must be nondecreasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __call__(self, x):
        idx = np.searchsorted(self.xs, x, side="right") - 1
        idx = np.clip(idx, 0, len(self.xs) - 1)
        return self.ys[idx]


def generalized_inverse(T: MonotoneTable, y: float) -> float:
    """T^-(y) = inf{x : T(x) >= y} under the table's off-grid extension."""
    if T.ys[0] >= y:
        return -math.inf
    if T.ys[-1] < y:
        return math.inf
    i = int(np.searchsorted(T.ys, y, side="left"))
    return float(T.xs[i])


@dataclass(frozen=True)
class BudgetInput:
    """Inputs to the width/depth budget formulas."""

    eps_D: float
    eps_A: float
    lam: float
    regularity: object  # Holder | Smooth
    n_in: int
    n_out: int
    omega_phi_dagger: object = None  # monotone map; identity when None
    C_fbar: float = 1.0  # smooth case only

    def __post_init__(self):
        if not all(v > 0 for v in (self.eps_D, self.eps_A, self.lam, self.C_fbar)):
            raise InvalidArgumentError("eps_D, eps_A, lam, C_fbar must be positive")
        if self.n_in < 1 or self.n_out < 1:
            raise InvalidArgumentError("n_in and n_out must be >= 1")
        if not isinstance(self.regularity, (Holder, Smooth)):
            raise InvalidArgumentError(f"unknown regularity {self.regularity!r}")

    def omega(self, u: float) -> float:
        return u if self.omega_phi_dagger is None else float(self.omega_phi_dagger(u))


@dataclass(frozen=True)
class Budget:
    width: int
    depth: int
    constants_used: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.width < 1 or self.depth < 1:
            raise InvalidArgumentError("width and depth must be >= 1")

    def as_dict(self) -> dict:
        return {
            "width": self.width,
            "depth": self.depth,
            "constants_used": dict(self.constants_used),
        }


def _check_log(log_value: float, what: str) -> None:
    if log_value > _LOG_OVERFLOW:
        raise BudgetOverflowError(
            f"{what} overflows float range (log value {log_value:.6g})",
            log_value=log_value,
        )


def _checked_exp(log_value: float, what: str) -> float:
    _check_log(log_value, what)
    return math.exp(log_value)


def budget_smooth(b: BudgetInput) -> Budget:
    """Width/depth for the high-regularity (C^k) class.

    With A = ceil((C3*C_fbar)^{n/4k} * n^{n/8k} * omega(eps_A)^{-2k/n}):

        width = n_in (n_out - 1) + C1 (A + 2) log2(8 A)
        depth = n_out (1 + C2 (A + 2) log2(A) + 2 n_in)

    C1 = 17 k^{n+1} 3^n n, C2 = 18 k^2, C3 = 85 (k+1)^n 8^k, n = n_in.
    """
    if not isinstance(b.regularity, Smooth):
        raise InvalidArgumentError("budget_smooth requires Smooth regularity")
    k = b.regularity.k
    n = b.n_in
    # the exact powers of a huge n or k take unbounded time: check logs first
    _check_log(math.log(17 * n) + (n + 1) * math.log(k) + n * math.log(3), "C1")
    _check_log(math.log(85) + n * math.log(k + 1) + k * math.log(8), "C3")
    C1 = 17 * k ** (n + 1) * 3 ** n * n
    C2 = 18 * k * k
    C3 = 85 * (k + 1) ** n * 8 ** k
    w = b.omega(b.eps_A)
    if w <= 0:
        raise InvalidArgumentError("omega_phi_dagger(eps_A) must be positive")
    log_A = (
        (n / (4.0 * k)) * math.log(C3 * b.C_fbar)
        + (n / (8.0 * k)) * math.log(n)
        - (2.0 * k / n) * math.log(w)
    )
    A = math.ceil(_checked_exp(log_A, "inner budget term") - 1e-12)
    A = max(A, 1)
    try:
        width_raw = b.n_in * (b.n_out - 1) + C1 * (A + 2) * math.log2(8 * A)
        depth_raw = b.n_out * (1 + C2 * (A + 2) * math.log2(A) + 2 * b.n_in)
        width = max(1, math.ceil(width_raw - 1e-9))
        depth = max(1, math.ceil(depth_raw - 1e-9))
    except OverflowError:  # an integer past float range, or the ceiling of inf
        raise BudgetOverflowError("smooth width or depth overflows float range") from None
    return Budget(
        width=width,
        depth=depth,
        constants_used={"C1": C1, "C2": C2, "C3": C3, "A": A, "C_fbar": b.C_fbar},
    )


def budget_holder(b: BudgetInput) -> Budget:
    """Width/depth for the low-regularity (Holder) class.

    With B = omega(eps_A)^{-n/alpha} * V((131 lam)^{n/alpha} (n_in n_out)^{n/alpha}):

        width = n_in (n_out - 1) + C1 max{ n_in floor(B^{1/n}), ceil(B) + 2 }
        depth = n_in (1 + 11 ceil(B) + C2)

    C1 = 3^{n} + 3 and C2 = 18 + 2 n with n = n_in, following the table
    caption (the underlying sup-norm approximation constant reads 3^{n+3};
    the caption's printed form is used here).
    """
    if not isinstance(b.regularity, Holder):
        raise InvalidArgumentError("budget_holder requires Holder regularity")
    alpha = b.regularity.alpha
    n = b.n_in
    _check_log(n * math.log(3), "C1")  # before the exact power, as in budget_smooth
    C1 = 3 ** n + 3
    C2 = 18 + 2 * n
    w = b.omega(b.eps_A)
    if w <= 0:
        raise InvalidArgumentError("omega_phi_dagger(eps_A) must be positive")
    e = n / alpha
    log_varg = e * math.log(131.0 * b.lam) + e * math.log(b.n_in * b.n_out)
    varg = _checked_exp(log_varg, "V argument")
    v_val = special_V(varg)
    log_B = -e * math.log(w) + math.log(v_val) if v_val > 0 else -math.inf
    B = _checked_exp(log_B, "Holder budget term") if math.isfinite(log_B) else 0.0
    B_ceil = max(1, math.ceil(B - 1e-12))
    B_floor_root = math.floor(B ** (1.0 / n) + 1e-12)
    try:
        width_raw = b.n_in * (b.n_out - 1) + C1 * max(b.n_in * B_floor_root, B_ceil + 2)
        depth_raw = b.n_in * (1 + 11 * B_ceil + C2)
        width = max(1, math.ceil(width_raw - 1e-9))
        depth = max(1, math.ceil(depth_raw - 1e-9))
    except OverflowError:  # an integer past float range, or the ceiling of inf
        raise BudgetOverflowError("Holder width or depth overflows float range") from None
    return Budget(
        width=width,
        depth=depth,
        constants_used={"C1": C1, "C2": C2, "B": B, "V_arg": varg},
    )


@dataclass(frozen=True)
class ErrorSplit:
    """The three-term empirical error decomposition plus the measured total.

    ``enc_out + enc_in + approx >= end_to_end`` by the triangle inequality;
    the inequality is exact (no tolerance) because each term is a maximum of
    one leg of the same pointwise split.
    """

    enc_out: float
    enc_in: float
    approx: float
    end_to_end: float

    def bound(self) -> float:
        return self.enc_out + self.enc_in + self.approx


def error_decomposition(f_target, f_hat: NeuralFilter, samples) -> ErrorSplit:
    """Empirical suprema of the three legs of the approximation split.

    Per sample x with y = f_target(x), x' = A_{n_in}(x) the truncated input,
    and A = A_{n_out} output truncation:

    * enc_out — d(A y, y): output truncation error.
    * enc_in  — d(A f(x'), A f(x)): input-truncation error seen through f.
    * approx  — d(f_hat(x), A f(x')): network error against the truncated
      target.
    """
    samples = list(samples)
    if not samples:
        raise InvalidArgumentError("samples must be nonempty")
    out = f_hat.out_space
    enc_out = enc_in = approx = end_to_end = 0.0
    for x in samples:
        y = f_target(x)
        y_trunc = spaces.truncate(out, y, f_hat.n_out)
        x_trunc = spaces.truncate(f_hat.in_space, x, f_hat.n_in)
        y_of_trunc = f_target(x_trunc)
        y_of_trunc_trunc = spaces.truncate(out, y_of_trunc, f_hat.n_out)
        y_hat = filter_forward(f_hat, x)
        enc_out = max(enc_out, spaces.metric(out, y_trunc, y))
        enc_in = max(enc_in, spaces.metric(out, y_of_trunc_trunc, y_trunc))
        approx = max(approx, spaces.metric(out, y_hat, y_of_trunc_trunc))
        end_to_end = max(end_to_end, spaces.metric(out, y_hat, y))
    return ErrorSplit(enc_out=enc_out, enc_in=enc_in, approx=approx, end_to_end=end_to_end)
