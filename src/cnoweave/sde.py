"""Scalar SDE solution operators in first-order chaos coordinates.

A square-integrable variable measurable for the driving Brownian motion up to
time t is represented (to first chaos order) as

    eta = mean + integral_0^t g dB,    g = sum_k coeffs_k phi_k

where (phi_k) is the orthonormal trigonometric basis of L^2([0, t]),
:func:`spaces.trig_mode`.  The second moment is then exactly
mean^2 + |coeffs|^2 (Ito isometry), which the tests check by Monte Carlo.

The solve operator maps eta at time t_i to the terminal value at t_{i+1} of

    dX = drift(t, X) dt + diffusion(t, X) dB,   X_{t_i} = eta

estimated by (tamed) Euler-Maruyama on a Brownian record the caller passes in;
the same increments synthesize eta and drive the SDE, and mode integrals are
left-point sums on them (l steps resolve l - 1 + l mod 2 modes), so projection
and synthesis are mutually consistent.  The orbit dataset draws one step-major
record per orbit over [0, t_end], seeded (seed * 2654435761 + orbit * 40503)
mod (2^31 - 1), and walks it once: each step runs Euler, takes the prefix's
mode integrals once, projects onto the modes it resolves, and starts the next
step from that projection on those same integrals.
Only chaos orders 0 and 1 are implemented; that already spans Gaussian
solution maps such as Ornstein-Uhlenbeck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cno import CausalDataset, TimeGrid
from .errors import InvalidArgumentError, OracleDivergedError
from . import spaces

__all__ = [
    "SdeCoeffs",
    "ChaosCoords",
    "McOracle",
    "ChaosProjection",
    "ou_coeffs",
    "mode_integrals",
    "synthesize_eta",
    "sde_solve_mc",
    "project_chaos",
    "lipschitz_check",
    "build_sde_dataset",
    "sampled_growth_ratio",
]


@dataclass(frozen=True)
class SdeCoeffs:
    """Drift/diffusion fields plus the growth constant used in the bound."""

    drift: object  # callable (t, x) -> array
    diffusion: object  # callable (t, x) -> array
    M_g: float

    def __post_init__(self):
        if self.M_g <= 0:
            raise InvalidArgumentError(f"M_g must be positive, got {self.M_g}")


def ou_coeffs(rate: float = 1.0, sigma: float = 0.5) -> SdeCoeffs:
    """Ornstein-Uhlenbeck: drift -rate*x, constant diffusion sigma."""
    return SdeCoeffs(
        drift=lambda t, x: -rate * x,
        diffusion=lambda t, x: sigma * np.ones_like(np.asarray(x, dtype=np.float64)),
        M_g=float(rate),
    )


def sampled_growth_ratio(c: SdeCoeffs, t_values, x_values) -> float:
    """max over sampled pairs of (|da|^2 + |db|^2) / |dx|^2; should be <= M_g^2."""
    xs = np.asarray(x_values, dtype=np.float64)
    worst = 0.0
    for t in np.atleast_1d(t_values):
        a = np.asarray(c.drift(t, xs), dtype=np.float64)
        b = np.asarray(c.diffusion(t, xs), dtype=np.float64)
        for i in range(len(xs)):
            dx = xs - xs[i]
            mask = dx != 0
            num = (a - a[i]) ** 2 + (b - b[i]) ** 2
            if mask.any():
                worst = max(worst, float(np.max(num[mask] / dx[mask] ** 2)))
    return worst


@dataclass(frozen=True)
class ChaosCoords:
    """(mean, first-chaos coefficients) at a given horizon."""

    mean: float
    coeffs: np.ndarray
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64))
        if self.horizon < 0:
            raise InvalidArgumentError("horizon must be >= 0")
        if self.horizon == 0.0 and np.any(self.coeffs != 0.0):
            raise InvalidArgumentError("a horizon-0 variable has no chaos part")

    @property
    def n_modes(self):
        return len(self.coeffs)

    def second_moment(self) -> float:
        return float(self.mean ** 2 + np.sum(self.coeffs ** 2))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([[self.mean], self.coeffs])


@dataclass(frozen=True)
class McOracle:
    """Monte Carlo configuration; ``n_steps`` is the Euler resolution per unit
    time, and ``seed`` seeds the one record ``lipschitz_check`` draws (common
    random numbers across its pairs)."""

    n_paths: int = 10_000
    n_steps: int = 256
    seed: int = 0
    tamed: bool = True

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise InvalidArgumentError("n_paths and n_steps must be >= 1")

    @property
    def dt(self):
        return 1.0 / self.n_steps

    def grid_index(self, t: float) -> int:
        idx = round(t * self.n_steps)
        if abs(idx - t * self.n_steps) > 1e-9:
            raise InvalidArgumentError(
                f"time {t} is not on the oracle's step grid (n_steps={self.n_steps})"
            )
        return int(idx)


def _resolved_modes(l: int) -> int:
    """Modes l left-point steps resolve: at even l, sine mode l is 0 at each."""
    return l - 1 + l % 2


def mode_integrals(dB: np.ndarray, dt: float, t: float, n_modes: int) -> np.ndarray:
    """xi_k = sum_l phi_k(s_l) dB_l over [0, t] (left-point sums); (n_paths, n_modes)."""
    l = int(round(t / dt))
    if l < 1:
        raise InvalidArgumentError("horizon shorter than one step")
    if l > dB.shape[1]:
        raise InvalidArgumentError("not enough recorded increments for the horizon")
    if n_modes > _resolved_modes(l):
        raise InvalidArgumentError(
            f"n_modes={n_modes} exceeds the {_resolved_modes(l)} modes {l} steps resolve"
        )
    s = dt * np.arange(l)
    basis = np.stack([spaces.trig_mode(k, t, s) for k in range(1, n_modes + 1)])
    return dB[:, :l] @ basis.T


def synthesize_eta(coords: ChaosCoords, dB: np.ndarray, dt: float) -> np.ndarray:
    """Pathwise realizations of eta from its coordinates and the increments."""
    if coords.horizon == 0.0 or coords.n_modes == 0:
        return np.full(dB.shape[0], coords.mean)
    xi = mode_integrals(dB, dt, coords.horizon, coords.n_modes)
    return coords.mean + xi @ coords.coeffs


def _draw_increments(o: McOracle, l_total: int) -> np.ndarray:
    rng = np.random.default_rng(o.seed)
    return rng.standard_normal((o.n_paths, l_total)) * math.sqrt(o.dt)


def _solve_steps(eta: ChaosCoords, t_i: float, t_ip1: float, o: McOracle):
    if not t_i < t_ip1:
        raise InvalidArgumentError(f"need t_i < t_ip1, got {t_i} >= {t_ip1}")
    if eta.horizon != t_i:
        raise InvalidArgumentError(
            f"eta horizon {eta.horizon} must equal the start time {t_i}"
        )
    return o.grid_index(t_i), o.grid_index(t_ip1)


def _euler(c: SdeCoeffs, X: np.ndarray, dB: np.ndarray, l0: int, l1: int,
           o: McOracle) -> np.ndarray:
    """Euler-Maruyama (tamed when flagged) from X over steps [l0, l1) of dB."""
    dt = o.dt
    for l in range(l0, l1):
        t = l * dt
        a = np.asarray(c.drift(t, X), dtype=np.float64)
        if o.tamed:
            a = a / (1.0 + dt * np.abs(a))
        b = np.asarray(c.diffusion(t, X), dtype=np.float64)
        X = X + a * dt + b * dB[:, l]
        if not np.all(np.isfinite(X)):
            raise OracleDivergedError("simulation produced non-finite values", step=l)
    return X


def sde_solve_mc(c: SdeCoeffs, eta: ChaosCoords, t_i: float, t_ip1: float,
                 o: McOracle, dB: np.ndarray) -> np.ndarray:
    """(n_paths,) Euler-Maruyama endpoints (tamed when flagged) from eta at t_i
    to t_{i+1}.  ``dB`` is a recorded (n_paths, >= grid_index(t_ip1)) array of
    Brownian increments: eta is synthesized on it and its prefix up to t_ip1
    drives the SDE, so solves on one record share paths.
    """
    l0, l1 = _solve_steps(eta, t_i, t_ip1, o)
    if dB.ndim != 2 or dB.shape[0] != o.n_paths or dB.shape[1] < l1:
        raise InvalidArgumentError(
            f"recorded increments of shape {dB.shape} do not cover "
            f"({o.n_paths}, {l1}) = (n_paths, steps to t_ip1)"
        )
    return _euler(c, synthesize_eta(eta, dB, o.dt), dB, l0, l1, o)


@dataclass(frozen=True)
class ChaosProjection:
    """Estimated coordinates, the unexplained L^2 mass, and its standard error."""

    coords: ChaosCoords
    residual: float
    se_mean: float


def _chaos_coeffs(samples: np.ndarray, xi: np.ndarray):
    """(mean, coeffs) of samples against their mode integrals xi."""
    mean = float(samples.mean())
    denom = np.mean(xi * xi, axis=0)
    return mean, ((samples - mean) @ xi) / len(samples) / denom


def project_chaos(samples: np.ndarray, brownian_record, t: float,
                  n_modes: int) -> ChaosProjection:
    """Estimate (mean, coeffs) of endpoint samples by MC inner products.

    ``brownian_record`` is ``(dB, dt)`` for the increments that generated the
    samples.  Coefficients are E[(Y - mean) xi_k] / E[xi_k^2], which also
    absorbs the left-sum quadrature bias in the mode normalization.
    """
    dB, dt = brownian_record
    samples = np.asarray(samples, dtype=np.float64)
    xi = mode_integrals(dB, dt, t, n_modes)
    mean, coeffs = _chaos_coeffs(samples, xi)
    residual = float(np.mean((samples - mean - xi @ coeffs) ** 2))
    se = float(samples.std(ddof=1) / math.sqrt(len(samples)))
    return ChaosProjection(
        coords=ChaosCoords(mean=mean, coeffs=coeffs, horizon=t),
        residual=residual,
        se_mean=se,
    )


def lipschitz_check(c: SdeCoeffs, pairs, t_i: float, t_ip1: float, o: McOracle) -> dict:
    """Max observed L^2 amplification across pairs versus the closed-form bound
    sqrt(3) * exp(1.5 * M_g^2 * (D + 1) * D) with D = t_{i+1} - t_i.

    Common random numbers: the oracle's record is drawn once, and every pair
    is simulated on it.
    """
    D = t_ip1 - t_i
    bound = math.sqrt(3.0) * math.exp(1.5 * c.M_g ** 2 * (D + 1.0) * D)
    dB = _draw_increments(o, o.grid_index(t_ip1))
    ratios = []
    for eta_a, eta_b in pairs:
        l0, l1 = _solve_steps(eta_a, t_i, t_ip1, o)
        _solve_steps(eta_b, t_i, t_ip1, o)
        x_a = synthesize_eta(eta_a, dB, o.dt)
        x_b = synthesize_eta(eta_b, dB, o.dt)
        den = math.sqrt(float(np.mean((x_a - x_b) ** 2)))
        if den == 0.0:
            continue  # degenerate pair
        gap = _euler(c, x_a, dB, l0, l1, o) - _euler(c, x_b, dB, l0, l1, o)
        ratios.append(math.sqrt(float(np.mean(gap ** 2))) / den)
    max_ratio = max(ratios) if ratios else 0.0
    return {
        "max_ratio": max_ratio,
        "bound": bound,
        "ratios": ratios,
        "ok": max_ratio <= bound,
    }


def build_sde_dataset(c: SdeCoeffs, grid: TimeGrid, init_box, o: McOracle,
                      n_modes: int, n_orbit_samples: int, seed: int = 0) -> CausalDataset:
    """Orbits of the solve operator as a memory-1 causal dataset.

    Each orbit starts from a constant variable with mean drawn uniformly from
    ``init_box = (lo, hi)`` at t=0; every step solves by MC and projects the
    endpoint back to chaos coordinates at the new horizon, on the modes its
    steps resolve.  Window j pairs the coordinates at t_j with those at
    t_{j+1}; all share the dimension 1 + n_modes, zero-padded (a horizon-0
    variable has zero chaos part).

    Orbit s draws one step-major Brownian record over [0, t_end] from the
    seed (seed * 2654435761 + s * 40503) mod (2^31 - 1), and every step of the
    orbit reads its prefix; ``o.seed`` is not used.  One record buffer is
    reused across orbits, so memory is one n_paths x steps array.
    """
    if np.shape(init_box) != (2,):
        raise InvalidArgumentError(f"init_box must be a pair (lo, hi), got {init_box}")
    lo, hi = float(init_box[0]), float(init_box[1])
    if not lo <= hi:
        raise InvalidArgumentError(f"init_box must satisfy lo <= hi, got {init_box}")
    times = grid.times
    if len(times) < 2:
        raise InvalidArgumentError("grid needs at least two times")
    ends = [o.grid_index(float(t)) for t in times]
    # coords[j, s] is orbit s at t_j: [mean, coeffs..., zeros for unresolved modes]
    coords = np.zeros((len(times), n_orbit_samples, 1 + n_modes))
    coords[0, :, 0] = np.random.default_rng(seed).uniform(lo, hi, size=n_orbit_samples)
    # step-major, so dB = rec.T is (n_paths, steps) with contiguous Euler columns
    dB = np.empty((ends[-1], o.n_paths)).T
    for s in range(n_orbit_samples):
        orbit_seed = (seed * 2_654_435_761 + s * 40_503) % (2 ** 31 - 1)
        np.random.default_rng(orbit_seed).standard_normal(out=dB.T)
        dB *= math.sqrt(o.dt)  # in place: a scaled copy would double the peak
        X = np.full(o.n_paths, coords[0, s, 0])
        for j in range(1, len(times)):
            X = _euler(c, X, dB, ends[j - 1], ends[j], o)
            k = min(n_modes, _resolved_modes(ends[j]))
            xi = mode_integrals(dB, o.dt, float(times[j]), k)
            mean, coeffs = _chaos_coeffs(X, xi)
            coords[j, s, 0] = mean
            coords[j, s, 1:1 + k] = coeffs
            X = mean + xi @ coeffs  # the next step starts from the projection
            del xi  # not held through the next step's Euler loop
    out_spaces = [spaces.chaos_l2(n_modes, float(t)) for t in times[1:]]
    windows = [{"inputs": a, "targets": b} for a, b in zip(coords, coords[1:])]
    return CausalDataset(
        grid=grid, M=1, step_dim=1 + n_modes, windows=windows, out_spaces=out_spaces,
    )
