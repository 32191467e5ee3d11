"""Scalar SDE solution operators in first-order chaos coordinates.

A square-integrable variable measurable for the driving Brownian motion up to
time t is represented (to first chaos order) as

    eta = mean + integral_0^t g dB,    g = sum_k coeffs_k phi_k

where (phi_k) is the orthonormalized sine/cosine basis of L^2([0, t]).  The
second moment is then exactly mean^2 + |coeffs|^2 (Ito isometry), which the
tests check by Monte Carlo.

The solve operator maps eta at time t_i to the terminal value at t_{i+1} of

    dX = drift(t, X) dt + diffusion(t, X) dB,   X_{t_i} = eta

estimated by (tamed) Euler-Maruyama on recorded Brownian increments; the same
increments synthesize eta and drive the SDE, and mode integrals are left-point
sums on those increments, so projection and synthesis are mutually consistent.
The orbit dataset draws one step-major Brownian record per orbit over
[0, t_end], seeded (seed * 2654435761 + orbit * 40503) mod (2^31 - 1), and
every step of that orbit reads its prefix of the record.
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
    "SdeResult",
    "ChaosProjection",
    "ou_coeffs",
    "chaos_mode",
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
    time, and a fixed seed makes every simulation deterministic (common random
    numbers across compared inputs)."""

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


def chaos_mode(k: int, t: float, s):
    """k-th mode of the orthonormal trigonometric basis of L^2([0, t]).

    Mode 1 is the constant 1/sqrt(t); modes 2j and 2j+1 are
    sqrt(2/t) sin(2 pi j s / t) and sqrt(2/t) cos(2 pi j s / t).  Unlike the
    half-range system used for plain function approximation, this full-range
    system is genuinely orthonormal, which is what makes the Ito isometry
    E[eta^2] = mean^2 + |coeffs|^2 exact.
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


def mode_integrals(dB: np.ndarray, dt: float, t: float, n_modes: int) -> np.ndarray:
    """xi_k = sum_l phi_k(s_l) dB_l over [0, t] (left-point sums); (n_paths, n_modes)."""
    l = int(round(t / dt))
    if l < 1:
        raise InvalidArgumentError("horizon shorter than one step")
    if l > dB.shape[1]:
        raise InvalidArgumentError("not enough recorded increments for the horizon")
    if n_modes > l:
        raise InvalidArgumentError(
            f"n_modes={n_modes} exceeds the increment resolution {l}"
        )
    s = dt * np.arange(l)
    basis = np.stack([chaos_mode(k, t, s) for k in range(1, n_modes + 1)])
    return dB[:, :l] @ basis.T


def synthesize_eta(coords: ChaosCoords, dB: np.ndarray, dt: float) -> np.ndarray:
    """Pathwise realizations of eta from its coordinates and the increments."""
    if coords.horizon == 0.0 or coords.n_modes == 0:
        return np.full(dB.shape[0], coords.mean)
    xi = mode_integrals(dB, dt, coords.horizon, coords.n_modes)
    return coords.mean + xi @ coords.coeffs


@dataclass(frozen=True)
class SdeResult:
    """Terminal samples plus the increments that produced them."""

    endpoints: np.ndarray  # (n_paths,)
    dB: np.ndarray  # (n_paths, total_steps)
    dt: float
    t_start: float
    t_end: float


def _draw_increments(o: McOracle, l_total: int) -> np.ndarray:
    rng = np.random.default_rng(o.seed)
    return rng.standard_normal((o.n_paths, l_total)) * math.sqrt(o.dt)


def sde_solve_mc(c: SdeCoeffs, eta: ChaosCoords, t_i: float, t_ip1: float,
                 o: McOracle, dB: np.ndarray | None = None) -> SdeResult:
    """Euler-Maruyama (tamed when flagged) from eta at t_i to t_{i+1}.

    eta is synthesized from its coordinates using the same Brownian record
    that later drives the SDE, so repeated calls with one oracle share paths.
    ``dB`` is a recorded (n_paths, >= grid_index(t_ip1)) array of increments
    to use instead of the oracle's own draw; its prefix up to t_ip1 is read.
    """
    if not t_i < t_ip1:
        raise InvalidArgumentError(f"need t_i < t_ip1, got {t_i} >= {t_ip1}")
    if eta.horizon != t_i:
        raise InvalidArgumentError(
            f"eta horizon {eta.horizon} must equal the start time {t_i}"
        )
    l0 = o.grid_index(t_i)
    l1 = o.grid_index(t_ip1)
    if dB is None:
        dB = _draw_increments(o, l1)
    elif dB.ndim != 2 or dB.shape[0] != o.n_paths or dB.shape[1] < l1:
        raise InvalidArgumentError(
            f"recorded increments of shape {dB.shape} do not cover "
            f"({o.n_paths}, {l1}) = (n_paths, steps to t_ip1)"
        )
    else:
        dB = dB[:, :l1]
    dt = o.dt
    X = synthesize_eta(eta, dB, dt)
    for l in range(l0, l1):
        t = l * dt
        a = np.asarray(c.drift(t, X), dtype=np.float64)
        if o.tamed:
            a = a / (1.0 + dt * np.abs(a))
        b = np.asarray(c.diffusion(t, X), dtype=np.float64)
        X = X + a * dt + b * dB[:, l]
        if not np.all(np.isfinite(X)):
            raise OracleDivergedError("simulation produced non-finite values", step=l)
    return SdeResult(endpoints=X, dB=dB, dt=dt, t_start=t_i, t_end=t_ip1)


@dataclass(frozen=True)
class ChaosProjection:
    """Estimated coordinates, the unexplained L^2 mass, and its standard error."""

    coords: ChaosCoords
    residual: float
    se_mean: float


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
    mean = float(samples.mean())
    centered = samples - mean
    denom = np.mean(xi * xi, axis=0)
    coeffs = (centered @ xi) / len(samples) / denom
    resid_paths = centered - xi @ coeffs
    residual = float(np.mean(resid_paths ** 2))
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
        res_a = sde_solve_mc(c, eta_a, t_i, t_ip1, o, dB=dB)
        res_b = sde_solve_mc(c, eta_b, t_i, t_ip1, o, dB=dB)
        eta_a_paths = synthesize_eta(eta_a, dB, o.dt)
        eta_b_paths = synthesize_eta(eta_b, dB, o.dt)
        den = math.sqrt(float(np.mean((eta_a_paths - eta_b_paths) ** 2)))
        if den == 0.0:
            continue  # degenerate pair
        num = math.sqrt(float(np.mean((res_a.endpoints - res_b.endpoints) ** 2)))
        ratios.append(num / den)
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
    endpoint back to chaos coordinates at the new horizon.  Window j pairs the
    coordinates at t_j with those at t_{j+1}; all windows share the coordinate
    dimension 1 + n_modes (a horizon-0 variable just has zero chaos part).

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
    rng = np.random.default_rng(seed)
    means0 = rng.uniform(lo, hi, size=n_orbit_samples)
    dim = 1 + n_modes
    inputs = [np.zeros((n_orbit_samples, dim)) for _ in range(len(times) - 1)]
    targets = [np.zeros((n_orbit_samples, dim)) for _ in range(len(times) - 1)]
    # step-major, so rec.T is (n_paths, steps) with contiguous Euler columns
    rec = np.empty((o.grid_index(float(times[-1])), o.n_paths))
    sqrt_dt = math.sqrt(o.dt)
    for s in range(n_orbit_samples):
        orbit_seed = (seed * 2_654_435_761 + s * 40_503) % (2 ** 31 - 1)
        np.random.default_rng(orbit_seed).standard_normal(out=rec)
        rec *= sqrt_dt  # in place: a scaled copy would double the peak
        coords = ChaosCoords(mean=float(means0[s]), coeffs=np.zeros(0), horizon=0.0)
        for j in range(len(times) - 1):
            t_j, t_jp1 = float(times[j]), float(times[j + 1])
            full = np.zeros(dim)
            full[: 1 + coords.n_modes] = coords.as_vector()
            inputs[j][s] = full
            res = sde_solve_mc(c, coords, t_j, t_jp1, o, dB=rec.T)
            modes_here = min(n_modes, o.grid_index(t_jp1))
            proj = project_chaos(res.endpoints, (res.dB, res.dt), t_jp1, modes_here)
            nxt = np.zeros(dim)
            nxt[: 1 + modes_here] = proj.coords.as_vector()
            targets[j][s] = nxt
            coords = ChaosCoords(mean=nxt[0], coeffs=nxt[1:], horizon=t_jp1)
    out_spaces = [
        spaces.chaos_l2(n_modes, float(times[j + 1])) for j in range(len(times) - 1)
    ]
    windows = [
        {"inputs": inputs[j], "targets": targets[j]} for j in range(len(times) - 1)
    ]
    return CausalDataset(
        grid=grid, M=1, step_dim=dim, windows=windows, out_spaces=out_spaces,
    )
