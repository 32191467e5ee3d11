"""End-to-end causal construction: per-window filter training, weaving the
parameter sequence, and causal rollout prediction.

A :class:`CausalDataset` presents a sequence task window by window: the input
at step i is the concatenation of the last M per-step coordinate vectors
(zero-padded on the left for the first steps), and the target is the output
coordinates at step i.  Construction trains one filter core of a common
shape per window and stores the parameter sequence in a weave model;
prediction reads each window's parameters back through the weave rollout,
decoded once per model, and never consults future inputs.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import net, spaces, weave
from .errors import InvalidArgumentError

__all__ = [
    "TimeGrid",
    "CausalDataset",
    "CnoModel",
    "WindowReport",
    "memory_for",
    "build_window",
    "construct_cno",
    "predict",
    "predict_paths",
    "causality_audit",
]

@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times starting at 0."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or len(t) < 1:
            raise InvalidArgumentError("times must be a nonempty 1-D array")
        if t[0] != 0.0:
            raise InvalidArgumentError(f"the grid must start at 0, got {t[0]}")
        if len(t) > 1 and np.any(np.diff(t) <= 0):
            raise InvalidArgumentError("times must be strictly increasing")

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class CausalDataset:
    """Per-window training data over a grid.

    ``windows[i]`` is a dict with ``inputs`` of shape (n_samples, M * step_dim)
    and ``targets`` of shape (n_samples, out_dim); window i predicts the
    output at step i from steps (i - M, i].
    """

    grid: TimeGrid
    M: int
    step_dim: int
    windows: list
    out_spaces: list = field(default_factory=list)

    def __post_init__(self):
        if self.M < 1:
            raise InvalidArgumentError(f"memory M must be >= 1, got {self.M}")
        for i, w in enumerate(self.windows):
            ins = np.asarray(w["inputs"], dtype=np.float64)
            tgt = np.asarray(w["targets"], dtype=np.float64)
            if ins.shape[1] != self.M * self.step_dim:
                raise InvalidArgumentError(
                    f"window {i} inputs have dim {ins.shape[1]}, "
                    f"expected M*step_dim={self.M * self.step_dim}"
                )
            if ins.shape[0] != tgt.shape[0]:
                raise InvalidArgumentError(f"window {i} inputs/targets disagree")

    @property
    def n_windows(self):
        return len(self.windows)

    @property
    def out_dim(self):
        return np.asarray(self.windows[0]["targets"]).shape[1]


@dataclass(frozen=True)
class WindowReport:
    """Outcome of one window's filter training."""

    index: int
    error: float
    gate: float
    shortfall: bool
    seed: int
    epochs: int


@dataclass(frozen=True)
class CnoModel:
    """The woven model plus everything needed to run it causally."""

    weave_model: weave.WeaveModel
    synced_spec: net.NetSpec
    grid: TimeGrid
    M: int
    step_dim: int
    out_dim: int
    out_spaces: list
    reports: list
    Q: int
    delta: float
    seed: int

    @property
    def horizon(self):
        return self.weave_model.T

    @cached_property
    def filters(self) -> tuple:
        """Each window's filter parameters, read-only, decoded from the weave
        on first use.  They do not depend on the input path, so one rollout
        serves every prediction the model makes."""
        thetas = weave.rollout(self.weave_model, self.horizon)
        for theta in thetas:
            theta.setflags(write=False)
        return tuple(thetas)


def memory_for(eps_A: float, r: float, c_mem: float = 1.0) -> int:
    """M = max(1, ceil(c_mem * eps_A^-r)), with a 1e-9 guard against float
    noise pushing an exact integer over the next ceiling."""
    if r < 0:
        raise InvalidArgumentError(f"r must be >= 0, got {r}")
    if c_mem <= 0:
        raise InvalidArgumentError(f"c_mem must be positive, got {c_mem}")
    if eps_A <= 0:
        raise InvalidArgumentError(f"eps_A must be positive, got {eps_A}")
    value = c_mem * eps_A ** (-r)
    return max(1, math.ceil(value - 1e-9))


def _as_paths(paths, step_dim: int) -> np.ndarray:
    """Paths as a float (n_paths, n_steps, step_dim) array; a 2-D array is a
    batch of scalar-step paths.  Callers wrap a single path in a list."""
    paths = np.asarray(paths, dtype=np.float64)
    if paths.ndim == 2:
        paths = paths[:, :, None]
    if paths.ndim != 3:
        raise InvalidArgumentError(f"paths must be 2-D or 3-D, got {paths.ndim}-D")
    if paths.shape[2] != step_dim:
        raise InvalidArgumentError(
            f"path step dim {paths.shape[2]} does not match {step_dim}"
        )
    return paths


def _windows(paths: np.ndarray, M: int) -> np.ndarray:
    """Every window of (n_paths, n_steps, step_dim) paths, shaped
    (n_paths, n_steps, M * step_dim): row i holds steps (i - M, i],
    left-padded with zeros.  The one place the causal window is laid out.

    One slice copy per lag: on the short paths ``predict`` sees this costs
    less than a fancy index, whose index array alone takes a few µs."""
    if M < 1:
        raise InvalidArgumentError(f"memory M must be >= 1, got {M}")
    n_paths, n_steps, step_dim = paths.shape
    out = np.zeros((n_paths, n_steps, M, step_dim))
    for lag in range(min(M, n_steps)):
        out[:, lag:, M - 1 - lag] = paths[:, : n_steps - lag]
    return out.reshape(n_paths, n_steps, M * step_dim)


def build_window(x_path: np.ndarray, i: int, M: int, step_dim: int) -> np.ndarray:
    """Window vector for step i: steps (i - M, i], left-padded with zeros."""
    windows = _windows(_as_paths([x_path], step_dim), M)[0]
    if not 0 <= i < len(windows):
        raise InvalidArgumentError(f"step {i} is outside the path's [0, {len(windows)})")
    return windows[i]


def windows_from_paths(paths: np.ndarray, targets: np.ndarray, grid: TimeGrid,
                       M: int, step_dim: int, out_spaces=None) -> CausalDataset:
    """Assemble a CausalDataset from whole paths and per-step targets.

    ``paths`` is (n_samples, n_steps, step_dim) (or 2-D for scalar steps) and
    ``targets`` is (n_samples, n_steps, out_dim) (or 2-D for scalar outputs).
    """
    inputs = _windows(_as_paths(paths, step_dim), M)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 2:
        targets = targets[:, :, None]
    windows = [{"inputs": inputs[:, i], "targets": targets[:, i, :]}
               for i in range(inputs.shape[1])]
    return CausalDataset(
        grid=grid, M=M, step_dim=step_dim, windows=windows,
        out_spaces=list(out_spaces or []),
    )


def _window_seed(master: int, i: int) -> int:
    """Stable per-window seed stream."""
    return (int(master) * 1_000_003 + 7919 * (i + 1)) % (2 ** 31 - 1)


def construct_cno(ds: CausalDataset, eps_D: float, eps_A: float, Q: int,
                  delta: float, seed: int = 0, dims=None, train_opts=None):
    """Train one filter per window, weave the parameter sequence, return model.

    Every window trains the same ``dims``, so the filters share one shape and
    the weave stores their parameters as trained.  Per window the empirical
    max coordinate-space error is gated against eps_A + eps_D; shortfalls are
    recorded in the per-window report and the construction continues.
    Deterministic in the seed (per-window seeds are derived, so the order
    windows train in cannot change results).
    """
    I = ds.n_windows
    horizon = weave.viable_horizon(Q, delta)
    if I > horizon:
        raise InvalidArgumentError(
            f"{I} windows exceed the viable horizon floor(delta^-Q)={horizon}"
        )
    in_dim = ds.M * ds.step_dim
    out_dim = ds.out_dim
    if dims is None:
        dims = (in_dim, max(8, 2 * in_dim), out_dim)
    dims = tuple(int(d) for d in dims)
    if dims[0] != in_dim or dims[-1] != out_dim:
        raise InvalidArgumentError(
            f"dims {dims} must start at {in_dim} and end at {out_dim}"
        )
    gate = eps_A + eps_D
    opts = dict(train_opts or {})
    spec = net.NetSpec(dims, "relu")

    def train_one(i):
        w = ds.windows[i]
        inputs = np.asarray(w["inputs"], dtype=np.float64)
        targets = np.asarray(w["targets"], dtype=np.float64)
        wseed = _window_seed(seed, i)
        theta, trace = net.train(spec, (inputs, targets), {**opts, "seed": wseed})
        pred = net.forward(spec, theta, inputs)
        err = float(np.max(np.linalg.norm(pred - targets, axis=1)))
        report = WindowReport(
            index=i, error=err, gate=gate, shortfall=not err < gate,
            seed=wseed, epochs=len(trace),
        )
        return theta, report

    # One worker: a minibatch step is a few dozen small numpy calls that hold
    # the GIL, so more threads only contend for it.  The executor stays because
    # the benchmark's smoke test pins net.train spans on pool threads; stacked
    # training (ROADMAP item 2) deletes it.
    with ThreadPoolExecutor(max_workers=1) as pool:
        results = list(pool.map(train_one, range(I)))

    wmodel = weave.build_weave(np.stack([r[0] for r in results]), Q=Q, delta=delta,
                               seed=seed)
    reports = [r[1] for r in results]
    # the slopes live in theta, so a PReLU spec runs the ReLU-trained filters as trained
    model = CnoModel(
        weave_model=wmodel, synced_spec=net.NetSpec(dims, "prelu"), grid=ds.grid,
        M=ds.M, step_dim=ds.step_dim, out_dim=out_dim, out_spaces=list(ds.out_spaces),
        reports=reports, Q=Q, delta=delta, seed=seed,
    )
    return model, reports


def predict_paths(model: CnoModel, paths, horizon: int = None) -> np.ndarray:
    """Causal rollout of a batch of paths, shaped (n_paths, horizon, out_dim):
    per step, one filter forward over every path's trailing window, with
    that window's parameters from the model's decoded weave."""
    paths = _as_paths(paths, model.step_dim)
    if horizon is None:
        horizon = model.horizon
    if horizon < 1 or horizon > model.horizon:
        raise InvalidArgumentError(
            f"horizon must be in [1, {model.horizon}], got {horizon}"
        )
    if paths.shape[1] < horizon:
        raise InvalidArgumentError(
            f"path has {paths.shape[1]} steps, need at least {horizon}"
        )
    # window every step the model serves, not only the first horizon, so that
    # a window reading ahead would change the outputs the causality audit checks
    windows = _windows(paths[:, : model.horizon], model.M)
    out = np.empty((len(paths), horizon, model.synced_spec.d_out))
    for i in range(horizon):
        out[:, i] = net.forward(model.synced_spec, model.filters[i], windows[:, i])
    return out


def predict(model: CnoModel, x_path, horizon: int = None):
    """Causal rollout of one path: a list of the per-step outputs."""
    return list(predict_paths(model, [x_path], horizon)[0])


def causality_audit(model: CnoModel, x_path_a, x_path_b, i: int) -> bool:
    """True iff outputs up to step i are bit-identical when only the future
    (steps > i) differs between the two paths.  Both paths run through one
    batched call, so the same arithmetic serves both rows."""
    a = np.asarray(x_path_a, dtype=np.float64)
    b = np.asarray(x_path_b, dtype=np.float64)
    if a.shape != b.shape:
        raise InvalidArgumentError("paths must share a shape")
    if not np.array_equal(a[: i + 1], b[: i + 1]):
        raise InvalidArgumentError("paths must agree on steps <= i")
    out = predict_paths(model, [a, b], horizon=i + 1)
    return bool(np.array_equal(out[0], out[1]))
