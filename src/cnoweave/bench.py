"""Recursive causal targets and the CNO-versus-FFNN trade-off experiment.

The target family is the horizon-T recursion

    z^(0) = 0,   z^(t) = G(z_t, z^(t-1)),   f(z_1, ..., z_T) = z^(T)

for a 1-Lipschitz G on [0, 1]^2.  ``compare`` trains plain feedforward
networks on (z, f(z)) and causal models on the windowed per-step presentation
of the same paths, then reports parameter counts (recomputed from the specs)
and max held-out errors as CSV rows.  The asymptotic superiority claim is
never asserted numerically; only the desk-scale direction is measured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import cno, net
from .errors import InvalidArgumentError

__all__ = [
    "RecursiveTarget",
    "TradeoffReport",
    "eval_recursive",
    "recursive_path",
    "compare",
    "G_MAPS",
]

G_MAPS = {
    "mean": lambda a, b: 0.5 * (a + b),
    "absdiff": lambda a, b: np.abs(a - b),
    "clipped_affine": lambda a, b: np.clip(0.7 * a + 0.3 * b, 0.0, 1.0),
}


@dataclass(frozen=True)
class RecursiveTarget:
    """Horizon plus the chosen update map G."""

    T: int
    G: str = "mean"

    def __post_init__(self):
        if self.T < 1:
            raise InvalidArgumentError(f"T must be >= 1, got {self.T}")
        if self.G not in G_MAPS:
            raise InvalidArgumentError(
                f"unknown G {self.G!r}; choose from {sorted(G_MAPS)}"
            )

    def g(self, a, b):
        return G_MAPS[self.G](a, b)


def _check_cube(z: np.ndarray, T: int):
    if z.shape[-1] != T:
        raise InvalidArgumentError(f"z must have {T} coordinates, got {z.shape[-1]}")
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise InvalidArgumentError("z must lie in the unit cube")


def recursive_path(target: RecursiveTarget, z: np.ndarray) -> np.ndarray:
    """All intermediate values z^(1), ..., z^(T); batched over leading axes."""
    z = np.asarray(z, dtype=np.float64)
    _check_cube(z, target.T)
    state = np.zeros(z.shape[:-1])
    states = []
    for t in range(target.T):
        state = target.g(z[..., t], state)
        states.append(state)
    return np.stack(states, axis=-1)


def eval_recursive(target: RecursiveTarget, z) -> float:
    """f(z) = z^(T); accepts one vector or a batch."""
    out = recursive_path(target, np.asarray(z, dtype=np.float64))[..., -1]
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TradeoffReport:
    """CSV-friendly rows of (model, params, max_err, seconds, seed)."""

    rows: list
    schema_version: int = 1

    COLUMNS = ("model", "params", "max_err", "seconds", "seed")

    def to_csv(self) -> str:
        lines = [",".join(self.COLUMNS)]
        for r in self.rows:
            lines.append(
                f"{r['model']},{r['params']},{r['max_err']:.10g},"
                f"{r['seconds']:.4g},{r['seed']}"
            )
        return "\n".join(lines) + "\n"

    def best_row(self, kind_prefix: str, min_params: int = 0):
        """Row of the given kind with the smallest error among those with at
        least ``min_params`` parameters, or None if there is none."""
        cands = [
            r for r in self.rows
            if r["model"].startswith(kind_prefix) and r["params"] >= min_params
        ]
        if not cands:
            return None
        return min(cands, key=lambda r: r["max_err"])


def _cno_param_count(model: cno.CnoModel) -> int:
    """Parameters that define the rolled-out model: hypernetwork, initial
    latent code (as stored, clock included), and the readout scale."""
    w = model.weave_model
    return net.param_count(w.hyper_spec) + w.codes.shape[1] + 1


def compare(target: RecursiveTarget, eps_A: float, budgets, seed: int = 0,
            n_train: int = 1500, n_test: int = 400, train_opts=None) -> TradeoffReport:
    """Train every configured model on a common dataset and report the trade-off.

    ``budgets`` is a list of configs: ``{"kind": "ffnn", "dims": (...)}`` or
    ``{"kind": "cno", "dims": (...), "M": int, "Q": int, "delta": float}``.
    FFNNs see (z, f(z)); causal models see the per-step windowed presentation
    and are scored on their final-step output, so both rows measure the same
    quantity.  Deterministic in the seed.
    """
    if not any(b["kind"] == "ffnn" for b in budgets):
        raise InvalidArgumentError("budgets must include at least one ffnn config")
    if not any(b["kind"] == "cno" for b in budgets):
        raise InvalidArgumentError("budgets must include at least one cno config")
    T = target.T
    rng = np.random.default_rng(seed)
    z_train = rng.random((n_train, T))
    z_test = rng.random((n_test, T))
    y_train = eval_recursive(target, z_train)
    y_test = eval_recursive(target, z_test)
    path_train = recursive_path(target, z_train)
    opts = dict(train_opts or {})
    opts.setdefault("epochs", 300)
    opts.setdefault("lr", 0.1)

    grid = cno.TimeGrid(np.arange(T, dtype=np.float64))
    rows = []
    for b in budgets:
        t0 = time.perf_counter()
        if b["kind"] == "ffnn":
            spec = net.NetSpec(tuple(b["dims"]), "relu")
            local = dict(opts)
            local["seed"] = seed
            theta, _ = net.train(spec, (z_train, y_train[:, None]), local)
            pred = net.forward(spec, theta, z_test)[:, 0]
            err = float(np.max(np.abs(pred - y_test)))
            rows.append({
                "model": f"ffnn{tuple(b['dims'])}",
                "params": net.param_count(spec),
                "max_err": err,
                "seconds": time.perf_counter() - t0,
                "seed": seed,
            })
        elif b["kind"] == "cno":
            M = int(b.get("M", T))
            ds = cno.windows_from_paths(
                z_train, path_train, grid, M=M, step_dim=1
            )
            model, _ = cno.construct_cno(
                ds, eps_D=eps_A, eps_A=eps_A, Q=int(b.get("Q", 4)),
                delta=float(b.get("delta", 0.5)), seed=seed,
                dims=(M,) + tuple(b["dims"]) + (1,), train_opts=opts,
            )
            preds = cno.predict_paths(model, z_test[:, :, None])[:, -1, 0]
            err = float(np.max(np.abs(preds - y_test)))
            rows.append({
                "model": f"cno(M={M},h={tuple(b['dims'])})",
                "params": _cno_param_count(model),
                "max_err": err,
                "seconds": time.perf_counter() - t0,
                "seed": seed,
            })
        else:
            raise InvalidArgumentError(f"unknown model kind {b['kind']!r}")
    return TradeoffReport(rows=rows)

