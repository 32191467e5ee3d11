"""Experiment command line: every subcommand reads a YAML config, runs one
stage of the pipeline, and writes its artifacts plus a manifest (config hash,
file hashes, timings) into an output directory.

Exit codes: 0 ok, 2 config error (a missing or ill-typed field, an unknown
training option), 3 budget infeasible, 4 training shortfall, 5 integrity
failure, 6 training or simulation diverged.

The output directory is taken from the config's ``out_dir`` or, failing that,
the ``CNOWEAVE_OUT`` environment variable.  Identical configs produce
byte-identical artifacts (manifests differ only in wall-clock timings).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import yaml

from . import bench, cno, filters, net, sde, serial, weave
from .errors import (
    BudgetInfeasibleError,
    BudgetOverflowError,
    CnoweaveError,
    ConfigError,
    IntegrityError,
    InvalidArgumentError,
    OracleDivergedError,
    PackingInfeasibleError,
    TrainingDivergedError,
    TrainingShortfallError,
)
from .regularity import Holder, Smooth

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_SHORTFALL = 4
EXIT_INTEGRITY = 5
EXIT_DIVERGED = 6

SCHEMA_VERSION = serial.SCHEMA_VERSION
_REQUIRED = object()


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"config cannot be read: {e}")
    except yaml.YAMLError as e:
        raise ConfigError(f"config does not parse: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    return cfg


def _int(value) -> int:
    """A YAML integer that numpy can take as a size or a seed: one outside
    ``np.intp`` would make numpy raise a bare ValueError, not a config error."""
    value = int(value)
    bounds = np.iinfo(np.intp)
    if not bounds.min <= value <= bounds.max:
        raise OverflowError(f"{value} does not fit a {bounds.bits}-bit integer")
    return value


def _ints(value) -> tuple:
    """A YAML list of ints, such as layer widths."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return tuple(map(_int, value))


def _floats(value) -> np.ndarray:
    """A YAML number or (nested) list of numbers, as a float array."""
    return np.asarray(value, dtype=np.float64)


def _get(cfg: dict, key, kind, default=_REQUIRED, where: str = "", low=None):
    """``cfg[key]`` read as ``kind``: int (checked by :func:`_int`), float and
    a converter such as :func:`_ints` convert the value, any other type must
    match it as parsed.  A missing or null field takes ``default``.  With no
    default, a value that does not convert, or one below ``low``, raise
    ConfigError naming the field ``where + key``."""
    name = f"{where}{key}"
    if kind is int:
        kind = _int
    value = cfg.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing required field: {name}", field=name)
        return default
    try:
        if kind in (int, float) or not isinstance(kind, type):
            value = kind(value)
        elif not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
        if low is not None and value < low:
            raise ValueError(f"must be at least {low}, got {value}")
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"field {name} is invalid: {e}", field=name) from e
    return value


def _out_dir(cfg: dict) -> str:
    out = _get(cfg, "out_dir", str, None) or os.environ.get("CNOWEAVE_OUT")
    if not out:
        raise ConfigError("no out_dir in config and CNOWEAVE_OUT unset", field="out_dir")
    os.makedirs(out, exist_ok=True)
    return out


def _hidden_width(w: weave.WeaveModel) -> int:
    """The hypernetwork's widest hidden layer (its output width if it has none)."""
    dims = w.hyper_spec.dims
    return max(dims[1:-1]) if w.hyper_spec.depth > 1 else dims[-1]


def _regularity_from(cfg: dict):
    reg = _get(cfg, "regularity", dict)
    kind = _get(reg, "kind", str, where="regularity.")
    if kind == "holder":
        return Holder(_get(reg, "alpha", float, where="regularity."))
    if kind == "smooth":
        return Smooth(_get(reg, "k", int, where="regularity."))
    raise ConfigError(f"regularity.kind must be holder|smooth, got {kind}",
                      field="regularity.kind")


def cmd_budget(cfg: dict):
    reg = _regularity_from(cfg)
    binput = filters.BudgetInput(
        eps_D=_get(cfg, "eps_D", float),
        eps_A=_get(cfg, "eps_A", float),
        lam=_get(cfg, "lam", float, 1.0),
        regularity=reg,
        n_in=_get(cfg, "n_in", int),
        n_out=_get(cfg, "n_out", int),
        C_fbar=_get(cfg, "C_fbar", float, 1.0),
    )
    budget = (filters.budget_holder if isinstance(reg, Holder)
              else filters.budget_smooth)(binput)
    result = {"budget": budget.as_dict()}
    t2 = _get(cfg, "table2", dict, None)
    if t2 is not None:
        result["table2"] = weave.table2_report(
            P=_get(t2, "P", int, where="table2."), Q=_get(t2, "Q", int, where="table2."),
            delta=_get(t2, "delta", float, where="table2."),
            T=_get(t2, "T", int, where="table2."),
        )
    return {"budget.json": result}, None


def _toy_dataset(cfg: dict, rng):
    """Sampled (x, y) pairs for the built-in scalar targets."""
    target = _get(cfg, "target", str, "linear")
    d_in = _get(cfg, "d_in", int, 1, low=1)
    x = rng.random((_get(cfg, "n_samples", int, 512, low=1), d_in))
    if target == "linear":
        w = np.arange(1, d_in + 1, dtype=np.float64)
        y = x @ w
    elif target == "sin":
        y = np.sin(np.pi * x).sum(axis=1)
    else:
        raise ConfigError(f"target must be linear|sin, got {target!r}", field="target")
    return x, y[:, None]


def cmd_train_filter(cfg: dict):
    seed = _get(cfg, "seed", int, 0, low=0)
    x, y = _toy_dataset(cfg, np.random.default_rng(seed))
    spec = net.NetSpec(_get(cfg, "dims", _ints),
                       _get(cfg, "activation", str, "relu"))
    opts = {**_get(cfg, "train", dict, {}), "seed": seed}
    theta, trace = net.train(spec, (x, y), opts)
    err = float(np.max(np.abs(net.forward(spec, theta, x) - y)))
    gate = _get(cfg, "gate", float, None)
    serial.save_net(os.path.join(_out_dir(cfg), "filter.net"), spec, theta)
    report = {
        "dims": list(spec.dims),
        "param_count": net.param_count(spec),
        "final_loss": trace[-1] if trace else None,
        "max_train_error": err,
        "gate": gate,
        "shortfall": gate is not None and not err < gate,
    }
    failure = (TrainingShortfallError("training did not reach the gate",
                                      achieved=err, gate=gate)
               if report["shortfall"] else None)
    return {"filter.net": None, "train_report.json": report}, failure


def _shortfall(reports):
    """The error for windows that missed their gate, or None if none did."""
    missed = [r.index for r in reports if r.shortfall]
    if missed:
        return TrainingShortfallError(f"windows {missed} missed the gate",
                                      achieved=max(r.error for r in reports),
                                      gate=reports[0].gate)
    return None


def _construct_from_config(cfg: dict):
    seed = _get(cfg, "seed", int, 0, low=0)
    T = _get(cfg, "T", int, 8, low=1)
    target = bench.RecursiveTarget(T=T, G=_get(cfg, "G", str, "mean"))
    rng = np.random.default_rng(seed)
    z = rng.random((_get(cfg, "n_train", int, 1000, low=1), T))
    path = bench.recursive_path(target, z)
    grid = cno.TimeGrid(np.arange(T, dtype=np.float64))
    M = _get(cfg, "M", int, min(T, 6), low=1)
    ds = cno.windows_from_paths(z, path, grid, M=M, step_dim=1)
    return cno.construct_cno(
        ds,
        eps_D=_get(cfg, "eps_D", float, 0.05),
        eps_A=_get(cfg, "eps_A", float, 0.05),
        Q=_get(cfg, "Q", int, 4, low=1),
        delta=_get(cfg, "delta", float, 0.5),
        seed=seed,
        dims=(M,) + _get(cfg, "hidden", _ints, (16,)) + (1,),
        train_opts=_get(cfg, "train", dict, {}),
    )


def cmd_construct(cfg: dict):
    t0 = time.perf_counter()
    model, reports = _construct_from_config(cfg)
    serial.save_bundle(os.path.join(_out_dir(cfg), "bundle"), model, config=cfg,
                       timings={"total_s": time.perf_counter() - t0})
    summary = {
        "windows": len(reports),
        "max_window_error": max(r.error for r in reports),
        "gate": reports[0].gate,
        "shortfalls": [r.index for r in reports if r.shortfall],
    }
    return {"construct_report.json": summary}, _shortfall(reports)


def cmd_predict(cfg: dict):
    model = serial.load_bundle(_get(cfg, "bundle", str))
    outputs = cno.predict(model, _get(cfg, "path", _floats),
                          horizon=_get(cfg, "horizon", int, None, low=1))
    return {"predictions.json": {"outputs": [o.tolist() for o in outputs]}}, None


def cmd_audit(cfg: dict):
    model = serial.load_bundle(_get(cfg, "bundle", str))
    n_pairs = _get(cfg, "n_pairs", int, 100, low=0)
    rng = np.random.default_rng(_get(cfg, "seed", int, 0, low=0))
    horizon = model.horizon
    passed = 0
    for _ in range(n_pairs):
        i = int(rng.integers(0, horizon - 1)) if horizon > 1 else 0
        a = rng.random((horizon, model.step_dim))
        b = np.array(a, copy=True)
        if i + 1 < horizon:
            b[i + 1:] = rng.random((horizon - i - 1, model.step_dim))
        if cno.causality_audit(model, a, b, i):
            passed += 1
    result = {"pairs": n_pairs, "passed": passed, "ok": passed == n_pairs}
    failure = (None if result["ok"] else
               IntegrityError(f"{n_pairs - passed} of {n_pairs} audit pairs not bit-exact"))
    return {"audit.json": result}, failure


def cmd_weave_test(cfg: dict):
    seed = _get(cfg, "seed", int, 0, low=0)
    P = _get(cfg, "P", int, 17, low=1)
    Q = _get(cfg, "Q", int, 4, low=1)
    T = _get(cfg, "T", int, 16, low=1)
    delta = _get(cfg, "delta", float, 0.5)
    thetas = np.random.default_rng(seed).standard_normal((T, P))
    w = weave.build_weave(thetas, Q=Q, delta=delta, seed=seed)
    recovered = weave.rollout(w, T)
    scale = max(1.0, float(np.abs(thetas).max()))
    max_rel = max(
        float(np.max(np.abs(recovered[t] - thetas[t]))) / scale for t in range(T)
    )
    result = {
        "P": P, "Q": Q, "T": T, "delta": delta, "M_T": w.M_T,
        "max_relative_rollout_error": max_rel,
        "packing_min_separation": w.packing.min_separation(),
        "aspect_ratio": weave.aspect_ratio(w.codes),
        "aspect_bound": (1 + 4 * w.R ** 2) ** 0.5 / delta,
        "table2": weave.table2_report(P, Q, delta, T, measured_width=_hidden_width(w)),
    }
    return {"weave_test.json": result}, None


def cmd_sde_bench(cfg: dict):
    seed = _get(cfg, "seed", int, 0, low=0)
    n_modes = _get(cfg, "n_modes", int, 8, low=1)
    coeffs = sde.ou_coeffs(rate=_get(cfg, "rate", float, 1.0),
                           sigma=_get(cfg, "sigma", float, 0.5))
    n_grid = _get(cfg, "grid_steps", int, 4, low=1)
    grid = cno.TimeGrid(_get(cfg, "dt", float, 0.25) * np.arange(n_grid + 1))
    oracle = sde.McOracle(
        n_paths=_get(cfg, "n_paths", int, 4000, low=1),
        n_steps=_get(cfg, "n_steps", int, 128, low=1),
        seed=seed,
        tamed=_get(cfg, "tamed", bool, True),
    )
    ds = sde.build_sde_dataset(
        coeffs, grid, _get(cfg, "init_box", _floats, (-1.0, 1.0)), oracle,
        n_modes=n_modes, n_orbit_samples=_get(cfg, "n_orbit_samples", int, 24, low=1),
        seed=seed,
    )
    dim = 1 + n_modes
    model, reports = cno.construct_cno(
        ds, eps_D=_get(cfg, "eps_D", float, 0.02), eps_A=_get(cfg, "eps_A", float, 0.08),
        Q=_get(cfg, "Q", int, 4, low=1), delta=_get(cfg, "delta", float, 0.5), seed=seed,
        dims=(dim,) + _get(cfg, "hidden", _ints, (32,)) + (dim,),
        train_opts=_get(cfg, "train", dict, {}),
    )
    lines = ["window,error,gate,shortfall"]
    for r in reports:
        lines.append(f"{r.index},{r.error:.10g},{r.gate:.10g},{int(r.shortfall)}")
    return {"sde_bench.csv": "\n".join(lines) + "\n"}, _shortfall(reports)


def _budget_entry(entries: dict, i: int) -> dict:
    """Entry i of the ``budgets`` list (``entries`` by index), typed for
    :func:`bench.compare`."""
    entry = _get(entries, i, dict, where="budgets.")
    kinds = {"kind": str, "dims": _ints, "M": int, "Q": int, "delta": float}
    return {key: _get(entry, key, kind, where=f"budgets.{i}.")
            for key, kind in kinds.items() if key in ("kind", "dims") or key in entry}


def cmd_compare_rnn(cfg: dict):
    seed = _get(cfg, "seed", int, 0, low=0)
    T = _get(cfg, "T", int, 6, low=1)
    target = bench.RecursiveTarget(T=T, G=_get(cfg, "G", str, "mean"))
    entries = dict(enumerate(_get(cfg, "budgets", list, None) or [
        {"kind": "ffnn", "dims": [T, 8, 1]},
        {"kind": "ffnn", "dims": [T, 32, 1]},
        {"kind": "ffnn", "dims": [T, 128, 1]},
        {"kind": "ffnn", "dims": [T, 256, 1]},
        {"kind": "cno", "dims": [8], "M": T},
        {"kind": "cno", "dims": [16], "M": T},
    ]))
    report = bench.compare(
        target, eps_A=_get(cfg, "eps_A", float, 0.05),
        budgets=[_budget_entry(entries, i) for i in entries],
        seed=seed, train_opts=_get(cfg, "train", dict, {}),
    )
    best_cno = report.best_row("cno")
    best_ffnn = report.best_row("ffnn", min_params=best_cno["params"] if best_cno else 0)
    summary = {
        "directional": True,
        "best_cno": best_cno,
        "best_ffnn_at_or_above": best_ffnn,
        "cno_at_or_below_ffnn": bool(
            best_cno and best_ffnn and best_cno["max_err"] <= best_ffnn["max_err"]
        ),
    }
    return {"tradeoff.csv": report.to_csv(), "tradeoff_summary.json": summary}, None


def cmd_inspect(bundle_dir: str) -> dict:
    manifest = serial.verify_bundle(bundle_dir)
    model = serial.load_bundle(bundle_dir)
    w = model.weave_model
    return {
        "schema_version": SCHEMA_VERSION,
        "synced_dims": list(model.synced_spec.dims),
        "P": net.param_count(model.synced_spec),
        "Q": model.Q,
        "delta": model.delta,
        "I_delta_Q": weave.viable_horizon(model.Q, model.delta),
        "T": w.T,
        "M_T": w.M_T,
        "packing_min_separation": w.packing.min_separation(),
        "table2": weave.table2_report(w.P, w.Q, w.delta, w.T,
                                      measured_width=_hidden_width(w)),
        "config_hash": manifest["config_hash"],
    }


COMMANDS = {
    "budget": cmd_budget,
    "train-filter": cmd_train_filter,
    "construct": cmd_construct,
    "predict": cmd_predict,
    "audit": cmd_audit,
    "weave-test": cmd_weave_test,
    "sde-bench": cmd_sde_bench,
    "compare-rnn": cmd_compare_rnn,
}


def _run(command: str, cfg: dict) -> int:
    """Run one config subcommand and write what it returns.

    The command returns ``(artifacts, failure)``: ``artifacts`` maps each file
    name to a JSON object (stamped with the schema version), to text, or to
    None for a file the command wrote itself.  The runner writes them and the
    manifest, echoes the last artifact, and only then raises ``failure``."""
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    artifacts, failure = COMMANDS[command](cfg)
    echo = None
    for name, payload in artifacts.items():
        if payload is None:
            continue
        if isinstance(payload, dict):
            payload = {"schema_version": SCHEMA_VERSION, **payload}
            text, echo = (json.dumps(payload, sort_keys=True, indent=2),
                          json.dumps(payload, sort_keys=True))
        else:
            text = echo = payload
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text)
    serial.write_manifest(out, cfg, list(artifacts),
                          {"total_s": time.perf_counter() - t0})
    print(echo)
    if failure is not None:
        raise failure
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cnoweave",
        description="causal neural operator experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a YAML run config")
    p_inspect = sub.add_parser("inspect")
    p_inspect.add_argument("bundle", help="path to a model bundle directory")
    args = parser.parse_args(argv)

    try:
        if args.command == "inspect":
            print(json.dumps(cmd_inspect(args.bundle), sort_keys=True, indent=2))
            return EXIT_OK
        return _run(args.command, _load_config(args.config))
    except (ConfigError, InvalidArgumentError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (BudgetInfeasibleError, BudgetOverflowError, PackingInfeasibleError) as e:
        print(f"budget infeasible: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except TrainingShortfallError as e:
        print(f"training shortfall: {e}", file=sys.stderr)
        return EXIT_SHORTFALL
    except (TrainingDivergedError, OracleDivergedError) as e:
        print(f"diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except IntegrityError as e:
        print(f"integrity failure: {e}", file=sys.stderr)
        return EXIT_INTEGRITY
    except CnoweaveError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTEGRITY


if __name__ == "__main__":
    sys.exit(main())
