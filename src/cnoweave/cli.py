"""Experiment command line: every subcommand reads a YAML config, runs one
stage of the pipeline, and writes its artifacts plus a manifest (config hash,
file hashes, timings) into an output directory.

Exit codes: 0 ok, 2 config error, 3 budget infeasible, 4 training shortfall,
5 integrity failure, 6 training or simulation diverged.

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


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as e:
        raise ConfigError(f"config does not parse: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    return cfg


def _require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"missing required field: {key}", field=key)
    value = cfg[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(
            f"field {key} must be {getattr(kind, '__name__', kind)}, got {type(value).__name__}",
            field=key,
        )
    return value


def _out_dir(cfg: dict) -> str:
    out = cfg.get("out_dir") or os.environ.get("CNOWEAVE_OUT")
    if not out:
        raise ConfigError("no out_dir in config and CNOWEAVE_OUT unset", field="out_dir")
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path: str, obj):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))


def _regularity_from(cfg: dict):
    reg = _require(cfg, "regularity", dict)
    kind = _require(reg, "kind", str)
    if kind == "holder":
        return Holder(float(_require(reg, "alpha")))
    if kind == "smooth":
        return Smooth(int(_require(reg, "k")))
    raise ConfigError(f"regularity.kind must be holder|smooth, got {kind}",
                      field="regularity.kind")


def cmd_budget(cfg: dict) -> int:
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    reg = _regularity_from(cfg)
    binput = filters.BudgetInput(
        eps_D=float(_require(cfg, "eps_D")),
        eps_A=float(_require(cfg, "eps_A")),
        lam=float(cfg.get("lam", 1.0)),
        regularity=reg,
        n_in=int(_require(cfg, "n_in")),
        n_out=int(_require(cfg, "n_out")),
        C_fbar=float(cfg.get("C_fbar", 1.0)),
    )
    budget = (filters.budget_holder if isinstance(reg, Holder)
              else filters.budget_smooth)(binput)
    result = {"schema_version": SCHEMA_VERSION, "budget": budget.as_dict()}
    if "table2" in cfg:
        t2 = cfg["table2"]
        result["table2"] = weave.table2_report(
            P=int(_require(t2, "P")), Q=int(_require(t2, "Q")),
            delta=float(_require(t2, "delta")), T=int(_require(t2, "T")),
        )
    _write_json(os.path.join(out, "budget.json"), result)
    serial.write_manifest(out, cfg, ["budget.json"],
                          {"total_s": time.perf_counter() - t0})
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def _toy_dataset(cfg: dict, rng):
    """Sampled (x, y) pairs for the built-in scalar targets."""
    target = cfg.get("target", "linear")
    n = int(cfg.get("n_samples", 512))
    d_in = int(cfg.get("d_in", 1))
    x = rng.random((n, d_in))
    if target == "linear":
        w = np.arange(1, d_in + 1, dtype=np.float64)
        y = x @ w
    elif target == "sin":
        y = np.sin(np.pi * x).sum(axis=1)
    else:
        raise ConfigError(f"unknown target {target!r}", field="target")
    return x, y[:, None]


def cmd_train_filter(cfg: dict) -> int:
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    seed = int(cfg.get("seed", 0))
    rng = np.random.default_rng(seed)
    x, y = _toy_dataset(cfg, rng)
    dims = tuple(_require(cfg, "dims", list))
    spec = net.NetSpec(dims, cfg.get("activation", "relu"))
    opts = dict(cfg.get("train", {}))
    opts["seed"] = seed
    theta, trace = net.train(spec, (x, y), opts)
    pred = net.forward(spec, theta, x)
    err = float(np.max(np.abs(pred - y)))
    gate = cfg.get("gate")
    serial.save_net(os.path.join(out, "filter.net"), spec, theta)
    report = {
        "schema_version": SCHEMA_VERSION,
        "dims": list(dims),
        "param_count": net.param_count(spec),
        "final_loss": trace[-1] if trace else None,
        "max_train_error": err,
        "gate": gate,
        "shortfall": bool(gate is not None and not err < float(gate)),
    }
    _write_json(os.path.join(out, "train_report.json"), report)
    serial.write_manifest(out, cfg, ["filter.net", "train_report.json"],
                          {"total_s": time.perf_counter() - t0})
    print(json.dumps(report, sort_keys=True))
    if report["shortfall"]:
        raise TrainingShortfallError("training did not reach the gate",
                                     achieved=err, gate=gate)
    return EXIT_OK


def _construct_from_config(cfg: dict):
    seed = int(cfg.get("seed", 0))
    T = int(cfg.get("T", 8))
    target = bench.RecursiveTarget(T=T, G=cfg.get("G", "mean"))
    rng = np.random.default_rng(seed)
    n_train = int(cfg.get("n_train", 1000))
    z = rng.random((n_train, T))
    path = bench.recursive_path(target, z)
    grid = cno.TimeGrid(np.arange(T, dtype=np.float64))
    M = int(cfg.get("M", min(T, 6)))
    ds = cno.windows_from_paths(z, path, grid, M=M, step_dim=1)
    hidden = tuple(cfg.get("hidden", [16]))
    model, reports = cno.construct_cno(
        ds,
        eps_D=float(cfg.get("eps_D", 0.05)),
        eps_A=float(cfg.get("eps_A", 0.05)),
        Q=int(cfg.get("Q", 4)),
        delta=float(cfg.get("delta", 0.5)),
        seed=seed,
        dims=(M,) + hidden + (1,),
        train_opts=dict(cfg.get("train", {})),
    )
    return model, reports


def cmd_construct(cfg: dict) -> int:
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    model, reports = _construct_from_config(cfg)
    serial.save_bundle(os.path.join(out, "bundle"), model, config=cfg,
                       timings={"total_s": time.perf_counter() - t0})
    summary = {
        "schema_version": SCHEMA_VERSION,
        "windows": len(reports),
        "max_window_error": max(r.error for r in reports),
        "gate": reports[0].gate,
        "shortfalls": [r.index for r in reports if r.shortfall],
    }
    _write_json(os.path.join(out, "construct_report.json"), summary)
    serial.write_manifest(out, cfg, ["construct_report.json"],
                          {"total_s": time.perf_counter() - t0})
    print(json.dumps(summary, sort_keys=True))
    if summary["shortfalls"]:
        raise TrainingShortfallError(
            f"windows {summary['shortfalls']} missed the gate",
            achieved=summary["max_window_error"], gate=summary["gate"],
        )
    return EXIT_OK


def cmd_predict(cfg: dict) -> int:
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    model = serial.load_bundle(_require(cfg, "bundle", str))
    path_cfg = _require(cfg, "path", list)
    x_path = np.asarray(path_cfg, dtype=np.float64)
    outputs = cno.predict(model, x_path, horizon=cfg.get("horizon"))
    result = {
        "schema_version": SCHEMA_VERSION,
        "outputs": [o.tolist() for o in outputs],
    }
    _write_json(os.path.join(out, "predictions.json"), result)
    serial.write_manifest(out, cfg, ["predictions.json"],
                          {"total_s": time.perf_counter() - t0})
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def cmd_audit(cfg: dict) -> int:
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    model = serial.load_bundle(_require(cfg, "bundle", str))
    seed = int(cfg.get("seed", 0))
    n_pairs = int(cfg.get("n_pairs", 100))
    rng = np.random.default_rng(seed)
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
    result = {
        "schema_version": SCHEMA_VERSION,
        "pairs": n_pairs,
        "passed": passed,
        "ok": passed == n_pairs,
    }
    _write_json(os.path.join(out, "audit.json"), result)
    serial.write_manifest(out, cfg, ["audit.json"], {"total_s": time.perf_counter() - t0})
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK if result["ok"] else EXIT_INTEGRITY


def cmd_weave_test(cfg: dict) -> int:
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    seed = int(cfg.get("seed", 0))
    P = int(cfg.get("P", 17))
    Q = int(cfg.get("Q", 4))
    T = int(cfg.get("T", 16))
    delta = float(cfg.get("delta", 0.5))
    rng = np.random.default_rng(seed)
    thetas = rng.standard_normal((T, P))
    w = weave.build_weave(thetas, Q=Q, delta=delta, seed=seed)
    recovered = weave.rollout(w, T)
    scale = max(1.0, float(np.abs(thetas).max()))
    max_rel = max(
        float(np.max(np.abs(recovered[t] - thetas[t]))) / scale for t in range(T)
    )
    hidden_width = max(w.hyper_spec.dims[1:-1]) if w.hyper_spec.depth > 1 else w.hyper_spec.dims[-1]
    result = {
        "schema_version": SCHEMA_VERSION,
        "P": P, "Q": Q, "T": T, "delta": delta, "M_T": w.M_T,
        "max_relative_rollout_error": max_rel,
        "packing_min_separation": w.packing.min_separation(),
        "aspect_ratio": weave.aspect_ratio(w.codes),
        "aspect_bound": (1 + 4 * w.R ** 2) ** 0.5 / delta,
        "table2": weave.table2_report(P, Q, delta, T, measured_width=hidden_width),
    }
    _write_json(os.path.join(out, "weave_test.json"), result)
    serial.write_manifest(out, cfg, ["weave_test.json"], {"total_s": time.perf_counter() - t0})
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def cmd_sde_bench(cfg: dict) -> int:
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    seed = int(cfg.get("seed", 0))
    n_modes = int(cfg.get("n_modes", 8))
    coeffs = sde.ou_coeffs(rate=float(cfg.get("rate", 1.0)),
                           sigma=float(cfg.get("sigma", 0.5)))
    dt_step = float(cfg.get("dt", 0.25))
    n_grid = int(cfg.get("grid_steps", 4))
    grid = cno.TimeGrid(dt_step * np.arange(n_grid + 1))
    oracle = sde.McOracle(
        n_paths=int(cfg.get("n_paths", 4000)),
        n_steps=int(cfg.get("n_steps", 128)),
        seed=seed,
        tamed=bool(cfg.get("tamed", True)),
    )
    ds = sde.build_sde_dataset(
        coeffs, grid, tuple(cfg.get("init_box", [-1.0, 1.0])), oracle,
        n_modes=n_modes, n_orbit_samples=int(cfg.get("n_orbit_samples", 24)),
        seed=seed,
    )
    hidden = tuple(cfg.get("hidden", [32]))
    dim = 1 + n_modes
    model, reports = cno.construct_cno(
        ds, eps_D=float(cfg.get("eps_D", 0.02)), eps_A=float(cfg.get("eps_A", 0.08)),
        Q=int(cfg.get("Q", 4)), delta=float(cfg.get("delta", 0.5)), seed=seed,
        dims=(dim,) + hidden + (dim,), train_opts=dict(cfg.get("train", {})),
    )
    lines = ["window,error,gate,shortfall"]
    for r in reports:
        lines.append(f"{r.index},{r.error:.10g},{r.gate:.10g},{int(r.shortfall)}")
    csv_text = "\n".join(lines) + "\n"
    with open(os.path.join(out, "sde_bench.csv"), "w") as fh:
        fh.write(csv_text)
    serial.write_manifest(out, cfg, ["sde_bench.csv"], {"total_s": time.perf_counter() - t0})
    print(csv_text)
    if any(r.shortfall for r in reports):
        raise TrainingShortfallError(
            "some SDE windows missed the gate",
            achieved=max(r.error for r in reports), gate=reports[0].gate,
        )
    return EXIT_OK


def cmd_compare_rnn(cfg: dict) -> int:
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    seed = int(cfg.get("seed", 0))
    T = int(cfg.get("T", 6))
    target = bench.RecursiveTarget(T=T, G=cfg.get("G", "mean"))
    budgets = cfg.get("budgets") or [
        {"kind": "ffnn", "dims": [T, 8, 1]},
        {"kind": "ffnn", "dims": [T, 32, 1]},
        {"kind": "ffnn", "dims": [T, 128, 1]},
        {"kind": "ffnn", "dims": [T, 256, 1]},
        {"kind": "cno", "dims": [8], "M": T},
        {"kind": "cno", "dims": [16], "M": T},
    ]
    report = bench.compare(target, eps_A=float(cfg.get("eps_A", 0.05)),
                           budgets=budgets, seed=seed,
                           train_opts=dict(cfg.get("train", {})))
    with open(os.path.join(out, "tradeoff.csv"), "w") as fh:
        fh.write(report.to_csv())
    best_cno = report.best_row("cno")
    best_ffnn = report.best_row("ffnn", min_params=best_cno["params"] if best_cno else 0)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "directional": True,
        "best_cno": best_cno,
        "best_ffnn_at_or_above": best_ffnn,
        "cno_at_or_below_ffnn": bool(
            best_cno and best_ffnn and best_cno["max_err"] <= best_ffnn["max_err"]
        ),
    }
    _write_json(os.path.join(out, "tradeoff_summary.json"), summary)
    serial.write_manifest(out, cfg, ["tradeoff.csv", "tradeoff_summary.json"],
                          {"total_s": time.perf_counter() - t0})
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_inspect(args_bundle: str) -> int:
    manifest = serial.verify_bundle(args_bundle)
    model = serial.load_bundle(args_bundle)
    w = model.weave_model
    hidden_width = (max(w.hyper_spec.dims[1:-1])
                    if w.hyper_spec.depth > 1 else w.hyper_spec.dims[-1])
    summary = {
        "schema_version": SCHEMA_VERSION,
        "synced_dims": list(model.synced_spec.dims),
        "P": net.param_count(model.synced_spec),
        "Q": model.Q,
        "delta": model.delta,
        "I_delta_Q": int(model.delta ** (-model.Q)),
        "T": w.T,
        "M_T": w.M_T,
        "packing_min_separation": w.packing.min_separation(),
        "table2": weave.table2_report(w.P, w.Q, w.delta, w.T,
                                      measured_width=hidden_width),
        "config_hash": manifest["config_hash"],
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    return EXIT_OK


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
            return cmd_inspect(args.bundle)
        cfg = _load_config(args.config)
        return COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}" + (f" (field {e.field})" if e.field else ""),
              file=sys.stderr)
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
    except InvalidArgumentError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except CnoweaveError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTEGRITY


if __name__ == "__main__":
    sys.exit(main())
