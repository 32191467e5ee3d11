"""The benchmark's three workloads, the closed loop that times them, and the
checks on every output.

Every workload walks the same user journey on its own model: generate an SDE
dataset, build a model into a bundle that is loaded back, serve the loaded
model (one ``cno.predict`` per path, then causality audits), weave its filter
parameters again, roll the weave out, and round-trip the bundle.  The
workloads differ in which model they build and in how large each step is:

- ``construct-serve`` trains the acceptance criterion-5 model, so the
  ``net`` module's training and the serving path dominate;
- ``sde-orbits`` builds the acceptance SDE dataset and trains on it, so the
  ``sde`` module dominates;
- ``weave-wide`` weaves 32 parameter vectors of a (16, 1024, 1) filter and
  round-trips the 22.7 MB bundle, so the weave's write path and ``serial``
  dominate.

One client thread calls the library in a closed loop of rounds.  A round runs
every step once, in journey order, as one batch of calls; each timing metric
is a mean over the rounds of the round's median call.  An operation fails on
any exception and on any failed check; failures are counted, never fatal.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass

import numpy as np

from cnoweave import bench, cno, net, sde, serial, weave

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_SCRIPT = os.path.join(HERE, "run.py")
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SDE_TIMES = 0.25 * np.arange(5)  # the acceptance grid 0, 0.25, ..., 1
OU_RATE, OU_SIGMA = 1.0, 0.5
OU_MEAN_TOLERANCE = 0.05  # |E[X_t+d] - exp(-rate d) E[X_t]| per orbit step
RECOVERY_TOLERANCE = 1e-6  # relative, as in the acceptance contracts

STEPS = ("setup", "sde_dataset", "build_model", "predict", "audit",
         "weave_build", "weave_rollout", "bundle_roundtrip")
ROUND_S = 0.02  # a step's batch in one round lasts this long, and at least one call
OVERHEAD_PAIRS = 3  # untraced/traced pass pairs that the tracing overhead is a median of


def declared_units(kind):
    """{name: unit} of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(BENCHMARK_JSON) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@dataclass(frozen=True)
class Sizes:
    """Every size a workload uses; the smoke test shrinks them."""

    epochs: int = 0  # 0: the workload's acceptance value
    n_train: int = 512  # recursive training paths
    sde_paths: int = 20_000  # Monte Carlo paths per solve, sde-orbits
    sde_orbits: int = 32
    probe_paths: int = 2_000  # the small SDE dataset of the other workloads
    probe_orbits: int = 4
    held_out_orbits: int = 8
    wide_dims: tuple = (16, 1024, 1)
    serve_paths: int = 2_000
    audit_cycles: int = 100  # distinct audit cycles; a cycle audits every step once
    trace_predicts: int = 100
    trace_audit_cycles: int = 2
    setup_probes: int = 5


class CheckFailed(Exception):
    """An output of the library is wrong."""


def _check(ok, message):
    if not ok:
        raise CheckFailed(message)


class Ledger:
    """Operations attempted and failed; a failure is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, op):
        self.attempted += 1
        try:
            return op()
        except Exception:  # one failed operation must not end the run
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(traceback.format_exc(limit=4))
            return None


def _pairwise(x):
    """Pairwise Euclidean distances between rows, from the Gram matrix."""
    g = x @ x.T
    sq = np.diag(g)
    d2 = sq[:, None] + sq[None, :] - 2.0 * g
    return np.sqrt(np.maximum(d2[np.triu_indices(len(x), k=1)], 0.0))


def _window(path, i, M):
    """Steps (i - M, i] of a (steps, step_dim) path, zero-padded on the left."""
    out = np.zeros((M, path.shape[1]))
    chunk = path[max(0, i - M + 1): i + 1]
    out[M - len(chunk):] = chunk
    return out.ravel()


def stored_filters(model):
    w = model.weave_model
    return np.array([w.readout(w.codes[t]) for t in range(w.T)])


def check_recovery(recovered, thetas):
    scale = max(1.0, float(np.abs(thetas).max()))
    worst = float(np.abs(np.asarray(recovered) - thetas).max()) / scale
    _check(worst <= RECOVERY_TOLERANCE, f"weave recovery {worst:.3g} > {RECOVERY_TOLERANCE}")


def check_weave(w, thetas):
    """Recovery, packing separation and aspect ratio of a freshly built weave."""
    check_recovery(weave.rollout(w, w.T), thetas)
    if w.T > 1:
        sep = float(_pairwise(w.packing.points).min())
        _check(sep > w.delta, f"packing separation {sep} <= delta {w.delta}")
        d = _pairwise(w.codes)
        bound = math.sqrt(1.0 + 4.0 * w.R ** 2) / w.delta
        _check(d.max() / d.min() <= bound, f"aspect ratio {d.max() / d.min()} > {bound}")


def check_same_model(a, b):
    """A reloaded bundle must carry bit-identical weave arrays."""
    wa, wb = a.weave_model, b.weave_model
    _check(np.array_equal(wa.codes, wb.codes), "reloaded codes differ")
    _check(np.array_equal(wa.hyper_theta, wb.hyper_theta), "reloaded hypernetwork differs")
    _check(wa.M_T == wb.M_T, "reloaded M_T differs")


def check_no_shortfall(reports):
    bad = [r.index for r in reports if r.shortfall]
    _check(not bad, f"windows {bad} missed the accuracy gate")


def check_ou_orbits(ds):
    """Every orbit step follows the OU conditional mean E[X_t+d] = e^(-d) E[X_t]."""
    for j, w in enumerate(ds.windows):
        dt = SDE_TIMES[j + 1] - SDE_TIMES[j]
        gap = np.abs(w["targets"][:, 0] - math.exp(-OU_RATE * dt) * w["inputs"][:, 0])
        _check(np.all(np.isfinite(w["targets"])), f"window {j}: non-finite coordinates")
        _check(gap.max() <= OU_MEAN_TOLERANCE, f"window {j}: OU mean off by {gap.max():.3g}")


def _audit_cycles(rng, paths, n):
    """``n`` cycles of pairs (a, b, i), one pair for each step i but the last:
    b agrees with a up to step i and follows another path after.  An audit
    costs i + 1 predict steps, so a whole cycle costs the same on every seed."""
    cycles = []
    steps = paths.shape[1]
    for _ in range(n):
        cycle = []
        for i in range(steps - 1):
            s, s2 = rng.choice(len(paths), size=2, replace=False)
            a = paths[s]
            b = a.copy()
            b[i + 1:] = paths[s2][i + 1:]
            cycle.append((a, b, i))
        cycles.append(cycle)
    return cycles


class Workload:
    """Inputs and timed operations of one workload; subclasses give the
    model, the SDE dataset sizes and the steps that need other batches."""

    name = ""
    why = ""
    peak_step = ""
    long_steps = {}  # step -> calls per run, for a step too long for every round
    predict_s = ROUND_S  # seconds of one predict batch

    def __init__(self, seed: int, sizes: Sizes = Sizes(), out_dir: str = "."):
        self.seed = seed
        self.sizes = sizes
        self.out_dir = out_dir
        self.rng = np.random.default_rng(seed)
        self.ledger = Ledger()
        self.tracer = None  # set while a traced pass runs, so checks can pause it
        self.coeffs = sde.ou_coeffs(rate=OU_RATE, sigma=OU_SIGMA)
        self.sde_grid = cno.TimeGrid(SDE_TIMES)
        self.model = None
        self.sde_ds = None
        self.serve_paths = None
        self.audits = None
        self._next_path = 0
        self._next_cycle = 0
        self.make_inputs()

    # -- subclass hooks -------------------------------------------------
    def make_inputs(self):
        """Generate every input array from the seed (counted in setup_s)."""

    def sde_config(self):
        """(oracle, orbits, dataset seed) of this workload's SDE dataset."""
        raise NotImplementedError

    def build(self, bundle_dir):
        """In-memory data to a saved bundle that is loaded back: (built, loaded)."""
        raise NotImplementedError

    def check_built(self, model):
        """Checks on a freshly built model, before it is compared with its reload."""
        check_no_shortfall(model.reports)

    def after_build(self):
        """Untimed work once a model exists, such as held-out checks."""

    def weave_thetas(self):
        """(thetas, Q, delta) that the weave step builds a weave from."""
        return stored_filters(self.model), self.model.Q, self.model.delta

    # -- operations: each returns its timed seconds or raises ------------
    def untraced(self):
        """A context in which the library calls of a check leave no spans."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def op_setup(self):
        return measure_setup(self.name, self.seed)

    def op_sde_dataset(self):
        oracle, orbits, ds_seed = self.sde_config()
        t0 = time.perf_counter()
        ds = sde.build_sde_dataset(self.coeffs, self.sde_grid, (-1.0, 1.0), oracle,
                                   n_modes=8, n_orbit_samples=orbits, seed=ds_seed)
        t = time.perf_counter() - t0
        self.sde_ds = ds
        check_ou_orbits(ds)
        return t

    def op_build_model(self):
        d = os.path.join(self.out_dir, "build")
        shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        built, loaded = self.build(d)
        t = time.perf_counter() - t0
        self.model = loaded  # later steps serve it even if a check below fails
        with self.untraced():
            self.after_build()
            self.check_built(built)
        check_same_model(built, loaded)
        return t

    def op_predict(self):
        path = self.serve_paths[self._next_path % len(self.serve_paths)]
        self._next_path += 1
        t0 = time.perf_counter()
        cno.predict(self.model, path)
        return time.perf_counter() - t0

    def op_predict_check(self, path):
        """One predict, compared with net.forward on the stored filters."""
        out = np.asarray(cno.predict(self.model, path)).reshape(self.model.horizon, -1)
        thetas = stored_filters(self.model)
        for i in range(self.model.horizon):
            direct = net.forward(self.model.synced_spec, thetas[i],
                                 _window(path, i, self.model.M))
            rel = float(np.abs(out[i] - direct).max()) / max(1.0, float(np.abs(direct).max()))
            _check(rel <= RECOVERY_TOLERANCE, f"predict step {i} off by {rel:.3g} relative")

    def op_audit(self):
        """One audit cycle; returns its seconds per pair."""
        cycle = self.audits[self._next_cycle % len(self.audits)]
        self._next_cycle += 1
        t0 = time.perf_counter()
        ok = [cno.causality_audit(self.model, a, b, i) for a, b, i in cycle]
        t = time.perf_counter() - t0
        bad = [i for (_, _, i), good in zip(cycle, ok) if not good]
        _check(not bad, f"audits at steps {bad} are not bit-exact")
        return t / len(cycle)

    def op_weave_build(self):
        thetas, Q, delta = self.weave_thetas()
        t0 = time.perf_counter()
        w = weave.build_weave(thetas, Q=Q, delta=delta, seed=self.seed)
        t = time.perf_counter() - t0
        with self.untraced():
            check_weave(w, thetas)
        return t

    def op_weave_rollout(self):
        w = self.model.weave_model
        t0 = time.perf_counter()
        recovered = weave.rollout(w, w.T)
        t = time.perf_counter() - t0
        check_recovery(recovered, stored_filters(self.model))
        return t

    def op_bundle_roundtrip(self):
        d = os.path.join(self.out_dir, "roundtrip")
        shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        serial.save_bundle(d, self.model)
        back = serial.load_bundle(d)
        t = time.perf_counter() - t0
        check_same_model(self.model, back)
        return t

    def op_serve_session(self):
        """Load the built bundle and serve the trace pass's predicts and audits."""
        self.model = serial.load_bundle(os.path.join(self.out_dir, "build"))
        for _ in range(self.sizes.trace_predicts):
            self.op_predict()
        for _ in range(self.sizes.trace_audit_cycles):
            self.op_audit()

    def peak_mb(self):
        """tracemalloc peak of this workload's peak step, in a pass of its own."""
        op = getattr(self, "op_" + self.peak_step)
        tracemalloc.start()
        try:
            op()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    # -- passes -----------------------------------------------------------
    def timed_rounds(self, seconds):
        """Run rounds until ``seconds`` have passed and every long step has
        made its calls; return one {step: [seconds per call]} per round.

        A round runs every step in journey order.  A long step, and setup,
        makes one call in each of its first rounds; any other step makes
        calls for ROUND_S (predict for ``predict_s``), and at least one.
        Short batches spread every step over the whole run, so each metric
        averages the host's fast and slow stretches alike.
        """
        per_run = {"setup": self.sizes.setup_probes, **self.long_steps}
        rounds = []
        began = time.perf_counter()
        while (time.perf_counter() - began < seconds
               or any(len(rounds) < n for n in per_run.values())):
            batches = {}
            for step in STEPS:
                if step in per_run and len(rounds) >= per_run[step]:
                    continue
                quantum = (0.0 if step in per_run else
                           self.predict_s if step == "predict" else ROUND_S)
                op = getattr(self, "op_" + step)
                t0 = time.perf_counter()
                times = []
                while True:
                    t = self.ledger.run(op)
                    if t is not None:
                        times.append(t)
                    if time.perf_counter() - t0 >= quantum:
                        break
                batches[step] = times
            rounds.append(batches)
        return rounds

    def fixed_pass(self, reps):
        """Exactly ``reps[step]`` calls of each step, in journey order; return
        their timed seconds in total.  Traced runs repeat this work."""
        total = 0.0
        for step in STEPS:
            op = getattr(self, "op_" + step)
            for _ in range(reps.get(step, 0)):
                t = self.ledger.run(op)
                total += t or 0.0
        return total

    def traced_pass(self, reps, tracer):
        """:meth:`fixed_pass` with ``tracer`` installed; checks leave no spans."""
        self.tracer = tracer
        try:
            with tracer:
                return self.fixed_pass(reps)
        finally:
            self.tracer = None

    def check_predictions(self):
        if self.model is None:
            return
        for path in self.serve_paths[:20]:
            self.ledger.run(lambda p=path: self.op_predict_check(p))


class ConstructServe(Workload):
    name = "construct-serve"
    why = ("trains the acceptance criterion-5 model with the default pool and "
           "serves it, so net training and the predict/audit path dominate")
    peak_step = "serve_session"
    long_steps = {"build_model": 1}  # 13-19 s per build on 2 cores
    T = 8

    def make_inputs(self):
        # training data: the criterion-5 fixture; the gate at 400 epochs is
        # met there, so the seed drives everything served, not the training set
        fixture = np.random.default_rng(5)
        self.z = fixture.random((self.sizes.n_train, self.T))
        self.targets = bench.recursive_path(bench.RecursiveTarget(T=self.T, G="mean"), self.z)
        self.grid = cno.TimeGrid(np.arange(self.T, dtype=np.float64))
        self.serve_paths = self.rng.random((self.sizes.serve_paths, self.T, 1))
        self.audits = _audit_cycles(self.rng, self.serve_paths, self.sizes.audit_cycles)

    def sde_config(self):
        oracle = sde.McOracle(n_paths=self.sizes.probe_paths, n_steps=128, seed=self.seed)
        return oracle, self.sizes.probe_orbits, self.seed

    def build(self, bundle_dir):
        ds = cno.windows_from_paths(self.z, self.targets, self.grid, M=self.T, step_dim=1)
        model, _ = cno.construct_cno(
            ds, eps_D=0.05, eps_A=0.05, Q=4, delta=0.5, seed=0, dims=(self.T, 24, 1),
            train_opts={"epochs": self.sizes.epochs or 400, "lr": 0.05, "batch": 64},
        )
        serial.save_bundle(bundle_dir, model)
        return model, serial.load_bundle(bundle_dir)


class SdeOrbits(Workload):
    name = "sde-orbits"
    why = ("builds the acceptance SDE dataset (20k paths, 32 orbits) and trains "
           "on it, so the sde module's Monte Carlo solves dominate")
    peak_step = "sde_dataset"
    long_steps = {"sde_dataset": 2, "build_model": 5}  # 6-8 s and 1.1-1.4 s a call
    gate = 0.1  # eps_A + eps_D

    def sde_config(self):
        # the acceptance dataset: oracle seed 9, dataset seed 0
        oracle = sde.McOracle(n_paths=self.sizes.sde_paths, n_steps=128, seed=9)
        return oracle, self.sizes.sde_orbits, 0

    def build(self, bundle_dir):
        model, _ = cno.construct_cno(
            self.sde_ds, eps_D=0.02, eps_A=0.08, Q=4, delta=0.5, seed=0, dims=(9, 32, 9),
            train_opts={"epochs": self.sizes.epochs or 600, "lr": 0.05, "batch": 32},
        )
        serial.save_bundle(bundle_dir, model)
        return model, serial.load_bundle(bundle_dir)

    def after_build(self):
        """Held-out orbits from another seed: check each window, then serve them."""
        if self.serve_paths is not None:
            return
        oracle, _, _ = self.sde_config()
        held = sde.build_sde_dataset(self.coeffs, self.sde_grid, (-1.0, 1.0), oracle,
                                     n_modes=8, n_orbit_samples=self.sizes.held_out_orbits,
                                     seed=1 + self.seed)
        thetas = weave.rollout(self.model.weave_model, self.model.horizon)
        for i, w in enumerate(held.windows):
            def held_out_window(i=i, w=w):
                pred = net.forward(self.model.synced_spec, thetas[i], w["inputs"])
                l2 = float(np.sqrt(np.mean(np.sum((pred - w["targets"]) ** 2, axis=1))))
                _check(l2 <= self.gate, f"held-out window {i}: L2 {l2:.4g} > gate {self.gate}")
            self.ledger.run(held_out_window)
        # path s is orbit s's coordinate sequence: step j holds its value at t_j
        self.serve_paths = np.stack([w["inputs"] for w in held.windows], axis=1)
        self.audits = _audit_cycles(self.rng, self.serve_paths, self.sizes.audit_cycles)


class WeaveWide(Workload):
    name = "weave-wide"
    why = ("weaves 32 random parameter vectors of a (16,1024,1) filter and "
           "round-trips the 22.7 MB bundle, so the weave write path and serial dominate")
    peak_step = "weave_build"
    predict_s = 0.5  # ~22 predicts of ~22 ms a batch, 210-290 a run
    T, Q, delta = 32, 8, 0.5

    def make_inputs(self):
        self.spec = net.NetSpec(self.sizes.wide_dims, "prelu")
        self.thetas = self.rng.standard_normal((self.T, net.param_count(self.spec)))
        self.serve_paths = self.rng.random((self.sizes.serve_paths, self.T, 1))
        self.audits = _audit_cycles(self.rng, self.serve_paths, self.sizes.audit_cycles)

    def sde_config(self):
        oracle = sde.McOracle(n_paths=self.sizes.probe_paths, n_steps=128, seed=self.seed)
        return oracle, self.sizes.probe_orbits, self.seed

    def build(self, bundle_dir):
        # the filters are given, so the model is their weave: no training step
        w = weave.build_weave(self.thetas, Q=self.Q, delta=self.delta, seed=self.seed)
        model = cno.CnoModel(
            weave_model=w, synced_spec=self.spec,
            grid=cno.TimeGrid(np.arange(self.T, dtype=np.float64)),
            M=self.spec.d_in, step_dim=1, out_dim=self.spec.d_out, out_spaces=[],
            reports=[], Q=self.Q, delta=self.delta, seed=self.seed,
        )
        serial.save_bundle(bundle_dir, model)
        return model, serial.load_bundle(bundle_dir)

    def check_built(self, model):
        check_weave(model.weave_model, self.thetas)

    def weave_thetas(self):
        return self.thetas, self.Q, self.delta


WORKLOADS = {cls.name: cls for cls in (ConstructServe, SdeOrbits, WeaveWide)}


def measure_setup(name, seed):
    """Seconds from launching a fresh interpreter to its ready line, after it
    has imported cnoweave and generated this workload's inputs."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, RUN_SCRIPT, "--workload", name, "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        t = time.perf_counter() - t0
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    _check(line.strip() == "ready" and proc.returncode == 0,
           f"setup probe exited with {proc.returncode}")
    return t


def _warm(times):
    """A predict batch without its first call, which follows steps that
    evict the model from cache."""
    return times[1:] or times


def end_to_end(rounds, long_steps, peak_mb):
    """Each timing metric but ``setup_s`` and ``predict_ms_p90`` is the mean
    over the rounds of the round's median call of its step.

    The host of a shared machine runs up to 1.7x slower for seconds to
    minutes at a time, and the hypervisor stops the machine for a few
    milliseconds now and then.  Within one short round the host's level
    holds, and the median leaves out a call that such a stop hit; over the
    rounds, a mean moves in proportion to the share of the run spent slow,
    where a median or a best round over the run jumps between the two
    levels.  A short step's first round is its warm-up and is left out; a
    long step keeps every call."""

    def over_rounds(step, figure=np.median):
        kept = rounds if step in long_steps else rounds[1:]
        values = [figure(b[step]) for b in kept if b.get(step)]
        return statistics.fmean(values) if values else 0.0

    setups = [t for b in rounds for t in b.get("setup", [])]
    warm_predicts = [t for b in rounds[1:] for t in _warm(b.get("predict", []))]
    return {
        # the median over the run's probes, so that work moved into set-up shows
        "setup_s": statistics.median(setups) if setups else 0.0,
        "build_model_s": over_rounds("build_model"),
        "predict_ms_p50": over_rounds("predict", lambda b: np.median(_warm(b))) * 1e3,
        # over the whole run, so that at least 20 predicts lie beyond it; the
        # slow level sets it once a tenth of the predicts are slow
        "predict_ms_p90": float(np.percentile(warm_predicts, 90)) * 1e3 if warm_predicts else 0.0,
        "audit_pairs_per_s": over_rounds("audit", lambda b: 1 / np.median(b)),
        "sde_dataset_s": over_rounds("sde_dataset"),
        "weave_build_s": over_rounds("weave_build"),
        "weave_rollout_ms": over_rounds("weave_rollout") * 1e3,
        "bundle_roundtrip_ms": over_rounds("bundle_roundtrip") * 1e3,
        "peak_traced_mb": peak_mb,
    }


def tracing_overhead(workload, reps):
    """Median over OVERHEAD_PAIRS of a traced minus an untraced fixed pass,
    without the long steps, whose run-to-run swing would bury the cost."""
    short = {step: n for step, n in reps.items() if step not in workload.long_steps}
    diffs = []
    for _ in range(OVERHEAD_PAIRS):
        plain = workload.fixed_pass(short)
        diffs.append(workload.traced_pass(short, spans.Tracer()) - plain)
    return statistics.median(diffs)


def run(workload: Workload, seconds: float, trace: bool):
    """Run one workload; return (result line, detail record, tracer or None).

    Untraced: the timed rounds, then the tracemalloc pass; the result holds
    the end-to-end metrics.  Traced: one fixed pass traced, whose spans give
    the per-module metrics, then the passes that measure the tracing
    overhead; the tracer holds the spans of the first pass.
    """
    ledger = workload.ledger
    detail = {"workload": workload.name, "seed": workload.seed, "seconds": seconds,
              "trace": int(trace)}
    if not trace:
        rounds = workload.timed_rounds(seconds)
        workload.check_predictions()
        peak = ledger.run(workload.peak_mb)
        values = end_to_end(rounds, workload.long_steps, peak or 0.0)
        units = declared_units("end_to_end")
        detail["rounds"] = len(rounds)
        detail["calls"] = {step: sum(len(b.get(step, [])) for b in rounds) for step in STEPS}
        tracer = None
    else:
        reps = dict.fromkeys(STEPS, 1)
        reps["predict"] = workload.sizes.trace_predicts
        reps["audit"] = workload.sizes.trace_audit_cycles
        reps["setup"] = 0
        tracer = spans.Tracer()
        workload.traced_pass(reps, tracer)
        workload.check_predictions()
        values = spans.module_metrics(tracer.spans, tracing_overhead(workload, reps))
        units = declared_units("per_layer")
    detail["errors"] = ledger.errors
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, detail, tracer
