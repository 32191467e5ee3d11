"""Spans around the library's public functions, and per-module metrics from them.

While a :class:`Tracer` is installed, every public function of the five
modules that do timed work (``cnoweave.cno``, ``net``, ``weave``, ``sde`` and
``serial``) is replaced on its module by a wrapper that records one span per
call.  The library calls
across modules through module attributes (``net.train``, ``weave.rollout``,
``sde.sde_solve_mc``) and within a module through module globals, which are
the same attributes, so the wrappers see every call.  Nothing in the library
changes; :meth:`Tracer.uninstall` puts the original functions back.

A span records its name, start, end, parent, thread and operation id.  An
operation is one top-level library call made by the client thread; every span
opened inside it shares its id.  A span opened in a pool worker thread, with no
span open on that thread, takes the operation's root span as its parent, so
``net.train`` spans inside ``cno.construct_cno``'s pool are its children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from cnoweave import cno, net, sde, serial, weave

MODULES = {"cno": cno, "net": net, "weave": weave, "sde": sde, "serial": serial}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0: opened by the client thread outside any other span
    thread: int
    op: int
    counts: dict | None  # work done by the call, for the names in COUNTERS


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _read_chars() -> int:
    """Bytes this process has read through read(2) so far (Linux)."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no rchar line")


def _train_samples(args, kwargs, result):
    # result is (theta, per-epoch loss trace)
    return {"samples": len(_arg(args, kwargs, 1, "dataset")[0]) * len(result[1])}


def _window_rows(args, kwargs, result):
    return {"rows": sum(len(w["inputs"]) for w in result.windows)}


def _gate(args, kwargs, result):
    reports = result[1]
    return {"trained": len(reports),
            "within_gate": sum(1 for r in reports if not r.shortfall)}


def _weave_bytes(args, kwargs, result):
    # M_T comes from a T x T x P broadcast of float64 differences
    T, P = np.shape(_arg(args, kwargs, 0, "thetas"))
    return {"computed_bytes": T * T * P * 8}


def _normals(args, kwargs, result):
    # each call draws the whole Brownian prefix [0, t_ip1]
    t_end = _arg(args, kwargs, 3, "t_ip1")
    oracle = _arg(args, kwargs, 4, "o")
    return {"normals": oracle.n_paths * oracle.grid_index(t_end)}


def _bundle_bytes(args, kwargs, result):
    out_dir = _arg(args, kwargs, 0, "out_dir")
    return {"bytes": sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())}


COUNTERS = {
    "net.train": _train_samples,
    "cno.windows_from_paths": _window_rows,
    "cno.construct_cno": _gate,
    "weave.build_weave": _weave_bytes,
    "sde.sde_solve_mc": _normals,
    "serial.save_bundle": _bundle_bytes,
}
READS = {"serial.load_bundle"}  # spans that count the bytes the process read


def public_functions(module):
    """(name, function) for each function the module defines without a
    leading underscore; ``__all__`` misses some, such as
    ``cno.windows_from_paths``."""
    return [(name, fn) for name, fn in inspect.getmembers(module, inspect.isfunction)
            if not name.startswith("_") and fn.__module__ == module.__name__]


class Tracer:
    """Records spans for every call into the traced modules while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._client = None
        self._root = (0, 0)  # (span id, op id) of the client's open top-level call
        self._originals = []
        self.recording = True

    def install(self):
        """Wrap the public functions; the calling thread becomes the client."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        self._client = threading.get_ident()
        for mod_name, module in MODULES.items():
            for attr, fn in public_functions(module):
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{mod_name}.{attr}", fn))
        return self

    def uninstall(self):
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)
        self._originals = []

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block leave no spans."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        reads = name in READS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            on_client = threading.get_ident() == tracer._client
            if stack:
                parent, op = stack[-1]
            elif on_client:
                parent, op = 0, next(tracer._ops)
                tracer._root = (sid, op)
            else:
                parent, op = tracer._root
            stack.append((sid, op))
            read_before = _read_chars() if reads else 0
            start = time.perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = None
                if done and counter is not None:
                    counts = counter(args, kwargs, result)
                if done and reads:
                    counts = {"bytes": _read_chars() - read_before}
                tracer.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), op, counts)
                )

        return wrapper

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(s._asdict()) + "\n")


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def module_metrics(spans, overhead_s: float) -> dict:
    """Every per_layer metric of BENCHMARK.json, as {name: value}, from one
    traced pass.

    ``self_s`` is a span's duration minus the union of its children's
    intervals; ``busy_s`` and ``.s`` sum durations across threads;
    ``cover_s`` is the union of a name's intervals.
    """
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def self_time(name):
        out = 0.0
        for s in by_name[name]:
            kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
            out += (s.end - s.start) - _union([k for k in kids if k[1] > k[0]])
        return out

    def ancestor(s, name):
        while s.parent:
            s = by_id[s.parent]
            if s.name == name:
                return s
        return None

    def count(name, key):
        return sum(s.counts[key] for s in by_name[name] if s.counts)

    def per(name, under):
        calls = len(by_name[under])
        inside = sum(1 for s in by_name[name] if ancestor(s, under) is not None)
        return inside / calls if calls else 0.0

    trains = by_name["net.train"]
    train_busy = total("net.train")
    waits = 0.0
    for s in trains:
        owner = ancestor(s, "cno.construct_cno")
        if owner is not None:
            waits += s.start - owner.start
    trained = count("cno.construct_cno", "trained")
    within = count("cno.construct_cno", "within_gate")

    return {
        "cno.construct_cno.self_s": self_time("cno.construct_cno"),
        "cno.windows_from_paths.s": total("cno.windows_from_paths"),
        "cno.windows_from_paths.rows": count("cno.windows_from_paths", "rows"),
        "cno.predict.calls": len(by_name["cno.predict"]),
        "cno.predict.self_s": self_time("cno.predict"),
        "cno.build_window.calls_per_predict": per("cno.build_window", "cno.predict"),
        "cno.causality_audit.s": total("cno.causality_audit"),
        "cno.causality_audit.predict_calls_per_pair": per("cno.predict", "cno.causality_audit"),
        "cno.windows_trained": trained,
        "cno.windows_within_gate": within,
        "cno.windows_within_gate_ratio": within / trained if trained else 0.0,
        "net.train.calls": len(trains),
        "net.train.busy_s": train_busy,
        "net.train.cover_s": _union([(s.start, s.end) for s in trains]),
        "net.train.wait_s": waits,
        "net.train.samples_per_s":
            count("net.train", "samples") / train_busy if train_busy else 0.0,
        "net.forward.calls": len(by_name["net.forward"]),
        "net.forward.s": total("net.forward"),
        "net.pad_to.s": total("net.pad_to"),
        "weave.build_weave.self_s": self_time("weave.build_weave"),
        "weave.build_weave.computed_bytes": count("weave.build_weave", "computed_bytes"),
        "weave.memorize.s": total("weave.memorize"),
        "weave.pack_ball.s": total("weave.pack_ball"),
        "weave.rollout.calls_per_predict": per("weave.rollout", "cno.predict"),
        "weave.rollout.s": total("weave.rollout"),
        "sde.sde_solve_mc.calls": len(by_name["sde.sde_solve_mc"]),
        "sde.sde_solve_mc.self_s": self_time("sde.sde_solve_mc"),
        "sde.normals_drawn": count("sde.sde_solve_mc", "normals"),
        "sde.synthesize_eta.s": total("sde.synthesize_eta"),
        "sde.mode_integrals.s": total("sde.mode_integrals"),
        "sde.project_chaos.s": total("sde.project_chaos"),
        "serial.save_bundle.s": total("serial.save_bundle"),
        "serial.load_bundle.s": total("serial.load_bundle"),
        "serial.verify_bundle.s": total("serial.verify_bundle"),
        "serial.bytes_written": count("serial.save_bundle", "bytes"),
        "serial.bytes_read": count("serial.load_bundle", "bytes"),
        "trace.spans": len(spans),
        "trace.overhead_s": overhead_s,
    }
