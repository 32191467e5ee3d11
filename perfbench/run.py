"""Run one benchmark workload against the cnoweave sources of this checkout.

    python3 perfbench/run.py --workload construct-serve --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-module metrics with ``--trace 1``.  The
line before it records the machine.  A detail record goes to
``perfbench/out/BENCH_<workload>_seed<seed>_trace<t>.json`` and, for a traced
run, the spans to ``perfbench/out/spans_<workload>.jsonl``.  Without
``src/cnoweave`` next to this directory the script exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def use_checkout_library():
    """Put this checkout's ``src`` first on the path, or exit 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cnoweave", "__init__.py")):
        print(f"run.py: no cnoweave package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)


def machine():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def cpu_ticks():
    """(steal, total) clock ticks of all CPUs so far, from /proc/stat."""
    with open("/proc/stat") as fh:
        ticks = [int(x) for x in fh.readline().split()[1:]]
    return ticks[7], sum(ticks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    use_checkout_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed)
        print("ready", flush=True)
        return 0

    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"bundles-{os.getpid()}")
    steal0, total0 = cpu_ticks()
    try:
        workload = cls(args.seed, out_dir=scratch)
        result, detail, tracer = workloads.run(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    steal1, total1 = cpu_ticks()
    detail["machine"] = machine()
    # CPU time the hypervisor gave to other guests during the run
    detail["machine"]["steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
    detail["result"] = result
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(os.path.join(OUT, f"BENCH_{stem}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        tracer.write_jsonl(os.path.join(OUT, f"spans_{args.workload}.jsonl"))
    print(json.dumps({"machine": detail["machine"]}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
