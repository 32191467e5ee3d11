"""Smoke test of the benchmark harness at tiny sizes: every workload emits
every named metric, traced and untraced.  No timing is asserted."""

import json

import pytest

import spans
import workloads
from cnoweave import cno, net

TINY = workloads.Sizes(
    epochs=2, n_train=16, sde_paths=200, sde_orbits=2, probe_paths=100,
    probe_orbits=2, held_out_orbits=3, wide_dims=(2, 4, 1), serve_paths=6,
    audit_cycles=2, trace_predicts=2, trace_audit_cycles=1, setup_probes=1,
)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(name, trace, tmp_path):
    workload = workloads.WORKLOADS[name](3, sizes=TINY, out_dir=str(tmp_path))
    result, detail, tracer = workloads.run(workload, seconds=0.05, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = workloads.declared_units("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(declared)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == declared[metric]
        assert isinstance(entry["value"], (int, float))
    json.dumps(result)
    if trace:
        assert tracer.spans
        assert result["metrics"]["cno.predict.calls"]["value"] > 0


def test_tracer_restores_the_library():
    before = {m: dict(vars(m)) for m in spans.MODULES.values()}
    with spans.Tracer() as tracer:
        assert cno.windows_from_paths is not before[cno]["windows_from_paths"]
        net.param_count(net.NetSpec((2, 3, 1)))
        with tracer.paused():
            net.param_count(net.NetSpec((2, 3, 1)))
    for module, attrs in before.items():
        assert dict(vars(module)) == attrs
    assert [s.name for s in tracer.spans] == ["net.param_count"]


def test_pool_spans_are_children_of_construct_cno(tmp_path):
    w = workloads.ConstructServe(0, sizes=TINY, out_dir=str(tmp_path))
    ds = cno.windows_from_paths(w.z, w.targets, w.grid, M=w.T, step_dim=1)
    with spans.Tracer() as tracer:
        cno.construct_cno(ds, eps_D=0.05, eps_A=0.05, Q=4, delta=0.5,
                          dims=(w.T, 4, 1), train_opts={"epochs": 1})
    (root,) = [s for s in tracer.spans if s.name == "cno.construct_cno"]
    trains = [s for s in tracer.spans if s.name == "net.train"]
    assert len(trains) == w.T
    assert all(s.parent == root.id and s.op == root.op for s in trains)
    assert any(s.thread != root.thread for s in trains)
    m = spans.module_metrics(tracer.spans, 0.0)
    assert m["net.train.calls"] == w.T and m["cno.windows_trained"] == w.T
    assert 0.0 <= m["cno.construct_cno.self_s"] < root.end - root.start
    assert m["net.train.cover_s"] <= m["net.train.busy_s"] + 1e-12
