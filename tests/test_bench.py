"""Recursive causal targets and the trade-off harness."""

import numpy as np
import pytest

from cnoweave import bench, cno, net, weave
from cnoweave.errors import InvalidArgumentError

RNG = np.random.default_rng


class TestRecursive:
    def test_frozen_mean_example(self):
        # z = (1, 1): z1 = (1+0)/2 = 0.5, z2 = (1+0.5)/2 = 0.75
        t = bench.RecursiveTarget(T=2, G="mean")
        path = bench.recursive_path(t, np.array([1.0, 1.0]))
        assert np.array_equal(path, [0.5, 0.75])
        assert bench.eval_recursive(t, np.array([1.0, 1.0])) == 0.75

    def test_absdiff_map(self):
        t = bench.RecursiveTarget(T=2, G="absdiff")
        assert bench.eval_recursive(t, np.array([0.4, 0.1])) == pytest.approx(0.3)

    def test_clipped_affine_stays_in_cube(self):
        t = bench.RecursiveTarget(T=6, G="clipped_affine")
        rng = RNG(0)
        z = rng.random((50, 6))
        path = bench.recursive_path(t, z)
        assert np.all(path >= 0.0) and np.all(path <= 1.0)

    def test_batched_matches_scalar(self):
        t = bench.RecursiveTarget(T=4, G="mean")
        rng = RNG(1)
        z = rng.random((10, 4))
        batch = bench.eval_recursive(t, z)
        for i in range(10):
            assert batch[i] == bench.eval_recursive(t, z[i])

    def test_lipschitz_in_inputs(self):
        # all three G maps are 1-Lipschitz in each argument, so f is too
        t = bench.RecursiveTarget(T=5, G="mean")
        rng = RNG(2)
        for _ in range(100):
            a = rng.random(5)
            b = rng.random(5)
            df = abs(bench.eval_recursive(t, a) - bench.eval_recursive(t, b))
            assert df <= np.abs(a - b).sum() + 1e-12

    def test_cube_enforced(self):
        t = bench.RecursiveTarget(T=2)
        with pytest.raises(InvalidArgumentError):
            bench.eval_recursive(t, np.array([0.5, 1.5]))

    def test_unknown_g_rejected(self):
        with pytest.raises(InvalidArgumentError):
            bench.RecursiveTarget(T=2, G="nope")


class TestTradeoffReport:
    def test_csv_schema(self):
        rep = bench.TradeoffReport(rows=[
            {"model": "ffnn(2,4,1)", "params": 17, "max_err": 0.5,
             "seconds": 0.1, "seed": 0},
        ])
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "model,params,max_err,seconds,seed"
        assert rep.schema_version == 1

    def test_best_row_filters_by_params(self):
        rep = bench.TradeoffReport(rows=[
            {"model": "ffnn_a", "params": 10, "max_err": 0.1, "seconds": 0, "seed": 0},
            {"model": "ffnn_b", "params": 100, "max_err": 0.2, "seconds": 0, "seed": 0},
            {"model": "cno_a", "params": 50, "max_err": 0.15, "seconds": 0, "seed": 0},
        ])
        assert rep.best_row("ffnn")["model"] == "ffnn_a"
        assert rep.best_row("ffnn", min_params=50)["model"] == "ffnn_b"
        assert rep.best_row("cno")["model"] == "cno_a"
        assert rep.best_row("lstm") is None


class TestCompare:
    def test_t1_ffnn_and_cno_comparable(self):
        # degenerate horizon: both reduce to the same single-filter problem
        target = bench.RecursiveTarget(T=1, G="mean")
        rep = bench.compare(
            target, eps_A=0.1,
            budgets=[{"kind": "ffnn", "dims": (1, 8, 1)},
                     {"kind": "cno", "dims": (8,), "M": 1}],
            seed=0, n_train=300, n_test=100,
            train_opts={"epochs": 1000, "lr": 0.1, "batch": 64},
        )
        errs = {r["model"]: r["max_err"] for r in rep.rows}
        e_ffnn = min(v for k, v in errs.items() if k.startswith("ffnn"))
        e_cno = min(v for k, v in errs.items() if k.startswith("cno"))
        # comparable within 2x, with an absolute floor for near-exact fits
        floor = 0.01
        assert e_cno <= 2 * e_ffnn + floor and e_ffnn <= 2 * e_cno + floor

    def test_requires_both_kinds(self):
        target = bench.RecursiveTarget(T=2)
        with pytest.raises(InvalidArgumentError):
            bench.compare(target, 0.1, [{"kind": "ffnn", "dims": (2, 4, 1)}])



def test_cno_param_count_counts_the_stored_code():
    # the hypernetwork, the initial code as stored (P + Q + 1 wide, the clock
    # included) and the readout scale
    spec = net.NetSpec((2, 3, 1), "prelu")
    w = weave.build_weave(RNG(3).standard_normal((4, net.param_count(spec))), Q=4, delta=0.5)
    model = cno.CnoModel(
        weave_model=w, synced_spec=spec, grid=cno.TimeGrid(np.arange(4.0)), M=2,
        step_dim=1, out_dim=1, out_spaces=[], reports=[], Q=4, delta=0.5, seed=0)
    assert w.codes.shape[1] == w.P + w.Q + 1
    assert bench._cno_param_count(model) == (net.param_count(w.hyper_spec)
                                             + w.P + w.Q + 1 + 1)
