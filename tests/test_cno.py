"""End-to-end causal construction: windows, training gates, determinism,
weaving, rollout prediction, and the causality audit."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from cnoweave import bench, cno, net, serial, weave
from cnoweave.errors import IntegrityError, InvalidArgumentError

RNG = np.random.default_rng


def toy_dataset(T=4, M=2, n=64, seed=0):
    """Windows of a running-mean recursion with scalar steps."""
    rng = RNG(seed)
    target = bench.RecursiveTarget(T=T, G="mean")
    z = rng.random((n, T))
    path = bench.recursive_path(target, z)
    grid = cno.TimeGrid(np.arange(T, dtype=np.float64))
    return cno.windows_from_paths(z, path, grid, M=M, step_dim=1)


class TestTimeGrid:
    def test_must_start_at_zero(self):
        with pytest.raises(InvalidArgumentError):
            cno.TimeGrid(np.array([1.0, 2.0]))

    def test_strictly_increasing(self):
        with pytest.raises(InvalidArgumentError):
            cno.TimeGrid(np.array([0.0, 1.0, 1.0]))

    def test_len(self):
        assert len(cno.TimeGrid(np.array([0.0, 0.5, 1.0]))) == 3


class TestBuildWindow:
    def test_left_zero_padding(self):
        path = np.array([[1.0], [2.0], [3.0]])
        assert np.array_equal(cno.build_window(path, 0, 3, 1), [0.0, 0.0, 1.0])
        assert np.array_equal(cno.build_window(path, 1, 3, 1), [0.0, 1.0, 2.0])
        assert np.array_equal(cno.build_window(path, 2, 3, 1), [1.0, 2.0, 3.0])

    def test_trailing_window_only(self):
        path = np.arange(10.0)[:, None]
        assert np.array_equal(cno.build_window(path, 5, 2, 1), [4.0, 5.0])

    def test_step_dim_checked(self):
        with pytest.raises(InvalidArgumentError):
            cno.build_window(np.zeros((3, 2)), 0, 2, 1)

    def test_step_outside_path_rejected(self):
        path = np.arange(3.0)[:, None]
        for i in (-1, 3):
            with pytest.raises(InvalidArgumentError):
                cno.build_window(path, i, 2, 1)


class TestWindowContract:
    """Training (windows_from_paths) and serving (predict) see the same window."""

    def test_dataset_rows_are_build_window(self):
        rng = RNG(7)
        longer_memory = 0
        for _ in range(40):
            n, steps = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            step_dim = int(rng.choice([1, 3]))
            M = int(rng.integers(1, steps + 4))
            longer_memory += M > steps
            paths = rng.standard_normal((n, steps, step_dim))
            given = paths[:, :, 0] if step_dim == 1 else paths  # scalar steps may be 2-D
            grid = cno.TimeGrid(np.arange(steps, dtype=np.float64))
            ds = cno.windows_from_paths(given, rng.standard_normal((n, steps)), grid,
                                        M=M, step_dim=step_dim)
            for i in range(steps):
                for s in range(n):
                    assert np.array_equal(ds.windows[i]["inputs"][s],
                                          cno.build_window(paths[s], i, M, step_dim))
        assert longer_memory > 0

    @pytest.mark.parametrize("targets_shape", [(3, 4), (3, 6), (2, 5), (3, 5, 1, 1), (3,)])
    def test_targets_must_match_the_paths(self, targets_shape):
        # fewer target steps than path steps used to raise a raw IndexError
        grid = cno.TimeGrid(np.arange(5, dtype=np.float64))
        with pytest.raises(InvalidArgumentError, match=r"\(3, 5\)") as info:
            cno.windows_from_paths(np.zeros((3, 5)), np.zeros(targets_shape), grid,
                                   M=2, step_dim=1)
        assert str(targets_shape) in str(info.value)

    @pytest.mark.parametrize("bad, inputs, targets", [
        (0, (4,), (4, 1)),  # 1-D inputs raised a raw IndexError
        (1, (4,), (4, 1)),
        (0, (4, 2), (4,)),  # 1-D targets were accepted, and out_dim raised IndexError
        (1, (4, 2, 1), (4, 1)),  # accepted, and construct_cno failed to broadcast
        (1, (4, 2), (4, 2)),  # another out_dim than window 0's
        (1, (4, 2), (3, 1)),  # another sample count than its inputs
    ], ids=["1d-inputs-first", "1d-inputs", "1d-targets-first", "3d-inputs", "out-dim",
            "sample-count"])
    def test_every_window_shape_is_checked(self, bad, inputs, targets):
        windows = [{"inputs": np.zeros((3, 2)), "targets": np.zeros((3, 1))}] * 2
        windows[bad] = {"inputs": np.zeros(inputs), "targets": np.zeros(targets)}
        with pytest.raises(InvalidArgumentError, match=f"window {bad} "):
            cno.CausalDataset(grid=cno.TimeGrid(np.arange(2.0)), M=2, step_dim=1,
                              windows=windows)

    def test_predict_on_a_training_path_is_the_window_forward(self):
        rng = RNG(8)
        T, M, step_dim = 4, 3, 3
        paths = rng.random((32, T, step_dim))
        grid = cno.TimeGrid(np.arange(T, dtype=np.float64))
        ds = cno.windows_from_paths(paths, paths.sum(axis=2), grid, M=M, step_dim=step_dim)
        model, _ = cno.construct_cno(ds, eps_D=0.5, eps_A=0.5, Q=4, delta=0.5,
                                     seed=0, train_opts={"epochs": 5})
        thetas = weave.rollout(model.weave_model, T)
        for s in range(8):
            outs = cno.predict(model, paths[s])
            for i in range(T):
                direct = net.forward(model.synced_spec, thetas[i], ds.windows[i]["inputs"][s])
                assert np.array_equal(outs[i], direct)


class TestConstruct:
    def test_single_window_degenerates_to_filter(self):
        ds = toy_dataset(T=1, M=1)
        model, reports = cno.construct_cno(ds, eps_D=0.05, eps_A=0.05, Q=4,
                                           delta=0.5, seed=0)
        assert model.horizon == 1
        # rollout returns exactly the stored (single) filter parameters
        theta = weave.rollout(model.weave_model, 1)[0]
        x = RNG(1).random((5, 1))
        for row in x:
            win = cno.build_window(row[:, None], 0, 1, 1)
            direct = net.forward(model.synced_spec, theta, win)
            assert np.array_equal(cno.predict(model, row[:, None])[0], direct)

    def test_no_windows_rejected(self):
        ds = cno.CausalDataset(grid=cno.TimeGrid(np.zeros(1)), M=1, step_dim=1, windows=[])
        with pytest.raises(InvalidArgumentError, match="no windows"):
            cno.construct_cno(ds, eps_D=0.1, eps_A=0.1, Q=4, delta=0.5, seed=0)

    def test_windows_exceeding_horizon_rejected(self):
        ds = toy_dataset(T=5, M=2)
        with pytest.raises(InvalidArgumentError):
            cno.construct_cno(ds, eps_D=0.1, eps_A=0.1, Q=2, delta=0.5, seed=0)

    def test_reports_have_gate_and_seed(self):
        ds = toy_dataset(T=3, M=2)
        model, reports = cno.construct_cno(ds, eps_D=0.1, eps_A=0.1, Q=4,
                                           delta=0.5, seed=3)
        assert len(reports) == 3
        for i, r in enumerate(reports):
            assert r.index == i
            assert r.gate == pytest.approx(0.2)
            assert r.seed == cno._window_seed(3, i)

    def test_deterministic_in_seed(self):
        ds = toy_dataset(T=3, M=2)
        m1, r1 = cno.construct_cno(ds, eps_D=0.1, eps_A=0.1, Q=4, delta=0.5, seed=5)
        m2, r2 = cno.construct_cno(ds, eps_D=0.1, eps_A=0.1, Q=4, delta=0.5, seed=5)
        assert np.array_equal(m1.weave_model.hyper_theta,
                              m2.weave_model.hyper_theta)
        assert np.array_equal(m1.weave_model.codes, m2.weave_model.codes)
        assert r1 == r2

    def test_window_report_independent_of_later_windows(self):
        ds = toy_dataset(T=3, M=2)
        _, full = cno.construct_cno(ds, eps_D=0.1, eps_A=0.1, Q=4, delta=0.5, seed=5)
        head = cno.CausalDataset(grid=ds.grid, M=ds.M, step_dim=ds.step_dim,
                                 windows=ds.windows[:2])
        _, part = cno.construct_cno(head, eps_D=0.1, eps_A=0.1, Q=4, delta=0.5, seed=5)
        assert part == full[:2]

    def test_reports_match_direct_train(self):
        ds = toy_dataset(T=4, M=2)
        opts = {"epochs": 60, "lr": 0.05, "batch": 16}
        dims = (2, 6, 1)
        model, reports = cno.construct_cno(ds, eps_D=0.1, eps_A=0.1, Q=4, delta=0.5,
                                           seed=9, dims=dims, train_opts=opts)
        spec = net.NetSpec(dims, "relu")
        w = model.weave_model
        for i, window in enumerate(ds.windows):
            X, Y = window["inputs"], window["targets"]
            theta, trace = net.train(spec, (X, Y), {**opts, "seed": cno._window_seed(9, i)})
            err = float(np.max(np.linalg.norm(net.forward(spec, theta, X) - Y, axis=1)))
            assert reports[i].error == err
            assert reports[i].epochs == len(trace)
            assert np.array_equal(w.codes[i, : w.P], theta / w.M_T)

    def test_hypernetwork_miss_is_an_integrity_error(self, monkeypatch):
        real = weave.build_weave

        def perturbed(*args, **kwargs):
            w = real(*args, **kwargs)
            theta = w.hyper_theta.copy()
            theta[-1] += 1e-6  # the output bias: every successor moves
            return dataclasses.replace(w, hyper_theta=theta)

        monkeypatch.setattr(weave, "build_weave", perturbed)
        with pytest.raises(IntegrityError, match="misses window 1:"):
            cno.construct_cno(toy_dataset(T=3, M=2), eps_D=0.5, eps_A=0.5, Q=4,
                              delta=0.5, seed=0, train_opts={"epochs": 5})

    def test_rollout_matches_stored_filters(self):
        ds = toy_dataset(T=4, M=2)
        model, _ = cno.construct_cno(ds, eps_D=0.1, eps_A=0.1, Q=4, delta=0.5,
                                     seed=0)
        thetas = weave.rollout(model.weave_model, model.horizon)
        rng = RNG(2)
        for _ in range(20):
            path = rng.random((4, 1))
            outs = cno.predict(model, path)
            for i in range(4):
                win = cno.build_window(path, i, 2, 1)
                assert np.array_equal(
                    outs[i], net.forward(model.synced_spec, thetas[i], win)
                )


class TestPredict:
    def test_zero_path_zero_filters(self):
        grid = cno.TimeGrid(np.arange(2, dtype=np.float64))
        windows = [
            {"inputs": np.zeros((4, 2)), "targets": np.zeros((4, 1))}
            for _ in range(2)
        ]
        ds = cno.CausalDataset(grid=grid, M=2, step_dim=1, windows=windows)
        model, _ = cno.construct_cno(ds, eps_D=0.5, eps_A=0.5, Q=4, delta=0.5,
                                     seed=0, train_opts={"epochs": 5})
        outs = cno.predict(model, np.zeros((2, 1)))
        for o in outs:
            assert np.max(np.abs(o)) <= 1e-9

    def test_horizon_validation(self):
        ds = toy_dataset(T=2, M=1)
        model, _ = cno.construct_cno(ds, eps_D=0.5, eps_A=0.5, Q=4, delta=0.5,
                                     seed=0, train_opts={"epochs": 5})
        with pytest.raises(InvalidArgumentError):
            cno.predict(model, np.zeros((2, 1)), horizon=3)
        with pytest.raises(InvalidArgumentError):
            cno.predict(model, np.zeros((1, 1)), horizon=2)


@pytest.fixture(scope="module")
def audit_model():
    ds = toy_dataset(T=5, M=2)
    model, _ = cno.construct_cno(ds, eps_D=0.2, eps_A=0.2, Q=4, delta=0.5,
                                 seed=0, train_opts={"epochs": 40})
    return model


class TestCausality:
    @pytest.fixture()
    def model(self, audit_model):
        return audit_model

    def test_future_perturbation_invisible(self, model):
        rng = RNG(3)
        for _ in range(50):
            i = int(rng.integers(0, 4))
            a = rng.random((5, 1))
            b = a.copy()
            b[i + 1:] = rng.random((4 - i, 1))
            assert cno.causality_audit(model, a, b, i)

    def test_past_perturbation_rejected_as_input(self, model):
        a = np.zeros((5, 1))
        b = np.ones((5, 1))
        with pytest.raises(InvalidArgumentError):
            cno.causality_audit(model, a, b, 2)

    def test_shape_mismatch(self, model):
        with pytest.raises(InvalidArgumentError):
            cno.causality_audit(model, np.zeros((5, 1)), np.zeros((4, 1)), 1)

    @pytest.mark.parametrize("i", [-1, 5, 2.5, "2", None])
    def test_step_must_be_an_index_within_the_horizon(self, model, i):
        # -1 was reported as a horizon of 0, and 2.5 raised a raw TypeError
        a = np.zeros((5, 1))
        with pytest.raises(InvalidArgumentError, match="step i"):
            cno.causality_audit(model, a, a.copy(), i)
        assert cno.causality_audit(model, a, a.copy(), np.int64(4))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("step", [1, 4])  # in the shared prefix, in the future
    def test_non_finite_path_is_a_typed_error(self, model, bad, step):
        a = RNG(12).random((5, 1))
        a[step] = bad
        b = a.copy()
        b[3:] = 0.5
        b[step] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            cno.causality_audit(model, a, b, 2)

    def test_audit_catches_a_window_that_sees_the_next_step(self, model, monkeypatch):
        """Negative control: if window i also saw step i + 1, the batched
        audit must report it."""
        real = cno._windows

        def leaky(paths, M):
            ahead = np.concatenate([paths[:, 1:], paths[:, -1:]], axis=1)
            return real(ahead, M)

        monkeypatch.setattr(cno, "_windows", leaky)
        rng = RNG(11)
        a = rng.random((5, 1))
        b = a.copy()
        b[3:] = rng.random((2, 1))
        assert not cno.causality_audit(model, a, b, 2)
        monkeypatch.undo()
        assert cno.causality_audit(model, a, b, 2)


class TestDecodeOnce:
    """The weave is decoded once per model, lazily, and serves every call."""

    def test_one_rollout_per_model(self, monkeypatch):
        ds = toy_dataset(T=4, M=2)
        model, _ = cno.construct_cno(ds, eps_D=0.5, eps_A=0.5, Q=4, delta=0.5,
                                     seed=0, train_opts={"epochs": 5})
        calls = []
        real = weave.rollout

        def counted(w, steps):
            calls.append(steps)
            return real(w, steps)

        monkeypatch.setattr(weave, "rollout", counted)
        rng = RNG(4)
        for _ in range(50):
            cno.predict(model, rng.random((4, 1)), horizon=int(rng.integers(1, 5)))
        for _ in range(20):
            a = rng.random((4, 1))
            b = a.copy()
            b[2:] = rng.random((2, 1))
            assert cno.causality_audit(model, a, b, 1)
        cno.predict_paths(model, rng.random((7, 4, 1)))
        assert calls == [model.horizon]

    def test_no_decode_while_building_or_loading(self, monkeypatch, tmp_path):
        def forbidden(w, steps):
            raise AssertionError("rollout during construction or loading")

        monkeypatch.setattr(weave, "rollout", forbidden)
        ds = toy_dataset(T=3, M=2)
        model, _ = cno.construct_cno(ds, eps_D=0.5, eps_A=0.5, Q=4, delta=0.5,
                                     seed=0, train_opts={"epochs": 5})
        serial.save_bundle(str(tmp_path / "b"), model)
        serial.load_bundle(str(tmp_path / "b"))

    def test_filters_are_the_rollout_and_read_only(self):
        ds = toy_dataset(T=4, M=2)
        model, _ = cno.construct_cno(ds, eps_D=0.5, eps_A=0.5, Q=4, delta=0.5,
                                     seed=0, train_opts={"epochs": 5})
        decoded = weave.rollout(model.weave_model, model.horizon)
        assert len(model.filters) == model.horizon
        for theta, expected in zip(model.filters, decoded):
            assert np.array_equal(theta, expected)
            with pytest.raises(ValueError):
                theta[0] = 1.0
        assert model.filters is model.filters


def woven_model(thetas, dims, M, step_dim, Q=4):
    """A model serving the given filter parameters through their weave, with
    no training."""
    return cno.CnoModel(
        weave_model=weave.build_weave(thetas, Q=Q, delta=0.5, seed=0),
        synced_spec=net.NetSpec(dims, "prelu"),
        grid=cno.TimeGrid(np.arange(len(thetas), dtype=np.float64)), M=M,
        step_dim=step_dim, out_dim=dims[-1], out_spaces=[], reports=[], Q=Q, delta=0.5,
        seed=0,
    )


class TestLayerMajorServing:
    """predict_paths runs each layer as one stacked product across the steps;
    each step stays bit-identical to net.forward of its own filter."""

    @pytest.fixture(scope="class", params=[
        # depth 3, step_dim 3, and M = 6 longer than the 4-step paths
        ((18, 5, 4, 2), 4, 6, 3, 4),
        # a one-unit hidden layer
        ((6, 1, 3), 5, 3, 2, 4),
        # a long horizon, 2^8 steps
        ((8, 24, 1), 256, 8, 1, 8),
    ], ids=["deep", "unit-hidden", "long"])
    def served_model(self, request):
        dims, T, M, step_dim, Q = request.param
        spec = net.NetSpec(dims)
        thetas = RNG(21).standard_normal((T, net.param_count(spec)))
        # slopes outside [0, 1] take the alpha * h branch of max(h, alpha * h)
        slopes = np.resize([0.0, 0.3, -0.7, 1.6], (T, spec.depth))
        for j, (_, _, alpha) in enumerate(net._blocks(spec, thetas)[0]):
            alpha[:, 0] = slopes[:, j]
        return woven_model(thetas, dims, M=M, step_dim=step_dim, Q=Q)

    @pytest.mark.parametrize("n_paths", [1, 2, 7])
    def test_every_step_is_its_filters_forward(self, served_model, n_paths):
        model = served_model
        paths = RNG(n_paths).standard_normal((n_paths, model.horizon, model.step_dim))
        # a step's filter and windows do not depend on the horizon served
        direct = []
        for i in range(model.horizon):
            windows = np.stack([cno.build_window(p, i, model.M, model.step_dim)
                                for p in paths])
            direct.append(net.forward(model.synced_spec, model.filters[i], windows))
            if n_paths == 1:  # and a lone path against its 1-D window's forward
                assert np.array_equal(
                    direct[i][0], net.forward(model.synced_spec, model.filters[i], windows[0]))
        for horizon in range(1, model.horizon + 1):
            out = cno.predict_paths(model, paths, horizon)
            for i in range(horizon):
                assert np.array_equal(out[:, i], direct[i])

    def test_audit_holds_at_every_step(self, served_model):
        rng = RNG(5)
        shape = (served_model.horizon, served_model.step_dim)
        for i in range(served_model.horizon):
            a = rng.standard_normal(shape)
            b = a.copy()
            b[i + 1:] = rng.standard_normal(b[i + 1:].shape)
            assert cno.causality_audit(served_model, a, b, i)

    def test_decode_and_serve_memory_is_linear(self):
        dims, T = (4, 2000, 5, 1), 8
        thetas = RNG(3).standard_normal((T, net.param_count(net.NetSpec(dims))))
        model = woven_model(thetas, dims, M=4, step_dim=1)
        path = RNG(4).random((T, 1))
        tracemalloc.start()
        try:
            model.filters
            cno.predict(model, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * thetas.nbytes
        assert weave.rollout(model.weave_model, 2).shape == (2, thetas.shape[1])
        base = model.filters[0].base
        assert base.shape == thetas.shape and not base.flags.writeable
        assert all(f.base is base and not f.flags.writeable for f in model.filters)
        # the per-layer views across the steps are the decoded array's blocks:
        # views that keep its step axis and, being read-only, were not copied
        layers, c = model._step_layers
        assert [(A.shape, b.shape, alpha.shape) for A, b, alpha in layers] == [
            ((T, d1, d0), (T, 1, d0), (T, 1, 1)) for d0, d1 in zip(dims, dims[1:])]
        assert c.shape == (T, 1, dims[-1])
        views = [c] + [v for layer in layers for v in layer]
        assert all(np.shares_memory(v, base) and not v.flags.writeable for v in views)


class TestPredictPaths:
    @pytest.mark.parametrize("step_dim", [1, 3])
    def test_batch_agrees_with_single_paths(self, step_dim):
        rng = RNG(9)
        T, M = 5, 3
        paths = rng.random((40, T, step_dim))
        grid = cno.TimeGrid(np.arange(T, dtype=np.float64))
        ds = cno.windows_from_paths(paths, paths.sum(axis=2), grid, M=M, step_dim=step_dim)
        model, _ = cno.construct_cno(ds, eps_D=0.5, eps_A=0.5, Q=4, delta=0.5,
                                     seed=0, train_opts={"epochs": 5})
        served = rng.random((12, T, step_dim))
        for horizon in (None, 2, T - 1):
            batch = cno.predict_paths(model, served, horizon=horizon)
            assert batch.shape == (12, horizon or T, model.out_dim)
            for s, path in enumerate(served):
                single = np.asarray(cno.predict(model, path, horizon=horizon))
                tol = 1e-12 * np.maximum(1.0, np.abs(single))
                assert np.all(np.abs(batch[s] - single) <= tol)

    def test_scalar_steps_may_be_2d(self, audit_model):
        paths = RNG(10).random((6, 5))
        assert np.array_equal(cno.predict_paths(audit_model, paths),
                              cno.predict_paths(audit_model, paths[:, :, None]))

    def test_validation(self, audit_model):
        with pytest.raises(InvalidArgumentError):
            cno.predict_paths(audit_model, np.zeros((2, 5, 2)))
        with pytest.raises(InvalidArgumentError):
            cno.predict_paths(audit_model, np.zeros((2, 4, 1)))
        with pytest.raises(InvalidArgumentError):
            cno.predict_paths(audit_model, np.zeros((2, 5, 1)), horizon=0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_paths_rejected(self, audit_model, bad):
        paths = np.zeros((2, 5, 1))
        paths[1, 4] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            cno.predict_paths(audit_model, paths)
        with pytest.raises(InvalidArgumentError, match="finite"):
            cno.predict(audit_model, paths[1])
        grid = cno.TimeGrid(np.arange(5, dtype=np.float64))
        with pytest.raises(InvalidArgumentError, match="finite"):
            cno.windows_from_paths(paths, np.zeros((2, 5)), grid, M=2, step_dim=1)

