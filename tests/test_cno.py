"""End-to-end causal construction: windows, training gates, determinism,
weaving, rollout prediction, and the causality audit."""

import numpy as np
import pytest

from cnoweave import bench, cno, net, serial, weave
from cnoweave.errors import InvalidArgumentError

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


class TestMemoryFor:
    def test_frozen_example(self):
        # c_mem = 1, r = 1, eps_A = 0.1 -> ceil(10) = 10 (not 11 from float noise)
        assert cno.memory_for(0.1, 1.0) == 10

    def test_floor_one(self):
        assert cno.memory_for(10.0, 1.0) == 1

    def test_r_zero_constant(self):
        assert cno.memory_for(0.01, 0.0, c_mem=3.0) == 3

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            cno.memory_for(0.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            cno.memory_for(0.1, -1.0)


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

