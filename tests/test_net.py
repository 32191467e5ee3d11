"""Flat-parameter network contracts: layout, forward, padding, gradients, and
training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnoweave import net
from cnoweave.errors import InvalidArgumentError, TrainingDivergedError

RNG = np.random.default_rng


def random_spec(rng, max_depth=4, max_width=6, activation=None):
    depth = int(rng.integers(1, max_depth + 1))
    dims = tuple(int(rng.integers(1, max_width + 1)) for _ in range(depth + 1))
    act = activation or ("relu" if rng.random() < 0.5 else "prelu")
    return net.NetSpec(dims, act)


class TestParamCount:
    def test_frozen_1_1(self):
        # [TRIVIAL] J=1, 1*(1+1)+1+1 = 4
        assert net.param_count(net.NetSpec((1, 1))) == 4

    def test_frozen_2_3_1(self):
        # [PAPER] worked example of the counting formula
        assert net.param_count(net.NetSpec((2, 3, 1))) == 17

    def test_matches_constructed_length(self):
        rng = RNG(0)
        for _ in range(50):
            spec = random_spec(rng)
            theta = net.init_params(spec, seed=int(rng.integers(1 << 30)))
            assert len(theta) == net.param_count(spec)

    def test_unpack_blocks_cover_theta(self):
        rng = RNG(1)
        spec = random_spec(rng)
        theta = rng.standard_normal(net.param_count(spec))
        layers, c = net.unpack(spec, theta)
        total = sum(A.size + b.size + 1 for A, b, _ in layers) + c.size
        assert total == len(theta)

    def test_blocks_of_a_stack_are_each_rows_blocks(self):
        # a (T, P) stack's blocks keep the step axis, and writing one writes
        # the stack
        rng = RNG(4)
        spec = random_spec(rng)
        stack = rng.standard_normal((3, net.param_count(spec)))
        layers, c = net._blocks(spec, stack)
        for t, row in enumerate(stack):
            row_layers, row_c = net._blocks(spec, row)
            for blocks, row_blocks in zip(layers, row_layers):
                assert all(np.array_equal(v[t], r) for v, r in zip(blocks, row_blocks))
            assert np.array_equal(c[t], row_c)
        layers[-1][2][1] = 7.0
        assert net._blocks(spec, stack[1])[0][-1][2] == 7.0


class TestForward:
    def test_frozen_prelu_example(self):
        # [DERIVED] A=2, b=1, alpha=0, c=-1, x=3: 2*relu(3+1) - 1 = 7
        spec = net.NetSpec((1, 1), "prelu")
        theta = net.pack(spec, [(np.array([[2.0]]), np.array([1.0]), 0.0)],
                         np.array([-1.0]))
        assert net.forward(spec, theta, np.array([3.0])) == pytest.approx(7.0)

    def test_zero_params_give_bias(self):
        spec = net.NetSpec((3, 2), "relu")
        theta = np.zeros(net.param_count(spec))
        out = net.forward(spec, theta, np.ones(3))
        assert np.array_equal(out, np.zeros(2))

    def test_batched_matches_loop(self):
        rng = RNG(2)
        spec = random_spec(rng)
        theta = rng.standard_normal(net.param_count(spec))
        X = rng.standard_normal((7, spec.d_in))
        batched = net.forward(spec, theta, X)
        for i in range(7):
            assert np.allclose(batched[i], net.forward(spec, theta, X[i]),
                               rtol=0, atol=1e-12)

    def test_identity_slope_passes_through(self):
        spec = net.NetSpec((2, 2), "prelu")
        theta = net.pack(spec, [(np.eye(2), np.zeros(2), 1.0)], np.zeros(2))
        x = np.array([-3.5, 2.0])
        assert np.array_equal(net.forward(spec, theta, x), x)

    def test_dim_mismatch_raises(self):
        spec = net.NetSpec((2, 1))
        theta = np.zeros(net.param_count(spec))
        with pytest.raises(InvalidArgumentError):
            net.forward(spec, theta, np.zeros(3))


class TestPackUnpack:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_round_trip(self, seed):
        rng = RNG(seed)
        spec = random_spec(rng)
        theta = rng.standard_normal(net.param_count(spec))
        layers, c = net.unpack(spec, theta)
        again = net.pack(spec, layers, c)
        assert np.array_equal(theta, again)

    def test_pack_validates_shapes(self):
        spec = net.NetSpec((2, 3))
        with pytest.raises(InvalidArgumentError):
            net.pack(spec, [(np.zeros((2, 2)), np.zeros(2), 0.0)], np.zeros(3))

    def test_bad_theta_length(self):
        spec = net.NetSpec((2, 3))
        with pytest.raises(InvalidArgumentError):
            net.unpack(spec, np.zeros(net.param_count(spec) + 1))


class TestPadTo:
    def test_neutrality_random(self):
        rng = RNG(3)
        for _ in range(20):
            spec = random_spec(rng)
            theta = rng.standard_normal(net.param_count(spec))
            extra_depth = int(rng.integers(0, 3))
            dims = list(spec.dims)
            target = [dims[0]] + [d + int(rng.integers(0, 4)) for d in dims[1:-1]]
            target.append(dims[-1] + int(rng.integers(0, 4)) if extra_depth else dims[-1])
            # appended identity layers must be at least d_out wide
            for _ in range(extra_depth):
                target.append(dims[-1] + int(rng.integers(0, 3)))
            target.append(dims[-1])
            if not extra_depth:
                target = target[:-1]
            big_spec, big_theta = net.pad_to(spec, theta, tuple(target))
            X = rng.standard_normal((50, spec.d_in))
            a = net.forward(spec, theta, X)
            b = net.forward(big_spec, big_theta, X)
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_pad_is_exact_zero_fill(self):
        spec = net.NetSpec((2, 2, 1), "relu")
        rng = RNG(4)
        theta = rng.standard_normal(net.param_count(spec))
        big_spec, big_theta = net.pad_to(spec, theta, (2, 5, 1))
        x = rng.standard_normal(2)
        assert net.forward(big_spec, big_theta, x) == pytest.approx(
            net.forward(spec, theta, x), abs=0, rel=0
        )

    def test_rejects_shrinking(self):
        spec = net.NetSpec((2, 4, 1))
        theta = np.zeros(net.param_count(spec))
        with pytest.raises(InvalidArgumentError):
            net.pad_to(spec, theta, (2, 3, 1))

    def test_rejects_endpoint_change(self):
        spec = net.NetSpec((2, 4, 1))
        theta = np.zeros(net.param_count(spec))
        with pytest.raises(InvalidArgumentError):
            net.pad_to(spec, theta, (3, 4, 1))


class TestGrad:
    def test_matches_finite_differences(self):
        rng = RNG(8)
        h = 1e-6
        checked = 0
        while checked < 60:
            spec = random_spec(rng)
            theta = rng.standard_normal(net.param_count(spec))
            x = rng.standard_normal(spec.d_in)
            u = rng.standard_normal(spec.d_out)
            g = net.grad(spec, theta, x, u)
            fd = np.empty_like(g)
            for i in range(len(theta)):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fd[i] = (u @ net.forward(spec, tp, x) - u @ net.forward(spec, tm, x)) / (2 * h)
            denom = max(1.0, np.abs(fd).max())
            if np.max(np.abs(g - fd)) / denom > 1e-5:
                # a kink was crossed; resample (also covered by acceptance #8)
                continue
            checked += 1

    def test_relu_subgradient_zero_at_zero(self):
        spec = net.NetSpec((1, 1), "relu")
        theta = net.pack(spec, [(np.array([[1.0]]), np.array([0.0]), 0.0)],
                         np.array([0.0]))
        g = net.grad(spec, theta, np.array([0.0]), np.array([1.0]))
        layers, _ = net.unpack(spec, g)
        # dA = upstream * relu(0) = 0 and db = upstream * subgrad(0) = 0
        assert layers[0][0][0, 0] == 0.0
        assert layers[0][1][0] == 0.0


class TestTrain:
    def test_loss_decreases_on_linear_target(self):
        rng = RNG(9)
        X = rng.random((256, 3))
        Y = (X @ np.array([1.0, -2.0, 0.5]))[:, None]
        spec = net.NetSpec((3, 8, 1), "relu")
        theta, trace = net.train(spec, (X, Y), {"epochs": 150, "lr": 0.05, "seed": 0})
        assert trace[-1] < 0.1 * trace[0]
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))  # monotone

    def test_relu_slopes_stay_zero(self):
        rng = RNG(10)
        X = rng.random((64, 2))
        Y = X.sum(axis=1)[:, None]
        spec = net.NetSpec((2, 4, 1), "relu")
        theta, _ = net.train(spec, (X, Y), {"epochs": 30, "seed": 1})
        layers, _ = net.unpack(spec, theta)
        assert all(alpha == 0.0 for _, _, alpha in layers)

    def test_deterministic_in_seed(self):
        rng = RNG(11)
        X = rng.random((32, 2))
        Y = X[:, :1]
        spec = net.NetSpec((2, 4, 1), "prelu")
        t1, _ = net.train(spec, (X, Y), {"epochs": 20, "seed": 7, "batch": 8})
        t2, _ = net.train(spec, (X, Y), {"epochs": 20, "seed": 7, "batch": 8})
        assert np.array_equal(t1, t2)

    @pytest.mark.parametrize("activation", ["relu", "prelu"])
    def test_one_full_batch_step_is_the_summed_grad(self, activation):
        rng = RNG(12)
        spec = net.NetSpec((3, 5, 4, 2), activation)
        X = rng.standard_normal((20, 3))
        Y = rng.standard_normal((20, 2))
        n, lr = len(X), 0.03
        theta0 = net.init_params(spec, 4)
        resid = net.forward(spec, theta0, X) - Y
        step = sum(net.grad(spec, theta0, x, 2.0 * r / n) for x, r in zip(X, resid))

        def slopes(v):
            return [alpha for _, _, alpha in net._blocks(spec, v)[0]]

        if activation == "relu":
            for alpha in slopes(step):
                alpha[:] = 0.0
        theta, trace = net.train(spec, (X, Y), {"epochs": 1, "batch": n, "lr": lr, "seed": 4})
        expect = theta0 - lr * step
        assert np.max(np.abs(theta - expect)) <= 1e-12 * np.max(np.abs(expect))
        assert trace == [pytest.approx(float(np.mean(np.sum(resid * resid, axis=1))))]
        if activation == "relu":
            assert all(alpha == 0.0 for alpha in slopes(theta))
        else:
            assert all(a != a0 for a, a0 in zip(slopes(theta), slopes(theta0)))

    def test_one_minibatch_epoch_follows_the_seeded_permutation(self):
        rng = RNG(14)
        spec = net.NetSpec((3, 5, 2), "prelu")
        X = rng.standard_normal((20, 3))
        Y = rng.standard_normal((20, 2))
        lr, batch, seed = 0.03, 7, 5
        expect = net.init_params(spec, seed)
        order = RNG(seed).permutation(len(X))
        for start in range(0, len(X), batch):
            idx = order[start : start + batch]
            resid = net.forward(spec, expect, X[idx]) - Y[idx]
            expect = expect - lr * sum(net.grad(spec, expect, x, 2.0 * r / len(idx))
                                       for x, r in zip(X[idx], resid))
        theta, _ = net.train(spec, (X, Y), {"epochs": 1, "batch": batch, "lr": lr,
                                            "seed": seed})
        assert np.max(np.abs(theta - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_divergence_reports_the_failing_params(self):
        rng = RNG(13)
        X = rng.standard_normal((16, 2))
        Y = 100.0 * rng.standard_normal((16, 1))
        spec = net.NetSpec((2, 8, 1), "prelu")
        opts = {"epochs": 200, "lr": 1e6, "seed": 0}
        with pytest.raises(TrainingDivergedError) as info, np.errstate(all="ignore"):
            net.train(spec, (X, Y), opts)
        last, trace = info.value.last_params, info.value.trace
        assert last.shape == (net.param_count(spec),)
        # a copy, not a view of the buffer the trainer updates in place
        assert last.base is None and last.flags.owndata
        # full batch: the failing params are those after the finished epochs
        with np.errstate(all="ignore"):
            done, done_trace = net.train(spec, (X, Y), {**opts, "epochs": len(trace)})
        assert np.array_equal(last, done, equal_nan=True) and done_trace == trace

    @pytest.mark.parametrize("opts", [{"epoch": 3}, {"init": [0.0] * 4},
                                      {"lr": "abc"}, {"batch": 0}])
    def test_bad_options_rejected(self, opts):
        spec = net.NetSpec((1, 1))
        with pytest.raises(InvalidArgumentError):
            net.train(spec, (np.zeros((4, 1)), np.zeros((4, 1))), opts)

    @pytest.mark.parametrize("opts", [{"epochs": -3}, {"seed": -1}, {"lr": 0.0},
                                      {"lr": -0.05}, {"lr": float("nan")},
                                      {"lr": float("inf")}])
    def test_out_of_range_options_rejected(self, opts):
        # epochs=-3 used to return the initial parameters with an empty trace
        spec = net.NetSpec((1, 1))
        with pytest.raises(InvalidArgumentError, match=next(iter(opts))):
            net.train(spec, (np.zeros((4, 1)), np.zeros((4, 1))), opts)

    def test_empty_dataset_rejected(self):
        spec = net.NetSpec((2, 1))
        with pytest.raises(InvalidArgumentError):
            net.train(spec, (np.zeros((0, 2)), np.zeros((0, 1))), {})
