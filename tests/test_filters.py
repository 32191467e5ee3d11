"""Neural filters, the special function V, generalized inverses, budget
formulas, and the three-term error decomposition."""

import math
import time

import numpy as np
import pytest

from cnoweave import filters, net, spaces
from cnoweave.errors import BudgetOverflowError, InvalidArgumentError
from cnoweave.regularity import Holder, Smooth

RNG = np.random.default_rng


def identity_filter(dim):
    space = spaces.euclidean(dim)
    spec = net.NetSpec((dim, dim), "prelu")
    theta = net.pack(spec, [(np.eye(dim), np.zeros(dim), 1.0)], np.zeros(dim))
    return filters.NeuralFilter(space, space, dim, dim, spec, theta)


class TestFilterForward:
    def test_identity_on_euclidean(self):
        f = identity_filter(3)
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(filters.filter_forward(f, x), x)

    def test_zero_core_gives_zero_element(self):
        space = spaces.euclidean(2)
        spec = net.NetSpec((2, 2), "relu")
        f = filters.NeuralFilter(space, space, 2, 2, spec,
                                 np.zeros(net.param_count(spec)))
        out = filters.filter_forward(f, np.array([5.0, -3.0]))
        assert np.array_equal(out, np.zeros(2))

    def test_euclidean_specialization_equals_core(self):
        # with full dims on Euclidean spaces, the filter IS the core network
        rng = RNG(0)
        space = spaces.euclidean(3)
        spec = net.NetSpec((3, 5, 3), "relu")
        theta = rng.standard_normal(net.param_count(spec))
        for _, _, alpha in net._blocks(spec, theta)[0]:
            alpha[:] = 0.0
        f = filters.NeuralFilter(space, space, 3, 3, spec, theta)
        for _ in range(20):
            x = rng.standard_normal(3)
            assert np.array_equal(filters.filter_forward(f, x),
                                  net.forward(spec, theta, x))

    def test_core_dim_mismatch_rejected(self):
        space = spaces.euclidean(3)
        spec = net.NetSpec((2, 3), "relu")
        with pytest.raises(InvalidArgumentError):
            filters.NeuralFilter(space, space, 3, 3, spec,
                                 np.zeros(net.param_count(spec)))

    def test_trained_filter_on_fourier_modes(self):
        # learn sin applied coordinatewise to the first two Fourier coords
        rng = RNG(1)
        space = spaces.fourier_l2(1.0)
        X = rng.uniform(-1, 1, (400, 2))
        Y = np.sin(X)
        spec = net.NetSpec((2, 24, 2), "relu")
        theta, _ = net.train(spec, (X, Y),
                             {"epochs": 800, "lr": 0.1, "seed": 0, "batch": 64})
        f = filters.NeuralFilter(space, space, 2, 2, spec, theta)
        Xt = rng.uniform(-1, 1, (100, 2))
        worst = 0.0
        for x in Xt:
            out = filters.filter_forward(f, spaces.CoordVector(x, space))
            worst = max(worst, float(np.max(np.abs(out.coeffs - np.sin(x)))))
        assert worst <= 0.15  # trained tolerance for this budget


class TestSpecialV:
    def test_anchors(self):
        assert filters.special_V(0.0) == 0.0
        assert filters.special_V(1.0) == 1.0

    def test_round_trip_grid(self):
        g = filters._v_target
        for y in np.linspace(0.0, 100.0, 1000):
            u = filters.special_V(float(y))
            assert abs(g(u) - y) <= 1e-8
        for u in np.linspace(0.0, 100.0, 1000):
            back = filters.special_V(g(float(u)))
            assert abs(back - u) <= 1e-8

    def test_v_100(self):
        u = filters.special_V(100.0)
        assert filters._v_target(u) == pytest.approx(100.0, abs=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            filters.special_V(-1.0)


class TestGeneralizedInverse:
    def test_identity_map(self):
        xs = np.linspace(-5, 5, 101)
        T = filters.MonotoneTable(xs, xs)
        # on the grid, inf{x : x >= y} is y itself
        assert filters.generalized_inverse(T, 2.0) == pytest.approx(2.0)

    def test_floor_map(self):
        xs = np.linspace(-3, 3, 601)
        T = filters.MonotoneTable(xs, np.floor(xs))
        # smallest grid x with floor(x) >= 0.5 is 1
        assert filters.generalized_inverse(T, 0.5) == pytest.approx(1.0)

    def test_above_sup_is_inf(self):
        T = filters.MonotoneTable([0.0, 1.0], [0.0, 1.0])
        assert filters.generalized_inverse(T, 2.0) == math.inf

    def test_below_inf_is_minus_inf(self):
        T = filters.MonotoneTable([0.0, 1.0], [0.5, 1.0])
        assert filters.generalized_inverse(T, 0.2) == -math.inf

    def test_non_monotone_rejected(self):
        with pytest.raises(InvalidArgumentError):
            filters.MonotoneTable([0.0, 1.0, 2.0], [0.0, 1.0, 0.5])

    def test_prop1_laws_vs_brute_force(self):
        # laws: T^- nondecreasing in y, and T^-(T(x)) <= x
        rng = RNG(2)
        for _ in range(100):
            m = int(rng.integers(3, 12))
            xs = np.sort(rng.uniform(-10, 10, m))
            xs += np.arange(m) * 1e-9  # strict increase
            ys = np.sort(rng.choice(np.round(rng.uniform(-5, 5, m), 2), m))
            T = filters.MonotoneTable(xs, ys)
            probes = np.sort(rng.uniform(ys.min() - 1, ys.max() + 1, 20))
            vals = [filters.generalized_inverse(T, float(y)) for y in probes]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            # brute force over a dense grid of represented x values
            dense = np.linspace(xs[0], xs[-1], 2000)
            for y in probes:
                got = filters.generalized_inverse(T, float(y))
                cand = dense[np.asarray(T(dense)) >= y]
                if got == math.inf:
                    assert len(cand) == 0
                elif got == -math.inf:
                    assert T(xs[0]) >= y
                else:
                    assert len(cand) > 0
                    # grid infimum within one dense-grid step
                    assert got <= cand[0] + (dense[1] - dense[0]) + 1e-12
            for x in xs:
                tinv = filters.generalized_inverse(T, float(T(x)))
                assert tinv <= x + 1e-12


class TestBudgets:
    def test_smooth_frozen_example(self):
        # C3*C_fbar = 1, omega(eps_A) = 1, n_in = n_out = 1 -> A = 1,
        # width = C1 * 3 * log2(8) = 9 C1; depth = 1 + 0 + 2 = 3
        k, n = 1, 1
        C1 = 17 * k ** (n + 1) * 3 ** n * n
        C3 = 85 * (k + 1) ** n * 8 ** k
        b = filters.budget_smooth(filters.BudgetInput(
            eps_D=1.0, eps_A=1.0, lam=1.0, regularity=Smooth(k),
            n_in=1, n_out=1, C_fbar=1.0 / C3,
        ))
        assert b.width == 9 * C1 == 459
        assert b.depth == 3
        assert b.constants_used["A"] == 1

    def test_smooth_frozen_k2(self):
        k, n = 2, 1
        C1 = 17 * k ** (n + 1) * 3 ** n * n  # 204
        C3 = 85 * (k + 1) ** n * 8 ** k
        b = filters.budget_smooth(filters.BudgetInput(
            eps_D=1.0, eps_A=1.0, lam=1.0, regularity=Smooth(k),
            n_in=1, n_out=1, C_fbar=1.0 / C3,
        ))
        assert b.width == 9 * C1 == 1836
        assert b.depth == 3

    def test_holder_frozen_example(self):
        # (131 lam)^(n/alpha) (n_in n_out)^(n/alpha) = 1 and omega = 1:
        # B = V(1) = 1, depth = n_in (1 + 11 + C2) = 32, width = C1*3 = 18
        b = filters.budget_holder(filters.BudgetInput(
            eps_D=1.0, eps_A=1.0, lam=1.0 / 131.0, regularity=Holder(1.0),
            n_in=1, n_out=1,
        ))
        assert b.depth == 1 * (1 + 11 * 1 + (18 + 2 * 1)) == 32
        assert b.width == (3 ** 1 + 3) * 3 == 18

    def test_smooth_monotone_in_eps(self):
        def mk(eps):
            return filters.budget_smooth(filters.BudgetInput(
                eps_D=1.0, eps_A=eps, lam=1.0, regularity=Smooth(2),
                n_in=2, n_out=2,
            ))
        big, small = mk(0.5), mk(0.05)
        assert small.width >= big.width and small.depth >= big.depth

    def test_holder_monotone_in_eps(self):
        def mk(eps):
            return filters.budget_holder(filters.BudgetInput(
                eps_D=1.0, eps_A=eps, lam=1.0, regularity=Holder(0.5),
                n_in=2, n_out=2,
            ))
        big, small = mk(0.5), mk(0.05)
        assert small.width >= big.width and small.depth >= big.depth

    def test_smooth_c2_quadruples_when_k_doubles(self):
        b1 = filters.budget_smooth(filters.BudgetInput(
            eps_D=1.0, eps_A=0.5, lam=1.0, regularity=Smooth(2), n_in=1, n_out=1))
        b2 = filters.budget_smooth(filters.BudgetInput(
            eps_D=1.0, eps_A=0.5, lam=1.0, regularity=Smooth(4), n_in=1, n_out=1))
        assert b2.constants_used["C2"] == 4 * b1.constants_used["C2"]

    def test_overflow_is_typed(self):
        with pytest.raises(BudgetOverflowError):
            filters.budget_holder(filters.BudgetInput(
                eps_D=1.0, eps_A=1e-9, lam=1.0, regularity=Holder(0.01),
                n_in=8, n_out=8,
            ))

    @pytest.mark.parametrize("regularity, n_in", [
        (Holder(1.0), 10 ** 18), (Smooth(1), 10 ** 18), (Smooth(10 ** 18), 1),
    ])
    def test_huge_exponent_overflows_before_the_exact_power(self, regularity, n_in):
        # 3 ** n, k ** (n + 1), (k + 1) ** n and 8 ** k would each run for hours
        fn = filters.budget_holder if isinstance(regularity, Holder) else filters.budget_smooth
        t0 = time.perf_counter()
        with pytest.raises(BudgetOverflowError):
            fn(filters.BudgetInput(eps_D=1.0, eps_A=0.5, lam=1e-6,
                                   regularity=regularity, n_in=n_in, n_out=1))
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("regularity, n_in, eps_A, lam", [
        # A ~ e^699 fits, C1 (A + 2) log2(8 A) does not
        (Smooth(1), 1, 4e-152, 1.0),
        # V argument 1, so B = 2^636 ~ e^441 and C1 = 3^636 ~ e^699 fit; C1 (B + 2) does not
        (Holder(1.0), 636, 0.5, 1.0 / (131 * 636)),
    ])
    def test_width_past_float_range_is_typed(self, regularity, n_in, eps_A, lam):
        fn = filters.budget_holder if isinstance(regularity, Holder) else filters.budget_smooth
        with pytest.raises(BudgetOverflowError):
            fn(filters.BudgetInput(eps_D=1.0, eps_A=eps_A, lam=lam,
                                   regularity=regularity, n_in=n_in, n_out=1))

    @pytest.mark.parametrize("eps_A", [0.0, -1.0, float("nan")])
    def test_nonpositive_tolerance_rejected(self, eps_A):
        with pytest.raises(InvalidArgumentError):
            filters.BudgetInput(eps_D=1.0, eps_A=eps_A, lam=1.0,
                                regularity=Holder(1.0), n_in=1, n_out=1)

    def test_wrong_regularity_rejected(self):
        with pytest.raises(InvalidArgumentError):
            filters.budget_smooth(filters.BudgetInput(
                eps_D=1.0, eps_A=1.0, lam=1.0, regularity=Holder(1.0),
                n_in=1, n_out=1))


class TestErrorDecomposition:
    def test_identity_full_dim_all_zero(self):
        f = identity_filter(3)
        samples = [RNG(3).standard_normal(3) for _ in range(10)]
        split = filters.error_decomposition(lambda x: x, f, samples)
        assert split.enc_out == split.enc_in == split.approx == 0.0
        assert split.end_to_end == 0.0

    def test_constant_target(self):
        rng = RNG(4)
        space = spaces.euclidean(3)
        c_target = np.array([1.0, 2.0, 3.0])
        spec = net.NetSpec((2, 2), "relu")
        theta = net.pack(spec, [(np.zeros((2, 2)), np.zeros(2), 0.0)],
                         c_target[:2])
        f = filters.NeuralFilter(space, space, 2, 2, spec, theta)
        samples = [rng.standard_normal(3) for _ in range(10)]
        split = filters.error_decomposition(lambda x: c_target, f, samples)
        # output truncation error of the constant c is d(A c, c)
        expect = spaces.metric(space, spaces.truncate(space, c_target, 2), c_target)
        assert split.enc_out == pytest.approx(expect)
        assert split.enc_in == 0.0  # constant target ignores input truncation

    def test_triangle_inequality_random_filters(self):
        rng = RNG(5)
        space = spaces.euclidean(4)
        for _ in range(10):
            spec = net.NetSpec((2, 3, 3), "relu")
            theta = rng.standard_normal(net.param_count(spec))
            for _, _, alpha in net._blocks(spec, theta)[0]:
                alpha[:] = 0.0
            f = filters.NeuralFilter(space, spaces.euclidean(4), 2, 3, spec, theta)
            w = rng.standard_normal((4, 4))
            target = lambda x, w=w: np.tanh(w @ x)
            samples = [rng.standard_normal(4) for _ in range(20)]
            split = filters.error_decomposition(target, f, samples)
            assert split.end_to_end <= split.bound()
