"""Acceptance suite: the eleven measured contracts the package ships against.

Each criterion is a self-contained test (or small class) with its tolerance
stated inline.  Frozen numbers are tagged:

* [TRIVIAL] — immediate from a definition.
* [DERIVED] — computed by hand from the governing formula.
* [PAPER]   — a published reference value.
"""

import math

import numpy as np
import pytest

from cnoweave import bench, cno, filters, net, sde, spaces, weave
from cnoweave.regularity import Holder, Smooth

RNG = np.random.default_rng


def random_theta(spec, rng):
    """Random parameters respecting the all-zero-slope invariant of relu specs."""
    theta = rng.standard_normal(net.param_count(spec))
    if spec.activation == "relu":
        for _, _, alpha in net._blocks(spec, theta)[0]:
            alpha[:] = 0.0
    return theta


# --------------------------------------------------------------------------
# 1. parameter-count consistency
# --------------------------------------------------------------------------

class TestCriterion1ParamCount:
    def test_frozen_2_3_1(self):
        # [DERIVED] J=2, 2*(3+1) + 3*(1+1) = 14, +J +d_J = 17
        assert net.param_count(net.NetSpec((2, 3, 1), "prelu")) == 17

    def test_50_random_multi_indices(self):
        rng = RNG(0)
        for _ in range(50):
            depth = int(rng.integers(1, 6))
            dims = tuple(int(rng.integers(1, 9)) for _ in range(depth + 1))
            spec = net.NetSpec(dims, "prelu")
            theta = net.init_params(spec, seed=1)
            assert len(theta) == net.param_count(spec)
            # the formula matches a direct sum over layers
            J = depth
            expect = J + sum(dims[j] * (dims[j + 1] + 1) for j in range(J))
            expect += dims[J]
            assert net.param_count(spec) == expect


# --------------------------------------------------------------------------
# 2. padding neutrality
# --------------------------------------------------------------------------

class TestCriterion2Padding:
    def test_20_padded_nets_are_neutral(self):
        rng = RNG(1)
        for _ in range(20):
            depth = int(rng.integers(1, 4))
            dims = tuple(int(rng.integers(1, 6)) for _ in range(depth + 1))
            spec = net.NetSpec(dims, "relu")
            theta = random_theta(spec, rng)
            extra_depth = int(rng.integers(0, 3))
            target = (
                dims[:1]
                + tuple(d + int(rng.integers(0, 4)) for d in dims[1:-1])
                + (max(dims[1:] or dims),) * extra_depth
                + dims[-1:]
            )
            spec_p, theta_p = net.pad_to(spec, theta, target)
            x = rng.standard_normal((1000, dims[0]))
            a = net.forward(spec, theta, x)
            b = net.forward(spec_p, theta_p, x)
            assert np.max(np.abs(a - b)) <= 1e-12


# --------------------------------------------------------------------------
# 3. weaving exactness
# --------------------------------------------------------------------------

def _delta_for(Q, T):
    # delta must satisfy floor(delta^-Q) >= T
    if Q == 4 and T == 64:
        return 0.3  # [DERIVED] floor(0.3^-4) = 123 >= 64
    return 0.5      # [DERIVED] floor(0.5^-4) = 16, floor(0.5^-8) = 256


class TestCriterion3Weaving:
    @pytest.mark.parametrize("T", [4, 16, 64])
    @pytest.mark.parametrize("P", [17, 50])
    @pytest.mark.parametrize("Q", [4, 8])
    def test_rollout_separation_aspect(self, T, P, Q):
        delta = _delta_for(Q, T)
        if math.floor(delta ** -Q) < T:
            pytest.skip("infeasible horizon for this (Q, delta)")
        rng = RNG(100 * T + P + Q)
        thetas = rng.standard_normal((T, P))
        w = weave.build_weave(thetas, Q=Q, delta=delta, seed=0)
        rec = weave.rollout(w, T)
        scale = max(1.0, float(np.abs(thetas).max()))
        worst = max(float(np.max(np.abs(rec[t] - thetas[t]))) for t in range(T))
        assert worst / scale <= 1e-6
        assert w.packing.min_separation() > delta
        assert weave.aspect_ratio(w.codes) <= math.sqrt(5.0) / delta  # R = 1


# --------------------------------------------------------------------------
# 4. exact memorization
# --------------------------------------------------------------------------

class TestCriterion4Memorization:
    def test_32_pairs_r8_to_r8(self):
        rng = RNG(4)
        pairs = [(rng.standard_normal(8), rng.standard_normal(8))
                 for _ in range(32)]
        m = weave.memorize(pairs, seed=0)
        worst = max(
            float(np.max(np.abs(net.forward(m.spec, m.theta, x) - y)))
            for x, y in pairs
        )
        assert worst <= 1e-9


# --------------------------------------------------------------------------
# 5 + 6. CNO end-to-end and error-split soundness
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cno_suite():
    """I=8 windows of the mean-map recursion, trained once for criteria 5-6."""
    rng = RNG(5)
    T = 8
    target = bench.RecursiveTarget(T=T, G="mean")
    z = rng.random((512, T))
    path = bench.recursive_path(target, z)
    grid = cno.TimeGrid(np.arange(T, dtype=np.float64))
    ds = cno.windows_from_paths(z, path, grid, M=T, step_dim=1)
    model, reports = cno.construct_cno(
        ds, eps_D=0.05, eps_A=0.05, Q=4, delta=0.5, seed=0,
        dims=(T, 24, 1), train_opts={"epochs": 400, "lr": 0.05, "batch": 64},
    )
    return model, reports, ds


class TestCriterion5EndToEnd:
    def test_predict_matches_stored_filters(self, cno_suite):
        model, reports, ds = cno_suite
        w = model.weave_model
        stored = [w.readout(w.codes[t]) for t in range(model.horizon)]
        rng = RNG(50)
        scale = max(1.0, max(float(np.abs(th).max()) for th in stored))
        for _ in range(100):
            path = rng.random((model.horizon, 1))
            outs = cno.predict(model, path)
            for i in range(model.horizon):
                win = cno.build_window(path, i, model.M, model.step_dim)
                direct = net.forward(model.synced_spec, stored[i], win)
                # the only discrepancy is the weave rollout, <= 1e-6 relative
                assert np.max(np.abs(outs[i] - direct)) / scale <= 1e-6

    def test_no_training_shortfall(self, cno_suite):
        model, reports, ds = cno_suite
        assert len(reports) == 8
        assert not any(r.shortfall for r in reports)

    def test_causality_100_pairs(self, cno_suite):
        model, reports, ds = cno_suite
        rng = RNG(51)
        horizon = model.horizon
        for _ in range(100):
            i = int(rng.integers(0, horizon - 1))
            a = rng.random((horizon, 1))
            b = np.array(a, copy=True)
            b[i + 1:] = rng.random((horizon - i - 1, 1))
            assert cno.causality_audit(model, a, b, i)


class TestCriterion6ErrorSplit:
    def test_split_bounds_end_to_end_on_every_window_filter(self, cno_suite):
        model, reports, ds = cno_suite
        w = model.weave_model
        in_space = spaces.euclidean(model.M * model.step_dim)
        out_space = spaces.euclidean(model.out_dim)
        for i in range(model.horizon):
            theta = w.readout(w.codes[i])
            f_hat = filters.NeuralFilter(
                in_space, out_space, model.M * model.step_dim, model.out_dim,
                model.synced_spec, theta,
            )
            X = ds.windows[i]["inputs"][:64]
            Y = ds.windows[i]["targets"][:64]

            def f_target(x, X=X, Y=Y):
                j = int(np.argmin(np.linalg.norm(X - np.asarray(x), axis=1)))
                return Y[j]

            split = filters.error_decomposition(f_target, f_hat, list(X))
            assert split.end_to_end <= split.bound()  # exact, no tolerance

    def test_split_on_trained_fourier_filter(self):
        # one non-Euclidean trained filter so the split is exercised where
        # truncation is not the identity
        rng = RNG(6)
        space = spaces.fourier_l2(1.0)
        X = rng.uniform(-1, 1, (200, 2))
        Y = np.sin(X)
        spec = net.NetSpec((2, 16, 2), "relu")
        theta, _ = net.train(spec, (X, Y),
                             {"epochs": 200, "lr": 0.1, "seed": 0, "batch": 64})
        f_hat = filters.NeuralFilter(space, space, 2, 2, spec, theta)

        def f_target(x):
            c = getattr(x, "coords", None)
            if c is None:
                c = getattr(x, "coeffs", None)
            if c is None:
                c = np.asarray(x)
            c = np.asarray(c, dtype=np.float64)
            c = np.pad(c, (0, max(0, 2 - len(c))))
            return spaces.CoordVector(np.sin(c[:2]), space)

        samples = [spaces.CoordVector(row, space) for row in X[:50]]
        split = filters.error_decomposition(f_target, f_hat, samples)
        assert split.end_to_end <= split.bound()


# --------------------------------------------------------------------------
# 7. special function and generalized-inverse laws
# --------------------------------------------------------------------------

class TestCriterion7SpecialFunctions:
    def test_v_round_trip_0_to_100(self):
        g = filters._v_target
        assert filters.special_V(1.0) == 1.0  # [TRIVIAL] g(1) = 1
        for y in np.linspace(0.0, 100.0, 1000):
            u = filters.special_V(float(y))
            assert abs(g(u) - y) <= 1e-8

    def test_inverse_laws_on_100_random_tables(self):
        rng = RNG(7)
        for _ in range(100):
            m = int(rng.integers(3, 12))
            xs = np.sort(rng.uniform(-10, 10, m)) + np.arange(m) * 1e-9
            ys = np.sort(np.round(rng.uniform(-5, 5, m), 2))
            T = filters.MonotoneTable(xs, ys)
            probes = np.sort(rng.uniform(ys.min() - 1, ys.max() + 1, 20))
            vals = [filters.generalized_inverse(T, float(y)) for y in probes]
            # monotone in y
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            # agrees with a dense brute-force infimum
            dense = np.linspace(xs[0], xs[-1], 2000)
            step = dense[1] - dense[0]
            for y, got in zip(probes, vals):
                cand = dense[np.asarray(T(dense)) >= y]
                if got == math.inf:
                    assert len(cand) == 0
                elif got == -math.inf:
                    assert T(xs[0]) >= y
                else:
                    assert len(cand) > 0 and got <= cand[0] + step + 1e-12
            # T^-(T(x)) <= x
            for x in xs:
                assert filters.generalized_inverse(T, float(T(x))) <= x + 1e-12


# --------------------------------------------------------------------------
# 8. gradient correctness
# --------------------------------------------------------------------------

class TestCriterion8Gradients:
    def test_200_random_configs_vs_central_differences(self):
        rng = RNG(8)
        h = 1e-6
        checked = 0
        while checked < 200:
            depth = int(rng.integers(1, 4))
            dims = tuple(int(rng.integers(1, 5)) for _ in range(depth + 1))
            spec = net.NetSpec(dims, "prelu")
            theta = rng.standard_normal(net.param_count(spec))
            x = rng.standard_normal(dims[0])
            upstream = rng.standard_normal(dims[-1])

            def loss(t):
                return float(net.forward(spec, t, x) @ upstream)

            g = net.grad(spec, theta, x, upstream)
            fd = np.empty_like(g)
            kinky = False
            for j in range(len(theta)):
                e = np.zeros_like(theta)
                e[j] = h
                fd[j] = (loss(theta + e) - loss(theta - e)) / (2 * h)
            scale = max(1.0, float(np.abs(g).max()))
            if np.max(np.abs(g - fd)) / scale > 1e-5:
                # a pre-activation sits within h of a kink: resample
                kinky = True
            if not kinky:
                checked += 1
                assert np.max(np.abs(g - fd)) / scale <= 1e-5
            else:
                # verify the failure really is a kink crossing, then skip
                layers, c = net.unpack(spec, theta)
                z = np.asarray(x, dtype=np.float64)
                near = False
                for A, b, alpha in layers:
                    u = z + b
                    if np.any(np.abs(u) < 1e-4):
                        near = True
                    z = A @ np.where(u > 0, u, alpha * u)
                z = z + c
                assert near, "gradient mismatch away from any kink"


# --------------------------------------------------------------------------
# 9. SDE pipeline at desk scale
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sde_setup():
    coeffs = sde.ou_coeffs(rate=1.0, sigma=0.5)
    grid = cno.TimeGrid(0.25 * np.arange(5))  # 4 steps of 0.25
    oracle = sde.McOracle(n_paths=20_000, n_steps=128, seed=9)
    return coeffs, grid, oracle


class TestCriterion9Sde:
    def test_a_ito_isometry_moment(self, sde_setup):
        coeffs, grid, oracle = sde_setup
        dB = sde._draw_increments(oracle, 128)
        coords = sde.ChaosCoords(mean=0.4, coeffs=np.array(
            [0.5, -0.25, 0.3, 0.1, -0.2, 0.15, 0.05, -0.1]), horizon=1.0)
        eta = sde.synthesize_eta(coords, dB, oracle.dt)
        expect = coords.second_moment()
        est = float(np.mean(eta * eta))
        se = float(np.std(eta * eta, ddof=1)) / math.sqrt(oracle.n_paths)
        assert abs(est - expect) <= 3 * se

    def test_b_lipschitz_ratio_within_bound(self, sde_setup):
        coeffs, grid, oracle = sde_setup
        rng = RNG(90)
        pairs = []
        for _ in range(8):
            a = sde.ChaosCoords(mean=float(rng.uniform(-1, 1)),
                                coeffs=np.zeros(0), horizon=0.0)
            b = sde.ChaosCoords(mean=float(rng.uniform(-1, 1)),
                                coeffs=np.zeros(0), horizon=0.0)
            pairs.append((a, b))
        out = sde.lipschitz_check(coeffs, pairs, 0.0, 0.25, oracle)
        bound = math.sqrt(3.0) * math.exp(1.5 * coeffs.M_g ** 2 * 1.25 * 0.25)
        assert out["bound"] == pytest.approx(bound)
        assert out["ok"] and out["max_ratio"] <= bound

    def test_c_cno_held_out_window_error_within_gate(self, sde_setup):
        coeffs, grid, oracle = sde_setup
        eps_D, eps_A = 0.02, 0.08
        train_ds = sde.build_sde_dataset(coeffs, grid, (-1.0, 1.0), oracle,
                                         n_modes=8, n_orbit_samples=32, seed=0)
        test_ds = sde.build_sde_dataset(coeffs, grid, (-1.0, 1.0), oracle,
                                        n_modes=8, n_orbit_samples=32, seed=1)
        model, reports = cno.construct_cno(
            train_ds, eps_D=eps_D, eps_A=eps_A, Q=4, delta=0.5, seed=0,
            dims=(9, 32, 9), train_opts={"epochs": 600, "lr": 0.05, "batch": 32},
        )
        gate = eps_A + eps_D
        assert not any(r.shortfall for r in reports)
        thetas = weave.rollout(model.weave_model, model.horizon)
        for i, w in enumerate(test_ds.windows):
            pred = net.forward(model.synced_spec, thetas[i], w["inputs"])
            l2 = float(np.sqrt(np.mean(np.sum((pred - w["targets"]) ** 2, axis=1))))
            assert l2 <= gate, f"window {i}: held-out L2 {l2} > gate {gate}"


# --------------------------------------------------------------------------
# 10. budget calculators
# --------------------------------------------------------------------------

class TestCriterion10Budgets:
    def test_width_bound_348(self):
        # [PAPER] P=17, Q=4, delta=0.5 -> I=16, width 21*16+12 = 348
        rep = weave.table2_report(17, 4, 0.5, 16)
        assert rep["width_bound"] == 348

    def test_width_bound_14860(self):
        # [DERIVED] P=50, Q=8, delta=0.5 -> I=256, width 58*256+12 = 14860
        rep = weave.table2_report(50, 8, 0.5, 256)
        assert rep["I_delta_Q"] == 256
        assert rep["width_bound"] == 14860

    def test_holder_18_by_32(self):
        # [DERIVED] lam = 1/131, alpha = n = 1 -> B = V(1) = 1,
        # width = (3^1+3)*3 = 18, depth = 1*(1 + 11 + 20) = 32
        b = filters.budget_holder(filters.BudgetInput(
            eps_D=1.0, eps_A=1.0, lam=1.0 / 131.0, regularity=Holder(1.0),
            n_in=1, n_out=1))
        assert (b.width, b.depth) == (18, 32)

    def test_smooth_k1_459_by_3(self):
        # [DERIVED] C3*C_fbar = 1 and unit tolerances give A = 1
        C3 = 85 * 2 * 8
        b = filters.budget_smooth(filters.BudgetInput(
            eps_D=1.0, eps_A=1.0, lam=1.0, regularity=Smooth(1),
            n_in=1, n_out=1, C_fbar=1.0 / C3))
        assert (b.width, b.depth) == (459, 3)

    def test_smooth_k2_1836_by_3(self):
        # [DERIVED] k=2: C1 = 17*4*3*1 = 204, width = 9*204 = 1836
        C3 = 85 * 3 * 64
        b = filters.budget_smooth(filters.BudgetInput(
            eps_D=1.0, eps_A=1.0, lam=1.0, regularity=Smooth(2),
            n_in=1, n_out=1, C_fbar=1.0 / C3))
        assert (b.width, b.depth) == (1836, 3)


# --------------------------------------------------------------------------
# 11. trade-off direction (directional)
# --------------------------------------------------------------------------

class TestCriterion11TradeoffDirectional:
    def test_median_best_cno_at_most_matched_ffnn(self):
        """DIRECTIONAL: median over 5 seeds of best-CNO final-step error vs
        the best FFNN of equal-or-larger parameter count."""
        T = 6
        target = bench.RecursiveTarget(T=T, G="mean")
        budgets = [
            {"kind": "ffnn", "dims": (T, 8, 1)},
            {"kind": "ffnn", "dims": (T, 32, 1)},
            {"kind": "ffnn", "dims": (T, 128, 1)},
            {"kind": "ffnn", "dims": (T, 256, 1)},
            {"kind": "ffnn", "dims": (T, 512, 1)},
            {"kind": "cno", "dims": (8,), "M": T},
            {"kind": "cno", "dims": (16,), "M": T},
        ]
        cno_errs, ffnn_errs, csv_rows = [], [], []
        for seed in range(5):
            rep = bench.compare(
                target, eps_A=0.05, budgets=budgets, seed=seed,
                n_train=400, n_test=200,
                train_opts={"epochs": 500, "lr": 0.05, "batch": 64},
            )
            csv_rows.append(rep.to_csv())
            best_cno = rep.best_row("cno")
            best_ffnn = rep.best_row("ffnn", min_params=best_cno["params"])
            assert best_ffnn is not None
            cno_errs.append(best_cno["max_err"])
            ffnn_errs.append(best_ffnn["max_err"])
        med_cno = float(np.median(cno_errs))
        med_ffnn = float(np.median(ffnn_errs))
        assert med_cno <= med_ffnn, (
            "directional criterion failed: median best-CNO error "
            f"{med_cno} > median matched-FFNN error {med_ffnn}\n"
            + "\n---\n".join(csv_rows)
        )
