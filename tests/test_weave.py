"""Packings, aspect ratios, exact memorization, and the dynamic weave."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from cnoweave import net, serial, weave
from cnoweave.errors import BudgetOverflowError, InvalidArgumentError, PackingInfeasibleError

RNG = np.random.default_rng


class TestPackBall:
    def test_q1_max_packing_is_4(self):
        # [DERIVED] in [-1, 1] with delta = 0.5, at most 4 points can be
        # pairwise strictly more than 0.5 apart (1-D spacing argument)
        p = weave.pack_ball(1, 1.0, 0.5, 4, seed=0)
        assert p.count == 4
        with pytest.raises(PackingInfeasibleError) as ei:
            weave.pack_ball(1, 1.0, 0.5, 5, seed=0)
        assert ei.value.achieved >= 3

    def test_single_point_always_packs(self):
        p = weave.pack_ball(2, 1.0, 0.99, 1, seed=0)
        assert p.count == 1

    def test_q3_bound_case(self):
        # (R/delta)^Q = 125 points fit at Q=3, delta=0.2
        p = weave.pack_ball(3, 1.0, 0.2, 125, seed=0)
        assert p.count >= 125
        assert p.min_separation() > 0.2

    def test_validity_checked(self):
        rng = RNG(0)
        for seed in range(5):
            p = weave.pack_ball(4, 1.0, 0.5, 16, seed=seed)
            norms = np.linalg.norm(p.points, axis=1)
            assert np.all(norms <= 1.0 + 1e-12)
            assert p.min_separation() > 0.5

    @pytest.mark.parametrize("delta", [0.5, 0.7, 0.9])
    def test_greedy_passes_reach_the_viable_horizon(self, delta):
        # no lattice or other fallback: the seeded greedy passes alone pack
        # floor(delta^-Q) points
        for Q in range(1, 7):
            T = weave.viable_horizon(Q, delta)
            p = weave.pack_ball(Q, 1.0, delta, T, seed=0)
            assert p.count == T
            assert T < 2 or pdist(p.points).min() > delta

    def test_bad_delta_rejected(self):
        with pytest.raises(InvalidArgumentError):
            weave.pack_ball(2, 1.0, 1.5, 2)

    def test_packing_type_validates(self):
        with pytest.raises(InvalidArgumentError):
            weave.Packing(2, 1.0, 0.5, np.array([[0.0, 0.0], [0.1, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        # a NaN fails every comparison, so the ball and separation checks alone pass it
        with pytest.raises(InvalidArgumentError, match="finite"):
            weave.Packing(2, 1.0, 0.5, np.array([[bad, 0.0], [0.9, 0.0]]))


class TestAspectRatio:
    def test_frozen_0_1_3(self):
        assert weave.aspect_ratio(np.array([0.0, 1.0, 3.0])) == pytest.approx(3.0)

    def test_two_points(self):
        assert weave.aspect_ratio(np.array([[0.0, 0.0], [1.0, 1.0]])) == 1.0

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidArgumentError):
            weave.aspect_ratio(np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(InvalidArgumentError, match="finite"):
            weave.aspect_ratio(np.array([[bad, 0.0], [0.9, 0.0], [0.0, 0.5]]))

    def test_peak_memory_linear_in_the_points(self):
        # the 4.5 M pairwise distances of 3,000 points alone take 36 MB
        pts = RNG(12).standard_normal((3000, 2))
        d = pdist(pts)
        tracemalloc.start()
        try:
            ratio = weave.aspect_ratio(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ratio == pytest.approx(d.max() / d.min(), rel=1e-12)
        assert peak < 2 * 2**20


class TestMemorize:
    def test_single_pair_constant_net(self):
        m = weave.memorize([(np.array([1.0, 2.0]), np.array([3.0]))])
        out = net.forward(m.spec, m.theta, np.array([9.0, -9.0]))
        assert np.array_equal(out, [3.0])

    def test_collinear_1d(self):
        pairs = [(np.array([float(x)]), np.array([float(x)])) for x in (0, 1, 2)]
        m = weave.memorize(pairs)
        for x, y in pairs:
            assert np.max(np.abs(net.forward(m.spec, m.theta, x) - y)) <= 1e-12

    def test_32_random_pairs_r8(self):
        rng = RNG(1)
        pairs = [(rng.standard_normal(8), rng.standard_normal(8)) for _ in range(32)]
        m = weave.memorize(pairs, seed=0)
        worst = max(
            float(np.max(np.abs(net.forward(m.spec, m.theta, x) - y)))
            for x, y in pairs
        )
        assert worst <= 1e-9
        assert m.spec.activation == "relu"

    def test_duplicate_anchors_rejected(self):
        x = np.array([1.0, 2.0])
        with pytest.raises(InvalidArgumentError):
            weave.memorize([(x, np.zeros(1)), (x, np.ones(1))])

    def test_one_repeated_row_among_32_rejected(self):
        # no separate uniqueness pass: the projection search alone rejects it
        xs = RNG(4).standard_normal((32, 8))
        xs[20] = xs[7]
        with pytest.raises(InvalidArgumentError, match="distinct"):
            weave.memorize(list(zip(xs, RNG(5).standard_normal((32, 8)))), seed=0)

    def test_all_equal_anchors_rejected(self):
        x = np.array([0.5, -1.0, 2.0])
        with pytest.raises(InvalidArgumentError, match="distinct"):
            weave.memorize([(x, np.full(2, float(k))) for k in range(5)])

    def test_width_reported(self):
        rng = RNG(2)
        pairs = [(rng.standard_normal(3), rng.standard_normal(2)) for _ in range(6)]
        m = weave.memorize(pairs)
        assert max(m.spec.dims[1:-1]) == 2 * 5 <= 3 * 5 + 12

    @pytest.mark.parametrize("N", [2, 3, 9])
    def test_width_one_projection_layout(self, N):
        # narrow targets keep each slope next to its negative; targets wider
        # than 2K + 1 + 1/K get the K x 2K pairing layer
        K = N - 1
        rng = RNG(N)
        for d, dims in [(3, (4, 1, 2 * K, 3)), (2 * K + 3, (4, 1, 2 * K, K, 2 * K + 3))]:
            pairs = [(rng.standard_normal(4), rng.standard_normal(d)) for _ in range(N)]
            m = weave.memorize(pairs, seed=0)
            assert m.spec.dims == dims
            assert max(m.spec.dims[1:-1]) == 2 * K

    @pytest.mark.parametrize("N, n, d", [(2, 4, 3), (2, 4, 5), (9, 5, 2), (9, 5, 18),
                                         (9, 5, 19), (31, 40, 40), (31, 40, 62),
                                         (31, 40, 80)])
    def test_param_count_closed_form(self, N, n, d):
        # with K = N - 1, (n, 1, 2K, K, d) holds 2n + 2K^2 + K(d + 5) + d + 5
        # numbers and (n, 1, 2K, d) holds 2n + 2K(d + 2) + d + 4; memorize
        # emits the smaller, the signed one on a tie.  At the wide weave's 31
        # anchors of width 18,459 that is 611,102 against 1,163,041
        rng = RNG(N)
        m = weave.memorize(list(zip(rng.standard_normal((N, n)),
                                    rng.standard_normal((N, d)))), seed=0)
        K = N - 1
        paired = 2 * n + 2 * K * K + K * (d + 5) + d + 5
        signed = 2 * n + 2 * K * (d + 2) + d + 4
        assert m.theta.size == min(paired, signed)
        assert m.spec.depth == (4 if paired < signed else 3)
        assert (paired < signed) == (d > 2 * K + 1 + 1 / K)

    def test_table2_shape_is_no_larger_than_signed(self):
        # a Table-2 shape, P = 17 and Q = 4 over T = 16 codes: 15 anchors of
        # width 21 keep the signed layout's 711 parameters, where the
        # pairing block would make 824
        w = weave.build_weave(RNG(17).standard_normal((16, 17)), Q=4, delta=0.5, seed=0)
        assert w.hyper_spec.dims == (21, 1, 28, 21)
        assert w.hyper_theta.size == 711
        for t, theta in enumerate(weave.rollout(w, w.T)):
            assert np.max(np.abs(theta - w.M_T * w.codes[t, :17])) <= 1e-9

    @pytest.mark.parametrize("d", [5, 30])
    def test_each_slope_stored_once(self, d):
        # paired (d = 30): a pairing block and one column per slope; signed
        # (d = 5): slope column 2i + 1 is exactly the negative of column 2i,
        # the smaller layout at these widths
        rng = RNG(12)
        N = 12
        m = weave.memorize(list(zip(rng.standard_normal((N, 6)),
                                    rng.standard_normal((N, d)))), seed=0)
        layers, _ = net.unpack(m.spec, m.theta)
        blocks = [A for A, _, _ in layers]
        if d == 5:
            S = blocks[2]
            assert S.shape == (d, 2 * (N - 1))
            assert np.array_equal(S[:, 1::2], -S[:, 0::2])
            S = S[:, 0::2]
        else:
            A2, S = blocks[2:]
            assert np.array_equal(A2, np.kron(np.eye(N - 1), [1.0, -1.0]))  # the pairing block
            assert S.shape == (d, N - 1)
        # no slope column is the negative of another
        for i in range(N - 1):
            for j in range(N - 1):
                assert not np.array_equal(S[:, i], -S[:, j])

    def test_far_anchors_with_projections_of_both_signs(self):
        # anchors near -1e8: beta is ~1e8, and where the projections p
        # straddle 0, gamma must lift them before layer 1's ReLU; 2-wide
        # targets get the signed layout, 12-wide ones the paired one, whose
        # ramps stay >= 0, so layer 3's ReLU with no input shift passes them
        rng = RNG(1)
        xs = -1e8 + 10 * rng.random((6, 3))
        ys = rng.standard_normal((6, 2))
        wide = rng.standard_normal((6, 12))
        straddled = 0
        for seed in range(32):
            for targets, depth in [(ys, 3), (wide, 4)]:
                m = weave.memorize(list(zip(xs, targets)), seed=seed)
                layers, _ = net.unpack(m.spec, m.theta)
                assert m.spec.depth == depth
                (A0, b0, _), (A1, b1, _), (A2, b2, _) = layers[:3]
                p = np.maximum(xs + b0, 0.0) @ A0[0]
                assert np.array_equal(A1, np.ones((10, 1)))
                assert b1[0] == 1.0 + max(0.0, -p.min())
                if depth == 4:
                    knots = np.maximum(p[:, None] + b1 + b2, 0.0)
                    ramps = knots @ A2.T
                    assert np.all(ramps >= 0.0)
                    assert np.array_equal(layers[3][1], np.zeros(5))
                worst = float(np.max(np.abs(net.forward(m.spec, m.theta, xs) - targets)))
                assert worst <= 1e-9
            straddled += p.min() < 0.0 < p.max()
        assert straddled > 0

    def test_zero_slope_at_every_anchor(self):
        # the plateau property: a central difference along every coordinate
        # direction vanishes at each anchor
        rng = RNG(3)
        xs = rng.standard_normal((32, 8))
        ys = rng.standard_normal((32, 8))
        m = weave.memorize(list(zip(xs, ys)), seed=0)
        h = 1e-6
        steps = h * np.eye(8)
        plus = net.forward(m.spec, m.theta, xs[:, None, :] + steps)
        minus = net.forward(m.spec, m.theta, xs[:, None, :] - steps)
        slopes = (plus - minus) / (2 * h)  # (anchor, direction, output)
        assert np.max(np.abs(slopes)) <= 1e-6

    @pytest.mark.parametrize("case", ["collinear_12_in_r200", "9_anchors_in_r2",
                                      "far_offset_n400"])
    def test_edge_anchors_interpolate_flat_from_inside_their_span(self, case):
        rng = RNG(8)
        if case == "collinear_12_in_r200":  # centered anchors of rank 1
            base, step = rng.standard_normal((2, 200))
            xs = base + rng.permutation(12)[:, None] * step
        elif case == "9_anchors_in_r2":  # more anchors than dimensions
            xs = rng.standard_normal((9, 2))
        else:  # beta ~1e8 at a width far beyond the anchor count
            xs = -1e8 + 10 * rng.random((6, 400))
        N, n = xs.shape
        ys = rng.standard_normal((N, 3))
        m = weave.memorize(list(zip(xs, ys)), seed=0)
        assert np.max(np.abs(net.forward(m.spec, m.theta, xs) - ys)) <= 1e-9
        # the plateau: a central difference along every coordinate vanishes
        h = 1e-6
        steps = h * np.eye(n)
        plus = net.forward(m.spec, m.theta, xs[:, None, :] + steps)
        minus = net.forward(m.spec, m.theta, xs[:, None, :] - steps)
        assert np.max(np.abs(plus - minus)) / (2 * h) <= 1e-6
        # the projection direction is a combination of the centered anchors
        w = net.unpack(m.spec, m.theta)[0][0][0][0]
        centered = xs - xs.mean(axis=0)
        coef = np.linalg.lstsq(centered.T, w, rcond=None)[0]
        assert np.linalg.norm(centered.T @ coef - w) <= 1e-9 * np.linalg.norm(w)

    def test_peak_memory_stays_a_small_multiple_of_theta(self):
        # a wide weave's shape: a search that drew its 256 directions at full
        # width n as one block would hold 256 n floats, over 7x theta's 33 n
        N, n = 16, 20_000
        rng = RNG(9)
        pairs = list(zip(rng.standard_normal((N, n)), rng.standard_normal((N, n))))
        tracemalloc.start()
        try:
            m = weave.memorize(pairs, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * m.theta.nbytes


class TestBuildWeave:
    def test_t1_trivial(self):
        w = weave.build_weave(np.array([[1.0, 2.0, 3.0]]), Q=2, delta=0.5)
        assert w.T == 1
        assert np.array_equal(weave.rollout(w, 1)[0], [1.0, 2.0, 3.0])

    def test_t1_hypernetwork_maps_z0_to_itself(self, tmp_path):
        w = weave.build_weave(np.array([[1.0, -2.0, 3.0]]), Q=2, delta=0.5, seed=3)
        assert w.hyper_spec.dims == (5, 5)
        assert np.array_equal(net.forward(w.hyper_spec, w.hyper_theta, w.z0), w.z0)
        assert np.array_equal(weave.rollout(w, 1)[0], [1.0, -2.0, 3.0])
        serial.save_weave(str(tmp_path / "w.bin"), w)
        w2 = serial.load_weave(str(tmp_path / "w.bin"))
        assert w2.hyper_spec == w.hyper_spec
        assert np.array_equal(w2.hyper_theta, w.hyper_theta)
        assert np.array_equal(w2.codes, w.codes)
        assert np.array_equal(weave.rollout(w2, 1)[0], [1.0, -2.0, 3.0])

    def test_packing_validated_once_per_build(self, monkeypatch):
        # one distance pass over the thetas for M_T, and one over the (T, Q)
        # packing points, by the model's own validation
        real = weave._distance_extremes
        shapes = []

        def counted(pts):
            shapes.append(pts.shape)
            return real(pts)

        monkeypatch.setattr(weave, "_distance_extremes", counted)
        w = weave.build_weave(RNG(4).standard_normal((12, 7)), Q=4, delta=0.5)
        assert w.packing.min_separation() > 0.5  # the separation the build measured
        assert sorted(shapes) == [(12, 4), (12, 7)]

    def test_constant_thetas_mt_floor(self):
        th = np.tile(np.array([2.0, -1.0]), (4, 1))
        w = weave.build_weave(th, Q=4, delta=0.5, seed=0)
        assert w.M_T == 1.0
        codes = w.codes
        # codes share the theta block and differ only in the packing block
        assert np.all(codes[:, :2] == th)
        assert len(np.unique(codes, axis=0)) == 4

    def test_rollout_recovers_thetas(self):
        rng = RNG(3)
        th = rng.standard_normal((16, 17))
        w = weave.build_weave(th, Q=4, delta=0.5, seed=0)
        rec = weave.rollout(w, 16)
        scale = max(1.0, float(np.abs(th).max()))
        for t in range(16):
            assert np.max(np.abs(rec[t] - th[t])) / scale <= 1e-6

    def test_readout_is_scaled_first_block(self):
        rng = RNG(4)
        th = rng.standard_normal((4, 5))
        w = weave.build_weave(th, Q=4, delta=0.5, seed=0)
        for t in range(4):
            assert np.array_equal(w.readout(w.codes[t]), w.M_T * w.codes[t][:5])

    def test_horizon_cap(self):
        rng = RNG(5)
        with pytest.raises(InvalidArgumentError):
            weave.build_weave(rng.standard_normal((17, 3)), Q=4, delta=0.5)

    def test_codes_distinct_and_aspect_bound(self):
        rng = RNG(6)
        th = rng.standard_normal((12, 9))
        w = weave.build_weave(th, Q=4, delta=0.5, seed=1)
        assert len(np.unique(w.codes, axis=0)) == 12
        assert weave.aspect_ratio(w.codes) <= math.sqrt(1 + 4 * w.R ** 2) / w.delta

    def test_one_step_memorization(self):
        rng = RNG(7)
        th = rng.standard_normal((8, 6))
        w = weave.build_weave(th, Q=4, delta=0.5, seed=0)
        for t in range(7):
            nxt = net.forward(w.hyper_spec, w.hyper_theta, w.codes[t])
            assert np.max(np.abs(nxt - w.codes[t + 1])) <= 1e-9

    def test_hypernetwork_must_map_codes_to_codes(self):
        w = weave.build_weave(RNG(13).standard_normal((3, 4)), Q=4, delta=0.5)
        spec = net.NetSpec((8, 2, 7), "relu")
        with pytest.raises(InvalidArgumentError, match="hypernetwork dims"):
            dataclasses.replace(w, hyper_spec=spec,
                                hyper_theta=np.zeros(net.param_count(spec)))
        with pytest.raises(InvalidArgumentError, match="codes"):
            dataclasses.replace(w, codes=w.codes[:, 1:])

    def test_rollout_steps_validated(self):
        th = RNG(8).standard_normal((4, 3))
        w = weave.build_weave(th, Q=4, delta=0.5)
        with pytest.raises(InvalidArgumentError):
            weave.rollout(w, 5)
        with pytest.raises(InvalidArgumentError):
            weave.rollout(w, 0)

    def test_peak_memory_below_a_pairwise_broadcast(self):
        # a T x T x P difference array alone would take T^2 * P * 8 bytes
        T, P = 32, 4096
        thetas = RNG(11).standard_normal((T, P))
        tracemalloc.start()
        try:
            weave.build_weave(thetas, Q=8, delta=0.5, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < T * T * P * 8


class TestTable2:
    @pytest.mark.parametrize("delta", [0.0, -0.5, float("nan")])
    def test_nonpositive_delta_rejected(self, delta):
        with pytest.raises(InvalidArgumentError):
            weave.table2_report(17, 4, delta, 1)

    def test_horizon_overflow_is_typed(self):
        with pytest.raises(BudgetOverflowError):
            weave.viable_horizon(2000, 0.5)

    def test_expression_overflow_is_typed(self):
        # I = floor(delta^-4) ~ 3e211 fits a float, but I^2 does not
        with pytest.raises(BudgetOverflowError):
            weave.table2_report(5, 4, 5.854626017002062e-54, 4)

    def test_frozen_width_348(self):
        rep = weave.table2_report(17, 4, 0.5, 16)
        assert rep["I_delta_Q"] == 16
        assert rep["width_bound"] == 21 * 16 + 12 == 348

    def test_frozen_width_q8(self):
        rep = weave.table2_report(50, 8, 0.5, 256)
        assert rep["I_delta_Q"] == 256
        assert rep["width_bound"] == 58 * 256 + 12 == 14860

    def test_degenerate_delta_one(self):
        rep = weave.table2_report(5, 3, 1.0 - 1e-12, 1)
        assert rep["I_delta_Q"] == 1

    def test_t_above_horizon_rejected(self):
        with pytest.raises(InvalidArgumentError):
            weave.table2_report(17, 4, 0.5, 17)

    def test_measured_width_within_bound(self):
        rng = RNG(9)
        th = rng.standard_normal((10, 17))
        w = weave.build_weave(th, Q=4, delta=0.5, seed=0)
        measured = max(w.hyper_spec.dims[1:-1])
        rep = weave.table2_report(17, 4, 0.5, 10, measured_width=measured)
        assert rep["within_width_bound"]


class TestNonFiniteRejected:
    def test_nan_theta(self):
        thetas = np.random.default_rng(0).standard_normal((4, 3))
        thetas[2, 1] = np.nan
        with pytest.raises(InvalidArgumentError, match="finite"):
            weave.build_weave(thetas, Q=4, delta=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_anchor_or_target(self, bad):
        x0, x1 = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        with pytest.raises(InvalidArgumentError, match="finite"):
            weave.memorize([(x0, [1.0]), (np.array([1.0, bad]), [2.0])])
        with pytest.raises(InvalidArgumentError, match="finite"):
            weave.memorize([(x0, [bad]), (x1, [2.0])])
