"""Packings, aspect ratios, exact memorization, and the dynamic weave."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


def reference_extremes(pts):
    """The direct pass over every row that the screened _distance_extremes
    must match bit for bit."""
    lo = np.empty(len(pts) - 1)
    hi = np.empty(len(pts) - 1)
    for a in range(len(pts) - 1):
        diff = pts[a + 1:] - pts[a]
        d = np.sqrt(np.sum(diff * diff, axis=-1))
        lo[a] = d.min()
        hi[a] = d.max()
    return float(lo.min()), float(hi.max())


def reference_greedy(pool, delta, T_needed, start):
    """The direct farthest-point pass over the whole pool that the screened
    _greedy_farthest must match bit for bit."""
    chosen = [pool[start]]
    dists = np.linalg.norm(pool - pool[start], axis=1)
    while len(chosen) < T_needed:
        i = int(np.argmax(dists))
        if dists[i] <= delta:
            break
        chosen.append(pool[i])
        dists = np.minimum(dists, np.linalg.norm(pool - pool[i], axis=1))
    return np.array(chosen)


def same_floats(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_extremes_match(pts):
    with np.errstate(over="ignore"):  # the direct pass overflows where the points do
        assert same_floats(weave._distance_extremes(pts), reference_extremes(pts))


def assert_greedy_matches(pool, delta, T_needed, start=0):
    with np.errstate(over="ignore"):
        got = weave._greedy_farthest(pool, delta, T_needed, start)
        assert same_floats(got, reference_greedy(pool, delta, T_needed, start))


class TestScreens:
    """The BLAS screens in front of the distance passes pick the same floats
    as the direct passes over every pair."""

    @settings(max_examples=60, deadline=None)
    @given(T=st.integers(2, 90), n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           exponent=st.integers(-300, 300), offset=st.sampled_from([0.0, 1.0, 1e12]))
    def test_extremes_on_drawn_shapes(self, T, n, seed, exponent, offset):
        assert_extremes_match(RNG(seed).standard_normal((T, n)) * 10.0 ** exponent + offset)

    @pytest.mark.parametrize("case", ["near_ties", "duplicates", "constant", "offset_1e12",
                                      "overflow_1e160", "subnormal", "two_points", "lattice",
                                      "no_columns"])
    @pytest.mark.parametrize("T", [2, 11, 12, 64, 300])
    def test_extremes_at_the_edges(self, case, T):
        rng = RNG(T)
        pts = rng.standard_normal((T, 3))
        if case == "near_ties":
            # a regular polygon's equal sides and diagonals, each nudged by an ulp
            angle = 2 * np.pi * np.arange(T) / T
            pts = np.stack([np.cos(angle), np.sin(angle), np.zeros(T)], axis=1)
            pts[::2, 2] = np.nextafter(0.0, 1.0) * rng.integers(0, 3, len(pts[::2]))
            pts[1::3, 0] = np.nextafter(pts[1::3, 0], 2.0)
        elif case == "duplicates":
            pts[T // 2] = pts[0]
        elif case == "constant":
            pts[:] = pts[0]
        elif case == "offset_1e12":
            pts += 1e12
        elif case == "overflow_1e160":
            pts *= 1e160
        elif case == "subnormal":
            pts *= 1e-310
        elif case == "two_points":
            pts = pts[:2]
        elif case == "lattice":
            pts = np.floor(pts * 2.0)
        elif case == "no_columns":
            pts = pts[:, :0]
        assert_extremes_match(pts)

    def test_huge_thetas_raise_without_new_warnings(self):
        thetas = RNG(0).standard_normal((40, 5)) * 1e160
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(InvalidArgumentError, match="M_T must be finite"):
                weave.build_weave(thetas, Q=8, delta=0.5)
        # only the direct pass's own overflow, which the parent pass also raised
        assert {str(w.message) for w in seen} == {"overflow encountered in multiply"}

    @pytest.mark.parametrize("Q", range(1, 9))
    def test_packing_at_the_viable_horizon(self, Q, monkeypatch):
        T = weave.viable_horizon(Q, 0.5)
        got = weave._pack_points(Q, 1.0, 0.5, T, seed=0)
        monkeypatch.setattr(weave, "_greedy_farthest", reference_greedy)
        assert same_floats(got, weave._pack_points(Q, 1.0, 0.5, T, seed=0))

    @pytest.mark.parametrize("T, P, Q", [(8, 251, 4), (4, 628, 4), (32, 18451, 8)])
    def test_benchmark_shapes_build_the_same_weave(self, T, P, Q, monkeypatch):
        # construct-serve, sde-orbits and weave-wide
        thetas = RNG(T).standard_normal((T, P))
        got = weave.build_weave(thetas, Q=Q, delta=0.5, seed=1)
        monkeypatch.setattr(weave, "_greedy_farthest", reference_greedy)
        monkeypatch.setattr(weave, "_distance_extremes", reference_extremes)
        ref = weave.build_weave(thetas, Q=Q, delta=0.5, seed=1)
        assert got.M_T == ref.M_T
        assert same_floats(got.codes, ref.codes)
        assert same_floats(got.hyper_theta, ref.hyper_theta)

    @pytest.mark.parametrize("case", ["duplicate_rows", "lattice", "huge_ball", "tiny_ball"])
    def test_greedy_at_the_edges(self, case):
        rng = RNG(3)
        pool = rng.uniform(-1, 1, (4096, 3))
        delta, T = 0.5, 40
        if case == "duplicate_rows":
            # every point twice: each maximum is tied, and the first index wins
            pool = np.repeat(pool[:2048], 2, axis=0)
        elif case == "lattice":
            # 9^3 points of a grid: whole shells of exactly tied distances
            axis = np.linspace(-1, 1, 9)
            pool = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
            delta, T = 0.2, 200
        elif case == "huge_ball":
            # squared norms past the screen's range: every point is measured directly
            pool, delta = pool * 1e155, 0.5e155
        elif case == "tiny_ball":
            pool, delta = pool * 1e-160, 0.5e-160
        assert_greedy_matches(pool, delta, T, start=7)


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
        assert max(m.spec.dims[1:-1]) == 5 <= 3 * 5 + 12

    @pytest.mark.parametrize("N", [2, 3, 9])
    def test_width_one_projection_layout(self, N):
        # one knot unit per anchor but the last, behind a width-1 projection,
        # for narrow and wide targets alike
        K = N - 1
        rng = RNG(N)
        for d in (3, 2 * K + 3):
            pairs = [(rng.standard_normal(4), rng.standard_normal(d)) for _ in range(N)]
            m = weave.memorize(pairs, seed=0)
            assert m.spec.dims == (4, 1, K, d)

    @pytest.mark.parametrize("N, n, d", [(2, 4, 3), (2, 4, 5), (9, 5, 2), (9, 5, 18),
                                         (9, 5, 19), (31, 40, 40), (31, 40, 62),
                                         (31, 40, 80)])
    def test_param_count_closed_form(self, N, n, d):
        # with K = N - 1, (n, 1, K, d) holds 2n + K(d + 2) + d + 4 numbers.
        # At the wide weave's 31 anchors of width 18,460 that is 609,244
        rng = RNG(N)
        m = weave.memorize(list(zip(rng.standard_normal((N, n)),
                                    rng.standard_normal((N, d)))), seed=0)
        K = N - 1
        assert m.theta.size == 2 * n + K * (d + 2) + d + 4
        assert m.spec.depth == 3

    def test_table2_shape_is_no_larger_than_signed(self):
        # a Table-2 shape, P = 17 and Q = 4 over T = 16 codes: 15 anchors of
        # width 22 (the clock included) take 406 parameters, where the signed
        # layout took 711 and the pairing block 824 on the clockless codes
        w = weave.build_weave(RNG(17).standard_normal((16, 17)), Q=4, delta=0.5, seed=0)
        assert w.hyper_spec.dims == (22, 1, 14, 22)
        assert w.hyper_theta.size == 406
        for t, theta in enumerate(weave.rollout(w, w.T)):
            assert np.max(np.abs(theta - w.M_T * w.codes[t, :17])) <= 1e-9

    @pytest.mark.parametrize("d", [5, 30])
    def test_each_slope_stored_once(self, d):
        # the slope block's column i is the change of slope at knot i, so its
        # running sum is each segment's rise over its run between anchors
        rng = RNG(12)
        N = 12
        xs, ys = rng.standard_normal((N, 6)), rng.standard_normal((N, d))
        m = weave.memorize(list(zip(xs, ys)), seed=0)
        layers, _ = net.unpack(m.spec, m.theta)
        (A0, b0, _), (_, b1, _), (S, b2, _) = layers
        assert S.shape == (d, N - 1)
        s = np.maximum(xs + b0, 0.0) @ A0[0] + b1
        order = np.argsort(s)
        segments = np.diff(ys[order], axis=0) / np.diff(s[order])[:, None]
        assert np.allclose(np.cumsum(S, axis=1).T, segments, rtol=1e-9, atol=1e-9)

    def test_knots_sit_on_the_anchors_as_the_network_projects_them(self):
        # knot unit i switches on exactly at the i-th sorted anchor's
        # projection, as layers 0 and 1 compute it
        rng = RNG(3)
        xs = rng.standard_normal((32, 8))
        m = weave.memorize(list(zip(xs, rng.standard_normal((32, 8)))), seed=0)
        (A0, b0, _), (A1, b1, _), (_, b2, _) = net.unpack(m.spec, m.theta)[0]
        s = np.dot(np.maximum(xs + b0, 0.0), A0.T) + b1
        assert np.array_equal(A1, np.ones((31, 1)))
        assert np.array_equal(np.sort(s[:, 0])[:-1], -b2)

    def test_far_anchors_with_projections_of_both_signs(self):
        # anchors near -1e8: beta is ~1e8, and where the projections p
        # straddle 0, gamma must lift them before layer 1's ReLU
        rng = RNG(1)
        xs = -1e8 + 10 * rng.random((6, 3))
        straddled = 0
        for seed in range(32):
            for targets in (rng.standard_normal((6, 2)), rng.standard_normal((6, 12))):
                m = weave.memorize(list(zip(xs, targets)), seed=seed)
                layers, _ = net.unpack(m.spec, m.theta)
                assert m.spec.depth == 3
                (A0, b0, _), (A1, b1, _) = layers[:2]
                p = np.maximum(xs + b0, 0.0) @ A0[0]
                assert np.array_equal(A1, np.ones((5, 1)))
                assert b1[0] == 1.0 + max(0.0, -p.min())
                worst = float(np.max(np.abs(net.forward(m.spec, m.theta, xs) - targets)))
                assert worst <= 1e-9
            straddled += p.min() < 0.0 < p.max()
        assert straddled > 0

    @pytest.mark.parametrize("case", ["collinear_12_in_r200", "9_anchors_in_r2",
                                      "far_offset_n400"])
    def test_edge_anchors_fit_inside_their_span(self, case):
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
        assert w.hyper_spec.dims == (6, 6)
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

    @pytest.mark.parametrize("T", [3, 5, 16])
    def test_one_knot_per_anchor_along_the_clock(self, T):
        P, Q = 7, 4
        w = weave.build_weave(RNG(T).standard_normal((T, P)), Q=Q, delta=0.5, seed=0)
        n = P + Q + 1
        assert w.hyper_spec.dims == (n, 1, T - 2, n)
        assert w.clocked and np.array_equal(w.codes[:, -1], np.arange(T) / (T - 1))
        (A0, _, _), *_ = w.hyper_layers[0]
        assert np.array_equal(A0, np.eye(1, n, n - 1))  # layer 0 reads the clock alone
        assert w.aspect_bound == math.sqrt(2 + 4 * w.R ** 2) / w.delta

    def test_build_never_searches_a_projection(self, monkeypatch):
        def searched(*args):
            raise AssertionError("build_weave searched a projection")

        monkeypatch.setattr(weave, "_projection_direction", searched)
        th = RNG(14).standard_normal((9, 5))
        w = weave.build_weave(th, Q=4, delta=0.5, seed=0)
        w.check_successors()
        assert np.max(np.abs(weave.rollout(w, 9) - th)) <= 1e-12 * max(1.0, np.abs(th).max())

    def test_far_offset_thetas_keep_the_clock_resolved(self):
        # thetas near -1e15 a few units apart: layer 0's shift lifts only the
        # clock it reads, so the clock keeps its 1/63 gaps, where a shift of
        # ~1e15 would round them away
        th = -1e15 + RNG(0).standard_normal((64, 5))
        w = weave.build_weave(th, Q=6, delta=0.5)
        assert w.hyper_layers[0][0][1][-1] == 1.0
        w.check_successors()
        assert np.max(np.abs(weave.rollout(w, 64) - th)) / np.abs(th).max() <= 1e-6

    def test_codes_must_carry_the_clock_or_none(self):
        w = weave.build_weave(RNG(15).standard_normal((4, 3)), Q=4, delta=0.5)
        late = w.codes.copy()
        late[1, -1] += 1e-12
        with pytest.raises(InvalidArgumentError, match="clock"):
            dataclasses.replace(w, codes=late)
        with pytest.raises(InvalidArgumentError, match="nonempty"):
            dataclasses.replace(w, codes=w.codes[:0])
        # clockless codes, as saved before the clock, with a net of their width
        spec = net.NetSpec((7, 7), "relu")
        old = dataclasses.replace(w, codes=w.codes[:, :-1], hyper_spec=spec,
                                  hyper_theta=np.zeros(net.param_count(spec)))
        assert not old.clocked
        assert old.aspect_bound == math.sqrt(1 + 4 * w.R ** 2) / w.delta
        assert np.array_equal(old.packing.points, w.packing.points)

    def test_successor_blocks_match_one_forward(self):
        # 299 codes run as three blocks; the reference is one forward over all.
        # BLAS may round a smaller product differently, so the bound is a tenth
        # of the gate's tolerance, not bit-equality
        T = 300
        w = weave.build_weave(RNG(16).standard_normal((T, 20)), Q=9, delta=0.5, seed=0)
        layers, c = w.hyper_layers
        miss = np.abs(net._realize(layers, c, w.codes[:-1]) - w.codes[1:]).max(axis=1)
        miss /= max(1.0, np.abs(w.codes).max())
        assert -(-(T - 1) // weave.SUCCESSOR_BLOCK) == 3
        assert np.max(np.abs(w.successor_residuals - miss)) <= weave.SUCCESSOR_TOLERANCE / 10

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



@pytest.fixture(scope="class")
def horizon_edge():
    """One weave at the viable horizon's edge, P = 50 and T = 2048 =
    floor(0.5^-11), and its build's traced peak."""
    thetas = RNG(7).standard_normal((2048, 50))
    tracemalloc.start()
    try:
        w = weave.build_weave(thetas, Q=11, delta=0.5, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return thetas, w, peak


class TestHorizonEdge:
    def test_successor_gate_holds(self, horizon_edge):
        _, w, _ = horizon_edge
        assert w.hyper_spec.dims == (62, 1, 2046, 62)
        w.check_successors()

    def test_recovery(self, horizon_edge):
        thetas, w, _ = horizon_edge
        rec = weave.rollout(w, w.T)
        assert np.max(np.abs(rec - thetas)) / max(1.0, np.abs(thetas).max()) <= 1e-6

    def test_aspect_ratio_matches_the_direct_pass(self, horizon_edge):
        _, w, _ = horizon_edge
        hi_lo = reference_extremes(w.codes)[::-1]
        assert same_floats(weave.aspect_ratio(w.codes), np.divide(*hi_lo))

    def test_successor_gate_peak(self, horizon_edge):
        # the gate runs the hypernetwork on blocks of codes: one forward over
        # all 2047 would hold a (2047, 2046) hidden layer, 32 MB
        _, w, _ = horizon_edge
        fresh = dataclasses.replace(w)  # its residuals are not yet cached
        tracemalloc.start()
        try:
            fresh.check_successors()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * (w.codes.nbytes + w.hyper_theta.nbytes)

    def test_build_peak(self, horizon_edge):
        # theta and the codes are 0.8 and 1 MB; the packing's candidate
        # pools take most of the rest
        _, _, peak = horizon_edge
        assert peak < 24 * 2**20


THREADED_BUILD = """
import hashlib, sys
import numpy as np
from cnoweave import serial, weave
# weave-wide's thetas, and a horizon long enough for the largest candidate pool
for i, (T, P, Q) in enumerate([(32, 18451, 8), (700, 50, 10)]):
    w = weave.build_weave(np.random.default_rng(T).standard_normal((T, P)), Q=Q, delta=0.5)
    path = f"{sys.argv[1]}/w{i}.bin"
    serial.save_weave(path, w)
    with open(path, "rb") as fh:
        print(hashlib.sha256(fh.read()).hexdigest(), repr(weave.aspect_ratio(w.codes)))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU runs one BLAS thread")
def test_weave_bytes_independent_of_the_blas_thread_count(tmp_path):
    # the screens' products round differently across thread counts; the
    # direct passes behind them do not
    src = os.path.dirname(os.path.dirname(weave.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = {}
    for threads in ("1", "2"):
        d = tmp_path / threads
        d.mkdir()
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", THREADED_BUILD, str(d)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out[threads] = proc.stdout
    assert out["1"] == out["2"]
    assert len(out["1"].splitlines()) == 2


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
