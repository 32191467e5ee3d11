"""SDE oracles, chaos coordinates, Ito isometry, Lipschitz bound, and the
orbit dataset builder."""

import math
import tracemalloc

import numpy as np
import pytest

from cnoweave import cno, sde
from cnoweave.errors import InvalidArgumentError, OracleDivergedError

RNG = np.random.default_rng


class TestChaosCoords:
    def test_second_moment_formula(self):
        c = sde.ChaosCoords(mean=2.0, coeffs=np.array([1.0, 2.0]), horizon=1.0)
        assert c.second_moment() == pytest.approx(4.0 + 5.0)

    def test_vector_round_trip(self):
        c = sde.ChaosCoords(mean=0.5, coeffs=np.array([1.0, -1.0]), horizon=1.0)
        # [mean, *coeffs]
        assert np.array_equal(c.as_vector(), [0.5, 1.0, -1.0])

    def test_horizon_zero_has_no_chaos(self):
        with pytest.raises(InvalidArgumentError):
            sde.ChaosCoords(mean=1.0, coeffs=np.array([1.0]), horizon=0.0)


class TestModes:
    def test_mode_integral_variance_is_one(self):
        # Ito isometry for a single mode: Var(xi_k) = |phi_k|^2 = 1
        o = sde.McOracle(n_paths=40_000, n_steps=128, seed=0)
        dB = sde._draw_increments(o, 128)
        xi = sde.mode_integrals(dB, o.dt, 1.0, 5)
        var = np.mean(xi * xi, axis=0)
        se = 3.0 / math.sqrt(o.n_paths)  # Var(xi^2) ~ 2 for Gaussian xi
        assert np.all(np.abs(var - 1.0) <= 5 * se)

    def test_mode_count_capped_by_resolution(self):
        with pytest.raises(InvalidArgumentError):
            sde.mode_integrals(np.zeros((10, 4)), 0.25, 1.0, 5)

    @pytest.mark.parametrize("l, resolved", [(1, 1), (2, 1), (3, 3), (4, 3), (5, 5)])
    def test_grid_degenerate_sine_mode_rejected(self, l, resolved):
        # at even l, sine mode l is sin(pi m) = 0 at every left point m / l
        dB = RNG(0).standard_normal((50, l))
        assert sde.mode_integrals(dB, 1.0 / l, 1.0, resolved).shape == (50, resolved)
        with pytest.raises(InvalidArgumentError, match=f"{resolved} modes {l} steps"):
            sde.mode_integrals(dB, 1.0 / l, 1.0, resolved + 1)


class TestSolve:
    def test_grid_index_validates(self):
        o = sde.McOracle(n_steps=4)
        assert o.grid_index(0.25) == 1
        with pytest.raises(InvalidArgumentError):
            o.grid_index(0.3)

    def test_ou_mean_decay(self):
        # E X_t = x0 e^{-t} for OU with rate 1 started at a constant
        c = sde.ou_coeffs(rate=1.0, sigma=0.5)
        eta = sde.ChaosCoords(mean=2.0, coeffs=np.zeros(0), horizon=0.0)
        o = sde.McOracle(n_paths=20_000, n_steps=256, seed=1)
        ends = sde.sde_solve_mc(c, eta, 0.0, 1.0, o, sde._draw_increments(o, 256))
        expect = 2.0 * math.exp(-1.0)
        se = ends.std(ddof=1) / math.sqrt(o.n_paths)
        # allow Euler bias on top of MC noise
        assert abs(ends.mean() - expect) <= 5 * se + 5e-3

    def test_horizon_mismatch_rejected(self):
        c = sde.ou_coeffs()
        eta = sde.ChaosCoords(mean=0.0, coeffs=np.zeros(0), horizon=0.0)
        o = sde.McOracle(n_steps=4)
        with pytest.raises(InvalidArgumentError):
            sde.sde_solve_mc(c, eta, 0.25, 0.5, o, sde._draw_increments(o, 2))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_is_typed(self):
        c = sde.SdeCoeffs(drift=lambda t, x: x * 1e300,
                          diffusion=lambda t, x: np.ones_like(x), M_g=1.0)
        eta = sde.ChaosCoords(mean=1e300, coeffs=np.zeros(0), horizon=0.0)
        o = sde.McOracle(n_paths=10, n_steps=4, seed=0, tamed=False)
        with pytest.raises(OracleDivergedError):
            sde.sde_solve_mc(c, eta, 0.0, 1.0, o, sde._draw_increments(o, 4))

    def test_common_random_numbers(self):
        c = sde.ou_coeffs()
        o = sde.McOracle(n_paths=100, n_steps=16, seed=7)
        eta = sde.ChaosCoords(mean=1.0, coeffs=np.zeros(0), horizon=0.0)
        dB = sde._draw_increments(o, 8)
        r1 = sde.sde_solve_mc(c, eta, 0.0, 0.5, o, dB)
        r2 = sde.sde_solve_mc(c, eta, 0.0, 0.5, o, dB)
        assert r1.shape == (100,)
        assert np.array_equal(r1, r2)

    def test_longer_record_read_to_t_ip1(self):
        c = sde.ou_coeffs()
        o = sde.McOracle(n_paths=300, n_steps=16, seed=7)
        eta = sde.ChaosCoords(mean=0.4, coeffs=np.array([0.3, -0.2]), horizon=0.25)
        long = RNG(1).standard_normal((300, 16)) * math.sqrt(o.dt)
        full = sde.sde_solve_mc(c, eta, 0.25, 0.5, o, dB=long)
        prefix = sde.sde_solve_mc(c, eta, 0.25, 0.5, o, dB=long[:, :8].copy())
        assert np.array_equal(full, prefix)

    @pytest.mark.parametrize("shape", [(299, 8), (300, 7), (300,)])
    def test_recorded_increments_validated(self, shape):
        c = sde.ou_coeffs()
        o = sde.McOracle(n_paths=300, n_steps=16, seed=7)
        eta = sde.ChaosCoords(mean=0.4, coeffs=np.zeros(0), horizon=0.0)
        with pytest.raises(InvalidArgumentError, match=r"\(300, 8\)") as info:
            sde.sde_solve_mc(c, eta, 0.0, 0.5, o, dB=np.zeros(shape))
        assert str(shape) in str(info.value)


class TestProjectChaos:
    def test_affine_in_noise_recovered(self):
        # Y = a + b * xi_1: projection must recover (a, b) up to MC noise
        o = sde.McOracle(n_paths=30_000, n_steps=64, seed=2)
        dB = sde._draw_increments(o, 64)
        xi = sde.mode_integrals(dB, o.dt, 1.0, 3)
        samples = 1.5 + 0.75 * xi[:, 0]
        proj = sde.project_chaos(samples, (dB, o.dt), 1.0, 3)
        assert proj.coords.mean == pytest.approx(1.5, abs=4 * proj.se_mean)
        assert proj.coords.coeffs[0] == pytest.approx(0.75, abs=0.02)
        assert abs(proj.coords.coeffs[1]) <= 0.02
        assert proj.residual <= 1e-3

    def test_synthesize_round_trip(self):
        o = sde.McOracle(n_paths=30_000, n_steps=64, seed=3)
        dB = sde._draw_increments(o, 64)
        coords = sde.ChaosCoords(mean=0.3, coeffs=np.array([1.0, -0.5]), horizon=1.0)
        eta = sde.synthesize_eta(coords, dB, o.dt)
        proj = sde.project_chaos(eta, (dB, o.dt), 1.0, 2)
        assert proj.coords.mean == pytest.approx(0.3, abs=4 * proj.se_mean)
        assert np.allclose(proj.coords.coeffs, coords.coeffs, atol=0.02)


class TestLipschitz:
    def test_ou_within_bound(self):
        c = sde.ou_coeffs(rate=1.0, sigma=0.5)
        o = sde.McOracle(n_paths=5_000, n_steps=64, seed=4)
        rng = RNG(5)
        pairs = []
        for _ in range(5):
            a = sde.ChaosCoords(mean=float(rng.uniform(-1, 1)),
                                coeffs=np.zeros(0), horizon=0.0)
            b = sde.ChaosCoords(mean=float(rng.uniform(-1, 1)),
                                coeffs=np.zeros(0), horizon=0.0)
            pairs.append((a, b))
        out = sde.lipschitz_check(c, pairs, 0.0, 0.25, o)
        assert out["ok"]
        assert out["bound"] == pytest.approx(
            math.sqrt(3.0) * math.exp(1.5 * 1.0 * 1.25 * 0.25)
        )

    def test_degenerate_pairs_skipped(self):
        c = sde.ou_coeffs()
        o = sde.McOracle(n_paths=100, n_steps=8, seed=0)
        eta = sde.ChaosCoords(mean=1.0, coeffs=np.zeros(0), horizon=0.0)
        out = sde.lipschitz_check(c, [(eta, eta)], 0.0, 0.5, o)
        assert out["ratios"] == []
        assert out["max_ratio"] == 0.0

    def test_one_draw_gives_the_per_pair_ratios(self, monkeypatch):
        c = sde.ou_coeffs(rate=1.0, sigma=0.5)
        o = sde.McOracle(n_paths=2_000, n_steps=32, seed=6)
        rng = RNG(8)
        pairs = [
            tuple(sde.ChaosCoords(mean=float(rng.uniform(-1, 1)),
                                  coeffs=rng.uniform(-0.5, 0.5, 3), horizon=0.25)
                  for _ in range(2))
            for _ in range(4)
        ]
        direct = []
        for eta_a, eta_b in pairs:  # each pair on a fresh draw of the oracle's record
            dB = sde._draw_increments(o, 16)
            ends_a = sde.sde_solve_mc(c, eta_a, 0.25, 0.5, o, dB)
            ends_b = sde.sde_solve_mc(c, eta_b, 0.25, 0.5, o, dB)
            den = math.sqrt(float(np.mean(
                (sde.synthesize_eta(eta_a, dB, o.dt)
                 - sde.synthesize_eta(eta_b, dB, o.dt)) ** 2)))
            num = math.sqrt(float(np.mean((ends_a - ends_b) ** 2)))
            direct.append(num / den)
        draws, synthesized = [], []
        real_draw, real_synth = sde._draw_increments, sde.synthesize_eta
        monkeypatch.setattr(sde, "_draw_increments",
                            lambda *a: draws.append(a) or real_draw(*a))
        monkeypatch.setattr(sde, "synthesize_eta",
                            lambda eta, *a: synthesized.append(eta) or real_synth(eta, *a))
        out = sde.lipschitz_check(c, pairs, 0.25, 0.5, o)
        assert out["ratios"] == direct
        assert len(draws) == 1
        assert synthesized == [eta for pair in pairs for eta in pair]  # each once

    def test_horizon_checked_on_degenerate_pairs(self):
        c = sde.ou_coeffs()
        o = sde.McOracle(n_paths=100, n_steps=8, seed=0)
        eta = sde.ChaosCoords(mean=1.0, coeffs=np.zeros(0), horizon=0.0)
        with pytest.raises(InvalidArgumentError, match="start time 0.25"):
            sde.lipschitz_check(c, [(eta, eta)], 0.25, 0.5, o)


class TestGrowthRatio:
    def test_ou_growth_at_most_mg(self):
        c = sde.ou_coeffs(rate=1.0, sigma=0.5)
        xs = np.linspace(-3, 3, 25)
        assert sde.sampled_growth_ratio(c, [0.0, 0.5], xs) <= c.M_g ** 2 + 1e-12


class TestDataset:
    def test_shapes_and_spaces(self):
        c = sde.ou_coeffs()
        grid = cno.TimeGrid(0.25 * np.arange(4))
        o = sde.McOracle(n_paths=500, n_steps=32, seed=0)
        ds = sde.build_sde_dataset(c, grid, (-1.0, 1.0), o, n_modes=4,
                                   n_orbit_samples=6, seed=1)
        assert ds.M == 1
        assert ds.step_dim == 5
        assert ds.n_windows == 3
        for w in ds.windows:
            assert w["inputs"].shape == (6, 5)
            assert w["targets"].shape == (6, 5)
        # the first window's inputs are horizon-0 constants: zero chaos part
        assert np.all(ds.windows[0]["inputs"][:, 1:] == 0.0)
        assert ds.out_spaces[0].kind == "chaos_l2"

    def test_deterministic(self):
        c = sde.ou_coeffs()
        grid = cno.TimeGrid(0.25 * np.arange(3))
        o = sde.McOracle(n_paths=200, n_steps=16, seed=0)
        d1 = sde.build_sde_dataset(c, grid, (-1.0, 1.0), o, 2, 4, seed=9)
        d2 = sde.build_sde_dataset(c, grid, (-1.0, 1.0), o, 2, 4, seed=9)
        for w1, w2 in zip(d1.windows, d2.windows):
            assert np.array_equal(w1["inputs"], w2["inputs"])
            assert np.array_equal(w1["targets"], w2["targets"])

    def test_one_record_per_orbit(self, monkeypatch):
        draws = []
        real = np.random.default_rng

        class Counting:
            def __init__(self, gen):
                self._gen = gen

            def __getattr__(self, name):
                return getattr(self._gen, name)

            def standard_normal(self, *args, **kwargs):
                out = self._gen.standard_normal(*args, **kwargs)
                draws.append(out.shape)
                return out

        monkeypatch.setattr(np.random, "default_rng", lambda *a: Counting(real(*a)))
        monkeypatch.setattr(sde, "_draw_increments", None)  # never the per-step draw
        o = sde.McOracle(n_paths=200, n_steps=16, seed=0)
        sde.build_sde_dataset(sde.ou_coeffs(), cno.TimeGrid(0.25 * np.arange(4)),
                              (-1.0, 1.0), o, 2, 5, seed=9)
        assert draws == [(12, 200)] * 5  # step-major: grid_index(t_end) x n_paths

    def test_windows_chain(self):
        o = sde.McOracle(n_paths=200, n_steps=16, seed=0)
        ds = sde.build_sde_dataset(sde.ou_coeffs(), cno.TimeGrid(0.25 * np.arange(4)),
                                   (-1.0, 1.0), o, 3, 4, seed=2)
        for w, nxt in zip(ds.windows, ds.windows[1:]):
            for row in range(4):
                assert np.array_equal(nxt["inputs"][row], w["targets"][row])

    def test_documented_orbit_seed(self):
        # orbit s reads a step-major record from (seed * 2654435761 + s * 40503) mod (2^31 - 1)
        c = sde.ou_coeffs()
        o = sde.McOracle(n_paths=300, n_steps=16, seed=0)
        seed, s = 3, 2
        ds = sde.build_sde_dataset(c, cno.TimeGrid(0.25 * np.arange(3)), (-1.0, 1.0),
                                   o, 2, 3, seed=seed)
        mean0 = RNG(seed).uniform(-1.0, 1.0, size=3)[s]
        orbit_seed = (seed * 2_654_435_761 + s * 40_503) % (2 ** 31 - 1)
        rec = RNG(orbit_seed).standard_normal((8, 300)) * math.sqrt(o.dt)
        eta = sde.ChaosCoords(mean=mean0, coeffs=np.zeros(0), horizon=0.0)
        ends = sde.sde_solve_mc(c, eta, 0.0, 0.25, o, dB=rec.T)
        proj = sde.project_chaos(ends, (rec.T, o.dt), 0.25, 2)
        assert np.array_equal(ds.windows[0]["targets"][s], proj.coords.as_vector())

    def test_memory_is_one_record(self):
        # the old per-step draws held two n_paths x steps arrays at once
        o = sde.McOracle(n_paths=4_000, n_steps=64, seed=0)
        grid = cno.TimeGrid(0.25 * np.arange(5))
        record_bytes = 4_000 * 64 * 8
        # warm up first: the first draw in a process allocates ~0.5 record once
        sde.build_sde_dataset(sde.ou_coeffs(), grid, (-1.0, 1.0), o, 4, 1, seed=1)
        tracemalloc.start()
        try:
            sde.build_sde_dataset(sde.ou_coeffs(), grid, (-1.0, 1.0), o, 4, 2, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * record_bytes

    @pytest.mark.parametrize("n_steps", [16, 24])
    def test_every_window_is_the_public_walk(self, n_steps):
        # each step: sde_solve_mc from the last projection, then project_chaos
        # onto the modes the step resolves, on the orbit's one record
        c = sde.ou_coeffs()
        o = sde.McOracle(n_paths=300, n_steps=n_steps, seed=0)
        times = 0.25 * np.arange(5)
        seed, n_modes, orbits = 4, 5, 3
        ds = sde.build_sde_dataset(c, cno.TimeGrid(times), (-1.0, 1.0), o,
                                   n_modes, orbits, seed=seed)
        means0 = RNG(seed).uniform(-1.0, 1.0, size=orbits)
        for s in range(orbits):
            orbit_seed = (seed * 2_654_435_761 + s * 40_503) % (2 ** 31 - 1)
            rec = RNG(orbit_seed).standard_normal((n_steps, 300)) * math.sqrt(o.dt)
            eta = sde.ChaosCoords(mean=means0[s], coeffs=np.zeros(0), horizon=0.0)
            prev = np.zeros(1 + n_modes)
            prev[0] = means0[s]
            for j, w in enumerate(ds.windows):
                t0, t1 = float(times[j]), float(times[j + 1])
                l = o.grid_index(t1)
                k = min(n_modes, l - 1 + l % 2)
                ends = sde.sde_solve_mc(c, eta, t0, t1, o, rec.T)
                eta = sde.project_chaos(ends, (rec.T, o.dt), t1, k).coords
                want = np.zeros(1 + n_modes)
                want[:1 + k] = eta.as_vector()
                assert np.array_equal(w["inputs"][s], prev), (s, j)
                assert np.array_equal(w["targets"][s], want), (s, j)
                prev = want

    def test_one_mode_integral_pass_per_step(self, monkeypatch):
        calls = []
        real = sde.mode_integrals
        monkeypatch.setattr(sde, "mode_integrals",
                            lambda *a: calls.append(a[2:]) or real(*a))
        o = sde.McOracle(n_paths=200, n_steps=16, seed=0)
        sde.build_sde_dataset(sde.ou_coeffs(), cno.TimeGrid(0.25 * np.arange(5)),
                              (-1.0, 1.0), o, 2, 3, seed=9)
        assert calls == [(0.25, 2), (0.5, 2), (0.75, 2), (1.0, 2)] * 3

    @pytest.mark.parametrize("times, ks", [
        (0.25 * np.arange(5), (3, 7, 8, 8)),  # 4, 8, 12, 16 steps resolve 3, 7, 11, 15
        (np.array([0.0, 0.25]), (3,)),  # sine mode 4 vanishes at 4 left points
    ])
    def test_coarse_steps_cap_the_modes(self, times, ks):
        o = sde.McOracle(n_paths=2_000, n_steps=16, seed=0)
        ds = sde.build_sde_dataset(sde.ou_coeffs(), cno.TimeGrid(times), (-1.0, 1.0), o,
                                   8, 4, seed=0)
        for w, k in zip(ds.windows, ks, strict=True):
            targets = w["targets"]
            assert np.all(targets[:, 1 + k:] == 0.0)
            assert np.all(targets[:, k] != 0.0)
            assert np.max(np.abs(targets[:, 1:])) < 5.0
