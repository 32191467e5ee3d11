"""Space instances: projection/reconstruction, metrics, and truncation."""

import math

import numpy as np
import pytest

from cnoweave import spaces
from cnoweave.errors import InvalidArgumentError, SpaceMismatchError

RNG = np.random.default_rng

ALL_SPACES = [
    spaces.euclidean(4),
    spaces.weighted_sequence(),
    spaces.fourier_l2(1.0),
    spaces.chaos_l2(3, 1.0),
]


def random_element(space, rng, n=4):
    coords = rng.standard_normal(n)
    if space.kind == "euclidean":
        return coords[: space.dim] if space.dim <= n else np.pad(coords, (0, space.dim - n))
    if space.kind == "chaos_l2":
        return rng.standard_normal(1 + space.mode_count)
    if space.kind == "fourier_l2":
        return spaces.FourierFunction(coords, space.horizon)
    return coords


class TestProjectReconstruct:
    def test_euclidean_identity(self):
        e3 = spaces.euclidean(3)
        v = spaces.project(e3, np.array([1.0, 2.0, 3.0]), 3)
        assert np.array_equal(v.coords, [1.0, 2.0, 3.0])

    def test_weighted_sequence_basis_vector(self):
        ws = spaces.weighted_sequence()
        v = spaces.project(ws, np.array([1.0]), 2)
        assert np.array_equal(v.coords, [1.0, 0.0])

    def test_fourier_sin_mode_quadrature(self):
        # f_2(s) = sqrt(2) sin(2 pi s) on [0,1]; projecting it gives e_2
        f = spaces.fourier_l2(1.0)
        v = spaces.project(f, lambda s: math.sqrt(2.0) * np.sin(2 * math.pi * np.asarray(s)), 3)
        assert np.allclose(v.coords, [0.0, 1.0, 0.0], rtol=0, atol=1e-12)

    def test_fourier_constant_mode_norm(self):
        # the constant mode is 1/sqrt(t) with unit norm: the constant 1 on
        # [0, 4] is 2 f_1, and no other mode sees it
        f = spaces.fourier_l2(4.0)
        v = spaces.project(f, lambda s: np.ones_like(np.asarray(s)), 5)
        assert np.allclose(v.coords, [2.0, 0, 0, 0, 0], rtol=0, atol=1e-12)

    def test_reconstruct_zero(self):
        e2 = spaces.euclidean(2)
        out = spaces.reconstruct(e2, spaces.CoordVector(np.zeros(2), e2))
        assert np.array_equal(out, np.zeros(2))

    def test_weighted_sequence_reconstruct(self):
        ws = spaces.weighted_sequence()
        out = spaces.reconstruct(ws, spaces.CoordVector(np.array([1.0, 1.0]), ws))
        assert np.array_equal(out, [1.0, 1.0])

    def test_fourier_cos_reconstruct_pointwise(self):
        f = spaces.fourier_l2(1.0)
        v = spaces.CoordVector(np.array([0.0, 0.0, 1.0]), f)
        fn = spaces.reconstruct(f, v)
        s = np.linspace(0, 1, 7)
        assert np.allclose(fn(s), math.sqrt(2.0) * np.cos(2 * math.pi * s))

    def test_every_mode_projects_to_its_unit_vector(self):
        f = spaces.fourier_l2(2.0)
        n = 2 * f.k_max
        for k in range(1, n + 1):
            v = spaces.project(f, lambda s, k=k: spaces.trig_mode(k, 2.0, s), n)
            assert np.max(np.abs(v.coords - np.eye(n)[k - 1])) <= 1e-12, k

    def test_callable_and_coefficients_agree(self):
        # one function given by coefficients and pointwise is one element
        f = spaces.fourier_l2(2.0)
        g = spaces.FourierFunction([0.3, -1.0, 0.5], 2.0)
        pointwise = lambda s: g(s)  # noqa: E731
        assert np.max(np.abs(spaces.project(f, pointwise, 3).coords - g.coeffs)) <= 1e-12
        assert spaces.metric(f, g, pointwise) <= 1e-12

    def test_biorthogonality_bit_for_bit(self):
        rng = RNG(0)
        for space in ALL_SPACES:
            cd = space.coord_dim()
            for n in range(1, 9):
                if cd is not None and n > cd:
                    break
                coords = rng.standard_normal(n)
                v = spaces.CoordVector(coords, space)
                back = spaces.project(space, spaces.reconstruct(space, v), n)
                assert np.array_equal(back.coords, coords), (space.kind, n)

    def test_project_validates(self):
        e3 = spaces.euclidean(3)
        with pytest.raises(InvalidArgumentError):
            spaces.project(e3, np.zeros(3), 0)
        with pytest.raises(InvalidArgumentError):
            spaces.project(e3, np.zeros(3), 4)
        with pytest.raises(InvalidArgumentError):
            spaces.project(e3, np.zeros(2), 2)

    def test_space_mismatch(self):
        e2, e3 = spaces.euclidean(2), spaces.euclidean(3)
        v = spaces.CoordVector(np.zeros(2), e2)
        with pytest.raises(SpaceMismatchError):
            spaces.reconstruct(e3, v)


class TestTrigModes:
    def test_orthonormal_on_fine_grid(self):
        t = 1.0
        n = 4096
        s = (np.arange(n) + 0.5) * (t / n)
        for j in range(1, 8):
            for k in range(j, 8):
                ip = float(np.sum(spaces.trig_mode(j, t, s) * spaces.trig_mode(k, t, s))) * (t / n)
                assert ip == pytest.approx(1.0 if j == k else 0.0, abs=1e-6), (j, k)

    def test_constant_mode(self):
        assert spaces.trig_mode(1, 4.0, np.array([0.3]))[0] == pytest.approx(0.5)


class TestMetric:
    def test_zero_on_equal(self):
        rng = RNG(1)
        for space in ALL_SPACES:
            x = random_element(space, rng)
            assert spaces.metric(space, x, x) == 0.0

    def test_frozen_euclidean(self):
        # d(3, 1) = (1/2) Phi(2) = 1/3
        e1 = spaces.euclidean(1)
        assert spaces.metric(e1, np.array([3.0]), np.array([1.0])) == pytest.approx(1 / 3)

    def test_frozen_sequence_e1(self):
        # every series term is 2^-k * Phi(1) = 2^-k / 2, total 1/2 minus tail
        ws = spaces.weighted_sequence()
        d = spaces.metric(ws, np.array([1.0]), np.array([0.0]))
        assert d == pytest.approx(0.5, abs=spaces.metric_tail(ws) + 1e-15)

    def test_terms_bounded_by_weights(self):
        # d <= sum 2^-k since Phi < 1
        ws = spaces.weighted_sequence()
        rng = RNG(2)
        x = rng.standard_normal(8) * 1e6
        assert spaces.metric(ws, x, np.zeros(8)) < 1.0

    def test_metric_axioms_random_triples(self):
        rng = RNG(3)
        for space in ALL_SPACES:
            tail = spaces.metric_tail(space)
            for _ in range(250):
                n = int(rng.integers(1, 5))
                a, b, c = (spaces.CoordVector(rng.standard_normal(n), space)
                           for _ in range(3))
                dab = spaces.metric(space, a, b)
                dba = spaces.metric(space, b, a)
                dac = spaces.metric(space, a, c)
                dcb = spaces.metric(space, c, b)
                assert dab >= 0.0
                assert dab == pytest.approx(dba, abs=1e-14)
                assert dab <= dac + dcb + 2 * tail + 1e-12
                if not np.array_equal(a.coords, b.coords):
                    assert dab > 0.0

    def test_fourier_metric_is_the_l2_distance(self):
        # by Parseval |f_1 + f_2| = sqrt(2), so d(f_1 + f_2, 0) = Phi(sqrt 2) / 2
        t = 3.0
        f = spaces.fourier_l2(t)
        pair = lambda s: spaces.trig_mode(1, t, s) + spaces.trig_mode(2, t, s)  # noqa: E731
        zero = lambda s: np.zeros_like(s)  # noqa: E731
        assert spaces.metric(f, pair, zero) == pytest.approx(
            0.5 * spaces.phi(math.sqrt(2.0)), abs=1e-12)

    def test_fourier_metric_measures_a_callable_past_the_projected_modes(self):
        # mode 200 lies past the 2 k_max = 128 modes projection reads; it has
        # unit L^2 norm, so d(f_200, 0) = Phi(1) / 2
        f = spaces.fourier_l2(1.0)
        mode = lambda s: spaces.trig_mode(200, 1.0, s)  # noqa: E731
        for zero in (np.zeros(1), spaces.FourierFunction([0.0], 1.0), lambda s: 0.0 * s):
            assert spaces.metric(f, mode, zero) == pytest.approx(0.25, abs=1e-12)
            assert spaces.metric(f, zero, mode) == pytest.approx(0.25, abs=1e-12)

    def test_fourier_metric_aliases_from_mode_512(self):
        # the 1,024-interval Simpson weights integrate |f_k|^2 exactly up to
        # mode 511; mode 512's square has frequency 512 and aliases
        f = spaces.fourier_l2(1.0)
        zero = np.zeros(1)
        exact = spaces.metric(f, lambda s: spaces.trig_mode(511, 1.0, s), zero)
        aliased = spaces.metric(f, lambda s: spaces.trig_mode(512, 1.0, s), zero)
        assert exact == pytest.approx(0.25, abs=1e-12)
        assert abs(aliased - 0.25) > 0.01

    def test_metric_norm_equivalence_euclidean(self):
        # convergence in the metric iff in the 2-norm on R^n
        e4 = spaces.euclidean(4)
        rng = RNG(4)
        base = rng.standard_normal(4)
        for k in range(1, 20):
            x = base + rng.standard_normal(4) * 2.0 ** (-k)
            d = spaces.metric(e4, x, base)
            nrm = np.linalg.norm(x - base)
            # two-sided comparison: Phi(u)/2 <= d <= u/2
            assert 0.5 * nrm / (1 + nrm) - 1e-15 <= d <= 0.5 * nrm + 1e-15


def truncation_error(space, samples, n):
    """max over samples of d(A_n(x), x)."""
    return max(spaces.metric(space, spaces.truncate(space, x, n), x) for x in samples)


class TestTruncation:
    def test_full_dim_profile_zero(self):
        e3 = spaces.euclidean(3)
        samples = [RNG(5).standard_normal(3) for _ in range(5)]
        assert truncation_error(e3, samples, 3) == 0.0

    def test_frozen_e5_at_n4(self):
        # d(0, e5) has nonzero terms only for k >= 5, each 2^-k Phi(1):
        # sum_{k>=5} 2^-k / 2 = (2^-4) / 2 = 2^-5
        ws = spaces.weighted_sequence()
        e5 = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        assert truncation_error(ws, [e5], 4) == pytest.approx(
            2.0 ** -5, abs=spaces.metric_tail(ws) + 1e-15)

    def test_profile_nonincreasing(self):
        rng = RNG(6)
        for space in ALL_SPACES:
            n_hi = space.coord_dim() or 8
            samples = [spaces.CoordVector(rng.standard_normal(n_hi), space)
                       for _ in range(6)]
            vals = [truncation_error(space, samples, n) for n in range(1, n_hi + 1)]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_geometric_decay_strictly_decreasing(self):
        ws = spaces.weighted_sequence()
        x = 2.0 ** -np.arange(1, 9)
        vals = [truncation_error(ws, [x], n) for n in range(1, 8)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestDescriptions:
    def test_round_trip(self):
        for space in ALL_SPACES:
            assert spaces.from_description(space.describe()) == space

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidArgumentError, match="unknown space kind"):
            spaces.from_description({"kind": "sobolev"})
