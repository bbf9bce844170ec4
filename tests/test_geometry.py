import warnings
from fractions import Fraction

import numpy as np
import pytest

from polaron1d import geometry as G
from polaron1d import paths as P

from oracles import full_survival_log_weights

SEED = 31901


def generator(index):
    """A fresh numpy Generator on the key [SEED, index]."""
    return np.random.default_rng([SEED, index])


def dirichlet_survival(beta, L=1.0, n_terms=40):
    """Interval Dirichlet heat content over box volume, eigenfunction series."""
    n = np.arange(1, 2 * n_terms, 2)
    return float(np.sum((8 / (n**2 * np.pi**2)) * np.exp(-beta * n**2 * np.pi**2 / (8 * L**2))))


class TestSpinSector:
    def test_p_from_m(self):
        s = G.SpinSector.from_M(2, 0)
        assert s.p == 1 and s.M == 0
        s = G.SpinSector.from_M(3, Fraction(1, 2))
        assert s.p == 1 and s.M == Fraction(1, 2)
        s = G.SpinSector.from_M(3, Fraction(-3, 2))
        assert s.p == 3

    def test_m_in_allowed_set(self):
        for N in (1, 2, 3, 4):
            for p in range(N + 1):
                allowed = {Fraction(N, 2) - j for j in range(N // 2 + 1)}
                assert abs(G.SpinSector(N, p).M) in allowed

    def test_validation(self):
        with pytest.raises(ValueError):
            G.SpinSector(2, 3)
        with pytest.raises(ValueError):
            G.SpinSector(2, -1)
        with pytest.raises(ValueError):
            G.SpinSector.from_M(2, Fraction(1, 2))


class TestOrderedDomain:
    def test_volume(self):
        assert G.OrderedDomain(G.SpinSector(2, 1), 1.0).volume == pytest.approx(4.0)
        assert G.OrderedDomain(G.SpinSector(2, 2), 1.0).volume == pytest.approx(2.0)
        assert G.OrderedDomain(G.SpinSector(3, 2), 1.0).volume == pytest.approx(4.0)

    def test_contains_examples(self):
        d22 = G.OrderedDomain(G.SpinSector(2, 2), 1.0)
        assert G.contains(d22, [-0.5, 0.5]) is True
        assert G.contains(d22, [0.5, -0.5]) is False
        d21 = G.OrderedDomain(G.SpinSector(2, 1), 1.0)
        assert G.contains(d21, [0.5, -0.5]) is True
        assert G.contains(d21, [0.5, 1.5]) is False

    def test_coincidence_counts_as_exit(self):
        d = G.OrderedDomain(G.SpinSector(2, 2), 1.0)
        assert G.contains(d, [0.3, 0.3]) is False

    def test_dimension_mismatch(self):
        d = G.OrderedDomain(G.SpinSector(2, 1), 1.0)
        with pytest.raises(ValueError):
            G.contains(d, [0.1, 0.2, 0.3])

    def test_block_role_exchange(self):
        # Swapping the two chains (with relabeling) does not change
        # membership when the block sizes match.
        rng = np.random.default_rng(SEED)
        d = G.OrderedDomain(G.SpinSector(4, 2), 1.0)
        x = rng.uniform(-1.1, 1.1, size=(500, 4))
        swapped = np.concatenate([x[:, 2:], x[:, :2]], axis=1)
        assert np.array_equal(G.contains(d, x), G.contains(d, swapped))

    @pytest.mark.parametrize("N,p", [(1, 0), (2, 1), (2, 2), (3, 1), (4, 2)])
    def test_contains_all_is_contains_on_every_node(self, N, p):
        rng = np.random.default_rng(SEED)
        d = G.OrderedDomain(G.SpinSector(N, p), 1.0)
        x = np.sort(rng.uniform(-1.02, 1.02, size=(400, 3, N)), axis=-1)
        x[:50] = rng.uniform(-1.02, 1.02, size=(50, 3, N))
        x[50, 1, 0] = np.nan
        x[51, 2, -1] = 1.0  # on the wall
        x[52, 0] = 0.25  # every coordinate equal
        expected = np.all(G.contains(d, x), axis=-1)
        assert 0 < expected.sum() < len(x)
        assert np.array_equal(G.contains_all(d, x), expected)
        assert G.contains_all(d, x[:0]).shape == (0,)


def survival_weight(states, domain, dt):
    return float(np.exp(G.survival_log_weights(states, domain, dt)))


class TestSurvivalWeight:
    def test_far_from_constraints(self):
        d = G.OrderedDomain(G.SpinSector(1, 0), 1.0)
        dt = 0.01
        states = np.zeros((101, 1))  # distance 1 to each wall, 5*sqrt(dt)=0.5
        w = survival_weight(states, d, dt)
        assert w >= 1 - 1e-9
        assert w <= 1.0

    def test_touching_constraint_is_zero(self):
        d = G.OrderedDomain(G.SpinSector(1, 0), 1.0)
        states = np.array([[0.0], [1.0], [0.0]])
        assert survival_weight(states, d, 0.1) == 0.0
        d2 = G.OrderedDomain(G.SpinSector(2, 2), 1.0)
        states2 = np.array([[-0.2, 0.2], [0.1, 0.1]])
        assert survival_weight(states2, d2, 0.1) == 0.0

    def test_outside_is_zero(self):
        d = G.OrderedDomain(G.SpinSector(1, 0), 1.0)
        states = np.array([[0.0], [1.5], [0.0]])
        assert survival_weight(states, d, 0.1) == 0.0

    def test_at_most_one(self):
        rng = np.random.default_rng(SEED + 2)
        d = G.OrderedDomain(G.SpinSector(2, 1), 1.0)
        grid = P.TimeGrid(1.0, 30)
        path = P.sample_brownian(rng.uniform(-0.5, 0.5, (200, 2)), grid, generator(3))
        logw = G.survival_log_weights(path.states, d, grid.dt)
        assert np.all(logw <= 0.0)

    def test_crude_survival_matches_heat_content(self):
        # At dt small enough that the missed-excursion bias of the crude
        # indicator sits inside the statistical band.
        n_paths, n_steps, n_blocks = 10**4, 16384, 10
        exact = dirichlet_survival(1.0)
        d = G.OrderedDomain(G.SpinSector(1, 0), 1.0)
        grid = P.TimeGrid(1.0, n_steps)
        rng = np.random.default_rng([SEED, 4])
        survived = 0
        for b in range(n_blocks):
            x0 = G.uniform_ordered_points(rng, n_paths // n_blocks, d)
            path = P.sample_brownian(x0, grid, generator(5 + b))
            survived += int(np.sum(np.all(G.contains(d, path.states), axis=1)))
        crude = survived / n_paths
        sigma = np.sqrt(exact * (1 - exact) / n_paths)
        assert abs(crude - exact) < 3 * sigma

    def test_bridge_beats_crude(self):
        # At coarse dt the bridge-corrected estimate is much closer to the
        # exact Dirichlet value than the crude indicator.
        n_paths, n_steps = 10**4, 64
        exact = dirichlet_survival(1.0)
        d = G.OrderedDomain(G.SpinSector(1, 0), 1.0)
        grid = P.TimeGrid(1.0, n_steps)
        rng = np.random.default_rng([SEED, 6])
        x0 = G.uniform_ordered_points(rng, n_paths, d)
        path = P.sample_brownian(x0, grid, generator(7))
        crude = float(np.mean(np.all(G.contains(d, path.states), axis=1)))
        logw = G.survival_log_weights(path.states, d, grid.dt)
        bridge = float(np.mean(np.exp(logw)))
        sigma = np.sqrt(exact * (1 - exact) / n_paths)
        assert abs(bridge - exact) < 3 * sigma
        assert abs(bridge - exact) < abs(crude - exact)


class TestSurvivalHorizonRows:
    def test_rows_equal_prefix_calls(self):
        d = G.OrderedDomain(G.SpinSector(2, 1), 1.0)
        grid = P.TimeGrid(1.0, 40)
        rng = np.random.default_rng([SEED, 8])
        x0 = G.uniform_ordered_points(rng, 400, d)
        states = P.sample_brownian(x0, grid, generator(9)).states
        horizons = (40, 27, 1)
        rows = G.survival_log_weights(states, d, grid.dt, horizons=horizons)
        assert rows.shape == (3, 400)
        for row, h in zip(rows, horizons):
            prefix = G.survival_log_weights(states[:, :h + 1], d, grid.dt)
            assert np.array_equal(row, prefix)
        # some paths die between steps 27 and 40, others survive both
        died_late = np.isfinite(rows[1]) & np.isneginf(rows[0])
        assert died_late.sum() > 10
        assert np.isfinite(rows[0]).sum() > 10

    def test_single_path_rows(self):
        d = G.OrderedDomain(G.SpinSector(1, 0), 1.0)
        states = np.array([[0.0], [0.5], [0.9], [1.2], [0.5]])
        rows = G.survival_log_weights(states, d, 0.1, horizons=(4, 2))
        assert rows.shape == (2,)
        assert rows[0] == -np.inf
        assert rows[1] == G.survival_log_weights(states[:3], d, 0.1)
        assert np.isfinite(rows[1])

    def test_horizons_must_lie_on_the_path(self):
        d = G.OrderedDomain(G.SpinSector(1, 0), 1.0)
        states = np.zeros((5, 1))
        for bad in ((5,), (0,), (4, -1)):
            with pytest.raises(ValueError):
                G.survival_log_weights(states, d, 0.1, horizons=bad)


def mixed_block(N, p, n_paths=200, n_steps=32, key=12):
    """Brownian paths on D^{N,(p)}: half start inside, half anywhere near the box."""
    d = G.OrderedDomain(G.SpinSector(N, p), 1.0)
    grid = P.TimeGrid(0.1, n_steps)
    rng = np.random.default_rng([SEED, key, N, p])
    x0 = np.concatenate([G.uniform_ordered_points(rng, n_paths // 2, d),
                         rng.uniform(-1.05, 1.05, size=(n_paths - n_paths // 2, N))])
    return d, grid, P.sample_brownian(x0, grid, generator(key + 1)).states


class TestSurvivalAgreesWithContains:
    """A path is absorbed exactly when one of its grid points leaves the domain."""

    @pytest.mark.parametrize("N,p", [(N, p) for N in (1, 2, 3)
                                     for p in range(N + 1)])
    def test_neginf_iff_a_grid_point_is_outside(self, N, p):
        d, grid, states = mixed_block(N, p, n_paths=400, key=10)
        inside = G.contains(d, states)
        logw = G.survival_log_weights(states, d, grid.dt)
        outside = ~np.all(inside, axis=1)
        assert np.array_equal(np.isneginf(logw), outside)
        assert 0 < outside.sum() < len(outside)
        horizons = (32, 17, 1)
        rows = G.survival_log_weights(states, d, grid.dt, horizons=horizons)
        for row, h in zip(rows, horizons):
            outside_h = ~np.all(inside[:, :h + 1], axis=1)
            assert np.array_equal(np.isneginf(row), outside_h)


class TestSurvivorOnlySurvival:
    """Bridge factors for survivors only give the full evaluation's bits."""

    HORIZONS = (None, (20,), (32, 9))

    def assert_equal_to_full(self, states, d, dt):
        for horizons in self.HORIZONS:
            got = G.survival_log_weights(states, d, dt, horizons=horizons)
            ref = full_survival_log_weights(states, d, dt, horizons=horizons)
            assert np.shape(got) == np.shape(ref)
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("N,p", [(N, p) for N in (1, 2, 3)
                                     for p in range(N + 1)])
    def test_bitwise_equal_to_full_evaluation(self, N, p):
        d, grid, states = mixed_block(N, p)
        self.assert_equal_to_full(states, d, grid.dt)
        rows = G.survival_log_weights(states, d, grid.dt, horizons=(32, 9))
        # dead, alive at both horizons, and dying between them all occur
        assert np.isneginf(rows[1]).any() and np.isfinite(rows[0]).any()
        assert (np.isfinite(rows[1]) & np.isneginf(rows[0])).any()
        # two leading dims are flattened and restored
        self.assert_equal_to_full(states.reshape((4, 50) + states.shape[1:]), d, grid.dt)

    def test_single_path_alive_and_dead(self):
        d, grid, states = mixed_block(2, 1)
        rows = G.survival_log_weights(states, d, grid.dt)
        for i in (np.flatnonzero(np.isfinite(rows))[0], np.flatnonzero(np.isneginf(rows))[0]):
            got = G.survival_log_weights(states[i], d, grid.dt)
            assert np.ndim(got) == 0
            assert got == rows[i]
            self.assert_equal_to_full(states[i], d, grid.dt)

    def test_empty_batch(self):
        d = G.OrderedDomain(G.SpinSector(3, 1), 1.0)
        states = np.zeros((0, 33, 3))
        for horizons, shape in ((None, (0,)), ((32, 9), (2, 0))):
            assert G.survival_log_weights(states, d, 0.1, horizons=horizons).shape == shape
        self.assert_equal_to_full(states, d, 0.1)

    def test_block_without_survivors(self):
        d, grid, states = mixed_block(2, 2)
        states = states.copy()
        states[:, 0, 1] = states[:, 0, 0]  # every start on the plane x1 = x2
        assert np.all(np.isneginf(G.survival_log_weights(states, d, grid.dt)))
        self.assert_equal_to_full(states, d, grid.dt)

    def test_integer_states(self):
        d = G.OrderedDomain(G.SpinSector(2, 2), 3.0)
        rng = np.random.default_rng([SEED, 14])
        states = np.stack([rng.integers(-2, 0, size=(50, 33)),
                           rng.integers(1, 3, size=(50, 33))], axis=-1)
        states[::2, 20, 1] = 3  # every other path touches the wall at step 20
        rows = G.survival_log_weights(states, d, 4.0, horizons=(32, 9))
        assert np.isfinite(rows[1]).all()
        assert np.array_equal(np.isneginf(rows[0]), np.arange(50) % 2 == 0)
        self.assert_equal_to_full(states, d, 4.0)

    @pytest.mark.parametrize("N,p", [(1, 0), (2, 1), (3, 2)])
    def test_distances_only_for_paths_inside_through_the_shortest_horizon(
            self, monkeypatch, N, p):
        seen = []

        def recorded(states, domain):
            seen.append(states.shape[0])
            return distances(states, domain)

        distances = G._constraint_distances
        monkeypatch.setattr(G, "_constraint_distances", recorded)
        d, grid, states = mixed_block(N, p)
        inside = G.contains(d, states)
        for horizons in self.HORIZONS:
            G.survival_log_weights(states, d, grid.dt, horizons=horizons)
            h = 32 if horizons is None else min(horizons)
            assert seen.pop() == int(np.all(inside[:, :h + 1], axis=1).sum())
        assert seen == []

    def test_underflowing_bridge_exponent_warns_nothing(self):
        # a survivor 1e-300 from the plane x1 = x2: exp(-expo) rounds to 1
        # and its row is log1p(-1) = -inf; another survivor leaves the
        # domain after the shortest horizon, a nan step masked to -inf
        d = G.OrderedDomain(G.SpinSector(2, 2), 1.0)
        states = np.tile(np.array([-0.5, 0.5]), (3, 9, 1))
        states[0, 0] = [0.0, 1e-300]
        states[1, 6] = [-0.5, 1.5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = G.survival_log_weights(states, d, 0.01, horizons=(8, 4))
        assert np.isneginf(rows[:, 0]).all()
        assert np.isneginf(rows[0, 1]) and np.isfinite(rows[1, 1])
        assert np.isfinite(rows[:, 2]).all()
        assert np.array_equal(rows, full_survival_log_weights(states, d, 0.01, (8, 4)))


class TestUniformOrderedPoints:
    def test_all_inside(self):
        rng = np.random.default_rng(SEED + 3)
        for N, p in [(1, 0), (2, 1), (2, 2), (3, 2), (4, 2)]:
            d = G.OrderedDomain(G.SpinSector(N, p), 1.0)
            pts = G.uniform_ordered_points(rng, 2000, d)
            assert np.all(G.contains(d, pts))

    def test_sorted_pair_quadrant_mass(self):
        # For p = 2 the mass of {0 < x1 < x2} inside {x1 < x2} is 1/4.
        rng = np.random.default_rng(SEED + 4)
        d = G.OrderedDomain(G.SpinSector(2, 2), 1.0)
        pts = G.uniform_ordered_points(rng, 40000, d)
        frac = np.mean((pts[:, 0] > 0) & (pts[:, 1] > 0))
        sigma = np.sqrt(0.25 * 0.75 / 40000)
        assert abs(frac - 0.25) < 3 * sigma
