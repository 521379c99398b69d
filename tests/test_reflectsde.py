import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace_lab import reflectsde as rs
from interlace_lab.diffusion1d import make_spec
from interlace_lab.diffusion1d.catalog import edge_ladder
from interlace_lab.twolevel import Shape


class TestSkorokhodMap:
    def test_one_sided_example(self):
        res = rs.skorokhod_map(np.array([0.0, -1.0, -0.5]), lower=0.0)
        assert np.array_equal(res.x, [0.0, 0.0, 0.5])
        assert np.array_equal(res.k, [0.0, 1.0, 1.0])
        assert res.crossing_index is None

    def test_identity_inside_barriers(self):
        z = np.array([0.0, 0.2, -0.1])
        res = rs.skorokhod_map(z, lower=-1.0, upper=1.0)
        assert np.array_equal(res.x, z)
        assert np.array_equal(res.k, np.zeros(3))

    def test_matches_running_max_formula_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            z = np.cumsum(rng.normal(0, 0.5, size=100))
            res = rs.skorokhod_map(z, lower=0.0)
            explicit = z + np.maximum.accumulate(np.maximum(-z, 0.0))
            assert np.array_equal(res.x, explicit)

    def test_barrier_crossing_truncates_with_flag(self):
        z = np.zeros(5)
        lower = np.array([0.0, 0.0, 0.5, 0.0, 0.0])
        upper = np.array([1.0, 1.0, 0.2, 1.0, 1.0])
        res = rs.skorokhod_map(z, lower=lower, upper=upper)
        assert res.crossing_index == 2
        assert np.array_equal(res.x[2:], np.full(3, res.x[1]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-2, 2), min_size=3, max_size=40))
    def test_stays_within_barriers(self, incs):
        z = np.concatenate([[0.4], 0.4 + np.cumsum(incs)])
        res = rs.skorokhod_map(z, lower=0.0, upper=3.0)
        assert np.all(res.x >= -1e-12) and np.all(res.x <= 3.0 + 1e-12)
        # pushing is monotone on each side: k increments only at contact
        dk = np.diff(res.k)
        at_lower = np.isclose(res.x[1:], 0.0)
        at_upper = np.isclose(res.x[1:], 3.0)
        assert np.all((dk <= 1e-12) | at_lower)
        assert np.all((dk >= -1e-12) | at_upper)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_lipschitz_constant(self, seed):
        rng = np.random.default_rng(seed)
        z = np.cumsum(rng.normal(0, 0.4, size=60))
        eps = 1e-3
        pert = rng.normal(size=60)
        pert *= eps / max(np.max(np.abs(pert)), 1e-12)
        ra = rs.skorokhod_map(z + pert, lower=-1.0, upper=1.0)
        rb = rs.skorokhod_map(z, lower=-1.0, upper=1.0)
        assert np.max(np.abs(ra.x - rb.x)) <= 4.0 * eps + 1e-12


class TestTwoLevelSimulation:
    def test_free_particle_variance(self):
        # one particle with no neighbour level: a single unconstrained
        # motion, terminal variance = T (a two-level system needs a y level)
        bm = make_spec("bm")
        pb = rs.simulate_gt([bm], [np.array([0.0])], T=1.0, dt=1e-3, n_paths=30000, seed=1)
        xs = pb.terminal(0)[:, 0]
        assert abs(xs.mean()) < 3.0 / math.sqrt(30000)
        assert xs.var() == pytest.approx(1.0, abs=3 * math.sqrt(2.0 / 30000))

    def test_seed_determinism_bitwise(self):
        bm = make_spec("bm")
        kw = dict(x0=np.array([-1.0, 1.0]), y0=np.array([0.0]), T=0.3, dt=1e-3,
                  n_paths=500, seed=11, y_spec=bm)
        a = rs.simulate_two_level(bm, Shape.NNP1, **kw)
        b = rs.simulate_two_level(bm, Shape.NNP1, **kw)
        assert np.array_equal(a.terminal(1), b.terminal(1))
        assert np.array_equal(a.terminal(0), b.terminal(0))

    def test_interlacing_at_every_recorded_step(self):
        bm = make_spec("bm")
        pb = rs.simulate_two_level(bm, Shape.NNP1, np.array([-1.0, 1.0]), np.array([0.0]),
                                   T=0.3, dt=1e-3, n_paths=200, seed=3, y_spec=bm,
                                   record_stride=1)
        y = pb.levels[0]
        x = pb.levels[1]
        assert np.all(x[..., 0] <= y[..., 0] + 1e-12)
        assert np.all(y[..., 0] <= x[..., 1] + 1e-12)

    def test_k_increments_nonnegative_with_contact(self):
        bm = make_spec("bm")
        pb = rs.simulate_two_level(bm, Shape.NNP1, np.array([-0.1, 0.1]), np.array([0.0]),
                                   T=0.2, dt=1e-3, n_paths=300, seed=5, y_spec=bm)
        assert 0.0 < pb.contact_fraction < 0.5  # tight start guarantees contact

    def test_contact_fraction_shrinks_with_dt(self):
        bm = make_spec("bm")
        fracs = []
        for dt in (4e-3, 1e-3, 2.5e-4):
            pb = rs.simulate_two_level(bm, Shape.NNP1, np.array([-0.5, 0.5]), np.array([0.0]),
                                       T=0.3, dt=dt, n_paths=800, seed=9, y_spec=bm)
            fracs.append(pb.contact_fraction)
        assert fracs[0] > fracs[1] > fracs[2]

    def test_w11_reflected_pair_matches_conditioned_law(self):
        # half-line pair at modest budget; full budget runs in acceptance
        from interlace_lab.harness.checks import bes3_cdf

        spec = make_spec("bm_halfline:abs")
        ysp = make_spec("bm_halfline:refl")

        def y0(n):
            rng = np.random.default_rng(123)
            return rng.uniform(0.0, 1.0, size=(n, 1))

        pb = rs.simulate_two_level(spec, Shape.NN, np.array([1.0]), y0, T=1.0, dt=2e-3,
                                   n_paths=4000, seed=21, y_spec=ysp)
        xs = np.sort(pb.terminal(1)[:, 0])
        F = bes3_cdf(xs)
        n = len(xs)
        ks = max(np.max(np.arange(1, n + 1) / n - F), np.max(F - np.arange(n) / n))
        assert ks < 0.05

    def test_input_validation(self):
        bm = make_spec("bm")
        with pytest.raises(ValueError):
            rs.simulate_two_level(bm, Shape.NNP1, np.array([-1.0, 1.0]), np.array([0.0]),
                                  T=0.1, dt=-1e-3, n_paths=10, seed=0, y_spec=bm)
        with pytest.raises(ValueError):
            rs.simulate_two_level(bm, Shape.NNP1, np.array([-1.0, 1.0]), np.array([2.0]),
                                  T=0.1, dt=1e-3, n_paths=10, seed=0, y_spec=bm)
        from interlace_lab.twolevel import BoundaryAssumptionError

        with pytest.raises(BoundaryAssumptionError):
            rs.simulate_two_level(make_spec("bm_halfline:abs"), Shape.NNP1,
                                  np.array([0.5, 1.5]), np.array([1.0]),
                                  T=0.1, dt=1e-3, n_paths=10, seed=0)

    def test_every_path_is_checked_at_the_start(self):
        bm = make_spec("bm")

        def y0(n):
            y = np.zeros((n, 1))
            y[1] = 5.0  # neither the first nor the last path
            return y

        with pytest.raises(ValueError, match="initial x does not interlace with y"):
            rs.simulate_two_level(bm, Shape.NNP1, np.array([-1.0, 1.0]), y0,
                                  T=0.1, dt=1e-2, n_paths=4, seed=0, y_spec=bm)
        with pytest.raises(ValueError, match="state interval"):
            rs.simulate_two_level(make_spec("bm_halfline:abs"), Shape.NN, np.array([1.0]),
                                  np.array([-0.5]), T=0.1, dt=1e-2, n_paths=4, seed=0)

    def test_coincident_nn_start_is_interlaced(self):
        # weak interlacing: on W^{n,n} each x may start on the y below it
        bm = make_spec("bm")
        pb = rs.simulate_two_level(bm, Shape.NN, np.array([0.5, 1.0]), np.array([0.5, 1.0]),
                                   T=0.1, dt=0.05, n_paths=3, seed=0, y_spec=bm)
        assert pb.levels[1].shape == (2, 3, 2)

    def test_particle_counts_must_match_the_shape(self):
        # three x particles over one y particle is no W^{n,n+1} configuration,
        # although each x lies within the bounds the stepper would give it
        bm = make_spec("bm")
        with pytest.raises(ValueError, match="3 x and 1 y particles do not match the shape n,n\\+1"):
            rs.simulate_two_level(bm, Shape.NNP1, np.array([0.0, 1.0, 2.0]), np.array([0.5]),
                                  T=0.1, dt=1e-2, n_paths=2, seed=0, y_spec=bm)

    @pytest.mark.parametrize("rows", [7, 1])
    def test_sampled_y0_with_the_wrong_row_count_is_rejected_by_name(self, rows):
        bm = make_spec("bm")
        with pytest.raises(ValueError, match=rf"y0\(n_paths\) has shape \({rows}, 1\); "
                                             r"expected \(4, 1\), one row per path"):
            rs.simulate_two_level(bm, Shape.NNP1, np.array([-1.0, 1.0]),
                                  lambda n: np.zeros((rows, 1)), T=0.1, dt=0.05, n_paths=4,
                                  y_spec=bm)

    def test_x_outside_its_wall_is_rejected(self):
        # X particle 0 starts below the reflecting wall at 0
        with pytest.raises(ValueError, match="initial x leaves the state interval"):
            rs.simulate_two_level(make_spec("bm_halfline:refl"), Shape.NNP1,
                                  np.array([-0.5, 0.6]), np.array([0.3]),
                                  T=0.1, dt=1e-2, n_paths=3, seed=0)

    def test_y_collision_stops_paths(self):
        # two dual particles squeezed together must trigger tau
        bm = make_spec("bm")
        pb = rs.simulate_two_level(bm, Shape.NNP1, np.array([-0.05, 0.0, 0.05]),
                                   np.array([-0.02, 0.02]), T=0.5, dt=1e-3,
                                   n_paths=500, seed=2, y_spec=bm)
        assert np.isfinite(pb.tau).mean() > 0.9

    def test_single_killed_y_still_stops_paths(self):
        # one Y particle cannot collide, but the default Y of bm_halfline:refl
        # is its conjugate bm_halfline:abs, killed at 0.  From 0.3 it survives
        # to T = 1 with probability 2 Phi(0.3) - 1 = 0.236; a stop tested on
        # the grid misses crossings inside a step, so a few more survive
        pb = rs.simulate_two_level(make_spec("bm_halfline:refl"), Shape.NNP1,
                                   np.array([0.05, 0.6]), np.array([0.3]), T=1.0, dt=1e-3,
                                   n_paths=4000, seed=6)
        stopped = np.isfinite(pb.tau)
        assert stopped.mean() == pytest.approx(1.0 - 0.2358, abs=0.04)
        assert np.all((pb.tau[stopped] > 0.0) & (pb.tau[stopped] <= 1.0))

    @pytest.mark.parametrize("sid, x0, y_id, y0, tested", [
        ("bm", [-1.0, 1.0], "bm", [0.0], False),                 # one free Y
        ("bm_halfline:refl", [0.05, 0.6], "bm_halfline:abs", [0.3], True),  # killed at 0
        ("bm", [-0.5, 0.0, 0.5], "bm", [-0.3, 0.3], True),       # Y particles may collide
    ], ids=["one-free-y", "one-killed-y", "two-y"])
    def test_stop_rule_only_where_it_can_fire(self, monkeypatch, sid, x0, y_id, y0, tested):
        hits, calls = rs._StopRule.hits, []
        monkeypatch.setattr(rs._StopRule, "hits",
                            lambda self, states: calls.append(1) or hits(self, states))
        pb = rs.simulate_two_level(make_spec(sid), Shape.NNP1, np.array(x0), np.array(y0),
                                   T=0.1, dt=0.01, n_paths=50, seed=1, y_spec=make_spec(y_id))
        assert len(calls) == (10 if tested else 0)
        assert tested or not np.isfinite(pb.tau).any()


class TestGTSimulation:
    def test_levels_outside_their_walls_are_rejected(self):
        besq2, besq4 = make_spec("besq:2"), make_spec("besq:4")
        with pytest.raises(ValueError, match="initial level1 leaves the state interval"):
            rs.simulate_gt([besq2, besq4], [np.array([-0.5]), np.array([-1.0, 1.0])],
                           T=0.1, dt=1e-2, n_paths=3, seed=0)
        with pytest.raises(ValueError, match="initial level2 leaves the state interval"):
            rs.simulate_gt([besq2, besq4], [np.array([0.5]), np.array([-1e-9, 1.0])],
                           T=0.1, dt=1e-2, n_paths=3, seed=0)

    def test_sampled_level_with_the_wrong_row_count_is_rejected_by_name(self):
        besq2, besq4 = make_spec("besq:2"), make_spec("besq:4")

        def x0(n):
            return [np.full((n, 1), 0.5), np.tile([0.1, 1.0], (n + 2, 1))]

        with pytest.raises(ValueError, match=r"x0\(n_paths\) level 2 has shape \(6, 2\); "
                                             r"expected \(4, 2\), one row per path"):
            rs.simulate_gt([besq2, besq4], x0, T=0.1, dt=0.05, n_paths=4, seed=0)

    def test_no_interior_collisions_under_pattern_initialization(self):
        from interlace_lab import kmgroup as km

        elaw = km.entrance_law("gue", 3)
        t0 = 1e-3

        def init(n):
            rng = np.random.default_rng(31)
            x3 = elaw.sample(rng, t0, n)
            x2 = np.column_stack([
                rng.uniform(x3[:, 0], x3[:, 1]),
                rng.uniform(x3[:, 1], x3[:, 2]),
            ])
            x1 = rng.uniform(x2[:, 0], x2[:, 1])[:, None]
            return [x1, x2, x3]

        specs = [make_spec("bm")] * 3
        pb = rs.simulate_gt(specs, init, T=0.5, dt=1e-3, n_paths=2000, seed=13, t0=t0)
        assert int(np.isfinite(pb.tau).sum()) == 0

    def test_gt3_levels_match_gue_minors(self):
        # every level of Warren's pattern from the origin is the spectrum of a
        # GUE minor; started at t0 from the minors of sqrt(t0) H, all six
        # particles at T = 1 match the minors of H.  The middle particle of
        # level 3 is bounded on both sides.  Per-step projection is off by
        # 0.059 here at this dt, and by 0.031 at dt = 1e-3.
        from interlace_lab.harness import gue_corners_sample, two_sample_ks

        t0 = 1e-3
        pb = rs.simulate_gt([make_spec("bm")] * 3,
                            lambda n: gue_corners_sample(np.random.default_rng(51), 3, n, t0),
                            T=1.0, dt=4e-3, n_paths=20000, seed=52, t0=t0)
        oracle = gue_corners_sample(np.random.default_rng(53), 3, 200000)
        assert not np.isfinite(pb.tau).any()
        for k in range(3):
            for i in range(k + 1):
                assert two_sample_ks(pb.terminal(k)[:, i], oracle[k][:, i]) <= 0.02, (k, i)

    def test_two_sided_particles_stay_between_their_bounds(self):
        # the middle particle of level 3 is pushed from both sides in the
        # same step; the clip after the two pushes keeps it between them
        pb = rs.simulate_gt([make_spec("bm")] * 3,
                            [np.array([0.0]), np.array([-0.01, 0.01]), np.array([-0.02, 0.0, 0.02])],
                            T=0.5, dt=0.05, n_paths=2000, seed=19, record_stride=1)
        l2, l3 = pb.levels[1], pb.levels[2]
        assert np.all(l2[..., 0] <= l3[..., 1]) and np.all(l3[..., 1] <= l2[..., 1])

    def test_reflecting_wall_push_is_exact_at_coarse_dt(self):
        # Brownian motion reflected at 0 from 0.2, in ten steps: the bridge
        # push off a wall leaves no step-size bias in the law or in the
        # push, E k = E|N(0.2, 1)| - 0.2 (per-step projection is off by 0.17).
        # k = x_T - z_T, with z the free path replayed from the level's stream
        from scipy.special import ndtr

        from interlace_lab.harness.stats import ks_statistic_cdf

        pb = rs.simulate_gt([make_spec("bm_halfline:refl")], [np.array([0.2])], T=1.0,
                            dt=0.1, n_paths=20000, seed=61)
        x = np.sort(pb.terminal(0)[:, 0])
        assert ks_statistic_cdf(x, ndtr(x - 0.2) - ndtr(-x - 0.2)) <= 0.02
        mean_abs = math.sqrt(2 / math.pi) * math.exp(-0.02) + 0.2 * (1 - 2 * ndtr(-0.2))
        g, z = rs._stream(61, (2, 0, 0)), np.full(20000, 0.2)
        for _ in range(10):
            z = z + math.sqrt(pb.dt) * g.standard_normal(20000)
        k = pb.terminal(0)[:, 0] - z
        assert k.mean() == pytest.approx(mean_abs - 0.2, abs=3 * x.std() / math.sqrt(20000))

    def test_levels_interlace_at_terminal_time(self):
        specs = [make_spec("bm")] * 3
        x0 = [np.array([0.0]), np.array([-0.5, 0.5]), np.array([-1.0, 0.0, 1.0])]
        pb = rs.simulate_gt(specs, x0, T=0.4, dt=1e-3, n_paths=500, seed=8)
        l1, l2, l3 = (pb.terminal(k) for k in range(3))
        assert np.all(l2[:, 0] <= l1[:, 0] + 1e-12) and np.all(l1[:, 0] <= l2[:, 1] + 1e-12)
        assert np.all(l3[:, 0] <= l2[:, 0] + 1e-12) and np.all(l2[:, 1] <= l3[:, 2] + 1e-12)

    def test_besq_ladder_dimensions(self):
        # level spec dimensions must decrease by two toward the bottom
        specs = [make_spec("besq:6"), make_spec("besq:4"), make_spec("besq:2")]
        x0 = [np.array([1.0]), np.array([0.5, 1.5]), np.array([0.2, 1.0, 2.0])]
        pb = rs.simulate_gt(specs, x0, T=0.2, dt=1e-3, n_paths=200, seed=4)
        assert pb.terminal(2).shape == (200, 3)

    def test_size_validation(self):
        specs = [make_spec("bm")] * 2
        with pytest.raises(ValueError):
            rs.simulate_gt(specs, [np.array([0.0]), np.array([-1.0, 0.0, 1.0])],
                           T=0.1, dt=1e-2, n_paths=5, seed=0)

    def test_non_interlacing_start_rejected(self):
        specs = [make_spec("bm")] * 2
        with pytest.raises(ValueError, match="level2"):
            rs.simulate_gt(specs, [np.array([5.0]), np.array([-1.0, 1.0])],
                           T=0.1, dt=1e-2, n_paths=4, seed=0)

    def test_symplectic_pattern_half_line(self):
        # alternating sizes 1,1: the second level, reflected upward off the
        # first, evolves as the scale-conditioned motion from the origin
        from interlace_lab.harness.checks import bes3_cdf

        t0 = 1e-3
        specs = [make_spec("bm_halfline:refl"), make_spec("bm_halfline:abs")]

        def init(n):
            rng = np.random.default_rng(41)
            y = np.abs(rng.normal(0.0, math.sqrt(t0), size=(n, 1)))
            xh = y + np.abs(rng.normal(0.0, math.sqrt(t0), size=(n, 1)))
            return [y, xh]

        pb = rs.simulate_gt(specs, init, T=1.0, dt=1e-3, n_paths=8000, seed=44, t0=t0)
        xh = np.sort(pb.terminal(1)[:, 0])
        # x from ~0: conditioned law has density prop. z^2 e^{-z^2/2t}
        z = xh
        F = (bes3_cdf(z, x=1e-4, t=1.0))
        n = len(z)
        ks = max(np.max(np.arange(1, n + 1) / n - F), np.max(F - np.arange(n) / n))
        assert ks < 0.05
        # interlacing across the equal-size step
        assert np.all(pb.terminal(1)[:, 0] >= pb.terminal(0)[:, 0] - 1e-12)


class TestEdgeSimulation:
    def test_single_particle_is_plain_diffusion(self):
        pb = rs.simulate_edge(make_spec("bm"), 1, "right", np.array([0.0]), T=1.0,
                              dt=1e-3, n_paths=20000, seed=6)
        xs = pb.terminal(0)[:, 0]
        assert xs.var() == pytest.approx(1.0, abs=0.03)

    def test_ladder_specs(self):
        def names(sid, n):
            return [sp.name for sp in edge_ladder(make_spec(sid), n)]

        assert names("besq:2", 2) == ["besq:4", "besq:2"]
        assert names("lag:2", 3) == ["lag:6", "lag:4", "lag:2"]
        assert names("jac:1,1", 2) == ["jac:2,2", "jac:1,1"]
        assert names("gbm:1", 2) == ["gbm:2", "gbm:1"]
        assert names("bm", 4) == ["bm"] * 4

    def test_right_edge_ordering_maintained(self):
        pb = rs.simulate_edge(make_spec("bm"), 3, "right", np.zeros(3), T=0.5,
                              dt=1e-3, n_paths=300, seed=14, record_stride=50)
        arr = pb.levels[0]
        assert np.all(np.diff(arr, axis=-1) >= -1e-12)

    def test_left_edge_ordering_maintained(self):
        pb = rs.simulate_edge(make_spec("besq:2"), 2, "left", np.array([2e-4, 1e-4]),
                              T=0.5, dt=1e-3, n_paths=300, seed=15, record_stride=50)
        arr = pb.levels[0]
        assert np.all(np.diff(arr, axis=-1) <= 1e-12)

    def test_boundary_assumption_enforced(self):
        with pytest.raises(ValueError):
            rs.simulate_edge(make_spec("bm_halfline:refl"), 2, "right",
                             np.array([0.5, 1.0]), T=0.1, dt=1e-3, n_paths=10, seed=0)

    def test_start_without_n_coordinates_rejected(self):
        with pytest.raises(ValueError, match="needs 2 start coordinates, got 3"):
            rs.simulate_edge(make_spec("bm"), 2, "right", np.zeros(3),
                             T=0.1, dt=1e-2, n_paths=4, seed=0)

    def test_disordered_start_rejected(self):
        with pytest.raises(ValueError, match="particle 2"):
            rs.simulate_edge(make_spec("bm"), 2, "right", np.array([1.0, -1.0]),
                             T=0.1, dt=1e-2, n_paths=4, seed=0)

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_bridge_pushes_match_edge_law_at_coarse_dt(self, side, n):
        # per-step projection misses the pushes inside a step and is off by
        # 0.04-0.09 here; the bridge-sampled push is not.  The left edge is
        # the mirror image, so -min has the law of the right edge's max.
        from interlace_lab import edgekernels as ek
        from interlace_lab.harness.stats import empirical_cdf_on_grid

        bm = make_spec("bm")
        pb = rs.simulate_edge(bm, n, side, np.zeros(n), T=1.0, dt=1e-2,
                              n_paths=20000, seed=12)
        ext = pb.terminal(0)[:, -1] * (1.0 if side == "right" else -1.0)
        zg = np.linspace(-2.5, 5.0, 151)
        F = ek.edge_max_cdf_degenerate(bm, n, 1.0, 0.0, zg)
        assert np.max(np.abs(F - empirical_cdf_on_grid(ext, zg))) <= 0.02

    def test_free_particle_ignores_bridge_draws(self):
        # the bridge draws have their own streams: the free particle's path
        # is that of a one-particle system, bit for bit
        bm = make_spec("bm")
        kw = dict(T=0.2, dt=1e-2, n_paths=300, seed=5, record_stride=1)
        three = rs.simulate_edge(bm, 3, "right", np.zeros(3), **kw)
        one = rs.simulate_edge(bm, 1, "right", np.zeros(1), **kw)
        assert np.array_equal(three.levels[0][..., 0], one.levels[0][..., 0])


class TestExactBesqSteps:
    # two starts per member, one of them 0; a member below d = 2 is reflected there
    STARTS = {"besq:0.5": (0.0, 0.7), "besq:2": (0.0, 1.0), "besq:4": (0.0, 1.5)}

    @staticmethod
    def _one_step_ks(sid, x0, dt=0.5):
        # KS of 20k one-step draws of a lone GT particle against the kernel
        from interlace_lab.diffusion1d import kernel
        from interlace_lab.harness.stats import ks_statistic_cdf

        spec = make_spec(sid)
        pb = rs.simulate_gt([spec], [np.array([x0])], T=dt, dt=dt, n_paths=20000, seed=71)
        x = np.sort(pb.terminal(0)[:, 0])
        return ks_statistic_cdf(x, kernel(spec).cdf(dt, x0, x))

    @pytest.mark.parametrize("sid, x0", [(sid, x0) for sid, starts in STARTS.items()
                                         for x0 in starts])
    def test_one_step_has_the_kernel_law(self, sid, x0):
        assert self._one_step_ks(sid, x0) <= 0.02

    @pytest.mark.parametrize("sid, x0, wrong", [
        *[(sid, x0, "d+1") for sid, starts in STARTS.items() for x0 in starts],
        *[(sid, starts[1], "nonc*dt") for sid, starts in STARTS.items()],
    ])
    def test_a_wrong_step_fails_the_kernel_law(self, monkeypatch, sid, x0, wrong):
        # the dimension off by one, or the noncentrality x instead of x / dt
        # (the same law from 0, so only the other start checks it)
        from dataclasses import replace
        from interlace_lab.diffusion1d import catalog

        rec = catalog.FAMILIES["besq"]
        steps = {
            "d+1": lambda p: rec.step((p[0] + 1.0,) + p[1:]),
            "nonc*dt": lambda p: (lambda x, dt, g: dt * g.noncentral_chisquare(p[0], x),
                                  {"noncentral_chisquare": 1}),
        }
        monkeypatch.setitem(catalog.FAMILIES, "besq", replace(rec, step=steps[wrong]))
        assert self._one_step_ks(sid, x0) > 0.02

    def test_only_unkilled_besq_and_lag_step_exactly(self):
        from interlace_lab.diffusion1d.catalog import FAMILIES, exact_step

        assert [f for f, rec in FAMILIES.items() if rec.step is not None] == ["besq", "lag"]
        for sid in ("besq:1:abs", "besq:-1", "besq:0", "lag_dual:3"):
            assert exact_step(make_spec(sid)) is None, sid
        for sid in ("besq:0.5", "besq:1", "besq:2", "besq:3", "lag:1", "lag:2", "lag:3"):
            assert exact_step(make_spec(sid)) is not None, sid

    @pytest.mark.parametrize("x0", [0.0, 1.2])
    def test_lag_step_has_the_kernel_law(self, x0):
        # 200k draws of one step: e^{-2 dt} times the BESQ(3) step over
        # tau = (e^{2 dt} - 1) / 2; the BESQ step over dt alone fails
        from interlace_lab.diffusion1d import kernel
        from interlace_lab.diffusion1d.catalog import exact_step
        from interlace_lab.harness.stats import ks_statistic_cdf

        spec, dt = make_spec("lag:3"), 0.5
        cdf = lambda x: kernel(spec).cdf(dt, x0, x)
        x = np.sort(exact_step(spec)(np.full(200000, x0), dt, np.random.default_rng(29)))
        assert ks_statistic_cdf(x, cdf(x)) <= 0.005
        wrong = np.sort(exact_step(make_spec("besq:3"))(np.full(200000, x0), dt,
                                                        np.random.default_rng(29)))
        assert ks_statistic_cdf(wrong, cdf(wrong)) > 0.05

    @pytest.mark.parametrize("sid, shape, x0, y0, order", [
        # order: the columns of (x, y) from low to high when interlaced
        ("besq:3", Shape.NNP1, [0.5, 2.0], [1.0], [0, 2, 1]),  # exact X, killed Euler Y
        ("besq:1:abs", Shape.NN, [1.0], [0.5], [1, 0]),        # killed Euler X, exact Y
    ])
    def test_mixed_two_level_systems_stay_ordered(self, sid, shape, x0, y0, order):
        # one level steps exactly and the other by Euler: the exact X pushes
        # in sqrt(x) off a Y proposal that may cross 0, the Euler X by frozen
        # variances that need the exact Y's diffusivity
        with np.errstate(all="raise"):
            pb = rs.simulate_two_level(make_spec(sid), shape, np.array(x0), np.array(y0),
                                       T=0.5, dt=0.05, n_paths=2000, seed=3, record_stride=1)
        y, x = (lv[:, pb.alive] for lv in pb.levels)
        cols = np.concatenate([x, y], axis=-1)[..., order]
        assert pb.alive.any() and cols.min() >= 0.0
        assert np.all(np.diff(cols, axis=-1) >= 0.0)

    def test_no_recorded_state_below_zero(self):
        # a push taken in state units once carried these runs below 0: 108
        # terminal level-2 values of the GT run, 77,695 recorded besq:2 edge
        # values, and, under Euler steps, 84,767 lag:2 and 25,828 lag:3 ones.
        # In u = sqrt(x), floored at 0, no value can leave [0, inf); without
        # the floor, x = u^2 of a u pushed below 0 would break the order
        from interlace_lab.harness.checks import run_gt2

        gt = run_gt2("besq:2", 20000, 4e-3, 15, init_seed=21)
        edges = [rs.simulate_edge(make_spec(sid), 2, "left", np.array([2e-4, 1e-4]), T=0.3,
                                  dt=2e-3, n_paths=20000, seed=15, record_stride=1)
                 for sid in ("besq:2", "lag:2", "lag:3")]
        for levels in [gt.levels] + [edge.levels for edge in edges]:
            assert min(float(lv.min()) for lv in levels) >= 0.0
        l1, l2 = gt.levels
        assert np.all(l2[..., :1] <= l1 + 1e-12) and np.all(l1 <= l2[..., 1:] + 1e-12)
        for (e,) in (edge.levels for edge in edges):
            assert np.all(np.diff(e, axis=-1) <= 1e-12)


class TestCoarseGridControl:
    def test_projection_control_fails_the_coarse_checks(self, monkeypatch):
        # with the bridge maximum replaced by projection onto the bounds (the
        # push of a zero Exp(1) draw), every simulated row of A5, A6 and A7
        # fails at its check's default dt, 0.05 for A5 and A7 and 0.025 for
        # A6: there the bridge-sampled push is what meets the tolerance
        from interlace_lab.harness import checks

        monkeypatch.setattr(rs, "_bridge_max", lambda a, b, var, e: np.maximum(a, b))
        a5 = checks.check_warren_dyson(paths=20000).rows
        a6 = checks.check_entrance_gt(paths=20000).rows
        assert len(a5) == 3 and len(a6) == 4
        for rows, dt in ((a5, 0.05), (a6, 0.025)):
            for row in rows:
                assert row["dt"] == dt and row["ks"] > row["tolerance"], row
        sims = [r for r in checks.check_edge_formulas(paths=20000).rows if r["paths"]]
        assert len(sims) == 2
        for row in sims:
            assert row["dt"] == 0.05 and row["sup_diff_sim"] > row["tolerance"], row


class TestStepResolution:
    # each simulator's keyword arguments, any of which a case may override
    SIMULATORS = {
        "two-level": lambda **kw: rs.simulate_two_level(**{
            "spec": make_spec("bm"), "shape": Shape.NNP1, "x0": np.array([-1.0, 1.0]),
            "y0": np.array([0.0]), "seed": 0, "n_paths": 2, **kw}),
        "gt": lambda **kw: rs.simulate_gt(**{
            "level_specs": [make_spec("bm")] * 2, "x0": [np.array([0.0]), np.array([-1.0, 1.0])],
            "seed": 0, "n_paths": 2, **kw}),
        "edge": lambda **kw: rs.simulate_edge(**{
            "base": make_spec("bm"), "n": 2, "side": "right", "x0": np.zeros(2), "seed": 0,
            "n_paths": 2, **kw}),
    }

    # the path and stride counts go to every simulator, an empty system to
    # the simulator it names
    @pytest.mark.parametrize("simulator, kw, match", [
        *(pytest.param(simulator, kw, match, id=f"{name}-{simulator}")
          for simulator, (kw, match, name) in itertools.product(SIMULATORS, [
              (dict(n_paths=0), "n_paths must be a positive integer, got 0", "zero-paths"),
              (dict(n_paths=-3), "n_paths must be a positive integer, got -3", "negative-paths"),
              (dict(n_paths=2.0), "n_paths must be a positive integer, got 2.0", "float-paths"),
              (dict(n_paths=True), "n_paths must be a positive integer, got True", "bool-paths"),
              (dict(record_stride=0), "record_stride must be a positive integer, got 0",
               "zero-stride"),
              (dict(record_stride=True), "record_stride must be a positive integer, got True",
               "bool-stride"),
          ])),
        pytest.param("gt", dict(level_specs=[], x0=[]),
                     "level_specs is empty: a pattern needs at least one level",
                     id="no-levels-gt"),
        pytest.param("gt", dict(level_specs=[make_spec("bm")], x0=[np.zeros(0)]),
                     "level 1 is empty: each level needs at least one particle",
                     id="empty-level-gt"),
        pytest.param("two-level", dict(shape=Shape.NN, x0=[], y0=[]),
                     "the y level is empty: each level needs at least one particle",
                     id="empty-levels-two-level"),
        pytest.param("two-level", dict(shape=Shape.NNP1, x0=[0.0], y0=[]),
                     "the y level is empty: each level needs at least one particle",
                     id="empty-y-two-level"),
        pytest.param("two-level", dict(shape=Shape.NP1N, x0=[], y0=[0.0]),
                     "the x level is empty: each level needs at least one particle",
                     id="empty-x-two-level"),
        pytest.param("edge", dict(n=0, x0=np.zeros(0)), "n must be a positive integer, got 0",
                     id="no-particles-edge"),
        pytest.param("edge", dict(n=-1, x0=np.zeros(0)), "n must be a positive integer, got -1",
                     id="negative-particles-edge"),
    ])
    def test_bad_counts_rejected_by_name(self, simulator, kw, match):
        with pytest.raises(ValueError, match=match):
            self.SIMULATORS[simulator](T=0.1, dt=0.05, **kw)

    @pytest.mark.parametrize("simulator", list(SIMULATORS))
    @pytest.mark.parametrize("kw, match", [
        (dict(T=-1.0, dt=0.01), "end time t = -1 must be after the start time 0"),
        (dict(T=0.5, dt=0.01, t0=0.5), "end time t = 0.5 must be after the start time 0.5"),
        (dict(T=1.0, dt=0.0), "dt must be positive, got 0"),
        (dict(T=1.0, dt=-0.01), "dt must be positive"),
        (dict(T=1.0, dt=float("nan")), "dt must be positive, got nan"),
        (dict(T=np.inf, dt=0.01), "end time t must be finite, got inf"),
        (dict(T=np.nan, dt=0.01), "end time t must be finite, got nan"),
        (dict(T=1.0, dt=0.01, t0=-np.inf), "start time t0 must be finite, got -inf"),
        (dict(T=1.0, dt=0.01, t0=np.nan), "start time t0 must be finite, got nan"),
    ], ids=["negative-t", "t-at-start", "zero-dt", "negative-dt", "nan-dt", "inf-t", "nan-t",
            "inf-t0", "nan-t0"])
    def test_bad_time_or_step_rejected(self, simulator, kw, match):
        with pytest.raises(ValueError, match=match):
            self.SIMULATORS[simulator](**kw)


class _CountingStream:
    """A simulator stream that counts the variates drawn from it, by kind."""

    def __init__(self, gen, counts):
        self.gen, self.counts = gen, counts

    def _drawn(self, kind, a):
        self.counts[kind] += np.size(a)
        return a

    def standard_normal(self, size=None, out=None):
        return self._drawn("normal", self.gen.standard_normal(size, out=out))

    def standard_exponential(self, size=None, out=None):
        return self._drawn("exponential", self.gen.standard_exponential(size, out=out))

    def noncentral_chisquare(self, df, nonc, size=None):
        return self._drawn("noncentral_chisquare", self.gen.noncentral_chisquare(df, nonc, size))


class TestStreams:
    # 200k variates per stream.  The KS bar is the 1 % critical value for all
    # 16 one-sample tests together (Bonferroni): P(sqrt(n) D > 2.01) is about
    # 2 exp(-2 * 2.01^2) = 0.01 / 16.  At the per-test 1 % value, 1.63, one
    # of 16 independent tests of exact laws fails about 15 % of the time;
    # here (1, (1, 0, 0))'s Exp(1) draws read 1.84 (p = 0.002), while over
    # 300 keyed streams the KS p-values were uniform.  Correlations between
    # streams are bounded at 5 sigma.
    N = 200_000
    KEYS = [(0, 0, 0), (1, 0, 0), (5, 1, 0), (3, 0, 2)]
    SEEDS = [0, 1]

    @staticmethod
    def _ks(sample, cdf):
        u = cdf(np.sort(sample))
        i = np.arange(1, u.size + 1)
        return max(np.max(i / u.size - u), np.max(u - (i - 1) / u.size))

    def _draws(self, method):
        return {(seed, key): getattr(rs._stream(seed, key), method)(self.N)
                for seed in self.SEEDS for key in self.KEYS}

    def test_normals_and_exponentials_follow_their_laws(self):
        from scipy.special import ndtr

        bar = 2.01 / math.sqrt(self.N)
        for draws, cdf in [(self._draws("standard_normal"), ndtr),
                           (self._draws("standard_exponential"), lambda e: -np.expm1(-e))]:
            for stream, sample in draws.items():
                assert self._ks(sample, cdf) <= bar, stream

    def test_streams_of_distinct_keys_or_seeds_are_uncorrelated(self):
        draws = list(self._draws("standard_normal").values())
        bar = 5.0 / math.sqrt(self.N)
        for i in range(len(draws)):
            for j in range(i):
                assert abs(np.corrcoef(draws[i], draws[j])[0, 1]) <= bar, (i, j)

    def test_distinct_keys_give_distinct_first_draws(self):
        first = [rs._stream(seed, key).standard_normal() for seed in self.SEEDS
                 for key in self.KEYS]
        assert len(set(first)) == len(first)


class TestDrawCounts:
    # 10 steps of 7 paths; per step: (normals, noncentral chi^2, Exp(1)) draws
    CASES = {
        # three bm particles; X bounded above and below by the one Y
        "bm-nnp1": (lambda: rs.simulate_two_level(
            make_spec("bm"), Shape.NNP1, np.array([-1.0, 1.0]), np.array([0.0]),
            T=0.1, dt=0.01, n_paths=7, seed=2, y_spec=make_spec("bm")), (3, 0, 2)),
        # Y bounded below by its reflecting wall, X by Y
        "bes3-w11": (lambda: rs.simulate_two_level(
            make_spec("bm_halfline:abs"), Shape.NN, np.array([1.0]), np.array([0.5]),
            T=0.1, dt=0.01, n_paths=7, seed=2, y_spec=make_spec("bm_halfline:refl")), (2, 0, 2)),
        # sizes 2, 3, 3, where crossings of the free first level stop paths,
        # which draw on
        "bm-gt-equal-size": (lambda: rs.simulate_gt(
            [make_spec("bm")] * 3, [np.array([-0.02, 0.02]), np.array([-0.5, 0.0, 0.5]),
                                    np.array([-0.2, 0.3, 0.8])],
            T=0.1, dt=0.01, n_paths=7, seed=2), (8, 0, 9)),
        # besq:4 leads and draws one chi'^2, besq:2 follows and draws two normals
        "besq-edge": (lambda: rs.simulate_edge(
            make_spec("besq:2"), 2, "left", np.array([2e-4, 1e-4]), T=0.1, dt=0.01,
            n_paths=7, seed=2), (2, 1, 1)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_counts_are_steps_times_paths_times_draws_per_step(self, monkeypatch, case):
        run, per_step = self.CASES[case]
        counts = dict.fromkeys(("normal", "noncentral_chisquare", "exponential"), 0)
        stream = rs._stream
        monkeypatch.setattr(rs, "_stream", lambda seed, key: _CountingStream(stream(seed, key),
                                                                             counts))
        pb = run()
        kinds = ("normal", "noncentral_chisquare", "exponential")
        assert pb.draws == {kind: 10 * 7 * n for kind, n in zip(kinds, per_step)}
        assert pb.draws == counts
        if case == "bm-gt-equal-size":
            assert np.isfinite(pb.tau).any()


class TestConstantCoefficientSteps:
    def test_which_members_have_constant_coefficients(self):
        from interlace_lab.diffusion1d import CATALOG_IDS
        from interlace_lab.diffusion1d.catalog import constant_coefficients

        brownian = {"bm": 0.0, "bm_drift:0.5": 0.5, "bm_halfline:refl": 0.0,
                    "bm_halfline:abs": 0.0, "bm_interval:refl,refl": 0.0,
                    "bm_interval:abs,abs": 0.0, "bm_interval:abs,refl": 0.0}
        for sid in {*CATALOG_IDS, *brownian}:
            expected = (0.5, brownian[sid]) if sid in brownian else None
            assert constant_coefficients(make_spec(sid)) == expected, sid

    def test_drifted_level_steps_by_the_euler_formula(self):
        # a lone bm_drift particle replayed from its stream, bit for bit
        mu, n_paths = 0.5, 64
        pb = rs.simulate_gt([make_spec(f"bm_drift:{mu}")], [np.array([0.3])], T=0.5, dt=0.05,
                            n_paths=n_paths, seed=12)
        g, x = rs._stream(12, (2, 0, 0)), np.full(n_paths, 0.3)
        for _ in range(10):
            x = x + mu * pb.dt + math.sqrt(pb.dt) * g.standard_normal(n_paths)
        assert np.array_equal(pb.terminal(0)[:, 0], x)


class TestBlockKernelMonteCarlo:
    def test_two_level_density_matches_kernel_smoothing(self):
        # raw dual dynamics (killing at collisions) against the block
        # determinant, by product-kernel smoothing at one configuration.
        # The estimate reads 5.5 % low at dt = 4e-3 (4.2 % at 1e-3); the
        # h = 0.17 smoothing alone accounts for 3.3 % of it
        import numpy as np
        from interlace_lab import twolevel as tl

        bm = make_spec("bm")
        sys_ = tl.TwoLevelSystem(bm, tl.Shape.NNP1)
        z = (np.array([-1.0, 1.0]), np.array([0.0]))
        q_exact = float(tl.block_kernel(sys_, 1.0, z, z))
        pb = rs.simulate_two_level(bm, Shape.NNP1, z[0], z[1], T=1.0, dt=4e-3,
                                   n_paths=60000, seed=33)
        alive = pb.alive
        X = pb.terminal(1)[alive]
        Y = pb.terminal(0)[alive]
        h = 0.17
        w = np.exp(-0.5 * ((X[:, 0] + 1.0) ** 2 + (X[:, 1] - 1.0) ** 2 + Y[:, 0] ** 2) / h**2)
        est = w.sum() / pb.tau.shape[0] / (h * math.sqrt(2 * math.pi)) ** 3
        assert est == pytest.approx(q_exact, rel=0.1)


def _y_pair(n):
    rng = np.random.default_rng(3)
    return np.column_stack([rng.uniform(0.1, 0.5, n), rng.uniform(0.7, 1.1, n)])


def _golden_cases():
    from interlace_lab.harness.checks import run_gt2

    bm = make_spec("bm")
    refl = make_spec("bm_halfline:refl")
    return {
        # default y_spec is the conjugate bm_halfline:abs, so Y is killed at 0
        "two-level-nnp1": lambda: rs.simulate_two_level(
            refl, Shape.NNP1, np.array([0.05, 0.6, 1.3]), _y_pair, T=0.3, dt=2e-3,
            n_paths=400, seed=7, record_stride=30),
        "two-level-nn": lambda: rs.simulate_two_level(
            make_spec("bm_halfline:abs"), Shape.NN, np.array([1.0]), np.array([0.5]),
            T=0.3, dt=2e-3, n_paths=400, seed=21, y_spec=refl),
        "two-level-np1n": lambda: rs.simulate_two_level(
            bm, Shape.NP1N, np.array([0.0]), np.array([-0.3, 0.3]), T=0.3, dt=2e-3,
            n_paths=400, seed=4),
        "gt2-gue": lambda: run_gt2("gue", 400, 5e-3, 5),
        "gt2-besq": lambda: run_gt2("besq:2", 400, 5e-3, 15, init_seed=21),
        # sizes 2, 3, 3: crossings of the free first level make level 2 collide
        "gt-equal-size": lambda: rs.simulate_gt(
            [bm] * 3, [np.array([-0.05, 0.05]), np.array([-0.5, 0.0, 0.5]),
                       np.array([-0.2, 0.3, 0.8])],
            T=0.3, dt=2e-3, n_paths=400, seed=8, record_stride=50),
        "edge-right-bm": lambda: rs.simulate_edge(
            bm, 3, "right", np.zeros(3), T=0.3, dt=2e-3, n_paths=400, seed=9),
        # the benchmarked CLI system: one Y, no stop rule, levels recorded
        "two-level-cli-csv": lambda: rs.simulate_two_level(
            bm, Shape.NNP1, np.array([-1.0, 1.0]), np.array([0.0]), T=1.0, dt=0.01,
            n_paths=400, seed=7, y_spec=bm, record_stride=10),
        "edge-left-besq": lambda: rs.simulate_edge(
            make_spec("besq:2"), 2, "left", np.array([2e-4, 1e-4]), T=0.3, dt=2e-3,
            n_paths=400, seed=15, record_stride=40),
    }


def _digest(pb):
    h = hashlib.sha256()
    for a in [*pb.levels, pb.tau, pb.grid]:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# sha256 of levels, tau and grid, and the exact contact fraction, for
# pinned seeds, drawn from the SFC64 streams of rs._stream.  A change to the
# stepper that keeps the RNG layout and the scheme must leave these
# unchanged.  The besq cases step exactly (dt chi'^2 draws from the normal
# streams) and push in u = sqrt(x); the others are bm and bm_halfline
# systems, whose Euler steps and pushes are those of the state-unit scheme
# bit for bit.  Their constant-coefficient step x + b dt + sqrt(dt) xi and
# scalar bridge variances give the bits of the step with a and b evaluated
# per particle.  Both tables were pinned again, from the same runs, when the
# bundles stopped carrying per-path push totals.
GOLDEN = {
    "two-level-nnp1": ("0e0faa161f8012659ec49c971ca3e68955bf1dface3d5ae0526113189244688e", 0.07730000000000002),
    "two-level-nn": ("8d2dbc9f1e2e9831fc3e1d555122ae52347d20b7d2bfcd7021d796c24d879914", 0.04655000000000002),
    "two-level-cli-csv": ("cde6bcc91250fb5fb8559b3a99e093c6ff95c469f633bd8ab4cd120e143a9012", 0.045250000000000005),
    "two-level-np1n": ("dfafcf73562bb50e7130b4c6c99e278a9a8c73ef43bbdb03392afd885c795be8", 0.12165000000000004),
    "gt2-gue": ("60da23c7cd4a515f39ea0cd0a12a44f17655e13b468d9bd1c7b3bcc24c282fef", 0.0853249999999999),
    "gt2-besq": ("d75d34fc2561c3ea3d8b3d54dc1559846ee06bebcd73d491c4347195be701a99", 0.11232500000000005),
    "gt-equal-size": ("fba3f88ba7d5097e5e50f0c8d39c3ed70e2b371fc4f3686dcef5ce33e7a491a7", 0.14933888888888905),
    "edge-right-bm": ("47b529c2e055799d77c9b17e9385a6f3e5d1fadde1f57fe4f2bf39323df0247e", 0.13456666666666664),
    "edge-left-besq": ("982e7997056ed1d4b23fdbfdd0463fdb35fc33a1f6aedfcd7a10b3e955813538", 0.08549999999999999),
}

# The same cases with every stream a Philox generator under the same
# seed-sequence keys: the pins from when the stepper drew from Philox.
# Reproducing them under a patched rs._stream shows that the move to SFC64
# changed the bit generator only, not the stepping arithmetic, the keys or
# the draw order.  two-level-cli-csv was first pinned with the step that
# evaluates a and b per particle.  gt2-gue and gt2-besq were pinned again in
# both tables when their entrance laws came to draw from the matrix models:
# their starts are draws of the entrance law's own generator, not of a stream.
GOLDEN_PHILOX = {
    "two-level-nnp1": ("1bfad9d8e22bd8da17c9b4f736e4b69787e9ef96164c24173142d8eb4ea386c7", 0.07578333333333341),
    "two-level-nn": ("56d82eaa616ca7be3ae851753466fd5ee4df7324c3f7879d949d66951ee92751", 0.04170000000000003),
    "two-level-cli-csv": ("df80a2903a43e6a2038ce1414cf09d61996dafdf302668bca01b848eebcc3bf4", 0.047499999999999966),
    "two-level-np1n": ("6d4af64ead186f36891badc6b5990e9bd31b67d9f98ad7d5c85250b2dfb61a50", 0.11584999999999991),
    "gt2-gue": ("dc648f0a9ea00428fc5fc8b790997b86e29b89bddba49de33d38b19b86abe68d", 0.08540624999999999),
    "gt2-besq": ("3f777c8ee28c412034ab0f66982a12b5851f6bce0810769badd6058263775185", 0.11491874999999997),
    "gt-equal-size": ("4472ffb0d97a5db566ee3f77e17fdd918b9c952a4b03720f27d45cef780defa1", 0.14822499999999994),
    "edge-right-bm": ("a8f9b077dd39ea78c922927b7d61a2d96eea289d0af9e16cac6524e4dedde4cd", 0.13141666666666663),
    "edge-left-besq": ("8daabf30c2b8688cbe49c8b6d61ed216707dfba0ed78d761b4e0bc69eab8596c", 0.08818333333333324),
}


def _assert_pinned(case, pins):
    pb = _golden_cases()[case]()
    digest, contact_fraction = pins[case]
    assert _digest(pb) == digest
    assert pb.contact_fraction == contact_fraction


class TestGoldenDigests:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_pinned_seed_outputs_are_unchanged(self, case):
        _assert_pinned(case, GOLDEN)

    @pytest.mark.parametrize("case", sorted(GOLDEN_PHILOX))
    def test_philox_streams_reproduce_the_philox_pins(self, monkeypatch, case):
        monkeypatch.setattr(rs, "_stream", lambda seed, key: np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))))
        _assert_pinned(case, GOLDEN_PHILOX)
