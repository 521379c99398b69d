import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace_lab import reflectsde as rs
from interlace_lab.diffusion1d import make_spec
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
        # no y level: a single unconstrained motion, terminal variance = T
        bm = make_spec("bm")
        pb = rs.simulate_two_level(bm, Shape.NNP1, np.array([0.0]), np.zeros((1, 0)),
                                   T=1.0, dt=1e-3, n_paths=30000, seed=1, y_spec=bm)
        xs = pb.terminal(1)[:, 0]
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
        assert np.all(pb.k_lower[1] >= 0.0) and np.all(pb.k_upper[1] >= 0.0)
        assert pb.k_lower[1].sum() > 0.0  # tight start guarantees contact
        assert 0.0 < pb.contact_fraction < 0.5

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


class TestGTSimulation:
    def test_levels_outside_their_walls_are_rejected(self):
        besq2, besq4 = make_spec("besq:2"), make_spec("besq:4")
        with pytest.raises(ValueError, match="initial level1 leaves the state interval"):
            rs.simulate_gt([besq2, besq4], [np.array([-0.5]), np.array([-1.0, 1.0])],
                           T=0.1, dt=1e-2, n_paths=3, seed=0)
        with pytest.raises(ValueError, match="initial level2 leaves the state interval"):
            rs.simulate_gt([besq2, besq4], [np.array([0.5]), np.array([-1e-9, 1.0])],
                           T=0.1, dt=1e-2, n_paths=3, seed=0)

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
        # push, E k = E|N(0.2, 1)| - 0.2 (per-step projection is off by 0.17)
        from scipy.special import ndtr

        from interlace_lab.harness.stats import ks_statistic_cdf

        pb = rs.simulate_gt([make_spec("bm_halfline:refl")], [np.array([0.2])], T=1.0,
                            dt=0.1, n_paths=20000, seed=61)
        x = np.sort(pb.terminal(0)[:, 0])
        assert ks_statistic_cdf(x, ndtr(x - 0.2) - ndtr(-x - 0.2)) <= 0.02
        mean_abs = math.sqrt(2 / math.pi) * math.exp(-0.02) + 0.2 * (1 - 2 * ndtr(-0.2))
        assert pb.k_lower[0].mean() == pytest.approx(mean_abs - 0.2, abs=3 * x.std() / math.sqrt(20000))

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
        assert rs.edge_ladder_spec(make_spec("besq:2"), 2, 1).name == "besq:4"
        assert rs.edge_ladder_spec(make_spec("besq:2"), 2, 2).name == "besq:2"
        assert rs.edge_ladder_spec(make_spec("lag:2"), 3, 1).name == "lag:6"
        assert rs.edge_ladder_spec(make_spec("jac:1,1"), 2, 1).name == "jac:2,2"
        assert rs.edge_ladder_spec(make_spec("gbm:1"), 2, 1).name == "gbm:2"
        assert rs.edge_ladder_spec(make_spec("bm"), 4, 2).name == "bm"

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


class TestBlockKernelMonteCarlo:
    def test_two_level_density_matches_kernel_smoothing(self):
        # raw dual dynamics (killing at collisions) against the block
        # determinant, by product-kernel smoothing at one configuration
        import numpy as np
        from interlace_lab import twolevel as tl

        bm = make_spec("bm")
        sys_ = tl.TwoLevelSystem(bm, tl.Shape.NNP1)
        z = (np.array([-1.0, 1.0]), np.array([0.0]))
        q_exact = float(tl.block_kernel(sys_, 1.0, z, z))
        pb = rs.simulate_two_level(bm, Shape.NNP1, z[0], z[1], T=1.0, dt=1e-3,
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
    # name -> (simulation, first constrained level)
    return {
        # default y_spec is the conjugate bm_halfline:abs, so Y is killed at 0
        "two-level-nnp1": (lambda: rs.simulate_two_level(
            refl, Shape.NNP1, np.array([0.05, 0.6, 1.3]), _y_pair, T=0.3, dt=2e-3,
            n_paths=400, seed=7, record_stride=30), 1),
        "two-level-nn": (lambda: rs.simulate_two_level(
            make_spec("bm_halfline:abs"), Shape.NN, np.array([1.0]), np.array([0.5]),
            T=0.3, dt=2e-3, n_paths=400, seed=21, y_spec=refl), 1),
        "two-level-np1n": (lambda: rs.simulate_two_level(
            bm, Shape.NP1N, np.array([0.0]), np.array([-0.3, 0.3]), T=0.3, dt=2e-3,
            n_paths=400, seed=4), 1),
        "gt2-gue": (lambda: run_gt2("gue", 400, 5e-3, 5), 1),
        "gt2-besq": (lambda: run_gt2("besq:2", 400, 5e-3, 15, init_seed=21), 1),
        # sizes 2, 3, 3: crossings of the free first level make level 2 collide
        "gt-equal-size": (lambda: rs.simulate_gt(
            [bm] * 3, [np.array([-0.05, 0.05]), np.array([-0.5, 0.0, 0.5]),
                       np.array([-0.2, 0.3, 0.8])],
            T=0.3, dt=2e-3, n_paths=400, seed=8, record_stride=50), 1),
        "edge-right-bm": (lambda: rs.simulate_edge(
            bm, 3, "right", np.zeros(3), T=0.3, dt=2e-3, n_paths=400, seed=9), 0),
        "edge-left-besq": (lambda: rs.simulate_edge(
            make_spec("besq:2"), 2, "left", np.array([2e-4, 1e-4]), T=0.3, dt=2e-3,
            n_paths=400, seed=15, record_stride=40), 0),
    }


def _digest(pb, first_constrained):
    h = hashlib.sha256()
    for a in [*pb.levels, pb.tau, pb.grid,
              *pb.k_lower[first_constrained:], *pb.k_upper[first_constrained:]]:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# sha256 of levels, tau, grid and the constrained levels' pushes, and the
# exact contact fraction, for pinned seeds.  A change to the stepper that
# keeps the RNG layout and the scheme must leave these unchanged.
GOLDEN = {
    "two-level-nnp1": ("cc526ce7daa3aefca4f958daa7f6af2958528f655a1d4bcec7ff9b9cb1e90064", 0.07578333333333341),
    "two-level-nn": ("af537c0e8cfff9b103f22966dd18eefbb6603c8604a5203bc6fccc17eb1e910e", 0.04170000000000003),
    "two-level-np1n": ("686344fd1c26b7252cacb56f8e9baa04d00cb97683816fb2ea85f92597ad80ef", 0.11584999999999991),
    "gt2-gue": ("fbc15ee8574f2909112cfd48c4762eb9580df755cb399c13b3f6f52622f2225a", 0.08551874999999998),
    "gt2-besq": ("9bba560e17244ffa2b22216efae712ee9edbb564ad1d38903abbae1f99036197", 0.11509374999999988),
    "gt-equal-size": ("dad2c1f06d76b4da6a34ef881a5d4e80b59fc66e0f437412282dcdf91df9085e", 0.14822499999999994),
    "edge-right-bm": ("2636ba76ab5e20e8f447a06a48ea9072f11f78c8c68029e71d1faf3aa7216893", 0.13141666666666663),
    "edge-left-besq": ("d0b874d29fb1ddddc28ee8162058c6cff8d42f80b0031da2303837ba26fa396b", 0.0812833333333333),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_pinned_seed_outputs_are_unchanged(self, case):
        run, first_constrained = _golden_cases()[case]
        pb = run()
        digest, contact_fraction = GOLDEN[case]
        assert _digest(pb, first_constrained) == digest
        assert pb.contact_fraction == contact_fraction
