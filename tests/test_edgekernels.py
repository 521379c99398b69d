import math

import numpy as np
import pytest
from scipy.special import ndtr

from interlace_lab import edgekernels as ek
from interlace_lab import reflectsde as rs
from interlace_lab.diffusion1d import kernel, make_spec
from interlace_lab.quadrature import gl_nodes, ordered_nodes


@pytest.fixture(scope="module")
def bm2():
    return ek.EdgeOperatorTable(make_spec("bm"), 2, 1.0)


class TestOperatorTable:
    def test_first_integral_at_gaussian_mean(self, bm2):
        assert bm2.S(1, 1, 0.0, np.array([0.0])).item() == pytest.approx(0.5)

    def test_zeroth_entry_is_density(self, bm2):
        v = bm2.S(1, 0, 0.3, np.array([1.1]))
        assert v.item() == pytest.approx(float(kernel(make_spec("bm")).density(1.0, 0.3, 1.1)), rel=1e-14)

    def test_besq_constants_vanish(self):
        tbl = ek.EdgeOperatorTable(make_spec("besq:2"), 3, 0.7)
        assert tbl.c == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("derived", ["specs", "kernels", "c"])
    def test_derived_fields_are_not_arguments(self, derived):
        # the ladder, its kernels and the constants come from base and n alone
        with pytest.raises(TypeError, match=derived):
            ek.EdgeOperatorTable(make_spec("bm"), 2, 1.0, **{derived: [0, 0]})

    def test_family_constants(self):
        assert ek.EdgeOperatorTable(make_spec("ou"), 2, 0.5).c == [-1.0, -1.0]
        assert ek.EdgeOperatorTable(make_spec("lag:2"), 2, 0.5).c == [-2.0, -2.0]

    @pytest.mark.parametrize(
        "sid,x,xp",
        [
            ("bm", 0.5, np.array([0.3, 1.0])),
            ("ou", 0.4, np.array([0.3, 1.0])),
            ("besq:2", 1.2, np.array([0.5, 2.0])),
            ("lag:2", 1.0, np.array([0.5, 2.0])),
        ],
    )
    def test_derivative_recurrence(self, sid, x, xp):
        tbl = ek.EdgeOperatorTable(make_spec(sid), 2, 0.8)
        assert tbl.recurrence_residual(2, 0, x, xp) < 1e-5
        assert tbl.recurrence_residual(2, -1, x, xp) < 1e-5

    def test_gaussian_iterated_integrals_vs_quadrature(self, bm2):
        # the density integral against the truncated Gaussian moments
        # I_j = (nu I_{j-1} + t I_{j-2}) / (j-1), I_0 = phi, I_1 = Phi
        x, t, xp = 0.2, 1.0, np.array([-1.3, 0.4, 1.4, 3.0])
        nu = xp - x
        i_prev, i_cur = np.exp(-0.5 * nu * nu / t) / math.sqrt(2 * math.pi * t), ndtr(nu)
        for j in (2, 3):
            i_prev, i_cur = i_cur, (nu * i_cur + t * i_prev) / (j - 1)
            np.testing.assert_allclose(bm2.S(1, j, x, xp), i_cur, rtol=1e-12, atol=2e-14)

    @pytest.mark.parametrize("sid, x, lower", [
        ("bm", 0.3, True), ("bm", 0.3, False), ("besq:2", 0.5, True), ("lag:2", 0.5, True),
    ], ids=["bm-S", "bm-Sbar", "besq:2-S", "lag:2-S"])
    def test_far_argument_matches_a_fine_rule(self, sid, x, lower):
        # x' lies 1000 windows out, where the entry is the integral over the
        # level kernel's window, here by an 800-node rule in y
        tbl = ek.EdgeOperatorTable(make_spec(sid), 2, 1.0)
        kern = tbl.kernels[0]
        lo, hi = kern.window(1.0, x)
        xp = 1000.0 * (hi if lower else lo)
        z, w = gl_nodes(lo, hi, 800)
        wd = (1.0 if lower else -1.0) * w * kern.density(1.0, x, z)
        for j in (2, 3):
            got = (tbl.S if lower else tbl.S_bar)(1, j, x, np.array([xp])).item()
            ref = float(np.dot(wd, (xp - z) ** (j - 1))) / math.factorial(j - 1)
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_downward_variant_vs_quadrature(self, bm2):
        x, xp = 0.2, -0.3
        z, w = gl_nodes(xp, 9.0, 400)
        direct = -float(np.dot(w, kernel(make_spec("bm")).density(1.0, x, z)))
        assert bm2.S_bar(1, 1, x, np.array([xp])).item() == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("sid, named", [
        ("bm_halfline:refl", "bm_halfline:refl violates"),  # a reflecting end
        ("ou_out", "undefined for family 'ou_out'"),         # no ladder
        ("besq:1", "besq:1 violates"),                       # a reflecting end
    ], ids=["bm_halfline:refl", "ou_out", "besq:1"])
    def test_simulator_and_table_reject_an_edge_alike(self, sid, named):
        # catalog.edge_ladder owns the rule, so both entry points say the same
        spec = make_spec(sid)
        with pytest.raises(ValueError, match=named) as sim:
            rs.simulate_edge(spec, 2, "right", np.array([0.5, 1.0]), T=0.1, dt=0.05, n_paths=2)
        with pytest.raises(ValueError) as table:
            ek.EdgeOperatorTable(spec, 2, 1.0)
        assert str(table.value) == str(sim.value)


class TestEdgeDensity:
    def test_single_particle_is_kernel(self):
        tbl = ek.EdgeOperatorTable(make_spec("bm"), 1, 1.0)
        v = ek.edge_density(tbl, np.array([0.2]), np.array([[0.9]]))
        assert float(v) == pytest.approx(float(kernel(make_spec("bm")).density(1.0, 0.2, 0.9)), rel=1e-12)

    @pytest.mark.parametrize("x, xp", [
        ([0.5, -0.3], [[0.9, 0.1], [0.2, -0.6]]),
        ([1.0, 0.2, -0.4], [[1.1, 0.5, -0.2], [0.4, 0.0, -1.0]]),
    ])
    def test_falling_edge_is_the_mirrored_rising_edge(self, x, xp):
        # Brownian motion is symmetric, so the falling edge from the
        # decreasing (x, x') is the rising edge from (-x, -x')
        tbl = ek.EdgeOperatorTable(make_spec("bm"), len(x), 0.7)
        left = ek.edge_density(tbl, x, xp, side="left")
        right = ek.edge_density(tbl, -np.array(x), -np.array(xp))
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=0.0)

    def test_conservative_normalization(self, bm2):
        x = np.array([0.0, 0.4])
        pts, wts = ordered_nodes(2, -8.0, 8.5, 80)
        mass = float(np.dot(wts, ek.edge_density(bm2, x, pts)))
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_delta_initial_condition(self, bm2):
        # t -> 0: integral against a bump away from the diagonal returns
        # the bump at the start
        tbl = ek.EdgeOperatorTable(make_spec("bm"), 2, 1e-3)
        x = np.array([0.0, 1.5])
        f = lambda p: np.exp(-2.0 * ((p[:, 0] - x[0]) ** 2 + (p[:, 1] - x[1]) ** 2))
        pts, wts = ordered_nodes(2, -1.0, 2.5, 140)
        val = float(np.dot(wts, ek.edge_density(tbl, x, pts) * f(pts)))
        assert val == pytest.approx(1.0, abs=5e-3)

    def test_neumann_condition_at_contact(self, bm2):
        assert ek.neumann_residual(bm2, np.array([0.3, 0.3]), np.array([0.1, 0.8]), 1) < 1e-4

    def test_neumann_condition_besq(self):
        tbl = ek.EdgeOperatorTable(make_spec("besq:2"), 2, 0.8)
        assert ek.neumann_residual(tbl, np.array([1.1, 1.1]), np.array([0.6, 2.2]), 1) < 1e-4

    def test_matches_simulation_smoothed(self):
        from interlace_lab import reflectsde as rs

        x0 = np.array([0.0, 0.1])
        tbl = ek.EdgeOperatorTable(make_spec("bm"), 2, 1.0)
        # edge pushes are bridge-sampled, so a coarse step leaves no push bias
        pb = rs.simulate_edge(make_spec("bm"), 2, "right", x0, T=1.0, dt=4e-3,
                              n_paths=40000, seed=77)
        X = pb.terminal(0)
        h = 0.15
        grid = np.array([[-0.5, 0.6], [0.0, 1.0], [-1.2, 0.2], [0.5, 1.4]])
        worst = 0.0
        for g in grid:
            w = np.exp(-0.5 * ((X[:, 0] - g[0]) ** 2 + (X[:, 1] - g[1]) ** 2) / h**2)
            est = w.mean() / (2 * math.pi * h**2)
            exact = float(ek.edge_density(tbl, x0, g[None, :]))
            worst = max(worst, abs(est - exact))
        assert worst < 0.05


class TestExtremeCdfs:
    @pytest.mark.parametrize("start", [[0.0], [0.0, 0.5, 1.0], [[0.0, 0.5]]])
    def test_start_without_n_coordinates_raises(self, bm2, start):
        z = np.array([0.0, 1.0])
        for call in (lambda: ek.edge_max_cdf(bm2, start, z),
                     lambda: ek.edge_min_survival(bm2, start, z),
                     lambda: ek.edge_density(bm2, start, [0.0, 1.0])):
            with pytest.raises(ValueError, match="2 particles needs a start of 2 coordinates"):
                call()

    @pytest.mark.parametrize("side, start", [("right", [1.0, 0.0]), ("left", [0.0, 1.0])])
    def test_misordered_start_raises(self, bm2, side, start):
        # the rising edge starts weakly increasing, the falling one decreasing
        cdf = ek.edge_max_cdf if side == "right" else ek.edge_min_survival
        with pytest.raises(ValueError, match=f"the {side} edge needs a weakly"):
            cdf(bm2, start, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("sid, start", [
        ("besq:2", [-1.0, 0.0]), ("gbm:1", [0.0, 1.0]),
        ("bm", [0.0, np.inf]), ("bm", [0.0, np.nan]),
    ], ids=["outside", "natural-end", "infinite", "nan"])
    def test_start_off_the_state_space_raises(self, sid, start):
        # an end is a start only if it is an entrance, as besq's 0
        tbl = ek.EdgeOperatorTable(make_spec(sid), 2, 1.0)
        for cdf, x0 in ((ek.edge_max_cdf, start), (ek.edge_min_survival, start[::-1])):
            with pytest.raises(ValueError, match="inside the state interval"):
                cdf(tbl, x0, np.array([0.5, 1.0]))

    def test_single_particle_gaussian_cdf(self):
        tbl = ek.EdgeOperatorTable(make_spec("bm"), 1, 1.0)
        z = np.array([-0.5, 0.3, 1.7])
        assert np.allclose(ek.edge_max_cdf(tbl, np.array([0.0]), z), ndtr(z), rtol=1e-12)

    def test_frozen_two_particle_formula(self, bm2):
        # det reduces to Phi^2 - phi (z Phi + phi) from the coincident start
        z = np.linspace(-1.0, 3.0, 9)
        got = ek.edge_max_cdf(bm2, np.array([0.0, 0.0]), z)
        phi = np.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        expect = ndtr(z) ** 2 - phi * (z * ndtr(z) + phi)
        assert np.max(np.abs(got - expect)) < 1e-14

    def test_monotone_in_z_with_unit_limits(self, bm2):
        z = np.linspace(-6.0, 7.0, 200)
        F = ek.edge_max_cdf(bm2, np.array([0.0, 0.1]), z)
        assert np.all(np.diff(F) >= -1e-12)
        assert F[0] == pytest.approx(0.0, abs=1e-8)
        assert F[-1] == pytest.approx(1.0, abs=1e-8)

    def test_monotone_in_start_coordinates(self, bm2):
        z = np.array([1.0])
        vals = [ek.edge_max_cdf(bm2, np.array([0.0, s]), z).item() for s in (0.0, 0.3, 0.6)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_coincident_start_is_the_gue_law(self):
        # from the origin the pair's maximum has the law of GUE(2)'s largest
        # eigenvalue, Phi (Phi - z phi) - phi^2, and its minimum the mirror law
        z = np.linspace(-3.0, 5.0, 161)
        phi = np.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        exact = ndtr(z) * (ndtr(z) - z * phi) - phi**2
        fmax = ek.edge_max_cdf_degenerate(make_spec("bm"), 2, 1.0, 0.0, z)
        fmin = ek.edge_min_cdf_degenerate(make_spec("bm"), 2, 1.0, 0.0, -z)
        assert np.max(np.abs(fmax - exact)) < 1e-14
        assert np.max(np.abs(1.0 - fmin - exact)) < 1e-14

    def test_min_survival_single_particle(self):
        tbl = ek.EdgeOperatorTable(make_spec("bm"), 1, 1.0)
        z = np.array([-0.4, 0.6])
        got = ek.edge_min_survival(tbl, np.array([0.0]), z)
        assert np.allclose(got, 1.0 - ndtr(z), rtol=1e-12)

    def test_jacobi_long_time_reaches_stationary_ensemble(self):
        # qualitative: by t = 5 the pair is essentially stationary, so the
        # rightmost-particle law should sit near the matrix-ensemble one
        from interlace_lab.harness import empirical_cdf_on_grid, jacobi_unitary_sample

        rng = np.random.default_rng(123)
        ev = jacobi_unitary_sample(rng, 2, 2, 2, 4000)
        zg = np.linspace(0.1, 0.999, 31)
        tbl = ek.EdgeOperatorTable(make_spec("jac:1,1"), 2, 5.0)
        F = ek.edge_max_cdf(tbl, np.array([0.2, 0.4]), zg)
        assert np.max(np.abs(F - empirical_cdf_on_grid(ev[:, 1], zg))) < 0.05

    def test_besq_extremes_vs_oracle(self):
        from interlace_lab.harness import complex_wishart_sample, empirical_cdf_on_grid

        rng = np.random.default_rng(42)
        evw = complex_wishart_sample(rng, 2, 2, 120000, entry_variance=2.0)
        zg = np.linspace(0.05, 14.0, 41)
        Fmax = ek.edge_max_cdf_degenerate(make_spec("besq:2"), 2, 1.0, 0.0, zg)
        assert np.max(np.abs(Fmax - empirical_cdf_on_grid(evw[:, 1], zg))) < 0.02
        zg2 = np.linspace(1e-3, 3.0, 41)
        Fmin = ek.edge_min_cdf_degenerate(make_spec("besq:2"), 2, 1.0, 0.0, zg2)
        assert np.max(np.abs(Fmin - empirical_cdf_on_grid(evw[:, 0], zg2))) < 0.02
