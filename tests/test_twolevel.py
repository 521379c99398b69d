import numpy as np
import pytest

from interlace_lab import kmgroup as km
from interlace_lab import twolevel as tl
from interlace_lab.diffusion1d import conjugate, kernel, make_spec
from interlace_lab.diffusion1d.catalog import chamber_quad, fiber_quad
from interlace_lab.harness.checks import master_cases
from interlace_lab.quadrature import gl_nodes


@pytest.fixture(scope="module")
def bm_sys():
    return tl.TwoLevelSystem(make_spec("bm"), tl.Shape.NNP1)


@pytest.fixture(scope="module")
def half_sys():
    return tl.TwoLevelSystem(make_spec("bm_halfline:abs"), tl.Shape.NN)


class TestShapes:
    def test_boundary_assumptions_enforced(self):
        with pytest.raises(tl.BoundaryAssumptionError):
            tl.TwoLevelSystem(make_spec("bm_halfline:refl"), tl.Shape.NN)
        with pytest.raises(tl.BoundaryAssumptionError):
            tl.TwoLevelSystem(make_spec("bm_halfline:abs"), tl.Shape.NNP1)
        tl.TwoLevelSystem(make_spec("besq:3"), tl.Shape.NNP1)  # entrance ok

    def test_derived_fields_are_not_arguments(self):
        # kern, dual_kern and m_hat = s' all follow from the spec
        with pytest.raises(TypeError):
            tl.TwoLevelSystem(make_spec("bm"), tl.Shape.NNP1, m_hat=lambda y: 2.0 * y)
        spec = make_spec("besq:3")
        sys_ = tl.TwoLevelSystem(spec, tl.Shape.NNP1)
        y = np.array([0.5, 2.0])
        np.testing.assert_array_equal(sys_.m_hat(y), spec.scale.s_prime(y))
        # s' = exp(log s') is the closed form y^-3/2 to within 2 ulps
        np.testing.assert_array_max_ulp(sys_.m_hat(y), y ** -1.5, maxulp=2)

    @pytest.mark.parametrize("shape, x, y_lo, y_hi, x_lo, x_hi", [
        (tl.Shape.NNP1, [1, 2, 3], [1, 2], [2, 3], [-9, 10, 20], [10, 20, 9]),
        (tl.Shape.NN, [1, 2, 3], [-9, 1, 2], [1, 2, 3], [10, 20, 30], [20, 30, 9]),
        (tl.Shape.NP1N, [1], [-9, 1], [1, 9], [10], [20]),
    ], ids=["n,n+1", "n,n", "n+1,n"])
    def test_interlace_bounds_give_both_fibers_and_the_indicator(
            self, shape, x, y_lo, y_hi, x_lo, x_hi):
        # the y-fiber over x, and the x-fiber over y = (10, 20, ...); the
        # walls l = -9 and r = 9 stand where a bounding particle is missing
        n1, n2 = len(y_lo), len(x)
        lo, hi = tl.fiber_bounds(np.array([x, x], float), shape, -9.0, 9.0)
        np.testing.assert_array_equal(lo, [y_lo, y_lo])
        np.testing.assert_array_equal(hi, [y_hi, y_hi])
        y = 10.0 * np.arange(1, n1 + 1)
        lo, hi = tl.interlace_bounds(y, tl.counts(shape, n1), shape.above, -9.0, 9.0)
        np.testing.assert_array_equal(lo, x_lo)
        np.testing.assert_array_equal(hi, x_hi)
        ind = tl.TwoLevelSystem(make_spec("bm"), shape).indicator(n1, n2)
        i, j = np.arange(n2)[:, None], np.arange(n1)[None, :]
        np.testing.assert_array_equal(ind, (j >= i + shape.above).astype(float))


def _entrywise_block_kernel(sys_, t, z_from, z_to, perturb=None):
    """block_kernel entry by entry over a flat batch: the reference the
    vectorised blocks must reproduce."""
    x, y = (np.asarray(a, float) for a in z_from)
    xp, yp = (np.asarray(a, float) for a in z_to)
    n2, n1 = x.shape[-1], y.shape[-1]
    i, j = np.arange(n2)[:, None], np.arange(n1)[None, :]
    strict = (sys_.shape is tl.Shape.NNP1) == (perturb == "indicator")
    ind = (j > i) if strict else (j >= i)
    c_sign = 1.0 if perturb == "c_sign" else -1.0
    batch = np.broadcast_shapes(x.shape[:-1], y.shape[:-1], xp.shape[:-1], yp.shape[:-1])
    M = np.empty(batch + (n1 + n2, n1 + n2))
    for a in range(n2):
        for b in range(n2):
            M[..., a, b] = sys_.kern.density(t, x[..., a], xp[..., b])
        for b in range(n1):
            M[..., a, n2 + b] = sys_.m_hat(yp[..., b]) * (
                sys_.kern.cdf(t, x[..., a], yp[..., b]) - ind[a, b])
    for a in range(n1):
        for b in range(n2):
            M[..., n2 + a, b] = c_sign * sys_.kern.dx_derivative(
                1, t, y[..., a], xp[..., b]) / sys_.m_hat(y[..., a])
        for b in range(n1):
            M[..., n2 + a, n2 + b] = sys_.dual_kern.density(t, y[..., a], yp[..., b])
    return np.linalg.det(M)


_STRUCTURED_CASES = [
    ("bm", tl.Shape.NNP1, ([-1.0, 1.0], [0.0]), ([-0.8, 1.3], [0.4])),
    ("bm_halfline:abs", tl.Shape.NN, ([1.2], [0.6]), ([1.0], [0.5])),
    ("besq:3", tl.Shape.NNP1, ([1.0, 3.0], [2.0]), ([1.4, 2.6], [1.9])),
]


class TestBlockKernel:
    @pytest.mark.parametrize("perturb", [None, "indicator", "c_sign"])
    @pytest.mark.parametrize("sid,shape,z,z2", _STRUCTURED_CASES,
                             ids=[c[0] for c in _STRUCTURED_CASES])
    def test_structured_nodes_match_the_flat_batch(self, sid, shape, z, z2, perturb):
        # image nodes keep x' as (N, 1, n2) and y' as (N, F, n1), as
        # fiber_quad lays them out; the kernel on them must equal the kernel
        # on the flat batch of (x', y') pairs, and both the entrywise reference
        sys_ = tl.TwoLevelSystem(make_spec(sid), shape)
        z = tuple(np.array(a) for a in z)
        z2 = tuple(np.array(a) for a in z2)
        t, n = 0.5, 6
        xp, yp, w = tl._image_nodes(sys_, z, tl._window(sys_, t, z), n)
        lo, hi = sys_.kern.window(t, np.concatenate(z))
        xc, wx = chamber_quad(sys_.spec, z[0].shape[-1], lo, hi, n)
        yf, wy = fiber_quad(sys_.spec, *tl.fiber_bounds(xc, shape, lo, hi), n)
        N, F = w.shape
        assert xp.shape == (N, 1, z[0].shape[-1]) and yp.shape == (N, F, z[1].shape[-1])
        np.testing.assert_array_equal(yp, yf)
        np.testing.assert_array_equal(w, wx[:, None] * wy)
        flat = (np.repeat(xc, F, axis=0), yf.reshape(N * F, -1))
        for z_from, flat_from, z_to, flat_to in [
            (z, z, (xp, yp), flat),       # from a point into the nodes
            ((xp, yp), flat, z2, z2),     # from the nodes to a point
        ]:
            q = tl.block_kernel(sys_, t, z_from, z_to, perturb=perturb)
            assert q.shape == (N, F)
            flat = tl.block_kernel(sys_, t, flat_from, flat_to, perturb=perturb)
            ref = _entrywise_block_kernel(sys_, t, flat_from, flat_to, perturb=perturb)
            scale = np.max(np.abs(ref))
            np.testing.assert_allclose(q.reshape(-1), flat, rtol=1e-13, atol=1e-13 * scale)
            np.testing.assert_allclose(flat, ref, rtol=1e-13, atol=1e-13 * scale)

    def test_no_y_level_reduces_to_kernel(self, bm_sys):
        q = tl.block_kernel(bm_sys, 0.7, (np.array([0.2]), np.zeros(0)), (np.array([0.9]), np.zeros(0)))
        assert float(q) == pytest.approx(float(kernel(make_spec("bm")).density(0.7, 0.2, 0.9)), rel=1e-12)

    def test_equal_starting_y_rows_vanish(self, bm_sys):
        z = (np.array([-1.0, 0.0, 1.0]), np.array([0.3, 0.3]))
        zp = (np.array([-1.2, 0.1, 1.1]), np.array([-0.2, 0.6]))
        assert abs(float(tl.block_kernel(bm_sys, 0.5, z, zp))) < 1e-14

    def test_positive_on_random_configurations(self, bm_sys):
        rng = np.random.default_rng(0)
        bad = 0
        for _ in range(1000):
            x = np.sort(rng.normal(0, 1, 3))
            y = rng.uniform(x[:-1], x[1:])
            xp = np.sort(rng.normal(0, 1, 3))
            yp = rng.uniform(xp[:-1], xp[1:])
            q = float(tl.block_kernel(bm_sys, 0.5, (x, y), (xp, yp)))
            bad += q < -1e-12
        assert bad == 0

    def test_positive_besq_random(self):
        sysb = tl.TwoLevelSystem(make_spec("besq:3"), tl.Shape.NNP1)
        rng = np.random.default_rng(1)
        for _ in range(300):
            x = np.sort(rng.uniform(0.1, 5.0, 2))
            y = rng.uniform(x[:-1], x[1:])
            xp = np.sort(rng.uniform(0.1, 5.0, 2))
            yp = rng.uniform(xp[:-1], xp[1:])
            assert float(tl.block_kernel(sysb, 0.4, (x, y), (xp, yp))) > -1e-12

    def test_collapse_onto_dual_determinant(self, bm_sys):
        z = (np.array([-1.0, 1.0]), np.array([0.0]))
        assert tl.collapse_residual(bm_sys, 1.0, z, np.array([0.3])) < 1e-10

    def test_collapse_halfline(self, half_sys):
        z = (np.array([1.0]), np.array([0.4]))
        assert tl.collapse_residual(half_sys, 0.5, z, np.array([0.8])) < 1e-9


def _mass(sys_, t, z, n_nodes=32):
    """int q_t(z, z') dz' on the image nodes dynkin_residual integrates over."""
    xp, yp, w = tl._image_nodes(sys_, z, tl._window(sys_, t, z), n_nodes)
    return float(np.sum(w * tl.block_kernel(sys_, t, z, (xp, yp))))


class TestMass:
    def test_submarkov_mass_in_unit_interval(self, bm_sys):
        z = (np.array([-1.0, 1.0]), np.array([0.0]))
        m = _mass(bm_sys, 0.5, z)
        assert 0.0 < m <= 1.0 + 1e-6

    def test_single_y_on_full_line_is_conservative(self, bm_sys):
        # a single dual particle on the full line cannot be killed, and the
        # mass q_t misses is dynkin_residual with f = 1
        z = (np.array([-1.0, 1.0]), np.array([0.0]))
        m = _mass(bm_sys, 0.5, z)
        assert m == pytest.approx(1.0, abs=1e-5)
        r = tl.dynkin_residual(bm_sys, 0.5, lambda yp: np.ones(yp.shape[0]), z)
        assert r == pytest.approx(abs(1.0 - m), abs=1e-12)

    def test_small_time_mass_one(self, bm_sys):
        z = (np.array([-1.0, 1.0]), np.array([0.0]))
        assert _mass(bm_sys, 0.01, z) == pytest.approx(1.0, abs=1e-3)


class TestLambda:
    def test_divergent_fiber_reported(self):
        # equal-count shape over the full line: the fiber of x has an
        # infinite end, so h = Lambda h_hat has no finite value there
        sys_ = tl.TwoLevelSystem(make_spec("bm"), tl.Shape.NN)
        x = np.array([0.0])
        with pytest.raises(ArithmeticError, match=r"bm on n,n: h\(x\) = .* not finite and positive"):
            tl.master_intertwining_residual(sys_, km.vandermonde(1), 0.5,
                                            tl.test_function_basis(x, x - 0.5), x)


class TestIdentities:
    def test_projection_identity_constant_function(self, bm_sys):
        # f = 1: the mass the two-level kernel misses; a single dual
        # particle on the full line cannot be killed
        z = (np.array([-1.0, 1.0]), np.array([0.0]))
        for t, bound in ((0.5, 1e-5), (0.01, 1e-3)):
            assert tl.dynkin_residual(bm_sys, t, lambda yp: np.ones(yp.shape[0]), z) < bound

    def test_projection_identity_dual_eigenfunction(self, bm_sys):
        # f = h_hat: h_hat(y) times the mass the h-transformed kernel misses
        cases = [
            (bm_sys, km.vandermonde(1), (np.array([-1.0, 1.0]), np.array([0.0])), 1e-5),
            # x^1.5, the eigenfunction of besq:-1, the dual of besq:3
            (tl.TwoLevelSystem(make_spec("besq:3"), tl.Shape.NNP1),
             km.eigenfunction_catalog(make_spec("besq:-1"), 1),
             (np.array([1.0, 3.0]), np.array([2.0])), 1e-10),
        ]
        for sys_, h_hat, z, bound in cases:
            r = tl.dynkin_residual(sys_, 0.5, h_hat, z)
            assert r / float(h_hat(z[1])) < bound

    def test_projection_identity_coordinate(self, bm_sys):
        z = (np.array([-1.0, 1.0]), np.array([0.0]))
        assert tl.dynkin_residual(bm_sys, 0.5, lambda yp: yp[:, 0], z) < 1e-4

    def test_projection_identity_besq_nn(self):
        sysb = tl.TwoLevelSystem(make_spec("besq:1:abs"), tl.Shape.NN)
        z = (np.array([1.5]), np.array([0.7]))
        f = lambda yp: np.exp(-0.5 * (yp[:, 0] - 1.0) ** 2)
        assert tl.dynkin_residual(sysb, 0.4, f, z, n_nodes=40) < 1e-3

    def test_master_identity_three_families(self):
        cases = [
            (tl.TwoLevelSystem(make_spec("bm"), tl.Shape.NNP1),
             km.vandermonde(1), np.array([-1.0, 1.0]), np.array([0.0])),
            (tl.TwoLevelSystem(make_spec("bm_halfline:abs"), tl.Shape.NN),
             km.vandermonde(1), np.array([1.2]), np.array([0.6])),
            (tl.TwoLevelSystem(make_spec("besq:3"), tl.Shape.NNP1),
             km.eigenfunction_catalog(make_spec("besq:-1"), 1),
             np.array([1.0, 3.0]), np.array([2.0])),
        ]
        for sys_, h_hat, x, yc in cases:
            fs = tl.test_function_basis(x, yc)
            res = tl.master_intertwining_residual(sys_, h_hat, 0.5, fs, x)
            assert max(res) < 1e-4

    def test_negative_controls_fail_loudly(self):
        for case in master_cases():
            for perturb in ("indicator", "c_sign"):
                res = tl.master_intertwining_residual(case["sys"], case["h_hat"], case["t"],
                                                      case["fs"], case["x"], perturb=perturb)
                assert max(res) > 1e-2, (case["label"], perturb)

    def test_appendix_intertwining_unnormalized(self):
        # killed semigroup composed with the weight integral equals the
        # weight integral of the conservative dual: closed forms for BM
        spec = make_spec("bm_halfline:abs")
        kern = kernel(spec)
        dual = kernel(conjugate(spec))
        f = lambda y: np.exp(-0.5 * (y - 1.0) ** 2)
        x, t = 1.3, 0.5

        def lam_f(u):
            zi, wi = gl_nodes(0.0, u, 160)
            return float(np.dot(wi, f(zi)))

        zs, ws = gl_nodes(0.0, 14.0, 300)
        lhs = float(np.dot(ws, kern.density(t, x, zs) * np.vectorize(lam_f)(zs)))
        ui, wi = gl_nodes(0.0, x, 160)
        phat_f = np.array([np.dot(ws, dual.density(t, u, zs) * f(zs)) for u in ui])
        rhs = float(np.dot(wi, phat_f))
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestEntranceTransport:
    def test_entrance_law_pushforward_consistency(self, bm_sys):
        # the degenerate-start law of the x level, spread over its fiber by
        # the normalized interlacing kernel, is an entrance law for the
        # two-level dynamics: nu_s Q_t = nu_{s+t} at a probe configuration
        from interlace_lab import kmgroup as km
        from interlace_lab.quadrature import ordered_nodes, stacked_box_nodes

        elaw = km.entrance_law("gue", 2)
        s = t = 0.4
        zp = (np.array([-0.6, 0.9]), np.array([0.2]))
        xb, wx = ordered_nodes(2, -6.5, 6.5, 56)
        flo, fhi = tl.fiber_bounds(xb, tl.Shape.NNP1)
        yb, wy = stacked_box_nodes(flo, fhi, 24)
        outer = np.repeat(np.arange(len(xb)), 24)  # the box of each node
        gap = (xb[:, 1] - xb[:, 0])[outer]
        nu_s = elaw.density(s, xb)[outer] / np.maximum(gap, 1e-300)
        q = tl.block_kernel(bm_sys, t, (xb[outer], yb), zp)
        lhs = float(np.dot(wx[outer] * wy, nu_s * q))
        rhs = elaw.density(s + t, zp[0][None, :]).item() / (zp[0][1] - zp[0][0])
        assert lhs == pytest.approx(rhs, rel=2e-4)


class TestChapman:
    def test_one_dimensional_closed_form(self):
        kern = kernel(make_spec("bm"))
        zs, ws = gl_nodes(-10.0, 10.0, 300)
        conv = float(np.dot(ws, kern.density(0.5, 0.1, zs) * kern.density(0.5, zs, 0.6)))
        assert conv == pytest.approx(float(kern.density(1.0, 0.1, 0.6)), abs=1e-10)

    def test_two_level_semigroup_property(self, bm_sys):
        z = (np.array([-1.0, 1.0]), np.array([0.0]))
        z2 = (np.array([-0.8, 1.3]), np.array([0.4]))
        assert tl.chapman_residual(bm_sys, 0.5, 0.5, z, z2) < 1e-3

    def test_killed_besq_semigroup_property(self):
        # the B block needs the killed BESQ CDF, a quadrature, at every node
        sys_ = tl.TwoLevelSystem(make_spec("besq:0.5:abs"), tl.Shape.NN)
        z = (np.array([1.0]), np.array([0.5]))
        z2 = (np.array([1.2]), np.array([0.7]))
        assert tl.chapman_residual(sys_, 0.2, 0.3, z, z2, n_nodes=24) < 1e-4

    def test_delta_limit_leg_stays_controlled(self, bm_sys):
        # as the first leg shrinks toward the delta limit the identity must
        # keep holding (the quadrature sees an increasingly peaked factor)
        z = (np.array([-1.0, 1.0]), np.array([0.0]))
        z2 = (np.array([-0.9, 1.2]), np.array([0.3]))
        assert tl.chapman_residual(bm_sys, 0.15, 0.85, z, z2, n_nodes=56) < 2e-3
        assert tl.chapman_residual(bm_sys, 0.08, 0.92, z, z2, n_nodes=64) < 2e-3

    def test_a3_default_nodes_converged(self, bm_sys):
        # at its default node count on the intersected window, every A3 row is
        # within tol / 10 = 1e-4, and so is its integral against a 64-node
        # rule on the full time-(s + t) window around z (itself within 1e-7)
        from interlace_lab.harness.checks import CHAPMAN_PROBES, check_chapman

        rows = check_chapman().rows
        assert len(rows) == len(CHAPMAN_PROBES)
        for row, (z, z2) in zip(rows, CHAPMAN_PROBES):
            z = tuple(np.array(a) for a in z)
            z2 = tuple(np.array(a) for a in z2)
            lhs = float(tl.block_kernel(bm_sys, 1.0, z, z2))
            xp, yp, w = tl._image_nodes(bm_sys, z, tl._window(bm_sys, 1.0, z), 64)
            ref = float(np.sum(w * tl.block_kernel(bm_sys, 0.5, z, (xp, yp))
                               * tl.block_kernel(bm_sys, 0.5, (xp, yp), z2)))
            ref_residual = abs(lhs - ref) / abs(lhs)
            assert ref_residual <= 1e-7
            assert row["rel_residual"] <= 1e-4, row
            assert abs(row["rel_residual"] - ref_residual) <= 1e-4, row
