import math

import numpy as np
import pytest

from interlace_lab import kmgroup as km
from interlace_lab.diffusion1d import CatalogError, kernel, make_spec
from interlace_lab.diffusion1d.catalog import chamber_quad
from interlace_lab.quadrature import gl_nodes, ordered_nodes


@pytest.fixture(scope="module")
def bm_kernel():
    return kernel(make_spec("bm"))


class TestKMDensity:
    def test_frozen_two_particle_value(self, bm_kernel):
        v = km.km_density(bm_kernel, 1.0, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert float(v) == pytest.approx(0.10060511156757619, abs=1e-9)

    def test_single_particle_reduces_to_kernel(self, bm_kernel):
        v = km.km_density(bm_kernel, 0.7, np.array([0.2]), np.array([[0.9]]))
        assert v[0] == pytest.approx(float(bm_kernel.density(0.7, 0.2, 0.9)), abs=1e-15)

    def test_coincident_columns_vanish(self, bm_kernel):
        v = km.km_density(bm_kernel, 1.0, np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert float(v) == 0.0

    def test_row_transposition_flips_sign(self, bm_kernel):
        x = np.array([0.0, 1.0])
        y = np.array([-0.3, 0.8])
        a = km.km_density(bm_kernel, 0.6, x, y)
        b = km.km_density(bm_kernel, 0.6, x[::-1], y)
        assert float(a) == pytest.approx(-float(b), rel=1e-12)

    def test_submarkov_mass(self, bm_kernel):
        pts, wts = ordered_nodes(2, -9.0, 9.5, 64)
        mass = float(np.dot(wts, km.km_density(bm_kernel, 1.0, np.array([0.0, 1.0]), pts)))
        assert mass <= 1.0 + 1e-9
        assert 0.0 < mass < 1.0

    def test_chapman_kolmogorov_two_particles(self, bm_kernel):
        x = np.array([0.0, 1.0])
        y = np.array([-0.4, 1.3])
        pts, wts = ordered_nodes(2, -8.0, 9.0, 72)
        conv = float(np.dot(wts, km.km_density(bm_kernel, 0.5, x, pts)
                            * km.km_density(bm_kernel, 0.5, pts, y)))
        direct = float(km.km_density(bm_kernel, 1.0, x, y))
        assert conv == pytest.approx(direct, rel=1e-3)

    def test_mismatched_counts_name_both_shapes(self, bm_kernel):
        with pytest.raises(ValueError, match=r"x has shape \(2,\), y has shape \(4, 3\)"):
            km.km_density(bm_kernel, 0.5, np.array([0.0, 1.0]), np.zeros((4, 3)))


def _hadamard(M):
    """prod ||row||_2 over the last two axes: the Hadamard bound on |det M|."""
    return np.prod(np.linalg.norm(M, axis=-1), axis=-1)


def _entries(M):
    """The (..., n, n) stack M as km.det's n rows of n batch arrays."""
    return [[M[..., i, j] for j in range(M.shape[-1])] for i in range(M.shape[-2])]


class TestDet:
    """The closed forms for n <= 3 against LAPACK, to 1e-14 of the Hadamard
    bound fixed in advance; n >= 4 is LAPACK itself."""

    def assert_close(self, got, M):
        ref = np.linalg.det(M)
        assert np.shape(got) == np.shape(ref)
        assert np.all(np.abs(got - ref) <= 1e-14 * _hadamard(M))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_normal_matrices(self, n):
        M = np.random.default_rng(n).normal(size=(100_000, n, n))
        self.assert_close(km.det(_entries(M)), M)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_entries_broadcast_by_their_own_batch_shapes(self, n):
        rng = np.random.default_rng(10 + n)
        shapes = [(5, 1), (1, 7), (), (7,), (5, 7)]
        entries = [[rng.normal(size=shapes[(i * n + j) % len(shapes)]) for j in range(n)]
                   for i in range(n)]
        M = np.empty(np.broadcast_shapes(*(e.shape for row in entries for e in row)) + (n, n))
        for i in range(n):
            for j in range(n):
                M[..., i, j] = entries[i][j]
        self.assert_close(km.det(entries), M)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_near_singular_matrices(self, n):
        # rank n - 1 plus 1e-9 noise
        rng = np.random.default_rng(20 + n)
        M = 1e-9 * rng.normal(size=(20_000, n, n))
        if n > 1:
            M += rng.normal(size=(20_000, n, n - 1)) @ rng.normal(size=(20_000, n - 1, n))
        self.assert_close(km.det(_entries(M)), M)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_and_scaled_identity(self, n):
        assert km.det(np.zeros((n, n))) == 0.0
        for c in (3.0, -0.5):
            self.assert_close(km.det(c * np.eye(n)), c * np.eye(n))
        # np.linalg.det forms exp(log|det|), off by ~|log det| ulps (9e-14
        # relative at 1e-300); the closed forms multiply the diagonal
        for c in (3.0, -0.5, 1e-100, 1e100):
            assert km.det(c * np.eye(n)) == pytest.approx(c**n, rel=1e-15)

    def test_size_four_is_lapack_bit_for_bit(self):
        M = np.random.default_rng(4).normal(size=(1000, 4, 4))
        ref = np.linalg.det(M)
        assert np.array_equal(km.det(_entries(M)), ref)
        assert km.det(M[0]) == ref[0]

    def test_ragged_or_empty_entries_raise(self):
        with pytest.raises(ValueError, match="row lengths"):
            km.det([[1.0, 2.0], [3.0]])
        with pytest.raises(ValueError, match="row lengths"):
            km.det([])


class TestHTransform:
    def test_dyson_normalization(self, bm_kernel):
        h = km.vandermonde(2)
        pts, wts = ordered_nodes(2, -8.5, 9.5, 64)
        mass = float(np.dot(wts, km.h_transform_density(bm_kernel, h, 1.0, np.array([0.0, 1.0]), pts)))
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_constant_h_single_particle_reduces(self):
        k = kernel(make_spec("bm_halfline:refl"))
        h = km.Eigenfunction(1, [lambda x: np.ones_like(np.asarray(x, float))], 0.0)
        v = km.h_transform_density(k, h, 0.8, np.array([1.0]), np.array([[1.7]]))
        assert v[0] == pytest.approx(float(k.density(0.8, 1.0, 1.7)), rel=1e-14)

    def test_nonpositive_h_raises(self, bm_kernel):
        h = km.vandermonde(2)
        with pytest.raises(ValueError):
            km.h_transform_density(bm_kernel, h, 1.0, np.array([1.0, 1.0]), np.array([0.0, 1.0]))

    def test_besq_conditioned_matches_mc_rejection(self):
        # Monte Carlo of two squared Bessels conditioned not to meet, by the
        # library's exact step.  In u = sqrt(x) each particle has unit noise,
        # so the gap g = u2 - u1 is about a Brownian bridge of variance 2 dt
        # over a step, and a path that is apart at both ends of a step met
        # inside it with probability exp(-g0 g1 / dt)
        from interlace_lab.diffusion1d.catalog import exact_step

        spec = make_spec("besq:3")
        kern = kernel(spec)
        step = exact_step(spec)
        rng = np.random.default_rng(8)
        x0 = np.array([1.0, 3.0])
        t, n_steps, n_paths = 0.5, 20, 120000
        dt = t / n_steps
        x = np.repeat(x0[None, :], n_paths, axis=0)
        alive = np.ones(n_paths, bool)
        for _ in range(n_steps):
            g0 = np.sqrt(x[:, 1]) - np.sqrt(x[:, 0])
            x = step(x, dt, rng)
            g1 = np.sqrt(x[:, 1]) - np.sqrt(x[:, 0])
            # a gap at or below 0 at the end kills with probability 1
            alive &= rng.random(n_paths) >= np.exp(-np.maximum(g0 * g1, 0.0) / dt)
        surv = x[alive]
        # compare survivors' histogram mass in a box against the density
        box = (surv[:, 0] > 1.0) & (surv[:, 0] < 2.0) & (surv[:, 1] > 2.5) & (surv[:, 1] < 4.0)
        mc = box.mean() * alive.mean()
        from interlace_lab.quadrature import stacked_box_nodes

        pts, wts = stacked_box_nodes([[1.0, 2.5]], [[2.0, 4.0]], 48)
        exact = float(np.dot(wts, km.km_density(kern, t, x0, pts)))
        assert mc == pytest.approx(exact, rel=0.08)


class TestEigenfunctions:
    @pytest.mark.parametrize(
        "sid,n,t,probe,tol",
        [
            ("bm", 3, 0.5, [-1.0, 0.2, 1.4], 1e-9),
            ("ou", 2, 0.5, [0.0, 1.0], 1e-9),
            ("lag:3", 2, 0.4, [0.5, 2.0], 1e-9),
            ("jac:1,1", 2, 0.3, [0.3, 0.7], 1e-9),
            ("gbm:1", 3, 0.3, [0.5, 1.0, 2.0], 1e-9),
            ("besq:3", 2, 0.5, [1.0, 3.0], 1e-9),
            ("besq:-1", 2, 0.5, [1.0, 3.0], 1e-9),
            ("bm_halfline:abs", 2, 0.5, [0.5, 2.0], 1e-9),
            ("bm_halfline:refl", 2, 0.5, [0.5, 2.0], 1e-9),
            ("bm_interval:abs,abs", 2, 0.3, [1.0, 2.0], 1e-9),
            ("bm_interval:refl,refl", 2, 0.3, [1.0, 2.0], 1e-9),
        ],
    )
    def test_catalog_rates_validate(self, sid, n, t, probe, tol):
        spec = make_spec(sid)
        h = km.eigenfunction_catalog(spec, n)
        assert km.eigen_residual(kernel(spec), h, t, [probe]) < tol

    def test_interval_sine_rate_value(self):
        h = km.eigenfunction_catalog(make_spec("bm_interval:abs,abs"), 2)
        assert h.rate == pytest.approx(-2.5)
        h1 = km.eigenfunction_catalog(make_spec("bm_interval:abs,abs"), 1)
        assert h1.rate == pytest.approx(-0.5)

    def test_unknown_family_raises(self):
        import dataclasses

        fake = dataclasses.replace(make_spec("bm"), family="mystery")
        with pytest.raises(CatalogError):
            km.eigenfunction_catalog(fake, 2)

    def test_positivity_on_chamber_sample(self):
        rng = np.random.default_rng(5)
        h = km.eigenfunction_catalog(make_spec("bm"), 3)
        x = np.sort(rng.normal(size=(200, 3)), axis=1)
        x += np.arange(3) * 1e-6  # break ties
        assert np.all(h(x) >= 0.0)


class TestGroundStates:
    @pytest.mark.parametrize("sid,n", [("bm_interval:abs,abs", 2), ("ou", 3), ("lag:3", 2), ("jac:1,1", 2)])
    def test_rate_is_partial_spectral_sum(self, sid, n):
        from interlace_lab.diffusion1d import spectral_basis

        spec = make_spec(sid)
        gs = km.ground_state(spec, n)
        basis = spectral_basis(spec)
        assert gs.rate == -sum(basis.eigenvalue(k) for k in range(n))
        assert km.eigen_residual(kernel(spec), gs, 0.4, [_mid_probe(spec, n)]) < 1e-7

    def test_interval_ground_states_are_trig_dets(self):
        x = np.array([[0.7, 1.9], [1.0, 2.3]])
        for sid in ("bm_interval:abs,abs", "bm_interval:refl,refl"):
            gs = km.ground_state(make_spec(sid), 2)
            ref = km.eigenfunction_catalog(make_spec(sid), 2)
            ratio = gs(x) / ref(x)
            assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-12
            assert gs.rate == ref.rate

    def test_ou_reduces_to_vandermonde(self):
        gs = km.ground_state(make_spec("ou"), 3)
        v = km.vandermonde(3)
        x = np.array([[-1.0, 0.2, 1.1], [0.0, 1.0, 2.0]])
        ratio = gs(x) / v(x)
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-10

    def test_no_discrete_spectrum_raises(self):
        with pytest.raises(CatalogError):
            km.ground_state(make_spec("bm"), 2)

    @pytest.mark.parametrize("x", [[0.5, 1.5], [0.5, 1.0, 1.5, 2.0], [[0.5, 1.5]] * 2])
    def test_wrong_coordinate_count_raises(self, x):
        spec = make_spec("bm_interval:abs,abs")
        gs = km.ground_state(spec, 3)
        got = np.shape(x)[-1]
        with pytest.raises(ValueError, match=f"3 components needs 3 coordinates, got {got}"):
            gs(x)
        with pytest.raises(ValueError, match=f"needs 3 coordinates, got {got}"):
            km.eigen_residual(kernel(spec), gs, 0.5, x)


def _mid_probe(spec, n):
    l, r = spec.interval
    lo = l if np.isfinite(l) else spec.c - 1.5
    hi = r if np.isfinite(r) else spec.c + 1.5
    pad = 0.2 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, n)


class TestSpectralKM:
    def test_interval_matches_image_method(self):
        v = km.spectral_km(make_spec("bm_interval:abs,abs"), 1, 1.0,
                           np.array([1.0]), np.array([2.0]))
        ref = kernel(make_spec("bm_interval:abs,abs")).density(1.0, 1.0, 2.0)
        assert abs(v.item() - float(ref)) < 1e-8

    @pytest.mark.parametrize("sid, n", [("bm_interval:abs,refl", 1), ("ou", 2)])
    def test_batch_matches_points(self, sid, n):
        spec = make_spec(sid)
        rng = np.random.default_rng(8)
        lo, hi = (0.2, 2.9) if sid.startswith("bm_interval") else (-1.5, 1.5)
        x = np.sort(rng.uniform(lo, hi, (3, n)), axis=-1)
        y = np.sort(rng.uniform(lo, hi, (3, n)), axis=-1)
        batch = km.spectral_km(spec, n, 0.7, x, y)
        assert batch.shape == (3,)
        points = [km.spectral_km(spec, n, 0.7, xi, yi) for xi, yi in zip(x, y)]
        np.testing.assert_allclose(batch, points, rtol=1e-12, atol=1e-15)

    def test_ou_two_particles_vs_closed_form(self):
        x = np.array([-0.5, 0.8])
        y = np.array([0.1, 1.1])
        v = km.spectral_km(make_spec("ou"), 2, 0.6, x, y)
        ref = km.km_density(kernel(make_spec("ou")), 0.6, x, y)
        assert abs(float(v) - float(ref)) < 1e-7

    def test_large_time_leading_term_dominates(self):
        from interlace_lab.diffusion1d import spectral_basis

        spec = make_spec("bm_interval:abs,abs")
        basis = spectral_basis(spec)
        x = np.array([1.0, 2.0])
        y = np.array([1.2, 2.2])
        t = 6.0
        lead = math.exp(-(basis.eigenvalue(0) + basis.eigenvalue(1)) * t)
        phi_x = basis.phi(0, x[None, :]) * 0  # shape helper
        det_x = np.linalg.det(np.stack([basis.phi(k, x) for k in (0, 1)]))
        det_y = np.linalg.det(np.stack([basis.phi(k, y) for k in (0, 1)]))
        leading = lead * det_x * det_y * np.prod(basis.m(y))
        full = float(km.spectral_km(spec, 2, t, x, y))
        assert full / leading == pytest.approx(1.0, abs=1e-4)


class TestRecursiveChains:
    def test_bm_chain_spans_monomials(self):
        ch = km.bm_pattern_chain(2)
        xs = np.array([[0.3, 1.7], [0.5, 2.5], [1.0, 4.0]])
        ratio = ch(xs) / km.vandermonde(2)(xs)
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-10
        assert km.wronskian(ch.components, 1.3) == pytest.approx(1.0, abs=1e-8)

    def test_halfline_chain_reproduces_quadratic_form(self):
        ch = km.halfline_pattern_chain(2)
        xs = np.array([[0.3, 1.7], [0.5, 2.5]])
        target = 0.5 * (xs[:, 1] ** 2 - xs[:, 0] ** 2)
        ratio = ch(xs) / target
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-10

    def test_besq_chain_reproduces_power_det(self):
        ch = km.besq_pattern_chain(3.0, 3)
        xs = np.array([[0.3, 1.7], [0.5, 2.5], [1.0, 4.0]])
        target = (xs[:, 0] * xs[:, 1]) ** 1.5 * (xs[:, 1] - xs[:, 0])
        ratio = ch(xs) / target
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-8


class TestEntranceLaws:
    def test_gue_density_shape(self):
        elaw = km.entrance_law("gue", 2)
        y = np.array([[-1.0, 0.5], [0.3, 1.8]])
        vals = elaw.density(1.0, y)
        ref = (y[:, 1] - y[:, 0]) ** 2 * np.exp(-np.sum(y * y, axis=1) / 2.0)
        ratio = vals / ref
        assert ratio[0] == pytest.approx(ratio[1], rel=1e-10)

    def test_normalizations(self):
        elaw = km.entrance_law("gue", 2)
        pts, wts = ordered_nodes(2, -9, 9, 96)
        assert float(np.dot(wts, elaw.density(1.0, pts))) == pytest.approx(1.0, abs=1e-7)

    def test_besq_single_particle_is_kernel_from_origin(self):
        elaw = km.entrance_law("besq:3", 1)
        k = kernel(make_spec("besq:3"))
        y = np.array([[0.5], [2.0], [4.0]])
        assert np.allclose(elaw.density(1.0, y), k.density(1.0, 0.0, y[:, 0]), rtol=1e-6)

    def test_drifted_reduces_to_gue_as_drifts_vanish(self):
        el0 = km.entrance_law("gue", 2)
        eld = km.entrance_law("bm_drift", 2, extra=[0.0, 1e-5])
        y = np.array([[-1.0, 0.5], [0.0, 2.0]])
        assert np.allclose(eld.density(1.0, y), el0.density(1.0, y), rtol=1e-3)

    def test_markov_consistency(self, bm_kernel):
        elaw = km.entrance_law("gue", 2)
        res = km.entrance_consistency_residual(
            elaw, bm_kernel, km.vandermonde(2), 0.5, 0.5, [[-0.5, 0.8], [0.0, 1.5]]
        )
        assert res < 1e-4
        # positive support: the law's chamber is integrated in u = sqrt(y)
        spec = make_spec("besq:3")
        elaw = km.entrance_law("besq:3", 2)
        assert elaw.spec is spec
        probes = np.array([[0.5, 2.0], [1.0, 3.0]])
        assert np.all(elaw.density(1.0, probes) > 0.01)
        res = km.entrance_consistency_residual(
            elaw, kernel(spec), km.eigenfunction_catalog(spec, 2), 0.5, 0.5, probes
        )
        assert res < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize(
        "law", ["gue", "besq:2", "besq:3", "halfline_nn", "halfline_n1n", "bm_drift"]
    )
    def test_normalized_over_its_state_space(self, law, n):
        # an independent chamber: wider window, other node count
        extra = np.linspace(0.0, 0.5, n) if law == "bm_drift" else None
        elaw = km.entrance_law(law, n, extra=extra)
        lo, hi = (0.0, 100.0) if law.startswith("besq") else (-10.0, 10.0)
        pts, wts = chamber_quad(elaw.spec, n, lo, hi, 56)
        assert float(np.dot(wts, elaw.density(0.8, pts))) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("law", ["halfline_nn", "halfline_n1n"])
    def test_halfline_laws_live_on_the_positive_chamber(self, law, n):
        elaw = km.entrance_law(law, n)
        assert elaw.spec.interval == (0.0, np.inf)
        t = 0.8
        pts, wts = ordered_nodes(n, 0.0, 12.0, 48)
        dens = elaw.density(t, pts)
        assert float(np.dot(wts, dens)) == pytest.approx(1.0, abs=1e-8)
        m2 = float(np.dot(wts, dens * np.sum(pts * pts, axis=1)))
        # y^2 of the law is a Laguerre ensemble: E sum y^2 = 2 t n (n + nu)
        nu = 0.5 if law == "halfline_nn" else -0.5
        assert m2 == pytest.approx(2.0 * t * n * (n + nu), rel=1e-10)
        s = elaw.sample(np.random.default_rng(40 + n), t, 20000)
        assert np.all(s >= 0.0) and np.all(np.diff(s, axis=1) >= 0.0)
        q = np.sum(s * s, axis=1)
        assert abs(q.mean() - m2) < 4.0 * q.std() / math.sqrt(q.size)

    def test_sampler_matches_density(self):
        elaw = km.entrance_law("gue", 2)
        rng = np.random.default_rng(7)
        s = elaw.sample(rng, 1.0, 30000)
        assert np.all(s[:, 0] <= s[:, 1])
        # spacing-squared law has known first moments: compare top coordinate
        from interlace_lab.harness import gue_sample, two_sample_ks

        ev = gue_sample(np.random.default_rng(17), 2, 100000)
        assert two_sample_ks(s[:, 1], ev[:, 1]) < 0.015
        assert two_sample_ks(s[:, 0], ev[:, 0]) < 0.015

    def test_gue_sampler_keeps_n2_draws_and_gue_moment_at_n3(self):
        import hashlib

        # n = 2 uses the same proposal bound as before the exact constant
        s = km.entrance_law("gue", 2).sample(np.random.default_rng(5), 1e-3, 5000)
        assert hashlib.sha256(s.tobytes()).hexdigest() == (
            "3db26da4b98868559b027da83fa1ba0d156668c2e689fadc4e16c93a424e8234")
        # the gue law at n = 3 is the GUE spectrum: E sum y^2 = E tr H^2 = t n^2
        t, n = 0.7, 3
        q = np.sum(km.entrance_law("gue", n).sample(np.random.default_rng(11), t, 20000) ** 2, axis=1)
        assert abs(q.mean() - t * n * n) < 4.0 * q.std() / math.sqrt(q.size)

    @pytest.mark.parametrize(
        "law", ["besq", "besq:x", "besq:2:abs", "besq:0", "besq:-1", "besq:inf",
                "gue:3", "halfline_nn:2", "bm_drift:0.5", "halfline", "wishart"],
    )
    def test_malformed_id_raises(self, law):
        with pytest.raises(CatalogError, match=f"'{law}'.*expected"):
            km.entrance_law(law, 2)

    @pytest.mark.parametrize(
        "law, n, extra",
        [("bm_drift", 2, None), ("bm_drift", 2, [0.5]), ("bm_drift", 2, [0.5, 0.0]),
         ("bm_drift", 2, [0.0, np.nan]), ("gue", 2, [0.0, 0.5]), ("gue", 0, None),
         ("besq:2", 1.5, None)],
    )
    def test_bad_arguments_raise(self, law, n, extra):
        with pytest.raises(CatalogError, match=f"'{law}'"):
            km.entrance_law(law, n, extra=extra)

    @pytest.mark.parametrize("law, n, y", [("gue", 2, [[1.0, 2.0, 3.0]]),
                                           ("besq:2", 3, [[1.0, 2.0]]), ("gue", 1, 0.5)])
    def test_wrong_coordinate_count_raises(self, law, n, y):
        got = np.shape(y)[-1] if np.ndim(y) else "a scalar"
        with pytest.raises(ValueError, match=f"law of {n} particles needs {n} coordinates, got {got}"):
            km.entrance_law(law, n).density(1.0, y)

    def test_vanishes_at_chamber_wall(self):
        elaw = km.entrance_law("gue", 2)
        assert elaw.density(1.0, np.array([[0.4, 0.4]])).item() == 0.0


class TestPolynomialEnsembleLimit:
    def test_single_particle_is_kernel(self, bm_kernel):
        dens = km.polynomial_ensemble_limit(bm_kernel, km.vandermonde(1), 0.3, 1, 1.0)
        y = np.array([[0.8], [-0.4]])
        assert np.allclose(dens(y), bm_kernel.density(1.0, 0.3, y[:, 0]), rtol=1e-8)

    def test_bm_matches_gue_entrance_law(self, bm_kernel):
        dens = km.polynomial_ensemble_limit(bm_kernel, km.vandermonde(2), 0.0, 2, 1.0)
        elaw = km.entrance_law("gue", 2)
        ys = np.array([[-1.0, 0.5], [0.2, 1.3], [-2.0, 2.0]])
        assert np.max(np.abs(dens(ys) - elaw.density(1.0, ys))) < 1e-8

    def test_besq_matches_entrance_law(self):
        k = kernel(make_spec("besq:2"))
        dens = km.polynomial_ensemble_limit(k, km.vandermonde(2), 1e-9, 2, 1.0)
        elaw = km.entrance_law("besq:2", 2)
        ys = np.array([[0.5, 2.0], [1.0, 5.0]])
        assert np.max(np.abs(dens(ys) - elaw.density(1.0, ys))) < 1e-6
