import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import special as sc

from interlace_lab import edgekernels as ek
from interlace_lab.diffusion1d import (
    CATALOG_IDS,
    Boundary,
    CatalogError,
    DegenerateInputError,
    DUAL_FELLER,
    FellerClass,
    InconclusiveBoundaryError,
    TransitionKernel,
    TruncationError,
    classify_boundary,
    conjugate,
    conjugate_density_residual,
    density_integral,
    duality_residual,
    kernel,
    make_spec,
    spectral_basis,
    symmetry_residual,
)
from interlace_lab.diffusion1d import catalog
from interlace_lab.diffusion1d.catalog import (
    chamber_quad,
    edge_ladder,
    fiber_quad,
    gaussian_moments,
)


class TestScaleSpeed:
    def test_bm_constant_scale(self):
        ss = make_spec("bm").scale
        x = np.linspace(-3, 3, 7)
        assert np.allclose(ss.s_prime(x), 1.0)
        assert np.allclose(ss.m(x), 2.0)

    def test_ou_direct_integration(self):
        ss = make_spec("ou").scale
        x = np.linspace(-2, 2, 9)
        assert np.allclose(ss.s_prime(x), np.exp(x**2), rtol=1e-12)
        assert np.allclose(ss.m(x), 2 * np.exp(-(x**2)), rtol=1e-12)

    def test_besq_symbolic_vs_numeric(self):
        # closed forms against direct quadrature of the defining integrals
        from scipy.integrate import quad

        spec = make_spec("besq:3")
        ss = spec.scale
        for x in (0.4, 1.7, 3.2):
            log_sp, _ = quad(lambda y: spec.b(y) / spec.a(y), 1.0, x)
            assert ss.s_prime(x) == pytest.approx(math.exp(-log_sp), rel=1e-10)
        assert np.allclose(ss.s_prime(2.0), 2.0**-1.5)
        assert np.allclose(ss.m(2.0), 2.0**0.5 / 2)

    @pytest.mark.parametrize("sid", ["bm", "ou", "besq:2.5", "lag:3", "jac:1,1", "gbm:1"])
    def test_m_sp_a_identity(self, sid):
        spec = make_spec(sid)
        ss = spec.scale
        lo, hi = spec.interval
        lo = max(lo + 0.05, spec.c - 2)
        hi = min(hi - 0.05 if np.isfinite(hi) else np.inf, spec.c + 2)
        x = np.linspace(lo, hi, 11)
        assert np.max(np.abs(ss.m(x) * ss.s_prime(x) * spec.a(x) - 1.0)) < 1e-12

    @pytest.mark.parametrize("dual", [False, True], ids=["spec", "conjugate"])
    @pytest.mark.parametrize("sid", CATALOG_IDS)
    def test_log_scale_is_the_drift_integral(self, sid, dual):
        # the one datum a family states, log s', against direct quadrature of
        # -int b/a; log m and both exponentials are derived from it
        from scipy.integrate import quad

        spec = make_spec(sid)
        if dual:
            spec = conjugate(spec)
        ss = spec.scale
        x0 = spec.c
        x = _probes(spec)
        want = [-quad(lambda y: float(spec.b(y) / spec.a(y)), x0, xi,
                      epsabs=0.0, epsrel=1e-13, limit=200)[0] for xi in x]
        got = ss.log_s_prime(x) - ss.log_s_prime(x0)
        # the floor covers rounding where a derived log m is constant (b = a')
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-13)
        assert np.max(np.abs(ss.m(x) * ss.s_prime(x) * spec.a(x) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("sid", CATALOG_IDS + ["ou_out", "lag_dual:3", "jac_dual:1,1", "besq:-1"])
    def test_validate_passes_catalog(self, sid):
        # a > 0, and a' is the derivative of a (a is at most quadratic, so a
        # central difference is exact up to rounding)
        spec = make_spec(sid)
        x, h = _probes(spec), 1e-4
        assert np.all(spec.a(x) > 0)
        fd = (spec.a(x + h) - spec.a(x - h)) / (2.0 * h)
        np.testing.assert_allclose(spec.a_prime(x), fd, rtol=1e-9, atol=1e-9)


class TestConjugate:
    @pytest.mark.parametrize(
        "sid,dual",
        [
            ("besq:3", "besq:-1"),
            ("bm", "bm"),
            ("gbm:1", "gbm:0"),
            ("ou", "ou_out"),
            ("bm_halfline:refl", "bm_halfline:abs"),
            ("bm_interval:refl,abs", "bm_interval:abs,refl"),
        ],
    )
    def test_catalog_images(self, sid, dual):
        assert conjugate(make_spec(sid)).name == dual

    def test_involution(self):
        spec = make_spec("besq:2.5")
        back = conjugate(conjugate(spec))
        x = np.linspace(0.2, 4.0, 9)
        assert np.allclose(back.b(x), spec.b(x))
        assert back.behavior_l == spec.behavior_l

    @pytest.mark.parametrize("sid", ["bm", "ou", "besq:3", "besq:1", "gbm:1", "lag:2"])
    def test_scale_speed_swap(self, sid):
        spec = make_spec(sid)
        ss = spec.scale
        css = conjugate(spec).scale
        lo = max(spec.interval[0] + 0.1, spec.c - 2)
        x = np.linspace(lo, spec.c + 2, 9)
        assert np.max(np.abs(css.s_prime(x) / ss.m(x) - 1.0)) < 1e-10
        assert np.max(np.abs(css.m(x) / ss.s_prime(x) - 1.0)) < 1e-10


class TestClassify:
    @pytest.mark.parametrize(
        "sid,end,expected",
        [
            ("besq:3", "l", FellerClass.ENTRANCE),
            ("besq:1", "l", FellerClass.REGULAR),
            ("besq:-1", "l", FellerClass.EXIT),
            ("bm", "r", FellerClass.NATURAL),
            ("bm", "l", FellerClass.NATURAL),
            ("ou", "r", FellerClass.NATURAL),
            ("jac:1,1", "l", FellerClass.ENTRANCE),
            ("gbm:1", "l", FellerClass.NATURAL),
            ("gbm:1", "r", FellerClass.NATURAL),
            ("lag:3", "l", FellerClass.ENTRANCE),
        ],
    )
    def test_classes(self, sid, end, expected):
        assert classify_boundary(make_spec(sid), end) is expected

    @pytest.mark.parametrize("sid", ["besq:0.5", "besq:2", "jac:1,1", "gbm:1"])
    def test_conjugate_table_image(self, sid):
        spec = make_spec(sid)
        dual = conjugate(spec)
        for end in ("l", "r"):
            assert classify_boundary(dual, end) is DUAL_FELLER[classify_boundary(spec, end)]

    def test_inconclusive_error_carries_values(self):
        err = InconclusiveBoundaryError(1.0, 2.0)
        assert err.n_value == 1.0 and err.sigma_value == 2.0


class TestKernels:
    @pytest.mark.parametrize("d", [1, 2, 2.5, 3, 4, 6])
    def test_besq_cdf_is_the_chi_square_law(self, d):
        # scipy.stats is the reference; the kernel reaches the same values
        # through scipy.special alone
        from scipy.stats import chi2, ncx2

        rng = np.random.default_rng(int(2 * d))
        t = 0.7
        x = np.concatenate([[0.0, 0.0, 1e-300, 2.0], rng.exponential(2.0, 400)])
        y = np.concatenate([[0.0, -1.0, 0.5, -0.5], rng.exponential(3.0, 400)])
        want = np.where(x <= 1e-300, chi2.cdf(y / t, d), ncx2.cdf(y / t, d, np.maximum(x, 1e-300) / t))
        assert np.array_equal(kernel(make_spec(f"besq:{d}")).cdf(t, x, y), want)

    @pytest.mark.parametrize("d", [0.5, 2, 3])
    def test_besq_cdf_evaluates_each_law_on_its_own_points(self, d, monkeypatch):
        # chdtr only at x = 0 and chndtr only at x > 0, with the values of
        # the form that evaluates both everywhere and picks by np.where
        calls = {"chdtr": 0, "chndtr": 0}

        class Counting:
            def __getattr__(self, name):
                def f(*args):
                    calls[name] += np.size(args[1 if name == "chdtr" else 0])
                    return getattr(sc, name)(*args)
                return f

        rng = np.random.default_rng(int(4 * d))
        t = 0.9
        x = np.where(rng.random((30, 1)) < 0.4, 0.0, rng.exponential(2.0, (30, 1)))
        y = np.concatenate([[-0.5, 0.0], rng.exponential(3.0, 48)])
        z = np.maximum(y, 0.0) / t
        want = np.where(x <= 1e-300, sc.chdtr(d, z), sc.chndtr(z, d, np.maximum(x, 1e-300) / t))
        cdf = kernel(make_spec(f"besq:{d}")).cdf
        monkeypatch.setattr(catalog, "sc", Counting())
        got = cdf(t, x, y)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        at0 = int(np.sum(x == 0.0)) * len(y)
        assert calls == {"chdtr": at0, "chndtr": x.size * len(y) - at0}
        assert cdf(t, 0.0, 1.0) == sc.chdtr(d, 1.0 / t)
        assert cdf(t, 2.0, 1.0) == sc.chndtr(1.0 / t, d, 2.0 / t)

    @pytest.mark.parametrize("sid", ["besq:7", "besq:8", "lag:7"])
    def test_density_from_the_entrance_end_is_quiet(self, sid):
        # from x = 0 the density is the entrance law; the Bessel core, whose
        # (y/x)^(nu/2) overflows there, is evaluated only off 0
        k = kernel(make_spec(sid))
        y = np.array([0.0, 0.3, 1.0, 2.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at0 = k.density(0.5, 0.0, y)
        assert np.all(np.isfinite(at0))
        np.testing.assert_allclose(at0, k.density(0.5, 1e-10, y), rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("sid", ["jac:1,1", "jac:2,3"])
    def test_jacobi_density_at_its_ends_is_its_limit(self, sid):
        # log m is stated in closed form, so m is not -log s' - log a,
        # which reads inf - inf at an end
        k = kernel(make_spec(sid))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_ends = k.density(0.5, 0.3, [0.0, 1.0])
            inside = k.density(0.5, 0.3, [1e-12, 1.0 - 1e-12])
        assert np.all(np.isfinite(at_ends))
        np.testing.assert_allclose(at_ends, inside, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("sid", ["jac:1,1", "jac:2,3"])
    def test_jacobi_y_derivative_at_its_ends_is_its_limit(self, sid):
        # m' is stated in closed form: m (b - a')/a reads 0/0 at an end
        k = kernel(make_spec(sid))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_ends = k.dy_derivative(1, 0.5, 0.3, np.array([0.0, 1.0]))
            inside = k.dy_derivative(1, 0.5, 0.3, np.array([1e-12, 1.0 - 1e-12]))
        assert np.all(np.isfinite(at_ends))
        np.testing.assert_allclose(at_ends, inside, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("sid, end", [("jac:1.5,1", 0.0), ("jac:1,1.5", 1.0),
                                          ("jac:0.5,2", 0.0)])
    def test_jacobi_y_derivative_is_infinite_at_a_fractional_end(self, sid, end):
        # m goes as y^(beta - 1) at 0, whose slope is infinite unless
        # beta - 1 is 0 or at least 1
        k = kernel(make_spec(sid))
        with pytest.raises(DegenerateInputError, match=f"{sid}: m' is infinite at the end y = {end:g}"):
            k.dy_derivative(1, 0.5, 0.3, np.array([0.5, end]))

    def test_bm_heat_kernel_value(self):
        k = kernel(make_spec("bm"))
        assert float(k.density(1.0, 0.0, 0.0)) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-7)

    def test_absorbed_halfline_atom(self):
        k = kernel(make_spec("bm_halfline:abs"))
        assert float(k.atom_l(1.0, 1.0)) == pytest.approx(0.3173105078629141, abs=1e-12)

    @pytest.mark.parametrize(
        "sid,t,x",
        [
            ("bm", 0.7, 0.3),
            ("bm_halfline:refl", 1.0, 0.5),
            ("bm_halfline:abs", 1.0, 0.5),
            ("ou", 0.5, -0.4),
            ("besq:3", 0.8, 1.5),
            ("besq:1", 0.8, 1.5),
            ("besq:1:abs", 0.8, 1.5),
            ("lag:2", 0.6, 1.0),
            ("gbm:1", 0.5, 1.0),
            ("jac:1,1", 0.4, 0.3),
            ("bm_interval:refl,refl", 0.5, 1.0),
            ("bm_interval:abs,abs", 0.5, 1.0),
            ("bm_interval:refl,abs", 0.5, 1.0),
        ],
    )
    def test_total_mass_one(self, sid, t, x):
        # interior mass plus boundary atoms is conservative
        k = kernel(make_spec(sid))
        _, hi = k.window(t, x)
        assert float(k.cdf(t, x, hi) + k.atom_r(t, x)) == pytest.approx(1.0, abs=5e-7)

    @pytest.mark.parametrize("alpha", [1.0, 3.0])
    def test_lag_dual_is_the_h_transform_of_lag_alpha_plus_2(self, alpha):
        # p_t(x, y) = e^{-2t} (hh(x) / hh(y)) p_t(x, y) of lag(alpha + 2),
        # hh(x) = x^{alpha/2} e^{-x}, against the time-changed killed BESQ
        dual = kernel(make_spec(f"lag_dual:{alpha:g}"))
        up = kernel(make_spec(f"lag:{alpha + 2:g}"))
        hh = lambda v: v ** (alpha / 2.0) * np.exp(-v)
        x, y = np.array([[0.3], [1.0], [2.5]]), np.array([0.2, 0.9, 2.0, 4.0])
        for t in (0.05, 0.5, 2.0):
            want = math.exp(-2.0 * t) * hh(x) / hh(y) * up.density(t, x, y)
            np.testing.assert_allclose(dual.density(t, x, y), want, rtol=1e-12)

    @pytest.mark.parametrize("sid", CATALOG_IDS + ["lag_dual:1", "lag_dual:3"])
    def test_window_misses_at_most_1e_12_of_the_mass(self, sid):
        # P(X_t outside the window), from the CDF and the atoms, on a (t, x)
        # grid that starts at the left end unless it is natural
        k = kernel(make_spec(sid))
        l, r = k.spec.interval
        xs = [v for v in (-1.0, 0.2, 1.0, 3.0) if l < v < r]
        if np.isfinite(l) and k.spec.behavior_l is not Boundary.NATURAL:
            xs.insert(0, l)
        for t in (0.05, 0.4, 1.0, 3.0):
            for x in xs:
                lo, hi = k.window(t, x)
                below = float(k.cdf(t, x, lo) - k.atom_l(t, x))
                above = float(1.0 - k.atom_r(t, x) - k.cdf(t, x, hi))
                assert below + above <= 1e-12, (t, x, below, above)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_density_integral_broadcasts_and_skips_empty_intervals(self):
        from scipy.special import ndtr

        k = kernel(make_spec("bm"))
        x = np.array([[-0.5], [0.4]])
        hi = np.array([[-1.0, -0.5, 0.0, 2.0]])
        got = density_integral(k.spec, k.density, 1.0, x, -0.5, hi)
        want = np.where(hi > -0.5, ndtr(hi - x) - ndtr(-0.5 - x), 0.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        mean = density_integral(k.spec, k.density, 1.0, 0.3, -12.0, 12.0, weight=lambda z: z)
        assert float(mean) == pytest.approx(0.3, abs=1e-13)
        # an empty interval at a singular end is never evaluated; in the
        # sqrt coordinate of besq, 1/sqrt(z) dz = 2 du is integrated exactly
        singular = lambda t, x, z: 1.0 / np.sqrt(z)
        got = density_integral(make_spec("besq:2"), singular, 1.0, 0.0, 0.0, np.array([0.0, 4.0]))
        assert got[0] == 0.0 and got[1] == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("sid", CATALOG_IDS)
    def test_cdf_and_atoms_broadcast_over_start_and_end(self, sid):
        # x of shape (3, 1) against y of shape (1, 4), for the kernel and
        # its dual, must match point-at-a-time calls; y includes the left
        # end (or a far-left point), where the CDF is the atom there
        t = 0.4
        for spec in (make_spec(sid), conjugate(make_spec(sid))):
            k = kernel(spec)
            l, r = spec.interval
            if np.isfinite(r):
                xs = l + (r - l) * np.array([0.2, 0.45, 0.8])
                ys = l + (r - l) * np.array([0.0, 0.3, 0.55, 0.9])
            elif np.isfinite(l):
                xs = l + np.array([0.3, 1.1, 2.4])
                ys = l + np.array([0.0, 0.5, 1.4, 3.0])
            else:
                xs = np.array([-1.1, 0.2, 1.3])
                ys = np.array([-6.0, -0.4, 0.6, 1.9])
            F = k.cdf(t, xs[:, None], ys[None, :])
            assert np.shape(F) == (3, 4)
            pointwise = [[float(k.cdf(t, x, y)) for y in ys] for x in xs]
            np.testing.assert_allclose(F, pointwise, rtol=0, atol=1e-12, err_msg=spec.name)
            for atom in (k.atom_l, k.atom_r):
                a = np.broadcast_to(atom(t, xs[:, None]), (3, 1))
                np.testing.assert_allclose(a[:, 0], [float(atom(t, x)) for x in xs],
                                           rtol=0, atol=1e-12, err_msg=spec.name)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sid", ["lag:2", "lag:3"])
    @pytest.mark.parametrize("t", [2.0, 3.0])
    def test_lag_dual_holds_at_long_times(self, sid, t):
        # the dual's window reaches y ~ 45 e^{2t}, far past where e^{y - x}
        # overflows; the density must stay finite there, and duality (whose
        # right side holds the dual's atom at 0) must hold
        spec = make_spec(sid)
        dual = kernel(conjugate(spec))
        _, hi = dual.window(t, 1.0)
        assert hi > 1000.0
        assert np.all(np.isfinite(dual.density(t, 1.0, np.linspace(0.0, hi, 50))))
        for x, y in itertools.product((0.3, 1.0, 2.5), (0.5, 1.7, 4.0)):
            assert duality_residual(spec, t, x, y) < 1e-10, (x, y)

    def test_killed_mass_below_one(self):
        k = kernel(make_spec("besq:-1"))
        lo, hi = k.window(1.0, 2.0)
        from interlace_lab.quadrature import gl_nodes

        z, w = gl_nodes(lo, hi, 300)
        interior = float(np.dot(w, k.density(1.0, 2.0, z)))
        assert interior < 1.0
        assert interior + float(k.atom_l(1.0, 2.0)) == pytest.approx(1.0, abs=1e-6)

    def test_unsupported_family_raises(self):
        with pytest.raises(CatalogError):
            make_spec("levy:1")

    def test_spectral_truncation_error(self):
        with pytest.raises(TruncationError):
            kernel(make_spec("jac:1,1")).density(1e-8, 0.4, 0.6)

    def test_interval_spectral_matches_images(self):
        # two independent representations of the same kernel: images, and the
        # sine/cosine series (its CDF by quadrature, plus the image atom)
        from interlace_lab.kmgroup import spectral_km

        ys = np.linspace(0.05, math.pi - 0.05, 9)
        z, w = np.polynomial.legendre.leggauss(200)
        for ends, t, x in itertools.product(["refl,refl", "abs,abs", "refl,abs", "abs,refl"],
                                            (0.3, 1.0), (0.4, 1.7, 2.9)):
            spec = make_spec(f"bm_interval:{ends}")
            k = kernel(spec)
            series = lambda v: spectral_km(spec, 1, t, np.full((v.size, 1), x), v[:, None])
            assert np.max(np.abs(k.density(t, x, ys) - series(ys))) < 1e-10
            cdf = [float(k.atom_l(t, x)) + 0.5 * y * np.dot(w, series(0.5 * y * (z + 1.0)))
                   for y in ys]
            assert np.max(np.abs(k.cdf(t, x, ys) - cdf)) < 1e-10

    def test_interval_atoms_match_the_mode_expansion(self):
        # the absorbed mass from the eigenfunction expansion, independent of
        # the images and of total_mass (which is 1 by construction here):
        # P_x(alive at t) = sum_k e^{-lam_k t} phi_k(x) int_0^pi phi_k, with
        # the normalised modes sqrt(2/pi) cos((k+1/2)y) for refl,abs,
        # sqrt(2/pi) sin((k+1/2)y) for abs,refl and sqrt(2/pi) sin(ky) for
        # abs,abs, whose integrals are (-1)^k/(k+1/2), 1/(k+1/2) and
        # (1-(-1)^k)/k.  abs,abs splits the mass between its ends by the
        # harmonic part: P_x(absorbed at pi by t) = x/pi - sum_k b_k e^{-k^2 t/2}
        # sin(kx), b_k = 2(-1)^{k+1}/(pi k), and at 0 by symmetry.
        k = np.arange(400.0)
        h, j = k + 0.5, k + 1.0
        sign = (-1.0) ** k
        for t, x in itertools.product((0.05, 0.3, 1.0, 2.5), (0.4, 1.7, 2.9)):
            eh = (2 / math.pi) * np.exp(-h * h * t / 2)
            ej = (2 / math.pi) * np.exp(-j * j * t / 2)
            alive = {
                "refl,abs": np.sum(eh * np.cos(h * x) * sign / h),
                "abs,refl": np.sum(eh * np.sin(h * x) / h),
                "abs,abs": np.sum(ej * np.sin(j * x) * (1 - (-1.0) ** j) / j),
            }
            want = {
                "refl,abs": (0.0, 1.0 - alive["refl,abs"]),
                "abs,refl": (1.0 - alive["abs,refl"], 0.0),
                "abs,abs": ((math.pi - x) / math.pi - np.sum(ej * np.sin(j * x) / j),
                            x / math.pi - np.sum(ej * np.sin(j * x) * sign / j)),
            }
            for ends, (atom_l, atom_r) in want.items():
                kern = kernel(make_spec(f"bm_interval:{ends}"))
                got_l, got_r = float(kern.atom_l(t, x)), float(kern.atom_r(t, x))
                assert got_l == pytest.approx(atom_l, abs=1e-12), (ends, t, x)
                assert got_r == pytest.approx(atom_r, abs=1e-12), (ends, t, x)
                assert got_l + got_r == pytest.approx(1.0 - alive[ends], abs=1e-12), (ends, t, x)

    @pytest.mark.parametrize(
        "sid",
        ["bm", "ou", "besq:2.5", "gbm:1", "bm_halfline:refl", "bm_halfline:abs",
         "bm_interval:refl,refl", "bm_interval:abs,abs", "bm_interval:refl,abs",
         "bm_interval:abs,refl", "jac:1,1", "jac:0.7,2", "jac_dual:1,1", "jac_dual:2,3",
         "lag:3", "besq:1:abs"],
    )
    def test_derivative_evaluators_match_fd(self, sid):
        # order k against the finite difference of order k - 1 (0: the
        # density); only the Gaussian-image kernels have closed forms above
        # order 1, the rest take them from the derivative rule
        from interlace_lab.quadrature import fd_derivative

        k = kernel(make_spec(sid))
        t, x, y = (0.7, 0.3, 0.45) if sid.startswith("jac") else (0.7, 1.1, 1.6)
        for order in (1, 2, 3) if sid.startswith("bm") or sid == "ou" else (1,):
            below_x = k.density if order == 1 else lambda t, u, v: k.dx_derivative(order - 1, t, u, v)
            below_y = k.density if order == 1 else lambda t, u, v: k.dy_derivative(order - 1, t, u, v)
            fd_y = fd_derivative(lambda v: below_y(t, x, v), np.asarray(y), order=1)
            fd_x = fd_derivative(lambda u: below_x(t, u, y), np.asarray(x), order=1)
            assert float(k.dy_derivative(order, t, x, y)) == pytest.approx(float(fd_y), rel=1e-6)
            assert float(k.dx_derivative(order, t, x, y)) == pytest.approx(float(fd_x), rel=1e-6)

    def test_a_kernel_must_state_its_derivatives(self):
        k = kernel(make_spec("bm"))
        with pytest.raises(TypeError):
            TransitionKernel(k.spec, k.density, k.cdf, k.atom_l, k.atom_r, k.window)

    @pytest.mark.parametrize("sid", ["jac:1,1", "jac:0.7,2"])
    def test_jacobi_second_derivative_matches_the_series(self, sid):
        # the derivative rule's order 2 (a finite difference of the closed
        # first derivative) against the series differentiated term by term:
        # d/du P_k^(a,b) = (k + a + b + 1)/2 P_{k-1}^(a+1,b+1), applied twice,
        # with the norms of DLMF 18.3.1
        beta, gamma = make_spec(sid).params
        a, b = gamma - 1.0, beta - 1.0
        k = kernel(make_spec(sid))
        m = make_spec(sid).scale.m
        for t, x, y in [(0.3, 0.2, 0.45), (0.7, 0.6, 0.3), (0.1, 0.5, 0.52), (1.0, 0.8, 0.15)]:
            exact = 0.0
            for j in range(2, 80):
                log_h = ((a + b + 1.0) * math.log(2.0) + sc.gammaln(j + a + 1.0) + sc.gammaln(j + b + 1.0)
                         - sc.gammaln(j + 1.0) - math.log(2.0 * j + a + b + 1.0) - sc.gammaln(j + a + b + 1.0))
                d2 = (j + a + b + 1.0) * (j + a + b + 2.0) * sc.eval_jacobi(j - 2, a + 2.0, b + 2.0, 2.0 * x - 1.0)
                exact += (math.exp(-2.0 * j * (j + beta + gamma - 1.0) * t - log_h)
                          * d2 * sc.eval_jacobi(j, a, b, 2.0 * y - 1.0))
            exact *= float(m(y))
            assert float(k.dx_derivative(2, t, x, y)) == pytest.approx(exact, rel=1e-8), (t, x, y)


BESQ_IDS = [s for s in CATALOG_IDS if s.startswith("besq:")] + ["besq:-1", "besq:1:abs", "lag:3"]


class TestBesselFactors:
    """The evaluators of e^{-z} I_nu(z) behind the besq, lag and lag_dual
    kernels.  Their bounds against scipy's ive are ive's own error: the
    closed forms are within a few ulp of 40-digit values."""

    Z = np.concatenate([np.logspace(-300, 9, 6001), np.linspace(0.0, 40.0, 4001)[1:]])
    FAR = np.logspace(np.log10(1.1e9), 300, 200)

    @pytest.mark.parametrize("nu,bound", [(0.5, 5e-14), (1.5, 5e-14)])
    def test_closed_forms_match_ive(self, nu, bound):
        assert catalog._ive_of_order(nu) in catalog._IVE_CLOSED.values()
        got = catalog._ive_of_order(nu)(self.Z)
        want = sc.ive(nu, self.Z)
        normal = want > 1e-290
        assert np.all(np.abs(got - want)[normal] <= bound * want[normal])
        # where the value is subnormal or 0 both are within 1e-300 of 0
        assert np.all(np.abs(got - want)[~normal] <= 1e-300)

    def test_three_term_recurrence(self):
        # ive(nu - 1) - ive(nu + 1) = (2 nu / z) ive(nu) at nu = 1/2 ties the
        # two closed forms to e^{-z} I_{-1/2}(z) = (1 + e^{-2z}) / sqrt(2 pi z)
        # to a few ulp at every z
        z = np.logspace(-300, 300, 6001)
        minus_half = (1.0 + np.exp(-2.0 * z)) / np.sqrt(2.0 * math.pi * z)
        lhs = minus_half - catalog._ive_of_order(1.5)(z)
        rhs = catalog._ive_of_order(0.5)(z) / z
        assert np.all(np.abs(lhs - rhs) <= 4.0 * np.finfo(float).eps * minus_half)

    @pytest.mark.parametrize("nu", [0.5, 1.5, -0.5, 0.0, 0.25, 2.5])
    def test_zero_argument_is_ives(self, nu):
        assert np.array_equal(catalog._ive_of_order(nu)(0.0), sc.ive(nu, 0.0), equal_nan=True)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.25, 1.0, 1.25, 2.5, -0.25, 3.0, 10.0])
    def test_other_orders_are_ive_within_its_range(self, nu):
        z = np.concatenate([[0.0], self.Z, [1.07e9]])
        assert np.array_equal(catalog._ive_of_order(nu)(z), sc.ive(nu, z), equal_nan=True)
        # beyond AMOS's range, two Hankel terms
        v = catalog._ive_of_order(nu)(self.FAR)
        assert np.all(np.isfinite(v)) and np.all(v > 0.0)

    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_hankel_terms_are_the_half_integer_closed_forms(self, nu):
        # for these orders the two Hankel terms are exact up to e^{-2z}
        assert np.allclose(catalog._ive_amos(nu)(self.FAR), catalog._ive_of_order(nu)(self.FAR),
                           rtol=4e-16, atol=0.0)

    @pytest.mark.parametrize("sid", BESQ_IDS)
    def test_density_has_no_nan_at_large_bessel_argument(self, sid):
        # sqrt(xy)/t reaches 1e14 on this grid; AMOS's ive is nan above
        # about 1.07e9, and the kernel must not pass that on
        k = kernel(make_spec(sid))
        x = np.array([0.0, 1e-8, 0.5, 1.0, 10.0, 1e4])[:, None]
        y = np.array([1e-8, 0.5, 1.0, 1.00001, 10.0, 1e4])
        for t in (1e-10, 1e-9, 1e-3, 1.0, 3.0):
            p = k.density(t, x, y)
            assert not np.isnan(p).any(), (t, np.argwhere(np.isnan(p)))

    # y = 0 has its own test: there the core formula is inf * 0 (killed) or
    # inf * nan (conservative, d < 2), and the kernel returns its limit
    @pytest.mark.parametrize("sid,mu", [("besq:-1", 1.5), ("besq:1:abs", 0.5), ("besq:0.5:abs", 0.75)])
    def test_killed_density_at_zero_is_its_limit(self, sid, mu):
        # p(t, x, 0+) = e^{-x/2t} (x/2t)^mu / (2t Gamma(mu + 1)), mu = -nu
        t, x = 0.5, 0.7
        want = math.exp(-x / (2 * t)) * (x / (2 * t)) ** mu / (2 * t * math.gamma(mu + 1))
        got = float(kernel(make_spec(sid)).density(t, x, 0.0))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("sid", ["besq:1", "besq:0.5"])
    def test_reflected_density_at_zero_is_infinite(self, sid):
        # reflected at 0 with d < 2, p(t, x, y) ~ y^{d/2 - 1} as y -> 0
        p = kernel(make_spec(sid)).density(0.5, np.array([[0.0], [0.7]]), np.array([0.0, 1e-12]))
        assert np.all(p[:, 0] == np.inf) and np.all(np.isfinite(p[:, 1]))


class TestDuality:
    @pytest.mark.parametrize(
        "sid,t,x,y,tol",
        [
            ("bm_halfline:refl", 1.0, 0.5, 1.0, 1e-8),
            ("bm", 1.0, 0.3, -0.4, 1e-8),
            ("besq:3", 1.0, 1.0, 2.0, 1e-6),
            ("besq:2.5", 0.7, 1.3, 0.8, 1e-6),
            ("ou", 0.5, 0.0, 1.0, 1e-6),
            ("lag:3", 0.4, 1.0, 2.0, 1e-6),
            ("gbm:1", 0.5, 1.0, 1.5, 1e-6),
            ("jac:1,1", 0.4, 0.4, 0.7, 1e-6),
            ("jac:0.5,0.5", 0.5, 0.3, 0.45, 1e-6),
            ("jac:0.5,0.5", 0.1, 0.8, 0.15, 1e-6),
            ("bm_interval:refl,refl", 0.5, 1.0, 2.0, 1e-6),
        ],
    )
    def test_residuals(self, sid, t, x, y, tol):
        assert duality_residual(make_spec(sid), t, x, y) <= tol

    def test_small_time_indicator_limit(self):
        spec = make_spec("bm")
        k = kernel(spec)
        # x < y: both sides approach 1
        assert float(k.cdf(1e-4, 0.0, 0.5)) == pytest.approx(1.0, abs=1e-12)
        assert duality_residual(spec, 1e-4, 0.0, 0.5) < 1e-12

    def test_duality_grid_property(self):
        # residual small across an (x, y, t) grid for a dual pair with atoms
        spec = make_spec("besq:3")
        worst = 0.0
        for t in (0.3, 0.8):
            for x in np.linspace(0.5, 3.0, 4):
                for y in np.linspace(0.6, 3.5, 4):
                    worst = max(worst, duality_residual(spec, t, float(x), float(y)))
        assert worst < 1e-6

    @pytest.mark.parametrize(
        "sid,t,x,y",
        [
            ("bm", 1.0, 0.2, 0.7),
            ("ou", 0.5, 0.0, 1.0),
            ("besq:3", 0.8, 1.5, 2.0),
        ],
    )
    def test_conjugate_density_relation(self, sid, t, x, y):
        assert conjugate_density_residual(make_spec(sid), t, x, y) < 1e-7

    def test_degenerate_step_raises(self):
        with pytest.raises(DegenerateInputError):
            conjugate_density_residual(make_spec("besq:3"), 0.5, 1.0, 1e-9)

    @pytest.mark.parametrize(
        "sid,t,x,y",
        [("bm", 1.0, 0.2, 0.7), ("ou", 0.5, 0.3, 1.0), ("besq:2.5", 0.8, 1.5, 2.0),
         ("lag:2", 0.5, 1.0, 2.2), ("jac:1,1", 0.4, 0.3, 0.6)],
    )
    def test_speed_measure_reversibility(self, sid, t, x, y):
        assert symmetry_residual(make_spec(sid), t, x, y) < 1e-10


class TestSpectralBases:
    @pytest.mark.parametrize("sid", ["ou", "lag:3", "jac:1,1", "bm_interval:abs,abs"])
    def test_orthonormality(self, sid):
        from interlace_lab.quadrature import gl_nodes

        spec = make_spec(sid)
        basis = spectral_basis(spec)
        lo, hi = spec.interval
        if np.isfinite(lo) and np.isinf(hi):
            # half line: integrate in u = sqrt(y) to tame the speed density
            u, w = gl_nodes(0.0, 7.0, 500)
            z, w = u * u, w * 2.0 * u
        else:
            lo = lo if np.isfinite(lo) else -9.0
            hi = hi if np.isfinite(hi) else 9.0
            z, w = gl_nodes(lo + 1e-12, hi, 400)
        for j in range(3):
            for k in range(j, 3):
                val = float(np.dot(w, basis.phi(j, z) * basis.phi(k, z) * basis.m(z)))
                assert val == pytest.approx(1.0 if j == k else 0.0, abs=5e-7)

    @pytest.mark.parametrize(
        "sid", ["bm_interval:abs,abs", "ou", "lag:3", "jac:1,1", "jac:2,1.5"]
    )
    def test_derived_m_prime_is_the_slope_of_m(self, sid):
        # the basis's speed density agrees with the spec's a, b and a':
        # m' = m (b - a')/a against a central difference of m itself
        spec = make_spec(sid)
        m = spectral_basis(spec).m
        x = _probes(spec)
        h = 1e-5 * np.maximum(1.0, np.abs(x))
        fd = (m(x + h) - m(x - h)) / (2.0 * h)
        mp = m(x) * (spec.b(x) - spec.a_prime(x)) / spec.a(x)
        assert np.all(np.abs(mp - fd) <= 1e-8 * (np.abs(m(x)) + np.abs(mp)))

    @pytest.mark.parametrize("sid", ["lag:2", "lag:3", "lag:5"])
    def test_laguerre_basis_is_finite_for_every_term(self, sid):
        # a 320-node quadrature norm overflowed from k = 107 on, leaving 193
        # of the 300 terms nan; the closed form h_k = Gamma(k + nu + 1) / k!
        # agrees with it wherever that quadrature is finite
        basis = spectral_basis(make_spec(sid))
        nu = make_spec(sid).params[0] / 2.0 - 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(basis.max_terms):
                assert np.all(np.isfinite(basis.phi(k, basis.grid))), k
        nodes, weights = sc.roots_genlaguerre(320, nu)
        x = np.array([0.3, 1.0, 2.5])
        for k in range(101):
            vals = sc.eval_genlaguerre(k, nu, nodes)
            norm = 1.0 / math.sqrt(float(np.dot(weights, vals * vals)) * math.e / 2.0)
            quad = sc.eval_genlaguerre(k, nu, x) * norm
            assert np.allclose(basis.phi(k, x), quad, rtol=1e-12, atol=0.0), k

    def test_hermite_basis_is_finite_for_every_term(self):
        # a float norm 1/sqrt(2 sqrt(pi) 2^k k!) was 0 for 150 <= k <= 170 and
        # overflowed from k = 171, so n_terms stopped at the first zero term:
        # 150 at t = 0.5, where the series needs 175, and at t = 0.2, where
        # 200 terms do not reach the 1e-12 tail
        basis = spectral_basis(make_spec("ou"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(basis.max_terms):
                assert np.all(np.isfinite(basis.phi(k, basis.grid))), k
            assert basis.n_terms(0.5) > 150
            with pytest.raises(TruncationError):
                basis.n_terms(0.2)

    def test_jacobi_ground_state_at_beta_plus_gamma_one(self):
        # a + b = -1: the textbook h_0 is 0 * infinity; h_0 = pi here
        basis = spectral_basis(make_spec("jac:0.5,0.5"))
        assert float(basis.phi(0, 0.3)) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)
        assert np.all(np.isfinite([basis.phi(k, 0.3) for k in range(basis.max_terms)]))

    def test_jacobi_closed_form_norm_matches_the_quadrature_norm(self):
        # jac:1,1 is P_k^(0,0), Legendre, normalised against a 160-node
        # Gauss-Jacobi norm: the closed form changes no value by 1e-12
        basis = spectral_basis(make_spec("jac:1,1"))
        nodes, weights = sc.roots_jacobi(160, 0.0, 0.0)
        x = np.array([0.05, 0.3, 0.61, 0.97])
        for k in range(121):
            vals = sc.eval_jacobi(k, 0.0, 0.0, nodes)
            norm = 1.0 / math.sqrt(float(np.dot(weights, vals * vals)))
            quad = sc.eval_jacobi(k, 0.0, 0.0, 2.0 * x - 1.0) * norm
            assert np.allclose(basis.phi(k, x), quad, rtol=1e-12, atol=0.0), k


def _probes(spec):
    """Three interior points, chosen without the catalog's own windows."""
    l, r = spec.interval
    if np.isfinite(l) and np.isfinite(r):
        return l + (r - l) * np.array([0.2, 0.45, 0.8])
    if np.isfinite(l):
        return l + np.array([0.3, 1.1, 2.7])
    return np.array([-1.3, 0.2, 1.9])


class TestFamilyRegistry:
    @pytest.mark.parametrize("sid", CATALOG_IDS)
    def test_conjugate_is_an_involution_on_names(self, sid):
        spec = make_spec(sid)
        assert conjugate(conjugate(spec)).name == spec.name

    @pytest.mark.parametrize("sid", CATALOG_IDS)
    def test_name_rebuilds_params_exactly(self, sid):
        spec = make_spec(sid)
        for s in (spec, conjugate(spec)):
            assert make_spec(s.name).params == s.params

    @pytest.mark.parametrize("sid", CATALOG_IDS)
    def test_edge_ladder_drift_is_b_plus_m_a_prime(self, sid):
        base = make_spec(sid)
        x = _probes(base)
        for n in (2, 3, 4):
            try:
                ladder = edge_ladder(base, n)
            except ValueError:
                # only families with an end the edge tables reject lack a ladder
                assert {base.behavior_l, base.behavior_r} - {Boundary.NATURAL, Boundary.ENTRANCE}
                continue
            assert len(ladder) == n and ladder[-1] is base
            for k, level in enumerate(ladder, 1):
                np.testing.assert_allclose(level.a(x), base.a(x), rtol=1e-14)
                np.testing.assert_allclose(
                    level.b(x), base.b(x) + (n - k) * base.a_prime(x), rtol=1e-12, atol=1e-12
                )

    @pytest.mark.parametrize("sid", CATALOG_IDS)
    def test_gaussian_moments_reproduce_density(self, sid):
        spec = make_spec(sid)
        xs = np.linspace(-1.5, 1.5, 5)
        # dX = (b0 + b1 X) dt + sqrt(2 a) dW with constant a is Gaussian on the line
        gaussian = bool(
            np.isinf(spec.l) and np.isinf(spec.r)
            and np.ptp(spec.a(xs)) == 0.0 and np.allclose(np.diff(spec.b(xs), 2), 0.0)
        )
        moments = gaussian_moments(spec)
        assert (moments is not None) == gaussian
        if not gaussian:
            return
        mean, var, dmean_dx = moments
        a = float(spec.a(0.0))
        b0 = float(spec.b(0.0))
        b1 = float(spec.b(1.0)) - b0
        y = np.linspace(-2.0, 2.0, 9)
        for t in (0.3, 1.0):
            g = math.exp(b1 * t)
            v = 2.0 * a * ((g * g - 1.0) / (2.0 * b1) if b1 else t)
            for x in _probes(spec):
                m = x * g + (b0 * (g - 1.0) / b1 if b1 else b0 * t)
                assert float(mean(t, x)) == pytest.approx(m, rel=1e-13, abs=1e-13)
                assert var(t) == pytest.approx(v, rel=1e-13)
                assert dmean_dx(t) == pytest.approx(g, rel=1e-13)
                expect = np.exp(-0.5 * (y - m) ** 2 / v) / math.sqrt(2.0 * math.pi * v)
                np.testing.assert_allclose(kernel(spec).density(t, x, y), expect, rtol=1e-12)

    @pytest.mark.parametrize("sid", ["besq:2.0000001", "bm_drift:0.123456789"])
    def test_ids_are_exact(self, sid):
        spec = make_spec(sid)
        assert kernel(spec).spec.params == spec.params
        assert conjugate(conjugate(spec)).params == spec.params

    @pytest.mark.parametrize(
        "sid",
        ["bm:3", "ou:5", "lag:2:9", "besq:1:foo", "besq", "gbm", "jac:1",
         "bm_interval:refl", "bm_drift:x",
         # a non-finite parameter is malformed too
         "besq:nan", "besq:-inf", "bm_drift:inf", "lag:inf", "gbm:nan", "jac:nan,1"],
    )
    def test_malformed_id_raises(self, sid):
        with pytest.raises(CatalogError, match=f"'{sid}'.*expected"):
            make_spec(sid)

    @pytest.mark.parametrize("sid", ["jac:0,1", "jac:-1,2", "jac:1,0", "jac_dual:0,1", "jac_dual:1,-0.5"])
    def test_jacobi_requires_positive_parameters(self, sid):
        # the spectral jac kernel loses mass there: at jac:0,1 it carries
        # 0.233 of it at t = 0.5, x = 0.3, with no atom
        with pytest.raises(CatalogError, match="beta > 0 and gamma > 0"):
            make_spec(sid)

    @pytest.mark.parametrize("entry", ["conjugate", "simulate_two_level", "simulate_gt", "edge_ladder"])
    def test_hand_built_spec_raises_naming_it(self, entry):
        from dataclasses import replace

        from interlace_lab import reflectsde as rs
        from interlace_lab.twolevel import Shape

        spec = replace(make_spec("bm"), family="mystery", name="mystery")
        call = {
            "conjugate": lambda: conjugate(spec),
            "simulate_two_level": lambda: rs.simulate_two_level(
                spec, Shape.NNP1, [-1.0, 1.0], [0.0], T=0.1, dt=0.05, n_paths=2),
            "simulate_gt": lambda: rs.simulate_gt(
                [spec, spec], [[0.0], [-1.0, 1.0]], T=0.1, dt=0.05, n_paths=2),
            "edge_ladder": lambda: edge_ladder(spec, 2),
        }[entry]
        with pytest.raises(CatalogError, match="'mystery' is not in the catalog"):
            call()

    def test_core_imports_nothing_from_catalog(self):
        # the dependency runs one way: catalog imports core
        import ast

        from interlace_lab.diffusion1d import core

        with open(core.__file__) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any(n.split(".")[-1] == "catalog" for n in names), ast.dump(node)


# starts x and ends y of the kernels whose CDF or atoms are density
# integrals, evaluated at every t of _INTEGRAL_TIMES
_HALF_LINE = ((0.3, 2.5, 8.0), (0.2, 0.9, 2.0, 4.0, 9.0))
_UNIT = ((0.2, 0.5, 0.8), (0.15, 0.45, 0.85))
_INTERVAL = ((0.4, 1.5, 2.7), (0.5, 1.6, 2.9))
_INTEGRAL_KERNELS = {
    "besq:1:abs": _HALF_LINE, "besq:0.5:abs": _HALF_LINE, "besq:-0.5": _HALF_LINE,
    "besq:-1": _HALF_LINE, "lag_dual:1": _HALF_LINE, "lag_dual:3": _HALF_LINE,
    "jac:1,1": _UNIT, "jac:0.5,0.5": _UNIT, "jac_dual:1,1": _UNIT, "jac_dual:0.5,0.5": _UNIT,
    "bm_interval:abs,abs": _INTERVAL, "bm_interval:abs,refl": _INTERVAL,
    "bm_interval:refl,abs": _INTERVAL,
}
_INTEGRAL_TIMES = (0.002, 0.1, 1.0, 3.0)
# (base, n, t, coincident start): edge tables whose S^{(k),j}, j >= 2, are
# density integrals
_INTEGRAL_EDGES = {"besq:2 n=2": ("besq:2", 2, 1.0, 0.0), "besq:3 n=3": ("besq:3", 3, 0.5, 0.5),
                   "lag:2 n=2": ("lag:2", 2, 1.0, 0.2), "lag:3 n=3": ("lag:3", 3, 0.5, 0.5)}


def _integral_values(target):
    """CDF on the (t, x, y) grid and both atoms on the (t, x) grid of a
    kernel, or the extreme-particle CDFs of an edge table on a z grid."""
    if target in _INTEGRAL_EDGES:
        sid, n, t, x = _INTEGRAL_EDGES[target]
        z = np.linspace(0.1, 8.0, 9)
        return np.concatenate([ek.edge_max_cdf_degenerate(make_spec(sid), n, t, x, z),
                               ek.edge_min_cdf_degenerate(make_spec(sid), n, t, x, z)])
    xs, ys = _INTEGRAL_KERNELS[target]
    k = kernel(make_spec(target))
    x = np.array(xs)[:, None]
    return np.concatenate([np.ravel(v) for t in _INTEGRAL_TIMES
                           for v in (k.cdf(t, x, np.array(ys)), k.atom_l(t, x), k.atom_r(t, x))])


class TestQuadratureCoordinates:
    """density_integral, chamber_quad and fiber_quad: clipped to the state
    space, in the family's coordinates (linear, sqrt, log or arcsine),
    Jacobian in the weights."""

    @pytest.mark.parametrize("target", list(_INTEGRAL_KERNELS) + list(_INTEGRAL_EDGES))
    def test_density_integrals_match_a_600_node_rule(self, target, monkeypatch):
        # every CDF, atom and edge entry that is a density integral sits at
        # the rounding floor of a 600-node rule in the same coordinates
        got = _integral_values(target)
        monkeypatch.setattr(catalog, "_DENSITY_NODES", 600)
        ref = _integral_values(target)
        assert np.all(np.isfinite(got))
        assert float(np.max(np.abs(got - ref))) <= 1e-12

    @pytest.mark.parametrize(
        "sid, x, t",
        [("bm_halfline:refl", 0.3, 0.5), ("besq:3", 0.2, 0.7), ("lag:3", 1.0, 0.4),
         ("gbm:1", 1.5, 0.3), ("ou", -0.4, 0.6), ("jac:0.5,0.5", 0.3, 0.5)],
    )
    def test_one_particle_kernel_has_unit_mass(self, sid, x, t):
        kern = kernel(make_spec(sid))
        l, r = kern.spec.interval
        lo, hi = kern.window(t, x)
        ys, ws = chamber_quad(kern.spec, 1, lo, hi, 96)
        assert ys.shape == (96, 1)
        assert np.all((ys > max(l, lo)) & (ys < min(r, hi)))
        ys, ws = chamber_quad(kern.spec, 1, lo, hi, 96, pad=(0.5, 0.9))
        assert np.all((ys > l) & (ys < r))
        assert float(np.dot(ws, kern.density(t, x, ys[:, 0]))) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "sid, lo, hi, volume",
        [("bm", [[-1.0, 0.5]], [[0.5, 2.0]], 2.25),
         ("bm_interval:abs,abs", [[-1.0, 3.0]], [[0.5, 5.0]], 0.5 * (math.pi - 3.0)),
         ("besq:3", [[-1.0, 1.0]], [[0.5, 4.0]], 1.5),
         ("gbm:1", [[0.01, 1.0]], [[0.5, 3.0]], 0.49 * 2.0),
         ("jac:1,1", [[-1.0, 0.2]], [[0.5, 2.0]], 0.5 * 0.8)],
    )
    def test_weights_measure_the_clipped_region(self, sid, lo, hi, volume):
        spec = make_spec(sid)
        ys, ws = fiber_quad(spec, lo, hi, 24)
        l, r = spec.interval
        assert ys.shape == (1, 24**2, 2) and ws.shape == (1, 24**2)
        assert np.all((ys >= l) & (ys <= r))
        assert float(np.sum(ws)) == pytest.approx(volume, rel=1e-12)
        a, b = max(lo[0][0], l), min(hi[0][1], r)
        pts, wts = chamber_quad(spec, 3, lo[0][0], hi[0][1], 24)
        assert np.all(np.diff(pts, axis=1) >= 0.0)
        assert float(np.sum(wts)) == pytest.approx((b - a) ** 3 / 6.0, rel=1e-12)
