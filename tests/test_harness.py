import dataclasses
import inspect
import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from interlace_lab.harness import (
    ALL_CHECKS,
    CampaignConfig,
    CampaignError,
    cdf_from_density_grid,
    complex_wishart_sample,
    gue_corners_sample,
    gue_sample,
    jacobi_unitary_sample,
    ks_statistic_cdf,
    read_config,
    rmt_oracle,
    run_campaign,
    two_sample_ks,
    write_csv,
)
from interlace_lab.harness.io import ConfigError


_KS_VALUES = st.one_of(st.integers(-4, 4).map(float),
                       st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


def ks_against_normal(samples):
    s = np.sort(samples)
    return ks_statistic_cdf(s, ndtr(s))


class TestOracles:
    def test_gue_one_is_standard_gaussian(self):
        rng = np.random.default_rng(1)
        assert ks_against_normal(gue_sample(rng, 1, 20000)[:, 0]) < 0.015

    def test_wishart_row_mean_eigenvalue(self):
        rng = np.random.default_rng(2)
        for k in (1, 3, 5):
            ev = complex_wishart_sample(rng, 1, k, 6000)[:, 0]
            assert ev.mean() == pytest.approx(k, abs=3 * math.sqrt(k / 6000))

    def test_jacobi_spectrum_in_unit_interval(self):
        rng = np.random.default_rng(3)
        ev = jacobi_unitary_sample(rng, 2, 3, 4, 300)
        assert np.all(ev >= -1e-10) and np.all(ev <= 1.0 + 1e-10)

    @pytest.mark.parametrize("n, p, q", [(1, 1, 1), (2, 2, 2), (2, 3, 4), (3, 3, 5), (4, 4, 4)])
    def test_jacobi_matches_per_sample_generalized_eigh(self, n, p, q):
        import scipy.linalg as sla

        def reference(rng, count):
            # the same draws, solved one generalized problem WA v = lam (WA + WB) v at a time
            sa = np.sqrt(0.5)
            A = rng.normal(0, sa, (count, n, p)) + 1j * rng.normal(0, sa, (count, n, p))
            B = rng.normal(0, sa, (count, n, q)) + 1j * rng.normal(0, sa, (count, n, q))
            WA = A @ np.conj(np.transpose(A, (0, 2, 1)))
            WB = B @ np.conj(np.transpose(B, (0, 2, 1)))
            return np.array([np.sort(sla.eigh(a, a + b, eigvals_only=True).real)
                             for a, b in zip(WA, WB)])

        got = jacobi_unitary_sample(np.random.default_rng(17), n, p, q, 500)
        want = reference(np.random.default_rng(17), 500)
        assert got.shape == (500, n)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_string_addressing_and_caps(self):
        rng = np.random.default_rng(4)
        assert rmt_oracle("gue:2", 100, rng).shape == (100, 2)
        assert rmt_oracle("wishart:2,3", 50, rng).shape == (50, 2)
        with pytest.raises(ValueError):
            rmt_oracle("gue:7", 10, rng)
        with pytest.raises(ValueError):
            rmt_oracle("gue:2", 2_000_000, rng)
        # every size is capped, and a count below 1 is refused before any draw
        for oid, count in [("wishart:2,7", 10), ("jue:2,2,7", 10), ("gue:2", 0), ("gue:2", -3)]:
            with pytest.raises(ValueError):
                rmt_oracle(oid, count, rng)

    @pytest.mark.parametrize("oid", ["gue", "gue:", "gue:2,2", "gue:0", "gue:x", "wishart:2",
                                     "jue:2,3", "goe:2"])
    def test_malformed_id_raises(self, oid):
        from interlace_lab.diffusion1d import CatalogError

        with pytest.raises(CatalogError, match=f"'{oid}'.*gue:n, wishart:n,k or jue:n,p,q"):
            rmt_oracle(oid, 10, np.random.default_rng(0))

    def test_gue_corners_top_level_is_gue_and_levels_interlace(self):
        levels = gue_corners_sample(np.random.default_rng(6), 3, 40000, scale=2.0)
        assert [lv.shape for lv in levels] == [(40000, 1), (40000, 2), (40000, 3)]
        ev = gue_sample(np.random.default_rng(7), 3, 100000, scale=2.0)
        for i in range(3):
            assert two_sample_ks(levels[-1][:, i], ev[:, i]) < 0.02
        for lo, hi in zip(levels, levels[1:]):
            assert np.all(hi[:, :-1] <= lo + 1e-12) and np.all(lo <= hi[:, 1:] + 1e-12)

    def test_eigenvalues_sorted(self):
        rng = np.random.default_rng(5)
        ev = gue_sample(rng, 3, 500)
        assert np.all(np.diff(ev, axis=1) >= 0)


def _random_unitaries(rng, n, count):
    Z = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=1, axis2=2)
    return Q * (d / np.abs(d))[:, None, :]


class TestClosedFormEigenvalues:
    """oracles._eigvalsh solves n <= 3 in closed form, in blocks of
    oracles._BLOCK matrices; LAPACK is the reference."""

    COUNT = 3 * (1 << 14) + 5  # three full blocks and a partial one

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_lapack_on_gue_and_wishart_stacks(self, n):
        from interlace_lab.harness.oracles import _BLOCK, _eigvalsh, _gram, _gue_matrix

        assert self.COUNT % _BLOCK == 5
        rng = np.random.default_rng(40 + n)
        A = rng.normal(size=(self.COUNT, n, n + 1)) + 1j * rng.normal(size=(self.COUNT, n, n + 1))
        for H in (_gue_matrix(rng, n, self.COUNT, 2.0), _gram(A)):
            got, want = _eigvalsh(H), np.linalg.eigvalsh(H)
            assert got.shape == want.shape == (self.COUNT, n)
            scale = np.max(np.abs(want), axis=1)
            assert np.all(np.abs(got - want).max(axis=1) <= 1e-12 * scale)

    @staticmethod
    def _near_degenerate_cases(rng):
        U = _random_unitaries(rng, 3, 200)
        for n in (1, 2, 3):
            yield np.zeros((4, n, n), complex), np.zeros((4, n)), 1.0
            c = np.array([-2.5, 0.0, 1e-3, 7.0])
            yield c[:, None, None] * np.eye(n), np.repeat(c[:, None], n, axis=1), 7.0
        for spec in ([1.0, 1.0, 2.0], [1.0, 1.0 + 1e-9, 2.0]):
            H = np.einsum("cij,j,ckj->cik", U, np.array(spec), np.conj(U))
            yield H, np.broadcast_to(spec, (len(U), 3)), 2.0
        for n in (2, 3):  # rank-one Wishart (k = 1): an (n - 1)-fold zero eigenvalue
            a = rng.normal(size=(200, n, 1)) + 1j * rng.normal(size=(200, n, 1))
            norm2 = np.sum(np.abs(a[:, :, 0]) ** 2, axis=1)
            want = np.zeros((200, n))
            want[:, -1] = norm2
            yield a @ np.conj(np.transpose(a, (0, 2, 1))), want, norm2[:, None]

    def test_double_and_near_double_eigenvalues(self):
        from interlace_lab.harness.oracles import _eigvalsh

        for H, want, scale in self._near_degenerate_cases(np.random.default_rng(12)):
            got = _eigvalsh(H)
            assert np.all(np.isfinite(got)) and np.all(np.diff(got, axis=1) >= 0)
            assert np.all(np.abs(got - want) <= 1e-7 * scale)

    def test_samplers_use_the_closed_forms(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigvalsh called for n <= 3")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rng = np.random.default_rng(13)
        assert gue_sample(rng, 3, 10).shape == (10, 3)
        assert [lv.shape for lv in gue_corners_sample(rng, 3, 10)] == [(10, 1), (10, 2), (10, 3)]
        assert complex_wishart_sample(rng, 3, 2, 10).shape == (10, 3)
        assert jacobi_unitary_sample(rng, 3, 3, 4, 10).shape == (10, 3)

    def test_memory_of_a_large_draw_stays_bounded(self):
        # the draws stream in blocks of _BLOCK matrices, and a GUE block's
        # eigenvalues overwrite its spent diagonal, so the peak is the
        # output and one block's temporaries (measured 1.3 MiB above it);
        # a Jacobi block holds dense complex stacks and their Cholesky
        # solves (measured 21.7 MiB above it, against 224 MiB unblocked);
        # GUE corners holds its 3 x 3 entries for every draw, and one
        # block's dense matrices and minor solves (measured 18.5 MiB above
        # its six output columns, against 29.1 MiB unblocked)
        import tracemalloc

        for draw, n, slack_mib in (
                (lambda rng: gue_sample(rng, 3, 200_000), 3, 2),
                (lambda rng: complex_wishart_sample(rng, 2, 2, 200_000), 2, 2),
                (lambda rng: jacobi_unitary_sample(rng, 3, 3, 4, 200_000), 3, 24),
                (lambda rng: gue_corners_sample(rng, 3, 200_000), 1 + 2 + 3, 20)):
            rng = np.random.default_rng(14)
            tracemalloc.start()
            try:
                draw(rng)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 200_000 * n * 8 + slack_mib * 2**20, n

    @staticmethod
    def _smith_roots(diag, off2, triple):
        """The three roots of Smith's solution, unsorted, from the formula
        as first written: the reference for _closed_form's in-place form."""
        bb, cc, ee = off2
        q = (diag[0] + diag[1] + diag[2]) / 3.0
        a, d, f = diag[0] - q, diag[1] - q, diag[2] - q
        p = np.sqrt((a * a + d * d + f * f + 2.0 * (bb + cc + ee)) / 6.0)
        det = a * d * f + 2.0 * triple - a * ee - d * cc - f * bb
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(p > 0.0, det / (2.0 * p ** 3), 0.0)
        phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
        k = np.array([0.0, 2.0, 4.0]) * (np.pi / 3.0)
        return q[:, None] + (2.0 * p)[:, None] * np.cos(phi[:, None] + k)

    def test_min_max_network_orders_the_roots_as_np_sort(self):
        from interlace_lab.harness.oracles import _abs2, _gram, _gue_matrix
        from interlace_lab.kmgroup import _closed_form

        rng = np.random.default_rng(15)
        A = rng.normal(size=(5000, 3, 2)) + 1j * rng.normal(size=(5000, 3, 2))
        stacks = [_gue_matrix(rng, 3, 5000, 1.0), _gram(A)]
        stacks += [H for H, _, _ in self._near_degenerate_cases(rng) if H.shape[-1] == 3]
        for H in stacks:
            diag = [H[:, i, i].real for i in range(3)]
            off2 = [_abs2(H[:, 0, 1]), _abs2(H[:, 0, 2]), _abs2(H[:, 1, 2])]
            triple = (H[:, 0, 1] * H[:, 1, 2] * np.conj(H[:, 0, 2])).real
            want = np.sort(self._smith_roots(diag, off2, triple), axis=-1)
            assert _closed_form(diag, off2, triple).tobytes() == want.tobytes()


def _unblocked_eigvalsh(d, e2):
    """The tridiagonal solve on whole arrays, in one call: the reference
    for the blocked draws."""
    from interlace_lab.kmgroup import _closed_form

    count, n = d.shape
    if n > 3:
        T = np.zeros((count, n, n))
        i = np.arange(n)
        T[:, i, i] = d
        T[:, i[1:], i[:-1]] = np.sqrt(e2)
        return np.linalg.eigvalsh(T)
    off2 = [e2[:, 0], 0.0, e2[:, 1]] if n == 3 else [e2[:, 0]] if n == 2 else []
    return _closed_form([d[:, i] for i in range(n)], off2)


def _unblocked_laguerre(rng, n, shape, count, scale):
    """All gammas, then one solve, as the bidiagonal model reads."""
    shapes = np.concatenate([shape - np.arange(n), n - 1.0 - np.arange(n - 1)])
    g = scale * rng.standard_gamma(shapes, size=(count, len(shapes)))
    a2, c2 = g[:, :n], g[:, n:]
    d = a2.copy()
    d[:, 1:] += c2
    return np.maximum(_unblocked_eigvalsh(d, a2[:, :-1] * c2), 0.0)


class TestBlockedDraws:
    """The models draw and solve in blocks of _BLOCK matrices, in the order
    of one whole-array draw: every value equals the unblocked reference's
    bit for bit, over two full blocks and a partial one."""

    @staticmethod
    def _count():
        from interlace_lab.kmgroup import _BLOCK

        return 2 * _BLOCK + 7

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_gue_draw_equals_all_normals_then_all_gammas(self, n):
        count, scale = self._count(), 1.7
        rng = np.random.default_rng((50, n))
        d = rng.normal(0.0, np.sqrt(scale), size=(count, n))
        e2 = scale * rng.standard_gamma(np.arange(n - 1, 0, -1.0), size=(count, n - 1))
        want = _unblocked_eigvalsh(d, e2)
        assert gue_sample(np.random.default_rng((50, n)), n, count, scale).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, k", [(1, 1), (1, 3), (2, 2), (2, 5), (3, 1), (3, 2), (3, 3),
                                      (4, 4), (5, 2), (5, 6)])
    def test_wishart_draw_equals_the_unblocked_model(self, n, k):
        count, v, r = self._count(), 0.6, min(n, k)
        want = np.zeros((count, n))
        want[:, n - r:] = _unblocked_laguerre(np.random.default_rng((51, n, k)), r, max(n, k), count, v)
        got = complex_wishart_sample(np.random.default_rng((51, n, k)), n, k, count, v)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, shape", [(1, 0.25), (2, 1.25), (3, 2.5), (4, 3.75)])
    def test_laguerre_draw_of_a_real_shape_equals_the_unblocked_model(self, n, shape):
        from interlace_lab.kmgroup import _laguerre_draw

        count = self._count()
        want = _unblocked_laguerre(np.random.default_rng((52, n)), n, shape, count, 2.2)
        got = _laguerre_draw(np.random.default_rng((52, n)), n, shape, count, 2.2)
        assert got.tobytes() == want.tobytes()


class TestMatrixModels:
    """gue_sample and complex_wishart_sample draw the beta = 2 tridiagonal
    and bidiagonal models; each must have the dense construction's law.
    200k draws a side and one two-sample KS per eigenvalue, 22 in all,
    under the 1 % bar for all of them together (Bonferroni):
    P(sqrt(N/2) D > c) is about 2 exp(-2 c^2) = 0.01 / 22 at c = 2.05.
    The n - k zeros of a Wishart with n > k are compared by size, not by
    KS: the model's are exact, the dense ones rounding noise."""

    N = 200_000
    GUE = [1, 2, 3, 4]
    WISHART = [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 5)]
    TESTS = sum(GUE) + sum(min(n, k) for n, k in WISHART)
    BAR = math.sqrt(math.log(2 * TESTS / 0.01) / 2) / math.sqrt(N / 2)

    def _same_law(self, model, dense, zeros=0):
        assert model.shape == dense.shape == (self.N, dense.shape[1])
        assert np.all(np.diff(model, axis=1) >= 0)
        scale = np.max(np.abs(dense), axis=1, keepdims=True)
        assert np.all(model[:, :zeros] == 0.0)
        assert np.all(np.abs(dense[:, :zeros]) <= 1e-12 * scale)
        for i in range(zeros, dense.shape[1]):
            assert two_sample_ks(model[:, i], dense[:, i]) <= self.BAR, i

    @pytest.mark.parametrize("n", GUE)
    def test_gue_tridiagonal_model(self, n):
        from interlace_lab.harness.oracles import _eigvalsh, _gue_matrix

        model = gue_sample(np.random.default_rng((1, n)), n, self.N, scale=1.5)
        dense = _eigvalsh(_gue_matrix(np.random.default_rng((2, n)), n, self.N, 1.5))
        self._same_law(model, dense)

    @pytest.mark.parametrize("n, k", WISHART)
    def test_wishart_bidiagonal_model(self, n, k):
        from interlace_lab.harness.oracles import _eigvalsh, _gram

        v = 2.0
        model = complex_wishart_sample(np.random.default_rng((3, n, k)), n, k, self.N,
                                       entry_variance=v)
        rng, s = np.random.default_rng((4, n, k)), math.sqrt(v / 2.0)
        A = rng.normal(0.0, s, (self.N, n, k)) + 1j * rng.normal(0.0, s, (self.N, n, k))
        self._same_law(model, _eigvalsh(_gram(A)), zeros=max(n - k, 0))


class TestLayering:
    def test_only_the_harness_and_the_cli_import_the_harness(self):
        # the dependency runs one way: the harness draws its oracles from
        # kmgroup's matrix models, so no library module imports the harness
        import ast
        import pathlib

        import interlace_lab

        root = pathlib.Path(interlace_lab.__file__).parent
        checked = set()
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            if rel.parts[0] == "harness" or rel.as_posix() == "cli.py":
                continue
            package = ["interlace_lab", *rel.parts[:-1]]
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    base = package[:len(package) + 1 - node.level] if node.level else []
                    module = ".".join(base + ([node.module] if node.module else []))
                    names = [module] + [f"{module}.{a.name}" for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                assert not any(n == "interlace_lab.harness" or n.startswith("interlace_lab.harness.")
                               for n in names), (rel.as_posix(), ast.dump(node))
            checked.add(rel.as_posix())
        assert {"kmgroup.py", "diffusion1d/core.py", "__init__.py"} <= checked


class TestKSCompare:
    def test_shift_is_rejected(self):
        rng = np.random.default_rng(7)
        assert ks_against_normal(rng.normal(0.5, 1.0, size=10000)) > 0.1

    def test_disjoint_and_identical_supports(self):
        rng = np.random.default_rng(8)
        assert ks_against_normal(rng.normal(10.0, 1.0, size=2000)) > 0.999
        assert ks_against_normal(rng.normal(0.0, 1.0, size=100000)) < 0.005

    def test_two_sample_ks(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=5000)
        b = rng.normal(size=5000)
        assert two_sample_ks(a, b) < 0.04
        # 3-sigma shift: sup|Phi(z) - Phi(z-3)| = Phi(1.5) - Phi(-1.5) ~ 0.866
        assert two_sample_ks(a, b + 3.0) > 0.85

    @staticmethod
    def _merged_search_ks(a, b):
        """Both empirical CDFs searched at every point of both samples."""
        a, b = np.sort(np.asarray(a, float)), np.sort(np.asarray(b, float))
        allv = np.concatenate([a, b])
        Fa = np.searchsorted(a, allv, side="right") / len(a)
        Fb = np.searchsorted(b, allv, side="right") / len(b)
        return float(np.max(np.abs(Fa - Fb)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_KS_VALUES, min_size=1, max_size=80),
           st.lists(_KS_VALUES, min_size=1, max_size=80))
    def test_two_sample_ks_is_the_merged_search(self, a, b):
        # small integers make ties within and across the samples
        assert two_sample_ks(a, b) == self._merged_search_ks(a, b)

    @pytest.mark.parametrize("ties", [False, True])
    def test_two_sample_ks_of_an_oracle_sized_sample(self, ties):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=5000), rng.normal(0.01, 1.0, size=200_000)
        if ties:
            a, b = np.round(a, 2), np.round(b, 2)
        assert two_sample_ks(a, b) == self._merged_search_ks(a, b)
        assert two_sample_ks(b, a) == self._merged_search_ks(b, a)

    def test_memory_of_an_oracle_sized_ks_stays_bounded(self):
        # only the smaller sample's points are searched, so beside the
        # larger sample's sorted copy the peak holds only arrays as long as
        # the smaller sample
        import tracemalloc

        rng = np.random.default_rng(13)
        a, b = rng.normal(size=5000), rng.normal(size=200_000)
        for x, y in ((a, b), (b, a)):
            tracemalloc.start()
            try:
                two_sample_ks(x, y)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * len(b) + 2**19, len(x)

    @pytest.mark.parametrize("a, b", [([], [1.0]), ([1.0], []), ([np.nan, 1.0], [1.0]),
                                      ([1.0], [2.0, np.nan])])
    def test_two_sample_ks_refuses_empty_and_nan_samples(self, a, b):
        with pytest.raises(ValueError, match="non-empty samples without NaN"):
            two_sample_ks(a, b)

    def test_empirical_cdf_of_a_sorted_sample(self):
        from interlace_lab.harness import empirical_cdf_on_grid

        rng = np.random.default_rng(12)
        x = np.round(rng.normal(size=3001), 1)
        grid = np.linspace(-4.0, 4.0, 81)
        want = np.searchsorted(np.sort(x), grid, side="right") / len(x)
        assert np.array_equal(empirical_cdf_on_grid(x, grid), want)
        assert np.array_equal(empirical_cdf_on_grid(np.sort(x), grid), want)


class TestDensityGridCdf:
    @pytest.mark.parametrize("n", [2, 3, 9, 40])
    def test_matches_scipy_pchip_bit_for_bit(self, n):
        from scipy.interpolate import PchipInterpolator

        rng = np.random.default_rng(n)
        for grid in (np.linspace(-2.0, 3.0, n), np.cumsum(rng.uniform(0.1, 1.0, n))):
            # flat stretches (zero density) make zero slopes, which PCHIP treats apart
            density = rng.exponential(size=n) * (rng.random(n) < 0.7)
            density[:2] = 1.0
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1])
                                                   * np.diff(grid))])
            ref = PchipInterpolator(grid, np.clip(cum / cum[-1], 0.0, 1.0))
            z = np.concatenate([rng.uniform(grid[0] - 1.0, grid[-1] + 1.0, 300), grid])
            want = np.clip(ref(np.clip(z, grid[0], grid[-1])), 0.0, 1.0)
            assert np.array_equal(cdf_from_density_grid(grid, density)(z), want)


class TestDysonMarginalCdf:
    @pytest.mark.parametrize("x0,t", [((-1.0, 1.0), 1.0), ((-0.3, 0.5), 0.4), ((0.0, 3.0), 2.0)])
    def test_matches_the_integrated_h_transform_density(self, x0, t):
        # A5's reference CDFs against the ordered two-particle density,
        # integrated over {u < y1 < y2} (P(Y1 > u)) or {y1 < y2 <= u}
        # (P(Y2 <= u)) by nested Gauss-Legendre rules
        from interlace_lab import kmgroup as km
        from interlace_lab.diffusion1d import kernel, make_spec
        from interlace_lab.harness.checks import dyson_marginal_cdf
        from interlace_lab.quadrature import gl_nodes

        kern, h2 = kernel(make_spec("bm")), km.vandermonde(2)
        lo, hi = min(x0) - 12.0 * math.sqrt(t), max(x0) + 12.0 * math.sqrt(t)
        r, v = gl_nodes(0.0, 1.0, 80)
        us = np.linspace(min(x0) - 3.0 * math.sqrt(t), max(x0) + 3.0 * math.sqrt(t), 13)
        F1, F2 = dyson_marginal_cdf(x0, t, 0), dyson_marginal_cdf(x0, t, 1)
        for u in us:
            # outer coordinate a over its interval, inner b between a and the far end
            a = u + (hi - u) * r
            b = a[:, None] + (hi - a[:, None]) * r[None, :]
            w = ((hi - u) * v)[:, None] * (hi - a[:, None]) * v[None, :]
            pts = np.stack(np.broadcast_arrays(a[:, None], b), axis=-1).reshape(-1, 2)
            above = float(np.sum(w.ravel() * km.h_transform_density(kern, h2, t, x0, pts)))
            a = u - (u - lo) * r
            b = a[:, None] - (a[:, None] - lo) * r[None, :]
            w = ((u - lo) * v)[:, None] * (a[:, None] - lo) * v[None, :]
            pts = np.stack(np.broadcast_arrays(b, a[:, None]), axis=-1).reshape(-1, 2)
            below = float(np.sum(w.ravel() * km.h_transform_density(kern, h2, t, x0, pts)))
            assert abs(float(F1(u)) - (1.0 - above)) < 1e-12, (u, F1(u), 1.0 - above)
            assert abs(float(F2(u)) - below) < 1e-12, (u, F2(u), below)


class TestIO:
    def test_csv_schema_line(self, tmp_path):
        p = tmp_path / "rows.csv"
        write_csv(p, ["a", "b"], [{"a": 1, "b": 2}])
        lines = p.read_text().splitlines()
        assert lines[0] == "#schema=1"
        assert lines[1] == "a,b"
        assert lines[2] == "1,2"

    def test_config_round_trip(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[campaign]\nname = warren-dyson\npaths = 4000\nseed = 11\n")
        cfg = CampaignConfig.from_file(str(p))
        assert cfg.name == "warren-dyson"
        assert cfg.paths == 4000
        assert cfg.seed == 11

    def test_config_without_a_name_runs_all(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[campaign]\nseed = 3\n")
        assert CampaignConfig.from_file(str(p)).name == "all"

    def test_missing_section_raises(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[other]\nname = x\n")
        with pytest.raises(ConfigError, match=r"missing \[campaign\] section"):
            read_config(str(p), "campaign")


class TestCampaigns:
    def test_budget_caps_enforced(self):
        with pytest.raises(CampaignError):
            CampaignConfig(name="warren-dyson", paths=2_000_000)
        with pytest.raises(CampaignError):
            CampaignConfig(name="warren-dyson", paths=0)

    def test_negative_seed_is_rejected_by_name(self):
        with pytest.raises(CampaignError, match="seed must be a non-negative integer, got -1"):
            CampaignConfig(name="warren-dyson", seed=-1)

    @pytest.mark.parametrize("text, named", [
        ("seed = -3", "seed must be a non-negative integer, got -3"),
        ("seed = x", "seed in .*: invalid literal for int.*'x'"),
        ("paths = many", "paths in .*: invalid literal for int.*'many'"),
    ], ids=["seed-negative", "seed-text", "paths-text"])
    def test_config_file_names_a_bad_setting(self, tmp_path, text, named):
        p = tmp_path / "c.cfg"
        p.write_text(f"[campaign]\nname = warren-dyson\n{text}\n")
        with pytest.raises(CampaignError, match=named):
            CampaignConfig.from_file(str(p))

    def test_every_setting_is_a_check_parameter_and_back(self):
        # a check takes only campaign settings, and every setting is taken
        # by some check: its tolerance, step size and node counts are fixed
        from interlace_lab.harness.campaign import SETTINGS

        taken = set()
        for name, check in ALL_CHECKS.items():
            params = set(inspect.signature(check).parameters)
            assert params <= set(SETTINGS), (name, params - set(SETTINGS))
            taken |= params
        assert taken == set(SETTINGS) == {"paths", "seed", "perturb"}
        assert [f.name for f in dataclasses.fields(CampaignConfig)] == \
            ["name", "paths", "seed", "out", "perturb"]

    def test_unknown_campaign(self):
        with pytest.raises(CampaignError):
            run_campaign(CampaignConfig(name="no-such-campaign"))

    def test_setting_the_check_does_not_take_is_rejected(self):
        # chapman-bm draws nothing at random: a seed would do nothing
        with pytest.raises(CampaignError, match="takes seed"):
            run_campaign(CampaignConfig(name="chapman-bm", seed=3))

    def test_unknown_config_file_key_is_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[campaign]\nname = chapman-bm\nnode = 40\n")
        with pytest.raises(CampaignError, match="node"):
            CampaignConfig.from_file(str(p))

    def test_all_passes_each_setting_to_the_checks_that_take_it(self):
        from interlace_lab.harness.campaign import _check_kwargs

        cfg = CampaignConfig(name="all", paths=5000, perturb="indicator")
        assert _check_kwargs("warren-dyson", cfg) == {"paths": 5000}
        assert _check_kwargs("master-intertwinings", cfg) == {"perturb": "indicator"}
        assert _check_kwargs("chapman-bm", cfg) == {}

    def test_fast_campaign_writes_outputs(self, tmp_path):
        cfg = CampaignConfig(name="boundary-table", out=str(tmp_path))
        res = run_campaign(cfg)
        assert res.passed
        assert (tmp_path / "boundary-table.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        head = (tmp_path / "boundary-table.csv").read_text().splitlines()[0]
        assert head == "#schema=1"

    def test_negative_control_fails_loudly(self):
        cfg = CampaignConfig(name="master-intertwinings", perturb="indicator")
        res = run_campaign(cfg)
        assert not res.passed

    def test_unknown_perturbation_is_rejected(self):
        # a misspelled negative control must not run as the unperturbed kernel
        cfg = CampaignConfig(name="master-intertwinings", perturb="indicatr")
        with pytest.raises(CampaignError, match="'indicatr'.*'indicator' or 'c_sign'"):
            run_campaign(cfg)


def test_eigen_structure_rate_rows_fail_at_a_shifted_catalog_rate(monkeypatch):
    # each ground-rate row holds the catalog rate against the spectrum and
    # the semigroup, so a rate 0.1 off fails both ways
    from interlace_lab import kmgroup as km
    from interlace_lab.harness.checks import EIGEN_TOL, check_eigen_structure

    result = check_eigen_structure()
    assert result.passed and {"spectrum", "residual"} <= set(result.fieldnames)
    catalog = km.eigenfunction_catalog
    monkeypatch.setattr(km, "eigenfunction_catalog",
                        lambda spec, n: dataclasses.replace(catalog(spec, n),
                                                            rate=catalog(spec, n).rate + 0.1))
    shifted = [r for r in check_eigen_structure().rows if r["case"].startswith("ground-rate-")]
    assert len(shifted) == 4
    for r in shifted:
        assert not r["pass"], r
        assert r["value"] != r["spectrum"] and r["residual"] > EIGEN_TOL, r


def test_edge_kernels_import_no_simulator():
    # the edge ladder and its boundary rule live in the catalog, so the
    # edge formulas need nothing from the reflected-SDE stepper
    import subprocess
    import sys

    code = ("import sys\n"
            "import interlace_lab.edgekernels\n"
            "print('interlace_lab.reflectsde' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, check=True)
    assert out.stdout.strip() == "False"


def test_kernels_and_ks_helpers_import_no_heavy_scipy_module():
    # scipy.stats, .integrate and .interpolate each cost about 0.3-0.9 s to
    # import; none is needed to build a jac spec, evaluate the BESQ CDF or
    # run a KS comparison against a density-grid CDF
    import subprocess
    import sys

    code = ("import sys\n"
            "import numpy as np\n"
            "from scipy.special import ndtr\n"
            "import interlace_lab\n"
            "from interlace_lab.diffusion1d import kernel, make_spec\n"
            "from interlace_lab.harness import cdf_from_density_grid, ks_statistic_cdf\n"
            "make_spec('jac:1,1')\n"
            "kernel(make_spec('besq:4')).cdf(0.3, np.array([0.0, 0.7]), 0.9)\n"
            "s = np.sort(np.random.default_rng(0).normal(size=1000))\n"
            "ks_statistic_cdf(s, ndtr(s))\n"
            "g = np.linspace(-5.0, 5.0, 41)\n"
            "cdf_from_density_grid(g, np.exp(-g * g / 2))(np.array([0.0, 1.0]))\n"
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate', 'scipy.interpolate')\n"
            "             if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, check=True)
    assert out.stdout.strip() == "[]"


def test_special_functions_loaded_on_first_use_give_the_eager_bits():
    # catalog and checks import scipy.special on their first special-function
    # call; the values are those of a process that imported it up front
    import subprocess
    import sys

    calls = ("import numpy as np\n"
             "from interlace_lab.diffusion1d import kernel, make_spec\n"
             "from interlace_lab.harness import checks\n"
             "z = np.linspace(0.0, 3.0, 13)\n"
             "assert ('scipy.special' in sys.modules) == EAGER\n"
             "vals = [kernel(make_spec('besq:3')).cdf(0.7, 1.2, z),\n"
             "        kernel(make_spec('bm')).cdf(0.7, 0.3, z - 1.5),\n"
             "        checks.bes3_cdf(z, 1.0, 0.8),\n"
             "        checks.dyson_marginal_cdf((-1.0, 1.0), 0.5, 0)(z - 1.5)]\n"
             "assert 'scipy.special' in sys.modules\n"
             "print(np.concatenate(vals).tobytes().hex())\n")
    out = {}
    for eager in (False, True):
        code = "import sys\n" + ("import scipy.special\n" if eager else "") + f"EAGER = {eager}\n" + calls
        out[eager] = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                    env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                                    check=True).stdout
    assert out[False] and out[False] == out[True]


def test_eigen_structure_imports_no_scipy_linalg():
    # the Laguerre and Jacobi norms are closed forms: no Golub-Welsch node
    # rule (scipy.special.roots_*), and so no scipy.linalg import, in A8
    import subprocess
    import sys

    code = ("import sys\n"
            "from interlace_lab.harness.checks import check_eigen_structure\n"
            "assert check_eigen_structure().passed\n"
            "print('scipy.linalg' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, check=True)
    assert out.stdout.strip() == "False"


def test_perfbench_finds_every_name_it_traces():
    # the benchmark reaches into the package by name (its set-ups, its
    # tracer's wrapped entry points, its gate's row keys); a name it needs
    # that is gone must fail here, not only in a traced benchmark run
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import gate, tracer, workloads\n"
            "for setup, _, _ in workloads.WORKLOADS.values():\n"
            "    setup()\n"
            "t = tracer.Tracer('t')\n"
            "tracer.install(t)\n"
            "from interlace_lab.harness import CampaignConfig, run_campaign\n"
            "rows = run_campaign(CampaignConfig(name='chapman-bm')).rows\n"
            "assert all(op.ok for op in gate.judge('chapman-bm', rows)), rows\n"
            "print(sorted({s.name for s in t.spans}))\n")
    path = os.pathsep.join([os.path.join(root, "perfbench")] + sys.path)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert "harness.check.chapman-bm" in out.stdout
    assert "twolevel.chapman_residual" in out.stdout
