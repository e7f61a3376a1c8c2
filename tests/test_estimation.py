import collections
import hashlib
import math
import statistics
import threading
import tracemalloc
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from gausstomo import (BlockFit, ContinuousSweep, Covariance2, DomainError,
                       GaussianStateSpec, SchemeKind, SeedSpec, crb_het,
                       crb_hom, delta_offset, estimate_heterodyne, estimate_homodyne_ml,
                       estimate_homodyne_ml_block, heterodyne_arrays, homodyne_arrays,
                       effective_covariance, hs_distance_sq, raw_words, to_ellipse,
                       wigner_covariance)
from gausstomo import estimation, experiments, sampling
from gausstomo.estimation import (_BLOCK_SAMPLES, _angle_keys, _ascent_directions,
                                  _evaluate, _moment_starts, estimate_heterodyne_moments)
from gausstomo.experiments import _run_trials
from gausstomo.sampling import UniformGrid, _homodyne_block, heterodyne_moments

SQRT2 = math.sqrt(2.0)
FIG5 = GaussianStateSpec(mu=2.0, lam=10.0, eta=0.5)
VACUUM = GaussianStateSpec(mu=1.0, lam=1.0)


class TestHsDistance:
    def test_identical_inputs(self):
        cov = Covariance2(1.0, 2.0, 0.3)
        assert hs_distance_sq(cov, cov) == 0.0

    def test_axis_swap(self):
        assert hs_distance_sq(Covariance2(1, 0, 0), Covariance2(0, 1, 0)) == 2.0

    def test_matches_matrix_trace_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a = Covariance2(*rng.uniform(-2, 2, size=3))
            b = Covariance2(*rng.uniform(-2, 2, size=3))
            diff = a.as_matrix() - b.as_matrix()
            assert hs_distance_sq(a, b) == pytest.approx(
                float(np.trace(diff @ diff)), abs=1e-14)


def rotated_covariance(cov: Covariance2, angle: float) -> Covariance2:
    """R cov R^T for the counter-clockwise rotation R by angle."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    m = rot @ cov.as_matrix() @ rot.T
    return Covariance2(m[0, 0], m[1, 1], SQRT2 * m[0, 1])


class TestToEllipse:
    def test_diagonal(self):
        ell = to_ellipse(Covariance2(0.1, 10.0, 0.0))
        assert ell.semi_axis_major == pytest.approx(math.sqrt(10), rel=1e-14)
        assert ell.semi_axis_minor == pytest.approx(math.sqrt(0.1), rel=1e-14)
        assert ell.orientation == pytest.approx(math.pi / 2, rel=1e-14)

    def test_isotropic_tie_break(self):
        ell = to_ellipse(Covariance2(0.7, 0.7, 0.0))
        assert ell.semi_axis_major == ell.semi_axis_minor == \
            pytest.approx(math.sqrt(0.7), rel=1e-15)
        assert ell.orientation == 0.0

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            g1, g2 = sorted(rng.uniform(0.2, 5.0, size=2))
            cov = Covariance2(float(g1), float(g2 + 0.1), 0.0)
            phi = float(rng.uniform(0, math.pi))
            base = to_ellipse(cov).orientation
            rotated = to_ellipse(rotated_covariance(cov, phi)).orientation
            gap = abs((rotated - (base + phi)) % math.pi)
            assert min(gap, math.pi - gap) < 1e-9

    def test_rejects_non_pd(self):
        with pytest.raises(DomainError) as err:
            to_ellipse(Covariance2(1.0, 1.0, 3.0))
        assert "eigenvalue" in str(err.value)

    def test_thin_ellipse_keeps_its_minor_axis(self):
        # half_tr - rad cancels to 0.0 on this fig5 fit (`fig5 --trials 1000
        # --threads 2`), whose det is positive; det / hi does not
        cov = Covariance2(1.0137607357035887, 10.553127538118634, 4.625655918249205)
        assert cov.det > 0.0
        ell = to_ellipse(cov)
        assert ell.semi_axis_minor > 0.0
        # the exact det of these floats, to the rounding of the float det
        exact = Fraction(cov.g1) * Fraction(cov.g2) - Fraction(cov.g3) ** 2 / 2
        assert ell.semi_axis_minor ** 2 * ell.semi_axis_major ** 2 == \
            pytest.approx(float(exact), rel=0.2)


class TestHeterodyneEstimator:
    def test_antipodal_pair_closed_form(self):
        # an antipodal pair spans one axis: its sample covariance diag(1, 0)
        # is singular, where the likelihood is unbounded, and is rejected
        with pytest.raises(DomainError, match="positive determinant"):
            estimate_heterodyne(np.array([[1.0, 0.0], [-1.0, 0.0]]), eta=1.0)
        # a pair mirrored in the p axis has sample covariance diag(1, 0.25);
        # offset subtraction may leave an unphysical estimate at tiny n,
        # reported as-is
        data = np.array([[1.0, 0.5], [-1.0, 0.5]])
        result = estimate_heterodyne(data, eta=1.0)
        assert result.g_effective == Covariance2(1.0, 0.25, 0.0)
        assert result.g_wigner.g1 == pytest.approx(0.5)
        assert result.g_wigner.g2 == pytest.approx(-0.25)
        assert result.converged
        assert not result.physical

    def test_consistency_at_large_n(self):
        x, p = heterodyne_arrays(VACUUM, 100_000, SeedSpec(41))
        result = estimate_heterodyne(np.column_stack([x, p]), eta=1.0)
        truth = wigner_covariance(VACUUM)
        n = x.size
        assert abs(result.g_wigner.g1 - truth.g1) < 3 * math.sqrt(2 / n)
        assert abs(result.g_wigner.g2 - truth.g2) < 3 * math.sqrt(2 / n)
        assert abs(result.g_wigner.g3) < 3 * math.sqrt(2 / n)

    def test_exactly_unbiased_at_small_n(self):
        spec = FIG5
        truth = wigner_covariance(spec)
        trials, n = 3000, 25
        acc = np.zeros(3)
        for t in range(trials):
            x, p = heterodyne_arrays(spec, n, SeedSpec(42, t))
            r = estimate_heterodyne(np.column_stack([x, p]), eta=spec.eta)
            acc += (r.g_wigner.g1, r.g_wigner.g2, r.g_wigner.g3)
        acc /= trials
        # SE of the mean per component, from the per-trial variance scale
        for value, target, scale in zip(acc, (truth.g1, truth.g2, truth.g3),
                                        (1.6, 11.5, math.sqrt(1.6 * 11.5))):
            se = scale * math.sqrt(2.0 / n) / math.sqrt(trials)
            assert abs(value - target) < 4 * se

    def test_scaled_mse_equals_bound_for_every_n(self):
        # with the divide-by-n zero-mean estimator, n * E[HS^2] equals the
        # heterodyne bound identically, not only asymptotically
        spec = GaussianStateSpec(1.0, 2.0, eta=0.8)
        truth = wigner_covariance(spec)
        bound = crb_het(spec)
        trials, n = 4000, 40
        hs = np.zeros(trials)
        for t in range(trials):
            x, p = heterodyne_arrays(spec, n, SeedSpec(43, t))
            r = estimate_heterodyne(np.column_stack([x, p]), eta=spec.eta)
            hs[t] = hs_distance_sq(r.g_wigner, truth)
        mean = n * hs.mean()
        se = n * hs.std() / math.sqrt(trials)
        assert abs(mean - bound) < 3 * se
        assert se / bound < 0.05

    def test_rejects_tiny_or_malformed_input(self):
        with pytest.raises(DomainError, match="at least 2 samples"):
            estimate_heterodyne(np.array([[1.0, 0.0]]), eta=1.0)
        with pytest.raises(DomainError):
            estimate_heterodyne(np.zeros((5, 3)), eta=1.0)
        with pytest.raises(DomainError):
            estimate_heterodyne(np.zeros(10), eta=1.0)
        with pytest.raises(DomainError, match=r"eta = 0\.0 must lie in"):
            estimate_heterodyne(np.zeros((5, 2)), eta=0.0)

    @pytest.mark.parametrize("data", [np.zeros((2, 2)), [[5e-324, 0.0], [0.0, 5e-324]],
                                      [[1.0, 2.0], [-2.0, -4.0], [0.5, 1.0]]])
    def test_rejects_a_singular_moment_matrix(self, data):
        # zeros, squares that underflow, and collinear pairs: the likelihood
        # grows without bound as the covariance shrinks onto their span
        with pytest.raises(DomainError, match="positive determinant"):
            estimate_heterodyne(np.asarray(data), eta=0.5)


class TestHeterodyneBlock:
    @pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 1000])
    def test_rows_equal_single_estimates(self, n):
        # the runners' block estimate from the drawn moments of each trial
        xs, ps = zip(*(heterodyne_arrays(FIG5, n, SeedSpec(51, t)) for t in range(5)))
        moments = [np.array([float(np.mean(a * b)) for a, b in zip(u, w)])
                   for u, w in ((xs, xs), (ps, ps), (xs, ps))]
        block = estimate_heterodyne_moments(*moments, n, FIG5.eta)
        assert block.g_effective.shape == (5, 3)
        singles = [estimate_heterodyne(np.column_stack([x, p]), FIG5.eta)
                   for x, p in zip(xs, ps)]
        assert rows_bits(block) == [result_bits(r) for r in singles]
        delta = delta_offset(FIG5.eta, SchemeKind.HETERODYNE)
        for x, p, r in zip(xs, ps, singles):
            # and the summation order of the moments before the block form
            g = r.g_effective
            assert [g.g1, g.g2, g.g3] == [float(np.mean(x * x)), float(np.mean(p * p)),
                                          SQRT2 * float(np.mean(x * p))]
            # and the offset and log-likelihood on Python floats
            assert r.g_wigner == Covariance2(g.g1 - delta, g.g2 - delta, g.g3)
            assert r.loglik == -n - 0.5 * n * math.log(g.det) - n * math.log(2 * math.pi)

    def test_empty_block(self):
        assert_empty(estimate_heterodyne_moments(*np.zeros((3, 0)), 10, 1.0))


def masked_mean_start(v, x2, theta):
    """One row's moment-matched g: the bin means of v and x^2 over masks
    of the angles, solved with np.linalg.solve; None where _moment_starts
    falls back to (m, m, 0)."""
    edge = math.pi / 3
    masks = [(theta >= 0) & (theta < edge), (theta >= edge) & (theta < 2 * edge),
             theta >= 2 * edge]
    if not all(mask.any() for mask in masks):
        return None
    vbar = np.array([v[:, mask].mean(axis=1) for mask in masks])
    mbar = np.array([x2[mask].mean() for mask in masks])
    try:
        g = np.linalg.solve(vbar, mbar)
    except np.linalg.LinAlgError:
        return None
    return g if g[0] > 0 and g[1] > 0 and g[0] * g[1] - 0.5 * g[2] ** 2 > 0 else None


def moment_starts(v, x2, theta):
    """_moment_starts on the angles' bins and the rows' means of x^2."""
    return _moment_starts(v, x2, _angle_keys(theta), x2.mean(axis=1))


def covariance_of_params(p) -> list:
    """g of Cholesky parameters (ln a, b, ln c)."""
    a, b, c = math.exp(p[0]), p[1], math.exp(p[2])
    return [a * a, b * b + c * c, SQRT2 * a * b]


def bin_vectors(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([c * c, s * s, SQRT2 * s * c], axis=-2)


class TestMomentStarts:
    def check_against_masked_means(self, theta, x):
        v, x2 = bin_vectors(theta), x * x
        got = moment_starts(v, x2, theta)
        assert got.shape == (len(x), 3)
        fallback = np.log(np.sqrt(x2.mean(axis=1)))
        kinds = set()
        for t, row in enumerate(got):
            want = masked_mean_start(v[t], x2[t], theta[t])
            kinds.add(want is None)
            if want is None:
                assert row.tolist() == [fallback[t], 0.0, fallback[t]]
            else:
                assert covariance_of_params(row) == pytest.approx(want, rel=1e-12)
        return kinds

    @pytest.mark.parametrize("n", [3, 4, 9, 50, 129, 1000])
    def test_matches_masked_mean_solve(self, n):
        rng = np.random.default_rng(60 + n)
        trials = 12
        # angles below 0 fall in no bin
        theta = rng.uniform(-0.4, math.pi, (trials, n))
        theta[1] = rng.uniform(0.0, 2 * math.pi / 3, n)  # the last bin empty
        theta[2] = rng.uniform(math.pi / 3, 2 * math.pi / 3, n)  # one bin only
        theta[3, : (n + 1) // 2] = -1.0
        x = rng.standard_normal((trials, n)) * rng.uniform(0.1, 3.0, (trials, 1))
        kinds = self.check_against_masked_means(theta, x)
        assert True in kinds and (n < 9 or False in kinds)

    def test_angle_keys(self):
        # an angle beyond the int64 range, or inf, still lands in the last bin
        theta = np.array([0.1, 1.2, 2.5, 1e19, math.inf, math.nan])
        assert _angle_keys(theta).tolist() == [1, 2, 3, 3, 3, 0]

    def test_matches_masked_mean_solve_on_a_fig5_lane(self):
        assert False in self.check_against_masked_means(*fig5_lane(0, 0, 50))

    def test_singular_bin_means_fall_back(self):
        # v has period pi, and for some angles the twin pi later gives the
        # same v bit for bit; with the twins in bins 1 and 3 and equal
        # counts, two rows of that trial's bin means are equal
        def has_twin(t):
            v = bin_vectors(np.array([t, t + math.pi]))
            return (v[:, 0] == v[:, 1]).all()

        twin = next(t for t in 0.1 + 1e-3 * np.arange(1000) if has_twin(t))
        rng = np.random.default_rng(61)
        theta = rng.uniform(0.0, math.pi, (3, 48))
        theta[1] = np.tile([twin, 1.2, twin + math.pi], 16)
        x = rng.standard_normal((3, 48))
        v, x2 = bin_vectors(theta), x * x
        keys = _angle_keys(theta[1])
        vbar = np.array([v[1][:, keys == k].mean(axis=1) for k in (1, 2, 3)])
        assert np.linalg.det(vbar) == 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(vbar, np.ones(3))
        # row 1 falls back, rows 0 and 2 solve
        assert [masked_mean_start(*arrays) is None for arrays in zip(v, x2, theta)] \
            == [False, True, False]
        assert self.check_against_masked_means(theta, x) == {False, True}
        got = moment_starts(v, x2, theta)
        for t in (0, 2):
            assert got[t].tolist() == moment_starts(v[t:t + 1], x2[t:t + 1],
                                                    theta[t:t + 1])[0].tolist()
        block = estimate_homodyne_ml_block(theta, x, 1.0)
        singles = [estimate_homodyne_ml((t, xs), 1.0) for t, xs in zip(theta, x)]
        assert rows_bits(block) == [result_bits(r) for r in singles]


class TestHomodyneMl:
    def test_three_angle_moment_match(self):
        # with data at exactly three angles the ML solves the moment equations
        rng = np.random.default_rng(44)
        angles = np.array([0.0, math.pi / 4, math.pi / 2])
        g_true = np.array([0.9, 1.4, 0.5])
        theta = np.repeat(angles, 400)
        c, s = np.cos(theta), np.sin(theta)
        cvar = g_true[0] * c * c + g_true[1] * s * s + SQRT2 * g_true[2] * s * c
        x = np.sqrt(cvar) * rng.standard_normal(theta.size)
        result = estimate_homodyne_ml((theta, x), eta=1.0)
        assert result.converged
        # brute-force moment inversion on the same data
        m = [np.mean(x[theta == a] ** 2) for a in angles]
        g1 = m[0]
        g2 = m[2]
        g3 = SQRT2 * (m[1] - 0.5 * (g1 + g2))
        eff = result.g_effective
        assert eff.g1 == pytest.approx(g1, rel=1e-6)
        assert eff.g2 == pytest.approx(g2, rel=1e-6)
        assert eff.g3 == pytest.approx(g3, rel=1e-5, abs=1e-7)

    def test_consistency_on_vacuum(self):
        thetas, x = homodyne_arrays(VACUUM, 100_000, seed=SeedSpec(45))
        result = estimate_homodyne_ml((thetas, x), eta=1.0)
        assert result.converged
        truth = wigner_covariance(VACUUM)
        tol = 3 * math.sqrt(8.0 / x.size)  # loose per-component large-n scale
        assert abs(result.g_wigner.g1 - truth.g1) < tol
        assert abs(result.g_wigner.g2 - truth.g2) < tol
        assert abs(result.g_wigner.g3) < tol

    def test_gradient_norm_at_optimum(self):
        thetas, x = homodyne_arrays(FIG5, 20_000, seed=SeedSpec(46))
        result = estimate_homodyne_ml((thetas, x), eta=FIG5.eta)
        assert result.converged
        g = np.array([result.g_effective.g1, result.g_effective.g2,
                      result.g_effective.g3])
        c, s = np.cos(thetas), np.sin(thetas)
        v = np.stack([c * c, s * s, SQRT2 * s * c])
        cvar = g @ v
        grad = 0.5 * (v * (x * x / cvar ** 2 - 1 / cvar)).sum(axis=1)
        assert np.linalg.norm(grad) * (g[0] + g[1]) / x.size <= 1e-8

    def test_effective_estimate_is_positive_definite(self):
        # unless the fit ends on the boundary det = 0, as trial 15 does
        statuses = []
        for t in range(20):
            thetas, x = homodyne_arrays(FIG5, 60, seed=SeedSpec(47, t))
            result = estimate_homodyne_ml((thetas, x), eta=FIG5.eta)
            statuses.append(result.status)
            g = result.g_effective
            if result.status == "boundary":
                assert abs(g.det) <= 1e-12 * g.g1 * g.g2
            else:
                assert g.is_positive_definite()
        assert [t for t, status in enumerate(statuses) if status == "boundary"] == [15]

    def test_scaled_mse_attains_bound(self):
        spec = VACUUM
        truth = wigner_covariance(spec)
        bound = crb_hom(spec)
        trials, n = 300, 4000
        hs = np.zeros(trials)
        for t in range(trials):
            thetas, x = homodyne_arrays(spec, n, seed=SeedSpec(48, t))
            r = estimate_homodyne_ml((thetas, x), eta=spec.eta)
            hs[t] = hs_distance_sq(r.g_wigner, truth)
        mean = n * hs.mean()
        se = n * hs.std() / math.sqrt(trials)
        assert abs(mean - bound) < max(3 * se, 0.08 * bound)

    def test_accepts_sample_objects(self):
        samples = (np.array([0.0, 1.0, 2.0, 0.5]), np.array([0.7, -0.2, 0.4, 0.1]))
        result = estimate_homodyne_ml(samples, eta=1.0)
        assert result.scheme is SchemeKind.HOMODYNE

    def test_rejects_unidentifiable_angle_sets(self):
        rng = np.random.default_rng(49)
        x = rng.standard_normal(100)
        with pytest.raises(DomainError):
            estimate_homodyne_ml((np.zeros(100), x), eta=1.0)
        two = np.where(np.arange(100) % 2 == 0, 0.0, math.pi / 2)
        with pytest.raises(DomainError):
            estimate_homodyne_ml((two, x), eta=1.0)
        with pytest.raises(DomainError):
            estimate_homodyne_ml(([], []), eta=1.0)

    def test_rejects_bad_eta_with_or_without_malformed_data(self):
        # the block checks eta; malformed data is rejected before it
        theta, x = homodyne_arrays(VACUUM, 20, seed=SeedSpec(48))
        with pytest.raises(DomainError, match=r"eta = 1\.5 must lie in"):
            estimate_homodyne_ml((theta, x), eta=1.5)
        with pytest.raises(DomainError, match="matching 1-d"):
            estimate_homodyne_ml((theta, x[:-1]), eta=1.5)

    def test_loglik_is_the_actual_log_density(self):
        thetas, x = homodyne_arrays(VACUUM, 500, seed=SeedSpec(50))
        result = estimate_homodyne_ml((thetas, x), eta=1.0)
        g = result.g_effective
        c, s = np.cos(thetas), np.sin(thetas)
        cvar = g.g1 * c * c + g.g2 * s * s + SQRT2 * g.g3 * s * c
        ref = float(np.sum(-0.5 * (x * x / cvar + np.log(cvar))
                           - 0.5 * math.log(2 * math.pi)))
        assert result.loglik == pytest.approx(ref, rel=1e-12)


def fig5_lane(master_seed: int, lane: int, n: int, trials: int = 20):
    """The homodyne records of one lane of `gausstomo fig5`, as (trials, n) arrays."""
    records = [homodyne_arrays(FIG5, n, ContinuousSweep(),
                               SeedSpec(master_seed, 0).stream(1 + lane * trials + t))
               for t in range(trials)]
    return np.stack([r[0] for r in records]), np.stack([r[1] for r in records])


def result_bits(r) -> tuple:
    """The fit of an EstimationResult, floats as their exact hex form."""
    floats = (r.g_wigner.g1, r.g_wigner.g2, r.g_wigner.g3,
              r.g_effective.g1, r.g_effective.g2, r.g_effective.g3, r.loglik)
    return tuple(float(x).hex() for x in floats) + (r.iterations, r.converged)


def rows_bits(fit: BlockFit) -> list[tuple]:
    """result_bits of each row of a block fit."""
    rows = zip(fit.g_wigner.tolist(), fit.g_effective.tolist(), fit.loglik.tolist(),
               fit.iterations.tolist(), fit.converged.tolist())
    return [tuple(float(x).hex() for x in (*w, *e, f)) + (its, conv)
            for w, e, f, its, conv in rows]


def assert_empty(fit: BlockFit):
    assert fit.g_effective.shape == fit.g_wigner.shape == (0, 3)
    rows = (fit.loglik, fit.iterations, fit.converged, fit.status)
    assert [a.dtype for a in rows] == [np.float64, np.int_, np.bool_, np.dtype("<U9")]
    assert all(a.shape == (0,) for a in rows)


class TestHomodyneMlBlock:
    @pytest.mark.parametrize("master_seed", [0, 1])
    @pytest.mark.parametrize("lane, n", [(0, 50), (1, 100), (2, 150)])
    def test_rows_equal_single_fits(self, monkeypatch, master_seed, lane, n):
        thetas, xs = fig5_lane(master_seed, lane, n)
        limit = estimation._MAX_ITERATIONS
        # with the rounding floor, and without it, as before the floor was
        # added: then each block holds a fit that stalls on a flat likelihood
        for floor in (estimation._ROUNDING_FLOOR, 0.0):
            monkeypatch.setattr(estimation, "_ROUNDING_FLOOR", floor)
            block = estimate_homodyne_ml_block(thetas, xs, FIG5.eta)
            singles = [estimate_homodyne_ml((t, x), FIG5.eta) for t, x in zip(thetas, xs)]
            assert rows_bits(block) == [result_bits(r) for r in singles]
            stalled = block.status == "stalled"
            assert stalled.any() == (floor == 0.0)
            assert (block.iterations[stalled] < limit).all()
            if (master_seed, n) == (1, 50):
                # trial 15 crawled to the iteration limit on unit steepest-ascent
                # steps before the saddle-free fallback; it ends on the boundary
                assert block.status[15] == "boundary" and block.iterations[15] < limit

    def test_options_reach_every_row(self, monkeypatch):
        # the fit reads its limits at call time, in the block and in a
        # single fit alike
        thetas, xs = fig5_lane(1, 0, 50, trials=8)
        default = rows_bits(estimate_homodyne_ml_block(thetas, xs, FIG5.eta))
        for limit, value in (("_MAX_ITERATIONS", 0), ("_MAX_ITERATIONS", 3),
                             ("_MAX_HALVINGS", 1), ("_GRADIENT_TOL", 1e-3)):
            with monkeypatch.context() as patch:
                patch.setattr(estimation, limit, value)
                block = estimate_homodyne_ml_block(thetas, xs, FIG5.eta)
                singles = [estimate_homodyne_ml((t, x), FIG5.eta) for t, x in zip(thetas, xs)]
            assert rows_bits(block) == [result_bits(r) for r in singles]
            assert rows_bits(block) != default, limit
            if value == 0:
                assert not block.iterations.any()

    def test_empty_block(self):
        assert_empty(estimate_homodyne_ml_block(np.zeros((0, 10)), np.zeros((0, 10)), 1.0))

    def test_trig_from_the_draw_changes_no_bit(self):
        # the Monte Carlo runner hands the draw's cosines and sines on to the fit
        thetas, xs, c, s = _homodyne_block(FIG5, 50, ContinuousSweep(), SeedSpec(53), 6)
        delta, inputs = estimation._fit_inputs(FIG5.eta, [thetas, xs, c, s])
        given = estimation._block_fit(delta, *estimation._fit_block(*inputs))
        assert rows_bits(given) == rows_bits(estimate_homodyne_ml_block(thetas, xs, FIG5.eta))

    def test_inputs_are_not_written(self):
        arrays = _homodyne_block(FIG5, 50, ContinuousSweep(), SeedSpec(53), 6)
        before = [a.tobytes() for a in arrays]
        for a in arrays:
            a.flags.writeable = False  # a write raises
        thetas, xs, c, s = arrays
        estimate_homodyne_ml_block(thetas, xs, FIG5.eta)
        estimation._fit_block(*estimation._fit_inputs(FIG5.eta, [thetas, xs, c, s])[1])
        assert [a.tobytes() for a in arrays] == before

    def test_stalled_rows_leave_out_of_trial_order(self, monkeypatch):
        # a row that leaves is overwritten by a later live row, which fits on
        # from that place; every row still equals its own fit.  In this block
        # trial 17 ends on the boundary at pass 13, while other rows iterate
        thetas, xs = fig5_lane(33, 0, 50)
        refilled = []
        drop = estimation._drop_rows

        def recording(leaving, arrays):
            # arrays[0] holds the trial of each live row
            rows = len(leaving) - np.count_nonzero(leaving)
            refilled.extend(arrays[0][:rows][leaving[:rows]].tolist())
            return drop(leaving, arrays)

        monkeypatch.setattr(estimation, "_drop_rows", recording)
        block = estimate_homodyne_ml_block(thetas, xs, FIG5.eta)
        stalled = ~block.converged & (block.iterations < estimation._MAX_ITERATIONS)
        assert set(np.flatnonzero(stalled).tolist()) & set(refilled)
        assert rows_bits(block) == [result_bits(estimate_homodyne_ml((t, x), FIG5.eta))
                                    for t, x in zip(thetas, xs)]

    def test_rejects_malformed_blocks(self):
        thetas, xs = fig5_lane(0, 0, 50, trials=3)
        with pytest.raises(DomainError):
            estimate_homodyne_ml_block(thetas[0], xs[0], FIG5.eta)
        with pytest.raises(DomainError):
            estimate_homodyne_ml_block(thetas, xs[:2], FIG5.eta)
        with pytest.raises(DomainError):
            estimate_homodyne_ml_block(thetas[:, :2], xs[:, :2], FIG5.eta)
        with pytest.raises(DomainError):
            estimate_homodyne_ml_block(thetas, xs, 0.0)
        thetas = thetas.copy()
        thetas[1] = np.where(np.arange(50) % 2 == 0, 0.0, 1.0)
        with pytest.raises(DomainError, match="3 distinct angles"):
            estimate_homodyne_ml_block(thetas, xs, FIG5.eta)
        # NaN angles count once, as np.unique counts them
        thetas[1, :3] = [np.nan, np.nan, 2.0]
        with pytest.raises(DomainError, match="3 distinct angles"):
            estimate_homodyne_ml_block(thetas[1:2, :3], xs[1:2, :3], FIG5.eta)

    def test_row_with_a_nan_hessian_takes_steepest_ascent(self):
        thetas, xs = fig5_lane(0, 0, 50, trials=3)
        v, x2 = bin_vectors(thetas), xs * xs
        p = moment_starts(v, x2, thetas)
        _, f, cvar, scales = _evaluate(p, v, x2)
        grad_g, _ = estimation._derivatives(v, x2, cvar.copy())
        cvar[1, 7] = math.nan  # reaches row 1's Hessian, not its gradient
        _, hess_g = estimation._derivatives(v, x2, cvar)
        steps, curved, flat = _ascent_directions(p, scales, grad_g, hess_g, f)
        alone = [_ascent_directions(*(a[t:t + 1] for a in (p, scales, grad_g, hess_g, f)))[0][0]
                 for t in range(3)]
        assert steps.tolist() == [step.tolist() for step in alone]
        assert not curved[1] and not flat[1]
        assert np.linalg.norm(steps[1]) == pytest.approx(1.0, rel=1e-15)
        assert np.isfinite(steps).all()

    def test_far_off_step_is_rejected_quietly(self):
        # a trial step of this size overflows a * a to inf
        thetas, xs = fig5_lane(0, 0, 50, trials=1)
        c, s = np.cos(thetas), np.sin(thetas)
        v = np.stack([c * c, s * s, SQRT2 * s * c], axis=1)
        far = np.array([[416.7, -763.0, -131.6]])
        with np.errstate(all="ignore"):
            g, f, _, _ = _evaluate(far, v, xs * xs)
        assert g[0, 0] == math.inf
        assert not f[0] > -1e300
        # the fit runs in its own floating-point state: started there, the
        # row stalls at once, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g_out, f_out, iterations, status = estimation._fit_block(v, xs * xs, far)
        assert g_out.tobytes() == g.tobytes()
        assert iterations.tolist() == [1] and status.tolist() == ["stalled"]
        assert not f_out[0] > -1e300

    def test_overflowing_exp_is_inf(self):
        with np.errstate(all="ignore"):
            g, f, _, _ = _evaluate(np.array([[800.0, 0.0, 0.0]]), np.ones((1, 3, 3)),
                                   np.ones((1, 3)))
        assert g[0, 0] == math.inf
        assert not f[0] > -1e300

    def test_step_that_overflows_exp_is_rejected(self):
        # a full Newton step on this N = 3 record leaves exp's range; the
        # fit goes on to the boundary det = 0, which holds its optimum
        spec = GaussianStateSpec(mu=20.0, lam=100.0, phi=0.7, eta=0.3)
        thetas, xs = homodyne_arrays(spec, 3, ContinuousSweep(), SeedSpec(1, 148))
        result = estimate_homodyne_ml((thetas, xs), spec.eta)
        assert math.isfinite(result.loglik)
        assert result.status == "boundary"
        block = estimate_homodyne_ml_block(np.stack([thetas] * 2), np.stack([xs] * 2),
                                           spec.eta)
        assert rows_bits(block) == [result_bits(result)] * 2


CRB = GaussianStateSpec(mu=2.0, lam=10.0, eta=0.5)


def crb_block(master_seed: int, first: int, n: int = 10_000, trials: int = 3):
    """The homodyne records of trials [first, first + trials) of a one-lane,
    60-trial `gausstomo crb-attainment` at the benchmark state."""
    return _homodyne_block(CRB, n, ContinuousSweep(), SeedSpec(master_seed, 1 + first),
                           trials)[:2]


def lane_streams(seed: SeedSpec, lane: int, trials: int) -> list[SeedSpec]:
    """The seed stream of each trial of a Monte Carlo lane."""
    return [seed.stream(1 + lane * trials + t) for t in range(trials)]


def unpruned_line_search(p, step, f, v, x2, newton=None):
    """_line_search as it was before a no-op halving ended a row's search:
    every row that no step has beaten f for tries all _MAX_HALVINGS, and
    every pass first evaluates all full steps, whatever newton marks."""
    max_halvings = estimation._MAX_HALVINGS
    cand = p + step
    accepted = (cand, *estimation._evaluate(cand, v, x2))
    found = accepted[2] > f
    n = x2.shape[1]
    k, budget = 1, _BLOCK_SAMPLES // 8
    while k < max_halvings and np.count_nonzero(found) < len(found):
        open_ = np.flatnonzero(~found)
        w = max(1, min(max_halvings - k, budget // (open_.size * n)))
        t = np.ldexp(1.0, -np.arange(k, k + w))
        cand = p[open_, None, :] + t[:, None] * step[open_, None, :]
        rows = slice(open_[0], open_[-1] + 1) \
            if open_[-1] - open_[0] + 1 == open_.size else open_
        values = (cand, *estimation._evaluate(cand, v[rows, None], x2[rows, None]))
        wins = values[2] > f[open_, None]
        hit = np.flatnonzero(wins.any(axis=1))
        if hit.size:
            first = wins[hit].argmax(axis=1)
            won = open_[hit]
            for target, value in zip(accepted, values):
                target[won] = value[hit, first]
            found[won] = True
        k += w
        budget = min(2 * budget, _BLOCK_SAMPLES)
    return found, accepted


class TestBlockMemory:
    def test_monte_carlo_block_holds_about_ten_float64_per_sample(self):
        # a homodyne job keeps no reference to its draw once v (3 per
        # sample), x^2 and the starts exist, and the Newton loop forms its
        # per-sample terms in one or two scratch rows; a (3, 10^4) `crb`
        # block peaked at 16-19 float64 per sample when it did not
        n, trials = 10_000, 3
        # allocates this thread's draw buffer, which outlives every block
        _run_trials(CRB, SchemeKind.HOMODYNE, n, SeedSpec(5), 0, trials, 1)
        peaks = []
        for master in (11, 12, 13, 14):
            tracemalloc.start()
            try:
                _run_trials(CRB, SchemeKind.HOMODYNE, n, SeedSpec(master), 0, trials, 1)
                peaks.append(tracemalloc.get_traced_memory()[1] / (8 * n * trials))
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 12, peaks

    def test_monte_carlo_job_fits_in_its_threads_draw_buffer(self, monkeypatch):
        # each job's peak, the thread's draw buffer included: the draw forms
        # its variances in two arrays, the set-up frees each array of the
        # draw once it is used and writes v into the buffer, and the Newton
        # loop frees the last pass's variances before a line search, whose
        # halving rounds evaluate large rows on views
        import numpy.random  # noqa: F401 -- imported before tracing starts
        import scipy.special  # noqa: F401

        n, trials = 10_000, 60
        bases, peaks = [], []
        draw, block_fit = experiments._homodyne_block, experiments._block_fit

        def buffer_bytes():
            buffer = getattr(sampling._THREAD, "buffer", None)
            return 0 if buffer is None else buffer.nbytes

        def starting(*args):
            # the buffer counts in every job's peak, made in it or not
            bases.append(tracemalloc.get_traced_memory()[0] - buffer_bytes())
            tracemalloc.reset_peak()
            return draw(*args)

        def ending(*args):
            peaks.append((tracemalloc.get_traced_memory()[1] - bases[-1]) / (8 * 3 * n))
            return block_fit(*args)

        def lanes():
            for master in (1, 7):
                _run_trials(CRB, SchemeKind.HOMODYNE, n, SeedSpec(master), 0, trials, 1)

        monkeypatch.setattr(experiments, "_homodyne_block", starting)
        monkeypatch.setattr(experiments, "_block_fit", ending)
        # a new thread draws first under tracing, so its buffer is traced
        worker = threading.Thread(target=lanes)
        tracemalloc.start()
        try:
            worker.start()
            worker.join(timeout=300)
        finally:
            tracemalloc.stop()
        assert not worker.is_alive() and len(peaks) == 40
        assert statistics.median(peaks) <= 9 and max(peaks) <= 10, peaks

    def test_no_public_array_shares_the_thread_buffer(self, monkeypatch):
        # Monte Carlo fits write v into this thread's draw buffer; what the
        # public samplers returned, and what a block fit was given, stays
        # as it was
        fitted = []
        fit_block = experiments._fit_block

        def recording(v, x2, p):
            fitted.append(np.shares_memory(v, sampling._THREAD.buffer))
            return fit_block(v, x2, p)

        monkeypatch.setattr(experiments, "_fit_block", recording)
        seeds = [SeedSpec(21, t) for t in range(3)]
        kept = [*homodyne_arrays(CRB, 10_000, seed=seeds[0]),
                *homodyne_arrays(CRB, 3_000, UniformGrid(7), seeds[1]),
                *heterodyne_arrays(CRB, 10_000, seeds[2])]
        thetas, xs = map(np.stack, zip(*(homodyne_arrays(CRB, 50, seed=s) for s in seeds)))
        kept += [thetas, xs]
        before = [a.tobytes() for a in kept]
        estimate_homodyne_ml_block(thetas, xs, CRB.eta)
        for n in (50, 10_000):
            _run_trials(CRB, SchemeKind.HOMODYNE, n, SeedSpec(22), 0, 6, 1)
        assert fitted and all(fitted)
        assert [a.tobytes() for a in kept] == before
        assert not any(np.shares_memory(a, sampling._THREAD.buffer) for a in kept)


def searching_rows(n: int):
    """A line search on rows 0 and 2 of a (3, n) block: row 1's full step
    beats its f, and no step beats rows 0 and 2, which halve until a
    halving leaves their parameters unchanged."""
    thetas, xs = crb_block(11, 0, n)
    v, x2 = bin_vectors(thetas), xs * xs
    p = moment_starts(v, x2, thetas)
    step = np.random.default_rng(63).normal(0.0, 0.1, p.shape)
    return p, step, np.array([math.inf, -math.inf, math.inf]), v, x2


class TestLineSearch:
    @pytest.mark.parametrize("n, calls", [(10_000, 2), (50, 1)])
    def test_halving_rounds_copy_only_small_rows(self, monkeypatch, n, calls):
        # rows 0 and 2 of a large block are evaluated on views of v, one
        # call each per round; a small block's are one call on a copy
        p, step, f, v, x2 = searching_rows(n)
        stacks = []

        def recording(cand, v_rows, x2_rows):
            stacks.append((cand.shape[0], np.shares_memory(v_rows, v),
                           np.shares_memory(x2_rows, x2)))
            return _evaluate(cand, v_rows, x2_rows)

        monkeypatch.setattr(estimation, "_evaluate", recording)
        # a pass with a Newton row evaluates every full step first
        found, _ = estimation._line_search(p, step, f, v, x2, np.array([True, False, False]))
        assert found.tolist() == [False, True, False]
        full, *rounds = stacks
        assert full == (3, True, True) and len(rounds) > 1
        if calls == 2:
            assert set(rounds) == {(1, True, True)}
        else:
            assert set(rounds) == {(2, False, False)}

    @pytest.mark.parametrize("n", [10_000, 50])
    def test_halving_rounds_on_views_change_no_bit(self, monkeypatch, n):
        p, step, f, v, x2 = searching_rows(n)
        f[0] = _evaluate(p, v, x2)[1][0]  # row 0 finds a halving
        newton = np.ones(3, dtype=bool)
        want = estimation._line_search(p, step, f, v, x2, newton)
        monkeypatch.setattr(estimation, "_stacks", lambda open_, n: [(open_, slice(None))])
        got = estimation._line_search(p, step, f, v, x2, newton)
        assert got[0].tolist() == want[0].tolist() == [True, True, False]
        assert [a[got[0]].tobytes() for a in got[1]] == [a[want[0]].tobytes() for a in want[1]]

    def test_evaluation_is_the_same_in_every_layout(self):
        # the halving stop rests on this: a candidate equal to p evaluates
        # to p's own (g, f, cvar), whichever stack either was evaluated in
        thetas, xs = crb_block(11, 0)
        v, x2 = bin_vectors(thetas), xs * xs
        rng = np.random.default_rng(62)
        # eight parameter rows about each trial's start
        p = moment_starts(v, x2, thetas)[:, None, :] + rng.normal(0.0, 0.05, (3, 8, 3))

        def bits(values, *index):
            return [a[index].tobytes() for a in values[:3]]

        alone = [[bits(_evaluate(p[r:r + 1, j], v[r:r + 1], x2[r:r + 1]), 0)
                  for j in range(8)] for r in range(3)]
        for j in range(8):
            stack = _evaluate(np.ascontiguousarray(p[:, j]), v, x2)
            assert [bits(stack, r) for r in range(3)] == [alone[r][j] for r in range(3)]
        # a window against v[rows, None] with rows a slice, as the line
        # search takes consecutive rows, and with rows a fancy index
        for rows in (slice(0, 3), slice(1, 3), np.array([0, 1, 2]), np.array([0, 2])):
            picked = np.arange(3)[rows]
            for w in (1, 3, 8):
                window = _evaluate(p[picked, :w], v[rows, None], x2[rows, None])
                assert [[bits(window, i, j) for j in range(w)] for i in range(len(picked))] \
                    == [alone[r][:w] for r in picked]

    @pytest.mark.parametrize("n, trials", [(50, 20), (10_000, 6)])
    def test_monte_carlo_lane_fits_what_the_public_path_fits(self, n, trials):
        # the runner draws and fits blocks of trials through the samplers'
        # and the fit's private bodies, with the draw's cosines and sines;
        # each row is the trial's own fit
        seed, lane = SeedSpec(11), 1
        got = _run_trials(CRB, SchemeKind.HOMODYNE, n, seed, lane, trials, 1)
        want = [estimate_homodyne_ml(homodyne_arrays(CRB, n, ContinuousSweep(), stream),
                                     CRB.eta)
                for stream in lane_streams(seed, lane, trials)]
        assert rows_bits(got) == [result_bits(r) for r in want]

    def test_one_job_lane_runs_on_the_calling_thread(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("the lane built a thread pool")

        # 20 trials at N = 50 are one block, so one job
        seed, lane = SeedSpec(11), 1
        want = rows_bits(_run_trials(CRB, SchemeKind.HOMODYNE, 50, seed, lane, 20, 1))
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        assert rows_bits(_run_trials(CRB, SchemeKind.HOMODYNE, 50, seed, lane, 20, 2)) == want
        # 6 trials at N = 10^4 are two blocks of 3, which take the pool
        with pytest.raises(AssertionError, match="thread pool"):
            _run_trials(CRB, SchemeKind.HOMODYNE, 10_000, seed, lane, 6, 2)

    def test_heterodyne_lane_fits_each_trials_moments(self):
        seed, lane, n, trials = SeedSpec(11), 1, 50, 20
        got = _run_trials(CRB, SchemeKind.HETERODYNE, n, seed, lane, trials, 1)
        want = [rows_bits(estimate_heterodyne_moments(
            *heterodyne_moments(CRB, n, stream, 1), n, CRB.eta))[0]
            for stream in lane_streams(seed, lane, trials)]
        assert rows_bits(got) == want

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_heterodyne_blocks_change_no_bit(self, monkeypatch, threads):
        # 20 trials drawn in blocks of 8, 8 and 4, each block from its
        # first stream on; with threads > 1 the three jobs take the pool
        seed, lane, n, trials = SeedSpec(11), 1, 50, 20
        want = rows_bits(_run_trials(CRB, SchemeKind.HETERODYNE, n, seed, lane, trials, 1))
        blocks = []

        def recording(spec, n, first, size):
            blocks.append((first, size))
            return heterodyne_moments(spec, n, first, size)

        monkeypatch.setattr(experiments, "_BLOCK_SAMPLES", 8)
        monkeypatch.setattr(experiments, "heterodyne_moments", recording)
        got = _run_trials(CRB, SchemeKind.HETERODYNE, n, seed, lane, trials, threads)
        assert rows_bits(got) == want
        blocks.sort(key=lambda block: block[0].stream_id)
        assert [size for _, size in blocks] == [8, 8, 4]
        streams = lane_streams(seed, lane, trials)
        assert [first for first, _ in blocks] == streams[::8]

    def test_stalled_row_stops_at_its_first_no_op_halving(self, monkeypatch):
        # without the rounding floor, trial 1 of this block stalls at its
        # third iteration
        monkeypatch.setattr(estimation, "_ROUNDING_FLOOR", 0.0)
        thetas, xs = crb_block(11, 0)
        calls = []

        def counting(p, v, x2):
            calls.append(p.size // 3)
            return _evaluate(p, v, x2)

        monkeypatch.setattr(estimation, "_evaluate", counting)
        pruned = estimate_homodyne_ml_block(thetas, xs, CRB.eta)
        pruned_rows, calls[:] = sum(calls), []
        monkeypatch.setattr(estimation, "_line_search", unpruned_line_search)
        unpruned = estimate_homodyne_ml_block(thetas, xs, CRB.eta)
        assert rows_bits(pruned) == rows_bits(unpruned)
        assert pruned.converged.tolist() == [True, False, True]
        assert pruned.iterations[1] < estimation._MAX_ITERATIONS
        assert pruned_rows < sum(calls)


def reference_derivatives(v, x2, cvar):
    """The likelihood's gradient and Hessian in g of each row, by the
    formulas the fit took before its three contractions: 1/2 sum v (x^2/C^2
    - 1/C), and 1/2 sum (1/C^2 - 2 x^2/C^3) v v^T by a three-operand einsum."""
    grad = 0.5 * (v * (x2 / (cvar * cvar) - 1.0 / cvar)[:, None, :]).sum(axis=-1)
    curv = 1.0 / (cvar * cvar) - 2.0 * x2 / cvar ** 3
    return grad, 0.5 * np.einsum("tiN,tN,tjN->tij", v, curv, v)


def reference_ascent_directions(p, scales, grad_g, hess_g, f):
    """_ascent_directions' steps by np.linalg: Newton steps by
    np.linalg.solve where np.linalg.eigvalsh finds the chained Hessian
    negative definite, saddle-free steps by np.linalg.eigh and matrix
    products where it does not, and unit steepest ascent where the Hessian
    is not finite; each row's kind of step; and the Newton rows whose
    predicted gain 1/2 grad^T step is at most _ROUNDING_FLOOR |f|."""
    rows = len(p)
    b = p[:, 1]
    entries = np.empty((rows, 9))
    ac = scales[:, None, :]
    np.multiply(estimation._CHAIN_FACTORS * ac, ac, out=entries[:, :4].reshape(rows, 2, 2))
    np.multiply(2.0, b, out=entries[:, 4])
    sa = np.multiply(SQRT2, scales[:, 0], out=entries[:, 5])
    np.multiply(sa, b, out=entries[:, 6])
    entries[:, 7:] = estimation._CHAIN_CONSTANTS
    mats = np.take(entries, estimation._CHAIN_SLOTS, axis=1).reshape(rows, 4, 3, 3)
    jac, jac_t = mats[:, 0], mats[:, 0].transpose(0, 2, 1)
    terms = grad_g[:, :, None, None] * mats[:, 1:]
    hess_p = jac_t @ hess_g @ jac + terms[:, 0] + terms[:, 1] + terms[:, 2]
    grad_p = np.matmul(jac_t, grad_g[:, :, None])[:, :, 0]
    step = np.empty_like(grad_p)
    kinds = []
    for t in range(rows):
        if not np.isfinite(hess_p[t]).all():
            kinds.append("ascent")
            step[t] = grad_p[t] / np.sqrt(np.add.reduce(grad_p[t] * grad_p[t]))
        elif np.linalg.eigvalsh(hess_p[t]).max() < 0.0:
            kinds.append("newton")
            step[t] = np.linalg.solve(hess_p[t], -grad_p[t])
            if 0.5 * np.add.reduce(grad_p[t] * step[t]) <= estimation._ROUNDING_FLOOR * abs(f[t]):
                kinds[-1] = "flat"
        else:
            kinds.append("saddle")
            w, q = np.linalg.eigh(hess_p[t])
            mag = np.maximum(np.abs(w), 1e-12 * np.abs(w).max())
            step[t] = q @ ((q.T @ grad_p[t]) / mag)
    return step, kinds


def thin_block():
    """The five thin-state records of THIN_PARENT_LOGLIK at lambda = 1e4,
    N = 2000, as (trials, N) arrays."""
    records = [thin_record(1e4, 2000, trial) for trial in range(5)]
    return np.stack([r[0] for r in records]), np.stack([r[1] for r in records])


class TestDerivatives:
    @pytest.mark.parametrize("block, eta", [(lambda: crb_block(11, 0), CRB.eta),
                                            (lambda: fig5_lane(0, 2, 150), FIG5.eta),
                                            (thin_block, 1.0)], ids=["crb", "fig5", "thin"])
    def test_equal_the_per_sample_formulas(self, block, eta):
        # at the moment starts; at the fits, where the gradient is rounding
        # noise, the Hessian alone
        thetas, xs = block()
        v, x2 = bin_vectors(thetas), xs * xs
        cvar = _evaluate(moment_starts(v, x2, thetas), v, x2)[2]
        for got, want in zip(estimation._derivatives(v, x2, cvar.copy()),
                             reference_derivatives(v, x2, cvar)):
            np.testing.assert_allclose(got, want, rtol=1e-12)
        g = estimate_homodyne_ml_block(thetas, xs, eta).g_effective
        cvar = np.einsum("tk,tkN->tN", g, v)
        np.testing.assert_allclose(estimation._derivatives(v, x2, cvar.copy())[1],
                                   reference_derivatives(v, x2, cvar)[1], rtol=1e-12)

    @pytest.mark.parametrize("block", [lambda: crb_block(11, 0, trials=6),
                                       lambda: fig5_lane(0, 2, 150)], ids=["crb", "fig5"])
    def test_rows_are_contracted_alone(self, block):
        # each row's bits, whether alone, in its block, or in the block's
        # rows in another order
        thetas, xs = block()
        v, x2 = bin_vectors(thetas), xs * xs
        cvar = _evaluate(moment_starts(v, x2, thetas), v, x2)[2]
        rows = len(xs)
        alone = [[a.tobytes() for a in estimation._derivatives(v[t:t + 1], x2[t:t + 1],
                                                               cvar[t:t + 1].copy())]
                 for t in range(rows)]
        stacked = estimation._derivatives(v, x2, cvar.copy())
        assert [[a[t:t + 1].tobytes() for a in stacked] for t in range(rows)] == alone
        order = np.random.default_rng(64).permutation(rows)
        shuffled = estimation._derivatives(v[order], x2[order], cvar[order])
        assert [[a[i:i + 1].tobytes() for a in shuffled] for i in range(rows)] \
            == [alone[t] for t in order]


class TestLapackCalls:
    @pytest.mark.parametrize("rows", [1, 3, 200])
    def test_gufuncs_equal_numpy_linalg_bit_for_bit(self, rows):
        rng = np.random.default_rng(rows)
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            a = rng.normal(0.0, scale, (rows, 3, 3))
            a += a.transpose(0, 2, 1)  # symmetric, as a Hessian is
            b = rng.normal(0.0, 1.0, (rows, 3, 1))
            w = _umath_linalg.eigvalsh_lo(a, signature="d->d")
            x = _umath_linalg.solve(a, b, signature="dd->d")
            assert w.tobytes() == np.linalg.eigvalsh(a).tobytes()
            assert x.tobytes() == np.linalg.solve(a, b).tobytes()

    def test_singular_or_nan_matrix_gives_a_nan_row(self):
        # a LAPACK failure is flagged as an invalid value, and the failing
        # matrix's row is nan; the other rows are solved as alone
        singular = np.stack([-np.eye(3), np.ones((3, 3))])
        with np.errstate(all="ignore"):
            x = _umath_linalg.solve(singular, np.ones((2, 3, 1)), signature="dd->d")
            w = _umath_linalg.eigvalsh_lo(np.stack([np.full((3, 3), math.nan), -np.eye(3)]),
                                          signature="d->d")
        assert x[0, :, 0].tolist() == [-1.0] * 3 and np.isnan(x[1]).all()
        assert np.isnan(w[0]).all() and w[1].tolist() == [-1.0] * 3
        with pytest.raises(FloatingPointError), np.errstate(invalid="raise"):
            _umath_linalg.solve(singular, np.ones((2, 3, 1)), signature="dd->d")

    @staticmethod
    def failing_lapack(name):
        """_umath_linalg with the gufunc `name` failing on every matrix:
        its outputs are nan and the invalid flag is set, as a LAPACK
        failure leaves them."""
        def failing(*args, **kwargs):
            out = getattr(_umath_linalg, name)(*args, **kwargs)
            for a in out if isinstance(out, tuple) else (out,):
                a[...] = math.inf
                a -= math.inf
            return out
        gufuncs = {key: getattr(_umath_linalg, key) for key in ("solve", "eigvalsh_lo", "eigh_lo")}
        return types.SimpleNamespace(**{**gufuncs, name: failing})

    def fit_quietly(self, monkeypatch, name):
        """A fig5 lane block fitted with `name` failing, and the curvature
        masks of its passes."""
        masks, line_search = [], estimation._line_search

        def recording(p, step, f, v, x2, curved):
            masks.append(curved.copy())
            return line_search(p, step, f, v, x2, curved)

        monkeypatch.setattr(estimation, "_line_search", recording)
        monkeypatch.setattr(estimation, "_umath_linalg", self.failing_lapack(name))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = estimate_homodyne_ml_block(*fig5_lane(0, 0, 50), FIG5.eta)
        return fit, np.concatenate(masks)

    def test_failing_solve_stalls_every_row(self, monkeypatch):
        # a nan Newton step never raises the likelihood
        fit, curved = self.fit_quietly(monkeypatch, "solve")
        assert curved.any()
        assert not fit.converged.any()
        assert (fit.iterations < estimation._MAX_ITERATIONS).all()
        assert np.isfinite(fit.g_effective).all() and np.isfinite(fit.loglik).all()

    def test_failing_eigvalsh_takes_steepest_ascent(self, monkeypatch):
        # nan eigenvalues fail the negativity test
        fit, curved = self.fit_quietly(monkeypatch, "eigvalsh_lo")
        assert curved.size and not curved.any()
        assert np.isfinite(fit.g_effective).all() and np.isfinite(fit.loglik).all()

    def test_failing_eigh_takes_steepest_ascent(self, monkeypatch):
        # nan eigenvectors give nan saddle-free steps, whose rows take unit
        # steepest ascent
        steps = []
        ascent = estimation._ascent_directions

        def recording(*args):
            step, curved, flat = ascent(*args)
            steps.append(step[~curved])
            return step, curved, flat

        monkeypatch.setattr(estimation, "_ascent_directions", recording)
        fit, curved = self.fit_quietly(monkeypatch, "eigh_lo")
        assert curved.any() and not curved.all()
        steps = np.concatenate(steps)
        assert np.linalg.norm(steps, axis=1) == pytest.approx(1.0, rel=1e-15)
        assert np.isfinite(fit.g_effective).all() and np.isfinite(fit.loglik).all()

    def test_ascent_directions_equal_the_numpy_linalg_steps(self, monkeypatch):
        # every pass of fig5 and crb blocks: Newton and steepest-ascent rows
        # bit for bit, saddle-free rows to rounding
        kinds = set()

        def checking(p, scales, grad_g, hess_g, f):
            want, kind = reference_ascent_directions(p, scales, grad_g, hess_g, f)
            step, curved, flat = _ascent_directions(p, scales, grad_g, hess_g, f)
            assert curved.tolist() == [k != "ascent" for k in kind]
            assert flat.tolist() == [k == "flat" for k in kind]
            for t, k in enumerate(kind):
                if k == "saddle":
                    np.testing.assert_allclose(step[t], want[t], rtol=1e-9,
                                               atol=1e-12 * np.abs(want[t]).max())
                else:
                    assert step[t].tobytes() == want[t].tobytes()
            kinds.update(kind)
            return step, curved, flat

        monkeypatch.setattr(estimation, "_ascent_directions", checking)
        for master in range(3):
            estimate_homodyne_ml_block(*fig5_lane(master, 0, 50), FIG5.eta)
        estimate_homodyne_ml_block(*crb_block(11, 0), CRB.eta)
        assert kinds == {"newton", "saddle", "flat"}

    def test_saddle_free_step_ascends_along_every_eigenvector(self):
        # Q |L|^-1 Q^T grad: each eigen-component of grad scaled by
        # 1/|eigenvalue|, the smallest floored at 1e-12 of the largest
        q = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]
        grad = np.array([1.0, -2.0, 0.5])
        w = np.array([-4.0, 1e-20, 2.0])
        step = estimation._saddle_free_steps(w[None], q[None], grad[None])[0]
        want = q @ ((q.T @ grad) / np.array([4.0, 4e-12, 2.0]))
        np.testing.assert_allclose(step, want, rtol=1e-12)
        assert step @ grad > 0.0


# the loglik of fig5 fits (master seed, N, trial) at the fit before its
# saddle-free fallback and boundary branch: the first six stopped at
# _MAX_ITERATIONS, crawling on unit steepest-ascent steps
PARENT_LOGLIK = {(1, 50, 15): -106.61229573545721, (3, 50, 19): -111.89653688109556,
                 (11, 50, 9): -105.1597526967118, (26, 100, 3): -207.0588178699608,
                 (36, 100, 8): -211.4463816300875, (39, 50, 14): -103.40451378514625,
                 (33, 50, 17): -92.3515887307151}


def boundary_profile(theta: np.ndarray, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """l(a) = -(N/2) ln r(a) - 1/2 sum ln cos^2(theta_j - a), r(a) =
    mean(x_j^2 / cos^2(theta_j - a)), at each angle of a."""
    w = np.cos(theta[None, :] - a[:, None]) ** 2
    r = np.mean(x * x / w, axis=1)
    return -0.5 * theta.size * np.log(r) - 0.5 * np.log(w).sum(axis=1)


@pytest.fixture(scope="module")
def fit_set():
    """The homodyne blocks of fig5 master seeds 0-39, N in (50, 100, 150),
    20 trials, as (master seed, N, thetas, xs, fit), the Newton passes
    they took, and the rows the rounding floor ended."""
    blocks, passes = [], []
    ascent = estimation._ascent_directions

    def counting(*args):
        out = ascent(*args)
        passes.append(np.count_nonzero(out[2]))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "_ascent_directions", counting)
        for master in range(40):
            for lane, n in enumerate((50, 100, 150)):
                thetas, xs = fig5_lane(master, lane, n)
                blocks.append((master, n, thetas, xs,
                               estimate_homodyne_ml_block(thetas, xs, FIG5.eta)))
    return blocks, len(passes), sum(passes)


def newton_gain(v: np.ndarray, x2: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Each row's loglik gain from g by one full Newton step in g, taken
    with reference_derivatives."""
    cvar = np.einsum("tk,tkN->tN", g, v)
    grad, hess = reference_derivatives(v, x2, cvar)
    step = np.linalg.solve(hess, -grad[:, :, None])[:, :, 0]
    return gaussian_loglik(v, x2, g + step) - gaussian_loglik(v, x2, g)


@pytest.fixture(scope="module")
def crb_fit_set():
    """The homodyne lanes of the benchmark's crb workload at master seeds
    11-14, 60 trials of N = 10^4 fitted in blocks of 3 on one thread, as
    (fit, newton_gain of each row); the Newton passes they took, the rows
    the rounding floor ended, and the samples each lane's line searches
    evaluated."""
    lanes, passes, searched = [], [], []
    ascent, line_search, evaluate = (estimation._ascent_directions, estimation._line_search,
                                     estimation._evaluate)

    def counting(*args):
        out = ascent(*args)
        passes.append(np.count_nonzero(out[2]))
        return out

    def counting_evaluate(p, v, x2):
        searched[-1] += p.size // 3 * x2.shape[-1]
        return evaluate(p, v, x2)

    def searching(*args):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(estimation, "_evaluate", counting_evaluate)
            return line_search(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "_ascent_directions", counting)
        patch.setattr(estimation, "_line_search", searching)
        for master in range(11, 15):
            searched.append(0)
            fit = _run_trials(CRB, SchemeKind.HOMODYNE, 10_000, SeedSpec(master), 0, 60, 1)
            gains = []
            for first in range(0, 60, 3):
                thetas, xs = crb_block(master, first)
                gains.append(newton_gain(bin_vectors(thetas), xs * xs,
                                         fit.g_effective[first:first + 3]))
            lanes.append((fit, np.concatenate(gains)))
    return lanes, len(passes), sum(passes), searched


# the loglik of thin-state fits (lambda, N, trial) at mu = 2, eta = 1, seed
# SeedSpec(3, trial), with phi as in THIN_PHI, at the fit before its
# saddle-free fallback and boundary branch
THIN_PHI = {1e3: 0.7, 1e4: math.pi / 4, 1e5: 0.3}
THIN_PARENT_LOGLIK = {
    (1e4, 2000): [-11291.699968614434, -10703.828701790888, -10685.853225165632,
                  -11353.519629194638, -10641.433217564248],
    (1e4, 20000): [-113402.64363356966, -113448.48410643554, -106668.05272224253,
                   -113512.99117378303, -113548.32402845363],
    (1e3, 5000): [-22292.053107855238, -20917.57502183697, -22518.665663257398,
                  -22362.344450658366, -22493.479062789633],
    (1e5, 5000): [-32384.535462220756, -32468.045080253913, -32944.693597308855,
                  -32385.03662557848, -32501.28319145556],
}


# sha256 of the (theta, x) bytes of the 20 thin records, in THIN_PARENT_LOGLIK's
# order, as homodyne_arrays drew them when those logliks were measured
THIN_RECORDS_SHA256 = "8958c5373bde1b435a5aa37cee5488f5917f8928c24e5a8d5eddd35ffc880248"


def thin_record(lam: float, n: int, trial: int):
    """The sweep record of SeedSpec(3, trial) that THIN_PARENT_LOGLIK was
    measured on, drawn as the sampler then drew it, from the rotated triple:
    x = sqrt(g1 c c + g2 s s + (sqrt2 g3) s c) z."""
    spec = GaussianStateSpec(mu=2.0, lam=lam, phi=THIN_PHI[lam], eta=1.0)
    u = (raw_words(SeedSpec(3, trial), 0, 2 * n) >> np.uint64(11)).astype(float) * 2.0 ** -53
    thetas = math.pi * u[0::2]
    cov = effective_covariance(spec, SchemeKind.HOMODYNE)
    c, s = np.cos(thetas), np.sin(thetas)
    variances = cov.g1 * c * c + cov.g2 * s * s + SQRT2 * cov.g3 * s * c
    return thetas, np.sqrt(variances) * sampling._normals_in_place(u[1::2].copy())


def gaussian_loglik(v: np.ndarray, x2: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The homodyne log-likelihood of each row of g on its data."""
    cvar = np.einsum("tk,tkN->tN", g, v)
    return -0.5 * (np.log(cvar) + x2 / cvar).sum(axis=1) - 0.5 * x2.shape[1] * math.log(
        2.0 * math.pi)


class TestBoundaryExit:
    def test_thin_records_are_the_measured_data(self):
        digest = hashlib.sha256()
        for lam, n in THIN_PARENT_LOGLIK:
            for trial in range(5):
                for column in thin_record(lam, n, trial):
                    digest.update(column.tobytes())
        assert digest.hexdigest() == THIN_RECORDS_SHA256

    @pytest.mark.parametrize("lam,n", list(THIN_PARENT_LOGLIK))
    def test_thin_fits_end_no_lower(self, lam, n):
        # on thin states an interior optimum can lie below det = 1e-6 g1 g2;
        # the tolerance is the rounding of a sum over up to 20000 samples
        for trial, parent in enumerate(THIN_PARENT_LOGLIK[lam, n]):
            fit = estimate_homodyne_ml(thin_record(lam, n, trial), 1.0)
            assert fit.loglik >= parent - 1e-13 * abs(parent), (lam, n, trial)

    def test_row_that_rises_into_the_interior_iterates_on(self, monkeypatch):
        # this fit passes det < 1e-6 g1 g2 on its way to an interior optimum
        # at det = 3.2e-6 g1 g2; there the boundary point beats the iterate,
        # but the likelihood rises from it into the interior, so the row fits
        # on as if it had no boundary exit
        data = thin_record(1e4, 2000, 1)
        calls = []
        boundary_fits = estimation._boundary_fits

        def recording(v, x2, g):
            out = boundary_fits(v, x2, g)
            calls.append((gaussian_loglik(v, x2, g), *out))
            return out

        monkeypatch.setattr(estimation, "_boundary_fits", recording)
        fit = estimate_homodyne_ml(data, 1.0)
        assert fit.status == "converged"
        assert any(f_iter[0] < f_edge[0] for f_iter, _, f_edge, _ in calls)
        assert not any(kkt[0] for *_, kkt in calls)
        assert all(f_edge[0] < fit.loglik for _, _, f_edge, _ in calls)
        count = len(calls)
        monkeypatch.setattr(estimation, "_BOUNDARY_DET", 0.0)
        assert result_bits(fit) == result_bits(estimate_homodyne_ml(data, 1.0))
        assert len(calls) == count

    def test_row_ends_at_its_best_boundary_point_if_that_is_higher(self, monkeypatch):
        # with every boundary point taken to rise into the interior, the
        # drifting rows iterate on until they stall; each ends no lower
        # than every boundary point it met, and ends on one where that is
        # higher, as trial 4 of this block does
        thetas, xs = fig5_lane(6, 0, 50)
        met = {}
        boundary_fits = estimation._boundary_fits

        def rising(v, x2, g):
            g_edge, f_edge, kkt = boundary_fits(v, x2, g)
            for row in range(len(g)):
                trial = np.flatnonzero((xs * xs == x2[row]).all(axis=1))[0]
                if f_edge[row] > met.get(trial, (None, -math.inf))[1]:
                    met[trial] = (g_edge[row], f_edge[row])
            return g_edge, f_edge, np.zeros_like(kkt)

        monkeypatch.setattr(estimation, "_boundary_fits", rising)
        fit = estimate_homodyne_ml_block(thetas, xs, FIG5.eta)
        assert np.flatnonzero(fit.status == "boundary").tolist() == [4]
        for trial, (g_edge, f_edge) in met.items():
            assert fit.loglik[trial] >= f_edge
            if fit.status[trial] == "boundary":
                assert fit.loglik[trial] == f_edge
                assert fit.g_effective[trial].tobytes() == g_edge.tobytes()


# fig5 rows past master seed 39 that the boundary test first met at pass
# _BOUNDARY_PASSES: (master seed, N, trial) and the (status, iterations,
# loglik) each ended with when the test waited for det < _BOUNDARY_DET g1 g2
FLOORED_ROWS = {(157, 50, 18): ("stalled", 44, -104.18764955083265),
                (41, 50, 19): ("converged", 30, -100.30184437955644),
                (147, 50, 10): ("stalled", 200, -119.2933563160208),
                (281, 100, 19): ("stalled", 200, -213.20534876766274)}


class TestPassFloor:
    @pytest.mark.parametrize("master, n, trial", list(FLOORED_ROWS))
    def test_rows_end_on_a_higher_boundary_point(self, master, n, trial):
        # an interior optimum lower than the boundary's, or a row that
        # crawled towards the edge until it stalled, ends at pass 18 on the
        # boundary, higher
        _, _, parent = FLOORED_ROWS[master, n, trial]
        thetas, xs = fig5_lane(master, (50, 100, 150).index(n), n)
        fit = estimate_homodyne_ml_block(thetas, xs, FIG5.eta)
        assert (fit.status[trial], fit.iterations[trial]) == ("boundary", 18)
        assert fit.loglik[trial] > parent

    def test_floor_is_read_at_call_time(self, monkeypatch):
        # past the iteration limit the floor never acts, and the row crawls on
        thetas, xs = fig5_lane(157, 0, 50)
        monkeypatch.setattr(estimation, "_BOUNDARY_PASSES", estimation._MAX_ITERATIONS + 1)
        fit = estimate_homodyne_ml_block(thetas, xs, FIG5.eta)
        status, iterations, parent = FLOORED_ROWS[157, 50, 18]
        assert (fit.status[18], fit.iterations[18], fit.loglik[18]) == (status, iterations,
                                                                        parent)


class TestFitSet:
    def test_every_row_ends_before_the_iteration_limit(self, fit_set):
        blocks, passes, _ = fit_set
        iterations = np.concatenate([fit.iterations for *_, fit in blocks])
        assert iterations.max() < estimation._MAX_ITERATIONS
        # 3731 passes before the saddle-free fallback and the boundary
        # branch, 1776 before the rounding floor, which ends each row in a
        # pass that forms its step, 1832 before the boundary test ran on
        # every row from pass _BOUNDARY_PASSES on: 1404
        assert passes <= 1410
        # 15439 row-iterations and at most 21 per row, against 15948 and 135
        # before that pass floor
        assert iterations.sum() <= 15450
        assert iterations.max() <= 21
        statuses = collections.Counter(np.concatenate([fit.status for *_, fit in blocks]))
        # 2106, 58 and 236 stalled before the rounding floor
        assert statuses == {"converged": 2342, "boundary": 58}

    def test_drifting_row_ends_at_the_pass_floor(self, fit_set):
        # master 35, N = 50, trial 19 beats its iterate on the boundary and
        # passes the first-order test from its first passes on, but reached
        # det < _BOUNDARY_DET g1 g2 only at pass 135; the pass floor ends it
        # at pass 18 on the same boundary point, bit for bit
        blocks, _, _ = fit_set
        fit = next(fit for master, n, *_, fit in blocks if (master, n) == (35, 50))
        assert (fit.status[19], fit.iterations[19]) == ("boundary", 18)
        assert [x.hex() for x in fit.g_effective[19].tolist()] == [
            "0x1.876894b13867bp-11", "0x1.f416106e443e5p+3", "0x1.38d71803f7d26p-3"]
        assert fit.loglik[19].hex() == "-0x1.b91b4ace10236p+6"

    def test_rows_at_the_rounding_floor_are_optima(self, fit_set):
        # every converged row ends at the floor, and one more Newton step
        # gains it no more than the rounding of its likelihood
        blocks, _, floored = fit_set
        assert floored == 2342
        for master, n, thetas, xs, fit in blocks:
            rows = fit.converged
            gain = newton_gain(bin_vectors(thetas[rows]), xs[rows] ** 2, fit.g_effective[rows])
            assert (gain <= 1e-9).all(), (master, n)

    def test_crb_rows_end_converged_at_their_optimum(self, crb_fit_set):
        lanes, passes, floored, searched = crb_fit_set
        fits = [fit for fit, _ in lanes]
        # 217 converged and 23 stalled before the rounding floor
        assert collections.Counter(np.concatenate([fit.status for fit in fits])) \
            == {"converged": 240}
        assert floored == 240
        assert max(fit.iterations.max() for fit in fits) < estimation._MAX_ITERATIONS
        assert all((gain <= 1e-9).all() for _, gain in lanes)
        # 315 lockstep passes and 847 row-iterations, against 323 and 909
        # before the rounding floor
        assert passes <= 320
        assert sum(fit.iterations.sum() for fit in fits) <= 850
        # master seed 11's lane: 1.51M samples, against 3.86M before the
        # rounding floor, when rows at their optimum halved their steps
        assert searched[0] <= 1_600_000

    def test_boundary_rows_end_at_their_profiles_maximum(self, fit_set):
        blocks, _, _ = fit_set
        count = 0
        for master, n, thetas, xs, fit in blocks:
            for t in np.flatnonzero(fit.status == "boundary"):
                count += 1
                g = fit.g_effective[t]
                a = 0.5 * math.atan2(SQRT2 * g[2], g[0] - g[1])
                # a rank-one g, on the poles' bracket around its angle
                assert abs(g[0] * g[1] - 0.5 * g[2] ** 2) <= 1e-12 * g[0] * g[1]
                # each pole's distance ahead of a, mod pi
                ahead = np.remainder(thetas[t] + 0.5 * math.pi - a, math.pi)
                hi, lo = a + ahead.min(), a - (math.pi - ahead.max())
                grid = np.linspace(lo, hi, 2002)[1:-1]
                best = boundary_profile(thetas[t], xs[t], grid).max()
                at = boundary_profile(thetas[t], xs[t], np.array([a]))[0]
                assert at >= best - 1e-9, (master, n, t)
                # the loglik is the profile's, off its constant
                assert fit.loglik[t] == pytest.approx(
                    at - 0.5 * n * (1.0 + math.log(2.0 * math.pi)), abs=1e-9)
        assert count > 0

    def test_rows_that_crawled_end_no_lower(self, fit_set):
        blocks, _, _ = fit_set
        fits = {(master, n): fit for master, n, *_, fit in blocks}
        for (master, n, t), parent in PARENT_LOGLIK.items():
            assert fits[master, n].loglik[t] >= parent - 1e-9, (master, n, t)
