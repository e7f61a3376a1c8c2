import math
import warnings

import numpy as np
import pytest

from gausstomo import (BlockFit, ContinuousSweep, Covariance2, DomainError,
                       GaussianStateSpec, SchemeKind, SeedSpec, crb_het,
                       crb_hom, delta_offset, estimate_heterodyne, estimate_homodyne_ml,
                       estimate_homodyne_ml_block, heterodyne_arrays, homodyne_arrays,
                       hs_distance_sq, to_ellipse, wigner_covariance)
from gausstomo import estimation
from gausstomo.estimation import (_BLOCK_SAMPLES, _angle_keys, _ascent_directions,
                                  _evaluate, _moment_starts, estimate_heterodyne_moments)
from gausstomo.experiments import _run_trials
from gausstomo.sampling import _homodyne_block, heterodyne_moments

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


class TestHeterodyneEstimator:
    def test_antipodal_pair_closed_form(self):
        # sample covariance diag(1, 0); offset subtraction may leave an
        # unphysical estimate at tiny n, reported as-is
        data = np.array([[1.0, 0.0], [-1.0, 0.0]])
        result = estimate_heterodyne(data, eta=1.0)
        assert result.g_effective == Covariance2(1.0, 0.0, 0.0)
        assert result.g_wigner.g1 == pytest.approx(0.5)
        assert result.g_wigner.g2 == pytest.approx(-0.5)
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
        got = _moment_starts(v, x2, theta)
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
        got = _moment_starts(v, x2, theta)
        for t in (0, 2):
            assert got[t].tolist() == _moment_starts(v[t:t + 1], x2[t:t + 1],
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
        for t in range(20):
            thetas, x = homodyne_arrays(FIG5, 60, seed=SeedSpec(47, t))
            result = estimate_homodyne_ml((thetas, x), eta=FIG5.eta)
            assert result.g_effective.is_positive_definite()

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
    assert [a.dtype for a in fit[2:]] == [np.float64, np.int_, np.bool_]
    assert all(a.shape == (0,) for a in fit[2:])


class TestHomodyneMlBlock:
    @pytest.mark.parametrize("master_seed", [0, 1])
    @pytest.mark.parametrize("lane, n", [(0, 50), (1, 100), (2, 150)])
    def test_rows_equal_single_fits(self, master_seed, lane, n):
        thetas, xs = fig5_lane(master_seed, lane, n)
        block = estimate_homodyne_ml_block(thetas, xs, FIG5.eta)
        singles = [estimate_homodyne_ml((t, x), FIG5.eta) for t, x in zip(thetas, xs)]
        assert rows_bits(block) == [result_bits(r) for r in singles]
        # each block holds a fit that stalls on a flat likelihood
        limit = estimation._MAX_ITERATIONS
        assert (~block.converged & (block.iterations < limit)).any()
        if (master_seed, n) == (1, 50):
            assert np.count_nonzero(block.iterations == limit) == 1

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
        thetas, xs, c, s = _homodyne_block(FIG5, 50, ContinuousSweep(),
                                           [SeedSpec(53, t) for t in range(6)])
        given = estimate_homodyne_ml_block(thetas, xs, FIG5.eta, trig=(c, s))
        assert rows_bits(given) == rows_bits(estimate_homodyne_ml_block(thetas, xs, FIG5.eta))

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
        p = _moment_starts(v, x2, thetas)
        _, _, cvar, scales = _evaluate(p, v, x2)
        grad_g = 0.5 * (v * (x2 / (cvar * cvar) - 1.0 / cvar)[:, None, :]).sum(axis=-1)
        cvar[1, 7] = math.nan  # reaches row 1's Hessian, not its gradient
        steps = _ascent_directions(p, scales, v, x2, cvar, grad_g)
        alone = [_ascent_directions(*(a[t:t + 1] for a in (p, scales, v, x2, cvar, grad_g)))[0]
                 for t in range(3)]
        assert steps.tolist() == [step.tolist() for step in alone]
        assert np.linalg.norm(steps[1]) == pytest.approx(1.0, rel=1e-15)
        assert np.isfinite(steps).all()

    def test_far_off_step_is_rejected_quietly(self):
        # a trial step of this size overflows a * a to inf
        thetas, xs = fig5_lane(0, 0, 50, trials=1)
        c, s = np.cos(thetas), np.sin(thetas)
        v = np.stack([c * c, s * s, SQRT2 * s * c], axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, f, _, _ = _evaluate(np.array([[416.7, -763.0, -131.6]]), v, xs * xs)
        assert g[0, 0] == math.inf
        assert not f[0] > -1e300

    def test_overflowing_exp_is_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, f, _, _ = _evaluate(np.array([[800.0, 0.0, 0.0]]), np.ones((1, 3, 3)),
                             np.ones((1, 3)))
        assert g[0, 0] == math.inf
        assert not f[0] > -1e300

    def test_step_that_overflows_exp_is_rejected(self):
        # a full Newton step on this N = 3 record leaves exp's range
        spec = GaussianStateSpec(mu=20.0, lam=100.0, phi=0.7, eta=0.3)
        thetas, xs = homodyne_arrays(spec, 3, ContinuousSweep(), SeedSpec(1, 148))
        result = estimate_homodyne_ml((thetas, xs), spec.eta)
        assert math.isfinite(result.loglik)
        assert result.g_effective.is_positive_definite()
        block = estimate_homodyne_ml_block(np.stack([thetas] * 2), np.stack([xs] * 2),
                                           spec.eta)
        assert rows_bits(block) == [result_bits(result)] * 2


CRB = GaussianStateSpec(mu=2.0, lam=10.0, eta=0.5)


def crb_block(master_seed: int, first: int, n: int = 10_000, trials: int = 3):
    """The homodyne records of trials [first, first + trials) of a one-lane,
    60-trial `gausstomo crb-attainment` at the benchmark state."""
    return _homodyne_block(CRB, n, ContinuousSweep(),
                           [SeedSpec(master_seed, 0).stream(1 + t)
                            for t in range(first, first + trials)])[:2]


def lane_streams(seed: SeedSpec, lane: int, trials: int) -> list[SeedSpec]:
    """The seed stream of each trial of a Monte Carlo lane."""
    return [seed.stream(1 + lane * trials + t) for t in range(trials)]


def unpruned_line_search(p, step, f, v, x2):
    """_line_search as it was before a no-op halving ended a row's search:
    every row that no step has beaten f for tries all _MAX_HALVINGS."""
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


class TestLineSearch:
    def test_evaluation_is_the_same_in_every_layout(self):
        # the halving stop rests on this: a candidate equal to p evaluates
        # to p's own (g, f, cvar), whichever stack either was evaluated in
        thetas, xs = crb_block(11, 0)
        v, x2 = bin_vectors(thetas), xs * xs
        rng = np.random.default_rng(62)
        # eight parameter rows about each trial's start
        p = _moment_starts(v, x2, thetas)[:, None, :] + rng.normal(0.0, 0.05, (3, 8, 3))

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
            *heterodyne_moments(CRB, n, [stream]), n, CRB.eta))[0]
            for stream in lane_streams(seed, lane, trials)]
        assert rows_bits(got) == want

    def test_stalled_row_stops_at_its_first_no_op_halving(self, monkeypatch):
        # trial 1 of this block stalls at its third iteration
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
