import math
import warnings

import numpy as np
import pytest

from gausstomo import (ContinuousSweep, Covariance2, DomainError, GaussianStateSpec,
                       MlOptions, SchemeKind, SeedSpec, crb_het, crb_hom,
                       estimate_heterodyne, estimate_homodyne_ml,
                       estimate_homodyne_ml_block, heterodyne_arrays, homodyne_arrays,
                       hs_distance_sq, project_physical, rotate_covariance,
                       single_angle_second_moment, to_ellipse,
                       wigner_covariance)
from gausstomo.estimation import _evaluate

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
            rotated = to_ellipse(rotate_covariance(cov, phi)).orientation
            gap = abs((rotated - (base + phi)) % math.pi)
            assert min(gap, math.pi - gap) < 1e-9

    def test_rejects_non_pd(self):
        with pytest.raises(DomainError) as err:
            to_ellipse(Covariance2(1.0, 1.0, 3.0))
        assert "eigenvalue" in str(err.value)


class TestProjectPhysical:
    def test_leaves_physical_input_alone(self):
        cov = wigner_covariance(GaussianStateSpec(2.0, 3.0, phi=0.5))
        assert project_physical(cov) == cov

    def test_clips_up_to_heisenberg_floor(self):
        clipped = project_physical(Covariance2(0.5, -0.5, 0.0))
        assert clipped.is_positive_definite()
        assert clipped.det >= 0.25 * (1 - 1e-12)

    def test_preserves_orientation(self):
        bad = Covariance2(0.02, 3.0, 0.1)
        clipped = project_physical(bad)
        assert clipped.principal_angle() == pytest.approx(bad.principal_angle(), abs=1e-12)


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
        with pytest.raises(DomainError):
            estimate_heterodyne(np.array([[1.0, 0.0]]), eta=1.0)
        with pytest.raises(DomainError):
            estimate_heterodyne(np.zeros((5, 3)), eta=1.0)
        with pytest.raises(DomainError):
            estimate_heterodyne(np.zeros((5, 2)), eta=0.0)


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
        m = [single_angle_second_moment(x[theta == a]) for a in angles]
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
    """Every field of an EstimationResult, floats as their exact hex form."""
    floats = (r.g_wigner.g1, r.g_wigner.g2, r.g_wigner.g3,
              r.g_effective.g1, r.g_effective.g2, r.g_effective.g3, r.loglik)
    return tuple(float(x).hex() for x in floats) + (r.iterations, r.converged, r.scheme)


class TestHomodyneMlBlock:
    @pytest.mark.parametrize("master_seed", [0, 1])
    @pytest.mark.parametrize("lane, n", [(0, 50), (1, 100), (2, 150)])
    def test_rows_equal_single_fits(self, master_seed, lane, n):
        thetas, xs = fig5_lane(master_seed, lane, n)
        block = estimate_homodyne_ml_block(thetas, xs, FIG5.eta)
        singles = [estimate_homodyne_ml((t, x), FIG5.eta) for t, x in zip(thetas, xs)]
        assert [result_bits(r) for r in block] == [result_bits(r) for r in singles]
        # each block holds a fit that stalls on a flat likelihood
        limit = MlOptions().max_iterations
        assert any(not r.converged and r.iterations < limit for r in block)
        if (master_seed, n) == (1, 50):
            assert [r.iterations for r in block].count(limit) == 1

    def test_options_reach_every_row(self):
        thetas, xs = fig5_lane(1, 0, 50, trials=8)
        for options in (MlOptions(max_iterations=0), MlOptions(max_iterations=3),
                        MlOptions(max_halvings=0), MlOptions(max_halvings=1),
                        MlOptions(gradient_tol=1e-3)):
            block = estimate_homodyne_ml_block(thetas, xs, FIG5.eta, options)
            singles = [estimate_homodyne_ml((t, x), FIG5.eta, options)
                       for t, x in zip(thetas, xs)]
            assert [result_bits(r) for r in block] == [result_bits(r) for r in singles]
        assert all(r.iterations == 0 for r in
                   estimate_homodyne_ml_block(thetas, xs, FIG5.eta, MlOptions(max_iterations=0)))

    def test_empty_block(self):
        assert estimate_homodyne_ml_block(np.zeros((0, 10)), np.zeros((0, 10)), 1.0) == []

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

    def test_far_off_step_is_rejected_quietly(self):
        # a trial step of this size overflows a * a to inf
        thetas, xs = fig5_lane(0, 0, 50, trials=1)
        c, s = np.cos(thetas), np.sin(thetas)
        v = np.stack([c * c, s * s, SQRT2 * s * c], axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, f = _evaluate(np.array([[416.7, -763.0, -131.6]]), v, xs * xs)
        assert g[0, 0] == math.inf
        assert not f[0] > -1e300
