import math

import numpy as np
import pytest

from gausstomo import (Covariance2, DomainError, GaussianStateSpec, NumericalError,
                       SchemeKind, conditional_std, critical_lambda_equal_areas,
                       effective_covariance, marginal_std, region_areas,
                       region_boundaries)
from gausstomo.core import data_variances
from gausstomo.experiments import _Repeats, render_table


def random_pd_covariances(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        g1, g2 = rng.uniform(0.05, 8.0, size=2)
        g3 = float(rng.uniform(-1, 1)) * math.sqrt(2 * g1 * g2) * 0.98
        yield Covariance2(float(g1), float(g2), g3)


class TestMarginalStd:
    def test_squeezed_axis(self):
        cov = Covariance2(1 / 4, 1.0, 0.0)  # (1/(2 lam), lam/2) at lam = 2
        assert marginal_std(cov, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_isotropic(self):
        for theta in np.linspace(0, math.pi, 9):
            assert marginal_std(Covariance2(0.7, 0.7, 0.0), float(theta)) == \
                pytest.approx(math.sqrt(0.7), rel=1e-14)

    def test_diagonal_at_angle(self):
        assert marginal_std(Covariance2(0.1, 10.0, 0.0), math.pi / 4) == \
            pytest.approx(math.sqrt(5.05), rel=1e-14)

    def test_rejects_non_pd(self):
        with pytest.raises(DomainError):
            marginal_std(Covariance2(1.0, -1.0, 0.0), 0.0)


class TestConditionalStd:
    def test_ideal_q_profile_is_an_ellipse(self):
        # conditional boundary of G_W + I/2 at lam = 2:
        # 1/sqrt(1 + (1/3) cos(2 theta)) in polar form
        lam = 2.0
        cov = Covariance2(1 / (2 * lam) + 0.5, lam / 2 + 0.5, 0.0)
        assert conditional_std(cov, 0.0) == pytest.approx(math.sqrt(3) / 2, rel=1e-14)
        for theta in np.linspace(0, 2 * math.pi, 17):
            polar = 1 / math.sqrt(1 + (lam - 1) / (lam + 1) * math.cos(2 * theta))
            assert conditional_std(cov, float(theta)) == pytest.approx(polar, rel=1e-12)

    def test_isotropic_equals_marginal(self):
        cov = Covariance2(1.3, 1.3, 0.0)
        for theta in np.linspace(0, math.pi, 7):
            assert conditional_std(cov, float(theta)) == \
                pytest.approx(marginal_std(cov, float(theta)), rel=1e-14)

    def test_principal_axis_equality(self):
        cov = Covariance2(0.3, 2.0, 0.0)
        assert conditional_std(cov, 0.0) == pytest.approx(math.sqrt(0.3), rel=1e-14)
        assert conditional_std(cov, 0.0) == pytest.approx(marginal_std(cov, 0.0), rel=1e-14)

    def test_never_exceeds_marginal(self):
        for cov in random_pd_covariances(500, seed=21):
            for theta in np.linspace(0, math.pi, 16, endpoint=False):
                sig = marginal_std(cov, float(theta))
                Sig = conditional_std(cov, float(theta))
                assert Sig <= sig * (1 + 1e-12)

    def test_matches_matrix_inverse_oracle(self):
        for cov in random_pd_covariances(100, seed=22):
            ginv = np.linalg.inv(cov.as_matrix())
            for theta in (0.3, 1.1, 2.9):
                u = np.array([math.cos(theta), math.sin(theta)])
                ref = 1 / math.sqrt(u @ ginv @ u)
                assert conditional_std(cov, theta) == pytest.approx(ref, rel=1e-11)

    def test_pi_periodicity(self):
        for cov in random_pd_covariances(20, seed=23):
            for theta in (0.2, 0.9, 2.0):
                assert marginal_std(cov, theta) == \
                    pytest.approx(marginal_std(cov, theta + math.pi), rel=1e-12)
                assert conditional_std(cov, theta) == \
                    pytest.approx(conditional_std(cov, theta + math.pi), rel=1e-12)


class TestRegionBoundaries:
    def test_coherent_state_circles(self):
        theta, sigma, Sigma = region_boundaries(GaussianStateSpec(1.0, 1.0), 32)
        assert Sigma == pytest.approx(np.ones(32), rel=1e-13)
        assert sigma == pytest.approx(np.full(32, 1 / math.sqrt(2)), rel=1e-13)
        assert np.all(Sigma > sigma)

    def test_elongated_state_crossover(self):
        # heterodyne wins except close to the principal axes
        theta, sigma, Sigma = region_boundaries(GaussianStateSpec(1.0, 16.0), 360)
        folded = theta % math.pi
        on_axis = np.minimum(folded, math.pi - folded) < 0.05
        diagonal = np.abs(folded - math.pi / 4) < 0.05
        assert on_axis.any() and diagonal.any()
        assert np.all(sigma[on_axis] < Sigma[on_axis])
        assert np.all(Sigma[diagonal] < sigma[diagonal])

    def test_output_shape(self):
        columns = region_boundaries(GaussianStateSpec(1.0, 2.0), 64)
        assert len(columns) == 3
        assert all(c.dtype == np.float64 and c.shape == (64,) for c in columns)
        assert np.all(np.diff(columns[0]) > 0)

    def test_rejects_too_few_samples(self):
        with pytest.raises(DomainError):
            region_boundaries(GaussianStateSpec(1.0, 1.0), 3)

    def test_rotated_squeezed_states_finish(self):
        # from lambda = 1.37e9 the homodyne triple's det cancels at these
        # phi, while sigma^2 = u^T G u stays accurate
        for lam in 1.37 * 10.0 ** np.arange(6, 12):
            for phi in (0.1, 0.3, 0.7, 1.3, 2.9):
                for eta in (1.0, 1.0 - 1e-9):
                    theta, sigma, Sigma = region_boundaries(
                        GaussianStateSpec(1.0, float(lam), phi, eta), 256)
                    d1, d2 = data_variances(1.0, float(lam), eta, SchemeKind.HOMODYNE)
                    # the squeezed axis lies at angle -phi
                    want = d1 * np.cos(theta + phi) ** 2 + d2 * np.sin(theta + phi) ** 2
                    assert sigma ** 2 == pytest.approx(want, rel=1e-9)
                    assert np.isfinite(Sigma).all() and (Sigma > 0).all()

    @pytest.mark.parametrize("mu, lam, eta", [(1e300, 1.0, 1e-300), (1.0, 1e15, 1.0),
                                              (1.0, 1e16, 1.0), (1.0, 1e-16, 1.0)])
    def test_extreme_states_match_the_eigenframe(self, mu, lam, eta):
        # no product of two variances overflows, and v^T G v does not cancel
        # as Tr G - u^T G u did: Sigma was inf at the first state, and off by
        # 6% at 5 pi/4 at the second; the third raised NumericalError
        theta, sigma, Sigma = region_boundaries(GaussianStateSpec(mu, lam, 0.0, eta), 8)
        e1, e2 = data_variances(mu, lam, eta, SchemeKind.HETERODYNE)
        # at phi = 0 the principal axes are x and p
        want = 1.0 / np.sqrt(np.cos(theta) ** 2 / e1 + np.sin(theta) ** 2 / e2)
        assert Sigma == pytest.approx(want, rel=1e-15)
        g_het = effective_covariance(GaussianStateSpec(mu, lam, 0.0, eta),
                                     SchemeKind.HETERODYNE)
        assert Sigma.tolist() == [conditional_std(g_het, t) for t in theta.tolist()]

    def test_cancelled_triple_det_matches_the_eigenframe(self):
        # the rotated heterodyne triple's det cancels here, which raised
        # NumericalError; the squeezed axis lies at angle -phi
        theta, sigma, Sigma = region_boundaries(GaussianStateSpec(1.0, 1e17, 0.3), 64)
        e1, e2 = data_variances(1.0, 1e17, 1.0, SchemeKind.HETERODYNE)
        want = 1.0 / np.sqrt(np.cos(theta + 0.3) ** 2 / e1 + np.sin(theta + 0.3) ** 2 / e2)
        assert Sigma == pytest.approx(want, rel=1e-14)


class TestRegionAreas:
    def test_ideal_closed_forms(self):
        areas = region_areas(GaussianStateSpec(1.0, 2.0))
        assert areas.s_Sigma == pytest.approx(math.pi * 3 / (2 * math.sqrt(2)), rel=1e-13)
        assert areas.s_sigma == pytest.approx(math.pi * 5 / 8, rel=1e-13)

    def test_coherent_state_circle_areas(self):
        areas = region_areas(GaussianStateSpec(1.0, 1.0))
        assert areas.s_sigma == pytest.approx(math.pi / 2, rel=1e-13)
        assert areas.s_Sigma == pytest.approx(math.pi, rel=1e-13)

    def test_large_squeezing_ratio(self):
        lam = 4e4
        areas = region_areas(GaussianStateSpec(1.0, lam))
        assert areas.s_sigma / areas.s_Sigma == \
            pytest.approx(math.sqrt(lam) / 2, rel=1e-2)

    def test_areas_do_not_depend_on_phi(self):
        # taken from the eigenvalues of each data covariance; the triple's
        # g1 g2 - g3^2/2 would give s_Sigma = 1570787.83 at phi = 0.3 here
        base = region_areas(GaussianStateSpec(1.0, 1e12))
        assert base.s_Sigma == pytest.approx(1570796.3267964674, rel=1e-15)
        rng = np.random.default_rng(41)
        for phi in [0.3, 1.2, 2.9, *rng.uniform(0.0, math.pi, 20)]:
            assert region_areas(GaussianStateSpec(1.0, 1e12, phi=float(phi))) == base
        for mu, lam, eta, phi in rng.uniform([1, 0.01, 0.05, 0], [20, 100, 1, math.pi],
                                             (50, 4)):
            assert region_areas(GaussianStateSpec(mu, lam, phi, eta)) == \
                region_areas(GaussianStateSpec(mu, lam, 0.0, eta))

    def test_matches_polar_quadrature(self):
        # (1/2) integral r(theta)^2 dtheta with 2^14 nodes, both boundaries
        thetas = np.linspace(0, 2 * math.pi, 2 ** 14, endpoint=False)
        for spec in (GaussianStateSpec(1.0, 3.0, eta=0.7),
                     GaussianStateSpec(2.0, 10.0, phi=0.9, eta=0.5),
                     GaussianStateSpec(1.0, 1.0)):
            g_hom = effective_covariance(spec, SchemeKind.HOMODYNE)
            g_het = effective_covariance(spec, SchemeKind.HETERODYNE)
            num_sigma = 0.5 * np.mean([marginal_std(g_hom, float(t)) ** 2
                                       for t in thetas]) * 2 * math.pi
            num_Sigma = 0.5 * np.mean([conditional_std(g_het, float(t)) ** 2
                                       for t in thetas]) * 2 * math.pi
            areas = region_areas(spec)
            assert areas.s_sigma == pytest.approx(num_sigma, rel=1e-10)
            assert areas.s_Sigma == pytest.approx(num_Sigma, rel=1e-10)


class TestCriticalLambdaEqualAreas:
    def test_ideal_detection_roots(self):
        lam = critical_lambda_equal_areas(1.0)
        assert lam == pytest.approx(0.18959, abs=1e-4)
        # quartic condition of the ideal case
        assert lam ** 2 + 1 == pytest.approx(2 * math.sqrt(lam) * (lam + 1), abs=1e-9)
        # closed-form roots 1 + sqrt(3) +- sqrt(3 + 2 sqrt(3))
        lo = 1 + math.sqrt(3) - math.sqrt(3 + 2 * math.sqrt(3))
        assert lam == pytest.approx(lo, abs=1e-10)

    def test_upper_branch_is_reciprocal(self):
        lam = critical_lambda_equal_areas(1.0)
        hi = 1 + math.sqrt(3) + math.sqrt(3 + 2 * math.sqrt(3))
        assert 1 / lam == pytest.approx(hi, rel=1e-9)

    def test_realistic_efficiency(self):
        assert critical_lambda_equal_areas(0.8) == pytest.approx(0.149, abs=2e-3)

    def test_threshold_shrinks_with_efficiency(self):
        # lower eta needs more asymmetry: the sub-unity branch moves down
        values = [critical_lambda_equal_areas(eta) for eta in (0.5, 0.8, 1.0)]
        assert values[0] < values[1] < values[2]

    def test_root_actually_balances_the_areas(self):
        for eta in (0.4, 0.8, 1.0):
            lam = critical_lambda_equal_areas(eta)
            areas = region_areas(GaussianStateSpec(1.0, lam, eta=eta))
            assert areas.s_sigma == pytest.approx(areas.s_Sigma, rel=1e-10)

    def test_rejects_bad_eta(self):
        with pytest.raises(DomainError):
            critical_lambda_equal_areas(0.0)

    @pytest.mark.parametrize("eta", [1e-150, 2.3e-154, 2.2e-154, 1e-160, 1e-300, 2e-323])
    def test_tiny_efficiency_is_eta_over_2s(self, eta):
        # below eta ~ 2e-154, t* = s/eta squares past the float range, and
        # 1/(t* + sqrt(t*^2 - 1)) read 0; the branch is eta/(2 s) to
        # rounding, which the closed form meets where t*^2 is finite
        s = 1.0 + math.sqrt(eta * eta - 2.0 * eta + 4.0)
        assert 0.0 < critical_lambda_equal_areas(eta) == pytest.approx(eta / (2.0 * s),
                                                                        rel=1e-15)

    @pytest.mark.parametrize("eta", [5e-324, 1e-323, 1.5e-323])
    def test_lambda_that_rounds_to_zero_is_a_numerical_error(self, eta):
        # eta/(2 s) is at most half the least subnormal here
        with pytest.raises(NumericalError, match="below the float range"):
            critical_lambda_equal_areas(eta)


class TestAreaScanCsv:
    """A region-area scan written by the one table writer, render_table."""

    @staticmethod
    def scan_csv(lambdas, etas):
        # eta outer, lambda inner: both axes are declared repeats
        areas = [region_areas(GaussianStateSpec(mu=1.0, lam=lam, eta=eta))
                 for eta in etas for lam in lambdas]
        columns = [_Repeats(lambdas, list(range(len(lambdas))) * len(etas)),
                   _Repeats(etas, [k for k in range(len(etas)) for _ in lambdas]),
                   [a.s_sigma for a in areas], [a.s_Sigma for a in areas]]
        return render_table(["lambda", "eta", "s_sigma", "s_Sigma"], columns,
                            {"experiment": "regions", "format": "csv"})

    def test_layout_and_values(self):
        text = self.scan_csv([1.0, 2.0], [1.0])
        lines = text.splitlines()[1:]
        assert lines[0] == "lambda,eta,s_sigma,s_Sigma"
        assert len(lines) == 3
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        areas = region_areas(GaussianStateSpec(1.0, 2.0))
        assert float(row["s_sigma"]) == pytest.approx(areas.s_sigma, rel=1e-16)
        assert float(row["s_Sigma"]) == pytest.approx(areas.s_Sigma, rel=1e-16)

    def test_deterministic_bytes(self):
        a = self.scan_csv([0.5, 1.5], [0.8, 1.0])
        b = self.scan_csv([0.5, 1.5], [0.8, 1.0])
        assert a == b and len(a.splitlines()[1:]) == 5
        assert [line.split(",")[:2] for line in a.splitlines()[2:]] == \
            [["0.5", "0.80000000000000004"], ["1.5", "0.80000000000000004"],
             ["0.5", "1"], ["1.5", "1"]]
