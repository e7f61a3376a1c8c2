import math
import sys
import warnings

import numpy as np
import pytest

from gausstomo import (DomainError, GaussianStateSpec, SchemeKind,
                       crb_het, crb_hom, crb_report, critical_lambda_for_gamma,
                       delta_offset, effective_covariance, fisher_het,
                       fisher_hom_closed, fisher_hom_quadrature, gamma_surface,
                       wigner_covariance)
from gausstomo.experiments import run_experiment

SQRT2 = math.sqrt(2.0)

# frozen from the closed forms: Tr = 11.1, det = 6.3 / Tr = 13.1, det = 18.4
CRB_HOM_BENCH = 413.5846733015083
CRB_HET_BENCH = 306.42


def random_specs(n, seed, lam_max=100.0, mu_max=20.0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield GaussianStateSpec(mu=float(rng.uniform(1, mu_max)),
                                lam=float(rng.uniform(1, lam_max)),
                                phi=float(rng.uniform(0, math.pi)),
                                eta=float(rng.uniform(0.05, 1.0)))


class TestClosedFormBounds:
    def test_crb_hom_values(self):
        assert crb_hom(GaussianStateSpec(1.0, 1.0)) == pytest.approx(5.0, rel=1e-14)
        assert crb_hom(GaussianStateSpec(1.0, 2.0)) == pytest.approx(6.875, rel=1e-14)
        assert crb_hom(GaussianStateSpec(2.0, 10.0, eta=0.5)) == \
            pytest.approx(CRB_HOM_BENCH, rel=1e-13)

    def test_crb_het_values(self):
        assert crb_het(GaussianStateSpec(1.0, 1.0)) == pytest.approx(6.0, rel=1e-14)
        assert crb_het(GaussianStateSpec(1.0, 2.0)) == pytest.approx(7.875, rel=1e-14)
        assert crb_het(GaussianStateSpec(2.0, 10.0, eta=0.5)) == \
            pytest.approx(CRB_HET_BENCH, rel=1e-13)

    def test_worst_case_gap_at_minimum_uncertainty(self):
        # at eta = 1 and mu = 1 the two bounds differ by exactly one
        for lam in (1.0, 1.7, 4.0, 25.0, 400.0):
            spec = GaussianStateSpec(1.0, lam)
            assert crb_het(spec) - crb_hom(spec) == pytest.approx(1.0, rel=1e-10)
        spec = GaussianStateSpec(1.0, 1.0)
        assert crb_het(spec) / crb_hom(spec) == pytest.approx(1.2, rel=1e-14)

    def test_rotation_invariance(self):
        for spec in random_specs(100, seed=10):
            base = GaussianStateSpec(spec.mu, spec.lam, 0.0, spec.eta)
            assert crb_hom(spec) == crb_hom(base)
            assert crb_het(spec) == crb_het(base)

    def test_rotated_squeezed_state_does_not_cancel(self):
        # Tr and det are taken from the eigenvalues, never as g1 g2 - g3^2/2,
        # which cancels to 0.28125 at lambda = 1e8 and below zero at 1e10
        assert crb_hom(GaussianStateSpec(1.0, 1e8, phi=0.3)) == 5000000150000001.0
        for lam in (1e8, 1e10):
            spec = GaussianStateSpec(1.0, lam, phi=0.3)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bounds = crb_hom(spec), crb_het(spec)
            assert all(map(math.isfinite, bounds))
            base = GaussianStateSpec(1.0, lam)
            assert bounds == (crb_hom(base), crb_het(base))

    def test_scalar_bounds_beyond_the_float_range_read_inf(self):
        # the surface's overflow and gamma rules hold for one point as well
        assert crb_het(GaussianStateSpec(1.0, 1e200, eta=1e-300)) == math.inf
        spec = GaussianStateSpec(1e100, 1e300)
        assert crb_hom(spec) == crb_het(spec) == math.inf
        report = crb_report(spec)
        assert report.h_hom == report.h_het == math.inf
        assert math.isfinite(report.gamma)
        assert report.gamma == gamma_surface([1e300], [1e100], 1.0)["gamma"][0]

    def test_heterodyne_offset_always_costs_more(self):
        # both closed forms increase with an added multiple of the identity
        for spec in random_specs(100, seed=11):
            hom_form_on_het = crb_hom(GaussianStateSpec(spec.mu, spec.lam, 0.0, spec.eta))
            g_hom = effective_covariance(spec, SchemeKind.HOMODYNE)
            g_het = effective_covariance(spec, SchemeKind.HETERODYNE)
            assert 2 * g_het.trace * (g_het.trace + 3 * math.sqrt(g_het.det)) > hom_form_on_het
            assert 2 * (g_het.trace ** 2 - g_het.det) > 2 * (g_hom.trace ** 2 - g_hom.det)


class TestHypothetical:
    def test_coherent_state_floor(self):
        report = crb_report(GaussianStateSpec(1.0, 1.0), hypothetical=True)
        assert report.h_hom == pytest.approx(5.0)
        assert report.h_het == pytest.approx(1.5)
        assert report.gamma == pytest.approx(0.3, rel=1e-14)

    def test_ratio_approaches_one(self):
        report = crb_report(GaussianStateSpec(1e4, 1e4), hypothetical=True)
        assert report.gamma == pytest.approx(1.0, abs=1e-3)

    def test_het_form_on_unit_covariance(self):
        assert crb_report(GaussianStateSpec(2.0, 1.0), hypothetical=True).h_het == \
            pytest.approx(6.0, rel=1e-14)

    def test_hypothetical_mode_is_offset_zero(self):
        # both closed forms on G_W itself: the HYPOTHETICAL_NO_AK offset is
        # zero at every efficiency, and the offset selector takes members only
        for eta in (0.05, 0.5, 1.0):
            assert delta_offset(eta, SchemeKind.HYPOTHETICAL_NO_AK) == 0.0
        # both are taken on the eigenvalues of G_W, whose product is mu^2/4
        # exactly here, where the triple's g1 g2 - g3^2/2 cancels to 2.2499...93
        spec = GaussianStateSpec(3.0, 7.0, phi=0.4, eta=0.3)
        d1, d2 = spec.mu / (2 * spec.lam), spec.mu * spec.lam / 2
        tr, det = d1 + d2, d1 * d2
        assert det == 2.25
        report = crb_report(spec, hypothetical=True)
        assert report.h_hom == 2 * tr * (tr + 3 * math.sqrt(det))
        assert report.h_het == 2 * (tr * tr - det)
        with pytest.raises(DomainError):
            delta_offset(0.5, SchemeKind.HYPOTHETICAL_NO_AK.value)

    def test_ratio_range_and_floor_location(self):
        # the ratio lives in [3/10, 1); the floor is met exactly at lam = 1
        # for every mu (it is independent of mu and eta with both offsets off)
        for spec in random_specs(200, seed=12):
            g = crb_report(spec, hypothetical=True).gamma
            assert 0.3 - 1e-12 <= g < 1.0
            if spec.lam > 1.0001:
                assert g > 0.3
        for mu in (1.0, 2.0, 7.0):
            assert crb_report(GaussianStateSpec(mu, 1.0), hypothetical=True).gamma == \
                pytest.approx(0.3, rel=1e-14)


class TestFisherMatrices:
    def test_hom_closed_inverse_trace_matches_bound(self):
        assert fisher_hom_closed(GaussianStateSpec(1.0, 2.0)).inverse_trace() == \
            pytest.approx(6.875, rel=1e-12)
        for spec in random_specs(200, seed=13):
            assert fisher_hom_closed(spec).inverse_trace() == \
                pytest.approx(crb_hom(spec), rel=1e-10)

    def test_hom_closed_isotropic_limit(self):
        spec = GaussianStateSpec(1.0, 1.0)
        f = fisher_hom_closed(spec)
        assert f.inverse_trace() == pytest.approx(5.0, rel=1e-12)
        # isotropic data covariance c*I has F = [[3,1,0],[1,3,0],[0,0,2]]/(16 c^2)
        ref = np.array([[3, 1, 0], [1, 3, 0], [0, 0, 2]]) / 4.0
        assert np.allclose(f.matrix, ref, rtol=1e-12)

    def test_het_matches_direct_fisher_formula(self):
        # independent oracle: F_kl = Tr(G^-1 Gamma_k G^-1 Gamma_l)/2
        gammas = [np.array([[1, 0], [0, 0.0]]), np.array([[0, 0], [0, 1.0]]),
                  np.array([[0, 1], [1, 0.0]]) / SQRT2]
        for spec in random_specs(100, seed=14, lam_max=30):
            g = effective_covariance(spec, SchemeKind.HETERODYNE).as_matrix()
            ginv = np.linalg.inv(g)
            ref = np.array([[0.5 * np.trace(ginv @ ga @ ginv @ gb) for gb in gammas]
                            for ga in gammas])
            f = fisher_het(spec).matrix
            assert np.allclose(f, ref, rtol=1e-9, atol=1e-12 * np.abs(ref).max())

    def test_het_diagonal_in_eigenframe(self):
        f = fisher_het(GaussianStateSpec(1.0, 2.0)).matrix
        ref = 0.5 * np.diag([1 / 0.75 ** 2, 1 / 1.5 ** 2, 1 / (0.75 * 1.5)])
        assert np.allclose(f, ref, rtol=1e-13)
        unit = fisher_het(GaussianStateSpec(1.0, 1.0)).matrix
        assert np.allclose(unit, 0.5 * np.eye(3), rtol=1e-13)

    def test_het_inverse_trace_matches_bound(self):
        for spec in random_specs(200, seed=15):
            assert fisher_het(spec).inverse_trace() == \
                pytest.approx(crb_het(spec), rel=1e-12)

    def test_positive_semidefinite(self):
        for spec in random_specs(50, seed=16):
            for f in (fisher_hom_closed(spec), fisher_het(spec),
                      fisher_hom_quadrature(spec, 128)):
                m = f.matrix
                assert np.linalg.eigvalsh(m).min() >= -1e-10 * np.abs(m).max()

    def test_beta_identity(self):
        # eigenvalue-gap form of the homodyne bound against the invariant form
        for spec in random_specs(200, seed=17):
            cov = effective_covariance(spec, SchemeKind.HOMODYNE)
            d1, d2 = cov.eigenvalues()
            if abs(d1 - d2) < 1e-8 * cov.trace:
                continue
            beta = (cov.trace + 2 * math.sqrt(cov.det)) / (d1 - d2)
            hhom = (d1 - d2) ** 2 / (4 * beta ** 2) * (5 * beta ** 4 + 4 * beta ** 2 - 1)
            assert hhom == pytest.approx(crb_hom(spec), rel=1e-10)


class TestQuadrature:
    def test_isotropic_case_converges_fast(self):
        f = fisher_hom_quadrature(GaussianStateSpec(1.0, 1.0), 64)
        assert f.inverse_trace() == pytest.approx(5.0, rel=1e-11)

    def test_matches_closed_form_entrywise(self):
        for spec in random_specs(150, seed=18):
            fq = fisher_hom_quadrature(spec, 256).matrix
            fc = fisher_hom_closed(spec).matrix
            scale = np.abs(fc).max()
            assert np.allclose(fq, fc, rtol=1e-8, atol=1e-8 * scale)

    def test_benchmark_inverse_trace(self):
        f = fisher_hom_quadrature(GaussianStateSpec(2.0, 10.0, eta=0.5), 256)
        assert f.inverse_trace() == pytest.approx(CRB_HOM_BENCH, rel=1e-6)

    def test_doubling_nodes_is_stable_once_converged(self):
        spec = GaussianStateSpec(2.0, 10.0, eta=0.5)
        a = fisher_hom_quadrature(spec, 512).matrix
        b = fisher_hom_quadrature(spec, 1024).matrix
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    def test_rejects_too_few_nodes(self):
        with pytest.raises(DomainError):
            fisher_hom_quadrature(GaussianStateSpec(1.0, 1.0), 4)

    def test_fixed_frame_matrix_equals_plain_trapezoid(self):
        # the eigenframe quadrature carried to the fixed frame by the basis
        # congruence, against a uniform trapezoid rule run in the fixed frame
        nodes = 4096
        theta = np.arange(nodes) * (math.pi / nodes)
        c, s = np.cos(theta), np.sin(theta)
        v = np.stack([c * c, s * s, SQRT2 * s * c])
        for spec in random_specs(20, seed=19, lam_max=30):
            g = effective_covariance(spec, SchemeKind.HOMODYNE)
            cvar = np.array([g.g1, g.g2, g.g3]) @ v
            ref = (v / (2 * cvar * cvar * nodes)) @ v.T
            f = fisher_hom_quadrature(spec, 256).matrix
            assert np.allclose(f, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


class TestGammaSurface:
    def test_hypothetical_floor_and_monotonicity(self):
        lams = list(np.geomspace(1, 1000, 25))
        mus = [1.0, 3.0, 10.0]
        table = gamma_surface(lams, mus, eta=1.0, hypothetical=True)
        assert table["gamma"][0] == pytest.approx(0.3, rel=1e-14)
        gammas = table["gamma"].reshape(len(lams), len(mus))
        assert np.all(np.diff(gammas, axis=0) >= -1e-14)   # nondecreasing in lambda
        assert np.all(np.abs(np.diff(gammas, axis=1)) <= 1e-14)  # constant in mu

    def test_real_mode_gap_at_unit_efficiency(self):
        table = gamma_surface([1.0, 2.0, 8.0], [1.0], eta=1.0)
        for h_hom, h_het in zip(table["h_hom"], table["h_het"]):
            assert h_het - h_hom == pytest.approx(1.0, rel=1e-12)

    def test_real_mode_benchmark_point(self):
        gamma = gamma_surface([10.0], [2.0], eta=0.5)["gamma"][0]
        assert gamma == pytest.approx(CRB_HET_BENCH / CRB_HOM_BENCH, rel=1e-13)
        assert gamma == pytest.approx(0.741, abs=5e-4)

    def test_row_major_ordering(self):
        table = gamma_surface([1.0, 2.0], [3.0, 4.0], eta=1.0)
        assert list(zip(table["lam"], table["mu"])) == \
            [(1.0, 3.0), (1.0, 4.0), (2.0, 3.0), (2.0, 4.0)]

    @pytest.mark.parametrize("hypothetical", [False, True])
    def test_grid_equals_scalar_reports_exactly(self, hypothetical):
        # the surface has no phi; its columns equal the scalar bounds at
        # phi = 2.2 bit for bit.  Hypothetical mode puts both closed forms at
        # offset 0, which the homodyne offset is at eta = 1
        lams, mus, phi = [0.05, 0.5, 1.0, 3.771, 250.0], [1.0, 1.736, 12.0], 2.2
        for eta in (0.05, 1.0):
            table = gamma_surface(lams, mus, eta, hypothetical=hypothetical)
            points = [(lam, mu) for lam in lams for mu in mus]
            assert len(table["gamma"]) == len(points)
            for i, (lam, mu) in enumerate(points):
                spec = GaussianStateSpec(mu, lam, phi, 1.0 if hypothetical else eta)
                if hypothetical:
                    d1, d2 = mu / (2 * lam), mu * lam / 2
                    h_het = 2 * ((d1 + d2) * (d1 + d2) - d1 * d2)
                else:
                    h_het = crb_het(spec)
                assert (table["lam"][i], table["mu"][i]) == (lam, mu)
                assert table["h_hom"][i] == crb_hom(spec)
                assert table["h_het"][i] == h_het
                assert table["gamma"][i] == h_het / crb_hom(spec)

    @pytest.mark.parametrize("hypothetical", [False, True])
    @pytest.mark.parametrize("eta", [5e-324, 1e-310, 1e-300, 2.0 ** -61, 0.5, 1.0])
    def test_bounds_beyond_the_float_range(self, hypothetical, eta):
        # a bound that overflows reads inf; gamma is still the ratio of the
        # closed forms in Tr and det, here taken in 60 digits
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60
        lams = [5e-324, 1e-300, 0.5, 3.0, 1e160, 1e300, 1.7e308]
        mus = [1.0, 1e100, 1e160, 1.7e308]
        table = gamma_surface(lams, mus, eta, hypothetical=hypothetical)

        def reference(lam, mu):
            lam, mu, e = mp.mpf(lam), mp.mpf(mu), mp.mpf(eta)
            t = (lam + 1 / lam) / 2
            dh, de = (0, 0) if hypothetical else ((1 - e) / (2 * e), (2 - e) / (2 * e))
            (th, dth), (te, dte) = ((mu * t + 2 * d, mu * mu / 4 + d * mu * t + d * d)
                                    for d in (dh, de))
            return 2 * th * (th + 3 * mp.sqrt(dth)), 2 * (te * te - dte)

        for lam, mu, h_hom, h_het, gamma in zip(*(table[k] for k in
                                                  ("lam", "mu", "h_hom", "h_het", "gamma"))):
            ref_hom, ref_het = reference(lam, mu)
            for got, want in ((h_hom, ref_hom), (h_het, ref_het)):
                if want > sys.float_info.max:
                    assert got == math.inf
                else:
                    assert got == pytest.approx(float(want), rel=1e-9)
            assert gamma == pytest.approx(float(ref_het / ref_hom), rel=1e-14)

    @pytest.mark.parametrize("lams, mus, eta", [
        ([1.0, 2.0], [1.0, 0.5], 1.0), ([1.0, -1.0], [1.0], 1.0),
        ([1.0], [1.0], 0.0), ([1.0], [1.0], 1.5), ([math.nan], [1.0], 1.0),
        ([1.0], [math.inf], 1.0)])
    def test_invalid_points_raise(self, lams, mus, eta):
        with pytest.raises(DomainError):
            gamma_surface(lams, mus, eta)

    def test_csv_layout_is_fixed_and_reproducible(self):
        cfg = {"experiment": "surface",
               "grid": {"lambda": [1.0, 3.0], "mu": [2.0], "eta": [0.5]}}
        text = run_experiment(cfg)[""]
        lines = text.splitlines()[1:]
        assert lines[0] == "lambda,mu,eta,h_hom,h_het,gamma,mode"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 1.0 and float(first[1]) == 2.0
        gamma = gamma_surface([1.0, 3.0], [2.0], eta=0.5)["gamma"][0]
        assert float(first[5]) == pytest.approx(gamma, rel=1e-16)
        assert text == run_experiment(cfg)[""]


class TestCriticalLambda:
    def test_no_crossing_for_minimum_uncertainty_perfect_detection(self):
        assert critical_lambda_for_gamma(1.0, 1.0) is None

    def test_no_crossing_when_ratio_starts_below_one(self):
        # at mu = 2, eta = 0.5 the ratio is below one already at lam = 1
        assert crb_report(GaussianStateSpec(2.0, 1.0, eta=0.5)).gamma < 1.0
        assert critical_lambda_for_gamma(2.0, 0.5) is None

    def test_root_satisfies_the_crossing_equation(self):
        for mu, eta in ((1.0, 0.5), (1.3, 0.5), (1.0, 0.8), (1.1, 0.3)):
            root = critical_lambda_for_gamma(mu, eta)
            assert root is not None
            assert crb_report(GaussianStateSpec(mu, root, eta=eta)).gamma == \
                pytest.approx(1.0, abs=1e-8)
            assert crb_report(GaussianStateSpec(mu, 1.0, eta=eta)).gamma > 1.0

    def test_known_crossing_location(self):
        # frozen from a bisection against the closed forms
        assert critical_lambda_for_gamma(1.0, 0.5) == pytest.approx(3.34398, abs=1e-4)

    def test_matches_doubling_bisection(self):
        # the search this closed form replaced: doubling bracket on [1, 1e6],
        # then bisection to an absolute width of 1e-9
        def bisection(mu, eta, tol=1e-9):
            def f(lam):
                return crb_report(GaussianStateSpec(mu=mu, lam=lam, eta=eta)).gamma - 1.0

            lo, flo = 1.0, f(1.0)
            if flo == 0.0:
                return 1.0
            hi = 2.0
            while hi <= 1e6:
                fhi = f(hi)
                if flo * fhi <= 0.0:
                    break
                lo, flo = hi, fhi
                hi *= 2.0
            else:
                return None
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fmid = f(mid)
                if fmid == 0.0:
                    return mid
                if flo * fmid < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            return 0.5 * (lo + hi)

        roots = 0
        for mu in np.linspace(1.0, 2.5, 13):
            for eta in np.linspace(0.05, 1.0, 12):
                want = bisection(float(mu), float(eta))
                got = critical_lambda_for_gamma(float(mu), float(eta))
                assert (got is None) == (want is None), (mu, eta, got, want)
                if want is not None:
                    roots += 1
                    assert got == pytest.approx(want, rel=1e-9)
        assert roots >= 20

    def test_returns_roots_beyond_the_old_search_cap(self):
        # the doubling search stopped at lambda = 2^19; the crossing runs off
        # to infinity as (mu, eta) -> (1, 1)
        root = critical_lambda_for_gamma(1.0 + 1e-9, 1.0)
        assert root == pytest.approx(6.6667e8, rel=1e-4)

    def test_matches_a_60_digit_solve_near_the_corner(self):
        # the crossing runs off to infinity as (mu, eta) -> (1, 1); the
        # reference squares gamma = 1 from the trace and determinant of each
        # scheme's data covariance, and solves the cubic in 60 digits
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60

        def times(a, b):
            out = [mp.mpf(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        def reference(mu, eta):
            mu, eta = mp.mpf(mu), mp.mpf(eta)
            dh, de = (1 - eta) / (2 * eta), (2 - eta) / (2 * eta)
            # polynomials in t = (lambda + 1/lambda)/2, highest power first
            trace = {d: [mu, 2 * d] for d in (dh, de)}
            det = {d: [d * mu, mu * mu / 4 + d * d] for d in (dh, de)}
            ell = [x - y - z for x, y, z in zip(times(trace[de], trace[de]),
                                                [0] + det[de],
                                                times(trace[dh], trace[dh]))][1:]
            lhs = [9 * c for c in times(times(trace[dh], trace[dh]), det[dh])]
            cubic = [x - y for x, y in zip(lhs, [0] + times(ell, ell))]
            while cubic[0] == 0:
                cubic.pop(0)
            ts = [mp.re(r) for r in mp.polyroots(cubic, maxsteps=200, extraprec=200)
                  if abs(mp.im(r)) < mp.mpf(10) ** -40 and mp.re(r) >= 1
                  and ell[0] * mp.re(r) + ell[1] >= 0]
            t = min(ts)
            return t + mp.sqrt(t * t - 1)

        for mu, eta in ((1.0 + 1e-9, 1.0), (1.0 + 1e-6, 1.0), (1.0 + 1e-5, 1.0 - 1e-9)):
            want = reference(mu, eta)
            got = critical_lambda_for_gamma(mu, eta)
            assert abs(got - want) / want <= 1e-12, (mu, eta, got, want)


class TestSmallEtaAsymptote:
    def test_exact_at_coherent_state(self):
        eta = 1e-4
        spec = GaussianStateSpec(1.0, 1.0, eta=eta)
        assert eta ** 2 * crb_het(spec) == pytest.approx(6.0, abs=1e-3)
        assert eta ** 2 * crb_hom(spec) == pytest.approx(5.0, abs=1e-3)

    def test_limits_are_state_independent(self):
        # eta^2 H tends to 6 and 5 with an O(eta) correction whose size
        # grows with the state; at eta = 1e-6 it is below 1e-3 for these
        eta = 1e-6
        for mu, lam in ((1.0, 1.0), (3.0, 7.0), (2.0, 25.0)):
            spec = GaussianStateSpec(mu, lam, eta=eta)
            assert eta ** 2 * crb_het(spec) == pytest.approx(6.0, abs=1e-3)
            assert eta ** 2 * crb_hom(spec) == pytest.approx(5.0, abs=1e-3)

    def test_gamma_limit_is_six_fifths(self):
        spec = GaussianStateSpec(1.0, 1.0, eta=1e-4)
        assert crb_het(spec) / crb_hom(spec) == pytest.approx(1.2, abs=1e-3)
        for mu, lam in ((3.0, 7.0), (2.0, 25.0)):
            spec = GaussianStateSpec(mu, lam, eta=1e-6)
            assert crb_het(spec) / crb_hom(spec) == pytest.approx(1.2, abs=1e-3)
