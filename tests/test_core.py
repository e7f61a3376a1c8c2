import math

import numpy as np
import pytest

from gausstomo import (Covariance2, DomainError, GaussianStateSpec, SchemeKind,
                       delta_offset, effective_covariance, squeezing_db,
                       wigner_covariance)

SQRT2 = math.sqrt(2.0)


def random_specs(n, seed=0, lam_max=50.0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield GaussianStateSpec(mu=float(rng.uniform(1, 10)),
                                lam=float(rng.uniform(1, lam_max)),
                                phi=float(rng.uniform(0, math.pi)),
                                eta=float(rng.uniform(0.05, 1.0)))


class TestCovariance2:
    def test_trace_det_closed_forms_match_matrix(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            g1, g2 = rng.uniform(0.1, 5, size=2)
            g3 = rng.uniform(-1, 1) * math.sqrt(2 * g1 * g2) * 0.9
            cov = Covariance2(g1, g2, g3)
            m = cov.as_matrix()
            assert cov.trace == pytest.approx(np.trace(m), rel=1e-14)
            assert cov.det == pytest.approx(np.linalg.det(m), rel=1e-12)
            assert cov.is_positive_definite()

    def test_eigenvalues_against_numpy(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g1, g2 = rng.uniform(0.1, 5, size=2)
            g3 = rng.uniform(-1, 1) * math.sqrt(2 * g1 * g2) * 0.9
            cov = Covariance2(g1, g2, g3)
            lo, hi = cov.eigenvalues()
            ref = np.linalg.eigvalsh(cov.as_matrix())
            assert lo == pytest.approx(ref[0], rel=1e-12)
            assert hi == pytest.approx(ref[1], rel=1e-12)


class TestSpecValidation:
    def test_rejects_unphysical_mu(self):
        with pytest.raises(DomainError):
            GaussianStateSpec(mu=0.5, lam=1.0)

    def test_mu_rounding_slack(self):
        GaussianStateSpec(mu=1.0 - 1e-13, lam=1.0)  # accepted

    @pytest.mark.parametrize("kwargs", [
        dict(mu=1.0, lam=0.0),
        dict(mu=1.0, lam=-2.0),
        dict(mu=1.0, lam=1.0, eta=0.0),
        dict(mu=1.0, lam=1.0, eta=1.5),
        dict(mu=1.0, lam=1.0, phi=math.pi),
        dict(mu=1.0, lam=1.0, phi=-0.1),
        dict(mu=math.inf, lam=1.0),
    ])
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(DomainError):
            GaussianStateSpec(**kwargs)


class TestWignerCovariance:
    def test_vacuum(self):
        cov = wigner_covariance(GaussianStateSpec(mu=1.0, lam=1.0))
        assert (cov.g1, cov.g2, cov.g3) == (0.5, 0.5, 0.0)

    def test_squeezed_reference_state(self):
        cov = wigner_covariance(GaussianStateSpec(mu=2.0, lam=10.0))
        assert cov.g1 == pytest.approx(0.1, rel=1e-15)
        assert cov.g2 == pytest.approx(10.0, rel=1e-15)
        assert cov.g3 == 0.0

    def test_rotated_by_quarter_pi(self):
        # hand rotation of (mu=1, lam=4): variances (1/8, 2) mixed at 45 degrees
        cov = wigner_covariance(GaussianStateSpec(mu=1.0, lam=4.0, phi=math.pi / 4))
        assert cov.g1 == pytest.approx(17 / 16, rel=1e-14)
        assert cov.g2 == pytest.approx(17 / 16, rel=1e-14)
        assert cov.g3 == pytest.approx(15 * SQRT2 / 16, rel=1e-14)
        assert cov.det == pytest.approx(0.25, rel=1e-13)

    def test_determinant_is_quarter_mu_squared(self):
        for spec in random_specs(300, seed=3):
            cov = wigner_covariance(spec)
            assert cov.det == pytest.approx(spec.mu ** 2 / 4, rel=1e-11)
            assert cov.det >= 0.25 * (1 - 1e-11)

    def test_canonicalization_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            spec = GaussianStateSpec(mu=float(rng.uniform(1, 5)),
                                     lam=float(rng.uniform(0.02, 0.999)),
                                     phi=float(rng.uniform(0, math.pi)),
                                     eta=1.0)
            # the same state with its axes swapped
            canon = GaussianStateSpec(spec.mu, 1.0 / spec.lam,
                                      (spec.phi + 0.5 * math.pi) % math.pi, spec.eta)
            a, b = wigner_covariance(spec), wigner_covariance(canon)
            assert a.g1 == pytest.approx(b.g1, rel=1e-11, abs=1e-13)
            assert a.g2 == pytest.approx(b.g2, rel=1e-11, abs=1e-13)
            assert a.g3 == pytest.approx(b.g3, rel=1e-10, abs=1e-11)

    def test_trace_det_invariant_under_phi(self):
        for phi in np.linspace(0, math.pi, 7, endpoint=False):
            spec = GaussianStateSpec(mu=3.0, lam=5.0, phi=float(phi), eta=0.7)
            cov = effective_covariance(spec, SchemeKind.HETERODYNE)
            ref = effective_covariance(GaussianStateSpec(mu=3.0, lam=5.0, eta=0.7),
                                       SchemeKind.HETERODYNE)
            assert cov.trace == pytest.approx(ref.trace, rel=1e-13)
            assert cov.det == pytest.approx(ref.det, rel=1e-12)


class TestEffectiveCovariance:
    def test_perfect_homodyne_has_no_offset(self):
        cov = effective_covariance(GaussianStateSpec(mu=1.0, lam=1.0), SchemeKind.HOMODYNE)
        assert (cov.g1, cov.g2) == (0.5, 0.5)

    def test_perfect_heterodyne_adds_half_vacuum(self):
        cov = effective_covariance(GaussianStateSpec(mu=1.0, lam=1.0), SchemeKind.HETERODYNE)
        assert (cov.g1, cov.g2) == (1.0, 1.0)

    def test_lossy_heterodyne(self):
        cov = effective_covariance(GaussianStateSpec(mu=2.0, lam=10.0, eta=0.5),
                                   SchemeKind.HETERODYNE)
        assert cov.g1 == pytest.approx(1.6, rel=1e-14)
        assert cov.g2 == pytest.approx(11.5, rel=1e-14)

    def test_hypothetical_scheme_is_bare_wigner(self):
        spec = GaussianStateSpec(mu=2.0, lam=3.0, eta=0.4)
        assert effective_covariance(spec, SchemeKind.HYPOTHETICAL_NO_AK) == \
            wigner_covariance(spec)

    def test_offset_identities(self):
        # delta_het exceeds delta_hom by the Q-function offset 1/(2 eta);
        # the gap is half a vacuum unit before the efficiency rescaling.
        for eta in (0.1, 0.3, 0.5, 0.8, 1.0):
            dh = delta_offset(eta, SchemeKind.HOMODYNE)
            dt = delta_offset(eta, SchemeKind.HETERODYNE)
            assert dt - dh == pytest.approx(1 / (2 * eta), rel=1e-14)
            assert eta * dt - eta * dh == pytest.approx(0.5, rel=1e-14)

    def test_scheme_gap_is_half_identity_at_perfect_detection(self):
        spec = GaussianStateSpec(mu=2.0, lam=7.0, phi=0.4, eta=1.0)
        hom = effective_covariance(spec, SchemeKind.HOMODYNE)
        het = effective_covariance(spec, SchemeKind.HETERODYNE)
        assert het.g1 - hom.g1 == pytest.approx(0.5, rel=1e-14)
        assert het.g2 - hom.g2 == pytest.approx(0.5, rel=1e-14)
        assert het.g3 == hom.g3


class TestSqueezingDb:
    def test_critical_pair_levels(self):
        sq, anti = squeezing_db(GaussianStateSpec(mu=1.736, lam=3.771))
        assert sq == pytest.approx(-3.369, abs=1e-3)
        assert anti == pytest.approx(8.160, abs=1e-3)

    def test_coherent_state_sits_at_shot_noise(self):
        assert squeezing_db(GaussianStateSpec(mu=1.0, lam=1.0)) == (0.0, 0.0)

    def test_direct_log_evaluation(self):
        sq, anti = squeezing_db(GaussianStateSpec(mu=2.0, lam=10.0))
        assert sq == pytest.approx(-6.9897, abs=1e-4)
        assert anti == pytest.approx(13.0103, abs=1e-4)


class TestRotateCovariance:
    def test_orientation_adds(self):
        # R G R^T, with R the counter-clockwise rotation by delta, turns the
        # principal angle by delta
        rng = np.random.default_rng(5)
        for _ in range(50):
            g1, g2 = rng.uniform(0.2, 4, size=2)
            cov = Covariance2(g1, g2, 0.0)
            delta = float(rng.uniform(0, math.pi))
            c, s = math.cos(delta), math.sin(delta)
            r = np.array([[c, -s], [s, c]])
            m = r @ cov.as_matrix() @ r.T
            rot = Covariance2(m[0, 0], m[1, 1], SQRT2 * m[0, 1])
            gap = (rot.principal_angle() - cov.principal_angle() - delta) % math.pi
            assert min(gap, math.pi - gap) < 1e-9
