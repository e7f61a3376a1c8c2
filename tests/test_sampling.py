import math

import numpy as np
import pytest
from numpy.random import Philox

from gausstomo import (DomainError, GaussianStateSpec, NumericalError, SchemeKind,
                       SeedSpec, UniformGrid, effective_covariance, heterodyne_arrays,
                       homodyne_arrays, raw_words)
from gausstomo import sampling
from gausstomo.sampling import (_chi_square, _normals_in_place, _open_interval,
                                heterodyne_moments)

FIG5 = GaussianStateSpec(mu=2.0, lam=10.0, eta=0.5)
VACUUM = GaussianStateSpec(mu=1.0, lam=1.0)


class TestSeedSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            SeedSpec(-1)
        with pytest.raises(DomainError):
            SeedSpec(2 ** 64)
        with pytest.raises(DomainError):
            SeedSpec(1.5)  # type: ignore[arg-type]

    def test_stream_derivation(self):
        assert SeedSpec(9, 4).stream(3) == SeedSpec(9, 7)


class TestRawWords:
    def test_counter_block_addressing(self):
        # any window equals the same slice of the sequential stream
        seed = SeedSpec(123, 456)
        full = raw_words(seed, 0, 64)
        for start, count in ((0, 4), (1, 7), (5, 13), (30, 34), (63, 1)):
            window = raw_words(seed, start, count)
            assert np.array_equal(window, full[start:start + count])

    def test_matches_philox_reference(self):
        seed = SeedSpec(123, 456)
        ref = Philox(key=np.array([123, 456], dtype=np.uint64)).random_raw(8)
        assert np.array_equal(raw_words(seed, 0, 8), ref)

    def test_distinct_streams_share_no_blocks(self):
        a = raw_words(SeedSpec(7, 0), 0, 4096)
        b = raw_words(SeedSpec(7, 1), 0, 4096)
        assert not np.any(a == b)
        # and no shared 4-word subsequences anywhere in the window
        quads_a = {tuple(a[i:i + 4]) for i in range(0, 4096, 4)}
        quads_b = {tuple(b[i:i + 4]) for i in range(0, 4096, 4)}
        assert not quads_a & quads_b


class TestUniforms:
    def test_top_word_stays_below_one(self):
        # (2^53 - 1) 2^-53 + 2^-54 rounds to 1.0, where ndtri is +inf; the
        # mantissas are those Generator.random makes of the words
        def mantissas(*words):
            return (np.array(words, dtype=np.uint64) >> np.uint64(11)).astype(float) * 2.0 ** -53

        assert _open_interval(mantissas(2 ** 64 - 1))[0] == 1.0 - 2.0 ** -53
        assert np.isfinite(_normals_in_place(mantissas(2 ** 64 - 1))[0])
        # the next mantissa down keeps its value, so no other draw moves
        below = mantissas(2 ** 64 - 2 ** 11 - 1, 0)
        assert list(_open_interval(below)) == [1.0 - 2.0 ** -52, 2.0 ** -54]


class TestHomodyneSampling:
    def test_bit_identical_reruns(self):
        seed = SeedSpec(42, 7)
        t_a, x_a = homodyne_arrays(FIG5, 500, seed=seed)
        t_b, x_b = homodyne_arrays(FIG5, 500, seed=seed)
        assert np.array_equal(t_a, t_b)
        assert np.array_equal(x_a, x_b)

    def test_vacuum_variance(self):
        _, x = homodyne_arrays(VACUUM, 100_000, seed=SeedSpec(1))
        n = x.size
        var = float(np.mean(x * x))
        se = 0.5 * math.sqrt(2.0 / n)
        assert abs(var - 0.5) < 3 * se

    def test_angle_bin_variance_matches_marginal(self):
        # around theta = 0 the marginal variance is g1 + delta_hom = 0.6
        thetas, x = homodyne_arrays(FIG5, 400_000, seed=SeedSpec(2))
        sel = (thetas < 0.01) | (thetas > math.pi - 0.01)
        xs = x[sel]
        assert xs.size > 1500
        var = float(np.mean(xs * xs))
        se = 0.6 * math.sqrt(2.0 / xs.size)
        assert abs(var - 0.6) < 3 * se + 0.01  # small smear from the 0.01 bin width

    def test_sweep_angles_are_uniform(self):
        thetas, _ = homodyne_arrays(VACUUM, 50_000, seed=SeedSpec(3))
        assert thetas.min() >= 0.0 and thetas.max() < math.pi
        hist, _ = np.histogram(thetas, bins=10, range=(0, math.pi))
        assert hist.min() > 4500  # ~5000 expected per bin

    def test_uniform_grid_cycles_balanced(self):
        d = 7
        thetas, _ = homodyne_arrays(VACUUM, 100, UniformGrid(d), seed=SeedSpec(4))
        expected = np.array([(k % d) * math.pi / d for k in range(100)])
        assert np.array_equal(thetas, expected)
        counts = np.unique(thetas, return_counts=True)[1]
        assert counts.max() - counts.min() <= 1

    @pytest.mark.parametrize("d", [2 ** 63, 10 ** 30, 2 ** 1100], ids=["2^63", "10^30", "2^1100"])
    def test_uniform_grid_beyond_int64(self, d):
        # n < d, so no index is reduced mod d; a d beyond the float range is
        # scaled down by a power of two, exactly so for d = 2^1100
        thetas, _ = homodyne_arrays(VACUUM, 4, UniformGrid(d), seed=SeedSpec(4))
        want = [math.ldexp(math.pi * j, -1100) if d == 2 ** 1100 else math.pi * j / d
                for j in range(4)]
        assert thetas.tolist() == want

    def test_grid_policy_validation(self):
        with pytest.raises(DomainError):
            UniformGrid(0)

    def test_rejects_empty_run(self):
        with pytest.raises(DomainError):
            homodyne_arrays(VACUUM, 0)
        with pytest.raises(DomainError):
            heterodyne_arrays(VACUUM, 0)


class TestHeterodyneSampling:
    def test_bit_identical_reruns(self):
        seed = SeedSpec(11, 3)
        x_a, p_a = heterodyne_arrays(FIG5, 200, seed)
        x_b, p_b = heterodyne_arrays(FIG5, 200, seed)
        assert np.array_equal(x_a, x_b)
        assert np.array_equal(p_a, p_b)

    def test_vacuum_sample_covariance(self):
        x, p = heterodyne_arrays(GaussianStateSpec(1.0, 1.0), 100_000, SeedSpec(6, 5))
        n = x.size
        for moment, target in ((np.mean(x * x), 1.0), (np.mean(p * p), 1.0)):
            assert abs(float(moment) - target) < 3 * target * math.sqrt(2 / n)
        corr = float(np.mean(x * p))
        assert abs(corr) < 3 / math.sqrt(n)

    def test_squeezed_sample_covariance(self):
        x, p = heterodyne_arrays(FIG5, 100_000, SeedSpec(7))
        n = x.size
        cov = effective_covariance(FIG5, SchemeKind.HETERODYNE)
        assert abs(float(np.mean(x * x)) - cov.g1) < 3 * cov.g1 * math.sqrt(2 / n)
        assert abs(float(np.mean(p * p)) - cov.g2) < 3 * cov.g2 * math.sqrt(2 / n)
        corr = float(np.mean(x * p))
        assert abs(corr) < 3 * math.sqrt(cov.g1 * cov.g2 / n)

    def test_rotated_state_correlation(self):
        spec = GaussianStateSpec(2.0, 10.0, phi=math.pi / 4, eta=0.5)
        cov = effective_covariance(spec, SchemeKind.HETERODYNE)
        x, p = heterodyne_arrays(spec, 200_000, SeedSpec(8))
        m12 = float(np.mean(x * p))
        target = cov.g3 / math.sqrt(2)
        assert abs(m12 - target) < 3 * math.sqrt(cov.g1 * cov.g2 / x.size) + 0.02

    def test_unbiasedness_over_trials(self):
        # mean of the (1/n) sum z z^T estimator converges entrywise to G_het
        spec = GaussianStateSpec(1.0, 2.0, eta=0.8)
        cov = effective_covariance(spec, SchemeKind.HETERODYNE)
        trials, n = 2000, 100
        acc = np.zeros(3)
        for t in range(trials):
            x, p = heterodyne_arrays(spec, n, SeedSpec(9, t))
            acc += [np.mean(x * x), np.mean(p * p), np.mean(x * p)]
        acc /= trials
        for value, target in zip(acc, (cov.g1, cov.g2, 0.0)):
            se = max(target, 1.0) * math.sqrt(2 / (n * trials))
            assert abs(value - target) < 4 * se


def _z_of_mean(values: np.ndarray, mean: float) -> float:
    return (values.mean() - mean) / (values.std() / math.sqrt(values.size))


def _z_of_variance(values: np.ndarray, variance: float) -> float:
    # the standard error of a sample variance from the sample's 4th moment
    d2 = (values - values.mean()) ** 2
    return (d2.mean() - variance) / math.sqrt(d2.var() / values.size)


class TestHeterodyneMoments:
    # upper-tail probabilities from both ends of the uniforms that
    # _open_interval reaches, [2^-54, 1 - 2^-53], and from the middle
    TAILS = [2.0 ** -54, 2.0 ** -40, 1e-9, 1e-3, 0.25, 0.5 - 2.0 ** -53,
             0.5 + 2.0 ** -53, 0.75, 1 - 1e-3, 1 - 1e-9, 1 - 2.0 ** -40, 1 - 2.0 ** -53]

    @pytest.mark.parametrize("dof", [2, 3, 50, 10 ** 5, 10 ** 6, 10 ** 7, 10 ** 9])
    def test_chi_square_inversion_matches_mpmath(self, dof):
        # up to 10^5 degrees of freedom scipy's inversion alone, past it the
        # refined lower tail; the quantile's relative error is the tail's
        # error over h times the gamma density at h = x/2
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 30
        a = mp.mpf(dof) / 2
        for q, x in zip(self.TAILS, _chi_square(dof, np.array(self.TAILS))):
            h = mp.mpf(float(x)) / 2
            if q > 0.5:
                tail = (mp.exp(a * mp.log(h) - h - mp.loggamma(a + 1))
                        * mp.hyp1f1(1, a + 1, h, maxterms=10 ** 7))
                error = tail - (1 - mp.mpf(q))
            else:
                error = mp.gammainc(a, h, mp.inf, regularized=True) - q
            density = mp.exp((a - 1) * mp.log(h) - h - mp.loggamma(a))
            assert abs(error) / (density * h) <= 5e-15, (q, x)

    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_agrees_in_distribution_with_per_sample_draw(self, phi):
        # n S is Wishart(G, n): n S11/G11 and n S22/G22 are chi^2_n, and
        # S12 has mean G12 and variance (G12^2 + G11 G22)/n; at phi = 0,
        # n S22/G22 is c2^2 + n21^2 alone
        spec = GaussianStateSpec(2.0, 10.0, phi=phi, eta=0.5)
        cov = effective_covariance(spec, SchemeKind.HETERODYNE)
        g11, g22, g12 = cov.g1, cov.g2, cov.g3 / math.sqrt(2)
        n, trials = 50, 4000
        seeds = [SeedSpec(61, t) for t in range(trials)]
        x, p = map(np.stack, zip(*(heterodyne_arrays(spec, n, seed) for seed in seeds)))
        routes = {"per-sample": (np.mean(x * x, axis=1), np.mean(p * p, axis=1),
                                 np.mean(x * p, axis=1)),
                  "bartlett": heterodyne_moments(spec, n, seeds)}
        for route, (s11, s22, s12) in routes.items():
            for values, mean, variance in ((n * s11 / g11, n, 2 * n),
                                           (n * s22 / g22, n, 2 * n),
                                           (s12, g12, (g12 * g12 + g11 * g22) / n)):
                assert abs(_z_of_mean(values, mean)) < 4, route
                assert abs(_z_of_variance(values, variance)) < 4, route

    @pytest.mark.parametrize("n", [50, 10 ** 7])
    def test_block_rows_equal_single_draws(self, n):
        # at 10^7 the lower-tail variates are refined in groups of 64
        seeds = [SeedSpec(62, t) for t in range(150)]
        block = heterodyne_moments(FIG5, n, seeds)
        for k in range(0, 150, 7):
            single = heterodyne_moments(FIG5, n, [seeds[k]])
            assert [m[k] for m in block] == [m[0] for m in single]

    def test_rejects_too_few_or_too_many_samples(self):
        with pytest.raises(DomainError):
            heterodyne_moments(FIG5, 1, [SeedSpec(0)])
        with pytest.raises(NumericalError):
            heterodyne_moments(FIG5, 2 ** 53 + 1, [SeedSpec(0)])

    @pytest.mark.parametrize("limit", ["_SERIES_TERMS", "_REFINE_STEPS"])
    def test_unsettled_refinement_raises(self, monkeypatch, limit):
        monkeypatch.setattr(sampling, limit, 0)
        with pytest.raises(NumericalError):
            heterodyne_moments(FIG5, 10 ** 7, [SeedSpec(63, t) for t in range(8)])
