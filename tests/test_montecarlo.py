"""Sampler correctness, estimator contracts, and reproducibility."""

import math

import numpy as np
import pytest
from scipy import stats

from fbsec import (
    FBParams,
    MCConfig,
    SecrecyConfig,
    closed_metrics,
    estimate,
    numeric_metrics,
    physical_model,
    sample_snr,
)
from fbsec.errors import ParameterError

from conftest import draw_params, EVE_REFERENCE


class TestPhysicalModel:
    def test_identities(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            m = physical_model(p)
            if m.q2 > 0:
                assert m.p2 / m.q2 == pytest.approx(p.rho2, rel=1e-12)
            assert (m.p2 + m.q2) / (p.mu * (m.sigma_x2 + 1.0)) == pytest.approx(
                p.kappa, rel=1e-12, abs=1e-15
            )
            assert m.mean_power == pytest.approx(p.mu * (1 + p.eta) * (1 + p.kappa), rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ParameterError, match="n_samples"):
            MCConfig(n_samples=100)
        with pytest.raises(ParameterError, match="n_streams"):
            MCConfig(n_streams=0)


class TestSampler:
    def test_gamma_reduction_distribution(self):
        p = FBParams(2, 1, 0, 1, 1, 1)
        rng = np.random.default_rng(11)
        snr = sample_snr(p, physical_model(p), rng, size=1_000_000)
        assert abs(snr.mean() - 1.0) < 3 * snr.std() / math.sqrt(len(snr))
        ks = stats.kstest(snr, stats.gamma(a=2, scale=0.5).cdf)
        assert ks.pvalue > 0.01

    def test_mean_equals_avg_snr(self, rng):
        for _ in range(6):
            p = draw_params(rng)
            snr = sample_snr(p, physical_model(p), rng, size=400_000)
            se = snr.std() / math.sqrt(len(snr))
            assert abs(snr.mean() - p.avg_snr) < 3 * se

    def test_scalar_draw(self, rng):
        p = draw_params(rng)
        val = sample_snr(p, physical_model(p), rng)
        assert isinstance(val, float) and val >= 0.0

    def test_cluster_splitting_invariance(self):
        # sampling per cluster with the dominant power split arbitrarily
        # must give the same law as the aggregate draw
        p = FBParams(3.0, 2.0, 1.5, 0.7, 0.4, 2.0)
        m = physical_model(p)
        n = 200_000
        rng = np.random.default_rng(21)

        def split_sampler(weights):
            weights = np.asarray(weights) / np.sum(weights)
            xi2 = rng.gamma(p.m, 1.0 / p.m, size=n)
            total = np.zeros(n)
            for w in weights:  # per-cluster pair of in-phase/quadrature parts
                jx = rng.poisson(xi2 * w * m.p2 / m.sigma_x2 / 2.0)
                total += m.sigma_x2 * rng.gamma(p.mu / len(weights) / 2.0 + jx, 2.0)
                jy = rng.poisson(xi2 * w * m.q2 / 2.0)
                total += rng.gamma(p.mu / len(weights) / 2.0 + jy, 2.0)
            return p.avg_snr * total / m.mean_power

        lopsided = split_sampler([0.9, 0.05, 0.05])
        even = split_sampler([1 / 3, 1 / 3, 1 / 3])
        ks = stats.ks_2samp(lopsided, even)
        assert ks.pvalue > 0.01


class TestEstimators:
    def test_identical_links_sop_half(self):
        p = FBParams(2.5, 1.5, 3.0, 0.5, 0.2, 10.0)
        est = estimate(p, p, SecrecyConfig(0.0), MCConfig(n_samples=1_000_000, seed=3))["sop"]
        assert abs(est.mean - 0.5) < 3 * est.std_error

    def test_case2_pair_brackets_closed_forms(self):
        bob = FBParams(4, 2, 1.5, 0.4, 0.3, 10**1.2)
        eve = FBParams(2, 1, 0.7, 2.0, 1.5, 10**0.3)
        cfg = MCConfig(n_samples=1_000_000, seed=17)
        scfg = SecrecyConfig(1.0)
        ests = estimate(bob, eve, scfg, cfg)
        closed_values = closed_metrics(bob, eve, scfg)
        checks = [(ests[k], closed_values[k]) for k in ("asc", "sop", "sopl", "spsc")]
        for est, closed in checks:
            assert abs(est.mean - closed) < 3 * est.std_error + 1e-9

    def test_positive_part_identity_matches_quadrature(self):
        bob = FBParams(2.5, 1.5, 3.0, 0.5, 0.2, 10**1.5)
        eve = FBParams(1.5, 1.5, 1.0, 0.1, 0.1, 10**0.5)
        est = estimate(bob, eve, SecrecyConfig(0.0), MCConfig(n_samples=2_000_000, seed=29))["asc"]
        numeric = numeric_metrics(bob, eve, SecrecyConfig(0.0), metrics=("asc",))[0]["asc"]
        assert abs(est.mean - numeric) < 3 * est.std_error

    def test_quoted_mid_snr_capacity_value(self):
        # both links mu=2.5 m=1.5 kappa=3 eta=0.5 rho2=0.2; 15 dB vs 7 dB
        bob = FBParams(2.5, 1.5, 3.0, 0.5, 0.2, 10**1.5)
        eve = FBParams(2.5, 1.5, 3.0, 0.5, 0.2, 10**0.7)
        est = estimate(bob, eve, SecrecyConfig(0.0), MCConfig(n_samples=1_000_000, seed=41))["asc"]
        tol = max(3 * est.std_error, 0.03 * 1.598)
        assert abs(est.mean - 1.598) < tol

    def test_spsc_is_complement_of_lower_bound(self):
        # all four metrics come from the same samples, so these relations
        # hold exactly, not only within sampling error
        p = FBParams(2, 1, 1.0, 0.5, 0.5, 10.0)
        q = FBParams(2, 1, 0.5, 2.0, 1.0, 3.0)
        cfg = MCConfig(n_samples=200_000, seed=9)
        at_zero = estimate(p, q, SecrecyConfig(0.0), cfg)
        low, pos = at_zero["sopl"], at_zero["spsc"]
        assert pos.mean == 1.0 - low.mean
        assert pos.std_error == low.std_error
        assert at_zero["sop"].mean == low.mean
        at_one = estimate(p, q, SecrecyConfig(1.0), cfg)
        assert at_one["sopl"].mean <= at_one["sop"].mean


class TestReproducibility:
    def test_bit_exact_repeat(self):
        cfg = MCConfig(n_samples=100_000, seed=123, n_streams=4)
        bob, eve = EVE_REFERENCE, EVE_REFERENCE.with_snr(1.0)
        a = estimate(bob, eve, SecrecyConfig(0.0), cfg)["asc"]
        b = estimate(bob, eve, SecrecyConfig(0.0), cfg)["asc"]
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_stream_layout_changes_draws_but_seed_pins_them(self):
        bob, eve = EVE_REFERENCE, EVE_REFERENCE.with_snr(1.0)
        scfg = SecrecyConfig(0.0)
        one = estimate(bob, eve, scfg, MCConfig(n_samples=50_000, seed=7, n_streams=1))["asc"]
        four = estimate(bob, eve, scfg, MCConfig(n_samples=50_000, seed=7, n_streams=4))["asc"]
        again = estimate(bob, eve, scfg, MCConfig(n_samples=50_000, seed=7, n_streams=4))["asc"]
        assert four.mean == again.mean
        assert one.mean != four.mean  # layout is part of the contract
