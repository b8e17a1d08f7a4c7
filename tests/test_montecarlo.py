"""Sampler correctness, estimator contracts, and reproducibility."""

import math
import os
import threading

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
from fbsec import montecarlo
from fbsec.errors import DomainError, ParameterError
from fbsec.montecarlo import _POISSON_MEAN_MAX, _scaled_noncentral_chi2, _stream_rng

from conftest import draw_params, EVE_REFERENCE


def poisson_mixture_snr(p, rng, n, weights=(1.0,)):
    """SNR draws built per cluster group from Poisson-mixture noncentral
    chi-squares, with the dominant power split over the groups by ``weights``."""
    m = physical_model(p)
    weights = np.asarray(weights) / np.sum(weights)
    xi2 = rng.gamma(p.m, 1.0 / p.m, size=n)
    total = np.zeros(n)
    for w in weights:  # per-cluster pair of in-phase/quadrature parts
        jx = rng.poisson(xi2 * w * m.p2 / m.sigma_x2 / 2.0)
        total += m.sigma_x2 * rng.gamma(p.mu / len(weights) / 2.0 + jx, 2.0)
        jy = rng.poisson(xi2 * w * m.q2 / 2.0)
        total += rng.gamma(p.mu / len(weights) / 2.0 + jy, 2.0)
    return p.avg_snr * total / m.mean_power


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
        bad = [
            ("n_samples", dict(n_samples=100)),
            ("n_streams", dict(n_streams=0)),
            ("n_streams", dict(n_streams=2.5)),
            ("seed", dict(seed=1.5)),
            ("n_samples", dict(n_samples=1e5)),
            ("seed: must be >= 0", dict(seed=-1)),  # as numpy's own seeding; -1 once aliased 2^64 - 1
        ]
        for field, kwargs in bad:
            with pytest.raises(ParameterError, match=field):
                MCConfig(**kwargs)


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

    def test_cluster_splitting_invariance(self):
        # sampling per cluster with the dominant power split arbitrarily
        # must give the same law as the aggregate draw, and so must the
        # library's sampler
        p = FBParams(3.0, 2.0, 1.5, 0.7, 0.4, 2.0)
        n = 200_000
        rng = np.random.default_rng(21)
        lopsided = poisson_mixture_snr(p, rng, n, [0.9, 0.05, 0.05])
        even = poisson_mixture_snr(p, rng, n, [1 / 3, 1 / 3, 1 / 3])
        ks = stats.ks_2samp(lopsided, even)
        assert ks.pvalue > 0.01
        library = sample_snr(p, physical_model(p), rng, size=n)
        assert stats.ks_2samp(library, even).pvalue > 0.01

    @pytest.mark.parametrize("nu", [0.6, 1.0, 1.5, 2.0, 6.5])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 12.0])
    def test_noncentral_chi2_against_scipy(self, nu, lam):
        # both constructions (nu < 1 and nu >= 1), the nu = 1 edge where
        # the central part vanishes, and a zero noncentrality (kappa = 0)
        sigma2 = 0.3
        rng = np.random.default_rng(31)
        shift = np.full(100_000, math.sqrt(lam * sigma2))
        draws = _scaled_noncentral_chi2(rng, nu, sigma2, shift)
        assert stats.kstest(draws, stats.ncx2(nu, lam, scale=sigma2).cdf).pvalue > 0.01

    @pytest.mark.parametrize(
        "p",
        [
            FBParams(1.0, 1e6, 1.5, 0.3, 0.64, 100.0),  # stiff Beckmann surrogate
            FBParams(0.3, 0.4, 20.0, 150.0, 0.002, 10.0),  # wide-box link, mu < 1
        ],
        ids=["stiff", "mu0.3"],
    )
    def test_matches_poisson_mixture(self, p):
        rng = np.random.default_rng(37)
        library = sample_snr(p, physical_model(p), rng, size=200_000)
        reference = poisson_mixture_snr(p, rng, 200_000)
        assert stats.ks_2samp(library, reference).pvalue > 0.01


class TestStreams:
    """The generators ``estimate`` draws from, not numpy's default one."""

    @pytest.mark.parametrize(
        "p",
        [
            FBParams(2.5, 1.5, 3.0, 0.5, 0.2, 10.0),  # nu >= 1: one normal and one gamma per part
            FBParams(0.6, 2.0, 5.0, 0.4, 0.3, 3.0),  # nu < 1: the Poisson mixture
        ],
        ids=["mu2.5", "mu0.6"],
    )
    def test_stream_draws_match_poisson_mixture(self, p):
        # every (stream, role) of one seed, pooled, against the reference law
        model = physical_model(p)
        pooled = np.concatenate(
            [sample_snr(p, model, _stream_rng(4, stream, role), size=25_000) for stream in range(4) for role in (0, 1)]
        )
        reference = poisson_mixture_snr(p, np.random.default_rng(43), 200_000)
        assert stats.ks_2samp(pooled, reference).pvalue > 0.01

    def test_first_draws_distinct_per_stream_and_role(self):
        for seed in (0, 12345, 2**64 - 1, 2**64 + 5):
            firsts = {tuple(_stream_rng(seed, stream, role).bit_generator.random_raw(2))
                      for stream in range(16) for role in (0, 1)}
            assert len(firsts) == 32

    def test_seeds_past_64_bits_do_not_alias(self):
        bob, eve = EVE_REFERENCE.with_snr(10.0), EVE_REFERENCE
        scfg = SecrecyConfig(1.0)
        for a, b in ((5, 5 + 2**64), (2**64 - 1, 2**65 - 1)):
            ea = estimate(bob, eve, scfg, MCConfig(n_samples=20_000, seed=a))["asc"]
            eb = estimate(bob, eve, scfg, MCConfig(n_samples=20_000, seed=b))["asc"]
            assert (ea.seed, eb.seed) == (a, b)
            assert ea.mean != eb.mean


class TestPoissonLimit:
    # eta = 1e-16 puts the in-phase noncentrality of this mu < 1 link near
    # 2e20 at unit shadowing, past what numpy's Poisson sampler takes
    PAST = FBParams(0.5, 1.0, 1e4, 1e-16, 1e4, 10.0)

    def test_sampler_refuses_past_the_limit(self):
        rng = np.random.default_rng(1)
        below = np.full(4, math.sqrt(0.99 * _POISSON_MEAN_MAX))  # sigma2 = 0.5: the mean is shift^2
        assert np.all(_scaled_noncentral_chi2(rng, 0.5, 0.5, below) > 0.0)
        past = np.full(4, math.sqrt(1.01 * _POISSON_MEAN_MAX))
        with pytest.raises(DomainError, match="past numpy's limit"):
            _scaled_noncentral_chi2(rng, 0.5, 0.5, past)

    @pytest.mark.parametrize("role", ["Bob", "Eve"])
    def test_estimate_names_the_link(self, role):
        other = EVE_REFERENCE
        bob, eve = (self.PAST, other) if role == "Bob" else (other, self.PAST)
        with pytest.raises(DomainError, match=f"the {role} link FBParams\\(mu=0.5, .*eta=1e-16.*noncentrality"):
            estimate(bob, eve, SecrecyConfig(0.0), MCConfig(n_samples=10_000))

    def test_refusal_does_not_depend_on_worker_count(self, monkeypatch):
        # every stream fails; the error raised is the lowest stream's
        messages = set()
        for cpus in (1, 3):
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
            with pytest.raises(DomainError) as info:
                estimate(self.PAST, self.PAST, SecrecyConfig(0.0), MCConfig(n_samples=30_000, n_streams=3))
            messages.add(str(info.value))
        assert len(messages) == 1


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

    @pytest.mark.parametrize("cpus", [None, 5], ids=["default", "five"])
    def test_results_do_not_depend_on_worker_count(self, monkeypatch, cpus):
        bob, eve = EVE_REFERENCE.with_snr(10.0), EVE_REFERENCE
        scfg = SecrecyConfig(1.0)

        def fingerprint(n_streams):
            ests = estimate(bob, eve, scfg, MCConfig(n_samples=30_000, seed=7, n_streams=n_streams))
            return {k: (e.mean.hex(), e.std_error.hex()) for k, e in ests.items()}

        serial = {}  # one worker
        with monkeypatch.context() as mp:
            mp.setattr(montecarlo, "_usable_cpus", lambda: 1)
            for n_streams in (1, 3, 8):
                serial[n_streams] = fingerprint(n_streams)
        if cpus is not None:
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        for n_streams in (1, 3, 8):
            assert fingerprint(n_streams) == serial[n_streams]

    def test_workers_capped_by_cpu_count(self, monkeypatch):
        requested = []

        class InlineThread:
            # records the request and runs the work on start, so no
            # operating-system thread is started
            def __init__(self, target, args, name=None):
                self.target, self.args = target, args
                requested.append(name)

            def start(self):
                self.target(*self.args)

            def join(self):
                pass

        monkeypatch.setattr(montecarlo, "Thread", InlineThread)
        cfg = MCConfig(n_samples=10_000, seed=3, n_streams=10_000)
        est = estimate(EVE_REFERENCE, EVE_REFERENCE, SecrecyConfig(0.0), cfg)["sop"]
        assert est.n == 10_000 and 0.0 < est.mean < 1.0
        assert 1 + len(requested) <= (os.cpu_count() or 1)

    def test_worker_failure_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        orig = montecarlo.sample_snr

        def failing(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            return orig(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "sample_snr", failing)
        with pytest.raises(RuntimeError, match="worker failed"):
            estimate(EVE_REFERENCE, EVE_REFERENCE, SecrecyConfig(0.0), MCConfig(n_samples=10_000, n_streams=2))
