"""Parameter validation, derived constants, and classical-family embeddings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import fbsec
from fbsec import FBParams, derive, merge_rate_groups
from fbsec.errors import ParameterError

from conftest import EVE_REFERENCE


def normalization_residual(dp, snr):
    prod = complex(1.0)
    for rate, a in zip(dp.theta_rates, dp.exponents):
        prod *= (rate / snr) ** (-a)
    return abs(dp.omega_norm * prod - 1.0)


class TestValidation:
    @pytest.mark.parametrize(
        "field,bad",
        [("mu", 0.0), ("m", -1.0), ("eta", 0.0), ("kappa", -0.1), ("rho2", -2.0), ("avg_snr", 0.0)],
    )
    def test_rejects_out_of_range(self, field, bad):
        kw = dict(mu=2.0, m=1.0, kappa=0.5, eta=1.0, rho2=1.0, avg_snr=1.0)
        kw[field] = bad
        with pytest.raises(ParameterError, match=field):
            FBParams(**kw)

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError, match="mu"):
            FBParams(mu=math.nan, m=1, kappa=0, eta=1, rho2=1, avg_snr=1)

    def test_is_case2(self):
        assert FBParams(2, 1, 0, 1, 1, 1).is_case2()
        assert FBParams(4, 3, 2, 0.5, 0.5, 1).is_case2()
        assert not FBParams(2.5, 1, 0, 1, 1, 1).is_case2()
        assert not FBParams(2, 1.5, 0, 1, 1, 1).is_case2()


class TestDerive:
    def test_gamma_reduction_constants(self):
        dp = derive(FBParams(2, 1, 0, 1, 1, 1))
        assert dp.alpha2 == pytest.approx(0.25, rel=1e-14)
        assert dp.c1 == pytest.approx(2.0)
        assert dp.c2 == pytest.approx(2.0)
        assert np.allclose(dp.theta_rates, 2.0)
        assert dp.omega_norm == pytest.approx(4.0, rel=1e-13)
        assert dp.n_groups == 2
        merged = merge_rate_groups(dp.theta_rates, dp.exponents)
        assert len(merged) == 1
        assert merged[0][0] == pytest.approx(2.0)
        assert merged[0][1] == pytest.approx(2.0)

    def test_gamma_reduction_normalization(self):
        dp = derive(FBParams(2, 1, 0, 1, 1, 1))
        assert normalization_residual(dp, 1.0) < 1e-12

    def test_fig4_bob_constants(self):
        # mu=2.5 m=1.5 kappa=3 eta=0.5 rho2=0.2 at 15 dB
        p = FBParams(2.5, 1.5, 3.0, 0.5, 0.2, 10**1.5)
        dp = derive(p)
        assert dp.exponents.sum() == pytest.approx(2.5, rel=1e-12)
        assert dp.c1 * dp.c2 == pytest.approx(1.0 / dp.alpha1, rel=1e-12)
        assert dp.c1 + dp.c2 == pytest.approx(-dp.beta / dp.alpha1, rel=1e-12)
        assert dp.n_groups == 4

    def test_n_groups_drops_zero_exponents(self):
        assert derive(FBParams(4, 2, 1, 0.5, 0.5, 1)).n_groups == 2
        assert derive(FBParams(4, 1, 1, 0.5, 0.5, 1)).n_groups == 4

    def test_normalization_and_vieta_on_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            mu = float(np.exp(rng.uniform(np.log(0.5), np.log(8))))
            m = float(np.exp(rng.uniform(np.log(0.5), np.log(10))))
            kappa = float(rng.uniform(0, 10))
            eta = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            rho2 = float(rng.uniform(0, 10))
            p = FBParams(mu, m, kappa, eta, rho2, float(np.exp(rng.uniform(0, 5))))
            dp = derive(p)
            assert normalization_residual(dp, p.avg_snr) < 1e-8
            assert abs(dp.c1 * dp.c2 - 1.0 / dp.alpha1) <= 1e-12 * abs(1.0 / dp.alpha1)
            assert abs((dp.c1 + dp.c2) - (-dp.beta / dp.alpha1)) <= 1e-12 * abs(dp.beta / dp.alpha1)
            # roots always come out real (non-negative discriminant)
            assert abs(dp.c1.imag) <= 1e-9 * abs(dp.c1)
            if dp.c1 != dp.c2:
                assert dp.c1.conjugate() == pytest.approx(dp.c1)  # real

    @given(
        mu=st.floats(0.5, 8.0), m=st.floats(0.5, 10.0), kappa=st.floats(0.0, 10.0),
        eta=st.floats(0.1, 10.0), rho2=st.floats(0.0, 10.0), snr=st.floats(0.01, 1e4),
    )
    @settings(max_examples=200, deadline=None)
    def test_derive_total_and_deterministic(self, mu, m, kappa, eta, rho2, snr):
        p = FBParams(mu, m, kappa, eta, rho2, snr)
        d1, d2 = derive(p), derive(p)
        assert np.array_equal(d1.theta_rates, d2.theta_rates)
        assert d1.omega_norm == d2.omega_norm
        assert np.all(np.isfinite(d1.theta_rates))
        assert d1.exponents.sum() == pytest.approx(mu, rel=1e-12)

    @given(
        rates=st.lists(st.floats(0.1, 50.0), min_size=1, max_size=6),
        exps=st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_preserves_exponent_mass(self, rates, exps):
        rates = (rates * 6)[:6]
        merged = merge_rate_groups(rates, exps)
        kept = sum(a for _, a in merged)
        # dropped groups carry |net| <= 1e-9 each, at most 6 of them
        assert abs(kept - sum(exps)) <= 6e-9 + 1e-9 * sum(abs(e) for e in exps)
        for rate, _ in merged:
            assert min(abs(rate - r) for r in rates) <= 1e-6 * max(abs(rate), 1.0)

    def test_kappa_zero_makes_m_and_rho2_inert(self):
        def canon(m, rho2):
            dp = derive(FBParams(3.0, m, 0.0, 0.4, rho2, 2.0))
            groups = sorted(dp.merged_rates(), key=lambda g: g[0].real)
            return groups

        ref = canon(0.7, 0.3)
        for m in (3.0, 50.0):
            for rho2 in (0.0, 5.0):
                got = canon(m, rho2)
                assert len(got) == len(ref)
                for (r1, a1), (r2, a2) in zip(ref, got):
                    assert abs(r1 - r2) <= 1e-12 * abs(r1)
                    assert abs(a1 - a2) <= 1e-12 * max(1.0, abs(a1))


def kappa_mu_shadowed_pdf(g, kappa, mu, m, snr):
    """Independent density oracle from the standard hypergeometric form."""
    g = np.asarray(g, dtype=float)
    front = (mu**mu * m**m * (1 + kappa) ** mu) / (special.gamma(mu) * snr * (mu * kappa + m) ** m)
    z = mu**2 * kappa * (1 + kappa) * g / ((mu * kappa + m) * snr)
    return front * (g / snr) ** (mu - 1) * np.exp(-mu * (1 + kappa) * g / snr) * special.hyp1f1(m, mu, z)


class TestReductions:
    def test_kappa_mu_shadowed_gamma_case(self):
        p = fbsec.from_kappa_mu_shadowed(0.0, 2.0, 1.0, 1.0)
        exp = fbsec.link_expansion(p)
        g = np.linspace(0.05, 6.0, 40)
        assert np.allclose(fbsec.pdf_case2(exp, g), stats.gamma.pdf(g, a=2, scale=0.5), atol=1e-12)

    def test_kappa_mu_shadowed_oracle_pointwise(self):
        p = fbsec.from_kappa_mu_shadowed(2.0, 2.0, 3.0, 1.0)
        exp = fbsec.link_expansion(p)
        g = np.linspace(0.02, 8.0, 60)
        oracle = kappa_mu_shadowed_pdf(g, 2.0, 2.0, 3.0, 1.0)
        assert np.max(np.abs(fbsec.pdf_case2(exp, g) - oracle)) < 1e-9

    def test_eta_forced_to_one_is_a_different_law(self):
        # negative control: the embedding must not silently coincide with
        # the eta=0.1 eavesdropper law
        forced = fbsec.from_kappa_mu_shadowed(1.0, 1.5, 1.5, 10**0.5)
        dp_forced = derive(forced)
        dp_ref = derive(EVE_REFERENCE)
        g = 2.0
        a = fbsec.pdf_numeric(dp_forced, forced.avg_snr, g)
        b = fbsec.pdf_numeric(dp_ref, EVE_REFERENCE.avg_snr, g)
        assert abs(a - b) > 1e-3

    def test_nakagami_pdf_value(self):
        p = fbsec.from_nakagami(2.0, 1.0)
        exp = fbsec.link_expansion(p)
        assert fbsec.pdf_case2(exp, 1.0) == pytest.approx(4 * math.exp(-2), rel=1e-10)

    def test_nakagami_cdf_oracle(self):
        p = fbsec.from_nakagami(3.0, 2.0)
        exp = fbsec.link_expansion(p)
        g = np.linspace(0.0, 12.0, 50)
        assert np.max(np.abs(fbsec.cdf_case2(exp, g) - stats.gamma.cdf(g, a=3, scale=2 / 3))) < 1e-10

    def test_rayleigh_cdf(self):
        p = fbsec.from_rayleigh(1.0)
        exp = fbsec.link_expansion(p)
        g = np.linspace(0.0, 10.0, 50)
        assert np.max(np.abs(fbsec.cdf_case2(exp, g) - (1 - np.exp(-g)))) < 1e-10

    def test_nakagami_shadowing_parameter_is_inert(self):
        base = fbsec.from_nakagami(2.0, 1.0)
        alt = FBParams(mu=2.0, m=3.7, kappa=0.0, eta=1.0, rho2=1.0, avg_snr=1.0)
        ga = np.linspace(0.1, 5, 20)
        pa = fbsec.pdf_case2(fbsec.link_expansion(base), ga)
        pb = fbsec.pdf_case2(fbsec.link_expansion(alt), ga)
        assert np.allclose(pa, pb, rtol=1e-10, atol=1e-12)

    def test_beckmann_rayleigh_limit(self):
        p = fbsec.from_beckmann(0.0, 1.0, 1.0, 1.0, m_large=1e6)
        dp = derive(p)
        g = np.linspace(0.05, 8.0, 30)
        got = fbsec.cdf_numeric(dp, 1.0, g)
        assert np.max(np.abs(got - (1 - np.exp(-g)))) < 1e-6

    def test_beckmann_against_direct_sampler(self):
        K, q, r = 1.0, 0.5, 1.0
        n = 400_000
        rng = np.random.default_rng(99)
        q2 = K * (1 + q) / (1 + r**2)
        p2 = r**2 * q2
        x = rng.normal(math.sqrt(p2), math.sqrt(q), size=n)
        y = rng.normal(math.sqrt(q2), 1.0, size=n)
        snr = (x**2 + y**2) / ((1 + q) * (1 + K))
        p = fbsec.from_beckmann(K, q, r, 1.0, m_large=1e6)
        dp = derive(p)
        deciles = np.quantile(snr, np.arange(0.1, 0.91, 0.1))
        cdf_vals = fbsec.cdf_numeric(dp, 1.0, deciles)
        for prob, c in zip(np.arange(0.1, 0.91, 0.1), cdf_vals):
            se = math.sqrt(prob * (1 - prob) / n)
            assert abs(c - prob) < 3 * se

    def test_beckmann_surrogate_converged(self):
        g = np.linspace(0.2, 4.0, 9)
        lo = derive(fbsec.from_beckmann(1.0, 0.5, 1.0, 1.0, m_large=1e4))
        hi = derive(fbsec.from_beckmann(1.0, 0.5, 1.0, 1.0, m_large=1e6))
        diff = np.abs(fbsec.cdf_numeric(lo, 1.0, g) - fbsec.cdf_numeric(hi, 1.0, g))
        assert np.max(diff) < 1e-3

    @pytest.mark.parametrize("eta, mu, seed", [(0.3, 1.7, 71), (2.5, 0.9, 72), (1.0, 3.0, 73)])
    def test_eta_mu_against_direct_sampler(self, eta, mu, seed):
        # eta-mu (format 1): g proportional to eta X + Y with X, Y ~ Gamma(mu/2), unit mean
        avg_snr, n = 2.0, 20_000
        rng = np.random.default_rng(seed)
        x, y = rng.gamma(mu / 2.0, size=(2, n))
        snr = avg_snr * (eta * x + y) / ((eta + 1.0) * mu / 2.0)
        p = fbsec.from_eta_mu(eta, mu, avg_snr)
        dp = derive(p)
        result = stats.kstest(snr, lambda g: fbsec.cdf_numeric(dp, avg_snr, g))
        assert result.pvalue > 0.01

    def test_beckmann_rejects_small_m(self):
        with pytest.raises(ParameterError, match="m_large"):
            fbsec.from_beckmann(1.0, 0.5, 1.0, 1.0, m_large=100.0)


def test_db_round_trip():
    for x in (-17.3, 0.0, 4.5, 30.0):
        assert fbsec.linear_to_db(fbsec.db_to_linear(x)) == pytest.approx(x, abs=1e-12)
