"""Parameter validation, derived constants, and classical-family embeddings."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import fbsec
from fbsec import FBParams, SecrecyConfig, derive, numeric_metrics
from fbsec.errors import DomainError, ParameterError
from fbsec.params import link_factors

import oracles
from conftest import EVE_REFERENCE


def normalization_residual(dp, snr):
    prod = complex(1.0)
    for rate, a in zip(dp.theta_rates, dp.exponents):
        prod *= (rate / snr) ** (-a)
    return abs(math.exp(dp.ln_omega) * prod - 1.0)


def quadratic(p):
    """(alpha1, beta) of the paper's quadratic alpha1 s^2 + beta s + 1, whose roots are the first two rates."""
    alpha2 = 4.0 * p.eta / (p.mu**2 * (1.0 + p.eta) ** 2 * (1.0 + p.kappa) ** 2)
    alpha1 = alpha2 + 2.0 * p.kappa * (p.rho2 + p.eta) / (
        p.m * (1.0 + p.rho2) * p.mu * (1.0 + p.eta) * (1.0 + p.kappa) ** 2
    )
    return alpha1, -(2.0 / p.mu + p.kappa / p.m) / (1.0 + p.kappa)


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


class TestDerive:
    def test_gamma_reduction_constants(self):
        p = FBParams(2, 1, 0, 1, 1, 1)
        dp = derive(p)
        assert quadratic(p) == pytest.approx((0.25, -1.0), rel=1e-14)
        assert np.allclose(dp.theta_rates, 2.0)
        assert math.exp(dp.ln_omega) == pytest.approx(4.0, rel=1e-13)
        # kappa = 0 and eta = 1: both roots sit on the one partner, a single factor (s + 2)^-2
        regular, pairs = link_factors(dp, 1.0)
        assert regular == [(2.0, 2.0)] and pairs == []

    def test_gamma_reduction_normalization(self):
        dp = derive(FBParams(2, 1, 0, 1, 1, 1))
        assert normalization_residual(dp, 1.0) < 1e-12

    def test_fig4_bob_constants(self):
        # mu=2.5 m=1.5 kappa=3 eta=0.5 rho2=0.2 at 15 dB
        p = FBParams(2.5, 1.5, 3.0, 0.5, 0.2, 10**1.5)
        dp = derive(p)
        assert dp.exponents.sum() == pytest.approx(2.5, rel=1e-12)
        alpha1, beta = quadratic(p)
        c1, c2 = dp.theta_rates[:2]
        assert c1 * c2 == pytest.approx(1.0 / alpha1, rel=1e-12)
        assert c1 + c2 == pytest.approx(-beta / alpha1, rel=1e-12)
        assert len(link_factors(dp, 1.0)[0]) == 4

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
            alpha1, beta = quadratic(p)
            c1, c2 = dp.theta_rates[:2]
            assert abs(c1 * c2 - 1.0 / alpha1) <= 1e-12 * abs(1.0 / alpha1)
            assert abs((c1 + c2) - (-beta / alpha1)) <= 1e-12 * abs(beta / alpha1)
            # roots always come out real (non-negative discriminant)
            assert abs(c1.imag) <= 1e-9 * abs(c1)
            if c1 != c2:
                assert c1.conjugate() == pytest.approx(c1)  # real

    @given(
        mu=st.floats(0.5, 8.0), m=st.floats(0.5, 10.0), kappa=st.floats(0.0, 10.0),
        eta=st.floats(0.1, 10.0), rho2=st.floats(0.0, 10.0), snr=st.floats(0.01, 1e4),
    )
    @settings(max_examples=200, deadline=None)
    def test_derive_total_and_deterministic(self, mu, m, kappa, eta, rho2, snr):
        p = FBParams(mu, m, kappa, eta, rho2, snr)
        d1, d2 = derive(p), derive(p)
        assert np.array_equal(d1.theta_rates, d2.theta_rates)
        assert math.exp(d1.ln_omega) == math.exp(d2.ln_omega)
        assert np.all(np.isfinite(d1.theta_rates))
        assert d1.exponents.sum() == pytest.approx(mu, rel=1e-12)

    @given(
        mu=st.floats(0.05, 50.0), ln_m=st.floats(math.log(0.05), math.log(1e300)),
        kappa=st.sampled_from([0.0, 1e-6, 1.0, 1e4]) | st.floats(0.0, 1e4),
        eta=st.sampled_from([1.0]) | st.floats(1e-4, 1e4), rho2=st.floats(0.0, 1e4),
    )
    @settings(max_examples=200, deadline=None)
    def test_factor_list_keeps_the_law(self, mu, ln_m, kappa, eta, rho2):
        # the factor exponents add up to mu and a pair carries its root's exponent m, whether the
        # couples are written as pairs or as two factors, and each root is its partner plus delta;
        # a delta that leaves the normal float range over the mean SNR while m times it still
        # counts is refused, and only such a delta
        p = FBParams(mu, math.exp(ln_m), kappa, eta, rho2, 3.0)
        dp = derive(p)
        roots, partners = (dp.theta_rates * (1.0 / 3.0)).reshape(2, 2)  # as link_factors divides them
        lost = [d != 0.0 and abs(d / 3.0) < sys.float_info.min and abs(p.m * d) / 3.0 > sys.float_info.epsilon * x
                for x, d in zip(sorted(partners, reverse=True), dp.deltas)]
        if any(lost):
            for paired in (lambda x, delta, c: False, lambda x, delta, c: True):
                with pytest.raises(DomainError, match="offset from its partner"):
                    link_factors(dp, 3.0, paired)
            return
        for paired in (lambda x, delta, c: False, lambda x, delta, c: True):
            regular, pairs = link_factors(dp, 3.0, paired)
            assert sum(a for _, a in regular) == pytest.approx(mu, rel=1e-9, abs=1e-9 * p.m)
            assert all(x in partners and c == p.m for x, _, c in pairs)
            assert all(x in roots or x in partners for x, _ in regular)
        assert len(pairs) == np.count_nonzero(dp.deltas / 3.0)
        assert kappa > 0.0 or len(pairs) == 0
        for root, x, delta in zip(roots, sorted(partners, reverse=True), dp.deltas / 3.0):
            # near a double root the quadratic formula's roots carry errors up to sqrt(eps)
            assert abs(x + delta - root) <= 1e-7 * root

    def test_kappa_zero_makes_m_and_rho2_inert(self):
        # both roots are their partners exactly: no m in any factor, and the same ln omega
        ref = derive(FBParams(3.0, 0.7, 0.0, 0.4, 0.3, 2.0))
        for m in (3.0, 50.0, 1e17, 1e300):
            for rho2 in (0.0, 5.0):
                dp = derive(FBParams(3.0, m, 0.0, 0.4, rho2, 2.0))
                assert link_factors(dp, 2.0) == ([(x, 1.5) for x in (ref.theta_rates[2:] / 2.0).real], [])
                assert dp.ln_omega == ref.ln_omega

    # links whose roots lie delta from their partners: (link, 60-digit check of delta itself)
    DELTA_LINKS = [
        (FBParams(1.0, 1e6, 1.0, 1.0, 1.0, 10.0), True),  # eta = 1: one root on the partner exactly
        (FBParams(1.0, 1e12, 1.0, 1.0, 1.0, 10.0), True),
        (FBParams(1.0, 1e300, 1.0, 1.0, 1.0, 10.0), False),  # delta below an ulp of the partner
        (FBParams(3.0, 2.5, 0.0, 0.4, 1.0, 10.0), True),  # kappa = 0: each root on its partner
        (FBParams(26.3253255466307, 1e6, 207.48079556974696, 8395.498315023075, 0.00021969427582897144,
                  8577499.867362984), True),
        # kappa / m not small: the smaller partner's nearer root is the larger partner's too
        (FBParams(41.59644719741527, 3154.6794204679554, 5151.765703734275, 1.6703645495601778,
                  0.5016200789685173, 711599346.0916233), True),
        (FBParams(1.0, 1e6, 1.5, 0.3, 0.64, 100.0), True),
    ]

    @pytest.mark.parametrize("p, resolved", DELTA_LINKS)
    def test_deltas_against_60_digit_roots(self, p, resolved):
        mp = pytest.importorskip("mpmath")
        dp = derive(p)
        partners = sorted(dp.theta_rates.real[2:], reverse=True)  # the larger root's first
        if p.kappa == 0.0:
            assert list(dp.deltas) == [0.0, 0.0]
        with mp.workdps(60):
            _, rates, _ = oracles.law_reference(p)
            exact = sorted(rates[2:], reverse=True)
            for k, (x, delta) in enumerate(zip(partners, dp.deltas)):
                root = rates[k] * p.avg_snr
                # x + delta is the root, to a few ulps of x (the far couple of the kappa = 207 link: 17)
                assert abs(mp.mpf(x) + mp.mpf(delta) - root) <= 1e-14 * (x + root)
                if resolved:  # and delta is the root's offset from its exact partner, where the
                    # 60-digit roots resolve it: near a double root they carry 5e-49 at eta = 1, m = 1e12
                    offset = root - exact[k] * p.avg_snr
                    assert abs(mp.mpf(delta) - offset) <= 1e-13 * abs(offset) + mp.mpf(10) ** -40 * root
        if p.eta == 1.0:
            assert dp.deltas[0] == 0.0 and dp.deltas[1] < 0.0


def kappa_mu_shadowed_pdf(g, kappa, mu, m, snr):
    """Independent density oracle from the standard hypergeometric form."""
    g = np.asarray(g, dtype=float)
    front = (mu**mu * m**m * (1 + kappa) ** mu) / (special.gamma(mu) * snr * (mu * kappa + m) ** m)
    z = mu**2 * kappa * (1 + kappa) * g / ((mu * kappa + m) * snr)
    return front * (g / snr) ** (mu - 1) * np.exp(-mu * (1 + kappa) * g / snr) * special.hyp1f1(m, mu, z)


class TestRealRates:
    @pytest.mark.parametrize("eta", [0.3, 1.0, 2.5])
    def test_rates_are_real_and_positive(self, eta):
        # eta = 1 puts a root on its partner: the discriminant is near 0, and may round below it
        for kappa in (0.0, 1e-6, 1.5, 1e4):
            dp = derive(FBParams(2.5, 3.0, kappa, eta, 0.7, 10.0))
            assert dp.theta_rates.dtype == np.float64 and np.all(dp.theta_rates > 0.0)
            regular, _ = link_factors(dp, 10.0)
            assert all(type(x) is float for x, _ in regular)


class TestStiffOffsetUnderflow:
    """A root's offset over the mean SNR that leaves the normal float range while m times it counts."""

    EVE = FBParams(1.5, 1.5, 1, 0.1, 0.1, 1e20 / 3)

    def test_refused_by_name(self):
        bob = FBParams(1, 1e300, 1, 1, 1, 1e20)
        with pytest.raises(DomainError, match="offset from its partner") as exc:
            numeric_metrics(bob, self.EVE, SecrecyConfig(0.5))
        assert repr(bob) in str(exc.value)

    def test_snr_scan_refuses_or_keeps_the_surrogate_limit(self):
        # m = 1e300 against m = 1e16, whose offsets stay normal: the same law to far below the errors
        refused = []
        for k in range(1, 21):
            snr = 10.0**k
            eve = FBParams(1.5, 1.5, 1, 0.1, 0.1, snr / 3)
            cfg = SecrecyConfig(0.5)
            ref, _ = numeric_metrics(FBParams(1, 1e16, 1, 1, 1, snr), eve, cfg, metrics=("sop",))
            try:
                value, err = numeric_metrics(FBParams(1, 1e300, 1, 1, 1, snr), eve, cfg, metrics=("sop",))
            except DomainError:
                refused.append(k)
                continue
            assert abs(value["sop"] - ref["sop"]) <= err["sop"], snr
        assert refused == list(range(8, 21))  # delta / snr = -2e-300 / snr is subnormal from 1e8 on

    def test_tiny_kappa_is_not_refused(self):
        # an offset below the normal range that m times it leaves below an ulp of its partner
        bob = FBParams(1, 1, 1e-300, 0.3, 0.64, 1e10)
        assert abs(derive(bob).deltas[0]) / bob.avg_snr < sys.float_info.min
        values, _ = numeric_metrics(bob, self.EVE, SecrecyConfig(0.5), metrics=("sop",))
        assert 0.0 < values["sop"] <= 1.0

    @pytest.mark.parametrize("m, snr", [(1e300, 1e7), (1e6, 1e20), (3.0, 1e30), (1e300, 1e8)])
    def test_the_check_alone_refuses(self, monkeypatch, m, snr):
        # normal offsets keep every factor bit for bit; a subnormal one is let through only without the check
        dp = derive(FBParams(1, m, 1, 1, 1, snr))
        normal = abs(dp.deltas[1]) / snr >= sys.float_info.min
        factors = None if not normal else link_factors(dp, snr, lambda x, delta, c: c >= 256.0)
        monkeypatch.setattr("fbsec.params._LEAST_NORMAL", 0.0)
        unchecked = link_factors(dp, snr, lambda x, delta, c: c >= 256.0)
        if normal:
            assert [[v.hex() for v in f] for f in factors[0] + factors[1]] == \
                   [[v.hex() for v in f] for f in unchecked[0] + unchecked[1]]
        else:
            monkeypatch.undo()
            with pytest.raises(DomainError):
                link_factors(dp, snr)


class TestReductions:
    def test_kappa_mu_shadowed_gamma_case(self):
        p = fbsec.from_kappa_mu_shadowed(0.0, 2.0, 1.0, 1.0)
        exp = oracles.link_expansion(p)
        g = np.linspace(0.05, 6.0, 40)
        assert np.allclose(oracles.pdf_case2(exp, g), stats.gamma.pdf(g, a=2, scale=0.5), atol=1e-12)

    def test_kappa_mu_shadowed_oracle_pointwise(self):
        p = fbsec.from_kappa_mu_shadowed(2.0, 2.0, 3.0, 1.0)
        exp = oracles.link_expansion(p)
        g = np.linspace(0.02, 8.0, 60)
        oracle = kappa_mu_shadowed_pdf(g, 2.0, 2.0, 3.0, 1.0)
        assert np.max(np.abs(oracles.pdf_case2(exp, g) - oracle)) < 1e-9

    def test_eta_forced_to_one_is_a_different_law(self):
        # negative control: the embedding must not silently coincide with
        # the eta=0.1 eavesdropper law
        forced = fbsec.from_kappa_mu_shadowed(1.0, 1.5, 1.5, 10**0.5)
        dp_forced = derive(forced)
        dp_ref = derive(EVE_REFERENCE)
        g = 2.0
        a = oracles.pdf_numeric(dp_forced, forced.avg_snr, g)
        b = oracles.pdf_numeric(dp_ref, EVE_REFERENCE.avg_snr, g)
        assert abs(a - b) > 1e-3

    def test_nakagami_pdf_value(self):
        p = fbsec.from_nakagami(2.0, 1.0)
        exp = oracles.link_expansion(p)
        assert oracles.pdf_case2(exp, 1.0) == pytest.approx(4 * math.exp(-2), rel=1e-10)

    def test_nakagami_cdf_oracle(self):
        p = fbsec.from_nakagami(3.0, 2.0)
        exp = oracles.link_expansion(p)
        g = np.linspace(0.0, 12.0, 50)
        assert np.max(np.abs(oracles.cdf_case2(exp, g) - stats.gamma.cdf(g, a=3, scale=2 / 3))) < 1e-10

    def test_rayleigh_cdf(self):
        p = fbsec.from_rayleigh(1.0)
        exp = oracles.link_expansion(p)
        g = np.linspace(0.0, 10.0, 50)
        assert np.max(np.abs(oracles.cdf_case2(exp, g) - (1 - np.exp(-g)))) < 1e-10

    def test_nakagami_shadowing_parameter_is_inert(self):
        base = fbsec.from_nakagami(2.0, 1.0)
        alt = FBParams(mu=2.0, m=3.7, kappa=0.0, eta=1.0, rho2=1.0, avg_snr=1.0)
        ga = np.linspace(0.1, 5, 20)
        pa = oracles.pdf_case2(oracles.link_expansion(base), ga)
        pb = oracles.pdf_case2(oracles.link_expansion(alt), ga)
        assert np.allclose(pa, pb, rtol=1e-10, atol=1e-12)

    def test_beckmann_rayleigh_limit(self):
        p = fbsec.from_beckmann(0.0, 1.0, 1.0, 1.0, m_large=1e6)
        dp = derive(p)
        g = np.linspace(0.05, 8.0, 30)
        got = oracles.cdf_numeric(dp, 1.0, g)
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
        cdf_vals = oracles.cdf_numeric(dp, 1.0, deciles)
        for prob, c in zip(np.arange(0.1, 0.91, 0.1), cdf_vals):
            se = math.sqrt(prob * (1 - prob) / n)
            assert abs(c - prob) < 3 * se

    def test_beckmann_surrogate_converged(self):
        g = np.linspace(0.2, 4.0, 9)
        lo = derive(fbsec.from_beckmann(1.0, 0.5, 1.0, 1.0, m_large=1e4))
        hi = derive(fbsec.from_beckmann(1.0, 0.5, 1.0, 1.0, m_large=1e6))
        diff = np.abs(oracles.cdf_numeric(lo, 1.0, g) - oracles.cdf_numeric(hi, 1.0, g))
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
        result = stats.kstest(snr, lambda g: oracles.cdf_numeric(dp, avg_snr, g))
        assert result.pvalue > 0.01

    def test_beckmann_rejects_small_m(self):
        with pytest.raises(ParameterError, match="m_large"):
            fbsec.from_beckmann(1.0, 0.5, 1.0, 1.0, m_large=100.0)


def test_db_round_trip():
    for x in (-17.3, 0.0, 4.5, 30.0):
        assert fbsec.linear_to_db(fbsec.db_to_linear(x)) == pytest.approx(x, abs=1e-12)
