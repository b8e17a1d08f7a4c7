"""The reference Talbot inversion of ``oracles`` against closed forms and complex arithmetic.

fbsec computes no single-link density or distribution; the tests that
need one take it from this reference implementation, so it is checked
here on its own.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

import fbsec
from fbsec import FBParams, derive
from fbsec.errors import DomainError

from conftest import draw_params, BOB_REFERENCE, EVE_REFERENCE
from oracles import (
    InversionInstabilityError,
    TalbotLink,
    cdf_case2,
    cdf_numeric,
    contour_nodes,
    link_expansion,
    mgf,
    pdf_case2,
    pdf_numeric,
    phi2_4_series,
    talbot_sum,
)

GAMMA_LINK = FBParams(2, 1, 0, 1, 1, 1)

# direct 4-factor product at s=1 for the reference eavesdropper (regression pin)
EVE_MGF_AT_1 = 0.2348989430708959


class TestMgf:
    def test_gamma_reduction_value(self):
        dp = derive(GAMMA_LINK)
        assert mgf(dp, 1.0, 2.0) == pytest.approx(0.25, rel=1e-13)

    def test_high_frequency_asymptotics(self):
        dp = derive(GAMMA_LINK)
        s = 1e8
        assert (mgf(dp, 1.0, s) * s**dp.mu).real == pytest.approx(math.exp(dp.ln_omega), rel=1e-6)

    def test_reference_eve_regression_pin(self):
        p = EVE_REFERENCE
        dp = derive(p)
        direct = complex(math.exp(dp.ln_omega))
        for rate, a in zip(dp.theta_rates, dp.exponents):
            direct *= (1.0 + rate / p.avg_snr) ** (-a)
        assert direct.real == pytest.approx(EVE_MGF_AT_1, rel=1e-12)
        assert mgf(dp, p.avg_snr, 1.0).real == pytest.approx(EVE_MGF_AT_1, rel=1e-10)

    def test_vectorised(self):
        dp = derive(GAMMA_LINK)
        s = np.array([1.0, 2.0, 4.0 + 1.0j])
        out = mgf(dp, 1.0, s)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.25)


class TestInversion:
    def test_gamma_pdf_cdf(self):
        dp = derive(GAMMA_LINK)
        assert pdf_numeric(dp, 1.0, 1.0) == pytest.approx(4 * math.exp(-2), abs=1e-9)
        assert cdf_numeric(dp, 1.0, 1.0) == pytest.approx(1 - 3 * math.exp(-2), abs=1e-9)
        assert cdf_numeric(dp, 1.0, 0.0) == 0.0

    def test_domain_errors(self):
        dp = derive(GAMMA_LINK)
        with pytest.raises(DomainError):
            pdf_numeric(dp, 1.0, 0.0)
        with pytest.raises(DomainError):
            cdf_numeric(dp, 1.0, -1.0)

    def test_matches_closed_form_pointwise(self, rng):
        for _ in range(8):
            p = draw_params(rng, case2=True)
            dp = derive(p)
            exp = link_expansion(p)
            g = np.array([0.1, 0.5, 1.0, 2.0, 5.0]) * p.avg_snr
            ref_pdf = pdf_case2(exp, g)
            ref_cdf = cdf_case2(exp, g)
            got_pdf = pdf_numeric(dp, p.avg_snr, g)
            got_cdf = cdf_numeric(dp, p.avg_snr, g)
            assert np.max(np.abs(got_pdf - ref_pdf) / np.maximum(np.abs(ref_pdf), 1e-3)) < 1e-7
            assert np.max(np.abs(got_cdf - ref_cdf) / np.maximum(ref_cdf, 1e-3)) < 1e-7

    def test_node_doubling_stable(self):
        for p in (EVE_REFERENCE, FBParams(3.5, 2.5, 1, 0.1, 0.1, 100.0)):
            dp = derive(p)
            inv48 = TalbotLink(dp, p.avg_snr, 48)
            inv96 = TalbotLink(dp, p.avg_snr, 96)
            g = p.avg_snr * np.array([0.2, 0.5, 1.0, 2.0, 4.0])
            a, b = inv48.pdf(g), inv96.pdf(g)
            assert np.max(np.abs(a - b) / np.abs(a)) < 1e-8
            a, b = inv48.cdf(g), inv96.cdf(g)
            assert np.max(np.abs(a - b) / np.abs(a)) < 1e-8

    def test_density_normalises_nonint_params(self, rng):
        for _ in range(5):
            p = draw_params(rng)
            dp = derive(p)
            inv = TalbotLink(dp, p.avg_snr)
            upper = inv.upper_limit(1e-12)[0]
            val, _ = integrate.quad(
                lambda u: float(inv.pdf([math.expm1(u)])[0]) * (math.expm1(u) + 1.0),
                0, math.log1p(upper), limit=500,
            )
            assert val == pytest.approx(1.0, abs=1e-7)

    def test_reference_eve_cdf_against_sampling(self):
        p = EVE_REFERENCE
        dp = derive(p)
        n = 1_000_000
        rng = np.random.default_rng(808)
        snr = fbsec.sample_snr(p, fbsec.physical_model(p), rng, size=n)
        probs = np.arange(0.1, 0.91, 0.1)
        deciles = np.quantile(snr, probs)
        vals = cdf_numeric(dp, p.avg_snr, deciles)
        for prob, v in zip(probs, vals):
            assert abs(v - prob) < 3 * math.sqrt(prob * (1 - prob) / n)

    def test_instability_detection(self, monkeypatch):
        dp = derive(GAMMA_LINK)
        real_sum = talbot_sum

        def noisy(ts, base, w, *rest):
            return real_sum(ts, base, w, *rest) * (1.0 + 1e-4 * (len(base) % 97))

        monkeypatch.setattr("oracles.talbot_sum", noisy)
        with pytest.raises(InversionInstabilityError, match="disagree"):
            pdf_numeric(dp, 1.0, 1.0)

    def test_against_independent_high_precision_inversion(self):
        mp = pytest.importorskip("mpmath")
        p = EVE_REFERENCE
        dp = derive(p)
        rates = [complex(r).real for r in dp.theta_rates]

        def transform(s):
            out = mp.mpf(math.exp(dp.ln_omega))
            for r, a in zip(rates, dp.exponents):
                out *= (s + mp.mpf(r) / mp.mpf(p.avg_snr)) ** (-mp.mpf(a))
            return out

        mp.mp.dps = 40
        for g in (0.5, 2.0, 5.0):
            ref = float(mp.invertlaplace(transform, g, method="talbot", degree=60))
            assert pdf_numeric(dp, p.avg_snr, g) == pytest.approx(ref, rel=1e-8)


class TestJointKernel:
    def test_batches_do_not_change_values(self):
        p = EVE_REFERENCE
        inv = TalbotLink(derive(p), p.avg_snr)
        g = np.linspace(0.01, 30.0, 2500)
        args = (inv.base, inv.w, *inv.factors, inv.ln_omega, 1.0, inv.lam)
        whole = talbot_sum(g, *args)
        parts = np.concatenate([talbot_sum(g[i:i + 100], *args) for i in range(0, g.size, 100)])
        np.testing.assert_array_equal(whole, parts)


def _complex_contour_terms(ts, base, w, poles, exps, pair_x, pair_delta, pair_coef, ln_omega,
                           s_pow, lam):
    """Scaled terms of the contour sum by complex logs of s + p, one row per abscissa."""
    s = base[None, :] / ts[:, None]
    ln = np.full(s.shape, complex(ln_omega))
    for p, a in zip(poles, exps):
        ln -= a * np.log(s + p)
    for x, d, c in zip(pair_x, pair_delta, pair_coef):
        v = d / (s + x)
        small = np.abs(v) < 1e-4
        lv = np.log(1.0 + v)
        vs = v[small]
        lv[small] = vs * (1.0 - vs * (0.5 - vs * (1.0 / 3.0 - vs * 0.25)))
        ln -= c * lv
    ln -= s_pow * np.log(s)
    ln += np.log(lam / (len(base) * ts))[:, None]
    return (np.exp(ln) * w[None, :]).real


KERNEL_LINKS = {
    "fig1-bob": BOB_REFERENCE,
    "fig1-eve": EVE_REFERENCE,
    "stiff": FBParams(1.0, 1e6, 1.5, 0.3, 0.64, 100.0),
    "noninteger-a-bob": FBParams(2.7, 1.8, 3.2, 0.45, 2.5, 100.0),
    "noninteger-a-eve": FBParams(1.3, 4.6, 0.35, 2.2, 0.6, 10**0.8),
    "noninteger-b-bob": FBParams(3.1, 0.75, 0.8, 1.7, 0.25, 100.0),
    "noninteger-b-eve": FBParams(0.8, 2.3, 6.0, 0.6, 3.5, 10**0.2),
}


class TestKernelAgainstComplexArithmetic:
    # from 1e-250 to 1e8, with 1e-200, where the mu = 0.8 density is near 1e39
    TS = np.concatenate([[1e-250, 1e-200, 1e-100, 1e-30], np.logspace(-12, 8, 61)])

    def check(self, ts, args, s_pow, lam, got):
        terms = _complex_contour_terms(ts, *args, s_pow, lam)
        assert np.all(np.isfinite(got))
        # 1e-300 admits the sums that are subnormal in both
        bound = 1e-12 * np.abs(terms).sum(axis=1) + 1e-300
        np.testing.assert_array_less(np.abs(got - terms.sum(axis=1)), bound)

    @pytest.mark.parametrize("nodes", [48, 96])
    @pytest.mark.parametrize("name", sorted(KERNEL_LINKS))
    def test_density_distribution_and_joint(self, name, nodes):
        p = KERNEL_LINKS[name]
        inv = TalbotLink(derive(p), p.avg_snr, nodes)
        lam = inv.lam
        args = (inv.base, inv.w, *inv.factors, inv.ln_omega)
        ts = self.TS
        # -1 as in TestPhi24AgainstInversion; 96 nodes have weights that underflow to 0
        for s_pow in (0.0, 1.0, -1.0):
            self.check(ts, args, s_pow, lam, talbot_sum(ts, *args, s_pow, lam))

    @pytest.mark.parametrize("name", ["fig1-bob", "fig1-eve", "noninteger-a-eve", "noninteger-b-eve"])
    def test_mgf_against_product_formula(self, name):
        p = KERNEL_LINKS[name]
        dp = derive(p)
        s = np.array([1.0, 0.3 + 2.0j, -0.05 + 0.5j, 5.0 - 40.0j, 1e-3j + 1e-6, 1e6 + 1e6j])
        direct = np.full(s.shape, complex(math.exp(dp.ln_omega)))
        for rate, a in zip(dp.theta_rates, dp.exponents):
            direct *= (s + rate.real / p.avg_snr) ** (-a)
        np.testing.assert_allclose(mgf(dp, p.avg_snr, s), direct, rtol=1e-12)


class TestPhi24AgainstInversion:
    def test_small_argument_cross_check(self):
        # series vs contour inversion of Gamma(b) s^-b prod(1+x_k/s)^-a_k at t=1
        a = np.array([0.5, 0.5, 1.0, 1.0])
        x = np.array([0.3, 0.2, 0.1, 0.05])
        b = 2.0
        series = phi2_4_series(a, b, -x)
        lam = 14.0
        base, w = contour_nodes(48, lam)
        val = talbot_sum(
            np.array([1.0]), base, w,
            x, a, np.array([]), np.array([]), np.array([]),
            math.log(special.gamma(b)), b - a.sum(), lam,
        )[0]
        assert series == pytest.approx(val, rel=1e-8)

