"""Closed-form expansions and secrecy metrics against quadrature and sampling."""

import math

import numpy as np
import pytest
from scipy import integrate

import fbsec
from fbsec import (
    FBParams,
    MCConfig,
    SecrecyConfig,
    asc_case2,
    cdf_case2,
    derive,
    link_expansion,
    partial_fractions,
    pdf_case2,
    sop_case2,
    sopl_case2,
    spsc_case2,
)
from fbsec.casetwo import _mixture_value, _transform_value
from fbsec.errors import CaseMismatchError, ParameterError

from conftest import draw_params


def quad_asc(bob, eve, upper):
    i1 = integrate.quad(
        lambda g: math.log1p(g) * pdf_case2(bob, g) * cdf_case2(eve, g), 0, upper, limit=400
    )[0]
    i2 = integrate.quad(
        lambda g: math.log1p(g) * pdf_case2(eve, g) * cdf_case2(bob, g), 0, upper, limit=400
    )[0]
    i3 = integrate.quad(lambda g: math.log1p(g) * pdf_case2(eve, g), 0, upper, limit=400)[0]
    return i1 + i2 - i3


def quad_sop(bob, eve, theta, upper, shift=True):
    off = theta - 1.0 if shift else 0.0
    return integrate.quad(
        lambda g: cdf_case2(bob, theta * g + off) * pdf_case2(eve, g), 0, upper, limit=400
    )[0]


class TestSecrecyConfig:
    def test_theta_derived(self):
        cfg = SecrecyConfig(rate_rs=1.0)
        assert cfg.theta == pytest.approx(math.e, rel=1e-15)

    def test_negative_rate_rejected(self):
        with pytest.raises(ParameterError, match="rate_rs"):
            SecrecyConfig(rate_rs=-0.5)

    def test_inconsistent_theta_rejected(self):
        with pytest.raises(ParameterError, match="theta"):
            SecrecyConfig(rate_rs=1.0, theta=2.0)


class TestPartialFractions:
    def test_gamma_reduction_tables(self):
        # transform 4/(s(s+2)^2) decomposes symbolically to
        # 1/s - 1/(s+2) - 2/(s+2)^2, i.e. A = [0, 1], B = [-1/4, -1/2]
        exp = link_expansion(FBParams(2, 1, 0, 1, 1, 1))
        assert exp.poles.shape == (1,)
        assert exp.poles[0] == pytest.approx(2.0)
        assert exp.mults[0] == 2
        assert np.allclose(exp.A[0], [0.0, 1.0], atol=1e-13)
        assert np.allclose(exp.B[0], [-0.25, -0.5], atol=1e-13)
        assert exp.omega_norm == pytest.approx(4.0)

    def test_reconstruction_on_random_draws(self, rng):
        # relative to the term-magnitude sum: at s far above the smallest
        # pole the identity cancels its own leading moments, so plain
        # relative error there measures conditioning, not coefficients
        for _ in range(25):
            p = draw_params(rng, case2=True)
            dp = derive(p)
            exp = partial_fractions(dp, p.avg_snr)
            groups = fbsec.merge_rate_groups(dp.theta_rates / p.avg_snr, dp.exponents)
            s = np.arange(0.5, 10.5, 0.5)
            direct = _transform_value([(x, a) for x, a in groups], dp.ln_omega, s)
            recon, cond = _mixture_value(exp.poles, exp.mults, exp.A, exp.omega_norm, s, with_cond=True)
            assert np.max(np.abs(recon - direct) / np.maximum(np.abs(direct), cond)) < 1e-9
            recon_c, cond_c = _mixture_value(exp.poles, exp.mults, exp.B, exp.omega_norm, s, with_cond=True)
            target = direct / s
            denom = np.maximum(np.abs(target), cond_c + 1.0 / s)
            assert np.max(np.abs(recon_c + 1.0 / s - target) / denom) < 1e-9

    def test_negative_exponent_factorisation(self):
        # m > mu/2 puts numerator factors into the transform
        p = fbsec.from_kappa_mu_shadowed(2.0, 2.0, 3.0, 1.0)
        exp = link_expansion(p)
        assert exp.total_mult == 3
        val = integrate.quad(lambda g: pdf_case2(exp, g), 0, 80, limit=300)[0]
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_non_integer_exponents_rejected(self):
        p = FBParams(2.5, 1.0, 1.0, 0.5, 0.5, 1.0)
        with pytest.raises(CaseMismatchError, match="numeric"):
            partial_fractions(derive(p), p.avg_snr)

    def test_huge_multiplicity_rejected(self):
        p = FBParams(2.0, 200.0, 1.0, 0.5, 0.5, 1.0)
        with pytest.raises(CaseMismatchError, match="multiplicity"):
            partial_fractions(derive(p), p.avg_snr)


class TestDistributions:
    def test_gamma_reduction_values(self):
        exp = link_expansion(FBParams(2, 1, 0, 1, 1, 1))
        assert pdf_case2(exp, 1.0) == pytest.approx(4 * math.exp(-2), rel=1e-12)
        assert cdf_case2(exp, 1.0) == pytest.approx(1 - 3 * math.exp(-2), rel=1e-12)
        assert cdf_case2(exp, 0.0) == 0.0

    def test_density_normalises(self):
        p = FBParams(4, 1, 1, 0.5, 0.5, 1.0)
        exp = link_expansion(p)
        val = integrate.quad(lambda g: pdf_case2(exp, g), 0, 120, limit=300)[0]
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_density_normalises_on_draws(self, rng):
        for _ in range(8):
            p = draw_params(rng, case2=True)
            exp = link_expansion(p)
            hi = math.log1p(300.0 * p.avg_snr)
            val = integrate.quad(
                lambda u: pdf_case2(exp, math.expm1(u)) * (math.expm1(u) + 1.0),
                0, hi, limit=400,
            )[0]
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_cdf_monotone_and_bounded(self, rng):
        for _ in range(10):
            p = draw_params(rng, case2=True)
            exp = link_expansion(p)
            g = np.linspace(0, 30 * p.avg_snr, 400)
            c = cdf_case2(exp, g)
            assert np.all(np.diff(c) >= -1e-12)
            assert c[0] == 0.0 and c[-1] <= 1.0

    def test_negative_snr_rejected(self):
        exp = link_expansion(FBParams(2, 1, 0, 1, 1, 1))
        with pytest.raises(fbsec.DomainError):
            pdf_case2(exp, -0.5)

    def test_cdf_matches_big_simulation_at_deciles(self):
        p = FBParams(4, 2, 2, 0.3, 0.1, 1.0)
        exp = link_expansion(p)
        n = 10_000_000
        rng = np.random.default_rng(5150)
        model = fbsec.physical_model(p)
        snr = fbsec.sample_snr(p, model, rng, size=n)
        probs = np.arange(0.1, 0.91, 0.1)
        deciles = np.quantile(snr, probs)
        vals = cdf_case2(exp, deciles)
        for prob, v in zip(probs, vals):
            se = math.sqrt(prob * (1 - prob) / n)
            assert abs(v - prob) < 3 * se


class TestMetrics:
    def test_asc_matches_quadrature_identical_links(self):
        exp = link_expansion(FBParams(2, 1, 1, 0.5, 0.5, 10.0))
        closed = asc_case2(exp, exp)
        oracle = quad_asc(exp, exp, 600.0)
        assert closed == pytest.approx(oracle, rel=1e-7)
        assert closed > 0

    def test_asc_matches_quadrature_on_draws(self, rng):
        for _ in range(6):
            bob = draw_params(rng, case2=True)
            eve = draw_params(rng, case2=True)
            eb, ee = link_expansion(bob), link_expansion(eve)
            closed = asc_case2(eb, ee)
            upper = 100.0 * max(bob.avg_snr, eve.avg_snr)
            assert closed == pytest.approx(quad_asc(eb, ee, upper), rel=1e-7)

    def test_asc_nakagami_pair_against_sampling(self):
        bob = fbsec.from_nakagami(2.0, 1.0)
        eve = fbsec.from_nakagami(2.0, 1.0)
        closed = asc_case2(link_expansion(bob), link_expansion(eve))
        est = fbsec.estimate(bob, eve, SecrecyConfig(0.0), MCConfig(n_samples=10_000_000, seed=31))["asc"]
        assert abs(closed - est.mean) < 3 * est.std_error

    def test_asc_high_snr_scaling(self):
        # the ln(snr) asymptote carries an O(1) offset (fading log-moment
        # minus the eavesdropper capacity), so keep both small
        bob = fbsec.from_nakagami(2.0, 1e6)
        eve = fbsec.from_nakagami(2.0, 0.05)
        closed = asc_case2(link_expansion(bob), link_expansion(eve))
        assert closed / math.log(1e6) == pytest.approx(1.0, rel=0.05)
        grow = [
            asc_case2(link_expansion(bob.with_snr(s)), link_expansion(eve))
            for s in (1e2, 1e4, 1e6)
        ]
        assert grow[0] < grow[1] < grow[2]

    def test_sop_identical_links_half(self):
        exp = link_expansion(FBParams(4, 2, 1.5, 0.4, 0.3, 10**0.8))
        assert sop_case2(exp, exp, SecrecyConfig(0.0)) == pytest.approx(0.5, abs=1e-10)

    def test_sop_matches_quadrature_and_simulation(self, rng):
        bob = FBParams(4, 2, 1.5, 0.4, 0.3, 10**1.2)
        eve = FBParams(2, 1, 0.7, 2.0, 1.5, 10**0.3)
        eb, ee = link_expansion(bob), link_expansion(eve)
        cfg = SecrecyConfig(1.0)
        closed = sop_case2(eb, ee, cfg)
        assert closed == pytest.approx(quad_sop(eb, ee, cfg.theta, 400.0), rel=1e-9)
        est = fbsec.estimate(bob, eve, cfg, MCConfig(n_samples=10_000_000, seed=77))["sop"]
        assert abs(closed - est.mean) < 3 * est.std_error

    def test_sop_saturates_at_large_rate(self):
        eb = link_expansion(FBParams(4, 2, 1.5, 0.4, 0.3, 10**1.2))
        ee = link_expansion(FBParams(2, 1, 0.7, 2.0, 1.5, 10**0.3))
        assert sop_case2(eb, ee, SecrecyConfig(20.0)) == pytest.approx(1.0, abs=1e-6)

    def test_lower_bound_orders_below_sop(self, rng):
        for _ in range(8):
            bob = draw_params(rng, case2=True)
            eve = draw_params(rng, case2=True)
            eb, ee = link_expansion(bob), link_expansion(eve)
            cfg = SecrecyConfig(1.0)
            low, full = sopl_case2(eb, ee, cfg), sop_case2(eb, ee, cfg)
            assert low <= full + 1e-12
            assert low < full  # strict when supports overlap and theta > 1

    def test_sopl_matches_simulation(self):
        bob = FBParams(2, 2, 1.0, 0.8, 0.2, 10**0.9)
        eve = FBParams(4, 1, 2.0, 1.5, 3.0, 10**0.2)
        cfg = SecrecyConfig(1.0)
        closed = sopl_case2(link_expansion(bob), link_expansion(eve), cfg)
        est = fbsec.estimate(bob, eve, cfg, MCConfig(n_samples=10_000_000, seed=13))["sopl"]
        assert abs(closed - est.mean) < 3 * est.std_error

    def test_spsc_identical_links(self):
        exp = link_expansion(FBParams(6, 3, 0.9, 0.6, 0.4, 10.0))
        assert spsc_case2(exp, exp) == pytest.approx(0.5, abs=1e-10)

    def test_sop_at_zero_rate_complements_spsc(self, rng):
        for _ in range(6):
            eb = link_expansion(draw_params(rng, case2=True))
            ee = link_expansion(draw_params(rng, case2=True))
            sop0 = sop_case2(eb, ee, SecrecyConfig(0.0))
            assert sop0 == pytest.approx(1.0 - spsc_case2(eb, ee), abs=1e-10)
            assert sop0 == pytest.approx(sopl_case2(eb, ee, SecrecyConfig(0.0)), abs=1e-12)

    def test_swap_symmetry_at_unit_threshold(self, rng):
        bob = draw_params(rng, case2=True)
        eve = draw_params(rng, case2=True)
        eb, ee = link_expansion(bob), link_expansion(eve)
        cfg = SecrecyConfig(0.0)
        assert sopl_case2(eb, ee, cfg) == pytest.approx(1.0 - sopl_case2(ee, eb, cfg), abs=1e-7)

    def test_metrics_real_and_in_range_on_draws(self, rng):
        for _ in range(10):
            eb = link_expansion(draw_params(rng, case2=True))
            ee = link_expansion(draw_params(rng, case2=True))
            cfg = SecrecyConfig(float(rng.choice([0.0, 1.0])))
            for v in (sop_case2(eb, ee, cfg), sopl_case2(eb, ee, cfg), spsc_case2(eb, ee)):
                assert 0.0 <= v <= 1.0
            assert math.isfinite(asc_case2(eb, ee))
