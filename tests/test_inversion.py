"""Transform inversion and quadrature metrics against independent references."""

import math

import numpy as np
import pytest
from scipy import integrate, special

import fbsec
from fbsec import (
    FBParams,
    InversionControl,
    SecrecyConfig,
    asc_case2,
    asc_numeric,
    cdf_case2,
    cdf_numeric,
    derive,
    link_expansion,
    mgf,
    pdf_case2,
    pdf_numeric,
    sop_case2,
    sop_numeric,
    sopl_case2,
    sopl_numeric,
    spsc_numeric,
)
from fbsec import _kernels
from fbsec.errors import DomainError, InversionInstabilityError, ParameterError
from fbsec.inversion import _Inverter

from conftest import draw_params, EVE_REFERENCE

GAMMA_LINK = FBParams(2, 1, 0, 1, 1, 1)

# direct 4-factor product at s=1 for the reference eavesdropper (regression pin)
EVE_MGF_AT_1 = 0.2348989430708959


class TestControl:
    def test_defaults(self):
        ctrl = InversionControl()
        assert ctrl.talbot_nodes == 48
        assert ctrl.quad_rel_tol == 1e-8
        assert ctrl.quad_max_subdiv == 2000
        assert ctrl.tail_cutoff_prob == 1e-10

    @pytest.mark.parametrize(
        "kw", [dict(talbot_nodes=15), dict(talbot_nodes=21), dict(quad_rel_tol=0.1),
               dict(quad_rel_tol=0.0), dict(tail_cutoff_prob=1.0), dict(quad_max_subdiv=1)],
    )
    def test_validation(self, kw):
        with pytest.raises(ParameterError):
            InversionControl(**kw)


class TestMgf:
    def test_gamma_reduction_value(self):
        dp = derive(GAMMA_LINK)
        assert mgf(dp, 1.0, 2.0) == pytest.approx(0.25, rel=1e-13)

    def test_high_frequency_asymptotics(self):
        dp = derive(GAMMA_LINK)
        s = 1e8
        assert (mgf(dp, 1.0, s) * s**dp.mu).real == pytest.approx(dp.omega_norm, rel=1e-6)

    def test_reference_eve_regression_pin(self):
        p = EVE_REFERENCE
        dp = derive(p)
        direct = complex(dp.omega_norm)
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
            inv48 = _Inverter(dp, p.avg_snr, InversionControl(talbot_nodes=48))
            inv96 = _Inverter(dp, p.avg_snr, InversionControl(talbot_nodes=96))
            g = p.avg_snr * np.array([0.2, 0.5, 1.0, 2.0, 4.0])
            a, b = inv48.pdf(g), inv96.pdf(g)
            assert np.max(np.abs(a - b) / np.abs(a)) < 1e-8
            a, b = inv48.cdf(g), inv96.cdf(g)
            assert np.max(np.abs(a - b) / np.abs(a)) < 1e-8

    def test_density_normalises_nonint_params(self, rng):
        for _ in range(5):
            p = draw_params(rng)
            dp = derive(p)
            inv = _Inverter(dp, p.avg_snr, InversionControl())
            upper = inv.upper_limit(1e-12)
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
        real_sum = _kernels.talbot_sum

        def noisy(ts, base, w, *rest):
            return real_sum(ts, base, w, *rest) * (1.0 + 1e-4 * (len(base) % 97))

        monkeypatch.setattr("fbsec.inversion._kernels.talbot_sum", noisy)
        with pytest.raises(InversionInstabilityError, match="disagree"):
            pdf_numeric(dp, 1.0, 1.0)

    def test_against_independent_high_precision_inversion(self):
        mp = pytest.importorskip("mpmath")
        p = EVE_REFERENCE
        dp = derive(p)
        rates = [complex(r).real for r in dp.theta_rates]

        def transform(s):
            out = mp.mpf(dp.omega_norm)
            for r, a in zip(rates, dp.exponents):
                out *= (s + mp.mpf(r) / mp.mpf(p.avg_snr)) ** (-mp.mpf(a))
            return out

        mp.mp.dps = 40
        for g in (0.5, 2.0, 5.0):
            ref = float(mp.invertlaplace(transform, g, method="talbot", degree=60))
            assert pdf_numeric(dp, p.avg_snr, g) == pytest.approx(ref, rel=1e-8)


class TestNumericMetrics:
    def test_case2_agreement_all_metrics(self, rng):
        for _ in range(3):
            bob = draw_params(rng, case2=True)
            eve = draw_params(rng, case2=True)
            eb, ee = link_expansion(bob), link_expansion(eve)
            cfg = SecrecyConfig(1.0)
            assert asc_numeric(bob, eve) == pytest.approx(asc_case2(eb, ee), rel=1e-6)
            assert sop_numeric(bob, eve, cfg) == pytest.approx(sop_case2(eb, ee, cfg), rel=1e-6, abs=1e-9)
            assert sopl_numeric(bob, eve, cfg) == pytest.approx(sopl_case2(eb, ee, cfg), rel=1e-6, abs=1e-9)
            assert spsc_numeric(bob, eve) == pytest.approx(
                fbsec.spsc_case2(eb, ee), rel=1e-6, abs=1e-9
            )

    def test_identical_links_half(self):
        p = FBParams(2.2, 1.7, 1.0, 0.4, 0.6, 10.0)
        cfg = SecrecyConfig(0.0)
        assert sop_numeric(p, p, cfg) == pytest.approx(0.5, abs=1e-6)
        assert sopl_numeric(p, p, cfg) == pytest.approx(0.5, abs=1e-6)
        assert spsc_numeric(p, p) == pytest.approx(0.5, abs=1e-6)

    def test_outage_ordering_along_sweep(self):
        eve = EVE_REFERENCE
        cfg = SecrecyConfig(1.0)
        prev_sop = prev_low = 1.1
        for lam_db in (0.0, 10.0, 20.0, 30.0):
            bob = FBParams(3.5, 2.5, 1, 0.1, 0.1, 10 ** ((5.0 + lam_db) / 10.0))
            s = sop_numeric(bob, eve, cfg)
            lo = sopl_numeric(bob, eve, cfg)
            assert lo <= s + 1e-9
            assert s <= prev_sop + 1e-9 and lo <= prev_low + 1e-9
            prev_sop, prev_low = s, lo

    def test_asc_tail_control_insensitive(self):
        bob = FBParams(3.5, 2.5, 1, 0.5, 0.1, 100.0)
        a = asc_numeric(bob, EVE_REFERENCE, InversionControl(tail_cutoff_prob=1e-10))
        b = asc_numeric(bob, EVE_REFERENCE, InversionControl(tail_cutoff_prob=1e-6))
        assert a == pytest.approx(b, rel=1e-5)

    def test_quadrature_non_convergence_reported(self):
        from fbsec.errors import ConvergenceError
        from fbsec.inversion import _quad

        ctrl = InversionControl(quad_max_subdiv=10)
        with pytest.raises(ConvergenceError, match="quadrature"):
            # narrow spike forest the 10-interval budget cannot resolve
            _quad(lambda u: math.sin(1e5 * u) / (1e-4 + abs(u - 0.5)), 0.0, 1.0, ctrl)


class TestPhi24AgainstInversion:
    def test_small_argument_cross_check(self):
        # series vs contour inversion of Gamma(b) s^-b prod(1+x_k/s)^-a_k at t=1
        a = np.array([0.5, 0.5, 1.0, 1.0])
        x = np.array([0.3, 0.2, 0.1, 0.05])
        b = 2.0
        series = fbsec.phi2_4_series(a, b, -x)
        lam = 14.0
        base, w = _kernels.contour_nodes(48, lam)
        val = _kernels.talbot_sum(
            np.array([1.0]), base, w,
            np.asarray(x, dtype=complex), a, np.array([], dtype=complex),
            np.array([], dtype=complex), np.array([]),
            math.log(special.gamma(b)), b - a.sum(), lam,
        )[0]
        assert series == pytest.approx(val, rel=1e-8)

