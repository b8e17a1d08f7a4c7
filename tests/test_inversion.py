"""Transform inversion and quadrature metrics against independent references."""

import math
import warnings

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
from fbsec.errors import (
    AccuracyWarning,
    ConvergenceError,
    DomainError,
    InversionInstabilityError,
    ParameterError,
)
from fbsec.inversion import _Inverter, _adaptive_gk21, _gk21

from conftest import draw_params, BOB_REFERENCE, EVE_REFERENCE

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
        def spikes(x):
            # narrow spike forest the 10-panel budget cannot resolve
            return (np.sin(1e5 * x) / (1e-4 + np.abs(x - 0.5)))[None], np.zeros((1, len(x)))

        with pytest.raises(ConvergenceError, match="quadrature"):
            _adaptive_gk21(spikes, [0.0, 1.0], 1e-8, 10)

    def test_small_outage_probability_converges(self):
        # a small SOP (3.3e-5) on a link with noisy contour sums converges, not raises
        bob = FBParams(mu=1.8933450165389007, m=17.963897117528898, kappa=3.3707583466806876,
                       eta=65.90421204955531, rho2=0.947533815409728, avg_snr=19409.34218515452)
        eve = FBParams(mu=0.17750350321743388, m=25.17139771285187, kappa=0.07183853607312338,
                       eta=0.003513785046535817, rho2=5.199937347021686, avg_snr=53.623558470642394)
        assert sop_numeric(bob, eve, SecrecyConfig(1.0)) == pytest.approx(3.347551e-05, rel=1e-5)

    def test_asc_dominant_eavesdropper_cheap_and_stable(self, monkeypatch):
        # the same lambda = -17.5 dB written two ways, down to the last bit of Bob's SNR
        eve = FBParams(5.81, 4.32, 0.39, 10.99, 0.075, 10**2.2)
        real_sum = _kernels.talbot_sum
        abscissae = []

        def counting(ts, *rest):
            abscissae.append(np.size(ts))
            return real_sum(ts, *rest)

        monkeypatch.setattr("fbsec.inversion._kernels.talbot_sum", counting)
        values = []
        for snr in (10**2.2 * 10**-1.75, 10**0.45):
            abscissae.clear()
            values.append(asc_numeric(FBParams(3.28, 7.96, 0.39, 6.402, 1.194, snr), eve))
            assert sum(abscissae) < 20_000
        assert abs(values[0] - values[1]) < 1e-12


    def test_noisy_link_against_exact_transform_reference(self):
        # Eve's node-doubling probe disagrees by ~1e-6, next to the rejection bar.
        # Against an exponential (Rayleigh) main link the outage metrics are
        # transform values: P(g_D < theta g_E + c) = 1 - exp(-c/G_D) M_E(theta/G_D),
        # and ASC = int_0^inf exp(-t) M_E(t + 1/G_D) / (t + 1/G_D) dt.
        eve_link = FBParams(6.0, 36.0, 79.07358766145289, 98.10216046964295, 0.38404651891648744, 1.0)
        cfg = SecrecyConfig(1.0)
        for bob_db, eve_db, noisy in ((10, 10, True), (20, 10, True), (40, 5, False)):
            bob, eve = fbsec.from_rayleigh(10 ** (bob_db / 10)), eve_link.with_snr(10 ** (eve_db / 10))
            inv = _Inverter(derive(eve), eve.avg_snr, InversionControl())
            inv.probe_check()
            assert inv.noise > 5e-7
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                values, errors = fbsec.numeric_metrics(bob, eve, cfg)
            assert any(issubclass(w.category, AccuracyWarning) for w in caught) == noisy

            def m_e(s):
                return mgf(derive(eve), eve.avg_snr, s).real

            rate = 1.0 / bob.avg_snr
            asc, _ = integrate.quad(lambda t: math.exp(-t) * m_e(t + rate) / (t + rate), 0.0, np.inf,
                                    epsabs=1e-14, epsrel=1e-12, limit=500)
            exact = {
                "asc": asc,
                "sop": 1.0 - math.exp(-(cfg.theta - 1.0) * rate) * m_e(cfg.theta * rate),
                "sopl": 1.0 - m_e(cfg.theta * rate),
                "spsc": m_e(rate),
            }
            for k, ref in exact.items():
                miss = abs(values[k] - ref)
                # the achieved error bounds the actual one, which meets the criterion-3 bar
                assert miss <= errors[k], (bob_db, eve_db, k)
                assert miss <= 1e-6 * max(abs(ref), 1e-2), (bob_db, eve_db, k)

    def test_metric_selection(self):
        bob, eve = BOB_REFERENCE, EVE_REFERENCE
        values, errors = fbsec.numeric_metrics(bob, eve, SecrecyConfig(0.0), metrics=("asc",))
        assert list(values) == list(errors) == ["asc"]
        assert values["asc"] == asc_numeric(bob, eve)
        with pytest.raises(ParameterError, match="metrics"):
            fbsec.numeric_metrics(bob, eve, SecrecyConfig(0.0), metrics=("capacity",))


class TestIntegrator:
    def test_gauss_kronrod_exact_to_degree_31(self):
        degrees = np.arange(32)

        def monomials(x):
            vals = x[None, :] ** degrees[:, None]
            return vals, np.zeros_like(vals)

        val, _, _ = _gk21(np.array([0.0]), np.array([1.0]), monomials)
        np.testing.assert_allclose(val[:, 0], 1.0 / (degrees + 1), rtol=1e-14)

    def test_endpoint_singularity(self):
        val, _ = _adaptive_gk21(lambda x: (x[None] ** -0.8, np.zeros((1, len(x)))),
                                  [0.0, 1.0], 1e-11, 2000)
        assert abs(val[0] - 5.0) < 1e-10

    def test_each_component_meets_its_own_tolerance(self):
        def f(x):
            vals = np.stack([1e-6 * np.exp(x), 1.0 / (1e-2 + (x - 0.3) ** 2), np.sqrt(x)])
            return vals, np.zeros_like(vals)

        exact = np.array([1e-6 * (math.e - 1.0), 10.0 * (math.atan(7.0) + math.atan(3.0)), 2.0 / 3.0])
        rel = 1e-9
        val, err = _adaptive_gk21(f, [0.0, 1.0], rel, 2000)
        tol = np.maximum(1e-12, rel * np.abs(exact))
        assert np.all(np.abs(val - exact) <= tol)
        assert np.all(err <= tol)

    def test_unwanted_component_cannot_fail(self):
        def f(x):
            # a smooth component and the spike forest no 10-panel mesh resolves
            vals = np.stack([np.exp(x), np.sin(1e5 * x) / (1e-4 + np.abs(x - 0.5))])
            return vals, np.zeros_like(vals)

        val, err = _adaptive_gk21(f, [0.0, 1.0], 1e-8, 10, want=[True, False])
        assert abs(val[0] - (math.e - 1.0)) <= 1e-8 * (math.e - 1.0)
        with pytest.raises(ConvergenceError, match="quadrature"):
            _adaptive_gk21(f, [0.0, 1.0], 1e-8, 10)


class TestJointKernel:
    def test_joint_matches_separate_calls(self):
        p = EVE_REFERENCE
        inv = _Inverter(derive(p), p.avg_snr, InversionControl())
        g = np.logspace(-3, 3, 3000)  # spans several 1024-abscissa batches
        args = (inv.base, inv.w, *inv.factors, inv.ln_omega)
        pdf = _kernels.talbot_sum(g, *args, 0.0, inv.lam)
        cdf = _kernels.talbot_sum(g, *args, 1.0, inv.lam)
        joint = _kernels.talbot_sum(g, *args, 0.0, inv.lam, joint=True)
        assert joint.shape == (2, g.size)
        np.testing.assert_array_equal(joint[0], pdf)
        # one rounding per term apart, amplified by the exp(lam) of the contour sum
        np.testing.assert_allclose(joint[1], cdf, rtol=1e-12, atol=0.0)

    def test_batches_do_not_change_values(self):
        p = EVE_REFERENCE
        inv = _Inverter(derive(p), p.avg_snr, InversionControl())
        g = np.linspace(0.01, 30.0, 2500)
        args = (inv.base, inv.w, *inv.factors, inv.ln_omega, 1.0, inv.lam)
        whole = _kernels.talbot_sum(g, *args)
        parts = np.concatenate([_kernels.talbot_sum(g[i:i + 100], *args) for i in range(0, g.size, 100)])
        np.testing.assert_array_equal(whole, parts)


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

