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
from fbsec.inversion import _Bromwich, _Inverter, _adaptive_gk21, _gk21, _links

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
        for bob_db, eve_db in ((10, 10), (20, 10), (40, 5)):
            bob, eve = fbsec.from_rayleigh(10 ** (bob_db / 10)), eve_link.with_snr(10 ** (eve_db / 10))
            inv = _Inverter(derive(eve), eve.avg_snr, InversionControl())
            inv.probe_check()
            assert inv.noise > 5e-7
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                values, errors = fbsec.numeric_metrics(bob, eve, cfg)
            assert not any(issubclass(w.category, AccuracyWarning) for w in caught)

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


def _bromwich_reference(bob, eve, theta, z):
    """30-digit P(g_D - theta g_E < z) minus 1 where the tail 1 - P is smaller.

    The same Bromwich integral as the engine, written independently: the
    transform is the plain four-factor product of ``derive``'s constants, the
    crossing point is a bisection for phi' = 0 on each side, and mpmath's
    tanh-sinh rule integrates along s = c - beta (cosh t - 1) + i w sinh t,
    beta = w for z > 0.  Returns P where the crossing is positive, P - 1
    where it is negative.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    links = []
    for p in (bob, eve):
        dp = derive(p)
        rates = [mp.mpf(complex(r).real) / mp.mpf(p.avg_snr) for r in dp.theta_rates]
        links.append((mp.mpf(dp.ln_omega), rates, [mp.mpf(float(a)) for a in dp.exponents]))
    theta, z = mp.mpf(theta), mp.mpf(z)

    def log_m(link, s):
        ln_omega, rates, exps = link
        return ln_omega - sum(a * mp.log(s + r) for r, a in zip(rates, exps) if a != 0)

    def phi(c):
        return log_m(links[0], c) + log_m(links[1], -theta * c) + z * c - mp.log(abs(c))

    def dphi(c):
        d = z - 1 / c - sum(a / (c + r) for r, a in zip(*links[0][1:]))
        return d + theta * sum(a / (r - theta * c) for r, a in zip(*links[1][1:]))

    def nearest(link):
        return min(r for r, a in zip(*link[1:]) if a > 0 or a != int(a))

    best = None
    for edge, sign in ((nearest(links[1]) / theta, 1), (nearest(links[0]), -1)):
        lo, hi = edge * mp.mpf("1e-12"), edge * mp.mpf("0.7")
        for _ in range(120):  # phi' rises with c: bisect the magnitude geometrically
            mid = mp.sqrt(lo * hi)
            if (dphi(sign * mid) < 0) == (sign > 0):
                lo = mid
            else:
                hi = mid
        c = sign * mp.sqrt(lo * hi)
        if best is None or phi(c) < best[0]:
            best = (phi(c), c, edge)
    _, c, edge = best
    w = min(1 / mp.sqrt(mp.diff(dphi, c)), abs(c), edge - abs(c))
    beta = w if z > 0 else 0
    scale = phi(c) + mp.log(w)  # mp.quad's tolerance is absolute

    def f(t):
        s = c - beta * (mp.cosh(t) - 1) + 1j * w * mp.sinh(t)
        ds = -beta * mp.sinh(t) + 1j * w * mp.cosh(t)
        return mp.im(mp.exp(log_m(links[0], s) + log_m(links[1], -theta * s) + z * s - mp.log(s)
                            + mp.log(ds) - scale))

    pts = [0, 0.25, 0.5, 1, 1.5, 2, 3, 4, 6, 8, 12, 16, 32, 64, 128, 256, 512]
    return float(mp.quad(f, pts) * mp.exp(scale) / mp.pi)


# Wide-box draws (mu in [0.1, 20], m in [0.2, 50], kappa in [1e-3, 100],
# eta and rho2 in [1e-3, 1e3], SNR in [-10, 50] dB, R_s in {0, 0.5, 1, 2}):
# the first of a seeded stream whose smaller tail, P or 1 - P, falls in each
# decade from 1e-3 to 1e-30.  (metric, R_s, Bob, Eve)
WIDE_BOX_TAILS = [
    ('spsc', 2.0, (2.159515171005482, 2.48303597481136, 15.84305400321231, 465.67891097475894, 0.6991816544864, 965.8578921705753),
     (0.13791203685730302, 9.619794160299842, 1.7204587827695579, 909.0246011572206, 85.4178664796528, 5.100035423049469)),
    ('sop', 0.0, (0.13677762158360948, 4.538935716593057, 54.60702333958435, 6.077927206910083, 3.1476136989277106, 0.23505651342991776),
     (2.2250940745360483, 0.2629917919495078, 0.01274703321014434, 2.187708164673848, 0.006295770650271242, 32.721579661178815)),
    ('sop', 0.5, (1.2588317388503627, 0.5359377720120396, 8.824236823192297, 0.098878802741002, 63.81773898211825, 67599.53894461783),
     (0.814397160164893, 1.83455824731656, 54.19822110169875, 22.325027051737248, 0.01047181496795742, 0.5784025564259077)),
    ('spsc', 2.0, (0.12432833241673594, 4.461649169056699, 6.127823872296446, 0.0016934493361504411, 106.96102538098908, 0.5086114019196225),
     (2.396144332496593, 4.1688983178796, 1.36524970942963, 0.06875192494128042, 0.331460048528693, 313.14679042881545)),
    ('sop', 0.0, (3.275417208133162, 0.21377479049705111, 14.304339457101355, 0.01241815979230152, 0.04915688267750064, 0.7482700363864715),
     (1.6986732183660846, 5.79860641881285, 0.03917945635751365, 0.005661728961640607, 142.95906373435415, 50274.029784130915)),
    ('sop', 0.5, (0.138083929643903, 11.893746586054323, 30.79782210150899, 9.437326532580515, 77.67516679544721, 126.05643485023425),
     (8.003375987628598, 25.516790530586185, 0.004506260511413515, 0.008147386246524847, 1.1568633786399494, 17251.767320610532)),
    ('spsc', 1.0, (15.666675857496843, 1.6899321632589377, 0.01799840848421823, 0.3798643209140376, 0.9137829751374066, 37033.65013478827),
     (0.263601974484817, 16.808953974718268, 4.925383675123881, 86.40353581055366, 43.336744102030096, 440.07367238948405)),
    ('sop', 1.0, (6.642068012301252, 1.243080900125521, 0.038500820085586, 0.06241905133138614, 3.301467231361781, 644.0585050737039),
     (6.375342396744071, 0.24949975662829374, 4.105657083956621, 205.8771125054962, 1.8724347528068246, 0.1986998369664697)),
    ('sop', 2.0, (0.12432833241673594, 4.461649169056699, 6.127823872296446, 0.0016934493361504411, 106.96102538098908, 0.5086114019196225),
     (2.396144332496593, 4.1688983178796, 1.36524970942963, 0.06875192494128042, 0.331460048528693, 313.14679042881545)),
    ('sop', 0.0, (3.288419596949489, 1.4795144673039726, 44.01807337233798, 133.8667630067583, 0.0021997697943681267, 9276.822879481739),
     (12.141900124347334, 15.174245947670897, 0.005035105216616685, 97.26755479853445, 6.294684160366565, 0.12300281527497672)),
    ('spsc', 1.0, (3.3952871139988523, 20.732733432172026, 0.07495306346749592, 0.3257623385612145, 580.3383001869647, 0.2833857336961552),
     (2.923144306836235, 6.705362927606357, 0.0013888251981595246, 4.550425874330466, 12.460297512008882, 38811.302573533256)),
    ('sopl', 0.5, (6.071428699509214, 26.171340054480943, 20.248937438317665, 0.006208792736594825, 0.04561694221834502, 0.15046809228561864),
     (3.662997967877988, 7.804197241328325, 0.057166986137496115, 0.2988298507483824, 9.002877964753782, 1568.525731103176)),
    ('sop', 0.0, (2.7603608936822193, 8.574757681924789, 0.27955777437721324, 0.00104685362867962, 61.12027680434936, 3087.3951766910927),
     (1.4366516581201858, 3.8406704398955105, 1.979235384089115, 0.002490589411086004, 26.34692718923986, 3.259576580233369)),
    ('sop', 2.0, (1.5800605915505341, 47.133331438006934, 2.445098272118783, 401.51514026367227, 0.3165998412494874, 1022.0139976351609),
     (0.21032802459540345, 0.6117795533597375, 1.1318338763764713, 0.04575987950650331, 108.09296662116107, 0.37180090868996757)),
    ('sop', 0.0, (3.580067687386962, 36.31604396448904, 97.63299568263308, 3.764599419245557, 0.43861213817661576, 87063.71092204144),
     (1.699304391776805, 1.8627688457242537, 0.35560637788268606, 0.005663696881614374, 31.92238538386162, 1167.1563544832045)),
    ('sopl', 0.5, (8.858223883236843, 0.233894324405266, 0.08155686060986184, 0.009393132576857194, 0.009497503986816045, 47874.54642035392),
     (3.230219486672171, 2.7290281786108337, 1.3038942744530628, 33.10439300489522, 31.82555171636682, 9.032032887598206)),
    ('sop', 0.0, (4.8090812394064555, 47.21065533434843, 8.92422853148665, 0.6814600095335213, 0.014516759305157502, 427.39967746855234),
     (0.6197274508210646, 17.37489304848462, 4.12705071155846, 0.12505987012892478, 703.2178291515427, 0.30424871519367075)),
    ('sop', 0.5, (15.425751421157608, 3.6962346852783723, 0.0054077012950980805, 1.8156601227504388, 0.0014529643164559796, 147.45402968492027),
     (17.84681452813727, 23.508863064391836, 3.0268014234680285, 0.036871532051161324, 0.15856186691199947, 1.005199368786477)),
    ('sopl', 0.5, (15.425751421157608, 3.6962346852783723, 0.0054077012950980805, 1.8156601227504388, 0.0014529643164559796, 147.45402968492027),
     (17.84681452813727, 23.508863064391836, 3.0268014234680285, 0.036871532051161324, 0.15856186691199947, 1.005199368786477)),
    ('sop', 2.0, (18.383159016954718, 4.543853750640057, 1.3243615748744901, 0.007617499139156314, 627.6643735158934, 2567.8027556720067),
     (19.258517859217022, 0.4298557111288075, 0.5915806620622347, 30.938828168550796, 121.58074781443563, 0.6476352861839546)),
    ('sop', 2.0, (7.5065235046748935, 21.557455934326576, 0.001852532643307761, 1.271296834607112, 558.6836140218012, 40364.369607195906),
     (0.37463727514884865, 2.0572503064613703, 1.4569649164361747, 0.15367096687672424, 1.530347114851813, 0.2603666043032648)),
    ('sopl', 2.0, (7.5065235046748935, 21.557455934326576, 0.001852532643307761, 1.271296834607112, 558.6836140218012, 40364.369607195906),
     (0.37463727514884865, 2.0572503064613703, 1.4569649164361747, 0.15367096687672424, 1.530347114851813, 0.2603666043032648)),
    ('sop', 0.5, (3.452563980078077, 27.834191507006796, 8.7170419901427, 107.84949283806746, 0.015283508507427695, 1434.683972635016),
     (1.6648546223820047, 12.025144874405687, 0.15593041247453446, 197.74014124450517, 2.13984716022725, 3.8633668783722905)),
    ('sopl', 1.0, (15.03681268950028, 2.6827840445823443, 0.20368470831910848, 31.147338150272503, 105.72222160852122, 2380.3952069744464),
     (0.6767784891767628, 0.2848005537730124, 0.003906062985606204, 208.78294148302322, 261.96576937351705, 0.14237732474914103)),
    ('sop', 0.5, (7.957387739896565, 15.733772600615245, 54.543703822855406, 19.96162378787548, 1.9282909933015915, 8837.036627659643),
     (7.168089614887253, 6.449117476955255, 2.2099076920466794, 0.011759562301194132, 0.10720447443885842, 8.96550734422783)),
    ('sop', 0.5, (11.767609465136534, 0.8172548926435457, 0.09416894436579333, 15.157510700616962, 0.010947369826325134, 86263.38244959568),
     (10.482244689307938, 23.248450706647883, 0.2009835860071905, 0.08632796372093415, 0.017230978163307303, 21.276346974801005)),
]


class TestOutageContour:
    @pytest.mark.parametrize("metric,rs,bob,eve", WIDE_BOX_TAILS)
    def test_wide_box_tails_against_mpmath(self, metric, rs, bob, eve):
        bob, eve = FBParams(*bob), FBParams(*eve)
        theta = 1.0 if metric == "spsc" else math.exp(rs)
        z = theta - 1.0 if metric == "sop" else 0.0
        ref = _bromwich_reference(bob, eve, theta, z)
        contour = _Bromwich(*_links(bob, eve, InversionControl()))
        tail, err, _ = contour.integrals(np.array([theta]), np.array([z]), 1e-8)
        assert 1e-31 < abs(ref) < 1e-3
        assert abs(tail[0] - ref) <= 1e-8 * abs(ref)
        # the achieved error bounds the actual one
        assert abs(tail[0] - ref) <= err[0]

    def test_readme_pair_rare_event(self):
        # lambda = 70 dB: Bob at 73 dB against Eve at 3 dB
        bob, eve = FBParams(4, 2, 1.5, 0.4, 0.3, 10**7.3), FBParams(2, 1, 0.7, 2, 1.5, 10**0.3)
        values, errors = fbsec.outage_metrics(bob, eve, SecrecyConfig(1.0), metrics=("sop",))
        assert values["sop"] == pytest.approx(3.967120884e-24, rel=1e-9)
        assert errors["sop"] <= 1e-8 * values["sop"]

    def test_wide_box_rare_event(self):
        bob = FBParams(13.20101172828917, 0.29464645435524633, 0.007184483719157476, 0.8359411203020278,
                       1.393824739097366, 2971.7187056386624)
        eve = FBParams(1.016549903295445, 0.43598089504962273, 0.05862182828884876, 780.8339891646935,
                       31.939850515416996, 0.49896057234167596)
        values, _ = fbsec.outage_metrics(bob, eve, SecrecyConfig(1.0), metrics=("sop",))
        assert values["sop"] == pytest.approx(1.05504945579e-26, rel=1e-9)

    def test_saddle_near_the_strip_edge(self):
        # near-cancelling pole/zero pairs pull the saddle toward the strip edge
        bob = FBParams(10.048465430076718, 0.7016591319871176, 30.00828646829595, 171.06958749127267,
                       0.001291526453643308, 1757.8159628917706)
        eve = FBParams(0.10063765485551365, 3.2215626949755696, 0.1525229726006337, 0.01657742289849315,
                       0.08905449955472923, 6875.305272369598)
        values, _ = fbsec.outage_metrics(bob, eve, SecrecyConfig(0.0), metrics=("spsc",))
        assert 1.0 - values["spsc"] == pytest.approx(0.2482571731, rel=1e-7)

    def test_slow_algebraic_decay(self):
        # mu_D + mu_E = 0.6: the vertical-line integrand decays only past every rate
        bob = FBParams(0.1936799239326128, 1.4084319105801713, 0.04247220638234632, 0.5226813067381675,
                       0.01069489611830008, 1741.4988619567787)
        eve = FBParams(7.815274071330153, 0.20706588105626555, 35.59012186807502, 0.0034948251088359147,
                       0.068808095509938, 82.81540599711818)
        values, _ = fbsec.outage_metrics(bob, eve, SecrecyConfig(0.5))
        assert values["sop"] == pytest.approx(0.3812465372, rel=1e-7)
        assert values["sopl"] == pytest.approx(0.3773642232, rel=1e-7)
        assert values["spsc"] == pytest.approx(0.6568678315, rel=1e-7)

    def test_equal_problems_are_computed_once(self):
        values, _ = fbsec.outage_metrics(BOB_REFERENCE, EVE_REFERENCE, SecrecyConfig(0.0))
        assert values["sop"] == values["sopl"]
        assert values["spsc"] == 1.0 - values["sopl"]

    def test_too_slow_decay_is_refused(self):
        bob, eve = FBParams(0.01, 1.0, 1.0, 1.0, 1.0, 10.0), FBParams(0.01, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConvergenceError, match="decays too slowly"):
            fbsec.outage_metrics(bob, eve, SecrecyConfig(1.0))


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


class TestJointKernel:
    def test_batches_do_not_change_values(self):
        p = EVE_REFERENCE
        inv = _Inverter(derive(p), p.avg_snr, InversionControl())
        g = np.linspace(0.01, 30.0, 2500)
        args = (inv.base, inv.w, *inv.factors, inv.ln_omega, 1.0, inv.lam)
        whole = _kernels.talbot_sum(g, *args)
        parts = np.concatenate([_kernels.talbot_sum(g[i:i + 100], *args) for i in range(0, g.size, 100)])
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
        inv = _Inverter(derive(p), p.avg_snr, InversionControl(talbot_nodes=nodes))
        lam = inv.lam
        args = (inv.base, inv.w, *inv.factors, inv.ln_omega)
        ts = self.TS
        # -1 as in TestPhi24AgainstInversion; 96 nodes have weights that underflow to 0
        for s_pow in (0.0, 1.0, -1.0):
            self.check(ts, args, s_pow, lam, _kernels.talbot_sum(ts, *args, s_pow, lam))

    @pytest.mark.parametrize("name", ["fig1-bob", "fig1-eve", "noninteger-a-eve", "noninteger-b-eve"])
    def test_mgf_against_product_formula(self, name):
        p = KERNEL_LINKS[name]
        dp = derive(p)
        s = np.array([1.0, 0.3 + 2.0j, -0.05 + 0.5j, 5.0 - 40.0j, 1e-3j + 1e-6, 1e6 + 1e6j])
        direct = np.full(s.shape, complex(dp.omega_norm))
        for rate, a in zip(dp.theta_rates, dp.exponents):
            direct *= (s + rate.real / p.avg_snr) ** (-a)
        np.testing.assert_allclose(mgf(dp, p.avg_snr, s), direct, rtol=1e-12)


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

