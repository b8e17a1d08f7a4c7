"""The numeric route against independent references."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import fbsec
from fbsec import (
    FBParams,
    InversionControl,
    MCConfig,
    SecrecyConfig,
    closed_metrics,
    derive,
    numeric_metrics,
)
from fbsec.errors import AccuracyWarning, ConvergenceError, ParameterError
from fbsec.inversion import (_CHERNOFF_FRACTIONS, _EDGE_FRACTIONS, _LN_REACH, _OPENINGS, _PROBE_STEP, _AscRule,
                             _Bromwich, _Link, _ragged)
from fbsec.params import METRICS

from conftest import draw_params, BOB_REFERENCE, EVE_REFERENCE
from oracles import (TalbotLink, law_reference, mgf, opening_reference, saddle_start_reference,
                     truncation_reference)

class TestControl:
    def test_defaults(self):
        ctrl = InversionControl()
        assert ctrl.quad_rel_tol == 1e-8

    @pytest.mark.parametrize("kw", [dict(quad_rel_tol=0.1), dict(quad_rel_tol=0.0)])
    def test_validation(self, kw):
        with pytest.raises(ParameterError):
            InversionControl(**kw)


class TestNumericMetrics:
    def test_case2_agreement_all_metrics(self, rng):
        for _ in range(3):
            bob = draw_params(rng, case2=True)
            eve = draw_params(rng, case2=True)
            cfg = SecrecyConfig(1.0)
            closed = closed_metrics(bob, eve, cfg)
            numeric, _ = numeric_metrics(bob, eve, cfg)
            assert numeric["asc"] == pytest.approx(closed["asc"], rel=1e-6)
            assert numeric["sop"] == pytest.approx(closed["sop"], rel=1e-6, abs=1e-9)
            assert numeric["sopl"] == pytest.approx(closed["sopl"], rel=1e-6, abs=1e-9)
            assert numeric["spsc"] == pytest.approx(closed["spsc"], rel=1e-6, abs=1e-9)

    def test_identical_links_half(self):
        p = FBParams(2.2, 1.7, 1.0, 0.4, 0.6, 10.0)
        cfg = SecrecyConfig(0.0)
        values, _ = numeric_metrics(p, p, cfg, metrics=("sop", "sopl", "spsc"))
        assert values["sop"] == pytest.approx(0.5, abs=1e-6)
        assert values["sopl"] == pytest.approx(0.5, abs=1e-6)
        assert values["spsc"] == pytest.approx(0.5, abs=1e-6)

    def test_outage_ordering_along_sweep(self):
        eve = EVE_REFERENCE
        cfg = SecrecyConfig(1.0)
        prev_sop = prev_low = 1.1
        for lam_db in (0.0, 10.0, 20.0, 30.0):
            bob = FBParams(3.5, 2.5, 1, 0.1, 0.1, 10 ** ((5.0 + lam_db) / 10.0))
            values, _ = numeric_metrics(bob, eve, cfg, metrics=("sop", "sopl"))
            s, lo = values["sop"], values["sopl"]
            assert lo <= s + 1e-9
            assert s <= prev_sop + 1e-9 and lo <= prev_low + 1e-9
            prev_sop, prev_low = s, lo

    def test_asc_tail_control_insensitive(self, monkeypatch):
        # the R-integral stops where Bob's survival falls below the cut; moving
        # the cut moves ASC by no more than the achieved errors, which carry a
        # bound on the integral past it
        bob = FBParams(3.5, 2.5, 1, 0.5, 0.1, 100.0)
        cfg = SecrecyConfig(0.0)
        monkeypatch.setattr("fbsec.inversion._TAIL_CUTOFF_PROB", 1e-10)
        a, err_a = (d["asc"] for d in numeric_metrics(bob, EVE_REFERENCE, cfg, metrics=("asc",)))
        monkeypatch.setattr("fbsec.inversion._TAIL_CUTOFF_PROB", 1e-6)
        b, err_b = (d["asc"] for d in numeric_metrics(bob, EVE_REFERENCE, cfg, metrics=("asc",)))
        assert abs(a - b) <= err_a + err_b
        assert max(err_a, err_b) <= 1e-8 * a

    def test_quadrature_non_convergence_reported(self, monkeypatch):
        # this row needs a second round of panels, which a 2-panel budget refuses
        bob = FBParams(3.5, 2.5, 1, 0.5, 0.1, 10**3.5)
        monkeypatch.setattr("fbsec.inversion._MAX_PANELS", 2)
        with pytest.raises(ConvergenceError, match="quadrature"):
            numeric_metrics(bob, EVE_REFERENCE, SecrecyConfig(1.0), metrics=("asc",))

    def test_asc_tail_cut_past_float_range_refused(self):
        # at 3003 dB Bob's survival bound overflows: ASC's cut in R is infinite
        bob = FBParams(4, 2, 1.5, 0.4, 0.3, 10**300.3)
        with pytest.raises(ConvergenceError, match="tail cut"):
            numeric_metrics(bob, EVE_REFERENCE, SecrecyConfig(0.0), metrics=("asc",))

    def test_small_outage_probability_converges(self):
        # a small SOP (3.3e-5) on a link with noisy contour sums converges, not raises
        bob = FBParams(mu=1.8933450165389007, m=17.963897117528898, kappa=3.3707583466806876,
                       eta=65.90421204955531, rho2=0.947533815409728, avg_snr=19409.34218515452)
        eve = FBParams(mu=0.17750350321743388, m=25.17139771285187, kappa=0.07183853607312338,
                       eta=0.003513785046535817, rho2=5.199937347021686, avg_snr=53.623558470642394)
        sop = numeric_metrics(bob, eve, SecrecyConfig(1.0), metrics=("sop",))[0]["sop"]
        assert sop == pytest.approx(3.347551e-05, rel=1e-5)

    def test_asc_dominant_eavesdropper_cheap_and_stable(self, monkeypatch):
        # the same lambda = -17.5 dB written two ways, down to the last bit of Bob's SNR
        eve = FBParams(5.81, 4.32, 0.39, 10.99, 0.075, 10**2.2)
        real_integrals = _Bromwich.integrals
        problems = []

        def counting(self, theta, z, rel_tol, rule=None):
            problems.append(len(theta))
            return real_integrals(self, theta, z, rel_tol, rule)

        monkeypatch.setattr(_Bromwich, "integrals", counting)
        values = []
        for snr in (10**2.2 * 10**-1.75, 10**0.45):
            problems.clear()
            bob = FBParams(3.28, 7.96, 0.39, 6.402, 1.194, snr)
            values.append(numeric_metrics(bob, eve, SecrecyConfig(0.0), metrics=("asc",))[0]["asc"])
            assert sum(problems) <= 80
        assert abs(values[0] - values[1]) < 1e-12
        assert values[0] == pytest.approx(values[1], rel=1e-9)

    def test_noisy_link_against_exact_transform_reference(self):
        # Eve's node-doubling probe disagrees by ~1e-6, next to the rejection bar.
        # Against an exponential (Rayleigh) main link the outage metrics are
        # transform values: P(g_D < theta g_E + c) = 1 - exp(-c/G_D) M_E(theta/G_D),
        # and ASC = int_0^inf exp(-t) M_E(t + 1/G_D) / (t + 1/G_D) dt.
        eve_link = FBParams(6.0, 36.0, 79.07358766145289, 98.10216046964295, 0.38404651891648744, 1.0)
        cfg = SecrecyConfig(1.0)
        for bob_db, eve_db in ((10, 10), (20, 10), (40, 5)):
            bob, eve = fbsec.from_rayleigh(10 ** (bob_db / 10)), eve_link.with_snr(10 ** (eve_db / 10))
            inv = TalbotLink(derive(eve), eve.avg_snr)
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
        assert values["asc"] == numeric_metrics(bob, eve, SecrecyConfig(1.0), metrics=("asc",))[0]["asc"]
        with pytest.raises(ParameterError, match="metrics"):
            fbsec.numeric_metrics(bob, eve, SecrecyConfig(0.0), metrics=("capacity",))


def _wide_box_link(rng):
    """One link of the wide box: mu in [0.1, 20], m in [0.2, 50], kappa in [1e-3, 100],
    eta and rho2 in [1e-3, 1e3] (all log-uniform), SNR uniform in [-10, 50] dB."""
    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    return FBParams(log_uniform(0.1, 20.0), log_uniform(0.2, 50.0), log_uniform(1e-3, 100.0),
                    log_uniform(1e-3, 1e3), log_uniform(1e-3, 1e3), 10.0 ** (rng.uniform(-10.0, 50.0) / 10.0))


def _fine_asc(bob, eve):
    """ASC by a much finer rule than the engine's: 40-point Gauss-Legendre on 48
    geometric panels up to ln(1 + lambda_D) and 32 even ones past it, to where Bob's
    survival is 1e-16, with the contour at 1e-11."""
    links = _Link(bob), _Link(eve)
    contour = _Bromwich(*links)
    r_hi = math.log1p(links[0].upper_limit(1e-16)[0])
    b = min(math.log1p(bob.avg_snr), 0.5 * r_hi)
    edges = np.concatenate([[0.0], b * np.geomspace(1e-14, 1.0, 48), np.linspace(b, r_hi, 33)[1:]])
    x, w = np.polynomial.legendre.leggauss(40)
    lo, hi = edges[:-1, None], edges[1:, None]
    r = (0.5 * (lo + hi) + 0.5 * (hi - lo) * x).ravel()
    weights = (0.5 * (hi - lo) * w).ravel()
    tail, _, upper = contour.integrals(np.exp(r), np.expm1(r), 1e-11)
    return float(weights @ np.where(upper, -tail, 1.0 - tail))


class TestAscFromOutageCurve:
    """ASC = int_0^inf (1 - SOP(R)) dR on the outage contour."""

    # 30-digit mpmath references (ROADMAP item F): an eavesdropper-dominant
    # pair at lambda = -1.75 dB, and a pair whose ASC falls as lambda rises
    @pytest.mark.parametrize("bob,eve,ref", [
        (FBParams(3.28, 7.96, 0.39, 6.402, 1.194, 10**0.45), FBParams(5.81, 4.32, 0.39, 10.99, 0.075, 10**2.2),
         1.07009794943e-8),
        (FBParams(1, 1, 1, math.e, 1, 10**0.1), FBParams(math.e**2, 1, 1, 1, 1, 1e4), 1.45389175134e-22),
    ])
    def test_small_asc_against_thirty_digit_reference(self, bob, eve, ref):
        values, errors = numeric_metrics(bob, eve, SecrecyConfig(0.0), metrics=("asc",))
        assert values["asc"] == pytest.approx(ref, rel=1e-8)
        assert errors["asc"] <= 1e-8 * ref

    def test_achieved_error_is_honest(self):
        # wide-box pairs, mu < 1 and lambda_D >= 40 dB among them: the reported
        # error bounds the distance to a much finer rule
        rng = np.random.default_rng(2611)
        pairs = [(_wide_box_link(rng), _wide_box_link(rng)) for _ in range(48)]
        assert any(bob.mu < 1.0 for bob, _ in pairs)
        assert any(bob.avg_snr >= 1e4 for bob, _ in pairs)
        checked = 0
        for bob, eve in pairs:
            try:
                values, errors = numeric_metrics(bob, eve, SecrecyConfig(0.0), metrics=("asc",))
            except fbsec.FbsecError:
                continue
            ref = _fine_asc(bob, eve)
            assert abs(values["asc"] - ref) <= errors["asc"] + 1e-10 * abs(ref), (bob, eve)
            checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("bob,eve", [
        (BOB_REFERENCE, EVE_REFERENCE),  # fig1
        (FBParams(4, 2, 1.5, 0.4, 0.3, 10**1.2), FBParams(2, 1, 0.7, 2, 1.5, 10**0.3)),  # README Case 2
    ], ids=["fig1", "readme"])
    def test_tails_match_their_definition(self, bob, eve):
        # rows at r = 1, 1e-2 and 1e3 times the link's SNR: R_hi = log1p(r upper) of the link's tail
        # bound, and the cut the least over Bob's Chernoff points t of
        # M_D(-t) M_E(e^R_hi t) e^(-t (e^R_hi - 1)) / (t e^R_hi), bit for bit
        link_d, link_e = _Link(bob), _Link(eve)
        snrs = [bob.avg_snr * r for r in (1.0, 1e-2, 1e3)]
        for snr, (r_hi, cut) in zip(snrs, _AscRule.tails(link_d, link_e, snrs)):
            r = snr / link_d.avg_snr
            upper, ln_m = link_d.upper_limit(1e-10)
            assert r_hi.hex() == math.log1p(r * upper).hex()
            theta_hi, tau = math.exp(r_hi), link_d.r * _CHERNOFF_FRACTIONS  # tau = r t, in the link's units
            ln_md, _ = link_d.log_m(-tau, 0.0, phase=False)
            assert ln_m.tobytes() == ln_md.tobytes()
            ln_me, _ = link_e.log_m(theta_hi / r * tau, 0.0, phase=False)
            t = tau / r
            bound = np.exp(np.min(ln_md + ln_me - t * (theta_hi - 1.0) - np.log(t * theta_hi)))
            assert cut.hex() == float(bound).hex()


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


# the outage metrics of each route's entry point, for a Case-2 pair
OUTAGE_ROUTES = {
    "closed": lambda bob, eve, cfg: closed_metrics(bob, eve, cfg, ("sop", "sopl", "spsc")),
    "numeric": lambda bob, eve, cfg: numeric_metrics(bob, eve, cfg, metrics=("sop", "sopl", "spsc"))[0],
    "montecarlo": lambda bob, eve, cfg: {
        k: est.mean for k, est in fbsec.estimate(bob, eve, cfg, MCConfig(n_samples=100_000, seed=5)).items()
    },
}


# Pairs of TestOutageContour that go through numeric_metrics
README_RARE_EVENT = (FBParams(4, 2, 1.5, 0.4, 0.3, 10**7.3), FBParams(2, 1, 0.7, 2, 1.5, 10**0.3))  # lambda = 70 dB
WIDE_BOX_RARE_EVENT = (
    FBParams(13.20101172828917, 0.29464645435524633, 0.007184483719157476, 0.8359411203020278,
             1.393824739097366, 2971.7187056386624),
    FBParams(1.016549903295445, 0.43598089504962273, 0.05862182828884876, 780.8339891646935,
             31.939850515416996, 0.49896057234167596),
)
SADDLE_NEAR_EDGE = (
    FBParams(10.048465430076718, 0.7016591319871176, 30.00828646829595, 171.06958749127267,
             0.001291526453643308, 1757.8159628917706),
    FBParams(0.10063765485551365, 3.2215626949755696, 0.1525229726006337, 0.01657742289849315,
             0.08905449955472923, 6875.305272369598),
)
SLOW_DECAY = (
    FBParams(0.1936799239326128, 1.4084319105801713, 0.04247220638234632, 0.5226813067381675,
             0.01069489611830008, 1741.4988619567787),
    FBParams(7.815274071330153, 0.20706588105626555, 35.59012186807502, 0.0034948251088359147,
             0.068808095509938, 82.81540599711818),
)
TOO_SLOW_DECAY = (FBParams(0.01, 1.0, 1.0, 1.0, 1.0, 10.0), FBParams(0.01, 1.0, 1.0, 1.0, 1.0, 1.0))
README_PAIR = (FBParams(4, 2, 1.5, 0.4, 0.3, 10**1.2), FBParams(2, 1, 0.7, 2, 1.5, 10**0.3))  # Case 2


class TestOutageContour:
    @pytest.mark.parametrize("metric,rs,bob,eve", WIDE_BOX_TAILS)
    def test_wide_box_tails_against_mpmath(self, metric, rs, bob, eve):
        bob, eve = FBParams(*bob), FBParams(*eve)
        theta = 1.0 if metric == "spsc" else math.exp(rs)
        z = theta - 1.0 if metric == "sop" else 0.0
        ref = _bromwich_reference(bob, eve, theta, z)
        contour = _Bromwich(_Link(bob), _Link(eve))
        tail, err, _ = contour.integrals(np.array([theta]), np.array([z]), 1e-8)
        assert 1e-31 < abs(ref) < 1e-3
        assert abs(tail[0] - ref) <= 1e-8 * abs(ref)
        # the achieved error bounds the actual one
        assert abs(tail[0] - ref) <= err[0]

    def test_readme_pair_rare_event(self):
        # lambda = 70 dB: Bob at 73 dB against Eve at 3 dB
        bob, eve = README_RARE_EVENT
        values, errors = numeric_metrics(bob, eve, SecrecyConfig(1.0), metrics=("sop",))
        assert values["sop"] == pytest.approx(3.967120884e-24, rel=1e-9)
        assert errors["sop"] <= 1e-8 * values["sop"]

    def test_wide_box_rare_event(self):
        bob, eve = WIDE_BOX_RARE_EVENT
        values, _ = numeric_metrics(bob, eve, SecrecyConfig(1.0), metrics=("sop",))
        assert values["sop"] == pytest.approx(1.05504945579e-26, rel=1e-9)

    def test_saddle_near_the_strip_edge(self):
        # near-cancelling pole/zero pairs pull the saddle toward the strip edge
        bob, eve = SADDLE_NEAR_EDGE
        values, _ = numeric_metrics(bob, eve, SecrecyConfig(0.0), metrics=("spsc",))
        assert 1.0 - values["spsc"] == pytest.approx(0.2482571731, rel=1e-7)

    def test_slow_algebraic_decay(self):
        # mu_D + mu_E = 0.6: the vertical-line integrand decays only past every rate
        bob, eve = SLOW_DECAY
        values, _ = numeric_metrics(bob, eve, SecrecyConfig(0.5), metrics=("sop", "sopl", "spsc"))
        assert values["sop"] == pytest.approx(0.3812465372, rel=1e-7)
        assert values["sopl"] == pytest.approx(0.3773642232, rel=1e-7)
        assert values["spsc"] == pytest.approx(0.6568678315, rel=1e-7)

    @pytest.mark.parametrize("route", sorted(OUTAGE_ROUTES))
    def test_equal_problems_are_computed_once(self, route):
        # every route solves each distinct (theta, z) of the shared table once
        bob, eve = README_PAIR
        at_zero = OUTAGE_ROUTES[route](bob, eve, SecrecyConfig(0.0))
        assert at_zero["sop"] == at_zero["sopl"]
        assert at_zero["spsc"] == 1.0 - at_zero["sopl"]
        at_one = OUTAGE_ROUTES[route](bob, eve, SecrecyConfig(1.0))
        assert at_one["sopl"] <= at_one["sop"]

    def test_too_slow_decay_is_refused(self):
        bob, eve = TOO_SLOW_DECAY
        with pytest.raises(ConvergenceError, match="decays too slowly"):
            numeric_metrics(bob, eve, SecrecyConfig(1.0), metrics=("sop", "sopl", "spsc"))


class TestStableFactors:
    """The paired factors of the no-shadowing surrogates give log M of the law itself."""

    # (link, stiff pairs, exponents left at +-1e6): the third has one pair and one
    # couple whose rates lie more than 10% apart, so it stays unpaired
    LINKS = [
        (fbsec.from_beckmann(1, 0.5, 1, 10), 2, 0),
        (FBParams(1, 1e6, 1.5, 0.3, 0.64, 100), 2, 0),
        (FBParams(26.3253255466307, 1e6, 207.48079556974696, 8395.498315023075, 0.00021969427582897144,
                  8577499.867362984), 1, 2),
    ]

    @pytest.mark.parametrize("index", range(len(LINKS)))
    def test_log_m_against_unpaired_sum(self, index):
        mp = pytest.importorskip("mpmath")
        p, n_pairs, n_big = self.LINKS[index]
        link = _Link(p)
        poles, exps, pair_x = link.factors[:3]
        assert len(pair_x) == n_pairs
        assert np.sum(np.abs(exps) > 1e5) == n_big
        for s in (0.5, 3.0, 1 + 2j, 0.05 - 0.3j, 10 + 40j):
            s = complex(s)
            re, im = link.log_m(np.array([s.real]), np.array([s.imag]))
            with mp.workdps(60):
                # the unpaired sum of the law's own constants, from its parameters
                ln_omega, rates, exponents = law_reference(p)
                ref = ln_omega - mp.fsum(a * mp.log(mp.mpc(s) + r) for r, a in zip(rates, exponents))
            # 1e-12, plus the rounding of each unpaired factor's log times its exponent
            floor = 4 * np.finfo(float).eps * sum(abs(a * np.log(complex(s + x))) for x, a in zip(poles, exps))
            assert abs(re[0] - float(ref.real)) <= 1e-12 + floor
            assert abs(im[0] - float(ref.imag)) <= 1e-12 + floor


def _settling(values, errors):
    """Whether each successive difference of ``values`` is at most a tenth of the one before it,
    or within the achieved errors of its two values."""
    d = np.abs(np.diff(values))
    return all(d[i] <= 0.1 * d[i - 1] or d[i] <= errors[i] + errors[i + 1] for i in range(1, len(d)))


class TestLargeM:
    """Links toward the no-shadowing limit m -> inf: each root an exact delta from its partner."""

    @staticmethod
    def _sop(bob, rs):
        values, errors = numeric_metrics(bob, EVE_REFERENCE, SecrecyConfig(rs), metrics=("sop",))
        return values["sop"], errors["sop"]

    @pytest.mark.parametrize("kappa", [1e-4, 1.5])
    def test_sop_settles_as_m_grows(self, kappa):
        # merging a root with its partner at 1e-9 dropped the line-of-sight term: at kappa = 1.5
        # the SOP went 0.0593345 -> 0.0551050 -> 0.0365787 from m = 1e6 to 1e9 and 1e12
        values, errors = zip(*(self._sop(FBParams(1.0, m, kappa, 0.3, 0.64, 100.0), 1.0)
                               for m in (1e4, 1e6, 1e9, 1e12, 1e15)))
        assert _settling(values, errors), values

    def test_kappa_mu_shadowed_limit(self):
        # eta = 1: one root is its partner exactly, the other delta = -(2 X x + Y) / (alpha2 + X) from it
        limit = 0.3510802351
        values, errors = zip(*(self._sop(FBParams(1.0, m, 1.0, 1.0, 1.0, 10.0), 0.5)
                               for m in (1e6, 1e9, 1e12, 1e16, 1e300)))
        assert _settling(values, errors), values
        assert abs(values[0] - limit) <= 1e-6
        assert all(abs(v - limit) <= 1e-10 for v in values[2:])


# The pairs of the numeric-sweep benchmark workload (perfbench/workloads.py):
# fig1, the stiff no-shadowing surrogate (m = 1e6) as Bob, and two pairs with
# non-integer parameters.  Bob's SNR is a placeholder; lambda sets it.
SWEEP_PAIRS = {
    "fig1": (BOB_REFERENCE, EVE_REFERENCE),
    "stiff": (FBParams(1.0, 1e6, 1.5, 0.3, 0.64, 1.0), EVE_REFERENCE),
    "noninteger-a": (FBParams(2.7, 1.8, 3.2, 0.45, 2.5, 1.0), FBParams(1.3, 4.6, 0.35, 2.2, 0.6, 10**0.8)),
    "noninteger-b": (FBParams(3.1, 0.75, 0.8, 1.7, 0.25, 1.0), FBParams(0.8, 2.3, 6.0, 0.6, 3.5, 10**0.2)),
}
SWEEP_LAMBDAS_DB = (-10.0, 10.0, 40.0)


def _sweep_links(names=tuple(SWEEP_PAIRS)):
    """(Bob, Eve) of the named sweep pairs at each of SWEEP_LAMBDAS_DB."""
    return [(bob.with_snr(eve.avg_snr * 10 ** (lam / 10.0)), eve)
            for bob, eve in (SWEEP_PAIRS[k] for k in names) for lam in SWEEP_LAMBDAS_DB]


def _asc_rule(link_d, link_e, avg_snr):
    """The ASC rule of one row at the default tolerance, on its own tail cut."""
    return _AscRule(link_d, link_e, 1e-8, avg_snr, _AscRule.tails(link_d, link_e, [avg_snr])[0])


def _first_batch(bob, eve):
    """The contour and the first batch of an all-metrics row at R_s = 1: the
    outage problems and ASC's first nodes, as numeric_metrics sends them."""
    contour = _Bromwich(_Link(bob), _Link(eve))
    keys = sorted(set(SecrecyConfig(1.0).outage_problems(METRICS).values()))
    theta_r, z_r = _asc_rule(contour.d, contour.e, bob.avg_snr).problems()
    return contour, np.r_[[k[0] for k in keys], theta_r], np.r_[[k[1] for k in keys], z_r]


class TestContourWork:
    """What each contour problem costs: magnitude-only probes and the first trapezoid pass."""

    def test_log_magnitude_is_the_third_output_of_terms(self):
        rng = np.random.default_rng(5)
        for bob, eve in _sweep_links(("fig1", "stiff")):
            contour, theta, z = _first_batch(bob, eve)
            c, w, _, t_max = contour.contour(theta, z)
            t = rng.uniform(0.0, 1.0, (theta.size, 32)) * t_max[:, None]
            # at the widest opening, where the probes start
            args = [x[:, None] for x in (c, w, np.where(z > 0.0, w, 0.0), theta, z)]
            with np.errstate(over="ignore"):
                _, _, ref = contour.terms(t, *args)
            np.testing.assert_allclose(contour.log_magnitude(t, *args), ref, rtol=0.0, atol=1e-12)

    def test_opening_matches_a_full_terms_reference(self):
        rng = np.random.default_rng(2612)
        pairs = _sweep_links(("fig1", "stiff")) + [(_wide_box_link(rng), _wide_box_link(rng)) for _ in range(120)]
        checked = narrower = 0
        for bob, eve in pairs:
            try:
                contour, theta, z = _first_batch(bob, eve)
                c, w, beta, _ = contour.contour(theta, z)
            except fbsec.FbsecError:
                continue
            pos = z > 0.0
            ref = opening_reference(contour, c[pos], w[pos], theta[pos], z[pos])
            assert np.array_equal(beta[pos], ref), (bob, eve)
            narrower += np.count_nonzero(ref < w[pos])
            checked += 1
        assert checked >= 100 + 6
        assert narrower > 0

    def test_first_pass_at_half_the_step_agrees(self, monkeypatch):
        # a first pass at 0.05 against 0.1 agrees within both runs' achieved
        # errors and refuses the same problems
        cases = [(BOB_REFERENCE, EVE_REFERENCE, 1.0, METRICS), (*README_PAIR, 1.0, METRICS)]
        cases += [(bob, eve, 1.0, METRICS) for bob, eve in _sweep_links()]
        cases += [(*README_RARE_EVENT, 1.0, ("sop",)), (*WIDE_BOX_RARE_EVENT, 1.0, ("sop",)),
                  (*SADDLE_NEAR_EDGE, 0.0, ("spsc",)), (*SLOW_DECAY, 0.5, ("sop", "sopl", "spsc")),
                  (*TOO_SLOW_DECAY, 1.0, ("sop", "sopl", "spsc"))]

        def run():
            out = []
            for bob, eve, rs, metrics in cases:
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", AccuracyWarning)  # the stiff surrogate's
                        values, errors = numeric_metrics(bob, eve, SecrecyConfig(rs), metrics=metrics)
                except ConvergenceError:
                    out.append(None)
                    continue
                out += [(values[k], errors[k]) for k in metrics]
            for metric, rs, bob, eve in WIDE_BOX_TAILS:
                theta = 1.0 if metric == "spsc" else math.exp(rs)
                z = theta - 1.0 if metric == "sop" else 0.0
                tail, err, _ = _Bromwich(_Link(FBParams(*bob)), _Link(FBParams(*eve))).integrals(
                    np.array([theta]), np.array([z]), 1e-8)
                out.append((tail[0], err[0]))
            return out

        coarse = run()
        monkeypatch.setattr("fbsec.inversion._STEP", 0.05)
        fine = run()
        assert len(coarse) == len(fine) and coarse.count(None) == 1
        for a, b in zip(coarse, fine):
            assert (a is None) == (b is None)
            if a is not None:
                assert abs(a[0] - b[0]) <= a[1] + b[1], (a, b)

    def test_truncation_at_40_e_folds_keeps_every_sum(self, monkeypatch):
        # the reference runs e^(sz) out to 295 e-folds or more: its extra nodes
        # change no value's bits and no error beyond 1e-9 of itself
        nodes, real_terms = [], _Bromwich.terms

        def terms(self, t, *args):
            nodes[-1] += t.size
            return real_terms(self, t, *args)

        monkeypatch.setattr(_Bromwich, "terms", terms)
        batches = [_first_batch(bob, eve) for bob, eve in _sweep_links()]

        def run():
            nodes.append(0)
            return [contour.integrals(theta, z, 1e-8) for contour, theta, z in batches]

        short = run()
        monkeypatch.setattr(_Bromwich, "_truncation", truncation_reference)
        long = run()
        for (value, err, upper), (value_ref, err_ref, upper_ref) in zip(short, long):
            assert _same_bits(value, value_ref) and np.array_equal(upper, upper_ref)
            np.testing.assert_allclose(err, err_ref, rtol=1e-9, atol=0.0)
        assert nodes[0] <= 0.85 * nodes[1], nodes

    def test_terms_calls_per_integrals_call(self, monkeypatch):
        # fig1's first batch at R_s = 1, every problem held to the outage target: its first
        # pass and one halving; a first pass at 0.05 meets the tolerance at once
        real_terms, real_integrals = _Bromwich.terms, _Bromwich.integrals
        calls = []

        def terms(self, *args):
            calls[-1] += 1
            return real_terms(self, *args)

        def integrals(self, *args):
            calls.append(0)
            return real_integrals(self, *args)

        monkeypatch.setattr(_Bromwich, "terms", terms)
        monkeypatch.setattr(_Bromwich, "integrals", integrals)
        # one terms call per pass: no pass of this pair is cut into pieces of _CHUNK_NODES
        monkeypatch.setattr("fbsec.inversion._CHUNK_NODES", 1 << 16)
        contour, theta, z = _first_batch(BOB_REFERENCE, EVE_REFERENCE)
        contour.integrals(theta, z, 1e-8)
        assert calls == [2]
        # that halving was the rule nodes': at their own target fig1 takes one pass, with all
        # metrics and with the outage metrics alone
        calls.clear()
        numeric_metrics(BOB_REFERENCE, EVE_REFERENCE, SecrecyConfig(1.0))
        numeric_metrics(BOB_REFERENCE, EVE_REFERENCE, SecrecyConfig(1.0), metrics=("sop", "sopl", "spsc"))
        assert calls == [1, 1]
        monkeypatch.setattr("fbsec.inversion._STEP", 0.05)
        calls.clear()
        contour.integrals(theta, z, 1e-8)
        assert calls == [1]

    @staticmethod
    def _assert_modulus_pass(contour, sr, si, theta):
        """log_m without its phase is the real part of the full log_m, bit for bit, on both links."""
        for link, x, y in ((contour.d, sr, si), (contour.e, -theta * sr, -theta * si)):
            # a distance that underflows makes a log infinite, or not a number: the same on both passes
            with np.errstate(divide="ignore", invalid="ignore"):
                re, _ = link.log_m(x, y)
                modulus, phase = link.log_m(x, y, phase=False)
            assert phase is None and np.array_equal(modulus, re, equal_nan=True)

    def test_modulus_pass_is_the_real_part_of_the_full_kernel(self):
        assert len(_Link(SWEEP_PAIRS["stiff"][0]).factors[2]) > 0  # its couples take the log1p branch
        for bob, eve in _sweep_links():
            contour, theta, z = _first_batch(bob, eve)
            c, w, _, _ = contour.contour(theta, z)
            # the probe grid of every opening: t = 0, 0.5, ... up to the truncation or the reach
            for opening in _OPENINGS:
                beta = np.where(z > 0.0, w * opening, 0.0)
                t_max = contour._truncation(w, beta, theta, z)
                last = np.minimum(np.floor(t_max / _PROBE_STEP), np.ceil((_LN_REACH - np.log(w)) / _PROBE_STEP))
                p, node = _ragged(last.astype(int) + 1)
                _, sr, si, *_ = contour._path(_PROBE_STEP * node, c[p], w[p], beta[p])
                self._assert_modulus_pass(contour, sr, si, theta[p])
            # real axes: the Chernoff bounds' -t inside the strip, at ASC's tail thetas, and right of it
            tau = contour.d.r * np.r_[_CHERNOFF_FRACTIONS, np.linspace(0.01, 0.99, 99)]
            for theta_hi in (np.exp(np.linspace(0.0, 40.0, 9))[:, None], 1.0):
                self._assert_modulus_pass(contour, -tau, 0.0, theta_hi)
            self._assert_modulus_pass(contour, np.geomspace(1e-3, 1e6, 100), 0.0, 1.0)

    def test_saddle_slope_is_the_first_derivative(self):
        # phi' of the bisection, without phi'', at all 64 candidate points of both sides
        for bob, eve in _sweep_links():
            contour, theta, z = _first_batch(bob, eve)
            edge = np.stack([contour.e.r / theta, np.full(theta.size, -contour.d.r)], axis=1)
            args = edge[..., None] * _EDGE_FRACTIONS, theta[:, None, None], z[:, None, None]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                slope, second = contour._phi_derivatives(*args, second=False)
                ref, _ = contour._phi_derivatives(*args)
            assert second is None and slope.shape == (theta.size, 2, _EDGE_FRACTIONS.size)
            assert _same_bits(slope, ref)

    def test_path_moduli_from_squares_near_the_reach(self):
        # mu_D = mu_E chosen so that the vertical path of (theta, z) = (1, 0) ends at
        # |s| = e^(_LN_REACH - 1), near the farthest a path goes before integrals refuses it
        def path_end(mu):
            contour = _Bromwich(_Link(FBParams(mu, 1, 1, 1, 1, 10.0)), _Link(FBParams(mu, 1, 1, 1, 1, 1.0)))
            c, w, beta, t_max = contour.contour(np.array([1.0]), np.array([0.0]))
            return contour._path(np.linspace(0.0, t_max[0], 4001), c, w, beta)

        lo, hi = math.log(0.01), math.log(10.0)  # ln mu; a larger mu ends the path sooner
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if path_end(math.exp(mid))[6][-1] > _LN_REACH - 1.0 else (lo, mid)
        _, sr, si, dr, di, _, ln_s, ln_ds = path_end(math.exp(lo))
        assert _LN_REACH - math.log(10.0) <= ln_s[-1] <= _LN_REACH
        for ln, ref in ((ln_s, np.log(np.hypot(sr, si))), (ln_ds, np.log(np.hypot(dr, di)))):
            assert np.isfinite(ln).all()
            # relative to the log, or to 1 near |s| = 1, where one ulp of |s| is most of log|s|
            assert np.all(np.abs(ln - ref) <= 1e-15 * np.maximum(np.abs(ref), 1.0))


class TestRuleNodeTarget:
    """ASC's rule nodes stop at a quarter of quad_rel_tol of their own 1 - SOP, not at their
    smaller tail: the rule reads nothing else of them."""

    @staticmethod
    def _asc(bob, eve, monkeypatch):
        """(ASC, achieved error, the rule's node-error term sum jac w err, contour problems)."""
        seen = {"problems": 0}
        real_integrals, real_result = _Bromwich.integrals, _AscRule.result

        def integrals(self, theta, *args):
            seen["problems"] += len(theta)
            return real_integrals(self, theta, *args)

        def result(self):
            seen["nodes"] = float(self.done[5].sum())
            return real_result(self)

        with monkeypatch.context() as m:
            m.setattr(_Bromwich, "integrals", integrals)
            m.setattr(_AscRule, "result", result)
            values, errors = numeric_metrics(bob, eve, SecrecyConfig(1.0), metrics=("asc",))
        return values["asc"], errors["asc"], seen["nodes"], seen["problems"]

    def test_against_the_outage_target(self, monkeypatch, rng):
        # the four sweep pairs and the tests' draw, each against a run with every node held to
        # the outage target: ASC within its achieved error, the node errors grown by at most a
        # quarter of ASC's budget over that run's (the rounding floor and differences far
        # below the target), and no panel split that did not split before
        pairs = _sweep_links() + [(draw_params(rng), draw_params(rng)) for _ in range(8)]
        for bob, eve in pairs:
            asc, err, nodes, problems = self._asc(bob, eve, monkeypatch)
            monkeypatch.setattr("fbsec.inversion._RULE_SHARE", 0.0)
            asc_ref, _, nodes_ref, problems_ref = self._asc(bob, eve, monkeypatch)
            monkeypatch.undo()
            assert abs(asc - asc_ref) <= err, (bob, eve)
            assert nodes <= 0.25 * 1e-8 * abs(asc) + nodes_ref, (bob, eve)
            assert problems == problems_ref, (bob, eve)

    def test_outage_problems_keep_their_target(self):
        # fig1's first batch with its 40 rule nodes flagged: its three outage problems come out
        # bit for bit as without flags, and the rule nodes take fewer trapezoid nodes
        nodes, real_terms = [], _Bromwich.terms

        def terms(self, t, *args):
            nodes[-1] += t.size
            return real_terms(self, t, *args)

        contour, theta, z = _first_batch(BOB_REFERENCE, EVE_REFERENCE)
        rule = np.arange(theta.size) >= 3
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_Bromwich, "terms", terms)
            nodes.append(0)
            plain = contour.integrals(theta, z, 1e-8)
            nodes.append(0)
            flagged = contour.integrals(theta, z, 1e-8, rule)
        assert all(_same_bits(a[:3], b[:3]) for a, b in zip(plain, flagged))
        assert nodes[1] < nodes[0]


def _domain_link(rng, case2):
    """One link of the whole valid domain, each field log-uniform: mu in [0.05, 50], m in
    [0.05, 1e6], kappa in [1e-6, 1e4], eta in [1e-4, 1e4], rho2 in [1e-6, 1e4], and the
    SNR uniform in [-60, 90] dB.  A Case-2 link takes mu from {2, 4, 6, 8} and m from 1..8."""
    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    mu, m = (float(rng.choice([2, 4, 6, 8])), float(rng.integers(1, 9))) if case2 else \
        (log_uniform(0.05, 50.0), log_uniform(0.05, 1e6))
    return FBParams(mu, m, log_uniform(1e-6, 1e4), log_uniform(1e-4, 1e4), log_uniform(1e-6, 1e4),
                    10.0 ** (rng.uniform(-60.0, 90.0) / 10.0))


def _same_bits(a, b):
    return np.array_equal(np.asarray(a, float).view(np.int64), np.asarray(b, float).view(np.int64))


class TestSaddleStart:
    """The bisection on phi' picks what a search of phi over all 128 points picks."""

    @staticmethod
    def _first_batches(pairs, rng):
        """(contour, theta, z) of each pair's first batch at R_s drawn from {0, 0.5, 5}; the
        outage problems alone where ASC's tail cut is refused."""
        for bob, eve in pairs:
            contour = _Bromwich(_Link(bob), _Link(eve))
            cfg = SecrecyConfig(float(rng.choice([0.0, 0.5, 5.0])))
            keys = sorted(set(cfg.outage_problems(METRICS).values()))
            theta, z = np.array([k[0] for k in keys]), np.array([k[1] for k in keys])
            try:
                theta_r, z_r = _asc_rule(contour.d, contour.e, bob.avg_snr).problems()
            except ConvergenceError:
                theta_r = z_r = np.empty(0)
            yield contour, np.r_[theta, theta_r], np.r_[z, z_r]

    @pytest.mark.parametrize("box", ["draw", "domain"])
    def test_bisection_matches_the_full_grid(self, monkeypatch, box):
        rng = np.random.default_rng(2026)
        if box == "draw":
            pairs = [(draw_params(rng, case2=i % 2 == 0), draw_params(rng, case2=i % 2 == 0))
                     for i in range(120)]
        else:
            pairs = [(_domain_link(rng, i % 2 == 0), _domain_link(rng, i % 2 == 0)) for i in range(300)]
        batches = list(self._first_batches(pairs, rng))
        problems = 0
        for contour, theta, z in batches:
            start = contour.saddle_start(theta, z)
            ref = saddle_start_reference(contour, theta, z)
            assert all(_same_bits(a, b) for a, b in zip(start, ref))
            problems += theta.size
        assert problems > 40 * len(pairs) // 2
        # and so the crossing point that the contour settles on
        solo = [contour.contour(theta, z)[0] for contour, theta, z in batches[:60]]
        monkeypatch.setattr(_Bromwich, "saddle_start", saddle_start_reference)
        for c, (contour, theta, z) in zip(solo, batches):
            assert _same_bits(c, contour.contour(theta, z)[0])


class TestSweepBatch:
    """The rows of a sweep as one contour batch on the first row's Bob link."""

    SWEEP_DB = np.arange(-10.0, 42.0, 2.0)  # 26 rows, as the numeric-sweep workload's

    @staticmethod
    def _rows(name):
        bob, eve = SWEEP_PAIRS[name]
        return [bob.with_snr(eve.avg_snr * 10 ** (x / 10.0)) for x in TestSweepBatch.SWEEP_DB], eve

    @staticmethod
    def _bits(result):
        values, errors = result
        return {k: (values[k].hex(), errors[k].hex()) for k in values}

    @pytest.mark.parametrize("name", ["fig1", "stiff"])
    def test_a_row_does_not_depend_on_its_batch(self, monkeypatch, name):
        rows, eve = self._rows(name)
        cfg = SecrecyConfig(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)  # the stiff surrogate's
            alone = [self._bits(numeric_metrics(rows[0], eve, cfg))]
            alone += [self._bits(numeric_metrics([rows[0], rows[i]], eve, cfg)[1]) for i in (9, 25)]
            for chunk in (64, 1 << 12, 1 << 20):
                monkeypatch.setattr("fbsec.inversion._CHUNK_NODES", chunk)
                swept = [self._bits(r) for r in numeric_metrics(rows, eve, cfg)]
                assert [swept[i] for i in (0, 9, 25)] == alone, chunk

    @pytest.mark.parametrize("name", sorted(SWEEP_PAIRS))
    def test_rows_agree_with_their_own_calls(self, name):
        rows, eve = self._rows(name)
        cfg = SecrecyConfig(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            swept = numeric_metrics(rows[::5], eve, cfg)
            own = [numeric_metrics(row, eve, cfg) for row in rows[::5]]
        for (v, e), (v1, e1) in zip(swept, own):
            for k in METRICS:
                # each one's achieved error, plus the closed-vs-numeric bar
                assert abs(v[k] - v1[k]) <= e[k] + e1[k] + 1e-6 * max(abs(v[k]), abs(v1[k]), 1e-2), k

    @pytest.mark.parametrize("name", sorted(SWEEP_PAIRS))
    def test_rules_set_up_together_match_each_alone(self, monkeypatch, name):
        # a batch takes its rules' tail cuts from one bound and one Chernoff grid;
        # each rule is the one its row builds alone on the batch's contour
        rows, eve = self._rows(name)
        built = []

        class Recorded(_AscRule):
            def __init__(self, link_d, link_e, rel_tol, avg_snr, tail):
                super().__init__(link_d, link_e, rel_tol, avg_snr, tail)
                built.append(((link_d, link_e), avg_snr, self, self.problems()))

        monkeypatch.setattr("fbsec.inversion._AscRule", Recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)  # the stiff surrogate's
            numeric_metrics(rows, eve, SecrecyConfig(1.0), metrics=("asc",))
            numeric_metrics(rows[13], eve, SecrecyConfig(1.0), metrics=("asc",))
        assert len(built) == len(rows) + 1
        for links, avg_snr, rule, problems in built:
            alone = _asc_rule(*links, avg_snr)
            for field in ("r_hi", "b", "cut"):
                assert getattr(rule, field).hex() == getattr(alone, field).hex(), field
            assert all(_same_bits(x, y) for x, y in zip(problems, alone.problems()))

    def test_asc_rule_rescaled_onto_the_first_row(self):
        # a row's rule on the first row's link is its rule on its own link, in that link's units
        rows, eve = self._rows("fig1")
        first = _Link(rows[0]), _Link(eve)
        for row in rows[1::6]:
            scaled = _asc_rule(*first, row.avg_snr)
            own = _asc_rule(_Link(row), _Link(eve), row.avg_snr)
            for name in ("r_hi", "b", "cut"):
                assert getattr(scaled, name) == pytest.approx(getattr(own, name), rel=1e-12, abs=0.0), name
            for x, x_own in zip(scaled.problems(), own.problems()):
                np.testing.assert_allclose(x * scaled.scale, x_own, rtol=1e-14)

    def test_rows_past_the_span_start_another_batch(self):
        bob, eve = SWEEP_PAIRS["fig1"]
        rows = [bob.with_snr(10.0 ** (x / 10.0)) for x in (-400.0, 0.0, 350.0)]
        swept = numeric_metrics(rows, eve, SecrecyConfig(0.5), metrics=("sop", "spsc"))
        for row, result in zip(rows, swept):
            assert self._bits(result) == self._bits(numeric_metrics(row, eve, SecrecyConfig(0.5),
                                                                    metrics=("sop", "spsc")))

    def test_batches_of_capped_rows(self, monkeypatch):
        # a sweep's memory is that of one batch of _BATCH_ROWS rows, however long it is
        rows, eve = self._rows("fig1")
        cfg = SecrecyConfig(1.0)
        monkeypatch.setattr("fbsec.inversion._BATCH_ROWS", 4)
        sizes, batch = [], fbsec.inversion._batch

        def counted(solve, link_d, link_e, rows, *args):
            sizes.append(len(rows))
            return batch(solve, link_d, link_e, rows, *args)

        monkeypatch.setattr("fbsec.inversion._batch", counted)
        swept = numeric_metrics(rows, eve, cfg)
        assert sizes == [4] * 6 + [2]
        for row, (v, e) in zip(rows, swept):
            v1, e1 = numeric_metrics(row, eve, cfg)
            for k in METRICS:
                assert abs(v[k] - v1[k]) <= e[k] + e1[k] + 1e-6 * max(abs(v[k]), abs(v1[k]), 1e-2), k
        # a refusal in a later batch names its row among all those given
        calls = []

        def refuse(self, theta, z, rel_tol, rule=None):
            calls.append(len(theta))
            if len(calls) == 3:  # rows 8 to 11, two problems a row
                raise ConvergenceError("synthetic", row=5)
            return np.zeros(len(theta)), np.zeros(len(theta)), np.zeros(len(theta), bool)

        monkeypatch.setattr(_Bromwich, "integrals", refuse)
        with pytest.raises(ConvergenceError, match="synthetic") as exc:
            numeric_metrics(rows, eve, cfg, metrics=("sop", "spsc"))
        assert exc.value.row == 10

    def test_rows_must_differ_only_in_snr(self):
        bob, eve = SWEEP_PAIRS["fig1"]
        with pytest.raises(ParameterError, match="bob"):
            numeric_metrics([bob, bob.with_snr(2.0), EVE_REFERENCE], eve, SecrecyConfig(0.0))
        with pytest.raises(ParameterError, match="bob"):
            numeric_metrics([], eve, SecrecyConfig(0.0))

    def test_a_refusal_names_its_row(self, monkeypatch):
        rows, eve = self._rows("fig1")
        # a contour refusal names the problem; numeric_metrics names the row that posed it
        def refuse(self, theta, z, rel_tol, rule=None):
            raise ConvergenceError("synthetic", row=7)

        monkeypatch.setattr(_Bromwich, "integrals", refuse)
        with pytest.raises(ConvergenceError, match="synthetic") as exc:
            numeric_metrics(rows, eve, SecrecyConfig(1.0), metrics=("sop", "spsc"))  # two problems a row
        assert exc.value.row == 3
        monkeypatch.undo()
        # ASC's tail cut is refused for its row alone, in the batch of the rows near it
        rows = [rows[0].with_snr(10.0 ** (x / 10.0)) for x in (0.0, 2900.0, 3003.0)]
        with pytest.raises(ConvergenceError, match="tail cut") as exc:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                numeric_metrics(rows, eve, SecrecyConfig(1.0), metrics=("asc",))
        assert exc.value.row == 1
