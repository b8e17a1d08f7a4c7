"""Closed-route metrics (residue sums with rounding bounds) and the partial-fraction oracle against
quadrature, sampling and the numeric route."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import fbsec
import fbsec.cli
from fbsec import (
    FBParams,
    MCConfig,
    SecrecyConfig,
    closed_metrics,
    db_to_linear,
    derive,
    numeric_metrics,
)
from fbsec.casetwo import _ResidueSum
from fbsec.errors import AccuracyWarning, CaseMismatchError, ConvergenceError, FbsecError, ParameterError
from fbsec.inversion import _Link
from fbsec.params import METRICS, link_factors, outage_value

import oracles
from conftest import draw_params
from oracles import _mixture_value, _realify, _taylor_rows, _validate_expansion, cdf_case2, link_expansion, pdf_case2

EPS = np.finfo(float).eps


def case2_factors(p):
    """The (pole, integer exponent) factors that link_expansion decomposes: the link's regular
    factors (fbsec.params.link_factors), those of exponent 0 left out."""
    regular, _ = link_factors(derive(p), p.avg_snr)
    return [(complex(x), int(round(a))) for x, a in regular if round(a) != 0]


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


class TestPartialFractions:
    def test_gamma_reduction_tables(self):
        # transform 4/(s(s+2)^2) decomposes symbolically to
        # 1/s - 1/(s+2) - 2/(s+2)^2, i.e. A = [0, 1], B = [-1/4, -1/2]
        exp = link_expansion(FBParams(2, 1, 0, 1, 1, 1))
        assert exp.poles.shape == (1,)
        assert exp.poles[0] == pytest.approx(2.0)
        assert exp.mults[0] == 2
        assert np.array_equal(exp.term_j, [1, 2])
        assert np.allclose(exp.term_A, [0.0, 1.0], atol=1e-13)
        assert np.allclose(exp.term_B, [-0.25, -0.5], atol=1e-13)
        assert exp.omega_norm == pytest.approx(4.0)

    def test_reconstruction_on_random_draws(self, rng):
        # relative to the term-magnitude sum: at s far above the smallest
        # pole the identity cancels its own leading moments, so plain
        # relative error there measures conditioning, not coefficients
        for _ in range(25):
            p = draw_params(rng, case2=True)
            dp = derive(p)
            exp = link_expansion(p)
            s = np.arange(0.5, 10.5, 0.5)
            direct = oracles.mgf(dp, p.avg_snr, s)
            recon, cond = _mixture_value(exp, exp.term_A, s)
            assert np.max(np.abs(recon - direct) / np.maximum(np.abs(direct), cond)) < 1e-9
            recon_c, cond_c = _mixture_value(exp, exp.term_B, s)
            target = direct / s
            denom = np.maximum(np.abs(target), cond_c + 1.0 / s)
            assert np.max(np.abs(recon_c + 1.0 / s - target) / denom) < 1e-9

    @pytest.mark.parametrize("side,factor", [("density", 1.01), ("distribution", 1.01), ("density", math.nan)],
                             ids=["density", "distribution", "density-nan"])
    def test_corrupt_coefficient_refused(self, side, factor):
        # one wrong (or NaN) coefficient on either side fails the construction check, which names the side
        p = FBParams(4, 2, 1.5, 0.4, 0.3, 10**1.2)
        dp = derive(p)
        exp = link_expansion(p)
        factors = case2_factors(p)
        _validate_expansion(exp, factors, dp.ln_omega)
        coef = exp.term_A if side == "density" else exp.term_B
        coef[np.argmax(np.abs(coef))] *= factor
        with pytest.raises(ConvergenceError, match=f"^{side}-side"):
            _validate_expansion(exp, factors, dp.ln_omega)

    def test_negative_exponent_factorisation(self):
        # m > mu/2 puts numerator factors into the transform
        p = fbsec.from_kappa_mu_shadowed(2.0, 2.0, 3.0, 1.0)
        exp = link_expansion(p)
        assert exp.mults.sum() == 3
        val = integrate.quad(lambda g: pdf_case2(exp, g), 0, 80, limit=300)[0]
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_non_integer_exponents_rejected(self):
        p = FBParams(2.5, 1.0, 1.0, 0.5, 0.5, 1.0)
        with pytest.raises(CaseMismatchError, match="numeric"):
            link_expansion(p)

    def test_huge_multiplicity_rejected(self):
        p = FBParams(2.0, 200.0, 1.0, 0.5, 0.5, 1.0)
        with pytest.raises(CaseMismatchError, match="multiplicity"):
            link_expansion(p)

    def test_rows_match_single_list_recurrence(self):
        # B's log co-factor and power sums are A's plus the origin's term,
        # added last: bit for bit the sums over the factors with 1/s appended
        rng = np.random.default_rng(7)
        rows = 0
        for _ in range(396):
            for p in (draw_params(rng, case2=True), draw_params(rng, case2=True)):
                factors = case2_factors(p)
                for i, (_, a) in enumerate(factors):
                    if a > 0:
                        A, B = _taylor_rows(factors, i)
                        assert np.array_equal(A, oracles.taylor_row_loops(factors, i))
                        assert np.array_equal(B, oracles.taylor_row_loops(factors + [(0j, 1)], i))
                        rows += 1
        assert rows > 1500


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
        p = FBParams(2, 1, 1, 0.5, 0.5, 10.0)
        exp = link_expansion(p)
        closed = closed_metrics(p, p, SecrecyConfig(0.0), ("asc",))["asc"]
        oracle = quad_asc(exp, exp, 600.0)
        assert closed == pytest.approx(oracle, rel=1e-7)
        assert closed > 0

    def test_asc_matches_quadrature_on_draws(self, rng):
        # the guard of the ASC rule: the numeric route's ASC shares it (panels, null-rule estimate,
        # tail cut and the bound past it), so only this independent quad over the whole range checks it
        for _ in range(6):
            bob = draw_params(rng, case2=True)
            eve = draw_params(rng, case2=True)
            eb, ee = link_expansion(bob), link_expansion(eve)
            closed = closed_metrics(bob, eve, SecrecyConfig(0.0), ("asc",))["asc"]
            upper = 100.0 * max(bob.avg_snr, eve.avg_snr)
            assert closed == pytest.approx(quad_asc(eb, ee, upper), rel=1e-7)

    def test_asc_nakagami_pair_against_sampling(self):
        bob = fbsec.from_nakagami(2.0, 1.0)
        eve = fbsec.from_nakagami(2.0, 1.0)
        closed = closed_metrics(bob, eve, SecrecyConfig(0.0), ("asc",))["asc"]
        est = fbsec.estimate(bob, eve, SecrecyConfig(0.0), MCConfig(n_samples=10_000_000, seed=31))["asc"]
        assert abs(closed - est.mean) < 3 * est.std_error

    def test_asc_high_snr_scaling(self):
        # the ln(snr) asymptote carries an O(1) offset (fading log-moment
        # minus the eavesdropper capacity), so keep both small
        bob = fbsec.from_nakagami(2.0, 1e6)
        eve = fbsec.from_nakagami(2.0, 0.05)
        closed = closed_metrics(bob, eve, SecrecyConfig(0.0), ("asc",))["asc"]
        assert closed / math.log(1e6) == pytest.approx(1.0, rel=0.05)
        grow = [
            closed_metrics(bob.with_snr(s), eve, SecrecyConfig(0.0), ("asc",))["asc"]
            for s in (1e2, 1e4, 1e6)
        ]
        assert grow[0] < grow[1] < grow[2]

    def test_sop_identical_links_half(self):
        p = FBParams(4, 2, 1.5, 0.4, 0.3, 10**0.8)
        assert closed_metrics(p, p, SecrecyConfig(0.0), ("sop",))["sop"] == pytest.approx(0.5, abs=1e-10)

    def test_sop_matches_quadrature_and_simulation(self, rng):
        bob = FBParams(4, 2, 1.5, 0.4, 0.3, 10**1.2)
        eve = FBParams(2, 1, 0.7, 2.0, 1.5, 10**0.3)
        eb, ee = link_expansion(bob), link_expansion(eve)
        cfg = SecrecyConfig(1.0)
        closed = closed_metrics(bob, eve, cfg, ("sop",))["sop"]
        assert closed == pytest.approx(quad_sop(eb, ee, cfg.theta, 400.0), rel=1e-9)
        est = fbsec.estimate(bob, eve, cfg, MCConfig(n_samples=10_000_000, seed=77))["sop"]
        assert abs(closed - est.mean) < 3 * est.std_error

    def test_sop_saturates_at_large_rate(self):
        bob = FBParams(4, 2, 1.5, 0.4, 0.3, 10**1.2)
        eve = FBParams(2, 1, 0.7, 2.0, 1.5, 10**0.3)
        assert closed_metrics(bob, eve, SecrecyConfig(20.0), ("sop",))["sop"] == pytest.approx(1.0, abs=1e-6)

    def test_lower_bound_orders_below_sop(self, rng):
        for _ in range(8):
            bob = draw_params(rng, case2=True)
            eve = draw_params(rng, case2=True)
            cfg = SecrecyConfig(1.0)
            vals = closed_metrics(bob, eve, cfg, ("sopl", "sop"))
            low, full = vals["sopl"], vals["sop"]
            assert low <= full + 1e-12
            assert low < full  # strict when supports overlap and theta > 1

    def test_sopl_matches_simulation(self):
        bob = FBParams(2, 2, 1.0, 0.8, 0.2, 10**0.9)
        eve = FBParams(4, 1, 2.0, 1.5, 3.0, 10**0.2)
        cfg = SecrecyConfig(1.0)
        closed = closed_metrics(bob, eve, cfg, ("sopl",))["sopl"]
        est = fbsec.estimate(bob, eve, cfg, MCConfig(n_samples=10_000_000, seed=13))["sopl"]
        assert abs(closed - est.mean) < 3 * est.std_error

    def test_spsc_identical_links(self):
        p = FBParams(6, 3, 0.9, 0.6, 0.4, 10.0)
        assert closed_metrics(p, p, SecrecyConfig(0.0), ("spsc",))["spsc"] == pytest.approx(0.5, abs=1e-10)

    def test_sop_at_zero_rate_complements_spsc(self, rng):
        for _ in range(6):
            bob = draw_params(rng, case2=True)
            eve = draw_params(rng, case2=True)
            vals = closed_metrics(bob, eve, SecrecyConfig(0.0), ("sop", "sopl", "spsc"))
            sop0 = vals["sop"]
            assert sop0 == pytest.approx(1.0 - vals["spsc"], abs=1e-10)
            assert sop0 == pytest.approx(vals["sopl"], abs=1e-12)

    def test_swap_symmetry_at_unit_threshold(self, rng):
        bob = draw_params(rng, case2=True)
        eve = draw_params(rng, case2=True)
        cfg = SecrecyConfig(0.0)
        assert closed_metrics(bob, eve, cfg, ("sopl",))["sopl"] == pytest.approx(
            1.0 - closed_metrics(eve, bob, cfg, ("sopl",))["sopl"], abs=1e-7
        )

    def test_metrics_real_and_in_range_on_draws(self, rng):
        for _ in range(10):
            bob = draw_params(rng, case2=True)
            eve = draw_params(rng, case2=True)
            cfg = SecrecyConfig(float(rng.choice([0.0, 1.0])))
            vals = closed_metrics(bob, eve, cfg)
            for v in (vals["sop"], vals["sopl"], vals["spsc"]):
                assert 0.0 <= v <= 1.0
            assert math.isfinite(vals["asc"])

    @pytest.mark.parametrize("metrics", [METRICS, ("sop",)])
    def test_snr_near_float_range_refused(self, metrics):
        # at 3003 dB Bob's coefficients overflow: refused, not a NaN (or a NaN clipped to 0)
        bob, eve = FBParams(4, 2, 1.5, 0.4, 0.3, 10**300.3), FBParams(2, 1, 0.7, 2, 1.5, 10**0.3)
        with pytest.raises(ConvergenceError):
            closed_metrics(bob, eve, SecrecyConfig(0.0), metrics)

    @pytest.mark.parametrize("metrics", [METRICS, ("sop",)])
    def test_pole_distance_underflow_refused(self, metrics):
        # at 1625 dB a distance between Bob's poles, raised to a power, underflows to 0
        bob, eve = FBParams(6, 3, 1.5, 0.4, 0.3, 10**162.5), FBParams(2, 1, 0.7, 2, 1.5, 10**0.3)
        with pytest.raises(ConvergenceError, match="underflows"):
            closed_metrics(bob, eve, SecrecyConfig(0.0), metrics)

    def test_scale_factor_overflow_refused(self):
        # at -800 dB ln omega passes 709: omega overflows, and the expansion is refused
        with pytest.raises(ConvergenceError, match="overflows"):
            link_expansion(FBParams(4, 2, 1.5, 0.4, 0.3, 1e-80))

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(1.0, math.nan)])
    def test_non_finite_value_refused(self, value):
        with pytest.raises(ConvergenceError, match="not finite"):
            _realify(value, "average secrecy capacity")


class TestArraySumsMatchLoops:
    """The partial-fraction oracle's array sums against its term-by-term loops, and the closed route
    against them where they are well conditioned.

    Reordering a sum moves it by a small multiple of eps times the sum of
    its terms' magnitudes, which each loop returns; near-double-pole pairs
    (such as pair 92) have a large one and stay in the draw.
    """

    BOUND = 64 * EPS

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(7)
        return [(draw_params(rng, case2=True), draw_params(rng, case2=True)) for _ in range(396)]

    @staticmethod
    def outcome(fn):
        try:
            return fn()
        except FbsecError as exc:
            return type(exc)

    @staticmethod
    def loop_metrics(bob, eve, cfg):
        exp_d, exp_e = link_expansion(bob), link_expansion(eve)
        out = {}
        for name, pz in cfg.outage_problems(METRICS).items():
            prob, mag = oracles.outage_loops(exp_d, exp_e, *pz)
            out[name] = (outage_value(name, prob), mag)
        out["asc"] = oracles.asc_loops(exp_d, exp_e)
        return out

    def test_closed_sums(self, pairs):
        compared = 0
        for bob, eve in pairs:
            for rs in (0.0, 0.5, 1.0, 2.0):
                cfg = SecrecyConfig(rs)
                new = self.outcome(lambda: oracles.closed_sums(bob, eve, cfg))
                old = self.outcome(lambda: self.loop_metrics(bob, eve, cfg))
                if isinstance(new, type) or isinstance(old, type):
                    assert new is old
                    continue
                for name in METRICS:
                    value, mag = old[name]
                    assert abs(new[name] - value) <= self.BOUND * mag, (bob, eve, rs, name)
                compared += 1
        assert compared > 1400

    def test_closed_metrics_match_closed_sums_where_well_conditioned(self, pairs):
        # the partial-fraction sums as the closed route's reference: wherever their rounding,
        # 64 eps times the sum of their terms' magnitudes, is below 1e-9 of the smaller tail (of ASC)
        compared = 0
        for bob, eve in pairs:
            for rs in (0.0, 0.5, 1.0, 2.0):
                cfg = SecrecyConfig(rs)
                new = self.outcome(lambda: closed_metrics(bob, eve, cfg))
                old = self.outcome(lambda: self.loop_metrics(bob, eve, cfg))
                if isinstance(new, type) or isinstance(old, type):
                    continue
                for name in METRICS:
                    scale = _smaller_tail_or_asc(name, new[name])
                    value, mag = old[name]
                    if self.BOUND * mag <= 1e-9 * scale:
                        assert abs(new[name] - value) <= 1e-7 * scale, (bob, eve, rs, name, new[name], value)
                        compared += 1
        assert compared > 4000  # of 6,336 values

    def test_pdf_and_cdf(self, pairs):
        grid = np.array([0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0])
        for link in (p for pair in pairs for p in pair):
            try:
                exp = link_expansion(link)
            except FbsecError:
                continue
            g = link.avg_snr * grid
            mix, mag = oracles.mixture_time_domain_loops(exp, exp.term_A, g)
            assert np.all(np.abs(pdf_case2(exp, g) - np.clip(mix.real, 0.0, None)) <= self.BOUND * mag)
            mix, mag = oracles.mixture_time_domain_loops(exp, exp.term_B, g)
            cdf = np.where(g == 0.0, 0.0, np.clip(1.0 + mix.real, 0.0, 1.0))
            assert np.all(np.abs(cdf_case2(exp, g) - cdf) <= self.BOUND * (1.0 + mag))


def _smaller_tail_or_asc(name, value):
    """The scale of the 1e-6 bar: the smaller of P and 1 - P for a probability, ASC itself for ASC."""
    return abs(value) if name == "asc" else min(value, 1.0 - value)


def _numeric(bob, eve, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)  # a noise-limited value; its error counts below
        return numeric_metrics(bob, eve, cfg)


class TestResidueSums:
    """The closed route's residue sums, each returned value bounded to 1e-7 of its smaller tail."""

    # (Bob, Eve, R_s) of silent faults of the partial-fraction sums (CHANGES.md, ROADMAP B and K):
    # closed-eval's KNOWN_FAULT_PAIR, its seed-1 round-13 op 101, and a mu = 6 pair with two of Eve's
    # rates 1.2e-3 apart (sopl 1.5e-6 off)
    FAULTS = [
        (FBParams(8.0, 5.0, 0.17655020417374986, 1.1120149700648747, 0.16262928957661868,
                  db_to_linear(22.36394962226311)),
         FBParams(8.0, 8.0, 0.12863355271648994, 0.7566779572553815, 3.3353586798013706,
                  db_to_linear(14.392154567693114)),
         0.5),
        (FBParams(6.0, 2.0, 8.41255027889479, 0.9998096658510008, 0.1848866719695275,
                  db_to_linear(17.723598375317447)),
         FBParams(6.0, 6.0, 0.39965279706084056, 0.7341717766460353, 2.9815319618903584,
                  db_to_linear(13.415925005261801)),
         2.0),
        (FBParams(6.0, 3.0, 0.1698435536862144, 2.016296455329584, 0.420252697647395, 14.169831027711972),
         FBParams(6.0, 2.0, 0.010098315800406968, 8.54344915808468, 0.07407645332105786, 1.2358043826922513),
         1.0),
    ]
    # lambda = 70 dB on the README pair: SOP near 4e-24, where the left side's leading 1 leaves only noise
    BOB_73DB, EVE_3DB = FBParams(4, 2, 1.5, 0.4, 0.3, 10**7.3), FBParams(2, 1, 0.7, 2, 1.5, 10**0.3)

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(7)
        return [(draw_params(rng, case2=True), draw_params(rng, case2=True)) for _ in range(396)]

    @staticmethod
    def check_or_refused(bob, eve, cfg):
        """closed_metrics within 1e-6 of numeric_metrics (plus its achieved error), or True where refused."""
        try:
            closed = closed_metrics(bob, eve, cfg)
        except ConvergenceError as exc:
            assert "error bound" in str(exc) and exc.achieved > 0.0
            return True
        numeric, errors = _numeric(bob, eve, cfg)
        for name in METRICS:
            bar = 1e-6 * _smaller_tail_or_asc(name, numeric[name]) + errors[name]
            assert abs(closed[name] - numeric[name]) <= bar, (bob, eve, cfg.rate_rs, name, closed[name], numeric[name])
        return False

    def test_every_value_on_the_draw_agrees_with_numeric(self, pairs):
        # pairs 92, 56 and 287 among them: partial-fraction ASCs of -2095.8 and 1.1e-3 and 9.6e-6 off
        refused = sum(self.check_or_refused(bob, eve, SecrecyConfig(rs))
                      for bob, eve in pairs for rs in (0.0, 0.5, 1.0, 2.0))
        assert refused <= 0.01 * 4 * len(pairs)  # 14 of 1584

    @pytest.mark.parametrize("bob,eve,rs", FAULTS, ids=["known-fault-pair", "round-13-op-101", "mu6-close-eve-rates"])
    def test_named_faults_agree_or_are_refused(self, bob, eve, rs):
        self.check_or_refused(bob, eve, SecrecyConfig(rs))

    def test_bound_covers_the_rounding(self, pairs):
        # against the same residue sums at 34 digits, from the same float factors, on both sides
        mp = pytest.importorskip("mpmath")
        checked = 0
        for bob, eve in pairs[:40]:
            links = _Link(bob), _Link(eve)
            for (link_d, link_e), theta, z in ((links, np.e, np.e - 1.0), (links, 1.0, 0.0), (links[::-1], 1.0, 0.0)):
                with np.errstate(all="ignore"):
                    tail, bound = _ResidueSum(link_d, link_e)(np.array([theta]), np.array([z]))
                with mp.workdps(34):
                    exact = oracles.residue_tail_mp(link_d, link_e, theta, z)
                assert abs(tail[0] - exact) <= bound[0], (bob, eve, theta, z)
                checked += 1
        assert checked == 120

    def test_73db_pair_answers_below_1e20_or_leaves(self, capsys):
        # SOP^L is P itself on the right side, Eve's poles; SOP (z > 0) has only the left side and is refused
        cfg = SecrecyConfig(1.0)
        sopl = closed_metrics(self.BOB_73DB, self.EVE_3DB, cfg, ("sopl",))["sopl"]
        assert sopl == pytest.approx(2.608586332435e-24, rel=1e-6)
        with pytest.raises(ConvergenceError, match="^closed route: the residue sum .* error bound"):
            closed_metrics(self.BOB_73DB, self.EVE_3DB, cfg)
        code = fbsec.cli.main(["eval", "--bob", "mu=4,m=2,kappa=1.5,eta=0.4,rho2=0.3,snr_db=73",
                               "--eve", "mu=2,m=1,kappa=0.7,eta=2,rho2=1.5,snr_db=3", "--rs", "1"])
        rec = json.loads(capsys.readouterr().out)
        assert code == 0 and rec["path"] == "numeric"
        assert rec["sop"] == pytest.approx(3.967120884360e-24, rel=1e-6)
        assert rec["sopl"] == pytest.approx(2.608586332435e-24, rel=1e-6)

    def test_swapped_side_gives_the_same_outage_values(self, pairs):
        # at z = 0, P from the left side's 1 - P and from the right side's sum agree within both bounds
        for bob, eve in pairs[:30]:
            link_d, link_e = _Link(bob), _Link(eve)
            with np.errstate(all="ignore"):
                tail, bound = _ResidueSum(link_d, link_e)(np.array([np.e, 1.0]), np.zeros(2))
                prob, bound_r = _ResidueSum(link_e, link_d)(np.array([1.0 / np.e, 1.0]), np.zeros(2))
            assert np.all(np.abs(1.0 - tail - prob) <= bound + bound_r + 2.0 * EPS)

    def test_non_case2_refusal_builds_no_contour(self, monkeypatch):
        # the refusal comes from derive and link_factors alone, before either link's contour objects
        def built(*args, **kwargs):
            raise AssertionError("a contour object was built")

        for module, name in ((fbsec.casetwo, "_Link"), (fbsec.inversion, "_Link"), (fbsec.inversion, "_Bromwich")):
            monkeypatch.setattr(module, name, built)
        bob, eve = FBParams(3.5, 2.5, 1, 0.1, 0.1, 100), FBParams(1.5, 1.5, 1, 0.1, 0.1, 10**0.5)
        for pair in ((bob, eve), (FBParams(4, 2, 1.5, 0.4, 0.3, 10**1.2), eve)):
            with pytest.raises(CaseMismatchError):
                closed_metrics(*pair, SecrecyConfig(0.5))

    def test_m_far_past_mu_is_refused_by_its_multiplicity(self):
        # at m = 1e17, mu / 2 - m loses mu / 2; the roots' exponent m alone passes 64 poles
        huge = FBParams(2, 1e17, 1, 0.5, 0.5, 10)
        with pytest.raises(CaseMismatchError, match="total pole multiplicity 200000000000000000 is not in 1..64"):
            closed_metrics(huge, FBParams(2, 1, 0.7, 2, 1.5, 10**0.3), SecrecyConfig(1.0))

    def test_both_routes_pose_the_same_first_batch(self, monkeypatch):
        # one batch driver: the closed route's node solver receives, bit for bit, the numeric
        # route's first batch (the outage problems in sorted order, then the ASC rule's 40 first
        # nodes), so validate's closed-vs-numeric check compares one node solver with the other
        bob, eve = FBParams(4, 2, 1.5, 0.4, 0.3, 10**1.2), FBParams(2, 1, 0.7, 2, 1.5, 10**0.3)
        cfg = SecrecyConfig(1.0)
        posed = {"closed": [], "numeric": []}
        solver, integrals = fbsec.casetwo._solver, fbsec.inversion._Bromwich.integrals

        def closed_solver(link_d, link_e):
            solve = solver(link_d, link_e)

            def recorded(theta, z, rule):
                posed["closed"].append((theta.copy(), z.copy(), rule.copy()))
                return solve(theta, z, rule)
            return recorded

        def numeric_integrals(self, theta, z, rel_tol, rule=None):
            posed["numeric"].append((theta.copy(), z.copy(), rule.copy()))
            return integrals(self, theta, z, rel_tol, rule)

        monkeypatch.setattr(fbsec.casetwo, "_solver", closed_solver)
        monkeypatch.setattr(fbsec.inversion._Bromwich, "integrals", numeric_integrals)
        closed_metrics(bob, eve, cfg)
        numeric_metrics(bob, eve, cfg)
        (theta, z, rule), (theta_n, z_n, rule_n) = posed["closed"][0], posed["numeric"][0]
        keys = sorted(set(cfg.outage_problems(METRICS).values()))
        assert len(keys) == 3 and theta.size == len(keys) + 40
        assert list(zip(theta[:3].tolist(), z[:3].tolist())) == keys
        assert (theta.tobytes(), z.tobytes()) == (theta_n.tobytes(), z_n.tobytes())
        # and both are told which problems are the rule's nodes
        assert rule.tolist() == rule_n.tolist() == [False] * 3 + [True] * 40

    def test_closed_eval_sets_up_each_link_once(self, monkeypatch, capsys):
        # one closed eval derives each link and lists its factors once, and evaluates each
        # transform once, at Bob's Chernoff points and at Eve's: no duplicate set-up
        calls = dict.fromkeys(("derive", "link_factors", "log_transform"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (fbsec, fbsec.params, fbsec.casetwo, fbsec.inversion, fbsec.cli):
            for name in ("derive", "link_factors"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        monkeypatch.setattr(fbsec._kernels, "log_transform", counted("log_transform", fbsec._kernels.log_transform))
        code = fbsec.cli.main(["eval", "--bob", "mu=4,m=2,kappa=1.5,eta=0.4,rho2=0.3,snr_db=12",
                               "--eve", "mu=2,m=1,kappa=0.7,eta=2,rho2=1.5,snr_db=3", "--rs", "1"])
        assert code == 0 and json.loads(capsys.readouterr().out)["path"] == "case2"
        assert calls == {"derive": 2, "link_factors": 2, "log_transform": 2}
