"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Tolerances are fixed here and nowhere else; nothing is calibrated at run
time.  The quoted-value anchors compare the numeric path against the
published numbers at +/-3% and require the Monte Carlo path to bracket the
numeric one within 3 standard errors (path agreement; a 10^7-sample
standard error is far tighter than any value read off a published curve).
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

import fbsec
from fbsec import (
    FBParams,
    MCConfig,
    SecrecyConfig,
    closed_metrics,
    derive,
    estimate,
    numeric_metrics,
    physical_model,
    sample_snr,
)

from conftest import draw_params
from oracles import TalbotLink, cdf_case2, cdf_numeric, link_expansion, pdf_case2


# metrics are O(1)-scaled (nats, probabilities); below this the relative
# criteria turn into the corresponding absolute floor
SCALE_FLOOR = 1e-2


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")


def numeric_then_mc_anchor(bob, eve, anchor, seed):
    t0 = time.monotonic()
    val = numeric_metrics(bob, eve, SecrecyConfig(0.0), metrics=("asc",))[0]["asc"]
    t_numeric = time.monotonic() - t0
    t0 = time.monotonic()
    est = estimate(bob, eve, SecrecyConfig(0.0), MCConfig(n_samples=10_000_000, seed=seed))["asc"]
    t_mc = time.monotonic() - t0
    ok = (
        abs(val - anchor) <= 0.03 * anchor
        and abs(est.mean - val) <= 3 * est.std_error
        and t_numeric < 10.0
        and t_mc < 120.0
    )
    detail = (
        f"numeric={val:.4f} anchor={anchor} mc={est.mean:.4f}+-{est.std_error:.4f} "
        f"(t_num={t_numeric:.1f}s t_mc={t_mc:.0f}s)"
    )
    return ok, val, est, t_numeric, t_mc, detail


EVE_FIG1 = FBParams(1.5, 1.5, 1.0, 0.1, 0.1, 10**0.5)  # 5 dB


@pytest.mark.parametrize("eta_d,anchor,seed", [(0.1, 2.139, 101), (0.5, 3.293, 102)])
def test_criterion_1_quoted_capacity_anchors(eta_d, anchor, seed):
    """Main-link eta sensitivity anchors at lambda = 15 dB (snr_D = 20 dB)."""
    bob = FBParams(3.5, 2.5, 1.0, eta_d, 0.1, 10**2.0)
    ok, val, est, t_numeric, t_mc, detail = numeric_then_mc_anchor(bob, EVE_FIG1, anchor, seed)
    report(1, f"capacity anchor eta_D={eta_d}", ok, detail)
    assert t_numeric < 10.0 and t_mc < 120.0
    assert abs(est.mean - val) <= 3 * est.std_error, "paths disagree"
    assert abs(val - anchor) <= 0.03 * anchor, detail


@pytest.mark.parametrize("eve_db,anchor,seed", [(0.7, 1.598, 201), (0.3, 2.189, 202)])
def test_criterion_2_quoted_capacity_vs_eavesdropper_snr(eve_db, anchor, seed):
    """Identically-faded links, snr_D = 15 dB, eavesdropper at 7 and 3 dB."""
    shape = dict(mu=2.5, m=1.5, kappa=3.0, eta=0.5, rho2=0.2)
    bob = FBParams(**shape, avg_snr=10**1.5)
    eve = FBParams(**shape, avg_snr=10**eve_db)
    ok, val, est, t_numeric, t_mc, detail = numeric_then_mc_anchor(bob, eve, anchor, seed)
    report(2, f"capacity anchor eve@{10*eve_db:.0f}dB", ok, detail)
    assert t_numeric < 10.0 and t_mc < 120.0
    assert abs(est.mean - val) <= 3 * est.std_error, "paths disagree"
    assert abs(val - anchor) <= 0.03 * anchor, detail


def test_criterion_3_closed_form_exactness():
    """50 random integer-exponent pairs: closed == numeric == sampled."""
    t0 = time.monotonic()
    rng = np.random.default_rng(33000)
    worst_rel = 0.0
    for i in range(50):
        bob = draw_params(rng, case2=True)
        eve = draw_params(rng, case2=True)
        rs = float(rng.choice([0.0, 1.0]))
        cfg = SecrecyConfig(rs)
        closed = closed_metrics(bob, eve, cfg)
        numeric, _ = numeric_metrics(bob, eve, cfg)
        for k in closed:
            # relative above the 1e-2 metric scale, the matching absolute
            # floor below it (a 1e-8-nat capacity is numerically zero)
            rel = abs(closed[k] - numeric[k]) / max(abs(closed[k]), abs(numeric[k]), SCALE_FLOOR)
            worst_rel = max(worst_rel, rel)
            assert rel < 1e-6, (k, bob, eve, rs, closed[k], numeric[k])
        mc_cfg = MCConfig(n_samples=1_000_000, seed=33100 + i)
        ests = estimate(bob, eve, cfg, mc_cfg)
        for k, est in ests.items():
            # 5/n covers the Poisson zero-count band when the event (or the
            # positive capacity gap) is too rare for n samples to see
            tol = 3 * est.std_error + 5.0 / mc_cfg.n_samples
            assert abs(closed[k] - est.mean) <= tol, (k, bob, eve, rs)
    elapsed = time.monotonic() - t0
    ok = elapsed < 600.0
    report(3, "closed-form exactness (50 pairs)", ok,
           f"worst closed-vs-numeric rel={worst_rel:.2e}, {elapsed:.0f}s")
    assert ok


def test_criterion_4_distributional_correctness():
    """200 draws (non-integer orders included): unit mass + decile agreement.

    200 draws x 9 deciles is 1800 three-standard-error checks, so ~5
    crossings are expected from sampling noise alone (every correct
    implementation fails a literal all-must-pass reading with ~99%
    probability); the acceptance is therefore the statistical one: the
    crossing count stays within its own noise band and nothing strays
    past 5 standard errors.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(44000)
    probs = np.arange(0.1, 0.91, 0.1)
    n = 1_000_000
    crossings = 0
    worst_z = 0.0
    for i in range(200):
        p = draw_params(rng)
        dp = derive(p)
        inv = TalbotLink(dp, p.avg_snr)
        upper = inv.upper_limit(1e-12)[0]
        mass, _ = integrate.quad(
            lambda u: float(inv.pdf([math.expm1(u)])[0]) * (math.expm1(u) + 1.0),
            0.0, math.log1p(upper), limit=500, epsabs=1e-10, epsrel=1e-9,
        )
        assert abs(mass - 1.0) < 1e-7, (p, mass)
        snr = sample_snr(p, physical_model(p), np.random.default_rng(44500 + i), size=n)
        deciles = np.quantile(snr, probs)
        vals = inv.cdf(deciles)
        for prob, v in zip(probs, vals):
            z = abs(v - prob) / math.sqrt(prob * (1 - prob) / n)
            worst_z = max(worst_z, z)
            crossings += z > 3.0
            assert z < 5.0, (p, prob, v, z)
    assert crossings <= 12, f"{crossings} three-SE crossings in 1800 checks (expected ~5)"
    elapsed = time.monotonic() - t0
    report(4, "distributional correctness (200 draws)", True,
           f"3SE crossings {crossings}/1800, worst z={worst_z:.2f}, {elapsed:.0f}s")


def test_criterion_5_reduction_suite():
    """Classical-family embeddings against independently coded references."""
    # eta = 1 embedding vs direct kappa-mu shadowed density (hypergeometric form)
    from test_params import kappa_mu_shadowed_pdf

    p = fbsec.from_kappa_mu_shadowed(2.5, 4.0, 3.0, 2.0)
    exp = link_expansion(p)
    g = np.linspace(0.02, 12.0, 80)
    d1 = np.max(np.abs(pdf_case2(exp, g) - kappa_mu_shadowed_pdf(g, 2.5, 4.0, 3.0, 2.0)))
    assert d1 < 1e-9

    # kappa = 0, eta = 1 collapses to the gamma law
    p = fbsec.from_nakagami(3.0, 2.0)
    g = np.linspace(0.01, 15.0, 80)
    d2 = np.max(np.abs(pdf_case2(link_expansion(p), g) - stats.gamma.pdf(g, a=3, scale=2 / 3)))
    assert d2 < 1e-9

    # single cluster, huge shadowing parameter vs a direct Beckmann sampler
    K, q, r = 1.5, 0.3, 0.8
    pb = fbsec.from_beckmann(K, q, r, 1.0, m_large=1e6)
    dp = derive(pb)
    rng = np.random.default_rng(555)
    nks = 200_000
    q2 = K * (1 + q) / (1 + r**2)
    x = rng.normal(math.sqrt(r**2 * q2), math.sqrt(q), size=nks)
    y = rng.normal(math.sqrt(q2), 1.0, size=nks)
    snr = (x**2 + y**2) / ((1 + q) * (1 + K))
    ks = stats.kstest(snr, lambda v: cdf_numeric(dp, 1.0, v))
    assert ks.pvalue > 0.01
    report(5, "reduction suite", True,
           f"kms max|dpdf|={d1:.1e}, gamma max|dpdf|={d2:.1e}, beckmann KS p={ks.pvalue:.3f}")


def test_criterion_6_ordering_and_limits():
    """Outage bound ordering, complement identity, identical-link half."""
    rng = np.random.default_rng(66000)
    for _ in range(20):
        bob = draw_params(rng, case2=True)
        eve = draw_params(rng, case2=True)
        cfg = SecrecyConfig(float(rng.uniform(0.1, 3.0)))
        closed = closed_metrics(bob, eve, cfg, ("sop", "sopl"))
        assert closed["sopl"] <= closed["sop"] + 1e-12
        at_zero = closed_metrics(bob, eve, SecrecyConfig(0.0), ("sopl", "spsc"))
        assert at_zero["spsc"] == pytest.approx(1.0 - at_zero["sopl"], abs=1e-14)
    # the numeric positive-capacity probability is the complement by construction
    bob = FBParams(2.3, 1.2, 0.8, 0.6, 0.4, 10.0)
    eve = FBParams(1.7, 2.2, 1.5, 1.4, 2.0, 4.0)
    spsc = numeric_metrics(bob, eve, SecrecyConfig(0.0), metrics=("spsc",))[0]["spsc"]
    assert spsc == 1.0 - numeric_metrics(bob, eve, SecrecyConfig(0.0), metrics=("sopl",))[0]["sopl"]
    ident = FBParams(2.5, 1.5, 3.0, 0.5, 0.2, 10.0)
    half = numeric_metrics(ident, ident, SecrecyConfig(0.0), metrics=("spsc",))[0]["spsc"]
    assert half == pytest.approx(0.5, abs=1e-6)
    report(6, "ordering and limit properties", True, f"identical-link spsc={half:.8f}")


def test_criterion_7_resolved_erratum_guard():
    """Closed forms (corrected exponents, standard binomial) match the
    defining integrals on 20 integer-exponent draws to 1e-7."""
    rng = np.random.default_rng(77000)
    worst = 0.0
    for _ in range(20):
        bob = draw_params(rng, case2=True)
        eve = draw_params(rng, case2=True)
        eb, ee = link_expansion(bob), link_expansion(eve)
        upper = 200.0 * max(bob.avg_snr, eve.avg_snr)
        marks = sorted({math.log1p(bob.avg_snr), math.log1p(eve.avg_snr)})

        def q(f):
            # compressed coordinates keep the adaptive rule on the mass
            val, _ = integrate.quad(
                lambda u: f(math.expm1(u)) * (math.expm1(u) + 1.0),
                0.0, math.log1p(upper),
                limit=600, epsabs=1e-13, epsrel=1e-10, points=marks,
            )
            return val

        i1 = q(lambda g: math.log1p(g) * pdf_case2(eb, g) * cdf_case2(ee, g))
        # the two eavesdropper-side integrals cancel to near zero for very
        # asymmetric pairs; their combined integrand avoids that loss
        j23 = q(lambda g: math.log1p(g) * pdf_case2(ee, g) * (cdf_case2(eb, g) - 1.0))
        asc_ref = i1 + j23
        val = closed_metrics(bob, eve, SecrecyConfig(0.0), ("asc",))["asc"]
        rel = abs(val - asc_ref) / max(abs(asc_ref), abs(val), SCALE_FLOOR)
        worst = max(worst, rel)
        assert rel < 1e-7, (bob, eve, val, asc_ref)

        cfg = SecrecyConfig(1.0)
        sop_ref = q(lambda g: cdf_case2(eb, cfg.theta * g + cfg.theta - 1.0) * pdf_case2(ee, g))
        val = closed_metrics(bob, eve, cfg, ("sop",))["sop"]
        rel = abs(val - sop_ref) / max(abs(sop_ref), abs(val), SCALE_FLOOR)
        worst = max(worst, rel)
        assert rel < 1e-7, (bob, eve, val, sop_ref)
    report(7, "resolved-erratum guard (20 draws)", True, f"worst rel={worst:.2e}")
