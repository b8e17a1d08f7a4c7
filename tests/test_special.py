"""Scalar special functions against quadrature oracles and identities.

All of them live in ``oracles.py``: the ``ln1p_moment_table`` that the
partial-fraction ASC sums read, and the rest on top of its continued
fraction and exponential-integral anchor.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fbsec.errors import ConvergenceError, DomainError

from oracles import (
    _CF_SWITCH,
    EvalControl,
    binomial,
    cdf_case2,
    link_expansion,
    ln1p_moment_table,
    log_gamma_integral,
    pdf_case2,
    phi2_4_series,
    pochhammer,
    upper_gamma,
    upper_gamma_scaled,
)

# frozen oracle values (adaptive quadrature of the defining integrals)
E1_AT_1 = 0.21938393439552026          # int_1^inf e^-t / t dt
UG_M1_AT_1 = 0.14849550677592205       # int_1^inf e^-t / t^2 dt
LGI_1_1 = 0.5963473623231941           # int_0^inf ln(1+x) e^-x dx = e * E1(1)
V6_SMALL_B = 1.0336887506903389e21     # int_0^inf x^5 ln(1+x) e^-0.001x dx (30-digit oracle)


class TestUpperGamma:
    def test_order_one_is_plain_exponential(self):
        assert upper_gamma(1.0, 1.0) == pytest.approx(math.exp(-1), rel=1e-14)
        assert upper_gamma(1.0, 7.5) == pytest.approx(math.exp(-7.5), rel=1e-13)

    def test_order_zero_is_exponential_integral(self):
        oracle, err = integrate.quad(lambda t: math.exp(-t) / t, 1, np.inf, epsabs=1e-14)
        assert oracle == pytest.approx(E1_AT_1, abs=1e-13)
        assert upper_gamma(0.0, 1.0) == pytest.approx(E1_AT_1, rel=1e-12)

    def test_negative_order_recurrence_value(self):
        oracle, err = integrate.quad(lambda t: math.exp(-t) / t**2, 1, np.inf, epsabs=1e-14)
        assert oracle == pytest.approx(UG_M1_AT_1, abs=1e-13)
        assert upper_gamma(-1.0, 1.0) == pytest.approx(UG_M1_AT_1, rel=1e-12)
        assert upper_gamma(-1.0, 1.0) == pytest.approx(math.exp(-1) - E1_AT_1, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            upper_gamma(1.0, 0.0)
        with pytest.raises(DomainError):
            upper_gamma(1.0, -2.0)

    @pytest.mark.parametrize("a", [-3, -2, -1, 1, 2, 3, -2.5, 0.5, 1.7])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_recurrence_consistency(self, a, x):
        # Gamma(a+1,x) = a Gamma(a,x) + x^a e^-x
        lhs = upper_gamma(a + 1.0, x)
        rhs = a * upper_gamma(a, x) + x**a * math.exp(-x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("a", [0, -1, -4, -8])
    @pytest.mark.parametrize("x", [0.3, 1.9, 2.1, 30.0, 250.0])
    def test_scaled_against_quadrature(self, a, x):
        # e^x Gamma(a,x) = e^x int_x^inf t^(a-1) e^-t dt, with the integrand
        # shifted to u = t - x so the quadrature stays in range
        oracle, err = integrate.quad(
            lambda u: (u + x) ** (a - 1.0) * math.exp(-u), 0, np.inf, epsabs=1e-15, epsrel=1e-13
        )
        got = upper_gamma_scaled(a, x)
        assert got == pytest.approx(oracle, rel=1e-9)

    def test_complex_argument_matches_real_limit(self):
        a, x = -2, 3.0
        real = upper_gamma_scaled(a, x)
        near = upper_gamma_scaled(a, complex(x, 1e-9))
        assert near.real == pytest.approx(real, rel=1e-6)
        # conjugate symmetry
        z = complex(2.0, 0.7)
        assert upper_gamma_scaled(a, z.conjugate()) == pytest.approx(
            complex(upper_gamma_scaled(a, z)).conjugate(), rel=1e-12
        )


class TestLogGammaIntegral:
    def test_order_one(self):
        assert log_gamma_integral(1, 1.0) == pytest.approx(LGI_1_1, rel=1e-12)

    def test_order_two_quadrature(self):
        oracle, _ = integrate.quad(
            lambda x: x * math.log1p(x) * math.exp(-x), 0, np.inf, epsabs=1e-14
        )
        assert log_gamma_integral(2, 1.0) == pytest.approx(oracle, rel=1e-10)
        assert log_gamma_integral(2, 1.0) == pytest.approx(1.0, rel=1e-12)  # exact value

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("b", [0.2, 1.0, 5.0])
    def test_grid_against_quadrature(self, a, b):
        oracle, _ = integrate.quad(
            lambda x: x ** (a - 1) * math.log1p(x) * math.exp(-b * x),
            0, np.inf, epsabs=1e-14, epsrel=1e-12,
        )
        assert log_gamma_integral(a, b) == pytest.approx(oracle, rel=1e-9)

    def test_large_b_asymptotics(self):
        # ln(1+x) ~ x near the origin, so the integral ~ 1/b^2
        b = 50.0
        assert log_gamma_integral(1, b) * b**2 == pytest.approx(1.0, rel=0.05)

    def test_small_b_stability(self):
        assert log_gamma_integral(6, 1e-3) == pytest.approx(V6_SMALL_B, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_gamma_integral(0, 1.0)
        with pytest.raises(DomainError):
            log_gamma_integral(2, 0.0)

    @pytest.mark.parametrize("b", [1e-3, 1e-2, 0.1, 0.5, 1.0, 1.99, 2.0, 2.01, 5.0, 10.0, 100.0, 1e3])
    def test_moment_table_against_mpmath(self, b):
        # every row of the table as the direct sum e^b sum_k Gamma(k-n, b) / b^k;
        # b runs across the continued fraction's switch.  mpmath's gammainc
        # loses most of 30 digits at order -62 and b = 100, so it runs at 80.
        mp = pytest.importorskip("mpmath")
        assert 1.99 < _CF_SWITCH < 2.01
        nmax = 64
        tab = ln1p_moment_table(nmax, b)
        assert np.all(tab.imag == 0.0)
        with mp.workdps(80):
            bb = mp.mpf(b)
            ug = [mp.exp(bb) * mp.gammainc(-j, bb) for j in range(nmax)]  # order -j
            for n in range(1, nmax + 1):
                ref = mp.fsum(ug[n - k] / bb**k for k in range(1, n + 1))
                assert abs(tab[n - 1].real - ref) <= 1e-13 * ref, (n, tab[n - 1].real, ref)

    @pytest.mark.parametrize("b", [2.0, 2.5, 3.0, 7.99, 8.0, 63.0, 64.0, 150.0, complex(8.5, 1e-12)])
    def test_moment_table_seams(self, b):
        # above the switch each table is one continued fraction at
        # k0 = min(nmax - 1, floor|b|), recurred down to 0 and up to nmax - 1:
        # k0 = 0 (nmax = 1), a split at k0, and tables that only recur down.
        # The reference runs up from e^b E1(b) at 80 digits, which loses
        # log10 prod_k |b|/k, at most 50 digits here, on the way.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(80):
            bb = mp.mpmathify(b)
            ug = [mp.exp(bb) * mp.e1(bb)]  # order -j at index j
            for j in range(1, 64):
                ug.append((bb ** -j - ug[-1]) / j)
            ref = [complex(mp.fsum(ug[n - k] / bb**k for k in range(1, n + 1))) for n in range(1, 65)]
        for nmax in (1, 2, 3, 8, 64):
            tab = ln1p_moment_table(nmax, b)
            err = np.abs(tab - ref[:nmax]) / np.abs(ref[:nmax])
            assert np.all(err <= 1e-13), (nmax, err.max())


class TestPochhammerBinomial:
    def test_values(self):
        assert pochhammer(3.0, 0) == 1.0
        assert pochhammer(2.0, 3) == 24.0
        assert binomial(4, 2) == 6.0
        assert binomial(5, 0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pochhammer(2.0, -1)
        with pytest.raises(DomainError):
            binomial(3, 5)
        with pytest.raises(DomainError):
            binomial(-1, 0)


class TestPhi24Series:
    def test_zero_arguments(self):
        assert phi2_4_series([0.5, 1, 2, 3], 2.0, [0, 0, 0, 0]) == 1.0

    def test_single_variable_reduction(self):
        # collapses to a one-variable confluent series; direct 1-D oracle
        a1, b, x1 = 0.7, 1.9, -0.4
        term, total = 1.0, 1.0
        for k in range(200):
            term *= (a1 + k) * x1 / ((b + k) * (k + 1))
            total += term
        got = phi2_4_series([a1, 0, 0, 0], b, [x1, 0, 0, 0])
        assert got == pytest.approx(total, rel=1e-10)

    @given(perm=st.permutations(range(4)))
    @settings(max_examples=24, deadline=None)
    def test_permutation_symmetry(self, perm):
        a = [0.5, 1.25, 2.0, 0.75]
        x = [-0.3, -0.1, 0.2, -0.05]
        base = phi2_4_series(a, 2.2, x)
        shuffled = phi2_4_series([a[i] for i in perm], 2.2, [x[i] for i in perm])
        assert shuffled == pytest.approx(base, rel=1e-11)

    def test_budget_exhaustion_raises(self):
        ctrl = EvalControl(rel_tol=1e-12, max_terms=200)
        with pytest.raises(ConvergenceError):
            phi2_4_series([1, 1, 1, 1], 2.0, [-40, -35, -20, -10], ctrl)

    def test_series_reconstructs_density_and_distribution(self):
        # the SNR law itself: f(g) = omega/Gamma(mu) g^(mu-1) Phi2(...)
        # with rates paired (quadratic roots <-> m, scattered <-> mu/2 - m);
        # at small g the series converges fast and must match the exact
        # mixture form
        import fbsec

        p = fbsec.FBParams(2.0, 1.0, 0.5, 0.8, 0.5, 1.0)
        dp = fbsec.derive(p)
        exp = link_expansion(p)
        a = [dp.exponents[2], dp.exponents[3], dp.exponents[0], dp.exponents[1]]
        rates = [dp.theta_rates[2], dp.theta_rates[3], dp.theta_rates[0], dp.theta_rates[1]]
        rates = [complex(r).real / p.avg_snr for r in rates]
        for g in (0.05, 0.2, 0.6):
            x = [-g * r for r in rates]
            series_pdf = (
                math.exp(dp.ln_omega) / math.gamma(p.mu) * g ** (p.mu - 1) * phi2_4_series(a, p.mu, x)
            )
            assert series_pdf == pytest.approx(pdf_case2(exp, g), rel=1e-10)
            series_cdf = (
                math.exp(dp.ln_omega) / math.gamma(p.mu + 1) * g**p.mu * phi2_4_series(a, p.mu + 1, x)
            )
            assert series_cdf == pytest.approx(cdf_case2(exp, g), rel=1e-10)

    def test_control_validation(self):
        with pytest.raises(DomainError):
            EvalControl(rel_tol=0.5)
        with pytest.raises(DomainError):
            EvalControl(max_terms=10)
