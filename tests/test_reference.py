"""Library closed forms against references computed in stdlib `decimal` at 40
digits, from the exact binary value of each float input.

At a frozen axis every such quantity is algebraic in N and does not depend
on psi.  Each field is held to k eps relative, with one k per field: its
first-order rounding bound in units of eps = 2u (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 3).
"""

import decimal
import math

import numpy as np
import pytest

from zenobath.bath import (
    BathParams,
    _frozen_ratio,
    _squeezing,
    generalized_lowering_operator,
)
from zenobath.intelligent import jump_operator_eigenstates

EPS = float(np.finfo(float).eps)
NBARS = [1e-30, 1e-16, 1e-8, 1e-3, 1.0, 1e3, 1e6, 1e8, 1e10, 1e12]
# M = sqrt(N (N + 1)) carries 2u, alpha = 2 (N + 1/2 + M) 3u and
# jz_mean = -0.5 / alpha 4u; var_j2 = jz_mean^2 twice that plus its own u;
# var_j1 = 1/4 is exact
REPORT_BOUNDS = {"var_j1": 0.0, "var_j2": 4.5, "jz_mean": 2.0}
# alpha 3u as above; q = (N/(N + 1))^(1/4): the ratio's 2u quartered, plus
# pow's own error below one ulp (2u); sin theta = 2q/(1 + q^2): q's 2.5u plus
# u each for q^2, the sum and the division; |lambda| = |i sqrt(M) e^{i psi/2}|:
# sqrt(M) 1.5u, u each for cos and sin, the product and abs
CLOSED_FORM_BOUNDS = {"alpha": 1.5, "q": 1.25, "sin_theta": 2.75, "abs_lambda": 2.25}
# an off-diagonal entry of J-(alpha): the numerator (N + M) or 1 + N + M times
# e^{+-i psi/2} 6u (N + M 3u, cos or sin u, product and sum u each), the
# denominator sqrt(4 alpha M) 4u (alpha M 6u halved, plus the sqrt's u), and
# the division u
LOWERING_BOUND = 5.5


def relative_eps(value: complex, real, imag) -> float:
    """|value - reference| / |reference| in eps, reference = real + i imag."""
    gap_re = decimal.Decimal(value.real) - real
    gap_im = decimal.Decimal(value.imag) - imag
    gap = gap_re * gap_re + gap_im * gap_im
    return float((gap / (real * real + imag * imag)).sqrt()) / EPS


def half_phase(phase: float) -> tuple:
    """cos(psi/2) and sin(psi/2) in decimal, by the Taylor series of e^{i psi/2},
    summed until a term falls below 1e-45 psi/2: sin keeps its digits at any
    psi, however small."""
    x = decimal.Decimal(phase) / 2
    parts = [decimal.Decimal(0), decimal.Decimal(0)]  # cos, sin
    term, k = decimal.Decimal(1), 0  # x^k / k!
    while abs(term) > abs(x) * decimal.Decimal("1e-45"):
        parts[k % 2] += -term if k % 4 >= 2 else term
        k += 1
        term = term * x / k
    return parts[0], parts[1]


def reference_report(nbar: float) -> dict:
    """var_j1, var_j2 and jz_mean of both jump-operator eigenstates, from
    alpha = 2N + 1 + 2M: 1/4, 1/(4 alpha^2) and -1/(2 alpha)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        n = decimal.Decimal(nbar)
        alpha = 2 * n + 1 + 2 * (n * (n + 1)).sqrt()
        return {
            "var_j1": decimal.Decimal(1) / 4,
            "var_j2": 1 / (4 * alpha * alpha),
            "jz_mean": -1 / (2 * alpha),
        }


def report_errors(params: BathParams) -> list:
    """(field, relative error in eps, bound) of each field of both reports,
    after requiring a saturation residual of exactly 0."""
    reference = reference_report(params.nbar)
    errors = []
    for rep in jump_operator_eigenstates(params):
        assert rep.saturation_residual == 0.0
        for field, exact in reference.items():
            gap = abs(decimal.Decimal(getattr(rep, field)) - exact) / abs(exact)
            errors.append((field, float(gap) / EPS, REPORT_BOUNDS[field]))
    return errors


@pytest.mark.parametrize("nbar", NBARS)
def test_intelligent_reports_match_the_decimal_reference(nbar):
    for phase in (0.0, 2.3, 2.0 * math.pi - 1e-15):
        for field, error, bound in report_errors(BathParams(nbar, phase, 0.7)):
            assert error <= bound, (field, nbar, phase, error)


@pytest.mark.parametrize("nbar", NBARS)
def test_squeezing_closed_forms_match_the_decimal_reference(nbar):
    # alpha = 2N + 1 + 2M, q = (N/(N + 1))^(1/4), sin theta = 2q/(1 + q^2)
    # and |lambda| = sqrt(M); the reports carry the eigenvalues -lambda, +lambda
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        n = decimal.Decimal(nbar)
        m = (n * (n + 1)).sqrt()
        q = (n / (n + 1)).sqrt().sqrt()
        exact = {
            "alpha": 2 * n + 1 + 2 * m,
            "q": q,
            "sin_theta": 2 * q / (1 + q * q),
            "abs_lambda": m.sqrt(),
        }
        for phase in (0.0, 2.3, 2.0 * math.pi - 1e-15):
            params = BathParams(nbar, phase, 0.7)
            alpha, lam = _squeezing(params)
            ratio = _frozen_ratio(params)
            values = {
                "alpha": alpha,
                "q": ratio,
                "sin_theta": 2.0 * ratio / (1.0 + ratio * ratio),
                "abs_lambda": abs(lam),
            }
            for field, value in values.items():
                error = float(abs(decimal.Decimal(value) - exact[field]) / exact[field])
                assert error / EPS <= CLOSED_FORM_BOUNDS[field], (field, nbar, phase)
            rep_1, rep_2 = jump_operator_eigenstates(params)
            assert (rep_1.eigenvalue, rep_2.eigenvalue) == (-lam, lam)


def test_lowering_operator_entries_match_the_decimal_reference():
    # J-(alpha) = (J1 - i alpha J2) / (i sqrt(4 alpha M)) has the entries
    # i (N + M) e^{i psi/2} / D above and -i (1 + N + M) e^{-i psi/2} / D below
    # the diagonal, D = sqrt(4 alpha M); J1 - i alpha J2 formed as a difference
    # loses 1 - alpha = -2 (N + M) as N -> 0 (2.2e7 eps off at N = 1e-16)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for nbar in np.geomspace(1e-30, 1e12, 85).tolist():
            n = decimal.Decimal(nbar)
            m = (n * (n + 1)).sqrt()
            denom = (4 * (2 * n + 1 + 2 * m) * m).sqrt()
            for phase in (0.0, 1.0, 4.0):
                c, s = half_phase(phase)
                low = generalized_lowering_operator(BathParams(nbar, phase))
                assert low[0, 0] == 0.0 and low[1, 1] == 0.0
                upper = relative_eps(
                    low[0, 1], -(n + m) * s / denom, (n + m) * c / denom
                )
                lower = relative_eps(
                    low[1, 0], -(1 + n + m) * s / denom, -(1 + n + m) * c / denom
                )
                assert max(upper, lower) <= LOWERING_BOUND, (nbar, phase, upper, lower)
