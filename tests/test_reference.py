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

from zenobath.bath import BathParams
from zenobath.intelligent import jump_operator_eigenstates

EPS = float(np.finfo(float).eps)
# M = sqrt(N (N + 1)) carries 2u, alpha = 2 (N + 1/2 + M) 3u and
# jz_mean = -0.5 / alpha 4u; var_j2 = jz_mean^2 twice that plus its own u;
# var_j1 = 1/4 is exact
REPORT_BOUNDS = {"var_j1": 0.0, "var_j2": 4.5, "jz_mean": 2.0}


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


@pytest.mark.parametrize(
    "nbar", [1e-30, 1e-16, 1e-8, 1e-3, 1.0, 1e3, 1e6, 1e8, 1e10, 1e12]
)
def test_intelligent_reports_match_the_decimal_reference(nbar):
    for phase in (0.0, 2.3, 2.0 * math.pi - 1e-15):
        for field, error, bound in report_errors(BathParams(nbar, phase, 0.7)):
            assert error <= bound, (field, nbar, phase, error)
