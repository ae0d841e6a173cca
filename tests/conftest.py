from fractions import Fraction as F

import pytest


@pytest.fixture
def coefficient_rows():
    """P's exact coefficient table, read off ``a0`` and ``aq``: row i,
    column j holds the coefficient of w^i z^j."""
    def rows(poly):
        q, n = poly.clearing_power, poly.w_degree + 1
        a0, aq = (list(col) + [F(0)] * (n - len(col)) for col in (poly.a0, poly.aq))
        return [[a0[i]] + [F(0)] * (q - 1) + [aq[i]] for i in range(n)]
    return rows
