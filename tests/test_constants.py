import math

import pytest

from goeritz.constants import finiteness_constant, solve_R, solve_m


def test_fixed_point_equation():
    for h in (8.0, 16.0, 32.0, 100.0):
        m = solve_m(h)
        assert abs(m - 2 * h * (6 + math.log2(m + 2))) < 1e-8


def test_published_values():
    report = solve_R(32)
    assert report.ceil_R == 897
    assert report.two_R_plus_two <= 1796
    assert report.N == 3796


def test_monotone_in_h():
    assert solve_R(8).R < solve_R(16).R < solve_R(32).R


def test_finiteness_constant():
    assert finiteness_constant(1796, 102) == 3796
    assert finiteness_constant(1796, 1) == 3596
    assert finiteness_constant(1, 102) == 206
    with pytest.raises(ValueError):
        finiteness_constant(-1, 102)


def test_solve_m_rejects_nonpositive():
    for h in (0, -1.0, math.nan, math.inf, -math.inf, 1e306):
        with pytest.raises(ValueError):
            solve_m(h)
