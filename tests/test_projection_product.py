"""The projection product against the factor-by-factor chain it replaced.

`unitary_from_projections` and `six_tap_polyphase` grow
V * prod_j (I - P_j + z*P_j) on one coefficient array and trim once.  The
oracle below is the earlier chain: one checked `general_factor` per step,
each matrix product trimmed.  Results must match bitwise, signed zeros
included, except where the chain trims a nonzero end term between factors.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebank.design import (
    V_HAAR,
    ProjectionParam,
    general_factor,
    projection,
    rotation_projection,
    six_tap_polyphase,
    unitary_from_projections,
)
from wavebank.laurent import CANONICAL_EPS, MatLaurentPoly, coeff_product


def chained_product(projections):
    """(V * prod_j general_factor(P_j) taken one factor at a time, whether
    some per-factor trim dropped an end term with a nonzero entry)."""
    A = MatLaurentPoly.from_constant(V_HAAR)
    dropped_nonzero = False
    for P in projections:
        factor = general_factor(P)
        untrimmed = coeff_product(A.coeffs, factor.coeffs, np.matmul)
        A = A * factor
        dropped_nonzero |= np.count_nonzero(untrimmed) != np.count_nonzero(A.coeffs)
    return A, dropped_nonzero


def bitwise_same(got, want):
    return (
        got.min_deg == want.min_deg
        and got.coeffs.shape == want.coeffs.shape
        and got.coeffs.tobytes() == want.coeffs.tobytes()
    )


def max_difference(got, want):
    _, a, b = got.padded(want)  # untrimmed, unlike got - want
    return float(np.max(np.abs(a - b)))


LAMS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
ANGLES = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, 3 * math.pi / 2]),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
)


@pytest.mark.parametrize("k", range(17))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_unitary_from_projections_matches_factor_chain(k, data):
    params = data.draw(st.lists(st.builds(ProjectionParam, LAMS, ANGLES), min_size=k, max_size=k))
    want, dropped_nonzero = chained_product([projection(p) for p in params])
    got = unitary_from_projections(params)
    if not dropped_nonzero:
        assert bitwise_same(got, want)
    else:  # the chain dropped terms below CANONICAL_EPS that the product keeps
        assert max_difference(got, want) <= 2 * k * CANONICAL_EPS


def test_product_keeps_dust_that_the_chain_trims():
    # P(0.5, 0) P(0.5, pi) is rounding dust: the chain trims it after two
    # factors, the one-array product carries it through the third
    params = [ProjectionParam(0.5, 0.0), ProjectionParam(0.5, math.pi), ProjectionParam(0.3, 1.0)]
    want, dropped_nonzero = chained_product([projection(p) for p in params])
    got = unitary_from_projections(params)
    assert dropped_nonzero and not bitwise_same(got, want)
    assert 0 < max_difference(got, want) <= 1e-15


@settings(derandomize=True, max_examples=200, deadline=None)
@given(theta=ANGLES, rho=ANGLES)
def test_six_tap_polyphase_matches_factor_chain(theta, rho):
    want, _ = chained_product([rotation_projection(theta), rotation_projection(rho)])
    assert bitwise_same(six_tap_polyphase(theta, rho), want)
