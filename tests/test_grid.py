import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autophagy_tumor.grid import (
    Grid1D,
    _edge_arrays,
    _limit,
    density_from_pressure,
    numerical_flux,
    pressure_from_density,
)


def test_grid_validation_and_coordinates():
    g = Grid1D(x_min=0.0, dx=0.5, n_cells=4)
    np.testing.assert_allclose(g.cell_x, [0.0, 0.5, 1.0, 1.5])
    with pytest.raises(ValueError):
        Grid1D(x_min=0.0, dx=0.0, n_cells=4)
    with pytest.raises(ValueError):
        Grid1D(x_min=0.0, dx=-0.1, n_cells=4)
    with pytest.raises(ValueError):
        Grid1D(x_min=0.0, dx=0.5, n_cells=2)


def test_pressure_law_values():
    assert pressure_from_density(1.0, 2.0) == pytest.approx(2.0, abs=1e-15)
    assert pressure_from_density(0.0, 2.0) == 0.0
    assert pressure_from_density(1.0, 80.0) == pytest.approx(80.0 / 79.0, abs=1e-15)
    assert density_from_pressure(2.0, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert density_from_pressure(0.0, 5.0) == 0.0


def test_pressure_law_round_trips():
    for gamma in (1.5, 2.0, 5.0, 80.0):
        for n in (0.1, 0.5, 1.0):
            back = density_from_pressure(pressure_from_density(n, gamma), gamma)
            assert back == pytest.approx(n, rel=1e-12)
        p = np.geomspace(1e-6, 2.0, 25)
        back = pressure_from_density(density_from_pressure(p, gamma), gamma)
        np.testing.assert_allclose(back, p, rtol=1e-12)


def test_pressure_law_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pressure_from_density(1.0, 1.0)
    with pytest.raises(ValueError):
        density_from_pressure(1.0, 0.5)
    with pytest.raises(ValueError):
        pressure_from_density(-0.1, 2.0)
    with pytest.raises(ValueError):
        density_from_pressure(-0.1, 2.0)
    with pytest.raises(ValueError):
        pressure_from_density(np.array([0.5, -1e-9]), 2.0)


def _limited_slope(n_prev, n_mid, n_next, dx):
    # the limiter `_edge_arrays` applies, on the three differences of one
    # three-cell stencil, elementwise
    d_minus = (n_mid - n_prev) / dx
    d_plus = (n_next - n_mid) / dx
    d_center = (n_next - n_prev) / (2.0 * dx)
    out = np.zeros(np.broadcast(d_minus, d_plus, d_center).shape)
    return _limit(d_minus, d_plus, d_center, out)


def test_limited_slope_three_point_cases():
    assert _limited_slope(0.0, 1.0, 2.0, 1.0) == pytest.approx(1.0)
    assert _limited_slope(1.0, 2.0, 1.0, 1.0) == 0.0
    assert _limited_slope(0.0, 1.0, 3.0, 1.0) == pytest.approx(1.0)
    # mirrored signs take the shallowest magnitude as well
    assert _limited_slope(0.0, -1.0, -3.0, 1.0) == pytest.approx(-1.0)
    # scale with dx
    assert _limited_slope(0.0, 1.0, 2.0, 0.5) == pytest.approx(2.0)


@settings(max_examples=100, deadline=None)
@given(
    prev=st.floats(-5, 5),
    mid=st.floats(-5, 5),
    nxt=st.floats(-5, 5),
)
def test_limited_slope_is_bounded_by_one_sided_differences(prev, mid, nxt):
    s = float(_limited_slope(prev, mid, nxt, 1.0))
    d_minus = mid - prev
    d_plus = nxt - mid
    if d_minus * d_plus <= 0:
        # local extremum or flat: the slope must vanish
        assert s == 0.0 or d_minus * d_plus == 0
    else:
        assert abs(s) <= abs(d_minus) + 1e-12
        assert abs(s) <= abs(d_plus) + 1e-12
        assert s * d_minus >= 0


def _limited_slope_six_compares(n_prev, n_mid, n_next, dx):
    # the limiter as first written: each sign tested on all three differences
    d_minus = (n_mid - n_prev) / dx
    d_plus = (n_next - n_mid) / dx
    d_center = (n_next - n_prev) / (2.0 * dx)
    smallest = np.minimum(np.minimum(d_minus, d_plus), d_center)
    largest = np.maximum(np.maximum(d_minus, d_plus), d_center)
    pos = (d_minus > 0) & (d_plus > 0) & (d_center > 0)
    neg = (d_minus < 0) & (d_plus < 0) & (d_center < 0)
    return np.where(pos, smallest, np.where(neg, largest, 0.0))


_LIMITER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, 1e308]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(_LIMITER_VALUES, _LIMITER_VALUES, _LIMITER_VALUES), min_size=1, max_size=12
    ),
    dx=st.one_of(st.sampled_from([1.0, 0.5, 5e-324, 1e-300]), st.floats(1e-6, 1e6)),
)
def test_limited_slope_matches_six_compare_reference(rows, dx):
    prev, mid, nxt = (np.array(col) for col in zip(*rows))
    with np.errstate(all="ignore"):
        got = _limited_slope(prev, mid, nxt, dx)
        want = _limited_slope_six_compares(prev, mid, nxt, dx)
    assert np.array_equal(got, want, equal_nan=True)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_edge_values_linear_and_constant():
    g = Grid1D(x_min=0.0, dx=0.5, n_cells=8)
    left, right = _edge_arrays(np.full(8, 1.3), g.dx)
    assert left.shape == right.shape == (7,)
    np.testing.assert_allclose(left, 1.3)
    np.testing.assert_allclose(right, 1.3)
    left, right = _edge_arrays(2.0 - 0.4 * g.cell_x, g.dx)
    exact = 2.0 - 0.4 * (g.cell_x[:-1] + 0.5 * g.dx)
    # away from the two boundary cells the reconstruction is exact and the
    # two one-sided states agree
    np.testing.assert_allclose(left[1:], exact[1:], atol=1e-14)
    np.testing.assert_allclose(right[:-1], exact[:-1], atol=1e-14)


def test_edge_values_spike_reverts_to_first_order():
    left, right = _edge_arrays(np.array([0.0, 1.0, 0.0]), 1.0)
    np.testing.assert_allclose(left, [0.0, 1.0])
    np.testing.assert_allclose(right, [1.0, 0.0])


@pytest.mark.parametrize(
    "rows",
    [
        np.array([[0.0, 1.0, 0.0], [0.3, 0.2, 0.9]]),
        np.array([np.full(7, 1.3), np.full(7, 0.0)]),
        np.random.default_rng(7).random((2, 50)),
        np.random.default_rng(8).random((3, 50)) - 0.5,
    ],
    ids=["N3", "constant", "random", "random-signed-3rows"],
)
def test_edge_arrays_stacked_rows_match_one_dimensional_calls(rows):
    left, right = _edge_arrays(rows, 0.1)
    assert left.shape == right.shape == (rows.shape[0], rows.shape[1] - 1)
    for k, row in enumerate(rows):
        row_left, row_right = _edge_arrays(row, 0.1)
        assert np.array_equal(left[k], row_left)
        assert np.array_equal(right[k], row_right)


def _edge_arrays_three_stencils(values, dx):
    # the reconstruction as first written: the limiter on three shifted
    # copies of the cell values, then out-of-place half-slope offsets
    s = np.zeros_like(values)
    if values.shape[-1] >= 3:
        s[..., 1:-1] = _limited_slope_six_compares(
            values[..., :-2], values[..., 1:-1], values[..., 2:], dx
        )
    left = values[..., :-1] + 0.5 * dx * s[..., :-1]
    right = values[..., 1:] - 0.5 * dx * s[..., 1:]
    return left, right


def _assert_same_bits(got, want):
    assert np.array_equal(got, want, equal_nan=True)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=200, deadline=None)
@given(
    cells=st.lists(st.tuples(_LIMITER_VALUES, _LIMITER_VALUES), min_size=3, max_size=12),
    dx=st.one_of(st.sampled_from([0.04, 1.0, 5e-324]), st.floats(1e-6, 1e6)),
)
def test_edge_arrays_match_three_stencil_reference(cells, dx):
    # (2, N) stacks as correct_densities passes them, special values included
    values = np.array(cells).T.copy()
    with np.errstate(all="ignore"):
        got = _edge_arrays(values, dx)
        want = _edge_arrays_three_stencils(values, dx)
    for g, w in zip(got, want):
        _assert_same_bits(g, w)


@settings(max_examples=200, deadline=None)
@given(
    faces=st.lists(
        st.tuples(_LIMITER_VALUES, _LIMITER_VALUES, _LIMITER_VALUES, _LIMITER_VALUES,
                  _LIMITER_VALUES),
        min_size=1,
        max_size=12,
    )
)
# (left + right)*u - |u|*(right - left) overflows although its half does not
@example(faces=[(9e307, 9e307, 0.0, 0.0, 1.0)])
# half of a subnormal sum rounds differently from the sum of halves
@example(faces=[(5e-324, 5e-324, 0.0, 0.0, 1.0)])
def test_numerical_flux_matches_formula_bit_for_bit(faces):
    l1, l2, r1, r2, u = (np.array(col) for col in zip(*faces))
    left = np.stack((l1, l2))
    right = np.stack((r1, r2))
    with np.errstate(all="ignore"):
        got = numerical_flux(left, right, u)
        want = 0.5 * ((left + right) * u - np.abs(u) * (right - left))
    _assert_same_bits(got, want)


def test_numerical_flux_upwinding():
    assert numerical_flux(0.5, 0.9, 0.0) == 0.0
    assert numerical_flux(0.5, 0.9, 2.0) == pytest.approx(1.0)
    assert numerical_flux(0.5, 0.9, -2.0) == pytest.approx(-1.8)


@settings(max_examples=60, deadline=None)
@given(
    n=st.lists(st.floats(0.0, 3.0), min_size=3, max_size=20),
    u=st.floats(-4.0, 4.0),
)
def test_numerical_flux_consistency(n, u):
    arr = np.asarray(n)
    np.testing.assert_allclose(numerical_flux(arr, arr, u), arr * u, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    increments=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=40),
    u=st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-3),
    cfl=st.floats(0.05, 0.5),
    decreasing=st.booleans(),
)
def test_transport_update_preserves_monotone_profiles(increments, u, cfl, decreasing):
    values = np.cumsum(np.asarray(increments))
    if decreasing:
        values = values[::-1].copy()
    dx = 0.1
    dt = cfl * dx / abs(u)
    left, right = _edge_arrays(values, dx)
    flux = numerical_flux(left, right, u)
    # update interior cells only (wall cells see the artificial zero flux)
    updated = values[1:-1] - (dt / dx) * np.diff(flux)
    diffs = np.diff(updated)
    if decreasing:
        assert np.all(diffs <= 1e-12)
    else:
        assert np.all(diffs >= -1e-12)
