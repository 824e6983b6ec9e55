import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autophagy_tumor.grid import (
    REGULAR,
    STAGGERED,
    Grid1D,
    GridFunction,
    density_from_pressure,
    edge_values,
    limited_slope,
    numerical_flux,
    pressure_from_density,
    staggered_density,
)
from autophagy_tumor.grid import _edge_arrays


def test_grid_validation_and_coordinates():
    g = Grid1D(x_min=0.0, dx=0.5, n_cells=4)
    np.testing.assert_allclose(g.cell_x, [0.0, 0.5, 1.0, 1.5])
    np.testing.assert_allclose(g.face_x, [0.25, 0.75, 1.25])
    with pytest.raises(ValueError):
        Grid1D(x_min=0.0, dx=0.0, n_cells=4)
    with pytest.raises(ValueError):
        Grid1D(x_min=0.0, dx=-0.1, n_cells=4)
    with pytest.raises(ValueError):
        Grid1D(x_min=0.0, dx=0.5, n_cells=2)


def test_grid_function_placement_checks():
    g = Grid1D(x_min=0.0, dx=1.0, n_cells=4)
    GridFunction(g, np.zeros(4), REGULAR)
    GridFunction(g, np.zeros(3), STAGGERED)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(3), REGULAR)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(4), STAGGERED)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(4), "diagonal")


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


def test_staggered_average():
    g = Grid1D(x_min=0.0, dx=1.0, n_cells=5)
    const = staggered_density(GridFunction(g, np.full(5, 0.7), REGULAR))
    assert const.placement == STAGGERED
    np.testing.assert_allclose(const.values, 0.7)
    two = staggered_density(GridFunction(g, np.array([0.0, 2.0, 0.0, 2.0, 0.0]), REGULAR))
    np.testing.assert_allclose(two.values, 1.0)
    # averaging a linear profile hits the face value exactly
    lin = 0.3 + 0.25 * g.cell_x
    faces = staggered_density(GridFunction(g, lin, REGULAR))
    np.testing.assert_allclose(faces.values, 0.3 + 0.25 * g.face_x, atol=1e-15)
    with pytest.raises(ValueError):
        staggered_density(GridFunction(g, np.zeros(4), STAGGERED))


def test_limited_slope_three_point_cases():
    assert limited_slope(0.0, 1.0, 2.0, 1.0) == pytest.approx(1.0)
    assert limited_slope(1.0, 2.0, 1.0, 1.0) == 0.0
    assert limited_slope(0.0, 1.0, 3.0, 1.0) == pytest.approx(1.0)
    # mirrored signs take the shallowest magnitude as well
    assert limited_slope(0.0, -1.0, -3.0, 1.0) == pytest.approx(-1.0)
    # scale with dx
    assert limited_slope(0.0, 1.0, 2.0, 0.5) == pytest.approx(2.0)


@settings(max_examples=100, deadline=None)
@given(
    prev=st.floats(-5, 5),
    mid=st.floats(-5, 5),
    nxt=st.floats(-5, 5),
)
def test_limited_slope_is_bounded_by_one_sided_differences(prev, mid, nxt):
    s = float(limited_slope(prev, mid, nxt, 1.0))
    d_minus = mid - prev
    d_plus = nxt - mid
    if d_minus * d_plus <= 0:
        # local extremum or flat: the slope must vanish
        assert s == 0.0 or d_minus * d_plus == 0
    else:
        assert abs(s) <= abs(d_minus) + 1e-12
        assert abs(s) <= abs(d_plus) + 1e-12
        assert s * d_minus >= 0


def test_edge_values_linear_and_constant():
    g = Grid1D(x_min=0.0, dx=0.5, n_cells=8)
    const = GridFunction(g, np.full(8, 1.3), REGULAR)
    left, right = edge_values(const)
    np.testing.assert_allclose(left.values, 1.3)
    np.testing.assert_allclose(right.values, 1.3)
    lin = GridFunction(g, 2.0 - 0.4 * g.cell_x, REGULAR)
    left, right = edge_values(lin)
    exact = 2.0 - 0.4 * g.face_x
    # away from the two boundary cells the reconstruction is exact and the
    # two one-sided states agree
    np.testing.assert_allclose(left.values[1:], exact[1:], atol=1e-14)
    np.testing.assert_allclose(right.values[:-1], exact[:-1], atol=1e-14)


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
