import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autophagy_tumor.diagnostics import (
    SERIES_CHANNELS,
    TimeSeries,
    l2n_condition_and_rate,
    l2n_deviation,
    nutrient_bound_check,
    sup_deviation,
    support_components,
    support_radius,
    total_population,
    uniform_bound_at,
    write_table,
)
from autophagy_tumor.kinetics import (
    ConstantTransitions,
    HullTransitions,
    Logistic,
    ModelParameters,
    Proportional,
    equilibrium_roots,
)
from autophagy_tumor.solver import SolverConfig, enlarge_domain_if_needed

from conftest import make_state

THRESH = 1e-10


def indicator_state(R=1.0, dx=0.05, pad=30, level=1.0, frac=0.6):
    # n = level on |x| <= R (cell centers), vacuum outside
    m = int(round(2 * R / dx)) + 1 + 2 * pad
    x = (np.arange(m) - (m - 1) / 2) * dx
    n = np.where(np.abs(x) <= R + 1e-12, level, 0.0)
    return make_state(frac * n, (1 - frac) * n, dx=dx), x


def test_support_info_empty():
    state = make_state(np.zeros(9), np.zeros(9))
    assert support_components(state.n > THRESH) == ()
    assert total_population(state)[0] == 0.0


def test_support_info_indicator_geometry():
    dx = 0.05
    state, x = indicator_state(R=1.0, dx=dx)
    mask = state.n > THRESH
    components = support_components(mask)
    assert len(components) == 1
    lo, hi = components[0]
    assert x[lo] == pytest.approx(-1.0, abs=1e-12)
    assert x[hi] == pytest.approx(1.0, abs=1e-12)
    # measured radius within one cell of the true half-width
    assert abs(support_radius(state.grid, mask) - 1.0) <= dx + 1e-12
    # indicator of [-1, 1] holds mass 2, quadrature error at the two edges
    assert abs(total_population(state)[0] - 2.0) <= 2 * dx + 1e-12


def test_support_info_two_bumps():
    dx = 0.1
    n = np.zeros(41)
    n[5:10] = 1.0
    n[25:32] = 0.5
    state = make_state(n, np.zeros_like(n), dx=dx)
    mask = state.n > THRESH
    assert support_components(mask) == ((5, 9), (25, 31))
    x = state.grid.cell_x
    assert support_radius(state.grid, mask) == pytest.approx(max(abs(x[5]), abs(x[31])))
    assert total_population(state)[0] == pytest.approx(dx * (5 * 1.0 + 7 * 0.5))


@pytest.mark.parametrize(
    "occupied, want",
    [
        ([], ()),
        ([4], ((4, 4),)),
        ([0], ((0, 0),)),
        ([8], ((8, 8),)),
        ([0, 1, 2, 6, 7, 8], ((0, 2), (6, 8))),
        (list(range(9)), ((0, 8),)),
        ([1, 3, 5], ((1, 1), (3, 3), (5, 5))),
    ],
    ids=["empty", "single", "left-edge", "right-edge", "both-edges", "full", "isolated"],
)
def test_support_components_match_support_info(occupied, want):
    n = np.zeros(9)
    n[occupied] = 0.5
    comps = support_components(n > THRESH)
    assert comps == want
    assert comps == support_components(make_state(n, np.zeros(9)).n > THRESH)
    assert all(type(i) is int for run in comps for i in run)


def test_sup_deviation_values():
    eq = equilibrium_roots(0.3, 1.0, 1.0)
    mu = np.full(11, 1.0)
    # all-normal tissue sits 1 - mu* above the equilibrium fraction
    assert sup_deviation(mu, eq.mu_star) == pytest.approx(0.4627086, abs=1e-6)
    mu = np.full(11, eq.mu_star)
    mu[4] = 0.2
    assert sup_deviation(mu, eq.mu_star) == pytest.approx(eq.mu_star - 0.2, rel=1e-12)


def test_l2n_deviation_constant_offset():
    # constant offset h over support of length L gives h * L^(1/(2n))
    dx = 0.02
    m = 50  # support length L = 1.0
    mu = np.full(m, 0.8)
    for n in (1, 2, 4):
        expect = 0.3 * (dx * m) ** (1.0 / (2 * n))
        assert l2n_deviation(mu, 0.5, dx, n) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        l2n_deviation(mu, 0.5, dx, 0)


def test_l2n_deviation_norm_interpolation(rng):
    # on a fixed support the scaled norms are ordered:
    # L^2 <= L^(1/2 - 1/4) * L^4-type bounds via Hoelder; check the clean chain
    # dev_2n / L^(1/2n) is nondecreasing in n (power-mean inequality)
    dx = 0.05
    mu = 0.5 + 0.4 * (rng.random(60) - 0.5)
    L = dx * mu.size
    means = [l2n_deviation(mu, 0.5, dx, n) / L ** (1.0 / (2 * n)) for n in (1, 2, 4)]
    assert means[0] <= means[1] + 1e-12
    assert means[1] <= means[2] + 1e-12
    sup = sup_deviation(mu, 0.5)
    for n, v in zip((1, 2, 4), means):
        assert v <= sup + 1e-12


def test_uniform_bound_at():
    eq = equilibrium_roots(0.3, 1.0, 1.0)
    assert uniform_bound_at(0.0, 0.4, eq) == pytest.approx(eq.uniform_A * 0.4, rel=1e-12)
    ts = np.array([0.0, 0.5, 1.0, 2.0])
    vals = uniform_bound_at(ts, 0.4, eq)
    expect = eq.uniform_A * 0.4 * np.exp(-eq.decay_rate * ts)
    np.testing.assert_allclose(vals, expect, rtol=1e-12)
    assert np.all(np.diff(vals) < 0)


def params_with(transitions, growth=None, D=0.1, c_B=1.0):
    return ModelParameters(
        gamma=2.0,
        growth=growth or Proportional(1.0),
        D=D,
        transitions=transitions,
        a=1.0,
        c_B=c_B,
    )


def test_l2n_condition_and_rate_reference_case():
    p = params_with(ConstantTransitions(K1=0.1, K2=1.0), D=0.1)
    eq = equilibrium_roots(0.1, 0.1, 1.0)
    ok, C = l2n_condition_and_rate(1, p, eq, c0=0.5)
    assert ok
    assert C == pytest.approx(0.6416079783099616, rel=1e-12)


def test_l2n_condition_fails_for_slow_switching():
    p = params_with(ConstantTransitions(K1=0.1, K2=0.01), D=0.1)
    eq = equilibrium_roots(0.1, 0.1, 0.01)
    ok, _ = l2n_condition_and_rate(1, p, eq, c0=0.5)
    # growth above death by 0.9 overwhelms 2*K2 = 0.02
    assert not ok


def test_l2n_condition_holds_when_death_dominates():
    p = params_with(ConstantTransitions(K1=0.1, K2=0.01), D=1.5)
    eq = equilibrium_roots(1.5, 0.1, 0.01)
    ok, C = l2n_condition_and_rate(1, p, eq, c0=0.5)
    assert ok
    assert C > 0


def test_l2n_condition_rejects_unsupported_models():
    eq = equilibrium_roots(0.1, 0.1, 1.0)
    p_hull = params_with(HullTransitions(k1max=1.0, k2max=1.0, omega=0.5))
    with pytest.raises(ValueError):
        l2n_condition_and_rate(1, p_hull, eq, c0=0.5)
    p_log = params_with(
        ConstantTransitions(K1=0.1, K2=1.0), growth=Logistic(g=1.0, M=1.2, delta=0.5)
    )
    with pytest.raises(ValueError):
        l2n_condition_and_rate(1, p_log, eq, c0=0.5)
    p_ok = params_with(ConstantTransitions(K1=0.1, K2=1.0))
    with pytest.raises(ValueError):
        l2n_condition_and_rate(0, p_ok, eq, c0=0.5)


def test_nutrient_bound_check():
    c = np.array([0.2, 0.9, 1.1, 0.4])
    mask = np.array([True, True, False, True])
    ok, worst = nutrient_bound_check(c, 1.0, 0.5, mask)
    assert ok and worst == 0.0
    ok, worst = nutrient_bound_check(c, 1.0, 0.5, np.array([False, False, True, False]))
    assert not ok
    assert worst == pytest.approx(0.1, rel=1e-12)
    # higher initial level raises the admissible ceiling
    ok, _ = nutrient_bound_check(c, 1.0, 1.2, np.ones(4, dtype=bool))
    assert ok
    ok, worst = nutrient_bound_check(c, 1.0, 0.5, np.zeros(4, dtype=bool))
    assert ok and worst == 0.0


def test_total_population():
    n1 = np.array([0.5, 1.0, 0.25])
    n2 = np.array([0.5, 0.0, 0.75])
    total, auto = total_population(make_state(n1, n2, dx=0.2))
    assert total == pytest.approx(0.2 * 3.0, rel=1e-14)
    assert auto == pytest.approx(0.2 * 1.25, rel=1e-14)


def test_total_population_invariant_under_domain_growth(rng):
    n1 = rng.random(21)
    n2 = rng.random(21)
    state = make_state(n1, n2, dx=0.1)
    before = total_population(state)
    cfg = SolverConfig(dt=1e-3, enlargement_margin=5)
    params = params_with(ConstantTransitions(K1=1.0, K2=1.0))
    grown, changed = enlarge_domain_if_needed(state, params, cfg)
    assert changed
    assert grown.grid.n_cells > state.grid.n_cells
    # old cells are preserved bitwise inside the padded arrays
    pad = (grown.grid.n_cells - state.grid.n_cells) // 2
    assert np.array_equal(grown.n1[pad:pad + 21], n1)
    assert np.array_equal(grown.n2[pad:pad + 21], n2)
    after = total_population(grown)
    assert after[0] == pytest.approx(before[0], rel=1e-12)
    assert after[1] == pytest.approx(before[1], rel=1e-12)


def test_time_series_columns_and_csv(tmp_path, rng):
    data = rng.random((6, len(SERIES_CHANNELS)))
    data[:, 0] = np.linspace(0.0, 1.0, 6)
    ts = TimeSeries(channels=SERIES_CHANNELS, data=data)
    np.testing.assert_array_equal(ts.times, data[:, 0])
    np.testing.assert_array_equal(ts.column("c_max"), data[:, SERIES_CHANNELS.index("c_max")])
    with pytest.raises(ValueError):
        ts.column("bogus")
    path = tmp_path / "series.csv"
    ts.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(SERIES_CHANNELS)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    # %.17g output round trips float64 exactly
    np.testing.assert_array_equal(back, data)


def test_time_series_flat_data_reshapes():
    flat = np.arange(2 * len(SERIES_CHANNELS), dtype=float)
    ts = TimeSeries(channels=SERIES_CHANNELS, data=flat)
    assert ts.data.shape == (2, len(SERIES_CHANNELS))


_TABLE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e308, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@settings(max_examples=200, deadline=None)
@given(
    n_cols=st.integers(1, 7),
    values=st.lists(_TABLE_VALUES, max_size=60),
    sep=st.sampled_from([",", " "]),
)
def test_write_table_matches_per_value_loop(n_cols, values, sep):
    # the writers' loop before the table writer: one "%.17g" per value
    table = np.array(values[: len(values) // n_cols * n_cols], dtype=float).reshape(-1, n_cols)
    want = "".join(sep.join("%.17g" % v for v in row) + "\n" for row in table)
    fh = io.StringIO()
    write_table(fh, table, sep)
    assert fh.getvalue() == want


def test_write_table_blocks_match_per_value_loop(rng):
    # several blocks and a partial last one
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e308])
    table = np.where(rng.random((1000, 3)) < 0.3, rng.choice(specials, (1000, 3)),
                     rng.standard_normal((1000, 3)))
    want = "".join(" ".join("%.17g" % v for v in row) + "\n" for row in table)
    fh = io.StringIO()
    write_table(fh, table, " ")
    assert fh.getvalue() == want


def test_norms_accept_the_on_support_fraction(rng):
    # the series passes the fraction on the support cells
    mu = rng.random(17)
    assert sup_deviation(mu, 0.4) == float(np.abs(mu - 0.4).max())
    for n in (1, 2, 4):
        want = float((0.1 * ((mu - 0.4) ** (2 * n)).sum()) ** (1.0 / (2 * n)))
        assert l2n_deviation(mu, 0.4, 0.1, n) == want
    with pytest.raises(ValueError, match="empty support"):
        sup_deviation(np.empty(0), 0.4)
    with pytest.raises(ValueError, match="empty support"):
        l2n_deviation(np.empty(0), 0.4, 0.1, 1)
