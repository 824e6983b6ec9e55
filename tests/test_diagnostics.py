import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autophagy_tumor.diagnostics import (
    SERIES_CHANNELS,
    TimeSeries,
    deviation_norms,
    l2n_condition_and_rate,
    support_components,
    total_population,
    read_table,
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
from autophagy_tumor.solver import (
    RunLog,
    SolverConfig,
    _Coefficients,
    _sample,
    enlarge_domain_if_needed,
)

from conftest import make_state

THRESH = 1e-10


def indicator_state(R=1.0, dx=0.05, pad=30, level=1.0, frac=0.6):
    # n = level on |x| <= R (cell centers), vacuum outside
    m = int(round(2 * R / dx)) + 1 + 2 * pad
    x = (np.arange(m) - (m - 1) / 2) * dx
    n = np.where(np.abs(x) <= R + 1e-12, level, 0.0)
    return make_state(frac * n, (1 - frac) * n, dx=dx), x


def sample_row(state, mu_star=None, c_ceiling=None):
    """The series row `run` samples from `state`, as {channel: value}, and
    the violations the sample records."""
    log = RunLog()
    row = _sample(state, state.t, THRESH, mu_star, c_ceiling, log)
    return dict(zip(SERIES_CHANNELS, row)), log.violations


def _runs_by_scan(cells):
    # reference: walk the mask once, opening a run at each occupied cell
    # after a vacant one and closing it at the next vacant cell
    runs, start = [], None
    for i, occupied in enumerate(cells):
        if occupied and start is None:
            start = i
        elif not occupied and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(cells) - 1))
    return tuple(runs)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.booleans(), max_size=60))
@example(cells=[])
@example(cells=[False] * 60)
@example(cells=[True] * 60)
@example(cells=[True] + [False] * 59)
@example(cells=[False] * 59 + [True])
@example(cells=[True, False] * 30)
@example(cells=[False, True] * 30)
@example(cells=[True] * 3 + [False] * 5 + [True] + [False] * 2 + [True] * 7 + [False] + [True])
def test_support_components_match_a_python_scan(cells):
    got = support_components(np.array(cells, dtype=bool))
    assert got == _runs_by_scan(cells)
    assert all(type(i) is int for run in got for i in run)


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
    assert abs(sample_row(state)[0]["radius"] - 1.0) <= dx + 1e-12
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
    assert sample_row(state)[0]["radius"] == pytest.approx(max(abs(x[5]), abs(x[31])))
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
    assert deviation_norms(mu - eq.mu_star, 0.1)[0] == pytest.approx(0.4627086, abs=1e-6)
    mu = np.full(11, eq.mu_star)
    mu[4] = 0.2
    assert deviation_norms(mu - eq.mu_star, 0.1)[0] == pytest.approx(eq.mu_star - 0.2, rel=1e-12)


def test_l2n_deviation_constant_offset():
    # constant offset h over support of length L gives h * L^(1/(2n))
    dx = 0.02
    m = 50  # support length L = 1.0
    mu = np.full(m, 0.8)
    for n, norm in zip((1, 2, 4), deviation_norms(mu - 0.5, dx)[1:]):
        expect = 0.3 * (dx * m) ** (1.0 / (2 * n))
        assert norm == pytest.approx(expect, rel=1e-12)


def test_l2n_deviation_norm_interpolation(rng):
    # on a fixed support the scaled norms are ordered:
    # L^2 <= L^(1/2 - 1/4) * L^4-type bounds via Hoelder; check the clean chain
    # dev_2n / L^(1/2n) is nondecreasing in n (power-mean inequality)
    dx = 0.05
    mu = 0.5 + 0.4 * (rng.random(60) - 0.5)
    L = dx * mu.size
    sup, *l2n = deviation_norms(mu - 0.5, dx)
    means = [norm / L ** (1.0 / (2 * n)) for n, norm in zip((1, 2, 4), l2n)]
    assert means[0] <= means[1] + 1e-12
    assert means[1] <= means[2] + 1e-12
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
    # the sample checks c <= max(c_B, c0) + 1e-6 on the support cells only
    c = np.array([0.2, 0.9, 1.1, 0.4])

    def violations(occupied, c_ceiling):
        n = 0.5 * np.array(occupied, dtype=float)
        return sample_row(make_state(n, n, c=c), c_ceiling=c_ceiling)[1]

    assert violations([1, 1, 0, 1], max(1.0, 0.5)) == []
    assert violations([0, 0, 1, 0], max(1.0, 0.5)) == [
        "nutrient exceeded its maximum-principle bound by 1.000e-01 at t=0"
    ]
    # higher initial level raises the admissible ceiling
    assert violations([1, 1, 1, 1], max(1.0, 1.2)) == []
    # the tolerance is 1e-6
    assert violations([0, 0, 1, 0], 1.1 - 5e-7) == []
    assert len(violations([0, 0, 1, 0], 1.1 - 5e-6)) == 1
    # nothing to check on an empty support, or without a ceiling
    assert violations([0, 0, 0, 0], 1.0) == []
    assert violations([1, 1, 1, 1], None) == []


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
    grown, changed = enlarge_domain_if_needed(state, _Coefficients(params, cfg, state.grid.dx))
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
    ts = TimeSeries(data)
    np.testing.assert_array_equal(ts.column("t"), data[:, 0])
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
    ts = TimeSeries(flat)
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


@settings(max_examples=200, deadline=None)
@given(
    n_cols=st.integers(1, 7),
    values=st.lists(_TABLE_VALUES, max_size=60),
    sep=st.sampled_from([",", None]),
)
@example(n_cols=3, values=[], sep=",")
@example(n_cols=4, values=[], sep=None)
def test_read_table_reads_write_table_back_bit_for_bit(n_cols, values, sep):
    table = np.array(values[: len(values) // n_cols * n_cols], dtype=float).reshape(-1, n_cols)
    fh = io.StringIO()
    write_table(fh, table, sep or " ")
    back = read_table(fh.getvalue().splitlines(keepends=True), sep, n_cols)
    assert back.shape == table.shape
    # "%.17g" keeps every bit but a NaN's sign and payload: "nan" reads back as np.nan
    want = np.where(np.isnan(table), np.nan, table)
    np.testing.assert_array_equal(back.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("token", ["1_0", " 1.5 ", "-nan", "iNf", "\uff11", "1e999", "-0"])
def test_read_table_reads_a_value_as_float_does(token):
    back = read_table([token + "\n"], ",", 1)
    np.testing.assert_array_equal(back.view(np.uint64), np.array([[float(token)]]).view(np.uint64))


@pytest.mark.parametrize(
    "lines, sep, n_cols, message",
    [
        (["1,2,3\n", "4,5\n", "6,7,8\n"], ",", 3, "data row 2 is not 3 numbers: '4,5'"),
        (["1,2\n", "\n", "3,4\n"], ",", 2, "data row 2 is not 2 numbers: ''"),
        (["1 2\n", "3 x\n"], None, 2, "data row 2 is not 2 numbers: '3 x'"),
        (["1,2\n", "3,4\n"], ",", 3, "data row 1 is not 3 numbers: '1,2'"),
    ],
    ids=["ragged row", "blank line", "bad token", "every row one short"],
)
def test_read_table_names_the_first_row_it_refuses(lines, sep, n_cols, message):
    with pytest.raises(ValueError) as info:
        read_table(lines, sep, n_cols)
    assert str(info.value) == message


def test_norms_accept_the_on_support_fraction(rng):
    # the series passes the deviation of the fraction on the support cells
    mu = rng.random(17)
    dev = mu - 0.4
    sup, *l2n = deviation_norms(dev, 0.1)
    assert sup == float(np.abs(mu - 0.4).max())
    # the even powers by repeated squaring
    d2 = dev * dev
    d4 = d2 * d2
    for power, k, norm in zip((d2, d4, d4 * d4), (2, 4, 8), l2n):
        assert norm == float((0.1 * power.sum()) ** (1.0 / k))
        # within 2 ulp of the `**` formula, and equal to it for L2
        want = float((0.1 * (dev**k).sum()) ** (1.0 / k))
        assert abs(norm - want) <= (0.0 if k == 2 else 2 * math.ulp(want))
    with pytest.raises(ValueError, match="empty support"):
        deviation_norms(np.empty(0), 0.1)


@settings(max_examples=200, deadline=None)
@given(
    k=st.lists(st.integers(0, 2**51 - 1), min_size=1, max_size=64),
    dx=st.sampled_from([0.01, 0.04, 0.1]),
)
def test_norms_of_mirrored_deviations_are_bitwise_equal(k, dx):
    # d < 1/4 is a multiple of 2^-53, so mu = 1/2 +- d and mu - 1/2 are exact
    d = np.array(k, dtype=float) * 2.0**-53
    above, below = 0.5 + d - 0.5, 0.5 - d - 0.5
    assert np.array_equal(above, -below)
    norms = np.array([deviation_norms(above, dx), deviation_norms(below, dx)])
    assert np.array_equal(norms[0].view(np.int64), norms[1].view(np.int64))
