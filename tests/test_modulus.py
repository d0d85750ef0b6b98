import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import LinearConstraint, minimize

from confdim import modulus
from confdim.cantor import GapSequence, IntervalLevel, build_system
from confdim.modulus import (
    DiscreteModulusProblem,
    InfeasibleError,
    MeasureSystem,
    NonConvergenceError,
    _Coords,
    _solve_power_program,
    dmod_vanishing_witness,
    holder_lower_bound,
    modulus_comparison,
    product_system,
    solve_discrete,
    solve_fuglede,
    vitali_disjointify,
)


def brute_force(w, A, p, rng, starts=4):
    obj = lambda x: float(np.sum(w * np.abs(x) ** p))
    con = LinearConstraint(A, lb=1.0)
    best = math.inf
    n = A.shape[1]
    for _ in range(starts):
        x0 = rng.uniform(0.5, 1.5, n)
        res = minimize(obj, x0, constraints=[con], bounds=[(0, None)] * n,
                       method="SLSQP", options={"maxiter": 500, "ftol": 1e-14})
        if res.success:
            best = min(best, float(res.fun))
    return best


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("k", [1, 2, 5, 13])
def test_one_set_k_balls_closed_form(p, k):
    res = _solve_power_program(np.ones(k), np.ones((1, k)), p)
    assert abs(res.value - k ** (1 - p)) <= 1e-9
    assert res.kkt_residual <= 1e-7


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_separable_groups_closed_form(p):
    n, m = 5, 4
    A = np.kron(np.eye(n), np.ones((1, m)))
    res = _solve_power_program(np.ones(n * m), A, p)
    assert abs(res.value - n * m ** (1 - p)) <= 1e-8


def test_solver_matches_scipy_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(15):
        p = float(rng.choice([1.5, 2.0, 3.0]))
        n, m = int(rng.integers(3, 12)), int(rng.integers(2, 8))
        A = (rng.random((m, n)) < 0.5).astype(float)
        for i in np.where(A.sum(axis=1) == 0)[0]:
            A[i, rng.integers(0, n)] = 1.0
        w = rng.uniform(0.1, 2.0, n)
        res = _solve_power_program(w, A, p)
        assert abs(res.value - brute_force(w, A, p, rng)) <= 1e-6
        assert res.kkt_residual <= 1e-7
        assert res.duality_gap_bound <= 1e-6


@st.composite
def sparse_matrices(draw):
    """Nonnegative matrices with zero entries, empty columns and dense columns."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 10))
    values = draw(hnp.arrays(float, (m, n), elements=st.floats(0.0, 4.0)))
    mask = draw(hnp.arrays(bool, (m, n)))
    A = np.where(mask, values, 0.0)
    A[:, draw(st.integers(0, n - 1))] = 0.0
    A[:, draw(st.integers(0, n - 1))] = draw(
        hnp.arrays(float, m, elements=st.floats(0.5, 4.0)))
    return A


@settings(max_examples=200, deadline=None)
@given(A=sparse_matrices(), data=st.data())
def test_coordinate_products_match_dense(A, data):
    m, n = A.shape
    x = data.draw(hnp.arrays(float, n, elements=st.floats(0.0, 10.0)))
    y = data.draw(hnp.arrays(float, m, elements=st.floats(0.0, 10.0)))
    active = data.draw(hnp.arrays(bool, m).filter(np.any))
    # small chunks split the row pairs of one call over many blocks
    with mock.patch.object(modulus, "PAIR_CHUNK", data.draw(st.sampled_from([1, 5, 2 ** 17]))):
        C = _Coords(A)
        gram = C.gram(active, x)
    assert np.allclose(C.dot(x), A @ x, rtol=1e-13, atol=1e-13)
    assert np.allclose(C.tdot(y), A.T @ y, rtol=1e-13, atol=1e-13)
    dense = (A[active] * x) @ A[active].T
    assert np.allclose(gram, dense, rtol=1e-13, atol=1e-13)
    # row i is implied by a nonzero row k != i with A[i] >= A[k]; of equal rows the first stays
    ge = np.all(A[:, None, :] >= A[None, :, :], axis=2) & np.any(A > 0, axis=1)[None, :]
    np.fill_diagonal(ge, False)
    drop = ge & (~ge.T | (np.arange(m)[None, :] < np.arange(m)[:, None]))
    assert C.needed.tolist() == (~np.any(drop, axis=1)).tolist()


def test_implied_rows_are_dropped_without_changing_the_value():
    # row 1 repeats row 0, row 2 contains row 0, row 3 is row 0 scaled up
    A = np.array([[1.0, 1.0, 0.0, 0.0],
                  [1.0, 1.0, 0.0, 0.0],
                  [1.0, 1.0, 1.0, 0.0],
                  [2.0, 1.5, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 1.0]])
    assert _Coords(A).needed.tolist() == [True, False, False, False, True]
    res = _solve_power_program(np.ones(4), A, 2.0)
    assert res.value == pytest.approx(1.0, abs=1e-12)  # two pairs, 1/2 each
    assert np.all(res.multipliers[1:4] == 0.0)
    assert np.all(A @ res.optimizer >= 1.0 - 1e-12)
    assert res.kkt_residual <= 1e-12


@st.composite
def power_programs(draw):
    """Small programs of 0/1 (boolean) or weighted rows, with a repeated row
    and a row implied by the first."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(2, 8))
    A = draw(hnp.arrays(bool, (m + 1, n)))
    A[np.arange(m + 1), draw(hnp.arrays(np.int64, m + 1, elements=st.integers(0, n - 1)))] = True
    if draw(st.booleans()):
        A = A * draw(hnp.arrays(float, (m + 1, n), elements=st.floats(0.25, 4.0)))
    A = np.vstack([A[:m], A[m - 1], np.maximum(A[0], A[m])])
    w = draw(hnp.arrays(float, n, elements=st.floats(0.1, 2.0)))
    return w, A, draw(st.sampled_from([1.5, 2.0, 3.0]))


@settings(max_examples=150, deadline=None)
@given(program=power_programs(), budget=st.sampled_from([1, 2, 3, modulus.MAX_ITER]))
def test_gap_bound_is_the_value_less_the_dual_of_the_returned_multipliers(program, budget):
    # a small gradient budget leaves the work to the final polish
    w, A, p = program
    with mock.patch.object(modulus, "MAX_ITER", budget):
        try:
            res = _solve_power_program(w, A, p)
        except NonConvergenceError:
            assume(False)
    # the dual at the returned multipliers, recomputed densely
    A, y = A.astype(float), res.multipliers
    s = A.T @ y
    x = np.zeros_like(w)
    x[s > 0] = (s[s > 0] / (p * w[s > 0])) ** (1.0 / (p - 1.0))
    dual = float(np.sum(w * x ** p) + y @ (1.0 - A @ x))
    assert abs(res.duality_gap_bound - max(res.value - dual, 0.0)) <= 1e-12 * res.value


def _local_runs(rng, n_blocks, block, n_sets):
    """Sets that are runs of 2-6 neighbouring balls inside blocks."""
    A = np.zeros((n_sets, n_blocks * block))
    for i in range(n_sets):
        length = int(rng.integers(2, 7))
        j = int(rng.integers(0, n_blocks)) * block + int(rng.integers(0, block - length + 1))
        A[i, j:j + length] = 1.0
    return A


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_block_diagonal_program_value_is_the_sum_of_its_blocks(p):
    rng = np.random.default_rng([7, int(10 * p)])
    block = 16
    A = _local_runs(rng, 24, block, 300)  # many repeated and nested runs
    res = _solve_power_program(np.ones(A.shape[1]), A, p)
    parts = 0.0
    for b in range(24):
        cols = slice(b * block, (b + 1) * block)
        rows = np.any(A[:, cols] > 0, axis=1)
        if np.any(rows):
            parts += _solve_power_program(np.ones(block), A[rows][:, cols], p).value
    assert res.value == pytest.approx(parts, rel=1e-12)
    assert res.kkt_residual <= 1e-9
    assert res.duality_gap_bound <= 1e-9 * res.value


def test_dense_members_solve_in_bounded_memory():
    # every cell lies in every member: m^2 n = 2.4e7 row pairs share a column
    rng = np.random.default_rng(5)
    m, n = 200, 600
    members = rng.uniform(0.0, 1.0, (m, n))
    system = MeasureSystem(mu=np.full(n, 1.0 / n), members=list(members), p=2.0)
    tracemalloc.start()
    try:
        res = solve_fuglede(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the members take 1 MB; the row pairs at once would take over 1 GB
    assert peak < 40e6
    assert np.all(members @ res.optimizer >= 1.0 - 1e-12)
    assert res.duality_gap_bound <= 1e-9 * res.value


def test_stopped_solver_reports_non_convergence(monkeypatch):
    rng = np.random.default_rng(0)
    A = (rng.random((30, 80)) < 0.2).astype(float)
    A[np.arange(30), rng.integers(0, 80, 30)] = 1.0  # every row can be covered
    monkeypatch.setattr(modulus, "MAX_ITER", 1)
    with pytest.raises(NonConvergenceError) as err:
        _solve_power_program(np.ones(80), A, 2.0)
    assert not isinstance(err.value, InfeasibleError)
    assert err.value.member_indices == list(range(30))
    monkeypatch.undo()
    assert _solve_power_program(np.ones(80), A, 2.0).kkt_residual <= 1e-9


def test_solve_fuglede_zero_measure_cells_are_free():
    system = MeasureSystem(
        mu=[0.0, 1.0, 1.0],
        members=[[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
        p=2.0,
    )
    res = solve_fuglede(system)
    # the first member rides the free cell; only the second one costs
    assert res.value == pytest.approx(0.5, abs=1e-9)
    for lam in system.members:
        assert float(np.asarray(lam) @ res.optimizer) >= 1.0 - 1e-9


def test_solve_fuglede_rejects_zero_members():
    with pytest.raises(ValueError):
        MeasureSystem(mu=[1.0, 1.0], members=[[0.0, 0.0]], p=2.0)


def test_measure_system_validation():
    with pytest.raises(ValueError):
        MeasureSystem(mu=[1.0], members=[[1.0]], p=1.0)
    with pytest.raises(ValueError):
        MeasureSystem(mu=[-1.0], members=[[1.0]], p=2.0)
    with pytest.raises(ValueError):
        MeasureSystem(mu=[1.0, 1.0], members=[[1.0]], p=2.0)


def test_discrete_problem_incidence_from_intervals():
    balls = np.array([[0.0, 0.5], [2.0, 0.5], [4.0, 0.5]])
    sets = [np.array([0.05]), np.array([[1.95, 4.05]])]
    prob = DiscreteModulusProblem.from_intervals_1d(balls, sets, p=2.0)
    assert prob.incidence.tolist() == [[True, False, False], [False, True, True]]
    res = solve_discrete(prob)
    # set 1 needs weight 1 on its only ball, set 2 splits across two
    assert res.value == pytest.approx(1.0 + 2 * 0.25, abs=1e-9)


def _broadcast_incidence(balls, sets):
    """Every interval of every set against every fifth-ball: the oracle."""
    c, r = balls[:, 0], balls[:, 1]
    rows = []
    for s in sets:
        lo, hi = (s, s) if s.ndim == 1 else (s[:, 0], s[:, 1])
        rows.append(np.any((lo[:, None] <= c + r / 5.0) & (hi[:, None] >= c - r / 5.0), axis=0))
    return np.array(rows)


def test_discrete_problem_incidence_over_many_sets():
    rng = np.random.default_rng(3)
    balls = np.stack([(np.arange(1024) + 0.5) / 1024, np.full(1024, 0.5 / 1024)], axis=1)
    sets = [np.sort(rng.uniform(0.0, 1.0, (int(rng.integers(1, 9)), 2)), axis=1)
            for _ in range(300)]
    sets += [rng.uniform(0.0, 1.0, 5) for _ in range(20)]  # point sets
    prob = DiscreteModulusProblem.from_intervals_1d(balls, sets, p=2.0)
    assert np.array_equal(prob.incidence, _broadcast_incidence(balls, sets))


def test_incidence_of_overlapping_long_intervals_takes_bounded_memory():
    # 4.2M interval-ball pairs meet, but the incidence has only 0.6M cells;
    # a list of the meeting pairs would take about 180 MB
    rng = np.random.default_rng(0)
    balls = np.stack([(np.arange(1024) + 0.5) / 1024, np.full(1024, 0.5 / 1024)], axis=1)
    sets = [np.column_stack([rng.uniform(0.0, 0.1, 8), rng.uniform(0.9, 1.0, 8)])
            for _ in range(600)]
    tracemalloc.start()
    try:
        prob = DiscreteModulusProblem.from_intervals_1d(balls, sets, p=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert np.all(prob.incidence[:, 103:921])
    assert np.array_equal(prob.incidence, _broadcast_incidence(balls, sets))


@st.composite
def _degenerate_balls_and_sets(draw):
    """Balls in no order whose fifth-balls may have radius 0, touch, or
    overlap by up to 1e-12, so that their ends need not be sorted, and
    point and interval sets whose ends sit on, next to or between the
    fifth-ball ends; a few intervals have lo > hi."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 30))
    edges = np.sort(rng.uniform(-1.0, 1.0, 2 * n))
    left, right = edges[0::2].copy(), edges[1::2].copy()
    zero = rng.random(n) < draw(st.floats(0.0, 1.0))
    right[zero] = left[zero]  # radius 0
    pull = np.flatnonzero(rng.random(n - 1) < draw(st.floats(0.0, 1.0))) + 1
    left[pull] = np.minimum(right[pull], right[pull - 1] - rng.uniform(0.0, 0.99e-12, len(pull)))
    # a point ball just inside its left or right neighbour's end
    tuck = np.flatnonzero(rng.random(n - 1) < draw(st.floats(0.0, 0.5)))
    up = rng.random(len(tuck)) < 0.5
    point = np.where(up, right[tuck] - 4e-13, left[tuck + 1] + 4e-13)
    at = np.where(up, tuck + 1, tuck)
    left[at] = right[at] = point
    balls = np.column_stack([(left + right) / 2.0, 5.0 * (right - left) / 2.0])
    cs, rs = balls[np.argsort(balls[:, 0])].T
    assume(np.all(np.diff(cs) - (rs[1:] + rs[:-1]) / 5.0 >= -1e-12))
    balls = balls[rng.permutation(n)]
    c, r5 = balls[:, 0], balls[:, 1] / 5.0
    ends = np.concatenate([c - r5, c + r5, rng.uniform(-1.2, 1.2, 10)])
    ends = np.concatenate([ends, np.nextafter(ends, -2.0), np.nextafter(ends, 2.0)])
    sets = []
    for _ in range(draw(st.integers(1, 12))):
        k = int(rng.integers(0, 5))
        pts = rng.choice(ends, size=(k, 2))
        kind = rng.random()
        sets.append(pts[:, 0] if kind < 0.3 else pts if kind > 0.9 else np.sort(pts, axis=1))
    return balls, sets


@settings(max_examples=300, deadline=None)
@given(case=_degenerate_balls_and_sets())
def test_incidence_from_sorted_ends_equals_the_broadcast_predicate(case):
    balls, sets = case
    prob = DiscreteModulusProblem.from_intervals_1d(balls, sets, p=2.0)
    assert np.array_equal(prob.incidence, _broadcast_incidence(balls, sets))


def test_discrete_problem_rejects_overlapping_fifth_balls():
    balls = np.array([[0.0, 1.0], [0.3, 1.0]])
    with pytest.raises(ValueError):
        DiscreteModulusProblem.from_intervals_1d(balls, [np.array([0.0])], p=2.0)


def test_solve_discrete_infeasible_set_reported():
    balls = np.array([[0.0, 0.5]])
    prob = DiscreteModulusProblem.from_intervals_1d(
        balls, [np.array([0.0]), np.array([9.0])], p=2.0)
    with pytest.raises(InfeasibleError) as err:
        solve_discrete(prob)
    assert err.value.member_indices == [1]


def test_vitali_selected_disjoint_and_covering():
    rng = np.random.default_rng(6)
    balls = np.column_stack([rng.uniform(0, 10, 30), rng.uniform(0.05, 1.0, 30)])
    idx = vitali_disjointify(balls)
    sel = balls[idx]
    for i in range(len(sel)):
        for j in range(i + 1, len(sel)):
            assert abs(sel[i, 0] - sel[j, 0]) > sel[i, 1] + sel[j, 1]
    for c, r in balls:
        assert any(abs(c - cc) + r <= 5 * rr + 1e-12 or
                   np.all(np.abs(np.linspace(c - r, c + r, 64) - cc) <= 5 * rr)
                   for cc, rr in sel)


def test_vitali_tie_break_prefers_leftmost():
    balls = np.array([[5.0, 1.0], [0.0, 1.0], [0.5, 1.0]])
    idx = vitali_disjointify(balls)
    assert 1 in idx and 2 not in idx


def test_product_system_rejects_aliasing_grid():
    system = build_system(GapSequence.harmonic(7), max_depth=7)
    leaves = system.level(7)
    with pytest.raises(ValueError):
        product_system(leaves, [(0.0, 1.0)], cell_width=3.0 ** -7, p=1.5)


def test_holder_lower_bound_and_validation():
    system = build_system(GapSequence.harmonic(6), max_depth=6)
    leaves = system.level(6)
    Y = [(k / 4, 0.25) for k in range(4)]
    d = 0.6
    prod = product_system(leaves, Y, cell_width=3.0 ** -7, p=1 + d)
    assert holder_lower_bound(prod, d) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        holder_lower_bound(prod, 0.5)  # exponent mismatch
    res = solve_fuglede(prod)
    assert res.value >= 1.0 - 1e-3


def _dyadic_level(k):
    n = 2 ** k
    return IntervalLevel(depth=k, lefts=np.arange(n) / n,
                         log_length=-k * math.log(2), branching=2)


def test_vanishing_witness_dyadic_values():
    for k in (6, 10, 14):
        w = dmod_vanishing_witness(_dyadic_level(k), None, t=1.0, q=2.0,
                                   eps_target=1e-4)
        assert w.value == pytest.approx(2.0 ** -k, rel=1e-12)
        assert w.admissible_ok
    assert w.achieved  # k = 14 is below the target


def test_vanishing_witness_refuses_low_qt():
    with pytest.raises(ValueError):
        dmod_vanishing_witness(_dyadic_level(5), None, t=1.0, q=0.5, eps_target=1.0)


def test_vanishing_witness_decreases_with_depth():
    system = build_system(GapSequence.constant(1 / 3, 10), max_depth=10)
    vals = [dmod_vanishing_witness(system.level(n), None, t=0.64, q=1.1,
                                   eps_target=1.0).value
            for n in (4, 6, 8, 10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_modulus_comparison_reports_finite_ratio():
    system = build_system(GapSequence.harmonic(6), max_depth=6)
    leaves = system.level(6)
    prod = product_system(leaves, [(k / 4, 0.25) for k in range(4)],
                          cell_width=3.0 ** -7, p=1.5)
    rights = leaves.lefts + np.exp(leaves.log_length)
    centers = (leaves.lefts + rights) / 2.0
    balls = np.column_stack([centers, leaves.lengths / 2.0])
    image = DiscreteModulusProblem.from_intervals_1d(
        balls, [np.column_stack([leaves.lefts, rights])], p=1.5)
    rep = modulus_comparison(prod, image, s=0.9, C1=1e-3, C2=2.0)
    assert math.isfinite(rep.ratio) and rep.ratio > 0
    assert rep.hypothesis_ok
    assert rep.ambient_growth_C > 0


def test_modulus_comparison_degenerate_empty():
    empty = MeasureSystem(mu=[1.0], members=[], p=1.5)
    out = modulus_comparison(empty, None, s=0.5, C1=1.0, C2=1.0)
    assert out.degenerate
