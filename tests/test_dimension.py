import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import confdim.dimension as dimension
from confdim.cantor import GapSequence, build_system
from confdim.dimension import (
    DiscreteMeasure,
    box_count,
    mass_distribution_lower_bound,
    locate_windows,
)


def _natural_measure(level):
    """Mass 1 / count on every interval of a stored level, as a DiscreteMeasure."""
    return DiscreteMeasure(level.lefts, level.lefts + np.exp(level.log_length),
                           np.full(level.count, 1.0 / level.count))


def test_box_count_middle_thirds_exact_counts():
    system = build_system(GapSequence.constant(1 / 3, 12), max_depth=12)
    res = box_count(system.level(12), [3.0 ** -k for k in range(1, 11)])
    assert list(res.counts) == [2 ** k for k in range(1, 11)]
    assert res.fitted_slope == pytest.approx(math.log(2) / math.log(3), abs=1e-12)


def test_box_count_half_gaps_slope():
    system = build_system(GapSequence.constant(1 / 2, 12), max_depth=12)
    res = box_count(system.level(12), [4.0 ** -k for k in range(1, 11)])
    assert res.fitted_slope == pytest.approx(0.5, abs=1e-12)


def test_box_count_full_interval():
    res = box_count(np.array([[0.0, 1.0]]), [2.0 ** -k for k in range(1, 9)])
    assert res.fitted_slope == pytest.approx(1.0, abs=1e-12)


def test_box_count_point_cloud_and_validation():
    res = box_count(np.array([0.0, 0.5, 1.0]), [0.3, 0.1])
    assert np.all(res.counts >= 1)
    with pytest.raises(ValueError):
        box_count(np.zeros((0, 2)), [0.1])
    with pytest.raises(ValueError):
        box_count(np.array([0.0, 1.0]), [0.1, -0.2])


@st.composite
def _interval_sets(draw):
    """A harmonic or constant-c level, or random disjoint sorted intervals."""
    if draw(st.booleans()):
        depth = draw(st.integers(1, 12))
        c = draw(st.one_of(st.just("harmonic"), st.floats(0.01, 0.95)))
        gaps = GapSequence.harmonic(depth) if c == "harmonic" else GapSequence.constant(c, depth)
        return build_system(gaps, max_depth=depth).level(depth)
    ends = draw(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=100))
    return np.sort(ends[: len(ends) // 2 * 2]).reshape(-1, 2)


def test_box_count_is_not_monotone_in_eps():
    # the grid moves with eps, so a coarser grid can cut an interval that a
    # finer one holds in one box
    assert list(box_count(np.array([[0.49, 0.51]]), [0.5, 0.4]).counts) == [2, 1]


@settings(max_examples=200, deadline=None)
@given(data=_interval_sets(), eps=st.floats(1e-4, 2.0), m=st.integers(2, 5))
def test_box_count_does_not_decrease_under_refinement(data, eps, m):
    # each box of width eps is the union of m boxes of width eps/m
    counts = box_count(data, [eps, eps / m]).counts
    assert counts[1] >= counts[0]


def test_window_mass_proportional_overlap():
    m = DiscreteMeasure(lefts=[0.0, 0.5], rights=[0.2, 0.7], masses=[0.4, 0.6])
    assert m.window_mass(0.0, 1.0) == pytest.approx(1.0)
    assert m.window_mass(0.0, 0.1) == pytest.approx(0.2)  # half of the first block
    assert m.window_mass(0.3, 0.45) == pytest.approx(0.0)


def test_window_mass_atoms():
    m = DiscreteMeasure(lefts=[0.5], rights=[0.5], masses=[1.0])
    assert m.window_mass(0.4, 0.6) == pytest.approx(1.0)
    assert m.window_mass(0.6, 0.8) == pytest.approx(0.0)


def test_discrete_measure_rejects_unsorted_right_ends_and_overlaps():
    # sorted by left end, [0, 1] comes before [0.2, 0.3], which it contains
    with pytest.raises(ValueError, match="non-decreasing right ends"):
        DiscreteMeasure(lefts=[0.2, 0.0], rights=[0.3, 1.0], masses=[1.0, 1.0])
    # the window rule would count [1, 3] wholly inside [1.5, 3.5]
    with pytest.raises(ValueError, match="overlap by at most 1e-12"):
        DiscreteMeasure(lefts=[0.0, 1.0, 2.0], rights=[2.0, 3.0, 4.0], masses=[1.0, 1.0, 1.0])
    # an atom inside an interval is fine
    m = DiscreteMeasure(lefts=[0.5, 0.0], rights=[0.5, 1.0], masses=[2.0, 1.0])
    assert m.window_mass(0.25, 0.5) == 2.25


def test_natural_measure_of_a_gapless_level_is_accepted():
    # with c = 0 the level's neighbours overlap by up to 1 ulp
    leaves = build_system(GapSequence.constant(0.0, 16), max_depth=16).level(16)
    rights = leaves.lefts + np.exp(leaves.log_length)
    assert np.any(rights[:-1] > leaves.lefts[1:])
    m = _natural_measure(leaves)
    assert m.window_mass(0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert m.window_mass(0.25, 0.5) == pytest.approx(0.25, abs=1e-12)
    # the mass-bound sweep reads it too: every window of width r holds mass r
    rep = mass_distribution_lower_bound(leaves, 1.0, [0.5, 0.25, 2.0 ** -10])
    np.testing.assert_allclose(rep.per_scale_C, 1.0, rtol=1e-12)


def _scalar_window_mass(m, x0, x1):
    """One window, one interval at a time: the reference for window_masses."""
    total = np.zeros(len(m.masses))
    for i, (a, b, w) in enumerate(zip(m.lefts, m.rights, m.masses)):
        if a == b:
            total[i] = w if x0 <= a <= x1 else 0.0
        else:
            total[i] = w * min(max((min(b, x1) - max(a, x0)) / (b - a), 0.0), 1.0)
    return float(np.sum(total))


def test_window_masses_match_a_scalar_loop():
    rng = np.random.default_rng(11)
    edges = np.sort(rng.uniform(0.0, 1.0, 400))
    lefts, rights = edges[0::2].copy(), edges[1::2].copy()
    rights[::7] = lefts[::7]  # atoms
    inner = (lefts[3::7] + rights[3::7]) / 2.0  # atoms strictly inside intervals
    order = rng.permutation(200 + len(inner))  # in no particular order
    m = DiscreteMeasure(lefts=np.concatenate([lefts, inner])[order],
                        rights=np.concatenate([rights, inner])[order],
                        masses=rng.uniform(0.0, 1.0, 200 + len(inner)))
    x0 = np.concatenate([
        rng.uniform(-0.1, 1.0, 300),        # windows that straddle interval ends
        lefts[:50], lefts[::7][:20] - 1e-3,  # windows starting on an end / at an atom
        inner - 1e-3, inner,                 # windows around / starting at an inner atom
        [2.0, -1.0, 0.5, inner[0] + 1e-3],   # empty windows
    ])
    x1 = np.concatenate([
        x0[:300] + rng.uniform(0.0, 0.3, 300),
        rights[:50], lefts[::7][:20] + 1e-3,
        inner + 1e-3, inner,
        [3.0, -0.5, 0.5 - 1e-12, inner[0] - 1e-3],
    ])
    got = m.window_masses(x0, x1)
    want = np.array([_scalar_window_mass(m, a, b) for a, b in zip(x0, x1)])
    # a prefix-sum difference, not the loop's sum: equal up to rounding
    assert np.max(np.abs(got - want)) <= 1e-12 * m.total_mass
    assert np.all(got[-4:] == 0.0)
    assert m.window_masses([], []).shape == (0,)


def _certificate_window_masses(lefts, rights, masses, csum, xs, x1):
    """The window rule as the certificate scan wrote it out: the reference."""
    j1 = np.searchsorted(lefts, x1, side="right") - 1
    j0 = np.searchsorted(rights, xs, side="left")
    sel = j1 >= j0
    mu = csum[j1[sel] + 1] - csum[j0[sel]]
    fracs = []
    for edge in (j0[sel], j1[sel]):
        ll, rr = lefts[edge], rights[edge]
        fracs.append(np.clip(
            (np.minimum(rr, x1[sel]) - np.maximum(ll, xs[sel])) / (rr - ll),
            0.0, 1.0,
        ))
    mu -= masses[j0[sel]] * (1.0 - fracs[0])
    same = j0[sel] == j1[sel]
    mu -= np.where(same, 0.0, masses[j1[sel]] * (1.0 - fracs[1]))
    return mu, j0, j1


@st.composite
def _intervals_and_windows(draw, atoms):
    """Sorted disjoint intervals and windows that straddle ends, land exactly
    on ends, or miss every interval."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edges = np.sort(rng.uniform(-1.0, 1.0, 2 * n))
    lefts, rights = edges[0::2].copy(), edges[1::2].copy()
    if atoms:
        pick = rng.random(n) < draw(st.floats(0.0, 1.0))
        rights[pick] = lefts[pick]
    masses = rng.uniform(0.0, 1.0, n)
    points = np.concatenate([rng.uniform(-1.2, 1.2, 40), lefts, rights])
    x = np.sort(rng.choice(points, size=(60, 2)), axis=1)
    # the middle third of every gap, and of a stretch on either side
    gap_lo = np.concatenate([[-1.5], rights[:-1], [1.0]])
    gap_hi = np.concatenate([[-1.2], lefts[1:], [1.5]])
    x0 = np.concatenate([x[:, 0], gap_lo + (gap_hi - gap_lo) / 3])
    x1 = np.concatenate([x[:, 1], gap_lo + 2 * (gap_hi - gap_lo) / 3])
    return lefts, rights, masses, x0, x1


@settings(max_examples=300, deadline=None)
@given(case=_intervals_and_windows(atoms=False))
def test_sorted_window_masses_equal_the_certificate_formula_bitwise(case):
    """The window rule (locate before any mass is read, then sum over the prefix sum)."""
    lefts, rights, masses, x0, x1 = case
    csum = np.concatenate([[0.0], np.cumsum(masses)])
    want, w0, w1 = _certificate_window_masses(lefts, rights, masses, csum, x0, x1)
    win = locate_windows(lefts, rights, x0, x1)
    mu, j0, j1 = win.masses(np.cumsum(masses), masses), win.j0, win.j1
    hit = j1 >= j0
    assert np.array_equal(j0, w0) and np.array_equal(j1, w1)
    # a window that only touches interval ends has mass exactly 0; the
    # certificate formula left the prefix sum's rounding residue there
    overlap = np.sum(np.clip(np.minimum(rights, x1[:, None])
                             - np.maximum(lefts, x0[:, None]), 0.0, None), axis=1)
    touch = hit & (overlap == 0)
    assert np.array_equal(mu[hit & ~touch], want[~touch[hit]])
    assert np.all(mu[~hit | touch] == 0.0)
    # the windows placed inside the gaps and outside the hull meet nothing
    assert not np.any(hit[60:])


@settings(max_examples=300, deadline=None)
@given(case=_intervals_and_windows(atoms=True))
def test_discrete_measure_window_masses_with_atoms_match_a_scalar_loop(case):
    lefts, rights, masses, x0, x1 = case
    m = DiscreteMeasure(lefts=lefts, rights=rights, masses=masses)
    mu = m.window_masses(x0, x1)
    want = np.array([_scalar_window_mass(m, a, b) for a, b in zip(x0, x1)])
    assert np.all(np.isfinite(mu))
    assert np.max(np.abs(mu - want)) <= 1e-12 * m.total_mass


# [15/64, 1/4] touches the second interval only at its left end; with the
# lengths as masses, the prefix sum alone leaves a residue of 1.4e-17 there
_TOUCHING_LEFTS = np.array([0.003734730026382249, 0.25, 0.4585851958450149])
_TOUCHING_RIGHTS = _TOUCHING_LEFTS + np.exp(np.log(
    np.array([0.0814205731546661, 0.3729777764220863, 0.516863517689244]) - _TOUCHING_LEFTS))


def test_sorted_window_masses_of_a_touching_window_are_exactly_zero():
    lefts, rights = _TOUCHING_LEFTS, _TOUCHING_RIGHTS
    lengths = rights - lefts
    win = locate_windows(lefts, rights, [15 / 64], [1 / 4])
    mu, j0, j1 = win.masses(np.cumsum(lengths), lengths), win.j0, win.j1
    assert j0[0] == j1[0] == 1
    assert mu[0] == 0.0


def test_sorted_window_masses_of_empty_inputs():
    none = np.array([])
    win = locate_windows(none, none, none, none)
    assert win.masses(none, none).shape == win.j0.shape == win.j1.shape == (0,)
    mu = locate_windows(none, none, [0.0, 1.0], [0.5, 2.0]).masses(none, none)
    assert np.array_equal(mu, [0.0, 0.0])


def _mass_bound_per_scale_loop(level, d, scales):
    """A per-window loop over the candidate windows [l, l + r] and [e - r, e]: the reference."""
    lefts = level.lefts
    rights = lefts + np.exp(level.log_length)
    masses = np.full(level.count, 1.0 / level.count)
    lengths = rights - lefts
    csum = np.concatenate([[0.0], np.cumsum(masses)])
    out = []
    for r in scales:
        xs = np.concatenate([lefts, rights - r])
        x1 = np.concatenate([lefts + r, rights])
        i_hi = np.searchsorted(lefts, x1, side="right")
        i_lo = np.searchsorted(rights, xs, side="left")
        full = csum[i_hi] - csum[i_lo]
        best = 0.0
        for k in range(len(xs)):
            a, bidx = i_lo[k], i_hi[k]
            if bidx <= a:
                continue
            m = full[k]
            for j in {a, bidx - 1}:
                if lengths[j] > 0:
                    inside = min(rights[j], x1[k]) - max(lefts[j], xs[k])
                    m -= masses[j] * (1.0 - min(max(inside / lengths[j], 0.0), 1.0))
            best = max(best, m)
        out.append(best / r ** d)
    return np.array(out)


@pytest.mark.parametrize("gaps,depth,d,base", [
    (GapSequence.constant(1 / 3, 10), 10, math.log(2) / math.log(3), 3.0),
    (GapSequence.harmonic(12), 12, 0.9, 2.0),
])
def test_mass_bound_per_scale_within_one_ulp_of_the_window_loop(gaps, depth, d, base):
    leaves = build_system(gaps, max_depth=depth).level(depth)
    scales = [base ** -k for k in range(1, depth)]
    rep = mass_distribution_lower_bound(leaves, d, scales)
    want = _mass_bound_per_scale_loop(leaves, d, scales)
    # the loop subtracted the two boundary intervals in set order
    np.testing.assert_array_max_ulp(rep.per_scale_C, want, maxulp=1)


@pytest.mark.parametrize("chunk", [1, 7, 2 ** 10])
def test_mass_bound_scanned_in_chunks_equals_one_whole_grid_scan_bitwise(chunk, monkeypatch):
    measure = build_system(GapSequence.harmonic(10), max_depth=10).level(10)
    scales = [2.0 ** -k for k in range(1, 12)]
    monkeypatch.setattr(dimension, "SCAN_CHUNK", 2 ** 40)
    whole = mass_distribution_lower_bound(measure, 0.9, scales)
    monkeypatch.setattr(dimension, "SCAN_CHUNK", chunk)
    chunked = mass_distribution_lower_bound(measure, 0.9, scales)
    assert chunked.per_scale_C.tobytes() == whole.per_scale_C.tobytes()
    assert (chunked.slope, chunked.passed) == (whole.slope, whole.passed)


def test_mass_bound_scan_at_fine_scales_holds_one_chunk_of_candidate_windows():
    measure = build_system(GapSequence.constant(0.7, 14), max_depth=14).level(14)
    mass_distribution_lower_bound(measure, 0.5, [0.1])  # warm up
    for r in (4.0 / 2 ** 20, 1e-10):
        tracemalloc.start()
        try:
            mass_distribution_lower_bound(measure, 0.5, [r])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 2^15 candidate windows at any scale; one block of 2^12 and its
        # temporaries trace 0.74 MiB, and blocks of 2^13 would trace 1.46 MiB
        assert peak <= 1.15 * 2 ** 20, r


@settings(max_examples=100, deadline=None)
@given(c=st.none() | st.floats(0.05, 0.8), depth=st.integers(2, 9),
       log_scales=st.lists(st.floats(math.log(1e-4), 0.0), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
# a grid window beats the candidate maximum by 3.1e-15 relative here, by width rounding
@example(c=0.05891954999326761, depth=6, log_scales=[math.log(0.0011507587727172216)], seed=0)
def test_mass_bound_scan_is_the_maximum_over_grid_and_random_windows(c, depth, log_scales,
                                                                      seed):
    # the natural measure of a constant-c (harmonic for c None) system
    leaves = build_system(GapSequence.harmonic(depth) if c is None
                          else GapSequence.constant(c, depth), max_depth=depth).level(depth)
    measure = _natural_measure(leaves)
    scales = np.exp(log_scales)
    rep = mass_distribution_lower_bound(leaves, 1.0, scales)
    lo, hi = float(np.min(measure.lefts)), float(np.max(measure.rights))
    # a float window [x, x + r] is r wide only to half a spacing at its ends, and
    # its mass moves with the width at the intervals' density
    density = float(np.max(measure.masses / (measure.rights - measure.lefts)))
    rng = np.random.default_rng(seed)
    for r, c_r in zip(sorted(scales, reverse=True), rep.per_scale_C):
        top = c_r * r * (1.0 + 1e-15) + density * np.spacing(max(abs(lo), abs(hi)) + r)
        grid = np.arange(lo - r, hi + r / 4.0, r / 4.0)
        dense = rng.uniform(lo - r, hi, 20000)
        for x in (grid, dense):
            assert np.max(measure.window_masses(x, x + r)) <= top


def test_natural_measure_uniform_on_level():
    # the mass bound's measure: total mass 1, and 1/32 on a window of one leaf
    system = build_system(GapSequence.constant(1 / 3, 5), max_depth=5)
    rep = mass_distribution_lower_bound(system.level(5), 1.0, [1.0, 3.0 ** -5])
    assert rep.per_scale_C * np.array([1.0, 3.0 ** -5]) == pytest.approx([1.0, 1 / 32],
                                                                          rel=1e-12)


def test_mass_bound_passes_at_the_similarity_dimension():
    system = build_system(GapSequence.constant(1 / 3, 10), max_depth=10)
    leaves = system.level(10)
    d = math.log(2) / math.log(3)
    scales = [3.0 ** -k for k in range(1, 8)]
    rep = mass_distribution_lower_bound(leaves, d, scales)
    assert rep.passed
    assert rep.C_observed < 10.0


def test_mass_bound_fails_above_the_dimension():
    system = build_system(GapSequence.constant(1 / 3, 10), max_depth=10)
    leaves = system.level(10)
    scales = [3.0 ** -k for k in range(1, 8)]
    rep = mass_distribution_lower_bound(leaves, 0.9, scales)
    assert not rep.passed
    assert rep.slope < -0.02


def test_mass_bound_input_validation():
    m = build_system(GapSequence.harmonic(1), max_depth=0).level(0)
    with pytest.raises(ValueError):
        mass_distribution_lower_bound(m, 1.5, [0.1])
    with pytest.raises(ValueError):
        mass_distribution_lower_bound(m, 0.5, [-0.1])
