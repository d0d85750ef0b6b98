import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confdim.cantor import GapSequence, IntervalLevel, build_system
from confdim.dimension import (
    DiscreteMeasure,
    box_count,
    frostman_measure,
    mass_distribution_lower_bound,
    natural_measure,
    sorted_window_masses,
)


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


def test_window_mass_proportional_overlap():
    m = DiscreteMeasure(lefts=[0.0, 0.5], rights=[0.2, 0.7], masses=[0.4, 0.6])
    assert m.window_mass(0.0, 1.0) == pytest.approx(1.0)
    assert m.window_mass(0.0, 0.1) == pytest.approx(0.2)  # half of the first block
    assert m.window_mass(0.3, 0.45) == pytest.approx(0.0)


def test_window_mass_atoms():
    m = DiscreteMeasure(lefts=[0.5], rights=[0.5], masses=[1.0])
    assert m.window_mass(0.4, 0.6) == pytest.approx(1.0)
    assert m.window_mass(0.6, 0.8) == pytest.approx(0.0)


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
    m = DiscreteMeasure(lefts=lefts, rights=rights, masses=rng.uniform(0.0, 1.0, 200))
    x0 = np.concatenate([
        rng.uniform(-0.1, 1.0, 300),        # windows that straddle interval ends
        lefts[:50], lefts[::7][:20] - 1e-3,  # windows starting on an end / at an atom
        [2.0, -1.0, 0.5],                    # empty windows
    ])
    x1 = np.concatenate([
        x0[:300] + rng.uniform(0.0, 0.3, 300),
        rights[:50], lefts[::7][:20] + 1e-3,
        [3.0, -0.5, 0.5 - 1e-12],
    ])
    got = m.window_masses(x0, x1)
    want = np.array([_scalar_window_mass(m, a, b) for a, b in zip(x0, x1)])
    # more window x interval cells than one chunk holds
    assert len(x0) * len(m.masses) > 2 ** 15
    # the same per-interval operations and the same pairwise sum: bit for bit
    assert np.array_equal(got, want)
    assert np.all(got[-3:] == 0.0)
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
    lefts, rights, masses, x0, x1 = case
    csum = np.concatenate([[0.0], np.cumsum(masses)])
    mu, j0, j1 = sorted_window_masses(lefts, rights, masses, csum, x0, x1)
    want, w0, w1 = _certificate_window_masses(lefts, rights, masses, csum, x0, x1)
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
def test_sorted_window_masses_with_atoms_match_a_scalar_loop(case):
    lefts, rights, masses, x0, x1 = case
    csum = np.concatenate([[0.0], np.cumsum(masses)])
    mu, _, _ = sorted_window_masses(lefts, rights, masses, csum, x0, x1)
    m = DiscreteMeasure(lefts=lefts, rights=rights, masses=masses)
    want = np.array([_scalar_window_mass(m, a, b) for a, b in zip(x0, x1)])
    assert np.all(np.isfinite(mu))
    assert np.max(np.abs(mu - want)) <= 1e-12 * m.total_mass


def test_sorted_window_masses_of_empty_inputs():
    none = np.array([])
    mu, j0, j1 = sorted_window_masses(none, none, none, np.zeros(1), none, none)
    assert mu.shape == j0.shape == j1.shape == (0,)
    mu, _, _ = sorted_window_masses(none, none, none, np.zeros(1), [0.0, 1.0], [0.5, 2.0])
    assert np.array_equal(mu, [0.0, 0.0])


def _mass_bound_per_scale_loop(measure, d, scales, lo, hi):
    """The per-window loop mass_distribution_lower_bound ran before: the reference."""
    order = np.argsort(measure.lefts)
    lefts, rights = measure.lefts[order], measure.rights[order]
    masses = measure.masses[order]
    lengths = rights - lefts
    csum = np.concatenate([[0.0], np.cumsum(masses)])
    out = []
    for r in scales:
        xs = np.arange(lo - r, hi + r / 4.0, r / 4.0)
        x1 = xs + r
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
    rep = mass_distribution_lower_bound(natural_measure(leaves), d, scales, geometry=leaves)
    want = _mass_bound_per_scale_loop(natural_measure(leaves), d, rep.scales,
                                      float(np.min(leaves.lefts)), float(np.max(leaves.rights)))
    # the loop subtracted the two boundary intervals in set order
    np.testing.assert_array_max_ulp(rep.per_scale_C, want, maxulp=1)


def _frostman_loop(level, d, depth):
    """frostman_measure with the per-interval occupancy loop it ran before."""
    cells, width, masses = np.array([0.0]), 1.0, np.array([1.0])
    for _ in range(depth):
        half = width / 2.0
        child = np.repeat(cells, 2)
        child[1::2] += half
        occ = np.zeros(len(child))
        for a, b in zip(level.lefts, level.rights):
            occ += np.clip(np.minimum(b, child + half) - np.maximum(a, child), 0.0, None)
        pair = np.repeat(occ[0::2] + occ[1::2], 2)
        share = np.zeros_like(occ)
        share[pair > 0] = occ[pair > 0] / pair[pair > 0]
        child_masses = np.minimum(np.repeat(masses, 2) * share, half ** d)
        keep = child_masses > 0
        cells, masses, width = child[keep], child_masses[keep], half
    return cells, masses


def _level(gaps, depth):
    return build_system(gaps, max_depth=depth).level(depth)


# a dyadic cell [15/64, 1/4] touches the second interval only at its left end
_TOUCHING = IntervalLevel(
    depth=1,
    lefts=np.array([0.003734730026382249, 0.25, 0.4585851958450149]),
    log_lengths=np.log(np.array([0.0814205731546661, 0.3729777764220863, 0.516863517689244])
                       - np.array([0.003734730026382249, 0.25, 0.4585851958450149])),
    parent_index=np.zeros(3, dtype=int),
)


@pytest.mark.parametrize("level,d,dyadic", [
    (_level(GapSequence.harmonic(10), 10), 0.9, 16),
    (_level(GapSequence.constant(1 / 3, 8), 8), math.log(2) / math.log(3), 14),
    (_level(GapSequence.constant(1 / 2, 8), 8), 0.5, 18),
    (_TOUCHING, 0.7, 6),
])
def test_frostman_occupancy_matches_the_interval_loop(level, d, dyadic):
    m = frostman_measure(level, d, max_dyadic_depth=dyadic)
    cells, masses = _frostman_loop(level, d, dyadic)
    assert np.array_equal(m.lefts, cells)
    np.testing.assert_allclose(m.masses, masses, rtol=1e-11, atol=0)


def test_natural_measure_uniform_on_level():
    system = build_system(GapSequence.constant(1 / 3, 5), max_depth=5)
    m = natural_measure(system.level(5))
    assert m.total_mass == pytest.approx(1.0)
    assert np.allclose(m.masses, 1.0 / 32)


def test_mass_bound_passes_at_the_similarity_dimension():
    system = build_system(GapSequence.constant(1 / 3, 10), max_depth=10)
    leaves = system.level(10)
    d = math.log(2) / math.log(3)
    scales = [3.0 ** -k for k in range(1, 8)]
    rep = mass_distribution_lower_bound(natural_measure(leaves), d, scales,
                                        geometry=leaves)
    assert rep.passed
    assert rep.C_observed < 10.0


def test_mass_bound_fails_above_the_dimension():
    system = build_system(GapSequence.constant(1 / 3, 10), max_depth=10)
    leaves = system.level(10)
    scales = [3.0 ** -k for k in range(1, 8)]
    rep = mass_distribution_lower_bound(natural_measure(leaves), 0.9, scales,
                                        geometry=leaves)
    assert not rep.passed
    assert rep.slope < -0.02


def test_mass_bound_input_validation():
    m = DiscreteMeasure(lefts=[0.0], rights=[1.0], masses=[1.0])
    with pytest.raises(ValueError):
        mass_distribution_lower_bound(m, 1.5, [0.1])
    with pytest.raises(ValueError):
        mass_distribution_lower_bound(m, 0.5, [-0.1])


def test_frostman_measure_respects_the_cap():
    system = build_system(GapSequence.constant(1 / 3, 8), max_depth=8)
    d = math.log(2) / math.log(3)
    m = frostman_measure(system.level(8), d, max_dyadic_depth=10)
    width = m.rights[0] - m.lefts[0]
    assert np.all(m.masses <= width ** d + 1e-12)
    assert m.total_mass > 0.1


def test_frostman_measure_full_interval_keeps_mass_one():
    level = build_system(GapSequence.constant(0.0, 1), max_depth=0).level(0)
    m = frostman_measure(level, 1.0, max_dyadic_depth=6)
    assert m.total_mass == pytest.approx(1.0)
