import math

import numpy as np
import pytest

from confdim.cantor import GapSequence, build_system
from confdim.dimension import (
    DiscreteMeasure,
    box_count,
    frostman_measure,
    mass_distribution_lower_bound,
    natural_measure,
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
