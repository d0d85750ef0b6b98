import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import confdim.cantor as cantor
from confdim.cantor import (
    MIDDLE_INTERVAL,
    STORED_COUNT,
    GapSequence,
    GapSequenceError,
    LeftEnds,
    build_system,
    closed_form_minkowski,
    minimality_criterion,
    truncated_length,
)


def test_gap_sequence_rejects_out_of_range():
    with pytest.raises(GapSequenceError):
        GapSequence(values=(0.2, 1.0))
    with pytest.raises(GapSequenceError):
        GapSequence(values=(-0.1,))


def test_uniform_kind_needs_room_for_children():
    with pytest.raises(GapSequenceError):
        GapSequence.uniform([0.5], [3])  # 2 gaps of 0.5 leave nothing
    gs = GapSequence.uniform([0.1, 0.05], [3, 4])
    assert gs.branching(0) == 3 and gs.branching(1) == 4


def test_middle_thirds_levels_are_exact():
    system = build_system(GapSequence.constant(1 / 3, 3), max_depth=3)
    lv1 = system.level(1)
    assert np.allclose(lv1.lefts, [0.0, 2 / 3])
    assert np.allclose(lv1.lefts + np.exp(lv1.log_length), [1 / 3, 1.0])
    lv2 = system.level(2)
    assert lv2.count == 4
    assert lv2.lengths == pytest.approx(np.full(4, 1 / 9))
    assert lv2.lefts[0] == 0.0 and lv2.lefts[-1] + np.exp(lv2.log_length) == pytest.approx(1.0)


def test_a_deep_system_builds_and_is_read_in_blocks_and_at_indices_only():
    # 2^40 leaves: the deep levels hold their splits only, and are read at
    # indices and in blocks as any generated level is
    system = build_system(GapSequence.constant(0.1, 40), max_depth=40)
    leaves = system.level(40)
    assert leaves.count == 2 ** 40
    tail = leaves.lefts_at(slice(2 ** 40 - 3, 2 ** 40), np.empty(3), np.empty(3))
    assert tail.tobytes() == leaves.lefts[np.arange(2 ** 40 - 3, 2 ** 40)].tobytes()
    assert leaves.lefts[-1] + np.exp(leaves.log_length) == pytest.approx(1.0)
    # a level has no whole-level read: a slice is not an index
    tracemalloc.start()
    try:
        for s in (slice(None), slice(None, None, 2), slice(0, 3)):
            with pytest.raises(TypeError):
                system.level(25).lefts[s]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_build_system_rejects_bad_depths():
    with pytest.raises(ValueError, match="max_depth must be >= 0"):
        build_system(GapSequence.harmonic(3), max_depth=-1)
    # checked before the cap, so a short uniform sequence is not indexed past its end
    with pytest.raises(ValueError, match="need at least 4 gap fractions, have 2"):
        build_system(GapSequence.uniform([0.1, 0.1], [3, 3]), max_depth=4)
    with pytest.raises(ValueError, match="need at least 30 gap fractions, have 2"):
        build_system(GapSequence.constant(0.3, 2), max_depth=30)


def test_harmonic_truncated_length_telescopes():
    # prod_{i=1..n} (1 - 1/(i+1)) = 1/(n+1)
    system = build_system(GapSequence.harmonic(14), max_depth=14)
    for n in range(15):
        expected = 1.0 / (n + 1)
        assert truncated_length(system, n) == pytest.approx(expected, rel=1e-12)


def test_parent_index_links_generations():
    system = build_system(GapSequence.constant(0.2, 5), max_depth=5)
    for n in range(1, 6):
        lv, up = system.level(n), system.level(n - 1)
        for j in range(lv.count):
            p = lv.parent_index[j]
            assert up.lefts[p] - 1e-15 <= lv.lefts[j]
            assert (lv.lefts[j] + np.exp(lv.log_length)
                    <= up.lefts[p] + np.exp(up.log_length) + 1e-15)


def _per_interval_levels(gaps, depth):
    """Levels 1..depth as they were built with one log-length and one parent per interval.

    The reference for the per-level scalars: yields (lefts, rights, lengths,
    parent_index) of each level.
    """
    lefts, loglens = np.array([0.0]), np.array([0.0])
    for i in range(depth):
        n = gaps.branching(i)
        parent_lens = np.exp(loglens)
        child_loglen = loglens + gaps.child_log_ratio(i)
        child_len = np.exp(child_loglen)
        new_lefts = np.empty(len(lefts) * n)
        parents = np.repeat(np.arange(len(lefts)), n)
        if gaps.kind == MIDDLE_INTERVAL:
            new_lefts[0::2] = lefts
            new_lefts[1::2] = lefts + parent_lens - child_len
        else:
            stride = child_len + gaps.values[i] * parent_lens
            for k in range(n):
                new_lefts[k::n] = lefts + k * stride
        lefts, loglens = new_lefts, np.repeat(child_loglen, n)
        lengths = np.exp(loglens)
        yield lefts, lefts + lengths, lengths, parents


_uniform_generation = st.integers(2, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.floats(0.0, 0.9 / (n - 1))))


@settings(max_examples=60, deadline=None)
@given(gaps=st.one_of(
    st.integers(1, 12).map(GapSequence.harmonic),
    st.tuples(st.floats(0.0, 0.95), st.integers(1, 12)).map(
        lambda cn: GapSequence.constant(*cn)),
    st.lists(_uniform_generation, min_size=1, max_size=5).map(
        lambda gens: GapSequence.uniform([g for _, g in gens], [n for n, _ in gens])),
))
def test_levels_match_the_per_interval_construction_bit_for_bit(gaps):
    system = build_system(gaps, max_depth=len(gaps))
    reference = _per_interval_levels(gaps, len(gaps))
    for lv, (lefts, rights, lengths, parents) in zip(system.levels[1:], reference):
        assert lv.lefts.tobytes() == lefts.tobytes()
        assert (lv.lefts + np.exp(lv.log_length)).tobytes() == rights.tobytes()
        assert lv.lengths.tobytes() == lengths.tobytes()
        assert lv.parent_index.tobytes() == parents.tobytes()


def test_build_system_keeps_only_the_left_ends():
    gaps = GapSequence.harmonic(20)
    tracemalloc.start()
    try:
        system = build_system(gaps, max_depth=20)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the stored levels' left ends are views of level 16's, the only array;
    # the four levels below it generate theirs
    assert [type(lv.lefts) is LeftEnds for lv in system.levels] == [False] * 17 + [True] * 4
    stored = 8 * STORED_COUNT
    assert kept <= 1.05 * stored
    assert peak <= 1.55 * stored


def _check_generated_ends(lv, lefts, rng):
    """``lv``'s left ends, read in blocks and at indices, against the array ``lefts``."""
    n = len(lefts)
    assert lv.lefts.shape == (n,) and lv.lefts.nbytes == 8 * n
    assert lv.lefts[np.arange(n)].tobytes() == lefts.tobytes()
    cuts = np.sort(rng.integers(0, n + 1, 6))
    for a, b in [(0, 1), (n - 1, n), (1, n), (n // 3, n // 3 + 7), (5, 5), *zip(cuts, cuts[1:])]:
        size = max(b - a, 0)
        # the scratch of a block read needs half the block and two slots
        got = lv.lefts_at(slice(a, b), np.empty(size), np.empty(size // 2 + 2))
        assert got.tobytes() == lefts[a:b].tobytes(), (a, b)
    for size in (3 if n < 2 ** 12 else n // 5 + 1, n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cantor, "SCAN_CHUNK", size)
            blocks = [(start, x.copy()) for start, x in lv.blocks()]
        assert [start for start, _ in blocks] == list(range(0, n, size))
        assert np.concatenate([x for _, x in blocks]).tobytes() == lefts.tobytes()
    assert lv.lefts[np.arange(0, n, 7)].tobytes() == lefts[::7].tobytes()
    # min_gap reads the level in blocks, carrying the last right end across them
    gaps = lefts[1:] - (lefts[:-1] + np.exp(lv.log_length))
    assert lv.min_gap() == (float(np.min(gaps)) if n > 1 else math.inf)
    at = rng.integers(0, n, (3, 50))
    assert lv.lefts[at].tobytes() == lefts[at].tobytes()
    assert lv.lefts[n - 1] == lv.lefts[-1] == lefts[-1] and lv.lefts[0] == lefts[0]
    with pytest.raises(IndexError):
        lv.lefts[n]


@pytest.mark.parametrize("gaps", [
    GapSequence.harmonic(20), GapSequence.constant(0.3, 20),
    GapSequence(values=tuple(np.random.default_rng(5).uniform(0.0, 0.9, 20))),
], ids=["harmonic", "constant", "random"])
def test_generated_left_ends_equal_the_whole_level_build_bit_for_bit(gaps):
    system = build_system(gaps, max_depth=20)
    rng = np.random.default_rng(0)
    for lv, (lefts, *_) in zip(system.levels[17:], list(_per_interval_levels(gaps, 20))[16:]):
        assert isinstance(lv.lefts, LeftEnds)
        _check_generated_ends(lv, lefts, rng)


@settings(max_examples=40, deadline=None)
@given(gaps=st.one_of(
    st.integers(1, 10).map(GapSequence.harmonic),
    st.tuples(st.floats(0.0, 0.95), st.integers(1, 10)).map(
        lambda cn: GapSequence.constant(*cn)),
    st.lists(_uniform_generation, min_size=1, max_size=5).map(
        lambda gens: GapSequence.uniform([g for _, g in gens], [n for n, _ in gens])),
), stored=st.sampled_from([1, 2, 5, 16]), seed=st.integers(0, 2 ** 16))
def test_levels_below_any_stored_count_generate_the_whole_level_build(gaps, stored, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cantor, "STORED_COUNT", stored)
        system = build_system(gaps, max_depth=len(gaps))
    rng = np.random.default_rng(seed)
    for lv, (lefts, *_) in zip(system.levels[1:], _per_interval_levels(gaps, len(gaps))):
        assert isinstance(lv.lefts, LeftEnds) == (len(lefts) > stored)
        _check_generated_ends(lv, lefts, rng)


@pytest.mark.parametrize("gaps", [
    GapSequence.harmonic(8), GapSequence.uniform([0.1, 0.2, 0.05, 0.1], [3, 2, 4, 5]),
], ids=["middle-interval", "uniform"])
def test_every_level_views_the_leaf_left_ends_read_only(gaps):
    system = build_system(gaps, max_depth=len(gaps))
    leaf = system.level(system.max_depth).lefts
    for lv in system.levels:
        assert np.shares_memory(lv.lefts, leaf)
        with pytest.raises(ValueError, match="read-only"):
            lv.lefts[0] = 1.0


def test_closed_form_minkowski_middle_thirds():
    gaps = GapSequence.constant(1 / 3, 50)
    val = closed_form_minkowski(gaps, 50)
    assert val == pytest.approx(math.log(2) / math.log(3), rel=1e-12)


def test_closed_form_minkowski_harmonic_tends_to_one():
    gaps = GapSequence.harmonic(10000)
    vals = [closed_form_minkowski(gaps, n) for n in (10, 100, 1000, 10000)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert 0.9985 <= vals[-1] <= 0.999


def test_closed_form_minkowski_rejects_uniform_kind():
    gs = GapSequence.uniform([0.1], [3])
    with pytest.raises(ValueError):
        closed_form_minkowski(gs, 1)


def test_minimality_criterion_harmonic():
    rep = minimality_criterion(GapSequence.harmonic(1000), M=1.0, tail_window=1000)
    # geometric mean of i/(i+1), i=1..1000 equals 1001^(-1/1000)
    assert rep.product_limit_estimate == pytest.approx(1001.0 ** (-1e-3), rel=1e-12)
    assert rep.ratio_ok
    assert rep.satisfied_at_finite_scale


def test_minimality_criterion_constant_third_fails():
    rep = minimality_criterion(GapSequence.constant(1 / 3, 200), M=1.0, tail_window=100)
    assert rep.product_limit_estimate == pytest.approx(2 / 3, rel=1e-12)
    assert not rep.satisfied_at_finite_scale
