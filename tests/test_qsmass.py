import hashlib
import math
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

import confdim.qsmass as qsmass
from confdim.cantor import STORED_COUNT, GapSequence, build_system
from confdim.qsmaps import QsMap
from confdim.qsmass import (
    _ball_centers,
    build_image_tree,
    build_recursive_measure,
    certificate,
)


def _every_leaf(tree):
    """The keys at which the measure keeps the masses and prefix sums of every leaf."""
    return np.arange(tree[-1].count)


# the keys at which the measure keeps no leaf mass
_NO_LEAF = np.empty(0, dtype=np.intp)


def _measure(gaps, qsmap, d, depth):
    system = build_system(gaps, max_depth=depth)
    tree = build_image_tree(system, qsmap)
    return build_recursive_measure(tree, d, _every_leaf(tree)), tree


def _level_masses(tree, d):
    """Every level's masses, root first, with the measure's own bits.

    The measure stores no level whole: level n is read at every leaf of the
    measure on the tree cut at depth n, which splits it with the same bits.
    """
    return [np.ones(1)] + [build_recursive_measure(tree[:n + 1], d, _every_leaf(tree[:n + 1]))
                           .masses[0] for n in range(1, len(tree))]


def test_rejects_uniform_kind():
    gaps = GapSequence.uniform([0.1] * 4, [3] * 4)
    system = build_system(gaps, max_depth=4)
    with pytest.raises(ValueError):
        build_image_tree(system, QsMap.identity())


def test_image_tree_maps_the_leaf_left_ends_once():
    system = build_system(GapSequence.harmonic(18), max_depth=18)
    tracemalloc.start()
    try:
        tree = build_image_tree(system, QsMap.power(2.0))
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every level maps the ends it is read at from its own domain level, whose
    # left ends view the system's one leaf array: the tree stores no end
    for lv, domain in zip(tree, system.levels, strict=True):
        assert lv.level is domain
    assert kept <= 0.05 * 8 * system.levels[-1].count


def test_identity_symmetric_masses_halve():
    _, tree = _measure(GapSequence.constant(0.2, 6), QsMap.identity(), 0.7, 6)
    levels = _level_masses(tree, 0.7)
    assert len(levels) == 7
    for n in range(7):
        assert np.allclose(levels[n], 2.0 ** -n)


def _gaps(c, depth):
    return GapSequence.harmonic(depth) if c == "harmonic" else GapSequence.constant(c, depth)


# gaps (a constant c or harmonic), a power map x^a, the exponent d and the depth
_measure_cases = dict(
    c=st.one_of(st.just("harmonic"), st.floats(0.05, 0.9)),
    a=st.floats(1.0, 3.0),
    d=st.floats(0.05, 0.95),
    depth=st.integers(1, 10),
)


@settings(max_examples=60, deadline=None)
@given(**_measure_cases)
@example(c="harmonic", a=1.5, d=0.9, depth=10)
def test_mass_conservation_exact(c, a, d, depth):
    m, tree = _measure(_gaps(c, depth), QsMap.power(a), d, depth)
    levels = _level_masses(tree, d)
    assert np.array_equal(m.masses[0], levels[depth])
    for n in range(1, depth + 1):
        pair_sums = levels[n][0::2] + levels[n][1::2]
        assert np.array_equal(pair_sums, levels[n - 1])


def test_pi_factor_arithmetic_oracle():
    m, _ = _measure(GapSequence.constant(0.01, 8), QsMap.identity(), 0.9, 8)
    oracle = 1.0 / (2.0 * 0.495 ** 0.9)
    assert np.allclose(m.p_max, oracle, atol=1e-12)
    assert np.cumprod(m.p_max)[-1] == pytest.approx(oracle ** 8, rel=1e-10)


def test_pi_factor_divergent_for_constant_third():
    m, _ = _measure(GapSequence.constant(1 / 3, 8), QsMap.identity(), 0.9, 8)
    assert np.allclose(m.p_max, 3.0 ** 0.9 / 2.0, atol=1e-12)
    assert m.p_max[0] > 1.0


def test_pi_factor_small_d_limit():
    m, _ = _measure(GapSequence.harmonic(6), QsMap.power(2.0), 1e-6, 6)
    assert np.all(np.abs(m.p_max - 0.5) < 1e-3)


def test_power_map_level_one_split():
    # middle thirds under x -> x^2: images [0, 1/9] and [4/9, 1]
    _, tree = _measure(GapSequence.constant(1 / 3, 2), QsMap.power(2.0), 0.5, 2)
    w = np.array([(1 / 9) ** 0.5, (5 / 9) ** 0.5])
    expected = w / np.sum(w)
    assert _level_masses(tree, 0.5)[1] == pytest.approx(expected)
    assert expected[0] == pytest.approx(0.309, abs=5e-4)


def _path_products(tree, d):
    """Per level, prod of p_i = (dl + gap + dr)^d / (dl^d + dr^d) from the root."""
    prod = np.array([1.0])
    prods = [prod]
    for lv in tree[1:]:
        dl, dr = lv.diams[0::2], lv.diams[1::2]
        gap = lv.lefts[1::2] - lv.rights[0::2]
        prod = np.repeat(prod * (dl + gap + dr) ** d / (dl ** d + dr ** d), 2)
        prods.append(prod)
    return prods


@settings(max_examples=60, deadline=None)
@given(**_measure_cases)
@example(c="harmonic", a=2.0, d=0.9, depth=12)
def test_path_product_dominates_node_growth(c, a, d, depth):
    _, tree = _measure(_gaps(c, depth), QsMap.power(a), d, depth)
    prods = _path_products(tree, d)
    for n, masses in enumerate(_level_masses(tree, d)):
        ratio = masses / tree[n].diams ** d
        assert np.all(ratio <= prods[n] * (1 + 1e-9))


def _whole_level_measure(tree, d):
    """The measure built one whole level at a time, as before the blocks.

    Each pair's path factor carries the split's rounding bound, 1 + eps (wl + wr) / min(wl, wr):
    the small child's mass may be off by that much relatively, and its subtree inherits it.
    """
    masses = [np.array([1.0])]
    prod = np.array([1.0])
    p_max = []
    growth = [float(np.max(masses[0] / tree[0].diams ** d))]
    for n in range(1, len(tree)):
        lv = tree[n]
        diams = lv.diams
        dl, dr = diams[0::2], diams[1::2]
        gap = lv.lefts[1::2] - lv.rights[0::2]
        w = diams ** d
        wl, wr = w[0::2], w[1::2]
        denom = wl + wr
        parent_mass = masses[n - 1]
        child = np.empty(lv.count)
        small0 = parent_mass * np.minimum(wl, wr) / denom
        big = parent_mass - small0
        small = parent_mass - big
        left_is_small = wl <= wr
        child[0::2] = np.where(left_is_small, small, big)
        child[1::2] = np.where(left_is_small, big, small)
        p = (dl + gap + dr) ** d / denom
        rounding = 1.0 + np.finfo(float).eps * (denom / np.minimum(wl, wr))
        prod = np.repeat(prod * p * rounding, 2)
        masses.append(child)
        p_max.append(float(np.max(p)))
        ratio = child / w
        if np.any(ratio > prod * (1.0 + 1e-9)):
            raise AssertionError("path-product bound violated beyond tolerance")
        growth.append(float(np.max(ratio)))
    return masses, np.array(growth), np.array(p_max)


@dataclass
class _ArrayLevel:
    """An image level held as two arrays, for the trees that no increasing map makes."""

    depth: int
    lefts: np.ndarray
    rights: np.ndarray
    branching: int

    @property
    def count(self) -> int:
        return len(self.lefts)

    @property
    def diams(self) -> np.ndarray:
        return self.rights - self.lefts

    def ends(self, s, out):
        return self.lefts[s], self.rights[s]


def _mirrored(tree):
    """The tree under x -> -x, nodes in increasing order: node j becomes node count-1-j."""
    return [_ArrayLevel(depth=lv.depth, lefts=-lv.rights[::-1], rights=-lv.lefts[::-1],
                        branching=lv.branching) for lv in tree]


def _bits(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _blocked_measure(tree, d, block):
    """At PAIR_BLOCK = block, every level's masses and build_recursive_measure's
    result, or None when the path-product check fires.  The whole tree's measure
    is built first, so its own fault order decides what is raised."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qsmass, "PAIR_BLOCK", block)
        try:
            m = build_recursive_measure(tree, d, _every_leaf(tree))
            return _level_masses(tree, d), m
        except AssertionError:
            return None


# the gaps of a config whose very unequal siblings leave the small child a relative
# rounding error far above the path-product check's tolerance (1.15e-8 under x^5)
UNEQUAL_SIBLINGS = [0.9873274616875112, 0.045941028027493315, 0.18607872130125316,
                    0.14611824603020393, 0.3356267613582828, 0.9290789854345256]
_BLOCKS = [1, 3] + [2 ** k for k in range(8)]


@settings(max_examples=150, deadline=None)
@given(c=st.one_of(st.just("harmonic"), st.floats(0.05, 0.9),
                   st.lists(st.floats(0.01, 0.99), min_size=10, max_size=10)),
       power=st.one_of(st.none(), st.floats(1.0, 5.0)),
       rho=st.floats(1.0, 4.0), weight_depth=st.integers(0, 8), seed=st.integers(0, 2 ** 16),
       d=st.floats(0.05, 0.95), depth=st.integers(1, 10), block=st.sampled_from(_BLOCKS),
       mirror=st.booleans())
@example(c=UNEQUAL_SIBLINGS, power=5.0, rho=1.0, weight_depth=0, seed=0, d=0.9, depth=6,
         block=1, mirror=False)
@example(c="harmonic", power=None, rho=3.0, weight_depth=8, seed=1, d=0.9, depth=10, block=3,
         mirror=False)
def test_block_build_equals_the_whole_level_build_bitwise(c, power, rho, weight_depth, seed, d,
                                                          depth, block, mirror):
    """Power maps, or dyadic_weight maps when `power` is None; `mirror` flips the tree."""
    gaps = GapSequence(values=tuple(c)) if isinstance(c, list) else _gaps(c, depth)
    qsmap = (QsMap.power(power) if power is not None
             else QsMap.dyadic_weight(rho=rho, depth=weight_depth, seed=seed))
    tree = build_image_tree(build_system(gaps, max_depth=depth), qsmap)
    if any(np.any(lv.diams <= 0) for lv in tree):  # images below double resolution
        reject()
    if mirror:
        tree = _mirrored(tree)
    try:
        want = _whole_level_measure(tree, d)
    except AssertionError:
        want = None
    got = _blocked_measure(tree, d, block)
    if want is None:
        assert got is None
    else:
        assert got is not None
        masses, growth, p_max = want
        levels, m = got
        assert _bits(levels) == _bits(masses)
        assert _bits(m.masses) == _bits(masses[-1:])
        assert _bits([m.leaves.prefix]) == _bits([np.cumsum(masses[-1])])
        assert _bits([m.level_growth, m.p_max]) == _bits([growth, p_max])


@pytest.mark.parametrize("block", _BLOCKS + [2 ** 15])
def test_streamed_leaf_prefix_sums_equal_one_cumsum_bitwise(block, monkeypatch):
    """The leaf level's masses become their prefix sum one block at a time,
    carried over from block to block; the reads at any leaves, all of them or
    a few, are the bits of one np.cumsum over the whole-level masses."""
    tree = build_image_tree(build_system(GapSequence.harmonic(10), max_depth=10),
                            QsMap.power(1.7))
    masses = _whole_level_measure(tree, 0.9)[0][-1]
    want = np.cumsum(masses)
    monkeypatch.setattr(qsmass, "PAIR_BLOCK", block)
    every = build_recursive_measure(tree, 0.9, _every_leaf(tree)).leaves
    assert _bits([every.keys, every.masses, every.prefix]) == _bits(
        [np.arange(len(masses)), masses, want])
    few = np.unique(np.random.default_rng(block).integers(0, len(masses), 40))
    some = build_recursive_measure(tree, 0.9, few).leaves
    assert _bits([some.masses, some.prefix]) == _bits([masses[few], want[few]])


def test_ball_radii_are_stored_medians_then_the_scale_ladder():
    """Depth 16 is the deepest level of at most STORED_COUNT intervals: the radii
    of scanned depths 9-16 are their median image diameters, and those of 17-18
    step down from depth 16's by the domain lengths, at any PAIR_BLOCK."""
    system, f = build_system(GapSequence.harmonic(18), max_depth=18), QsMap.power(2.0)
    tree = build_image_tree(system, f)
    assert tree[16].count == STORED_COUNT < tree[17].count
    medians = [float(np.median(tree[n].diams)) for n in range(9, 17)]
    logs = [system.level(n).log_length for n in range(19)]
    want = medians + [medians[-1] * math.exp(logs[n] - logs[16]) for n in (17, 18)]
    top = np.arange(9, 19)  # the certificate's scanned depths at depth 18
    for block in (2 ** 4, 2 ** 15):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qsmass, "PAIR_BLOCK", block)
            radii = qsmass._Scans(tree, top).radii
        assert _bits([np.array(radii)]) == _bits([np.array(want)])


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("first", [[], [0.5, 0.5]])
@pytest.mark.parametrize("mirror", [False, True])
def test_unequal_siblings_trip_the_check_at_every_block_size(block, first, mirror):
    """The unequal siblings are the first pair of level 1, or of level 3 after `first`;
    mirrored, the last pair.  Their small child's rounding error tripped a check that
    bounded it by a relative tolerance alone; the path products carry the split's
    rounding bound, so the measure passes, bit for bit as the whole-level build."""
    tree = build_image_tree(build_system(GapSequence(values=tuple(first + UNEQUAL_SIBLINGS)),
                                         max_depth=len(first) + 1), QsMap.power(5.0))
    if mirror:
        tree = _mirrored(tree)
    masses, growth, p_max = _whole_level_measure(tree, 0.9)
    levels, m = _blocked_measure(tree, 0.9, block)
    assert _bits(levels) == _bits(masses)
    assert _bits([m.level_growth, m.p_max]) == _bits([growth, p_max])


def _warm_up():
    """A first certificate imports numpy submodules, which a trace would count."""
    certificate(build_system(GapSequence.harmonic(3), max_depth=3), QsMap.power(2.0), 0.9)


def test_measure_peak_stays_near_its_kept_masses(monkeypatch):
    # at depth 16 the deepest level spans 32 blocks of 2^10 pairs
    monkeypatch.setattr(qsmass, "PAIR_BLOCK", 2 ** 10)
    system = build_system(GapSequence.harmonic(16), max_depth=16)
    tree = build_image_tree(system, QsMap.power(2.0))
    _warm_up()
    tracemalloc.start()
    try:
        m = build_recursive_measure(tree, 0.9, _NO_LEAF)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (kept,) = m.masses
    assert kept.shape == (0,) and m.level_growth.shape == (17,)
    leaf_bytes = 8 * system.levels[-1].count
    # each level above the leaves keeps one block of masses and path products
    # in its own row (0.29 at this depth and block) and the walk one block's
    # buffers (0.21).  Measured 0.53; the bound leaves about 15%
    assert peak <= 0.6 * leaf_bytes


def test_certificate_peak_stays_under_a_quarter_of_a_leaf_array(monkeypatch):
    monkeypatch.setattr(qsmass, "PAIR_BLOCK", 2 ** 10)
    system = build_system(GapSequence.harmonic(20), max_depth=20)
    leaf_bytes = 8 * system.levels[-1].count
    _warm_up()
    tracemalloc.start()
    try:
        certificate(system, QsMap.power(2.0), 0.9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the domain leaves are the system's: the peak is locate_windows' sorted
    # searches, which generate the deep left ends at the probed indices, above
    # the depth-16 radius median's two level arrays (0.125).  Measured 0.177,
    # and the bound leaves about 30%
    assert peak <= 0.23 * leaf_bytes


def test_certificate_peak_at_the_default_block_stays_under_0_42_leaf_arrays():
    # at the default PAIR_BLOCK the walk's buffers set the peak: one block of
    # masses and path products for each of the levels 14-19 and one block's
    # temporaries.  Measured 0.361 at 2^13; 2^15, whose buffers overflow a
    # 2 MiB L2, took 0.975
    system = build_system(GapSequence.harmonic(20), max_depth=20)
    leaf_bytes = 8 * system.levels[-1].count
    _warm_up()
    tracemalloc.start()
    try:
        certificate(system, QsMap.power(2.0), 0.9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.42 * leaf_bytes


@pytest.mark.parametrize("f", ["x^2", "identity"])
def test_system_and_certificate_peak_stays_under_three_tenths_of_a_leaf_array(monkeypatch, f):
    # the identity map's leaf diameters take a dozen values, two of which hold
    # 94% of the leaves; no array of the certificate depends on them
    monkeypatch.setattr(qsmass, "PAIR_BLOCK", 2 ** 10)
    _warm_up()
    tracemalloc.start()
    try:
        system = build_system(GapSequence.harmonic(20), max_depth=20)
        certificate(system, _README_MAPS[f], 0.9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # levels of more than 2^16 intervals generate their left ends, so the peak is
    # locate_windows' sorted searches on top of the stored level, one block's
    # buffers and the scans' fixed arrays.  Measured 0.252 under both maps;
    # the bound leaves about 20%
    assert peak <= 0.30 * 8 * system.levels[-1].count


def test_certificate_passes_for_harmonic_identity():
    system = build_system(GapSequence.harmonic(12), max_depth=12)
    rep = certificate(system, QsMap.identity(), 0.9)
    assert rep.passed
    assert rep.growth_ok and rep.interval_ok and rep.ball_ok


def test_certificate_fails_for_constant_third():
    system = build_system(GapSequence.constant(1 / 3, 12), max_depth=12)
    rep = certificate(system, QsMap.identity(), 0.9)
    assert not rep.passed
    growth = rep.level_growth
    assert np.all(growth[1:] / growth[:-1] >= 1.3)


# the maps of the README theorem-a config
_README_MAPS = {"identity": QsMap.identity(), "x^2": QsMap.power(2.0),
                "dyadic": QsMap.dyadic_weight(rho=2.0)}


@pytest.mark.parametrize("f", sorted(_README_MAPS))
def test_harmonic_certificates_pass_on_a_downward_closed_set_of_d(f):
    # a constant that decays with depth is the best case for mu <= C diam^d,
    # so a pass at d must be a pass at every smaller d
    system = build_system(GapSequence.harmonic(14), max_depth=14)
    ds = np.round(np.arange(0.05, 1.0, 0.05), 2)
    passed = [certificate(system, _README_MAPS[f], float(d)).passed for d in ds]
    assert all(p for p, d in zip(passed, ds) if 0.3 <= d <= 0.7)
    assert passed == sorted(passed, reverse=True)


def test_strong_power_maps_pass_wherever_the_identity_passes():
    # a window's boundary leaves count by their share of its image, whose span
    # the constant divides by: located on the domain, the leftmost leaf of a
    # depth-14 window counted half its mass over 1/32 of its image under x^5,
    # and x^5 and x^7 failed where the identity passed
    system = build_system(GapSequence.harmonic(14), max_depth=14)
    ds = np.round(np.arange(0.05, 1.0, 0.05), 2)
    for d in ds:
        if certificate(system, QsMap.identity(), float(d)).passed:
            for a in (5.0, 7.0):
                assert certificate(system, QsMap.power(a), float(d)).passed, (a, d)


@pytest.mark.parametrize("depth", [12, 14, 16])
@pytest.mark.parametrize("c", [0.1, 0.2, 1 / 3, 0.5, 0.6, 0.7])
def test_constant_gap_certificates_pass_up_to_the_closed_form_threshold(c, depth):
    # level n's growth is r^n, r = 2^(d/s - 1), s = ln 2 / ln(2 / (1 - c)):
    # it passes while r^(depth // 2) <= 2, i.e. d <= s (1 + 1 / (depth // 2))
    s = math.log(2.0) / math.log(2.0 / (1.0 - c))
    threshold = s * (1.0 + 1.0 / (depth // 2))
    system = build_system(GapSequence.constant(c, depth), max_depth=depth)
    ds = [d for d in (0.05, threshold - 0.2, threshold - 0.02, threshold + 0.02,
                      threshold + 0.2, 0.95) if 0.0 < d < 1.0 and abs(d - threshold) > 0.01]
    for d in ds:
        assert certificate(system, QsMap.identity(), d).passed == (d <= threshold), d


def test_certificate_rejects_zero_diameter_images():
    system = build_system(GapSequence.harmonic(6), max_depth=6)
    collapse = QsMap.power(200.0)  # the leftmost leaf image underflows to width 0
    with pytest.raises(ValueError, match=r"^zero-diameter node at depth 4$"):
        certificate(system, collapse, 0.9)



def _violating_tree(violate: bool):
    """The harmonic depth-10 set as its own image, with leaf 5 of width 0 and, if `violate`,
    a real path-product violation above it: node 77 of level 8 keeps its children to
    [0.4, 0.45] and [0.55, 0.6] of its span, so their ratio is 5^d times their path product."""
    system = build_system(GapSequence.harmonic(10), max_depth=10)
    tree = [_ArrayLevel(depth=lv.depth, lefts=np.array(lv.lefts),
                        rights=lv.lefts + np.exp(lv.log_length),
                        branching=lv.branching) for lv in system.levels]
    tree[10].rights[5] = tree[10].lefts[5]
    if violate:
        node, kids = tree[8], tree[9]
        left, span = node.lefts[77], node.rights[77] - node.lefts[77]
        kids.lefts[154:156] = left + span * np.array([0.4, 0.55])
        kids.rights[154:156] = left + span * np.array([0.45, 0.6])
    return tree


def test_a_shallower_path_product_fault_comes_before_deeper_zero_diameters():
    # each level is checked as it is built: the violation on level 9 fires before the
    # zero-width leaf, at every block size, mirrored and not
    clean, tree = _violating_tree(False), _violating_tree(True)
    for clean, tree in ((clean, tree), (_mirrored(clean), _mirrored(tree))):
        with pytest.raises(AssertionError):
            _whole_level_measure(tree, 0.9)
        for block in _BLOCKS:
            with pytest.raises(ValueError, match=r"^zero-diameter node at depth 10$"):
                _blocked_measure(clean, 0.9, block)
            assert _blocked_measure(tree, 0.9, block) is None


def test_an_earlier_zero_diameter_comes_before_a_later_violation_in_one_level():
    # an upper level's blocks run last first, but the level raises the fault of its
    # lowest-indexed faulting block: node 5 of level 9 has width 0 and comes before the
    # violation on nodes 154-155 (356-357 mirrored), at every block size, mirrored and not.
    # The zero-width block is split no further, so no RuntimeWarning is issued
    for mirror in (False, True):
        tree = _violating_tree(True)
        if mirror:
            tree = _mirrored(tree)
        tree[9].rights[5] = tree[9].lefts[5]
        for block in _BLOCKS:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ValueError, match=r"^zero-diameter node at depth 9$"):
                    _blocked_measure(tree, 0.9, block)


_GOLDEN_MAPS = {"identity": QsMap.identity(), "x^2": QsMap.power(2.0),
                "x^0.5": QsMap.power(0.5),
                "dyadic": QsMap.dyadic_weight(rho=3.0, depth=12, seed=5)}

# Every CertificateReport field: (passed, growth_ok, interval_ok, ball_ok,
# C_growth and worst_ball_ratio as float.hex, and the first 16 hex digits of the
# sha256 of the level_growth and p_max bytes).  pow rounds differently with and
# without AVX-512, so there is one table per SIMD target of numpy's float64
# power, as numpy.lib.introspect.opt_func_info names it.  The X86_V4 bits date
# from before the measure was built one level at a time.  Both tables come from
# numpy 2.4 on x86-64, the baseline one under
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"; dispatch to X86_V3
# gives the baseline bits.
GOLDEN_REPORTS = {
    "X86_V4": {
        ("harmonic", 16, "identity", 0.5): (
            True, True, True, True, "0x1.800000000000dp-3", "0x1.4de8634c06804p-2",
            "861a3598726f5648", "faae61c876aeb782"),
        ("harmonic", 16, "identity", 0.9): (
            True, True, True, True, "0x1.18374e9af19b5p+2", "0x1.ff1f6df56bf9bp+2",
            "99131fcb38364478", "09ecd0466cdc8d09"),
        ("harmonic", 16, "x^2", 0.5): (
            True, True, True, True, "0x1.2f4871daa642fp-2", "0x1.22b136102e817p+0",
            "9b6a9013e2f216b1", "fe16bd79668657e6"),
        ("harmonic", 16, "x^2", 0.9): (
            True, True, True, True, "0x1.60502c5bb5f9ap+2", "0x1.149bcd2520f67p+3",
            "7f30305f5322b569", "5e97c057e5f84b54"),
        ("harmonic", 16, "x^0.5", 0.5): (
            True, True, True, True, "0x1.65b944603fb70p-3", "0x1.43555c9fbeca2p-2",
            "8d22a15c6c9a4d64", "ceb92922546490e6"),
        ("harmonic", 16, "x^0.5", 0.9): (
            True, True, True, True, "0x1.cb954eaf88e18p+1", "0x1.93fd8f9cf3b03p+2",
            "4a942e26c4907df0", "1178ba1602aa26a1"),
        ("harmonic", 16, "dyadic", 0.5): (
            True, True, True, True, "0x1.fdff777e81b84p-3", "0x1.073aa153eb371p-1",
            "7ae8ed58320a0bcb", "70a20f3a4480ebf7"),
        ("harmonic", 16, "dyadic", 0.9): (
            True, True, True, True, "0x1.a75e3cb098ed7p+2", "0x1.755eb77666383p+3",
            "50d8ac404ef26fb3", "4c3a84b6eb38be74"),
        ("1/3", 14, "identity", 0.9): (
            False, False, True, False, "0x1.f5a586614cb14p+5", "0x1.f5a586605b5bbp+5",
            "72d57c0c0bb5916f", "7bbe8c7f816df9db"),
    },
    "baseline(X86_V2)": {
        ("harmonic", 16, "identity", 0.5): (
            True, True, True, True, "0x1.8000000000018p-3", "0x1.4de8634c06804p-2",
            "b64a7742f3f21d2a", "faae61c876aeb782"),
        ("harmonic", 16, "identity", 0.9): (
            True, True, True, True, "0x1.18374e9af19b4p+2", "0x1.ff1f6df56bf9bp+2",
            "bbb91689455defc5", "7fc32c3410240f4e"),
        ("harmonic", 16, "x^2", 0.5): (
            True, True, True, True, "0x1.2f4871daa642fp-2", "0x1.22b136102e814p+0",
            "9b6a9013e2f216b1", "cf500f31eb84e217"),
        ("harmonic", 16, "x^2", 0.9): (
            True, True, True, True, "0x1.60502c5bb5f99p+2", "0x1.149bcd2520f16p+3",
            "47c0daf1c2250125", "8d07b238a1876994"),
        ("harmonic", 16, "x^0.5", 0.5): (
            True, True, True, True, "0x1.65b944603fb70p-3", "0x1.43555c9fbeca2p-2",
            "d8177a64c61336af", "c2ec62105c7afbe8"),
        ("harmonic", 16, "x^0.5", 0.9): (
            True, True, True, True, "0x1.cb954eaf88e18p+1", "0x1.93fd8f9cf3b03p+2",
            "4a942e26c4907df0", "a550cbc265768b4b"),
        ("harmonic", 16, "dyadic", 0.5): (
            True, True, True, True, "0x1.fdff777e81b84p-3", "0x1.073aa153eb371p-1",
            "7ae8ed58320a0bcb", "e64cdfc3545d23c9"),
        ("harmonic", 16, "dyadic", 0.9): (
            True, True, True, True, "0x1.a75e3cb098ed9p+2", "0x1.755eb77666383p+3",
            "9575ee5004a55bab", "1d6c9d4dbc6b083d"),
        ("1/3", 14, "identity", 0.9): (
            False, False, True, False, "0x1.f5a586614cb14p+5", "0x1.f5a586605b5bbp+5",
            "72d57c0c0bb5916f", "7bbe8c7f816df9db"),
    },
}


def _power_target() -> str:
    """The SIMD target that numpy dispatches float64 power to."""
    from numpy.lib.introspect import opt_func_info  # imported on use: skipped before numpy 2.3
    return opt_func_info(func_name="power", signature="float64")["power"]["ddd"]["current"]


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.3.0",
                    reason="no certificate bits are recorded for numpy before 2.3")
@pytest.mark.parametrize("case", list(GOLDEN_REPORTS["X86_V4"]), ids=str)
def test_certificate_reports_keep_their_recorded_bits(case):
    target = _power_target()
    assert target in GOLDEN_REPORTS, f"no certificate bits are recorded for power on {target}"
    c, depth, f, d = case
    gaps = GapSequence.harmonic(depth) if c == "harmonic" else GapSequence.constant(1 / 3, depth)
    r = certificate(build_system(gaps, max_depth=depth), _GOLDEN_MAPS[f], d)
    digest = [hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in (r.level_growth, r.p_max)]
    assert (r.level_growth.shape, r.p_max.shape) == ((depth + 1,), (depth,))
    assert (r.passed, r.growth_ok, r.interval_ok, r.ball_ok, float(r.C_growth).hex(),
            float(r.worst_ball_ratio).hex(), *digest) == GOLDEN_REPORTS[target][case]


def test_level_growth_equals_a_recomputation_bitwise():
    system = build_system(GapSequence.harmonic(14), max_depth=14)
    f, d = QsMap.power(2.0), 0.9
    rep = certificate(system, f, d)
    tree = build_image_tree(system, f)
    levels = _level_masses(tree, d)
    assert len(levels) == 15
    growth = [np.max(masses / tree[n].diams ** d) for n, masses in enumerate(levels)]
    assert np.array_equal(rep.level_growth, growth)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 5000), max_windows=st.integers(1, 1024), seed=st.integers(0, 2**32 - 1))
@example(n=1, max_windows=1, seed=0)
@example(n=341, max_windows=1024, seed=0)   # 3n below max_windows: nothing dropped
@example(n=341, max_windows=1023, seed=0)   # 3n == max_windows
@example(n=342, max_windows=1024, seed=0)   # 3n just above max_windows
@example(n=5000, max_windows=512, seed=0)
def test_ball_centers_equal_strided_concatenation(n, max_windows, seed):
    rng = np.random.default_rng(seed)
    lefts = np.sort(rng.uniform(-1.0, 1.0, n))
    rights = lefts + rng.uniform(0.0, 1e-3, n)
    full = np.concatenate([lefts, rights, (lefts + rights) / 2.0])
    if len(full) > max_windows:
        full = full[:: len(full) // max_windows + 1]
    got = _ball_centers(lefts, rights, max_windows)
    assert got.dtype == full.dtype
    assert np.array_equal(got.view(np.int64), full.view(np.int64))
