import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import confdim.cantor as cantor
import confdim.qsmaps as qsmaps
from confdim.cantor import GapSequence, build_system
from confdim.dimension import sorted_search
from confdim.qsmaps import (
    EtaModulus,
    ImageLevel,
    QsMap,
    distortion_check,
    distortion_gap_check,
    push_intervals,
    qs_ratio_check,
    random_triples,
)
from confdim.qsmass import build_image_tree

# calibrated constant for x -> sign(x) x^2 on [-1, 1]; the extremal triple is
# golden-ratio shaped and attains 2 + sqrt(5)
POWER2_C = 2.0 + math.sqrt(5.0)


def test_eta_validation():
    with pytest.raises(ValueError):
        EtaModulus.power(C=-1.0, K=2.0)
    with pytest.raises(ValueError):
        EtaModulus.power(C=1.0, K=0.5)
    with pytest.raises(ValueError):
        EtaModulus.tabulated([1.0, 0.5], [1.0, 2.0])


def test_eta_power_values():
    eta = EtaModulus.power(3.0, 2.0)
    assert eta(1.0) == pytest.approx(3.0)
    assert eta(4.0) == pytest.approx(3.0 * 16.0)
    assert eta(0.25) == pytest.approx(3.0 * 0.5)


def test_eta_tabulated_interpolates_loglog():
    eta = EtaModulus.tabulated([0.1, 10.0], [0.2, 20.0])
    assert eta(1.0) == pytest.approx(2.0)
    # linear extrapolation through the origin outside the table
    assert eta(0.01) == pytest.approx(0.02)


def test_power_map_is_odd():
    f = QsMap.power(2.0)
    assert f.apply(-0.5) == pytest.approx(-0.25)


@pytest.mark.parametrize("a", [2, 2.0, 0.5, 3, 1.7])
def test_power_map_bits_equal_sign_times_power(a):
    tiny = np.finfo(float).smallest_subnormal
    xs = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 3 * tiny, -1e-310,
                   1e-300, -0.25, 0.5, 0.7, -1.0, 2.5])
    f = QsMap.power(a)
    want = np.sign(xs) * np.abs(xs) ** a
    assert f.apply(xs).tobytes() == want.tobytes()
    for x, w in zip(xs, want):
        assert np.float64(f.apply(x)).tobytes() == w.tobytes()


def test_dyadic_map_monotone_and_fixes_0_and_1():
    f = QsMap.dyadic_weight(rho=2.0, depth=6, seed=3)
    xs = np.linspace(0, 1, 257)
    ys = f.apply(xs)
    assert ys[0] == 0.0 and ys[-1] == 1.0
    assert np.all(np.diff(ys) > 0)


def test_dyadic_map_deterministic_in_seed():
    a = QsMap.dyadic_weight(rho=2.0, depth=6, seed=7)
    b = QsMap.dyadic_weight(rho=2.0, depth=6, seed=7)
    xs = np.linspace(0, 1, 100)
    assert np.array_equal(a.apply(xs), b.apply(xs))


def test_dyadic_map_rejects_domain_violation():
    f = QsMap.dyadic_weight(depth=3, seed=0)
    with pytest.raises(ValueError):
        f.apply(1.5)


def test_dyadic_map_refuses_a_depth_above_the_cap_before_drawing(monkeypatch):
    monkeypatch.setattr(qsmaps, "MEMORY_CAP", 2 ** 4)
    assert len(QsMap.dyadic_weight(depth=4)._ys) == 2 ** 4 + 1
    monkeypatch.setattr(qsmaps.np.random, "default_rng", lambda seed: pytest.fail("drew"))
    for depth in (5, 30):
        with pytest.raises(ValueError, match="cap"):
            QsMap.dyadic_weight(depth=depth)


def test_unbounded_domain_check_reads_no_value():
    class Unreadable(np.ndarray):
        def __lt__(self, other):
            raise AssertionError("compared")
        __gt__ = __lt__

    x = np.linspace(-1.0, 1.0, 5).view(Unreadable)
    QsMap.power(2.0)._check_domain(x)
    QsMap.identity()._check_domain(x)
    with pytest.raises(AssertionError, match="compared"):
        QsMap.dyadic_weight(depth=3)._check_domain(x)


def test_identity_satisfies_identity_eta():
    assert qs_ratio_check(QsMap.identity(), random_triples(-1, 1, 2000, seed=0),
                          EtaModulus.identity()) <= 1.0 + 1e-12


def test_power2_extremal_triple_defeats_constant_four():
    f = QsMap.power(2.0)
    # golden-ratio triple with t = 1; the distortion ratio is 2 + sqrt(5) > 4
    u = (math.sqrt(5.0) - 1.0) / 2.0
    triple = np.array([[-u - 1.0, -u, -u + 1.0]])
    assert qs_ratio_check(f, triple, EtaModulus.power(4.0, 2.0)) > 1.0
    assert qs_ratio_check(f, triple, EtaModulus.power(POWER2_C + 1e-9, 2.0)) <= 1.0


def test_power2_calibrated_eta_passes_random_triples():
    eta = EtaModulus.power(POWER2_C + 1e-9, 2.0)
    assert qs_ratio_check(QsMap.power(2.0), random_triples(-1, 1, 20000, seed=11), eta) <= 1.0


def test_distortion_check_identity_exact():
    rep = distortion_check(QsMap.identity(), [0.1, 0.2], [0.0, 1.0], EtaModulus.identity())
    assert rep.ratio == pytest.approx(0.1)
    assert rep.lower <= rep.ratio <= rep.upper
    assert rep.ok


def test_distortion_gap_check_identity():
    rep = distortion_gap_check(QsMap.identity(), [0.0, 0.2], [0.6, 1.0], EtaModulus.identity())
    assert rep.ratio == pytest.approx(0.4)
    assert rep.ok


def test_distortion_check_requires_nondegenerate_a():
    with pytest.raises(ValueError):
        distortion_check(QsMap.identity(), [0.3, 0.3], [0.0, 1.0], EtaModulus.identity())


def _map(spec):
    kind, *args = spec
    if kind == "identity":
        return QsMap.identity()
    if kind == "power":
        return QsMap.power(*args)
    rho, seed = args
    return QsMap.dyadic_weight(rho=rho, seed=seed)


# harmonic or constant-c gaps, an identity, power or dyadic map, and the depth
_pushed_systems = dict(
    c=st.one_of(st.just("harmonic"), st.floats(0.01, 0.95)),
    spec=st.one_of(
        st.just(("identity",)),
        st.tuples(st.just("power"), st.floats(0.3, 3.0)),
        st.tuples(st.just("dyadic"), st.floats(1.0, 4.0), st.integers(0, 2**32 - 1)),
    ),
    depth=st.integers(1, 12),
)


def _system(c, depth):
    gaps = GapSequence.harmonic(depth) if c == "harmonic" else GapSequence.constant(c, depth)
    # shorter leaves near 1 can round to points, in the domain and the image
    assume(sum(gaps.child_log_ratio(i) for i in range(depth)) >= math.log(1e-9))
    return build_system(gaps, max_depth=depth)


@settings(max_examples=80, deadline=None)
@given(**_pushed_systems)
@example(c="harmonic", spec=("power", 1.5), depth=6)
def test_push_intervals_preserves_order_and_nesting(c, spec, depth):
    system = _system(c, depth)
    f = _map(spec)
    parent, parent_img = system.level(0), push_intervals(f, system.level(0))
    for lv in system.levels[1:]:
        img = push_intervals(f, lv)
        assert np.array_equal(img.parent_index, lv.parent_index)
        assert np.all(img.diams > 0)
        every, up = np.arange(lv.count), lv.parent_index
        assert np.all(img.lefts[every[1:]] > img.rights[every[:-1]])
        # even children share their parent's left end bit for bit
        assert np.array_equal(lv.lefts[0::2], parent.lefts)
        assert np.array_equal(img.lefts[every[0::2]], parent_img.lefts[up[0::2]])
        assert np.all(lv.lefts >= parent.lefts[up])
        assert np.all(img.lefts[every] >= parent_img.lefts[up])
        # the odd child's right end is (left + len - child_len) + child_len,
        # which may round one ulp above the parent's
        rights, parent_rights = (x.lefts + np.exp(x.log_length) for x in (lv, parent))
        assert np.all(rights <= np.nextafter(parent_rights[up], np.inf))
        parent, parent_img = lv, img


@settings(max_examples=80, deadline=None)
@given(**_pushed_systems, block=st.sampled_from([1, 3, 2 ** 16]),
       stored=st.sampled_from([1, 5, 16]), seed=st.integers(0, 99))
@example(c="harmonic", spec=("power", 2.0), depth=12, block=3, stored=16, seed=0)
@example(c=0.3, spec=("dyadic", 2.0, 0), depth=12, block=3, stored=1, seed=0)
def test_image_tree_levels_equal_per_level_pushes_bit_for_bit(c, spec, depth, block, stored,
                                                              seed):
    # the tree maps every level's ends as they are read, so the map must give
    # the same bits on a strided view, or on left ends generated below the
    # `stored` count, as on a copy, and on any block or index of a level as
    # on the whole level
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cantor, "STORED_COUNT", stored)
        system = _system(c, depth)
    f = _map(spec)
    tree = build_image_tree(system, f)
    rng = np.random.default_rng(seed)
    for img, lv in zip(tree, system.levels, strict=True):
        every = np.arange(lv.count)
        x = lv.lefts[every]
        lefts, rights = f.apply(x), f.apply(x + np.exp(lv.log_length))
        assert (img.depth, img.branching, img.count) == (lv.depth, lv.branching, lv.count)
        blocks = [img.ends(slice(i, i + block), (np.empty(block), np.empty(block)))
                  for i in range(0, img.count, block)]
        assert np.concatenate([l for l, _ in blocks]).tobytes() == lefts.tobytes()
        assert np.concatenate([r for _, r in blocks]).tobytes() == rights.tobytes()
        at = rng.integers(0, lv.count, (2, 7))
        for s in (every, at, -1, every[::3], every[-2::-5]):
            assert np.asarray(img.lefts[s]).tobytes() == lefts[s].tobytes(), s
            assert np.asarray(img.rights[s]).tobytes() == rights[s].tobytes(), s


def _queries(ends: np.ndarray, rng) -> np.ndarray:
    """Every end, the midpoints between neighbours, one ulp either side, and points outside."""
    between = (ends[:-1] + ends[1:]) / 2.0
    outside = [-np.inf, ends[0] - 1.0, ends[-1] + 1.0, np.inf]
    xs = np.concatenate([ends, between, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
                         outside])
    return rng.permutation(xs)


@settings(max_examples=150, deadline=None)
@given(**_pushed_systems, image=st.booleans(), right=st.booleans(),
       side=st.sampled_from(["left", "right"]), up=st.integers(0, 12), seed=st.integers(0, 99))
@example(c="harmonic", spec=("power", 2.0), depth=12, image=True, right=True, side="left",
         up=0, seed=0)
@example(c=0.3, spec=("dyadic", 2.0, 0), depth=10, image=True, right=False, side="right",
         up=3, seed=1)
def test_sorted_search_on_mapped_ends_equals_searchsorted(c, spec, depth, image, right, side,
                                                          up, seed):
    """Domain ends (the identity map) or image ends of one level, searched unstored."""
    system = _system(c, depth)
    lv = system.level(max(depth - up, 0))
    img = ImageLevel(_map(spec) if image else QsMap.identity(), lv)
    ends = img.rights if right else img.lefts
    full = ends[np.arange(len(ends))]
    assume(np.all(np.diff(full) >= 0))  # the search's contract: sorted ends
    xs = _queries(full, np.random.default_rng(seed))
    got = sorted_search(ends, xs, side)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.searchsorted(full, xs, side=side))
    # an array goes to np.searchsorted itself
    assert np.array_equal(sorted_search(full, xs, side), got)


@settings(max_examples=40, deadline=None)
@given(c=st.one_of(st.just("harmonic"), st.floats(0.01, 0.2)),
       spec=st.sampled_from([("identity",), ("power", 2.0), ("power", 5.0), ("dyadic", 2.0, 1)]),
       depth=st.integers(17, 20), right=st.booleans(), side=st.sampled_from(["left", "right"]),
       probes=st.sampled_from(["one", "few", "more than the ends"]), seed=st.integers(0, 99))
@example(c="harmonic", spec=("power", 2.0), depth=20, right=True, side="left", probes="few",
         seed=0)
@example(c="harmonic", spec=("dyadic", 2.0, 1), depth=17, right=False, side="right",
         probes="more than the ends", seed=1)
@example(c="harmonic", spec=("identity",), depth=18, right=False, side="left", probes="one",
         seed=2)
def test_two_level_search_of_generated_image_sides_equals_searchsorted(c, spec, depth, right,
                                                                        side, probes, seed):
    """Fewer probes than ends search a sample of every b-th end, then bisect one block of b:
    probes at ends, one ulp either side of them and outside the level, b from 1 up to
    the whole level."""
    lv = _system(c, depth).level(depth)
    assert not isinstance(lv.lefts, np.ndarray)  # a generated level
    img = ImageLevel(_map(spec), lv)
    ends = img.rights if right else img.lefts
    full = ends[np.arange(len(ends))]
    assume(np.all(np.diff(full) >= 0))
    rng = np.random.default_rng(seed)
    at = full[np.concatenate([[0, len(full) - 1], rng.integers(0, len(full), 64)])]
    pool = np.concatenate([at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf),
                           [-np.inf, full[0] - 1.0, full[-1] + 1.0, np.inf]])
    size = {"one": 1, "few": int(rng.integers(2, 40)), "more than the ends": len(full) + 3}
    xs = rng.choice(pool, size[probes])
    got = sorted_search(ends, xs, side)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.searchsorted(full, xs, side=side))


class _Unstored:
    """Sorted ends behind ``len`` and index arrays, as an ImageLevel side serves them."""

    def __init__(self, ends):
        self.ends = ends

    def __len__(self):
        return len(self.ends)

    def __getitem__(self, idx):
        return self.ends[idx]


@pytest.mark.parametrize("n", [0, 1, 2, 999, 1000, 1001])
@pytest.mark.parametrize("probes", [0, 1, 7, 2000])
def test_two_level_search_of_a_count_not_a_power_of_two(n, probes):
    # the last block of b ends is partial, and ties span blocks
    full = np.sort(np.random.default_rng(n).integers(0, n // 3 + 1, n)).astype(float)
    top = n // 3 + 1.0  # above every end
    xs = np.random.default_rng(probes).uniform(-1.0, top, probes).round()
    for x in (xs, np.r_[xs[1:], top], np.r_[xs[1:], -1.0]):
        for side in ("left", "right"):
            got = sorted_search(_Unstored(full), x, side)
            assert np.array_equal(got, np.searchsorted(full, x, side=side)), (x, side)


def test_random_triples_reproducible():
    a = random_triples(-2, 2, 50, seed=5)
    b = random_triples(-2, 2, 50, seed=5)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a[:, 0] - a[:, 1]) >= 1e-12)
