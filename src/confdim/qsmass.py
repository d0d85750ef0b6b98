"""Recursive measures on quasisymmetric images of binary Cantor systems.

The image of every interval gets mass split between its two children in
proportion to diam^d; the per-generation factors

    p_i = (diam I + dist(I, I') + diam I')^d / (diam^d I + diam^d I')

control the growth ratio mu(I) / diam^d I.  A certificate checks, at finite
scale, that the measure satisfies mu <= C diam^d on nodes, on arbitrary
intervals and on balls of the image.

The pipeline stores 3/8 of a leaf-sized array, the measure's buffer: the
system generates the domain left ends of its deep levels on request.  The
image tree maps nothing up front: every level's image ends are mapped block
by block, from one read of its domain left ends, as the measure reaches the
level.  The measure is built level by level in blocks of PAIR_BLOCK sibling
pairs, so its temporaries stay cache-sized and live in buffers that every
block reuses, and each node's bits are those of a whole-level pass.  Every
level above depth-1 is written in place over its parent in the one buffer,
and siblings share one path product.  Level depth-1 is never stored: each
of its blocks is split into two block-sized rows, and its leaf children
right after it.  The leaf level is never stored either: its masses, path
products and prefix sum live one block at a time.  Each level records its
median image diameter, the certificate's ball radius at that depth, exactly
and streamed: from a sample's pivots and one counting pass over the blocks
that the split forms, or, for the two deepest levels, a mapped pass up
front.  The certificate locates every window before the measure and every
ball when the measure reaches the leaves, both on the image leaves, by
sorted searches that map only the ends they probe, and the leaf pass keeps
the masses and prefix sums at the located leaves only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from confdim.cantor import MIDDLE_INTERVAL, CantorSystem
from confdim.dimension import locate_windows
from confdim.qsmaps import ImageLevel, MappedEnds, QsMap

_REL_TOL = 1e-9

# certificate settings: constants are stable when their max stays within
# STABILITY_FACTOR of the coarsest (twice that for the window and ball
# scans), so a decaying constant passes; scans use at most MAX_WINDOWS ball
# centers and a window step of at least 1/MAX_WINDOWS
STABILITY_FACTOR = 2.0
MAX_WINDOWS = 512

# sibling pairs per block of build_recursive_measure: a block's temporaries
# stay in cache, and none spans a whole deep level
PAIR_BLOCK = 2 ** 15

# a level's median reads at most one image diameter in _SAMPLE_SHARE for its
# pivots
_SAMPLE_SHARE = 64


def build_image_tree(system: CantorSystem, qsmap: QsMap) -> list:
    """The image of every level of a binary system, as ImageLevels by depth.

    Nothing is mapped here: every level's image ends are MappedEnds, mapped
    block by block from one read of its domain left ends as the measure
    reaches the level.
    """
    if system.gaps.kind != MIDDLE_INTERVAL:
        raise ValueError("recursive measure machinery assumes binary systems")
    return [ImageLevel(depth=lv.depth, lefts=MappedEnds(qsmap, lv, right=False),
                       rights=MappedEnds(qsmap, lv, right=True), branching=lv.branching)
            for lv in system.levels]


@dataclass
class LeafReads:
    """The leaf masses and their inclusive prefix sum at the sorted leaf indices ``keys``."""

    keys: np.ndarray
    masses: np.ndarray
    prefix: np.ndarray


@dataclass
class RecursiveMeasure:
    leaves: LeafReads         # the leaf reads that ``locate`` asked for
    level_growth: np.ndarray  # per level, max mu/diam^d over its nodes
    p_max: np.ndarray         # per level >= 1, max p_i over its sibling pairs

    @property
    def masses(self) -> list:
        """[the leaf masses at ``leaves.keys``]: the build keeps no level whole."""
        return [self.leaves.masses]


class _Blocks:
    """The temporaries of one block of ``nodes`` nodes, in buffers that every block reuses.

    Arrays of a block's size, allocated and freed block by block, go back
    to the system between blocks and fault their pages in again.
    """

    def __init__(self, nodes: int):
        rows = np.empty((5, nodes))
        self.ends = rows[0], rows[1]  # image ends; the right ones also generate domain ends
        self.diams, self.mass = rows[2], rows[3]
        # a block of level depth-1, whose leaf children are split from it
        self.upper_mass = rows[4]
        # a leaf block's path products overwrite their parents' in parent_path
        (self.parent_path, self.parents, self.gap, self.denom, self.small, self.big,
         self.upper_path) = np.empty((7, nodes // 2 + 1))
        self.flags = np.empty(nodes // 2 + 1, dtype=bool)


class _Median:
    """np.median of one level's image diameters, bit for bit, from passes that store no level.

    A level of at most one block takes np.median of that block.  A larger
    level reads a strided sample of its diameters at index arrays, so only
    the sampled ends are mapped, and takes two pivots lo <= hi from it
    around the middle ranks.  A pass feeds the level's diameters to
    ``count`` block by block; it counts those below lo, at lo and at hi and
    keeps those strictly between, up to a cap, so tied diameters are
    counted, never kept.  The middle order statistics follow from the counts
    and the kept diameters, and np.median of the two gives np.median's bits.
    A middle rank that lies outside [lo, hi], or between them past the cap,
    narrows an open bracket (a, b) of diameters that holds the ranks still
    missing, and ``value`` repeats the pass, mapping the level block by
    block, with pivots inside the bracket: from the sample, else from the
    diameters the last pass kept, else the bracket's own ends.
    """

    def __init__(self, lv: ImageLevel, work: _Blocks):
        n = lv.count
        self.lv, self.work, self.median = lv, work, None
        self.one_block = n <= len(work.diams)  # a pass's one block is the level
        if self.one_block:
            return
        # at most one block of samples, so their temporaries stay block-sized.
        # Sample i is node i q + i % q: the samples spread evenly over the
        # level and meet every residue of the node index modulo q
        size = max(min(n // _SAMPLE_SHARE, len(work.diams)), 1)
        i, q = np.arange(size), n // size
        at = i * q + i % q
        self.sample = lv.rights[at] - lv.lefts[at]
        self.cap = max(n // 8, len(work.diams))  # the most diameters a pass keeps
        self.ranks = sorted({(n - 1) // 2, n // 2})
        self.found, self.missing = {}, list(self.ranks)
        # `base` diameters lie at or below a, `inner` strictly between a and b
        self.a, self.b, self.base, self.inner = -math.inf, math.inf, 0, n
        self.kept = np.empty(0)
        self._pivots()

    def _pivots(self):
        """The next pass's pivots, inside the bracket, and its counts set to zero."""
        self.lo, self.hi = self.a, self.b
        for pool in (self.sample, self.kept):
            inside = pool[(pool > self.a) & (pool < self.b)]
            if len(inside):
                # the pool stands for the bracket's diameters: a margin of twice
                # the sampling error of a rank keeps the missing ones between
                s, margin = len(inside), 2 * math.isqrt(len(inside)) + 1
                first, last = ((k - self.base) * s // self.inner
                               for k in (self.missing[0], self.missing[-1]))
                i0, i1 = max(first - margin, 0), min(last + margin, s - 1)
                inside.partition([i0, i1])
                self.lo, self.hi = inside[i0], inside[i1]
                break
        self.below = self.at_lo = self.at_hi = self.between = 0
        self.band = []

    def count(self, diams: np.ndarray):
        """Count one block of the level's diameters, a scratch array, into the pass."""
        if self.one_block:
            self.median = float(np.median(diams, overwrite_input=True))
            return
        lo, hi = self.lo, self.hi
        self.below += np.count_nonzero(diams < lo)
        self.at_lo += np.count_nonzero(diams == lo)
        if hi > lo:
            self.at_hi += np.count_nonzero(diams == hi)
            band = diams[(diams > lo) & (diams < hi)]
            if self.between < self.cap:
                self.band.append(band[:self.cap - self.between])
            self.between += len(band)

    def map(self) -> "_Median":
        """One pass over the level, its ends mapped block by block into ``work``."""
        block = len(self.work.diams)
        for i in range(0, self.lv.count, block):
            lefts, rights = self.lv.ends(slice(i, i + block), self.work.ends)
            self.count(np.subtract(rights, lefts, out=self.work.diams[:len(lefts)]))
        return self

    def value(self) -> float:
        """The median, once a pass has counted the whole level."""
        while self.median is None:
            self._settle()
            if self.median is None:
                self._pivots()
                self.map()
        return self.median

    def _settle(self):
        """Take the missing ranks that the pass pins; narrow the bracket to the others."""
        e0 = self.below
        e1 = e0 + self.at_lo
        e2 = e1 + self.between
        e3 = e2 + self.at_hi
        band = np.concatenate(self.band) if self.band else np.empty(0)
        whole = len(band) == self.between
        at = [k - e1 for k in self.missing if e1 <= k < e2]
        if whole and at:
            band.partition(at)
        regions = []  # 0 below lo, 1 strictly between, 2 above hi
        for k in list(self.missing):
            if e0 <= k < e1 or e2 <= k < e3:
                self.found[k] = self.lo if k < e1 else self.hi
            elif e1 <= k < e2 and whole:
                self.found[k] = band[k - e1]
            else:
                regions.append(0 if k < e0 else 1 if k < e2 else 2)
                continue
            self.missing.remove(k)
        if not self.missing:
            self.median = float(np.median([self.found[k] for k in self.ranks]))
            return
        r0, r1 = min(regions), max(regions)
        ends = (self.a, self.lo, self.hi, self.b)
        base = (self.base, e1, e3)[r0]
        self.inner = (e0, e2, self.base + self.inner)[r1] - base
        self.a, self.b, self.base, self.kept = ends[r0], ends[r1 + 1], base, band


def _parent_path(prods: np.ndarray, i0: int, n: int, work: _Blocks) -> np.ndarray:
    """np.repeat(prods, 2)[i0:i0 + n] in ``work``: parent node i is in sibling pair i // 2."""
    out = work.parent_path[:n]
    out[0::2] = prods[i0 // 2:][:len(out[0::2])]
    out[1::2] = prods[(i0 + 1) // 2:][:len(out[1::2])]
    return out


def _levels(tree, d: float, locate: Callable[[np.ndarray], np.ndarray]):
    """The measure's level loop, root first: yields (masses, growth, p_max).

    ``growth`` is max mu/diam^d over the level's nodes and ``p_max`` the max
    p_i over its sibling pairs (None at the root).  ``tree`` is a list of
    ImageLevels by depth.  A level above depth-1 yields its masses as a view
    of the one buffer that those levels are built in, so they hold until the
    next level is built; level depth-1, split block by block with the
    leaves, is never stored and yields None.  Before any leaf mass exists,
    ``locate`` gets every level's median image diameter, root first, and
    returns the sorted, unique leaf indices at which the leaf level yields
    LeafReads in place of masses.
    """
    if not (0.0 < d < 1.0):
        raise ValueError("d must be in (0, 1)")
    if len(tree) < 2:
        raise ValueError("tree depth must be >= 1")
    for n, lv in enumerate(tree[1:], start=1):
        if lv.count != 2 ** n:
            raise ValueError(f"level {lv.depth} is not binary")
    depth = len(tree) - 1
    leaves = tree[depth]
    work = _Blocks(min(2 * PAIR_BLOCK, leaves.count))
    # the last two levels are never stored: their medians take mapped passes up front
    last_median, leaf_median = (_Median(lv, work).map().value() for lv in tree[-2:])
    # one buffer of 3/8 of the leaf count serves every level above depth-1,
    # so nothing level-sized is allocated or freed level by level and the
    # heap does not fragment: its first 2/3 holds the masses and the rest
    # their per-pair path products, each level written in place over its
    # parent's, and each level's median counts the diameters of its blocks
    head = max(leaves.count // 4, 1)
    buf = np.empty(head + max(leaves.count // 8, 1))
    masses, prods = buf[:head], buf[head:]
    masses[0] = prods[0] = 1.0  # the root, and the path product above it
    root_diams = tree[0].diams
    medians = [float(np.median(root_diams))]
    yield masses[:1], float(np.max(masses[:1] / root_diams ** d)), None
    for lv in tree[1:depth - 1]:
        median = _Median(lv, work)
        growth, p_max = _split_level(lv, masses, prods, median, d, work)
        medians.append(median.value())
        yield masses[:lv.count], growth, p_max
    # at depth 1 the root is level depth-1, whose median is taken up front
    keys = locate(np.array(medians[:depth - 1] + [last_median, leaf_median]))
    reads = LeafReads(keys=keys, masses=np.empty(len(keys)), prefix=np.empty(len(keys)))
    last, leaf = _split_last_levels(tree[depth - 1], leaves, masses, prods, reads, d, work)
    if depth > 1:
        yield None, *last
    yield reads, *leaf


def _split_level(lv: ImageLevel, masses: np.ndarray, prods: np.ndarray, median: _Median,
                 d: float, work: _Blocks) -> tuple:
    """Split an upper level's parent masses between its sibling pairs, in place, block by block.

    ``masses`` and ``prods`` begin with the parent level's masses and per-pair
    path products, and the level writes its own over them; returns its max
    growth and max p_i, and ``median`` counts its diameters.  The blocks run
    last first, so each overwrites only parents that a later block has
    split, and block 0, whose children overlap its own parents, splits a
    copy of them; the fault of the lowest-indexed faulting block is raised
    after the level, as a first-to-last pass would raise it.  Every block's
    temporaries live in ``work``.
    """
    pairs = lv.count // 2
    p_top = growth_top = -np.inf
    fault = None
    for j0 in reversed(range(0, pairs, PAIR_BLOCK)):
        j1 = min(j0 + PAIR_BLOCK, pairs)
        pm = masses[j0:j1] if j0 else work.parents[:j1]
        if not j0:
            np.copyto(pm, masses[:j1])
        try:
            growth, p = _split_block(lv, slice(2 * j0, 2 * j1), pm,
                                     _parent_path(prods, j0, j1 - j0, work),
                                     masses[2 * j0:2 * j1], prods[j0:j1], d, work)
        except (ValueError, AssertionError) as err:  # a zero-diameter node or a violated bound
            fault = err
            continue
        median.count(work.diams[:2 * (j1 - j0)])
        p_top, growth_top = np.maximum(p_top, p), np.maximum(growth_top, growth)
    if fault is not None:
        raise fault
    return float(growth_top), float(p_top)


class _LeafPass:
    """The leaf level, split first to last in blocks whose parents the caller holds.

    A block's masses and path products live for that block only.  Its masses
    become their prefix sum in place, carried on from the last block, which
    gives the bits of one ``np.cumsum`` over the level, and ``reads`` keeps
    the masses and prefix sums at its keys.
    """

    def __init__(self, leaves: ImageLevel, reads: LeafReads, d: float, work: _Blocks):
        self.leaves, self.reads, self.d, self.work = leaves, reads, d, work
        self.carry, self.k0 = 0.0, 0
        self.growth = self.p = -np.inf

    def split(self, q0: int, q1: int, pm: np.ndarray, prods: np.ndarray, i0: int):
        """Split leaf pairs q0 .. q1: their parents' masses are ``pm``, and they are
        nodes i0 .. of the sibling pairs whose path products are ``prods``."""
        work, reads, k0 = self.work, self.reads, self.k0
        parent_path = _parent_path(prods, i0, q1 - q0, work)
        mass = work.mass[:2 * (q1 - q0)]
        growth, p = _split_block(self.leaves, slice(2 * q0, 2 * q1), pm, parent_path, mass,
                                 parent_path, self.d, work)
        self.growth, self.p = np.maximum(self.growth, growth), np.maximum(self.p, p)
        k1 = k0 + int(np.searchsorted(reads.keys[k0:], 2 * q1))
        at = reads.keys[k0:k1] - 2 * q0
        reads.masses[k0:k1] = mass[at]
        mass[0] += self.carry
        self.carry = np.cumsum(mass, out=mass)[-1]
        reads.prefix[k0:k1] = mass[at]
        self.k0 = k1


def _split_last_levels(upper: ImageLevel, leaves: ImageLevel, masses: np.ndarray,
                       prods: np.ndarray, reads: LeafReads, d: float, work: _Blocks) -> tuple:
    """Split level depth-1 (``upper``) and the leaves in one first-to-last pass.

    Each block of ``upper``'s sibling pairs is split from its parents'
    ``masses`` and per-pair path products ``prods`` into two rows of
    ``work``, and its leaf children are split from those rows right after
    it, so neither level is stored.  A fault of ``upper`` is raised at its
    first faulting block; a leaf fault waits until every block of ``upper``
    is split, whose faults come first.  Returns (max growth, max p_i) of
    ``upper``, None when it is the root, and of the leaves.
    """
    leaf = _LeafPass(leaves, reads, d, work)
    if upper.count == 1:  # depth 1: the root's mass and path product are the parents
        leaf.split(0, 1, masses[:1], prods, 0)
        return None, (float(leaf.growth), float(leaf.p))
    pairs = upper.count // 2
    p_top = growth_top = -np.inf
    fault = None
    for j0 in range(0, pairs, PAIR_BLOCK):
        j1 = min(j0 + PAIR_BLOCK, pairs)
        mass, path = work.upper_mass[:2 * (j1 - j0)], work.upper_path[:j1 - j0]
        growth, p = _split_block(upper, slice(2 * j0, 2 * j1), masses[j0:j1],
                                 _parent_path(prods, j0, j1 - j0, work), mass, path, d, work)
        p_top, growth_top = np.maximum(p_top, p), np.maximum(growth_top, growth)
        if fault is not None:
            continue
        try:
            for q0 in range(2 * j0, 2 * j1, PAIR_BLOCK):
                q1 = min(q0 + PAIR_BLOCK, 2 * j1)
                leaf.split(q0, q1, mass[q0 - 2 * j0:q1 - 2 * j0], path, q0 - 2 * j0)
        except (ValueError, AssertionError) as err:  # a zero-diameter leaf or a violated bound
            fault = err
    if fault is not None:
        raise fault
    return (float(growth_top), float(p_top)), (float(leaf.growth), float(leaf.p))


def _split_block(lv: ImageLevel, nodes: slice, pm: np.ndarray, parent_path: np.ndarray,
                 mass: np.ndarray, path: np.ndarray, d: float, work: _Blocks) -> tuple:
    """Split the parent masses ``pm`` between the sibling pairs of ``lv``'s ``nodes``.

    Writes the nodes' masses to ``mass``, the pairs' path products, from
    their parents' ``parent_path``, to the head of ``path`` and the nodes'
    diameters to the head of ``work.diams``.  Returns the block's max growth
    and max p_i.  A zero-diameter node raises before any arithmetic.  Every
    other temporary is a buffer of ``work``.
    """
    n, h = len(mass), len(pm)
    lefts, rights = lv.ends(nodes, work.ends)
    diams = np.subtract(rights, lefts, out=work.diams[:n])
    if np.min(diams) <= 0:
        raise ValueError(f"zero-diameter node at depth {lv.depth}")
    dl, dr = diams[0::2], diams[1::2]
    gap = np.subtract(lefts[1::2], rights[0::2], out=work.gap[:h])
    # the block's ends are read: their buffer takes the weights diam^d
    w = work.ends[0][:n]
    np.copyto(w, diams)
    w **= d
    wl, wr = w[0::2], w[1::2]
    denom = np.add(wl, wr, out=work.denom[:h])
    small = np.minimum(wl, wr, out=work.small[:h])
    # Sterbenz two-step: the larger child lands in [parent/2, parent], so
    # the smaller one is its exact complement, the complement of either
    # child is exact, and siblings sum to the parent bitwise
    big = np.multiply(pm, small, out=work.big[:h])
    big /= denom
    np.subtract(pm, big, out=big)
    # the left child is the smaller one where wl <= wr
    left = mass[0::2]
    np.copyto(left, big)
    flags = work.flags[:h]
    np.subtract(pm, big, out=left, where=np.less_equal(wl, wr, out=flags))
    np.subtract(pm, left, out=mass[1::2])
    p = np.add(np.add(dl, gap, out=gap), dr, out=gap)
    p **= d
    p /= denom
    path = np.multiply(parent_path, p, out=path[:h])
    # the split rounds the small child's mass by up to eps * denom / small
    # of itself, an error its subtree inherits: the path carries that bound
    factor = np.divide(denom, small, out=small)
    path *= np.add(1.0, np.multiply(factor, np.finfo(float).eps, out=factor), out=factor)
    # the path-product bound mu(I)/diam^d <= prod p_i must hold exactly
    ratio = np.divide(mass, w, out=w)
    worst = np.maximum(ratio[0::2], ratio[1::2], out=denom)
    if np.any(np.greater(worst, np.multiply(path, 1.0 + _REL_TOL, out=big), out=flags)):
        raise AssertionError("path-product bound violated beyond tolerance")
    return np.max(ratio), np.max(p)


def build_recursive_measure(tree, d: float,
                            locate: Callable[[np.ndarray], np.ndarray]) -> RecursiveMeasure:
    """Assign masses by the diam^d proportional split, tracking p_i maxima.

    Keeps, per level, the growth and p_max, and the leaf masses and prefix
    sums at the leaves that ``locate`` returns (see ``_levels``).
    """
    # the level loop reuses its buffers, and the last level it yields is LeafReads
    masses, growth, p_max = zip(*_levels(tree, d, locate))
    return RecursiveMeasure(leaves=masses[-1], level_growth=np.array(growth),
                            p_max=np.array(p_max[1:]))


# ---------------------------------------------------------------------------
# Growth certificate


@dataclass
class CertificateReport:
    """Finite-scale growth certificate at exponent d.

    Constants are 'stable' when their max over the top half of the built
    depths stays within STABILITY_FACTOR of the first finite positive one.
    """

    passed: bool
    C_growth: float
    level_growth: np.ndarray  # max mu/diam^d per depth (index = depth)
    worst_ball_ratio: float
    growth_ok: bool
    interval_ok: bool
    ball_ok: bool
    p_max: np.ndarray         # max p_i per depth >= 1 of the certified measure


def _ball_centers(lefts, rights, max_windows: int) -> np.ndarray:
    """Every k-th entry of [lefts, rights, midpoints], k = 3n // max_windows + 1.

    All 3n entries are kept when 3n <= max_windows.  Only the kept entries
    are formed, so the result equals striding the concatenation bit for bit,
    and the ends may be MappedEnds.
    """
    n = len(lefts)
    step = 3 * n // max_windows + 1 if 3 * n > max_windows else 1
    part, k = np.divmod(np.arange(0, 3 * n, step), n)
    l, r = lefts[k], rights[k]
    return np.choose(part, (l, r, (l + r) / 2.0))


def _stability(values: np.ndarray, factor: float) -> bool:
    """The finite positive constants, coarsest first, stay within ``factor`` of the first."""
    vals = values[np.isfinite(values) & (values > 0)]
    return len(vals) > 0 and bool(np.max(vals) / vals[0] <= factor)


class _Keyed:
    """Values stored at sorted keys, indexed by arrays of those keys."""

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        self.keys, self.values = keys, values

    def __getitem__(self, idx) -> np.ndarray:
        return self.values[np.searchsorted(self.keys, idx)]


class _Scans:
    """The certificate's windows and balls, both on the image leaves.

    The windows of every scanned depth are located together on
    construction, the balls by ``locate`` when the measure reaches the
    leaves, before any leaf mass exists; both read only the ends that their
    sorted searches probe.
    """

    def __init__(self, system: CantorSystem, image: ImageLevel, qsmap: QsMap, top: np.ndarray):
        leaves = system.level(system.max_depth)
        first, last = leaves.lefts[0], leaves.lefts[-1] + np.exp(leaves.log_length)
        self.image, self.top = image, top
        grids = []
        for n in top:
            scale = float(np.exp(system.level(n).log_length))
            step = max(scale / 2.0, 1.0 / MAX_WINDOWS)
            xs = np.arange(first - scale / 2.0, last + step, step)
            grids.append((xs, xs + scale))
        self.cuts = np.cumsum([len(xs) for xs, _ in grids])[:-1]
        # a window is located on the image at its mapped ends, clipped to the
        # set (and so to the map's domain), so a boundary leaf counts by the
        # share of its image that the window's span, the diam of the
        # constant, covers; the map is elementwise, so a mapped leaf end has
        # the image tree's bits
        x0, x1 = (qsmap.apply(np.clip(np.concatenate(ends), first, last))
                  for ends in zip(*grids))
        self.windows = win = locate_windows(image.lefts, image.rights, x0, x1)
        sel = win.hit
        lo = np.maximum(image.lefts[win.j0[sel]], x0[sel])
        hi = np.minimum(image.rights[win.j1[sel]], x1[sel])
        self.spans = np.zeros(len(x0))
        self.spans[sel] = np.maximum(hi - lo, 0.0)

    def locate(self, median_diams: np.ndarray) -> np.ndarray:
        """Locate one ball per center and scanned depth, of radius its median; return all reads."""
        self.radii = [float(r) for r in median_diams[self.top]]
        centers = _ball_centers(self.image.lefts, self.image.rights, MAX_WINDOWS)
        self.balls = locate_windows(self.image.lefts, self.image.rights,
                                    np.concatenate([centers - r for r in self.radii]),
                                    np.concatenate([centers + r for r in self.radii]))
        return np.unique(np.concatenate([self.windows.reads, self.balls.reads]))

    def constants(self, reads: LeafReads, d: float) -> tuple:
        """Per scanned depth, the worst window and ball ratios (NaN where none is hit)."""
        prefix, masses = _Keyed(reads.keys, reads.prefix), _Keyed(reads.keys, reads.masses)
        interval_c = np.full(len(self.top), np.nan)
        ball_c = np.full(len(self.top), np.nan)
        per_depth = (np.split(a, self.cuts) for a in
                     (self.windows.masses(prefix, masses), self.windows.hit, self.spans))
        for ti, (mu, hit, span) in enumerate(zip(*per_depth)):
            good = hit & (span > 0)
            if np.any(good):
                interval_c[ti] = float(np.max(mu[good] / span[good] ** d))
        # ball scan on the image side at the matching image scale
        shape = (len(self.radii), -1)
        ball_mu = self.balls.masses(prefix, masses).reshape(shape)
        for ti, (mu, hit, r) in enumerate(zip(ball_mu, self.balls.hit.reshape(shape), self.radii)):
            if np.any(hit):
                ball_c[ti] = float(np.max(mu[hit])) / r ** d
        return interval_c, ball_c


def certificate(system: CantorSystem, qsmap: QsMap, d: float) -> CertificateReport:
    """Check mu <= C diam^d on nodes, windows and balls of the image."""
    depth = system.max_depth
    tree = build_image_tree(system, qsmap)
    top = np.arange((depth + 1) // 2, depth + 1)
    scans = _Scans(system, tree[depth], qsmap, top)
    measure = build_recursive_measure(tree, d, scans.locate)
    level_growth, p_max = measure.level_growth, measure.p_max

    growth_ok = _stability(level_growth[top], STABILITY_FACTOR)
    c_growth = float(np.max(level_growth[top]))
    interval_c, ball_c = scans.constants(measure.leaves, d)

    interval_ok = _stability(interval_c, STABILITY_FACTOR * 2.0)
    ball_ok = _stability(ball_c, STABILITY_FACTOR * 2.0)
    finite_balls = ball_c[np.isfinite(ball_c)]
    worst_ball = float(np.max(finite_balls)) if len(finite_balls) else math.inf

    return CertificateReport(passed=bool(growth_ok and interval_ok and ball_ok), C_growth=c_growth,
                             level_growth=level_growth, worst_ball_ratio=worst_ball,
                             growth_ok=growth_ok, interval_ok=interval_ok, ball_ok=ball_ok,
                             p_max=p_max)
