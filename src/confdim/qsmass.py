"""Recursive measures on quasisymmetric images of binary Cantor systems.

The image of every interval gets mass split between its two children in
proportion to diam^d; the per-generation factors

    p_i = (diam I + dist(I, I') + diam I')^d / (diam^d I + diam^d I')

control the growth ratio mu(I) / diam^d I.  A certificate checks, at finite
scale, that the measure satisfies mu <= C diam^d on nodes, on arbitrary
intervals and on balls of the image.

The pipeline stores one leaf-sized array, the measure's buffer: the system
generates the domain left ends of its deep levels on request.  The image
tree maps nothing up front: every level's image ends are mapped block by
block, from one read of its domain left ends, as the measure reaches the
level.  The measure is built level by level in blocks of PAIR_BLOCK sibling
pairs, so its temporaries stay cache-sized and live in buffers that every
block reuses, and each node's bits are those of a whole-level pass.  Every
upper level is written in place over its parent in the one buffer, and
siblings share one path product.  Each level records its median image
diameter, the certificate's ball radius at that depth; the two deepest are
taken up front, from the same buffer.  The leaf level is never stored: its
masses, path products and prefix sum live one block at a time.  The
certificate locates every window before the measure and every ball when the
measure reaches the leaves, both on the image leaves, by sorted searches
that map only the ends they probe, and the leaf pass keeps the masses and
prefix sums at the located leaves only.
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
        rows = np.empty((4, nodes))
        self.ends = rows[0], rows[1]  # image ends; the right ones also generate domain ends
        self.diams, self.mass = rows[2], rows[3]
        # a leaf block's path products overwrite their parents' in parent_path
        self.parent_path, self.parents, self.gap, self.denom, self.small, self.big = np.empty(
            (6, nodes // 2 + 1))
        self.flags = np.empty(nodes // 2 + 1, dtype=bool)


def _median_diam(lv: ImageLevel, out: np.ndarray, work: _Blocks) -> float:
    """The median image diameter of a level, from ``out``, one slot per node, filled block by block."""
    block = len(work.diams)
    for i in range(0, lv.count, block):
        lefts, rights = lv.ends(slice(i, i + block), work.ends)
        np.subtract(rights, lefts, out=out[i:i + block])
    return float(np.median(out, overwrite_input=True))


def _levels(tree, d: float, locate: Callable[[np.ndarray], np.ndarray]):
    """The measure's level loop, root first: yields (masses, growth, p_max).

    ``growth`` is max mu/diam^d over the level's nodes and ``p_max`` the max
    p_i over its sibling pairs (None at the root).  ``tree`` is a list of
    ImageLevels by depth.  An upper level yields its masses as a view of the
    one buffer that every level is built in, so they hold until the next
    level is built.  Before any leaf mass exists, ``locate`` gets every
    level's median image diameter, root first, and returns the sorted, unique
    leaf indices at which the leaf level yields LeafReads in place of masses.
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
    # one leaf-sized buffer serves the whole measure, so nothing level-sized
    # is allocated or freed level by level and the heap does not fragment.
    # It takes the leaf diameters, then level depth-1's, for their medians up
    # front; then its first half holds every upper level's masses and its
    # third quarter their per-pair path products, each level written in place
    # over its parent's, and a level n < depth-1 puts its diameters, for its
    # median, in the free slice after its masses
    work = _Blocks(min(2 * PAIR_BLOCK, leaves.count))
    buf = np.empty(leaves.count)
    leaf_median = _median_diam(leaves, buf, work)
    last_median = _median_diam(tree[depth - 1], buf[:leaves.count // 2], work)
    masses, prods = buf[:leaves.count // 2], buf[leaves.count // 2:]
    masses[0] = prods[0] = 1.0  # the root, and the path product above it
    root_diams = tree[0].diams
    medians = [float(np.median(root_diams))]
    yield masses[:1], float(np.max(masses[:1] / root_diams ** d)), None
    for n in range(1, depth):
        lv = tree[n]
        # level depth-1's diameters would overlap the path products
        diams = buf[lv.count:2 * lv.count] if n < depth - 1 else None
        growth, p_max = _split_level(lv, masses, prods, diams, None, d, work)
        if diams is not None:
            medians.append(float(np.median(diams, overwrite_input=True)))
        yield masses[:lv.count], growth, p_max
    # at depth 1 the root is level depth-1, whose median is taken up front
    keys = locate(np.array(medians[:depth - 1] + [last_median, leaf_median]))
    reads = LeafReads(keys=keys, masses=np.empty(len(keys)), prefix=np.empty(len(keys)))
    growth, p_max = _split_level(leaves, masses, prods, None, reads, d, work)
    yield reads, growth, p_max


def _split_level(lv: ImageLevel, masses: np.ndarray, prods: np.ndarray,
                 diams_out, reads, d: float, work: _Blocks) -> tuple:
    """Split a level's parent masses between its sibling pairs, block by block.

    ``masses`` and ``prods`` begin with the parent level's masses and per-pair
    path products; returns the level's max growth and max p_i.  An upper
    level (``reads`` None) writes its own over them in place, and its
    diameters to ``diams_out`` unless that is None.  Its blocks run last
    first, so each overwrites only parents that a later block has split, and
    block 0, whose children overlap its own parents, splits a copy of them;
    the fault of the lowest-indexed faulting block is raised after the level,
    as a first-to-last pass would raise it.  The leaf level runs first to last
    and raises at its first fault: its masses and path products live for
    their block only, the block's masses become their prefix sum in place,
    carried on from the last block, which gives the bits of one ``np.cumsum``
    over the level, and ``reads`` keeps the masses and prefix sums at its
    keys.  Parent node j is in the parent level's sibling pair j // 2.
    Every block's temporaries live in ``work``.
    """
    leaf = reads is not None
    pairs = lv.count // 2
    p_top = growth_top = -np.inf
    carry, k0, fault = 0.0, 0, None
    starts = range(0, pairs, PAIR_BLOCK)
    for j0 in starts if leaf else reversed(starts):
        j1 = min(j0 + PAIR_BLOCK, pairs)
        nodes = slice(2 * j0, 2 * j1)
        odd = j0 % 2  # an odd PAIR_BLOCK starts a block inside a parent pair
        # np.repeat(prods[j0 // 2:], 2)[odd:odd + j1 - j0]
        parent_path = work.parent_path[:j1 - j0]
        parent_path[0::2] = prods[j0 // 2:][:len(parent_path[0::2])]
        parent_path[1::2] = prods[j0 // 2 + odd:][:len(parent_path[1::2])]
        pm = masses[j0:j1] if j0 else work.parents[:j1]
        if not j0:
            np.copyto(pm, masses[:j1])
        mass = work.mass[:2 * (j1 - j0)] if leaf else masses[nodes]
        try:
            growth, p = _split_block(lv, nodes, pm, parent_path, mass,
                                     parent_path if leaf else prods[j0:j1],
                                     work.diams if diams_out is None else diams_out[nodes], d, work)
        except (ValueError, AssertionError) as err:  # a zero-diameter node or a violated bound
            if leaf:
                raise
            fault = err
            continue
        p_top, growth_top = np.maximum(p_top, p), np.maximum(growth_top, growth)
        if leaf:
            k1 = k0 + int(np.searchsorted(reads.keys[k0:], 2 * j1))
            at = reads.keys[k0:k1] - 2 * j0
            reads.masses[k0:k1] = mass[at]
            mass[0] += carry
            carry = np.cumsum(mass, out=mass)[-1]
            reads.prefix[k0:k1] = mass[at]
            k0 = k1
    if fault is not None:
        raise fault
    return float(growth_top), float(p_top)


def _split_block(lv: ImageLevel, nodes: slice, pm: np.ndarray, parent_path: np.ndarray,
                 mass: np.ndarray, path: np.ndarray, diams: np.ndarray, d: float,
                 work: _Blocks) -> tuple:
    """Split the parent masses ``pm`` between the sibling pairs of ``lv``'s ``nodes``.

    Writes the nodes' masses to ``mass``, the pairs' path products, from
    their parents' ``parent_path``, to the head of ``path`` and the nodes'
    diameters to the head of ``diams``.  Returns the block's max growth and
    max p_i.  A zero-diameter node raises before any arithmetic.  Every
    other temporary is a buffer of ``work``.
    """
    n, h = len(mass), len(pm)
    lefts, rights = lv.ends(nodes, work.ends)
    diams = np.subtract(rights, lefts, out=diams[:n])
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
