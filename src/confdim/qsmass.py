"""Recursive measures on quasisymmetric images of binary Cantor systems.

The image of every interval gets mass split between its two children in
proportion to diam^d; the per-generation factors

    p_i = (diam I + dist(I, I') + diam I')^d / (diam^d I + diam^d I')

control the growth ratio mu(I) / diam^d I.  A certificate checks, at finite
scale, that the measure satisfies mu <= C diam^d on nodes, on arbitrary
intervals and on balls of the image.

No array of a level deeper than 2^16 intervals is stored: the system
generates such domain left ends where they are read, and every level's image
ends are mapped block by block where they are read.  The measure is one
depth-first walk over blocks of at most PAIR_BLOCK sibling pairs (see
_Walk), with each node's bits those of a whole-level pass.  The
certificate's ball radii come from the stored levels' median image
diameters (see _Scans), and every window and ball is located on the image
leaves by one two-level sorted search that maps only the ends it probes;
the walk keeps the masses and prefix sums at the located leaves only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from confdim.cantor import MIDDLE_INTERVAL, STORED_COUNT, CantorSystem
from confdim.dimension import locate_windows
from confdim.qsmaps import ImageLevel, QsMap

_REL_TOL = 1e-9

# certificate settings: constants are stable when their max stays within
# STABILITY_FACTOR of the coarsest (twice that for the window and ball
# scans), so a decaying constant passes; scans use at most MAX_WINDOWS ball
# centers and a window step of at least 1/MAX_WINDOWS
STABILITY_FACTOR = 2.0
MAX_WINDOWS = 512

# sibling pairs per block of build_recursive_measure.  A block's buffers
# (_Blocks: four node rows and five pair rows, 0.8 MiB at 2^13) and the level
# rows that it reads and writes stay within a 2 MiB per-core L2, where 2^15
# took 3.3 MiB of buffers; each level of at least 2 PAIR_BLOCK nodes keeps a
# row of 3 PAIR_BLOCK doubles as well.  A depth-22 certificate (harmonic, x^2,
# d = 0.9; 2-vCPU Xeon, 29.7 MB RSS before it), median of five: 2^12 260 ms
# and 32.8 MB peak, 2^13 233 ms and 34.1 MB, 2^14 232 ms and 36.2 MB, 2^15
# 241 ms and 40.0 MB.  The bits do not depend on it
PAIR_BLOCK = 2 ** 13

def build_image_tree(system: CantorSystem, qsmap: QsMap) -> list:
    """The image of every level of a binary system, as ImageLevels by depth.

    Nothing is mapped here: every level's image ends are mapped block by
    block from one read of its domain left ends as the measure reaches the
    level.
    """
    if system.gaps.kind != MIDDLE_INTERVAL:
        raise ValueError("recursive measure machinery assumes binary systems")
    return [ImageLevel(qsmap, lv) for lv in system.levels]


@dataclass
class LeafReads:
    """The leaf masses and their inclusive prefix sum at the sorted leaf indices ``keys``."""

    keys: np.ndarray
    masses: np.ndarray
    prefix: np.ndarray


@dataclass
class RecursiveMeasure:
    leaves: LeafReads         # the leaf reads at the keys the measure was given
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
        self.diams, self.mass = rows[2], rows[3]  # ``mass`` holds a leaf block
        # a leaf block's path products overwrite their parents' in parent_path
        (self.parent_path, self.gap, self.denom, self.small,
         self.big) = np.empty((5, nodes // 2 + 1))
        self.flags = np.empty(nodes // 2 + 1, dtype=bool)


def _parent_path(prods: np.ndarray, i0: int, n: int, work: _Blocks) -> np.ndarray:
    """np.repeat(prods, 2)[i0:i0 + n] in ``work``: parent node i is in sibling pair i // 2."""
    out = work.parent_path[:n]
    out[0::2] = prods[i0 // 2:][:len(out[0::2])]
    out[1::2] = prods[(i0 + 1) // 2:][:len(out[1::2])]
    return out


class _Walk:
    """The measure's one depth-first walk: ``split`` splits every level, a block at a time.

    A block of at most PAIR_BLOCK sibling pairs is split, and then the walk
    descends into its child blocks before it moves on to the next block.
    Each level above the leaves keeps one block of masses and per-pair path
    products in its own row, the parents of the child blocks.  Leaf blocks
    come left to right and live in ``work``: their masses become their
    prefix sum in place, carried on from the last block, which gives the
    bits of one ``np.cumsum`` over the level, and ``reads`` keeps the masses
    and prefix sums at its keys.  A faulting block (a zero-diameter node or
    a violated bound) is descended no further, and ``fault`` is the first
    fault of the shallowest faulting level, as a level-by-level pass would
    raise it.
    """

    def __init__(self, tree, d: float, reads: LeafReads):
        depth = len(tree) - 1
        self.tree, self.d, self.reads = tree, d, reads
        self.work = _Blocks(min(2 * PAIR_BLOCK, tree[depth].count))
        # the root's mass, and the path product above it, are 1
        self.rows = [(np.ones(1), np.ones(1))] + [
            (np.empty(min(lv.count, 2 * PAIR_BLOCK)), np.empty(min(lv.count // 2, PAIR_BLOCK)))
            for lv in tree[1:depth]]
        self.growth, self.p_max = np.full(depth + 1, -np.inf), np.full(depth + 1, -np.inf)
        self.growth[0] = np.max(self.rows[0][0] / tree[0].diams ** d)
        self.fault, self.fault_depth = None, depth + 1
        self.carry, self.k0 = 0.0, 0

    def split(self, n: int, j0: int, j1: int, i0: int):
        """Split sibling pairs j0 .. j1 of level n, whose parents are nodes i0 .. of
        level n - 1's row, then walk their child blocks."""
        if n >= self.fault_depth:  # a fault found on this level or above comes first
            return
        work, (pm, prods), h = self.work, self.rows[n - 1], j1 - j0
        leaf = n == len(self.rows)
        mass, path = (work.mass, work.parent_path) if leaf else self.rows[n]
        try:
            growth, p = _split_block(self.tree[n], slice(2 * j0, 2 * j1), pm[i0:i0 + h],
                                     _parent_path(prods, i0, h, work), mass[:2 * h], path,
                                     self.d, work)
        except (ValueError, AssertionError) as err:
            self.fault, self.fault_depth = err, n
            return
        self.growth[n] = np.maximum(self.growth[n], growth)
        self.p_max[n] = np.maximum(self.p_max[n], p)
        if leaf:
            self._read(2 * j0, mass[:2 * h])
            return
        for q0 in range(2 * j0, 2 * j1, PAIR_BLOCK):
            self.split(n + 1, q0, min(q0 + PAIR_BLOCK, 2 * j1), q0 - 2 * j0)

    def _read(self, i0: int, mass: np.ndarray):
        """Read the leaf block i0 .. of masses ``mass``, which become their prefix sum."""
        reads, k0 = self.reads, self.k0
        k1 = k0 + int(np.searchsorted(reads.keys[k0:], i0 + len(mass)))
        at = reads.keys[k0:k1] - i0
        reads.masses[k0:k1] = mass[at]
        mass[0] += self.carry
        self.carry = np.cumsum(mass, out=mass)[-1]
        reads.prefix[k0:k1] = mass[at]
        self.k0 = k1


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


def build_recursive_measure(tree, d: float, keys: np.ndarray) -> RecursiveMeasure:
    """Assign masses by the diam^d proportional split, tracking p_i maxima.

    ``tree`` is a list of ImageLevels by depth.  Keeps, per level, the
    growth and p_max, and the leaf masses and prefix sums at the sorted,
    unique leaf indices ``keys`` (see ``_Walk``).
    """
    if not (0.0 < d < 1.0):
        raise ValueError("d must be in (0, 1)")
    if len(tree) < 2:
        raise ValueError("tree depth must be >= 1")
    for n, lv in enumerate(tree[1:], start=1):
        if lv.count != 2 ** n:
            raise ValueError(f"level {lv.depth} is not binary")
    reads = LeafReads(keys=keys, masses=np.empty(len(keys)), prefix=np.empty(len(keys)))
    walk = _Walk(tree, d, reads)
    walk.split(1, 0, 1, 0)  # the root's one pair of children, and all below
    if walk.fault is not None:
        raise walk.fault
    return RecursiveMeasure(leaves=reads, level_growth=walk.growth, p_max=walk.p_max[1:])


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
    and the ends may be an ImageLevel's.
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

    The ball radius of scanned depth n is its median image diameter up to
    depth m, the deepest level of at most STORED_COUNT intervals, and the
    domain's scale ladder from there on:

        r_n = median(tree[n].diams)                     for n <= m
        r_n = r_m * exp(log_length_n - log_length_m)    for n > m

    No level deeper than m is read for a radius, so one sorted search
    locates every window and every ball before any leaf mass exists; it
    reads only the ends that it probes, and ``keys`` are the leaves whose
    masses the scans read.  The map and the domain levels are the tree's.
    """

    def __init__(self, tree: list, top: np.ndarray):
        image = tree[-1]
        qsmap, leaves = image.qsmap, image.level
        logs = [lv.level.log_length for lv in tree]
        first, last = leaves.lefts[0], leaves.lefts[-1] + np.exp(leaves.log_length)
        stored = max(n for n, lv in enumerate(tree) if lv.count <= STORED_COUNT)
        rungs = [min(n, stored) for n in top]
        medians = {m: float(np.median(tree[m].diams, overwrite_input=True)) for m in set(rungs)}
        self.radii = [medians[m] * math.exp(logs[n] - logs[m]) for n, m in zip(top, rungs)]
        grids = []
        for n in top:
            scale = float(np.exp(logs[n]))
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
        # one ball per center and scanned depth follows the windows
        centers = _ball_centers(image.lefts, image.rights, MAX_WINDOWS)
        self.located = loc = locate_windows(
            image.lefts, image.rights, np.concatenate([x0] + [centers - r for r in self.radii]),
            np.concatenate([x1] + [centers + r for r in self.radii]))
        self.spans = np.zeros(len(x0))
        sel = loc.hit[:len(x0)]
        hits = np.count_nonzero(sel)  # the windows' hits come before the balls'
        lo = np.maximum(loc.first[0][:hits], x0[sel])
        hi = np.minimum(loc.last[1][:hits], x1[sel])
        self.spans[sel] = np.maximum(hi - lo, 0.0)
        self.keys = np.unique(loc.reads)

    def constants(self, reads: LeafReads, d: float) -> tuple:
        """Per scanned depth, the worst window and ball ratios (NaN where none is hit)."""
        prefix, masses = _Keyed(reads.keys, reads.prefix), _Keyed(reads.keys, reads.masses)
        interval_c = np.full(len(self.radii), np.nan)
        ball_c = np.full(len(self.radii), np.nan)
        windows = len(self.spans)
        located_mu, located_hit = self.located.masses(prefix, masses), self.located.hit
        per_depth = (np.split(a, self.cuts) for a in
                     (located_mu[:windows], located_hit[:windows], self.spans))
        for ti, (mu, hit, span) in enumerate(zip(*per_depth)):
            good = hit & (span > 0)
            if np.any(good):
                interval_c[ti] = float(np.max(mu[good] / span[good] ** d))
        # ball scan on the image side at the matching image scale
        shape = (len(self.radii), -1)
        per_radius = zip(located_mu[windows:].reshape(shape),
                         located_hit[windows:].reshape(shape), self.radii)
        for ti, (mu, hit, r) in enumerate(per_radius):
            if np.any(hit):
                ball_c[ti] = float(np.max(mu[hit])) / r ** d
        return interval_c, ball_c


def certificate(system: CantorSystem, qsmap: QsMap, d: float) -> CertificateReport:
    """Check mu <= C diam^d on nodes, windows and balls of the image."""
    depth = system.max_depth
    tree = build_image_tree(system, qsmap)
    top = np.arange((depth + 1) // 2, depth + 1)
    scans = _Scans(tree, top)
    measure = build_recursive_measure(tree, d, scans.keys)
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
