"""Recursive measures on quasisymmetric images of binary Cantor systems.

The image of every interval gets mass split between its two children in
proportion to diam^d; the per-generation factors

    p_i = (diam I + dist(I, I') + diam I')^d / (diam^d I + diam^d I')

control the growth ratio mu(I) / diam^d I.  A certificate checks, at finite
scale, that the measure satisfies mu <= C diam^d on nodes, on arbitrary
intervals and on balls of the image.

The pipeline runs one pass per level, so no leaf-sized array lives without
need.  The image tree stores only the mapped leaves; an upper level's image
right ends are mapped block by block as the measure reaches the level.  The
measure is built level by level in blocks of PAIR_BLOCK sibling pairs, so its
temporaries stay cache-sized, and each node's bits are those of a whole-level
pass.  Two levels of masses live at a time, in two buffers that alternate by
level; siblings share one path product, and the leaf level's path products
exist one block at a time.  Each level records its median image diameter,
the certificate's ball radius at that depth.  The certificate locates every
window and ball first, then turns the leaf masses into their prefix sum in
place and sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from confdim.cantor import MIDDLE_INTERVAL, CantorSystem
from confdim.dimension import locate_windows
from confdim.qsmaps import ImageLevel, MappedRights, QsMap, push_intervals

_REL_TOL = 1e-9

# certificate settings: constants are stable when their max/min stays below
# STABILITY_FACTOR (twice that for the window and ball scans); scans use at
# most MAX_WINDOWS ball centers and a window step of at least 1/MAX_WINDOWS
STABILITY_FACTOR = 2.0
MAX_WINDOWS = 512

# sibling pairs per block of build_recursive_measure: a block's temporaries
# stay in cache, and none spans a whole deep level
PAIR_BLOCK = 2 ** 15


def build_image_tree(system: CantorSystem, qsmap: QsMap) -> list:
    """The image of every level of a binary system, as ImageLevels by depth.

    Only the leaves are mapped and stored.  An upper level views the leaves'
    image left ends, as in the domain, and its right ends are MappedRights:
    mapped block by block as the measure reaches the level.
    """
    if system.gaps.kind != MIDDLE_INTERVAL:
        raise ValueError("recursive measure machinery assumes binary systems")
    leaves = push_intervals(qsmap, system.levels[-1])
    return [ImageLevel(depth=lv.depth, lefts=leaves.lefts[::leaves.count // lv.count],
                       rights=MappedRights(qsmap, lv), branching=lv.branching)
            for lv in system.levels[:-1]] + [leaves]


@dataclass
class RecursiveMeasure:
    d: float
    masses: list              # [the leaf masses]: the build keeps no upper level
    level_growth: np.ndarray  # per level, max mu/diam^d over its nodes
    p_max: np.ndarray         # per level >= 1, max p_i over its sibling pairs
    median_diams: np.ndarray  # per level, the median image diameter of its nodes


def _levels(tree, d: float):
    """The measure's level loop, root first: yields (masses, growth, p_max, median_diam).

    ``growth`` is max mu/diam^d over the level's nodes, ``p_max`` the max p_i
    over its sibling pairs (None at the root) and ``median_diam`` the median
    image diameter.  ``tree`` is a list of ImageLevels by depth.  The yielded
    masses are views of two buffers that alternate by level, so a level's
    masses hold until the level after the next one is built.
    """
    if not (0.0 < d < 1.0):
        raise ValueError("d must be in (0, 1)")
    if len(tree) < 2:
        raise ValueError("tree depth must be >= 1")
    depth = len(tree) - 1
    leaves = tree[depth].count
    # Nothing level-sized is allocated or freed level by level, so the heap
    # does not fragment: alternate levels share two mass buffers (the leaves'
    # is the larger) and two path-product buffers, and an upper level's
    # diameters, kept for its median, go in the back half of the leaf masses'
    # buffer, which no upper level's masses reach.
    mass_bufs = (np.empty(leaves), np.empty(leaves // 2))
    prod_bufs = (np.empty(leaves // 4), np.empty(leaves // 8))
    masses = np.array([1.0])
    prod = np.array([1.0])  # prod of p_i along the root-to-node path, one per sibling pair
    diams = tree[0].diams
    yield masses, float(np.max(masses / diams ** d)), None, float(np.median(diams))
    for n in range(1, depth + 1):
        lv = tree[n]
        if lv.count != 2 * len(masses):
            raise ValueError(f"level {lv.depth} is not binary")
        child = mass_bufs[(depth - n) % 2][:lv.count]
        if n < depth:
            child_prod = prod_bufs[(depth - n - 1) % 2][:lv.count // 2]
            diams = mass_bufs[0][leaves // 2:leaves // 2 + lv.count]
            growth, p_max = _split_level(lv, masses, prod, child, child_prod, diams, d)
            median_diam = float(np.median(diams, overwrite_input=True))
        else:
            # the leaf diameters go in the leaf masses' buffer before the masses do
            median_diam = float(np.median(np.subtract(lv.rights, lv.lefts, out=child),
                                          overwrite_input=True))
            child_prod = None
            growth, p_max = _split_level(lv, masses, prod, child, None, None, d)
        masses, prod = child, child_prod
        yield masses, growth, p_max, median_diam


def _split_level(lv: ImageLevel, parent_mass: np.ndarray, parent_prod: np.ndarray,
                 masses: np.ndarray, prod, diams_out, d: float) -> tuple:
    """Fill one level's ``masses``, path products and diameters, block by block.

    Returns the level's max growth and max p_i.  With ``prod`` and
    ``diams_out`` None (the leaf level) those live for their block only.
    Parent node j is in the parent level's sibling pair j // 2.
    """
    p_top = growth_top = -np.inf
    for j0 in range(0, len(parent_mass), PAIR_BLOCK):
        j1 = min(j0 + PAIR_BLOCK, len(parent_mass))
        lefts, rights = lv.lefts[2 * j0:2 * j1], lv.rights[2 * j0:2 * j1]
        diams = np.subtract(rights, lefts,
                            out=None if diams_out is None else diams_out[2 * j0:2 * j1])
        if np.any(diams <= 0):
            raise ValueError(f"zero-diameter node at depth {lv.depth}")
        dl, dr = diams[0::2], diams[1::2]
        gap = lefts[1::2] - rights[0::2]
        w = diams ** d
        wl, wr = w[0::2], w[1::2]
        denom = wl + wr
        pm = parent_mass[j0:j1]
        # Sterbenz two-step: the larger child lands in [parent/2, parent], so
        # the final complement is exact and siblings sum to the parent bitwise
        small0 = pm * np.minimum(wl, wr) / denom
        big = pm - small0
        small = pm - big
        left_is_small = wl <= wr
        mass = masses[2 * j0:2 * j1]
        mass[0::2] = np.where(left_is_small, small, big)
        mass[1::2] = np.where(left_is_small, big, small)
        p = (dl + gap + dr) ** d / denom
        path = np.multiply(parent_prod[np.arange(j0, j1) // 2], p,
                           out=None if prod is None else prod[j0:j1])
        # the path-product bound mu(I)/diam^d <= prod p_i must hold exactly
        ratio = mass / w
        if np.any(np.maximum(ratio[0::2], ratio[1::2]) > path * (1.0 + _REL_TOL)):
            raise AssertionError("path-product bound violated beyond tolerance")
        p_top = np.maximum(p_top, np.max(p))
        growth_top = np.maximum(growth_top, np.max(ratio))
    return float(growth_top), float(p_top)


def build_recursive_measure(tree, d: float) -> RecursiveMeasure:
    """Assign masses by the diam^d proportional split, tracking p_i maxima.

    Keeps the leaf masses and, per level, the growth, p_max and median diameter.
    """
    # the level loop reuses its buffers, so only the last masses it yields hold
    masses, growth, p_max, median_diams = zip(*_levels(tree, d))
    return RecursiveMeasure(d=d, masses=[masses[-1]], level_growth=np.array(growth),
                            p_max=np.array(p_max[1:]), median_diams=np.array(median_diams))


# ---------------------------------------------------------------------------
# Growth certificate


@dataclass
class CertificateReport:
    """Finite-scale growth certificate at exponent d.

    Constants are 'stable' when their max/min over the top half of the
    built depths stays below STABILITY_FACTOR.
    """

    passed: bool
    C_growth: float
    level_growth: np.ndarray  # max mu/diam^d per depth (index = depth)
    worst_ball_ratio: float
    growth_ok: bool
    interval_ok: bool
    ball_ok: bool
    p_max: np.ndarray         # max p_i per depth >= 1 of the certified measure


def _ball_centers(lefts: np.ndarray, rights: np.ndarray, max_windows: int) -> np.ndarray:
    """Every k-th entry of [lefts, rights, midpoints], k = 3n // max_windows + 1.

    All 3n entries are kept when 3n <= max_windows.  Only the kept entries
    are formed, so the result equals striding the concatenation bit for bit.
    """
    n = len(lefts)
    step = 3 * n // max_windows + 1 if 3 * n > max_windows else 1
    part, k = np.divmod(np.arange(0, 3 * n, step), n)
    l, r = lefts[k], rights[k]
    return np.choose(part, (l, r, (l + r) / 2.0))


def _stability(values: np.ndarray, factor: float) -> bool:
    vals = values[np.isfinite(values) & (values > 0)]
    if len(vals) == 0:
        return False
    return bool(np.max(vals) / np.min(vals) <= factor)


def certificate(system: CantorSystem, qsmap: QsMap, d: float) -> CertificateReport:
    """Check mu <= C diam^d on nodes, windows and balls of the image."""
    depth = system.max_depth
    tree = build_image_tree(system, qsmap)
    measure = build_recursive_measure(tree, d)
    (leaf_mass,) = measure.masses
    level_growth, p_max = measure.level_growth, measure.p_max
    top = np.arange((depth + 1) // 2, depth + 1)
    radii = [float(r) for r in measure.median_diams[top]]
    img_l, img_r = tree[depth].lefts, tree[depth].rights
    del measure, tree

    growth_ok = _stability(level_growth[top], STABILITY_FACTOR)
    c_growth = float(np.max(level_growth[top]))

    # every ball and window is located before any is summed: the image right
    # ends go before the domain right ends are formed, and the leaf masses
    # then become their prefix sum in place
    centers = _ball_centers(img_l, img_r, MAX_WINDOWS)
    balls = [locate_windows(img_l, img_r, leaf_mass, centers - r, centers + r) for r in radii]
    del img_r
    leaves = system.level(depth)
    leaf_l, leaf_r = leaves.lefts, leaves.rights
    windows = []
    for n in top:
        scale = float(np.exp(system.level(n).log_length))
        step = max(scale / 2.0, 1.0 / MAX_WINDOWS)
        xs = np.arange(leaf_l[0] - scale / 2.0, leaf_r[-1] + step, step)
        x1 = xs + scale
        # boundary leaves count proportionally to their overlap with the
        # window, else the finest scanned scale overstates the constant
        win = locate_windows(leaf_l, leaf_r, leaf_mass, xs, x1)
        sel = win.hit
        # the map is elementwise, so a mapped leaf end has the image tree's bits
        lo = np.maximum(img_l[win.j0[sel]], qsmap.apply(np.maximum(xs[sel], leaf_l[0])))
        hi = np.minimum(qsmap.apply(leaf_r[win.j1[sel]]),
                        qsmap.apply(np.minimum(x1[sel], leaf_r[-1])))
        windows.append((win, np.maximum(hi - lo, 0.0)))
    del leaf_r
    prefix = np.cumsum(leaf_mass, out=leaf_mass)
    del leaf_mass

    interval_c = np.full(len(top), np.nan)
    ball_c = np.full(len(top), np.nan)
    for ti, ((win, span), ball, r) in enumerate(zip(windows, balls, radii)):
        if np.any(win.hit):
            good = span > 0
            ratios = win.masses(prefix)[win.hit][good] / span[good] ** d
            interval_c[ti] = float(np.max(ratios)) if len(ratios) else np.nan
        # ball scan on the image side at the matching image scale
        if np.any(ball.hit):
            ball_c[ti] = float(np.max(ball.masses(prefix)[ball.hit])) / r ** d

    interval_ok = _stability(interval_c, STABILITY_FACTOR * 2.0)
    ball_ok = _stability(ball_c, STABILITY_FACTOR * 2.0)
    finite_balls = ball_c[np.isfinite(ball_c)]
    worst_ball = float(np.max(finite_balls)) if len(finite_balls) else math.inf

    return CertificateReport(
        passed=bool(growth_ok and interval_ok and ball_ok),
        C_growth=c_growth,
        level_growth=level_growth,
        worst_ball_ratio=worst_ball,
        growth_ok=growth_ok,
        interval_ok=interval_ok,
        ball_ok=ball_ok,
        p_max=p_max,
    )
