"""Recursive measures on quasisymmetric images of binary Cantor systems.

The image of every interval gets mass split between its two children in
proportion to diam^d; the per-generation factors

    p_i = (diam I + dist(I, I') + diam I')^d / (diam^d I + diam^d I')

control the growth ratio mu(I) / diam^d I.  A certificate checks, at finite
scale, that the measure satisfies mu <= C diam^d on nodes, on arbitrary
intervals and on balls of the image.

The measure is built level by level in blocks of PAIR_BLOCK sibling pairs, so
its temporaries stay cache-sized; each node's bits are those of a whole-level pass.
Siblings share one path product, kept once per pair; the certificate frees
the upper levels' masses and images before its leaf-sized scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from confdim.cantor import MIDDLE_INTERVAL, CantorSystem
from confdim.dimension import sorted_window_masses
from confdim.qsmaps import ImageLevel, QsMap, push_intervals

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

    Only the leaves' left ends are mapped; upper levels view them, as in the domain.
    """
    if system.gaps.kind != MIDDLE_INTERVAL:
        raise ValueError("recursive measure machinery assumes binary systems")
    leaves = push_intervals(qsmap, system.levels[-1])
    tree = [ImageLevel(depth=lv.depth, lefts=leaves.lefts[::leaves.count // lv.count],
                       rights=qsmap.apply(lv.rights), branching=lv.branching)
            for lv in system.levels[:-1]] + [leaves]
    for lv in tree[1:]:
        if np.any(lv.rights <= lv.lefts):
            raise ValueError(f"zero-diameter node at depth {lv.depth}")
    return tree


@dataclass
class RecursiveMeasure:
    d: float
    masses: list              # per level, array of node masses, root mass 1
    level_growth: np.ndarray  # per level, max mu/diam^d over its nodes
    p_max: np.ndarray         # per level >= 1, max p_i over its sibling pairs


def build_recursive_measure(tree: list, d: float) -> RecursiveMeasure:
    """Assign masses by the diam^d proportional split, tracking p_i maxima."""
    if not (0.0 < d < 1.0):
        raise ValueError("d must be in (0, 1)")
    if len(tree) < 2:
        raise ValueError("tree depth must be >= 1")
    masses = [np.array([1.0])]
    prod = np.array([1.0])  # prod of p_i along the root-to-node path, one per sibling pair
    p_max = []
    growth = [float(np.max(masses[0] / tree[0].diams ** d))]
    for lv in tree[1:]:
        parent_mass, parent_prod = masses[-1], prod
        pairs = len(parent_mass)
        if lv.count != 2 * pairs:
            raise ValueError(f"level {lv.depth} is not binary")
        child, prod = np.empty(lv.count), np.empty(pairs)
        p_top = growth_top = -np.inf
        for j0 in range(0, pairs, PAIR_BLOCK):
            j1 = min(j0 + PAIR_BLOCK, pairs)
            lefts, rights = lv.lefts[2 * j0:2 * j1], lv.rights[2 * j0:2 * j1]
            diams = rights - lefts
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
            mass = child[2 * j0:2 * j1]
            mass[0::2] = np.where(left_is_small, small, big)
            mass[1::2] = np.where(left_is_small, big, small)
            p = (dl + gap + dr) ** d / denom
            # parent node j is in the parent level's sibling pair j // 2
            path = prod[j0:j1]
            np.multiply(parent_prod[np.arange(j0, j1) // 2], p, out=path)
            # the path-product bound mu(I)/diam^d <= prod p_i must hold exactly
            ratio = mass / w
            if np.any(np.maximum(ratio[0::2], ratio[1::2]) > path * (1.0 + _REL_TOL)):
                raise AssertionError("path-product bound violated beyond tolerance")
            p_top = np.maximum(p_top, np.max(p))
            growth_top = np.maximum(growth_top, np.max(ratio))
        masses.append(child)
        p_max.append(float(p_top))
        growth.append(float(growth_top))
    return RecursiveMeasure(d=d, masses=masses, level_growth=np.array(growth),
                            p_max=np.array(p_max))


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
    # each step frees what it leaves behind before the next leaf-sized temporary:
    # the upper masses, then the upper image levels once their ball radii are known
    leaf_mass, level_growth, p_max = measure.masses[depth], measure.level_growth, measure.p_max
    del measure
    top = np.arange((depth + 1) // 2, depth + 1)
    radii = [float(np.median(tree[n].diams, overwrite_input=True)) for n in top]
    img = tree[depth]
    del tree

    growth_ok = _stability(level_growth[top], STABILITY_FACTOR)
    c_growth = float(np.max(level_growth[top]))

    # leaf aggregates for the window / ball scans
    leaves = system.level(depth)
    leaf_l, leaf_r = leaves.lefts, leaves.rights
    img_l, img_r = img.lefts, img.rights
    csum = np.zeros(len(leaf_mass) + 1)
    np.cumsum(leaf_mass, out=csum[1:])
    centers = _ball_centers(img_l, img_r, MAX_WINDOWS)

    interval_c = np.full(len(top), np.nan)
    ball_c = np.full(len(top), np.nan)

    for ti, (n, r) in enumerate(zip(top, radii)):
        scale = float(np.exp(system.level(n).log_length))
        step = max(scale / 2.0, 1.0 / MAX_WINDOWS)
        xs = np.arange(leaf_l[0] - scale / 2.0, leaf_r[-1] + step, step)
        x1 = xs + scale
        # boundary leaves count proportionally to their overlap with the
        # window, else the finest scanned scale overstates the constant
        mu, j0, j1 = sorted_window_masses(leaf_l, leaf_r, leaf_mass, csum, xs, x1)
        sel = j1 >= j0
        if not np.any(sel):
            continue
        mu = mu[sel]
        lo = np.maximum(img_l[j0[sel]], qsmap.apply(np.maximum(xs[sel], leaf_l[0])))
        hi = np.minimum(img_r[j1[sel]], qsmap.apply(np.minimum(x1[sel], leaf_r[-1])))
        span = np.maximum(hi - lo, 0.0)
        good = span > 0
        ratios = mu[good] / span[good] ** d
        interval_c[ti] = float(np.max(ratios)) if len(ratios) else np.nan

        # ball scan on the image side at the matching image scale
        mu_b, k0, k1 = sorted_window_masses(img_l, img_r, leaf_mass, csum,
                                            centers - r, centers + r)
        hit = k1 >= k0
        if np.any(hit):
            ball_c[ti] = float(np.max(mu_b[hit])) / r ** d

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
