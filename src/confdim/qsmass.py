"""Recursive measures on quasisymmetric images of binary Cantor systems.

The image of every interval gets mass split between its two children in
proportion to diam^d; the per-generation factors

    p_i = (diam I + dist(I, I') + diam I')^d / (diam^d I + diam^d I')

control the growth ratio mu(I) / diam^d I.  A certificate checks, at finite
scale, that the measure satisfies mu <= C diam^d on nodes, on arbitrary
intervals (via a two-interval decomposition) and on balls of the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from confdim.cantor import MIDDLE_INTERVAL, CantorSystem, GapSequence
from confdim.dimension import sorted_window_masses
from confdim.qsmaps import EtaModulus, ImageLevel, QsMap, push_intervals

_REL_TOL = 1e-9


@dataclass
class ImageTree:
    """Binary tree of image interval diameters and sibling gaps."""

    levels: list  # ImageLevel per depth

    def __post_init__(self):
        for lv in self.levels[1:]:
            if np.any(lv.diams <= 0):
                raise ValueError(f"zero-diameter node at depth {lv.depth}")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def build_image_tree(system: CantorSystem, qsmap: QsMap, depth: Optional[int] = None) -> ImageTree:
    if system.gaps.kind != MIDDLE_INTERVAL:
        raise ValueError("recursive measure machinery assumes binary systems")
    depth = system.max_depth if depth is None else depth
    return ImageTree(levels=[push_intervals(qsmap, system.level(n)) for n in range(depth + 1)])


@dataclass
class RecursiveMeasure:
    d: float
    masses: list           # per level, array of node masses, root mass 1
    p_pairs: list          # per level >= 1, array of p_i per sibling pair
    running_products: list  # per level, prod of p_i along the root-to-node path
    tree: ImageTree
    level_growth: np.ndarray  # per level, max mu/diam^d over its nodes

    @property
    def depth(self) -> int:
        return len(self.masses) - 1


def build_recursive_measure(tree: ImageTree, d: float) -> RecursiveMeasure:
    """Assign masses by the diam^d proportional split, tracking p_i factors."""
    if not (0.0 < d < 1.0):
        raise ValueError("d must be in (0, 1)")
    if tree.depth < 1:
        raise ValueError("tree depth must be >= 1")
    masses = [np.array([1.0])]
    p_pairs = [np.array([])]
    prods = [np.array([1.0])]
    growth = [float(np.max(masses[0] / tree.levels[0].diams ** d))]
    for n in range(1, tree.depth + 1):
        lv = tree.levels[n]
        diams = lv.diams
        dl, dr = diams[0::2], diams[1::2]
        gap = lv.sibling_gaps()
        w = diams ** d
        wl, wr = w[0::2], w[1::2]
        denom = wl + wr
        parent_mass = masses[n - 1]
        child = np.empty(lv.count)
        # Sterbenz two-step: the larger child lands in [parent/2, parent], so
        # the final complement is exact and siblings sum to the parent bitwise
        small0 = parent_mass * np.minimum(wl, wr) / denom
        big = parent_mass - small0
        small = parent_mass - big
        left_is_small = wl <= wr
        child[0::2] = np.where(left_is_small, small, big)
        child[1::2] = np.where(left_is_small, big, small)
        p = (dl + gap + dr) ** d / denom
        prod = np.repeat(prods[n - 1] * p, 2)
        masses.append(child)
        p_pairs.append(p)
        prods.append(prod)
        # the path-product bound mu(I)/diam^d <= prod p_i must hold exactly
        ratio = child / w
        if np.any(ratio > prod * (1.0 + _REL_TOL)):
            raise AssertionError("path-product bound violated beyond tolerance")
        growth.append(float(np.max(ratio)))
    return RecursiveMeasure(d=d, masses=masses, p_pairs=p_pairs,
                            running_products=prods, tree=tree,
                            level_growth=np.array(growth))


@dataclass
class PiFactors:
    p: np.ndarray
    running_products: np.ndarray


def pi_factors(measure: RecursiveMeasure, level: Optional[int] = None,
               leaf_index: Optional[int] = None) -> PiFactors:
    """p_i per generation, either the level maxima or along one leaf path."""
    depth = level if level is not None else measure.depth
    if leaf_index is None:
        p = np.array([float(np.max(measure.p_pairs[n])) for n in range(1, depth + 1)])
    else:
        p = []
        idx = leaf_index
        for n in range(depth, 0, -1):
            p.append(float(measure.p_pairs[n][idx // 2]))
            idx = int(measure.tree.levels[n].parent_index[idx])
        p = np.array(p[::-1])
    return PiFactors(p=p, running_products=np.cumprod(p))


@dataclass
class GapPartition:
    """Small-gaps / large-gaps constants for a power gauge eta.

    Small gaps: c_i < a_star implies p_i <= C1 < 1.
    Large gaps: p_i <= C2 / (1 - c_i)^exponent for every i, exponent = d*K.
    """

    a_star: Optional[float]
    C1: Optional[float]
    C2: float
    exponent: float
    small_set: np.ndarray
    D: float
    C4: float


def gap_partition(
    gaps: GapSequence,
    eta: EtaModulus,
    d: float,
    M: float = 1.0,
    a_max: float = 0.5,
    grid_size: int = 4096,
) -> GapPartition:
    if eta.kind == "identity":
        eta = EtaModulus.power(1.0, 1.0)
    if eta.kind != "power":
        raise ValueError("gap partition needs a power-form eta")
    C, K = eta.C, eta.K

    D = 2.0 * eta(2.0 * (1.0 + M))
    # (1+x^d)/(1+x)^d is symmetric under x -> 1/x and minimal at the endpoints
    C4 = (1.0 + D ** d) / (1.0 + D) ** d

    a_grid = np.linspace(a_max / grid_size, a_max, grid_size)
    vals = eta(2.0 * a_grid)
    ok = (vals < 1.0) & (C4 * (1.0 - vals) ** d > 1.0)
    if np.any(ok):
        a_star = float(a_grid[np.where(ok)[0][-1]])
        C1 = float(1.0 / (C4 * (1.0 - eta(2.0 * a_star)) ** d))
    else:
        a_star, C1 = None, None

    exponent = d * K
    C2 = (3.0 ** d / 2.0) * C ** d * (1.0 + M) ** exponent
    cs = np.asarray(gaps.values)
    small = np.where(cs < a_star)[0] if a_star is not None else np.array([], dtype=int)
    return GapPartition(a_star=a_star, C1=C1, C2=C2, exponent=exponent,
                        small_set=small, D=D, C4=C4)


# ---------------------------------------------------------------------------
# Growth certificate


def _find_maximal_nodes(system: CantorSystem, j_lo: float, j_hi: float) -> list:
    """Nodes contained in J whose parent is not: the collection of the
    two-interval decomposition argument."""
    out = []
    stack = [(0, 0)]
    levels = system.levels
    while stack:
        depth, idx = stack.pop()
        lv = levels[depth]
        a = lv.lefts[idx]
        b = a + math.exp(lv.log_lengths[idx])
        if a >= j_lo and b <= j_hi:
            out.append((depth, idx))
            continue
        if b < j_lo or a > j_hi or depth == len(levels) - 1:
            continue
        stack.append((depth + 1, 2 * idx))
        stack.append((depth + 1, 2 * idx + 1))
    return out


def _endpoints(level, i):
    """(left, right) of interval i, without forming the whole level's rights."""
    a = level.lefts[i]
    return a, a + np.exp(level.log_lengths[i])


@dataclass
class DecompositionCheck:
    windows_checked: int = 0
    cover_ok: int = 0
    mass_bound_ok: int = 0
    dilation_ok: int = 0


def _check_decomposition(system, measure, j_lo, j_hi, mu_direct, report, M):
    """Verify the two-interval covering argument on one window J."""
    nodes = _find_maximal_nodes(system, j_lo, j_hi)
    report.windows_checked += 1
    if not nodes:
        # J intersects at most one leaf partially; nothing to decompose
        report.cover_ok += 1
        report.mass_bound_ok += 1
        report.dilation_ok += 1
        return
    levels = system.levels

    def parent_span(depth, idx):
        if depth == 0:
            return _endpoints(levels[0], 0)
        return _endpoints(levels[depth - 1], int(levels[depth].parent_index[idx]))

    def inside(node, lo, hi, slack=0.0):
        a, b = _endpoints(levels[node[0]], node[1])
        return a >= lo - slack and b <= hi + slack

    nodes.sort(key=lambda n: parent_span(*n)[1] - parent_span(*n)[0], reverse=True)
    e1 = nodes[0]
    p1_lo, p1_hi = parent_span(*e1)
    rest = [n for n in nodes[1:] if not inside(n, p1_lo, p1_hi)]
    e2 = rest[0] if rest else None
    spans = [(p1_lo, p1_hi)]
    if e2 is not None:
        spans.append(parent_span(*e2))

    cover = all(any(inside(n, lo, hi, 1e-12) for lo, hi in spans) for n in nodes)
    report.cover_ok += cover

    bound = 0.0
    dil_lo = j_lo - (2 * M - 1) * (j_hi - j_lo) / 2.0
    dil_hi = j_hi + (2 * M - 1) * (j_hi - j_lo) / 2.0
    dilation_ok = True
    for node in ([e1, e2] if e2 is not None else [e1]):
        depth, idx = node
        if depth == 0:
            bound = 1.0
            break
        sib = idx ^ 1
        bound += measure.masses[depth][idx]
        s_lo, s_hi = _endpoints(levels[depth], sib)
        if s_hi >= j_lo and s_lo <= j_hi:  # sibling meets J
            bound += measure.masses[depth][sib]
            if not (s_lo >= dil_lo - 1e-12 and s_hi <= dil_hi + 1e-12):
                dilation_ok = False
    report.mass_bound_ok += mu_direct <= bound + 1e-12
    report.dilation_ok += dilation_ok


@dataclass
class CertificateReport:
    """Finite-scale growth certificate at exponent d.

    Constants are 'stable' when their max/min over the top half of the
    built depths stays below the stability factor.
    """

    passed: bool
    d: float
    depth: int
    C_growth: float
    level_growth: np.ndarray        # max mu/diam^d per depth (index = depth)
    interval_constants: np.ndarray  # window-scan constant per scanned depth
    ball_constants: np.ndarray      # ball-scan constant per scanned depth
    worst_ball_ratio: float
    growth_ok: bool
    interval_ok: bool
    ball_ok: bool
    decomposition: DecompositionCheck
    scanned_depths: np.ndarray
    pi_factors: PiFactors           # level maxima of p_i of the certified measure


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


def certificate(
    system: CantorSystem,
    qsmap: QsMap,
    d: float,
    depth: Optional[int] = None,
    stability_factor: float = 2.0,
    max_windows: int = 512,
    decomposition_samples: int = 32,
) -> CertificateReport:
    """Check mu <= C diam^d on nodes, windows and balls of the image."""
    depth = system.max_depth if depth is None else depth
    tree = build_image_tree(system, qsmap, depth)
    measure = build_recursive_measure(tree, d)

    level_growth = measure.level_growth
    top = np.arange((depth + 1) // 2, depth + 1)
    growth_ok = _stability(level_growth[top], stability_factor)
    c_growth = float(np.max(level_growth[top]))

    # leaf aggregates for the window / ball scans
    leaves = system.level(depth)
    leaf_l, leaf_r = leaves.lefts, leaves.rights
    img = tree.levels[depth]
    img_l, img_r = img.lefts, img.rights
    leaf_mass = measure.masses[depth]
    csum = np.concatenate([[0.0], np.cumsum(leaf_mass)])
    centers = _ball_centers(img_l, img_r, max_windows)

    decomp = DecompositionCheck()
    interval_c = np.full(len(top), np.nan)
    ball_c = np.full(len(top), np.nan)
    rng = np.random.default_rng(12345)

    for ti, n in enumerate(top):
        scale = float(np.exp(np.max(system.level(n).log_lengths)))
        step = max(scale / 2.0, 1.0 / max_windows)
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

        # literal two-interval decomposition on a sample of windows
        if ti == len(top) - 1:
            pick = rng.choice(np.where(sel)[0], size=min(decomposition_samples,
                                                         int(np.sum(sel))), replace=False)
            mu_all = csum[j1 + 1] - csum[j0]
            for k in pick:
                _check_decomposition(system, measure, float(xs[k]), float(x1[k]),
                                     float(mu_all[k]), decomp, system.ratio_bound)

        # ball scan on the image side at the matching image scale
        r = float(np.median(tree.levels[n].diams))
        mu_b, k0, k1 = sorted_window_masses(img_l, img_r, leaf_mass, csum,
                                            centers - r, centers + r)
        hit = k1 >= k0
        if np.any(hit):
            ball_c[ti] = float(np.max(mu_b[hit])) / r ** d

    interval_ok = _stability(interval_c, stability_factor * 2.0)
    ball_ok = _stability(ball_c, stability_factor * 2.0)
    finite_balls = ball_c[np.isfinite(ball_c)]
    worst_ball = float(np.max(finite_balls)) if len(finite_balls) else math.inf

    return CertificateReport(
        passed=bool(growth_ok and interval_ok and ball_ok),
        d=d,
        depth=depth,
        C_growth=c_growth,
        level_growth=level_growth,
        interval_constants=interval_c,
        ball_constants=ball_c,
        worst_ball_ratio=worst_ball,
        growth_ok=growth_ok,
        interval_ok=interval_ok,
        ball_ok=ball_ok,
        decomposition=decomp,
        scanned_depths=top,
        pi_factors=pi_factors(measure),
    )
