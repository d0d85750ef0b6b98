"""Box counting, window masses and mass distribution certificates.

Counting uses half-open grid boxes, which shifts covering numbers by at most
a bounded factor and leaves the fitted scaling exponent unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from confdim.cantor import IntervalLevel


@dataclass
class BoxCountResult:
    scales: np.ndarray
    counts: np.ndarray
    fitted_slope: float
    residual: float


@dataclass
class DiscreteMeasure:
    """Nonnegative masses on atoms, sorted by point once, with their prefix sum."""

    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        order = np.argsort(np.asarray(self.points, dtype=float), kind="stable")
        self.points = np.asarray(self.points, dtype=float)[order]
        self.masses = np.asarray(self.masses, dtype=float)[order]
        if np.any(self.masses < 0):
            raise ValueError("masses must be nonnegative")
        self._csum = np.concatenate([[0.0], np.cumsum(self.masses)])

    def window_mass(self, x0: float, x1: float) -> float:
        """Mass of the atoms in [x0, x1]."""
        return float(self.window_masses([x0], [x1])[0])

    def window_masses(self, x0s, x1s) -> np.ndarray:
        """Masses of the windows [x0s[i], x1s[i]], a difference of two prefix sums."""
        k0 = np.searchsorted(self.points, x0s, side="left")
        k1 = np.maximum(k0, np.searchsorted(self.points, x1s, side="right"))
        return self._csum[k1] - self._csum[k0]


def sorted_search(ends, xs, side: str) -> np.ndarray:
    """``np.searchsorted(ends, xs, side)`` over sorted ends that need not be stored.

    An array goes to ``np.searchsorted``.  Anything else needs ``len`` and
    must map an index array to the ends there, as an ImageLevel's do.  The
    search then takes two levels.  ``np.searchsorted`` over every b-th end,
    b the power of two at or above len(ends) / len(xs), so that this sample
    is no larger than the probes, finds each x's block of b ends; a
    bisection of log2(b) steps finds it inside the block.  It forms at most
    len(xs) (1 + log2(b)) ends and returns what ``np.searchsorted`` returns
    on the materialized ends.
    """
    if isinstance(ends, np.ndarray):
        return np.searchsorted(ends, xs, side=side)
    xs = np.asarray(xs, dtype=float)
    n = len(ends)
    b = 1 << (-(-n // max(xs.size, 1)) - 1).bit_length() if n else 1
    k = np.searchsorted(ends[np.arange(0, n, b)], xs, side=side)
    # ends[pos] falls before x and ends[pos + b] does not, so the bisection moves pos to
    # the last end before x, and the answer is pos + 1; the last block may be short
    # (k = 0: no end falls before x, and the answer is 0)
    pos = np.maximum(k - 1, 0) * b
    step = b // 2
    while step:
        at = pos + step
        e = ends[np.minimum(at, n - 1)]
        before = e < xs if side == "left" else e <= xs
        pos += np.where(before & (at < n), step, 0)
        step //= 2
    return np.where(k > 0, pos + 1, 0)


@dataclass
class WindowLocation:
    """Windows [x0s[i], x1s[i]] located among sorted intervals: the first step of the window rule.

    Intervals j0 (the first with right >= x0) .. j1 (the last with left <= x1)
    meet a window where ``hit`` (j1 >= j0); ``first`` and ``last`` hold the
    (left, right) ends of intervals j0 and j1 at the hits.
    """

    x0s: np.ndarray
    x1s: np.ndarray
    j0: np.ndarray
    j1: np.ndarray
    hit: np.ndarray
    first: tuple
    last: tuple

    @property
    def reads(self) -> np.ndarray:
        """The interval indices at which the second step reads masses or the prefix sum."""
        a, b = self.j0[self.hit], self.j1[self.hit]
        return np.concatenate([a, b, np.maximum(a - 1, 0)])

    def masses(self, prefix, masses) -> np.ndarray:
        """The window masses over the masses and their inclusive prefix sum: arrays,
        or anything that maps the index arrays of ``reads`` to the values there."""
        a, b = self.j0[self.hit], self.j1[self.hit]
        return self._rule(a, b, prefix[b] - np.where(a > 0, prefix[np.maximum(a - 1, 0)], 0.0),
                          masses[a], masses[b])

    def equal_masses(self, mass: float) -> np.ndarray:
        """The window masses when every interval has mass ``mass``: interval j's
        prefix sum is (j + 1) mass, exact when ``mass`` is a power of two."""
        a, b = self.j0[self.hit], self.j1[self.hit]
        return self._rule(a, b, (b + 1) * mass - a * mass, mass, mass)

    def _rule(self, a, b, inner, mass_a, mass_b) -> np.ndarray:
        """The second step, from ``inner``, the mass of intervals j0 .. j1 of each hit:
        boundary intervals count by their overlap with the window, and a window that
        meets none, or only touches interval ends, gets 0 (not a rounding residue)."""
        hit = self.hit
        x0, x1 = self.x0s[hit], self.x1s[hit]

        def inside(ends):
            l, r = ends
            return np.clip((np.minimum(r, x1) - np.maximum(l, x0)) / (r - l), 0.0, 1.0)

        f0, f1 = inside(self.first), inside(self.last)
        m = inner - mass_a * (1.0 - f0)
        m -= np.where(a == b, 0.0, mass_b * (1.0 - f1))
        mu = np.zeros(self.j0.shape)
        mu[hit] = np.where((b - a <= 1) & (f0 == 0.0) & (f1 == 0.0), 0.0, m)
        return mu


def locate_windows(lefts, rights, x0s, x1s) -> WindowLocation:
    """Locate the windows [x0s[i], x1s[i]] over sorted, disjoint intervals.

    The package's one window rule is this step and `WindowLocation.masses` or
    `equal_masses`; the mass-bound scan takes the step's answers from the
    level itself (see `mass_distribution_lower_bound`).  Both ends must be
    sorted, and intervals of positive length may touch or overlap by
    rounding.  The ends go through `sorted_search`, so they may be an
    ImageLevel's.
    """
    x0s = np.asarray(x0s, dtype=float)
    x1s = np.asarray(x1s, dtype=float)
    j1 = sorted_search(lefts, x1s, side="right") - 1
    j0 = sorted_search(rights, x0s, side="left")
    hit = j1 >= j0
    a, b = j0[hit], j1[hit]
    return WindowLocation(x0s=x0s, x1s=x1s, j0=j0, j1=j1, hit=hit,
                          first=(lefts[a], rights[a]), last=(lefts[b], rights[b]))


class _Sweep:
    """Sorted searches over one side of a level's ends, reading the level forward:
    each ``search`` takes sorted points at or above all points searched before, so
    the answers never move back and each block of the level is formed once."""

    def __init__(self, level: IntervalLevel, right: bool):
        self.count, self.right, self.length = level.count, right, np.exp(level.log_length)
        self.blocks, self.before = level.blocks(), np.nan
        self.start, self.lefts = next(self.blocks)

    def search(self, xs: np.ndarray) -> tuple:
        """(j, lefts[j]) per point x, as `locate_windows` finds j0 if ``right`` (the first
        interval with right >= x), else j1 (the last with left <= x), j inside the level."""
        j, lefts, done = np.empty(len(xs), dtype=np.intp), np.empty(len(xs)), 0
        while True:
            ends = self.lefts + self.length if self.right else self.lefts
            k = np.searchsorted(ends, xs[done:], side="left" if self.right else "right")
            last = self.start + len(ends) == self.count
            n = len(k) if last else int(np.searchsorted(k, len(ends)))
            at = k[:n] if self.right else k[:n] - 1
            j[done:done + n] = self.start + at
            # j1 = start - 1 where x lies past the last left end of the block before
            lefts[done:done + n] = np.where(at < 0, self.before, self.lefts[at])
            done += n
            if done == len(xs):
                return j, lefts
            self.before = self.lefts[-1]
            self.start, self.lefts = next(self.blocks)


def _blocks(data):
    """(lefts, rights) of sorted intervals: a level's block by block, else all at once."""
    if isinstance(data, IntervalLevel):
        return ((x, x + np.exp(data.log_length)) for _, x in data.blocks())
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:  # point sample
        arr = np.column_stack([arr, arr])
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) == 0:
        raise ValueError("expected IntervalLevel, points, or (n,2) intervals, not empty")
    arr = arr[np.argsort(arr[:, 0])]
    return [(arr[:, 0], arr[:, 1])]


def box_count(data, epsilons: Sequence[float]) -> BoxCountResult:
    """Count grid boxes [k*eps, (k+1)*eps) meeting a union of intervals.

    A closed interval [l, r] is charged the boxes floor(l/eps) ..
    ceil(r/eps)-1 so that grid-aligned intervals occupy exactly their own
    boxes; a level is read in blocks, the highest box counted carried per eps.
    The least-squares slope of log N against log(1/eps) is returned.
    """
    epsilons = np.asarray(list(epsilons), dtype=float)
    if np.any(epsilons <= 0):
        raise ValueError("epsilons must be positive")
    counts = np.zeros(len(epsilons), dtype=np.int64)
    top = np.full(len(epsilons), np.iinfo(np.int64).min)  # per eps, the highest box counted
    snap = 1e-9  # tolerate float jitter of endpoints sitting on box boundaries
    for lefts, rights in _blocks(data):
        for i, eps in enumerate(epsilons):
            lq = lefts / eps
            rq = rights / eps
            k0 = np.floor(lq + snap * np.maximum(1.0, np.abs(lq))).astype(np.int64)
            k1 = np.ceil(rq - snap * np.maximum(1.0, np.abs(rq))).astype(np.int64) - 1
            k1 = np.maximum(k0, k1)
            # intervals are sorted, so dedupe against the running max box index
            prev = np.maximum.accumulate(np.concatenate([top[i:i + 1], k1[:-1]]))
            start = np.maximum(k0, prev + 1)
            counts[i] += int(np.sum(np.maximum(0, k1 - start + 1)))
            top[i] = max(prev[-1], k1[-1])

    logs = np.log(1.0 / epsilons)
    logn = np.log(counts.astype(float))
    if len(epsilons) >= 2 and np.ptp(logs) > 0:
        coeffs = np.polyfit(logs, logn, 1)
        slope = float(coeffs[0])
        residual = float(np.sqrt(np.mean((np.polyval(coeffs, logs) - logn) ** 2)))
    else:
        slope, residual = 0.0, 0.0
    return BoxCountResult(
        scales=epsilons, counts=counts, fitted_slope=slope, residual=residual
    )


# the most negative log-log slope of the per-scale constant that still passes
MASS_BOUND_SLOPE_TOL = 0.02


@dataclass
class MassBoundReport:
    """Finite-scale certificate 'dim_H >= d with constant C at tested scales'.

    ``per_scale_C`` holds, per test scale r, the largest mu([x, x + r]) / r^d
    over all x.
    """

    d: float
    C_observed: float
    per_scale_C: np.ndarray  # per test scale, largest first
    slope: float
    passed: bool


def mass_distribution_lower_bound(
    level: IntervalLevel,
    d: float,
    test_scales: Sequence[float],
) -> MassBoundReport:
    """Bound mu([x, x + r]) / r^d over all x, exactly, at each test scale r.

    mu is the level's natural measure, mass 1 / count spread uniformly on
    every interval, so x -> mu([x, x + r]) is piecewise linear and upper
    semicontinuous, and its maximum lies at a window [l, l + r] from a left
    end l or [e - r, e] up to a right end e: 2N candidate windows per scale
    for N intervals, swept a block at a time.  Neighbours overlap by rounding
    only, so a window's own end lies in its interval or the neighbour there,
    and a `_Sweep` per window kind locates the far ends.  Passes when the
    per-scale constant does not diverge as r shrinks (log-log slope >=
    -MASS_BOUND_SLOPE_TOL).
    """
    if not (0.0 < d <= 1.0):
        raise ValueError("d must be in (0, 1]")
    scales = np.asarray(sorted(test_scales, reverse=True), dtype=float)
    if np.any(scales <= 0):
        raise ValueError("test scales must be positive")

    mass, length = 1.0 / level.count, np.exp(level.log_length)
    per_scale = np.empty(len(scales))
    for i, r in enumerate(scales):
        top, before = 0.0, -np.inf
        ahead, behind = _Sweep(level, right=False), _Sweep(level, right=True)
        for start, lefts in level.blocks():
            # neighbours (l_{j-1}, l_j), -inf before the first interval and +inf after the last
            x = np.concatenate([[before], lefts, [np.inf] * (start + len(lefts) == level.count)])
            before, prev, cur = lefts[-1], x[:-1], x[1:]
            ends, j = prev + length, np.arange(start, start + len(cur))
            reach = ends >= cur  # interval j - 1 reaches l_j
            far1, far0 = cur + r, ends - r
            # [l_j, l_j + r] starts in j - reach; [e_{j-1} - r, e_{j-1}] ends in j - 1 + reach
            for x0s, x1s, j0, a, j1, b in (
                    (cur, far1, j - reach, np.where(reach, prev, cur), *ahead.search(far1)),
                    (far0, ends, *behind.search(far0), j - 1 + reach, np.where(reach, cur, prev))):
                hit = j1 >= j0
                a, b = a[hit], b[hit]
                loc = WindowLocation(x0s=x0s, x1s=x1s, j0=j0, j1=j1, hit=hit,
                                     first=(a, a + length), last=(b, b + length))
                top = max(top, float(np.max(loc.equal_masses(mass))))
        per_scale[i] = top / r ** d

    logs = np.log(scales)
    logc = np.log(np.maximum(per_scale, 1e-300))
    if len(scales) >= 2 and np.ptp(logs) > 0:
        slope = float(np.polyfit(logs, logc, 1)[0])
    else:
        slope = 0.0
    c_obs = float(np.max(per_scale))
    passed = bool(math.isfinite(c_obs) and slope >= -MASS_BOUND_SLOPE_TOL)
    return MassBoundReport(
        d=d, C_observed=c_obs, per_scale_C=per_scale, slope=slope, passed=passed,
    )
