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

# leaves per block of a level read by box_count and the mass-bound scan, whose
# block and its temporaries trace 0.74 MiB (1.46 MiB at 2^13, no faster)
SCAN_CHUNK = 2 ** 12


@dataclass
class BoxCountResult:
    scales: np.ndarray
    counts: np.ndarray
    fitted_slope: float
    residual: float


@dataclass
class DiscreteMeasure:
    """Nonnegative masses on intervals and on atoms (left == right).

    Mass is treated as uniformly spread inside each interval when windows
    overlap an interval partially.  Sorted by left end, the intervals must
    have non-decreasing right ends, and neighbours may overlap by at most
    1e-12 (rounding), as `locate_windows` needs.  Atoms may lie
    anywhere, inside intervals too.
    """

    lefts: np.ndarray
    rights: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.lefts = np.asarray(self.lefts, dtype=float)
        self.rights = np.asarray(self.rights, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if np.any(self.masses < 0):
            raise ValueError("masses must be nonnegative")
        if np.any(self.rights < self.lefts):
            raise ValueError("intervals must have right >= left")
        # the intervals and the atoms apart, each sorted, with its prefix sum
        order = np.argsort(self.lefts, kind="stable")
        lefts, rights, masses = self.lefts[order], self.rights[order], self.masses[order]
        atom = lefts == rights
        self._lefts, self._rights, self._masses = lefts[~atom], rights[~atom], masses[~atom]
        overlap = self._rights[:-1] - self._lefts[1:]
        if np.any(np.diff(self._rights) < 0) or np.any(overlap > 1e-12):
            raise ValueError("intervals sorted by left end must have non-decreasing right ends "
                             "and overlap by at most 1e-12")
        self._prefix = np.cumsum(self._masses)
        self._atoms = lefts[atom]
        self._atom_csum = np.concatenate([[0.0], np.cumsum(masses[atom])])

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def window_mass(self, x0: float, x1: float) -> float:
        """Mass of [x0, x1], proportional overlap inside intervals."""
        return float(self.window_masses([x0], [x1])[0])

    def window_masses(self, x0s, x1s) -> np.ndarray:
        """Masses of the windows [x0s[i], x1s[i]], as `window_mass` gives them.

        The intervals go through `locate_windows`; the atoms in a window
        are a prefix-sum difference between two sorted searches.
        """
        x0s = np.asarray(x0s, dtype=float).ravel()
        x1s = np.asarray(x1s, dtype=float).ravel()
        mu = locate_windows(self._lefts, self._rights, x0s, x1s).masses(self._prefix, self._masses)
        k0 = np.searchsorted(self._atoms, x0s, side="left")
        k1 = np.maximum(k0, np.searchsorted(self._atoms, x1s, side="right"))
        return mu + (self._atom_csum[k1] - self._atom_csum[k0])


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

    The package's one window rule is this step (`_Sweep` in the mass-bound
    scan) and `WindowLocation.masses` or `equal_masses`.  Both ends must be
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
        self.blocks, self.before = level.blocks(SCAN_CHUNK), -np.inf
        self.start, self.lefts = next(self.blocks)

    def search(self, xs: np.ndarray) -> tuple:
        """(j, lefts[j]) per point x, as `locate_windows` finds j0 if ``right``
        (the first interval with right >= x), else j1 (the last with left <= x)."""
        j, lefts, done = np.empty(len(xs), dtype=np.intp), np.empty(len(xs)), 0
        while True:
            ends = self.lefts + self.length if self.right else self.lefts
            k = np.searchsorted(ends, xs[done:], side="left" if self.right else "right")
            last = self.start + len(ends) == self.count
            n = len(k) if last else int(np.searchsorted(k, len(ends)))
            at = k[:n] if self.right else k[:n] - 1
            j[done:done + n] = self.start + at
            # j0 = count and j1 = -1 hit nothing, and their ends are never read
            lefts[done:done + n] = np.where(at < 0, self.before,
                                            self.lefts[np.minimum(at, len(ends) - 1)])
            done += n
            if done == len(xs):
                return j, lefts
            self.before = self.lefts[-1]
            self.start, self.lefts = next(self.blocks)


def _blocks(data):
    """(lefts, rights) of sorted intervals: a level's SCAN_CHUNK at a time, else all at once."""
    if isinstance(data, IntervalLevel):
        return ((x, x + np.exp(data.log_length)) for _, x in data.blocks(SCAN_CHUNK))
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
    for N intervals, swept SCAN_CHUNK intervals at a time, their far ends
    located by `_Sweep`s.  Passes when the per-scale constant does not
    diverge as r shrinks (log-log slope >= -MASS_BOUND_SLOPE_TOL).
    """
    if not (0.0 < d <= 1.0):
        raise ValueError("d must be in (0, 1]")
    scales = np.asarray(sorted(test_scales, reverse=True), dtype=float)
    if np.any(scales <= 0):
        raise ValueError("test scales must be positive")

    mass, length = 1.0 / level.count, np.exp(level.log_length)
    per_scale = np.empty(len(scales))
    for i, r in enumerate(scales):
        top = 0.0
        a0, a1, b0, b1 = (_Sweep(level, right) for right in (True, False, True, False))
        for _, lefts in level.blocks(SCAN_CHUNK):
            rights = lefts + length
            for x0s, x1s, first, last in ((lefts, lefts + r, a0, a1), (rights - r, rights, b0, b1)):
                j0, a = first.search(x0s)
                j1, b = last.search(x1s)
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
