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
    meet a window, and ``hit`` marks the windows with j1 >= j0.  The
    interval ends are kept as given, arrays or an ImageLevel's, for the
    second step, which is the first to read them at j0 and j1.
    """

    lefts: np.ndarray
    rights: np.ndarray
    x0s: np.ndarray
    x1s: np.ndarray
    j0: np.ndarray
    j1: np.ndarray
    hit: np.ndarray

    @property
    def reads(self) -> np.ndarray:
        """The interval indices at which the second step reads masses or the prefix sum."""
        a, b = self.j0[self.hit], self.j1[self.hit]
        return np.concatenate([a, b, np.maximum(a - 1, 0)])

    def masses(self, prefix, masses) -> np.ndarray:
        """The window masses: the second step, over the masses and their inclusive prefix sum.

        ``prefix`` and ``masses`` are arrays, or anything that maps the index
        arrays of ``reads`` to the values there.  A window's boundary
        intervals count in proportion to their overlap with it.  A window
        that meets no interval gets 0, and so does one that only touches
        interval ends, where the prefix sum would leave a rounding residue
        instead of 0.
        """
        hit = self.hit
        a, b, x0, x1 = self.j0[hit], self.j1[hit], self.x0s[hit], self.x1s[hit]

        def inside(j):
            l, r = self.lefts[j], self.rights[j]
            return np.clip((np.minimum(r, x1) - np.maximum(l, x0)) / (r - l), 0.0, 1.0)

        f0, f1 = inside(a), inside(b)
        m = prefix[b] - np.where(a > 0, prefix[np.maximum(a - 1, 0)], 0.0)
        m -= masses[a] * (1.0 - f0)
        m -= np.where(a == b, 0.0, masses[b] * (1.0 - f1))
        mu = np.zeros(self.j0.shape)
        mu[hit] = np.where((b - a <= 1) & (f0 == 0.0) & (f1 == 0.0), 0.0, m)
        return mu


def locate_windows(lefts, rights, x0s, x1s) -> WindowLocation:
    """Locate the windows [x0s[i], x1s[i]] over sorted, disjoint intervals.

    The package's one window rule is this step and `WindowLocation.masses`.
    Its callers are the certificate's window and ball scans and
    `DiscreteMeasure.window_masses`, which serves the mass-bound scan, the
    theorem-b growth scan, the product-system rasterization and the fiber
    scan of `modulus_comparison`.  Both ends must be sorted, and every
    interval must have positive length by the second step; intervals may
    touch or overlap by rounding.  The ends go through `sorted_search`, so
    they may be an ImageLevel's, and no mass is read here: a caller may locate
    its windows before the masses exist.
    """
    x0s = np.asarray(x0s, dtype=float)
    x1s = np.asarray(x1s, dtype=float)
    j1 = sorted_search(lefts, x1s, side="right") - 1
    j0 = sorted_search(rights, x0s, side="left")
    return WindowLocation(lefts=lefts, rights=rights, x0s=x0s, x1s=x1s, j0=j0, j1=j1,
                          hit=j1 >= j0)


def natural_measure(level: IntervalLevel) -> DiscreteMeasure:
    """Equal mass on every interval of a level, total mass 1."""
    return DiscreteMeasure(level.lefts[:], level.rights, np.full(level.count, 1.0 / level.count))


def _as_intervals(data) -> tuple:
    if isinstance(data, IntervalLevel):
        return data.lefts[:], data.rights
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:  # point sample
        arr = np.sort(arr)
        return arr, arr.copy()
    if arr.ndim == 2 and arr.shape[1] == 2:
        order = np.argsort(arr[:, 0])
        return arr[order, 0], arr[order, 1]
    raise ValueError("expected IntervalLevel, points, or (n,2) intervals")


def box_count(data, epsilons: Sequence[float]) -> BoxCountResult:
    """Count grid boxes [k*eps, (k+1)*eps) meeting a union of intervals.

    A closed interval [l, r] is charged the boxes floor(l/eps) ..
    ceil(r/eps)-1 so that grid-aligned intervals occupy exactly their own
    boxes.  The least-squares slope of log N against log(1/eps) is returned.
    """
    lefts, rights = _as_intervals(data)
    if len(lefts) == 0:
        raise ValueError("empty input")
    epsilons = np.asarray(list(epsilons), dtype=float)
    if np.any(epsilons <= 0):
        raise ValueError("epsilons must be positive")

    counts = np.empty(len(epsilons), dtype=np.int64)
    snap = 1e-9  # tolerate float jitter of endpoints sitting on box boundaries
    for i, eps in enumerate(epsilons):
        lq = lefts / eps
        rq = rights / eps
        k0 = np.floor(lq + snap * np.maximum(1.0, np.abs(lq))).astype(np.int64)
        k1 = np.ceil(rq - snap * np.maximum(1.0, np.abs(rq))).astype(np.int64) - 1
        k1 = np.maximum(k0, k1)
        # intervals are sorted, so dedupe against the running max box index
        prev = np.empty_like(k1)
        prev[0] = np.iinfo(np.int64).min
        np.maximum.accumulate(k1[:-1], out=prev[1:])
        start = np.maximum(k0, prev + 1)
        counts[i] = int(np.sum(np.maximum(0, k1 - start + 1)))

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

# candidate windows per window_masses call of the mass-bound scan: each meets a
# leaf, so the call's temporaries, about 110 bytes a window, stay near 1 MB
SCAN_CHUNK = 2 ** 13


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
    measure: DiscreteMeasure,
    d: float,
    test_scales: Sequence[float],
) -> MassBoundReport:
    """Bound mu([x, x + r]) / r^d over all x, exactly, at each test scale r.

    With mass spread uniformly over intervals and atoms at points,
    x -> mu([x, x + r]) is piecewise linear and upper semicontinuous, so its
    maximum lies at a window [l, l + r] from a left end l or [e - r, e] up to a
    right end e: 2N candidate windows per scale for N entries, whatever r is,
    scanned SCAN_CHUNK at a time with a running max.  Passes when the
    per-scale constant does not diverge as r shrinks (log-log slope
    >= -MASS_BOUND_SLOPE_TOL).
    """
    if measure.total_mass <= 0:
        raise ValueError("zero total mass")
    if not (0.0 < d <= 1.0):
        raise ValueError("d must be in (0, 1]")
    scales = np.asarray(sorted(test_scales, reverse=True), dtype=float)
    if np.any(scales <= 0):
        raise ValueError("test scales must be positive")

    per_scale = np.empty(len(scales))
    for i, r in enumerate(scales):
        top = 0.0
        for k in range(0, len(measure.lefts), SCAN_CHUNK):
            lefts, rights = measure.lefts[k:k + SCAN_CHUNK], measure.rights[k:k + SCAN_CHUNK]
            for x0s, x1s in ((lefts, lefts + r), (rights - r, rights)):
                top = max(top, float(np.max(measure.window_masses(x0s, x1s))))
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
