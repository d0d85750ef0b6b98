"""Box counting, mass distribution certificates, Frostman-type measures.

Counting uses half-open grid boxes, which shifts covering numbers by at most
a bounded factor and leaves the fitted scaling exponent unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from confdim.cantor import IntervalLevel


@dataclass
class BoxCountResult:
    scales: np.ndarray
    counts: np.ndarray
    fitted_slope: float
    residual: float


WINDOW_CHUNK_CELLS = 2 ** 15


@dataclass
class DiscreteMeasure:
    """Nonnegative masses on disjoint intervals (atoms have left == right).

    Mass is treated as uniformly spread inside each interval when windows
    overlap an interval partially.
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

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def window_mass(self, x0: float, x1: float) -> float:
        """Mass of [x0, x1], proportional overlap inside intervals."""
        return float(self.window_masses([x0], [x1])[0])

    def window_masses(self, x0s, x1s) -> np.ndarray:
        """Masses of the windows [x0s[i], x1s[i]], as `window_mass` gives them.

        Windows are broadcast against the intervals in chunks of at most
        WINDOW_CHUNK_CELLS window x interval cells.  Each window's row is
        summed on its own, so a window's mass does not depend on the batch
        it comes in.
        """
        x0s = np.asarray(x0s, dtype=float).ravel()
        x1s = np.asarray(x1s, dtype=float).ravel()
        lengths = self.rights - self.lefts
        atom = lengths == 0
        safe = np.where(atom, 1.0, lengths)
        out = np.empty(len(x0s))
        step = max(1, WINDOW_CHUNK_CELLS // max(1, len(self.masses)))
        for s in range(0, len(x0s), step):
            x0 = x0s[s:s + step, None]
            x1 = x1s[s:s + step, None]
            overlap = np.minimum(self.rights, x1) - np.maximum(self.lefts, x0)
            share = np.where(atom, (self.lefts >= x0) & (self.lefts <= x1),
                             np.clip(overlap / safe, 0.0, 1.0))
            out[s:s + step] = np.sum(self.masses * share, axis=1)
        return out


def sorted_window_masses(lefts, rights, masses, csum, x0s, x1s) -> tuple:
    """Masses of the windows [x0s[i], x1s[i]] over sorted, disjoint intervals.

    ``csum`` is the cumulative mass with a leading 0.  The intervals j0 (the
    first with right >= x0) .. j1 (the last with left <= x1) meet a window;
    their prefix sum loses the outside fraction of interval j0 and, when it
    is another one, of interval j1.  An atom (left == right) that meets a
    window lies wholly inside it.  A window that meets no interval has
    j1 < j0 and mass 0, and so has one that only touches interval ends,
    where the prefix sum would leave a rounding residue instead of 0.
    Returns (mu, j0, j1).
    """
    x0s = np.asarray(x0s, dtype=float)
    x1s = np.asarray(x1s, dtype=float)
    j1 = np.searchsorted(lefts, x1s, side="right") - 1
    j0 = np.searchsorted(rights, x0s, side="left")
    hit = j1 >= j0
    a, b, x0, x1 = j0[hit], j1[hit], x0s[hit], x1s[hit]

    def inside(j):
        l, r = lefts[j], rights[j]
        atom = r == l
        frac = (np.minimum(r, x1) - np.maximum(l, x0)) / np.where(atom, 1.0, r - l)
        return np.where(atom, 1.0, np.clip(frac, 0.0, 1.0))

    f0, f1 = inside(a), inside(b)
    mu = np.zeros(x0s.shape)
    m = csum[b + 1] - csum[a]
    m -= masses[a] * (1.0 - f0)
    m -= np.where(a == b, 0.0, masses[b] * (1.0 - f1))
    mu[hit] = np.where((b - a <= 1) & (f0 == 0.0) & (f1 == 0.0), 0.0, m)
    return mu, j0, j1


def natural_measure(level: IntervalLevel) -> DiscreteMeasure:
    """Equal mass on every interval of a level, total mass 1."""
    n = level.count
    return DiscreteMeasure(
        lefts=level.lefts.copy(),
        rights=level.rights.copy(),
        masses=np.full(n, 1.0 / n),
    )


def _as_intervals(data) -> tuple:
    if isinstance(data, IntervalLevel):
        return data.lefts, data.rights
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


@dataclass
class MassBoundReport:
    """Finite-scale certificate 'dim_H >= d with constant C at tested scales'."""

    d: float
    C_observed: float
    per_scale_C: np.ndarray
    scales: np.ndarray
    slope: float
    passed: bool


def mass_distribution_lower_bound(
    measure: DiscreteMeasure,
    d: float,
    test_scales: Sequence[float],
    geometry: Optional[IntervalLevel] = None,
    slope_tol: float = 0.02,
) -> MassBoundReport:
    """Scan windows [x, x+r] on an r/4 grid and bound mu(U) / r^d.

    Passes when the per-scale constant does not diverge as r shrinks
    (log-log slope >= -slope_tol).  The window grid makes the result a lower
    bound on the true constant.
    """
    if measure.total_mass <= 0:
        raise ValueError("zero total mass")
    if not (0.0 < d <= 1.0):
        raise ValueError("d must be in (0, 1]")
    scales = np.asarray(sorted(test_scales, reverse=True), dtype=float)
    if np.any(scales <= 0):
        raise ValueError("test scales must be positive")

    if geometry is not None:
        lo = float(np.min(geometry.lefts))
        hi = float(np.max(geometry.rights))
    else:
        lo = float(np.min(measure.lefts))
        hi = float(np.max(measure.rights))

    order = np.argsort(measure.lefts)
    lefts = measure.lefts[order]
    rights = measure.rights[order]
    masses = measure.masses[order]
    csum = np.concatenate([[0.0], np.cumsum(masses)])

    per_scale = np.empty(len(scales))
    for i, r in enumerate(scales):
        xs = np.arange(lo - r, hi + r / 4.0, r / 4.0)
        mu, _, _ = sorted_window_masses(lefts, rights, masses, csum, xs, xs + r)
        per_scale[i] = np.max(mu, initial=0.0) / r ** d

    logs = np.log(scales)
    logc = np.log(np.maximum(per_scale, 1e-300))
    if len(scales) >= 2 and np.ptp(logs) > 0:
        slope = float(np.polyfit(logs, logc, 1)[0])
    else:
        slope = 0.0
    c_obs = float(np.max(per_scale))
    passed = bool(math.isfinite(c_obs) and slope >= -slope_tol)
    return MassBoundReport(
        d=d, C_observed=c_obs, per_scale_C=per_scale, scales=scales,
        slope=slope, passed=passed,
    )


def frostman_measure(
    level: IntervalLevel, d: float, max_dyadic_depth: Optional[int] = None
) -> DiscreteMeasure:
    """Greedy dyadic construction of a measure with mu(cell) <= width^d.

    Starting from mass 1 on [0,1], mass is split between dyadic children in
    proportion to their overlap with the level intervals and capped at
    width^d at every node.  The result lives on the occupied dyadic cells of
    the final depth.
    """
    if not (0.0 < d <= 1.0):
        raise ValueError("d must be in (0, 1]")
    lefts, rights = level.lefts, level.rights
    lengths = rights - lefts
    if float(np.sum(lengths)) <= 0:
        raise ValueError("level has no length to support a measure")

    if max_dyadic_depth is None:
        min_len = float(np.min(lengths))
        max_dyadic_depth = min(30, max(1, int(math.ceil(-math.log2(max(min_len, 1e-9))))))

    csum = np.concatenate([[0.0], np.cumsum(lengths)])

    cells = np.array([0.0])
    width = 1.0
    masses = np.array([min(1.0, 1.0)])
    for _ in range(max_dyadic_depth):
        half = width / 2.0
        child_lefts = np.repeat(cells, 2)
        child_lefts[1::2] += half
        # length of the level inside each cell: its window mass with mass = length
        occ, _, _ = sorted_window_masses(lefts, rights, lengths, csum,
                                         child_lefts, child_lefts + half)
        pair_tot = occ[0::2] + occ[1::2]
        share = np.zeros_like(occ)
        nz = np.repeat(pair_tot, 2) > 0
        share[nz] = occ[nz] / np.repeat(pair_tot, 2)[nz]
        child_masses = np.minimum(np.repeat(masses, 2) * share, half ** d)
        keep = child_masses > 0
        cells = child_lefts[keep]
        masses = child_masses[keep]
        width = half
        assert np.all(masses <= width ** d + 1e-15)
        if len(cells) == 0:
            break
    return DiscreteMeasure(lefts=cells, rights=cells + width, masses=masses)
