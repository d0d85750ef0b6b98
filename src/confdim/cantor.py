"""Gap-sequence Cantor systems on [0,1] and closed-form dimension criteria.

A system is driven by a sequence of gap fractions c_i in [0,1).  The
middle-interval kind removes the c_i-middle of every surviving interval at
generation i; the uniform kind splits every interval into n_i equal children
separated by gaps of relative size gamma_i.  Interval lengths are carried in
log-space so deep generations do not underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

MIDDLE_INTERVAL = "middle_interval"
UNIFORM = "uniform"

# c_i this close to 1 makes log(1 - c_i) meaningless in doubles
_MAX_GAP_FRACTION = 1.0 - 1e-12

DEFAULT_MEMORY_CAP = 2 ** 24


class GapSequenceError(ValueError):
    pass


@dataclass(frozen=True)
class GapSequence:
    """Defining data {c_i} of a Cantor system.

    For the uniform kind ``values`` holds the per-generation relative gap
    gamma_i and ``n_children`` the branching numbers n_i >= 2.
    """

    values: tuple
    kind: str = MIDDLE_INTERVAL
    n_children: Optional[tuple] = None

    def __post_init__(self):
        values = tuple(float(c) for c in self.values)
        object.__setattr__(self, "values", values)
        if self.kind not in (MIDDLE_INTERVAL, UNIFORM):
            raise GapSequenceError(f"unknown kind {self.kind!r}")
        for i, c in enumerate(values):
            if not (0.0 <= c < 1.0):
                raise GapSequenceError(f"gap fraction c_{i + 1} = {c} outside [0, 1)")
        if self.kind == UNIFORM:
            if self.n_children is None:
                raise GapSequenceError("uniform kind requires n_children")
            ns = tuple(int(n) for n in self.n_children)
            object.__setattr__(self, "n_children", ns)
            if len(ns) != len(values):
                raise GapSequenceError("n_children and values must have equal length")
            for i, (n, g) in enumerate(zip(ns, values)):
                if n < 2:
                    raise GapSequenceError(f"n_{i + 1} = {n} < 2")
                if 1.0 - (n - 1) * g <= 0.0:
                    raise GapSequenceError(
                        f"generation {i + 1}: gaps gamma={g} with n={n} leave no room "
                        "for children (child length <= 0)"
                    )

    def __len__(self):
        return len(self.values)

    @classmethod
    def constant(cls, c: float, n: int) -> "GapSequence":
        return cls(values=(c,) * n)

    @classmethod
    def harmonic(cls, n: int) -> "GapSequence":
        """c_i = 1/(i+1); vanishing gaps with divergent sum."""
        return cls(values=tuple(1.0 / (i + 1) for i in range(1, n + 1)))

    @classmethod
    def uniform(cls, gammas: Sequence[float], n_children: Sequence[int]) -> "GapSequence":
        return cls(values=tuple(gammas), kind=UNIFORM, n_children=tuple(n_children))

    def branching(self, i: int) -> int:
        """Number of children of a generation-(i+1) split, zero-based i."""
        if self.kind == MIDDLE_INTERVAL:
            return 2
        return self.n_children[i]

    def child_log_ratio(self, i: int) -> float:
        """log(child length / parent length) at generation i+1 (zero-based i)."""
        c = self.values[i]
        if self.kind == MIDDLE_INTERVAL:
            return math.log((1.0 - c) / 2.0)
        n = self.n_children[i]
        return math.log((1.0 - (n - 1) * c) / n)

    def component_ratio(self, i: int) -> float:
        """Max ratio r of longer to shorter component around any single gap."""
        if self.kind == MIDDLE_INTERVAL:
            return 1.0
        n = self.n_children[i]
        g = self.values[i]
        ell = (1.0 - (n - 1) * g) / n
        ratios = []
        for k in range(1, n):
            left = k * ell + (k - 1) * g
            right = (n - k) * ell + (n - k - 1) * g
            ratios.append(max(left, right) / min(left, right))
        return max(ratios)


@dataclass
class IntervalLevel:
    """One generation of closed intervals, sorted left to right.

    Lengths are stored as log-lengths; ``rights`` is derived.
    """

    depth: int
    lefts: np.ndarray
    log_lengths: np.ndarray
    parent_index: np.ndarray

    @property
    def lengths(self) -> np.ndarray:
        return np.exp(self.log_lengths)

    @property
    def rights(self) -> np.ndarray:
        return self.lefts + self.lengths

    @property
    def count(self) -> int:
        return len(self.lefts)

    def intervals(self):
        return list(zip(self.lefts.tolist(), self.rights.tolist()))

    def min_gap(self) -> float:
        """Smallest spacing between consecutive intervals (inf if single)."""
        if self.count < 2:
            return math.inf
        return float(np.min(self.lefts[1:] - self.rights[:-1]))


@dataclass
class CantorSystem:
    gaps: GapSequence
    levels: list = field(default_factory=list)

    @property
    def max_depth(self) -> int:
        return len(self.levels) - 1

    def level(self, n: int) -> IntervalLevel:
        return self.levels[n]

    @property
    def ratio_bound(self) -> float:
        """Max observed longer/shorter component ratio across generations."""
        if self.max_depth == 0:
            return 1.0
        return max(self.gaps.component_ratio(i) for i in range(self.max_depth))


def _split_level(level: IntervalLevel, gaps: GapSequence, i: int) -> IntervalLevel:
    """Children of generation i+1 from the generation-i level (zero-based i)."""
    c = gaps.values[i]
    n = gaps.branching(i)
    parent_lens = level.lengths
    child_loglen = level.log_lengths + gaps.child_log_ratio(i)
    child_len = np.exp(child_loglen)

    count = level.count * n
    lefts = np.empty(count)
    loglens = np.empty(count)
    parent_index = np.repeat(np.arange(level.count), n)

    if gaps.kind == MIDDLE_INTERVAL:
        lefts[0::2] = level.lefts
        lefts[1::2] = level.lefts + parent_lens - child_len
        loglens[0::2] = child_loglen
        loglens[1::2] = child_loglen
    else:
        gap_len = c * parent_lens
        stride = child_len + gap_len
        for k in range(n):
            lefts[k::n] = level.lefts + k * stride
            loglens[k::n] = child_loglen
    return IntervalLevel(
        depth=level.depth + 1, lefts=lefts, log_lengths=loglens, parent_index=parent_index
    )


def iter_levels(gaps: GapSequence, max_depth: int) -> Iterator[IntervalLevel]:
    """Stream the interval levels 0..max_depth without keeping them all."""
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if len(gaps) < max_depth:
        raise ValueError(f"need at least {max_depth} gap fractions, have {len(gaps)}")
    level = IntervalLevel(
        depth=0,
        lefts=np.array([0.0]),
        log_lengths=np.array([0.0]),
        parent_index=np.array([-1]),
    )
    yield level
    for i in range(max_depth):
        level = _split_level(level, gaps, i)
        yield level


def build_system(
    gaps: GapSequence, max_depth: int, memory_cap: int = DEFAULT_MEMORY_CAP
) -> CantorSystem:
    """Materialize levels 0..max_depth.

    Refuses to materialize a level with more than ``memory_cap`` intervals;
    use :func:`iter_levels` to stream deeper generations.
    """
    count = 1
    for i in range(max_depth):
        count *= gaps.branching(i)
        if count > memory_cap:
            raise MemoryError(f"level {i + 1} holds {count} intervals > cap {memory_cap}")
    return CantorSystem(gaps=gaps, levels=list(iter_levels(gaps, max_depth)))


def truncated_length(system: CantorSystem, n: int) -> float:
    """Total length of the level-n intervals."""
    if n > system.max_depth:
        raise ValueError(f"n={n} exceeds built depth {system.max_depth}")
    return float(np.sum(system.level(n).lengths))


@dataclass
class MinimalityReport:
    """Finite-scale evidence for the geometric-mean product condition.

    Certifies only the truncated sequence; says nothing about the limit.
    """

    product_limit_estimate: float
    ratio_ok: bool
    ratio_max: float
    window: int
    satisfied_at_finite_scale: bool


def minimality_criterion(
    gaps: GapSequence, M: float, tail_window: int, tol: float = 0.01
) -> MinimalityReport:
    """Geometric mean of (1-c_i) over the last ``tail_window`` indices.

    ``ratio_ok`` holds iff every component ratio is <= M.  The finite-scale
    flag needs the estimate within ``tol`` of 1 and the ratio bound to hold.
    """
    n = len(gaps)
    if tail_window > n or tail_window < 1:
        raise ValueError("tail_window must be in 1..len(gaps)")
    tail = np.asarray(gaps.values[n - tail_window:])
    estimate = float(np.exp(np.mean(np.log1p(-tail))))
    ratio_max = max(gaps.component_ratio(i) for i in range(n))
    ratio_ok = ratio_max <= M
    return MinimalityReport(
        product_limit_estimate=estimate,
        ratio_ok=ratio_ok,
        ratio_max=ratio_max,
        window=tail_window,
        satisfied_at_finite_scale=bool(estimate >= 1.0 - tol and ratio_ok),
    )


def gap_density(gaps: GapSequence, a: float, n: int) -> float:
    """Fraction s_n/n of the first n gap fractions below the threshold a."""
    if not (0.0 < a < 1.0):
        raise ValueError("a must be in (0, 1)")
    if n > len(gaps) or n < 1:
        raise ValueError("n must be in 1..len(gaps)")
    head = np.asarray(gaps.values[:n])
    return float(np.count_nonzero(head < a)) / n


def closed_form_minkowski(gaps: GapSequence, n: int) -> float:
    """Finite-n box-dimension quotient log 2^n / (log 2^n - sum log(1-c_i))."""
    if gaps.kind != MIDDLE_INTERVAL:
        raise ValueError("closed form applies to middle-interval systems only")
    if n < 1 or n > len(gaps):
        raise ValueError("n must be in 1..len(gaps)")
    head = np.asarray(gaps.values[:n])
    if np.any(head > _MAX_GAP_FRACTION):
        raise ValueError("gap fraction too close to 1: log(1-c) diverges")
    log2n = n * math.log(2.0)
    return log2n / (log2n - float(np.sum(np.log1p(-head))))


@dataclass
class UniformPerfectnessReport:
    C: float
    uniformly_perfect_at_depth: bool
    sup_gap_fraction: Optional[float]

    def __str__(self):
        if not self.uniformly_perfect_at_depth:
            return "not uniformly perfect at this depth"
        return f"C = {self.C:.6g}"


def uniform_perfectness_constant(
    system: CantorSystem,
    cap: float = 1e6,
    max_centers: int = 512,
) -> UniformPerfectnessReport:
    """Smallest observed annulus constant C on the deepest built level.

    For sampled centers x in the set and dyadic radii r, checks that
    B(x,r) \\ B(x,r/C) meets the set whenever the set extends beyond B(x,r).
    The set is approximated by the deepest-level intervals, whose endpoints
    belong to the set.  Reports failure once the required C exceeds ``cap``.
    """
    if system.max_depth < 2:
        raise ValueError("need depth >= 2")
    leaves = system.level(system.max_depth)
    a, b = leaves.lefts, leaves.rights

    step = max(1, leaves.count // max_centers)
    centers = np.concatenate([a[::step], b[::step]])

    diam = float(b[-1] - a[0])
    radii = [diam * 2.0 ** (-k) for k in range(0, system.max_depth + 1)]

    worst = 1.0
    for x in centers:
        d_min = np.maximum(np.maximum(a - x, x - b), 0.0)
        d_max = np.maximum(np.abs(x - a), np.abs(x - b))
        far = float(np.max(d_max))
        for r in radii:
            if far < r:  # set does not extend beyond B(x,r)
                continue
            near = d_min < r
            if not np.any(near):
                worst = math.inf
                break
            delta = float(np.max(np.minimum(d_max[near], r * (1.0 - 1e-9))))
            if delta <= 0.0:
                worst = math.inf
                break
            worst = max(worst, r / delta)
        if worst > cap:
            break

    sup_c = None
    if system.gaps.kind == MIDDLE_INTERVAL:
        sup_c = float(max(system.gaps.values[: system.max_depth]))
    return UniformPerfectnessReport(
        C=worst,
        uniformly_perfect_at_depth=bool(worst <= cap),
        sup_gap_fraction=sup_c,
    )
