"""Gap-sequence Cantor systems on [0,1] and closed-form dimension criteria.

A system is driven by a sequence of gap fractions c_i in [0,1).  The
middle-interval kind removes the c_i-middle of every surviving interval at
generation i; the uniform kind splits every interval into n_i equal children
separated by gaps of relative size gamma_i.  Every interval of a generation
has the same length, so a level holds its left ends, one log-length (deep
generations do not underflow) and one branching number.  A first child starts
where its parent does, so every stored level's left ends view the deepest
stored level's.  Levels of at most STORED_COUNT intervals are stored; the
left ends of a deeper level are generated on request from the deepest stored
level's, so no leaf-sized array is held and a system of any depth builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

MIDDLE_INTERVAL = "middle_interval"
UNIFORM = "uniform"

# c_i this close to 1 makes log(1 - c_i) meaningless in doubles
_MAX_GAP_FRACTION = 1.0 - 1e-12

# the most dyadic map weights formed at once: 2 ** weight_depth <= MEMORY_CAP
MEMORY_CAP = 2 ** 24

# the most intervals a stored level holds; the left ends of deeper levels are
# generated block by block, a block being at most this many
STORED_COUNT = 2 ** 16


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


@dataclass(frozen=True)
class _Split:
    """One generation's split of every parent left end x into its n children's.

    A first child starts at x.  A middle-interval right child starts at
    (x + parent_len) - child_len; the k-th uniform child at x + k * stride.
    """

    n: int
    parent_len: float
    child_len: float
    stride: Optional[float]  # None for the middle-interval kind

    def child(self, x: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
        """The k-th children's left ends (1 <= k < n) of the parent left ends x, into out."""
        if self.stride is None:
            return np.subtract(np.add(x, self.parent_len, out=out), self.child_len, out=out)
        return np.add(x, k * self.stride, out=out)


class LeftEnds:
    """The left ends of a level below the stored ones, generated where they are read.

    ``lefts[i]``, for an int or an index array ``i``, and ``fill``, for a
    block of ends, hold the bits that a stored level would hold there, each
    end folded from its ancestor's on the deepest stored level: ``fill``
    splits the ancestors level by level, as build_system builds the stored
    levels, and an index array folds each end along its own path.
    """

    def __init__(self, stored: np.ndarray, splits: tuple):
        self.stored, self.splits = stored, splits
        self.count = len(stored) * math.prod(split.n for split in splits)
        self.shape = (self.count,)
        self.nbytes = 8 * self.count  # as the stored array would take

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i):
        idx = np.asarray(i)
        if np.any((idx < -self.count) | (idx >= self.count)):
            raise IndexError(f"index out of range for a level of {self.count} intervals")
        x = self._at(np.where(idx < 0, idx + self.count, idx).ravel()).reshape(idx.shape)
        return x[()] if x.ndim == 0 else x

    def _at(self, idx: np.ndarray) -> np.ndarray:
        """The left ends at the nonnegative indices ``idx``, each folded along its path."""
        below = self.count // len(self.stored)  # the ends below one stored interval
        x = self.stored[idx // below]
        child = np.empty_like(x)
        for split in self.splits:  # one digit of idx at a time, shallowest first
            below //= split.n
            k = idx // below % split.n
            for j in range(1, split.n):  # each end changes once, at its own digit
                np.copyto(x, split.child(x, j, out=child), where=k == j)
        return x

    def fill(self, start: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """The left ends start .. start + len(out), written to ``out`` and returned.

        The levels between hold only the ancestors of those ends, in turn in
        ``scratch`` and ``out``; ``scratch`` needs len(out) // 2 + 2 slots, or
        as many as ``out``.
        """
        if not len(out):
            return out
        firsts, sizes = [start], [len(out)]
        for split in reversed(self.splits):  # the ancestors' index range, level by level up
            first, last = firsts[-1] // split.n, (firsts[-1] + sizes[-1] - 1) // split.n
            firsts.append(first)
            sizes.append(last - first + 1)
        x = self.stored[firsts[-1]:firsts[-1] + sizes[-1]]
        for up, split in enumerate(self.splits):
            below = len(self.splits) - 1 - up  # levels between this one and out's
            first, size = firsts[below], sizes[below]
            dst = (scratch if below % 2 else out)[:size]
            for k in range(split.n):  # the k-th children fill every n-th slot of dst
                at = (k - first) % split.n
                parents = x[(first + at) // split.n - first // split.n:][:len(dst[at::split.n])]
                if k:
                    split.child(parents, k, out=dst[at::split.n])
                else:
                    dst[at::split.n] = parents
            x = dst
        if not self.splits:
            np.copyto(out, x)
        return out


@dataclass
class IntervalLevel:
    """One generation of closed intervals, sorted left to right.

    All intervals share the length exp(log_length), and interval j is a
    child of interval j // branching one generation up (the root has
    branching 1).  ``lefts`` is an array, or the LeftEnds of a level below
    the stored ones, read in blocks or at ints and index arrays.  A right end
    is formed where it is read, ``left + exp(log_length)``, and can round
    above its parent's: by 1 ulp, and by up to 4 ulps once mapped.
    """

    depth: int
    lefts: np.ndarray
    log_length: float
    branching: int

    @property
    def log_lengths(self) -> np.ndarray:
        return np.broadcast_to(self.log_length, self.lefts.shape)

    @property
    def lengths(self) -> np.ndarray:
        return np.broadcast_to(np.exp(self.log_length), self.lefts.shape)

    @property
    def parent_index(self) -> np.ndarray:
        """Parent of every interval: interval j descends from j // branching."""
        return np.arange(self.count) // self.branching

    @property
    def count(self) -> int:
        return len(self.lefts)

    def lefts_at(self, s: slice, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """``lefts[s]`` for a unit-step slice s: a stored level's view, else generated into
        ``out``, which ``s`` fits, with ``scratch`` (see LeftEnds.fill)."""
        if isinstance(self.lefts, np.ndarray):
            return self.lefts[s]
        start, stop, _ = s.indices(self.count)
        return self.lefts.fill(start, out[:stop - start], scratch)

    def blocks(self, size: int):
        """(start, lefts[start:start + size]) for start = 0, size, ..: views of a stored
        level, else blocks in one shared buffer, each to be read before the next."""
        n = 0 if isinstance(self.lefts, np.ndarray) else min(size, self.count)
        out, scratch = np.empty(n), np.empty(n // 2 + 2)
        for start in range(0, self.count, size):
            yield start, self.lefts_at(slice(start, start + size), out, scratch)

    def min_gap(self) -> float:
        """Smallest spacing between consecutive intervals (inf if single)."""
        gap, right, length = math.inf, -math.inf, np.exp(self.log_length)
        for _, x in self.blocks(STORED_COUNT):
            gap = min(gap, float(np.min(x - np.concatenate([[right], x[:-1] + length]))))
            right = x[-1] + length
        return gap


@dataclass
class CantorSystem:
    gaps: GapSequence
    levels: list = field(default_factory=list)

    @property
    def max_depth(self) -> int:
        return len(self.levels) - 1

    def level(self, n: int) -> IntervalLevel:
        return self.levels[n]


def _split(gaps: GapSequence, i: int, log_length: float) -> _Split:
    """Generation i+1's split (zero-based i) of parents of length exp(log_length)."""
    parent_len = np.exp(log_length)
    child_len = np.exp(log_length + gaps.child_log_ratio(i))
    stride = child_len + gaps.values[i] * parent_len if gaps.kind == UNIFORM else None
    return _Split(gaps.branching(i), parent_len, child_len, stride)


def build_system(gaps: GapSequence, max_depth: int) -> CantorSystem:
    """Levels 0..max_depth: stored levels view one read-only array, deeper ones are LeftEnds.

    A level is stored when it holds at most STORED_COUNT intervals, and any
    depth builds.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if len(gaps) < max_depth:
        raise ValueError(f"need at least {max_depth} gap fractions, have {len(gaps)}")
    counts, log_lengths, splits = [1], [0.0], []
    for i in range(max_depth):
        counts.append(counts[-1] * gaps.branching(i))
        splits.append(_split(gaps, i, log_lengths[-1]))
        log_lengths.append(log_lengths[-1] + gaps.child_log_ratio(i))
    stored = max(n for n, count in enumerate(counts) if count <= STORED_COUNT)
    # a first child starts where its parent does, so the deepest stored level's
    # left ends, strided, are every stored level's
    ends = LeftEnds(np.zeros(1), tuple(splits[:stored])).fill(
        0, np.empty(counts[stored]), np.empty(counts[stored] // 2 + 2))
    ends.flags.writeable = False
    levels = [IntervalLevel(depth=n, log_length=log_lengths[n],
                            branching=splits[n - 1].n if n else 1,
                            lefts=ends[::counts[stored] // count] if n <= stored
                            else LeftEnds(ends, tuple(splits[stored:n])))
              for n, count in enumerate(counts)]
    return CantorSystem(gaps=gaps, levels=levels)


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
    satisfied_at_finite_scale: bool


# how close to 1 the tail geometric mean must come for the finite-scale flag
MINIMALITY_TOL = 0.01


def minimality_criterion(gaps: GapSequence, M: float, tail_window: int) -> MinimalityReport:
    """Geometric mean of (1-c_i) over the last ``tail_window`` indices.

    ``ratio_ok`` holds iff every component ratio is <= M.  The finite-scale
    flag needs the estimate within MINIMALITY_TOL of 1 and the ratio bound
    to hold.
    """
    n = len(gaps)
    if tail_window > n or tail_window < 1:
        raise ValueError("tail_window must be in 1..len(gaps)")
    tail = np.asarray(gaps.values[n - tail_window:])
    estimate = float(np.exp(np.mean(np.log1p(-tail))))
    ratio_ok = max(gaps.component_ratio(i) for i in range(n)) <= M
    return MinimalityReport(
        product_limit_estimate=estimate,
        ratio_ok=ratio_ok,
        satisfied_at_finite_scale=bool(estimate >= 1.0 - MINIMALITY_TOL and ratio_ok),
    )


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
