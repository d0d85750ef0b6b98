"""Fuglede p-modulus and discrete modulus as finite convex programs.

Both moduli reduce to

    minimize   sum_j w_j x_j^p     subject to   A x >= 1,  x >= 0

with p > 1, nonnegative weights w and a nonnegative constraint matrix A
(one row per measure / target set).  The program is solved through its
smooth concave dual by projected gradient ascent with backtracking, followed
by projected-Newton polishing on the active constraints; the reported value
comes from a rescaled primal-feasible point, so it is always an upper bound
with a certified duality gap.  Each dual iterate y is evaluated once, into
its primal point x, A x and the dual value; the gradient steps, the polish,
the residual, the rescale and the gap all read that one state.

The solver works on the coordinate form of A (its nonzeros, sorted once by
row and once by column), so A x and A^T y cost O(nnz), and the Newton matrix
A_S diag(d) A_S^T of the active rows S is summed from the pairs of rows that
share a column.  The pair work is the sum over the columns of the squared
count of active rows there: near nnz when few rows meet in a column, as in
product systems and in discrete programs on disjoint balls, but m_act^2 n
when every row meets every column, where a dense BLAS product would be some
30 times faster.  The pairs are taken column block by column block, at most
PAIR_CHUNK at a time, so memory stays O(nnz + m^2).  Rows implied by
another row (A_i >= A_k entrywise), found by the same pair sums, are
redundant and keep a zero multiplier.  A solve that stops before it covers every row raises
NonConvergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from confdim.cantor import IntervalLevel
from confdim.dimension import DiscreteMeasure, locate_windows
from confdim.qsmaps import ImageLevel, QsMap


class InfeasibleError(ValueError):
    def __init__(self, member_indices, message):
        self.member_indices = list(member_indices)
        super().__init__(message)


class NonConvergenceError(RuntimeError):
    """The solver stopped before its iterate covered every constraint row.

    Structurally infeasible rows are rejected before solving, so this means
    the iteration budget ran out or the steps stalled.
    """

    def __init__(self, member_indices, iterations: int):
        self.member_indices = [int(i) for i in member_indices]
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} iterations: rows "
            f"{self.member_indices} not covered"
        )


@dataclass
class SolveResult:
    value: float
    optimizer: np.ndarray
    multipliers: np.ndarray
    kkt_residual: float
    duality_gap_bound: float
    iterations: int

    def __post_init__(self):
        if np.any(self.optimizer < 0):
            raise ValueError("optimizer must be nonnegative")


# the dual ascent stops once the norm of its projected gradient is this small
SOLVE_TOL = 1e-9
# the most gradient steps of one solve
MAX_ITER = 100000
# the most Newton steps of one polish
POLISH_SWEEPS = 40

# Row pairs are generated in chunks of at most this many, so the memory of
# the Newton matrix assembly does not grow with the number of pairs.
PAIR_CHUNK = 2 ** 17


class _Coords:
    """Coordinate form of a nonnegative m x n matrix, built once per solve.

    The nonzeros are stored twice, sorted by row and sorted by column, so
    that ``A @ x`` and ``A.T @ y`` are segment sums over O(nnz) products.
    ``np.add.reduceat`` sums each segment pairwise; a sequential sum (as in
    ``np.bincount``) loses enough accuracy on long rows to stall the
    Newton line search at the rounding floor.  Each entry of the Newton
    matrix ``A[S] diag(d) A[S].T`` is a sum over the pairs of entries of
    rows in S that share a column; the pairs are generated on each call, at
    most PAIR_CHUNK at a time.
    """

    def __init__(self, A: np.ndarray):
        A = np.ascontiguousarray(A)  # float, or boolean as a 0/1 matrix
        self.m, self.n = A.shape
        flat = np.flatnonzero(A)  # row-major order: sorted by row
        rows, cols = np.divmod(flat, self.n)
        vals = A.ravel()[flat].astype(float, copy=False)
        self.row_cols, self.row_vals = cols, vals
        self.row_ids, self.row_starts = _segments(rows)
        order = np.argsort(cols, kind="stable")
        self.col_rows, self.col_cols, self.col_vals = rows[order], cols[order], vals[order]
        self.col_ids, self.col_starts = _segments(self.col_cols)
        self.needed = self._needed_rows()

    def _column_blocks(self, rows: np.ndarray):
        """Yield the entries of the rows marked in ``rows``, column by column.

        Each block is an (n_cols, c) array of indices into the column-sorted
        entries, for columns that hold c such entries; a block spans at most
        PAIR_CHUNK // c^2 columns (at least one), so its c x c outer
        products hold at most PAIR_CHUNK pairs or those of one column.
        """
        e = np.flatnonzero(rows[self.col_rows])
        start = np.flatnonzero(np.diff(self.col_cols[e], prepend=-1))
        count = np.diff(start, append=len(e))
        for c in np.unique(count):
            first = start[count == c]
            step = max(1, PAIR_CHUNK // int(c * c))
            for s in range(0, len(first), step):
                yield e[first[s:s + step, None] + np.arange(c)]

    def _needed_rows(self) -> np.ndarray:
        """Mask of the rows that no other row implies.

        Row i is implied by row k != i when A[i] >= A[k] entrywise, that is
        when row k's support lies in row i's and row i is at least as large
        there: then A[i] x >= A[k] x >= 1 for every x >= 0.  An implied row
        can be tight at the optimum with a zero multiplier, and copies of a
        row make the Newton matrix singular; either way the polish stalls.
        Of a set of equal rows the first is kept.  The counts take m x m
        memory, as the Newton matrix of all rows would; a sort of the pair
        keys instead has no bound but the number of pairs.
        """
        m = self.m
        V = self.col_vals
        # hits[i * m + k]: the number of columns where A[i] >= A[k] > 0
        hits = self._pair_sums(np.ones(m, dtype=bool), lambda E: _outer(
            V[E], V[E], np.greater_equal).astype(float)).ravel()
        nnz = np.bincount(self.col_rows, minlength=m)
        key = np.flatnonzero(hits)
        i, k = np.divmod(key, m)
        implied = (hits[key] == nnz[k]) & (i != k)  # row i by row k
        i, k = i[implied], k[implied]
        equal = hits[k * m + i] == nnz[i]  # row k by row i as well
        needed = np.ones(m, dtype=bool)
        needed[i[~equal | (k < i)]] = False
        return needed

    def dot(self, x: np.ndarray) -> np.ndarray:
        """A @ x."""
        return _segment_sums(self.row_vals * x[self.row_cols], self.row_ids,
                             self.row_starts, self.m)

    def tdot(self, y: np.ndarray) -> np.ndarray:
        """A.T @ y."""
        return _segment_sums(self.col_vals * y[self.col_rows], self.col_ids,
                             self.col_starts, self.n)

    def gram(self, active: np.ndarray, d: np.ndarray) -> np.ndarray:
        """A[active] diag(d) A[active].T as a dense m_act x m_act matrix."""
        V = self.col_vals
        return self._pair_sums(active, lambda E: _outer(
            V[E] * d[self.col_cols[E]], V[E], np.multiply))

    def _pair_sums(self, rows: np.ndarray, terms) -> np.ndarray:
        """Sums over the pairs of marked rows that share a column, k x k.

        Entry (a, b), for the a-th and b-th of the k rows marked in ``rows``,
        sums ``terms`` over the columns where both have an entry;
        ``terms(E)`` gives one float per pair of entries in each column of a
        block E of ``_column_blocks``, flattened as ``_outer`` does.
        """
        pos = np.cumsum(rows) - 1
        k = int(np.count_nonzero(rows))
        out = np.zeros(k * k)
        for E in self._column_blocks(rows):
            i = pos[self.col_rows[E]]
            np.add.at(out, _outer(i * k, i, np.add), terms(E))
        return out.reshape(k, k)


def _segments(keys: np.ndarray) -> tuple:
    """Distinct values of a sorted key array and the index where each starts."""
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], starts


def _outer(u: np.ndarray, v: np.ndarray, op) -> np.ndarray:
    """op(u[r, a], v[r, b]) over every row r and every pair (a, b), flattened."""
    return op(u[:, :, None], v[:, None, :]).ravel()


def _segment_sums(terms, ids, starts, size) -> np.ndarray:
    out = np.zeros(size)
    out[ids] = np.add.reduceat(terms, starts)
    return out


def _solve_power_program(w: np.ndarray, A: np.ndarray, p: float) -> SolveResult:
    """min sum w x^p s.t. A x >= 1, x >= 0 via dual projected gradient."""
    m, n = A.shape
    q = 1.0 / (p - 1.0)
    C = _Coords(A)

    def evaluate(y):
        """The primal point x of the multipliers y, A x, and the dual value."""
        s = C.tdot(y)
        x = np.zeros(n)
        pos = s > 0
        x[pos] = (s[pos] / (p * w[pos])) ** q
        Ax = C.dot(x)
        return x, Ax, float(np.sum(w * x ** p) + y @ (1.0 - Ax))

    live = C.needed  # implied rows keep a zero multiplier
    # y_i = p min_j w_j / A_ij over row i's nonzeros: alone, row i would put
    # x <= 1 on its cells, so x = (A^T y / (p w))^q cannot overflow near p = 1
    y = np.zeros(m)
    y[C.row_ids] = p * np.minimum.reduceat(w[C.row_cols] / C.row_vals, C.row_starts)
    y[~live] = 0.0
    x, Ax, g = evaluate(y)
    step = 1.0
    it = 0
    while it < MAX_ITER:
        it += 1
        grad = np.where(live, 1.0 - Ax, 0.0)
        gnorm = float(np.linalg.norm(grad * ((y > 0) | (grad > 0))))
        if gnorm <= SOLVE_TOL:
            break
        # backtracking ascent step
        for _ in range(60):
            y_new = np.maximum(y + step * grad, 0.0)
            x_new, Ax_new, g_new = evaluate(y_new)
            if g_new > g + 1e-12 * abs(g):
                break
            step *= 0.5
        else:
            break
        y, x, Ax, g = y_new, x_new, Ax_new, g_new
        step *= 2.0

        # projected-Newton polish on the active set every few sweeps
        if it % 20 == 0 or gnorm < 1e-4:
            y, x, Ax, g = _newton_polish(C, q, live, evaluate, y, x, Ax, g)
            grad = np.where(live, 1.0 - Ax, 0.0)
            gnorm = float(np.linalg.norm(grad * ((y > 0) | (grad > 0))))
            if gnorm <= SOLVE_TOL:
                break

    y, x, Ax, g = _newton_polish(C, q, live, evaluate, y, x, Ax, g)

    # certified primal value: rescale onto the feasible set
    worst = float(np.min(Ax)) if m else 1.0
    if worst <= 0:
        raise NonConvergenceError(np.where(Ax <= 0)[0], it)
    x_feas = x / min(worst, 1.0)
    value = float(np.sum(w * x_feas ** p))

    Axf = C.dot(x_feas)
    feas = float(max(0.0, np.max(1.0 - Axf))) if m else 0.0
    comp = float(np.max(np.abs(y * (1.0 - Axf)))) if m else 0.0
    return SolveResult(
        value=value, optimizer=x_feas, multipliers=y, kkt_residual=max(feas, comp),
        duality_gap_bound=float(max(value - g, 0.0)), iterations=it,
    )


def _newton_polish(C: _Coords, q, live, evaluate, y, x, Ax, g):
    """Newton steps on the stationarity system of the active constraints.

    Takes and returns an evaluated state: multipliers y and their
    ``evaluate(y)``, that is x, A x and the dual value g.
    """
    for _ in range(POLISH_SWEEPS):
        resid = Ax - 1.0
        active = live & ((y > 1e-14) | (resid < 0))
        # stop at the rounding floor; from within 1e-12 one step reaches it
        err = float(np.max(np.abs(resid[active]))) if np.any(active) else 0.0
        if err <= 1e-15:
            break
        s = C.tdot(y)
        dx = np.zeros_like(x)
        pos = s > 0
        dx[pos] = q * x[pos] / s[pos]
        J = C.gram(active, dx)
        try:
            delta = np.linalg.solve(J + 1e-14 * np.eye(J.shape[0]), -resid[active])
        except np.linalg.LinAlgError:
            delta, *_ = np.linalg.lstsq(J, -resid[active], rcond=None)
        y_try = y.copy()
        t = 1.0
        for _ in range(30):
            y_try[:] = y
            y_try[active] = np.maximum(y[active] + t * delta, 0.0)
            x_try, Ax_try, g_try = evaluate(y_try)
            if g_try >= g - 1e-15 * abs(g):
                break
            t *= 0.5
        else:
            break
        y, x, Ax, g = y_try, x_try, Ax_try, g_try
        if err < 1e-12:
            break
    return y, x, Ax, g


@dataclass
class MeasureSystem:
    """Finite system of measures over a discretized ambient space.

    mu holds the cell measures of the ambient; each member is a nonnegative
    weight vector over the same cells.
    """

    mu: np.ndarray
    members: List[np.ndarray]
    p: float
    member_weights: Optional[np.ndarray] = None
    geometry: Optional[dict] = None  # grid metadata for window scans

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.members = [np.asarray(lam, dtype=float) for lam in self.members]
        if self.p <= 1:
            raise ValueError("p must be > 1")
        if np.any(self.mu < 0):
            raise ValueError("cell measures must be nonnegative")
        if float(np.sum(self.mu)) <= 0:
            raise ValueError("ambient measure must have positive total mass")
        for i, lam in enumerate(self.members):
            if len(lam) != len(self.mu):
                raise ValueError(f"member {i} has wrong cell count")
            if np.any(lam < 0) or float(np.sum(lam)) <= 0:
                raise ValueError(f"member {i} must have positive total mass")


def solve_fuglede(system: MeasureSystem) -> SolveResult:
    """Fuglede p-modulus min sum mu rho^p with int rho dlambda >= 1 per member.

    Cells of zero ambient measure carry free density: any member with lambda
    mass there is admissible at no cost and its constraint drops out.
    """
    mu = system.mu
    n = len(mu)
    live = mu > 0
    rows = []
    free_members = []
    for i, lam in enumerate(system.members):
        if float(np.sum(lam[~live])) > 0:
            free_members.append(i)  # satisfiable on a zero-mu cell at no cost
        else:
            rows.append(lam[live])

    x_full = np.zeros(n)
    if not rows:
        result = SolveResult(
            value=0.0, optimizer=x_full, multipliers=np.zeros(0),
            kkt_residual=0.0, duality_gap_bound=0.0, iterations=0,
        )
    else:
        res = _solve_power_program(mu[live], np.stack(rows), system.p)
        x_full[live] = res.optimizer
        result = replace(res, optimizer=x_full)
    # make the reported density admissible for the dropped members too
    for i in free_members:
        lam = system.members[i]
        masked = np.where(live, 0.0, lam)
        j = int(np.argmax(masked))
        need = max(0.0, 1.0 - float(lam @ result.optimizer))
        if need > 0:
            result.optimizer[j] += need / lam[j]
    return result


def _ball_array(balls) -> np.ndarray:
    """balls as an (n, 2) float array of (center, radius) rows."""
    balls = np.asarray(balls, dtype=float)
    if balls.ndim != 2 or balls.shape[1] != 2:
        raise ValueError(f"balls must have shape (n, 2), got {balls.shape}")
    return balls


@dataclass
class DiscreteModulusProblem:
    """Ball-weight program: per set, weights of incident fifth-balls sum >= 1."""

    balls: np.ndarray  # (n, 2) center, radius
    p: float
    delta: Optional[float]  # scale cap; None means the largest ball diameter
    incidence: np.ndarray  # (n_sets, n_balls) boolean

    def __post_init__(self):
        self.balls = _ball_array(self.balls)
        self.incidence = np.asarray(self.incidence, dtype=bool)
        if self.p <= 1:
            raise ValueError("p must be > 1")
        if self.incidence.size == 0:
            raise ValueError("incidence matrix is empty")
        if self.incidence.ndim != 2 or self.incidence.shape[1] != len(self.balls):
            raise ValueError(f"incidence must have shape (n_sets, {len(self.balls)}), "
                             f"got {self.incidence.shape}")
        radii = self.balls[:, 1]
        self.delta = float(2 * np.max(radii) if self.delta is None else self.delta)
        if np.any(2 * radii > self.delta * (1 + 1e-12)):
            raise ValueError("ball diameter exceeds the scale cap delta")

    @classmethod
    def from_intervals_1d(
        cls, balls: np.ndarray, sets: Sequence[np.ndarray], p: float,
        delta: Optional[float] = None,
    ) -> "DiscreteModulusProblem":
        """Build incidence from 1-D balls and point/interval sets.

        Each set is an array of points or an (n,2) array of intervals; it is
        incident to a ball when it meets the concentric 1/5-ball.  The
        fifth-balls must be pairwise disjoint, up to overlaps of 1e-12.
        Incidence comes from the sorted ends: in center order, the balls
        that [lo, hi] can meet run from the first whose running max of right
        ends reaches lo to the last whose reverse running min of left ends
        is at most hi.  It meets each of them whose own ends are these
        running ends; the others are tested by the closed predicate.  A
        running count per set and ball marks the union of a set's ranges.
        """
        balls = _ball_array(balls)
        c, r = balls[:, 0], balls[:, 1]
        order = np.argsort(c)
        cs, rs = c[order], r[order]
        sep = np.diff(cs) - (rs[1:] + rs[:-1]) / 5.0
        if np.any(sep < -1e-12):
            raise ValueError("fifth-balls are not pairwise disjoint")
        spans = [np.asarray(s, dtype=float) for s in sets]
        spans = [np.stack([s, s], axis=1) if s.ndim == 1 else s for s in spans]
        sizes = np.array([len(s) for s in spans], dtype=int)
        lohi = np.concatenate(spans) if spans else np.zeros((0, 2))
        owner = np.repeat(np.arange(len(sets)), sizes)
        left, right = cs - rs / 5.0, cs + rs / 5.0
        reach = np.maximum.accumulate(right)
        floor = np.minimum.accumulate(left[::-1])[::-1]
        k0 = np.searchsorted(reach, lohi[:, 0], side="left")
        k1 = np.maximum(k0, np.searchsorted(floor, lohi[:, 1], side="right"))
        # runs[k, i]: set i's ranges that start at ball k less those that end there
        runs = np.zeros((len(balls) + 1, len(sets)), dtype=np.int32)
        np.add.at(runs, (k0, owner), 1)
        np.subtract.at(runs, (k1, owner), 1)
        met = np.cumsum(runs, axis=0, out=runs)[:-1] > 0
        # a ball whose own end falls short of the running one may be missed
        odd = np.flatnonzero((right < reach) | (left > floor))
        met[odd] = False
        a0, a1 = np.searchsorted(odd, k0), np.searchsorted(odd, k1)
        count = a1 - a0
        piece = np.repeat(np.arange(len(lohi)), count)
        ball = odd[np.arange(len(piece)) + np.repeat(a0 - (np.cumsum(count) - count), count)]
        hit = (lohi[piece, 0] <= right[ball]) & (lohi[piece, 1] >= left[ball])
        met[ball[hit], owner[piece[hit]]] = True
        inc = np.ascontiguousarray(met[np.argsort(order)].T)  # input ball order
        return cls(balls=balls, p=p, delta=delta, incidence=inc)


def solve_discrete(problem: DiscreteModulusProblem) -> SolveResult:
    """Minimize sum v(B)^p over admissible nonnegative ball weights."""
    empty = np.where(~np.any(problem.incidence, axis=1))[0]
    if len(empty):
        raise InfeasibleError(empty, f"sets {empty.tolist()} meet no fifth-ball")
    w = np.ones(problem.incidence.shape[1])
    return _solve_power_program(w, problem.incidence, problem.p)


def vitali_disjointify(balls: np.ndarray) -> np.ndarray:
    """Greedy 5r-covering selection; returns indices into the input.

    Order: radius descending, then leftmost center, then input order.  The
    selected balls are pairwise disjoint and every input ball meets a
    selected ball of at least its radius, so inputs lie in the 5x dilates.
    """
    balls = np.asarray(balls, dtype=float)
    order = sorted(range(len(balls)), key=lambda i: (-balls[i, 1], balls[i, 0], i))
    chosen: list = []
    for i in order:
        c, r = balls[i]
        if all(abs(c - balls[j, 0]) > r + balls[j, 1] for j in chosen):
            chosen.append(i)
    return np.array(sorted(chosen), dtype=int)


def product_system(
    E_level: IntervalLevel,
    Y_points: Sequence,
    cell_width: float,
    p: float,
) -> MeasureSystem:
    """Fiber system {E x {y}} on a 2-D grid with mu = lambda_E x nu.

    lambda_E is the level's natural measure.  Y_points is a list of (y, weight)
    pairs; each member is the rasterized lambda_E supported on its own row.  The
    grid must resolve the gaps of the level, otherwise fibers alias and the
    construction is rejected.
    """
    min_gap = E_level.min_gap()
    if cell_width > min_gap:
        raise ValueError(
            f"cell width {cell_width:g} coarser than the smallest gap "
            f"{min_gap:g}: fibers would alias"
        )
    n_cols = int(round(1.0 / cell_width))
    edges = np.arange(n_cols + 1) * cell_width
    image = ImageLevel(QsMap.identity(), E_level)
    lam_cols = locate_windows(image.lefts, image.rights, edges[:-1], edges[1:]).equal_masses(
        1.0 / E_level.count)
    # the cells cover [0, 1] up to rounding; renormalize
    tot = float(np.sum(lam_cols))
    if tot <= 0:
        raise ValueError("measure rasterizes to zero")
    lam_cols /= tot

    ys = np.array([float(y) for y, _ in Y_points])
    weights = np.array([float(w) for _, w in Y_points])
    n_rows = len(ys)
    mu = np.concatenate([lam_cols * w for w in weights])
    members = []
    for row in range(n_rows):
        lam = np.zeros(n_rows * n_cols)
        lam[row * n_cols: (row + 1) * n_cols] = lam_cols
        members.append(lam)
    geometry = {
        "kind": "product_grid",
        "n_rows": n_rows,
        "n_cols": n_cols,
        "cell_width": cell_width,
        "row_y": ys,
    }
    return MeasureSystem(
        mu=mu, members=members, p=p, member_weights=weights, geometry=geometry
    )


def holder_lower_bound(system: MeasureSystem, d: float) -> float:
    """nu(Y) as a certified lower bound for the (1+d)-modulus of a product.

    Requires normalized members; the solver value must dominate this bound.
    """
    if system.member_weights is None:
        raise ValueError("system carries no member weights (not a product system)")
    if abs(system.p - (1.0 + d)) > 1e-12:
        raise ValueError(f"system exponent p={system.p} != 1 + d = {1 + d}")
    for i, lam in enumerate(system.members):
        if abs(float(np.sum(lam)) - 1.0) > 1e-9:
            raise ValueError(f"member {i} is not normalized to total mass 1")
    return float(np.sum(system.member_weights))


@dataclass
class VanishingWitness:
    balls: np.ndarray
    v: np.ndarray
    value: float
    admissible_ok: bool
    h_t_values: np.ndarray
    dim_estimate: float
    achieved: bool


def dmod_vanishing_witness(
    X_level: IntervalLevel,
    sets: Optional[Sequence[np.ndarray]],
    t: float,
    q: float,
    eps_target: float,
) -> VanishingWitness:
    """Admissible pair (v, B) with small sum v^q from the level's own cover.

    Balls are the level intervals, v(B) = diam(B)^t.  Refuses when q*t does
    not exceed the box-dimension estimate of the level, in which case no
    such witness can exist.
    """
    diams = X_level.lengths
    n = X_level.count
    if sets is None:
        sets = [np.arange(n)]
    ell = float(np.exp(np.mean(np.log(diams))))
    dim_est = math.log(n) / math.log(1.0 / ell) if ell < 1 else 1.0
    if q * t <= dim_est:
        raise ValueError(
            f"q*t = {q * t:.4f} <= box-dimension estimate {dim_est:.4f}: refused"
        )
    h_t = np.array([float(np.sum(diams[np.asarray(idx)] ** t)) for idx in sets])
    v = diams ** t
    # every set's own intervals are among the balls meeting it, so the sum of
    # v over incident balls dominates the set's finite-scale H_t content
    admissible = all(
        float(np.sum(v[np.asarray(idx)])) >= min(1.0, h_t[i]) - 1e-12
        for i, idx in enumerate(sets)
    )
    value = float(np.sum(v ** q))
    lefts = X_level.lefts_at(slice(0, n), np.empty(n), np.empty(n // 2 + 2))
    centers = (lefts + (lefts + np.exp(X_level.log_length))) / 2.0
    balls = np.column_stack([centers, diams / 2.0])
    return VanishingWitness(
        balls=balls, v=v, value=value, admissible_ok=admissible,
        h_t_values=h_t, dim_estimate=dim_est, achieved=bool(value < eps_target),
    )


@dataclass
class ComparisonReport:
    lhs: float
    rhs: float
    ratio: float
    hypothesis_ok: bool
    offending_window: Optional[tuple]
    ambient_growth_C: float
    degenerate: bool = False


def modulus_comparison(
    system: MeasureSystem,
    image_problem: DiscreteModulusProblem,
    s: float,
    C1: float,
    C2: float,
) -> ComparisonReport:
    """Numeric check of mod_q(E) <= C * d-mod_q(f(E)); reports the ratio.

    Before comparing, scans the fiber growth lambda_E(B_r cap E) >= C1 r^s
    on the member supports, one `window_masses` call per radius over atoms
    at the cell centers, and records the ambient growth constant.  The
    scanned balls are centered on the support, so C2 has no effect.
    """
    if not system.members:
        return ComparisonReport(
            lhs=math.inf, rhs=math.inf, ratio=math.nan, hypothesis_ok=False,
            offending_window=None, ambient_growth_C=math.nan, degenerate=True,
        )
    if abs(system.p - image_problem.p) > 1e-12:
        raise ValueError("system and image problem must share the exponent q")
    geo = system.geometry or {}
    if geo.get("kind") != "product_grid":
        raise ValueError("fiber growth scan needs product-grid geometry")
    n_cols = geo["n_cols"]
    h = geo["cell_width"]
    centers = (np.arange(n_cols) + 0.5) * h

    hypothesis_ok = True
    offending = None
    for mi, lam in enumerate(system.members):
        row = lam.reshape(-1, n_cols).sum(axis=0)
        support = centers[row > 0]
        if len(support) == 0:
            continue
        span = float(support[-1] - support[0])
        radii = [span * 2.0 ** (-k) for k in range(1, 12) if span * 2.0 ** (-k) >= h]
        fiber = DiscreteMeasure(points=centers, masses=row)
        cs = support[:: max(1, len(support) // 64)]
        for r in radii:
            mass = fiber.window_masses(cs - r, cs + r)
            low = np.flatnonzero(mass < C1 * r ** s - 1e-12)
            if len(low):
                hypothesis_ok = False
                offending = (mi, float(cs[low[0]]), float(r), float(mass[low[0]]))
                break
        if offending:
            break

    mu_grid = system.mu.reshape(-1, n_cols)
    amb_c = 0.0
    for r in [h * 2.0 ** k for k in range(0, 8)]:
        width_cells = max(1, int(round(2 * r / h)))
        kernel = np.ones(width_cells)
        for rowv in mu_grid:
            conv = np.convolve(rowv, kernel, mode="same")
            amb_c = max(amb_c, float(np.max(conv)) / r ** system.p)

    lhs = solve_fuglede(system).value
    rhs = solve_discrete(image_problem).value
    ratio = lhs / rhs if rhs > 0 else math.inf
    return ComparisonReport(
        lhs=lhs, rhs=rhs, ratio=ratio, hypothesis_ok=hypothesis_ok,
        offending_window=offending, ambient_growth_C=amb_c,
    )
