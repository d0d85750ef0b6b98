"""Increasing quasisymmetric homeomorphisms of the line.

Three map kinds are provided: the identity, the odd power map
x -> sign(x)|x|^a, and piecewise-linear maps obtained by recursive dyadic
mass splitting with bounded left/right ratios.  Each map can carry a claimed
distortion gauge eta; ratio and distortion checks falsify the claim on
samples, they never prove it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from confdim.cantor import MEMORY_CAP, IntervalLevel


@dataclass(frozen=True)
class EtaModulus:
    """Distortion gauge eta(t): increasing with eta(0+) = 0.

    kind 'identity': eta(t) = t.
    kind 'power':    eta(t) = C * max(t^K, t^(1/K)), C > 0, K >= 1.
    kind 'tabulated': log-log interpolation of (t, eta) samples.
    """

    kind: str = "identity"
    C: float = 1.0
    K: float = 1.0
    ts: Optional[tuple] = None
    etas: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("identity", "power", "tabulated"):
            raise ValueError(f"unknown eta kind {self.kind!r}")
        if self.kind == "power":
            if self.C <= 0 or self.K < 1:
                raise ValueError("power eta needs C > 0 and K >= 1")
        if self.kind == "tabulated":
            ts = np.asarray(self.ts, dtype=float)
            etas = np.asarray(self.etas, dtype=float)
            if len(ts) < 2 or np.any(np.diff(ts) <= 0) or np.any(np.diff(etas) < 0):
                raise ValueError("tabulated eta needs increasing samples")
            if np.any(ts <= 0) or np.any(etas <= 0):
                raise ValueError("tabulated eta samples must be positive")

    @classmethod
    def identity(cls) -> "EtaModulus":
        return cls(kind="identity")

    @classmethod
    def power(cls, C: float, K: float) -> "EtaModulus":
        return cls(kind="power", C=C, K=K)

    @classmethod
    def tabulated(cls, ts, etas) -> "EtaModulus":
        return cls(kind="tabulated", ts=tuple(ts), etas=tuple(etas))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "identity":
            out = t
        elif self.kind == "power":
            out = self.C * np.maximum(t ** self.K, t ** (1.0 / self.K))
        else:
            # extrapolate log-log linearly beyond the table
            ts = np.asarray(self.ts)
            etas = np.asarray(self.etas)
            out = np.exp(
                np.interp(np.log(np.maximum(t, 1e-300)), np.log(ts), np.log(etas))
            )
            lo, hi = ts[0], ts[-1]
            out = np.where(t < lo, etas[0] * t / lo, out)
            out = np.where(t > hi, etas[-1] * t / hi, out)
        return float(out) if out.ndim == 0 else out


def _dyadic_profile(ratios: list) -> np.ndarray:
    """Image values at the dyadic points of depth len(ratios).

    ratios[k] has 2^k left/right mass ratios; the left child of a node with
    ratio w receives fraction w/(1+w) of the node's image length.
    """
    ys = np.array([0.0, 1.0])
    for level in ratios:
        w = np.asarray(level, dtype=float)
        share = w / (1.0 + w)
        mids = ys[:-1] + share * np.diff(ys)
        out = np.empty(2 * len(ys) - 1)
        out[0::2] = ys
        out[1::2] = mids
        ys = out
    return ys


class QsMap:
    """Strictly increasing map of the line with an optional claimed eta."""

    def __init__(self, kind: str, a: float = 1.0, ratios=None,
                 eta: Optional[EtaModulus] = None):
        self.kind = kind
        self.a = a
        self.eta = eta
        if kind == "dyadic_weight":
            self._ys = _dyadic_profile(ratios)
            self._xs = np.linspace(0.0, 1.0, len(self._ys))
        elif kind == "power":
            if a <= 0:
                raise ValueError("power exponent must be positive")
        elif kind != "identity":
            raise ValueError(f"unknown map kind {kind!r}")

    @classmethod
    def identity(cls) -> "QsMap":
        return cls("identity", eta=EtaModulus.identity())

    @classmethod
    def power(cls, a: float, eta: Optional[EtaModulus] = None) -> "QsMap":
        return cls("power", a=a, eta=eta)

    @classmethod
    def dyadic_weight(cls, rho: float = 2.0, depth: int = 8, seed: int = 0,
                      eta: Optional[EtaModulus] = None) -> "QsMap":
        """Dyadic mass-splitting map on [0,1].

        Deterministic ratios in [1/rho, rho] are drawn from ``seed``, one
        array of 2^k values per level k < depth, for a profile of
        2 ** depth + 1 points with 2 ** depth <= MEMORY_CAP.
        """
        if rho < 1:
            raise ValueError("rho must be >= 1")
        if depth >= MEMORY_CAP.bit_length():  # 2 ** depth > MEMORY_CAP
            raise ValueError(f"depth {depth}: 2 ** depth profile intervals > cap {MEMORY_CAP}")
        rng = np.random.default_rng(seed)
        ratios = [np.exp(rng.uniform(-math.log(rho), math.log(rho), size=2 ** k))
                  for k in range(depth)]
        return cls("dyadic_weight", ratios=ratios, eta=eta)

    @property
    def domain(self):
        if self.kind == "dyadic_weight":
            return (0.0, 1.0)
        return (-math.inf, math.inf)

    def _check_domain(self, x: np.ndarray):
        lo, hi = self.domain
        if lo == -math.inf and hi == math.inf:  # no value lies outside
            return
        if np.any(x < lo) or np.any(x > hi):
            raise ValueError(f"point outside map domain [{lo}, {hi}]")

    def apply(self, x, out=None):
        """The images of the points x, into ``out`` (which may be x) when given.

        A point maps as a one-point array, so it gets the bits it gets in
        any array: numpy's scalar power can round otherwise than its array loop.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return float(self.apply(x.reshape(1))[0])
        self._check_domain(x)
        if self.kind == "identity":
            if out is None:
                out = x
            else:
                np.copyto(out, x)
        elif self.kind == "power":
            # Cantor points are never negative: skip the sign array, and the
            # mask of x < 0 (fmin skips a NaN as that mask would)
            sign = np.sign(x) if np.fmin.reduce(x, axis=None, initial=0.0) < 0 else None
            out = np.abs(x, out=out)
            out **= self.a
            if sign is not None:
                out *= sign
        elif out is None:
            out = np.interp(x, self._xs, self._ys)
        else:
            out[...] = np.interp(x, self._xs, self._ys)
        return out


# absolute slack on both sides of the distortion bounds
DISTORTION_SLACK = 1e-12


def random_triples(lo: float, hi: float, n: int, seed: int = 0) -> np.ndarray:
    """n triples in [lo, hi], neighbours at least 1e-12 (hi - lo) apart; deterministic in seed."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n, 3))
    while np.any(bad := np.any(np.abs(np.diff(pts, axis=1)) < 1e-12 * (hi - lo), axis=1)):
        pts[bad] = rng.uniform(lo, hi, size=(int(np.sum(bad)), 3))
    return pts


def qs_ratio_check(qsmap: QsMap, triples: np.ndarray, eta: EtaModulus) -> float:
    """Max over the triples of |f(x)-f(y)| / |f(y)-f(z)| / eta(|x-y| / |y-z|).

    A value <= 1 means no sampled triple contradicts eta.
    """
    triples = np.asarray(triples, dtype=float)
    x, y, z = triples[:, 0], triples[:, 1], triples[:, 2]
    if np.any(x == y) or np.any(y == z):
        raise ValueError("degenerate triple: two equal points")
    t = np.abs(x - y) / np.abs(y - z)
    fx, fy, fz = qsmap.apply(x), qsmap.apply(y), qsmap.apply(z)
    ratio = np.abs(fx - fy) / np.abs(fy - fz)
    return float(np.max(ratio / eta(t)))


@dataclass
class DistortionReport:
    lower: np.ndarray
    ratio: np.ndarray
    upper: np.ndarray
    ok: np.ndarray


def _diam(x: np.ndarray) -> np.ndarray:
    return np.max(x, axis=-1) - np.min(x, axis=-1)


def _gap_and_diam(P: np.ndarray, Q: np.ndarray) -> tuple:
    return (np.min(np.abs(P[..., :, None] - Q[..., None, :]), axis=(-2, -1)),
            _diam(np.concatenate([P, Q], axis=-1)))


def _report(ratio, small, big, eta: EtaModulus) -> DistortionReport:
    """``1 / (2 eta(big / small)) <= ratio <= eta(2 small / big)``, up to DISTORTION_SLACK."""
    lower, upper = 1.0 / (2.0 * eta(big / small)), eta(2.0 * small / big)
    ok = (lower - DISTORTION_SLACK <= ratio) & (ratio <= upper + DISTORTION_SLACK)
    return DistortionReport(lower=lower, ratio=ratio, upper=upper, ok=ok)


def distortion_check(qsmap: QsMap, A, B, eta: EtaModulus) -> DistortionReport:
    """Two-sided diameter distortion bound for finite A inside B.

    A pair's points lie along the last axis: ``(n, k)`` arrays are n pairs,
    and the report holds one value per pair (scalars for 1-D arrays).
    """
    diam_a, diam_b = _diam(np.asarray(A, dtype=float)), _diam(np.asarray(B, dtype=float))
    if np.any(diam_a <= 0):
        raise ValueError("diam A must be positive")
    return _report(_diam(qsmap.apply(A)) / _diam(qsmap.apply(B)), diam_a, diam_b, eta)


def distortion_gap_check(qsmap: QsMap, X1, X2, eta: EtaModulus) -> DistortionReport:
    """Gap-to-diameter distortion bound for separated compact pieces X1, X2, pairs as above."""
    dist, diam_x = _gap_and_diam(np.asarray(X1, dtype=float), np.asarray(X2, dtype=float))
    if np.any(dist <= 0):
        raise ValueError("X1 and X2 must be separated")
    img_dist, img_diam = _gap_and_diam(qsmap.apply(X1), qsmap.apply(X2))
    return _report(img_dist / img_diam, dist, diam_x, eta)


class _MappedSide:
    """One side of an ImageLevel's ends: ``side[i]`` maps the ends of the intervals ``i`` only."""

    def __init__(self, qsmap: QsMap, level: IntervalLevel, right: bool):
        self.qsmap, self.level, self.right = qsmap, level, right
        self.nbytes = 8 * level.count  # as the mapped array would take

    def __len__(self) -> int:
        return self.level.count

    def __getitem__(self, i) -> np.ndarray:
        x = self.level.lefts[i]
        return self.qsmap.apply(x + np.exp(self.level.log_length) if self.right else x)


class ImageLevel:
    """The image of one interval level under an increasing map, mapped where it is read.

    ``lefts[i]`` and ``rights[i]``, for an int or an index array ``i``, and
    ``ends``, for a block, map the ends of those intervals only; the map is
    elementwise, so the bits do not depend on which intervals are mapped
    together.  The image keeps the level's depth, count and branching.
    """

    def __init__(self, qsmap: QsMap, level: IntervalLevel):
        self.qsmap, self.level = qsmap, level
        self.depth, self.count, self.branching = level.depth, level.count, level.branching
        self.lefts, self.rights = (_MappedSide(qsmap, level, right) for right in (False, True))

    def ends(self, s: slice, out: tuple) -> tuple:
        """The image left and right ends of the intervals ``s``, a unit-step slice,
        into the heads of the two arrays ``out``, from one read of the left ends
        (a generated level forms them there too)."""
        lefts, rights = out
        x = self.level.lefts_at(s, lefts, rights)
        rights = np.add(x, np.exp(self.level.log_length), out=rights[:len(x)])
        return self.qsmap.apply(x, out=lefts[:len(x)]), self.qsmap.apply(rights, out=rights)

    @property
    def parent_index(self) -> np.ndarray:
        return self.level.parent_index

    @property
    def diams(self) -> np.ndarray:
        """The image diameters, in the buffer of the right ends: two level arrays at most."""
        lefts, rights = self.ends(slice(None), (np.empty(self.count), np.empty(self.count)))
        return np.subtract(rights, lefts, out=rights)


def push_intervals(qsmap: QsMap, level: IntervalLevel) -> ImageLevel:
    """The image of a level; its ends keep their order since maps are increasing.

    The image keeps the level's ``branching``: the tree is the same.
    """
    return ImageLevel(qsmap, level)
