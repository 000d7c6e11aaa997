"""Explicit finite distributions, exact TV distance, and batch samplers.

The distribution families here are the instance constructions used
throughout the test suite and experiments:

* ``uniform`` on ``[n]``,
* ``paired_bias(xi)``: odd 1-based positions carry mass ``(1+xi)/n`` and
  even positions ``(1-xi)/n`` (TV distance from uniform is exactly
  ``xi/2``),
* ``heavy(pmass)``: a single heavy element with the rest uniform.

``make_instance`` builds each from its levels: the normalization is exact
integer arithmetic on the level masses, and the pmf's level table is read
off the family's layout when a sampler first asks for it, with no pass over
``probs``.  The result equals ``Pmf`` of the same masses bit for bit.

``draw_batch`` has three paths, chosen from ``m``, ``n`` and the number L
of distinct positive masses (the pmf's level sets; every family above has
at most 3):

* level path, when ``min(n, 1024) <= m < 16 n`` and ``L <= 3``: one
  multinomial over the levels gives each level's total, spread uniformly
  over the level's cells by bounded integer draws.  From ``m = n`` each
  level's draws are counted and scattered into its cells; below, they
  index the cells directly.  Both forms make the same draws and count the
  same cells.
* multinomial path, otherwise when ``m >= n``: numpy's multinomial.
* alias path, otherwise: ``m`` draws from the pmf's cached Walker alias
  table and one ``bincount``.

Every path draws exactly a multinomial(m, p) vector and hands it to
``SampleBatch`` without a copy; the paths differ only in how they consume
the stream.

``draw_batches`` draws k such vectors as one ``(k, n)`` array.  When
``n <= m``, ``L <= 3`` and ``3 sqrt(m) <= 16 n`` it draws all k rows at
once:

1. every cell gets an independent Poisson(``r p_i``) count, with
   ``r = m - 3 sqrt(m)``, by lookup in the cached ``PoissonTable`` of the
   level's cell rate (numpy's Poisson sampler past rate 4096);
2. a row whose total N exceeds m is redrawn;
3. each row's ``m - N`` missing samples are split over the levels by one
   multinomial for all rows and spread uniformly in each level.

Given N, a row of independent Poisson counts is multinomial(N, p), and
acceptance depends on N only; the top-up adds an independent
multinomial(m - N, p).  So every row is exactly multinomial(m, p), up to
the float rounding of the Poisson tables (a cdf within 1e-13).  The rows
are level-major (each level's cells in turn, zero-mass cells left out):
``draw_batches`` scatters them to cell order, and the tester scores them as
they are.  Otherwise the k rows are k ``draw_batch`` calls in order.

The stacked draw and the fingerprint samplers below read a pmf only
through its ``LevelTable`` (only their whole-row fallbacks read ``probs``).
What the stacked draw needs of (p, m) alone is a draw plan, built on the
first draw and cached on the level table for one m at a time: the cell
rates and the guides and cdfs of their tables, each level's first column,
and each level's top-up key of every row's first cell.  Tabled levels with
tables of one guide size are looked up together (``_JointTable``): one
gather and one call for the fresh words of every ambiguous cell, the words
one call per level would give them in turn.  A draw is then straight-line
vector code, and the tester's repeated runs on one pmf pay the set-up once.

``draw_poissonized_batch`` draws ``N ~ Poisson(m)`` and returns
``draw_batch(p, N)``: by Poissonization its coordinates are independent
Poisson(``m * p_i``).

A symmetric statistic needs only a batch's fingerprint (how many cells hold
each count).  ``_multinomial_fingerprints`` and ``_poissonized_fingerprints``
draw the fingerprints of k batches directly, all at once, the way the
barrier study draws each grid point's runs.  On a pmf with at most 3
levels whose cell rates are within the table bound, no n-length vector is
made.  A level of one cell is one count a row: a column of one multinomial
over the level masses for the multinomial rows, ``rng.poisson(m p)`` for
the Poissonized ones.  The histogram of a level's g > 1 cells of one rate
is multinomial(g, that rate's ``PoissonTable`` law), drawn over the
table's values in decreasing-mass order so that numpy's multinomial stops
soon after the likeliest values.  The multinomial rows take
``draw_batches``' top-up on those histograms (its cells being
exchangeable, a row's cells can be laid out in order of their Poisson
counts), to the rest R of m that the one-cell levels leave, from Poisson
rows at the rate ``E[R] - sqrt(E[R])``: a redrawn row costs one small
histogram, a top-up sample a sort and a search.  A pmf with no one-cell
level has R = m.  The rows come in blocks of at most ``_FINGERPRINT_BLOCK``
top-up samples and count-indexed matrix entries.  Any other pmf draws its
k rows one at a time.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

NORMALIZATION_TOL = 1e-12
# numpy's Poisson sampler rejects a rate above this (its POISSON_LAM_MAX)
_POISSON_RATE_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
# Level-path limits.  At n <= m < 16 n the level path beat numpy's multinomial
# everywhere measured, by 1.8-7.1x on 2 shared cores (n = 10^4 uniform: 73 vs
# 485 us at m = n, 689 vs 1,390 us at m = 15 n); only direct draw_batch calls
# reach it there, draw_batches taking the stacked draw.  Below m = n it saves
# the alias path's coin per sample, which pays from this many samples on.
_LEVEL_MAX_RATIO = 16
_LEVEL_MIN_SAMPLES = 1024
_LEVEL_MAX_COUNT = 3
# The Poisson rows' total rate is m - slack * sqrt(m), so about 0.13% of rows
# overshoot m and are redrawn.
_POISSON_SLACK = 3.0
# The top-up draws about slack * sqrt(m) integers per row.  Past this many per
# cell they cost more than a row's O(n) binomials, and their memory grows with
# sqrt(m): there the rows are draw_batch calls again.
_TOPUP_MAX_PER_CELL = 16
# The fingerprint samplers draw their rows in blocks of at most this many
# top-up samples and this many fingerprint matrix entries.  At the barrier's
# m = 6400 (16,000 samples for 200 rows) perfbench barrier runs with blocks of
# 2**14 had about 1 MB less peak RSS than with one block of 2**20, at the
# same speed.
_FINGERPRINT_BLOCK = 1 << 14
# The multinomial fingerprints' Poisson rows are at rate E[R] - slack * sqrt(E[R]),
# R the samples left to the levels of more than one cell, so at the barrier's
# m about 16% of them overshoot their R and are redrawn.  A redrawn row costs
# one small histogram per level, a top-up sample a sort and a search: over the
# barrier's five points, slacks from 0.5 to 1 drew fastest (within 3% of each
# other, and about 1.5x faster than _POISSON_SLACK), and 1 redraws the fewest.
_FINGERPRINT_SLACK = 1.0
# Above this rate a Poisson table and its guide would pass about 256 KB:
# such a level is drawn by numpy's own Poisson sampler instead.
_POISSON_TABLE_MAX_RATE = 4096.0

__all__ = [
    "NORMALIZATION_TOL",
    "Pmf",
    "InstanceSpec",
    "SampleBatch",
    "make_instance",
    "tv_distance",
    "AliasTable",
    "LevelTable",
    "PoissonTable",
    "draw_batch",
    "draw_batches",
    "draw_poissonized_batch",
    "draw_samples",
]


def _normalize_rows(arr: np.ndarray) -> np.ndarray:
    """``Pmf``'s renormalization, in place, of a float64 vector or each matrix row.

    A row is divided by its ``math.fsum`` total; ``ValueError`` if that total
    departs from 1 by more than ``NORMALIZATION_TOL``.
    """
    for row in (arr,) if arr.ndim == 1 else arr:
        total = _checked_total(math.fsum(row.tolist()))
        if total != 1.0:
            row /= total
    return arr


def _checked_count(value, what: str = "sample count") -> int:
    """``value`` as an int in ``[0, 2**63)``: numpy's samplers count in int64."""
    value = operator.index(value)
    if not 0 <= value < 2**63:
        raise ValueError(f"{what} must lie in [0, 2**63), got {value}")
    return value


def _checked_total(total: float) -> float:
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"pmf sums to {total!r}, not 1 within {NORMALIZATION_TOL}")
    return total


@dataclass(frozen=True, eq=False)
class Pmf:
    """An explicit probability mass function over ``{1, ..., n}``.

    Entries must be nonnegative and sum to 1 within ``NORMALIZATION_TOL``;
    inputs inside tolerance are renormalized exactly once on construction.
    Instances are immutable (the array is frozen) and safe to share across
    workers.  They compare and hash by identity, which the caches kept on
    a pmf assume.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("pmf must be a nonempty 1-d vector")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("pmf entries must be finite and >= 0")
        _normalize_rows(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    def alias_table(self) -> "AliasTable":
        """Categorical sampler for this pmf, built once and cached."""
        table = getattr(self, "_alias", None)
        if table is None:
            table = AliasTable(self.probs)
            object.__setattr__(self, "_alias", table)
        return table

    def level_table(self) -> "LevelTable | None":
        """Level sets of this pmf, built once and cached: all that the
        stacked draw and the fingerprint samplers read of it besides ``n``.

        ``None`` when the pmf has more than ``_LEVEL_MAX_COUNT`` distinct
        positive masses; the peeling build stops there, so such a pmf pays
        at most ``_LEVEL_MAX_COUNT + 1`` vectorized passes, and no sort.  A
        ``make_instance`` pmf builds the same table from its layout, with no
        pass over ``probs``.
        """
        if "_levels" not in self.__dict__:
            layout = self.__dict__.get("_layout")
            levels = LevelTable.build(self.probs) if layout is None else LevelTable.of_layout(self.n, layout)
            object.__setattr__(self, "_levels", levels)
        return self.__dict__["_levels"]

    # -- serialization ----------------------------------------------------
    # Both formats round-trip bit-exactly: Python float repr is the
    # shortest string that parses back to the same 64-bit value.

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "probs": list(self.probs)})

    @classmethod
    def from_json(cls, text: str) -> "Pmf":
        obj = json.loads(text)
        probs = obj.get("probs") if isinstance(obj, dict) else None
        if not (isinstance(probs, list) and "n" in obj and all(type(x) in (int, float) for x in probs)):
            raise ValueError('pmf json: need an object with an "n" field and a "probs" list of numbers')
        pmf = cls(np.array(probs, dtype=np.float64))
        if pmf.n != obj["n"]:
            raise ValueError("pmf json: n field disagrees with probs length")
        return pmf

    def to_text(self) -> str:
        return "\n".join(repr(float(x)) for x in self.probs) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Pmf":
        values = [float(tok) for tok in text.split()]
        return cls(np.array(values, dtype=np.float64))


@dataclass(frozen=True)
class InstanceSpec:
    """Parametric description of an instance family member.

    ``kind`` is one of ``uniform``, ``paired_bias``, ``heavy``;
    only the parameters relevant to the kind are set.  Every statistic is
    symmetric, so a relabeled instance has the same law and needs no kind.
    """

    kind: str
    xi: float | None = None
    pmass: float | None = None

    @classmethod
    def uniform(cls) -> "InstanceSpec":
        return cls(kind="uniform")

    @classmethod
    def paired_bias(cls, xi: float) -> "InstanceSpec":
        return cls(kind="paired_bias", xi=xi)

    @classmethod
    def heavy(cls, pmass: float) -> "InstanceSpec":
        return cls(kind="heavy", pmass=pmass)

    def describe(self) -> str:
        if self.kind == "paired_bias":
            return f"paired_bias(xi={self.xi!r})"
        if self.kind == "heavy":
            return f"heavy(pmass={self.pmass!r})"
        return self.kind


def make_instance(spec: InstanceSpec, n: int) -> Pmf:
    """Materialize an instance description as an explicit pmf on ``[n]``.

    The pmf is made from its levels (``_family_pmf``): it equals ``Pmf`` of
    the same masses bit for bit, and its level table needs no peel.
    """
    if n < 1:
        raise ValueError("domain size must be >= 1")
    if spec.kind == "uniform":
        return _family_pmf(n, [(range(n), 1.0 / n)])
    if spec.kind == "paired_bias":
        xi = spec.xi
        if xi is None or not 0.0 <= xi <= 1.0:
            raise ValueError("paired bias needs a bias xi in [0, 1]")
        if n % 2 != 0:
            raise ValueError("paired bias requires an even domain size")
        # odd 1-based positions are heavy
        return _family_pmf(n, [(range(0, n, 2), (1.0 + xi) / n), (range(1, n, 2), (1.0 - xi) / n)])
    if spec.kind == "heavy":
        pmass = spec.pmass
        if pmass is None or not (1.0 / n <= pmass <= 1.0):
            raise ValueError("heavy-element mass must lie in [1/n, 1]")
        layout = [(range(1), pmass)]
        if n > 1:
            layout.append((range(1, n), (1.0 - pmass) / (n - 1)))
        return _family_pmf(n, layout)
    raise ValueError(f"unknown instance kind {spec.kind!r}")


def _family_pmf(n: int, layout: list[tuple[range, float]]) -> Pmf:
    """The pmf on ``[n]`` whose cells ``cells`` carry ``mass``, for each
    ``(cells, mass)`` of ``layout``: ranges that cover ``[n]``, in order of
    their first cell.

    It equals ``Pmf`` of those masses bit for bit, without an n-length pass
    over them: ``math.fsum`` of the cells is their exact total, correctly
    rounded, which integer arithmetic on the masses gives too, and finite
    masses >= 0 need no check.  The normalized layout stays on the pmf, and
    ``level_table`` builds the levels from it (``LevelTable.of_layout``).
    """
    layout = [(cells, float(mass)) for cells, mass in layout]
    # each mass is num / den with den a power of two; an int quotient is correctly rounded
    ratios = [mass.as_integer_ratio() for _, mass in layout]
    den = max(d for _, d in ratios)
    exact = sum(len(cells) * num * (den // d) for (cells, _), (num, d) in zip(layout, ratios))
    total = _checked_total(exact / den)
    if total != 1.0:
        layout = [(cells, mass / total) for cells, mass in layout]
    probs = np.empty(n, dtype=np.float64)
    for cells, mass in layout:
        probs[cells.start:cells.stop:cells.step] = mass
    probs.flags.writeable = False
    pmf = object.__new__(Pmf)
    pmf.__dict__.update(probs=probs, _layout=layout)
    return pmf


def tv_distance(p: Pmf, q: Pmf) -> float:
    """Total variation distance ``(1/2) sum_i |p_i - q_i|``."""
    if p.n != q.n:
        raise ValueError(f"domain mismatch: {p.n} vs {q.n}")
    return 0.5 * math.fsum(np.abs(p.probs - q.probs).tolist())


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """The frequency vector of one batch of samples.

    ``counts[i]`` is the number of occurrences of element ``i+1``; ``m`` is
    the realized total (for Poissonized batches this is the random sum).
    Batches compare and hash by identity.
    """

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.dtype.kind not in "iu":
            raise ValueError("counts must be integers")
        # cast first: a uint64 count past int64's range turns negative and fails
        arr = arr.astype(np.int64, copy=True)
        if arr.ndim != 1 or arr.size == 0 or arr.min() < 0:
            raise ValueError("counts must be a nonempty vector of nonnegative ints")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @classmethod
    def _adopt(cls, counts: np.ndarray, m: int) -> "SampleBatch":
        """Wrap a fresh int64 vector that a sampler made and knows sums to ``m``.

        The vector is frozen in place; the copy, the checks and the ``m``
        pass of the constructor are skipped.
        """
        assert counts.dtype == np.int64
        counts.flags.writeable = False
        batch = object.__new__(cls)
        batch.__dict__.update(counts=counts, m=m)
        return batch

    @property
    def n(self) -> int:
        return self.counts.shape[0]

    @cached_property
    def m(self) -> int:
        counts = self.counts
        if int(counts.max()) * counts.size < 2**63:
            return int(counts.sum())
        return sum(counts.tolist())  # wide-integer path: the int64 sum could wrap


class AliasTable:
    """Walker alias table for O(1)-per-draw categorical sampling.

    Built in vectorized ``O(n)`` as the closed form of the LIFO sweep: the
    last heavy cell (``n * p_i >= 1``) serves the lights from the highest
    index down, and a heavy whose residual drops below 1 becomes a light
    served by the next heavy.  With cumulative deficits ``D_k`` of the
    lights and excesses ``E_j`` of the heavies in that order, light ``k``
    goes to the first heavy with ``E_j >= D_{k-1}``, and heavy ``j`` keeps
    ``1 + E_j - D_k`` at the first ``D_k > E_j``.  The table equals the
    sweep's bit for bit where its arithmetic is exact, and agrees within
    rounding elsewhere.
    """

    def __init__(self, probs: np.ndarray):
        n = probs.shape[0]
        scaled = probs * n
        self.accept = np.ones(n, dtype=np.float64)
        self.alias = np.arange(n, dtype=np.int64)
        light = np.flatnonzero(scaled < 1.0)[::-1]
        heavy = np.flatnonzero(scaled >= 1.0)[::-1]
        if light.size == 0 or heavy.size == 0:
            return
        deficit = np.cumsum(1.0 - scaled[light])
        excess = np.cumsum(scaled[heavy] - 1.0)
        before = np.concatenate(([0.0], deficit[:-1]))
        server = np.searchsorted(excess, before, side="left")
        served = server < heavy.size
        self.accept[light[served]] = scaled[light[served]]
        self.alias[light[served]] = heavy[server[served]]
        # every heavy but the last can drop below 1 and pass to the next one
        drop = np.searchsorted(deficit, excess[:-1], side="right")
        dropped = np.flatnonzero(drop < light.size)
        residual = 1.0 + (excess[dropped] - deficit[drop[dropped]])
        # a zero-mass light can round the residual a few ulps below 0
        self.accept[heavy[dropped]] = np.maximum(residual, 0.0)
        self.alias[heavy[dropped]] = heavy[dropped + 1]
        # cells left unserved are 1.0 up to rounding; keep accept=1, alias=self

    def draw(self, size: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.integers(0, self.accept.shape[0], size=size)
        take_alias = rng.random(size) >= self.accept[idx]
        return np.where(take_alias, self.alias[idx], idx)


class LevelTable:
    """The level sets of a pmf: its distinct positive masses and their cells.

    ``cells[l]`` holds the cells (ascending) of the l-th distinct mass, in
    order of first appearance, ``sizes[l]`` their count and ``cell_mass[l]``
    the mass of each.  ``mass[l]`` is the level's mass, clamped at 1 (uniform
    on 998 cells rounds one ulp past it, which multinomial rejects).
    Zero-mass cells, ``zeros`` of them, belong to no level and are never drawn.
    """

    def __init__(self, n: int, cells: list[np.ndarray], cell_mass: list[float]):
        self.n = n
        self.cells = cells
        self.sizes = [c.size for c in cells]
        self.cell_mass = cell_mass
        self.mass = np.minimum([value * g for value, g in zip(cell_mass, self.sizes)], 1.0)
        # the level-major cell order of the stacked draw's rows
        self.order = np.concatenate(cells)
        self.zeros = n - self.order.size
        self._plan = None

    def plan(self, m: int) -> "_DrawPlan":
        """The stacked draw's plan at m, built on first use and cached for one m at a time."""
        if self._plan is None or self._plan.m != m:
            self._plan = _DrawPlan(self, m)
        return self._plan

    @cached_property
    def split(self) -> tuple[list[int], list[int], float, np.ndarray]:
        """``(one, spread, rest, mass)``: the indices of the levels of one
        cell, which the fingerprint samplers draw as one count a row, and of
        the others, the others' total mass, and their masses over it.  With
        no level of one cell, ``rest`` is 1 and ``mass`` is ``self.mass``.
        """
        one = [l for l, g in enumerate(self.sizes) if g == 1]
        spread = [l for l, g in enumerate(self.sizes) if g > 1]
        if not one:
            return one, spread, 1.0, self.mass
        rest = math.fsum(self.mass[spread].tolist())
        return one, spread, rest, self.mass[spread] / rest

    @classmethod
    def build(cls, probs: np.ndarray) -> "LevelTable | None":
        """Peel off one level per pass; ``None`` past ``_LEVEL_MAX_COUNT`` levels."""
        rest = np.flatnonzero(probs > 0.0)
        cells = []
        while rest.size:
            if len(cells) == _LEVEL_MAX_COUNT:
                return None
            same = probs[rest] == probs[rest[0]]
            cells.append(rest[same])
            rest = rest[~same]
        return cls(probs.shape[0], cells, [float(probs[c[0]]) for c in cells])

    @classmethod
    def of_layout(cls, n: int, layout: list[tuple[range, float]]) -> "LevelTable":
        """The table ``build`` gives for a ``_family_pmf`` layout, read off its ranges.

        Ranges of one mass are merged, and zero-mass ones left out; the
        layout's ranges come in order of their first cell, so the levels
        come in order of first appearance.
        """
        ranges: dict[float, list[range]] = {}
        for cells, mass in layout:
            if mass > 0.0:
                ranges.setdefault(mass, []).append(cells)
        cells = [np.arange(rs[0].start, rs[0].stop, rs[0].step) if len(rs) == 1 else
                 np.sort(np.concatenate([np.arange(r.start, r.stop, r.step) for r in rs]))
                 for rs in ranges.values()]
        return cls(n, cells, list(ranges))

    def draw(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """Counts of m samples: level totals, then uniform spreading in each level.

        Given its total K, a level's samples are K i.i.d. uniform draws over
        its g equal-mass cells, so the result is exactly multinomial(m, p).
        Below ``m = n`` the drawn cells are gathered and counted at once;
        from ``m = n`` each level's counts are scattered into its cells.
        Same draws in the same order, so same counts and stream state.
        """
        totals = rng.multinomial(m, self.mass).tolist()
        if m < self.n:
            drawn = [cells[rng.integers(0, cells.shape[0], k)] for cells, k in zip(self.cells, totals)]
            return np.bincount(np.concatenate(drawn), minlength=self.n)
        counts = np.zeros(self.n, dtype=np.int64)
        for cells, k in zip(self.cells, totals):
            g = cells.shape[0]
            counts[cells] = np.bincount(rng.integers(0, g, k), minlength=g)
        return counts


class PoissonTable:
    """Inverse-CDF table of Poisson(lam), read through a guide of 16-bit chunks.

    ``cdf[i]`` is ``P(X <= lo + i)``, built by the log-ratio recurrence
    outward from the mode, normalized, and its last entry set to 1.0; each
    value left out below ``lo`` or past the end is under ``2**-60`` times
    the modal mass, and the cdf is within 1e-13 of the exact one.  A
    uniform ``u`` on numpy's 53-bit grid (``random()``) maps to
    ``lo + searchsorted(cdf, u, "right")``.

    The guide splits ``[0, 1)`` into Q = ``2**bits`` equal buckets, Q the
    power of two at least 32 times the table (``bits <= 16`` up to the
    rate bound 4096).  ``guide[j]`` is ``lo`` plus the answer shared by
    every u in bucket j, or -1 when a cdf entry falls inside the bucket
    (about 1% of buckets).  ``_JointTable.lookup`` takes the bucket from the
    top ``bits`` of a random 16-bit chunk; only a cell whose bucket is
    ambiguous draws a fresh 64-bit word, whose low ``53 - bits`` bits
    complete u on the 53-bit grid.  So u is uniform on the grid ``random()``
    uses, and the result equals the plain search of that u bit for bit:
    the law is the one ``searchsorted(cdf, rng.random())`` gives, from a
    quarter of a random word per cell.
    """

    def __init__(self, lam: float):
        mode = math.floor(lam)
        reach = math.ceil(12.0 * math.sqrt(lam)) + 30
        lo = max(0, mode - reach)
        # log(pmf[k] / pmf[mode]); a rate of 0 (or one that underflows) gives
        # log(0) = -inf past the mode, and the table [1.0]
        with np.errstate(divide="ignore"):
            up = np.cumsum(np.log(lam / np.arange(mode + 1, mode + reach + 1)))
        down = np.cumsum(np.log(np.arange(mode, lo, -1) / lam))[::-1]
        logs = np.concatenate((down, [0.0], up))
        kept = np.flatnonzero(logs >= -60.0 * math.log(2.0))
        first, last = int(kept[0]), int(kept[-1])
        pmf = np.exp(logs[first:last + 1])
        # the running sum can pass 1 by an ulp before its end: clip, so it stays sorted
        cdf = np.minimum(np.cumsum(pmf / math.fsum(pmf.tolist())), 1.0)
        cdf[-1] = 1.0
        self.lo = lo + first
        self.cdf = cdf
        self.bits = (32 * cdf.size - 1).bit_length()
        # cdf * q is exact, so cdf[i] <= j/q iff ceil(cdf[i] * q) <= j: bucket j
        # answers lo + i for the i with ceil(cdf[i - 1] * q) <= j < ceil(cdf[i] * q),
        # and the bucket ceil(cdf[i] * q) - 1 that holds cdf[i] is ambiguous
        ceil = np.ceil(cdf * (1 << self.bits)).astype(np.intp)
        steps = ceil.copy()
        steps[1:] -= ceil[:-1]
        self.guide = np.repeat(np.arange(self.lo, self.lo + cdf.size, dtype=np.int32), steps)
        self.guide[ceil - 1] = -1

    @cached_property
    def pmf(self) -> np.ndarray:
        """The table's law: ``pmf[i]`` is the probability of ``lo + i``, the steps of ``cdf``."""
        return np.diff(self.cdf, prepend=0.0)

    @cached_property
    def by_mass(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, mass)``: the indices of ``pmf`` in decreasing-mass order, and their masses."""
        order = np.argsort(-self.pmf, kind="stable")
        return order, self.pmf[order]

class _JointTable:
    """``PoissonTable``s of one ``bits`` read as one: consecutive blocks of
    chunks, block l through table l, in one gather and one ``fresh`` call.

    A cell's result is ``lo + searchsorted(cdf, u, "right")`` of its table,
    for the 53-bit u made of its chunk's top ``bits`` and, in an ambiguous
    bucket, the low ``53 - bits`` bits of its fresh word.  Table l's buckets
    are numbered from ``l * 2**bits`` (``guide`` is the tables' guides one
    after another), so an ambiguous cell's bucket and fresh bits make
    ``x + l * 2**53``, with u = ``x / 2**53``.  ``cdf[i] <= u`` iff
    ``ceil(cdf[i] * 2**53) <= x``, so one search of ``thresholds`` (each
    table's ceilings plus ``l * 2**53``, one after another) finds every
    block's answer in ``values``.  The fresh words go to the ambiguous cells
    in cell order: the words one call per block, in turn, would give them.
    """

    def __init__(self, tables: list[PoissonTable]):
        self.bits = tables[0].bits
        self.guide = np.concatenate([table.guide for table in tables])
        self.thresholds = np.concatenate([np.ceil(table.cdf * 2.0**53).astype(np.int64) + (l << 53)
                                          for l, table in enumerate(tables)])
        self.values = np.concatenate([table.lo + np.arange(table.cdf.size, dtype=np.int32) for table in tables])

    def lookup(self, chunks: np.ndarray, ends: list[int], fresh) -> np.ndarray:
        """Poisson variates for random 16-bit ``chunks``, one per cell, block l
        ending at ``ends[l]``.  ``fresh(count)`` returns ``count`` random
        64-bit words, called once if any chunk falls in an ambiguous bucket."""
        bucket = chunks.astype(np.intp)
        bucket >>= 16 - self.bits
        for l, (start, end) in enumerate(zip(ends, ends[1:]), 1):
            bucket[start:end] += l << self.bits
        out = self.guide[bucket]
        ambiguous = np.flatnonzero(out < 0)
        if ambiguous.size:
            low = 53 - self.bits
            x = bucket[ambiguous] << low
            x |= fresh(ambiguous.size).view(np.int64) & ((1 << low) - 1)
            out[ambiguous] = self.values[np.searchsorted(self.thresholds, x, side="right")]
        return out


# Tables are keyed by the cell rate.  A pmf's draw plan keeps what it needs of
# its tables, so the tester asks here once per (pmf, m), and a replicability
# prior's new rates for every pair miss anyway.  The barrier's fingerprint
# samplers ask on every call: a barrier round uses 10 laws, the light level's
# at 5 m and at two rates (the multinomial fingerprints' Poisson rows and the
# chi-square's m p); its heavy cell is one count a row and needs no table.
# An LRU cache smaller than a round's laws would rebuild them all every round.
@lru_cache(maxsize=32)
def _poisson_table(lam: float) -> PoissonTable:
    return PoissonTable(lam)


class _DrawPlan:
    """What ``_stacked_draw`` needs of a level table at one m beyond the
    table itself, built once (``LevelTable.plan``).

    Per level: the Poisson cell rate ``(m - slack sqrt(m)) p_l`` and the
    first column of the level-major row (``offsets``).  ``groups`` splits
    the levels, in order, into runs of levels whose ``PoissonTable``s have
    one ``bits``, each read through one ``_JointTable``, and single levels
    past the table bound (table None).  It keeps no reference to the table
    that holds it: that cycle would outlive the pmf until a full collection.
    """

    def __init__(self, levels: LevelTable, m: int):
        self.m = m
        rate = max(m - _POISSON_SLACK * math.sqrt(m), 0.0)
        self.rates = [rate * value for value in levels.cell_mass]
        tables = [None if lam > _POISSON_TABLE_MAX_RATE else _poisson_table(lam) for lam in self.rates]
        self.offsets = [0, *itertools.accumulate(levels.sizes[:-1])]
        self.tabled = sum(g for g, table in zip(levels.sizes, tables) if table is not None)
        self.groups: list[tuple[list[int], _JointTable | None]] = []
        for bits, run in itertools.groupby(range(len(tables)), lambda l: getattr(tables[l], "bits", None)):
            run = list(run)
            if bits is None:
                self.groups += [([l], None) for l in run]
            else:
                self.groups.append((run, _JointTable([tables[l] for l in run])))
        self._starts = (-1, None)

    def starts(self, k: int, width: int) -> np.ndarray:
        """The top-up key ``r * width + offsets[l]`` of each level l's first
        cell in each row r < k of ``width`` cells, level-major; kept for the
        last k."""
        if self._starts[0] != k:
            self._starts = (k, np.add.outer(self.offsets, np.arange(k) * width).ravel())
        return self._starts[1]


def _poisson_rows(levels: LevelTable, plan: _DrawPlan, rows: int, rng: np.random.Generator) -> np.ndarray:
    """A ``(rows, width)`` array of independent Poisson counts over the cells
    of ``levels.order``, cell rate ``plan.rates[l]`` in level l.

    One ``random_raw`` call gives each cell of a tabled level a 16-bit chunk,
    4 per word, level 0's ``rows x g0`` block first.  Each group of tabled
    levels reads its chunks in one ``_JointTable.lookup``; a level whose
    rate passes the table bound is drawn by numpy's Poisson sampler.
    """
    counts = np.empty((rows, levels.order.size), dtype=np.int64)
    chunks = rng.bit_generator.random_raw(-(-rows * plan.tabled // 4)).view(np.uint16)
    start = 0
    for group, joint in plan.groups:
        if joint is None:
            (l,) = group
            off, g = plan.offsets[l], levels.sizes[l]
            counts[:, off:off + g] = rng.poisson(plan.rates[l], (rows, g))
            continue
        ends = list(itertools.accumulate(rows * levels.sizes[l] for l in group))
        out = joint.lookup(chunks[start:start + ends[-1]], ends, rng.bit_generator.random_raw)
        for l, lo, hi in zip(group, [0, *ends], ends):
            off, g = plan.offsets[l], levels.sizes[l]
            counts[:, off:off + g] = out[lo:hi].reshape(rows, g)
        start += ends[-1]
    return counts


def _stacked_draw(levels: LevelTable, m: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k multinomial(m, p) rows of the pmf of ``levels``, level-major
    (columns ``levels.order``): Poisson rows at total rate below m, then a
    top-up.

    Each cell gets a Poisson(r p_i) count, ``r = m - slack * sqrt(m)``.  A
    row whose total N passes m is redrawn; the rest are topped up with
    ``m - N`` more samples, split over the levels by one multinomial and
    spread uniformly in each level.  Given N a Poisson row is
    multinomial(N, p) and acceptance depends on N only, so each row is
    multinomial(N, p) plus an independent multinomial(m - N, p).  Everything
    that depends on (p, m) alone comes from the table's plan.
    """
    plan = levels.plan(m)
    counts = _poisson_rows(levels, plan, k, rng)
    totals = counts.sum(axis=1)
    over = np.flatnonzero(totals > m)
    while over.size:
        counts[over] = _poisson_rows(levels, plan, over.size, rng)
        totals[over] = counts[over].sum(axis=1)
        over = over[totals[over] > m]
    split = rng.multinomial(m - totals, levels.mass).T
    keys = np.repeat(plan.starts(k, counts.shape[1]), split.ravel())
    per_level = split.sum(axis=1).tolist()
    keys += np.concatenate([rng.integers(0, g, total) for g, total in zip(levels.sizes, per_level)])
    counts += np.bincount(keys, minlength=counts.size).reshape(counts.shape)
    return counts


def _draw_rows(p: Pmf, m: int, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
    """The rows of ``draw_batches`` before their scatter to cell order.

    Returns ``(rows, order)``: from the stacked draw the rows are level-major,
    column j counting cell ``order[j]``, and the zero-mass cells are left out;
    otherwise ``order`` is None and the rows are in cell order.
    """
    m, k = _checked_count(m), _checked_count(k, "batch count")
    stacked = p.n <= m and _POISSON_SLACK * math.sqrt(m) <= _TOPUP_MAX_PER_CELL * p.n
    levels = p.level_table() if stacked else None
    if levels is not None:
        return _stacked_draw(levels, m, k, rng), levels.order
    counts = np.empty((k, p.n), dtype=np.int64)
    for row in counts:
        row[:] = draw_batch(p, m, rng).counts
    return counts, None


def draw_batches(p: Pmf, m: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw k independent multinomial(m, p) frequency vectors as a ``(k, n)`` int64 array.

    Deterministic given the stream state.  For ``n <= m`` and
    ``3 sqrt(m) <= 16 n``, on a pmf with at most 3 levels, all k rows come
    from one stacked Poisson draw plus an exact top-up (``_stacked_draw``):
    a fixed number of vectorized calls over ``k * n`` cells and ``k``
    top-ups of about ``3 sqrt(m)`` samples, each Poisson count read from a
    16-bit chunk through ``PoissonTable``s.  Its set-up for (p, m) is the
    draw plan cached on the pmf's level table (``LevelTable.plan``).  That
    draw makes its rows level-major, and they are scattered to cell order
    once, here.  Otherwise each row is one ``draw_batch``, in order.
    """
    rows, order = _draw_rows(p, m, k, rng)
    if order is None:
        return rows
    counts = np.zeros((rows.shape[0], p.n), dtype=np.int64)
    counts[:, order] = rows
    return counts


def draw_batch(p: Pmf, m: int, rng: np.random.Generator) -> SampleBatch:
    """Draw one multinomial(m, p) frequency vector.

    Deterministic given the stream state.  Three paths, by ``m``, ``n`` and
    the pmf's level count L (see the module docstring for their costs):

    * ``min(n, 1024) <= m < 16 n`` and ``L <= 3``: ``p.level_table()``
      draws the L level totals and spreads each uniformly over its cells
      (gathered below ``m = n``, scattered from it: same draws, same bits);
    * otherwise ``m >= n``: numpy's conditional-binomial multinomial;
    * otherwise: ``m`` draws from ``p.alias_table()`` counted by ``bincount``.

    The m test comes first, so a pmf drawn only outside
    ``[min(n, 1024), 16 n)`` never builds its level table.  Several batches
    of one pmf and m are cheaper through ``draw_batches``.
    """
    m = _checked_count(m)
    n = p.n
    levels = p.level_table() if min(n, _LEVEL_MIN_SAMPLES) <= m < _LEVEL_MAX_RATIO * n else None
    if levels is not None:
        counts = levels.draw(m, rng)
    elif m >= n:
        counts = rng.multinomial(m, p.probs)
    else:
        counts = np.bincount(p.alias_table().draw(m, rng), minlength=n)
    return SampleBatch._adopt(counts, m)


def draw_samples(p: Pmf, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an ordered sequence of ``m`` i.i.d. samples (0-based indices)."""
    m = _checked_count(m)
    return p.alias_table().draw(m, rng).astype(np.int64)


def _check_poisson_rate(m: float) -> None:
    if not (m > 0 and math.isfinite(m)):
        raise ValueError(f"poisson rate must be finite and > 0, got {m!r}")
    if m > _POISSON_RATE_MAX:
        raise ValueError(f"poisson rate m = {m!r} exceeds numpy's limit {_POISSON_RATE_MAX!r}")


def draw_poissonized_batch(p: Pmf, m: float, rng: np.random.Generator) -> SampleBatch:
    """Draw each count independently as Poisson(m * p_i).

    Draws the total ``N ~ Poisson(m)`` and returns ``draw_batch(p, N)``:
    given ``N``, independent Poisson counts are multinomial(N, p), so the law
    is the same, at the cost of one ``draw_batch``.
    """
    _check_poisson_rate(m)
    return draw_batch(p, int(rng.poisson(m)), rng)


def _fingerprint_tables(levels: LevelTable, rates: list[float]) -> list[PoissonTable] | None:
    """The cached ``PoissonTable`` of the cell rate ``rates[l]`` of each level
    l of more than one cell (``levels.split``), in order.

    ``None`` when a rate, a one-cell level's included, passes
    ``_POISSON_TABLE_MAX_RATE``: the fingerprint samplers then draw whole
    rows, so no count-indexed matrix grows much past the bound.
    """
    if max(rates) > _POISSON_TABLE_MAX_RATE:
        return None
    return [_poisson_table(rates[l]) for l in levels.split[1]]


def _level_draws(tables: list[PoissonTable], sizes: list[int], k: int,
                 rng: np.random.Generator) -> list[tuple[int, np.ndarray]]:
    """k independent rows of each level's Poisson counts, as ``(table.lo, hist)``.

    Entry ``[r, j]`` of a level's ``(k, table width)`` histogram counts the
    cells that hold ``table.lo + j`` in row r.  The level's g cells share
    one rate, so that histogram is multinomial(g, the table's law).  It is
    drawn over the values in decreasing-mass order (``table.by_mass``) and
    its columns are put back in value order.  numpy's multinomial stops once
    all g cells are placed, so a level walks the few values that hold most
    of its cells, not the table's tails.
    """
    draws = []
    for table, g in zip(tables, sizes):
        order, mass = table.by_mass
        hist = np.empty((k, order.size), dtype=np.int64)
        hist[:, order] = rng.multinomial(g, mass, size=k)
        draws.append((table.lo, hist))
    return draws


def _row_totals(draws: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Each row's total count over ``(offset, hist)`` histograms."""
    return sum(hist @ (offset + np.arange(hist.shape[1])) for offset, hist in draws)


def _histogram_matrix(zeros: int, k: int, draws: list[tuple[int, np.ndarray]],
                      ones: list[np.ndarray], spare: int = 0) -> np.ndarray:
    """The count-indexed ``(k, W)`` fingerprint matrix of the levels' draws.

    Each ``(offset, hist)`` of ``draws`` adds ``hist[r, j]`` cells of count
    ``offset + j`` to row r, each one-cell level's counts ``ones[l]`` one
    cell of count ``ones[l][r]``, and the ``zeros`` zero-mass cells count 0.
    ``spare`` columns of zeros are left past the draws' widest value.
    """
    width = max([offset + hist.shape[1] + spare for offset, hist in draws] + [int(c.max()) + 1 for c in ones])
    out = np.zeros((k, width), dtype=np.int64)
    out[:, 0] = zeros
    for offset, hist in draws:
        out[:, offset:offset + hist.shape[1]] += hist
    for counts in ones:
        out[np.arange(k), counts] += 1
    return out


def _block_rows(k: int, tables: list[PoissonTable], ones: list[np.ndarray],
                keys: int = 0) -> list[tuple[int, int]]:
    """``(start, stop)`` of consecutive blocks of k rows, at least one row a block.

    A block's top-up keys (``keys`` a row) and the entries of its
    count-indexed matrix (about the widest ``table.lo + width``, or the
    largest one-cell count in ``ones``, a row) each stay under
    ``_FINGERPRINT_BLOCK``.
    """
    width = max([table.lo + table.cdf.size for table in tables] + [int(c.max(initial=0)) + 1 for c in ones])
    rows = max(1, _FINGERPRINT_BLOCK // max(keys, width))
    return [(start, min(start + rows, k)) for start in range(0, k, rows)]


def _entries(hist: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fingerprints ``(values, mult, starts)`` of a count-indexed ``(k, W)`` matrix."""
    rows, values = np.nonzero(hist)
    return values, hist[rows, values], np.searchsorted(rows, np.arange(hist.shape[0]))


def _joined(parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fingerprints of several ``(values, mult, starts)`` one after another."""
    empty = np.zeros(0, dtype=np.int64)
    offsets = np.cumsum([0] + [values.size for values, _, _ in parts])
    return (np.concatenate([values for values, _, _ in parts] + [empty]),
            np.concatenate([mult for _, mult, _ in parts] + [empty]),
            np.concatenate([starts + offset for (_, _, starts), offset in zip(parts, offsets)] + [empty]))


def _fingerprints_of_rows(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fingerprints of count vectors drawn one at a time, each reduced as it comes."""
    return _joined([(*np.unique(row, return_counts=True), np.zeros(1, dtype=np.int64)) for row in rows])


def _topped_up_block(zeros: int, tables: list[PoissonTable], sizes: list[int], m: int, k: int,
                     ones: list[np.ndarray], mass: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """k multinomial(m, p) fingerprints as a count-indexed ``(k, W)`` matrix:
    the k counts ``ones[l]`` of each one-cell level, ``zeros`` cells of mass
    0, and ``_stacked_draw``'s Poisson rows and top-up on the histograms of
    the other levels (``tables``, ``sizes`` cells each, ``mass`` their
    masses over their total).

    The other levels hold the rest R of a row's m, and given R they are
    multinomial(R, ``mass``): a row is redrawn while its Poisson total
    passes its R, and is then topped up to R.  In a level the cells are
    exchangeable, and the top-up picks its cells uniformly and independently
    of the Poisson counts, so a row's cells may be laid out in order of their
    Poisson count, as the histogram gives them.  Top-up key
    ``row * g + cell`` is then the cell's place in the level's flattened
    layout.  The sorted keys' runs give the hit cells and how often each is
    hit, and for each t one search of the running sum over the layout's
    nonempty (row, count) bins counts the cells hit t times in each bin,
    which move t counts up.
    """
    if not tables:
        return _histogram_matrix(zeros, k, [], ones)
    remaining = m - sum(ones)
    draws = _level_draws(tables, sizes, k, rng)
    totals = _row_totals(draws)
    over = (totals > remaining).nonzero()[0]
    while over.size:
        redrawn = _level_draws(tables, sizes, over.size, rng)
        for (_, hist), (_, new) in zip(draws, redrawn):
            hist[over] = new
        totals[over] = _row_totals(redrawn)
        over = (totals > remaining).nonzero()[0]
    split = rng.multinomial(remaining - totals, mass)
    tops = []
    for l, g in enumerate(sizes):
        # int32 keys where they fit halve the memory the sort moves
        dtype = np.int32 if k * g < 2**31 else np.int64
        keys = np.repeat(np.arange(k, dtype=dtype) * g, split[:, l])
        keys += rng.integers(0, g, keys.size, dtype=dtype)
        tops.append(np.unique(keys, return_counts=True))
    out = _histogram_matrix(zeros, k, draws, ones, max(int(inc.max(initial=0)) for _, inc in tops))
    for (lo, hist), (hit, inc) in zip(draws, tops):
        # the layout's nonempty (row, count) bins and the places where each ends
        bins = np.flatnonzero(hist)
        ends = np.cumsum(hist.ravel()[bins])
        rows, col = np.divmod(bins, hist.shape[1])
        col += lo
        for t in np.flatnonzero(np.bincount(inc)).tolist():
            # the cells hit t times in each bin move t counts up
            moved = np.diff(np.searchsorted(hit[inc == t], ends, side="left"), prepend=0)
            out[rows, col] -= moved
            out[rows, col + t] += moved
    return out


def _multinomial_fingerprints(p: Pmf, m: int, k: int,
                              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fingerprints of k independent multinomial(m, p) batches.

    Returns ``(values, mult, starts)``: row r's cells hold the distinct
    counts ``values[j]``, ascending, ``mult[j]`` cells each, for j from
    ``starts[r]`` up to ``starts[r + 1]`` (the end, for the last row).  So
    a row's ``mult`` sums to n, and its ``mult * values`` to m.  The law is
    that of k ``draw_batch`` rows, up to the ``PoissonTable`` rounding
    ``_stacked_draw`` has (a cdf within 1e-13).

    No n-length vector is made on a pmf with at most 3 levels whose cell
    rates are within the table bound.  With a level of one cell, one
    multinomial over the level masses gives each row's level totals: a
    one-cell level's total is its cell's count, and the rest R of the row's
    m falls to the other levels, of total mass ``rest``.  Given R, their
    counts are multinomial(R, their masses / rest): ``_stacked_draw``'s
    Poisson rows and top-up to R on their histograms (``_topped_up_block``),
    the Poisson rows at total rate ``E[R] - sqrt(E[R])``, ``E[R] = m * rest``
    (``_FINGERPRINT_SLACK``).  A pmf with no one-cell level draws no such
    multinomial: R is m and rest is 1.  The rows are drawn in blocks
    (``_block_rows``).  Any other pmf, or a cell rate past the bound (a
    one-cell level's is ``m * p``), draws k ``draw_batch`` rows.
    """
    m, k = _checked_count(m), _checked_count(k, "batch count")
    levels = p.level_table()
    tables = None
    if levels is not None:
        one, spread, rest, mass = levels.split
        mean = m * rest
        rate = max(mean - _FINGERPRINT_SLACK * math.sqrt(mean), 0.0)
        tables = _fingerprint_tables(levels, [(rate / rest if g > 1 else m) * value
                                              for g, value in zip(levels.sizes, levels.cell_mass)])
    if tables is None:
        return _fingerprints_of_rows(draw_batch(p, m, rng).counts for _ in range(k))
    ones = list(rng.multinomial(m, levels.mass, size=k)[:, one].T) if one else []
    sizes, zeros = [levels.sizes[l] for l in spread], levels.zeros
    return _joined([_entries(_topped_up_block(zeros, tables, sizes, m, b - a, [c[a:b] for c in ones], mass, rng))
                    for a, b in _block_rows(k, tables, ones, math.ceil(mean - rate))])


def _poissonized_fingerprints(p: Pmf, m: float, k: int,
                              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fingerprints of k batches of independent Poisson(m * p_i) counts.

    Returns ``(values, mult, starts)`` as ``_multinomial_fingerprints``
    does.  No n-length vector is made on a pmf with at most 3 levels whose
    cell rates are within the table bound: a one-cell level's count is
    ``rng.poisson(m * p)`` for every row at once, each other level is
    drawn by ``_level_draws`` from its cached ``PoissonTable`` (the law the
    tester's Poisson counts use, a cdf within 1e-13 of the exact one),
    zero-mass cells count 0, and the rows are drawn in blocks
    (``_block_rows``).  Any other pmf draws all n counts of each row from
    numpy's Poisson sampler.
    """
    _check_poisson_rate(m)
    k = _checked_count(k, "batch count")
    levels = p.level_table()
    tables = None
    if levels is not None:
        rates = [m * value for value in levels.cell_mass]
        tables = _fingerprint_tables(levels, rates)
    if tables is None:
        return _fingerprints_of_rows(rng.poisson(m * p.probs) for _ in range(k))
    one, spread, _, _ = levels.split
    ones = list(rng.poisson([rates[l] for l in one], (k, len(one))).T) if one else []
    sizes, zeros = [levels.sizes[l] for l in spread], levels.zeros
    return _joined([_entries(_histogram_matrix(zeros, b - a, _level_draws(tables, sizes, b - a, rng),
                                               [c[a:b] for c in ones]))
                    for a, b in _block_rows(k, tables, ones)])
