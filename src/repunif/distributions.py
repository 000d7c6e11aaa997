"""Explicit finite distributions, exact TV distance, and batch samplers.

The distribution families here are the instance constructions used
throughout the test suite and experiments:

* ``uniform`` on ``[n]``,
* ``paired_bias(xi)``: odd 1-based positions carry mass ``(1+xi)/n`` and
  even positions ``(1-xi)/n`` (TV distance from uniform is exactly
  ``xi/2``),
* ``heavy(pmass)``: a single heavy element with the rest uniform,
* ``custom(probs)``: any validated explicit pmf.

``draw_batch`` has three paths, chosen from ``m``, ``n`` and the number L
of distinct positive masses (the pmf's level sets).  Every instance family
above has at most 3 levels.

* level path, when ``min(n, 1024) <= m < 16 n`` and ``L <= 3``: one
  multinomial over the L levels gives each level's total, and each level
  spreads its total uniformly over its cells with bounded integer draws
  (``O(m)`` integer draws, about 6 ns each; the level table is built once
  per pmf in at most 4 vectorized passes).  From ``m = n`` each level's
  draws are counted by a ``bincount`` and scattered into its cells; below
  ``m = n`` they index the cells directly and one ``bincount`` counts all
  levels, so no ``O(n)`` zeroing or scatter is paid.  The two forms make
  the same draws in the same order and count the same cells, so the switch
  between them moves no bits.
* multinomial path, otherwise when ``m >= n``: numpy's conditional-binomial
  multinomial, ``O(n)`` binomial draws (50-105 ns each at ``m/n <= 8``,
  about 170 ns at 45).
* alias path, otherwise: ``m`` draws from the pmf's cached Walker alias
  table plus one ``bincount`` (``O(m)`` draws and an ``O(n)`` pass; the
  table itself is built once per pmf, in vectorized ``O(n)``).

The cutoffs come from the sampler timing tables in ROADMAP.md (n = 10^3 to
10^5).  The level path beats the multinomial at every ``m/n`` from 1 to 16
and loses on paired-bias at 24.  Each level costs about 6 us of calls, and
3 levels cover every instance family above.  Below ``m = n`` it saves the
alias path's coin, one random word per sample, but costs 8-10 us more in
numpy calls: it wins or ties from ``m = 1024`` at n = 10^4 and 10^5 and
loses at 512.  Every path draws exactly a multinomial(m, p) vector; they
differ only in how they consume the stream.

Each path hands its fresh count vector to ``SampleBatch`` without a copy,
with the total it was asked for.

``draw_batches`` draws k such vectors as one ``(k, n)`` array.  From
``m = 5 n`` on a pmf with at most 3 levels it draws all k rows at once, in
``O(k n)`` work (while ``3 sqrt(m) <= 16 n``, which bounds the top-up):

1. every cell gets an independent Poisson(``r p_i``) count, with
   ``r = m - 3 sqrt(m)``, by inverse-CDF lookup of one ``random((k, g))``
   block per level in the cached table (``PoissonTable``) of the level's
   cell rate; a level whose rate passes 4096 uses numpy's Poisson sampler;
2. a row whose total N exceeds m (about 0.13% of rows) is redrawn;
3. each row's ``m - N`` missing samples are split over the levels by one
   multinomial call for all rows, spread uniformly in each level by one
   ``integers`` call per level, and added by one offset ``bincount`` over
   ``k n`` bins.

Given N, a row of independent Poisson counts is multinomial(N, p), and
acceptance depends on N only; the top-up adds an independent
multinomial(m - N, p).  So every row is exactly multinomial(m, p), up to
the float rounding of the Poisson tables (a cdf within 1e-13), the same
standard the alias table meets.  Elsewhere the k rows are k ``draw_batch``
calls in order.  ``draw_batch`` keeps its own paths: at k = 1 the stacked
draw's fixed cost of about 110-190 us in numpy calls loses to the level
path at n = 10^3 and to the multinomial below n = 300 (CHANGES.md has the
timing tables).

``draw_poissonized_batch`` uses one Poisson per cell when ``m >= n``
(``O(n)`` Poisson draws), and otherwise a Poisson total ``N ~ Poisson(m)``
followed by ``draw_batch(p, N)``.  By Poissonization the two have the same
law: a multinomial(N, p) vector with ``N ~ Poisson(m)`` has independent
Poisson(``m * p_i``) coordinates.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

NORMALIZATION_TOL = 1e-12
# numpy's Poisson sampler rejects a rate above this (its POISSON_LAM_MAX)
_POISSON_RATE_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
# Level-path limits, from the sampler timing tables in ROADMAP.md: below this m/n
# the level path's per-sample integer draws cost less than the multinomial's
# per-cell binomials, and each level adds about 6 us of calls.  Below m = n it
# saves the alias path's coin per sample, which pays from this many samples on.
_LEVEL_MAX_RATIO = 16
_LEVEL_MIN_SAMPLES = 1024
_LEVEL_MAX_COUNT = 3
# From this m/n, draw_batches takes a few-level pmf's rows in one stacked
# Poisson draw: 9 rows at n = 10^4 and 10^5 cost less than 9 draw_batch calls
# from m/n = 5 on, and about 13% more at n = 10^4 and m/n = 4 (timing tables
# in CHANGES.md).
_POISSON_BATCH_RATIO = 5
# The Poisson rows' total rate is m - slack * sqrt(m), so about 0.13% of rows
# overshoot m and are redrawn.
_POISSON_SLACK = 3.0
# The top-up draws about slack * sqrt(m) integers per row.  Past this many per
# cell they cost more than a row's O(n) binomials, and their memory grows with
# sqrt(m): there the rows are draw_batch calls again.
_TOPUP_MAX_PER_CELL = 16
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
]


@dataclass(frozen=True)
class Pmf:
    """An explicit probability mass function over ``{1, ..., n}``.

    Entries must be nonnegative and sum to 1 within ``NORMALIZATION_TOL``;
    inputs inside tolerance are renormalized exactly once on construction.
    Instances are immutable (the array is frozen) and safe to share across
    workers.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("pmf must be a nonempty 1-d vector")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("pmf entries must be finite and >= 0")
        total = math.fsum(arr.tolist())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"pmf sums to {total!r}, not 1 within {NORMALIZATION_TOL}")
        if total != 1.0:
            arr /= total
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
        """Level sets of this pmf, built once and cached.

        ``None`` when the pmf has more than ``_LEVEL_MAX_COUNT`` distinct
        positive masses; the peeling build stops there, so such a pmf pays
        at most ``_LEVEL_MAX_COUNT + 1`` vectorized passes, and no sort.
        """
        if "_levels" not in self.__dict__:
            object.__setattr__(self, "_levels", LevelTable.build(self.probs))
        return self.__dict__["_levels"]

    # -- serialization ----------------------------------------------------
    # Both formats round-trip bit-exactly: Python float repr is the
    # shortest string that parses back to the same 64-bit value.

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "probs": list(self.probs)})

    @classmethod
    def from_json(cls, text: str) -> "Pmf":
        obj = json.loads(text)
        pmf = cls(np.array(obj["probs"], dtype=np.float64))
        if pmf.n != obj["n"]:
            raise ValueError("pmf json: n field disagrees with probs length")
        return pmf

    def to_text(self) -> str:
        return "\n".join(repr(float(x)) for x in self.probs) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Pmf":
        values = [float(tok) for tok in text.split()]
        return cls(np.array(values, dtype=np.float64))


def uniform_pmf(n: int) -> Pmf:
    return Pmf(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class InstanceSpec:
    """Parametric description of an instance family member.

    ``kind`` is one of ``uniform``, ``paired_bias``, ``heavy``, ``custom``;
    only the parameters relevant to the kind are set.  Every statistic is
    symmetric, so a relabeled instance has the same law and needs no kind.
    """

    kind: str
    xi: float | None = None
    pmass: float | None = None
    probs: tuple[float, ...] | None = None

    @classmethod
    def uniform(cls) -> "InstanceSpec":
        return cls(kind="uniform")

    @classmethod
    def paired_bias(cls, xi: float) -> "InstanceSpec":
        return cls(kind="paired_bias", xi=xi)

    @classmethod
    def heavy(cls, pmass: float) -> "InstanceSpec":
        return cls(kind="heavy", pmass=pmass)

    @classmethod
    def custom(cls, probs) -> "InstanceSpec":
        return cls(kind="custom", probs=tuple(float(p) for p in probs))

    def describe(self) -> str:
        if self.kind == "paired_bias":
            return f"paired_bias(xi={self.xi!r})"
        if self.kind == "heavy":
            return f"heavy(pmass={self.pmass!r})"
        if self.kind == "custom":
            return "custom"
        return self.kind


def make_instance(spec: InstanceSpec, n: int) -> Pmf:
    """Materialize an instance description as an explicit pmf on ``[n]``."""
    if n < 1:
        raise ValueError("domain size must be >= 1")
    if spec.kind == "uniform":
        return uniform_pmf(n)
    if spec.kind == "paired_bias":
        xi = spec.xi
        if xi is None or not 0.0 <= xi <= 1.0:
            raise ValueError("paired bias needs a bias xi in [0, 1]")
        if n % 2 != 0:
            raise ValueError("paired bias requires an even domain size")
        probs = np.empty(n, dtype=np.float64)
        probs[0::2] = (1.0 + xi) / n  # odd 1-based positions are heavy
        probs[1::2] = (1.0 - xi) / n
        return Pmf(probs)
    if spec.kind == "heavy":
        pmass = spec.pmass
        if pmass is None or not (1.0 / n <= pmass <= 1.0):
            raise ValueError("heavy-element mass must lie in [1/n, 1]")
        probs = np.empty(n, dtype=np.float64)
        probs[0] = pmass
        if n > 1:
            probs[1:] = (1.0 - pmass) / (n - 1)
        return Pmf(probs)
    if spec.kind == "custom":
        if spec.probs is None or len(spec.probs) != n:
            raise ValueError("custom instance needs probs of length n")
        return Pmf(np.array(spec.probs, dtype=np.float64))
    raise ValueError(f"unknown instance kind {spec.kind!r}")


def tv_distance(p: Pmf, q: Pmf) -> float:
    """Total variation distance ``(1/2) sum_i |p_i - q_i|``."""
    if p.n != q.n:
        raise ValueError(f"domain mismatch: {p.n} vs {q.n}")
    return 0.5 * math.fsum(np.abs(p.probs - q.probs).tolist())


@dataclass(frozen=True)
class SampleBatch:
    """The frequency vector of one batch of samples.

    ``counts[i]`` is the number of occurrences of element ``i+1``; ``m`` is
    the realized total (for Poissonized batches this is the random sum).
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
    order of first appearance, and ``mass[l]`` is that level's total mass.
    Zero-mass cells belong to no level, so they are never drawn.
    """

    def __init__(self, n: int, cells: list[np.ndarray], mass: np.ndarray):
        self.n = n
        self.cells = cells
        self.mass = mass

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
        # a level's mass g * p can round one ulp past 1 (uniform on 998 cells
        # does), which multinomial rejects
        mass = np.minimum([probs[c[0]] * c.size for c in cells], 1.0)
        return cls(probs.shape[0], cells, mass)

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
    """Inverse-CDF table of Poisson(lam), read through a guide.

    ``cdf[i]`` is ``P(X <= lo + i)``, built by the log-ratio recurrence
    outward from the mode, normalized, and its last entry set to 1.0; each
    value left out below ``lo`` or past the end is under ``2**-60`` times
    the modal mass, and the cdf is within 1e-13 of the exact one.  A
    uniform ``u`` maps to ``lo + searchsorted(cdf, u, "right")``.  The
    guide splits ``[0, 1)`` into ``buckets`` = Q equal buckets, Q a power
    of two at least 32 times the table, so ``floor(u * Q)`` is exact;
    ``code[j]`` is the answer shared by every u in bucket j, or -1 when a
    cdf entry falls inside the bucket (about 1% of u), and only those u
    are searched.  The lookup thus equals the plain search bit for bit.
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
        self.buckets = q = 1 << (32 * cdf.size - 1).bit_length()
        # cdf * q is exact, so cdf[i] <= j/q iff ceil(cdf[i] * q) <= j: the
        # running count of those ceilings is searchsorted(cdf, j/q, "right")
        hits = np.bincount(np.ceil(cdf * q).astype(np.intp), minlength=q + 1)
        self.code = np.where(hits[1:] > 0, -1, np.cumsum(hits[:-1])).astype(np.int32)

    def lookup(self, u: np.ndarray) -> np.ndarray:
        """Poisson variates for uniforms ``u`` in [0, 1), equal to the plain search."""
        out = self.code[(u * self.buckets).astype(np.intp)]
        ambiguous = np.flatnonzero(out < 0)
        out.flat[ambiguous] = np.searchsorted(self.cdf, u.flat[ambiguous], side="right")
        return out + self.lo


# Tables are keyed by the cell rate, and a replicability prior makes new rates
# for every pair; a pmf has at most 3 levels, so 16 tables serve 5 pmfs at once.
@lru_cache(maxsize=16)
def _poisson_table(lam: float) -> PoissonTable:
    return PoissonTable(lam)


def _poisson_rows(levels: LevelTable, rates: list[float], rows: int,
                  rng: np.random.Generator) -> np.ndarray:
    """A ``(rows, n)`` array of independent Poisson counts, cell rate ``rates[l]`` in level l."""
    counts = np.zeros((rows, levels.n), dtype=np.int64)
    for cells, lam in zip(levels.cells, rates):
        if lam > _POISSON_TABLE_MAX_RATE:
            counts[:, cells] = rng.poisson(lam, (rows, cells.size))
        else:
            counts[:, cells] = _poisson_table(lam).lookup(rng.random((rows, cells.size)))
    return counts


def _stacked_draw(p: Pmf, levels: LevelTable, m: int, k: int,
                  rng: np.random.Generator) -> np.ndarray:
    """k multinomial(m, p) rows: Poisson rows at total rate below m, then a top-up.

    Each cell gets a Poisson(r p_i) count, ``r = m - slack * sqrt(m)``.  A
    row whose total N passes m is redrawn; the rest are topped up with
    ``m - N`` more samples, split over the levels by one multinomial and
    spread uniformly in each level.  Given N a Poisson row is
    multinomial(N, p) and acceptance depends on N only, so each row is
    multinomial(N, p) plus an independent multinomial(m - N, p).
    """
    n = levels.n
    rate = max(m - _POISSON_SLACK * math.sqrt(m), 0.0)
    rates = [rate * float(p.probs[cells[0]]) for cells in levels.cells]
    counts = _poisson_rows(levels, rates, k, rng)
    totals = counts.sum(axis=1)
    over = np.flatnonzero(totals > m)
    while over.size:
        counts[over] = _poisson_rows(levels, rates, over.size, rng)
        totals[over] = counts[over].sum(axis=1)
        over = over[totals[over] > m]
    split = rng.multinomial(m - totals, levels.mass)
    starts = np.arange(k) * n
    flat = [np.repeat(starts, split[:, l]) + cells[rng.integers(0, cells.size, int(split[:, l].sum()))]
            for l, cells in enumerate(levels.cells)]
    counts += np.bincount(np.concatenate(flat), minlength=k * n).reshape(k, n)
    return counts


def draw_batches(p: Pmf, m: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw k independent multinomial(m, p) frequency vectors as a ``(k, n)`` int64 array.

    Deterministic given the stream state.  For ``5 n <= m`` and
    ``3 sqrt(m) <= 16 n``, on a pmf with at most 3 levels, all k rows come
    from one stacked Poisson draw plus an exact top-up (``_stacked_draw``):
    a fixed number of vectorized calls over ``k * n`` cells and ``k``
    top-ups of about ``3 sqrt(m)`` samples.  Otherwise each row is one
    ``draw_batch``, in order.
    """
    m, k = operator.index(m), operator.index(k)
    if m < 0 or k < 0:
        raise ValueError("sample count and batch count must be >= 0")
    stacked = _POISSON_BATCH_RATIO * p.n <= m and _POISSON_SLACK * math.sqrt(m) <= _TOPUP_MAX_PER_CELL * p.n
    levels = p.level_table() if stacked else None
    if levels is not None:
        return _stacked_draw(p, levels, m, k, rng)
    counts = np.empty((k, p.n), dtype=np.int64)
    for row in counts:
        row[:] = draw_batch(p, m, rng).counts
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
    m = operator.index(m)
    if m < 0:
        raise ValueError("sample count must be >= 0")
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
    if m < 0:
        raise ValueError("sample count must be >= 0")
    return p.alias_table().draw(m, rng).astype(np.int64)


def draw_poissonized_batch(p: Pmf, m: float, rng: np.random.Generator) -> SampleBatch:
    """Draw each count independently as Poisson(m * p_i).

    When ``m < n`` this draws the total ``N ~ Poisson(m)`` and returns
    ``draw_batch(p, N)``: given ``N``, Poisson counts are multinomial(N, p),
    so the law is the same and a batch costs ``O(m)`` draws instead of ``n``
    Poisson draws.  When ``m >= n`` it draws one Poisson per cell, which is
    faster there than the total-then-multinomial route.
    """
    if not (m > 0 and math.isfinite(m)):
        raise ValueError(f"poisson rate must be finite and > 0, got {m!r}")
    if m < p.n:
        return draw_batch(p, int(rng.poisson(m)), rng)
    rates = m * p.probs
    top = float(rates.max())
    if top > _POISSON_RATE_MAX:
        raise ValueError(f"poisson rate m * p_i = {top!r} exceeds numpy's limit "
                         f"{_POISSON_RATE_MAX!r}")
    return SampleBatch(rng.poisson(rates))
