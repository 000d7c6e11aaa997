"""Explicit finite distributions, exact TV distance, and batch samplers.

The distribution families here are the instance constructions used
throughout the test suite and experiments:

* ``uniform`` on ``[n]``,
* ``paired_bias(xi)``: odd 1-based positions carry mass ``(1+xi)/n`` and
  even positions ``(1-xi)/n`` (TV distance from uniform is exactly
  ``xi/2``),
* ``heavy(pmass)``: a single heavy element with the rest uniform.

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

``draw_poissonized_batch`` draws ``N ~ Poisson(m)`` and returns
``draw_batch(p, N)``: by Poissonization its coordinates are independent
Poisson(``m * p_i``).

A symmetric statistic needs only a batch's fingerprint (how many cells hold
each count).  ``_multinomial_fingerprints`` and ``_poissonized_fingerprints``
draw the fingerprints of k batches directly, all at once, the way the
barrier study draws each grid point's runs.  On a pmf with at most 3
levels whose cell rates are within the table bound, no n-length vector is
made: the histogram of a level's g cells of one rate is multinomial(g, that
rate's ``PoissonTable`` law), and the multinomial rows take
``draw_batches``' top-up on those histograms (its cells being
exchangeable, a row's cells can be laid out in order of their Poisson
counts).  The rows come in blocks of at most ``_FINGERPRINT_BLOCK`` top-up
samples and count-indexed matrix entries.  Any other pmf draws its k rows
one at a time.
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
# The Poisson rows' total rate is m - slack * sqrt(m), so about 0.13% of rows
# overshoot m and are redrawn.
_POISSON_SLACK = 3.0
# The top-up draws about slack * sqrt(m) integers per row.  Past this many per
# cell they cost more than a row's O(n) binomials, and their memory grows with
# sqrt(m): there the rows are draw_batch calls again.
_TOPUP_MAX_PER_CELL = 16
# The fingerprint samplers draw their rows in blocks of at most this many
# top-up samples and this many fingerprint matrix entries.  At the barrier's
# m = 6400 (48,000 samples for 200 rows) perfbench barrier runs with blocks of
# 2**14 had about 1 MB less peak RSS than with one block of 2**20, at the
# same speed.
_FINGERPRINT_BLOCK = 1 << 14
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


def _normalize_rows(arr: np.ndarray) -> np.ndarray:
    """``Pmf``'s renormalization, in place, of a float64 vector or each matrix row.

    A row is divided by its ``math.fsum`` total; ``ValueError`` if that total
    departs from 1 by more than ``NORMALIZATION_TOL``.
    """
    for row in (arr,) if arr.ndim == 1 else arr:
        total = math.fsum(row.tolist())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"pmf sums to {total!r}, not 1 within {NORMALIZATION_TOL}")
        if total != 1.0:
            row /= total
    return arr


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


def uniform_pmf(n: int) -> Pmf:
    return Pmf(np.full(n, 1.0 / n))


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
        # the level-major cell order of the stacked draw's rows, and each level's first column
        self.order = np.concatenate(cells)
        self.offsets = np.cumsum([0] + [c.size for c in cells[:-1]]).tolist()

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
    (about 1% of buckets).  ``lookup`` takes the bucket from the top
    ``bits`` of a random 16-bit chunk; only a cell whose bucket is
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
        q = 1 << self.bits
        # cdf * q is exact, so cdf[i] <= j/q iff ceil(cdf[i] * q) <= j: the
        # running count of those ceilings is searchsorted(cdf, j/q, "right")
        hits = np.bincount(np.ceil(cdf * q).astype(np.intp), minlength=q + 1)
        self.guide = np.where(hits[1:] > 0, -1, self.lo + np.cumsum(hits[:-1])).astype(np.int32)

    @cached_property
    def pmf(self) -> np.ndarray:
        """The table's law: ``pmf[i]`` is the probability of ``lo + i``, the steps of ``cdf``."""
        return np.diff(self.cdf, prepend=0.0)

    def lookup(self, chunks: np.ndarray, fresh) -> np.ndarray:
        """Poisson variates for random 16-bit ``chunks``, one per cell.

        ``fresh(count)`` returns ``count`` random 64-bit words, called once
        if any chunk falls in an ambiguous bucket.  The result equals
        ``lo + searchsorted(cdf, u, "right")`` for the 53-bit u made of a
        chunk's top ``bits`` and, in an ambiguous bucket, the low
        ``53 - bits`` bits of that cell's fresh word.
        """
        bucket = chunks.astype(np.intp)
        bucket >>= 16 - self.bits
        out = self.guide[bucket]
        ambiguous = np.flatnonzero(out < 0)
        if ambiguous.size:
            low = 53 - self.bits
            top = bucket[ambiguous].astype(np.uint64) << np.uint64(low)
            grid = top | (fresh(ambiguous.size) & np.uint64((1 << low) - 1))
            out[ambiguous] = self.lo + np.searchsorted(self.cdf, grid * 2.0**-53, side="right")
        return out


# Tables are keyed by the cell rate, and a replicability prior makes new rates
# for every pair; a pmf has at most 3 levels, so 32 tables serve 10 pmfs at once.
# A barrier round uses 20 laws (5 m x 2 levels at the multinomial fingerprints'
# rate and at the chi-square rate): with 16 the LRU order rebuilt all 20 every
# round, 2.0-2.4 ms of a 24-36 ms round at n = 10^4.
@lru_cache(maxsize=32)
def _poisson_table(lam: float) -> PoissonTable:
    return PoissonTable(lam)


def _poisson_rows(levels: LevelTable, rates: list[float], rows: int,
                  rng: np.random.Generator) -> np.ndarray:
    """A ``(rows, G)`` array of independent Poisson counts over the G cells of
    ``levels.order``, cell rate ``rates[l]`` in level l.

    One ``random_raw`` call gives each cell of a tabled level a 16-bit chunk
    for ``PoissonTable.lookup``, 4 per word, level 0's ``rows x g0`` block
    first; a level whose rate passes the table bound is drawn by numpy's
    Poisson sampler.
    """
    counts = np.empty((rows, levels.order.size), dtype=np.int64)
    tables = [None if lam > _POISSON_TABLE_MAX_RATE else _poisson_table(lam) for lam in rates]
    tabled = rows * sum(cells.size for cells, table in zip(levels.cells, tables) if table is not None)
    chunks = rng.bit_generator.random_raw(-(-tabled // 4)).view(np.uint16)
    start = 0
    for cells, lam, table, off in zip(levels.cells, rates, tables, levels.offsets):
        g = cells.size
        if table is None:
            counts[:, off:off + g] = rng.poisson(lam, (rows, g))
        else:
            block = chunks[start:start + rows * g]
            counts[:, off:off + g] = table.lookup(block, rng.bit_generator.random_raw).reshape(rows, g)
            start += rows * g
    return counts


def _stacked_draw(p: Pmf, levels: LevelTable, m: int, k: int,
                  rng: np.random.Generator) -> np.ndarray:
    """k multinomial(m, p) rows, level-major (columns ``levels.order``):
    Poisson rows at total rate below m, then a top-up.

    Each cell gets a Poisson(r p_i) count, ``r = m - slack * sqrt(m)``.  A
    row whose total N passes m is redrawn; the rest are topped up with
    ``m - N`` more samples, split over the levels by one multinomial and
    spread uniformly in each level.  Given N a Poisson row is
    multinomial(N, p) and acceptance depends on N only, so each row is
    multinomial(N, p) plus an independent multinomial(m - N, p).
    """
    width = levels.order.size
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
    starts = np.arange(k) * width
    flat = [np.repeat(starts + off, split[:, l]) + rng.integers(0, cells.size, int(split[:, l].sum()))
            for l, (cells, off) in enumerate(zip(levels.cells, levels.offsets))]
    counts += np.bincount(np.concatenate(flat), minlength=k * width).reshape(k, width)
    return counts


def _draw_rows(p: Pmf, m: int, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
    """The rows of ``draw_batches`` before their scatter to cell order.

    Returns ``(rows, order)``: from the stacked draw the rows are level-major,
    column j counting cell ``order[j]``, and the zero-mass cells are left out;
    otherwise ``order`` is None and the rows are in cell order.
    """
    m, k = operator.index(m), operator.index(k)
    if m < 0 or k < 0:
        raise ValueError("sample count and batch count must be >= 0")
    stacked = p.n <= m and _POISSON_SLACK * math.sqrt(m) <= _TOPUP_MAX_PER_CELL * p.n
    levels = p.level_table() if stacked else None
    if levels is not None:
        return _stacked_draw(p, levels, m, k, rng), levels.order
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
    16-bit chunk through ``PoissonTable``.  That draw makes its rows
    level-major, and they are scattered to cell order once, here.
    Otherwise each row is one ``draw_batch``, in order.
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


def _fingerprint_tables(p: Pmf, rate: float) -> list[PoissonTable] | None:
    """The cached ``PoissonTable`` of each level's cell rate ``rate * p_l``.

    ``None`` when the pmf has more than ``_LEVEL_MAX_COUNT`` levels or a cell
    rate passes ``_POISSON_TABLE_MAX_RATE``: the fingerprint samplers then
    draw whole rows.
    """
    levels = p.level_table()
    if levels is None:
        return None
    rates = [rate * float(p.probs[cells[0]]) for cells in levels.cells]
    if max(rates) > _POISSON_TABLE_MAX_RATE:
        return None
    return [_poisson_table(lam) for lam in rates]


def _level_draws(tables: list[PoissonTable], sizes: list[int], k: int,
                 rng: np.random.Generator) -> list[tuple[int, np.ndarray]]:
    """k independent rows of each level's Poisson counts, as ``(table.lo, hist)``.

    Entry ``[r, j]`` of a level's ``(k, table width)`` histogram counts the
    cells that hold ``table.lo + j`` in row r.  The level's g cells share
    one rate, so that histogram is multinomial(g, the table's law).
    """
    return [(table.lo, rng.multinomial(g, table.pmf, size=k)) for table, g in zip(tables, sizes)]


def _row_totals(draws: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Each row's total count over ``(offset, hist)`` histograms."""
    return sum(hist @ (offset + np.arange(hist.shape[1])) for offset, hist in draws)


def _histogram_matrix(p: Pmf, levels: LevelTable, draws: list[tuple[int, np.ndarray]],
                      spare: int = 0) -> np.ndarray:
    """The count-indexed ``(k, W)`` fingerprint matrix of the levels' draws.

    Each ``(offset, hist)`` of ``draws`` adds ``hist[r, j]`` cells of count
    ``offset + j`` to row r, the zero-mass cells count 0, and ``spare``
    columns of zeros are left at the end.
    """
    k = draws[0][1].shape[0]
    out = np.zeros((k, max(offset + hist.shape[1] for offset, hist in draws) + spare), dtype=np.int64)
    out[:, 0] = p.n - levels.order.size
    for offset, hist in draws:
        out[:, offset:offset + hist.shape[1]] += hist
    return out


def _block_rows(k: int, tables: list[PoissonTable], keys: int = 0) -> list[int]:
    """Row counts of consecutive blocks of k rows, at least one row a block.

    A block's top-up keys (``keys`` a row) and the entries of its
    count-indexed matrix (about the widest ``table.lo + width`` a row) each
    stay under ``_FINGERPRINT_BLOCK``.
    """
    width = max(table.lo + table.cdf.size for table in tables)
    rows = max(1, _FINGERPRINT_BLOCK // max(keys, width))
    return [min(rows, k - start) for start in range(0, k, rows)]


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


def _topped_up_block(p: Pmf, levels: LevelTable, tables: list[PoissonTable], m: int, k: int,
                     rng: np.random.Generator) -> np.ndarray:
    """k multinomial(m, p) fingerprints as a count-indexed ``(k, W)`` matrix:
    ``_stacked_draw``'s Poisson rows and top-up, on the levels' histograms.

    In a level the cells are exchangeable, and the top-up picks its cells
    uniformly and independently of the Poisson counts, so a row's cells may
    be laid out in order of their Poisson count, as the histogram gives
    them.  Top-up key ``row * g + cell`` is then the cell's place in the
    level's flattened layout.  The sorted keys' runs give the hit cells and
    how often each is hit, and for each t one search of the running sum
    over the layout's nonempty (row, count) bins counts the cells hit t
    times in each bin, which move t counts up.
    """
    sizes = [cells.size for cells in levels.cells]
    draws = _level_draws(tables, sizes, k, rng)
    totals = _row_totals(draws)
    over = np.flatnonzero(totals > m)
    while over.size:
        redrawn = _level_draws(tables, sizes, over.size, rng)
        for (_, hist), (_, new) in zip(draws, redrawn):
            hist[over] = new
        totals[over] = _row_totals(redrawn)
        over = over[totals[over] > m]
    split = rng.multinomial(m - totals, levels.mass)
    tops = []
    for l, g in enumerate(sizes):
        # int32 keys where they fit halve the memory the sort moves
        dtype = np.int32 if k * g < 2**31 else np.int64
        keys = np.repeat(np.arange(k, dtype=dtype) * g, split[:, l])
        keys += rng.integers(0, g, keys.size, dtype=dtype)
        tops.append(np.unique(keys, return_counts=True))
    out = _histogram_matrix(p, levels, draws, max(int(inc.max(initial=0)) for _, inc in tops))
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
    ``_stacked_draw`` has (a cdf within 1e-13).  No n-length vector is made
    on a pmf with at most 3 levels whose Poisson cell rates
    ``(m - 3 sqrt(m)) p_l`` are within the table bound: each row is
    ``_stacked_draw``'s row reduced to its counts of counts, and the rows
    are drawn in blocks (``_block_rows``).  Any other pmf draws k
    ``draw_batch`` rows.
    """
    m, k = operator.index(m), operator.index(k)
    if m < 0 or k < 0:
        raise ValueError("sample count and batch count must be >= 0")
    rate = max(m - _POISSON_SLACK * math.sqrt(m), 0.0)
    tables = _fingerprint_tables(p, rate)
    if tables is None:
        return _fingerprints_of_rows(draw_batch(p, m, rng).counts for _ in range(k))
    levels = p.level_table()
    blocks = _block_rows(k, tables, math.ceil(m - rate))
    return _joined([_entries(_topped_up_block(p, levels, tables, m, rows, rng)) for rows in blocks])


def _poissonized_fingerprints(p: Pmf, m: float, k: int,
                              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fingerprints of k batches of independent Poisson(m * p_i) counts.

    Returns ``(values, mult, starts)`` as ``_multinomial_fingerprints``
    does.  No n-length vector is made on a pmf with at most 3 levels whose
    cell rates are within the table bound: each level is drawn by
    ``_level_draws`` from its cached ``PoissonTable`` (the law the tester's
    Poisson counts use, a cdf within 1e-13 of the exact one), zero-mass
    cells count 0, and the rows are drawn in blocks (``_block_rows``).  Any
    other pmf draws all n counts of each row from
    numpy's Poisson sampler.
    """
    _check_poisson_rate(m)
    k = operator.index(k)
    if k < 0:
        raise ValueError("batch count must be >= 0")
    tables = _fingerprint_tables(p, m)
    if tables is None:
        return _fingerprints_of_rows(rng.poisson(m * p.probs) for _ in range(k))
    levels = p.level_table()
    sizes = [cells.size for cells in levels.cells]
    return _joined([_entries(_histogram_matrix(p, levels, _level_draws(tables, sizes, rows, rng)))
                    for rows in _block_rows(k, tables)])
