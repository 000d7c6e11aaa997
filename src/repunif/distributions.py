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
  multinomial, ``O(n)`` binomial draws (50-105 ns each at ``m/n <= 8``).
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
from functools import cached_property

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

__all__ = [
    "NORMALIZATION_TOL",
    "Pmf",
    "InstanceSpec",
    "SampleBatch",
    "make_instance",
    "tv_distance",
    "AliasTable",
    "LevelTable",
    "draw_batch",
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
    ``[min(n, 1024), 16 n)`` never builds its level table.
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
