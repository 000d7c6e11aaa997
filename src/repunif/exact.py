"""Exact small-instance oracles.

These routines compute quantities the Monte Carlo side can only estimate:
brute-force expectations over all sample outcomes, the exact output
distribution of the identity-to-uniformity reduction, and the mutual
information carried by a truncated pair of mixed Poisson counts.  They are
deliberately independent of the sampling implementations they check.

Both enumerations use relabeling symmetry, the property of the symmetric
testers the lower bound is about: a relabeling of the domain changes none of
the numbers they compute.  Brute force evaluates a statistic once per
multiset of counts, not once per count vector.  The exhaustive reduction
scan takes each domain size's family as one array, but only its sorted q
rows on the q side, and screens, then confirms: one numpy pass per block of
q rows bounds the margins of all their pairs at once, and only the pairs
near the least margin become ``Pmf`` objects, rebuilt with
``exact_pushforward`` to give the reported number.  ``pair_joint`` calls
the ``scipy.special`` Poisson kernels.  ``scipy.special`` is imported by
the functions that use it, so importing the package does not load it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import NORMALIZATION_TOL, Pmf, SampleBatch, _normalize_rows, tv_distance

ENUMERATION_GUARD = 10**7

__all__ = [
    "brute_force_mean_statistic",
    "rational_pmfs",
    "ReductionScan",
    "reduction_check",
    "exact_mean_tv",
    "exact_pushforward",
    "PairJointDist",
    "pair_joint",
    "MutualInfoValue",
    "mutual_info_pair",
]


def _compositions(m: int, n: int) -> np.ndarray:
    """All length-n nonnegative int vectors summing to m, one per row of a
    ``(C(m+n-1, n-1), n)`` int64 array, in stars-and-bars order (lexicographic)."""
    rows = math.comb(m + n - 1, n - 1)
    bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(m + n - 1), n - 1)),
                       dtype=np.int64, count=rows * (n - 1)).reshape(rows, n - 1)
    edges = np.concatenate([np.full((rows, 1), -1), bars, np.full((rows, 1), m + n - 1)], axis=1)
    return np.diff(edges, axis=1) - 1


def brute_force_mean_statistic(
    p: Pmf,
    m: int,
    statistic: Callable[[SampleBatch], float],
    assume_symmetric: bool = True,
) -> float:
    """Exact E[statistic] over all outcomes of m draws from p.

    ``assume_symmetric`` means the statistic is invariant under relabeling
    of the domain, as ``stats`` guarantees for each of its statistics: it
    depends on a batch only through the multiset of its counts.  The
    enumeration then runs over the ``C(m+n-1, n-1)`` count vectors, as one
    array, instead of the ``n^m`` sequences.  A count vector c has log
    probability ``lgamma(m+1) - sum lgamma(c_i+1) + sum c_i log p_i``, a
    zero count adding 0, so cells of zero mass need no special case.  At
    large m a coefficient past float range and a power of p_i below it meet
    in log space, so a weight within float range comes out as one, where
    their product overflowed or came out 0.  The probabilities are summed
    per class, c sorted non-increasing, and ``statistic`` runs once per
    class of positive probability, on its sorted counts: at most once per
    partition of m into at most n parts.  The ordered path
    (``assume_symmetric=False``) evaluates every sequence and stays the
    independent cross-check.
    """
    n = p.n
    if m < 1:
        raise ValueError("need m >= 1")
    if assume_symmetric:
        # the guard counts cells, n per composition: about 40 bytes each
        if math.comb(m + n - 1, n - 1) * n > ENUMERATION_GUARD:
            raise ValueError("enumeration guard exceeded")
        from scipy import special

        counts = _compositions(m, n)
        log_weights = (special.gammaln(m + 1) - special.gammaln(counts + 1).sum(axis=1)
                       + special.xlogy(counts, p.probs).sum(axis=1))
        ranked = -np.sort(-counts, axis=1)
        # rows as single void items: np.unique's axis=0 path costs several times more
        _, first, which = np.unique(ranked.view(np.dtype((np.void, 8 * n))).ravel(),
                                    return_index=True, return_inverse=True)
        weights = np.bincount(which, weights=np.exp(log_weights))
        return math.fsum(w * statistic(SampleBatch._adopt(row, m))
                         for w, row in zip(weights.tolist(), ranked[first]) if w > 0.0)
    if n**m > ENUMERATION_GUARD:
        raise ValueError("enumeration guard exceeded")
    total = []
    for seq in itertools.product(range(n), repeat=m):
        weight = 1.0
        for t in seq:
            weight *= p.probs[t]
        if weight == 0.0:
            continue
        counts = np.bincount(np.array(seq, dtype=np.int64), minlength=n)
        total.append(weight * statistic(SampleBatch(counts)))
    return math.fsum(total)


def exact_mean_tv(p: Pmf, m: int) -> float:
    """Exact E[TV statistic] for m draws from p, via binomial marginals.

    Linearity of expectation gives ``(1/2) sum_i E|K_i/m - 1/n|`` with
    ``K_i ~ Binomial(m, p_i)``; no enumeration needed.
    """
    from scipy import stats as sps

    if m < 1:
        raise ValueError("need m >= 1")
    k = np.arange(m + 1)
    pmf = sps.binom.pmf(k[None, :], m, p.probs[:, None])
    dev = np.abs(k[None, :] / m - 1.0 / p.n)
    return 0.5 * math.fsum((pmf * dev).ravel().tolist())


# ---------------------------------------------------------------------------
# Identity-to-uniformity reduction, analytic route
# ---------------------------------------------------------------------------


def _blocks(qs: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The reduction's layout on ``[big] = [6n]``: ``(big, cells, spread, overflow_size)``.

    One row per row q of ``qs``.  Element i owns ``cells_i = floor(6n *
    qbar_i)`` cells, ``qbar = (q + U_n)/2``, and keeps a mixed sample there
    with probability ``spread_i = cells_i / (6n * qbar_i)``; the last
    ``overflow_size`` cells are the shared overflow block.  As ``qbar_i >=
    1/(2n)``, every block has at least 2 cells.
    """
    big = 6 * qs.shape[-1]
    qbar = 0.5 * (qs + 1.0 / qs.shape[-1])
    cells = np.floor(big * qbar).astype(np.int64)
    return big, cells, cells / (big * qbar), big - cells.sum(axis=-1)


def _pushforwards(qs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Row r: the reduction built from ``qs[r]`` fed ``ps[r]``, before ``Pmf``'s renormalization."""
    big, cells, spread, overflow_size = _blocks(qs)
    pbar = 0.5 * (ps + 1.0 / ps.shape[-1])
    overflow = [math.fsum(row) for row in (pbar * (1.0 - spread)).tolist()]
    levels = np.concatenate([pbar * spread / cells,
                             (overflow / np.maximum(overflow_size, 1))[:, None]], axis=1)
    # each row's blocks and overflow together fill its 6n cells
    counts = np.concatenate([cells, overflow_size[:, None]], axis=1)
    return np.repeat(levels, counts.ravel()).reshape(-1, big)


def exact_pushforward(q: Pmf, p: Pmf) -> Pmf:
    """Exact output distribution of the reduction built from q, fed p-samples.

    The reduction mixes the input with uniform (``pbar = (p + U_n)/2``) and
    spreads a mixed sample over its element's block of ``_blocks(q)`` with
    probability ``spread_i``, otherwise over the shared overflow block.
    Feeding q itself yields the uniform distribution on [6n] exactly.
    """
    if q.n != p.n:
        raise ValueError("p and q must share a domain")
    return Pmf(_pushforwards(q.probs[None], p.probs[None])[0])


def _rational_rows(n: int, max_denominator: int) -> np.ndarray:
    """``rational_pmfs(n, max_denominator)`` as one array, before ``Pmf``'s renormalization."""
    rows = []
    for d in range(1, max_denominator + 1):
        counts = _compositions(d, n)
        rows.append(counts[np.gcd.reduce(counts, axis=1) == 1] / d)
    return np.concatenate(rows)


def rational_pmfs(n: int, max_denominator: int) -> list[Pmf]:
    """All pmfs on [n] whose entries are rationals with denominator <= D.

    Each appears once, at its least denominator d: a composition of d with gcd 1.
    """
    return [Pmf(row) for row in _rational_rows(n, max_denominator)]


@dataclass(frozen=True)
class ReductionScan:
    """Outcome of the exhaustive small-instance reduction check."""

    num_pmfs: int
    num_pairs: int
    max_uniform_error: float   # worst |pushforward(q,q)_i - 1/(6n)|
    min_margin: float          # worst tv(pushforward, U) - tv(p,q)/3

    @property
    def passed(self) -> bool:
        return self.max_uniform_error <= 1e-12 and self.min_margin >= -1e-12


SCREEN_WINDOW = 2e-12
# Rows of q per screen pass: its one (rows, n, P) float64 buffer stays under 128 KB.
SCREEN_BLOCK_BYTES = 2**17


def _screen_margins(qs: np.ndarray, family: np.ndarray) -> np.ndarray:
    """Margins ``tv(pushforward(q, p), U_6n) - tv(p, q)/3``, shape ``(B, P)``.

    ``qs`` is a ``(B, n)`` block of pmfs and ``family`` a ``(P, n)`` array of
    pmfs.  The pushforward is affine in p and constant on each of q's cell
    blocks, so its distance from uniform is a per-block sum,
    ``|pbar_i * spread_i - cells_i/6n|``, plus one overflow term: O(B P n)
    work instead of building B P vectors of length 6n, laid out ``(B, n, P)``
    so numpy's inner loops run over p.  Sums run in numpy's order rather than
    ``math.fsum``'s and skip ``Pmf``'s renormalization, so a margin can differ
    from the scalar path's in its last bits.  Pairs at distance 0, which the
    check skips, get ``inf``.  Raises ``ValueError`` if a pushforward's total
    departs from 1 by more than ``NORMALIZATION_TOL``, as a ``Pmf`` would.
    """
    big, cells, spread, overflow_size = _blocks(qs)
    target = 1.0 / big
    columns = np.ascontiguousarray(family.T)
    pbar = 0.5 * (columns + 1.0 / len(columns))
    work = spread[:, :, None] * pbar   # the one (B, n, P) buffer: mass kept per block
    overflow_mass = (1.0 - spread) @ pbar
    size = overflow_size[:, None]
    total = work.sum(axis=1) + overflow_mass
    work -= (cells * target)[:, :, None]
    dev = (np.abs(work, out=work).sum(axis=1)
           + size * np.abs(overflow_mass / np.maximum(size, 1) - target))
    if np.any(np.abs(total - 1.0) > NORMALIZATION_TOL):
        raise ValueError(f"a pushforward of a q in {qs.tolist()} does not sum "
                         f"to 1 within {NORMALIZATION_TOL}")
    dist = 0.5 * np.abs(np.subtract(columns, qs[:, :, None], out=work), out=work).sum(axis=1)
    return np.where(dist > 0.0, 0.5 * dev - dist / 3.0, math.inf)


def reduction_check(max_n: int, max_denominator: int = 8) -> ReductionScan:
    """Exhaustively verify both reduction guarantees at small scale.

    For every rational q on domains up to ``max_n``: feeding q itself must
    give the uniform pushforward entrywise to 1e-12, and feeding any other
    p of the family must give a pushforward at least ``tv(p, q)/3`` from
    uniform (within 1e-12).

    Each domain size's family is one ``(P, n)`` array, and the q side takes
    only its rows sorted non-increasing (37 of the 407 on [4] at D = 8); the
    counts cover the whole family.  This loses no pair.  The family is closed
    under relabeling, and one permutation applied to both q and p permutes
    ``Pmf``'s ``fsum`` renormalization, ``_pushforwards``' blocks and
    ``tv_distance``'s terms without changing a float, since ``math.fsum``
    does not depend on order: the pair ``(pi q, pi p)`` has the uniform error
    and the margin of ``(q, p)``, bit for bit.  So the least over sorted q is
    the least over all pairs, as the same float.

    One pass of ``_pushforwards`` with q = p in every row, renormalized as
    ``Pmf`` does, gives ``exact_pushforward(q, q)`` bit for bit.  The second
    guarantee is screened, then confirmed.  One ``_screen_margins`` pass per
    block of q rows gives the margins of the block's pairs; those agree with
    the scalar path's within 1e-13.  Only the pairs whose screened margin
    lies within ``SCREEN_WINDOW`` of the least become ``Pmf`` objects, rebuilt
    with ``exact_pushforward`` and ``tv_distance``; the reported
    ``min_margin`` is the least of those scalar margins, the same float a
    pair-by-pair scan over all pairs would report.
    """
    if max_n < 1 or max_denominator < 1:
        raise ValueError(f"need max_n >= 1 and max_denominator >= 1, "
                         f"got {max_n} and {max_denominator}")
    num_pmfs = num_pairs = 0
    max_err = 0.0
    least = math.inf
    candidates = []   # (screened margin, q row, p row), rows before Pmf's renormalization
    for n in range(1, max_n + 1):
        raw = _rational_rows(n, max_denominator)
        family = _normalize_rows(raw.copy())
        num_pmfs += len(family)
        num_pairs += len(family) * (len(family) - 1)
        # every q is a relabeling of one sorted non-increasing q of the family
        ordered = np.all(family[:, :-1] >= family[:, 1:], axis=1)
        qs, raw_qs = family[ordered], raw[ordered]
        push = _normalize_rows(_pushforwards(qs, qs))
        max_err = max(max_err, float(np.max(np.abs(push - 1.0 / (6 * n)))))
        rows = max(1, SCREEN_BLOCK_BYTES // (8 * family.size))
        for start in range(0, len(qs), rows):
            margins = _screen_margins(qs[start:start + rows], family)
            least = min(least, float(margins.min()))
            if math.isfinite(least):
                candidates.extend((float(margins[b, i]), raw_qs[start + b], raw[i])
                                  for b, i in zip(*np.nonzero(margins <= least + SCREEN_WINDOW)))

    min_margin = math.inf
    for screened, q_row, p_row in candidates:
        if screened > least + SCREEN_WINDOW:
            continue
        q, p = Pmf(q_row), Pmf(p_row)
        uniform_big = Pmf(np.full(6 * q.n, 1.0 / (6 * q.n)))
        margin = tv_distance(exact_pushforward(q, p), uniform_big) - tv_distance(p, q) / 3.0
        min_margin = min(min_margin, margin)
    if not math.isfinite(min_margin):
        min_margin = 0.0
    return ReductionScan(num_pmfs=num_pmfs, num_pairs=num_pairs,
                         max_uniform_error=max_err, min_margin=min_margin)


# ---------------------------------------------------------------------------
# Truncated-Poisson pair mutual information
# ---------------------------------------------------------------------------

TRUNCATION_CAP = 10**4
TAIL_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class PairJointDist:
    """Truncated joint law of one count pair under the two-sided bias bit.

    ``joint[x]`` is the (K+1)x(K+1) matrix of ``Pr(M1=a, M2=b | X=x)`` where,
    conditioned on the bit x, the pair is an even mixture of
    ``Poi(lam(1+eps_x)) (x) Poi(lam(1-eps_x))`` and its swap.  Both matrices
    miss at most ``tail_mass`` of their mass to the discarded tail.  It
    compares and hashes by identity.
    """

    lam: float
    eps0: float
    eps1: float
    truncation: int
    joint: tuple[np.ndarray, np.ndarray]
    tail_mass: float


def _mixture_matrix(lam: float, eps: float, K: int) -> np.ndarray:
    from scipy import special

    a = np.arange(K + 1)
    # scipy.stats.poisson.pmf's own kernel, without its argument handling
    hi, lo = (np.exp(special.xlogy(a, mu) - special.gammaln(a + 1) - mu)
              for mu in (lam * (1.0 + eps), lam * (1.0 - eps)))
    return 0.5 * (np.outer(hi, lo) + np.outer(lo, hi))


def pair_joint(lam: float, eps0: float, eps1: float) -> PairJointDist:
    """Build the truncated conditional joints on ``{0..K}^2``.

    K starts at ``max(8, ceil(lam * (1 + eps1)))`` and doubles until each
    joint misses at most ``TAIL_TOL``; ``ValueError`` past ``TRUNCATION_CAP``.
    The Poisson cdf and pmf are the ``scipy.special`` kernels under
    ``scipy.stats.poisson`` (``pdtr(K, mu)``; ``exp(xlogy(k, mu) - gammaln(k
    + 1) - mu)``), so every matrix, K and ``tail_mass`` is what it gives.
    """
    if not (0.0 <= eps0 <= eps1 < 1.0):
        raise ValueError("need 0 <= eps0 <= eps1 < 1")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"need a finite lam > 0, got lam={lam!r}")
    from scipy import special

    K = max(8, math.ceil(lam * (1.0 + eps1)))
    # a starting K past the cap fails before any cdf or pmf is evaluated
    while K > TRUNCATION_CAP or TAIL_TOL < max(
            1.0 - special.pdtr(K, lam * (1.0 + eps)) * special.pdtr(K, lam * (1.0 - eps))
            for eps in (eps0, eps1)):
        if K >= TRUNCATION_CAP:
            raise ValueError(f"truncation would exceed {TRUNCATION_CAP} at lam={lam!r}")
        K = min(TRUNCATION_CAP, 2 * K)
    joints = tuple(_mixture_matrix(lam, eps, K) for eps in (eps0, eps1))
    tail_mass = max(1.0 - float(j.sum()) for j in joints)
    return PairJointDist(
        lam=lam, eps0=eps0, eps1=eps1, truncation=K, joint=joints,
        tail_mass=max(tail_mass, 0.0),
    )


@dataclass(frozen=True)
class MutualInfoValue:
    """Mutual information (nats) between the bias bit and a count pair."""

    value: float
    error_budget: float


def mutual_info_pair(d: PairJointDist) -> MutualInfoValue:
    """I(X : M1, M2) for an unbiased bit X selecting between the joints.

    Computed as the average KL divergence of each conditional to their
    mixture, over the truncated joints of ``pair_joint``; terms with zero
    joint mass contribute zero.  The truncation contributes at most
    ``2 * tail_mass * |ln tail_mass|``, reported as the error budget.
    """
    p0, p1 = d.joint
    mix = 0.5 * (p0 + p1)
    terms = []
    for cond in (p0, p1):
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = np.where(cond > 0, cond * np.log(cond / mix), 0.0)
        terms.append(0.5 * math.fsum(contrib.ravel().tolist()))
    value = max(0.0, math.fsum(terms))
    tail = d.tail_mass
    budget = 2.0 * tail * abs(math.log(tail)) if tail > 0 else 0.0
    return MutualInfoValue(value=value, error_budget=budget)
