"""Worst-case distortion oracles over all consistent cardinal instances.

Given a lottery and a ballot profile, these oracles compute the supremum of
the lottery's distortion over every cardinal instance consistent with the
ballots, exactly. Each one first decides unboundedness combinatorially and
only then searches for the finite worst case (linear programs in the metric
world, a choice of vertices in the utilitarian one), so every answer, finite
or unbounded, comes with a concrete witness instance.

* Metric world. For a candidate optimum X*, let Z(X*) be the closure of
  {X*} under "some agent's ballot puts b directly above w, with w in Z":
  these are the alternatives every agent must sit on once the cost of X*
  is zero. The distortion is unbounded iff, for some X* scanned in
  ascending order, n times the lottery mass outside Z(X*) exceeds 1e-12
  (the rule by which ``eval_distortion`` calls a zero-cost optimum
  unbounded). The witness puts every agent at distance 0 from Z(X*) and 1
  from everything else. Otherwise one program per X* maximizes the
  expected cost with the cost of X* normalized to one:
  max c.y s.t. A y <= 0, a_X*.y = 1, y >= 0. The program has one block
  per distinct ballot b, not per agent: swapping two agents who cast the
  same ballot maps the program to itself, so averaging an optimum over
  such swaps gives an optimum in which they share their distances. With
  the k distinct ballots taken in order of first occurrence and w_b the
  number of agents who cast b, y holds the k*m ballot-alternative
  distances d(b,X) followed by m(m-1)/2 pair variables e(X,Y); the cost
  is c.y = sum_b w_b q.d_b for the lottery q, and a_X*.y =
  sum_b w_b d(b,X*). A has the k(m-1) consistency-chain rows, the rows
  d(b,X) - d(b,Y) <= e(X,Y) for every ballot and ordered pair that it does
  not rank X above Y (the chain and e >= 0 imply the others), and
  e(X,Y) <= d(b,X) + d(b,Y) for every ballot and unordered pair. That is
  R = k(m-1) + k*m(m-1) + k(m-t)(m-t-1)/2 rows for top-t ballots (t = m
  for full ones; 120 at k=8, m=4), against the n(n-1)*m(m-1) rows of the
  quadrilateral block they replace. Given the chain, eliminating e leaves
  exactly the quadrilateral conditions
  d(b,X) <= d(b,Y) + d(b',Y) + d(b',X), which hold for a bipartite
  distance grid exactly when it extends to a full pseudometric (the
  shortest-path closure provides the extension, and is what witness
  construction uses). When every ballot is distinct, w is all ones and
  the program is the per-agent one, array for array. Once the closure
  test has passed, the program is bounded, and its value is at least 1
  (all distances equal). The oracle solves its dual,
  min lambda s.t. A^T mu + a_X* lambda >= c, mu, lambda >= 0, which has
  one row per variable y (km + m(m-1)/2) instead of one per row of A;
  bounding lambda by 0 loses nothing because the primal value is
  positive. The m dual programs differ only in lambda's column a_X*, so
  they are warm-started: X* = 0 from the all-artificial basis, each later
  X* from X* = 0's optimal basis (``lp.solve``'s ``start``). The row
  duals of the winning dual are an optimal y. They
  are checked against the primal (y >= 0, A y <= 0, a_X*.y = 1, c.y equal
  to the dual value), expanded to the n x m grid in which every agent
  takes its ballot's row, and then closed into the witness. The answer is
  certified from both sides whatever basis each solve started from: every
  candidate's (mu, lambda) passes the solver's feasibility check, so by
  weak duality lambda_X >= V_X, and the winner's y is primal feasible with
  c.y = lambda_win, so V_win >= lambda_win. The largest lambda is
  therefore the largest V_X.

* Utilitarian world. The distortion is unbounded iff no agent's top choice
  is in the lottery's support: only then can every agent put zero utility
  on the whole support. The witness spreads each agent's utility uniformly
  over the alternatives that may be positive while the support gets 0.
  Otherwise Dinkelbach's iteration maximizes, per candidate X*, the welfare
  of X* over the expected welfare. For a fixed ratio guess lambda the
  objective sum_i (u_i(X*) - lambda * p.u_i) splits by agent and is linear
  on each agent's consistency polytope, so each agent takes its best
  vertex: uniform mass on the top k of its ballot, or on its whole prefix
  plus the unranked alternatives of largest gain [y = X*] - lambda * p_y.
  lambda becomes that combination's ratio until it stops rising; the final
  combination is the witness. The candidates step in lockstep: each round
  is taken for every X* whose ratio still rises and for all agents at once
  on the (n, m) rank matrix ``p.positions`` (rank m if unranked), and an
  X* whose ratio stops rising leaves the round. Every agent's order is its
  ballot followed by its unranked alternatives by gain, ties by index, and
  its k is the first maximum of the running mean gains along that order;
  when every ballot is a full ranking, the order is the ballot whatever the
  gains and is sorted once per call. The sums run left to right per agent,
  the first maximum wins and each ratio is summed per candidate, as in a
  loop over candidates and agents, so the result is the same to the bit.

A brute-force twin for full ballots scans all m^n combinations of the same
vertices, checking the per-agent choice against the whole product.

Top-t profiles go through the same oracles on the prefix constraints (each
ranked alternative above the next, the last ranked one above every unranked
one): as LP rows in the metric world, as the vertices above in the
utilitarian one. This is exact: a grid meets the prefix constraints exactly
when it is consistent with some completion of the ballots, so the worst
case is the maximum over completions. Both kinds are read through the
ballot view (``p.ballots``, ``p.unranked``), so they share one code path.

Both oracles are anonymous: renaming the agents maps every instance
consistent with the ballots to one consistent with the renamed ballots and
with the same social costs, so a lottery's worst case depends on the
ballots only as a multiset. They are also neutral: if pi renames the
alternatives, it maps every instance consistent with the ballots to one
consistent with the renamed ballots, with the same social costs up to the
renaming, under which the lottery q becomes pi.q (mass q[x] on pi[x]).
So (pi.P, pi.q) has the same worst case as (P, q). ``exhaustive_worst_case``
therefore solves each (ballot multiset, lottery) it meets once and stores
the value under the key of each of its m! renamings, in a dict local to
the call.

Deterministic throughout: candidates scan in ascending index order through
``_first_max``, which every best-so-far scan uses, so values tied within a
relative 1e-12 resolve to the lowest index at any magnitude.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, TypeVar

import numpy as np

from . import lp
from .core import (
    LOTTERY_TOL,
    DistortionValue,
    Lottery,
    MetricSpace,
    Profile,
    TopTProfile,
    UtilityProfile,
    eval_distortion,
    _consistency_chain,
)
from .instances import _metric_json, _utilities_json

DEFAULT_ENUMERATION_BUDGET = 10**6

__all__ = [
    "DistortionReport",
    "BudgetExceededError",
    "CertificateError",
    "metric_distortion",
    "utilitarian_distortion",
    "utilitarian_distortion_bruteforce",
    "rule_distortion",
    "exhaustive_worst_case",
]


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""


class CertificateError(RuntimeError):
    """An oracle's answer failed its own certificate check."""


T = TypeVar("T")


def _first_max(candidates: Iterable[tuple[float, T]]) -> tuple[float, T]:
    """The first (value, item) pair: a later value replaces the best only if it
    exceeds it by more than 1e-12 * max(1, |best|). Stops at an infinite value."""
    best: tuple[float, T] | None = None
    for value, item in candidates:
        if best is None or value > best[0] + 1e-12 * max(1.0, abs(best[0])):
            best = (value, item)
            if math.isinf(value):
                break
    return best


def _check_dims(lot: Lottery, p: Profile | TopTProfile):
    if lot.m != p.m:
        raise ValueError(f"lottery over {lot.m} alternatives, profile has {p.m}")


@dataclass(frozen=True, eq=False)
class DistortionReport:
    """Worst-case value with a machine-checkable certificate.

    ``witness`` is always a cardinal instance consistent with the ballots.
    For finite values ``eval_distortion`` reproduces ``value`` on it within
    1e-5, and ``arg_optimum`` is the alternative that is optimal there. For
    unbounded values ``eval_distortion`` gives unbounded on it: the optimum
    ``arg_optimum`` has zero cost (metric) or the lottery's expected welfare
    is zero (utilitarian).
    """

    value: DistortionValue
    witness: "MetricSpace | UtilityProfile"
    arg_optimum: int

    def to_json(self) -> dict:
        metric = isinstance(self.witness, MetricSpace)
        return {
            "value": self.value.as_json(),
            "arg_optimum": self.arg_optimum,
            "witness": (_metric_json if metric else _utilities_json)(self.witness),
        }


# ---------------------------------------------------------------------------
# Metric world
# ---------------------------------------------------------------------------


def _metric_rows(p: Profile | TopTProfile, agents: Collection[int]) -> np.ndarray:
    """The rows A of the metric program, each <= 0 (module docstring), with
    one block for the ballot of each listed agent.

    Block b belongs to the b-th listed agent. Columns are the distances
    d(b,X) at b*m+X, then one e(X,Y) per unordered pair X<Y in
    lexicographic order. The rows are each block's consistency chain
    d(b, better) - d(b, worse); then d(b,X) - d(b,Y) - e(X,Y) for every
    block and ordered pair X != Y that its ballot does not rank X above Y,
    read from ``p.positions``, where an unranked alternative has rank m so
    that two unranked ones keep both directions (a skipped row follows from
    the chain and e >= 0); then e(X,Y) - d(b,X) - d(b,Y) for every block
    and unordered pair. ``metric_distortion`` lists each distinct ballot's
    first agent; listing every agent gives the per-agent program.
    """
    n, m = len(agents), p.m
    nm = n * m
    pair_col = {
        pair: nm + k for k, pair in enumerate(itertools.combinations(range(m), 2))
    }
    # Each row as its +1 column followed by its -1 columns.
    rows: list[tuple[int, ...]] = []
    positions = p.positions.tolist()
    for i, agent in enumerate(agents):
        rows += ((i * m + b, i * m + w) for b, w in _consistency_chain(p, agent))
    for i, rank in enumerate(positions[agent] for agent in agents):
        rows += (
            (i * m + x, i * m + y, pair_col[min(x, y), max(x, y)])
            for x, y in itertools.permutations(range(m), 2)
            if rank[x] >= rank[y]
        )
    for j in range(n):
        rows += ((col, j * m + x, j * m + y) for (x, y), col in pair_col.items())
    nv = nm + len(pair_col)
    a = np.zeros((len(rows), nv))
    a.flat[[r * nv + row[0] for r, row in enumerate(rows)]] = 1.0
    a.flat[[r * nv + c for r, row in enumerate(rows) for c in row[1:]]] = -1.0
    return a


def _metric_closure(grid: np.ndarray, n: int, m: int) -> MetricSpace:
    """Extend an agent-alternative grid to a full pseudometric.

    Shortest paths in the complete bipartite graph weighted by the grid give
    the tightest extension; entries below 1e-11 are snapped to zero first so
    degenerate witnesses evaluate as exactly degenerate.
    """
    g = np.where(grid < 1e-11, 0.0, grid)
    size = n + m
    dist = np.full((size, size), np.inf)
    np.fill_diagonal(dist, 0.0)
    dist[:n, n:] = g
    dist[n:, :n] = g.T
    for k in range(size):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return MetricSpace(n=n, m=m, dist=dist)


def _metric_unbounded(
    lot: Lottery, p: Profile | TopTProfile, agents: Iterable[int]
) -> DistortionReport | None:
    """The unbounded report with its witness, or None if the distortion is finite.

    If the cost of X* is zero, every agent sits at X*, so every alternative
    an agent ranks directly above a point they sit at is one they sit at
    too; Z(X*) is the closure of {X*} under that rule. Putting every agent
    at distance 0 from Z(X*) and 1 from the rest is consistent and leaves
    the lottery paying n times its mass outside Z(X*). The chain depends
    only on the ballot, so ``agents`` need list one agent per distinct
    ballot, and may list more.
    """
    n, m = p.n, p.m
    above: list[set[int]] = [set() for _ in range(m)]
    for i in agents:
        for better, worse in _consistency_chain(p, i):
            above[worse].add(better)
    for x_star in range(m):
        zero = {x_star}
        stack = [x_star]
        while stack:
            for b in above[stack.pop()]:
                if b not in zero:
                    zero.add(b)
                    stack.append(b)
        row = np.ones(m)
        row[list(zero)] = 0.0
        # The witness's social costs, on which eval_distortion decides.
        if float(lot.prob @ (n * row)) > LOTTERY_TOL:
            witness = _metric_closure(np.tile(row, (n, 1)), n, m)
            return DistortionReport(
                value=DistortionValue.unbounded(), witness=witness, arg_optimum=x_star
            )
    return None


def metric_distortion(lot: Lottery, p: Profile | TopTProfile) -> DistortionReport:
    """Worst-case metric distortion of ``lot`` on profile ``p``: the worst
    case over pseudometrics consistent with the given ballots.

    Per candidate X* it solves the dual of max c.y s.t. A y <= 0,
    a_X*.y = 1, y >= 0 (module docstring) over one block per distinct
    ballot: min lambda s.t. A^T mu + a_X* lambda >= c, mu, lambda >= 0,
    whose row duals are the primal distances y. With k distinct ballots of
    multiplicities w, ``_metric_rows`` builds A from each one's first
    agent, the cost of block b is w_b times the lottery, and lambda's
    column holds w_b at row b*m + X*. The dual block A^T | a_X* is
    km + m(m-1)/2 rows by R + 1 columns,
    R = k(m-1) + k*m(m-1) + k(m-t)(m-t-1)/2: 38 x 121 at k=8, m=4 with full
    ballots. Candidate 0 is solved cold; every later candidate passes
    candidate 0's outcome as ``start``, since only lambda's column changes.
    Starting from the previous candidate instead would carry the rounding
    of every warm solve down the chain, which on ``thm53_instance`` grows
    the tableau until the solve fails. Each solve's (mu, lambda) passes
    the solver's feasibility check, so lambda_X bounds the primal value
    V_X from above; the winning y is checked against the primal, so
    c.y = lambda_win bounds V_win from below; together they certify the
    reported maximum. Only then is y expanded, every agent taking its
    ballot's row, and closed into the witness.
    """
    _check_dims(lot, p)
    # Each agent's block, numbered in order of first occurrence; then each
    # block's first agent and its multiplicity.
    block: dict[tuple[int, ...], int] = {}
    blocks = [block.setdefault(b, len(block)) for b in p.ballots]
    _, agents, w = np.unique(blocks, return_index=True, return_counts=True)
    unbounded = _metric_unbounded(lot, p, agents)
    if unbounded is not None:
        return unbounded
    n, m = p.n, p.m
    km = len(block) * m
    primal = _metric_rows(p, agents)
    nv = primal.shape[1]
    cost = np.zeros(nv)
    cost[:km] = (w[:, None] * lot.prob).ravel()  # expected social cost coefficients
    # One dual row per primal variable; columns are mu, then lambda, whose
    # column each candidate fills with a_X*.
    lhs = np.zeros((nv, primal.shape[0] + 1))
    lhs[:, :-1] = primal.T
    objective = np.zeros(lhs.shape[1])
    objective[-1] = 1.0
    rel = (">=",) * nv

    def candidates() -> Iterator[tuple[float, tuple[int, lp.LPOutcome]]]:
        first = None
        for x_star in range(m):
            a = lhs.copy()
            a[x_star:km:m, -1] = w
            program = lp.LinearProgram(
                objective=objective, lhs=a, relations=rel, rhs=cost, maximize=False
            )
            # Candidate 0 starts cold; each later one from candidate 0's basis.
            if first is None:
                dual = first = lp.solve(program)
            else:
                dual = lp.solve(program, start=first)
            if dual.status != lp.OPTIMAL:
                raise lp.SolverError(
                    f"dual metric program for x*={x_star} returned {dual.status}, so the "
                    "primal is unbounded or infeasible after the closure test found "
                    "the distortion bounded"
                )
            yield dual.value, (x_star, dual)

    best_value, (best_x, dual) = _first_max(candidates())
    y = dual.duals
    tol = lp.FEAS_TOL
    if not (
        (y >= -tol).all()
        and (primal @ y <= tol).all()
        and abs(w @ y[best_x:km:m] - 1.0) <= tol
        and abs(cost @ y - best_value) <= 1e-9 * abs(best_value)
    ):
        raise CertificateError(
            f"metric program for x*={best_x}: the distances read from the dual "
            "fail the primal certificate check"
        )
    # Every agent gets its ballot's row of distances.
    grid = y[:km].reshape(-1, m)[blocks]
    witness = _metric_closure(grid, n, m)
    return DistortionReport(
        value=DistortionValue.finite(max(best_value, 1.0)),
        witness=witness,
        arg_optimum=best_x,
    )


# ---------------------------------------------------------------------------
# Utilitarian world
# ---------------------------------------------------------------------------


def _utilitarian_unbounded(
    lot: Lottery, p: Profile | TopTProfile
) -> DistortionReport | None:
    """The unbounded report with its witness, or None if the distortion is finite.

    Expected welfare can vanish only if every agent gives the whole support
    zero utility, which a unit-sum row consistent with the ballot allows
    exactly when the agent's top choice is outside the support. The witness
    spreads each agent's utility uniformly over the alternatives that may
    then be positive: those ranked above the first support alternative, or,
    for a prefix that ranks none, the prefix and the unranked alternatives
    outside the support.
    """
    support = set(lot.support())
    positive: list[list[int]] = []
    for i, ballot in enumerate(p.ballots):
        first = next((k for k, x in enumerate(ballot) if x in support), None)
        if first == 0:
            return None
        if first is None:
            positive.append(list(ballot) + [x for x in p.unranked(i) if x not in support])
        else:
            positive.append(list(ballot[:first]))
    util = np.zeros((p.n, p.m))
    for i, alts in enumerate(positive):
        util[i, alts] = 1.0 / len(alts)
    return DistortionReport(
        value=DistortionValue.unbounded(),
        witness=UtilityProfile(util),
        arg_optimum=min(min(alts) for alts in positive),
    )


def utilitarian_distortion(lot: Lottery, p: Profile | TopTProfile) -> DistortionReport:
    """Worst-case utilitarian distortion of ``lot`` on profile ``p``: the
    worst case over unit-sum utility profiles consistent with the ballots.

    Dinkelbach's iteration (module docstring) for every x* at once, from
    lambda = 0, until lambda rises by at most a relative 1e-12. ``lam``
    holds each x*'s ratio, ``util`` its combination and ``live`` the x*
    whose ratio still rises; each round is taken for every live x* and
    every agent at once, on (C, n, m) arrays for C live candidates.
    ``rank = p.positions`` holds x's place on agent i's ballot at [i, x],
    m if x is unranked. Per round, one stable sort of each candidate's
    gains places the unranked alternatives by gain (ties by index) after
    every ballot; when every alternative is ranked, every agent's order is
    its ballot whatever the gains, so it is sorted once per call and each
    vertex is 1/k wherever rank < k. Running means of the gains along each
    agent's order give its k (the first maximum, so ties between vertices
    go to the smallest k), and its vertex is uniform on its first k
    alternatives. Every candidate's arithmetic is that of a loop over the
    candidates and agents: each cumulative sum runs left to right, the
    argmax keeps the first maximum, 1/k is the same double, the welfare
    sums the agents in order and each ratio's dot product is taken on one
    candidate's 1-D welfare, so the values and vertices are the same bits.
    Every vertex holds the agent's top choice, so after the support test
    the expected welfare is positive; at lambda = 0 every best vertex holds
    x*, so every first ratio is positive and every x* keeps a combination.
    """
    _check_dims(lot, p)
    unbounded = _utilitarian_unbounded(lot, p)
    if unbounded is not None:
        return unbounded
    n, m = p.n, p.m
    rank = p.positions
    ranked = rank < m
    full = bool(ranked.all())
    if full:
        order = rank.argsort(axis=1, kind="stable")
    agents = np.arange(n)[:, None]
    sizes = np.arange(1, m + 1)
    after = m + np.arange(m)
    lam = np.zeros(m)
    util: list[np.ndarray | None] = [None] * m
    live = list(range(m))
    while live:
        rows = np.arange(len(live))[:, None]
        gain = -lam[live, None] * lot.prob
        gain[rows[:, 0], live] += 1.0
        if not full:
            # Unranked alternatives sort after every ballot, by gain.
            key = np.empty((len(live), m), dtype=np.int64)
            key[rows, (-gain).argsort(axis=1, kind="stable")] = after
            order = np.where(ranked, rank, key[:, None, :]).argsort(axis=2, kind="stable")
        cands = rows[:, :, None]
        k = (gain[cands, order].cumsum(axis=2) / sizes).argmax(axis=2)[:, :, None] + 1
        if full:
            vertices = np.where(rank < k, 1.0 / k, 0.0)
        else:
            vertices = np.zeros((len(live), n, m))
            vertices[cands, agents, order] = np.where(sizes <= k, 1.0 / k, 0.0)
        welfare = vertices.sum(axis=1)
        rising = []
        for c, x_star in enumerate(live):
            ratio = float(welfare[c, x_star]) / float(lot.prob @ welfare[c])
            if ratio <= lam[x_star] * (1.0 + 1e-12):
                continue
            lam[x_star], util[x_star] = ratio, vertices[c]
            rising.append(x_star)
        live = rising

    best_value, best_x = _first_max((float(lam[x]), x) for x in range(m))
    return DistortionReport(
        value=DistortionValue.finite(max(best_value, 1.0)),
        witness=UtilityProfile(util[best_x]),
        arg_optimum=best_x,
    )


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def utilitarian_distortion_bruteforce(
    lot: Lottery,
    p: Profile,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> DistortionReport:
    """Exact utilitarian worst case by enumerating consistency-polytope vertices.

    Each agent's consistent unit-sum utilities form a polytope whose vertices
    put mass 1/k on their top k alternatives; a ratio of linear functions is
    maximized at a vertex of the product, so scanning all m^n combinations is
    exact. ``utilitarian_distortion`` chooses among the same vertices agent
    by agent, so this twin checks that choice against the full enumeration.
    Like it, the twin keeps each alternative's worst ratio and resolves ties
    between alternatives to the lowest index.
    """
    _check_dims(lot, p)
    if isinstance(p, TopTProfile):
        raise ValueError("brute force handles full rankings only")
    n, m = p.n, p.m
    combos = m**n
    if combos > budget:
        raise BudgetExceededError(
            f"{combos} vertex combinations exceed the budget of {budget}"
        )
    # vertex_welfare[i][k] is agent i's welfare row for the uniform top-(k+1)
    # vertex: entries 1/(k+1) on the top k+1 ranked alternatives.
    vertex_welfare = np.zeros((n, m, m))
    for i, ballot in enumerate(p.ballots):
        for k in range(m):
            vertex_welfare[i, k, list(ballot[: k + 1])] = 1.0 / (k + 1)

    # best[x] is the largest welfare(x) / expected welfare over combinations,
    # first in product order; choices[x] is the combination attaining it.
    best = np.full(m, -math.inf)
    choices: list[tuple[int, ...]] = [()] * m
    for choice in itertools.product(range(m), repeat=n):
        welfare = vertex_welfare[range(n), choice, :].sum(axis=0)
        den = float(lot.prob @ welfare)
        if den == 0.0:
            ratios = np.where(welfare > LOTTERY_TOL, math.inf, 1.0)
        else:
            ratios = welfare / den
        for x in np.flatnonzero(ratios > best):
            best[x], choices[x] = ratios[x], choice
    best_ratio, x_star = _first_max((float(best[x]), x) for x in range(m))
    return DistortionReport(
        value=DistortionValue(max(best_ratio, 1.0)),
        witness=UtilityProfile(vertex_welfare[range(n), choices[x_star], :]),
        arg_optimum=x_star,
    )


Rule = Callable[[Profile | TopTProfile], Lottery]

_WORLDS = ("metric", "utilitarian")


def _oracle(world: str) -> Callable[[Lottery, Profile | TopTProfile], DistortionReport]:
    if world not in _WORLDS:
        raise ValueError(f"world must be one of {_WORLDS}, got {world!r}")
    # Read at call time, so that replacing an oracle on the module (as a
    # tracer does) reaches every caller.
    return metric_distortion if world == "metric" else utilitarian_distortion


def rule_distortion(rule: Rule, p: Profile | TopTProfile, world: str) -> DistortionReport:
    """Worst-case distortion of ``rule``'s lottery on ``p`` in one world."""
    return _oracle(world)(rule(p), p)


def _profile_count(n: int, m: int, t: int | None = None) -> int:
    """(m!/(m-t)!)^n profiles of n ballots: full rankings (t None) or top-t prefixes."""
    k = m if t is None else t
    return (math.factorial(m) // math.factorial(m - k)) ** n


def _all_profiles(n: int, m: int, t: int | None) -> Iterator[Profile | TopTProfile]:
    make = functools.partial(Profile, m) if t is None else functools.partial(TopTProfile, m, t)
    for combo in itertools.product(itertools.permutations(range(m), t), repeat=n):
        yield make(combo)


def exhaustive_worst_case(
    rule: Rule,
    n: int,
    m: int,
    world: str,
    t: int | None = None,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[DistortionValue, Profile | TopTProfile]:
    """Worst case of a rule over every profile of the given shape.

    Enumerates all (m!)^n full profiles, or all (m!/(m-t)!)^n top-t profiles
    when ``t`` is given, in lexicographic order; the first profile attaining
    the maximum is returned as the witness. Raises ``ValueError`` for a
    ``t`` outside 1..m and :class:`BudgetExceededError` if the profile count
    exceeds the budget.

    The rule runs on every profile, but the oracle runs once per orbit of
    (ballot multiset, lottery) under renamings of the alternatives, since
    its value depends neither on the order of the agents nor on the names
    of the alternatives (module docstring). On a miss the oracle solves the
    profile in hand, and the value is stored under the key of every
    renaming pi (identity included): the sorted renamed ballots and the
    lottery's bytes permuted by pi^-1, the mass that lands on each new name.
    ``setdefault`` keeps an earlier value. A rule that depends on the agent
    order or on the alternatives' names yields another lottery, and so
    another key, wherever that changes its output, and gets its own solve.
    Orbits are disjoint, so the first profile of each orbit in scan order
    (the multiset's sorted arrangement for an anonymous rule) is the one
    solved; a later member has the same value, so it never replaces the
    best and the witness is a solved profile. The dict is local to the
    call: each solve adds at most m! floats, and the dict is freed when the
    call returns.
    """
    oracle = _oracle(world)
    if t is not None and not 1 <= t <= m:
        raise ValueError(f"t={t} out of range for m={m}")
    count = _profile_count(n, m, t)
    if count > budget:
        raise BudgetExceededError(f"{count} profiles exceed the budget of {budget}")
    # Each renaming pi as (pi, pi^-1); pi takes alternative x to pi[x].
    renamings = [(pi, [pi.index(y) for y in range(m)]) for pi in itertools.permutations(range(m))]
    solved: dict[tuple[tuple[tuple[int, ...], ...], bytes], float] = {}

    def value(profile: Profile | TopTProfile) -> float:
        lot = rule(profile)
        key = (tuple(sorted(profile.ballots)), lot.prob.tobytes())
        if key not in solved:
            v = oracle(lot, profile).value.value
            for pi, inverse in renamings:
                renamed = sorted(tuple(pi[x] for x in b) for b in profile.ballots)
                solved.setdefault((tuple(renamed), lot.prob[inverse].tobytes()), v)
        return solved[key]

    best, witness = _first_max((value(profile), profile) for profile in _all_profiles(n, m, t))
    return DistortionValue(best), witness
