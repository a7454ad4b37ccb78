"""Test-only reference oracles: the LP formulations the library replaced.

``reference_metric_report`` is the quadrilateral-row metric program. Its
feasible set couples the per-agent consistency rows with
d(i,X) <= d(i,Y) + d(j,Y) + d(j,X) for every i != j and X != Y, which is
n(n-1)m(m-1) rows. Per candidate optimum X* it first solves a boxed
degeneracy probe (maximize expected cost with the cost of X* pinned to 0),
then the main program with the cost of X* normalized to 1.

``reference_utilitarian_report`` is the homogenized utilitarian program
(Charnes-Cooper: scaled utilities v = s*u, each agent row summing to the
scale s, expected welfare pinned to 1, the welfare of each X* maximized)
that decides unboundedness by the LP alone. ``reference_utilitarian_lp`` is
the route the library ran before its per-agent vertex choice: the support
test, then the same program, raising where that route raised.
``reference_utilitarian_dinkelbach`` is that vertex choice as the library
first ran it, one agent at a time, before each Dinkelbach step was taken
for all agents at once. ``reference_utilitarian_per_candidate`` takes each
step for all agents at once but runs the candidates one after another,
as the library did before it stepped every candidate in lockstep. The
library must agree with both to the bit.

``reference_metric_primal`` is the compact metric route the library ran
before it solved the dual: the closure test, then per X* the primal
max c.y s.t. A y <= 0, a_X*.y = 1, y >= 0 over the distances and the pair
variables, the witness closed from the optimal y. Its A keeps both
directions of every pair row for every agent (``_pair_rows``), where the
library drops the direction each ballot implies.

The first two return ``witness=None`` when a main program is unbounded.
They are kept to cross-check the library's compact metric program, its
utilitarian vertex choice and its combinatorial unboundedness tests on
small shapes; they run on the direct ballot constraints.

``reference_metric_dual_cold`` is the dual route as the library ran it
before the candidates were chained: every candidate's dual program solved
from the all-artificial basis, where the library starts each candidate
after the first from candidate 0's optimal basis.

``reference_metric_per_agent`` is the warm-started dual route as the library ran
it before the program was collapsed to one block per distinct ballot: one
block of m distances, chain rows and pair rows per agent, so agents who
cast the same ballot get identical blocks. On profiles whose ballots are
all distinct the two build the same arrays and must agree to the bit.

``reference_metric_all_candidates`` is the warm-started route over one
block per distinct ballot as the library ran it before it skipped the
candidates that the pairwise bound B_X rules out: every candidate's dual
solved (``reference_metric_candidate_duals``, which can also solve each one
cold). A skipped candidate never replaces the best, so the two must agree
to the bit. ``reference_candidate_bounds`` computes each B_X with one loop
over the agents per pair of alternatives.

``reference_metric_rows`` is the metric program's row builder as the
library first ran it, reading each agent's ranks from a ``{x: rank}`` dict
where ``oracles._metric_rows`` reads ``p.positions``; the two must build the
same matrix.

``reference_exhaustive_worst_case`` is the plain exhaustive scan: one
oracle call on every profile, where the library solves each (ballot
multiset, lottery) once. The two must agree to the bit on the value and on
the witness profile.

``reference_completion_max`` is the top-t route the library replaced with
its single prefix program: the worst case over every full profile that
extends the prefixes, (m-t)!^n of them, each solved by a full-ranking
oracle.

The rule references are the per-kind loops the rules ran before they
shared one veto phase and one anchored-row builder:
``reference_plurality_veto`` (full rankings), ``reference_restricted_veto``
(ragged prefixes), ``reference_top_t_det_rule`` (``top_t_det_rule`` with
that veto phase on its shortlist), ``reference_truncated_weights`` and
``reference_truncated_harmonic`` (full rankings, anchor H_m) and
``reference_top_t_truncated_harmonic`` (prefixes, anchor 2 H_t at the
``reference_top_t_det_rule`` winner). They are kept to check that the
shared loops give the same bits. ``reference_copeland`` is Copeland's loop
over the pairs, and ``reference_pruned_plurality_veto`` runs the reference
veto phase on the restricted ``Profile``, where the rules now count all
pairwise wins at once from ``p.positions`` and take the veto winner on the
restricted ballots.

``reference_pivot`` and ``reference_run_phase`` are the simplex's pivot
and pivot loop as ``lp`` ran them before each pivot formed one product over
every row and the ratio test took the pivot column's eligible rows as
arrays: the pivot row scaled first and left out of an outer product, the
pivot column zeroed by hand, and the ratios as (ratio, row) pairs of Python
floats. Patched into ``lp``, they must take the same pivots, and every
nonzero tableau entry must come out the same; only the sign of a zero may
differ.

``restrict_profile`` builds that restricted ``Profile``. It left the
library's public API once no library code called it; the library keeps
only ``core._restrict_ballots``, which it wraps.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from distortion_lab import lp
from distortion_lab.core import (
    DistortionValue,
    Lottery,
    Profile,
    TopTProfile,
    UtilityProfile,
    _consistency_chain,
    _restrict_ballots,
    plurality_scores,
)
from distortion_lab.oracles import (
    DistortionReport,
    Rule,
    _all_profiles,
    _first_max,
    _metric_closure,
    _metric_rows,
    _metric_unbounded,
    _utilitarian_unbounded,
    rule_distortion,
)
from distortion_lab.rules import VetoTrace, harmonic_number

DEGENERACY_TOL = 1e-7


def reference_pivot(tab: np.ndarray, row: int, col: int):
    """Pivot on ``tab[row, col]`` in place with the pivot row scaled first
    and left out of the outer product, then the pivot column set by hand."""
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.multiply.outer(factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0


def reference_run_phase(
    tab: np.ndarray,
    basis: list[int],
    n_allowed: int,
    max_pivots: int,
    dump,
    first_out: int | None = None,
) -> str:
    """``lp._run_phase`` with its ratio test on Python floats and every
    pivot taken by ``reference_pivot``; same signature and rules."""
    n_rows = tab.shape[0] - 1
    reduced = tab[-1, :n_allowed]
    rhs = tab[:n_rows, -1]
    for _ in range(max_pivots):
        eligible = reduced < -lp.PIVOT_TOL
        col = int(eligible.argmax())
        if not eligible[col]:
            return lp.OPTIMAL
        ratios = [
            (r / a, i)
            for i, (a, r) in enumerate(zip(tab[:n_rows, col].tolist(), rhs.tolist()))
            if a > lp.PIVOT_FLOOR
        ]
        if not ratios:
            return lp.UNBOUNDED
        best = min(ratios)[0]
        cut = best + 1e-9 * (1.0 + abs(best))
        ties = [i for q, i in ratios if q <= cut]
        row = min(ties, key=lambda i: (basis[i] != first_out, basis[i]))
        if dump is not None:
            dump.write(f"pivot: col {col} enters, row {row} (basic {basis[row]}) leaves\n")
        reference_pivot(tab, row, col)
        basis[row] = col
    raise lp.SolverError(f"simplex did not terminate within {max_pivots} pivots")


def reference_metric_rows(p: Profile | TopTProfile) -> np.ndarray:
    """The rows A of the metric program, ranks read from a per-agent dict."""
    n, m = p.n, p.m
    nm = n * m
    pair_col = {
        pair: nm + k for k, pair in enumerate(itertools.combinations(range(m), 2))
    }
    # Each row as its +1 column followed by its -1 columns.
    rows: list[tuple[int, ...]] = []
    for i in range(n):
        rows += ((i * m + b, i * m + w) for b, w in _consistency_chain(p, i))
    for i, ballot in enumerate(p.ballots):
        rank = {x: k for k, x in enumerate(ballot)}
        rows += (
            (i * m + x, i * m + y, pair_col[min(x, y), max(x, y)])
            for x, y in itertools.permutations(range(m), 2)
            if rank.get(x, m) >= rank.get(y, m)
        )
    for j in range(n):
        rows += ((col, j * m + x, j * m + y) for (x, y), col in pair_col.items())
    nv = nm + len(pair_col)
    a = np.zeros((len(rows), nv))
    a.flat[[r * nv + row[0] for r, row in enumerate(rows)]] = 1.0
    a.flat[[r * nv + c for r, row in enumerate(rows) for c in row[1:]]] = -1.0
    return a


@lru_cache(maxsize=64)
def _pair_rows(n: int, m: int) -> np.ndarray:
    """Rows tying the pair variables e(X,Y) to the distance grid.

    Columns are the n*m distances d(i,X) at i*m+X, then one e(X,Y) per
    unordered pair X<Y in lexicographic order. The rows encode
    d(i,X) - d(i,Y) - e(X,Y) <= 0 for every agent and ordered pair X!=Y,
    then e(X,Y) - d(j,X) - d(j,Y) <= 0 for every agent and unordered pair.
    Eliminating e gives |d(i,X) - d(i,Y)| <= d(j,X) + d(j,Y) for all i, j:
    the quadrilateral conditions under which the grid extends to a
    pseudometric (the i == j cases follow from d >= 0). Every direction of
    every pair is kept, including those a ballot already implies.
    """
    nm = n * m
    pair_col = {
        pair: nm + k for k, pair in enumerate(itertools.combinations(range(m), 2))
    }
    rows = []
    for i in range(n):
        for x, y in itertools.permutations(range(m), 2):
            row = np.zeros(nm + len(pair_col))
            row[i * m + x] = 1.0
            row[i * m + y] = -1.0
            row[pair_col[min(x, y), max(x, y)]] = -1.0
            rows.append(row)
    for j in range(n):
        for (x, y), col in pair_col.items():
            row = np.zeros(nm + len(pair_col))
            row[col] = 1.0
            row[j * m + x] = -1.0
            row[j * m + y] = -1.0
            rows.append(row)
    if not rows:
        return np.zeros((0, nm))
    return np.asarray(rows)


def _consistency_rows(p: Profile | TopTProfile) -> np.ndarray:
    """Rows encoding d(i, better) - d(i, worse) <= 0 along each ballot."""
    n, m = p.n, p.m
    rows = []
    for i in range(n):
        for better, worse in _consistency_chain(p, i):
            row = np.zeros(n * m)
            row[i * m + better] = 1.0
            row[i * m + worse] = -1.0
            rows.append(row)
    if not rows:
        return np.zeros((0, n * m))
    return np.asarray(rows)


@lru_cache(maxsize=64)
def _quadrilateral_rows(n: int, m: int) -> np.ndarray:
    """Rows encoding d(i,X) - d(i,Y) - d(j,Y) - d(j,X) <= 0 for i!=j, X!=Y."""
    rows = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for x in range(m):
                for y in range(m):
                    if x == y:
                        continue
                    row = np.zeros(n * m)
                    row[i * m + x] += 1.0
                    row[i * m + y] -= 1.0
                    row[j * m + y] -= 1.0
                    row[j * m + x] -= 1.0
                    rows.append(row)
    if not rows:
        return np.zeros((0, n * m))
    return np.asarray(rows)


def reference_metric_report(
    lot: Lottery, p: Profile | TopTProfile
) -> DistortionReport:
    """Worst case over consistent pseudometrics via the quadrilateral program."""
    n, m = p.n, p.m
    nv = n * m
    objective = np.tile(lot.prob, n)
    base = np.vstack([_consistency_rows(p), _quadrilateral_rows(n, m)])

    best_value = -math.inf
    best_assignment: np.ndarray | None = None
    best_x = 0
    for x_star in range(m):
        norm = np.zeros(nv)
        norm[x_star::m] = 1.0

        box = np.eye(nv)
        a_deg = np.vstack([base, box, norm[None, :]])
        rel_deg = ("<=",) * (base.shape[0] + nv) + ("=",)
        rhs_deg = np.concatenate([np.zeros(base.shape[0]), np.ones(nv), [0.0]])
        deg = lp.solve(
            lp.LinearProgram(objective=objective, lhs=a_deg, relations=rel_deg, rhs=rhs_deg)
        )
        if deg.status != lp.OPTIMAL:
            raise RuntimeError(f"degeneracy probe returned {deg.status}")
        if deg.value > DEGENERACY_TOL:
            witness = _metric_closure(deg.assignment.reshape(n, m), n, m)
            return DistortionReport(
                value=DistortionValue.unbounded(), witness=witness, arg_optimum=x_star
            )

        a_main = np.vstack([base, norm[None, :]])
        rel_main = ("<=",) * base.shape[0] + ("=",)
        rhs_main = np.concatenate([np.zeros(base.shape[0]), [1.0]])
        main = lp.solve(
            lp.LinearProgram(objective=objective, lhs=a_main, relations=rel_main, rhs=rhs_main)
        )
        if main.status == lp.UNBOUNDED:
            return DistortionReport(
                value=DistortionValue.unbounded(), witness=None, arg_optimum=x_star
            )
        if main.status != lp.OPTIMAL:
            raise RuntimeError(f"main metric program returned {main.status}")
        if main.value > best_value + 1e-12:
            best_value = main.value
            best_assignment = main.assignment
            best_x = x_star

    witness = _metric_closure(best_assignment.reshape(n, m), n, m)
    return DistortionReport(
        value=DistortionValue.finite(max(best_value, 1.0)),
        witness=witness,
        arg_optimum=best_x,
    )


def reference_metric_primal(lot: Lottery, p: Profile | TopTProfile) -> DistortionReport:
    """Worst case over consistent pseudometrics via the primal compact program."""
    unbounded = _metric_unbounded(lot, p, range(p.n))
    if unbounded is not None:
        return unbounded
    n, m = p.n, p.m
    nm = n * m
    pairs = _pair_rows(n, m)
    nv = pairs.shape[1]
    objective = np.zeros(nv)
    objective[:nm] = np.tile(lot.prob, n)
    consistency = _consistency_rows(p)
    lhs = np.zeros((consistency.shape[0] + pairs.shape[0] + 1, nv))
    lhs[: consistency.shape[0], :nm] = consistency
    lhs[consistency.shape[0] : -1] = pairs
    # The last row, filled per candidate, normalizes sum_i d(i, x_star) to 1.
    rel = ("<=",) * (lhs.shape[0] - 1) + ("=",)
    rhs = np.zeros(lhs.shape[0])
    rhs[-1] = 1.0

    def candidate(x_star: int) -> tuple[float, tuple[int, np.ndarray]]:
        a = lhs.copy()
        a[-1, x_star:nm:m] = 1.0
        main = lp.solve(lp.LinearProgram(objective=objective, lhs=a, relations=rel, rhs=rhs))
        if main.status != lp.OPTIMAL:
            raise RuntimeError(f"metric program for x*={x_star} returned {main.status}")
        return main.value, (x_star, main.assignment)

    best_value, (best_x, assignment) = _first_max(candidate(x) for x in range(m))
    return DistortionReport(
        value=DistortionValue.finite(max(best_value, 1.0)),
        witness=_metric_closure(assignment[:nm].reshape(n, m), n, m),
        arg_optimum=best_x,
    )


def reference_metric_dual_cold(lot: Lottery, p: Profile | TopTProfile) -> DistortionReport:
    """Worst case via the library's dual program, every candidate solved cold."""
    unbounded = _metric_unbounded(lot, p, range(p.n))
    if unbounded is not None:
        return unbounded
    n, m = p.n, p.m
    nm = n * m
    primal = _metric_rows(p, range(p.n))
    nv = primal.shape[1]
    cost = np.zeros(nv)
    cost[:nm] = np.tile(lot.prob, n)
    lhs = np.zeros((nv, primal.shape[0] + 1))
    lhs[:, :-1] = primal.T
    objective = np.zeros(lhs.shape[1])
    objective[-1] = 1.0
    rel = (">=",) * nv

    def candidate(x_star: int) -> tuple[float, tuple[int, np.ndarray]]:
        a = lhs.copy()
        a[x_star:nm:m, -1] = 1.0
        dual = lp.solve(
            lp.LinearProgram(objective=objective, lhs=a, relations=rel, rhs=cost, maximize=False)
        )
        if dual.status != lp.OPTIMAL:
            raise RuntimeError(f"dual metric program for x*={x_star} returned {dual.status}")
        return dual.value, (x_star, dual.duals)

    best_value, (best_x, y) = _first_max(candidate(x) for x in range(m))
    return DistortionReport(
        value=DistortionValue.finite(max(best_value, 1.0)),
        witness=_metric_closure(y[:nm].reshape(n, m), n, m),
        arg_optimum=best_x,
    )


def reference_metric_per_agent(lot: Lottery, p: Profile | TopTProfile) -> DistortionReport:
    """Worst case via one dual block per agent, every candidate after the
    first started from candidate 0's optimum through ``lp.solve``'s
    ``start``, as the library starts them."""
    unbounded = _metric_unbounded(lot, p, range(p.n))
    if unbounded is not None:
        return unbounded
    n, m = p.n, p.m
    nm = n * m
    primal = _metric_rows(p, range(p.n))
    nv = primal.shape[1]
    cost = np.zeros(nv)
    cost[:nm] = np.tile(lot.prob, n)
    lhs = np.zeros((nv, primal.shape[0] + 1))
    lhs[:, :-1] = primal.T
    objective = np.zeros(lhs.shape[1])
    objective[-1] = 1.0
    rel = (">=",) * nv

    def candidates() -> Iterator[tuple[float, tuple[int, np.ndarray]]]:
        first = None
        for x_star in range(m):
            a = lhs.copy()
            a[x_star:nm:m, -1] = 1.0
            program = lp.LinearProgram(
                objective=objective, lhs=a, relations=rel, rhs=cost, maximize=False
            )
            if first is None:
                dual = first = lp.solve(program)
            else:
                dual = lp.solve(program, start=first)
            if dual.status != lp.OPTIMAL:
                raise RuntimeError(f"dual metric program for x*={x_star} returned {dual.status}")
            yield dual.value, (x_star, dual.duals)

    best_value, (best_x, y) = _first_max(candidates())
    return DistortionReport(
        value=DistortionValue.finite(max(best_value, 1.0)),
        witness=_metric_closure(y[:nm].reshape(n, m), n, m),
        arg_optimum=best_x,
    )


def reference_metric_candidate_duals(
    lot: Lottery, p: Profile | TopTProfile, *, warm: bool = True
) -> tuple[list[lp.LPOutcome], list[int], int]:
    """Every candidate's dual program over one block per distinct ballot,
    as ``metric_distortion`` built it; each later candidate starts from
    candidate 0's optimum (``warm``) or every candidate is solved cold. The
    caller has ruled out unboundedness. Returns the outcomes, each agent's
    block and k*m."""
    block: dict[tuple[int, ...], int] = {}
    blocks = [block.setdefault(b, len(block)) for b in p.ballots]
    _, agents, w = np.unique(blocks, return_index=True, return_counts=True)
    m = p.m
    km = len(block) * m
    primal = _metric_rows(p, agents)
    nv = primal.shape[1]
    cost = np.zeros(nv)
    cost[:km] = (w[:, None] * lot.prob).ravel()
    lhs = np.zeros((nv, primal.shape[0] + 1))
    lhs[:, :-1] = primal.T
    objective = np.zeros(lhs.shape[1])
    objective[-1] = 1.0
    rel = (">=",) * nv
    duals: list[lp.LPOutcome] = []
    for x_star in range(m):
        a = lhs.copy()
        a[x_star:km:m, -1] = w
        program = lp.LinearProgram(
            objective=objective, lhs=a, relations=rel, rhs=cost, maximize=False
        )
        start = duals[0] if warm and duals else None
        dual = lp.solve(program) if start is None else lp.solve(program, start=start)
        if dual.status != lp.OPTIMAL:
            raise RuntimeError(f"dual metric program for x*={x_star} returned {dual.status}")
        duals.append(dual)
    return duals, blocks, km


def reference_metric_all_candidates(lot: Lottery, p: Profile | TopTProfile) -> DistortionReport:
    """Worst case via every candidate's warm-started dual program, with no
    candidate skipped by its bound B_X."""
    unbounded = _metric_unbounded(lot, p, range(p.n))
    if unbounded is not None:
        return unbounded
    duals, blocks, km = reference_metric_candidate_duals(lot, p)
    best_value, (best_x, y) = _first_max(
        (dual.value, (x_star, dual.duals)) for x_star, dual in enumerate(duals)
    )
    return DistortionReport(
        value=DistortionValue.finite(max(best_value, 1.0)),
        witness=_metric_closure(y[:km].reshape(-1, p.m)[blocks], p.n, p.m),
        arg_optimum=best_x,
    )


def reference_candidate_bounds(lot: Lottery, p: Profile | TopTProfile) -> list[float]:
    """B_X = sum_Y q_Y r(Y, X), one pairwise loop per (Y, X): s counts the
    agents whose ballot ranks Y above X (an unranked alternative below every
    ranked one), r(X, X) = 1, r(Y, X) = 1 + 2(n - s)/s, inf when s = 0, and
    a term with q_Y = 0 counts as 0."""
    bounds = []
    for x in range(p.m):
        total = 0.0
        for y in range(p.m):
            q = float(lot.prob[y])
            if q == 0.0 or y == x:
                total += q
                continue
            s = sum(
                1
                for i, ballot in enumerate(p.ballots)
                if y in ballot and (x in p.unranked(i) or ballot.index(y) < ballot.index(x))
            )
            total += math.inf if s == 0 else q * (1.0 + 2.0 * (p.n - s) / s)
        bounds.append(total)
    return bounds


def _utilitarian_program(
    lot: Lottery, p: Profile | TopTProfile
) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """Constraints of the homogenized program over v = s*u, as (lhs, relations, rhs).

    Agent rows sum to the trailing scale variable s, utilities are monotone
    along each ballot, and the expected welfare is pinned to 1.
    """
    n, m = p.n, p.m
    nv = n * m + 1  # trailing variable is the scale s
    s_col = n * m

    rows = []
    rhs = []
    rel = []
    for i in range(n):
        row = np.zeros(nv)
        row[i * m : (i + 1) * m] = 1.0
        row[s_col] = -1.0
        rows.append(row)
        rel.append("=")
        rhs.append(0.0)
    for i in range(n):
        for better, worse in _consistency_chain(p, i):
            row = np.zeros(nv)
            row[i * m + worse] = 1.0
            row[i * m + better] = -1.0
            rows.append(row)
            rel.append("<=")
            rhs.append(0.0)
    denom = np.zeros(nv)
    denom[:s_col] = np.tile(lot.prob, n)
    rows.append(denom)
    rel.append("=")
    rhs.append(1.0)
    return np.asarray(rows), tuple(rel), np.asarray(rhs)


def reference_utilitarian_report(
    lot: Lottery, p: Profile | TopTProfile
) -> DistortionReport:
    """Worst case over consistent unit-sum utilities, unboundedness by LP."""
    n, m = p.n, p.m
    s_col = n * m
    a, rel, rhs = _utilitarian_program(lot, p)
    nv = a.shape[1]

    best_value = -math.inf
    best_assignment: np.ndarray | None = None
    best_x = 0
    for x_star in range(m):
        objective = np.zeros(nv)
        objective[x_star:s_col:m] = 1.0
        out = lp.solve(lp.LinearProgram(objective=objective, lhs=a, relations=rel, rhs=rhs))
        if out.status == lp.UNBOUNDED:
            return DistortionReport(
                value=DistortionValue.unbounded(), witness=None, arg_optimum=x_star
            )
        if out.status != lp.OPTIMAL:
            raise RuntimeError(f"utilitarian program returned {out.status}")
        if out.value > best_value + 1e-12:
            best_value = out.value
            best_assignment = out.assignment
            best_x = x_star

    s = best_assignment[s_col]
    grid = best_assignment[:s_col].reshape(n, m) / s
    grid = np.clip(grid, 0.0, None)
    grid /= grid.sum(axis=1, keepdims=True)
    return DistortionReport(
        value=DistortionValue.finite(max(best_value, 1.0)),
        witness=UtilityProfile(grid),
        arg_optimum=best_x,
    )


def reference_utilitarian_lp(lot: Lottery, p: Profile | TopTProfile) -> DistortionReport:
    """The library's former utilitarian route: the support test, then the LP.

    Raises ``RuntimeError`` where that route did: when the solver's
    feasibility post-check fails, or when the program looks unbounded
    although the support test found the distortion bounded.
    """
    unbounded = _utilitarian_unbounded(lot, p)
    if unbounded is not None:
        return unbounded
    report = reference_utilitarian_report(lot, p)
    if report.value.is_unbounded:
        raise RuntimeError(
            f"utilitarian program for x*={report.arg_optimum} is unbounded "
            "after the support test found the distortion bounded"
        )
    return report


def reference_utilitarian_dinkelbach(
    lot: Lottery, p: Profile | TopTProfile
) -> DistortionReport:
    """The library's former Dinkelbach step, one agent at a time.

    The support test, then per x* Dinkelbach's iteration from lambda = 0,
    where each agent sorts its unranked alternatives by gain (a stable sort,
    so ties by index), takes the running means of the gains along its
    ballot and that order, and puts 1/k on the first k at the first maximum.
    """
    unbounded = _utilitarian_unbounded(lot, p)
    if unbounded is not None:
        return unbounded
    n, m = p.n, p.m
    unranked = [p.unranked(i) for i in range(n)]
    sizes = np.arange(1, m + 1)

    def candidate(x_star: int) -> tuple[float, tuple[int, np.ndarray]]:
        lam, util = 0.0, None
        while True:
            gain = -lam * lot.prob
            gain[x_star] += 1.0
            vertices = np.zeros((n, m))
            for i, ranked in enumerate(p.ballots):
                order = list(ranked) + sorted(unranked[i], key=lambda y: -gain[y])
                k = int(np.argmax(np.cumsum(gain[order]) / sizes)) + 1
                vertices[i, order[:k]] = 1.0 / k
            welfare = vertices.sum(axis=0)
            ratio = float(welfare[x_star]) / float(lot.prob @ welfare)
            if ratio <= lam * (1.0 + 1e-12):
                return lam, (x_star, util)
            lam, util = ratio, vertices

    best_value, (best_x, best_util) = _first_max(candidate(x) for x in range(m))
    return DistortionReport(
        value=DistortionValue.finite(max(best_value, 1.0)),
        witness=UtilityProfile(best_util),
        arg_optimum=best_x,
    )


def reference_utilitarian_per_candidate(
    lot: Lottery, p: Profile | TopTProfile, steps: list[int] | None = None
) -> DistortionReport:
    """The library's former candidate loop: Dinkelbach's iteration for one
    x* at a time, each step for all agents at once.

    The support test, then per x* from lambda = 0: one stable sort of the
    gains places the unranked alternatives after every ballot (ties by
    index), one stable sort of the (n, m) key orders every agent, and the
    first maximum of the running mean gains gives each agent's k. If
    ``steps`` is a list, the number of steps each x* took is appended to it
    in candidate order.
    """
    unbounded = _utilitarian_unbounded(lot, p)
    if unbounded is not None:
        return unbounded
    n, m = p.n, p.m
    rank = p.positions
    ranked = rank < m
    agents = np.arange(n)[:, None]
    sizes = np.arange(1, m + 1)
    after = m + np.arange(m)

    def candidate(x_star: int) -> tuple[float, tuple[int, np.ndarray]]:
        lam, util, taken = 0.0, None, 0
        while True:
            taken += 1
            gain = -lam * lot.prob
            gain[x_star] += 1.0
            key = np.empty(m, dtype=np.int64)
            key[(-gain).argsort(kind="stable")] = after
            order = np.where(ranked, rank, key).argsort(axis=1, kind="stable")
            k = (gain[order].cumsum(axis=1) / sizes).argmax(axis=1)[:, None] + 1
            vertices = np.zeros((n, m))
            vertices[agents, order] = np.where(sizes <= k, 1.0 / k, 0.0)
            welfare = vertices.sum(axis=0)
            ratio = float(welfare[x_star]) / float(lot.prob @ welfare)
            if ratio <= lam * (1.0 + 1e-12):
                if steps is not None:
                    steps.append(taken)
                return lam, (x_star, util)
            lam, util = ratio, vertices

    best_value, (best_x, best_util) = _first_max(candidate(x) for x in range(m))
    return DistortionReport(
        value=DistortionValue.finite(max(best_value, 1.0)),
        witness=UtilityProfile(best_util),
        arg_optimum=best_x,
    )


def reference_exhaustive_worst_case(
    rule: Rule, n: int, m: int, world: str, t: int | None = None
) -> tuple[DistortionValue, Profile | TopTProfile]:
    """Worst case of a rule over every profile of the shape, one oracle call
    per profile, first maximum in lexicographic order."""
    best, witness = _first_max(
        (rule_distortion(rule, profile, world).value.value, profile)
        for profile in _all_profiles(n, m, t)
    )
    return DistortionValue(best), witness


def _completions(p: TopTProfile) -> Iterator[Profile]:
    """All full profiles extending each prefix, tails in lexicographic order."""
    tail_choices = [
        list(itertools.permutations(sorted(p.unranked(i)))) for i in range(p.n)
    ]
    for tails in itertools.product(*tail_choices):
        yield Profile(p.m, tuple(pre + tail for pre, tail in zip(p.prefixes, tails)))


def reference_completion_max(
    oracle: Callable[[Lottery, Profile], DistortionReport],
    lot: Lottery,
    p: TopTProfile,
) -> DistortionReport:
    """Worst case over all completions of ``p``, each solved by ``oracle``.

    The first unbounded completion is returned at once; otherwise the first
    completion attaining the largest value.
    """
    best: DistortionReport | None = None
    for full in _completions(p):
        report = oracle(lot, full)
        if report.value.is_unbounded:
            return report
        if best is None or report.value.value > best.value.value + 1e-12:
            best = report
    return best


def reference_plurality_veto(p: Profile) -> tuple[Lottery, VetoTrace]:
    """The veto phase on full rankings: each agent vetoes its last survivor."""
    scores = plurality_scores(p).astype(np.int64)
    alive = scores > 0
    events: list[tuple[int, int, int]] = []
    target = -1
    for i, r in enumerate(p.rankings):
        target = next(x for x in reversed(r) if alive[x])
        scores[target] -= 1
        if scores[target] == 0:
            alive[target] = False
        events.append((i, int(target), int(scores[target])))
    trace = VetoTrace(
        initial_scores=tuple(int(s) for s in plurality_scores(p)),
        events=tuple(events),
        winner=int(target),
    )
    return Lottery.point_mass(p.m, trace.winner), trace


def reference_copeland(p: Profile) -> Lottery:
    """Point mass on the most pairwise wins (a tie 1/2), counted pair by pair."""
    pos = p.positions
    score = np.zeros(p.m)
    for x in range(p.m):
        for y in range(x + 1, p.m):
            wins_x = int((pos[:, x] < pos[:, y]).sum())
            wins_y = p.n - wins_x
            if wins_x > wins_y:
                score[x] += 1.0
            elif wins_y > wins_x:
                score[y] += 1.0
            else:
                score[x] += 0.5
                score[y] += 0.5
    return Lottery.point_mass(p.m, int(np.argmax(score)))


def restrict_profile(
    p: Profile, keep: "list[int] | tuple[int, ...] | set[int]"
) -> tuple[Profile, tuple[int, ...]]:
    """Restrict a full profile to a subset of alternatives.

    Kept alternatives are re-indexed in ascending original order. Returns the
    restricted profile together with ``index_map`` where ``index_map[new]`` is
    the original index, so results on the restriction can be mapped back.
    """
    kept = sorted({int(x) for x in keep})
    if not kept:
        raise ValueError("empty restriction: need at least one alternative to keep")
    for x in kept:
        if not (0 <= x < p.m):
            raise ValueError(f"alternative {x} out of range for m={p.m}")
    return Profile(len(kept), _restrict_ballots(p.rankings, kept)), tuple(kept)


def reference_pruned_plurality_veto(p: Profile, eps: float = 1.0) -> Lottery:
    """The reference veto phase on the profile restricted to the alternatives
    with plurality score at least eps*n/((6+eps)*m), mapped back."""
    scores = plurality_scores(p)
    threshold = eps * p.n / ((6.0 + eps) * p.m)
    keep = [x for x in range(p.m) if scores[x] >= threshold - 1e-9]
    sub, index_map = restrict_profile(p, keep)
    _, trace = reference_plurality_veto(sub)
    return Lottery.point_mass(p.m, index_map[trace.winner])


def reference_restricted_veto(prefixes: tuple[tuple[int, ...], ...], m_sub: int) -> int:
    """The veto phase on ragged prefixes: the highest-index unranked survivor
    goes first, the last ranked survivor only once every survivor is ranked."""
    if any(len(pre) == 0 for pre in prefixes):
        raise ValueError("every agent needs a nonempty prefix")
    scores = [0] * m_sub
    for pre in prefixes:
        scores[pre[0]] += 1
    alive = [s > 0 for s in scores]
    target = -1
    for pre in prefixes:
        ranked = set(pre)
        unranked_alive = [x for x in range(m_sub) if alive[x] and x not in ranked]
        if unranked_alive:
            target = max(unranked_alive)
        else:
            target = next(x for x in reversed(pre) if alive[x])
        scores[target] -= 1
        if scores[target] == 0:
            alive[target] = False
    return target


def reference_top_t_det_rule(p: TopTProfile) -> Lottery:
    """``top_t_det_rule`` with ``reference_restricted_veto`` on the shortlist."""
    scores = plurality_scores(p)
    if 2 * p.t <= p.m:
        return Lottery.point_mass(p.m, int(np.argmax(scores)))
    shortlist = [x for x in range(p.m) if scores[x] >= p.n / (2.0 * p.m) - 1e-9]
    if len(shortlist) < 2 * (p.m - p.t + 1):
        return Lottery.point_mass(p.m, int(np.argmax(scores)))
    winner = reference_restricted_veto(_restrict_ballots(p.prefixes, shortlist), len(shortlist))
    return Lottery.point_mass(p.m, shortlist[winner])


def reference_truncated_weights(p: Profile, anchor: int) -> np.ndarray:
    """Rows of 1/(H_m * rank) above ``anchor`` on full rankings, the rest on it."""
    h_m = harmonic_number(p.m)
    w = np.zeros((p.n, p.m))
    for i, r in enumerate(p.rankings):
        cut = r.index(anchor)
        for rank0, y in enumerate(r[:cut]):
            w[i, y] = 1.0 / (h_m * (rank0 + 1))
        w[i, anchor] = 1.0 - w[i].sum()
    return w


def reference_truncated_harmonic(p: Profile, eps: float = 1.0) -> Lottery:
    """eps/6 of the truncated weights at the veto winner, the rest on it."""
    _, trace = reference_plurality_veto(p)
    prob = (eps / 6.0) * reference_truncated_weights(p, trace.winner).mean(axis=0)
    prob[trace.winner] += 1.0 - eps / 6.0
    return Lottery(prob)


def reference_top_t_truncated_harmonic(p: TopTProfile) -> Lottery:
    """Rows of 1/(2 H_t * rank) above the ``reference_top_t_det_rule`` anchor on prefixes."""
    anchor = int(np.argmax(reference_top_t_det_rule(p).prob))
    h_t = harmonic_number(p.t)
    rows = np.zeros((p.n, p.m))
    for i, pre in enumerate(p.prefixes):
        cut = pre.index(anchor) if anchor in pre else len(pre)
        for rank0, y in enumerate(pre[:cut]):
            rows[i, y] = 1.0 / (2.0 * h_t * (rank0 + 1))
        rows[i, anchor] = 1.0 - rows[i].sum()
    return Lottery(rows.mean(axis=0))
