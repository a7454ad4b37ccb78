"""Deterministic dense linear programming via two-phase tableau simplex.

The solver favors reproducibility over speed: Bland's anti-cycling rule picks
the lowest-eligible entering column and breaks ratio-test ties by the lowest
basic variable index, so identical inputs always take the identical pivot
path. Unboundedness is a first-class outcome and carries an improving ray.
The worst-case oracles do not read it as a distortion signal: closure and
support tests decide unbounded distortion before any program is built, and
the metric oracle treats a program that is not optimal after that as an error.

All variables are bounded below (default 0); rows compare ``<=``, ``=`` or
``>=`` against the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-7

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

_RELATIONS = ("<=", "=", ">=")

__all__ = ["LinearProgram", "LPOutcome", "solve"]


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """``max/min objective @ x`` subject to ``lhs @ x (<=|=|>=) rhs``, ``x >= lb``."""

    objective: np.ndarray
    lhs: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    maximize: bool = True
    lower_bounds: np.ndarray | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        try:
            a = np.asarray(self.lhs, dtype=float)
        except ValueError as exc:
            raise ValueError(f"constraint matrix is ragged or non-numeric: {exc}")
        if a.size == 0:
            a = a.reshape(0, c.size)
        if a.ndim != 2:
            raise ValueError(f"constraint matrix must be 2-D, got shape {a.shape}")
        if a.shape[1] != c.size:
            raise ValueError(
                f"constraint matrix has {a.shape[1]} columns, objective has {c.size}"
            )
        b = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        rel = tuple(self.relations)
        if len(rel) != a.shape[0] or b.size != a.shape[0]:
            raise ValueError(
                f"got {a.shape[0]} constraint rows, {len(rel)} relations, {b.size} rhs entries"
            )
        for r in rel:
            if r not in _RELATIONS:
                raise ValueError(f"unknown relation {r!r}")
        lb = self.lower_bounds
        lb = np.zeros(c.size) if lb is None else np.asarray(lb, dtype=float)
        if lb.shape != c.shape:
            raise ValueError("lower_bounds must match the objective length")
        for arr, name in ((c, "objective"), (a, "lhs"), (b, "rhs"), (lb, "lower_bounds")):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} entries must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "lhs", a)
        object.__setattr__(self, "relations", rel)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "lower_bounds", lb)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.lhs.shape[0]


@dataclass(frozen=True, eq=False)
class LPOutcome:
    """Solver verdict.

    ``optimal``: value and a feasible assignment (within 1e-7).
    ``unbounded``: a feasible improving ray in original variable space.
    ``infeasible``: nothing else.
    """

    status: str
    value: float | None = None
    assignment: np.ndarray | None = None
    ray: np.ndarray | None = None


def _dump_tableau(dump: IO[str], label: str, tab: np.ndarray, basis: list[int]):
    dump.write(f"--- {label} (basis {basis}) ---\n")
    dump.write(np.array2string(tab, precision=6, suppress_small=True))
    dump.write("\n")


def _pivot(tab: np.ndarray, row: int, col: int):
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0


def _run_phase(
    tab: np.ndarray,
    basis: list[int],
    allowed: np.ndarray,
    max_pivots: int,
    dump: IO[str] | None,
) -> tuple[str, int | None]:
    """Pivot the bottom row to optimality or detect an unbounded column.

    Returns (OPTIMAL, None) or (UNBOUNDED, entering_column). The bottom row
    holds reduced costs for a maximization; a column may enter while its
    reduced cost is below -PIVOT_TOL.
    """
    n_rows = tab.shape[0] - 1
    for _ in range(max_pivots):
        reduced = tab[-1, :-1]
        eligible = np.nonzero((reduced < -PIVOT_TOL) & allowed)[0]
        if eligible.size == 0:
            return OPTIMAL, None
        col = int(eligible[0])  # Bland: lowest eligible index
        column = tab[:n_rows, col]
        positive = np.nonzero(column > PIVOT_TOL)[0]
        if positive.size == 0:
            return UNBOUNDED, col
        ratios = tab[positive, -1] / column[positive]
        best = ratios.min()
        ties = positive[ratios <= best + 1e-9 * (1.0 + abs(best))]
        row = int(min(ties, key=lambda r: basis[r]))  # Bland: lowest basic index
        if dump is not None:
            dump.write(f"pivot: col {col} enters, row {row} (basic {basis[row]}) leaves\n")
        _pivot(tab, row, col)
        basis[row] = col
    raise RuntimeError(f"simplex did not terminate within {max_pivots} pivots")


def solve(lp: LinearProgram, *, dump: IO[str] | None = None) -> LPOutcome:
    """Solve an LP with the two-phase tableau simplex method.

    Entries with magnitude at most ``PIVOT_TOL`` count as zero for pivoting
    decisions. Each phase is capped at 10_000 + 100 * (rows + columns)
    pivots; Bland's rule guarantees finite termination, so hitting the cap
    raises.

    Args:
        lp: the program to solve.
        dump: optional text stream receiving tableau snapshots and the pivot
            log, for debugging.

    Returns:
        An :class:`LPOutcome`. Optimal assignments satisfy every constraint
        within 1e-7 and the reported value equals the recomputed objective.
    """
    n = lp.n_vars
    lb = lp.lower_bounds
    # Shift to y = x - lb >= 0.
    a = lp.lhs.copy()
    b = lp.rhs - a @ lb
    rel = list(lp.relations)
    c = lp.objective if lp.maximize else -lp.objective

    flip = b < 0
    a[flip] *= -1.0
    b = np.where(flip, -b, b)
    rel = [
        {"<=": ">=", ">=": "<=", "=": "="}[r] if f else r for r, f in zip(rel, flip)
    ]

    n_rows = len(rel)
    slack_rows = [i for i, r in enumerate(rel) if r in ("<=", ">=")]
    art_rows = [i for i, r in enumerate(rel) if r in (">=", "=")]
    n_slack = len(slack_rows)
    n_art = len(art_rows)
    n_cols = n + n_slack + n_art
    art_start = n + n_slack

    tab = np.zeros((n_rows + 1, n_cols + 1))
    tab[:n_rows, :n] = a
    tab[:n_rows, -1] = b
    basis = [-1] * n_rows
    for k, i in enumerate(slack_rows):
        sign = 1.0 if rel[i] == "<=" else -1.0
        tab[i, n + k] = sign
        if sign > 0:
            basis[i] = n + k
    for k, i in enumerate(art_rows):
        tab[i, art_start + k] = 1.0
        basis[i] = art_start + k

    max_pivots = 10_000 + 100 * (n_rows + n_cols)
    allowed = np.ones(n_cols, dtype=bool)

    if n_art:
        # Phase 1: maximize minus the artificial sum, starting from the
        # all-artificial basis.
        costs = np.zeros(n_cols)
        costs[art_start:] = -1.0
        tab[-1, :-1] = -costs
        tab[-1, -1] = 0.0
        for i in range(n_rows):
            if costs[basis[i]] != 0.0:
                tab[-1] += costs[basis[i]] * tab[i]
        if dump is not None:
            _dump_tableau(dump, "phase 1 start", tab, basis)
        status, _ = _run_phase(tab, basis, allowed, max_pivots, dump)
        if status != OPTIMAL:
            raise RuntimeError("phase 1 is bounded by construction")
        if tab[-1, -1] < -FEAS_TOL:
            return LPOutcome(status=INFEASIBLE)
        # Drive leftover artificials out of the basis; rows that cannot pivot
        # are redundant and dropped.
        drop: list[int] = []
        for i in range(n_rows):
            if basis[i] >= art_start:
                candidates = np.nonzero(np.abs(tab[i, :art_start]) > PIVOT_TOL)[0]
                if candidates.size:
                    _pivot(tab, i, int(candidates[0]))
                    basis[i] = int(candidates[0])
                else:
                    drop.append(i)
        if drop:
            keep = [i for i in range(n_rows) if i not in drop]
            tab = tab[keep + [n_rows]]
            basis = [basis[i] for i in keep]
            n_rows = len(basis)
        allowed[art_start:] = False

    # Phase 2 bottom row: reduced costs of the real objective at the current
    # basis.
    costs = np.zeros(n_cols)
    costs[:n] = c
    tab[-1, :-1] = -costs
    tab[-1, -1] = 0.0
    for i in range(n_rows):
        if costs[basis[i]] != 0.0:
            tab[-1] += costs[basis[i]] * tab[i]
    if dump is not None:
        _dump_tableau(dump, "phase 2 start", tab, basis)
    status, entering = _run_phase(tab, basis, allowed, max_pivots, dump)

    if status == UNBOUNDED:
        ray_ext = np.zeros(n_cols)
        ray_ext[entering] = 1.0
        for i in range(n_rows):
            ray_ext[basis[i]] = -tab[i, entering]
        ray = ray_ext[:n]
        if dump is not None:
            dump.write(f"unbounded along column {entering}\n")
        return LPOutcome(status=UNBOUNDED, ray=ray)

    y = np.zeros(n_cols)
    for i in range(n_rows):
        y[basis[i]] = tab[i, -1]
    x = y[:n] + lb
    value = float(lp.objective @ x)
    _check_feasible(lp, x)
    if dump is not None:
        _dump_tableau(dump, "phase 2 end", tab, basis)
        dump.write(f"optimal value {value}\n")
    return LPOutcome(status=OPTIMAL, value=value, assignment=x)


def _check_feasible(lp: LinearProgram, x: np.ndarray):
    """Defensive post-check; a violation indicates a solver bug."""
    if (x < lp.lower_bounds - FEAS_TOL).any():
        raise RuntimeError("solver returned an assignment below a variable bound")
    lhs = lp.lhs @ x
    for i, r in enumerate(lp.relations):
        resid = lhs[i] - lp.rhs[i]
        ok = (
            resid <= FEAS_TOL
            if r == "<="
            else resid >= -FEAS_TOL
            if r == ">="
            else abs(resid) <= FEAS_TOL
        )
        if not ok:
            raise RuntimeError(f"solver returned an assignment violating row {i}")
