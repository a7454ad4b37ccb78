"""Deterministic dense linear programming via two-phase tableau simplex.

The solver favors reproducibility over speed: Bland's anti-cycling rule picks
the lowest-eligible entering column and breaks ratio-test ties by the lowest
basic variable index, so identical inputs always take the identical pivot
path. Unboundedness is a first-class outcome, but the worst-case oracles do
not read it as a distortion signal: closure and support tests decide
unbounded distortion before any program is built, and the metric oracle
raises :class:`SolverError` for a program that is not optimal after that.

All variables are bounded below (default 0); rows compare ``<=``, ``=`` or
``>=`` against the right-hand side. An optimal outcome also carries the row
duals, read off the final tableau, so a caller that solves the dual of its
program gets the primal solution too (the metric oracle does).

``solve(lp, start=outcome)`` starts from the final basis B of an optimal
outcome whose program differs from ``lp`` only in the last ``lhs`` column,
both with only inequality rows. The slack block of the final tableau is
B^-1 up to column signs, which gives the new column; the old one stays as
the one artificial, which phase 1 drives to 0. The basic values are then
refined once against ``lp``'s rows. A warm tableau carries the rounding of
every pivot since its chain's cold solve, so a caller that solves many
programs near one base starts each from the base's cold outcome, not from
the previous warm one: the metric oracle starts every candidate from
candidate 0's. The ratio test pivots only on an entry above
``PIVOT_FLOOR`` (1e-8), a hundred times ``PIVOT_TOL``: on a warm tableau a
pivot on rounding residue of about 1e-10 grows the entries to 1e18 and
beyond, and the solve then stalls or finds phase 1 unbounded. In a warm
phase 1 the one artificial leaves as soon as its row ties in the ratio
test, which ends the phase; Bland's lowest-index rule would keep it
basic, at a value that is only rounding residue, through thousands of
pivots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

import numpy as np

PIVOT_TOL = 1e-10
PIVOT_FLOOR = 1e-8
FEAS_TOL = 1e-7

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

_RELATIONS = ("<=", "=", ">=")
_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}

__all__ = ["LinearProgram", "LPOutcome", "SolverError", "solve"]


class SolverError(RuntimeError):
    """The solver failed on a program it should solve: the pivot cap was hit,
    phase 1 came out unbounded, or an assignment failed the post-check."""


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

    ``optimal``: value, a feasible assignment (within 1e-7) and ``duals``,
    one per row, an optimal solution of the dual program. For a
    maximization y >= 0 on ``<=`` rows, y <= 0 on ``>=`` rows and
    y @ lhs >= objective; for a minimization all three are reversed; ``=``
    rows are free. With zero lower bounds b @ y = value. So for
    max{c @ x : A x <= b, x >= 0} they are the y >= 0 with y @ A >= c and
    b @ y = value, and for min{c @ x : A x >= b, x >= 0} the y >= 0 with
    y @ A <= c and b @ y = value.
    ``unbounded`` and ``infeasible``: nothing else.

    An optimal outcome also keeps the ``program``, final ``tableau`` and
    ``basis`` (one column per row) that a warm start reads.
    """

    status: str
    value: float | None = None
    assignment: np.ndarray | None = None
    duals: np.ndarray | None = None
    program: LinearProgram | None = field(default=None, repr=False)
    tableau: np.ndarray | None = field(default=None, repr=False)
    basis: tuple[int, ...] | None = field(default=None, repr=False)


def _pivot(tab: np.ndarray, row: int, col: int):
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.multiply.outer(factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0


def _run_phase(
    tab: np.ndarray,
    basis: list[int],
    n_allowed: int,
    max_pivots: int,
    dump: IO[str] | None,
    first_out: int | None = None,
) -> str:
    """Pivot the bottom row to optimality or detect an unbounded column.

    Returns OPTIMAL or UNBOUNDED. The bottom row holds reduced costs for a
    maximization; one of the first ``n_allowed`` columns may enter while its
    reduced cost is below -PIVOT_TOL, and it may pivot on a row whose entry
    is above PIVOT_FLOOR. Ties in the ratio test go to the lowest basic
    index, except that the basic column ``first_out`` leaves whenever its
    row ties.
    """
    n_rows = tab.shape[0] - 1
    # Views stay current: pivots update tab in place.
    reduced = tab[-1, :n_allowed]
    rhs = tab[:n_rows, -1]
    for _ in range(max_pivots):
        eligible = reduced < -PIVOT_TOL
        col = int(eligible.argmax())  # Bland: lowest eligible index
        if not eligible[col]:
            return OPTIMAL
        # The ratio test runs on Python floats: on the small tableaux that
        # dominate, per-call numpy overhead costs more than the arithmetic.
        ratios = [
            (r / a, i)
            for i, (a, r) in enumerate(zip(tab[:n_rows, col].tolist(), rhs.tolist()))
            if a > PIVOT_FLOOR
        ]
        if not ratios:
            return UNBOUNDED
        best = min(ratios)[0]
        cut = best + 1e-9 * (1.0 + abs(best))
        ties = [i for q, i in ratios if q <= cut]
        if len(ties) == 1:
            row = ties[0]
        else:
            # Bland: lowest basic index, after first_out.
            row = min(ties, key=lambda i: (basis[i] != first_out, basis[i]))
        if dump is not None:
            dump.write(f"pivot: col {col} enters, row {row} (basic {basis[row]}) leaves\n")
        _pivot(tab, row, col)
        basis[row] = col
    raise SolverError(f"simplex did not terminate within {max_pivots} pivots")


def solve(
    lp: LinearProgram,
    *,
    dump: IO[str] | None = None,
    start: LPOutcome | None = None,
) -> LPOutcome:
    """Solve an LP with the two-phase tableau simplex method.

    Reduced costs and entries with magnitude at most ``PIVOT_TOL`` count as
    zero for pivoting decisions, and the ratio test also skips entries at
    most ``PIVOT_FLOOR``. Each phase is capped at
    10_000 + 100 * (rows + columns) pivots; Bland's rule guarantees finite termination, so hitting the cap
    raises :class:`SolverError`, as does a failed post-check.

    Args:
        lp: the program to solve.
        dump: optional text stream receiving the pivot log: one ``pivot:``
            line per pivot, with a ``--- phase 2 start`` line before phase 2.
        start: optional optimal outcome of a program that differs from
            ``lp`` only in the last ``lhs`` column, with only ``<=`` and
            ``>=`` rows and a zero lower bound on the last variable; the
            solve starts from its final basis. Any other ``start`` raises
            ``ValueError``.

    Returns:
        An :class:`LPOutcome`. Optimal assignments satisfy every constraint
        within 1e-7 and the reported value equals the recomputed objective.
        Optimal outcomes carry ``duals``, one per row: the final bottom row
        at each row's slack column (``<=``), surplus column (``>=``, negated)
        or artificial column (``=``), with the sign of any row flipped for a
        negative right-hand side undone. A row dropped as redundant in
        phase 1 gets 0.
    """
    n = lp.n_vars
    lb = lp.lower_bounds
    # Shift to y = x - lb >= 0.
    a = lp.lhs
    b = lp.rhs - a @ lb
    rel = list(lp.relations)
    c = lp.objective if lp.maximize else -lp.objective

    flip = b < 0
    if flip.any():
        a = a.copy()
        a[flip] *= -1.0
        b = np.where(flip, -b, b)
        rel = [_FLIPPED[r] if f else r for r, f in zip(rel, flip)]

    n_rows = len(rel)
    slack_rows = [i for i, r in enumerate(rel) if r in ("<=", ">=")]
    art_rows = [i for i, r in enumerate(rel) if r in (">=", "=")]
    n_slack = len(slack_rows)
    art_start = n + n_slack
    # Row i's dual is dual_sign[i] times the bottom row at column dual_col[i].
    sense = 1.0 if lp.maximize else -1.0
    dual_col = [0] * n_rows
    dual_sign = [-sense if f else sense for f in flip.tolist()]
    slack_sign = [0.0] * n_rows
    for k, i in enumerate(slack_rows):
        slack_sign[i] = 1.0 if rel[i] == "<=" else -1.0
        dual_col[i] = n + k
        dual_sign[i] *= slack_sign[i]

    if start is None:
        n_art = len(art_rows)
        n_cols = n + n_slack + n_art
        tab = np.zeros((n_rows + 1, n_cols + 1))
        tab[:n_rows, :n] = a
        tab[:n_rows, -1] = b
        basis = [-1] * n_rows
        for k, i in enumerate(slack_rows):
            tab[i, n + k] = slack_sign[i]
            if slack_sign[i] > 0:
                basis[i] = n + k
        for k, i in enumerate(art_rows):
            tab[i, art_start + k] = 1.0
            basis[i] = art_start + k
            if rel[i] == "=":
                dual_col[i] = art_start + k
    else:
        _check_start(lp, start)
        # Every row is an inequality, so column n + i is row i's slack and
        # holds slack_sign[i] * B^-1 e_i. The old last column moves to
        # art_start, the one artificial, and keeps its place in the basis.
        prev = start.tableau
        n_art = 1
        n_cols = art_start + 1
        tab = np.zeros((n_rows + 1, n_cols + 1))
        tab[:n_rows, :art_start] = prev[:n_rows, :art_start]
        tab[:n_rows, art_start] = prev[:n_rows, n - 1]
        tab[:n_rows, -1] = prev[:n_rows, -1]
        tab[:n_rows, n - 1] = prev[:n_rows, n:art_start] @ (np.array(slack_sign) * a[:, -1])
        basis = [art_start if j == n - 1 else j for j in start.basis]
        art_rows = [i for i, j in enumerate(basis) if j == art_start]

    max_pivots = 10_000 + 100 * (n_rows + n_cols)

    if n_art:
        # Phase 1: maximize minus the artificial sum, starting from a
        # feasible basis (the all-artificial one, or the start's). The bottom
        # row starts at minus the costs (-0 on the real and slack columns)
        # and takes away each row whose artificial is basic, in row order
        # (subtract.reduce folds left).
        tab[-1, :art_start] = -0.0
        tab[-1, art_start:-1] = 1.0
        tab[-1] = np.subtract.reduce(tab[[n_rows] + art_rows], axis=0)
        # A warm start's one artificial leaves as soon as it ties (module
        # docstring); once it has left, phase 1 is optimal.
        first_out = None if start is None else art_start
        if _run_phase(tab, basis, n_cols, max_pivots, dump, first_out) != OPTIMAL:
            raise SolverError("phase 1 is bounded by construction")
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

    # Phase 2 bottom row: reduced costs of the real objective at the current
    # basis, starting from minus the costs (-0 off the real columns).
    tab[-1, :-1] = -0.0
    tab[-1, :n] = -c
    tab[-1, -1] = 0.0
    costs = c.tolist()
    for i, j in enumerate(basis):
        if j < n and costs[j] != 0.0:
            tab[-1] += costs[j] * tab[i]
    if dump is not None:
        dump.write("--- phase 2 start\n")
    if _run_phase(tab, basis, art_start, max_pivots, dump) == UNBOUNDED:
        return LPOutcome(status=UNBOUNDED)

    values = tab[:n_rows, -1]
    if start is not None:
        values = _refined(values, basis, a, b, np.array(slack_sign), tab[:n_rows, n:art_start])
    y = np.zeros(n_cols)
    y[basis] = values
    x = y[:n] + lb
    value = float(lp.objective @ x)
    _check_feasible(lp, x)
    duals = np.array(dual_sign) * tab[-1, dual_col]
    return LPOutcome(
        status=OPTIMAL,
        value=value,
        assignment=x,
        duals=duals,
        program=lp,
        tableau=tab,
        basis=tuple(basis),
    )


def _refined(
    values: np.ndarray, basis: list[int], a: np.ndarray, b: np.ndarray,
    slack_sign: np.ndarray, slack_block: np.ndarray,
) -> np.ndarray:
    """The basic values after one step of iterative refinement: a warm
    tableau carries the rounding of every pivot since its chain's cold
    solve, and the residual of B x_B = b on the rows (row i's slack at
    column n + i), mapped back through the slack block, removes most of it."""
    n = a.shape[1]
    cols = np.array(basis)
    real = cols < n
    resid = b - a[:, cols[real]] @ values[real]
    rows = cols[~real] - n
    resid[rows] -= slack_sign[rows] * values[~real]
    return values + slack_block @ (slack_sign * resid)


def _check_start(lp: LinearProgram, start: LPOutcome):
    """Raise ``ValueError`` unless ``solve(lp, start=start)`` may warm-start."""
    if start.status != OPTIMAL or start.tableau is None:
        raise ValueError("a warm start must be an optimal outcome of solve")
    if "=" in lp.relations:
        raise ValueError("a warm start needs a program with only <= and >= rows")
    old = start.program
    if not (
        old.lhs.shape == lp.lhs.shape
        and old.relations == lp.relations
        and old.maximize == lp.maximize
        and np.array_equal(old.objective, lp.objective)
        and np.array_equal(old.rhs, lp.rhs)
        and np.array_equal(old.lower_bounds, lp.lower_bounds)
        and np.array_equal(old.lhs[:, :-1], lp.lhs[:, :-1])
    ):
        raise ValueError("a warm start must solve a program that differs only in the last lhs column")
    if lp.lower_bounds[-1] != 0.0:
        raise ValueError("a warm start needs a zero lower bound on the last variable")


def _check_feasible(lp: LinearProgram, x: np.ndarray):
    """Defensive post-check; a violation indicates a solver bug."""
    if (x < lp.lower_bounds - FEAS_TOL).any():
        raise SolverError("solver returned an assignment below a variable bound")
    residuals = (lp.lhs @ x - lp.rhs).tolist()
    for i, (r, resid) in enumerate(zip(lp.relations, residuals)):
        ok = (
            resid <= FEAS_TOL
            if r == "<="
            else resid >= -FEAS_TOL
            if r == ">="
            else abs(resid) <= FEAS_TOL
        )
        if not ok:
            raise SolverError(f"solver returned an assignment violating row {i}")
