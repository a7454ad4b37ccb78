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

``solve(lp, basis=columns)`` starts phase 2 from a feasible basis the
caller knows, with no phase 1: one column per row, variable j as j and row
i's slack or surplus as ``n_vars + i``, in a program with only ``<=`` and
``>=`` rows. B, the basis columns of [A | slack], is inverted once, the
tableau is B^-1 [A | slack | b], and a singular B or a B^-1 b below
-``FEAS_TOL`` raises ``ValueError``; the solver never falls back to a cold
start. The slack block of the final tableau is the final B^-1 up to column
signs, and the basic values are refined once through it against ``lp``'s
rows, which removes most of the rounding of the inverse and the pivots.
The ratio test pivots only on an entry above ``PIVOT_FLOOR`` (1e-8), a
hundred times ``PIVOT_TOL``. Pivots leave rounding residue where exact
arithmetic gives 0, and on the metric oracle's dual programs it reaches
about 1e-10 (measured on tableaux chained from one solve to the next); a
pivot on such an entry multiplies the others by its inverse, past 1e18,
after which the solve stalls or fails its post-check.

Each pivot subtracts one rank-one product from the whole tableau in place
(``_pivot``), and the ratio test divides the pivot column's eligible rows
as arrays. Every nonzero entry and every ratio is the same double as in an
update that leaves the pivot row out of the product and zeroes the pivot
column by hand, with the ratios taken in a loop over the rows. Only the
sign of a zero entry may differ, and no comparison in the solver tells the
two zeros apart, so the pivot path is the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

PIVOT_TOL = 1e-10
PIVOT_FLOOR = 1e-8
FEAS_TOL = 1e-7

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

_RELATIONS = ("<=", "=", ">=")
# A row's slack column coefficient: +1 for <=, -1 (surplus) for >=, 0 for =.
_SLACK_SIGNS = {"<=": 1.0, ">=": -1.0, "=": 0.0}

__all__ = ["LinearProgram", "LPOutcome", "SolverError", "solve"]


class SolverError(RuntimeError):
    """The solver failed on a program it should solve: the pivot cap was hit,
    phase 1 came out unbounded, or an assignment failed the post-check."""


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """``max/min objective @ x`` subject to ``lhs @ x (<=|=|>=) rhs``, ``x >= lb``.

    ``slack_signs`` is derived: row i's slack coefficient, +1 for ``<=``,
    -1 for ``>=`` and 0 for ``=``.
    """

    objective: np.ndarray
    lhs: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    maximize: bool = True
    lower_bounds: np.ndarray | None = None
    slack_signs: np.ndarray = field(init=False, repr=False)

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
        try:
            signs = np.array([_SLACK_SIGNS[r] for r in rel])
        except (KeyError, TypeError):
            bad = next(r for r in rel if r not in _RELATIONS)
            raise ValueError(f"unknown relation {bad!r}") from None
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
        object.__setattr__(self, "slack_signs", signs)

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

    Every outcome carries ``pivots``, the pivots taken in phase 1 (those
    that drive a leftover artificial out included) and in phase 2. An
    optimal outcome also carries its final ``basis``, one column per row,
    numbered as ``solve``'s ``basis`` argument numbers them when every row
    is an inequality.
    """

    status: str
    value: float | None = None
    assignment: np.ndarray | None = None
    duals: np.ndarray | None = None
    basis: tuple[int, ...] | None = field(default=None, repr=False)
    pivots: tuple[int, int] = (0, 0)


def _pivot(tab: np.ndarray, row: int, col: int):
    """Pivot on ``tab[row, col]`` in place: the pivot row becomes r, itself
    scaled so that r[col] = 1, and every other row i loses tab[i, col] * r.

    The product runs over every row, the pivot row included, and r then
    overwrites that row; r[col] is exactly 1, so the pivot column comes out
    exactly 0 off the pivot row. The product is a matrix product whose inner
    dimension is one, so each entry is one rounded multiplication: every
    nonzero entry is the same double as in an update that leaves the pivot
    row out of an outer product and zeroes the column by hand, and only the
    sign of a zero entry may differ. ``np.dot`` forms it faster than
    ``np.einsum`` or ``np.multiply.outer`` on the metric oracle's tableaux.
    """
    r = tab[row] / tab[row, col]
    tab -= np.dot(tab[:, col, None], r[None])
    tab[row] = r


def _run_phase(
    tab: np.ndarray,
    basis: list[int],
    n_allowed: int,
    max_pivots: int,
    dump: IO[str] | None,
) -> tuple[str, int]:
    """Pivot the bottom row to optimality or detect an unbounded column.

    Returns OPTIMAL or UNBOUNDED and the number of pivots taken. The bottom
    row holds reduced costs for a maximization; one of the first
    ``n_allowed`` columns may enter while its reduced cost is below
    -PIVOT_TOL, and it may pivot on a row whose entry is above PIVOT_FLOOR.
    Ties in the ratio test go to the lowest basic index.
    """
    n_rows = tab.shape[0] - 1
    # Views stay current: pivots update tab in place.
    reduced = tab[-1, :n_allowed]
    rhs = tab[:n_rows, -1]
    for taken in range(max_pivots):
        eligible = reduced < -PIVOT_TOL
        col = int(eligible.argmax())  # Bland: lowest eligible index
        if not eligible[col]:
            return OPTIMAL, taken
        column = tab[:n_rows, col]
        rows = (column > PIVOT_FLOOR).nonzero()[0]
        if not rows.size:
            return UNBOUNDED, taken
        ratios = rhs[rows] / column[rows]
        best = float(ratios.min())
        ties = rows[ratios <= best + 1e-9 * (1.0 + abs(best))].tolist()
        # Bland: lowest basic index.
        row = ties[0] if len(ties) == 1 else min(ties, key=basis.__getitem__)
        _logged_pivot(tab, basis, row, col, dump)
    raise SolverError(f"simplex did not terminate within {max_pivots} pivots")


def _logged_pivot(tab: np.ndarray, basis: list[int], row: int, col: int, dump: IO[str] | None):
    """Pivot on ``tab[row, col]``, make ``col`` basic in ``row`` and write
    the pivot's ``pivot:`` line to ``dump``."""
    if dump is not None:
        dump.write(f"pivot: col {col} enters, row {row} (basic {basis[row]}) leaves\n")
    _pivot(tab, row, col)
    basis[row] = col


def solve(
    lp: LinearProgram,
    *,
    dump: IO[str] | None = None,
    basis: Sequence[int] | None = None,
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
        basis: optional feasible basis to start phase 2 from, with no
            phase 1 (module docstring): one distinct column per row,
            variable j as j and row i's slack or surplus as
            ``n_vars + i``, in a program with only ``<=`` and ``>=`` rows.
            Any other ``basis``, a singular one or one whose basic values
            B^-1 b fall below -``FEAS_TOL`` raises ``ValueError``.

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
    signs = lp.slack_signs
    c = lp.objective if lp.maximize else -lp.objective

    flip = b < 0
    if flip.any():
        a = a.copy()
        a[flip] *= -1.0
        b = np.where(flip, -b, b)
        signs = np.where(flip, -signs, signs)

    n_rows = lp.n_rows
    # Slack columns for the <= and >= rows, in row order, then artificials.
    slack_rows = signs.nonzero()[0]
    art_start = n + slack_rows.size
    slack_col = np.zeros(n_rows, dtype=np.intp)
    slack_col[slack_rows] = np.arange(n, art_start)
    # Row i's dual is dual_sign[i] times the bottom row at column dual_col[i]:
    # its slack column, or for an = row its artificial.
    sense = 1.0 if lp.maximize else -1.0
    dual_sign = np.where(flip, -sense, sense) * np.where(signs == 0.0, 1.0, signs)
    dual_col = slack_col

    art_rows = (signs <= 0.0).nonzero()[0] if basis is None else np.zeros(0, dtype=np.intp)
    n_art = art_rows.size
    n_cols = art_start + n_art
    tab = np.zeros((n_rows + 1, n_cols + 1))
    tab[:n_rows, :n] = a
    tab[:n_rows, -1] = b
    tab[slack_rows, slack_col[slack_rows]] = signs[slack_rows]
    max_pivots = 10_000 + 100 * (n_rows + n_cols)
    phase1 = 0

    if basis is None:
        art_col = np.zeros(n_rows, dtype=np.intp)
        art_col[art_rows] = np.arange(art_start, n_cols)
        tab[art_rows, art_col[art_rows]] = 1.0
        # A <= row starts on its slack; every other row on its artificial.
        basis = np.where(signs > 0.0, slack_col, art_col).tolist()
        dual_col = np.where(signs == 0.0, art_col, slack_col)
        # Phase 1: maximize minus the artificial sum, starting from the
        # all-artificial basis. The bottom row starts at minus the costs
        # (-0 on the real and slack columns) and takes away each row whose
        # artificial is basic, in row order (subtract.reduce folds left).
        if n_art:
            tab[-1, :art_start] = -0.0
            tab[-1, art_start:-1] = 1.0
            tab[-1] = np.subtract.reduce(tab[[n_rows] + art_rows.tolist()], axis=0)
            status, phase1 = _run_phase(tab, basis, n_cols, max_pivots, dump)
            if status != OPTIMAL:
                raise SolverError("phase 1 is bounded by construction")
            if tab[-1, -1] < -FEAS_TOL:
                return LPOutcome(status=INFEASIBLE, pivots=(phase1, 0))
            # Drive leftover artificials out of the basis; rows that cannot
            # pivot are redundant and dropped.
            drop: list[int] = []
            for i in range(n_rows):
                if basis[i] >= art_start:
                    candidates = np.nonzero(np.abs(tab[i, :art_start]) > PIVOT_TOL)[0]
                    if candidates.size:
                        _logged_pivot(tab, basis, i, int(candidates[0]), dump)
                        phase1 += 1
                    else:
                        drop.append(i)
            if drop:
                keep = [i for i in range(n_rows) if i not in drop]
                tab = tab[keep + [n_rows]]
                basis = [basis[i] for i in keep]
                n_rows = len(basis)
        refine = False
    else:
        basis = _basis_tableau(tab, basis, lp)
        refine = True

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
    status, phase2 = _run_phase(tab, basis, art_start, max_pivots, dump)
    if status == UNBOUNDED:
        return LPOutcome(status=UNBOUNDED, pivots=(phase1, phase2))

    values = tab[:n_rows, -1]
    if refine:
        values = _refined(values, basis, a, b, signs, tab[:n_rows, n:art_start])
    y = np.zeros(n_cols)
    y[basis] = values
    x = y[:n] + lb
    value = float(lp.objective @ x)
    _check_feasible(lp, x)
    duals = dual_sign * tab[-1, dual_col]
    return LPOutcome(
        status=OPTIMAL,
        value=value,
        assignment=x,
        duals=duals,
        basis=tuple(basis),
        pivots=(phase1, phase2),
    )


def _basis_tableau(tab: np.ndarray, basis: Sequence[int], lp: LinearProgram) -> list[int]:
    """Turn ``tab``, holding [A | slack | b] above its bottom row, into
    B^-1 [A | slack | b] for the columns ``basis``; return them as a list.

    Raises ``ValueError`` unless every row is an inequality, ``basis``
    names one distinct column of [A | slack] per row, B is nonsingular
    (B^-1 B is the identity within 1e-9) and B^-1 b >= -``FEAS_TOL``.
    """
    n_rows = tab.shape[0] - 1
    cols = [int(j) for j in basis]
    if "=" in lp.relations:
        raise ValueError("a starting basis needs a program with only <= and >= rows")
    if len(cols) != n_rows or len(set(cols)) != n_rows:
        raise ValueError(f"a starting basis needs {n_rows} distinct columns, got {len(cols)}")
    if not all(0 <= j < tab.shape[1] - 1 for j in cols):
        raise ValueError("a starting basis names a column outside the program")
    body = tab[:n_rows]
    try:
        inverse = np.linalg.inv(body[:, cols])
    except np.linalg.LinAlgError:
        raise ValueError("the starting basis is singular") from None
    body[:] = inverse @ body
    if np.abs(body[:, cols] - np.eye(n_rows)).max() > 1e-9:
        raise ValueError("the starting basis is singular")
    body[:, cols] = np.eye(n_rows)
    if (body[:, -1] < -FEAS_TOL).any():
        raise ValueError("the starting basis is infeasible: B^-1 b has a negative entry")
    return cols


def _refined(
    values: np.ndarray, basis: list[int], a: np.ndarray, b: np.ndarray,
    signs: np.ndarray, slack_block: np.ndarray,
) -> np.ndarray:
    """The basic values after one step of iterative refinement: a tableau
    computed through an inverse carries its rounding and that of every pivot
    since, and the residual of B x_B = b on the rows (row i's slack at
    column n + i), mapped back through the slack block, removes most of it."""
    n = a.shape[1]
    cols = np.array(basis)
    real = cols < n
    slack = ~real
    resid = b - a[:, cols[real]] @ values[real]
    rows = cols[slack] - n
    resid[rows] -= signs[rows] * values[slack]
    return values + slack_block @ (signs * resid)


def _check_feasible(lp: LinearProgram, x: np.ndarray):
    """Defensive post-check; a violation indicates a solver bug."""
    if (x < lp.lower_bounds - FEAS_TOL).any():
        raise SolverError("solver returned an assignment below a variable bound")
    resid = lp.lhs @ x - lp.rhs
    # How far each row lies beyond its rhs: above it for <=, below it for
    # >=, on either side for = (sign 0).
    signs = lp.slack_signs
    ok = np.where(signs == 0.0, np.abs(resid), signs * resid) <= FEAS_TOL
    if not ok.all():
        raise SolverError(f"solver returned an assignment violating row {int(ok.argmin())}")
