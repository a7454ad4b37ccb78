"""Unit tests for the two-phase simplex solver."""

import dataclasses
import io

import numpy as np
import pytest

from distortion_lab import LinearProgram, solve
from distortion_lab import lp as lp_mod
from distortion_lab.lp import INFEASIBLE, OPTIMAL, UNBOUNDED

scipy_linprog = pytest.importorskip("scipy.optimize").linprog


def _lp(objective, lhs, relations, rhs, **kw):
    objective = np.atleast_1d(np.asarray(objective, dtype=float))
    lhs = np.asarray(lhs, dtype=float).reshape(len(relations), objective.size)
    return LinearProgram(
        objective=objective,
        lhs=lhs,
        relations=tuple(relations),
        rhs=np.asarray(rhs, dtype=float),
        **kw,
    )


class TestBasics:
    def test_single_upper_bound(self):
        out = solve(_lp([1.0], [[1.0]], ("<=",), [3.0]))
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(3.0)
        assert out.assignment[0] == pytest.approx(3.0)

    def test_unbounded_no_ceiling(self):
        out = solve(_lp([1.0], np.empty((0, 1)), (), []))
        assert out.status == UNBOUNDED

    def test_infeasible_contradiction(self):
        out = solve(_lp([1.0], [[1.0]], ("<=",), [-1.0]))
        assert out.status == INFEASIBLE

    def test_minimization(self):
        out = solve(
            _lp([2.0, 1.0], [[1.0, 1.0]], (">=",), [4.0], maximize=False)
        )
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(4.0)
        assert out.assignment.tolist() == pytest.approx([0.0, 4.0])

    def test_equality_rows(self):
        out = solve(
            _lp([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], ("=", "="), [2.0, 0.0])
        )
        assert out.status == OPTIMAL
        assert out.assignment.tolist() == pytest.approx([1.0, 1.0])

    def test_lower_bounds_shift(self):
        out = solve(
            _lp(
                [-1.0],
                [[1.0]],
                ("<=",),
                [5.0],
                lower_bounds=np.array([2.0]),
            )
        )
        assert out.status == OPTIMAL
        assert out.assignment[0] == pytest.approx(2.0)
        assert out.value == pytest.approx(-2.0)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(
                objective=np.array([1.0, 2.0]),
                lhs=[[1.0, 2.0], [1.0]],
                relations=("<=", "<="),
                rhs=np.array([1.0, 1.0]),
            )

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            _lp([np.inf], [[1.0]], ("<=",), [1.0])


class TestAgainstScipy:
    def test_random_mixed_relation_lps(self):
        agree = 0
        for case in range(60):
            rng = np.random.default_rng(900 + case)
            nv = int(rng.integers(2, 6))
            nr = int(rng.integers(2, 6))
            lhs = rng.uniform(-1.0, 1.0, size=(nr, nv))
            rhs = rng.uniform(0.2, 2.0, size=nr)
            rel = tuple(rng.choice(["<=", ">=", "="]) for _ in range(nr))
            # keep >= and = rows satisfiable at small x by flipping signs
            objective = rng.uniform(-1.0, 1.0, size=nv)
            lp = _lp(objective, lhs, rel, rhs)
            out = solve(lp)

            a_ub, b_ub, a_eq, b_eq = [], [], [], []
            for row, r, b in zip(lhs, rel, rhs):
                if r == "<=":
                    a_ub.append(row)
                    b_ub.append(b)
                elif r == ">=":
                    a_ub.append(-row)
                    b_ub.append(-b)
                else:
                    a_eq.append(row)
                    b_eq.append(b)
            ref = scipy_linprog(
                -objective,
                A_ub=np.array(a_ub) if a_ub else None,
                b_ub=np.array(b_ub) if b_ub else None,
                A_eq=np.array(a_eq) if a_eq else None,
                b_eq=np.array(b_eq) if b_eq else None,
                bounds=[(0, None)] * nv,
                method="highs",
            )
            if ref.status == 2:
                assert out.status == INFEASIBLE, case
            elif ref.status == 3:
                assert out.status == UNBOUNDED, case
            else:
                assert out.status == OPTIMAL, (case, out.status)
                assert out.value == pytest.approx(-ref.fun, abs=1e-7), case
                agree += 1
        assert agree >= 10  # the sampler must exercise the optimal branch


class TestDegenerateAndRedundant:
    def test_redundant_equality_rows(self):
        # The same equality twice: phase 1 must drop or drive out the artificial.
        out = solve(
            _lp(
                [1.0, 0.0],
                [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]],
                ("=", "=", "<="),
                [2.0, 2.0, 1.5],
            )
        )
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(1.5)

    def test_degenerate_vertex_terminates(self):
        # Many constraints intersecting at one vertex: Bland's rule must not cycle.
        lhs = [
            [1.0, 1.0],
            [1.0, 0.5],
            [0.5, 1.0],
            [1.0, 0.0],
            [0.0, 1.0],
        ]
        out = solve(_lp([1.0, 1.0], lhs, ("<=",) * 5, [1.0, 1.0, 1.0, 1.0, 1.0]))
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(1.0)

    def test_dump_stream_written(self):
        buf = io.StringIO()
        out = solve(_lp([1.0], [[1.0]], ("<=",), [3.0]), dump=buf)
        assert out.status == OPTIMAL
        assert "pivot" in buf.getvalue() or "tableau" in buf.getvalue()


class TestSolverError:
    """Solver faults raise the typed ``SolverError``, a ``RuntimeError``."""

    def test_is_a_runtime_error(self):
        assert issubclass(lp_mod.SolverError, RuntimeError)

    def test_pivot_cap(self):
        # max x s.t. x <= 3 from the slack basis needs one pivot; allow none.
        tab = np.array([[1.0, 1.0, 3.0], [-1.0, 0.0, 0.0]])
        with pytest.raises(lp_mod.SolverError, match="did not terminate"):
            lp_mod._run_phase(tab, [1], 2, 0, None)

    def test_post_check(self):
        program = _lp([1.0], [[1.0]], ("<=",), [3.0])
        with pytest.raises(lp_mod.SolverError, match="violating row 0"):
            lp_mod._check_feasible(program, np.array([5.0]))


def _dual_case(case: int, relations=("<=", ">=", "="), seed: int = 7_100):
    """A seeded feasible, bounded LP with rows drawn from ``relations``.

    The rows pass through a random point x0 >= 0 (some coordinates 0), with
    slack on the inequalities, so many right-hand sides are negative and get
    flipped. A last row bounds sum(x) by 10, as a <= row or, on odd cases,
    as -sum(x) >= -10 (a flipped >= row).
    """
    rng = np.random.default_rng(seed + case)
    nv, nr = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    lhs = rng.uniform(-1.0, 1.0, size=(nr, nv))
    rel = [str(r) for r in rng.choice(list(relations), size=nr)]
    x0 = rng.uniform(0.0, 1.0, size=nv) * (rng.random(nv) < 0.7)
    slack = rng.uniform(0.0, 1.0, size=nr)
    sign = np.array([{"<=": 1.0, ">=": -1.0, "=": 0.0}[r] for r in rel])
    rhs = lhs @ x0 + sign * slack
    bound = np.ones(nv) if case % 2 == 0 else -np.ones(nv)
    lhs = np.vstack([lhs, bound])
    rel.append("<=" if case % 2 == 0 else ">=")
    rhs = np.append(rhs, 10.0 if case % 2 == 0 else -10.0)
    objective = rng.uniform(-1.0, 1.0, size=nv)
    return _lp(objective, lhs, rel, rhs, maximize=bool(case % 4 < 2))


def _dual_problems(lp: LinearProgram, out) -> list[str]:
    """Dual feasibility, complementary slackness and b @ y = value."""
    a, b, c = lp.lhs, lp.rhs, lp.objective
    x, y = out.assignment, out.duals
    sense = 1.0 if lp.maximize else -1.0
    rel = np.array(lp.relations)
    problems = []
    # For a maximization y >= 0 on <= rows, y <= 0 on >= rows, y @ A >= c.
    if (sense * y[rel == "<="] < -1e-7).any() or (sense * y[rel == ">="] > 1e-7).any():
        problems.append("a dual has the wrong sign")
    reduced = sense * (y @ a - c)
    if (reduced < -1e-7).any():
        problems.append("y @ A violates the objective")
    if (np.abs(y * (a @ x - b)) > 1e-7).any():
        problems.append("a slack row has a nonzero dual")
    if (np.abs(x * reduced) > 1e-7).any():
        problems.append("a positive variable has a nonzero reduced cost")
    if abs(b @ y - out.value) > 1e-6 * max(1.0, abs(out.value)):
        problems.append(f"b @ y = {b @ y} but the value is {out.value}")
    return problems


class TestDuals:
    def test_seeded_random_lps(self):
        failures, flipped, senses = [], 0, set()
        for case in range(200):
            lp = _dual_case(case)
            out = solve(lp)
            assert out.status == OPTIMAL, case
            assert out.duals.shape == (lp.n_rows,)
            flipped += int((lp.rhs < 0).sum())
            senses.add(lp.maximize)
            failures += [(case, p) for p in _dual_problems(lp, out)]
        assert failures == []
        # The sampler must exercise flipped rows and both senses.
        assert flipped >= 200 and senses == {True, False}

    def test_covers_every_relation_with_nonzero_duals(self):
        active = {"<=": 0, ">=": 0, "=": 0}
        for case in range(200):
            lp = _dual_case(case)
            out = solve(lp)
            for r, y in zip(lp.relations, out.duals):
                active[r] += abs(y) > 1e-6
        assert min(active.values()) >= 20, active

    def test_textbook_max(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18: y = (0, 3/2, 1).
        out = solve(
            _lp([3.0, 5.0], [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]], ("<=",) * 3, [4.0, 12.0, 18.0])
        )
        assert out.value == pytest.approx(36.0)
        assert out.duals.tolist() == pytest.approx([0.0, 1.5, 1.0])

    def test_min_with_ge_rows_has_nonnegative_duals(self):
        # min 2x + y s.t. x + y >= 4, x >= 1: y = (1, 1), b @ y = 5.
        out = solve(
            _lp([2.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], (">=", ">="), [4.0, 1.0], maximize=False)
        )
        assert out.value == pytest.approx(5.0)
        assert out.duals.tolist() == pytest.approx([1.0, 1.0])

    def test_redundant_equality_rows(self):
        lp = _lp(
            [1.0, 0.0],
            [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]],
            ("=", "=", "<="),
            [2.0, 2.0, 1.5],
        )
        out = solve(lp)
        assert out.status == OPTIMAL
        assert _dual_problems(lp, out) == []

    def test_only_optimal_outcomes_carry_duals(self):
        assert solve(_lp([1.0], np.empty((0, 1)), (), [])).duals is None
        assert solve(_lp([1.0], [[1.0]], ("<=",), [-1.0])).duals is None


def _redrawn(lp: LinearProgram, seed: int) -> LinearProgram:
    """``lp`` with its last column redrawn, except on the sum(x) bound row."""
    lhs = lp.lhs.copy()
    lhs[:-1, -1] = np.random.default_rng(seed).uniform(-1.0, 1.0, size=lp.n_rows - 1)
    return dataclasses.replace(lp, lhs=lhs)


class TestWarmStart:
    """``solve(..., start=)`` from the optimal basis of a program that differs
    only in the last column, against a cold solve."""

    def test_matches_cold_solve(self):
        optimal, statuses, flipped, senses, failures = 0, set(), 0, set(), []
        for case in range(200):
            lp = _dual_case(case, relations=("<=", ">="), seed=8_300)
            out = solve(lp)
            assert out.status == OPTIMAL, case
            flipped += int((lp.rhs < 0).sum())
            senses.add(lp.maximize)
            # A chain of two: the second solve starts from a warm outcome.
            for k in range(2):
                lp = _redrawn(lp, 9_100 + 2 * case + k)
                warm, cold = solve(lp, start=out), solve(lp)
                statuses.add(cold.status)
                if warm.status != cold.status:
                    failures.append((case, k, warm.status, cold.status))
                    break
                if cold.status != OPTIMAL:
                    break
                optimal += 1
                if abs(warm.value - cold.value) > 1e-9 * max(1.0, abs(cold.value)):
                    failures.append((case, k, warm.value, cold.value))
                failures += [(case, k, p) for p in _dual_problems(lp, warm)]
                out = warm
        assert failures == []
        # The sampler must reach the optimal branch often, another status at
        # least once, flipped rows and both senses.
        assert optimal >= 300 and len(statuses) >= 2, (optimal, statuses)
        assert flipped >= 100 and senses == {True, False}

    def test_dump_stream_written(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 ends at (2, 6);
        # with y's column (0, 2, 6) the optimum is (4, 1), so the old y must
        # leave the basis in phase 1.
        rel = ("<=",) * 3
        start = solve(_lp([3.0, 5.0], [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]], rel, [4.0, 12.0, 18.0]))
        buf = io.StringIO()
        out = solve(
            _lp([3.0, 5.0], [[1.0, 0.0], [0.0, 2.0], [3.0, 6.0]], rel, [4.0, 12.0, 18.0]),
            dump=buf,
            start=start,
        )
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(17.0)
        text = buf.getvalue()
        phase1, marker, phase2 = text.partition("--- phase 2 start")
        assert marker and "pivot:" in phase1
        assert text.count("pivot:") == phase1.count("pivot:") + phase2.count("pivot:")

    def test_rejected_starts(self):
        rel = ("<=", ">=")
        lp = _lp([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], rel, [4.0, -1.0])
        start = solve(lp)
        assert start.status == OPTIMAL
        redrawn = _lp([1.0, 1.0], [[1.0, 2.0], [1.0, 0.5]], rel, [4.0, -1.0])
        assert solve(redrawn, start=start).status == OPTIMAL
        # Another first column, or another right-hand side.
        for other in (
            _lp([1.0, 1.0], [[2.0, 2.0], [1.0, 0.5]], rel, [4.0, -1.0]),
            _lp([1.0, 1.0], [[1.0, 2.0], [1.0, 0.5]], rel, [5.0, -1.0]),
        ):
            with pytest.raises(ValueError, match="differs only in the last"):
                solve(other, start=start)
        # A program with = rows.
        eq = _lp([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], ("<=", "="), [4.0, 0.0])
        eq_start = solve(eq)
        assert eq_start.status == OPTIMAL
        with pytest.raises(ValueError, match="only <= and >= rows"):
            solve(_lp([1.0, 1.0], [[1.0, 2.0], [1.0, -2.0]], ("<=", "="), [4.0, 0.0]), start=eq_start)
        # A start that is not optimal.
        unbounded = solve(_lp([1.0, 1.0], [[1.0, -1.0]], ("<=",), [1.0]))
        assert unbounded.status == UNBOUNDED
        with pytest.raises(ValueError, match="optimal outcome"):
            solve(_lp([1.0, 1.0], [[1.0, 1.0]], ("<=",), [1.0]), start=unbounded)
