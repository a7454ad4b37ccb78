"""Unit tests for the two-phase simplex solver."""

import dataclasses
import io

import numpy as np
import pytest

import distortion_lab as dl
from distortion_lab import LinearProgram, solve
from distortion_lab import lp as lp_mod
from distortion_lab import oracles as oracles_mod
from distortion_lab.lp import INFEASIBLE, OPTIMAL, UNBOUNDED
from reference_oracles import reference_pivot, reference_run_phase

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


def _mixed_case(case: int) -> LinearProgram:
    """A seeded maximization with random rows of every relation: some are
    infeasible, some unbounded."""
    rng = np.random.default_rng(900 + case)
    nv = int(rng.integers(2, 6))
    nr = int(rng.integers(2, 6))
    lhs = rng.uniform(-1.0, 1.0, size=(nr, nv))
    rhs = rng.uniform(0.2, 2.0, size=nr)
    rel = tuple(rng.choice(["<=", ">=", "="]) for _ in range(nr))
    objective = rng.uniform(-1.0, 1.0, size=nv)
    return _lp(objective, lhs, rel, rhs)


class TestAgainstScipy:
    def test_random_mixed_relation_lps(self):
        agree = 0
        for case in range(60):
            lp = _mixed_case(case)
            lhs, rhs, rel, objective = lp.lhs, lp.rhs, lp.relations, lp.objective
            nv = lp.n_vars
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


def _feasible_basis(lp: LinearProgram, seed: int):
    """A feasible basis of ``lp``'s rows, as ``solve``'s ``basis`` numbers
    columns: the final basis of a cold solve of the same rows under a
    random objective, or None if that solve is not optimal."""
    objective = np.random.default_rng(seed).uniform(-1.0, 1.0, size=lp.n_vars)
    out = solve(dataclasses.replace(lp, objective=objective))
    return out.basis if out.status == OPTIMAL else None


class TestWarmStart:
    """``solve(..., basis=)`` from a feasible basis, with no phase 1,
    against a cold solve."""

    def test_matches_cold_solve(self):
        optimal, statuses, flipped, senses, failures = 0, set(), 0, set(), []
        for case in range(200):
            lp = _dual_case(case, relations=("<=", ">="), seed=8_300)
            flipped += int((lp.rhs < 0).sum())
            senses.add(lp.maximize)
            # The program and two redrawn twins, each from the final basis of
            # its rows under another objective.
            for k in range(3):
                if k:
                    lp = _redrawn(lp, 9_100 + 2 * case + k - 1)
                basis, cold = _feasible_basis(lp, 9_500 + 3 * case + k), solve(lp)
                statuses.add(cold.status)
                if (basis is None) != (cold.status != OPTIMAL):
                    failures.append((case, k, basis, cold.status))
                if basis is None:
                    continue
                warm = solve(lp, basis=basis)
                optimal += 1
                if warm.status != OPTIMAL or warm.pivots[0] != 0:
                    failures.append((case, k, warm.status, warm.pivots))
                    continue
                if abs(warm.value - cold.value) > 1e-9 * max(1.0, abs(cold.value)):
                    failures.append((case, k, warm.value, cold.value))
                failures += [(case, k, p) for p in _dual_problems(lp, warm)]
        assert failures == []
        # The sampler must reach the optimal branch often, another status at
        # least once, flipped rows and both senses.
        assert optimal >= 300 and len(statuses) >= 2, (optimal, statuses)
        assert flipped >= 100 and senses == {True, False}

    def test_dump_stream_written(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 6y <= 18, from y and the
        # first two slacks (y = 3, value 15): x enters, and the optimum is
        # (4, 1), value 17.
        program = _lp([3.0, 5.0], [[1.0, 0.0], [0.0, 2.0], [3.0, 6.0]], ("<=",) * 3, [4.0, 12.0, 18.0])
        buf = io.StringIO()
        out = solve(program, dump=buf, basis=(1, 2, 3))
        assert out.status == OPTIMAL and out.value == pytest.approx(17.0)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "--- phase 2 start" and out.pivots == (0, len(lines) - 1) != (0, 0)
        assert all(line.startswith("pivot:") for line in lines[1:])

    def test_rejected_starts(self):
        # x + y <= 4 and x - y >= -1: columns x, y, then the two rows' slacks.
        lp = _lp([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], ("<=", ">="), [4.0, -1.0])
        for basis in ((0, 3), (1, 2)):
            assert solve(lp, basis=basis).value == pytest.approx(4.0)
        for basis, message in [
            ((0,), "2 distinct columns"),
            ((0, 0), "2 distinct columns"),
            ((0, 4), "outside the program"),
            ((0, 2), "infeasible"),  # x = -1
        ]:
            with pytest.raises(ValueError, match=message):
                solve(lp, basis=basis)
        # Parallel rows: x and y are not a basis.
        parallel = _lp([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], ("<=", "<="), [4.0, 10.0])
        with pytest.raises(ValueError, match="singular"):
            solve(parallel, basis=(0, 1))
        # A program with = rows.
        eq = _lp([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], ("<=", "="), [4.0, 0.0])
        with pytest.raises(ValueError, match="only <= and >= rows"):
            solve(eq, basis=(0, 1))


def _seeded_solves():
    """(program, basis) pairs: ``_mixed_case`` and ``_dual_case`` programs
    solved cold (every relation and outcome, flipped rows, both senses),
    and the redrawn twins of ``TestWarmStart`` started from a feasible
    basis."""
    for case in range(60):
        yield _mixed_case(case), None
    for case in range(200):
        yield _dual_case(case), None
    for case in range(100):
        lp = _redrawn(_dual_case(case, relations=("<=", ">="), seed=8_300), 9_100 + 2 * case)
        basis = _feasible_basis(lp, 9_500 + 3 * case)
        if basis is not None:
            yield lp, basis


# The 64 profiles and the rule of perfbench's metric-full workload at seed 0.
METRIC_FULL = [dl.random_profile(8, 4, seed) for seed in range(64)]
# Metric programs for the pivot kernel: some of metric-full's and larger ones.
METRIC_KERNEL = METRIC_FULL[:8] + [dl.random_profile(12, 5, seed) for seed in range(4)]


def _metric_full_logs(monkeypatch) -> tuple[list[str], list]:
    """The pivot log of every LP the metric oracle solves on METRIC_FULL,
    and its reports."""
    logs, solve_ = [], lp_mod.solve

    def logged(program, **kwargs):
        buf = io.StringIO()
        out = solve_(program, dump=buf, **kwargs)
        logs.append(buf.getvalue())
        return out

    monkeypatch.setattr(oracles_mod.lp, "solve", logged)
    reports = [oracles_mod.metric_distortion(dl.truncated_harmonic(p, 1.0), p) for p in METRIC_FULL]
    monkeypatch.setattr(oracles_mod.lp, "solve", solve_)
    return logs, reports


class TestPivotKernel:
    """``_pivot`` and ``_run_phase`` against ``reference_pivot`` and
    ``reference_run_phase``, the outer-product pivot and the Python-float
    ratio test they replaced: the same pivots, and every nonzero entry the
    same double."""

    def test_matches_reference_on_seeded_tableaux(self, monkeypatch, acceptance_notes):
        tableaux, pivot = [], lp_mod._pivot

        def recording(tab, row, col):
            tableaux.append((tab.copy(), row, col))
            pivot(tab, row, col)

        monkeypatch.setattr(lp_mod, "_pivot", recording)
        for program, basis in _seeded_solves():
            solve(program, basis=basis)
        seeded = len(tableaux)
        # The metric oracle's dual programs, started from routing bases.
        for p in METRIC_KERNEL:
            oracles_mod.metric_distortion(dl.truncated_harmonic(p, 1.0), p)
        monkeypatch.undo()
        negative, zero_signs = 0, 0
        for tab, row, col in tableaux:
            got, want = tab.copy(), tab.copy()
            lp_mod._pivot(got, row, col)
            reference_pivot(want, row, col)
            # == compares doubles exactly and takes -0.0 == 0.0.
            assert np.array_equal(got, want), (row, col)
            zero_signs += int((np.signbit(got) != np.signbit(want)).sum())
            negative += tab[row, col] < 0
        # Both kinds of program, and the negative pivots that drive a
        # leftover artificial out after phase 1.
        assert seeded >= 500 and len(tableaux) - seeded >= 200 and negative > 0
        acceptance_notes.append(
            f"pivot kernel vs outer-product reference: {len(tableaux)} pivots "
            f"({seeded} on seeded programs, {negative} negative), every entry equal; "
            f"{zero_signs} zeros differ in sign only"
        )

    def test_every_pivot_is_logged_and_counted(self, monkeypatch, acceptance_notes):
        # The pivots that drive a leftover artificial out after phase 1
        # count in phase 1, in the log and in LPOutcome.pivots alike.
        programs, pivot, calls = list(_seeded_solves()), lp_mod._pivot, []

        def counting(tab, row, col):
            calls.append(col)
            pivot(tab, row, col)

        monkeypatch.setattr(lp_mod, "_pivot", counting)
        logged, counted = 0, 0
        for case, (program, basis) in enumerate(programs):
            buf = io.StringIO()
            out = solve(program, dump=buf, basis=basis)
            phase1, _, phase2 = buf.getvalue().partition("--- phase 2 start\n")
            assert (phase1.count("pivot:"), phase2.count("pivot:")) == out.pivots, case
            logged += phase1.count("pivot:") + phase2.count("pivot:")
            counted += sum(out.pivots)
        assert logged == len(calls) == counted >= 500
        acceptance_notes.append(
            f"pivot log vs pivot calls vs LPOutcome.pivots: {len(programs)} seeded programs, "
            f"{logged} pivots each way"
        )

    def test_pivot_logs_match_reference_on_seeded_programs(self, monkeypatch):
        def run():
            for program, basis in _seeded_solves():
                buf = io.StringIO()
                out = solve(program, dump=buf, basis=basis)
                yield buf.getvalue().splitlines(), out

        got = list(run())
        monkeypatch.setattr(lp_mod, "_run_phase", reference_run_phase)
        monkeypatch.setattr(lp_mod, "_pivot", reference_pivot)
        want = list(run())
        statuses = set()
        for case, ((log, out), (ref_log, ref)) in enumerate(zip(got, want)):
            assert log == ref_log, case
            assert out.status == ref.status, case
            statuses.add(out.status)
            if out.status == OPTIMAL:
                assert out.value == ref.value, case
                assert np.array_equal(out.assignment, ref.assignment), case
                assert np.array_equal(out.duals, ref.duals), case
        assert sum(len(log) for log, _ in got) >= 500 and len(statuses) == 3

    def test_pivot_logs_match_reference_on_metric_full(self, monkeypatch):
        logs, reports = _metric_full_logs(monkeypatch)
        monkeypatch.setattr(lp_mod, "_run_phase", reference_run_phase)
        monkeypatch.setattr(lp_mod, "_pivot", reference_pivot)
        ref_logs, ref_reports = _metric_full_logs(monkeypatch)
        assert [log.splitlines() for log in logs] == [log.splitlines() for log in ref_logs]
        for got, want in zip(reports, ref_reports):
            assert repr(got.value) == repr(want.value) and got.arg_optimum == want.arg_optimum
            assert got.witness.dist.tobytes() == want.witness.dist.tobytes()


class TestChecks:
    """The program's validation and the solver's post-check, each rule on
    its own."""

    @pytest.mark.parametrize(
        "field, value, name",
        [
            ("objective", [1.0, np.nan], "objective"),
            ("lhs", [[1.0, -np.inf]], "lhs"),
            ("rhs", [np.inf], "rhs"),
            ("lower_bounds", [0.0, np.nan], "lower_bounds"),
        ],
    )
    def test_nonfinite_entry_named(self, field, value, name):
        kwargs = dict(objective=[1.0, 1.0], lhs=[[1.0, 1.0]], relations=("<=",), rhs=[1.0])
        kwargs[field] = np.array(value)
        with pytest.raises(ValueError, match=f"{name} entries must be finite"):
            LinearProgram(**kwargs)

    @pytest.mark.parametrize("relation", ["<", "==", ["<="]])
    def test_unknown_relation(self, relation):
        with pytest.raises(ValueError, match="unknown relation"):
            LinearProgram(
                objective=np.ones(1), lhs=np.ones((2, 1)), relations=("<=", relation),
                rhs=np.ones(2),
            )

    def test_slack_signs(self):
        lp = _lp([1.0], [[1.0], [1.0], [1.0]], ("<=", ">=", "="), [1.0, 0.0, 0.5])
        assert lp.slack_signs.tolist() == [1.0, -1.0, 0.0]

    @pytest.mark.parametrize(
        "relations, rhs, row",
        [
            (("<=", "<=", ">="), [2.0, 1.0, 2.0], 1),  # x above a <= row
            (("<=", ">=", ">="), [2.0, 3.0, 2.0], 1),  # below a >= row
            (("<=", "=", ">="), [2.0, 1.0, 2.0], 1),  # off an = row, above
            (("<=", "=", ">="), [2.0, 3.0, 2.0], 1),  # and below
            (("<=", ">=", "="), [1.0, 3.0, 2.0], 0),  # the first of two
        ],
    )
    def test_post_check_names_the_violated_row(self, relations, rhs, row):
        program = _lp([1.0], [[1.0]] * 3, relations, rhs)
        with pytest.raises(lp_mod.SolverError, match=f"violating row {row}"):
            lp_mod._check_feasible(program, np.array([2.0]))

    def test_post_check_allows_feas_tol(self):
        program = _lp([1.0], [[1.0]] * 3, ("<=", ">=", "="), [2.0 - 5e-8, 2.0 + 5e-8, 2.0 + 5e-8])
        lp_mod._check_feasible(program, np.array([2.0]))
