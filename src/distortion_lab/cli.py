"""Command-line front end.

Commands: ``run`` (apply a rule to an instance, print the lottery),
``oracle`` (worst-case distortion of a lottery or rule on an instance),
``sweep`` (grid of rules x instances x worlds to a deterministic CSV),
``reproduce`` (worst-case table over all or sampled profiles at one size)
and ``generate`` (write generator output to instance files). Each command
declares only the flags it reads: ``--jobs`` on ``sweep``, ``--budget`` on
``oracle`` and ``reproduce``, ``--seed`` on ``reproduce`` and ``generate``;
``generate`` refuses a flag its ``--kind`` does not read (``GENERATORS``),
and ``oracle --lottery`` refuses the rule parameter flags.

``RULES`` is the one table of rule ids: each entry gives a factory, the
ballot kinds it accepts and its declared parameters with their defaults
and range checks. ``make_rule`` builds every rule the commands run, from
``--rule`` and its flags or from a sweep config entry, and rejects an
undeclared parameter. ``reproduce`` tabulates every entry that takes full
rankings and needs no parameter.

stdout carries only each command's primary output; diagnostics go to
stderr. ``sweep`` and ``reproduce`` open ``--output`` once their arguments
are checked and before any work, so a path that cannot be written exits 3
with nothing on stdout; if the work then fails, the file is removed.
Exit codes: 0 success, 2 unknown rule (or an argparse usage
error), 3 an instance, config or output file that cannot be read, parsed
or written, 4 bad parameters (undeclared, missing or out of range, or a
rule/ballot-kind mismatch), 5 brute-force disagreement, 6 budget
exceeded, 7 solver or certificate failure (an ``lp.SolverError`` or
``oracles.CertificateError``: a fault in the library, reported on one
stderr line). Library errors reach ``main``, which turns each into its
exit code and one stderr line. The enumeration budget caps the
brute-force twin (``oracle --check-bruteforce``) and exhaustive
``reproduce`` tables; top-t oracles solve one exact prefix program and
need none. The environment variable ``DISTORTION_LAB_BUDGET`` overrides
the default budget; an explicit ``--budget`` flag wins over both. A budget
that is not an integer or is negative exits 4 where a budget is read.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import json
import math
import os
import sys
import time
from typing import IO, Callable, Iterator, NamedTuple

from . import instances, oracles, rules
from .core import (
    RATIO_TOL,
    DistortionValue,
    Lottery,
    Profile,
    TopTProfile,
    truncate_profile,
)
from .instances import InstanceFormatError
from .lp import SolverError
from .oracles import BudgetExceededError, CertificateError

EXIT_OK = 0
EXIT_UNKNOWN_RULE = 2
EXIT_BAD_INSTANCE = 3
EXIT_BAD_PARAMS = 4
EXIT_BRUTEFORCE_MISMATCH = 5
EXIT_BUDGET = 6
EXIT_SOLVER = 7

FULL, TOPT = frozenset(("full",)), frozenset(("topt",))


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _number(requirement: str, ok: Callable[[float], bool]) -> Callable[[object], float]:
    """A parameter parser: a number (int or float; not a bool or a string)
    as a float, or ValueError unless ``ok``."""

    def parse(value) -> float:
        number = None
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            with contextlib.suppress(OverflowError):  # an int beyond float range
                number = float(value)
        if number is None or not ok(number):
            raise ValueError(f"needs {requirement}, got {value!r}")
        return number

    return parse


def _components(value) -> list[str]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"needs two component rule ids, got {value!r}")
    for rid in value:
        _entry(rid)
        if rid == "mix":
            raise ValueError("cannot take mix as a component")
    return value


def _mix(beta: float, components: list[str]) -> oracles.Rule:
    first, second = (make_rule(rid, {})[0] for rid in components)
    return lambda p: rules.mix(first(p), second(p), beta)


class RuleEntry(NamedTuple):
    factory: Callable[..., oracles.Rule]  # declared parameters -> Profile -> Lottery
    kinds: frozenset[str]  # ballot kinds accepted: "full", "topt"
    params: dict  # name -> (default, parser); a default of None marks it required


RULES: dict[str, RuleEntry] = {
    "plurality": RuleEntry(lambda: rules.plurality, FULL | TOPT, {}),
    "copeland": RuleEntry(lambda: rules.copeland, FULL, {}),
    "plurality_veto": RuleEntry(lambda: lambda p: rules.plurality_veto(p)[0], FULL, {}),
    "ppv": RuleEntry(
        lambda epsilon: lambda p: rules.pruned_plurality_veto(p, epsilon),
        FULL,
        {"epsilon": (1.0, _number("finite epsilon > 0", lambda e: 0 < e < math.inf))},
    ),
    "random_dictatorship": RuleEntry(lambda: rules.random_dictatorship, FULL | TOPT, {}),
    "harmonic": RuleEntry(lambda: rules.harmonic_rule, FULL, {}),
    "truncated_harmonic": RuleEntry(
        lambda epsilon: lambda p: rules.truncated_harmonic(p, epsilon),
        FULL,
        {"epsilon": (1.0, _number("0 < epsilon < 6", lambda e: 0 < e < 6))},
    ),
    "top_t_det": RuleEntry(lambda: rules.top_t_det_rule, TOPT, {}),
    "top_t_th": RuleEntry(lambda: rules.top_t_truncated_harmonic, TOPT, {}),
    # A mix accepts the ballot kinds both of its components accept.
    "mix": RuleEntry(
        _mix,
        FULL | TOPT,
        {
            "beta": (None, _number("beta in [0, 1]", lambda b: 0 <= b <= 1)),
            "components": (None, _components),
        },
    ),
}


def _entry(rule_id) -> RuleEntry:
    if not isinstance(rule_id, str) or rule_id not in RULES:
        raise CliError(EXIT_UNKNOWN_RULE, f"unknown rule {rule_id!r}")
    return RULES[rule_id]


def make_rule(rule_id, params: dict) -> tuple[oracles.Rule, frozenset[str]]:
    """The rule ``RULES[rule_id]`` builds from ``params``, and the ballot kinds it accepts.

    Raises ``CliError``: exit 2 for an unknown id or mix component, exit 4
    for an undeclared or missing parameter or a value out of range.
    """
    entry = _entry(rule_id)
    for name in params:
        if name not in entry.params:
            declared = ", ".join(entry.params) or "none"
            raise CliError(
                EXIT_BAD_PARAMS,
                f"rule {rule_id!r} takes no parameter {name!r} (declared: {declared})",
            )
    values = {}
    for name, (default, parse) in entry.params.items():
        value = params.get(name, default)
        if value is None:
            raise CliError(EXIT_BAD_PARAMS, f"rule {rule_id!r} needs {name!r}")
        try:
            values[name] = parse(value)
        except ValueError as exc:
            raise CliError(EXIT_BAD_PARAMS, f"rule {rule_id!r} {exc}")
    kinds = entry.kinds.intersection(*(RULES[c].kinds for c in values.get("components", ())))
    return entry.factory(**values), kinds


# The rule parameter flags of ``run`` and ``oracle``.
RULE_FLAGS = ("epsilon", "beta", "components")


def _apply_rule(args, p: Profile | TopTProfile) -> Lottery:
    """The lottery of ``--rule`` and its parameter flags on ``p``."""
    params = {name: getattr(args, name) for name in RULE_FLAGS if getattr(args, name) is not None}
    rule, kinds = make_rule(args.rule, params)
    kind = "topt" if isinstance(p, TopTProfile) else "full"
    if kind not in kinds:
        raise CliError(EXIT_BAD_PARAMS, f"rule {args.rule!r} does not accept {kind} profiles")
    try:
        return rule(p)
    except ValueError as exc:
        raise CliError(EXIT_BAD_PARAMS, str(exc))


def _budget(args) -> int:
    """``--budget``, else ``DISTORTION_LAB_BUDGET``, else the library default;
    a negative budget exits 4 (0 is valid and admits no enumeration)."""
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    else:
        env = os.environ.get("DISTORTION_LAB_BUDGET")
        if env is None:
            return oracles.DEFAULT_ENUMERATION_BUDGET
        try:
            budget, source = int(env), "DISTORTION_LAB_BUDGET"
        except ValueError:
            raise CliError(
                EXIT_BAD_PARAMS, f"DISTORTION_LAB_BUDGET must be an integer, got {env!r}"
            )
    if budget < 0:
        raise CliError(EXIT_BAD_PARAMS, f"{source} needs an integer >= 0, got {budget}")
    return budget


@contextlib.contextmanager
def _output(path) -> Iterator[IO[str]]:
    """``path`` opened for writing before any work, so that a path that
    cannot be written exits 3 at once. If the work then fails, a regular
    file at ``path`` is removed, so that a failed command leaves no output."""
    with open(path, "w", newline="") as fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            if os.path.isfile(path):
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    lot = _apply_rule(args, instances.load_instance(args.instance))
    print(json.dumps({"prob": lot.prob.tolist()}))
    return EXIT_OK


def cmd_oracle(args) -> int:
    p = instances.load_instance(args.instance)
    if (args.lottery is None) == (args.rule is None):
        raise CliError(EXIT_BAD_PARAMS, "provide exactly one of --lottery or --rule")
    if args.lottery is not None:
        for name in RULE_FLAGS:
            if getattr(args, name) is not None:
                raise CliError(EXIT_BAD_PARAMS, f"--{name} is read with --rule, not --lottery")
        lot = instances.load_lottery(args.lottery)
        if lot.m != p.m:
            raise CliError(
                EXIT_BAD_INSTANCE,
                f"lottery over {lot.m} alternatives, instance has {p.m}",
            )
    else:
        lot = _apply_rule(args, p)
    if args.check_bruteforce:
        if args.world != "utilitarian":
            raise CliError(
                EXIT_BAD_PARAMS, "--check-bruteforce applies to the utilitarian world"
            )
        if isinstance(p, TopTProfile):
            raise CliError(
                EXIT_BAD_PARAMS, "--check-bruteforce needs full rankings"
            )
        budget = _budget(args)
    report = oracles._oracle(args.world)(lot, p)
    if args.check_bruteforce:
        twin = oracles.utilitarian_distortion_bruteforce(lot, p, budget=budget)
        agree = (
            report.value.is_unbounded == twin.value.is_unbounded
            and (
                report.value.is_unbounded
                or abs(report.value.value - twin.value.value) <= RATIO_TOL
            )
        )
        if not agree:
            print(
                f"brute-force disagreement: oracle={report.value} bruteforce={twin.value}",
                file=sys.stderr,
            )
            return EXIT_BRUTEFORCE_MISMATCH
        print(f"brute-force agreement: {twin.value}", file=sys.stderr)
    print(json.dumps(report.to_json()))
    return EXIT_OK


def _sweep_worker(item: dict) -> tuple:
    """One sweep cell; module-level so worker processes can unpickle it."""
    params = dict(item["rule"])
    rule, _ = make_rule(params.pop("id"), params)
    p: Profile | TopTProfile = instances.random_profile(
        item["n"], item["m"], item["seed"]
    )
    if item["t"] is not None:
        p = truncate_profile(p, item["t"])
    timed = item["timings"]
    started = time.perf_counter() if timed else 0.0
    report = oracles.rule_distortion(rule, p, item["world"])
    elapsed_ms = int(round((time.perf_counter() - started) * 1000)) if timed else 0
    return (
        item["label"],
        item["n"],
        item["m"],
        "" if item["t"] is None else item["t"],
        item["seed"],
        item["world"],
        str(report.value),
        report.arg_optimum,
        elapsed_ms,
    )


def _parse_sweep_config(path) -> dict:
    data = instances._read_json(path)
    fields = ("rules", "grid", "seeds", "worlds")
    instances._expect_fields(path, data, fields)
    for field in fields:
        if not (isinstance(data[field], list) and data[field]):
            raise InstanceFormatError(f"{path}: {field!r} is not a non-empty list")
    for cell in data["grid"]:
        if not isinstance(cell, dict):
            raise InstanceFormatError(f"{path}: grid cell {cell!r} is not an object")
        instances._expect_fields(path, cell, ("n", "m"), ("t",))
        # type() is int, not isinstance: JSON true and false are not sizes.
        n, m, t = cell["n"], cell["m"], cell.get("t", 1)
        if not (all(type(x) is int for x in (n, m, t)) and n >= 1 and 1 <= t <= m):
            raise InstanceFormatError(
                f"{path}: grid cell {cell!r} needs integers n >= 1, m >= 1 and 1 <= t <= m"
            )
    for seed in data["seeds"]:
        if type(seed) is not int or seed < 0:
            raise InstanceFormatError(f"{path}: seed {seed!r} is not an integer >= 0")
    for world in data["worlds"]:
        if world not in oracles._WORLDS:
            raise InstanceFormatError(f"{path}: unknown world {world!r}")
    return data


def _sweep_workers(jobs: int, cells: int, cpus: int) -> int:
    """Worker processes for a sweep: ``--jobs``, but no more than one per
    cell and one per usable CPU. The process pool forks all of its workers
    at the first submit, so an uncapped ``--jobs`` would fork that many."""
    return min(jobs, cells, cpus)


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise CliError(EXIT_BAD_PARAMS, f"--jobs needs N >= 1, got {args.jobs}")
    items = []
    try:
        config = _parse_sweep_config(args.config)
        for entry in config["rules"]:
            params = {"id": entry} if isinstance(entry, str) else {**entry}
            rule_id = params.pop("id")
            label = params.pop("label", rule_id)
            if not isinstance(label, str):
                raise InstanceFormatError(f"{args.config}: label {label!r} is not a string")
            _, accepts = make_rule(rule_id, params)  # validate up front
            for cell in config["grid"]:
                t = cell.get("t")
                kind = "full" if t is None else "topt"
                if kind not in accepts:
                    print(
                        f"sweep: skipping {label} on n={cell['n']} m={cell['m']} "
                        f"t={t}: rule does not accept {kind} profiles",
                        file=sys.stderr,
                    )
                    continue
                for seed in config["seeds"]:
                    for world in config["worlds"]:
                        items.append(
                            {
                                "rule": {"id": rule_id, **params},
                                "label": label,
                                "n": cell["n"],
                                "m": cell["m"],
                                "t": t,
                                "seed": seed,
                                "world": world,
                                "timings": bool(args.timings),
                            }
                        )
    except InstanceFormatError:
        raise  # already names the file and the fault; exits 3
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_BAD_INSTANCE, f"malformed sweep config: {exc!r}")

    # CPUs this process may run on; platforms without affinity count them all.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    # One worker (or no cell) runs in-process.
    workers = _sweep_workers(args.jobs, len(items), cpus)
    with _output(args.output) as fh:
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_sweep_worker, items))
        else:
            results = [_sweep_worker(item) for item in items]
        results.sort(key=lambda row: (row[0], row[1], row[2], str(row[3]), row[4], row[5]))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["rule", "n", "m", "t", "seed", "world", "distortion", "arg_optimum", "runtime_ms"]
        )
        writer.writerows(results)
    print(f"sweep: wrote {len(results)} rows to {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    n, m = args.n, args.m
    if n < 1 or m < 1:
        raise CliError(EXIT_BAD_PARAMS, f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if args.sample is not None and args.sample < 1:
        raise CliError(EXIT_BAD_PARAMS, f"--sample needs K >= 1, got {args.sample}")
    if args.seed < 0:
        raise CliError(EXIT_BAD_PARAMS, f"--seed needs an integer >= 0, got {args.seed}")
    # Every rule that takes full rankings and needs no parameter.
    reproducible = tuple(
        rid
        for rid, entry in RULES.items()
        if "full" in entry.kinds and all(d is not None for d, _ in entry.params.values())
    )
    wanted = reproducible
    if args.rules is not None:
        wanted = tuple(x.strip() for x in args.rules.split(",") if x.strip())
        if not wanted:
            raise CliError(EXIT_BAD_PARAMS, f"--rules names no rule, got {args.rules!r}")
        for rid in wanted:
            if rid not in reproducible:
                raise CliError(
                    EXIT_UNKNOWN_RULE,
                    f"unknown rule {rid!r} (reproducible: {', '.join(reproducible)})",
                )

    budget = _budget(args)
    count = oracles._profile_count(n, m)
    exhaustive = count <= budget
    if not exhaustive and args.sample is None:
        raise CliError(
            EXIT_BUDGET,
            f"{count} profiles exceed the budget of {budget}; "
            "pass --sample K to sample instead",
        )

    with _output(args.output) as fh:
        table: list[tuple[str, str, str]] = []
        for rid in wanted:
            rule, _ = make_rule(rid, {})
            row = [rid]
            for world in oracles._WORLDS:
                if exhaustive:
                    value, _ = oracles.exhaustive_worst_case(
                        rule, n, m, world, budget=budget
                    )
                else:
                    samples = (
                        instances.random_profile(n, m, args.seed + j)
                        for j in range(args.sample)
                    )
                    worst, _ = oracles._first_max(
                        (oracles.rule_distortion(rule, p, world).value.value, p)
                        for p in samples
                    )
                    value = DistortionValue(worst)
                row.append(str(value))
            table.append(tuple(row))

        header = ("rule", *oracles._WORLDS)
        widths = [
            max(len(row[col]) for row in table + [header]) + 2 for col in range(2)
        ]
        print(f"{header[0]:<{widths[0]}}{header[1]:<{widths[1]}}{header[2]}")
        for rid, met, uti in table:
            print(f"{rid:<{widths[0]}}{met:<{widths[1]}}{uti}")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rule", "metric_distortion", "utilitarian_distortion"])
        writer.writerows(table)
    print(f"reproduce: wrote {len(table)} rows to {args.output}", file=sys.stderr)
    return EXIT_OK


class Generator(NamedTuple):
    factory: Callable[..., tuple]  # (n, m, *flag values) -> (profile, metric or None)
    flags: dict  # optional flag -> default, in factory order; a default of None marks it required
    metric: bool = False  # the kind also builds a metric, so it reads --metric-out


GENERATORS: dict[str, Generator] = {  # every kind also reads --n and --m
    "random": Generator(lambda n, m, s: (instances.random_profile(n, m, s), None), {"seed": 0}),
    "prop31": Generator(lambda n, m: (instances.prop31_profile(n, m), None), {}),
    "thm36": Generator(lambda n, m: instances.thm36_instance(m, n), {}, metric=True),
    "thm51": Generator(lambda n, m, t: (instances.thm51_profile(n, m, t), None), {"t": None}),
    "thm53": Generator(instances.thm53_instance, {"t": None, "dm": 2.0}, metric=True),
}


def cmd_generate(args) -> int:
    kind, gen = args.kind, GENERATORS[args.kind]
    reads = set(gen.flags) | ({"metric_out"} if gen.metric else set())
    for name in ("seed", "t", "dm", "metric_out"):  # generate's optional flags
        if getattr(args, name) is not None and name not in reads:
            flag = "--" + name.replace("_", "-")
            raise CliError(EXIT_BAD_PARAMS, f"{flag} is not read by --kind {kind}")
    if args.n is None or args.m is None:
        raise CliError(EXIT_BAD_PARAMS, f"{kind} needs --n and --m")
    values = []
    for name, default in gen.flags.items():
        value = default if getattr(args, name) is None else getattr(args, name)
        if value is None:
            raise CliError(EXIT_BAD_PARAMS, f"{kind} needs --{name}")
        values.append(value)
    try:
        out, metric = gen.factory(args.n, args.m, *values)
    except ValueError as exc:
        raise CliError(EXIT_BAD_PARAMS, str(exc))
    instances.save_instance(out, args.out)
    print(f"generate: wrote instance to {args.out}", file=sys.stderr)
    if metric is not None:
        if args.metric_out:
            instances.save_metric(metric, args.metric_out)
            print(f"generate: wrote metric to {args.metric_out}", file=sys.stderr)
        else:
            print(
                "generate: this kind also produces a metric; pass --metric-out to save it",
                file=sys.stderr,
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


BUDGET_HELP = (
    "brute-force and exhaustive enumeration budget (default: DISTORTION_LAB_BUDGET or 10^6)"
)


def _add_rule_params(sub: argparse.ArgumentParser):
    sub.add_argument("--epsilon", type=float, default=None, help="rule parameter eps")
    sub.add_argument("--beta", type=float, default=None, help="mix weight in [0, 1]")
    sub.add_argument(
        "--components",
        type=lambda s: [x.strip() for x in s.split(",") if x.strip()],
        default=None,
        help="two component rule ids for mix, comma-separated",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distortion-lab",
        description="Voting rules and worst-case distortion oracles.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="apply a rule to an instance, print the lottery")
    run.add_argument("--rule", required=True)
    run.add_argument("--instance", required=True)
    _add_rule_params(run)
    run.set_defaults(func=cmd_run)

    oracle = subs.add_parser("oracle", help="worst-case distortion of a lottery")
    oracle.add_argument("--world", choices=oracles._WORLDS, required=True)
    oracle.add_argument("--instance", required=True)
    oracle.add_argument("--lottery", default=None, help="lottery JSON path")
    oracle.add_argument("--rule", default=None, help="rule id instead of a lottery")
    oracle.add_argument(
        "--check-bruteforce",
        action="store_true",
        help="cross-validate against the enumeration twin (utilitarian, full profiles)",
    )
    oracle.add_argument("--budget", type=int, default=None, help=BUDGET_HELP)
    _add_rule_params(oracle)
    oracle.set_defaults(func=cmd_oracle)

    sweep = subs.add_parser("sweep", help="rules x instances x worlds to CSV")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--output", required=True)
    sweep.add_argument(
        "--timings",
        action="store_true",
        help="record wall-clock runtime_ms (off by default to keep output byte-deterministic)",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel worker processes, at most one per cell and per usable CPU",
    )
    sweep.set_defaults(func=cmd_sweep)

    reproduce = subs.add_parser(
        "reproduce", help="worst-case table over all profiles at one size"
    )
    reproduce.add_argument("--n", type=int, required=True)
    reproduce.add_argument("--m", type=int, required=True)
    reproduce.add_argument("--output", required=True)
    reproduce.add_argument(
        "--sample", type=int, default=None, help="sample size when exhaustion is over budget"
    )
    reproduce.add_argument(
        "--rules", default=None, help="comma-separated subset of rules to tabulate"
    )
    reproduce.add_argument("--budget", type=int, default=None, help=BUDGET_HELP)
    reproduce.add_argument("--seed", type=int, default=0, help="base seed for --sample")
    reproduce.set_defaults(func=cmd_reproduce)

    generate = subs.add_parser("generate", help="write generator output to files")
    generate.add_argument("--kind", choices=GENERATORS, required=True)
    generate.add_argument("--out", required=True)
    generate.add_argument("--metric-out", default=None)
    generate.add_argument("--n", type=int, default=None)
    generate.add_argument("--m", type=int, default=None)
    generate.add_argument("--t", type=int, default=None)
    generate.add_argument("--dm", type=float, default=None, help="thm53 target ratio (default 2.0)")
    generate.add_argument("--seed", type=int, default=None, help="random kind seed (default 0)")
    generate.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"distortion-lab: {exc}", file=sys.stderr)
        return exc.code
    except BudgetExceededError as exc:
        print(f"distortion-lab: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InstanceFormatError, OSError) as exc:
        print(f"distortion-lab: {exc}", file=sys.stderr)
        return EXIT_BAD_INSTANCE
    except (SolverError, CertificateError) as exc:
        print(f"distortion-lab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
