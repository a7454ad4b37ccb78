"""Command-line front end.

Commands: ``run`` (apply a rule to an instance, print the lottery),
``oracle`` (worst-case distortion of a lottery or rule on an instance),
``sweep`` (grid of rules x instances x worlds to a deterministic CSV),
``reproduce`` (worst-case table over all or sampled profiles at one size)
and ``generate`` (write generator output to instance files).

stdout carries only each command's primary output; diagnostics go to
stderr. Exit codes: 0 success, 2 unknown rule, 3 invalid instance or
config, 4 bad parameters, 5 brute-force disagreement, 6 budget exceeded.
The enumeration budget caps the brute-force twin (``oracle
--check-bruteforce``) and exhaustive ``reproduce`` tables; top-t oracles
solve one exact prefix program and need none. The environment variable
``DISTORTION_LAB_BUDGET`` overrides the default budget (a non-integer value
exits 4); an explicit ``--budget`` flag wins over both.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass

from . import instances, oracles, rules
from .core import Profile, TopTProfile, truncate_profile
from .instances import InstanceFormatError
from .oracles import BudgetExceededError

EXIT_OK = 0
EXIT_UNKNOWN_RULE = 2
EXIT_BAD_INSTANCE = 3
EXIT_BAD_PARAMS = 4
EXIT_BRUTEFORCE_MISMATCH = 5
EXIT_BUDGET = 6

RULE_IDS = (
    "plurality",
    "copeland",
    "plurality_veto",
    "ppv",
    "random_dictatorship",
    "harmonic",
    "truncated_harmonic",
    "top_t_det",
    "top_t_th",
    "mix",
)

REPRODUCE_RULES = (
    "plurality",
    "copeland",
    "plurality_veto",
    "ppv",
    "random_dictatorship",
    "harmonic",
    "truncated_harmonic",
)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RuleSpec:
    """A rule id plus parameters, picklable for worker processes."""

    rule_id: str
    epsilon: float | None = None
    beta: float | None = None
    components: tuple[str, str] | None = None


def _accepts(spec: RuleSpec) -> frozenset[str]:
    """Which profile kinds ('full', 'topt') a RuleSpec accepts."""
    both = frozenset(("full", "topt"))
    table = {
        "plurality": both,
        "random_dictatorship": both,
        "copeland": frozenset(("full",)),
        "plurality_veto": frozenset(("full",)),
        "ppv": frozenset(("full",)),
        "harmonic": frozenset(("full",)),
        "truncated_harmonic": frozenset(("full",)),
        "top_t_det": frozenset(("topt",)),
        "top_t_th": frozenset(("topt",)),
    }
    if spec.rule_id != "mix":
        return table[spec.rule_id]
    first, second = spec.components
    return _accepts(RuleSpec(first)) & _accepts(RuleSpec(second))


def build_rule(spec: RuleSpec) -> oracles.Rule:
    """Turn a RuleSpec into a callable Profile -> Lottery.

    Raises ``KeyError`` for an unknown id (exit 2 at the CLI boundary) and
    ``ValueError`` for bad parameters (exit 4).
    """
    rid = spec.rule_id
    if rid not in RULE_IDS:
        raise KeyError(rid)
    eps = 1.0 if spec.epsilon is None else float(spec.epsilon)
    if rid == "plurality":
        return rules.plurality
    if rid == "copeland":
        return rules.copeland
    if rid == "plurality_veto":
        return lambda p: rules.plurality_veto(p)[0]
    if rid == "ppv":
        if not eps > 0:
            raise ValueError(f"ppv needs eps > 0, got {eps}")
        return lambda p: rules.pruned_plurality_veto(p, eps)
    if rid == "random_dictatorship":
        return rules.random_dictatorship
    if rid == "harmonic":
        return rules.harmonic_rule
    if rid == "truncated_harmonic":
        if not (0.0 < eps < 6.0):
            raise ValueError(f"truncated_harmonic needs 0 < eps < 6, got {eps}")
        return lambda p: rules.truncated_harmonic(p, eps)
    if rid == "top_t_det":
        return rules.top_t_det_rule
    if rid == "top_t_th":
        return rules.top_t_truncated_harmonic
    # mix
    if spec.components is None or len(spec.components) != 2:
        raise ValueError("mix needs exactly two component rule ids")
    if spec.beta is None:
        raise ValueError("mix needs --beta in [0, 1]")
    if not (0.0 <= spec.beta <= 1.0):
        raise ValueError(f"mix needs beta in [0, 1], got {spec.beta}")
    first = build_rule(RuleSpec(spec.components[0]))
    second = build_rule(RuleSpec(spec.components[1]))
    beta = float(spec.beta)
    return lambda p: rules.mix(first(p), second(p), beta)


def _spec_from_args(args) -> RuleSpec:
    components = None
    if getattr(args, "components", None):
        parts = tuple(x.strip() for x in args.components.split(",") if x.strip())
        if len(parts) != 2:
            raise CliError(EXIT_BAD_PARAMS, "expected --components FIRST,SECOND")
        for part in parts:
            if part not in RULE_IDS:
                raise CliError(EXIT_UNKNOWN_RULE, f"unknown rule {part!r}")
        components = parts
    return RuleSpec(
        rule_id=args.rule,
        epsilon=getattr(args, "epsilon", None),
        beta=getattr(args, "beta", None),
        components=components,
    )


def _load_instance(path) -> Profile | TopTProfile:
    try:
        return instances.load_instance(path)
    except InstanceFormatError as exc:
        raise CliError(EXIT_BAD_INSTANCE, str(exc))


def _build_rule_checked(spec: RuleSpec, p: Profile | TopTProfile) -> oracles.Rule:
    try:
        rule = build_rule(spec)
    except KeyError as exc:
        raise CliError(EXIT_UNKNOWN_RULE, f"unknown rule {exc.args[0]!r}")
    except ValueError as exc:
        raise CliError(EXIT_BAD_PARAMS, str(exc))
    kind = "topt" if isinstance(p, TopTProfile) else "full"
    if kind not in _accepts(spec):
        raise CliError(
            EXIT_BAD_PARAMS,
            f"rule {spec.rule_id!r} does not accept {kind} profiles",
        )
    return rule


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    p = _load_instance(args.instance)
    rule = _build_rule_checked(_spec_from_args(args), p)
    try:
        lot = rule(p)
    except ValueError as exc:
        raise CliError(EXIT_BAD_PARAMS, str(exc))
    print(json.dumps({"prob": lot.prob.tolist()}))
    return EXIT_OK


def cmd_oracle(args) -> int:
    p = _load_instance(args.instance)
    if (args.lottery is None) == (args.rule is None):
        raise CliError(EXIT_BAD_PARAMS, "provide exactly one of --lottery or --rule")
    if args.lottery is not None:
        try:
            lot = instances.load_lottery(args.lottery)
        except InstanceFormatError as exc:
            raise CliError(EXIT_BAD_INSTANCE, str(exc))
        if lot.m != p.m:
            raise CliError(
                EXIT_BAD_INSTANCE,
                f"lottery over {lot.m} alternatives, instance has {p.m}",
            )
    else:
        rule = _build_rule_checked(_spec_from_args(args), p)
        try:
            lot = rule(p)
        except ValueError as exc:
            raise CliError(EXIT_BAD_PARAMS, str(exc))
    oracle = (
        oracles.metric_distortion
        if args.world == "metric"
        else oracles.utilitarian_distortion
    )
    report = oracle(lot, p)
    if args.check_bruteforce:
        if args.world != "utilitarian":
            raise CliError(
                EXIT_BAD_PARAMS, "--check-bruteforce applies to the utilitarian world"
            )
        if isinstance(p, TopTProfile):
            raise CliError(
                EXIT_BAD_PARAMS, "--check-bruteforce needs full rankings"
            )
        try:
            twin = oracles.utilitarian_distortion_bruteforce(lot, p, budget=args.budget)
        except BudgetExceededError as exc:
            raise CliError(EXIT_BUDGET, str(exc))
        agree = (
            report.value.is_unbounded == twin.value.is_unbounded
            and (
                report.value.is_unbounded
                or abs(report.value.value - twin.value.value) <= 1e-6
            )
        )
        if not agree:
            print(
                f"brute-force disagreement: lp={report.value} bruteforce={twin.value}",
                file=sys.stderr,
            )
            return EXIT_BRUTEFORCE_MISMATCH
        print(f"brute-force agreement: {twin.value}", file=sys.stderr)
    print(json.dumps(report.to_json()))
    return EXIT_OK


def _sweep_worker(item: dict) -> tuple:
    """One sweep cell; module-level so worker processes can unpickle it."""
    spec = RuleSpec(**item["spec"])
    rule = build_rule(spec)
    p: Profile | TopTProfile = instances.random_profile(
        item["n"], item["m"], item["seed"]
    )
    if item["t"] is not None:
        p = truncate_profile(p, item["t"])
    started = time.perf_counter()
    report = oracles.rule_distortion(rule, p, item["world"])
    elapsed_ms = int(round((time.perf_counter() - started) * 1000))
    return (
        item["label"],
        item["n"],
        item["m"],
        "" if item["t"] is None else item["t"],
        item["seed"],
        item["world"],
        str(report.value),
        report.arg_optimum,
        elapsed_ms if item["timings"] else 0,
    )


def _parse_sweep_config(path) -> dict:
    data = instances._read_json(path)
    for field in ("rules", "grid", "seeds", "worlds"):
        if field not in data:
            raise InstanceFormatError(f"{path}: missing field {field!r}")
    for world in data["worlds"]:
        if world not in ("metric", "utilitarian"):
            raise InstanceFormatError(f"{path}: unknown world {world!r}")
    return data


def cmd_sweep(args) -> int:
    try:
        config = _parse_sweep_config(args.config)
    except InstanceFormatError as exc:
        raise CliError(EXIT_BAD_INSTANCE, str(exc))

    items = []
    try:
        for entry in config["rules"]:
            if isinstance(entry, str):
                entry = {"id": entry}
            spec = RuleSpec(
                rule_id=entry["id"],
                epsilon=entry.get("epsilon"),
                beta=entry.get("beta"),
                components=tuple(entry["components"]) if "components" in entry else None,
            )
            if spec.rule_id not in RULE_IDS:
                raise CliError(EXIT_UNKNOWN_RULE, f"unknown rule {spec.rule_id!r}")
            build_rule(spec)  # validate parameters up front
            label = entry.get("label", spec.rule_id)
            accepts = _accepts(spec)
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
                                "spec": spec.__dict__,
                                "label": label,
                                "n": int(cell["n"]),
                                "m": int(cell["m"]),
                                "t": None if t is None else int(t),
                                "seed": int(seed),
                                "world": world,
                                "timings": bool(args.timings),
                            }
                        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_BAD_INSTANCE, f"malformed sweep config: {exc!r}")

    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_worker, items))
    else:
        results = [_sweep_worker(item) for item in items]

    results.sort(key=lambda row: (row[0], row[1], row[2], str(row[3]), row[4], row[5]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["rule", "n", "m", "t", "seed", "world", "distortion", "arg_optimum", "runtime_ms"]
    )
    writer.writerows(results)
    with open(args.output, "w", newline="") as fh:
        fh.write(buf.getvalue())
    print(f"sweep: wrote {len(results)} rows to {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    n, m = args.n, args.m
    if n < 1 or m < 1:
        raise CliError(EXIT_BAD_PARAMS, f"need n >= 1 and m >= 1, got n={n}, m={m}")
    wanted = REPRODUCE_RULES
    if args.rules:
        wanted = tuple(x.strip() for x in args.rules.split(",") if x.strip())
        for rid in wanted:
            if rid not in REPRODUCE_RULES:
                raise CliError(
                    EXIT_UNKNOWN_RULE,
                    f"unknown rule {rid!r} (reproducible: {', '.join(REPRODUCE_RULES)})",
                )

    import math as _math

    exhaustive = _math.factorial(m) ** n <= args.budget
    if not exhaustive and args.sample is None:
        raise CliError(
            EXIT_BUDGET,
            f"{_math.factorial(m) ** n} profiles exceed the budget of {args.budget}; "
            "pass --sample K to sample instead",
        )

    table: list[tuple[str, str, str]] = []
    for rid in wanted:
        rule = build_rule(RuleSpec(rid))
        row = [rid]
        for world in ("metric", "utilitarian"):
            if exhaustive:
                value, _ = oracles.exhaustive_worst_case(
                    rule, n, m, world, budget=args.budget
                )
            else:
                worst = None
                for j in range(args.sample):
                    p = instances.random_profile(n, m, args.seed + j)
                    report = oracles.rule_distortion(rule, p, world)
                    if worst is None or report.value.value > worst.value:
                        worst = report.value
                    if worst.is_unbounded:
                        break
                value = worst
            row.append(str(value))
        table.append(tuple(row))

    header = ("rule", "metric", "utilitarian")
    widths = [
        max(len(row[col]) for row in table + [header]) + 2 for col in range(2)
    ]
    print(f"{header[0]:<{widths[0]}}{header[1]:<{widths[1]}}{header[2]}")
    for rid, met, uti in table:
        print(f"{rid:<{widths[0]}}{met:<{widths[1]}}{uti}")
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rule", "metric_distortion", "utilitarian_distortion"])
        writer.writerows(table)
    print(f"reproduce: wrote {len(table)} rows to {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_generate(args) -> int:
    kind = args.kind
    metric = None
    try:
        if args.n is None or args.m is None:
            raise ValueError(f"{kind} needs --n and --m")
        if kind == "random":
            out = instances.random_profile(args.n, args.m, args.seed)
        elif kind == "prop31":
            out = instances.prop31_profile(args.n, args.m)
        elif kind == "thm36":
            out, metric = instances.thm36_instance(args.m, args.n)
        elif kind == "thm51":
            if args.t is None:
                raise ValueError("thm51 needs --t")
            out = instances.thm51_profile(args.n, args.m, args.t)
        else:  # thm53
            if args.t is None:
                raise ValueError("thm53 needs --t")
            out = instances.thm53_instance(args.n, args.m, args.t, args.dm)
            out, metric = out
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


def _default_budget() -> int:
    env = os.environ.get("DISTORTION_LAB_BUDGET")
    if env is None:
        return oracles.DEFAULT_ENUMERATION_BUDGET
    try:
        return int(env)
    except ValueError:
        raise CliError(
            EXIT_BAD_PARAMS, f"DISTORTION_LAB_BUDGET must be an integer, got {env!r}"
        )


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    sub.add_argument(
        "--budget",
        type=int,
        default=None,
        help="brute-force and exhaustive enumeration budget "
        "(default: DISTORTION_LAB_BUDGET or 10^6)",
    )
    sub.add_argument("--seed", type=int, default=0, help="base random seed")


def _add_rule_params(sub: argparse.ArgumentParser):
    sub.add_argument("--epsilon", type=float, default=None, help="rule parameter eps")
    sub.add_argument("--beta", type=float, default=None, help="mix weight in [0, 1]")
    sub.add_argument(
        "--components", default=None, help="two component rule ids for mix, comma-separated"
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
    _add_common(run)
    run.set_defaults(func=cmd_run)

    oracle = subs.add_parser("oracle", help="worst-case distortion of a lottery")
    oracle.add_argument("--world", choices=("metric", "utilitarian"), required=True)
    oracle.add_argument("--instance", required=True)
    oracle.add_argument("--lottery", default=None, help="lottery JSON path")
    oracle.add_argument("--rule", default=None, help="rule id instead of a lottery")
    oracle.add_argument(
        "--check-bruteforce",
        action="store_true",
        help="cross-validate against the enumeration twin (utilitarian, full profiles)",
    )
    _add_rule_params(oracle)
    _add_common(oracle)
    oracle.set_defaults(func=cmd_oracle)

    sweep = subs.add_parser("sweep", help="rules x instances x worlds to CSV")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--output", required=True)
    sweep.add_argument(
        "--timings",
        action="store_true",
        help="record wall-clock runtime_ms (off by default to keep output byte-deterministic)",
    )
    _add_common(sweep)
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
    _add_common(reproduce)
    reproduce.set_defaults(func=cmd_reproduce)

    generate = subs.add_parser("generate", help="write generator output to files")
    generate.add_argument("--kind", choices=instances.GENERATOR_KINDS, required=True)
    generate.add_argument("--out", required=True)
    generate.add_argument("--metric-out", default=None)
    generate.add_argument("--n", type=int, default=None)
    generate.add_argument("--m", type=int, default=None)
    generate.add_argument("--t", type=int, default=None)
    generate.add_argument("--dm", type=float, default=2.0, help="target ratio for thm53")
    _add_common(generate)
    generate.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.budget is None:
            args.budget = _default_budget()
        return args.func(args)
    except CliError as exc:
        print(f"distortion-lab: {exc}", file=sys.stderr)
        return exc.code
    except BudgetExceededError as exc:
        print(f"distortion-lab: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InstanceFormatError as exc:
        print(f"distortion-lab: {exc}", file=sys.stderr)
        return EXIT_BAD_INSTANCE


if __name__ == "__main__":
    sys.exit(main())
