"""Instance generators and JSON file I/O.

Besides seeded random profiles, the generators build the structured families
used to probe worst-case behavior: ``prop31_profile`` (cyclic first/last
blocks whose veto winner is the common second choice), ``thm36_instance``
(a one-dimensional cost gap instance, returned with its metric),
``thm51_profile`` (top-t ballots sharing one filler block), and
``thm53_instance`` (a partitioned top-t family with its designated metric).
Divisibility preconditions are checked eagerly with an error suggesting the
nearest valid n. All generators are deterministic; only ``random_profile``
consumes a seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core import (
    Lottery,
    MetricSpace,
    Profile,
    TopTProfile,
    UtilityProfile,
    validate_profile,
)

__all__ = [
    "InstanceFormatError",
    "random_profile",
    "prop31_profile",
    "thm36_instance",
    "thm51_profile",
    "thm53_instance",
    "load_instance",
    "save_instance",
    "load_metric",
    "save_metric",
    "load_utilities",
    "save_utilities",
    "load_lottery",
    "save_lottery",
]

class InstanceFormatError(ValueError):
    """A file failed to parse or violated an invariant on load."""


def random_profile(n: int, m: int, seed: int) -> Profile:
    """n independent uniformly random rankings over m alternatives."""
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    return Profile(m, tuple(tuple(int(x) for x in rng.permutation(m)) for _ in range(n)))


def _require_divisible(n: int, q: int, context: str):
    if n % q != 0:
        nearest = max(q, round(n / q) * q)
        raise ValueError(
            f"{context}: n={n} must be divisible by {q}; nearest valid n is {nearest}"
        )


def prop31_profile(n: int, m: int) -> Profile:
    """Cyclic blocks with a common second choice (alternative 0).

    For each k in 1..m-1 there are n/(m-1)-1 agents ranking k first, 0
    second and the cyclically next block leader last, plus one agent ranking
    0 first and k last. Middle positions are filled in ascending index
    order. Alternative 0 wins the veto phase on every such profile.
    """
    if m < 3:
        raise ValueError(f"need m >= 3, got m={m}")
    _require_divisible(n, m - 1, "prop31_profile")
    if n < m - 1:
        raise ValueError(f"need n >= m-1 = {m - 1}, got n={n}")
    per_block = n // (m - 1) - 1
    others = list(range(1, m))
    rankings: list[tuple[int, ...]] = []
    for k in range(1, m):
        k_next = k + 1 if k < m - 1 else 1
        middle = sorted(set(others) - {k, k_next})
        rankings.extend([(k, 0, *middle, k_next)] * per_block)
        rankings.append((0, *sorted(set(others) - {k}), k))
    return Profile(m, tuple(rankings))


def thm36_instance(m: int, n: int) -> tuple[Profile, MetricSpace]:
    """A one-dimensional instance with cost ratio (3*sqrt(m)+1)/(sqrt(m)-1).

    Alternative 0 is everyone's second choice and sits at position 2 together
    with most of the population; the block of alternatives 1..(m-1)/3 sits at
    position 0 with a thin band of agents at position 1. The social cost of
    any block-0 alternative over the cost of alternative 0 equals
    (3*sqrt(m)+1)/(sqrt(m)-1), which is 7 at m=4.

    Layout: alternative 0 is the common runner-up; blocks one, two and three
    are 1..q, q+1..2q and 2q+1..3q for q=(m-1)/3. Agents appear as: the
    position-1 band (tops from block one), then the block-two agents, then
    the block-three agents. Block-three agents rank block two above block
    one, which the returned metric forces.
    """
    if m < 4 or (m - 1) % 3 != 0:
        raise ValueError(f"need m >= 4 with m-1 divisible by 3, got m={m}")
    root = math.sqrt(m)
    n1_real = n * (1.0 - 1.0 / root) / 2.0
    n3_real = n / root
    n1, n3 = round(n1_real), round(n3_real)
    if abs(n1 - n1_real) > 1e-9 or abs(n3 - n3_real) > 1e-9:
        raise ValueError(
            f"thm36_instance: band sizes n(1-1/sqrt(m))/2={n1_real} and "
            f"n/sqrt(m)={n3_real} must be integers (try m a perfect square and "
            f"n a multiple of {2 * int(root) if root.is_integer() else 'sqrt(m)-scaled units'})"
        )
    q = (m - 1) // 3
    for size, label in ((n1, "band"), (n3, "bottom block")):
        if size % q != 0:
            raise ValueError(
                f"thm36_instance: {label} size {size} must be divisible by q={q}"
            )
    if n1 < 1 or n3 < 1:
        raise ValueError(f"thm36_instance: blocks are empty at n={n}")
    block1 = list(range(1, q + 1))
    block2 = list(range(q + 1, 2 * q + 1))
    block3 = list(range(2 * q + 1, 3 * q + 1))

    rankings: list[tuple[int, ...]] = []
    for block, count, tail in (
        (block1, n1, lambda top: [x for x in block1 if x != top] + block2),
        (block2, n1, lambda top: [x for x in block2 if x != top] + block1),
        (block3, n3, lambda top: block2 + block1),
    ):
        per_top = count // q
        for top in block:
            if block is block3:
                body = [x for x in block3 if x != top]
            else:
                body = list(block3)
            rankings.extend([(top, 0, *body, *tail(top))] * per_top)
    profile = Profile(m, tuple(rankings))

    positions = np.full(n + m, 2.0)
    positions[:n1] = 1.0  # the band of agents with tops in block one
    for x in block1:
        positions[n + x] = 0.0
    dist = np.abs(positions[:, None] - positions[None, :])
    return profile, MetricSpace(n=n, m=m, dist=dist)


def thm51_profile(n: int, m: int, t: int) -> TopTProfile:
    """Top-t ballots: m-t+1 leaders split the top slot, then common fillers.

    Alternatives 0..m-t each lead the ballots of n/(m-t+1) agents; positions
    2..t hold alternatives m-t+1..m-1 in ascending order on every ballot, so
    the remaining alternatives are never ranked.
    """
    if not (1 <= t <= m):
        raise ValueError(f"t={t} out of range for m={m}")
    _require_divisible(n, m - t + 1, "thm51_profile")
    per_leader = n // (m - t + 1)
    fillers = tuple(range(m - t + 1, m))
    prefixes: list[tuple[int, ...]] = []
    for leader in range(m - t + 1):
        prefixes.extend([(leader, *fillers)] * per_leader)
    return TopTProfile(m, t, tuple(prefixes))


def thm53_instance(
    n: int, m: int, t: int, d_m: float
) -> tuple[TopTProfile, MetricSpace]:
    """A partitioned top-t family with its designated metric.

    Alternatives split into a shortlist block of size m/3 (indices 0..m/3-1),
    m/(3t) candidate groups of size t, and a tail block of size m/3 at the
    end. Each candidate group is the full ballot of a cohort of
    g = n*t^1.5/(d_m*m^1.5) agents; the remaining agents rotate through the
    shortlist so every shortlist alternative is ranked by an equal share of
    them (exactly equal when m/3 divides their count times t). The metric
    places the first candidate group at 0, its cohort at 1 and everything
    else at 2, so distances take only the values 0, 1 and 2.
    """
    if t < 1 or m < 1 or m % (3 * t) != 0:
        raise ValueError(f"need m divisible by 3t, got m={m}, t={t}")
    # d_m*m^1.5 must be finite too, or the cohort size below would be 0 for every n.
    if not (d_m > 1.0 and math.isfinite(d_m * m * math.sqrt(m))):
        raise ValueError(f"need a finite d_m > 1, got {d_m}")
    scale = t * math.sqrt(t) / (d_m * m * math.sqrt(m))
    g_real = n * scale
    g = round(g_real)
    if abs(g - g_real) > 1e-9 or g < 1:
        suggestion = max(1, g) / scale
        raise ValueError(
            f"thm53_instance: cohort size n*t^1.5/(d_m*m^1.5)={g_real} must be a "
            f"positive integer; nearest candidate n is about {suggestion:.3f}"
        )
    groups = m // (3 * t)
    n_rem = n - g * groups
    if n_rem < 0:
        raise ValueError(f"thm53_instance: cohorts need {g * groups} agents, n={n}")
    shortlist_size = m // 3
    prefixes: list[tuple[int, ...]] = []
    for k in range(groups):
        group = tuple(range(shortlist_size + k * t, shortlist_size + (k + 1) * t))
        prefixes.extend([group] * g)
    for j in range(n_rem):
        start = (j * t) % shortlist_size
        prefixes.append(tuple((start + r) % shortlist_size for r in range(t)))
    profile = TopTProfile(m, t, tuple(prefixes))

    positions = np.full(n + m, 2.0)
    positions[:g] = 1.0  # the first cohort
    for x in range(shortlist_size, shortlist_size + t):  # the first candidate group
        positions[n + x] = 0.0
    dist = np.abs(positions[:, None] - positions[None, :])
    return profile, MetricSpace(n=n, m=m, dist=dist)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def _read_json(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InstanceFormatError(f"{path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    if not isinstance(data, dict):
        raise InstanceFormatError(f"{path}: expected a JSON object")
    return data


def _expect_fields(path, data: dict, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    for field in required:
        if field not in data:
            raise InstanceFormatError(f"{path}: missing field {field!r}")
    for field in data:
        if field not in required and field not in optional:
            raise InstanceFormatError(f"{path}: unknown field {field!r}")


def _numbers(value) -> np.ndarray:
    """A JSON array of numbers as a float array; true and false are refused,
    where ``np.asarray`` would read them as 1 and 0."""

    def has_bool(v) -> bool:
        return any(has_bool(x) for x in v) if isinstance(v, list) else type(v) is bool

    if has_bool(value):
        raise TypeError("entries must be numbers, not true or false")
    return np.asarray(value, dtype=float)


def load_instance(path: str | Path) -> Profile | TopTProfile:
    """Load a profile; the presence of ``t``/``prefixes`` marks top-t data."""
    data = _read_json(path)
    top_t = "t" in data or "prefixes" in data
    sizes, key = (("m", "n", "t"), "prefixes") if top_t else (("m", "n"), "rankings")
    _expect_fields(path, data, sizes + (key,))
    for field in sizes:
        # type() is int, not isinstance: JSON true and false are not sizes.
        if type(data[field]) is not int:
            raise InstanceFormatError(
                f"{path}: field {field!r} is {json.dumps(data[field])}, not an integer"
            )
    try:
        ballots = tuple(tuple(b) for b in data[key])
        if any(type(x) is not int for b in ballots for x in b):
            raise TypeError("ballot entries must be integers")
        p: Profile | TopTProfile = (
            TopTProfile(data["m"], data["t"], ballots) if top_t else Profile(data["m"], ballots)
        )
        count = len(ballots)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{path}: malformed ballots: {exc}")
    if count != data["n"]:
        raise InstanceFormatError(
            f"{path}: field 'n' is {data['n']} but {count} ballots are present"
        )
    issues = validate_profile(p)
    if issues:
        raise InstanceFormatError(f"{path}: invalid profile: " + "; ".join(issues))
    return p


def save_instance(p: Profile | TopTProfile, path: str | Path):
    if isinstance(p, TopTProfile):
        data = {"m": p.m, "n": p.n, "t": p.t, "prefixes": [list(b) for b in p.prefixes]}
    else:
        data = {"m": p.m, "n": p.n, "rankings": [list(b) for b in p.rankings]}
    Path(path).write_text(json.dumps(data) + "\n")


def load_metric(path: str | Path, n: int, m: int) -> MetricSpace:
    """Load a metric grid and bind it to an (n agents, m alternatives) split."""
    data = _read_json(path)
    _expect_fields(path, data, ("points", "dist"))
    if type(data["points"]) is not int:
        raise InstanceFormatError(
            f"{path}: field 'points' is {json.dumps(data['points'])}, not an integer"
        )
    if data["points"] != n + m:
        raise InstanceFormatError(
            f"{path}: metric has {data['points']} points, expected n+m={n + m}"
        )
    try:
        return MetricSpace(n=n, m=m, dist=_numbers(data["dist"]))
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{path}: invalid metric: {exc}")


def _metric_json(d: MetricSpace) -> dict:
    """The JSON object ``load_metric`` reads: a file, or a report's witness."""
    return {"points": d.n + d.m, "dist": d.dist.tolist()}


def save_metric(d: MetricSpace, path: str | Path):
    Path(path).write_text(json.dumps(_metric_json(d)) + "\n")


def load_utilities(path: str | Path) -> UtilityProfile:
    data = _read_json(path)
    _expect_fields(path, data, ("util",))
    try:
        return UtilityProfile(_numbers(data["util"]))
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{path}: invalid utilities: {exc}")


def _utilities_json(u: UtilityProfile) -> dict:
    """The JSON object ``load_utilities`` reads: a file, or a report's witness."""
    return {"util": u.util.tolist()}


def save_utilities(u: UtilityProfile, path: str | Path):
    Path(path).write_text(json.dumps(_utilities_json(u)) + "\n")


def load_lottery(path: str | Path) -> Lottery:
    data = _read_json(path)
    _expect_fields(path, data, ("prob",))
    try:
        return Lottery(_numbers(data["prob"]))
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{path}: invalid lottery: {exc}")


def save_lottery(lot: Lottery, path: str | Path):
    Path(path).write_text(json.dumps({"prob": lot.prob.tolist()}) + "\n")
