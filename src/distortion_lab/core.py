"""Ordinal ballots, cardinal instances, and point evaluation of distortion.

Agents and alternatives are integer-indexed from 0. Ballots are either full
strict rankings or ordered top-t prefixes; both kinds store each ballot once,
as a plain tuple of ints, best first (``Profile.rankings``,
``TopTProfile.prefixes``), and are read through one view: ``p.ballots[i]``,
``p.unranked(i)`` and the (n, m) array ``p.positions`` of each
alternative's place on each ballot (m if unranked). Each kind gives only
its fields and ``ballots``; ``n``, ``unranked`` and ``positions`` come from
one body that both share, since a full ranking is a prefix with nothing
unranked.
A cardinal instance is one of:

* a :class:`MetricSpace`, a pseudometric over the n agents followed by the
  m alternatives (costs, smaller is better), or
* a :class:`UtilityProfile`, a nonnegative n-by-m grid whose rows sum to one
  (welfare, larger is better).

``eval_distortion`` scores one fixed lottery against one fixed cardinal
instance. The worst case over all instances consistent with a ballot profile
is computed by :mod:`distortion_lab.oracles`.

Tolerance ladder used across the package: structural invariants are checked
at 1e-9, lottery normalization at 1e-12, ratio comparisons at 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

STRUCT_TOL = 1e-9
LOTTERY_TOL = 1e-12
RATIO_TOL = 1e-6

__all__ = [
    "STRUCT_TOL",
    "LOTTERY_TOL",
    "RATIO_TOL",
    "Profile",
    "TopTProfile",
    "MetricSpace",
    "UtilityProfile",
    "Lottery",
    "DistortionValue",
    "validate_profile",
    "plurality_scores",
    "truncate_profile",
    "is_metric_consistent",
    "is_utility_consistent",
    "social_cost",
    "social_welfare",
    "eval_distortion",
]


def _int_ballots(ballots) -> tuple[tuple[int, ...], ...]:
    """Ballots as int tuples; a profile needs at least one."""
    coerced = tuple(tuple(int(x) for x in ballot) for ballot in ballots)
    if not coerced:
        raise ValueError("a profile needs at least one ballot")
    return coerced


class _BallotView:
    """The ballot view both profile kinds share, read from ``ballots``."""

    @property
    def n(self) -> int:
        return len(self.ballots)

    def unranked(self, i: int) -> tuple[int, ...]:
        """The alternatives agent i leaves off their ballot, ascending; a
        full ranking leaves none."""
        ballot = self.ballots[i]
        if len(ballot) == self.m:
            return ()
        ranked = set(ballot)
        return tuple(x for x in range(self.m) if x not in ranked)

    @cached_property
    def positions(self) -> np.ndarray:
        """(n, m) array: positions[i, x] is agent i's 0-based position of x,
        m if x is unranked."""
        m = self.m
        # Filled as Python lists and converted once: a numpy assignment per
        # ballot costs more than the whole fill at these sizes.
        rows = [[m] * m for _ in self.ballots]
        for row, ballot in zip(rows, self.ballots):
            for k, x in enumerate(ballot):
                row[x] = k
        return np.array(rows, dtype=np.int64)


@dataclass(frozen=True)
class Profile(_BallotView):
    """n full rankings over m alternatives."""

    m: int
    rankings: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "rankings", _int_ballots(self.rankings))

    @property
    def ballots(self) -> tuple[tuple[int, ...], ...]:
        return self.rankings


@dataclass(frozen=True)
class TopTProfile(_BallotView):
    """n ordered top-t prefixes over m alternatives.

    Alternatives absent from a prefix are unranked: the agent weakly prefers
    every ranked alternative to every unranked one, and the relative order of
    unranked alternatives is unknown.
    """

    m: int
    t: int
    prefixes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "t", int(self.t))
        object.__setattr__(self, "prefixes", _int_ballots(self.prefixes))

    @property
    def ballots(self) -> tuple[tuple[int, ...], ...]:
        return self.prefixes


def validate_profile(p: Profile | TopTProfile) -> list[str]:
    """Check profile well-formedness, returning violations as data.

    An empty list means the profile is valid. Violations name the offending
    agent and alternative so callers can surface precise diagnostics.
    """
    issues: list[str] = []
    if p.m < 1:
        issues.append(f"m={p.m} must be at least 1")
    if isinstance(p, TopTProfile):
        if not (1 <= p.t <= p.m):
            issues.append(f"t={p.t} out of range for m={p.m}")
        want_len, kind = p.t, "prefix"
    else:
        want_len, kind = p.m, "ranking"
    for i, order in enumerate(p.ballots):
        if len(order) != want_len:
            issues.append(
                f"{kind} of agent {i} has length {len(order)}, expected {want_len}"
            )
        seen: set[int] = set()
        for x in order:
            if not (0 <= x < p.m):
                issues.append(f"alternative {x} out of range for agent {i}")
            elif x in seen:
                issues.append(f"duplicate alternative {x} for agent {i}")
            seen.add(x)
    return issues


def plurality_scores(p: Profile | TopTProfile) -> np.ndarray:
    """Number of agents ranking each alternative first, as an (m,) int array."""
    tops = [ballot[0] for ballot in p.ballots]
    return np.bincount(np.asarray(tops, dtype=np.int64), minlength=p.m)


def _restrict_ballots(
    ballots: tuple[tuple[int, ...], ...], kept: list[int]
) -> tuple[tuple[int, ...], ...]:
    """Drop every alternative not in ``kept`` (ascending) from each ballot and
    re-index the rest so ``kept[new]`` is the original index."""
    new_of_old = {old: new for new, old in enumerate(kept)}
    return tuple(
        tuple(new_of_old[x] for x in ballot if x in new_of_old) for ballot in ballots
    )


def truncate_profile(p: Profile, t: int) -> TopTProfile:
    """Keep only each agent's top-t prefix."""
    if not (1 <= t <= p.m):
        raise ValueError(f"t={t} out of range for m={p.m}")
    return TopTProfile(p.m, t, tuple(ballot[:t] for ballot in p.ballots))


@dataclass(frozen=True, eq=False)
class MetricSpace:
    """A pseudometric over n agents followed by m alternatives.

    ``dist`` is a symmetric (n+m)-by-(n+m) grid with zero diagonal satisfying
    the triangle inequality within 1e-9; agents occupy indices 0..n-1 and
    alternative x sits at index n+x. The constructor normalizes within the
    same tolerance (symmetrizes, zeroes the diagonal, clips negative dust)
    and rejects anything worse.
    """

    n: int
    m: int
    dist: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))
        a = np.array(self.dist, dtype=float)
        size = self.n + self.m
        if a.ndim != 2 or a.shape != (size, size):
            raise ValueError(f"dist must be ({size}, {size}), got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("dist entries must be finite")
        if (a < -LOTTERY_TOL).any():
            raise ValueError("dist entries must be nonnegative")
        if np.abs(a - a.T).max(initial=0.0) > STRUCT_TOL:
            raise ValueError("dist must be symmetric within 1e-9")
        if np.abs(np.diagonal(a)).max(initial=0.0) > STRUCT_TOL:
            raise ValueError("dist diagonal must be zero within 1e-9")
        a = np.maximum((a + a.T) / 2.0, 0.0)
        np.fill_diagonal(a, 0.0)
        for k in range(size):
            slack = a - (a[:, k, None] + a[None, k, :])
            if slack.max() > STRUCT_TOL:
                i, j = np.unravel_index(np.argmax(slack), slack.shape)
                raise ValueError(
                    f"triangle inequality violated: d({i},{j}) > d({i},{k}) + d({k},{j})"
                )
        a.setflags(write=False)
        object.__setattr__(self, "dist", a)

    @cached_property
    def agent_alt(self) -> np.ndarray:
        """(n, m) view of agent-to-alternative distances."""
        return self.dist[: self.n, self.n :]


@dataclass(frozen=True, eq=False)
class UtilityProfile:
    """Unit-sum utilities: a nonnegative (n, m) grid, each row summing to 1."""

    util: np.ndarray

    def __post_init__(self):
        u = np.array(self.util, dtype=float)
        if u.ndim != 2:
            raise ValueError(f"util must be 2-D, got shape {u.shape}")
        if not np.isfinite(u).all():
            raise ValueError("util entries must be finite")
        if (u < -STRUCT_TOL).any():
            raise ValueError("util entries must be nonnegative")
        rows = u.sum(axis=1)
        if np.abs(rows - 1.0).max(initial=0.0) > STRUCT_TOL:
            bad = int(np.argmax(np.abs(rows - 1.0)))
            raise ValueError(f"row {bad} sums to {rows[bad]}, expected 1 within 1e-9")
        u = np.maximum(u, 0.0)
        u.setflags(write=False)
        object.__setattr__(self, "util", u)

    @property
    def n(self) -> int:
        return self.util.shape[0]

    @property
    def m(self) -> int:
        return self.util.shape[1]


@dataclass(frozen=True, eq=False)
class Lottery:
    """A probability distribution over the m alternatives."""

    prob: np.ndarray

    def __post_init__(self):
        v = np.array(self.prob, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"prob must be 1-D, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("prob entries must be finite")
        if (v < -LOTTERY_TOL).any():
            raise ValueError("prob entries must be nonnegative")
        if abs(v.sum() - 1.0) > LOTTERY_TOL:
            raise ValueError(f"prob sums to {v.sum()}, expected 1 within 1e-12")
        v = np.maximum(v, 0.0)
        v.setflags(write=False)
        object.__setattr__(self, "prob", v)

    @property
    def m(self) -> int:
        return self.prob.shape[0]

    @classmethod
    def point_mass(cls, m: int, winner: int) -> "Lottery":
        v = np.zeros(m)
        v[winner] = 1.0
        return cls(v)

    def support(self) -> tuple[int, ...]:
        return tuple(int(x) for x in np.nonzero(self.prob > 0.0)[0])


@dataclass(frozen=True)
class DistortionValue:
    """A distortion ratio: finite (at least 1 within 1e-9) or unbounded.

    Unbounded is encoded as ``math.inf`` so ordering comparisons work, but
    callers should branch on ``is_unbounded`` rather than testing the float.
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v):
            raise ValueError("distortion cannot be NaN")
        if not math.isinf(v) and v < 1.0 - STRUCT_TOL:
            raise ValueError(f"finite distortion must be >= 1, got {v}")
        object.__setattr__(self, "value", v)

    @classmethod
    def finite(cls, x: float) -> "DistortionValue":
        if math.isinf(x):
            raise ValueError("finite() requires a finite value")
        return cls(x)

    @classmethod
    def unbounded(cls) -> "DistortionValue":
        return cls(math.inf)

    @property
    def is_unbounded(self) -> bool:
        return math.isinf(self.value)

    @property
    def is_finite(self) -> bool:
        return not math.isinf(self.value)

    def as_json(self) -> "float | str":
        return "unbounded" if self.is_unbounded else self.value

    def __str__(self) -> str:
        return "inf" if self.is_unbounded else repr(self.value)


def _consistency_chain(p: Profile | TopTProfile, i: int) -> list[tuple[int, int]]:
    """(better, worse) pairs whose pairwise order agent i's ballot pins down.

    The consecutive ranked pairs, plus (last ranked, x) for each unranked x;
    transitivity covers the rest. A full ranking has no unranked pairs.
    """
    ballot = p.ballots[i]
    pairs = [(ballot[k], ballot[k + 1]) for k in range(len(ballot) - 1)]
    pairs.extend((ballot[-1], x) for x in p.unranked(i))
    return pairs


def _chain_consistent(grid: np.ndarray, p: Profile | TopTProfile) -> bool:
    """Whether each agent's row of ``grid`` weakly rises (within 1e-9) along
    their consistency chain, from better to worse."""
    for i in range(p.n):
        for better, worse in _consistency_chain(p, i):
            if grid[i, better] > grid[i, worse] + STRUCT_TOL:
                return False
    return True


def is_metric_consistent(d: MetricSpace, p: Profile | TopTProfile) -> bool:
    """Whether each agent weakly prefers closer alternatives under ``d``."""
    if d.n != p.n or d.m != p.m:
        raise ValueError(
            f"dimension mismatch: metric is ({d.n}, {d.m}), profile is ({p.n}, {p.m})"
        )
    return _chain_consistent(d.agent_alt, p)


def is_utility_consistent(u: UtilityProfile, p: Profile | TopTProfile) -> bool:
    """Whether each agent's utilities weakly decrease along their ballot.

    For top-t profiles the ranked prefix must be non-increasing and every
    unranked utility must be at most every ranked utility.
    """
    if u.n != p.n or u.m != p.m:
        raise ValueError(
            f"dimension mismatch: utilities are ({u.n}, {u.m}), profile is ({p.n}, {p.m})"
        )
    # Negation is exact, so -u rises within 1e-9 exactly where u falls within it.
    return _chain_consistent(-u.util, p)


def social_cost(d: MetricSpace, x: int) -> float:
    """Total distance from all agents to alternative x."""
    return float(d.agent_alt[:, x].sum())


def social_welfare(u: UtilityProfile, x: int) -> float:
    """Total utility of alternative x across all agents."""
    return float(u.util[:, x].sum())


def eval_distortion(
    lot: Lottery, cardinal: MetricSpace | UtilityProfile
) -> DistortionValue:
    """Distortion of a fixed lottery on one fixed cardinal instance.

    Metric: expected social cost of the lottery over the optimum cost.
    Utilitarian: optimum welfare over the expected welfare of the lottery.
    A zero denominator with numerator above 1e-12 is unbounded; if both
    vanish the lottery is as good as the optimum and the ratio is 1.
    """
    if isinstance(cardinal, MetricSpace):
        if lot.m != cardinal.m:
            raise ValueError(
                f"lottery over {lot.m} alternatives, metric has {cardinal.m}"
            )
        costs = cardinal.agent_alt.sum(axis=0)
        num = float(lot.prob @ costs)
        den = float(costs.min())
    elif isinstance(cardinal, UtilityProfile):
        if lot.m != cardinal.m:
            raise ValueError(
                f"lottery over {lot.m} alternatives, utilities have {cardinal.m}"
            )
        welfare = cardinal.util.sum(axis=0)
        num = float(welfare.max())
        den = float(lot.prob @ welfare)
    else:
        raise TypeError(f"expected MetricSpace or UtilityProfile, got {type(cardinal)}")
    if den == 0.0:
        if num > LOTTERY_TOL:
            return DistortionValue.unbounded()
        return DistortionValue.finite(1.0)
    return DistortionValue.finite(num / den)
