"""Ordinal voting rules, deterministic and randomized.

Every rule is a pure function from a profile to a :class:`Lottery`
(deterministic rules return a point mass). All ties break toward the lowest
alternative index, and sequential rules process agents in ascending index
order, so outcomes are reproducible by construction.

Rules that need full rankings raise ``ValueError`` when handed a top-t
profile; ``plurality`` and ``random_dictatorship`` accept both.

Full and top-t rules share one veto phase, ``_veto`` (an agent vetoes the
highest-index survivor its ballot leaves out, else its last ranked
survivor; a full ranking leaves none out), whose last target is the winner
of every veto-based rule, and one harmonic row builder, ``_anchored_rows``
(h = H_m for full rankings, 2 * H_t for prefixes). ``copeland`` and
``_anchored_rows`` compare entries of the (n, m) array ``p.positions``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Lottery,
    Profile,
    TopTProfile,
    _restrict_ballots,
    plurality_scores,
)

__all__ = [
    "VetoTrace",
    "plurality",
    "copeland",
    "plurality_veto",
    "pruned_plurality_veto",
    "random_dictatorship",
    "harmonic_rule",
    "truncated_harmonic",
    "truncated_weights",
    "top_t_det_rule",
    "top_t_truncated_harmonic",
    "mix",
    "harmonic_number",
]


def harmonic_number(k: int) -> float:
    """The k-th harmonic number, 1 + 1/2 + ... + 1/k."""
    return float(sum(1.0 / r for r in range(1, k + 1)))


def _require_full(p, rule_name: str) -> Profile:
    if isinstance(p, TopTProfile):
        raise ValueError(f"{rule_name} requires full rankings, got a top-t profile")
    return p


@dataclass(frozen=True)
class VetoTrace:
    """Audit record of one veto-by-veto elimination run.

    ``events`` holds one (agent, vetoed alternative, score after the veto)
    triple per agent in processing order; scores never go negative and the
    winner is the target of the final veto.
    """

    initial_scores: tuple[int, ...]
    events: tuple[tuple[int, int, int], ...]
    winner: int


def plurality(p: Profile | TopTProfile) -> Lottery:
    """Point mass on the alternative ranked first most often."""
    return Lottery.point_mass(p.m, int(np.argmax(plurality_scores(p))))


def copeland(p: Profile) -> Lottery:
    """Point mass on the alternative with the most pairwise wins.

    A pairwise win counts 1, a pairwise tie 1/2. ``wins[x, y]`` counts the
    agents placing x above y; the diagonal is 0 against n and adds nothing.
    """
    p = _require_full(p, "copeland")
    pos = p.positions
    wins = (pos[:, :, None] < pos[:, None, :]).sum(axis=0)
    losses = p.n - wins
    score = (wins > losses).sum(axis=1) + 0.5 * (wins == losses).sum(axis=1)
    return Lottery.point_mass(p.m, int(np.argmax(score)))


def _veto(ballots: tuple[tuple[int, ...], ...], m: int) -> list[tuple[int, int, int]]:
    """The veto phase over ``m`` alternatives, as (agent, vetoed, score after) events.

    Alternatives start with their first-place counts; those at zero are
    eliminated at once. Agents act once each in ascending index order,
    decrementing the score of the highest-index survivor their ballot leaves
    out, or if there is none, of their last ranked survivor; a score of zero
    eliminates. Scores total n against n vetoes, so the last target wins.
    """
    scores = [0] * m
    for ballot in ballots:
        scores[ballot[0]] += 1
    alive = [s > 0 for s in scores]
    events = []
    for i, ballot in enumerate(ballots):
        left_out = ()
        if len(ballot) < m:  # a full ranking leaves nothing out
            ranked = set(ballot)
            left_out = [x for x in range(m) if alive[x] and x not in ranked]
        target = left_out[-1] if left_out else next(x for x in reversed(ballot) if alive[x])
        scores[target] -= 1
        if scores[target] == 0:
            alive[target] = False
        events.append((i, target, scores[target]))
    return events


def _restricted_plurality_veto(ballots: tuple[tuple[int, ...], ...], m_sub: int) -> int:
    """Winner of the veto phase (``_veto``) on full rankings or ragged prefixes
    over ``m_sub`` alternatives."""
    if any(len(ballot) == 0 for ballot in ballots):
        raise ValueError("every agent needs a nonempty prefix")
    return _veto(ballots, m_sub)[-1][1]


def plurality_veto(p: Profile) -> tuple[Lottery, VetoTrace]:
    """Seed scores with plurality counts, then let each agent veto its
    least-preferred survivor in index order (``_veto``); the last target wins."""
    p = _require_full(p, "plurality_veto")
    events = _veto(p.ballots, p.m)
    trace = VetoTrace(
        initial_scores=tuple(int(s) for s in plurality_scores(p)),
        events=tuple(events),
        winner=events[-1][1],
    )
    return Lottery.point_mass(p.m, trace.winner), trace


def pruned_plurality_veto(p: Profile, eps: float = 1.0) -> Lottery:
    """Drop rarely-top alternatives, then run the veto phase on the rest.

    Keeps alternatives whose plurality score is at least eps*n/((6+eps)*m)
    for a finite eps > 0; the plurality winner always clears that bar, so
    the restriction is never empty. The veto winner is mapped back to
    original indices.
    """
    p = _require_full(p, "pruned_plurality_veto")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    scores = plurality_scores(p)
    threshold = eps * p.n / ((6.0 + eps) * p.m)
    keep = [x for x in range(p.m) if scores[x] >= threshold - 1e-9]
    winner = _restricted_plurality_veto(_restrict_ballots(p.rankings, keep), len(keep))
    return Lottery.point_mass(p.m, keep[winner])


def random_dictatorship(p: Profile | TopTProfile) -> Lottery:
    """Each alternative wins with probability proportional to its top count."""
    return Lottery(plurality_scores(p) / p.n)


def harmonic_rule(p: Profile) -> Lottery:
    """Sample an agent uniformly, then their rank-r choice with odds 1/r.

    Equivalently, alternative y gets probability mean over agents of
    1/(H_m * rank_i(y)); every alternative keeps positive probability, which
    is what makes the rule's worst-case cost blow up when everyone agrees
    some alternative is last.
    """
    p = _require_full(p, "harmonic_rule")
    h_m = harmonic_number(p.m)
    weights = 1.0 / (h_m * (p.positions + 1.0))
    return Lottery(weights.mean(axis=0))


def _anchored_rows(p: Profile | TopTProfile, anchor: int, h: float) -> np.ndarray:
    """(n, m) rows: 1/(h * rank) on each alternative ranked above ``anchor``
    (every ranked one if the anchor is unranked, at position m), the rest of 1
    on the anchor."""
    pos = p.positions
    rows = np.where(pos < pos[:, anchor, None], 1.0 / (h * (pos + 1)), 0.0)
    rows[:, anchor] = 1.0 - rows.sum(axis=1)
    return rows


def truncated_weights(p: Profile, anchor: int) -> np.ndarray:
    """Read-only (n, m) harmonic weights truncated at ``anchor``: agent i gives
    1/(H_m * rank_i(y)) to each y ranked above it, the rest of 1 to it, 0 below."""
    p = _require_full(p, "truncated_weights")
    if not (0 <= anchor < p.m):
        raise ValueError(f"anchor {anchor} out of range for m={p.m}")
    w = _anchored_rows(p, anchor, harmonic_number(p.m))
    w.setflags(write=False)
    return w


def truncated_harmonic(p: Profile, eps: float = 1.0) -> Lottery:
    """Anchor on the veto winner, spread eps/6 of the harmonic mass above it.

    Each agent gives probability eps/(6 * H_m * rank) to every alternative
    they rank strictly above the anchor and the remainder to the anchor, so
    the anchor keeps probability at least 1 - eps/6. Requires 0 < eps < 6.
    """
    p = _require_full(p, "truncated_harmonic")
    if not (0.0 < eps < 6.0):
        raise ValueError(f"eps must lie strictly between 0 and 6, got {eps}")
    anchor = _restricted_plurality_veto(p.rankings, p.m)
    prob = (eps / 6.0) * _anchored_rows(p, anchor, harmonic_number(p.m)).mean(axis=0)
    prob[anchor] += 1.0 - eps / 6.0
    return Lottery(prob)


BaseTopKRule = Callable[[tuple[tuple[int, ...], ...], int], int]


def top_t_det_rule(p: TopTProfile, base_rule: BaseTopKRule | None = None) -> Lottery:
    """Deterministic winner from top-t ballots.

    With t at most m/2 the plurality winner is returned outright. Otherwise
    alternatives with plurality score at least n/(2m) form the shortlist; if
    the shortlist has fewer than 2(m-t+1) members its max-plurality member
    wins, and otherwise the ballots are restricted to the shortlist and a
    pluggable base rule picks the winner from the (now nearly complete)
    restricted ballots. The default base rule is the restricted veto phase.
    """
    if not isinstance(p, TopTProfile):
        raise ValueError("top_t_det_rule expects a top-t profile")
    if base_rule is None:
        base_rule = _restricted_plurality_veto
    scores = plurality_scores(p)
    if 2 * p.t <= p.m:
        return Lottery.point_mass(p.m, int(np.argmax(scores)))
    shortlist = [x for x in range(p.m) if scores[x] >= p.n / (2.0 * p.m) - 1e-9]
    if len(shortlist) < 2 * (p.m - p.t + 1):
        # The overall plurality winner always clears the shortlist bar.
        return Lottery.point_mass(p.m, int(np.argmax(scores)))
    winner_sub = base_rule(_restrict_ballots(p.prefixes, shortlist), len(shortlist))
    return Lottery.point_mass(p.m, shortlist[winner_sub])


AnchorRule = Callable[[TopTProfile], int]


def top_t_truncated_harmonic(
    p: TopTProfile, anchor_rule: AnchorRule | None = None
) -> Lottery:
    """Truncated harmonic lottery from top-t ballots.

    Each agent gives probability 1/(2 * H_t * rank) to every ranked
    alternative they place strictly above the anchor and the rest to the
    anchor. Agents whose prefix omits the anchor treat all of their ranked
    alternatives as above it. Since the per-agent harmonic mass totals 1/2,
    the anchor always keeps probability at least 1/2.
    """
    if not isinstance(p, TopTProfile):
        raise ValueError("top_t_truncated_harmonic expects a top-t profile")
    anchor = int(np.argmax(top_t_det_rule(p).prob) if anchor_rule is None else anchor_rule(p))
    if not (0 <= anchor < p.m):
        raise ValueError(f"anchor {anchor} out of range for m={p.m}")
    return Lottery(_anchored_rows(p, anchor, 2.0 * harmonic_number(p.t)).mean(axis=0))


def mix(first: Lottery, second: Lottery, beta: float) -> Lottery:
    """Convex combination beta * first + (1 - beta) * second, renormalized."""
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if first.m != second.m:
        raise ValueError(f"lottery sizes differ: {first.m} vs {second.m}")
    v = beta * first.prob + (1.0 - beta) * second.prob
    return Lottery(v / v.sum())
