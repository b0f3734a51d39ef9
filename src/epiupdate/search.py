"""Brute-force update-equivalence search and structural probes.

Update equivalence over all pointed models is not checkable; everything
here quantifies over an explicit finite family of base models instead,
and callers must report results accordingly ("no equivalent found within
the search space", never "proved inequivalent").
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .actions import ActionModel, MultiPointedActionModel, action_update
from .bisim import pointed_sets_match
from .comm import (
    CommGraph, CommPattern, enumerate_graphs, identity_graph, make_graph,
    pattern_update,
)
from .errors import EpiupdateError
from .formulas import formula_atoms
from .models import EpistemicModel, PointedModel
from .semantics import satisfies


# An update spec remembers its results per base (see update_results) for as
# long as the spec lives; the memo takes no part in equality, hash or repr.
def _memo():
    return field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class PatternUpdate:
    """A communication pattern as an update, optionally pointed at one graph."""

    pattern: CommPattern
    graph: CommGraph | None = None
    _results: dict = _memo()

    def __post_init__(self):
        if self.graph is not None and self.graph not in self.pattern:
            raise ValueError("point must be a graph of the pattern")


@dataclass(frozen=True)
class ActionUpdate:
    """A multi-pointed action model as an update."""

    target: MultiPointedActionModel
    _results: dict = _memo()


UpdateSpec = PatternUpdate | ActionUpdate


def update_results(spec: UpdateSpec, base: PointedModel) -> list[PointedModel]:
    """All pointed models the update relates the base to (possibly none).

    The results are built once per base and spec object: a search compares
    one target with thousands of candidates on the same bases.  Each call
    returns a fresh list, so no caller changes what the spec holds.
    """
    if not isinstance(spec, (PatternUpdate, ActionUpdate)):
        raise TypeError(f"not an update spec: {spec!r}")
    hit = spec._results.get(base)
    if hit is None:
        hit = spec._results[base] = tuple(_build_results(spec, base))
    return list(hit)


def _build_results(spec: UpdateSpec, base: PointedModel) -> list[PointedModel]:
    m, w = base.model, base.point
    if isinstance(spec, PatternUpdate):
        updated = pattern_update(m, spec.pattern)
        graphs = [spec.graph] if spec.graph is not None else list(spec.pattern.graphs)
        return [PointedModel(updated, (w, g)) for g in graphs]
    # actions in model order, so the results do not follow the hash seed
    u, points = spec.target.model, spec.target.points
    live = [e for e in u.actions if e in points and satisfies(m, w, u.pre[e])]
    if not live:
        return []
    updated = action_update(m, u)
    return [PointedModel(updated, (w, e)) for e in live]


def update_equivalent_on(bases, x: UpdateSpec, y: UpdateSpec) -> bool:
    """Do the two updates agree, up to bisimilarity, on every given base?

    A target that is inexecutable on some base while the other update
    still yields results counts as structural non-equivalence.
    """
    for base in bases:
        if not pointed_sets_match(update_results(x, base), update_results(y, base)):
            return False
    return True


def default_pattern_size_cap(n_agents: int) -> int | None:
    return None if n_agents <= 2 else 4


def candidate_patterns(agents, max_pattern_size=None):
    """All nonempty graph subsets up to the cap, in a fixed deterministic order.

    A cap below 1 admits no candidate and is rejected at the call, not
    when the first candidate is drawn.
    """
    if max_pattern_size is not None and max_pattern_size < 1:
        raise ValueError(f"pattern size cap must be at least 1, not {max_pattern_size}")
    graphs = enumerate_graphs(agents)
    cap = max_pattern_size if max_pattern_size is not None else len(graphs)
    return (CommPattern([graphs[i] for i in chosen])
            for k in range(1, min(cap, len(graphs)) + 1)
            for chosen in combinations(range(len(graphs)), k))


def pattern_verdicts(bases, target: UpdateSpec, max_pattern_size=None):
    """Yield ``(pattern, verdict)`` for every candidate pattern in order:
    is the pattern update-equivalent to the target on every base?

    The search space is capped by pattern size (all patterns for two
    agents, subsets up to size four for three, unless overridden).  The
    arguments are checked at the call; the verdicts are computed lazily.
    """
    bases = list(bases)
    if not bases:
        raise ValueError("at least one base model is required")
    agents = bases[0].model.agents
    if any(b.model.agents != agents for b in bases):
        raise ValueError("all base models must share one agent set")
    if max_pattern_size is None:
        max_pattern_size = default_pattern_size_cap(len(agents))
    return ((pattern, update_equivalent_on(bases, PatternUpdate(pattern), target))
            for pattern in candidate_patterns(agents, max_pattern_size))


def find_equivalent_pattern(bases, target: UpdateSpec,
                            max_pattern_size=None) -> CommPattern | None:
    """The first pattern of :func:`pattern_verdicts` update-equivalent to
    the target on every base, if any."""
    return next((pattern for pattern, ok
                 in pattern_verdicts(bases, target, max_pattern_size) if ok), None)


def witness_round(action_model: ActionModel) -> int:
    """Smallest round count n with 4*3^n > 8*(depth+1), i.e. 3^n > 2*(depth+1).

    ``depth`` is the maximum modal depth among the action preconditions.
    """
    from .formulas import action_model_depth
    need = 2 * (action_model_depth(action_model) + 1)
    n = 0
    power = 1
    while power <= need:
        n += 1
        power *= 3
    return n


def check_circular_chain(model: EpistemicModel) -> bool:
    """Is the model an even alternating two-agent cycle?

    True iff both agents' partitions consist solely of two-world blocks
    and following a-partner / b-partner alternately walks a single cycle
    through all worlds (at least four of them).
    """
    if len(model.agents) != 2:
        raise ValueError("circular chains are defined for exactly two agents")
    a, b = model.agents
    if len(model.worlds) < 4 or len(model.worlds) % 2 != 0:
        return False

    partners = {}
    for agent in (a, b):
        partners[agent] = {}
        for blk in model.relations[agent]:
            if len(blk) != 2:
                return False
            u, v = tuple(blk)
            partners[agent][u] = v
            partners[agent][v] = u

    start = model.worlds[0]
    current, agent, steps = start, a, 0
    while True:
        current = partners[agent][current]
        agent = b if agent == a else a
        steps += 1
        if current == start and agent == a:
            break
        if steps > 2 * len(model.worlds):
            return False
    return steps == len(model.worlds)


def fresh_variable_counterexample(action_model: ActionModel, atoms):
    """A two-world base on which no finite action model matches a send-maybe round.

    Requires an atom absent from every precondition of the action model.
    The base makes all other atoms true in both worlds and the fresh atom
    true in one; one agent owns the difference, the other is uncertain.
    Returns the pair (base updated by the pattern, base updated by the
    action model); the caller checks they are not bisimilar.
    """
    atoms = sorted(set(atoms), key=str)
    used = set()
    for e in action_model.actions:
        used |= formula_atoms(action_model.pre[e])
    fresh_candidates = [p for p in atoms if p not in used]
    if not fresh_candidates:
        raise EpiupdateError(
            "no declared atom is absent from the action model's preconditions")
    fresh = fresh_candidates[0]
    owner = fresh.owner
    others = [x for x in action_model.agents if x != owner]
    if not others:
        raise EpiupdateError("need a second agent to be uncertain about the fresh atom")
    partner = others[0]

    rest = frozenset(p for p in atoms if p != fresh)
    valuation = {"w1": rest | {fresh}, "w2": rest}
    relations = {ag: [["w1", "w2"]] for ag in action_model.agents}
    relations[owner] = [["w1"], ["w2"]]
    base = EpistemicModel(["w1", "w2"], relations, valuation,
                          agents=action_model.agents)

    send_maybe = CommPattern(
        [identity_graph(base.agents), make_graph(base.agents, [(owner, partner)])],
        name="Byz")
    left = pattern_update(base, send_maybe)
    right = action_update(base, action_model)
    if right.is_empty:
        raise EpiupdateError(
            "the action model is inexecutable on the fresh-variable base; "
            "it is trivially not update equivalent to the send-maybe pattern")
    return PointedModel(left, left.worlds[0]), PointedModel(right, right.worlds[0])
