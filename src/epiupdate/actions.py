"""Action models, the restricted product update, induced models, composition.

An action model is structured like an epistemic model but carries a
precondition formula per action instead of a valuation.  Updating a model
restricts the world/action product to pairs whose precondition holds; the
result keeps source valuations and may legitimately be empty (an action
model need not be executable anywhere).
"""
from __future__ import annotations

from dataclasses import dataclass

from .comm import CommPattern
from .errors import EpiupdateError
from .formulas import Conj, Formula, ActionBox, description, has_dynamic
from .models import (
    EpistemicModel, _Partitioned, atom_key, ensure_capacity, partition_by, world_name,
)


class ActionModel(_Partitioned):
    """Actions, one partition per agent, and a precondition per action.

    Preconditions of hand-authored models must be free of dynamic
    modalities; :func:`compose` puts modalities in its preconditions and
    builds its models through the trusted path.  Instances compare by
    identity.
    """

    def __init__(self, actions, relations, pre, agents=None, name=None):
        actions, relations, agents = self._validated(actions, relations, agents, "action")
        pre = {e: pre[e] for e in actions}
        for e in actions:
            if has_dynamic(pre[e]):
                raise ValueError(
                    f"precondition of action {e!r} contains a dynamic modality")
        self._assign(actions, relations, pre, agents, name)

    def _assign(self, actions: tuple, relations: dict, pre: dict, agents: tuple,
                name=None):
        """The trusted path: ``relations`` in the form of
        :func:`~epiupdate.models.partition_by`, ``pre`` in action order,
        ``agents`` sorted."""
        self._assign_partitions(actions, relations, agents)
        self.actions = actions
        self.action_set = frozenset(actions)
        self.pre = pre
        self.name = name

    def __len__(self):
        return len(self.actions)

    def __repr__(self):
        label = self.name or "ActionModel"
        return f"<{label}: {len(self.actions)} actions>"


@dataclass(frozen=True)
class MultiPointedActionModel:
    """An action model with a nonempty set of designated actions."""

    model: ActionModel
    points: frozenset

    def __post_init__(self):
        object.__setattr__(self, "points", frozenset(self.points))
        if not self.points:
            raise ValueError("point set must be nonempty")
        if not self.points <= self.model.action_set:
            raise ValueError("points must be actions of the model")


def action_update(model: EpistemicModel, action_model: ActionModel) -> EpistemicModel:
    """Product of a model with an action model, restricted to satisfied preconditions.

    The result may be empty when no precondition holds anywhere; pointed
    queries against an empty result raise, plain values are fine.
    """
    from .semantics import extension

    if set(action_model.agents) != set(model.agents):
        raise ValueError("action model and model must share one agent set")
    ensure_capacity(len(model.worlds) * len(action_model.actions))

    memo = {}
    live = {e: extension(model, action_model.pre[e], memo) for e in action_model.actions}
    worlds = tuple((v, e) for v in model.worlds for e in action_model.actions
                   if v in live[e])
    valuation = {(v, e): model.valuation[v] for (v, e) in worlds}

    relations = {}
    for a in model.agents:
        wmap = model.block_map(a)
        emap = action_model.block_map(a)
        relations[a] = partition_by(worlds, lambda ve: (wmap[ve[0]], emap[ve[1]]))
    return EpistemicModel._trusted(worlds, relations, valuation, model.agents)


# larger induced models are applied lazily (apply_induced, induced_chain)
MAX_INDUCED_ACTIONS = 1 << 20


def induced_action_model(pattern: CommPattern, atoms) -> ActionModel:
    """The action model mirroring a communication pattern over a finite atom set.

    Actions are (graph, valuation) pairs with the full description of the
    valuation as precondition.  Agent ``a`` cannot tell two actions apart
    iff it hears from the same agents and the heard agents' atoms agree.
    The size is exactly ``len(pattern) * 2**len(atoms)``.
    """
    atom_list = tuple(sorted(set(atoms), key=atom_key))
    n = len(atom_list)
    total = len(pattern.graphs) * (2 ** n)
    if total > MAX_INDUCED_ACTIONS:
        raise EpiupdateError(
            f"induced action model would have {total} actions "
            f"(cap {MAX_INDUCED_ACTIONS}); apply it lazily instead of materializing")

    subsets = [frozenset(atom_list[i] for i in range(n) if bits >> i & 1)
               for bits in range(2 ** n)]
    actions = tuple((g, q) for g in pattern.graphs for q in subsets)
    pre = {(g, q): description(q, atom_list) for (g, q) in actions}
    agents = tuple(sorted(pattern.agents))
    relations = {a: partition_by(actions, lambda gq: _heard_key(a, *gq)) for a in agents}
    label = f"U({pattern.name})" if pattern.name else None
    return ActionModel._trusted(actions, relations, pre, agents, label)


def _heard_key(agent, graph, fired):
    """What ``agent`` receives in an induced action: its senders and their atoms."""
    senders = graph.heard[agent]
    return senders, _heard_atoms(senders, fired)


def _heard_atoms(senders, fired):
    return frozenset(p for p in fired if p.owner in senders)


def apply_induced(model: EpistemicModel, pattern: CommPattern, atoms) -> EpistemicModel:
    """Update with the induced action model without materializing it.

    Because every precondition is a complete description over the atom
    set, exactly one valuation component fires per world and graph; the
    result equals ``action_update(model, induced_action_model(pattern,
    atoms))`` world for world, including identifiers.
    """
    if set(pattern.agents) != set(model.agents):
        raise ValueError("pattern and model must share one agent set")
    atom_set = frozenset(atoms)
    ensure_capacity(len(model.worlds) * len(pattern.graphs))

    fired = {v: model.valuation[v] & atom_set for v in model.worlds}
    worlds = tuple((v, (g, fired[v])) for v in model.worlds for g in pattern.graphs)
    valuation = {(v, act): model.valuation[v] for (v, act) in worlds}

    # The blocks partition_by gives for the key (block of v, *_heard_key),
    # in the same order.  Worlds run source by source, graphs in pattern
    # order; the heard atoms depend only on the fired valuation and the
    # sender set, so each pair of those is computed once per call.
    heard_atoms = {}
    relations = {}
    for a in model.agents:
        wmap = model.block_map(a)
        heard = [g.heard[a] for g in pattern.graphs]
        cells = {}
        products = iter(worlds)
        for v in model.worlds:
            blk, q = wmap[v], fired[v]
            for s in heard:
                h = heard_atoms.get((q, s))
                if h is None:
                    h = heard_atoms[q, s] = _heard_atoms(s, q)
                cells.setdefault((blk, s, h), []).append(next(products))
        relations[a] = tuple(frozenset(c) for c in cells.values())
    return EpistemicModel._trusted(worlds, relations, valuation, model.agents)


def compose(first: ActionModel, second: ActionModel) -> ActionModel:
    """One action model equivalent to executing ``first`` then ``second``.

    The precondition of a composed action (e, f) is
    ``pre(e) & [first, e] pre(f)``: e must be executable now and f in the
    model that results.  Updating with the composition is isomorphic to
    updating with the two models in sequence.
    """
    if first.agents != second.agents:
        raise ValueError("composed action models must share one agent set")
    actions = tuple((e, f) for e in first.actions for f in second.actions)
    pre = {(e, f): Conj(first.pre[e], ActionBox(first, e, second.pre[f]))
           for (e, f) in actions}
    relations = {}
    for a in first.agents:
        emap = first.block_map(a)
        fmap = second.block_map(a)
        relations[a] = partition_by(actions, lambda ef: (emap[ef[0]], fmap[ef[1]]))
    return ActionModel._trusted(actions, relations, pre, first.agents)


def skip_model(agents, name="skip") -> ActionModel:
    """The one-action model with a true precondition: updating changes nothing."""
    from .formulas import TRUE
    ags = tuple(sorted(agents))
    return ActionModel(["skip"], {a: [["skip"]] for a in ags}, {"skip": TRUE},
                       agents=ags, name=name)


def announce(f: Formula, agents, name=None) -> ActionModel:
    """Public announcement: a single action with precondition ``f``."""
    ags = tuple(sorted(agents))
    return ActionModel(["ann"], {a: [["ann"]] for a in ags}, {"ann": f},
                       agents=ags, name=name)


def whether_announce(f: Formula, agents, name=None) -> ActionModel:
    """Public announcement whether ``f``: two mutually distinguishable actions."""
    from .formulas import Neg
    ags = tuple(sorted(agents))
    relations = {a: [["yes"], ["no"]] for a in ags}
    return ActionModel(["yes", "no"], relations, {"yes": f, "no": Neg(f)},
                       agents=ags, name=name)


def model_as_action_model(model: EpistemicModel, atoms, name=None) -> ActionModel:
    """Copy a model into an action model whose preconditions describe the valuations.

    Each world becomes an action named by the world's name (``00.Rab``)
    with the full description of the world's valuation (over the given
    atoms) as precondition; relations carry over.
    """
    atom_list = tuple(sorted(set(atoms), key=atom_key))
    names = {w: world_name(w) for w in model.worlds}
    if len(set(names.values())) < len(names):
        raise EpiupdateError("two worlds share a name, so they cannot name two actions")
    pre = {names[w]: description(model.valuation[w] & frozenset(atom_list), atom_list)
           for w in model.worlds}
    relations = {a: tuple(frozenset(names[w] for w in blk) for blk in model.relations[a])
                 for a in model.agents}
    return ActionModel._trusted(tuple(names.values()), relations, pre, model.agents, name)
