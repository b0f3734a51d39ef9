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
from .models import EpistemicModel, _Partitioned, atom_key, ensure_capacity


class ActionModel(_Partitioned):
    """Actions, one partition per agent, and a precondition per action.

    Preconditions of hand-authored models must be free of dynamic
    modalities; models produced by :func:`compose` carry modalities in
    their preconditions and are constructed with ``allow_dynamic_pre``.
    Instances compare by identity.
    """

    def __init__(self, actions, relations, pre, agents=None, name=None,
                 atoms=None, allow_dynamic_pre=False):
        acts = self.actions = self._init_partitions(actions, relations, agents, "action")
        self.action_set = frozenset(acts)
        self.pre = {e: pre[e] for e in acts}
        self.name = name
        self.atoms = tuple(sorted(atoms, key=atom_key)) if atoms is not None else None

        if not allow_dynamic_pre:
            for e in acts:
                if has_dynamic(self.pre[e]):
                    raise ValueError(
                        f"precondition of action {e!r} contains a dynamic modality")

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
    from .semantics import _sat

    if set(action_model.agents) != set(model.agents):
        raise ValueError("action model and model must share one agent set")
    ensure_capacity(len(model.worlds) * len(action_model.actions))

    worlds = [(v, e)
              for v in model.worlds
              for e in action_model.actions
              if _sat(model, v, action_model.pre[e])]
    valuation = {(v, e): model.valuation[v] for (v, e) in worlds}

    relations = {}
    for a in model.agents:
        wmap = model.block_map(a)
        emap = action_model.block_map(a)
        cells: dict[tuple, list] = {}
        for v, e in worlds:
            cells.setdefault((wmap[v], emap[e]), []).append((v, e))
        relations[a] = [frozenset(c) for c in cells.values()]

    return EpistemicModel(worlds, relations, valuation, agents=model.agents)


def induced_action_model(pattern: CommPattern, atoms,
                         max_actions: int = 1 << 20) -> ActionModel:
    """The action model mirroring a communication pattern over a finite atom set.

    Actions are (graph, valuation) pairs with the full description of the
    valuation as precondition.  Agent ``a`` cannot tell two actions apart
    iff it hears from the same agents and the heard agents' atoms agree.
    The size is exactly ``len(pattern) * 2**len(atoms)``.
    """
    atom_list = tuple(sorted(set(atoms), key=atom_key))
    n = len(atom_list)
    total = len(pattern.graphs) * (2 ** n)
    if total > max_actions:
        raise EpiupdateError(
            f"induced action model would have {total} actions "
            f"(cap {max_actions}); apply it lazily instead of materializing")

    subsets = []
    for bits in range(2 ** n):
        subsets.append(frozenset(atom_list[i] for i in range(n) if bits >> i & 1))

    actions = [(g, q) for g in pattern.graphs for q in subsets]
    pre = {(g, q): description(q, atom_list) for (g, q) in actions}

    relations = {}
    for a in pattern.agents:
        cells: dict[tuple, list] = {}
        for g, q in actions:
            senders = g.heard[a]
            heard_val = frozenset(p for p in q if p.owner in senders)
            cells.setdefault((senders, heard_val), []).append((g, q))
        relations[a] = [frozenset(c) for c in cells.values()]

    label = f"U({pattern.name})" if pattern.name else None
    return ActionModel(actions, relations, pre, agents=pattern.agents,
                       name=label, atoms=atom_list)


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
    worlds = [(v, (g, fired[v])) for v in model.worlds for g in pattern.graphs]
    valuation = {(v, act): model.valuation[v] for (v, act) in worlds}

    relations = {}
    for a in model.agents:
        wmap = model.block_map(a)
        cells: dict[tuple, list] = {}
        for v, (g, q) in worlds:
            senders = g.heard[a]
            heard_val = frozenset(p for p in q if p.owner in senders)
            cells.setdefault((wmap[v], senders, heard_val), []).append((v, (g, q)))
        relations[a] = [frozenset(c) for c in cells.values()]

    return EpistemicModel(worlds, relations, valuation, agents=model.agents)


def compose(first: ActionModel, second: ActionModel) -> ActionModel:
    """One action model equivalent to executing ``first`` then ``second``.

    The precondition of a composed action (e, f) is
    ``pre(e) & [first, e] pre(f)``: e must be executable now and f in the
    model that results.  Updating with the composition is isomorphic to
    updating with the two models in sequence.
    """
    if first.agents != second.agents:
        raise ValueError("composed action models must share one agent set")
    actions = [(e, f) for e in first.actions for f in second.actions]
    pre = {(e, f): Conj(first.pre[e], ActionBox(first, e, second.pre[f]))
           for (e, f) in actions}
    relations = {}
    for a in first.agents:
        emap = first.block_map(a)
        fmap = second.block_map(a)
        cells: dict[tuple, list] = {}
        for e, f in actions:
            cells.setdefault((emap[e], fmap[f]), []).append((e, f))
        relations[a] = [frozenset(c) for c in cells.values()]
    return ActionModel(actions, relations, pre, agents=first.agents,
                       allow_dynamic_pre=True)


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

    Each world becomes an action with the full description of the world's
    valuation (over the given atoms) as precondition; relations carry over.
    """
    atom_list = tuple(sorted(set(atoms), key=atom_key))
    pre = {w: description(model.valuation[w] & frozenset(atom_list), atom_list)
           for w in model.worlds}
    relations = {a: [set(b) for b in model.relations[a]] for a in model.agents}
    return ActionModel(model.worlds, relations, pre, agents=model.agents,
                       name=name, atoms=atom_list)
