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
    EpistemicModel, _Partitioned, atom_key, ensure_capacity, labels_by, world_name,
)


class ActionModel(_Partitioned):
    """Actions, one partition per agent, and a precondition per action.

    Preconditions of hand-authored models must be free of dynamic
    modalities; :func:`compose` puts modalities in its preconditions and
    builds its models through the trusted path.  Instances compare by
    identity.
    """

    def __init__(self, actions, relations, pre, agents=None, name=None):
        actions, labels, agents = self._validated(actions, relations, agents, "action")
        pre = {e: pre[e] for e in actions}
        for e in actions:
            if has_dynamic(pre[e]):
                raise ValueError(
                    f"precondition of action {e!r} contains a dynamic modality")
        self._assign(actions, labels, pre, agents, name)

    def _assign(self, actions: tuple, labels: dict, pre: dict, agents: tuple,
                name=None):
        """The trusted path: ``labels`` per agent in the form of
        :func:`~epiupdate.models.labels_by`, ``pre`` in action order,
        ``agents`` sorted."""
        self._assign_partitions(actions, labels, agents)
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
    actions = action_model.actions
    live = [extension(model, action_model.pre[e], memo) for e in actions]
    pairs = [(i, j) for i, v in enumerate(model.worlds) for j, ext in enumerate(live) if v in ext]
    worlds = tuple((model.worlds[i], actions[j]) for i, j in pairs)
    vals = tuple(model.vals[i] for i, _ in pairs)

    labels = {}
    for a in model.agents:
        wl, el = model.labels[a], action_model.labels[a]
        labels[a] = labels_by((wl[i], el[j]) for i, j in pairs)
    return EpistemicModel._trusted(worlds, labels, vals, model.agents)


def induced_action_model(pattern: CommPattern, atoms) -> ActionModel:
    """The action model mirroring a communication pattern over a finite atom set.

    Actions are (graph, valuation) pairs with the full description of the
    valuation as precondition.  Agent ``a`` cannot tell two actions apart
    iff it hears from the same agents and the heard agents' atoms agree.
    The size, exactly ``len(pattern) * 2**len(atoms)``, must be within the world cap.
    """
    atom_list = tuple(sorted(set(atoms), key=atom_key))
    n = len(atom_list)
    ensure_capacity(len(pattern.graphs) * 2 ** n, "induced action model would have {} actions")

    subsets = [frozenset(atom_list[i] for i in range(n) if bits >> i & 1)
               for bits in range(2 ** n)]
    actions = tuple((g, q) for g in pattern.graphs for q in subsets)
    pre = {(g, q): description(q, atom_list) for (g, q) in actions}
    agents = tuple(sorted(pattern.agents))
    # what an agent receives in an action: its senders and their atoms
    masks = _sender_masks(pattern, atom_list)
    labels = {a: labels_by((g.heard[a], q & masks[g.heard[a]]) for g, q in actions)
              for a in agents}
    label = f"U({pattern.name})" if pattern.name else None
    return ActionModel._trusted(actions, labels, pre, agents, label)


def _sender_masks(pattern: CommPattern, atoms) -> dict:
    """Per sender set of the pattern, the atoms its senders own, so the
    atoms heard from them are one intersection ``fired & mask``."""
    senders = {s for g in pattern.graphs for s in g.heard.values()}
    return {s: frozenset(p for p in atoms if p.owner in s) for s in senders}


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

    fired = [val & atom_set for val in model.vals]
    worlds = tuple((v, (g, q)) for v, q in zip(model.worlds, fired)
                   for g in pattern.graphs)
    vals = tuple(val for val in model.vals for _ in pattern.graphs)

    masks = _sender_masks(pattern, atom_set)
    heard = {(q, s): q & mask for q in set(fired) for s, mask in masks.items()}
    labels = {}
    for a in model.agents:
        graph_senders = [g.heard[a] for g in pattern.graphs]
        labels[a] = labels_by((b, s, heard[q, s]) for b, q in zip(model.labels[a], fired)
                              for s in graph_senders)
    return EpistemicModel._trusted(worlds, labels, vals, model.agents)


def compose(first: ActionModel, second: ActionModel) -> ActionModel:
    """One action model equivalent to executing ``first`` then ``second``.

    The precondition of a composed action (e, f) is
    ``pre(e) & [first, e] pre(f)``: e must be executable now and f in the
    model that results.  Updating with the composition is isomorphic to
    updating with the two models in sequence.
    """
    if first.agents != second.agents:
        raise ValueError("composed action models must share one agent set")
    ensure_capacity(len(first.actions) * len(second.actions),
                    "composition would have {} actions")
    actions = tuple((e, f) for e in first.actions for f in second.actions)
    pre = {(e, f): Conj(first.pre[e], ActionBox(first, e, second.pre[f]))
           for (e, f) in actions}
    labels = {a: labels_by((x, y) for x in first.labels[a] for y in second.labels[a])
              for a in first.agents}
    return ActionModel._trusted(actions, labels, pre, first.agents)


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
    names = tuple(map(world_name, model.worlds))
    if len(set(names)) < len(names):
        raise EpiupdateError("two worlds share a name, so they cannot name two actions")
    atom_set = frozenset(atom_list)
    pre = {x: description(val & atom_set, atom_list) for x, val in zip(names, model.vals)}
    return ActionModel._trusted(names, model.labels, pre, model.agents, name)
