"""Workspaces: named agents, atoms, models, patterns, action models, formulas.

A workspace file is a single JSON document::

    {
      "agents": ["a", "b"],
      "atoms": [{"base": "p", "owner": "a"}, ...],
      "models": {
        "M": {"worlds": [{"id": "w1", "val": ["p_a"]}, ...],
              "relations": {"a": [["w1"], ["w2"]], "b": [["w1", "w2"]]}}
      },
      "patterns": {"IS": ["{a->b}", "{b->a}", "{a->b, b->a}"]},
      "action_models": {
        "reveal": {"actions": [{"id": "yes", "pre": "p_a"}, ...],
                   "relations": {"a": [["yes"], ["no"]], ...}}
      },
      "formulas": {"goal": "K b p_a"}
    }

Relations are given as block lists.  All names must be unique across the
workspace so that ``[NAME]`` in formulas resolves unambiguously.

The workspace is the one name table, checked when it is made: agents and
atom bases are identifiers a formula can write, no agent is a reserved
word such as ``K``, and every atom's owner is an agent.
:func:`load_workspace` makes this table before it builds any model, and
:func:`parse_model_expr` resolves every name of a model expression before
:func:`build_model_expr` builds anything.  That loop takes the steps of
every command, ``update``'s included, and refuses an action step that
leaves no world.
"""
from __future__ import annotations

import json

from .actions import ActionModel, induced_action_model
from .comm import CommPattern, parse_graph_literal
from .errors import EpiupdateError, UnknownNameError
from .fixtures import (
    byz_initial_model, byz_pattern, identity_pattern, immediate_snapshot,
    skip, sq_model, universal_pattern, P_A, P_B, Q_A, AGENTS_AB,
)
from .history import View
from .models import (
    Atom, EpistemicModel, atom_key, atom_named, blocks_of, check_owners, _sorted_agents,
    world_name,
)
from .parser import IDENT, RESERVED, parse_formula


_TABLES = {"model": "models", "pattern": "patterns", "action model": "action_models"}
# the kind of name each update operator takes, as a model expression or `update` step
OPERAND_KINDS = {"odot": "pattern", "otimes": "action model"}


class Workspace:
    def __init__(self, agents, atoms, models=None, patterns=None,
                 action_models=None, formulas=None):
        self.agents = _sorted_agents(agents)
        self.atoms = {str(p): p for p in sorted(set(atoms), key=atom_key)}
        unwritable = ([f"agent {a!r}" for a in self.agents
                       if a in RESERVED or not IDENT.fullmatch(a)]
                      + [f"atom base {p.base!r}" for p in self.atoms.values()
                         if not IDENT.fullmatch(p.base)])
        if unwritable:
            raise ValueError(f"{unwritable[0]} cannot be written in a formula")
        check_owners(self.atoms.values(), self.agents)
        self.models = dict(models or {})
        self.patterns = dict(patterns or {})
        self.action_models = dict(action_models or {})
        self.formulas = dict(formulas or {})
        names = [*self.models, *self.patterns, *self.action_models, *self.formulas]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise UnknownNameError(f"duplicate workspace names: {sorted(dupes)}")

    @property
    def atom_set(self) -> frozenset:
        return frozenset(self.atoms.values())

    def lookup(self, kind: str, name: str):
        """The model, pattern or action model (``kind``) called ``name``."""
        table = getattr(self, _TABLES[kind])
        if name not in table:
            raise UnknownNameError(f"unknown {kind} {name!r}")
        return table[name]

    def parse(self, text: str):
        return parse_formula(text, self)


def default_workspace() -> Workspace:
    """The built-in workspace: Sq, the send-maybe base model M, Byz, IS, skip."""
    return Workspace(
        agents=AGENTS_AB,
        atoms=[P_A, P_B, Q_A],
        models={"Sq": sq_model(), "M": byz_initial_model()},
        patterns={
            "I": identity_pattern(),
            "U": universal_pattern(),
            "Byz": byz_pattern(),
            "IS": immediate_snapshot(),
        },
        action_models={"skip": skip()},
    )


# -- JSON (de)serialization ---------------------------------------------------


def model_from_json(obj, agents, atoms_by_name) -> EpistemicModel:
    worlds = [w["id"] for w in obj["worlds"]]
    valuation = {
        w["id"]: {atom_named(atoms_by_name, s) for s in w.get("val", [])}
        for w in obj["worlds"]
    }
    return EpistemicModel(worlds, obj["relations"], valuation, agents=agents)


def _named_relations(model, names: list) -> dict:
    """Each agent's blocks as sorted lists of names, given by position."""
    return {a: [sorted(names[k] for k in blk)
                for blk in blocks_of(range(len(names)), model.labels[a])]
            for a in model.agents}


def model_to_json(model: EpistemicModel) -> dict:
    atoms = frozenset().union(*model.vals)
    base_atoms = sorted((p for p in atoms if isinstance(p, Atom)), key=atom_key)
    # the longest view prints first: one past the cap fails whatever the hash order
    history = sorted((p for p in atoms if not isinstance(p, Atom)), reverse=True,
                     key=lambda p: p.printed_length() if isinstance(p, View) else 0)
    history_atoms = sorted(set(map(str, history)))
    names = list(map(world_name, model.worlds))
    out = {
        "agents": list(model.agents),
        "atoms": [{"base": p.base, "owner": p.owner} for p in base_atoms],
        "worlds": [{"id": x, "val": sorted(map(str, val))}
                   for x, val in zip(names, model.vals)],
        "relations": _named_relations(model, names),
    }
    if history_atoms:
        out["history_atoms"] = history_atoms
    return out


def action_model_from_json(obj, agents, workspace: Workspace, name=None) -> ActionModel:
    actions = [e["id"] for e in obj["actions"]]
    pre = {e["id"]: workspace.parse(e["pre"]) for e in obj["actions"]}
    return ActionModel(actions, obj["relations"], pre, agents=agents, name=name)


def action_model_to_json(model: ActionModel) -> dict:
    from .formulas import format_formula
    from .models import _component_name
    names = list(map(_component_name, model.actions))
    return {
        "agents": list(model.agents),
        "actions": [{"id": x, "pre": format_formula(model.pre[e])}
                    for x, e in zip(names, model.actions)],
        "relations": _named_relations(model, names),
    }


# The shape of a workspace document: a dict lists its keys ("?" marks an
# optional one, "*" stands for every key), a one-element list a list of
# such values, and ``str`` a string.
_BLOCKS = {"*": [[str]]}
_DOCUMENT = {
    "agents": [str],
    "atoms?": [{"base": str, "owner": str}],
    "models?": {"*": {"worlds": [{"id": str, "val?": [str]}], "relations": _BLOCKS}},
    "patterns?": {"*": [str]},
    "action_models?": {"*": {"actions": [{"id": str, "pre": str}], "relations": _BLOCKS}},
    "formulas?": {"*": str},
}


def _check_shape(value, shape, path: str) -> None:
    """Raise ValueError naming the path, e.g. ``models.M.worlds: missing``."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{path or 'workspace'}: expected an object")
        prefix = f"{path}." if path else ""
        for key, sub in shape.items():
            name = key.rstrip("?")
            if key == "*":
                for item_name, item in value.items():
                    _check_shape(item, sub, prefix + item_name)
            elif name in value:
                _check_shape(value[name], sub, prefix + name)
            elif name == key:
                raise ValueError(f"{prefix}{key}: missing")
    elif isinstance(shape, list):
        if not isinstance(value, list):
            raise ValueError(f"{path}: expected a list")
        for i, item in enumerate(value):
            _check_shape(item, shape[0], f"{path}[{i}]")
    elif not isinstance(value, str):
        raise ValueError(f"{path}: expected a string")


def load_workspace(path) -> Workspace:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise EpiupdateError("workspace: nested too deeply") from None
    _check_shape(doc, _DOCUMENT, "")
    # The name table first: agents, atoms and every table's names.  Its
    # tables hold the document's entries until each is resolved below.
    ws = Workspace(doc["agents"], [Atom(o["base"], o["owner"]) for o in doc.get("atoms", [])],
                   models=doc.get("models"), patterns=doc.get("patterns"),
                   action_models=doc.get("action_models"), formulas=doc.get("formulas"))
    ws.models = {name: model_from_json(obj, ws.agents, ws.atoms)
                 for name, obj in ws.models.items()}
    ws.patterns = {name: CommPattern([parse_graph_literal(lit, ws.agents) for lit in literals],
                                     name=name)
                   for name, literals in ws.patterns.items()}
    # a precondition may name the action models before its own
    objs, ws.action_models = ws.action_models, {}
    for name, obj in objs.items():
        ws.action_models[name] = action_model_from_json(obj, ws.agents, ws, name=name)
    for text in ws.formulas.values():
        ws.parse(text)
    return ws


# -- model reference expressions ----------------------------------------------


def parse_model_expr(ws: Workspace, text: str) -> tuple:
    """The base model and the steps of a model expression, with its syntax
    checked and every name resolved, and nothing built.  A step is
    ``("odot", pattern)``, ``("otimes", action model)`` or, for ``otimes
    U(NAME)``, ``("U", pattern)``, whose induced model
    :func:`build_model_expr` builds when it takes the step."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise UnknownNameError("empty model expression")
    base, rest, steps = ws.lookup("model", tokens[0]), tokens[1:], []
    while rest:
        op, *rest = rest
        if op not in ("odot", "otimes"):
            raise UnknownNameError(f"expected 'odot' or 'otimes', found {op!r}")
        if not rest:
            raise UnknownNameError(f"missing operand after {op!r}")
        if rest[:2] == ["U", "("]:
            if rest[3:4] != [")"]:
                raise UnknownNameError("malformed induced-model reference")
            pattern = ws.lookup("pattern", rest[2])
            if op == "odot":
                raise UnknownNameError(
                    f"'odot' takes a pattern, but U({rest[2]}) is an action model")
            steps.append(("U", pattern))
            rest = rest[4:]
        else:
            name, *rest = rest
            steps.append((op, ws.lookup(OPERAND_KINDS[op], name)))
    return base, steps


def build_model_expr(ws: Workspace, model: EpistemicModel, steps) -> EpistemicModel:
    """``model`` updated by each step of :func:`parse_model_expr` in turn."""
    for op, operand in steps:
        if op == "U":
            operand = induced_action_model(operand, ws.atom_set)
        model = model.step(operand)
        if op != "odot" and model.is_empty:  # an action update is partial
            raise EpiupdateError(f"update with {operand.name!r} produced an empty model")
    return model


def resolve_model_expr(ws: Workspace, text: str) -> EpistemicModel:
    """Evaluate references like ``Sq odot IS odot IS`` or ``M otimes U(Byz)``.

    ``odot NAME`` applies a pattern update, ``otimes NAME`` an action
    model, and ``otimes U(NAME)`` the action model induced by pattern
    NAME over the workspace atoms.
    """
    return build_model_expr(ws, *parse_model_expr(ws, text))
