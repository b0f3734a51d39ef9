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

The workspace is the one name table: the CLI resolves model, pattern,
action-model and atom names with :meth:`Workspace.lookup`, and the
formula parser reads the same tables.
"""
from __future__ import annotations

import json

from .actions import ActionModel
from .comm import CommPattern, parse_graph_literal
from .errors import EpiupdateError, UnknownNameError
from .fixtures import (
    byz_initial_model, byz_pattern, identity_pattern, immediate_snapshot,
    skip, sq_model, universal_pattern, P_A, P_B, Q_A, AGENTS_AB,
)
from .models import Atom, EpistemicModel, atom_key, blocks_of, _sorted_agents, world_name
from .parser import parse_formula


# the table each kind of name is looked up in
_TABLES = {"model": "models", "pattern": "patterns", "action model": "action_models",
           "atom": "atoms"}


class Workspace:
    def __init__(self, agents, atoms, models=None, patterns=None,
                 action_models=None, formulas=None):
        self.agents = _sorted_agents(agents)
        self.atoms = {str(p): p for p in sorted(set(atoms), key=atom_key)}
        for name, p in self.atoms.items():
            if p.owner not in self.agents:
                raise UnknownNameError(f"atom {name!r} is owned by unknown agent {p.owner!r}")
        self.models = dict(models or {})
        self.patterns = dict(patterns or {})
        self.action_models = dict(action_models or {})
        self.formulas = dict(formulas or {})
        self._check_names()

    def _check_names(self):
        names = (list(self.models) + list(self.patterns)
                 + list(self.action_models) + list(self.formulas))
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise UnknownNameError(f"duplicate workspace names: {sorted(dupes)}")

    @property
    def atom_set(self) -> frozenset:
        return frozenset(self.atoms.values())

    def lookup(self, kind: str, name: str):
        """The model, pattern, action model or atom (``kind``) called ``name``."""
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


def _atom_from_json(obj) -> Atom:
    return Atom(obj["base"], obj["owner"])


def _resolve_atom_name(name: str, atoms_by_name: dict) -> Atom:
    try:
        return atoms_by_name[name]
    except KeyError:
        raise UnknownNameError(f"unknown atom {name!r} in model file") from None


def model_from_json(obj, agents, atoms_by_name) -> EpistemicModel:
    worlds = [w["id"] for w in obj["worlds"]]
    valuation = {
        w["id"]: {_resolve_atom_name(s, atoms_by_name) for s in w.get("val", [])}
        for w in obj["worlds"]
    }
    relations = {a: [list(blk) for blk in blocks]
                 for a, blocks in obj["relations"].items()}
    return EpistemicModel(worlds, relations, valuation, agents=agents)


def _named_relations(model, names: list) -> dict:
    """Each agent's blocks as sorted lists of names, given by position."""
    return {a: [sorted(names[k] for k in blk)
                for blk in blocks_of(range(len(names)), model.labels[a])]
            for a in model.agents}


def model_to_json(model: EpistemicModel) -> dict:
    atoms = frozenset().union(*model.vals)
    base_atoms = sorted((p for p in atoms if isinstance(p, Atom)), key=atom_key)
    history_atoms = sorted({str(p) for p in atoms if not isinstance(p, Atom)})
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
    relations = {a: [list(blk) for blk in blocks]
                 for a, blocks in obj["relations"].items()}
    return ActionModel(actions, relations, pre, agents=agents, name=name)


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
    agents = _sorted_agents(doc["agents"])
    atoms = [_atom_from_json(o) for o in doc.get("atoms", [])]
    atoms_by_name = {str(p): p for p in atoms}

    models = {
        name: model_from_json(obj, agents, atoms_by_name)
        for name, obj in doc.get("models", {}).items()
    }
    patterns = {
        name: CommPattern([parse_graph_literal(lit, agents) for lit in literals],
                          name=name)
        for name, literals in doc.get("patterns", {}).items()
    }
    ws = Workspace(agents, atoms, models=models, patterns=patterns,
                   formulas=doc.get("formulas", {}))
    for name, obj in doc.get("action_models", {}).items():
        ws.action_models[name] = action_model_from_json(obj, agents, ws, name=name)
    ws._check_names()
    for text in ws.formulas.values():
        ws.parse(text)
    return ws


# -- model reference expressions ----------------------------------------------


def resolve_model_expr(ws: Workspace, text: str) -> EpistemicModel:
    """Evaluate references like ``Sq odot IS odot IS`` or ``M otimes U(Byz)``.

    ``odot NAME`` applies a pattern update, ``otimes NAME`` an action
    model, and ``otimes U(NAME)`` the action model induced by pattern
    NAME over the workspace atoms.
    """
    from .actions import induced_action_model

    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise UnknownNameError("empty model expression")

    def take_operand(op, i):
        if i == len(tokens):
            raise UnknownNameError(f"missing operand after {tokens[-1]!r}")
        if tokens[i] == "U" and i + 1 < len(tokens) and tokens[i + 1] == "(":
            if i + 3 >= len(tokens) or tokens[i + 3] != ")":
                raise UnknownNameError("malformed induced-model reference")
            pattern = ws.lookup("pattern", tokens[i + 2])
            if op == "odot":
                raise UnknownNameError(
                    f"'odot' takes a pattern, but U({tokens[i + 2]}) is an action model")
            return induced_action_model(pattern, ws.atom_set), i + 4
        return tokens[i], i + 1

    current = ws.lookup("model", tokens[0])
    i = 1
    while i < len(tokens):
        op = tokens[i]
        if op not in ("odot", "otimes"):
            raise UnknownNameError(f"expected 'odot' or 'otimes', found {op!r}")
        operand, i = take_operand(op, i + 1)
        current = apply_step(ws, current, op, operand)
    return current


def apply_step(ws: Workspace, model: EpistemicModel, op: str, operand) -> EpistemicModel:
    """One update step: ``odot`` a pattern name, ``otimes`` an action model
    or the name of one, taken by the model's own ``step``."""
    if op == "odot":
        operand = ws.lookup("pattern", operand)
    elif isinstance(operand, str):
        operand = ws.lookup("action model", operand)
    return model.step(operand)
