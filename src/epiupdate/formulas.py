"""Formula syntax trees, modal depth, descriptions, and the pretty printer.

The core language has exactly six constructors: atoms, negation,
conjunction, distributed knowledge over a nonempty agent group, and the
two dynamic modalities (one per update mechanism).  Everything else
(disjunction, implication, individual knowledge, duals) is sugar expanded
by the parser, which keeps the semantic clauses small.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .comm import CommGraph, CommPattern
from .models import _component_name, atom_key, ensure_printable


class Formula:
    """Base class; concrete nodes are frozen dataclasses and hashable."""

    __slots__ = ()

    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True)
class Var(Formula):
    """An atom (base atom or history variable)."""

    atom: object


@dataclass(frozen=True)
class Top(Formula):
    """The constant true formula (the empty description)."""


@dataclass(frozen=True)
class Neg(Formula):
    sub: Formula


@dataclass(frozen=True)
class Conj(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class DKnow(Formula):
    """Distributed knowledge of a nonempty agent group."""

    group: frozenset
    sub: Formula

    def __post_init__(self):
        object.__setattr__(self, "group", frozenset(self.group))
        if not self.group:
            raise ValueError("distributed knowledge requires a nonempty agent group")


@dataclass(frozen=True)
class PatternBox(Formula):
    """After executing this graph of this communication pattern."""

    pattern: CommPattern
    graph: CommGraph
    sub: Formula

    def __post_init__(self):
        if self.graph not in self.pattern:
            raise ValueError(f"graph {self.graph.name} is not in the pattern")


@dataclass(frozen=True)
class ActionBox(Formula):
    """After executing this action of this action model."""

    model: object  # ActionModel; identity-hashed
    action: object
    sub: Formula

    def __post_init__(self):
        if self.action not in self.model.action_set:
            raise ValueError("action does not belong to the action model")


TRUE = Top()
FALSE = Neg(TRUE)


# -- sugar ----------------------------------------------------------------

def conj(*parts: Formula) -> Formula:
    """Right-nested conjunction; empty conjunction is true."""
    if not parts:
        return TRUE
    return reduce(lambda acc, f: Conj(f, acc), reversed(parts[:-1]), parts[-1])


def disj(*parts: Formula) -> Formula:
    if not parts:
        return FALSE
    return Neg(conj(*(Neg(p) for p in parts)))


def implies(a: Formula, b: Formula) -> Formula:
    return disj(Neg(a), b)


def iff(a: Formula, b: Formula) -> Formula:
    return Conj(implies(a, b), implies(b, a))


def knows(agent: str, f: Formula) -> Formula:
    return DKnow(frozenset([agent]), f)


def dual_knows(agent: str, f: Formula) -> Formula:
    """Considers-possible: the dual of individual knowledge."""
    return Neg(knows(agent, Neg(f)))


def dual_dknow(group, f: Formula) -> Formula:
    return Neg(DKnow(frozenset(group), Neg(f)))


def pattern_box_all(pattern: CommPattern, f: Formula) -> Formula:
    """Conjunction over all graphs of the pattern (the unpointed modality)."""
    return conj(*(PatternBox(pattern, g, f) for g in pattern.graphs))


def action_box_all(model, f: Formula) -> Formula:
    return conj(*(ActionBox(model, e, f) for e in model.actions))


# -- descriptions ----------------------------------------------------------

def description(true_atoms, all_atoms) -> Formula:
    """The conjunction asserting exactly ``true_atoms`` within ``all_atoms``.

    Atoms in ``true_atoms`` appear positively, the rest of ``all_atoms``
    negatively.  The empty description is the constant true.
    """
    q = set(true_atoms)
    qp = set(all_atoms)
    if not q <= qp:
        raise ValueError("described atoms must be a subset of the atom universe")
    pos = [Var(p) for p in sorted(q, key=atom_key)]
    negs = [Neg(Var(p)) for p in sorted(qp - q, key=atom_key)]
    return conj(*(pos + negs))


# -- measures ---------------------------------------------------------------

def modal_depth(f: Formula) -> int:
    """Nesting depth of knowledge modalities.

    Pattern modalities do not add depth; an action modality adds the depth
    of the action model (the maximum depth of its preconditions).  Each
    distinct node object is measured once, as in :func:`subformulas`.
    """
    return _depth(f, {})


def action_model_depth(model) -> int:
    return _model_depth(model, {})


def _depth(f: Formula, memo: dict) -> int:
    # keyed by identity: the sugar shares operand objects, while formula
    # hashes are recursive and uncached
    key = id(f)
    if key in memo:
        return memo[key]
    if isinstance(f, (Var, Top)):
        depth = 0
    elif isinstance(f, (Neg, PatternBox)):
        depth = _depth(f.sub, memo)
    elif isinstance(f, Conj):
        depth = max(_depth(f.left, memo), _depth(f.right, memo))
    elif isinstance(f, DKnow):
        depth = _depth(f.sub, memo) + 1
    elif isinstance(f, ActionBox):
        depth = _model_depth(f.model, memo) + _depth(f.sub, memo)
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[key] = depth
    return depth


def _model_depth(model, memo: dict) -> int:
    return max((_depth(model.pre[e], memo) for e in model.actions), default=0)


def subformulas(f: Formula):
    """Each distinct node object of the formula and of its action boxes'
    preconditions, once: sugar such as ``iff`` shares its operands, so a
    chain of ``<->`` is walked in linear, not exponential, time."""
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        yield g
        if isinstance(g, (Neg, DKnow, PatternBox)):
            stack.append(g.sub)
        elif isinstance(g, Conj):
            stack += (g.right, g.left)
        elif isinstance(g, ActionBox):
            stack.append(g.sub)
            stack.extend(g.model.pre[e] for e in g.model.actions)
        elif not isinstance(g, (Var, Top)):
            raise TypeError(f"not a formula: {g!r}")


def has_dynamic(f: Formula) -> bool:
    return any(isinstance(g, (PatternBox, ActionBox)) for g in subformulas(f))


def formula_atoms(f: Formula) -> frozenset:
    """All atoms occurring in the formula, including inside action preconditions."""
    return frozenset(g.atom for g in subformulas(f) if isinstance(g, Var))


# -- printing ---------------------------------------------------------------

def format_formula(f: Formula) -> str:
    """Grammar-conformant rendering; parseable output round-trips structurally.

    Sugar such as ``iff`` prints its shared operands once per use, so each
    link of a ``<->`` chain doubles the length.  That is counted first, each
    distinct node once, and held to the larger of the world cap and its default."""
    ensure_printable(_printed_length(f, {}), "formula")
    return _format(f)


def _printed_length(f: Formula, memo: dict) -> int:
    key = id(f)  # keyed by identity, as in _depth
    if key in memo:
        return memo[key]
    if isinstance(f, Var):
        n = len(str(f.atom))
    elif isinstance(f, Top):
        n = len("true")
    elif isinstance(f, Neg):
        n = 1 + _printed_length(f.sub, memo)
    elif isinstance(f, Conj):
        n = len("( & )") + _printed_length(f.left, memo) + _printed_length(f.right, memo)
    else:
        n = len(_head(f)) + _printed_length(f.sub, memo)
    memo[key] = n
    return n


def _format(f: Formula) -> str:
    if isinstance(f, Var):
        return str(f.atom)
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Neg):
        return "~" + _format(f.sub)
    if isinstance(f, Conj):
        return f"({_format(f.left)} & {_format(f.right)})"
    return _head(f) + _format(f.sub)


def _head(f: Formula) -> str:
    """What a modality prints before its body."""
    if isinstance(f, DKnow):
        return "D{" + ",".join(sorted(f.group)) + "} "
    if isinstance(f, PatternBox):
        return f"[{f.pattern.name or _pattern_literal(f.pattern)}:{f.graph.name}] "
    if isinstance(f, ActionBox):
        return f"[{f.model.name or 'action-model'}.{_component_name(f.action)}] "
    raise TypeError(f"not a formula: {f!r}")


def _pattern_literal(pattern: CommPattern) -> str:
    return "<" + ";".join(g.literal() for g in pattern.graphs) + ">"

