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
from .models import _component_name, atom_key


class Formula:
    """Base class; concrete nodes are frozen dataclasses and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    """An atom (base atom or history variable)."""

    atom: object

    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True)
class Top(Formula):
    """The constant true formula (the empty description)."""

    def __str__(self):
        return "true"


@dataclass(frozen=True)
class Neg(Formula):
    sub: Formula

    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True)
class Conj(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True)
class DKnow(Formula):
    """Distributed knowledge of a nonempty agent group."""

    group: frozenset
    sub: Formula

    def __post_init__(self):
        object.__setattr__(self, "group", frozenset(self.group))
        if not self.group:
            raise ValueError("distributed knowledge requires a nonempty agent group")

    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True)
class PatternBox(Formula):
    """After executing this graph of this communication pattern."""

    pattern: CommPattern
    graph: CommGraph
    sub: Formula

    def __post_init__(self):
        if self.graph not in self.pattern:
            raise ValueError(f"graph {self.graph.name} is not in the pattern")

    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True)
class ActionBox(Formula):
    """After executing this action of this action model."""

    model: object  # ActionModel; identity-hashed
    action: object
    sub: Formula

    def __post_init__(self):
        if self.action not in self.model.action_set:
            raise ValueError("action does not belong to the action model")

    def __str__(self):
        return format_formula(self)


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
    of the action model (the maximum depth of its preconditions).
    """
    if isinstance(f, (Var, Top)):
        return 0
    if isinstance(f, Neg):
        return modal_depth(f.sub)
    if isinstance(f, Conj):
        return max(modal_depth(f.left), modal_depth(f.right))
    if isinstance(f, DKnow):
        return modal_depth(f.sub) + 1
    if isinstance(f, PatternBox):
        return modal_depth(f.sub)
    if isinstance(f, ActionBox):
        return action_model_depth(f.model) + modal_depth(f.sub)
    raise TypeError(f"not a formula: {f!r}")


def action_model_depth(model) -> int:
    return max((modal_depth(model.pre[e]) for e in model.actions), default=0)


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
    """Grammar-conformant rendering; parseable output round-trips structurally."""
    if isinstance(f, Var):
        return str(f.atom)
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Neg):
        return "~" + format_formula(f.sub)
    if isinstance(f, Conj):
        return f"({format_formula(f.left)} & {format_formula(f.right)})"
    if isinstance(f, DKnow):
        return "D{" + ",".join(sorted(f.group)) + "} " + format_formula(f.sub)
    if isinstance(f, PatternBox):
        pname = f.pattern.name or _pattern_literal(f.pattern)
        return f"[{pname}:{f.graph.name}] " + format_formula(f.sub)
    if isinstance(f, ActionBox):
        mname = f.model.name or "action-model"
        return f"[{mname}.{_component_name(f.action)}] " + format_formula(f.sub)
    raise TypeError(f"not a formula: {f!r}")


def _pattern_literal(pattern: CommPattern) -> str:
    return "<" + ";".join(g.literal() for g in pattern.graphs) + ">"

