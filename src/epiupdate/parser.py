"""Recursive-descent parser for the formula language.

Grammar (OP is one of ``&``, ``|``, ``->``, ``<->``)::

    phi ::= IDENT "_" IDENT            atom, e.g. p_a
          | "true" | "false"
          | "~" phi
          | "(" phi OP phi ")"
          | "D" "{" agents "}" phi     distributed knowledge
          | "hD" "{" agents "}" phi    its dual
          | "K" IDENT phi              individual knowledge
          | "hK" IDENT phi             its dual
          | "[" NAME (":" graph)? "]" phi    pattern modality
          | "[" NAME "." IDENT "]" phi       action modality

``graph`` is either a graph name (I, U, Rab, ...) or a literal such as
``{a->b, b->a}``.  ``[NAME]`` without a point abbreviates the conjunction
over all graphs (or actions) of NAME.  Disjunction, implication,
equivalence and the duals are expanded at parse time; the syntax tree
only ever contains the six core constructors.

Names resolve in the workspace given to :func:`parse_formula`: its
agents, atoms, patterns and action models.  An atom it lacks may still
name an abstract first-round view (``a_a``, ``ab_b``).
"""
from __future__ import annotations

import re

from .comm import CommPattern, parse_graph_literal
from .errors import EpiupdateError, FormulaSyntaxError, UnknownNameError
from .formulas import (
    ActionBox, DKnow, Formula, Neg, PatternBox, Top, Var,
    action_box_all, conj, dual_dknow, dual_knows, knows, pattern_box_all,
)
from .models import atom_named

# a name as formulas write it; a workspace holds its agents and atom bases to it
IDENT = re.compile(r"[A-Za-z][A-Za-z0-9]*")

_TOKEN_RE = re.compile(
    rf"""
    (?P<ATOM>{IDENT.pattern}_{IDENT.pattern})
  | (?P<IDENT>{IDENT.pattern})
  | (?P<IFF><->)
  | (?P<ARROW>->)
  | (?P<LBRACE>\{{)
  | (?P<RBRACE>\}})
  | (?P<LBRACK>\[)
  | (?P<RBRACK>\])
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<COLON>:)
  | (?P<DOT>\.)
  | (?P<TILDE>~)
  | (?P<AMP>&)
  | (?P<PIPE>\|)
  | (?P<BANG>!)
  | (?P<WS>\s+)
    """,
    re.VERBOSE,
)

# the grammar's words, which a workspace refuses as agent names
RESERVED = {"D", "K", "hK", "hD", "true", "false"}

# Deepest nesting of subformulas the parser accepts.  One level costs the
# parser and the printer at most five Python frames, and the evaluator one
# frame per tree level (sugar such as ``hK`` or ``->`` expands into three
# tree levels), so a formula at this limit stays inside Python's default
# recursion limit of 1000, with room for the caller's own frames.
MAX_NESTING = 128


def first_round_view(token: str, agents):
    """The abstract first-round view a token such as ``a_a`` or ``ab_b``
    names, or None: the base spells the sorted set of one-letter agents
    the owner heard from, and matches any view of that shape."""
    base, owner = token.rsplit("_", 1)
    group = tuple(base)
    if not all(len(a) == 1 for a in agents) or list(group) != sorted(set(group)):
        return None
    if any(a not in agents for a in group) or owner not in group:
        return None
    from .history import View
    return View(owner, map(View, group))


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "WS":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ws):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.ws = ws
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self, expected=None):
        kind, value, pos = self.tokens[self.i]
        if expected is not None and kind != expected:
            raise FormulaSyntaxError(f"expected {expected}, found {value or 'end of input'!r}", pos)
        self.i += 1
        return kind, value, pos

    def parse(self) -> Formula:
        f = self.formula()
        kind, value, pos = self.peek()
        if kind != "EOF":
            raise FormulaSyntaxError(f"unexpected trailing input {value!r}", pos)
        return f

    def formula(self) -> Formula:
        """One subformula, nested inside ``self.depth`` enclosing ones."""
        if self.depth > MAX_NESTING:
            raise FormulaSyntaxError(
                f"formula nested deeper than {MAX_NESTING} levels", self.peek()[2])
        self.depth += 1
        f = self.subformula()
        self.depth -= 1
        return f

    def subformula(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "ATOM":
            self.next()
            try:
                return Var(self.ws.atoms.get(value) or first_round_view(value, self.ws.agents)
                           or atom_named(self.ws.atoms, value))
            except UnknownNameError as exc:
                raise FormulaSyntaxError(str(exc), pos) from None
        if kind == "TILDE":
            self.next()
            return Neg(self.formula())
        if kind == "LPAREN":
            return self.binary()
        if kind == "LBRACK":
            return self.modality()
        if kind == "IDENT":
            if value == "true":
                self.next()
                return Top()
            if value == "false":
                self.next()
                return Neg(Top())
            if value in ("D", "hD"):
                self.next()
                group = self.agent_group()
                sub = self.formula()
                return DKnow(group, sub) if value == "D" else dual_dknow(group, sub)
            if value in ("K", "hK"):
                self.next()
                _, agent, apos = self.next("IDENT")
                self.check_agent(agent, apos)
                sub = self.formula()
                return knows(agent, sub) if value == "K" else dual_knows(agent, sub)
            raise FormulaSyntaxError(f"unexpected name {value!r}", pos)
        raise FormulaSyntaxError(f"unexpected {value or 'end of input'!r}", pos)

    def binary(self) -> Formula:
        self.next("LPAREN")
        left = self.formula()
        kind, value, pos = self.next()
        if kind not in ("AMP", "PIPE", "ARROW", "IFF"):
            raise FormulaSyntaxError(f"expected a binary operator, found {value!r}", pos)
        right = self.formula()
        self.next("RPAREN")
        from .formulas import disj, iff, implies
        if kind == "AMP":
            return conj(left, right)
        if kind == "PIPE":
            return disj(left, right)
        if kind == "ARROW":
            return implies(left, right)
        return iff(left, right)

    def agent_group(self) -> frozenset:
        self.next("LBRACE")
        agents = []
        while True:
            _, name, pos = self.next("IDENT")
            self.check_agent(name, pos)
            agents.append(name)
            kind, _, _ = self.next()
            if kind == "RBRACE":
                break
            if kind != "COMMA":
                raise FormulaSyntaxError("expected ',' or '}' in agent group", pos)
        return frozenset(agents)

    def check_agent(self, name: str, pos: int):
        if name not in self.ws.agents:
            raise FormulaSyntaxError(f"unknown agent {name!r}", pos)

    def modality(self) -> Formula:
        self.next("LBRACK")
        _, name, npos = self.next("IDENT")
        if name in self.ws.patterns:
            target_kind, target = "pattern", self.ws.patterns[name]
        elif name in self.ws.action_models:
            target_kind, target = "action", self.ws.action_models[name]
        else:
            raise FormulaSyntaxError(f"unknown pattern or action model {name!r}", npos)
        kind, value, pos = self.next()

        if kind == "RBRACK":
            sub = self.formula()
            if target_kind == "pattern":
                return pattern_box_all(target, sub)
            return action_box_all(target, sub)

        if kind == "COLON":
            if target_kind != "pattern":
                raise FormulaSyntaxError(f"{name!r} is not a pattern", pos)
            graph = self.graph_ref(target)
            self.next("RBRACK")
            sub = self.formula()
            return PatternBox(target, graph, sub)

        if kind == "DOT":
            if target_kind != "action":
                raise FormulaSyntaxError(f"{name!r} is not an action model", pos)
            _, action_name, apos = self.next("IDENT")
            if action_name not in target.action_set:
                raise FormulaSyntaxError(
                    f"action model {name!r} has no action {action_name!r}", apos)
            self.next("RBRACK")
            sub = self.formula()
            return ActionBox(target, action_name, sub)

        raise FormulaSyntaxError(f"expected ':', '.' or ']', found {value!r}", pos)

    def graph_ref(self, pattern: CommPattern):
        kind, value, pos = self.peek()
        if kind == "IDENT":
            self.next()
            try:
                return pattern.graph_named(value)
            except EpiupdateError as exc:
                raise FormulaSyntaxError(str(exc), pos) from None
        if kind == "LBRACE":
            literal, endpos = self.consume_braced()
            try:
                graph = parse_graph_literal(literal, pattern.agents)
            except Exception as exc:
                raise FormulaSyntaxError(str(exc), pos) from None
            if graph not in pattern:
                raise FormulaSyntaxError(
                    f"graph {graph.name} is not in the pattern", pos)
            return graph
        raise FormulaSyntaxError("expected a graph name or literal", pos)

    def consume_braced(self):
        """Re-assemble a brace-delimited graph literal from raw tokens."""
        _, _, start = self.next("LBRACE")
        depth = 1
        while depth:
            kind, _, pos = self.next()
            if kind == "EOF":
                raise FormulaSyntaxError("unterminated graph literal", start)
            if kind == "LBRACE":
                depth += 1
            elif kind == "RBRACE":
                depth -= 1
        end = pos + 1
        return self.text[start:end], end


def parse_formula(text: str, ws) -> Formula:
    """Parse formula text, resolving its names in the workspace ``ws``;
    raises FormulaSyntaxError with a position on bad input."""
    return _Parser(text, ws).parse()
