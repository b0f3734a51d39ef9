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
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .comm import CommPattern, parse_graph_literal
from .errors import FormulaSyntaxError, UnknownNameError
from .formulas import (
    ActionBox, DKnow, Formula, Neg, PatternBox, Top, Var,
    action_box_all, conj, dual_dknow, dual_knows, knows, pattern_box_all,
)
from .models import Atom

_TOKEN_RE = re.compile(
    r"""
    (?P<ATOM>[A-Za-z][A-Za-z0-9]*_[A-Za-z][A-Za-z0-9]*)
  | (?P<IDENT>[A-Za-z][A-Za-z0-9]*)
  | (?P<IFF><->)
  | (?P<ARROW>->)
  | (?P<LBRACE>\{)
  | (?P<RBRACE>\})
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

RESERVED = {"D", "K", "hK", "hD", "true", "false"}

# Deepest nesting of subformulas the parser accepts.  One level costs the
# parser and the printer at most five Python frames, and the evaluator one
# frame per tree level (sugar such as ``hK`` or ``->`` expands into three
# tree levels), so a formula at this limit stays inside Python's default
# recursion limit of 1000, with room for the caller's own frames.
MAX_NESTING = 128


@dataclass
class ParserContext:
    """Name resolution environment for the parser.

    With ``loose=True`` (the default when no context is given) unknown
    atoms are created on the fly and agents are not checked; pattern and
    action-model names still need to be registered to be usable.
    """

    agents: tuple = ()
    atoms: dict = field(default_factory=dict)          # "p_a" -> Atom
    patterns: dict = field(default_factory=dict)       # name -> CommPattern
    action_models: dict = field(default_factory=dict)  # name -> ActionModel
    loose: bool = False

    def resolve_atom(self, base: str, owner: str):
        key = f"{base}_{owner}"
        hit = self.atoms.get(key)
        if hit is not None:
            return hit
        if self.loose:
            return Atom(base, owner)
        hv = self._try_history_variable(base, owner)
        if hv is not None:
            return hv
        raise UnknownNameError(f"unknown atom {key}")

    def _try_history_variable(self, base: str, owner: str):
        # first-round view variables like a_a or ab_b: the base spells the
        # sorted set of agents the owner heard from
        if not all(len(a) == 1 for a in self.agents):
            return None
        group = tuple(base)
        if list(group) != sorted(set(group)):
            return None
        if any(a not in self.agents for a in group) or owner not in group:
            return None
        from .history import EMPTY_VIEW, HistoryVariable, View
        # abstract first-round view: matches by shape, regardless of content
        view = View(group, (EMPTY_VIEW,) * len(group))
        return HistoryVariable(view, owner)

    def check_agent(self, name: str, pos: int):
        if not self.loose and name not in self.agents:
            raise FormulaSyntaxError(f"unknown agent {name!r}", pos)

    def bracket_target(self, name: str, pos: int):
        if name in self.patterns:
            return "pattern", self.patterns[name]
        if name in self.action_models:
            return "action", self.action_models[name]
        raise FormulaSyntaxError(f"unknown pattern or action model {name!r}", pos)


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
    def __init__(self, text: str, context: ParserContext):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.ctx = context
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
            base, owner = value.rsplit("_", 1)
            try:
                return Var(self.ctx.resolve_atom(base, owner))
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
                if agent in RESERVED:
                    raise FormulaSyntaxError(f"{agent!r} is reserved", apos)
                self.ctx.check_agent(agent, apos)
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
            self.ctx.check_agent(name, pos)
            agents.append(name)
            kind, _, _ = self.next()
            if kind == "RBRACE":
                break
            if kind != "COMMA":
                raise FormulaSyntaxError("expected ',' or '}' in agent group", pos)
        return frozenset(agents)

    def modality(self) -> Formula:
        self.next("LBRACK")
        _, name, npos = self.next("IDENT")
        target_kind, target = self.ctx.bracket_target(name, npos)
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
            for g in pattern.graphs:
                if g.name == value:
                    return g
            raise FormulaSyntaxError(f"pattern has no graph named {value!r}", pos)
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


def parse_formula(text: str, context: ParserContext | None = None) -> Formula:
    """Parse formula text; raises FormulaSyntaxError with a position on bad input."""
    if context is None:
        context = ParserContext(loose=True)
    return _Parser(text, context).parse()
