"""Iterated update normal form for pattern-only formulas.

A formula is in iterated update normal form when every pattern modality
sits in an unbroken prefix chain over a formula free of dynamic
modalities: boolean structure and knowledge never appear between two
pattern modalities.  The translation pushes a modality through booleans
and knowledge until it reaches an atom or another modality chain; the
knowledge clause trades [pattern, R] D_B for a conjunction over the
graphs that the group cannot tell from R, with distributed knowledge of
the combined senders.
"""
from __future__ import annotations

from .comm import CommGraph, CommPattern
from .errors import EpiupdateError
from .formulas import (
    ActionBox, Conj, DKnow, Formula, Neg, PatternBox, Top, Var, conj, has_dynamic,
    subformulas,
)


def iunf_translate(f: Formula) -> Formula:
    """Equivalent formula in iterated update normal form.

    Only defined for pattern-only formulas; action-model modalities are
    rejected.  The result may have different modal depth than the input;
    the contract is logical equivalence plus the normal-form shape.  Each
    distinct node is translated once and pushed once per graph, so a chain
    of ``<->`` takes linear time (printing it stays exponential).
    """
    return _translate(f, {})


def _translate(f: Formula, memo: dict) -> Formula:
    # the memo's keys are identities of nodes that it or the input keeps alive
    key = id(f)
    if key in memo:
        return memo[key]
    if isinstance(f, Var) or isinstance(f, Top):
        out = f
    elif isinstance(f, Neg):
        out = Neg(_translate(f.sub, memo))
    elif isinstance(f, Conj):
        out = Conj(_translate(f.left, memo), _translate(f.right, memo))
    elif isinstance(f, DKnow):
        out = DKnow(f.group, _translate(f.sub, memo))
    elif isinstance(f, PatternBox):
        out = _push(f.pattern, f.graph, _translate(f.sub, memo), memo)
    elif isinstance(f, ActionBox):
        raise EpiupdateError("the normal form is defined for pattern-only formulas")
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[key] = out
    return out


def _push(pattern: CommPattern, graph: CommGraph, body: Formula, memo: dict) -> Formula:
    """Push one pattern modality through a body already in normal form."""
    key = (id(pattern), id(graph), id(body))
    if key in memo:
        return memo[key]
    if isinstance(body, (Var, Top, PatternBox)):
        out = PatternBox(pattern, graph, body)
    elif isinstance(body, Neg):
        out = Neg(_push(pattern, graph, body.sub, memo))
    elif isinstance(body, Conj):
        out = Conj(_push(pattern, graph, body.left, memo),
                   _push(pattern, graph, body.right, memo))
    elif isinstance(body, DKnow):
        # graphs in which every group member hears from the same agents
        # are indistinguishable for the group
        members = sorted(body.group)
        profile = [graph.heard[a] for a in members]
        alternatives = [g for g in pattern.graphs
                        if [g.heard[a] for a in members] == profile]
        out = conj(*(DKnow(frozenset().union(*profile), _push(pattern, g, body.sub, memo))
                     for g in alternatives))
    else:
        raise TypeError(f"not a formula: {body!r}")
    memo[key] = out
    return out


def is_iunf(f: Formula) -> bool:
    """Structural normal-form check: no action box, and every pattern box
    is followed by another or by a formula free of dynamic modalities."""
    return all(
        not isinstance(g, ActionBox)
        and (not isinstance(g, PatternBox)
             or isinstance(g.sub, PatternBox) or not has_dynamic(g.sub))
        for g in subformulas(f))
