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
)


def iunf_translate(f: Formula) -> Formula:
    """Equivalent formula in iterated update normal form.

    Only defined for pattern-only formulas; action-model modalities are
    rejected.  The result may have different modal depth than the input;
    the contract is logical equivalence plus the normal-form shape.
    """
    if isinstance(f, Var) or isinstance(f, Top):
        return f
    if isinstance(f, Neg):
        return Neg(iunf_translate(f.sub))
    if isinstance(f, Conj):
        return Conj(iunf_translate(f.left), iunf_translate(f.right))
    if isinstance(f, DKnow):
        return DKnow(f.group, iunf_translate(f.sub))
    if isinstance(f, PatternBox):
        return _push(f.pattern, f.graph, iunf_translate(f.sub))
    if isinstance(f, ActionBox):
        raise EpiupdateError("the normal form is defined for pattern-only formulas")
    raise TypeError(f"not a formula: {f!r}")


def _push(pattern: CommPattern, graph: CommGraph, body: Formula) -> Formula:
    """Push one pattern modality through a body already in normal form."""
    if isinstance(body, (Var, Top, PatternBox)):
        return PatternBox(pattern, graph, body)
    if isinstance(body, Neg):
        return Neg(_push(pattern, graph, body.sub))
    if isinstance(body, Conj):
        return Conj(_push(pattern, graph, body.left),
                    _push(pattern, graph, body.right))
    if isinstance(body, DKnow):
        # graphs in which every group member hears from the same agents
        # are indistinguishable for the group
        members = sorted(body.group)
        profile = [graph.heard[a] for a in members]
        alternatives = [g for g in pattern.graphs
                        if [g.heard[a] for a in members] == profile]
        return conj(*(DKnow(frozenset().union(*profile), _push(pattern, g, body.sub))
                      for g in alternatives))
    raise TypeError(f"not a formula: {body!r}")


def is_iunf(f: Formula) -> bool:
    """Structural normal-form check."""
    if isinstance(f, (Var, Top)):
        return True
    if isinstance(f, Neg):
        return is_iunf(f.sub)
    if isinstance(f, Conj):
        return is_iunf(f.left) and is_iunf(f.right)
    if isinstance(f, DKnow):
        return is_iunf(f.sub)
    if isinstance(f, PatternBox):
        return _is_block_tail(f.sub)
    return False


def _is_block_tail(f: Formula) -> bool:
    if isinstance(f, PatternBox):
        return _is_block_tail(f.sub)
    return not has_dynamic(f)
