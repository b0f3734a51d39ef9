"""The satisfaction relation and model validity: the one formula evaluator.

A dynamic modality steps to the updated model that the model itself
builds, ``model.updated(mechanism)``, which is memoized on the model so
that repeated subformulas under the same update do not recompute it.  A
plain model steps to the pattern or action-model product.  A history
model (:class:`~epiupdate.history.HistoryModel`) is a model whose pattern
step is the next history round and which rejects action models, so the
same evaluator gives the history-based semantics on it.
"""
from __future__ import annotations

from .formulas import ActionBox, Conj, DKnow, Formula, Neg, PatternBox, Top, Var
from .history import atom_holds
from .models import EpistemicModel, group_blocks


def satisfies(model: EpistemicModel, world, f: Formula) -> bool:
    """Truth of a formula at a world of a local model; on a history model,
    under the history-based semantics."""
    model.require_world(world)
    return _sat(model, world, f)


def _sat(model, world, f) -> bool:
    if isinstance(f, Var):
        return atom_holds(model.valuation[world], f.atom)
    if isinstance(f, Top):
        return True
    if isinstance(f, Neg):
        return not _sat(model, world, f.sub)
    if isinstance(f, Conj):
        return _sat(model, world, f.left) and _sat(model, world, f.right)
    if isinstance(f, DKnow):
        blocks, block_of = group_blocks(model, f.group)
        return all(_sat(model, v, f.sub) for v in blocks[block_of[world]])
    if isinstance(f, PatternBox):
        return _sat(model.updated(f.pattern), (world, f.graph), f.sub)
    if isinstance(f, ActionBox):
        # (world, action) is a world of the product exactly where the
        # precondition holds
        updated = model.updated(f.model)
        point = (world, f.action)
        return not updated.has_world(point) or _sat(updated, point, f.sub)
    raise TypeError(f"not a formula: {f!r}")


def valid_on(model: EpistemicModel, f: Formula) -> bool:
    """True iff the formula holds at every world of the model."""
    return all(_sat(model, w, f) for w in model.worlds)
