"""The satisfaction relation and model validity.

Dynamic modalities are evaluated by materializing the updated model; the
product for a given (model, pattern) or (model, action model) pair is
memoized on the model instance so that repeated subformulas under the
same update do not recompute it.
"""
from __future__ import annotations

from .comm import CommPattern, pattern_update
from .formulas import ActionBox, Conj, DKnow, Formula, Neg, PatternBox, Top, Var
from .history import atom_holds
from .models import EpistemicModel, group_blocks


def pattern_product(model: EpistemicModel, pattern: CommPattern) -> EpistemicModel:
    """Memoized pattern update."""
    hit = model._pattern_cache.get(pattern)
    if hit is None:
        hit = pattern_update(model, pattern)
        model._pattern_cache[pattern] = hit
    return hit


def action_product(model: EpistemicModel, action_model) -> EpistemicModel:
    """Memoized action-model update."""
    hit = model._action_cache.get(action_model)
    if hit is None:
        from .actions import action_update
        hit = action_update(model, action_model)
        model._action_cache[action_model] = hit
    return hit


def satisfies(model: EpistemicModel, world, f: Formula) -> bool:
    """Truth of a formula at a world of a local model."""
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
        updated = pattern_product(model, f.pattern)
        return _sat(updated, (world, f.graph), f.sub)
    if isinstance(f, ActionBox):
        if not _sat(model, world, f.model.pre[f.action]):
            return True
        updated = action_product(model, f.model)
        return _sat(updated, (world, f.action), f.sub)
    raise TypeError(f"not a formula: {f!r}")


def valid_on(model: EpistemicModel, f: Formula) -> bool:
    """True iff the formula holds at every world of the model."""
    return all(_sat(model, w, f) for w in model.worlds)
