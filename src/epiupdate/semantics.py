"""The one formula evaluator: extensions by labelling.

``extension(model, f)``, the set of worlds where ``f`` holds, is built
bottom-up as in labelling (Clarke, Emerson & Sistla 1986; Fagin et al.,
*Reasoning About Knowledge*, ch. 3): each clause runs once per model and
subformula, and a dynamic modality pulls back the extension it gets in
``model.step(mechanism)``, which on a history model is the next round.
The memo lives for one call and holds its extensions and stepped models.
Its keys are identities, ``(id(model), id(subformula))``: formula hashes
are recursive and uncached, so hashing a ``<->`` chain is exponential,
while the parser's sugar shares operand objects.
"""
from __future__ import annotations

from .formulas import TRUE, ActionBox, Conj, DKnow, Formula, Neg, PatternBox, Top, Var
from .history import atom_holds
from .models import EpistemicModel, group_labels


def extension(model: EpistemicModel, f: Formula, memo: dict | None = None) -> frozenset:
    """The worlds of the model where the formula holds.  Calls that pass
    one ``memo`` share it; it must not outlive their formulas and models."""
    return _ext(model, f, {} if memo is None else memo)


def _ext(model, f, memo) -> frozenset:
    # one Python frame per tree level: a formula at the parser's nesting
    # limit stays inside the default recursion limit
    key = (id(model), id(f))
    if key in memo:
        return memo[key]
    if isinstance(f, Var):
        out = frozenset(w for w, val in zip(model.worlds, model.vals)
                        if atom_holds(val, f.atom))
    elif isinstance(f, Top):
        out = frozenset(model.worlds)
    elif isinstance(f, Neg):
        out = _ext(model, TRUE, memo) - _ext(model, f.sub, memo)
    elif isinstance(f, Conj):
        out = _ext(model, f.left, memo) & _ext(model, f.right, memo)
    elif isinstance(f, DKnow):
        # the worlds whose group class lies inside the subformula's extension
        sub = _ext(model, f.sub, memo)
        classes = group_labels(model, f.group)
        outside = {c for w, c in zip(model.worlds, classes) if w not in sub}
        out = frozenset(w for w, c in zip(model.worlds, classes) if c not in outside)
    elif isinstance(f, PatternBox):
        sub = _ext(_step(model, f.pattern, memo), f.sub, memo)
        out = frozenset(w for w in model.worlds if (w, f.graph) in sub)
    elif isinstance(f, ActionBox):
        updated = _step(model, f.model, memo)
        sub = _ext(updated, f.sub, memo)
        out = frozenset(w for w in model.worlds
                        if (w, f.action) in sub or not updated.has_world((w, f.action)))
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[key] = out
    return out


def _step(model, mechanism, memo) -> EpistemicModel:
    key = (id(model), id(mechanism))
    if key not in memo:
        memo[key] = model.step(mechanism)
    return memo[key]


def satisfies(model: EpistemicModel, world, f: Formula) -> bool:
    """Truth of a formula at a world of a local model; on a history model,
    under the history-based semantics."""
    model.require_world(world)
    return world in extension(model, f)


def valid_on(model: EpistemicModel, f: Formula) -> bool:
    """True iff the formula holds at every world of the model."""
    return len(extension(model, f)) == len(model.worlds)
