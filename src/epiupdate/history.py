"""Round-stamped models: views, history variables, and history-based semantics.

Across repeated rounds of communication, each agent accumulates a view:
a tree recording who it heard from in the last round and, recursively,
what those senders had seen before.  At the bottom of the tree sit the
senders' initial local valuations, so a view is a full record of
everything the agent has received.  A history variable packages a view
as a local atom of its owner; the round update behaves exactly like the
plain pattern update except that it additionally makes the current
round's history variables true.  With the received content in the
leaves, interpreted systems are closed under this update, which is the
point of the whole construction: equal local valuations then pin down
exactly the worlds an agent cannot distinguish.

Views are built by one round step, ``_advance``: an agent's view after
sigma.R is its sender set in R with those senders' views after sigma
(Fagin, Halpern, Moses & Vardi, *Reasoning About Knowledge*, 1995), read
off the history variables of the round before.  Views are hash-consed
(Filliatre & Conchon, 2006) through a weak table that keeps none alive.

A :class:`HistoryModel` is an epistemic model whose pattern step is the
history round.  There is no second evaluator: ``semantics.satisfies`` on
a history model lets a pattern modality advance to the next round and
rejects action-model modalities, which is the history-based semantics.

Rendering follows the compact convention of the round examples: leaves
are invisible, so a first-round view prints as the set of senders
("ab"), and later rounds nest with dots ("(a,ab).ab").  A view built
without leaf content (as the plain ``view_of`` returns, and as the
formula parser produces) is *abstract*: used in a formula it asks
whether the agent's actual view has that shape, regardless of content.
"""
from __future__ import annotations

import weakref
from itertools import product

from .comm import CommPattern, pattern_update
from .errors import EpiupdateError
from .models import EpistemicModel, atom_key, world_name

_VIEWS = weakref.WeakValueDictionary()  # fields -> the live view with them


class View:
    """One agent's record of one history.

    A round-zero view has an empty ``group`` and carries ``initial``, the
    owner's initial local valuation (``None`` in abstract views).  A
    later view carries the sorted tuple of agents heard from in the last
    round and one child view per member, from the round before; ``depth``
    counts the rounds, 0 for a round-zero view.  Views are immutable and
    hash-consed; equality stays structural, so no answer depends on the
    table.
    """

    __slots__ = ("group", "children", "initial", "depth", "is_abstract", "_hash",
                 "_skeleton", "__weakref__")

    def __new__(cls, group, children, initial=None):
        group = tuple(group)
        children = tuple(children)
        # hash(None) is address-based on some Pythons, so a view without an
        # initial valuation leaves it out: hashes stay equal across runs
        key = (group, children) if initial is None else (group, children, initial)
        self = _VIEWS.get(key)
        if self is not None:
            return self
        if tuple(sorted(group)) != group:
            raise ValueError("view group must be sorted by agent name")
        if group:
            if len(children) != len(group):
                raise ValueError("a view needs one child per group member")
            if initial is not None:
                raise ValueError("only round-zero views carry an initial valuation")
        elif children:
            raise ValueError("a round-zero view has no children")
        self = super().__new__(cls)
        self.group = group
        self.children = children
        self.initial = initial
        self.depth = 1 + max(c.depth for c in children) if group else 0
        self.is_abstract = (any(c.is_abstract for c in children) if group
                            else initial is None)
        self._hash = hash(key)
        self._skeleton = None
        _VIEWS[key] = self
        return self

    def __eq__(self, other):
        return (self is other
                or (isinstance(other, View)
                    and self._hash == other._hash
                    and self.group == other.group
                    and self.children == other.children
                    and self.initial == other.initial))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"View({self.serialize() or 'start'!r})"

    def skeleton(self) -> "View":
        """The same tree with all leaf content removed (built once per view)."""
        sk = self._skeleton
        if sk is None:
            sk = (View(self.group, [c.skeleton() for c in self.children])
                  if self.group else EMPTY_VIEW)
            if sk is not self:  # a view keeping itself would be a cycle
                self._skeleton = sk
        return sk

    def serialize(self) -> str:
        """Canonical rendering: children in agent order, dot before the group.

        Leaves are invisible; a view whose children are all round-zero
        prints as just its sender set.
        """
        if not self.depth:
            return ""
        root = "".join(self.group)
        if all(not c.depth for c in self.children):
            return root
        inner = [c.serialize() for c in self.children]
        if len(inner) == 1:
            return f"{inner[0]}.{root}"
        return "(" + ",".join(inner) + f").{root}"

    def __str__(self):
        return self.serialize() or "()"


EMPTY_VIEW = View((), ())


def _advance(views: tuple, graph, agents) -> tuple:
    """The round step: every agent's view after a round with ``graph``,
    from the views before it (both in ``agents`` order)."""
    before = dict(zip(agents, views))
    return tuple(View(heard, [before[b] for b in heard])
                 for heard in (sorted(graph.heard[a]) for a in agents))


def view_of(agent: str, history) -> View:
    """The abstract view of an agent on a sequence of communication graphs."""
    views = agents = ()
    for graph in history:
        agents = graph.agents
        views = _advance(views or (EMPTY_VIEW,) * len(agents), graph, agents)
    return views[agents.index(agent)] if views else EMPTY_VIEW


class HistoryVariable:
    """A view packaged as a local atom of its owner."""

    __slots__ = ("view", "owner", "_hash")

    def __init__(self, view: View, owner: str):
        self.view = view
        self.owner = owner
        self._hash = hash((view, owner))

    def __eq__(self, other):
        return (self is other
                or (isinstance(other, HistoryVariable)
                    and self._hash == other._hash
                    and self.owner == other.owner
                    and (self.view is other.view or self.view == other.view)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"HistoryVariable({self})"

    @property
    def is_abstract(self) -> bool:
        return self.view.is_abstract

    def __str__(self):
        ser = self.view.serialize()
        if "." in ser:
            return f"({ser})_{self.owner}"
        return f"{ser}_{self.owner}"

    def id_name(self) -> str:
        """The form ids use: ``str(self)`` and the sorted leaf contents in
        tree order (``ab_b[p_a|]``), so that look-alike variables differ."""
        return f"{self}[{'|'.join(_leaf_names(self.view))}]"


def _leaf_names(view: View) -> list:
    if view.depth:
        return [name for c in view.children for name in _leaf_names(c)]
    return ["?" if view.initial is None else ",".join(sorted(map(str, view.initial)))]


def atom_holds(valuation: frozenset, atom) -> bool:
    """Membership test that lets abstract history variables match by shape."""
    if isinstance(atom, HistoryVariable) and atom.is_abstract:
        want = atom.view.skeleton()
        return any(
            isinstance(p, HistoryVariable)
            and p.owner == atom.owner
            and p.view.skeleton() == want
            for p in valuation
        )
    return atom in valuation


class HistoryModel(EpistemicModel):
    """A model together with the rounds of communication that produced it.

    Its worlds, relations and valuation are those of ``model``, whose
    valuations include the accumulated history variables; worlds have
    shape (...((w, R1), R2)...) for a base world w and one graph per
    round.  It differs from a plain model only in its update step: a
    pattern steps to the next history round and an action model is
    rejected, so ``satisfies`` on a history model is the history-based
    semantics.  Like any model it keeps no stepped models.
    """

    def __init__(self, model: EpistemicModel, base: EpistemicModel, rounds=()):
        self._assign(model.worlds, model.relations, model.valuation, model.agents,
                     base, rounds)

    def _assign(self, worlds, relations, valuation, agents, base, rounds):
        super()._assign(worlds, relations, valuation, agents)
        self.base = base
        self.rounds = tuple(rounds)

    @property
    def model(self) -> "HistoryModel":
        """The history model itself, which is an epistemic model."""
        return self

    @property
    def round(self) -> int:
        return len(self.rounds)

    def __repr__(self):
        return f"<HistoryModel round {self.round}, {len(self.worlds)} worlds>"

    def step(self, mechanism) -> "HistoryModel":
        if isinstance(mechanism, CommPattern):
            return history_update(self, mechanism)
        raise EpiupdateError(
            "action-model modalities are not interpreted in the history semantics")


def history_start(model: EpistemicModel) -> HistoryModel:
    """Round zero: the model itself, which must hold no history variables."""
    return HistoryModel(model, model, ())


def history_update(h: HistoryModel, pattern: CommPattern) -> HistoryModel:
    """One more round: the pattern update plus the new round's history variables.

    Relations come from the plain pattern update of the current model;
    the valuation of (w, sigma.R) additionally contains the view variable
    of every agent for the extended history sigma.R.
    """
    plain = pattern_update(h, pattern)
    valuation = _round_valuation(plain, h, h.round, lambda g: g)
    return HistoryModel._trusted(plain.worlds, plain.relations, valuation, plain.agents,
                                 h.base, h.rounds + (pattern,))


def _latest_views(model: EpistemicModel, world, depth: int) -> tuple:
    """Every agent's view at ``world`` after ``depth`` rounds, in agent order.
    Reading them by depth is exact only if the start holds no history
    variables, so round zero, which builds the leaves, rejects any."""
    if depth:
        latest = {p.owner: p.view for p in model.valuation[world]
                  if isinstance(p, HistoryVariable) and p.view.depth == depth}
        return tuple(latest[a] for a in model.agents)
    held = [p for p in model.valuation[world] if isinstance(p, HistoryVariable)]
    if held:
        raise EpiupdateError(
            "a history starts from a model without history variables; world "
            f"{world_name(world)} holds {min(held, key=atom_key)}")
    grouped = model.locals_at(world)
    return tuple(View((), (), grouped.get(a, frozenset())) for a in model.agents)


def _round_valuation(plain: EpistemicModel, prev: EpistemicModel,
                     rounds_so_far: int, graph_of) -> dict:
    """The valuation of ``plain`` with the new round's history variables true:
    a world ``(v, step)`` of ``plain`` steps the views at v, a world of the
    model ``prev`` after ``rounds_so_far`` rounds, by ``graph_of(step)``."""
    added_of: dict[tuple, frozenset] = {}
    valuation = {}
    last = views = None
    for w in plain.worlds:
        v, step = w
        if v is not last:  # products list the worlds of one v together
            last, views = v, _latest_views(prev, v, rounds_so_far)
        key = (views, graph_of(step))
        added = added_of.get(key)
        if added is None:
            added = added_of[key] = frozenset(
                map(HistoryVariable, _advance(views, key[1], plain.agents), plain.agents))
        valuation[w] = plain.valuation[w] | added
    return valuation


def history_power(model: EpistemicModel, pattern: CommPattern, n: int) -> HistoryModel:
    """n rounds of one pattern (the oblivious protocol)."""
    h = history_start(model)
    for _ in range(n):
        h = history_update(h, pattern)
    return h


# -- history variable universes ----------------------------------------------

def _round_layers(rounds, base: EpistemicModel):
    """Per round of a pattern sequence, the history variables it realizes
    from every start in ``base``, stepped one layer of views at a time."""
    agents = base.agents
    layer = {_latest_views(base, w, 0) for w in base.worlds}
    for pattern in rounds:
        layer = {_advance(views, g, agents) for views in layer for g in pattern.graphs}
        yield frozenset(HistoryVariable(view, a)
                        for views in layer for view, a in zip(views, agents))


def round_variables(rounds, base: EpistemicModel) -> frozenset:
    """History variables realized by the final round of a pattern sequence,
    over every history and every initial profile of the base model."""
    return [frozenset(), *_round_layers(rounds, base)][-1]


def history_atoms_below(rounds, base: EpistemicModel) -> frozenset:
    """All history variables realized strictly before the next round."""
    return frozenset().union(*_round_layers(rounds, base))


def realized_history_atoms(model: EpistemicModel) -> frozenset:
    """The history variables actually occurring in a model's valuations."""
    return frozenset(
        p for val in model.valuation.values()
        for p in val if isinstance(p, HistoryVariable)
    )


# -- induced round products ---------------------------------------------------

def induced_round_product(model: EpistemicModel, pattern: CommPattern,
                          atoms, base: EpistemicModel,
                          rounds_so_far: int) -> EpistemicModel:
    """One induced-model round in the history setting, applied lazily.

    ``model`` is the chain after ``rounds_so_far`` rounds from ``base``
    (the views are read off ``model``).  ``atoms`` is the atom universe of
    the round (base atoms plus all history variables realized in earlier
    rounds).  Worlds pair with (graph, fired valuation) actions exactly as
    the materialized induced model would, and the new round's history
    variables are made true, mirroring the round update.
    """
    from .actions import apply_induced

    plain = apply_induced(model, pattern, atoms)
    valuation = _round_valuation(plain, model, rounds_so_far, lambda act: act[0])
    return EpistemicModel._trusted(plain.worlds, plain.relations, valuation, plain.agents)


def induced_chain(model: EpistemicModel, rounds, base_atoms) -> EpistemicModel:
    """Apply one induced action model per round, left to right.

    Round k uses the induced model over the base atoms plus all history
    variables realized up to round k-1, so later rounds can convey what
    was learned in earlier ones.
    """
    rounds = tuple(rounds)
    base_universe = frozenset(base_atoms)
    current = model
    for k, pattern in enumerate(rounds):
        atoms = base_universe | realized_history_atoms(current)
        current = induced_round_product(current, pattern, atoms, model, k)
    return current


def displayed_round_points(pattern: CommPattern, sigma, base_atoms,
                           base: EpistemicModel):
    """Composite action points for a fixed graph sequence, by round:

    the round-1 component ranges over subsets of the base atoms, the
    round-k component (k > 1) over subsets of the history variables
    realized exactly at round k-1.
    """
    sigma = tuple(sigma)
    layers = [frozenset(base_atoms), *_round_layers([pattern] * (len(sigma) - 1), base)]
    pools = []
    for g, layer in zip(sigma, layers):
        universe = sorted(layer, key=atom_key)
        pools.append([(g, frozenset(p for i, p in enumerate(universe) if bits >> i & 1))
                      for bits in range(2 ** len(universe))])
    return [tuple(path) for path in product(*pools)]
