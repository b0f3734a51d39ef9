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

from functools import lru_cache
from itertools import product

from .comm import CommPattern, pattern_update
from .errors import EpiupdateError
from .models import EpistemicModel


class View:
    """One agent's record of one history.

    A round-zero view has an empty ``group`` and carries ``initial``, the
    owner's initial local valuation (``None`` in abstract views).  A
    later view carries the sorted tuple of agents heard from in the last
    round and one child view per member, from the round before.  Views
    are immutable; the hash is precomputed because valuations containing
    deep trees are hashed constantly in products.
    """

    __slots__ = ("group", "children", "initial", "_hash", "_abstract")

    def __init__(self, group, children, initial=None):
        group = tuple(group)
        children = tuple(children)
        if tuple(sorted(group)) != group:
            raise ValueError("view group must be sorted by agent name")
        if group:
            if len(children) != len(group):
                raise ValueError("a view needs one child per group member")
            if initial is not None:
                raise ValueError("only round-zero views carry an initial valuation")
        elif children:
            raise ValueError("a round-zero view has no children")
        self.group = group
        self.children = children
        self.initial = initial
        if not group:
            self._abstract = initial is None
        else:
            self._abstract = any(c.is_abstract for c in children)
        # hash(None) is address-based on some Pythons, so a view without an
        # initial valuation leaves it out: hashes stay equal across runs
        self._hash = hash((group, children) if initial is None
                          else (group, children, initial))

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

    @property
    def is_start(self) -> bool:
        return not self.group

    @property
    def is_abstract(self) -> bool:
        return self._abstract

    def skeleton(self) -> "View":
        """The same tree with all leaf content removed."""
        return _skeleton(self)

    def serialize(self) -> str:
        """Canonical rendering: children in agent order, dot before the group.

        Leaves are invisible; a view whose children are all round-zero
        prints as just its sender set.
        """
        if self.is_start:
            return ""
        root = "".join(self.group)
        if all(c.is_start for c in self.children):
            return root
        inner = [c.serialize() for c in self.children]
        if len(inner) == 1:
            return f"{inner[0]}.{root}"
        return "(" + ",".join(inner) + f").{root}"

    def __str__(self):
        return self.serialize() or "()"


EMPTY_VIEW = View((), ())


@lru_cache(maxsize=None)
def _skeleton(view: View) -> View:
    if view.is_start:
        return EMPTY_VIEW
    return View(view.group, tuple(_skeleton(c) for c in view.children))


@lru_cache(maxsize=None)
def view_of(agent: str, history: tuple) -> View:
    """The abstract view of an agent on a sequence of communication graphs."""
    if not history:
        return EMPTY_VIEW
    *earlier, last = history
    heard = sorted(last.heard[agent])
    children = tuple(view_of(b, tuple(earlier)) for b in heard)
    return View(tuple(heard), children)


@lru_cache(maxsize=None)
def concrete_view(agent: str, history: tuple, initials: tuple) -> View:
    """The view of an agent with initial local valuations in the leaves.

    ``initials`` is a sorted tuple of (agent, frozenset-of-atoms) pairs
    fixing every agent's round-zero local valuation.
    """
    if not history:
        return View((), (), initial=dict(initials)[agent])
    *earlier, last = history
    heard = sorted(last.heard[agent])
    children = tuple(concrete_view(b, tuple(earlier), initials) for b in heard)
    return View(tuple(heard), children)


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
                    and self.view == other.view))

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


def _initials_key(model: EpistemicModel, world) -> tuple:
    grouped = model.locals_at(world)
    empty = frozenset()
    return tuple((a, grouped.get(a, empty)) for a in model.agents)


class HistoryModel(EpistemicModel):
    """A model together with the rounds of communication that produced it.

    Its worlds, relations and valuation are those of ``model``, whose
    valuations include the accumulated history variables; worlds have
    shape (...((w, R1), R2)...) for a base world w and one graph per
    round.  It differs from a plain model only in its update step: a
    pattern steps to the next history round and an action model is
    rejected, so ``satisfies`` on a history model is the history-based
    semantics.
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
    """Round zero: the model itself, with every history variable false."""
    return HistoryModel(model, model, ())


def history_update(h: HistoryModel, pattern: CommPattern) -> HistoryModel:
    """One more round: the pattern update plus the new round's history variables.

    Relations come from the plain pattern update of the current model;
    the valuation of (w, sigma.R) additionally contains the view variable
    of every agent for the extended history sigma.R.
    """
    plain = pattern_update(h, pattern)
    valuation = _round_valuation(plain, h.base, h.round, lambda g: g)
    return HistoryModel._trusted(plain.worlds, plain.relations, valuation, plain.agents,
                                 h.base, h.rounds + (pattern,))


def _round_valuation(plain: EpistemicModel, base: EpistemicModel,
                     rounds_so_far: int, graph_of) -> dict:
    """The valuation of ``plain`` with the new round's history variables
    made true.

    Each world of ``plain`` nests one step per round around a base world,
    ``(...((w, s1), s2)..., s_n)`` with n = ``rounds_so_far + 1``;
    ``graph_of`` reads a round's communication graph off its step.  Every
    agent gets the variable of its view on the graph sequence, with the
    base world's local valuations in the leaves.
    """
    valuation = {}
    var_cache: dict[tuple, frozenset] = {}
    for w in plain.worlds:
        graphs = []
        x = w
        for _ in range(rounds_so_far + 1):
            x, step = x
            graphs.append(graph_of(step))
        key = (tuple(reversed(graphs)), _initials_key(base, x))
        added = var_cache.get(key)
        if added is None:
            sigma, initials = key
            added = frozenset(
                HistoryVariable(concrete_view(a, sigma, initials), a)
                for a in plain.agents
            )
            var_cache[key] = added
        valuation[w] = plain.valuation[w] | added
    return valuation


def history_power(model: EpistemicModel, pattern: CommPattern, n: int) -> HistoryModel:
    """n rounds of one pattern (the oblivious protocol)."""
    h = history_start(model)
    for _ in range(n):
        h = history_update(h, pattern)
    return h


# -- history variable universes ----------------------------------------------

def round_variables(rounds, base: EpistemicModel) -> frozenset:
    """History variables realized by the final round of a pattern sequence.

    Enumerates every history over the rounds and every initial profile
    occurring in the base model.
    """
    rounds = tuple(rounds)
    if not rounds:
        return frozenset()
    agents = base.agents
    profiles = {_initials_key(base, w) for w in base.worlds}
    out = set()
    for sigma in product(*(p.graphs for p in rounds)):
        for initials in profiles:
            for a in agents:
                out.add(HistoryVariable(concrete_view(a, sigma, initials), a))
    return frozenset(out)


def history_atoms_below(rounds, base: EpistemicModel) -> frozenset:
    """All history variables realized strictly before the next round."""
    rounds = tuple(rounds)
    out = set()
    for k in range(1, len(rounds) + 1):
        out |= round_variables(rounds[:k], base)
    return frozenset(out)


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

    ``atoms`` is the atom universe of the round (base atoms plus all
    history variables realized in earlier rounds).  Worlds pair with
    (graph, fired valuation) actions exactly as the materialized induced
    model would, and the new round's history variables are made true,
    mirroring the round update.
    """
    from .actions import apply_induced

    plain = apply_induced(model, pattern, atoms)
    valuation = _round_valuation(plain, base, rounds_so_far, lambda act: act[0])
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
    rounds = [pattern] * len(sigma)
    pools = []
    for k, g in enumerate(sigma):
        if k == 0:
            universe = sorted(frozenset(base_atoms), key=str)
        else:
            universe = sorted(round_variables(rounds[:k], base), key=str)
        subsets = []
        for bits in range(2 ** len(universe)):
            subsets.append(frozenset(universe[i] for i in range(len(universe))
                                     if bits >> i & 1))
        pools.append([(g, q) for q in subsets])
    return [tuple(path) for path in product(*pools)]
