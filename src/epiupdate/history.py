"""Round-stamped models: views, history variables, and history-based semantics.

Across repeated rounds of communication, each agent accumulates a view:
a tree recording who it heard from in the last round and, recursively,
what those senders had seen before.  At the bottom of the tree sit the
senders' initial local valuations, so a view is a full record of
everything the agent has received.  A history variable is its owner's
view, used as a local atom of that agent; the round update behaves
exactly like the plain pattern update except that it additionally makes
the current round's history variables true.  With the received content
in the leaves, interpreted systems are closed under this update, which
is the point of the whole construction: equal local valuations then pin
down exactly the worlds an agent cannot distinguish.

An agent's view after sigma.R is its sender set in R with those senders'
views after sigma (Fagin, Halpern, Moses & Vardi, *Reasoning About
Knowledge*, 1995), built once per class of the senders' group.  The
round state is each agent's latest view per world, the model's
``columns``: the leaves at round zero, then each round's views, whose
depth is the round; a quotient keeps its representatives' (bisimilar
worlds hold equal views).  Graphs are reflexive, so a latest view holds
the agent's previous one, and so on down to the leaf with its initial
own atoms, and is itself an own atom: two worlds give an agent equal
latest views iff they agree on its own atoms.  So ``models.own_labels``
groups by the columns, one hash per world, and ``is_interpreted_system``
compares that with the labels.  This is the one view stepper over
models: universes of history variables are read off history rounds,
which the world cap bounds; ``view_of`` is its abstract step.  Views are
hash-consed (Filliatre & Conchon, 2006) through one table of weak
references, so a history round and an induced chain alive together share
their history variables, and valuations compare them by identity.  A
view dies with no Python frame: its entry is swept before the next view
is built or when the collector next runs.  Views enter through one door,
``_intern``, one lookup for a view that exists: the public ``View(...)``
checks outside input first, and rounds, leaves and skeletons are valid by
construction.  Round zero, ``HistoryModel(model)``, is the one start.

A :class:`HistoryModel` is an epistemic model whose pattern step is the
history round; every model with columns is one, so bisimilar points
agree on every formula.  There is no second evaluator: ``satisfies`` on
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

import gc
import weakref
from itertools import chain, product

from .comm import CommPattern, pattern_update
from .errors import EpiupdateError
from .models import (
    EpistemicModel, atom_key, ensure_capacity, ensure_printable, group_labels, world_name,
)

_VIEWS = {}  # fields -> a weakref.KeyedRef to the view with them
# A dying view hands its ref to a builtin, _DEAD.append, so it dies with no
# Python frame; its entry stays until the next sweep, and the entry's key
# keeps the dead view's children alive until then.
_DEAD = []
_died = _DEAD.append


def _sweep(*_) -> None:
    """Remove the entries of dead views, unless an equal view has taken the
    key.  Runs before a view is built and at each run of the collector; a
    freed key frees its children, whose refs join the queue."""
    while _DEAD:
        ref = _DEAD.pop()
        if _VIEWS.get(ref.key) is ref:
            del _VIEWS[ref.key]
        del ref  # the last holder of its key, and so of the children


gc.callbacks.append(_sweep)


def _intern(owner, children: tuple, initial, depth: int, is_abstract: bool) -> "View":
    """The live view with these fields, built only if there is none.

    The trusted path: ``children`` is a tuple in agent order holding
    ``owner``, ``initial`` is given only without children, and ``depth``
    and ``is_abstract`` are what the children make them.  It alone knows
    the table's key; ``View(...)`` checks its fields and ends here.  The
    entries of views that died since the last view was built are swept first.
    """
    # hash(None) is address-based on some Pythons, so a view without an
    # initial valuation leaves it out: hashes stay equal across runs
    key = (owner, children) if initial is None else (owner, children, initial)
    ref = _VIEWS.get(key)
    if ref is not None:
        view = ref()
        if view is not None:
            return view
    if _DEAD:
        _sweep()
    view = object.__new__(View)
    view.owner = owner
    view.children = children
    view.initial = initial
    view.depth = depth
    view.is_abstract = is_abstract
    view._hash = hash(key)
    view._skeleton = None
    view._printed = None
    view._text = None
    _VIEWS[key] = weakref.KeyedRef(view, _died, key)
    return view


class View:
    """One agent's record of one history, which is that agent's history variable.

    ``owner`` is the agent whose record it is.  A round-zero view has no
    children and carries ``initial``, the owner's initial local valuation
    (``None`` in abstract views).  A later view carries one child view per
    agent heard from in the last round, from the round before, in agent
    order; graphs are reflexive, so the owner is among them.  ``depth``
    counts the rounds, 0 for a round-zero view.  As a local atom of its
    owner a view is the history variable of its round.  Views are
    immutable and hash-consed through one table of weak references, so
    equal views are one object while any is alive (a dead view's entry
    stays until the next sweep); equality stays structural, so no answer
    depends on the table.  ``View(...)`` serves outside input (the formula
    parser, ``view_of``, user code): it checks its fields, then interns.
    """

    __slots__ = ("owner", "children", "initial", "depth", "is_abstract", "_hash",
                 "_skeleton", "_printed", "_text", "__weakref__")

    def __new__(cls, owner, children=(), initial=None):
        children = tuple(children)
        if not children:
            return _intern(owner, children, initial, 0, initial is None)
        group = [c.owner for c in children]
        if any(x >= y for x, y in zip(group, group[1:])):
            raise ValueError("a view's children need distinct owners in agent order")
        if owner not in group:
            raise ValueError("a view's owner must be among the agents it heard from")
        if initial is not None:
            raise ValueError("only round-zero views carry an initial valuation")
        return _intern(owner, children, None, 1 + max(c.depth for c in children),
                       any(c.is_abstract for c in children))

    def __eq__(self, other):
        return (self is other
                or (isinstance(other, View)
                    and self._hash == other._hash
                    and self.owner == other.owner
                    and self.children == other.children
                    and self.initial == other.initial))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"View({self})"

    def skeleton(self) -> "View":
        """The same tree with all leaf content removed (built once per view)."""
        if self._skeleton is None:
            for v in _bottom_up(self, lambda v: v._skeleton is not None):
                sk = _intern(v.owner, tuple([c._skeleton or c for c in v.children]), None,
                             v.depth, True)
                # a view keeping itself would be a cycle: False stands for it
                v._skeleton = False if sk is v else sk
        return self._skeleton or self

    def serialize(self) -> str:
        """Canonical rendering: children in agent order, dot before the group.

        Leaves are invisible; a view whose children are all round-zero
        prints as just its sender set.  Counted first, then built once.
        """
        if self._text is None:
            ensure_printable(self._counts()[0], "history variable")
            for v in _bottom_up(self, lambda v: v._text is not None):
                root = "".join(c.owner for c in v.children)
                inner = [c._text for c in v.children]
                if not any(inner):  # a leaf, or all children are leaves
                    v._text = root
                elif len(inner) == 1:
                    v._text = f"{inner[0]}.{root}"
                else:
                    v._text = "(" + ",".join(inner) + f").{root}"
        return self._text

    def _counts(self) -> tuple:
        """``(len(self.serialize()), characters of the leaf names, leaves)``,
        counted once per view from its children's, so a print is measured unbuilt."""
        if self._printed is None:
            for v in _bottom_up(self, lambda v: v._printed is not None):
                if v.depth:
                    ser, chars, leaves = map(sum, zip(*[c._printed for c in v.children]))
                    if ser:  # "inner.root" or "(inner,...).root"
                        ser += 1 if len(v.children) == 1 else len(v.children) + 2
                    v._printed = (ser + sum(len(c.owner) for c in v.children), chars, leaves)
                else:
                    v._printed = (0, len(_leaf_name(v)), 1)
        return self._printed

    def printed_length(self) -> int:
        """``len(str(self))``, known without building the string."""
        return self._counts()[0] + len(self.owner) + (3 if self.depth > 1 else 1)

    def __str__(self):
        ensure_printable(self.printed_length(), "history variable")
        if self.depth > 1:  # the rendering holds a dot
            return f"({self.serialize()})_{self.owner}"
        return f"{self.serialize()}_{self.owner}"

    def id_name(self) -> str:
        """The form ids use: ``str(self)`` and the sorted leaf contents in
        tree order (``ab_b[p_a|]``), so that look-alike variables differ."""
        _, chars, leaves = self._counts()
        ensure_printable(self.printed_length() + chars + leaves + 1, "history variable")
        return f"{self}[{'|'.join(_leaf_names(self))}]"


def _bottom_up(view: View, known) -> list:
    """The distinct views below ``view``, itself included, children before
    parents, with no stack of Python frames; a view for which ``known``
    holds and the views below it are left out."""
    order, seen, stack = [], set(), [(view, False)]
    while stack:
        v, expanded = stack.pop()
        if expanded:
            order.append(v)
        elif id(v) not in seen and not known(v):
            seen.add(id(v))
            stack.append((v, True))
            stack.extend((c, False) for c in v.children)
    return order


def _leaf_name(leaf: View) -> str:
    return "?" if leaf.initial is None else ",".join(sorted(map(str, leaf.initial)))


def _leaf_names(view: View) -> list:
    """The names of the leaves below ``view`` in tree order, repeats kept."""
    names, stack = [], [view]
    while stack:
        v = stack.pop()
        if v.depth:
            stack.extend(reversed(v.children))
        else:
            names.append(_leaf_name(v))
    return names


def view_of(agent: str, history) -> View:
    """The abstract view of an agent on a sequence of communication graphs."""
    views = {}
    for graph in history:
        views = {a: View(a, [views.get(b) or View(b) for b in sorted(graph.heard[a])])
                 for a in graph.agents}
    return views[agent] if views else View(agent)


def atom_holds(valuation: frozenset, atom) -> bool:
    """Membership test that lets abstract history variables match by shape."""
    if isinstance(atom, View) and atom.is_abstract:
        want = atom.skeleton()
        return any(isinstance(p, View) and p.skeleton() == want for p in valuation)
    return atom in valuation


class HistoryModel(EpistemicModel):
    """A model whose pattern step is the history round; every model with view columns.

    Its valuations include the accumulated history variables.  Its worlds
    are (v, R) in a history round and (v, (R, q)) in an induced chain
    round, for a world v of the round before, a graph R and a fired
    valuation q; round zero and quotients keep their input's world ids.
    Only its update step differs from a plain model's: a pattern steps to
    the next history round and an action model is rejected, so
    ``satisfies`` on it is the history-based semantics.  ``round`` is
    read off its view columns (see the module docstring).
    """

    def __init__(self, model: EpistemicModel):
        """Round zero on ``model``, which must hold no history variables: its
        columns are the leaves, each agent's initial own atoms per world."""
        for w, val in zip(model.worlds, model.vals):
            if held := [p for p in val if isinstance(p, View)]:
                raise EpiupdateError(
                    "a history starts from a model without history variables; world "
                    f"{world_name(w)} holds {min(held, key=atom_key)}")
        leaves = {a: tuple(_intern(a, (), frozenset(p for p in val if p.owner == a), 0, False)
                           for val in model.vals) for a in model.agents}
        self._assign(model.worlds, model.labels, model.vals, model.agents, leaves)

    @property
    def model(self) -> "HistoryModel":
        """The history model itself, which is an epistemic model."""
        return self

    @property
    def round(self) -> int:
        """The depth of the latest views; 0 for a model without worlds."""
        return next(iter(self.columns.values()))[0].depth if self.worlds else 0

    def __repr__(self):
        return f"<HistoryModel round {self.round}, {len(self.worlds)} worlds>"

    def step(self, mechanism) -> "HistoryModel":
        if isinstance(mechanism, CommPattern):
            return history_update(self, mechanism)
        raise EpiupdateError(
            "action-model modalities are not interpreted in the history semantics")


def history_start(model: EpistemicModel) -> HistoryModel:
    """Round zero: the model itself, which must hold no history variables."""
    return HistoryModel(model)


def history_update(h: HistoryModel, pattern: CommPattern) -> HistoryModel:
    """One more round: the pattern update plus the new round's history variables.

    Relations come from the plain pattern update of the current model;
    the valuation of (w, sigma.R) additionally contains the view variable
    of every agent for the extended history sigma.R.
    """
    return _round_valuation(pattern_update(h, pattern), h, pattern.graphs)


def _round_valuation(plain: EpistemicModel, prev: HistoryModel, graphs) -> HistoryModel:
    """The next round: ``plain`` with the new round's history variables
    true, as a history model whose columns are read off ``prev``'s.
    ``plain`` lists a world ``(v, step)`` per world v of ``prev`` and graph,
    in that order, as the products do.  A sender's view is its own atom,
    so constant on its blocks: an agent's view is built once per class of
    its senders.  Its children are latest views of ``prev``, so it is
    concrete and one round deeper, and it is built on the trusted path."""
    latest, columns, depth = prev.columns, {}, prev.round + 1
    for a in plain.agents:
        heard = {}  # senders -> the agent's new view at each world of prev
        for senders in dict.fromkeys(g.heard[a] for g in graphs):
            cols = [latest[b] for b in sorted(senders)]
            classes, col = group_labels(prev, senders), []
            for i, c in enumerate(classes):
                if c == len(col):  # classes are numbered by their first world
                    col.append(_intern(a, tuple([x[i] for x in cols]), None, depth, False))
            heard[senders] = [col[c] for c in classes]
        columns[a] = tuple(chain.from_iterable(zip(*(heard[g.heard[a]] for g in graphs))))
    vals = tuple(val | frozenset(row) for val, row in zip(plain.vals, zip(*columns.values())))
    return HistoryModel._trusted(plain.worlds, plain.labels, vals, plain.agents, columns)


def history_power(model: EpistemicModel, pattern: CommPattern, n: int) -> HistoryModel:
    """n rounds of one pattern (the oblivious protocol)."""
    h = history_start(model)
    for _ in range(n):
        h = history_update(h, pattern)
    return h


# -- history variable universes ----------------------------------------------

def _round_layers(rounds, base: EpistemicModel):
    """Per round of a pattern sequence, the history variables of its history
    round on ``base``; a base holding any fails, even with no rounds."""
    h = history_start(base)
    for pattern in rounds:
        h = history_update(h, pattern)
        yield frozenset().union(*h.columns.values())


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
        p for val in model.vals for p in val if isinstance(p, View))


# -- induced round products ---------------------------------------------------

def induced_round_product(model: EpistemicModel, pattern: CommPattern,
                          atoms, base: EpistemicModel,
                          rounds_so_far: int) -> HistoryModel:
    """One induced-model round in the history setting, applied lazily.

    ``model`` is the chain after ``rounds_so_far`` rounds: a model without
    history variables at round 0, whose leaves are built here, or a history
    model.  ``base`` is not read.  ``atoms`` is the atom universe of the
    round (base atoms plus all history variables realized in earlier
    rounds).  Worlds pair with (graph, fired valuation) actions exactly as
    the materialized induced model would, and the new round's history
    variables are made true: the result is a history model.
    """
    from .actions import apply_induced

    prev = HistoryModel(model) if rounds_so_far == 0 else model
    if prev.columns is None:
        raise EpiupdateError(f"induced round {rounds_so_far + 1} reads the view columns "
                             f"of round {rounds_so_far}, and this model has none")
    return _round_valuation(apply_induced(model, pattern, atoms), prev, pattern.graphs)


def induced_chain(model: EpistemicModel, rounds, base_atoms) -> HistoryModel:
    """Apply one induced action model per round, left to right, from round zero.

    Round k uses the induced model over the base atoms plus all history
    variables realized up to round k-1, so later rounds can convey what
    was learned in earlier ones.  No rounds leave ``history_start(model)``.
    """
    current, atoms = model, frozenset(base_atoms)
    for k, pattern in enumerate(rounds):
        current = induced_round_product(current, pattern, atoms, model, k)
        atoms |= frozenset().union(*current.columns.values())
    return HistoryModel(model) if current is model else current


def displayed_round_points(pattern: CommPattern, sigma, base_atoms,
                           base: EpistemicModel):
    """Composite action points for a fixed graph sequence, by round:

    the round-1 component ranges over subsets of the base atoms, the
    round-k component (k > 1) over subsets of the history variables
    realized exactly at round k-1.  Their number counts against the world
    cap before any is built.
    """
    sigma = tuple(sigma)
    layers = [frozenset(base_atoms), *_round_layers([pattern] * (len(sigma) - 1), base)]
    ensure_capacity(2 ** sum(map(len, layers[:len(sigma)])))
    pools = []
    for g, layer in zip(sigma, layers):
        universe = sorted(layer, key=atom_key)
        pools.append([(g, frozenset(p for i, p in enumerate(universe) if bits >> i & 1))
                      for bits in range(2 ** len(universe))])
    return [tuple(path) for path in product(*pools)]
