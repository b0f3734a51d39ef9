"""Finite epistemic models over agents and agent-owned atoms.

A model is stored by world position, in three parts: ``worlds``, the
tuple of world ids; ``labels[agent]``, each world's block number in world
order, blocks numbered by their first world, so each agent's
indistinguishability relation is a partition and reflexivity, symmetry
and transitivity hold by construction; and ``vals``, each world's
valuation as a frozenset, in world order.  Everything keyed by world id
is a view derived on first use: ``_index`` (each world's position), the
block tuple ``relations[agent]`` and the ``valuation`` mapping.  Group
meets (:func:`group_labels`) are label lists too.  Models are immutable
after construction; every operation here is a pure function of its
inputs and results can be shared freely across tasks.

Locality is enforced: two worlds an agent cannot tell apart must agree on
all atoms owned by that agent.

Validation happens at the boundary only.  The public constructors, which
user code and JSON loading call, check identifiers, partitions, atom
owners and locality, and fail with a diagnostic.  Products built inside
the package (pattern and action-model updates, induced models, history
rounds, quotients, interpreted systems) take the trusted ``_trusted``
path, which only sets fields.  They are valid by construction: they hand
over labels from :func:`labels_by` and valuations, both computed by
position from those of their inputs, so blocks are numbered by first
element and no product builds a dict keyed by world id; atoms and their
owners come from valid inputs; and every product relates two worlds for
an agent only when the agent could not tell their sources apart either,
so a product of a local model is local.  The test suite rebuilds every
product through the public constructors to check this.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable

from .errors import (
    EmptyModelError, EpiupdateError, LocalityError, ModelCapError, UnknownNameError,
)

World = Hashable

DEFAULT_WORLD_CAP = 100_000


def world_cap() -> int:
    """Current product-size cap, read from EPIUPDATE_MAX_WORLDS."""
    raw = os.environ.get("EPIUPDATE_MAX_WORLDS")
    if not raw:
        return DEFAULT_WORLD_CAP
    if not raw.strip().isdecimal():
        raise EpiupdateError(
            f"EPIUPDATE_MAX_WORLDS must be a non-negative integer, not {raw!r}")
    return int(raw)


def ensure_capacity(count: int, what: str = "product would have {} worlds") -> None:
    """Raise ModelCapError if ``count`` things (worlds unless ``what`` names
    others) exceed the cap, before any of them is built."""
    cap = world_cap()
    if count > cap:
        e = (count & -count).bit_length() - 1  # Python prints no int past 4,300 digits
        size = count if count < 2 ** 64 else f"{count >> e} * 2^{e}"
        raise ModelCapError(
            f"{what.format(size)}, exceeding the cap of {cap} "
            f"(raise EPIUPDATE_MAX_WORLDS to override)"
        )


def ensure_printable(length: int, what: str) -> None:
    """Raise ModelCapError if a text of ``length`` characters, about to be
    built, exceeds the larger of the world cap and its default."""
    if length > DEFAULT_WORLD_CAP:
        ensure_capacity(length, f"{what} would print {{}} characters")


def _sorted_agents(agents) -> tuple:
    """The agent names in order; a name given twice is an error."""
    agents = tuple(sorted(agents))
    for a, b in zip(agents, agents[1:]):
        if a == b:
            raise ValueError(f"duplicate agent {a!r}")
    return agents


class Atom:
    """A propositional variable owned by a single agent, written ``base_owner``.

    Immutable; the hash is precomputed since atoms are hashed constantly
    in valuation sets.
    """

    __slots__ = ("base", "owner", "_hash")

    def __init__(self, base: str, owner: str):
        self.base = base
        self.owner = owner
        self._hash = hash((base, owner))

    def __eq__(self, other):
        return (self is other
                or (isinstance(other, Atom)
                    and self.base == other.base and self.owner == other.owner))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Atom({self.base!r}, {self.owner!r})"

    def __str__(self) -> str:
        return f"{self.base}_{self.owner}"


def atom_named(atoms_by_name: dict, name: str) -> Atom:
    """The atom written ``name`` in a name-to-atom table."""
    try:
        return atoms_by_name[name]
    except KeyError:
        raise UnknownNameError(f"unknown atom {name!r}") from None


def check_owners(atoms, agents) -> None:
    """Raise UnknownNameError for the first atom, by :func:`atom_key`, not owned by an agent."""
    stray = [p for p in atoms if p.owner not in agents]
    if stray:
        p = min(stray, key=atom_key)
        raise UnknownNameError(f"atom {str(p)!r} is owned by unknown agent {p.owner!r}")


def atom_key(atom) -> str:
    """Canonical sort key for anything atom-like, and its form in ids: a
    history variable adds its leaf content, so no two print alike."""
    id_name = getattr(atom, "id_name", None)
    return id_name() if id_name else str(atom)


def labels_by(keys) -> list:
    """Each key's block number, blocks numbered in order of their first
    key: the partition form the trusted path takes."""
    ids: dict = {}
    return [ids.setdefault(k, len(ids)) for k in keys]


def blocks_of(elements, labels) -> tuple:
    """Per label in order, the frozenset of the elements at its positions."""
    cells: list[list] = [[] for _ in range(max(labels, default=-1) + 1)]
    for x, b in zip(elements, labels):
        cells[b].append(x)
    return tuple(map(frozenset, cells))


class _Partitioned:
    """Elements (worlds or actions) with one partition of them per agent.

    The shared core of epistemic and action models.  ``_validated`` checks
    user input; ``_trusted`` builds an instance from fields that are valid
    by construction.  Both end in the subclass's ``_assign``, which only
    sets fields, so the public constructor is validation followed by the
    trusted path.  ``labels`` lists must not be changed after they are
    handed over: products and group meets share them.
    """

    @classmethod
    def _trusted(cls, *fields):
        """An instance from the fields ``_assign`` takes, without checks."""
        self = cls.__new__(cls)
        self._assign(*fields)
        return self

    @classmethod
    def _validated(cls, elements, relations, agents, noun: str) -> tuple:
        """``(elements, labels, agents)`` checked and in the trusted form:
        a tuple, each agent's labels from :func:`labels_by`, and the
        sorted agents."""
        elems = tuple(elements)
        index = {x: i for i, x in enumerate(elems)}
        if len(index) != len(elems):
            raise ValueError(f"duplicate {noun} identifiers")
        if agents is None:
            agents = tuple(sorted(relations))
        else:
            agents = _sorted_agents(agents)
            if set(relations) != set(agents):
                raise ValueError("relations must cover exactly the agent set")
        labels = {a: cls._block_labels(a, relations[a], index, noun) for a in agents}
        return elems, labels, agents

    def _assign_partitions(self, elements: tuple, labels: dict, agents: tuple) -> None:
        self._elements = elements
        self.labels = labels
        self.agents = agents

    @cached_property
    def _index(self) -> dict:
        """Each element's position; derived on first use, since many
        products are only read by position."""
        return {x: i for i, x in enumerate(self._elements)}

    @cached_property
    def relations(self) -> dict:
        """Each agent's blocks as frozensets, in the order of their labels;
        derived on first use, since many products are only read by label."""
        return {a: blocks_of(self._elements, self.labels[a]) for a in self.agents}

    @staticmethod
    def _block_labels(agent, blocks, index: dict, noun: str) -> list:
        """Validate one agent's blocks, then label each element with its
        block, blocks numbered by first element."""
        given: dict = {}
        for i, b in enumerate(blocks):
            blk = frozenset(b)
            if not blk:
                raise ValueError(f"empty block in relation of agent {agent}")
            if not given.keys().isdisjoint(blk):
                raise ValueError(f"overlapping blocks in relation of agent {agent}")
            given.update(dict.fromkeys(blk, i))
        if given.keys() != index.keys():
            unknown = sorted(repr(x) for x in given if x not in index)
            if unknown:
                raise ValueError(f"relation of agent {agent} names unknown "
                                 f"{noun} {unknown[0]}")
            raise ValueError(f"relation of agent {agent} does not cover all {noun}s")
        return labels_by(map(given.__getitem__, index))


class EpistemicModel(_Partitioned):
    """Worlds, one partition per agent, and a valuation of owned atoms.

    ``relations`` maps each agent to an iterable of blocks (iterables of
    worlds); the blocks must partition the world set exactly.  ``valuation``
    maps worlds to collections of atom-like values (anything hashable with
    an ``owner`` attribute); missing worlds get the empty valuation.  The
    model stores them by position, as ``vals``; its ``valuation`` is a
    mapping derived from that on first use.
    """

    __hash__ = object.__hash__

    def __init__(self, worlds, relations, valuation, agents=None):
        worlds, labels, agents = self._validated(worlds, relations, agents, "world")
        if not agents:
            raise ValueError("agent set must be nonempty")
        vals = tuple(frozenset(valuation.get(w, ())) for w in worlds)
        check_owners(frozenset().union(*vals), agents)
        self._assign(worlds, labels, vals, agents)
        bad = _locality_violation(self)
        if bad is not None:
            a, first, w = bad
            raise LocalityError(
                f"worlds {world_name(first)} and {world_name(w)} are "
                f"indistinguishable for agent {a} but disagree on "
                f"{a}-owned atoms"
            )

    def _assign(self, worlds: tuple, labels: dict, vals: tuple, agents: tuple, columns=None):
        """The trusted path: ``labels`` per agent in the form of
        :func:`labels_by`, ``vals`` a frozenset per world in world order,
        ``agents`` sorted, ``columns`` set only on history models."""
        self._assign_partitions(worlds, labels, agents)
        self.worlds = worlds
        self.vals = vals
        self.columns = columns

        # group meets, computed once; values are deterministic, so a racy
        # double computation is harmless
        self._group_cache: dict[frozenset, list] = {}

    @cached_property
    def valuation(self) -> dict:
        """Each world's valuation, keyed by world id; derived on first use."""
        return dict(zip(self.worlds, self.vals))

    # -- accessors -------------------------------------------------------

    def __len__(self):
        return len(self.worlds)

    def __repr__(self):
        return f"<EpistemicModel {len(self.worlds)} worlds, agents {','.join(self.agents)}>"

    @property
    def is_empty(self) -> bool:
        return not self.worlds

    def has_world(self, w) -> bool:
        return w in self._index

    def require_world(self, w):
        if self.is_empty:
            raise EmptyModelError("pointed query against an empty model")
        if w not in self._index:
            raise _unknown_world(w)

    def block_of(self, agent, world) -> frozenset:
        return self.relations[agent][self.labels[agent][self._index[world]]]

    def step(self, mechanism) -> EpistemicModel:
        """The model updated by a pattern or an action model: here the plain
        ``pattern_update`` or ``action_update``; a history model overrides it.
        Each call builds the product anew: models keep no products."""
        from .comm import CommPattern, pattern_update
        if isinstance(mechanism, CommPattern):
            return pattern_update(self, mechanism)
        from .actions import action_update
        return action_update(self, mechanism)

    def world_named(self, name: str):
        for w in self.worlds:
            if world_name(w) == name:
                return w
        raise _unknown_world(name)


def _unknown_world(w) -> UnknownNameError:
    return UnknownNameError(f"unknown world {world_name(w)!r}")


@dataclass(frozen=True)
class PointedModel:
    """A model with a distinguished world (the evaluation point)."""

    model: EpistemicModel
    point: World

    def __post_init__(self):
        self.model.require_world(self.point)


def world_name(w) -> str:
    """Render a (possibly product) world identifier as a dotted path."""
    steps = []
    while isinstance(w, tuple) and len(w) == 2:
        w, step = w
        steps.append(_component_name(step))
    return ".".join([_component_name(w), *reversed(steps)])


def _component_name(x) -> str:
    # communication graphs and induced actions know how to render themselves
    name = getattr(x, "name", None)
    if isinstance(name, str):
        return name
    if isinstance(x, tuple) and len(x) == 2:
        if hasattr(x[0], "name"):
            graph, values = x
            vals = ",".join(sorted(atom_key(p) for p in values))
            return f"({graph.name},{{{vals}}})"
        # a composed action or a product world: the tuple's repr, with nested
        # pairs rendered here so that no valuation prints in hash order
        parts = (_component_name(c) if isinstance(c, tuple) else repr(c) for c in x)
        return "(" + ", ".join(parts) + ")"
    return str(x)


def own_labels(model: EpistemicModel, agent) -> list:
    """Each world's block of the grouping by the agent's own atoms, in the
    form of :func:`labels_by`: by its column of latest views if the model has
    columns (a history model; see ``history``), else by one intersection per
    distinct valuation."""
    if model.columns is not None:
        return labels_by(model.columns[agent])
    distinct = set(model.vals)
    own = frozenset(p for p in frozenset().union(*distinct) if p.owner == agent)
    mine = {val: own & val for val in distinct}
    return labels_by(map(mine.__getitem__, model.vals))


def _locality_violation(model: EpistemicModel):
    """The first (agent, w, v) where w and v share a block of the agent but
    disagree on its own atoms, or None when the model is local.  The block
    is the first such in label order, ``w`` its first world and ``v`` the
    first later one that disagrees with ``w``, so the answer does not
    depend on the hash seed."""
    for a in model.agents:
        own = own_labels(model, a)
        first: dict[int, int] = {}  # block -> the position of its first world
        bad: dict[int, int] = {}    # block -> the first position unlike it
        for i, b in enumerate(model.labels[a]):
            if own[first.setdefault(b, i)] != own[i]:
                bad.setdefault(b, i)
        if bad:
            b = min(bad)
            return a, model.worlds[first[b]], model.worlds[bad[b]]
    return None


def is_local(model: EpistemicModel) -> bool:
    """True iff every agent's blocks are constant on that agent's own atoms."""
    return _locality_violation(model) is None


def is_interpreted_system(model: EpistemicModel) -> bool:
    """True iff each agent's partition is exactly the grouping by own-atom valuation.

    Locality gives one direction (indistinguishable worlds agree on own
    atoms); an interpreted system also satisfies the converse: equal
    own-atom valuations force indistinguishability.  The grouping comes
    from :func:`own_labels`, read off the view columns of any model that
    has them, and is always compared with ``model.labels``.
    """
    return all(own_labels(model, a) == model.labels[a] for a in model.agents)


def group_relation(model: EpistemicModel, group) -> tuple:
    """The partition for a nonempty agent group: the meet of the members'
    partitions, as blocks in order of first world."""
    return blocks_of(model.worlds, group_labels(model, group))


def group_labels(model: EpistemicModel, group) -> list:
    """The labels of a nonempty agent group's relation, computed once per
    model and group.  A group's class pairs its class without its last
    agent (in name order) with its block of that agent."""
    b = frozenset(group)
    if not b:
        raise ValueError("agent group must be nonempty")
    unknown = b - set(model.agents)
    if unknown:
        raise UnknownNameError(f"unknown agents in group: {sorted(unknown)}")
    hit = model._group_cache.get(b)
    if hit is None:
        *rest, last = sorted(b)
        hit = model.labels[last]
        if rest:
            hit = labels_by(zip(group_labels(model, rest), hit))
        model._group_cache[b] = hit
    return hit


def full_interpreted_system(atoms, agents=()) -> EpistemicModel:
    """The interpreted system over all valuations of the given atoms.

    Worlds are all 2^n subsets of the atom set, named by bit strings in
    canonical atom order ("11" = both atoms true).  Two worlds are
    indistinguishable for an agent iff they agree on the agent's atoms.
    """
    atoms = sorted(set(atoms), key=atom_key)
    ags = tuple(sorted(set(agents) | {p.owner for p in atoms}))
    if not ags:
        raise ValueError("no agents: pass agents= when the atom set is empty")
    n = len(atoms)
    ensure_capacity(2 ** n)

    worlds = tuple(format(bits, f"0{n}b") if n else "w" for bits in range(2 ** n))
    vals = tuple(frozenset(atoms[i] for i in range(n) if w[i] == "1") for w in worlds)
    labels = {a: labels_by(frozenset(p for p in val if p.owner == a) for val in vals)
              for a in ags}
    return EpistemicModel._trusted(worlds, labels, vals, ags)
