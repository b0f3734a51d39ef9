"""Finite epistemic models over agents and agent-owned atoms.

Each agent's indistinguishability relation is stored as a partition of the
worlds, so reflexivity, symmetry and transitivity hold by construction.
Models are immutable after construction; every operation here is a pure
function of its inputs and results can be shared freely across tasks.

Locality is enforced: two worlds an agent cannot tell apart must agree on
all atoms owned by that agent.

Validation happens at the boundary only.  The public constructors, which
user code and JSON loading call, check identifiers, partitions, atom
owners and locality, and fail with a diagnostic.  Products built inside
the package (pattern and action-model updates, induced models, history
rounds, quotients, interpreted systems) take the trusted ``_trusted``
path, which only sets fields.  They are valid by construction: their
blocks come from :func:`partition_by`, so they partition the elements in
first-element order; atoms and their owners come from valid inputs; and
every product relates two worlds for an agent only when the agent could
not tell their sources apart either, so a product of a local model is
local.  The test suite rebuilds every product through the public
constructors to check this.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
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


def ensure_capacity(n_worlds: int) -> None:
    cap = world_cap()
    if n_worlds > cap:
        raise ModelCapError(
            f"product would have {n_worlds} worlds, exceeding the cap of {cap} "
            f"(raise EPIUPDATE_MAX_WORLDS to override)"
        )


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


def atom_key(atom) -> str:
    """Canonical sort key for anything atom-like, and its form in ids: a
    history variable adds its leaf content, so no two print alike."""
    id_name = getattr(atom, "id_name", None)
    return id_name() if id_name else str(atom)


def partition_by(elements, key) -> tuple:
    """The blocks of elements with equal ``key(x)``, as frozensets in order
    of their first element: the block form the trusted path takes."""
    cells: dict = {}
    for x in elements:
        cells.setdefault(key(x), []).append(x)
    return tuple(frozenset(c) for c in cells.values())


def _block_index(blocks) -> dict:
    """element -> index of its block."""
    return {x: i for i, blk in enumerate(blocks) for x in blk}


class _Partitioned:
    """Elements (worlds or actions) with one partition of them per agent.

    The shared core of epistemic and action models.  ``_validated`` checks
    user input; ``_trusted`` builds an instance from fields that are valid
    by construction.  Both end in the subclass's ``_assign``, which only
    sets fields, so the public constructor is validation followed by the
    trusted path.
    """

    @classmethod
    def _trusted(cls, *fields):
        """An instance from the fields ``_assign`` takes, without checks."""
        self = cls.__new__(cls)
        self._assign(*fields)
        return self

    @classmethod
    def _validated(cls, elements, relations, agents, noun: str) -> tuple:
        """``(elements, relations, agents)`` checked and in the trusted form:
        a tuple, each agent's blocks as a tuple of frozensets in order of
        first element, and the sorted agents."""
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
        blocks = {a: cls._sorted_blocks(a, relations[a], index, noun) for a in agents}
        return elems, blocks, agents

    def _assign_partitions(self, elements: tuple, relations: dict, agents: tuple) -> None:
        self._index = {x: i for i, x in enumerate(elements)}
        self.relations = relations
        self.agents = agents
        self._block_maps: dict[str, dict] = {}

    @staticmethod
    def _sorted_blocks(agent, blocks, index: dict, noun: str) -> tuple:
        """Validate one agent's blocks, then sort them by first element."""
        seen = set()
        out = []
        for b in blocks:
            blk = frozenset(b)
            if not blk:
                raise ValueError(f"empty block in relation of agent {agent}")
            if not seen.isdisjoint(blk):
                raise ValueError(f"overlapping blocks in relation of agent {agent}")
            seen |= blk
            out.append(blk)
        if seen != index.keys():
            unknown = sorted(repr(x) for x in seen if x not in index)
            if unknown:
                raise ValueError(f"relation of agent {agent} names unknown "
                                 f"{noun} {unknown[0]}")
            raise ValueError(f"relation of agent {agent} does not cover all {noun}s")
        return tuple(sorted(out, key=lambda blk: min(index[x] for x in blk)))

    def block_map(self, agent) -> dict:
        """element -> index of its block in ``relations[agent]``."""
        m = self._block_maps.get(agent)
        if m is None:
            m = self._block_maps[agent] = _block_index(self.relations[agent])
        return m


class EpistemicModel(_Partitioned):
    """Worlds, one partition per agent, and a valuation of owned atoms.

    ``relations`` maps each agent to an iterable of blocks (iterables of
    worlds); the blocks must partition the world set exactly.  ``valuation``
    maps worlds to collections of atom-like values (anything hashable with
    an ``owner`` attribute); missing worlds get the empty valuation.
    """

    __hash__ = object.__hash__

    def __init__(self, worlds, relations, valuation, agents=None):
        worlds, relations, agents = self._validated(worlds, relations, agents, "world")
        if not agents:
            raise ValueError("agent set must be nonempty")
        valuation = {w: frozenset(valuation.get(w, ())) for w in worlds}
        self._validate_owners(valuation, agents)
        self._assign(worlds, relations, valuation, agents)
        bad = _locality_violation(self)
        if bad is not None:
            a, first, w = bad
            raise LocalityError(
                f"worlds {world_name(first)} and {world_name(w)} are "
                f"indistinguishable for agent {a} but disagree on "
                f"{a}-owned atoms"
            )

    def _assign(self, worlds: tuple, relations: dict, valuation: dict, agents: tuple):
        """The trusted path: ``relations`` in the form of :func:`partition_by`,
        ``valuation`` a frozenset per world in world order, ``agents`` sorted."""
        self._assign_partitions(worlds, relations, agents)
        self.worlds = worlds
        self.valuation = valuation

        # per-instance caches; values are deterministic, so a racy double
        # computation is harmless
        self._group_cache: dict[frozenset, tuple] = {}
        self._locals_cache: dict = {}
        self._name_map = None

    # -- validation ------------------------------------------------------

    @staticmethod
    def _validate_owners(valuation: dict, agents: tuple):
        ags = set(agents)
        for w, val in valuation.items():
            for p in val:
                if p.owner not in ags:
                    raise UnknownNameError(
                        f"atom {p} at world {world_name(w)} is owned by "
                        f"unknown agent {p.owner}"
                    )

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
            raise UnknownNameError(f"unknown world {world_name(w)}")

    def block_of(self, agent, world) -> frozenset:
        return self.relations[agent][self.block_map(agent)[world]]

    def locals_at(self, world) -> dict:
        """The world's valuation grouped by owning agent (computed once)."""
        hit = self._locals_cache.get(world)
        if hit is None:
            grouped: dict[str, set] = {}
            for p in self.valuation[world]:
                grouped.setdefault(p.owner, set()).add(p)
            hit = {a: frozenset(s) for a, s in grouped.items()}
            self._locals_cache[world] = hit
        return hit

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
        if self._name_map is None:
            self._name_map = {world_name(w): w for w in self.worlds}
        try:
            return self._name_map[name]
        except KeyError:
            raise UnknownNameError(f"no world named {name!r}") from None


@dataclass(frozen=True)
class PointedModel:
    """A model with a distinguished world (the evaluation point)."""

    model: EpistemicModel
    point: World

    def __post_init__(self):
        self.model.require_world(self.point)


def world_name(w) -> str:
    """Render a (possibly product) world identifier as a dotted path."""
    if isinstance(w, tuple) and len(w) == 2:
        return f"{world_name(w[0])}.{_component_name(w[1])}"
    return _component_name(w)


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


def _locality_violation(model: EpistemicModel):
    """The first (agent, w, v) where w and v share a block of the agent but
    disagree on its own atoms, or None when the model is local.  ``w`` is
    the block's first world and ``v`` the first later one in world order,
    so the answer does not depend on the hash seed."""
    empty = frozenset()
    for a in model.agents:
        for blk in model.relations[a]:
            first, *rest = sorted(blk, key=model._index.__getitem__)
            ref = model.locals_at(first).get(a, empty)
            for w in rest:
                if model.locals_at(w).get(a, empty) != ref:
                    return a, first, w
    return None


def is_local(model: EpistemicModel) -> bool:
    """True iff every agent's blocks are constant on that agent's own atoms."""
    return _locality_violation(model) is None


def is_interpreted_system(model: EpistemicModel) -> bool:
    """True iff each agent's partition is exactly the grouping by own-atom valuation.

    Locality gives one direction (indistinguishable worlds agree on own
    atoms); an interpreted system also satisfies the converse: equal
    own-atom valuations force indistinguishability.
    """
    empty = frozenset()
    return all(
        partition_by(model.worlds, lambda w: model.locals_at(w).get(a, empty))
        == model.relations[a]
        for a in model.agents)


def group_relation(model: EpistemicModel, group) -> tuple:
    """The partition for a nonempty agent group: the meet of the members' partitions."""
    return group_blocks(model, group)[0]


def group_blocks(model: EpistemicModel, group) -> tuple:
    """``(blocks, block_of)``: the group relation and the map from each
    world to the index of its block, computed once per model and group."""
    b = frozenset(group)
    if not b:
        raise ValueError("agent group must be nonempty")
    unknown = b - set(model.agents)
    if unknown:
        raise UnknownNameError(f"unknown agents in group: {sorted(unknown)}")
    hit = model._group_cache.get(b)
    if hit is None:
        members = sorted(b)
        if len(members) == 1:
            hit = (model.relations[members[0]], model.block_map(members[0]))
        else:
            maps = [model.block_map(a) for a in members]
            blocks = partition_by(model.worlds, lambda w: tuple(m[w] for m in maps))
            hit = (blocks, _block_index(blocks))
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
    valuation = {w: frozenset(atoms[i] for i in range(n) if w[i] == "1")
                 for w in worlds}
    relations = {
        a: partition_by(worlds, lambda w: frozenset(p for p in valuation[w]
                                                    if p.owner == a))
        for a in ags}
    return EpistemicModel._trusted(worlds, relations, valuation, ags)
