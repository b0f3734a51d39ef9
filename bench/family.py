"""Seeded family of random interpreted systems with patterns.

A port of the generator behind acceptance criterion 7
(``random_interpreted_system`` and ``random_pattern`` with up to three
agents, two atoms per agent and eight graphs), kept here so that the
benchmark does not depend on the test suite.  ``family(SEED, n)`` yields
exactly the first ``n`` systems of that criterion's family.

Item costs in this family are heavy-tailed: the last round of an item
has |W| * |P|^3 worlds, so a handful of large systems set the total.
``family_like`` therefore draws fresh systems with the shapes of a given
reference family (agents, atoms per agent, number of worlds, pattern),
so that runs with different seeds do about the same amount of work.
Every draw of the original generator is still made, in the same order,
and a scheduled shape replaces what was drawn; hence
``family_like(SEED, [x.shape for x in family(SEED, n)])`` is
``family(SEED, n)``.
"""
from __future__ import annotations

import random
from itertools import islice
from typing import Iterator, NamedTuple

from epiupdate import CommPattern, EpistemicModel, enumerate_graphs, full_interpreted_system
from epiupdate.models import Atom

SEED = 20260808
AGENT_POOL = ("a", "b", "c")
MAX_AGENTS = 3
MAX_ATOMS_PER_AGENT = 2
MAX_GRAPHS = 8


class Shape(NamedTuple):
    """What fixes the cost of one family member: all but which worlds it keeps."""

    agents: int
    atoms: tuple[int, ...]  # atoms owned by each agent
    worlds: int
    pattern: CommPattern


class Member(NamedTuple):
    model: EpistemicModel
    pattern: CommPattern
    shape: Shape


def _member(rng: random.Random, shape: Shape | None) -> Member:
    n_agents = rng.randint(2, MAX_AGENTS)
    if shape is not None:
        n_agents = shape.agents
    agents = AGENT_POOL[:n_agents]
    atoms = []
    counts = []
    for i, a in enumerate(agents):
        count = rng.randint(0, MAX_ATOMS_PER_AGENT)
        if shape is not None:
            count = shape.atoms[i]
        counts.append(count)
        atoms.extend(Atom(f"p{j}" if j else "p", a) for j in range(count))
    full = full_interpreted_system(atoms, agents=agents)
    keep = [w for w in full.worlds if rng.random() < 0.7]
    if not keep:
        keep = [rng.choice(full.worlds)]
    if shape is not None and len(keep) != shape.worlds:
        if len(keep) > shape.worlds:
            chosen = set(rng.sample(keep, shape.worlds))
        else:
            chosen = set(keep)
            dropped = [w for w in full.worlds if w not in chosen]
            chosen.update(rng.sample(dropped, shape.worlds - len(keep)))
        keep = [w for w in full.worlds if w in chosen]
    valuation = {w: full.valuation[w] for w in keep}
    relations = {}
    for a in agents:
        cells: dict[frozenset, list] = {}
        for w in keep:
            cells.setdefault(frozenset(p for p in valuation[w] if p.owner == a), []).append(w)
        relations[a] = [frozenset(c) for c in cells.values()]
    model = EpistemicModel(keep, relations, valuation, agents=agents)

    graphs = list(enumerate_graphs(agents))
    pattern = CommPattern(rng.sample(graphs, rng.randint(1, min(MAX_GRAPHS, len(graphs)))))
    if shape is not None:
        pattern = shape.pattern
    return Member(model, pattern, Shape(n_agents, tuple(counts), len(keep), pattern))


def family_like(seed: int, schedule) -> list[Member]:
    """One member per entry of ``schedule``: a ``Shape`` to impose, or None."""
    rng = random.Random(seed)
    return [_member(rng, shape) for shape in schedule]


def iter_family(seed: int) -> Iterator[Member]:
    """The members of the family, in order, with every shape drawn."""
    rng = random.Random(seed)
    while True:
        yield _member(rng, None)


def family(seed: int, n: int) -> list[Member]:
    return list(islice(iter_family(seed), n))


def model_atoms(model: EpistemicModel) -> list:
    return sorted({p for val in model.valuation.values() for p in val}, key=str)
