"""Seeded random generators shared by the module and acceptance tests."""
from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, permutations, product

from epiupdate import (
    ActionBox, Atom, CommPattern, DKnow, EpistemicModel, HistoryVariable, Neg, Conj,
    PatternBox, Top, Var, View, atom_holds, enumerate_graphs, full_interpreted_system,
)
from epiupdate.bisim import pointed_classes

AGENT_POOL = ("a", "b", "c")


def random_interpreted_system(rng: random.Random, max_agents=3,
                              max_atoms_per_agent=2):
    """A random interpreted system: relations are exactly own-atom grouping."""
    n_agents = rng.randint(2, max_agents)
    agents = AGENT_POOL[:n_agents]
    atoms = []
    for a in agents:
        for i in range(rng.randint(0, max_atoms_per_agent)):
            atoms.append(Atom(f"p{i}" if i else "p", a))
    full = full_interpreted_system(atoms, agents=agents)
    keep = [w for w in full.worlds if rng.random() < 0.7]
    if not keep:
        keep = [rng.choice(full.worlds)]
    return _restrict_interpreted(full, keep, agents)


def _restrict_interpreted(full, keep, agents):
    keep_set = set(keep)
    valuation = {w: full.valuation[w] for w in keep}
    relations = {}
    for a in agents:
        cells = {}
        for w in keep:
            local = frozenset(p for p in valuation[w] if p.owner == a)
            cells.setdefault(local, []).append(w)
        relations[a] = [frozenset(c) for c in cells.values()]
    return EpistemicModel(keep, relations, valuation, agents=agents)


def random_local_model(rng: random.Random, max_agents=3, max_atoms_per_agent=2,
                       max_worlds=8):
    """A random local model: any refinement of own-atom grouping, duplicates allowed."""
    n_agents = rng.randint(2, max_agents)
    agents = AGENT_POOL[:n_agents]
    atoms = []
    for a in agents:
        for i in range(rng.randint(0, max_atoms_per_agent)):
            atoms.append(Atom(f"p{i}" if i else "p", a))
    n_worlds = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(n_worlds)]
    valuation = {w: frozenset(p for p in atoms if rng.random() < 0.5)
                 for w in worlds}
    relations = {}
    for a in agents:
        cells = {}
        for w in worlds:
            local = frozenset(p for p in valuation[w] if p.owner == a)
            cells.setdefault(local, []).append(w)
        blocks = []
        for cell in cells.values():
            blocks.extend(_random_split(rng, cell))
        relations[a] = [frozenset(b) for b in blocks]
    return EpistemicModel(worlds, relations, valuation, agents=agents)


def _random_split(rng, cell):
    if len(cell) == 1 or rng.random() < 0.5:
        return [cell]
    cut = rng.randint(1, len(cell) - 1)
    shuffled = list(cell)
    rng.shuffle(shuffled)
    return _random_split(rng, shuffled[:cut]) + _random_split(rng, shuffled[cut:])


def reference_refine(models, max_rounds=None, watch=None, counting=False):
    """Oracle for ``bisim._refine``: the same contract, by full signature rounds.

    Every round re-signs every node with its block and, for every agent
    group, the set of blocks its group class meets, or with ``counting``
    the multiset (each block with the number of class members in it).
    """
    agents = models[0].agents
    agent_col = {}
    for a in agents:
        col, offset = [], 0
        for m in models:
            bm = m.block_map(a)
            col.extend(offset + bm[w] for w in m.worlds)
            offset += len(m.relations[a])
        agent_col[a] = col
    group_arrays = []
    for k in range(1, len(agents) + 1):
        for group in combinations(agents, k):
            ids: dict[tuple, int] = {}
            group_arrays.append([ids.setdefault(key, len(ids))
                                 for key in zip(*(agent_col[a] for a in group))])

    val_ids: dict[frozenset, int] = {}
    labels = [val_ids.setdefault(val, len(val_ids))
              for m in models for val in m.valuation.values()]
    n = len(labels)
    if watch is not None and labels[watch[0]] != labels[watch[1]]:
        return labels, 0
    split = None
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        signatures = [labels]
        for arr in group_arrays:
            touched: dict[int, list] = {}
            for k in range(n):
                touched.setdefault(arr[k], []).append(labels[k])
            frozen = {b: frozenset(Counter(s).items()) if counting else frozenset(s)
                      for b, s in touched.items()}
            signatures.append([frozen[arr[k]] for k in range(n)])
        sig_ids: dict[tuple, int] = {}
        new = [0] * n
        for k in range(n):
            key = tuple(sig[k] for sig in signatures)
            new[k] = sig_ids.setdefault(key, len(sig_ids))
        rounds += 1
        if new == labels:
            break
        labels = new
        if watch is not None and labels[watch[0]] != labels[watch[1]]:
            split = rounds
            break
    return labels, split


def reference_sets_match(xs, ys) -> bool:
    """Oracle for ``bisim.pointed_sets_match``: the union-only route.

    Refines the union of every result model, with no depth-one keys, and
    compares the class sets of the two lists of pointed models.
    """
    if not xs or not ys:
        return not xs and not ys
    classes = pointed_classes([(p.model, p.point) for p in xs + ys])
    return set(classes[:len(xs)]) == set(classes[len(xs):])


def reference_sat(model, world, f, steps=None) -> bool:
    """Oracle for ``semantics.satisfies``: the pointwise evaluator, which
    walks the clauses once per world instead of labelling.

    ``steps`` keeps the updated models of one comparison, keyed by model
    and mechanism, so that a product is built once and not once per world.
    An action box tests its precondition itself rather than asking the
    product which worlds it kept.
    """
    steps = {} if steps is None else steps

    def step(m, mechanism):
        if (m, mechanism) not in steps:
            steps[m, mechanism] = m.step(mechanism)
        return steps[m, mechanism]

    if isinstance(f, Var):
        return atom_holds(model.valuation[world], f.atom)
    if isinstance(f, Top):
        return True
    if isinstance(f, Neg):
        return not reference_sat(model, world, f.sub, steps)
    if isinstance(f, Conj):
        return (reference_sat(model, world, f.left, steps)
                and reference_sat(model, world, f.right, steps))
    if isinstance(f, DKnow):
        members = sorted(f.group)
        return all(reference_sat(model, v, f.sub, steps) for v in model.worlds
                   if all(v in model.block_of(a, world) for a in members))
    if isinstance(f, PatternBox):
        return reference_sat(step(model, f.pattern), (world, f.graph), f.sub, steps)
    if isinstance(f, ActionBox):
        updated = step(model, f.model)
        return (not reference_sat(model, world, f.model.pre[f.action], steps)
                or reference_sat(updated, (world, f.action), f.sub, steps))
    raise TypeError(f"not a formula: {f!r}")


def brute_isomorphic(model, other) -> bool:
    """Oracle for ``bisim.isomorphic``: try every bijection of the worlds.

    A bijection is an isomorphism when it keeps valuations and maps every
    block of every agent onto a block of that agent.  Up to 6 worlds.
    """
    if model.agents != other.agents or len(model.worlds) != len(other.worlds):
        return False
    assert len(model.worlds) <= 6, "brute force is for tiny models"
    blocks = {a: set(other.relations[a]) for a in other.agents}
    for image in permutations(other.worlds):
        f = dict(zip(model.worlds, image))
        if (all(model.valuation[w] == other.valuation[f[w]] for w in model.worlds)
                and all(frozenset(map(f.__getitem__, blk)) in blocks[a]
                        for a in model.agents for blk in model.relations[a])):
            return True
    return False


def same_partition(labels, other) -> bool:
    """Do two label arrays put the same nodes together?"""
    return (len(labels) == len(other)
            and len(set(labels)) == len(set(other)) == len(set(zip(labels, other))))


def random_pattern(rng: random.Random, agents, max_graphs=8) -> CommPattern:
    graphs = list(enumerate_graphs(agents))
    k = rng.randint(1, min(max_graphs, len(graphs)))
    return CommPattern(rng.sample(graphs, k))


def model_atoms(model) -> list:
    return sorted({p for val in model.valuation.values() for p in val}, key=str)


def random_static_formula(rng: random.Random, atoms, agents, depth=2):
    """A random formula without dynamic modalities."""
    if depth == 0 or (not atoms) or rng.random() < 0.25:
        if atoms:
            return Var(rng.choice(atoms))
        from epiupdate import Top
        return Top()
    pick = rng.random()
    if pick < 0.3:
        return Neg(random_static_formula(rng, atoms, agents, depth - 1))
    if pick < 0.6:
        return Conj(random_static_formula(rng, atoms, agents, depth - 1),
                    random_static_formula(rng, atoms, agents, depth - 1))
    group = frozenset(rng.sample(list(agents), rng.randint(1, len(agents))))
    return DKnow(group, random_static_formula(rng, atoms, agents, depth - 1))


def random_pattern_formula(rng: random.Random, atoms, agents, patterns,
                           dyn_depth=3, depth=3):
    """A random pattern-only formula with at most dyn_depth nested modalities."""
    if dyn_depth > 0 and rng.random() < 0.4:
        pattern = rng.choice(patterns)
        graph = rng.choice(pattern.graphs)
        return PatternBox(pattern, graph,
                          random_pattern_formula(rng, atoms, agents, patterns,
                                                 dyn_depth - 1, depth))
    if depth == 0 or (not atoms) or rng.random() < 0.25:
        if atoms:
            return Var(rng.choice(atoms))
        from epiupdate import Top
        return Top()
    pick = rng.random()
    if pick < 0.3:
        return Neg(random_pattern_formula(rng, atoms, agents, patterns,
                                          dyn_depth, depth - 1))
    if pick < 0.6:
        return Conj(random_pattern_formula(rng, atoms, agents, patterns,
                                           dyn_depth, depth - 1),
                    random_pattern_formula(rng, atoms, agents, patterns,
                                           dyn_depth, depth - 1))
    group = frozenset(rng.sample(list(agents), rng.randint(1, len(agents))))
    return DKnow(group, random_pattern_formula(rng, atoms, agents, patterns,
                                               dyn_depth, depth - 1))


# -- reference history views ---------------------------------------------------
#
# The history module builds views by one round step carried forward from
# the previous round.  These rebuild them from scratch instead: every
# world is walked back to its base world and each view is computed from
# the whole graph sequence and the base world's local valuations.


def initials_key(model, world) -> tuple:
    """Every agent's local valuation at ``world``, as (agent, atoms) pairs."""
    grouped = model.locals_at(world)
    empty = frozenset()
    return tuple((a, grouped.get(a, empty)) for a in model.agents)


def concrete_view(agent: str, history: tuple, initials: tuple, memo=None) -> View:
    """The view of an agent with initial local valuations in the leaves.

    ``memo`` is a dict that callers rebuilding many views share; there is
    no global cache, which would keep views alive across tests.
    """
    key = (agent, history, initials)
    if memo is not None and key in memo:
        return memo[key]
    if not history:
        view = View((), (), initial=dict(initials)[agent])
    else:
        *earlier, last = history
        heard = sorted(last.heard[agent])
        view = View(tuple(heard), tuple(concrete_view(b, tuple(earlier), initials, memo)
                                        for b in heard))
    if memo is not None:
        memo[key] = view
    return view


def reference_valuation(model, base, rounds: int, graph_of) -> dict:
    """The valuation a model ``rounds`` rounds after ``base`` should carry:
    the base world's valuation plus every agent's view variable on each
    prefix of the world's graph sequence.  ``graph_of`` reads a round's
    graph off its step."""
    out, memo = {}, {}
    for w in model.worlds:
        x, graphs = w, []
        for _ in range(rounds):
            x, step = x
            graphs.append(graph_of(step))
        sigma = tuple(reversed(graphs))
        initials = initials_key(base, x)
        out[w] = base.valuation[x] | {
            HistoryVariable(concrete_view(a, sigma[:k], initials, memo), a)
            for k in range(1, rounds + 1) for a in model.agents}
    return out


def reference_round_variables(rounds, base) -> frozenset:
    """Every view variable of the last round: the product over all graph
    sequences and all initial profiles of ``base``."""
    rounds = tuple(rounds)
    if not rounds:
        return frozenset()
    profiles = {initials_key(base, w) for w in base.worlds}
    memo = {}
    return frozenset(
        HistoryVariable(concrete_view(a, sigma, initials, memo), a)
        for sigma in product(*(p.graphs for p in rounds))
        for initials in profiles for a in base.agents)
