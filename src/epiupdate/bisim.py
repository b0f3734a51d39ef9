"""Collective and bounded collective bisimulation, minimization, isomorphism.

The forth/back conditions of a collective bisimulation range over the
group relation of every nonempty agent subset, not only over individual
agents.  Checks run as partition refinement: start from blocks of equal
valuation and split a block whenever two members see different sets of
current blocks along some group relation.  Checks between two models run
on their disjoint union, so one refinement engine serves both.  Whole
interpreted systems are compared by their valuations.

The engine (``_refine``) refines in synchronous rounds, so round r yields
exactly the partition of r-bisimilarity and bounded checks and
distinguishing depths are exact.  Within a round it re-signs only the
nodes next to a split of the round before: the members of every group
class that holds a relabelled node.  A split block keeps its id on its
largest part and only the smaller parts are relabelled (Hopcroft's
smaller-half rule), so a node is relabelled O(log n) times.  A group's
classes are each model's :func:`~epiupdate.models.group_labels`; a group
relation that is the identity is dropped, as a singleton never splits.

Isomorphism runs on the same engine in counting mode, where a class meets
a multiset of blocks rather than a set (colour refinement); the colours
guide an iterative backtracking search over node indices.

Matching two lists of points (``pointed_sets_match``) refutes before it
refines: bisimilar points are 1-bisimilar, and a point's 1-bisimulation
class is read off its own blocks (its valuation and the valuations of
each of its group classes), so lists whose depth-one keys differ never
need the union refined.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import TypeVar

from .errors import EpiupdateError
from .models import (
    EpistemicModel, PointedModel, blocks_of, group_labels, is_interpreted_system, labels_by,
    world_name)

Model = TypeVar("Model", bound=EpistemicModel)


@dataclass
class BisimResult:
    """Outcome of a bisimilarity check.

    ``witness`` is a set of world pairs realizing the bisimulation when
    related; ``distinguishing_bound`` is the least refinement depth that
    separates the points when not.  It is exact: the points are
    n-bisimilar for every n below it and for none from it on.
    """

    related: bool
    witness: frozenset | None = None
    distinguishing_bound: int | None = None

    def __bool__(self):
        return self.related


def _agent_groups(agents):
    for k in range(1, len(agents) + 1):
        yield from combinations(agents, k)


def _refine(models, max_rounds=None, watch=None, counting=False):
    """Coarsest partition of the disjoint union stable under all group relations.

    Returns ``(labels, split)``: ``labels[k]`` is the block id of node k,
    where world w of ``models[i]`` is node ``models[i]._index[w]`` plus the
    world count of the models before it.  With ``max_rounds`` set,
    refinement stops early, which yields the depth-bounded layers.  With
    ``watch = (k, l)``, refinement stops at the first round after which
    nodes k and l differ (labels only refine, so they stay apart), and
    ``split`` is that round; otherwise ``split`` is None.  With ``counting``,
    a class meets the multiset of its members' blocks (colour refinement).
    """
    agents = models[0].agents
    for m in models[1:]:
        if m.agents != agents:
            raise ValueError("bisimulation checks require a shared agent set")

    # initial partition: equal valuation
    labels = labels_by(val for m in models for val in m.vals)
    if watch is not None and labels[watch[0]] != labels[watch[1]]:
        return labels, 0
    n = len(labels)
    label_of = labels.__getitem__
    meet = (lambda ls: frozenset(Counter(ls).items())) if counting else frozenset
    blocks = list(map(set, blocks_of(range(n), labels)))

    # one column per agent group that is not the identity (a singleton class
    # meets only its own block, so it never splits one): the class id of
    # every node, offset per model so that classes of different models
    # never share one, the members of every class and the set of blocks
    # each class meets
    columns = []
    for group in _agent_groups(agents):
        arr, count = [], 0
        for m in models:
            classes = group_labels(m, group)
            arr += [count + c for c in classes]
            count += max(classes, default=-1) + 1
        if count == n:
            continue
        members = blocks_of(range(n), arr)
        meets = [meet(map(label_of, mem)) for mem in members]
        columns.append((arr, members, meets))

    # A node's signature is its block and the meet sets of its classes.  A
    # class's meet set changes only when a member is relabelled, and it then
    # gains that member's fresh label, so every member of a changed class
    # now signs unlike the round before, while the untouched members of its
    # block keep the one signature they shared.  So a round re-signs only
    # the members of changed classes: per block, they split by signature,
    # and the untouched rest is one more part.  All of this holds word for
    # word for the meet multisets of counting mode.
    touched = range(n)
    split = None
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        rounds += 1
        nodes = list(touched)
        keys = zip([labels[k] for k in nodes],
                   *([meets[arr[k]] for k in nodes] for arr, _, meets in columns))
        parts: dict[tuple, list[int]] = {}
        for k, key in zip(nodes, keys):
            parts.setdefault(key, []).append(k)
        by_block: dict[int, list] = {}
        for key, part in parts.items():
            by_block.setdefault(key[0], []).append(part)
        moved = []
        for b, out in by_block.items():
            block = blocks[b]
            rest = len(block) - sum(map(len, out))
            if not rest and len(out) == 1:
                continue
            largest = max(out, key=len)
            if len(largest) > rest:
                out.remove(largest)
                if rest:
                    out.append(block.difference(largest, *out))
                blocks[b] = set(largest)
            else:
                for part in out:
                    block.difference_update(part)
            for part in out:
                new = len(blocks)
                blocks.append(set(part))
                for k in part:
                    labels[k] = new
                moved.extend(part)
        if not moved:
            break
        if watch is not None and labels[watch[0]] != labels[watch[1]]:
            split = rounds
            break
        touched = set()
        for arr, members, meets in columns:
            for c in {arr[k] for k in moved}:
                mem = members[c]
                meets[c] = meet(map(label_of, mem))
                touched.update(mem)

    return labels, split


def max_collective_bisimulation(model: EpistemicModel) -> tuple:
    """Coarsest auto-bisimulation of a model, blocks in order of first world."""
    labels, _ = _refine([model])
    return blocks_of(model.worlds, labels_by(labels))


def pointed_classes(points) -> list:
    """Bisimulation class of each (model, world) pair, from one refinement.

    Distinct models (by identity) are refined together once; two points
    get equal class ids iff they are collectively bisimilar.
    """
    models = list({id(m): m for m, _ in points}.values())
    offsets, size = {}, 0
    for m in models:
        offsets[id(m)] = size
        size += len(m.worlds)
    labels, _ = _refine(models)
    return [labels[offsets[id(m)] + m._index[w]] for m, w in points]


def _depth_one_key(model, world) -> tuple:
    """The point's 1-bisimulation class as a canonical value.

    Its valuation and, per nonempty agent group in ``_agent_groups``
    order, the set of valuations in its group class.  A group class is the
    point's block of the group without its last agent met with its block
    of that agent, so only the point's own blocks are read, as positions
    off the agents' labels.  Two points of models with one agent set have
    equal keys iff they are 1-bisimilar.
    """
    vals = model.vals
    i = model._index[world]
    own = {a: {k for k, b in enumerate(labels) if b == labels[i]}
           for a, labels in model.labels.items()}
    key = [vals[i]]
    classes = {}
    for group in _agent_groups(model.agents):
        cls = own[group[-1]]
        if len(group) > 1:
            cls = classes[group[:-1]] & cls
        classes[group] = cls
        key.append(frozenset(map(vals.__getitem__, cls)))
    return tuple(key)


def pointed_sets_match(xs: list[PointedModel], ys: list[PointedModel]) -> bool:
    """Does each point of either list have a bisimilar point in the other?
    Empty matches only empty.

    Bisimilar points are 1-bisimilar, so the lists' sets of depth-one keys
    must agree; only then is the union of their models refined.
    """
    if not xs or not ys:
        return not xs and not ys
    agents = xs[0].model.agents
    if any(p.model.agents != agents for p in (*xs, *ys)):
        raise ValueError("bisimulation checks require a shared agent set")
    if ({_depth_one_key(p.model, p.point) for p in xs}
            != {_depth_one_key(p.model, p.point) for p in ys}):
        return False
    classes = pointed_classes([(p.model, p.point) for p in (*xs, *ys)])
    return set(classes[:len(xs)]) == set(classes[len(xs):])


def bisimilar(model, world, other, other_world, want_witness=False) -> BisimResult:
    """Are two pointed models collectively bisimilar?"""
    model.require_world(world)
    other.require_world(other_world)
    n = len(model.worlds)
    # refinement stops early only once the points split, and a witness is
    # wanted only when they never do, so one run serves both
    labels, split = _refine([model, other],
                            watch=(model._index[world], n + other._index[other_world]))
    related = split is None
    witness = None
    if related and want_witness:
        partners: dict[int, list] = {}
        for v, label in zip(other.worlds, labels[n:]):
            partners.setdefault(label, []).append(v)
        witness = frozenset((w, v) for w, label in zip(model.worlds, labels)
                            for v in partners.get(label, ()))
    return BisimResult(related, witness, split)


def models_bisimilar(model: EpistemicModel, other: EpistemicModel) -> bool:
    """Whole-model check: every world of each model has a partner in the other.

    In an interpreted system each group relation is agreement on the
    members' own atoms, so two of them over one agent set are bisimilar
    iff they have the same valuations, and are compared by those alone.
    """
    if model.is_empty or other.is_empty:
        return model.is_empty and other.is_empty
    if (model.agents == other.agents  # else refinement raises
            and is_interpreted_system(model) and is_interpreted_system(other)):
        return set(model.vals) == set(other.vals)
    labels, _ = _refine([model, other])
    n = len(model.worlds)
    return set(labels[:n]) == set(labels[n:])


def n_bisimilar(model, world, other, other_world, n: int) -> bool:
    """Bounded check: valuation agreement refined n times."""
    model.require_world(world)
    other.require_world(other_world)
    if n < 0:
        raise ValueError("bound must be a natural number")
    labels, _ = _refine([model, other], max_rounds=n)
    offset = len(model.worlds)
    return labels[model._index[world]] == labels[offset + other._index[other_world]]


def minimize(model: Model) -> Model:
    """Quotient by the coarsest auto-bisimulation, of the input's type.

    The result is whole-model bisimilar to the input and no two of its
    worlds are bisimilar to each other; each quotient world is named by
    its first representative, whose view columns a history model keeps,
    so it steps like its round.  Where no model is both, the call raises
    ``EpiupdateError``: the quotient's group relation is the meet of its
    agents' relations, which can join two classes that no group block of
    the model joins.
    """
    if model.is_empty:
        return model
    labels, _ = _refine([model])
    classes = labels_by(labels)  # class k is quotient world k
    reps = [min(members) for members in blocks_of(range(len(classes)), classes)]
    worlds = tuple(model.worlds[i] for i in reps)
    vals = tuple(model.vals[i] for i in reps)
    quotient_labels = {}
    for a in model.agents:
        # a quotient block is the image of an agent block, the classes of its
        # worlds; bisimilar worlds see the same classes, so two images are
        # equal or disjoint
        own = model.labels[a]
        images = blocks_of(classes, own)
        quotient_labels[a] = labels_by(images[own[i]] for i in reps)
    # bisimilar worlds hold equal views: the representatives' columns are the quotient's
    columns = model.columns and {a: tuple(col[i] for i in reps)
                                 for a, col in model.columns.items()}
    quotient = type(model)._trusted(worlds, quotient_labels, vals, model.agents, columns)
    _require_group_images(model, quotient, classes)
    return quotient


def _require_group_images(model, quotient, classes) -> None:
    """Raise unless each group block of the model maps onto a whole group
    block of the quotient (``classes`` maps each world's index to its
    quotient world's).

    The image of a group block lies inside one group block of the quotient
    (its members are related by every agent of the group).  If it is
    smaller, the quotient relates two worlds that no pair of worlds of
    their classes relates; a model bisimilar to the input whose worlds are
    pairwise not bisimilar would have to do the same, so none exists.
    """
    if len(quotient.worlds) == len(model.worlds):
        return  # no two worlds merged: the quotient is the model itself
    for group in _agent_groups(model.agents):
        if len(group) < 2:
            continue
        whole = group_labels(quotient, group)
        sizes = Counter(whole)
        for reps in blocks_of(classes, group_labels(model, group)):
            r = min(reps)
            if len(reps) < sizes[whole[r]]:
                s = min(k for k, c in enumerate(whole) if c == whole[r] and k not in reps)
                raise EpiupdateError(
                    f"minimize: no model without bisimilar worlds is bisimilar to "
                    f"this one: the quotient's D{{{','.join(group)}}} would relate "
                    f"{world_name(quotient.worlds[r])} and "
                    f"{world_name(quotient.worlds[s])}, but no such block of the "
                    f"model meets both their classes")


def isomorphic(model: EpistemicModel, other: EpistemicModel) -> bool:
    """Exact isomorphism respecting valuations and every agent's partition.

    Colours come from counting-mode refinement of the disjoint union.  An
    iterative backtracking search pairs the worlds, those of small colour
    classes first, with worlds of their colour; a pairing is consistent
    while each agent's blocks map one to one, which costs O(|agents|) a try.
    """
    n = len(model.worlds)
    if model.agents != other.agents or n != len(other.worlds):
        return False
    labels, _ = _refine([model, other], counting=True)
    if sorted(labels[:n]) != sorted(labels[n:]):
        return False
    by_colour: dict[int, list] = {}
    for j, label in enumerate(labels[n:]):
        by_colour.setdefault(label, []).append(j)
    sizes = [len(by_colour[label]) for label in labels[:n]]
    order = sorted(range(n), key=sizes.__getitem__)
    # per agent: each world's block on both sides, and the block maps so far
    cols = [(model.labels[a], other.labels[a], {}, {}) for a in model.agents]

    used = [False] * n
    paired = []  # per paired world of order: its partner, the block pairs it fixed
    stack = []   # per paired world and the next one: an iterator over candidates
    while len(paired) < n:
        k = order[len(paired)]
        if len(stack) == len(paired):
            stack.append(iter(by_colour[labels[k]]))
        for j in stack[-1]:
            if used[j]:
                continue
            for left, right, fwd, bwd in cols:
                b, c = left[k], right[j]
                if fwd.get(b, c) != c or bwd.get(c, b) != b:
                    break
            else:
                break
        else:
            # no partner left for world k: release the world before it
            stack.pop()
            if not paired:
                return False
            j, fixed = paired.pop()
            used[j] = False
            for fwd, bwd, b, c in fixed:
                del fwd[b], bwd[c]
            continue
        used[j] = True
        fixed = [(fwd, bwd, left[k], right[j]) for left, right, fwd, bwd in cols
                 if left[k] not in fwd]
        for fwd, bwd, b, c in fixed:
            fwd[b], bwd[c] = c, b
        paired.append((j, fixed))
    return True
