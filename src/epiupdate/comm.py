"""Communication graphs, communication patterns, and the pattern update.

A communication graph is a reflexive sender-to-receiver relation on the
agents; a pattern is a nonempty set of graphs modelling uncertainty about
which deliveries actually happened.  Updating a model with a pattern pairs
every world with every graph; after the round, agent ``a`` can tell two
world/graph pairs apart unless ``a`` heard from the same agents in both
and the messages received leave the source worlds indistinguishable.
"""
from __future__ import annotations

from itertools import combinations

from .errors import EpiupdateError
from .models import EpistemicModel, ensure_capacity, group_labels, labels_by


class CommGraph:
    """Reflexive binary relation on the agents; (s, r) means r receives s's message.

    Immutable, equality by value, hash precomputed (graphs sit inside
    product world identifiers and get hashed constantly).
    """

    __slots__ = ("agents", "edges", "name", "_hash", "heard")

    def __init__(self, agents, edges):
        agents = tuple(agents)
        edges = frozenset(edges)
        ags = set(agents)
        for s, r in edges:
            if s not in ags or r not in ags:
                raise ValueError(f"edge ({s},{r}) mentions an unknown agent")
        missing = [a for a in agents if (a, a) not in edges]
        if missing:
            raise ValueError(f"graph is not reflexive: missing {missing[0]}->{missing[0]}")
        self.agents = agents
        self.edges = edges
        # computed once: every product world id names its graph
        self.name = _graph_name(agents, edges)
        self._hash = hash((agents, edges))
        # each agent -> the frozenset of agents it hears from, itself included
        senders = {a: [] for a in agents}
        for s, r in edges:
            senders[r].append(s)
        self.heard = {a: frozenset(ss) for a, ss in senders.items()}

    def __eq__(self, other):
        return (self is other
                or (isinstance(other, CommGraph)
                    and self._hash == other._hash
                    and self.agents == other.agents
                    and self.edges == other.edges))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CommGraph({self.name})"

    def __str__(self):
        return self.name

    def literal(self) -> str:
        extra = sorted((s, r) for s, r in self.edges if s != r)
        return "{" + ", ".join(f"{s}->{r}" for s, r in extra) + "}"

    def sort_key(self):
        return (len(self.edges), tuple(sorted(self.edges)))


def _graph_name(agents: tuple, edges: frozenset) -> str:
    extra = sorted((s, r) for s, r in edges if s != r)
    if not extra:
        return "I"
    if len(edges) == len(agents) ** 2:
        return "U"
    if all(len(a) == 1 for a in agents):
        return "R" + "".join(f"{s}{r}" for s, r in extra)
    return "R[" + ",".join(f"{s}>{r}" for s, r in extra) + "]"


def make_graph(agents, extra_edges=()) -> CommGraph:
    """Graph consisting of the diagonal plus the given sender->receiver pairs."""
    ags = tuple(sorted(agents))
    edges = {(a, a) for a in ags} | {tuple(e) for e in extra_edges}
    return CommGraph(ags, frozenset(edges))


def identity_graph(agents) -> CommGraph:
    return make_graph(agents)


def universal_graph(agents) -> CommGraph:
    ags = tuple(sorted(agents))
    return CommGraph(ags, frozenset((s, r) for s in ags for r in ags))


def receivers_from(graph: CommGraph, agent: str) -> frozenset:
    """The agents whose messages ``agent`` receives under this graph.

    Always contains ``agent`` itself, since agents receive their own message.
    """
    if agent not in graph.agents:
        raise ValueError(f"unknown agent {agent}")
    return graph.heard[agent]


def parse_graph_literal(text: str, agents) -> CommGraph:
    """Parse ``{a->b, b->a}`` into a graph (diagonal pairs are implied).

    Writing ``!x->x`` to exclude a diagonal pair is rejected: graphs are
    reflexive by definition.
    """
    ags = tuple(sorted(agents))
    s = text.strip()
    if s == "I":
        return identity_graph(ags)
    if s == "U":
        return universal_graph(ags)
    if not (s.startswith("{") and s.endswith("}")):
        raise EpiupdateError(f"bad graph literal {text!r}")
    body = s[1:-1].strip()
    extra = []
    if body:
        for part in body.split(","):
            part = part.strip()
            negated = part.startswith("!")
            if negated:
                part = part[1:].strip()
            if "->" not in part:
                raise EpiupdateError(f"bad edge {part!r} in graph literal")
            snd, rcv = (x.strip() for x in part.split("->", 1))
            if negated:
                if snd == rcv:
                    raise EpiupdateError(
                        f"cannot exclude the diagonal pair {snd}->{rcv}: "
                        f"communication graphs are reflexive"
                    )
                raise EpiupdateError(f"cannot exclude edge {snd}->{rcv}")
            extra.append((snd, rcv))
    return make_graph(ags, extra)


class CommPattern:
    """A nonempty set of communication graphs over one agent set.

    Patterns compare equal by their graph set; the stored order is kept
    for deterministic world enumeration in updates.
    """

    def __init__(self, graphs, name=None):
        gs = tuple(dict.fromkeys(graphs))
        if not gs:
            raise ValueError("a communication pattern must contain at least one graph")
        agents = gs[0].agents
        if any(g.agents != agents for g in gs):
            raise ValueError("all graphs in a pattern must share one agent set")
        self.graphs = gs
        self.agents = agents
        self.name = name
        self._graph_set = frozenset(gs)

    def __eq__(self, other):
        return isinstance(other, CommPattern) and self._graph_set == other._graph_set

    def __hash__(self):
        return hash(self._graph_set)

    def __iter__(self):
        return iter(self.graphs)

    def __len__(self):
        return len(self.graphs)

    def __contains__(self, graph):
        return graph in self._graph_set

    def __repr__(self):
        label = self.name or "pattern"
        return f"<{label}: {', '.join(g.name for g in self.graphs)}>"

    def graph_named(self, name: str) -> CommGraph:
        for g in self.graphs:
            if g.name == name:
                return g
        raise EpiupdateError(f"pattern has no graph named {name!r}")


def enumerate_graphs(agents) -> tuple[CommGraph, ...]:
    """All reflexive relations on the agent set, in a fixed deterministic order."""
    ags = tuple(sorted(agents))
    if not ags:
        raise ValueError("agent set must be nonempty")
    off_diag = [(s, r) for s in ags for r in ags if s != r]
    ensure_capacity(2 ** len(off_diag), "enumeration would have {} graphs")
    graphs = []
    for k in range(len(off_diag) + 1):
        for chosen in combinations(off_diag, k):
            graphs.append(make_graph(ags, chosen))
    return tuple(sorted(graphs, key=CommGraph.sort_key))


def pattern_update(model: EpistemicModel, pattern: CommPattern) -> EpistemicModel:
    """Update a model with a communication pattern.

    The result has one world (w, R) per source world w and graph R; its
    valuation is inherited from w.  Agents relate (w, R) and (w', R') iff
    they receive from the same agents (Ra = R'a) and the senders' combined
    knowledge cannot separate w from w'.
    """
    if set(pattern.agents) != set(model.agents):
        raise ValueError("pattern and model must share one agent set")
    ensure_capacity(len(model.worlds) * len(pattern.graphs))

    worlds = tuple((w, g) for w in model.worlds for g in pattern.graphs)
    vals = tuple(val for val in model.vals for _ in pattern.graphs)

    labels = {}
    for a in model.agents:
        heard = [(g.heard[a], group_labels(model, g.heard[a])) for g in pattern.graphs]
        labels[a] = labels_by((h, meet[i]) for i in range(len(model.worlds))
                              for h, meet in heard)
    return EpistemicModel._trusted(worlds, labels, vals, model.agents)
