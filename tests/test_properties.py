"""Algebraic laws checked with hypothesis-generated models and updates."""
import hypothesis.strategies as st
from hypothesis import given, settings

from epiupdate import (
    ActionBox, Atom, CommPattern, EpistemicModel, Var, action_update, announce,
    apply_induced, bisimilar, compose, description, enumerate_graphs,
    full_interpreted_system, group_relation, induced_action_model,
    is_interpreted_system, is_local, isomorphic, max_collective_bisimulation,
    minimize, models_bisimilar, pattern_update, satisfies, skip_model,
    whether_announce, knows,
)

from genlib import reference_sat

AGENTS = ("a", "b")
ATOM_POOL = [Atom("p", "a"), Atom("q", "a"), Atom("p", "b")]


@st.composite
def local_models(draw, max_worlds=6):
    n = draw(st.integers(1, max_worlds))
    worlds = [f"w{i}" for i in range(n)]
    atoms = draw(st.sets(st.sampled_from(ATOM_POOL), max_size=3))
    valuation = {
        w: frozenset(draw(st.sets(st.sampled_from(sorted(atoms, key=str)))))
        if atoms else frozenset()
        for w in worlds
    }
    relations = {}
    for agent in AGENTS:
        cells = {}
        for w in worlds:
            local = frozenset(p for p in valuation[w] if p.owner == agent)
            cells.setdefault(local, []).append(w)
        blocks = []
        for cell in cells.values():
            while cell:
                take = draw(st.integers(1, len(cell)))
                blocks.append(cell[:take])
                cell = cell[take:]
        relations[agent] = blocks
    return EpistemicModel(worlds, relations, valuation, agents=AGENTS)


@st.composite
def interpreted_systems(draw):
    atoms = draw(st.sets(st.sampled_from(ATOM_POOL), max_size=3))
    full = full_interpreted_system(sorted(atoms, key=str), agents=AGENTS)
    keep = draw(st.lists(st.sampled_from(sorted(full.worlds)),
                         min_size=1, unique=True))
    valuation = {w: full.valuation[w] for w in keep}
    relations = {}
    for agent in AGENTS:
        cells = {}
        for w in keep:
            local = frozenset(p for p in valuation[w] if p.owner == agent)
            cells.setdefault(local, []).append(w)
        relations[agent] = list(cells.values())
    return EpistemicModel(keep, relations, valuation, agents=AGENTS)


@st.composite
def patterns(draw, max_graphs=4):
    graphs = enumerate_graphs(AGENTS)
    chosen = draw(st.lists(st.sampled_from(graphs), min_size=1,
                           max_size=max_graphs, unique=True))
    return CommPattern(chosen)


@settings(max_examples=60, deadline=None)
@given(local_models(), patterns())
def test_pattern_update_size_and_locality(m, p):
    out = pattern_update(m, p)
    assert len(out.worlds) == len(m.worlds) * len(p.graphs)
    assert is_local(out)


@settings(max_examples=40, deadline=None)
@given(local_models())
def test_identity_round_is_isomorphism(m):
    from epiupdate import identity_graph
    out = pattern_update(m, CommPattern([identity_graph(AGENTS)]))
    assert isomorphic(out, m)


@settings(max_examples=40, deadline=None)
@given(interpreted_systems(), patterns())
def test_pattern_round_matches_induced_model(m, p):
    atoms = sorted({q for val in m.valuation.values() for q in val}, key=str)
    left = pattern_update(m, p)
    right = action_update(m, induced_action_model(p, atoms))
    assert models_bisimilar(left, right)
    for w in m.worlds:
        for g in p.graphs:
            image = (w, (g, frozenset(m.valuation[w])))
            assert bisimilar(left, (w, g), right, image)


@settings(max_examples=40, deadline=None)
@given(local_models(), patterns(max_graphs=3))
def test_lazy_induced_equals_materialized(m, p):
    atoms = sorted({q for val in m.valuation.values() for q in val}, key=str)
    lazy = apply_induced(m, p, atoms)
    mat = action_update(m, induced_action_model(p, atoms))
    assert set(lazy.worlds) == set(mat.worlds)
    assert lazy.valuation == mat.valuation
    for a in AGENTS:
        assert set(lazy.relations[a]) == set(mat.relations[a])


@settings(max_examples=40, deadline=None)
@given(local_models(max_worlds=4),
       st.sampled_from(ATOM_POOL), st.sampled_from(ATOM_POOL), st.booleans())
def test_compose_is_sequential_execution(m, x, y, whether):
    u = whether_announce(Var(x), AGENTS) if whether else announce(Var(x), AGENTS)
    v = announce(Var(y), AGENTS)
    assert isomorphic(action_update(m, compose(u, v)),
                      action_update(action_update(m, u), v))


@settings(max_examples=40, deadline=None)
@given(local_models(max_worlds=4))
def test_skip_changes_nothing(m):
    assert isomorphic(action_update(m, skip_model(AGENTS)), m)


@settings(max_examples=60, deadline=None)
@given(local_models())
def test_descriptions_pin_down_valuations(m):
    atoms = ATOM_POOL
    for w in m.worlds:
        mine = m.valuation[w] & set(atoms)
        d = description(mine, atoms)
        assert satisfies(m, w, d)
        for v in m.worlds:
            expected = (m.valuation[v] & set(atoms)) == mine
            assert satisfies(m, v, d) == expected


@settings(max_examples=40, deadline=None)
@given(local_models(max_worlds=4),
       st.sampled_from(ATOM_POOL), st.sampled_from(ATOM_POOL), st.booleans())
def test_evaluator_agrees_with_pointwise_reference(m, x, y, whether):
    # the formulas of the laws above: descriptions, and announcements
    # composed into one action model
    u = whether_announce(Var(x), AGENTS) if whether else announce(Var(x), AGENTS)
    c = compose(u, announce(Var(y), AGENTS))
    formulas = [description(m.valuation[w] & set(ATOM_POOL), ATOM_POOL) for w in m.worlds]
    formulas += [c.pre[e] for e in c.actions]
    formulas += [ActionBox(c, e, knows(a, Var(x))) for e in c.actions for a in AGENTS]
    steps = {}
    for f in formulas:
        for w in m.worlds:
            assert satisfies(m, w, f) == reference_sat(m, w, f, steps)
    assert action_update(m, c).worlds == tuple(
        (v, e) for v in m.worlds for e in c.actions if reference_sat(m, v, c.pre[e], steps))


@settings(max_examples=40, deadline=None)
@given(local_models())
def test_minimize_contract(m):
    small = minimize(m)
    assert models_bisimilar(m, small)
    assert all(len(b) == 1 for b in max_collective_bisimulation(small))
    assert isomorphic(minimize(small), small)


@settings(max_examples=40, deadline=None)
@given(interpreted_systems())
def test_full_group_meet_is_identity_on_systems(m):
    # every agent together can pin down the world in an interpreted system
    # exactly when valuations are distinct, which restriction guarantees
    blocks = group_relation(m, AGENTS)
    assert all(len(b) == 1 for b in blocks)
    assert is_interpreted_system(m)
