import random

import pytest

from epiupdate import (
    CommGraph, CommPattern, EpiupdateError, ModelCapError, enumerate_graphs,
    identity_graph, is_local, isomorphic, make_graph, models_bisimilar, parse_graph_literal,
    pattern_update, receivers_from, universal_graph,
)
from epiupdate.fixtures import (
    byz_initial_model, byz_pattern, immediate_snapshot, sq_model,
)

from genlib import random_local_model, random_pattern

AB = ("a", "b")


def graph(name, pattern):
    return next(g for g in pattern.graphs if g.name == name)


class TestGraphs:
    def test_receivers_from(self):
        rab = make_graph(AB, [("a", "b")])
        assert receivers_from(rab, "b") == {"a", "b"}
        assert receivers_from(rab, "a") == {"a"}
        assert receivers_from(identity_graph(AB), "a") == {"a"}
        assert receivers_from(universal_graph(AB), "a") == {"a", "b"}
        for g in enumerate_graphs(("a", "b", "c")):
            for a in g.agents:
                assert g.heard[a] == {s for s, r in g.edges if r == a}
                assert receivers_from(g, a) == g.heard[a]
            with pytest.raises(ValueError, match="unknown agent z"):
                receivers_from(g, "z")

    def test_reflexivity_enforced(self):
        with pytest.raises(ValueError, match="not reflexive"):
            CommGraph(AB, frozenset({("a", "a"), ("a", "b")}))

    def test_names(self):
        assert identity_graph(AB).name == "I"
        assert universal_graph(AB).name == "U"
        assert make_graph(AB, [("a", "b")]).name == "Rab"
        assert make_graph(AB, [("b", "a")]).name == "Rba"

    def test_enumerate_two_agents(self):
        graphs = enumerate_graphs(AB)
        assert len(graphs) == 4
        assert {g.name for g in graphs} == {"I", "Rab", "Rba", "U"}

    def test_enumerate_one_agent(self):
        assert len(enumerate_graphs(("a",))) == 1

    def test_enumerate_three_agents(self):
        assert len(enumerate_graphs(("a", "b", "c"))) == 64

    def test_enumeration_under_the_world_cap(self, monkeypatch):
        # four agents have 2^12 graphs; the cap is checked before any is built
        monkeypatch.setenv("EPIUPDATE_MAX_WORLDS", "100")
        with pytest.raises(ModelCapError) as exc:
            enumerate_graphs("abcd")
        assert str(exc.value) == ("enumeration would have 4096 graphs, exceeding the cap "
                                  "of 100 (raise EPIUPDATE_MAX_WORLDS to override)")
        assert len(enumerate_graphs("abc")) == 64

    def test_literals(self):
        g = parse_graph_literal("{a->b, b->a}", AB)
        assert g == universal_graph(AB)
        assert parse_graph_literal("{}", AB) == identity_graph(AB)
        assert parse_graph_literal("I", AB) == identity_graph(AB)
        with pytest.raises(EpiupdateError, match="reflexive"):
            parse_graph_literal("{a->b, !b->b}", AB)
        with pytest.raises(EpiupdateError):
            parse_graph_literal("{a=>b}", AB)


class TestPatterns:
    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            CommPattern([])

    def test_equality_ignores_order_and_name(self):
        p1 = CommPattern([identity_graph(AB), universal_graph(AB)], name="x")
        p2 = CommPattern([universal_graph(AB), identity_graph(AB)])
        assert p1 == p2 and hash(p1) == hash(p2)

    def test_mixed_agent_sets_rejected(self):
        with pytest.raises(ValueError):
            CommPattern([identity_graph(AB), identity_graph(("a", "b", "c"))])


class TestPatternUpdate:
    def test_byz_update_shape(self):
        m = byz_initial_model()
        byz = byz_pattern()
        out = pattern_update(m, byz)
        i, rab = graph("I", byz), graph("Rab", byz)
        assert len(out.worlds) == 4
        assert set(out.relations["a"]) == {
            frozenset({("w1", i), ("w1", rab)}),
            frozenset({("w2", i), ("w2", rab)}),
        }
        assert set(out.relations["b"]) == {
            frozenset({("w1", i), ("w2", i)}),
            frozenset({("w1", rab)}),
            frozenset({("w2", rab)}),
        }
        assert out.valuation[("w1", rab)] == m.valuation["w1"]

    def test_identity_pattern_is_isomorphism(self):
        for m in (sq_model(), byz_initial_model()):
            out = pattern_update(m, CommPattern([identity_graph(AB)]))
            assert isomorphic(out, m)

    def test_snapshot_update_top_row(self):
        sq = sq_model()
        isp = immediate_snapshot()
        out = pattern_update(sq, isp)
        assert len(out.worlds) == 12
        u, rab, rba = graph("U", isp), graph("Rab", isp), graph("Rba", isp)
        assert out.block_of("a", ("11", rba)) == {("11", rba), ("11", u)}
        assert out.block_of("b", ("11", u)) == {("11", u), ("11", rab)}

    def test_world_count_law(self):
        rng = random.Random(3)
        for _ in range(10):
            m = random_local_model(rng)
            p = random_pattern(rng, m.agents, max_graphs=4)
            out = pattern_update(m, p)
            assert len(out.worlds) == len(m.worlds) * len(p.graphs)
            assert is_local(out)

    def test_two_rounds_are_not_one_round(self):
        sq = sq_model()
        isp = immediate_snapshot()
        twice = pattern_update(pattern_update(sq, isp), isp)
        graphs = enumerate_graphs(AB)
        from itertools import combinations
        for size in range(1, 5):
            for chosen in combinations(graphs, size):
                once = pattern_update(sq, CommPattern(chosen))
                assert not models_bisimilar(once, twice)

    def test_agent_set_mismatch(self):
        with pytest.raises(ValueError):
            pattern_update(sq_model(), CommPattern([identity_graph(("a", "b", "c"))]))
