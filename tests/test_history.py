import gc
import random
import weakref
from itertools import product

import pytest

from epiupdate import (
    DKnow, EpiupdateError, EpistemicModel, HistoryVariable, ModelCapError,
    PatternBox, Var,
    atom_holds, history_atoms_below, history_power,
    history_start, history_update, induced_chain, is_interpreted_system,
    is_local, knows, models_bisimilar, pattern_update, realized_history_atoms,
    round_variables, satisfies, view_of, iff, action_update,
    induced_action_model,
)
from epiupdate.fixtures import (
    byz_initial_model, byz_pattern, immediate_snapshot, sq_model, P_A, P_B,
)
from epiupdate import history
from epiupdate.history import EMPTY_VIEW, View, induced_round_product

from genlib import (
    concrete_view, initials_key, model_atoms, random_interpreted_system,
    random_pattern, random_pattern_formula, reference_round_variables,
    reference_valuation,
)

AB = ("a", "b")


def graph(name, pattern):
    return next(g for g in pattern.graphs if g.name == name)


class TestViews:
    def test_empty_history(self):
        assert view_of("a", ()) == EMPTY_VIEW
        assert view_of("a", ()).serialize() == ""

    def test_first_round(self):
        isp = immediate_snapshot()
        rab = graph("Rab", isp)
        assert view_of("a", (rab,)).serialize() == "a"
        assert view_of("b", (rab,)).serialize() == "ab"
        assert str(HistoryVariable(view_of("a", (rab,)), "a")) == "a_a"
        assert str(HistoryVariable(view_of("b", (rab,)), "b")) == "ab_b"

    def test_second_round(self):
        isp = immediate_snapshot()
        rab, rba = graph("Rab", isp), graph("Rba", isp)
        va = view_of("a", (rab, rba))
        vb = view_of("b", (rab, rba))
        assert va.serialize() == "(a,ab).ab"
        assert vb.serialize() == "ab.b"
        assert str(HistoryVariable(va, "a")) == "((a,ab).ab)_a"
        assert str(HistoryVariable(vb, "b")) == "(ab.b)_b"

    def test_serialization_injective_on_abstract_views(self):
        isp = immediate_snapshot()
        seen = {}
        for n in range(3):
            for sigma in product(isp.graphs, repeat=n):
                for agent in AB:
                    v = view_of(agent, sigma)
                    s = v.serialize()
                    assert seen.setdefault(s, v) == v
        assert len(seen) > 10

    def test_concrete_views_carry_content(self):
        sq = sq_model()
        isp = immediate_snapshot()
        u = graph("U", isp)
        init11 = initials_key(sq, "11")
        init10 = initials_key(sq, "10")
        va11 = concrete_view("a", (u,), init11)
        va10 = concrete_view("a", (u,), init10)
        assert va11 != va10                      # content differs (p_b)
        assert va11.serialize() == va10.serialize() == "ab"
        assert not va11.is_abstract
        assert va11.skeleton() == view_of("a", (u,))

    def test_hashes_agree_across_runs(self):
        import os
        import subprocess
        import sys

        import epiupdate
        script = (
            "from epiupdate import history_start, history_update, realized_history_atoms\n"
            "from epiupdate.fixtures import immediate_snapshot, sq_model\n"
            "from epiupdate.history import EMPTY_VIEW, View\n"
            "print(hash(View(('a',), (View(('a', 'b'), (EMPTY_VIEW, EMPTY_VIEW)),))))\n"
            "h = history_start(sq_model())\n"
            "for _ in range(2):\n"
            "    h = history_update(h, immediate_snapshot())\n"
            "print(list(realized_history_atoms(h)))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(epiupdate.__file__)))
        outs = [subprocess.run([sys.executable, "-c", script], check=True,
                               capture_output=True, text=True,
                               env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
                               ).stdout
                for _ in range(2)]
        assert outs[0] == outs[1]
        assert outs[0].count("HistoryVariable(") > 10

    def test_equal_views_are_one_object(self):
        first = View(("a", "b"), (EMPTY_VIEW, View(("b",), (EMPTY_VIEW,))))
        assert View(["a", "b"], [EMPTY_VIEW, View(("b",), (EMPTY_VIEW,))]) is first
        leaf = View((), (), frozenset({P_A}))
        assert View((), (), frozenset({P_A})) is leaf
        assert View((), (), frozenset()) is not EMPTY_VIEW
        rab = graph("Rab", immediate_snapshot())
        assert view_of("b", (rab, rab)) is view_of("b", [rab, rab])

    def test_history_and_induced_rounds_share_views(self):
        sq = sq_model()
        isp = immediate_snapshot()
        h = history_power(sq, isp, 3)
        chain = induced_chain(sq, [isp] * 3, [P_A, P_B])

        def round_three(model):
            return {id(p.view): p.view for val in model.valuation.values()
                    for p in val if isinstance(p, HistoryVariable) and p.view.depth == 3}

        ours, theirs = round_three(h), round_three(chain)
        assert len(ours) > 10
        assert ours.keys() == theirs.keys()

    def test_dropped_views_are_not_kept(self):
        h = history_power(sq_model(), immediate_snapshot(), 3)
        view = next(p.view for p in h.valuation[h.worlds[-1]]
                    if isinstance(p, HistoryVariable) and p.view.depth == 3)
        dropped = weakref.ref(view)
        del h, view
        gc.collect()
        assert dropped() is None

    def test_abstract_matching(self):
        sq = sq_model()
        isp = immediate_snapshot()
        u = graph("U", isp)
        concrete = HistoryVariable(concrete_view("a", (u,), initials_key(sq, "11")), "a")
        abstract = HistoryVariable(view_of("a", (u,)), "a")
        other = HistoryVariable(view_of("a", (graph("Rab", isp),)), "a")
        val = frozenset({concrete, P_A})
        assert atom_holds(val, concrete)
        assert atom_holds(val, abstract)
        assert not atom_holds(val, other)
        assert atom_holds(val, Var(P_A).atom)


class TestRoundUpdate:
    def test_round_zero_has_no_history_atoms(self):
        h = history_start(sq_model())
        assert realized_history_atoms(h.model) == frozenset()

    def test_first_round_valuation(self):
        sq = sq_model()
        isp = immediate_snapshot()
        h = history_update(history_start(sq), isp)
        w = ("11", graph("Rab", isp))
        assert {str(p) for p in h.model.valuation[w]} == {"p_a", "p_b", "a_a", "ab_b"}

    def test_second_round_valuation(self):
        sq = sq_model()
        isp = immediate_snapshot()
        h2 = history_power(sq, isp, 2)
        w2 = (("11", graph("Rab", isp)), graph("Rba", isp))
        names = {str(p) for p in h2.model.valuation[w2]}
        assert names == {"p_a", "p_b", "a_a", "ab_b", "((a,ab).ab)_a", "(ab.b)_b"}

    def test_interpreted_system_closure(self):
        sq = sq_model()
        isp = immediate_snapshot()
        h = history_start(sq)
        for _ in range(3):
            h = history_update(h, isp)
            assert is_local(h.model)
            assert is_interpreted_system(h.model)

    def test_closure_on_random_systems(self):
        rng = random.Random(53)
        for _ in range(10):
            m = random_interpreted_system(rng)
            p = random_pattern(rng, m.agents, max_graphs=4)
            h = history_start(m)
            for _ in range(2):
                h = history_update(h, p)
                assert is_interpreted_system(h.model)

    def test_base_relation_agreement(self):
        sq = sq_model()
        isp = immediate_snapshot()
        h = history_start(sq)
        plain = sq
        for _ in range(3):
            h = history_update(h, isp)
            plain = pattern_update(plain, isp)
            assert h.model.worlds == plain.worlds
            assert h.model.relations == plain.relations
            for w in plain.worlds:
                base = {p for p in h.model.valuation[w]
                        if not isinstance(p, HistoryVariable)}
                assert base == set(plain.valuation[w])

    def test_start_with_history_variables_rejected(self):
        # the round step reads the latest views off the valuation by depth,
        # which needs a start without history variables
        sq = sq_model()
        isp = immediate_snapshot()
        h1 = history_power(sq, isp, 1)
        start = "without history variables; world 00.Rab holds"
        with pytest.raises(EpiupdateError, match=start):
            history_update(history_start(h1), isp)
        with pytest.raises(EpiupdateError, match=start):
            induced_chain(h1, [isp], [P_A, P_B])
        with pytest.raises(EpiupdateError, match=start):
            induced_round_product(h1, isp, [P_A, P_B], h1, 0)
        with pytest.raises(EpiupdateError, match=start):
            round_variables([isp], h1)
        # a later round of a proper start reads its views as before
        assert history_update(h1, isp).round == 2

    def test_world_cap_before_history_variables(self, monkeypatch):
        # Sq odot IS has 12 worlds; both rounds stop at the product's cap
        # check, before any history variable is attached
        def attach(*args):
            raise AssertionError("history variables attached past the cap")
        monkeypatch.setattr(history, "_round_valuation", attach)
        monkeypatch.setenv("EPIUPDATE_MAX_WORLDS", "11")
        sq = sq_model()
        isp = immediate_snapshot()
        with pytest.raises(ModelCapError):
            history_update(history_start(sq), isp)
        with pytest.raises(ModelCapError):
            induced_round_product(sq, isp, [P_A, P_B], sq, 0)

    def test_mixed_patterns_supported(self):
        sq = sq_model()
        h = history_update(history_start(sq), byz_pattern())
        h = history_update(h, immediate_snapshot())
        assert h.round == 2
        assert is_local(h.model)


class TestHistorySemantics:
    def test_first_round_view_variable(self):
        sq = sq_model()
        isp = immediate_snapshot()
        h0 = history_start(sq)
        rab = graph("Rab", isp)
        a_a = Var(HistoryVariable(view_of("a", (rab,)), "a"))
        assert satisfies(h0, "11", PatternBox(isp, rab, a_a))

    def test_full_group_collapse_preserved(self):
        sq = sq_model()
        h0 = history_start(sq)
        f = iff(DKnow(frozenset(AB), Var(P_A)), Var(P_A))
        assert all(satisfies(h0, w, f) for w in sq.worlds)

    def test_sender_knows_delivery_shape(self):
        # under the snapshot pattern, hearing from nobody else pins the
        # round's graph down, so a knows b's view variable
        sq = sq_model()
        isp = immediate_snapshot()
        h0 = history_start(sq)
        rab = graph("Rab", isp)
        ab_b = Var(HistoryVariable(view_of("b", (rab,)), "b"))
        f = PatternBox(isp, rab, knows("a", ab_b))
        h1 = history_update(h0, isp)
        assert h1.model.block_of("a", ("11", rab)) == {("11", rab), ("10", rab)}
        assert satisfies(h0, "11", f)

    def test_sender_does_not_know_under_send_maybe(self):
        # under send-maybe the no-delivery graph is possible for a too
        sq = sq_model()
        byz = byz_pattern()
        h0 = history_start(sq)
        rab = graph("Rab", byz)
        ab_b = Var(HistoryVariable(view_of("b", (rab,)), "b"))
        f = PatternBox(byz, rab, knows("a", ab_b))
        assert not satisfies(h0, "11", f)

    def test_action_modalities_rejected(self):
        from epiupdate.formulas import ActionBox
        sq = sq_model()
        h0 = history_start(sq)
        u = induced_action_model(byz_pattern(), [P_A])
        f = ActionBox(u, u.actions[0], Var(P_A))
        with pytest.raises(EpiupdateError, match="history"):
            satisfies(h0, "11", f)

    def test_history_variables_tell_the_semantics_apart(self):
        # the history round makes a's view variable true; the plain
        # product has no history variables at all
        sq = sq_model()
        isp = immediate_snapshot()
        rab = graph("Rab", isp)
        f = PatternBox(isp, rab, Var(HistoryVariable(view_of("a", (rab,)), "a")))
        assert satisfies(history_start(sq), "11", f)
        assert not satisfies(sq, "11", f)

    def test_base_atom_formulas_agree_at_round_zero(self):
        rng = random.Random(11)
        for i in range(30):
            m = random_interpreted_system(rng, max_agents=2 + i % 2, max_atoms_per_agent=1)
            patterns = [random_pattern(rng, m.agents, max_graphs=3) for _ in range(2)]
            h0 = history_start(m)
            for _ in range(10):
                f = random_pattern_formula(rng, model_atoms(m), m.agents, patterns)
                for w in m.worlds:
                    assert satisfies(h0, w, f) == satisfies(m, w, f)

    def test_history_model_is_a_model(self):
        sq = sq_model()
        isp = immediate_snapshot()
        h1 = history_update(history_start(sq), isp)
        assert isinstance(h1, EpistemicModel)
        assert h1.model is h1
        assert (h1.base, h1.rounds, h1.round) == (sq, (isp,), 1)
        # the pattern step is the next history round
        h2 = h1.step(isp)
        assert h2.rounds == (isp, isp)
        assert models_bisimilar(h2, history_update(h1, isp))


class TestInducedChain:
    def test_chain_matches_history_rounds(self):
        sq = sq_model()
        isp = immediate_snapshot()
        for n in range(4):
            h = history_power(sq, isp, n)
            chain = induced_chain(sq, [isp] * n, [P_A, P_B])
            assert len(chain.worlds) == len(h.model.worlds)
            assert models_bisimilar(h.model, chain)

    def test_chain_on_random_systems(self):
        rng = random.Random(59)
        for _ in range(6):
            m = random_interpreted_system(rng, max_agents=2)
            p = random_pattern(rng, m.agents, max_graphs=3)
            atoms = {q for val in m.valuation.values() for q in val}
            h = history_start(m)
            chain = m
            for k in range(2):
                h = history_update(h, p)
                chain = induced_chain(m, [p] * (k + 1), atoms)
                assert models_bisimilar(h.model, chain)

    def test_lazy_round_equals_materialized_round(self):
        # tiny base with no atoms keeps the materialized model small
        from epiupdate import full_interpreted_system
        base = full_interpreted_system([], agents=AB)
        isp = immediate_snapshot()

        h1 = history_update(history_start(base), isp)
        atoms1 = history_atoms_below([isp], base)
        lazy = induced_chain(base, [isp, isp], [])

        # materialized second round: explicit induced model, generic product,
        # then the same history-variable writes
        u2 = induced_action_model(isp, atoms1)
        step1 = induced_chain(base, [isp], [])
        plain = action_update(step1, u2)
        valuation = {}
        for w in plain.worlds:
            prev, (g, _q) = w
            sigma = (prev[1][0], g)
            initials = initials_key(base, prev[0])
            added = frozenset(
                HistoryVariable(concrete_view(x, sigma, initials), x) for x in AB)
            valuation[w] = plain.valuation[w] | added
        from epiupdate import EpistemicModel
        mat = EpistemicModel(plain.worlds, plain.relations, valuation, agents=AB)

        assert set(mat.worlds) == set(lazy.worlds)
        assert mat.valuation == lazy.valuation
        for agent in AB:
            assert set(mat.relations[agent]) == set(lazy.relations[agent])


class TestRoundVariableUniverses:
    def test_count_for_square_round_one(self):
        sq = sq_model()
        isp = immediate_snapshot()
        vars1 = round_variables([isp], sq)
        # per agent: 2 single-sender contents x 1 + 4 two-sender contents
        assert len(vars1) == 12
        assert realized_history_atoms(history_power(sq, isp, 1).model) == vars1

    def test_below_is_cumulative(self):
        sq = sq_model()
        isp = immediate_snapshot()
        below2 = history_atoms_below([isp, isp], sq)
        assert round_variables([isp], sq) < below2


class TestDisplayedPointSets:
    def test_empty_vocabulary_round_one_matches(self):
        from epiupdate import full_interpreted_system, bisimilar
        from epiupdate.history import displayed_round_points
        base = full_interpreted_system([], agents=AB)
        isp = immediate_snapshot()
        sigma = (graph("Rab", isp),)
        paths = displayed_round_points(isp, sigma, [], base)
        chain = induced_chain(base, [isp], [])
        h1 = history_power(base, isp, 1)
        w = base.worlds[0]
        live = [p for p in paths if (w, p[0]) in set(chain.worlds)]
        assert len(live) == 1
        assert bisimilar(chain, (w, live[0][0]), h1.model, (w, sigma[0]))

    def test_base_atoms_invalidate_displayed_components(self):
        # with base atoms true, the displayed round-2 component (subsets of
        # first-round view variables only) can never fire
        from epiupdate.history import displayed_round_points
        sq = sq_model()
        isp = immediate_snapshot()
        rab = graph("Rab", isp)
        sigma = (rab, rab)
        paths = displayed_round_points(isp, sigma, [P_A, P_B], sq)
        chain = induced_chain(sq, [isp, isp], [P_A, P_B])
        chain_worlds = set(chain.worlds)
        live = [p for p in paths
                if ((("11", p[0]), p[1])) in chain_worlds]
        assert live == []


class TestReferenceViews:
    """The round step against views rebuilt from scratch (``genlib``)."""

    def test_rounds_match_the_rebuild_on_the_acceptance_family(self):
        from test_acceptance import _sample_family
        for m, p in _sample_family(20):
            atoms = frozenset(model_atoms(m))
            h, chain = history_start(m), m
            for n in range(1, 4):
                h = history_update(h, p)
                chain = induced_round_product(
                    chain, p, atoms | realized_history_atoms(chain), m, n - 1)
                assert h.valuation == reference_valuation(h, m, n, lambda g: g)
                assert chain.valuation == reference_valuation(
                    chain, m, n, lambda act: act[0])

    @pytest.mark.parametrize("make_pattern", [immediate_snapshot, byz_pattern])
    def test_universes_match_the_product_over_histories(self, make_pattern):
        sq = sq_model()
        pattern = make_pattern()
        below = frozenset()
        for n in range(4):
            rounds = [pattern] * n
            last = reference_round_variables(rounds, sq)
            below |= last
            assert round_variables(rounds, sq) == last
            assert history_atoms_below(rounds, sq) == below
