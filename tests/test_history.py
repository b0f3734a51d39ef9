import gc
import random
import weakref
from itertools import product

import pytest

from epiupdate import (
    DKnow, EpiupdateError, EpistemicModel, ModelCapError,
    PatternBox, Var,
    atom_holds, history_atoms_below, history_power,
    history_start, history_update, induced_chain, is_interpreted_system,
    is_local, knows, minimize, models_bisimilar, pattern_update, realized_history_atoms,
    round_variables, satisfies, view_of, iff, action_update,
    induced_action_model,
)
from epiupdate.fixtures import (
    byz_initial_model, byz_pattern, identity_pattern, immediate_snapshot, sq_model,
    universal_pattern, P_A, P_B,
)
from epiupdate import history
from epiupdate.history import HistoryModel, View, induced_round_product

from genlib import (
    concrete_view, initials_key, model_atoms, random_interpreted_system,
    random_local_model, random_pattern, random_pattern_formula,
    reference_is_interpreted_system, reference_round_variables, reference_valuation,
)

AB = ("a", "b")


def graph(name, pattern):
    return next(g for g in pattern.graphs if g.name == name)


class TestViews:
    def test_empty_history(self):
        assert view_of("a", ()) == View("a")
        assert view_of("a", ()).serialize() == ""

    def test_first_round(self):
        isp = immediate_snapshot()
        rab = graph("Rab", isp)
        assert view_of("a", (rab,)).serialize() == "a"
        assert view_of("b", (rab,)).serialize() == "ab"
        assert str(view_of("a", (rab,))) == "a_a"
        assert str(view_of("b", (rab,))) == "ab_b"

    def test_second_round(self):
        isp = immediate_snapshot()
        rab, rba = graph("Rab", isp), graph("Rba", isp)
        va = view_of("a", (rab, rba))
        vb = view_of("b", (rab, rba))
        assert va.serialize() == "(a,ab).ab"
        assert vb.serialize() == "ab.b"
        assert str(va) == "((a,ab).ab)_a"
        assert str(vb) == "(ab.b)_b"

    def test_serialization_injective_on_abstract_views(self):
        # keyed by str, which adds the owner: the two agents' views of one
        # shape serialize alike but differ
        isp = immediate_snapshot()
        seen = {}
        for n in range(3):
            for sigma in product(isp.graphs, repeat=n):
                for agent in AB:
                    v = view_of(agent, sigma)
                    assert seen.setdefault(str(v), v) == v
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
            "from epiupdate.history import View\n"
            "print(hash(View('a', [View('a', [View('a'), View('b')])])))\n"
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
        assert outs[0].count("View(") > 10

    def test_equal_views_are_one_object(self):
        first = View("a", (View("a"), View("b", (View("b"),))))
        assert View("a", [View("a"), View("b", [View("b")])]) is first
        leaf = View("a", (), frozenset({P_A}))
        assert View("a", (), frozenset({P_A})) is leaf
        assert View("a", (), frozenset()) is not View("a")
        assert View("b", (), frozenset()) is not View("a", (), frozenset())
        rab = graph("Rab", immediate_snapshot())
        assert view_of("b", (rab, rab)) is view_of("b", [rab, rab])

    def test_history_and_induced_rounds_share_views(self):
        sq = sq_model()
        isp = immediate_snapshot()
        h = history_power(sq, isp, 3)
        chain = induced_chain(sq, [isp] * 3, [P_A, P_B])

        def round_three(model):
            return {id(p): p for val in model.valuation.values()
                    for p in val if isinstance(p, View) and p.depth == 3}

        ours, theirs = round_three(h), round_three(chain)
        assert len(ours) > 10
        assert ours.keys() == theirs.keys()

    def test_bisimilarity_of_history_and_induced_rounds_compares_by_identity(self, monkeypatch):
        sq = sq_model()
        isp = immediate_snapshot()
        h = history_power(sq, isp, 3)
        chain = induced_chain(sq, [isp] * 3, [P_A, P_B])
        calls = []
        structural = View.__eq__

        def counted(self, other):
            calls.append(1)
            return structural(self, other)

        monkeypatch.setattr(View, "__eq__", counted)
        assert models_bisimilar(h, chain)
        assert calls == []

    def test_dropped_views_are_not_kept(self):
        h = history_power(sq_model(), immediate_snapshot(), 3)
        view = next(p for p in h.valuation[h.worlds[-1]]
                    if isinstance(p, View) and p.depth == 3)
        dropped = weakref.ref(view)
        del h, view
        gc.collect()
        assert dropped() is None

    def test_abstract_matching(self):
        sq = sq_model()
        isp = immediate_snapshot()
        u = graph("U", isp)
        concrete = concrete_view("a", (u,), initials_key(sq, "11"))
        abstract = view_of("a", (u,))
        other = view_of("a", (graph("Rab", isp),))
        val = frozenset({concrete, P_A})
        assert atom_holds(val, concrete)
        assert atom_holds(val, abstract)
        assert not atom_holds(val, other)
        assert not atom_holds(val, view_of("b", (u,)))  # same shape, other owner
        assert atom_holds(val, Var(P_A).atom)

    def test_printed_lengths_are_counted_before_printing(self, monkeypatch):
        # each view prints exactly as many characters as counted: under a cap
        # of that many it prints, under one less it is refused
        from epiupdate import models
        monkeypatch.delenv("EPIUPDATE_MAX_WORLDS", raising=False)
        rng = random.Random(2413)
        views = set()
        for _ in range(6):
            m = random_interpreted_system(rng)
            p = random_pattern(rng, m.agents, max_graphs=3)
            views |= realized_history_atoms(history_power(m, p, 3))
            views |= set().union(*history_start(m).columns.values())
            views.add(view_of(m.agents[0], [rng.choice(p.graphs) for _ in range(3)]))
        printed = {v: (str(v), v.id_name()) for v in views}
        for v, (text, id_text) in printed.items():
            assert v.printed_length() == len(text)
            for show, n in ((str, len(text)), (View.id_name, len(id_text))):
                monkeypatch.setattr(models, "DEFAULT_WORLD_CAP", n)
                assert len(show(v)) == n
                monkeypatch.setattr(models, "DEFAULT_WORLD_CAP", n - 1)
                with pytest.raises(ModelCapError, match=f"history variable would print {n} "):
                    show(v)


class TestViewTable:
    """One table of weak references holds the live views; the public
    constructor checks its fields and a round interns on the trusted path."""

    def test_a_dropped_history_leaves_the_table_as_it_was(self):
        gc.collect()
        before = len(history._VIEWS)
        h = history_power(sq_model(), immediate_snapshot(), 3)
        assert len(history._VIEWS) > before
        leaf = h.columns["a"][0]
        while leaf.children:
            leaf = leaf.children[0]
        leaf = weakref.ref(leaf)
        del h
        gc.collect()
        assert len(history._VIEWS) == before
        assert leaf() is None  # the views below went with the entries

    def test_a_late_callback_spares_the_view_that_took_its_key(self):
        # a dead view's ref is queued again, by hand, after an equal view
        # has been interned under the same key: the sweep keeps the new entry
        key = ("zz", (), frozenset())
        view = View("zz", (), frozenset())
        dead = history._VIEWS[key]
        del view
        gc.collect()
        assert dead() is None and key not in history._VIEWS
        fresh = View("zz", (), frozenset())
        history._died(dead)
        history._sweep()
        assert history._VIEWS[key]() is fresh
        assert View("zz", (), frozenset()) is fresh

    def test_a_view_dies_without_running_python_code(self):
        # the entry waits in the queue, so freeing a round costs no frames
        key = ("zy", (), frozenset())
        view = View("zy", (), frozenset())
        dead = history._VIEWS[key]
        assert dead.__callback__ == history._DEAD.append
        del view
        assert history._DEAD[-1] is dead and history._VIEWS[key] is dead
        history._sweep()
        assert key not in history._VIEWS and not history._DEAD

    def test_an_abstract_view_keeps_its_skeleton_without_a_cycle(self):
        # an abstract view is its own skeleton; the memo says so with False
        # rather than a reference to itself, so no collector is needed
        p = immediate_snapshot()
        view = view_of("a", p.graphs[:3])
        assert view.skeleton() is view and view._skeleton is False
        assert view.skeleton() is view
        gone = weakref.ref(view)
        gc.disable()
        try:
            del view
            assert gone() is None
        finally:
            gc.enable()

    def test_rounds_intern_the_views_the_constructor_builds(self, monkeypatch):
        rng = random.Random(2601)
        checked = 0
        for i in range(8):
            m = (random_interpreted_system(rng, max_agents=2) if i % 2
                 else random_local_model(rng, max_agents=2, max_worlds=5))
            p = random_pattern(rng, m.agents, max_graphs=2)
            atoms = frozenset(model_atoms(m))
            h, chain = history_start(m), m
            models = [(0, h)]
            for n in range(1, 4):
                h = history_update(h, p)
                chain = induced_round_product(
                    chain, p, atoms | realized_history_atoms(chain), m, n - 1)
                models += [(n, h), (n, chain)]
            views = [(n, v) for n, model in models
                     for v in set().union(*model.columns.values())]
            for n, v in views:
                assert View(v.owner, v.children, v.initial) is v
                assert (v.depth, v.is_abstract) == (n, False)
            # built afresh by the public constructor, in a table and a queue
            # of dead views of its own
            dead = []
            monkeypatch.setattr(history, "_VIEWS", {})
            monkeypatch.setattr(history, "_DEAD", dead)
            monkeypatch.setattr(history, "_died", dead.append)
            for n, v in views:
                fresh = View(v.owner, v.children, v.initial)
                assert fresh is not v and fresh == v and hash(fresh) == hash(v)
                assert (fresh.depth, fresh.is_abstract) == (v.depth, v.is_abstract)
            monkeypatch.undo()
            checked += len(views)
        assert checked > 500

    def test_a_public_miss_makes_one_table_lookup(self, monkeypatch):
        lookups = []

        class Table(dict):
            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

        monkeypatch.setattr(history, "_VIEWS", Table())
        monkeypatch.setattr(history, "_DEAD", [])
        leaf = View("a", (), frozenset())
        assert lookups == [("a", (), frozenset())]
        lookups.clear()
        assert View("a", [leaf]).children == (leaf,)
        assert lookups == [("a", (leaf,))]

    def test_skeletons_are_interned_on_the_trusted_path(self, monkeypatch):
        # a round's views are concrete; their skeletons are built without
        # the public constructor, whose checks they pass by construction
        h = history_power(sq_model(), immediate_snapshot(), 3)
        public, new = [], View.__new__

        def constructed(cls, *args):
            public.append(1)
            return new(cls, *args)

        monkeypatch.setattr(View, "__new__", staticmethod(constructed))
        skeletons = {a: [v.skeleton() for v in h.columns[a]] for a in h.agents}
        assert public == []
        monkeypatch.undo()
        for i, w in enumerate(h.worlds):
            graphs = []
            while isinstance(w, tuple):
                w, g = w
                graphs.insert(0, g)
            for a in h.agents:
                sk = skeletons[a][i]
                assert sk is view_of(a, graphs) and sk.skeleton() is sk
                assert sk is View(sk.owner, sk.children)  # it passes the public checks

    def test_the_constructor_checks_its_fields(self):
        a, b = View("a", (), frozenset()), View("b", (), frozenset())
        View("a", [a, b])  # valid, and in the table from here on
        with pytest.raises(ValueError, match="distinct owners in agent order"):
            View("a", [b, a])
        with pytest.raises(ValueError, match="distinct owners in agent order"):
            View("a", [a, a])
        with pytest.raises(ValueError, match="owner must be among the agents it heard from"):
            View("c", [a, b])
        with pytest.raises(ValueError, match="only round-zero views carry"):
            View("a", [a, b], frozenset())

    def test_a_rendering_is_counted_before_it_is_built(self, monkeypatch):
        # a round of U doubles the text: round 14 prints 65,530 characters,
        # round 15 would print 131,066, past the default cap
        monkeypatch.delenv("EPIUPDATE_MAX_WORLDS", raising=False)
        u = universal_pattern()
        v14, v15, v20 = (history_power(sq_model(), u, n).columns["a"][0] for n in (14, 15, 20))
        assert len(v14.serialize()) == 65530 and str(v14) == f"({v14.serialize()})_a"
        for v, n in ((v15, 131066), (v20, 4194298)):
            with pytest.raises(ModelCapError, match=f"history variable would print {n} "):
                v.serialize()
            assert v._text is None  # refused before any text was built
        monkeypatch.setenv("EPIUPDATE_MAX_WORLDS", "131066")
        assert len(v15.serialize()) == 131066

    def test_deep_views_render_without_recursion(self):
        # one frame per round would pass Python's recursion limit
        n = 2000
        h = history_power(sq_model(), identity_pattern(), n)
        view = h.columns["a"][next(i for i, val in enumerate(h.vals) if P_A in val)]
        assert view.depth == n
        assert view.serialize() == ".".join(["a"] * n)
        assert str(view) == "(" + ".".join(["a"] * n) + ")_a"
        assert view.printed_length() == len(str(view))
        assert view.id_name() == str(view) + "[p_a]"
        assert view.skeleton() is view_of("a", [identity_pattern().graphs[0]] * n)
        assert atom_holds(h.vals[0] | {view}, view.skeleton())


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
                        if not isinstance(p, View)}
                assert base == set(plain.valuation[w])

    def test_start_with_history_variables_rejected(self):
        # a start's leaves are its agents' initial own atoms, so a start
        # that holds history variables is refused when it is made
        sq = sq_model()
        isp = immediate_snapshot()
        h1 = history_power(sq, isp, 1)
        start = "without history variables; world 00.Rab holds"
        with pytest.raises(EpiupdateError, match=start):
            history_update(history_start(h1), isp)
        with pytest.raises(EpiupdateError, match=start):
            induced_round_product(h1, isp, [P_A, P_B], h1, 0)
        for rounds in ([isp], []):
            with pytest.raises(EpiupdateError, match=start):
                induced_chain(h1, rounds, [P_A, P_B])
            with pytest.raises(EpiupdateError, match=start):
                round_variables(rounds, h1)
            with pytest.raises(EpiupdateError, match=start):
                history_atoms_below(rounds, h1)
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
        a_a = Var(view_of("a", (rab,)))
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
        ab_b = Var(view_of("b", (rab,)))
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
        ab_b = Var(view_of("b", (rab,)))
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
        f = PatternBox(isp, rab, Var(view_of("a", (rab,))))
        assert satisfies(history_start(sq), "11", f)
        assert not satisfies(sq, "11", f)

    def test_a_chain_of_no_rounds_is_round_zero(self):
        # it steps by history rounds, as its bisimilar history_start does
        sq, isp = sq_model(), immediate_snapshot()
        rab = graph("Rab", isp)
        f = PatternBox(isp, rab, Var(view_of("b", (rab,))))
        chain = induced_chain(sq, [], [P_A, P_B])
        assert isinstance(chain, HistoryModel) and chain.round == 0
        assert chain.columns == history_start(sq).columns
        assert satisfies(history_start(sq), "11", f) and satisfies(chain, "11", f)

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
        assert h1.round == 1
        # the pattern step is the next history round
        h2 = h1.step(isp)
        assert h2.round == 2
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
            added = frozenset(concrete_view(x, sigma, initials) for x in AB)
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

    def test_universes_bounded_by_the_world_cap(self, monkeypatch):
        # two IS rounds on Sq have 36 worlds: the universe is read off them,
        # so the cap stops it like any product
        sq, isp = sq_model(), immediate_snapshot()
        monkeypatch.setenv("EPIUPDATE_MAX_WORLDS", "30")
        with pytest.raises(ModelCapError, match="product would have 36 worlds"):
            round_variables([isp, isp], sq)
        with pytest.raises(ModelCapError, match="product would have 36 worlds"):
            history_atoms_below([isp, isp], sq)
        assert len(round_variables([isp], sq)) == 12


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

    def test_point_count_checked_against_the_cap(self, monkeypatch):
        # subsets of 2 base atoms and of the 12 round-1 and 36 round-2
        # variables make 2^14 paths for two rounds and 2^50 for three: both
        # stop before any path is built
        from epiupdate.history import displayed_round_points
        sq = sq_model()
        isp = immediate_snapshot()
        rab = graph("Rab", isp)
        monkeypatch.setenv("EPIUPDATE_MAX_WORLDS", "1000")
        with pytest.raises(ModelCapError):
            displayed_round_points(isp, (rab, rab), [P_A, P_B], sq)
        monkeypatch.delenv("EPIUPDATE_MAX_WORLDS")
        with pytest.raises(ModelCapError):
            displayed_round_points(isp, (rab, rab, rab), [P_A, P_B], sq)

    def test_point_count_message_past_printable_ints(self, monkeypatch):
        # 2^15000 paths have more digits than Python prints: the cap error
        # writes the count as k * 2^e
        from epiupdate import Atom
        from epiupdate.history import displayed_round_points
        sq, isp = sq_model(), immediate_snapshot()
        many = [Atom(f"x{i}", "a") for i in range(15000)]
        monkeypatch.setenv("EPIUPDATE_MAX_WORLDS", "1000")
        with pytest.raises(ModelCapError) as exc:
            displayed_round_points(isp, (graph("Rab", isp),), many, sq)
        assert str(exc.value) == ("product would have 1 * 2^15000 worlds, exceeding the "
                                  "cap of 1000 (raise EPIUPDATE_MAX_WORLDS to override)")


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

    def test_one_view_per_class_of_the_senders_group(self, monkeypatch):
        # an agent's new view lists its senders' latest views, which are
        # constant on each class of the senders' group: a round builds one
        # view per (agent, sender set, class) of the model before it
        sq, isp = sq_model(), immediate_snapshot()
        atoms = frozenset({P_A, P_B})
        built, public = [], []
        intern, new = history._intern, View.__new__

        def counted(*args):
            built.append(1)
            return intern(*args)

        def constructed(cls, *args):
            public.append(1)
            return new(cls, *args)

        def triples(model):
            senders = {(a, g.heard[a]) for g in isp.graphs for a in model.agents}
            return sum(len({tuple(model.block_of(b, w) for b in group) for w in model.worlds})
                       for _, group in senders)

        def views_built(step, *args):
            built.clear()
            monkeypatch.setattr(history, "_intern", counted)
            monkeypatch.setattr(View, "__new__", staticmethod(constructed))
            try:
                return step(*args), len(built)
            finally:
                monkeypatch.undo()

        h, chain = history_start(sq), sq
        for n in range(1, 5):
            expected = triples(h)
            h, in_round = views_built(history_update, h, isp)
            chain, in_chain = views_built(induced_round_product, chain, isp,
                                          atoms | realized_history_atoms(chain), sq, n - 1)
            if n > 1:  # round one also builds every world's leaves
                assert in_round == in_chain == expected
        assert public == []  # a round builds its views on the trusted path
        assert expected == 324
        assert h.valuation == reference_valuation(h, sq, 4, lambda g: g)

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


class TestViewColumns:
    """History models and induced rounds carry each agent's latest view per
    world from round zero on, which the next round reads and ``own_labels``
    groups by in place of the valuations."""

    @staticmethod
    def by_depth(model, depth):
        latest = [{p.owner: p for p in val if isinstance(p, View) and p.depth == depth}
                  for val in model.vals]
        return {a: tuple(views[a] for views in latest) for a in model.agents}

    @staticmethod
    def leaves(model):
        return {a: tuple(View(a, (), frozenset(p for p in val if p.owner == a))
                         for val in model.vals) for a in model.agents}

    def test_columns_are_the_latest_views_by_depth(self):
        rng = random.Random(2310)
        verdicts = []
        for i in range(16):
            m = (random_interpreted_system(rng, max_agents=2) if i % 2
                 else random_local_model(rng, max_agents=2, max_worlds=5))
            p = random_pattern(rng, m.agents, max_graphs=2)
            atoms = frozenset(model_atoms(m))
            h, chain = history_start(m), m
            leaves = self.leaves(m)
            assert h.columns == leaves
            verdicts.append(is_interpreted_system(h))
            assert verdicts[-1] == reference_is_interpreted_system(h)
            for n in range(1, 4):
                h = history_update(h, p)
                chain = induced_round_product(
                    chain, p, atoms | realized_history_atoms(chain), m, n - 1)
                for model in (h, chain):
                    assert model.columns == self.by_depth(model, n)
                    verdicts.append(is_interpreted_system(model))
                    assert verdicts[-1] == reference_is_interpreted_system(model)
                    # the agent's own children lead down to its leaf in the base world
                    for a, column in model.columns.items():
                        for w, view in zip(model.worlds, column):
                            for _ in range(n):
                                w, view = w[0], next(c for c in view.children if c.owner == a)
                            assert view is leaves[a][m.worlds.index(w)]
        assert 0 < sum(verdicts) < len(verdicts)

    def test_a_history_model_is_refused_as_a_start(self):
        h1 = history_power(sq_model(), immediate_snapshot(), 1)
        with pytest.raises(EpiupdateError,
                           match="without history variables; world 00.Rab holds"):
            HistoryModel(h1)

    def test_a_later_round_without_columns_is_refused(self):
        # round zero builds its leaves; a later round reads the columns of
        # the round before, which a plain product does not have
        sq, isp = sq_model(), immediate_snapshot()
        with pytest.raises(EpiupdateError, match="induced round 2 reads the view columns"):
            induced_round_product(pattern_update(sq, isp), isp, [P_A, P_B], sq, 1)

    def test_quotients_step_like_their_rounds(self):
        # a quotient keeps its representatives' columns, so the next induced
        # round on it is bisimilar to the next round on the chain itself
        rng = random.Random(2412)
        merged = 0
        for i in range(12):
            m = (random_interpreted_system(rng, max_agents=2) if i % 2
                 else random_local_model(rng, max_agents=2, max_worlds=5))
            p = random_pattern(rng, m.agents, max_graphs=2)
            atoms = frozenset(model_atoms(m))
            chain = m
            for n in range(1, 3):
                chain = induced_round_product(
                    chain, p, atoms | realized_history_atoms(chain), m, n - 1)
                q = minimize(chain)
                merged += len(q.worlds) < len(chain.worlds)
                assert is_interpreted_system(q) == reference_is_interpreted_system(q)
                universe = atoms | realized_history_atoms(chain)
                assert models_bisimilar(induced_round_product(q, p, universe, m, n),
                                        induced_round_product(chain, p, universe, m, n))
        assert merged


class TestBisimulationInvariance:
    """Every model with view columns is a history model and steps by history
    rounds, so the history semantics cannot tell bisimilar points apart."""

    def test_bisimilar_points_agree_on_every_formula(self):
        # each point of a history round agrees with its bisimilar points of
        # the round's quotient and of the induced chain, on formulas whose
        # boxes reach the variables of later rounds
        from epiupdate import extension
        from epiupdate.bisim import pointed_classes
        from epiupdate.models import atom_key
        rng = random.Random(2727)
        compared, disagreeing, truths = 0, 0, set()
        for i in range(8):
            m = (random_interpreted_system(rng, max_agents=2) if i % 2
                 else random_local_model(rng, max_agents=2, max_worlds=5))
            p = random_pattern(rng, m.agents, max_graphs=2)
            for n in range(3):
                h = history_power(m, p, n)
                others = [minimize(h), induced_chain(m, [p] * n, model_atoms(m))]
                points = [(x, w) for x in (h, *others) for w in x.worlds]
                classes = dict(zip([(id(x), w) for x, w in points], pointed_classes(points)))
                atoms = sorted(set(model_atoms(m)) | history_atoms_below([p] * (n + 2), m),
                               key=atom_key)
                for _ in range(6):
                    f = random_pattern_formula(rng, atoms, m.agents, [p], dyn_depth=2)
                    holds = extension(h, f)
                    for x in others:
                        at = {}  # bisimulation class -> truth values at x's points
                        ext = extension(x, f)
                        for w in x.worlds:
                            at.setdefault(classes[id(x), w], set()).add(w in ext)
                        for w in h.worlds:
                            got = at[classes[id(h), w]]
                            compared += 1
                            disagreeing += got != {w in holds}
                            truths |= got
        assert (disagreeing, truths) == (0, {True, False}) and compared > 1000

    def test_a_round_on_a_quotient_or_a_chain_round(self):
        # history_update takes any history model: the next round on a
        # quotient or on a chain round is bisimilar to the next round on h
        rng = random.Random(2728)
        for i in range(8):
            m = (random_interpreted_system(rng, max_agents=2) if i % 2
                 else random_local_model(rng, max_agents=2, max_worlds=5))
            p, nxt = (random_pattern(rng, m.agents, max_graphs=2) for _ in range(2))
            for n in range(3):
                h = history_power(m, p, n)
                after = history_update(h, nxt)
                for x in (minimize(h), induced_chain(m, [p] * n, model_atoms(m))):
                    stepped = history_update(x, nxt)
                    assert isinstance(stepped, HistoryModel) and stepped.round == n + 1
                    assert models_bisimilar(stepped, after)
