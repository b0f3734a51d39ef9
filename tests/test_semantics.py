import random
from itertools import combinations, product

import pytest

from epiupdate import (
    ActionBox, Conj, DKnow, EmptyModelError, Neg, PatternBox,
    UnknownNameError, Var, disj, dual_knows, iff, knows, pattern_box_all, satisfies,
    valid_on, pattern_update, action_update, induced_action_model, announce,
    compose, default_workspace, extension, history_start, history_update,
    iunf_translate, view_of, whether_announce,
)
from epiupdate.formulas import subformulas
from epiupdate.fixtures import (
    byz_initial_model, byz_pattern, immediate_snapshot, sq_model, P_A, P_B,
)

from genlib import (
    model_atoms, random_interpreted_system, random_local_model, random_pattern,
    random_pattern_formula, random_static_formula, reference_sat,
)


def graph(name, pattern):
    return next(g for g in pattern.graphs if g.name == name)


class TestStaticClauses:
    def test_tautology_everywhere(self):
        sq = sq_model()
        f = disj(Var(P_A), Neg(Var(P_A)))
        assert all(satisfies(sq, w, f) for w in sq.worlds)

    def test_atoms_and_negation(self):
        sq = sq_model()
        assert satisfies(sq, "10", Var(P_A))
        assert not satisfies(sq, "01", Var(P_A))
        assert satisfies(sq, "01", Neg(Var(P_A)))

    def test_distributed_knowledge_uses_intersection(self):
        sq = sq_model()
        # alone, neither a nor b knows the other's bit at 11; together they do
        assert not satisfies(sq, "11", knows("a", Var(P_B)))
        assert not satisfies(sq, "11", knows("b", Var(P_A)))
        assert satisfies(sq, "11", DKnow(frozenset("ab"), Var(P_A)))
        assert satisfies(sq, "11", DKnow(frozenset("ab"), Var(P_B)))


class TestDynamicClauses:
    def test_pattern_modality_hand_computed(self):
        # after a send-maybe round with nothing delivered, b still cannot
        # tell the two worlds apart
        m = byz_initial_model()
        byz = byz_pattern()
        f = PatternBox(byz, graph("I", byz), knows("b", Var(P_A)))
        assert not satisfies(m, "w1", f)
        g = PatternBox(byz, graph("Rab", byz), knows("b", Var(P_A)))
        assert satisfies(m, "w1", g)
        assert not satisfies(m, "w2", g)

    def test_action_modality_guarded_by_precondition(self):
        m = byz_initial_model()
        u = announce(Var(P_A), m.agents)
        from epiupdate.formulas import ActionBox
        f = ActionBox(u, "ann", Neg(Var(P_A)))
        # precondition fails at w2, so the modality holds vacuously
        assert satisfies(m, "w2", f)
        assert not satisfies(m, "w1", f)

    def test_snapshot_refutation_pair(self):
        sq = sq_model()
        isp = immediate_snapshot()
        m1 = pattern_update(sq, isp)
        m2 = pattern_update(m1, isp)
        u, rba = graph("U", isp), graph("Rba", isp)
        f = dual_knows("a", dual_knows("b", Neg(Var(P_A))))
        assert not satisfies(m2, (("11", u), rba), f)

        uis = induced_action_model(isp, [P_A, P_B])
        prod = action_update(m1, uis)
        act = (rba, frozenset({P_A, P_B}))
        assert satisfies(prod, (("11", u), act), f)

    def test_mixed_modalities_evaluate(self):
        # both update mechanisms may appear in one formula
        from epiupdate.workspace import default_workspace
        ws = default_workspace()
        m = ws.models["M"]
        f = ws.parse("[Byz:I] [skip] K b p_a")
        assert not satisfies(m, "w1", f)
        g = ws.parse("[skip] [Byz:{a->b}] K b p_a")
        assert satisfies(m, "w1", g)

    def test_abbreviation_coherence(self):
        rng = random.Random(13)
        for _ in range(15):
            m = random_local_model(rng, max_worlds=5)
            p = random_pattern(rng, m.agents, max_graphs=3)
            f = random_static_formula(rng, model_atoms(m), m.agents, depth=2)
            whole = pattern_box_all(p, f)
            for w in m.worlds:
                expected = all(satisfies(m, w, PatternBox(p, g, f))
                               for g in p.graphs)
                assert satisfies(m, w, whole) == expected


class TestValidity:
    def test_full_group_knowledge_collapses(self):
        rng = random.Random(17)
        for _ in range(20):
            m = random_local_model(rng)
            f = random_static_formula(rng, model_atoms(m), m.agents, depth=2)
            assert valid_on(m, iff(DKnow(frozenset(m.agents), f), f))

    def test_single_agent_does_not_collapse(self):
        m = byz_initial_model()
        assert not valid_on(m, iff(knows("b", Var(P_A)), Var(P_A)))

    def test_single_world_knows_everything_true(self):
        from epiupdate import EpistemicModel
        m = EpistemicModel(["w"], {"a": [["w"]], "b": [["w"]]}, {"w": {P_A}})
        assert valid_on(m, knows("a", Var(P_A)))

    def test_group_monotone(self):
        rng = random.Random(19)
        for _ in range(20):
            m = random_local_model(rng)
            f = random_static_formula(rng, model_atoms(m), m.agents, depth=2)
            agents = list(m.agents)
            for size in range(1, len(agents)):
                for small in combinations(agents, size):
                    fs = DKnow(frozenset(small), f)
                    fb = DKnow(frozenset(agents), f)
                    for w in m.worlds:
                        if satisfies(m, w, fs):
                            assert satisfies(m, w, fb)


class TestErrors:
    def test_unknown_world(self):
        with pytest.raises(UnknownNameError):
            satisfies(sq_model(), "99", Var(P_A))

    def test_empty_model_pointed_query(self):
        m = byz_initial_model()
        u = announce(Var(P_B), m.agents)  # p_b never true here
        empty = action_update(m, u)
        assert empty.is_empty
        with pytest.raises(EmptyModelError):
            satisfies(empty, ("w1", "ann"), Var(P_A))


# -- the labelling evaluator against the pointwise reference --------------------

SEED = 20260808  # the acceptance suite's seed


def assert_agrees(model, formulas):
    """``satisfies`` and ``valid_on`` agree with the pointwise reference at
    every world of the model."""
    steps = {}
    for f in formulas:
        truth = [reference_sat(model, w, f, steps) for w in model.worlds]
        assert [satisfies(model, w, f) for w in model.worlds] == truth
        assert valid_on(model, f) == all(truth)


class TestReferenceOracle:
    def test_acceptance_8_family(self):
        # acceptance 8's draws: pattern-only formulas and their normal forms
        rng = random.Random(SEED + 1)
        for _ in range(200):
            m = random_local_model(rng, max_agents=2, max_atoms_per_agent=2, max_worlds=5)
            pats = [random_pattern(rng, m.agents, max_graphs=3) for _ in range(2)]
            f = random_pattern_formula(rng, model_atoms(m), m.agents, pats,
                                       dyn_depth=3, depth=2)
            assert_agrees(m, [f, iunf_translate(f)])

    def test_acceptance_10_family(self):
        # acceptance 10's draws: full-group and single-agent knowledge
        rng = random.Random(SEED + 3)
        models = [random_local_model(rng) for _ in range(100)]
        formulas = []
        for _ in range(20):
            sample = rng.choice(models)
            formulas.append((sample.agents, random_static_formula(
                rng, model_atoms(sample), sample.agents, depth=2)))
        for m in models:
            fs = [g for agents, f in formulas if agents == m.agents
                  for g in (f, iff(DKnow(frozenset(m.agents), f), f))]
            fs += [iff(knows(a, Var(q)), Var(q)) for a in m.agents for q in model_atoms(m)]
            assert_agrees(m, fs)

    def test_history_rounds_with_abstract_variables(self):
        isp = immediate_snapshot()
        abstract = [Var(view_of(a, seq)) for a in ("a", "b")
                    for n in (1, 2) for seq in product(isp.graphs, repeat=n)]
        assert Var(default_workspace().parse("ab_b").atom) in abstract
        rng = random.Random(SEED + 4)
        h = history_start(sq_model())
        for _ in range(3):
            atoms = model_atoms(h) + [v.atom for v in abstract]
            fs = [random_pattern_formula(rng, atoms, h.agents, [isp], dyn_depth=1, depth=3)
                  for _ in range(15)]
            assert_agrees(h, fs + abstract)
            h = history_update(h, isp)

    def test_composed_action_boxes_and_preconditions(self):
        rng = random.Random(SEED + 5)
        for _ in range(30):
            m = random_interpreted_system(rng, max_agents=2, max_atoms_per_agent=1)
            atoms = model_atoms(m)
            p = random_pattern(rng, m.agents, max_graphs=3)
            g = random_static_formula(rng, atoms, m.agents, depth=2)
            second = (whether_announce if rng.random() < 0.5 else announce)(g, m.agents)
            u = compose(induced_action_model(p, atoms), second)
            # the product keeps exactly the pairs whose precondition holds
            assert action_update(m, u).worlds == tuple(
                (v, e) for v in m.worlds for e in u.actions
                if reference_sat(m, v, u.pre[e]))
            boxes = [ActionBox(u, e, random_static_formula(rng, atoms, m.agents, depth=2))
                     for e in rng.sample(u.actions, min(4, len(u.actions)))]
            assert_agrees(m, boxes + [u.pre[e] for e in u.actions])


class CountingMemo(dict):
    """A memo that counts how often an entry is stored."""

    stores = 0

    def __setitem__(self, key, value):
        self.stores += 1
        super().__setitem__(key, value)


class TestLabelling:
    def test_iff_chain_of_forty_links(self):
        ws = default_workspace()
        text = "p_a"
        for _ in range(40):
            text = f"({text} <-> p_b)"
        f = ws.parse(text)
        sq = sq_model()
        memo = CountingMemo()
        # the asserts name no formula: printing a chain's tree is exponential
        got = extension(sq, f, memo)
        distinct = len(list(subformulas(f)))
        points = satisfies(sq, "10", f), satisfies(sq, "01", f)
        # an even chain of "<-> p_b" is equivalent to p_a
        assert got == extension(sq, Var(P_A))
        assert points == (True, False)
        # one extension per distinct subformula, plus the model's world set
        assert memo.stores == len(memo) == distinct + 1

    def test_knowledge_nested_sixteen_deep(self):
        m = sq_model()
        for _ in range(4):
            m = pattern_update(m, immediate_snapshot())
        f = disj(Var(P_A), Neg(Var(P_A)))
        for i in range(16):
            f = knows("ab"[i % 2], f)
        memo = CountingMemo()
        assert len(extension(m, f, memo)) == len(m.worlds) == 324
        assert memo.stores == len(memo) == len(list(subformulas(f))) + 1
        assert valid_on(m, f)

    def test_products_built_once_per_call(self, monkeypatch):
        from epiupdate import comm
        built = []
        real = comm.pattern_update
        monkeypatch.setattr(comm, "pattern_update",
                            lambda model, p: built.append(p) or real(model, p))
        sq = sq_model()
        isp = immediate_snapshot()
        f = Conj(PatternBox(isp, graph("U", isp), Var(P_A)),
                 PatternBox(isp, graph("Rab", isp), knows("b", Var(P_A))))
        assert not valid_on(sq, f)
        assert built == [isp]
        # nothing is kept on the model between calls
        assert satisfies(sq, "11", f)
        assert built == [isp, isp]
        assert not hasattr(sq, "_products") and not hasattr(sq, "updated")
