import random

import pytest

from epiupdate import (
    ActionModel, EpiupdateError, EpistemicModel, ModelCapError, MultiPointedActionModel,
    Neg, Var,
    action_update, announce, apply_induced, compose,
    full_interpreted_system, induced_action_model, isomorphic,
    model_as_action_model, pattern_update, skip_model,
    whether_announce,
)
from epiupdate.fixtures import (
    byz_initial_model, byz_pattern, immediate_snapshot, sq_model, P_A, P_B, Q_A,
)
from epiupdate.formulas import TRUE

from genlib import random_local_model, random_pattern

AB = ("a", "b")


def graph(name, pattern):
    return next(g for g in pattern.graphs if g.name == name)


class TestInducedModel:
    def test_byz_shape(self):
        byz = byz_pattern()
        u = induced_action_model(byz, [P_A])
        assert len(u.actions) == 4
        i, rab = graph("I", byz), graph("Rab", byz)
        yes, no = frozenset({P_A}), frozenset()
        assert set(u.relations["a"]) == {
            frozenset({(i, yes), (rab, yes)}),
            frozenset({(i, no), (rab, no)}),
        }
        assert set(u.relations["b"]) == {
            frozenset({(i, yes), (i, no)}),
            frozenset({(rab, yes)}),
            frozenset({(rab, no)}),
        }
        assert u.pre[(i, yes)] == Var(P_A)
        assert u.pre[(i, no)] == Neg(Var(P_A))

    def test_empty_atom_set(self):
        from epiupdate.fixtures import identity_pattern
        u = induced_action_model(identity_pattern(), [])
        assert len(u.actions) == 1
        assert u.pre[u.actions[0]] == TRUE

    def test_snapshot_size(self):
        u = induced_action_model(immediate_snapshot(), [P_A, P_B])
        assert len(u.actions) == 3 * 4

    def test_size_law(self):
        rng = random.Random(23)
        for _ in range(10):
            p = random_pattern(rng, AB, max_graphs=4)
            atoms = [P_A, P_B, Q_A][: rng.randint(0, 3)]
            u = induced_action_model(p, atoms)
            assert len(u.actions) == len(p.graphs) * 2 ** len(atoms)

    def test_materialization_guard(self):
        from epiupdate import Atom
        many = [Atom(f"x{i}", "a") for i in range(30)]
        with pytest.raises(ModelCapError) as exc:
            induced_action_model(byz_pattern(), many)
        assert str(exc.value) == ("induced action model would have 2147483648 actions, "
                                  "exceeding the cap of 100000 "
                                  "(raise EPIUPDATE_MAX_WORLDS to override)")

    def test_guard_message_past_printable_ints(self):
        # 3 * 2^15000 has more digits than Python prints, so the count is
        # written as k * 2^e; up to 2^64 it stays a number
        from epiupdate import Atom
        for n, count in ((15000, "3 * 2^15000"), (63, "3 * 2^63"),
                         (62, "13835058055282163712")):
            with pytest.raises(ModelCapError) as exc:
                induced_action_model(immediate_snapshot(), [Atom(f"x{i}", "a") for i in range(n)])
            assert str(exc.value) == (f"induced action model would have {count} actions, "
                                      "exceeding the cap of 100000 "
                                      "(raise EPIUPDATE_MAX_WORLDS to override)")

    def test_under_the_world_cap(self, monkeypatch):
        # the cap the environment sets bounds induced models as it bounds products
        monkeypatch.setenv("EPIUPDATE_MAX_WORLDS", "10")
        with pytest.raises(ModelCapError) as exc:
            induced_action_model(immediate_snapshot(), [P_A, P_B])
        assert str(exc.value) == ("induced action model would have 12 actions, exceeding "
                                  "the cap of 10 (raise EPIUPDATE_MAX_WORLDS to override)")
        assert len(induced_action_model(immediate_snapshot(), [P_A]).actions) == 6


class TestActionUpdate:
    def test_byz_products_isomorphic(self):
        m = byz_initial_model()
        byz = byz_pattern()
        left = pattern_update(m, byz)
        right = action_update(m, induced_action_model(byz, [P_A]))
        assert len(right.worlds) == 4
        assert isomorphic(left, right)

    def test_skip_is_identity(self):
        for m in (sq_model(), byz_initial_model()):
            assert isomorphic(action_update(m, skip_model(m.agents)), m)

    def test_fresh_variable_base_keeps_symmetry(self):
        # both worlds satisfy p_a, so the no-delivery and delivery columns
        # both keep b's uncertainty
        from epiupdate import EpistemicModel
        m2 = EpistemicModel(
            ["w1", "w2"],
            {"a": [["w1"], ["w2"]], "b": [["w1", "w2"]]},
            {"w1": {P_A, Q_A}, "w2": {P_A}})
        u = induced_action_model(byz_pattern(), [P_A])
        out = action_update(m2, u)
        assert len(out.worlds) == 4
        assert sorted(len(b) for b in out.relations["b"]) == [2, 2]

    def test_empty_result_is_legal(self):
        m = byz_initial_model()
        out = action_update(m, announce(Var(P_B), m.agents))
        assert out.is_empty
        assert out.worlds == ()

    def test_whether_announcement(self):
        m = full_interpreted_system([P_A, Q_A], agents=AB)
        out = action_update(m, whether_announce(Var(P_A), AB))
        assert len(out.worlds) == 4
        # b learns p_a but stays unsure about q_a
        assert sorted(len(b) for b in out.relations["b"]) == [2, 2]

    def test_lazy_route_equals_materialized(self):
        rng = random.Random(29)
        for _ in range(10):
            m = random_local_model(rng, max_worlds=5)
            p = random_pattern(rng, m.agents, max_graphs=3)
            atoms = sorted({q for val in m.valuation.values() for q in val}, key=str)
            lazy = apply_induced(m, p, atoms)
            mat = action_update(m, induced_action_model(p, atoms))
            assert set(lazy.worlds) == set(mat.worlds)
            assert lazy.valuation == mat.valuation
            for a in m.agents:
                assert set(lazy.relations[a]) == set(mat.relations[a])


class TestCompose:
    def test_skip_is_left_identity_up_to_product(self):
        m = byz_initial_model()
        v = induced_action_model(byz_pattern(), [P_A])
        composed = compose(skip_model(AB), v)
        assert isomorphic(action_update(m, composed), action_update(m, v))

    def test_byz_twice(self):
        m = byz_initial_model()
        u = induced_action_model(byz_pattern(), [P_A])
        both = action_update(m, compose(u, u))
        stepped = action_update(action_update(m, u), u)
        assert isomorphic(both, stepped)

    def test_snapshot_twice_on_square(self):
        sq = sq_model()
        u = induced_action_model(immediate_snapshot(), [P_A, P_B])
        both = action_update(sq, compose(u, u))
        stepped = action_update(action_update(sq, u), u)
        assert isomorphic(both, stepped)

    def test_law_on_random_models(self):
        rng = random.Random(31)
        for _ in range(10):
            m = random_local_model(rng, max_agents=2, max_worlds=4)
            u = whether_announce(Var(rng.choice([P_A, P_B])), m.agents) \
                if len(m.agents) == 2 else skip_model(m.agents)
            v = announce(Neg(Var(P_A)), m.agents)
            assert isomorphic(action_update(m, compose(u, v)),
                              action_update(action_update(m, u), v))

    def test_composition_under_the_world_cap(self, monkeypatch):
        monkeypatch.setenv("EPIUPDATE_MAX_WORLDS", "3")
        u = whether_announce(Var(P_A), AB)
        with pytest.raises(ModelCapError) as exc:
            compose(u, u)
        assert str(exc.value) == ("composition would have 4 actions, exceeding the cap "
                                  "of 3 (raise EPIUPDATE_MAX_WORLDS to override)")
        assert len(compose(u, skip_model(AB)).actions) == 2


class TestModelAsActionModel:
    def test_square_replays_itself(self):
        sq = sq_model()
        u = model_as_action_model(sq, [P_A, P_B])
        assert isomorphic(action_update(sq, u), sq)

    def test_snapshot_product_replay(self):
        sq = sq_model()
        m1 = pattern_update(sq, immediate_snapshot())
        u = model_as_action_model(m1, [P_A, P_B])
        assert isomorphic(action_update(sq, u), m1)

    def test_actions_are_named_by_world_name(self):
        from epiupdate.models import world_name
        from epiupdate.workspace import action_model_to_json
        isp = immediate_snapshot()
        once = pattern_update(sq_model(), isp)
        for m in (once, pattern_update(once, isp)):
            u = model_as_action_model(m, [P_A, P_B])
            names = [world_name(w) for w in m.worlds]
            assert list(u.actions) == names
            assert len(set(names)) == len(names)
            ids = [a["id"] for a in action_model_to_json(u)["actions"]]
            assert ids == names
        assert "00.Rab" in [a["id"] for a in
                            action_model_to_json(model_as_action_model(once, [P_A]))["actions"]]

    def test_worlds_sharing_a_name_are_rejected(self):
        m = EpistemicModel(["x.y", ("x", "y")], {"a": [["x.y"], [("x", "y")]],
                                                 "b": [["x.y", ("x", "y")]]}, {})
        with pytest.raises(EpiupdateError, match="share a name"):
            model_as_action_model(m, [P_A])


class TestValidation:
    def test_dynamic_preconditions_rejected_when_authored(self):
        from epiupdate.formulas import ActionBox
        sk = skip_model(AB)
        dyn = ActionBox(sk, "skip", Var(P_A))
        with pytest.raises(ValueError, match="dynamic"):
            ActionModel(["e"], {"a": [["e"]], "b": [["e"]]}, {"e": dyn})

    @pytest.mark.parametrize("actions, blocks, message", [
        (["e"], [["e", "zz"]], "relation of agent a names unknown action 'zz'"),
        (["e"], [["e"], []], "empty block in relation of agent a"),
        (["e"], [[], ["e"]], "empty block in relation of agent a"),
        (["e", "f"], [["e", "f"], ["f"]], "overlapping blocks in relation of agent a"),
        (["e", "f"], [["e"]], "relation of agent a does not cover all actions"),
    ])
    def test_partition_contract(self, actions, blocks, message):
        with pytest.raises(ValueError) as exc:
            ActionModel(actions, {"a": blocks, "b": [actions]},
                        {e: TRUE for e in actions})
        assert str(exc.value) == message

    def test_multipoint_validation(self):
        sk = skip_model(AB)
        with pytest.raises(ValueError):
            MultiPointedActionModel(sk, frozenset())
        with pytest.raises(ValueError):
            MultiPointedActionModel(sk, frozenset({"nope"}))

    def test_agent_set_mismatch(self):
        with pytest.raises(ValueError):
            action_update(sq_model(), skip_model(("a", "b", "c")))
