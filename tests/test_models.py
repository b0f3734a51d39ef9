import random
from itertools import combinations

import pytest

from epiupdate import (
    ActionModel, Atom, DKnow, EpistemicModel, LocalityError, ModelCapError, Neg,
    PointedModel, UnknownNameError, Var, action_update, apply_induced,
    check_circular_chain, compose, disj, full_interpreted_system, group_relation,
    history_start, history_update, induced_action_model, induced_chain,
    is_interpreted_system, is_local, minimize, model_as_action_model,
    models_bisimilar, pattern_update, skip_model, valid_on, whether_announce,
    world_name,
)
from epiupdate.fixtures import (
    byz_initial_model, byz_pattern, immediate_snapshot, sq_model, P_A, P_B, Q_A,
)
from epiupdate.formulas import TRUE

from genlib import (
    model_atoms, random_interpreted_system, random_local_model, random_pattern,
    reference_is_interpreted_system,
)

R_B = Atom("r", "b")


def blocks_of(model, agent):
    return set(model.relations[agent])


class TestFullInterpretedSystem:
    def test_square(self):
        sq = sq_model()
        assert set(sq.worlds) == {"00", "01", "10", "11"}
        assert is_interpreted_system(sq)
        assert blocks_of(sq, "a") == {frozenset({"00", "01"}), frozenset({"10", "11"})}
        assert blocks_of(sq, "b") == {frozenset({"00", "10"}), frozenset({"01", "11"})}
        assert sq.valuation["10"] == frozenset({P_A})

    def test_empty_atom_set(self):
        m = full_interpreted_system([], agents=("a", "b"))
        assert len(m.worlds) == 1
        assert blocks_of(m, "a") == {frozenset(m.worlds)}
        assert blocks_of(m, "b") == {frozenset(m.worlds)}

    def test_no_agents_rejected(self):
        with pytest.raises(ValueError):
            full_interpreted_system([])

    def test_owner_projection_grouping(self):
        # oracle: enumerate the 8 subsets and group by each owner's projection
        atoms = [P_A, Q_A, R_B]
        m = full_interpreted_system(atoms)
        assert len(m.worlds) == 8

        def oracle_blocks(agent):
            groups = {}
            for w in m.worlds:
                proj = frozenset(p for p in m.valuation[w] if p.owner == agent)
                groups.setdefault(proj, set()).add(w)
            return {frozenset(g) for g in groups.values()}

        assert blocks_of(m, "a") == oracle_blocks("a")
        assert blocks_of(m, "b") == oracle_blocks("b")
        assert sorted(len(b) for b in m.relations["a"]) == [2, 2, 2, 2]
        assert sorted(len(b) for b in m.relations["b"]) == [4, 4]

    def test_counts_and_system_property(self):
        rng = random.Random(7)
        for _ in range(20):
            atoms = [Atom(f"x{i}", rng.choice("ab")) for i in range(rng.randint(0, 4))]
            m = full_interpreted_system(atoms, agents=("a", "b"))
            assert len(m.worlds) == 2 ** len(set(atoms))
            assert is_interpreted_system(m)


class TestLocality:
    def test_constructed_models_are_local(self):
        assert is_local(sq_model())
        assert is_local(byz_initial_model())

    def test_violation_detected(self):
        uv = [0, 0]  # one block holding u and v
        m = EpistemicModel._trusted(("u", "v"), {"a": uv, "b": uv},
                                    (frozenset({P_A}), frozenset()), ("a", "b"))
        assert not is_local(m)

    def test_is_local_agrees_with_construction(self):
        # coarsen seeded local models by merging two blocks of one agent;
        # is_local must be False exactly when the checked constructor refuses
        rng = random.Random(20261018)
        refused = 0
        for _ in range(120):
            m = random_local_model(rng)
            relations = {a: list(m.relations[a]) for a in m.agents}
            a = rng.choice(m.agents)
            if len(relations[a]) > 1:
                i, j = sorted(rng.sample(range(len(relations[a])), 2))
                relations[a][i] |= relations[a].pop(j)
            labels = {b: [i for w in m.worlds for i, blk in enumerate(relations[b]) if w in blk]
                      for b in m.agents}
            unchecked = EpistemicModel._trusted(m.worlds, labels, m.vals, m.agents)
            try:
                EpistemicModel(m.worlds, relations, m.valuation, agents=m.agents)
            except LocalityError:
                refused += 1
                assert not is_local(unchecked)
            else:
                assert is_local(unchecked)
        assert 0 < refused < 120

    def test_construction_rejects_with_diagnostic(self):
        with pytest.raises(LocalityError, match="agent a"):
            EpistemicModel(
                ["u", "v"], {"a": [["u", "v"]], "b": [["u"], ["v"]]},
                {"u": {P_A}, "v": set()})

    def test_diagnostic_names_the_first_bad_block(self):
        # two blocks of a break locality: the message names the block of
        # the first world, its first world and the first one unlike it
        worlds = ["u", "v", "w", "x", "y"]
        with pytest.raises(LocalityError) as exc:
            EpistemicModel(worlds, {"a": [["x", "y"], ["u", "v", "w"]], "b": [worlds]},
                           {"w": {P_A}, "x": {P_A}})
        assert str(exc.value) == ("worlds u and w are indistinguishable for agent a "
                                  "but disagree on a-owned atoms")


class TestInterpretedSystem:
    def test_square_is_one(self):
        assert is_interpreted_system(sq_model())

    def test_byz_update_is_not_one(self):
        m = pattern_update(byz_initial_model(), byz_pattern())
        # oracle: b owns no atom, so grouping by b-local valuation is one
        # block, but b's partition has three
        b_blocks = m.relations["b"]
        assert len(b_blocks) == 3
        locals_seen = {frozenset(p for p in m.valuation[w] if p.owner == "b")
                       for w in m.worlds}
        assert locals_seen == {frozenset()}
        assert not is_interpreted_system(m)

    def test_single_world(self):
        m = EpistemicModel(["w"], {"a": [["w"]], "b": [["w"]]}, {"w": {P_A}})
        assert is_interpreted_system(m)

    @staticmethod
    def split_one_block(rng, m):
        """The model with one block of two or more worlds cut in two (it
        stays local), or the model itself when it has no such block."""
        cuttable = [(a, blk) for a in m.agents for blk in m.relations[a] if len(blk) > 1]
        if not cuttable:
            return m
        a, blk = rng.choice(cuttable)
        members = sorted(blk)
        cut = rng.randint(1, len(members) - 1)
        relations = {b: list(m.relations[b]) for b in m.agents}
        relations[a].remove(blk)
        relations[a] += [members[:cut], members[cut:]]
        return EpistemicModel(m.worlds, relations, m.valuation, agents=m.agents)

    def test_agrees_with_grouping_by_owner(self):
        # seeded models, each also with one block split and after two
        # history rounds, against the pairwise oracle
        rng = random.Random(20261020)
        verdicts = []
        for i in range(60):
            m = random_interpreted_system(rng) if i % 2 else random_local_model(rng)
            p = random_pattern(rng, m.agents, max_graphs=3)
            h = history_update(history_update(history_start(m), p), p)
            for model in [m, self.split_one_block(rng, m), h]:
                verdicts.append(is_interpreted_system(model))
                assert verdicts[-1] == reference_is_interpreted_system(model)
        assert 30 <= sum(verdicts) <= len(verdicts) - 30

    def test_merged_labels_are_rejected_whatever_the_columns(self):
        # the grouping read off the view columns is still compared with the
        # labels: merging a's blocks, columns kept, makes no interpreted system
        from epiupdate.history import HistoryModel
        h = history_update(history_update(history_start(sq_model()), immediate_snapshot()),
                           immediate_snapshot())
        labels = {**h.labels, "a": [0] * len(h.worlds)}
        merged = HistoryModel._trusted(h.worlds, labels, h.vals, h.agents, h.columns)
        assert is_interpreted_system(h) and merged.columns is h.columns
        assert not is_interpreted_system(merged)
        assert not reference_is_interpreted_system(merged)
        assert not models_bisimilar(merged, h)

    def test_quotients_keep_their_representatives_columns(self):
        # each quotient world is named by its first representative and keeps
        # that world's column entries; the verdict is read off them
        rng = random.Random(2311)
        verdicts = []
        for i in range(8):
            m = random_interpreted_system(rng) if i % 2 else random_local_model(rng)
            p = random_pattern(rng, m.agents, max_graphs=3)
            chain = induced_chain(m, [p, p], model_atoms(m))
            q = minimize(chain)
            reps = [chain.worlds.index(w) for w in q.worlds]
            assert q.columns == {a: tuple(column[i] for i in reps)
                                 for a, column in chain.columns.items()}
            verdicts.append(is_interpreted_system(q))
            assert verdicts[-1] == reference_is_interpreted_system(q)
        assert 0 < sum(verdicts) < len(verdicts)


class TestPositionalCore:
    def test_views_keyed_by_world_id_are_built_on_demand(self):
        # a product that is only read by position builds none of them
        m = pattern_update(sq_model(), immediate_snapshot())
        assert not is_interpreted_system(m)
        assert check_circular_chain(m)
        assert models_bisimilar(m, minimize(m))
        assert valid_on(m, DKnow(frozenset("a"), disj(Var(P_A), Neg(Var(P_A)))))
        assert not valid_on(m, DKnow(frozenset("ab"), Var(P_B)))
        for view in ("_index", "relations", "valuation"):
            assert view not in m.__dict__
        assert m.valuation[("11", m.worlds[-1][1])] == frozenset({P_A, P_B})
        assert "valuation" in m.__dict__


class TestGroupRelation:
    def intersection_oracle(self, model, group):
        # brute force: worlds related iff they share a block for every member
        pairs = {
            (u, v)
            for u in model.worlds for v in model.worlds
            if all(model.block_of(a, u) == model.block_of(a, v) for a in group)
        }
        blocks = []
        seen = set()
        for w in model.worlds:
            if w in seen:
                continue
            cell = frozenset(v for v in model.worlds if (w, v) in pairs)
            blocks.append(cell)
            seen |= cell
        return set(blocks)

    def test_square_full_group_is_identity(self):
        sq = sq_model()
        got = set(group_relation(sq, {"a", "b"}))
        assert got == self.intersection_oracle(sq, {"a", "b"})
        assert got == {frozenset({w}) for w in sq.worlds}

    def test_singleton_group_is_the_agent_partition(self):
        sq = sq_model()
        assert group_relation(sq, {"a"}) == sq.relations["a"]

    def test_byz_update_full_group(self):
        m = pattern_update(byz_initial_model(), byz_pattern())
        got = set(group_relation(m, {"a", "b"}))
        assert got == self.intersection_oracle(m, {"a", "b"})
        assert len(got) == 4

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            group_relation(sq_model(), set())

    def test_unknown_agent_rejected(self):
        with pytest.raises(UnknownNameError):
            group_relation(sq_model(), {"z"})

    def test_union_group_refines_parts(self):
        rng = random.Random(11)
        for _ in range(20):
            m = random_local_model(rng)
            agents = list(m.agents)
            for size in range(1, len(agents)):
                for part in combinations(agents, size):
                    whole = group_relation(m, agents)
                    coarse = group_relation(m, part)
                    coarse_ix = {w: i for i, blk in enumerate(coarse) for w in blk}
                    for blk in whole:
                        assert len({coarse_ix[w] for w in blk}) == 1


class TestModelBasics:
    def test_duplicate_worlds_rejected(self):
        with pytest.raises(ValueError):
            EpistemicModel(["w", "w"], {"a": [["w"]]}, {})

    def test_duplicate_agents_rejected(self):
        with pytest.raises(ValueError) as exc:
            EpistemicModel(["w"], {"a": [["w"]]}, {}, agents=["a", "a"])
        assert str(exc.value) == "duplicate agent 'a'"

    def test_blocks_are_numbered_by_first_world(self):
        # blocks given in any order come out in order of their first world,
        # so label lists of equal partitions are equal
        sq = sq_model()
        m = EpistemicModel(sq.worlds, {a: reversed(sq.relations[a]) for a in sq.agents},
                           sq.valuation)
        assert m.labels == {"a": [0, 0, 1, 1], "b": [0, 1, 0, 1]}
        assert m.relations == sq.relations
        assert is_interpreted_system(m)

    def test_relations_must_partition(self):
        with pytest.raises(ValueError):
            EpistemicModel(["u", "v"], {"a": [["u"]]}, {})
        with pytest.raises(ValueError):
            EpistemicModel(["u", "v"], {"a": [["u", "v"], ["v"]]}, {})
        # each fault names the agent, and is found before the blocks are sorted
        for worlds, blocks, message in [
            (["w"], [["w", "zz"]], "relation of agent a names unknown world 'zz'"),
            (["w"], [["w"], []], "empty block in relation of agent a"),
            (["w"], [[], ["w"]], "empty block in relation of agent a"),
            (["u", "v"], [["u", "v"], ["v"]], "overlapping blocks in relation of agent a"),
            (["u", "v"], [["u"]], "relation of agent a does not cover all worlds"),
        ]:
            with pytest.raises(ValueError) as exc:
                EpistemicModel(worlds, {"a": blocks, "b": [worlds]}, {})
            assert str(exc.value) == message

    def test_unknown_atom_owner_rejected(self):
        with pytest.raises(UnknownNameError):
            EpistemicModel(["w"], {"a": [["w"]]}, {"w": {Atom("p", "z")}})

    def test_world_cap(self, monkeypatch):
        monkeypatch.setenv("EPIUPDATE_MAX_WORLDS", "10")
        with pytest.raises(ModelCapError):
            full_interpreted_system([P_A, P_B, Q_A, R_B])

    def test_pointed_model_validates_point(self):
        sq = sq_model()
        PointedModel(sq, "11")
        with pytest.raises(UnknownNameError):
            PointedModel(sq, "99")

    def test_world_names_dotted(self):
        m = pattern_update(byz_initial_model(), byz_pattern())
        names = {world_name(w) for w in m.worlds}
        assert names == {"w1.I", "w1.Rab", "w2.I", "w2.Rab"}
        assert m.world_named("w1.Rab") in m.worlds
        with pytest.raises(UnknownNameError):
            m.world_named("nope")


class TestTrustedProducts:
    """Builders skip validation; the validating constructors must accept
    their output and rebuild it unchanged (partition, block order, atom
    owners, locality)."""

    def assert_rebuilds(self, m):
        again = EpistemicModel(m.worlds, m.relations, m.valuation, agents=m.agents)
        assert again.worlds == m.worlds
        assert list(again.relations.items()) == list(m.relations.items())
        assert again.labels == m.labels
        assert list(again.valuation.items()) == list(m.valuation.items())

    def assert_actions_rebuild(self, u, pre=None):
        pre = u.pre if pre is None else pre
        again = ActionModel(u.actions, u.relations, pre, agents=u.agents)
        assert again.actions == u.actions
        assert list(again.relations.items()) == list(u.relations.items())

    def test_products_pass_validation(self):
        rng = random.Random(20261019)
        for i in range(40):
            m = random_local_model(rng) if i % 2 else random_interpreted_system(rng)
            p = random_pattern(rng, m.agents, max_graphs=4)
            atoms = model_atoms(m)
            u = induced_action_model(p, atoms[:3])
            v = whether_announce(Var(atoms[0]), m.agents) if atoms else skip_model(m.agents)
            once = pattern_update(m, p)
            h = history_update(history_update(history_start(m), p), p)
            for product in [once, minimize(once), minimize(m), h.model,
                            apply_induced(m, p, atoms), action_update(m, u),
                            induced_chain(m, [p], atoms), induced_chain(m, [p, p], atoms),
                            full_interpreted_system(atoms, agents=m.agents),
                            action_update(m, compose(u, v))]:
                self.assert_rebuilds(product)
            for um in [u, model_as_action_model(once, atoms)]:
                self.assert_actions_rebuild(um)
            # composed preconditions are dynamic, which user input may not be
            c = compose(u, v)
            self.assert_actions_rebuild(c, pre=dict.fromkeys(c.actions, TRUE))
