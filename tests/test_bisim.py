import random
from itertools import combinations

import pytest

from epiupdate import (
    Atom, EpiupdateError, EpistemicModel, Neg, Var, action_update, bisimilar,
    full_interpreted_system, group_relation, history_power, induced_action_model,
    induced_chain, is_interpreted_system, isomorphic, knows,
    max_collective_bisimulation, minimize, models_bisimilar, n_bisimilar,
    pattern_update, satisfies, DKnow,
)
from epiupdate import bisim
from epiupdate.bisim import _depth_one_key, _refine
from epiupdate.fixtures import (
    byz_initial_model, byz_pattern, immediate_snapshot, sq_model, P_A, P_B,
)

from genlib import (
    brute_isomorphic, interpreted_on, model_atoms, random_interpreted_system,
    random_local_model, random_pattern, random_static_formula, reference_refine,
    same_partition,
)


P_C = Atom("p", "c")


def graph(name, pattern):
    return next(g for g in pattern.graphs if g.name == name)


def renamed_copy(model, prefix):
    rename = {w: (prefix, w) for w in model.worlds}
    return EpistemicModel(
        [rename[w] for w in model.worlds],
        {a: [[rename[w] for w in blk] for blk in model.relations[a]]
         for a in model.agents},
        {rename[w]: model.valuation[w] for w in model.worlds},
        agents=model.agents)


def images_meet_wider():
    """Three agents, p_c true at v1 and v3.  w1 ~ w2 and v1 ~ v3, and the
    blocks of a and of b each join the two classes, but no block of
    {a, b} does: the meet of the images is wider than the images of the meet.
    """
    return EpistemicModel(
        ["w1", "w2", "v1", "v3"],
        {"a": [["w1", "v1"], ["w2", "v3"]],
         "b": [["w1", "v3"], ["w2", "v1"]],
         "c": [["w1", "w2"], ["v1", "v3"]]},
        {"v1": {P_C}, "v3": {P_C}}, agents=("a", "b", "c"))


def check_collective_bisimulation(relation, left, right):
    """Oracle: verify atoms/forth/back for every nonempty agent group."""
    assert relation, "empty relation is not a useful witness"
    agents = left.agents
    for w, v in relation:
        assert left.valuation[w] == right.valuation[v], "atoms clause failed"
        for size in range(1, len(agents) + 1):
            for group in combinations(agents, size):
                lblocks = group_relation(left, group)
                rblocks = group_relation(right, group)
                lblk = next(b for b in lblocks if w in b)
                rblk = next(b for b in rblocks if v in b)
                for w2 in lblk:
                    assert any((w2, v2) in relation for v2 in rblk), "forth failed"
                for v2 in rblk:
                    assert any((w2, v2) in relation for w2 in lblk), "back failed"


class TestMaxBisimulation:
    def test_square_is_rigid(self):
        sq = sq_model()
        assert max_collective_bisimulation(sq) == tuple(
            frozenset({w}) for w in sq.worlds)

    def test_disjoint_union_of_copies_pairs_up(self):
        m = byz_initial_model()
        c = renamed_copy(m, "c")
        union = EpistemicModel(
            list(m.worlds) + list(c.worlds),
            {a: list(m.relations[a]) + list(c.relations[a]) for a in m.agents},
            {**m.valuation, **c.valuation}, agents=m.agents)
        blocks = max_collective_bisimulation(union)
        assert set(blocks) == {frozenset({w, ("c", w)}) for w in m.worlds}

    def test_double_snapshot_is_minimal(self):
        sq = sq_model()
        isp = immediate_snapshot()
        m2 = pattern_update(pattern_update(sq, isp), isp)
        assert len(max_collective_bisimulation(m2)) == 36


class TestBisimilar:
    def test_reflexive(self):
        sq = sq_model()
        assert bisimilar(sq, "11", sq, "11")

    def test_snapshot_vs_induced_pointwise(self):
        sq = sq_model()
        isp = immediate_snapshot()
        m1 = pattern_update(sq, isp)
        prod = action_update(sq, induced_action_model(isp, [P_A, P_B]))
        for (w, g) in m1.worlds:
            image = (w, (g, sq.valuation[w]))
            assert bisimilar(m1, (w, g), prod, image)
        assert models_bisimilar(m1, prod)

    def test_second_round_differs(self):
        sq = sq_model()
        isp = immediate_snapshot()
        m1 = pattern_update(sq, isp)
        m2 = pattern_update(m1, isp)
        prod = action_update(m1, induced_action_model(isp, [P_A, P_B]))
        assert not models_bisimilar(m2, prod)

    def test_witness_is_a_bisimulation(self):
        m = byz_initial_model()
        byz = byz_pattern()
        left = pattern_update(m, byz)
        right = action_update(m, induced_action_model(byz, [P_A]))
        i = graph("I", byz)
        res = bisimilar(left, ("w1", i), right,
                        ("w1", (i, frozenset({P_A}))), want_witness=True)
        assert res.related
        check_collective_bisimulation(res.witness, left, right)

    def test_distinguishing_bound_reported(self):
        sq = sq_model()
        res = bisimilar(sq, "11", sq, "10")
        assert not res.related
        assert res.distinguishing_bound == 0  # valuations already differ


class TestBoundedBisimilarity:
    def test_depth_zero_is_valuation_equality(self):
        sq = sq_model()
        isp = immediate_snapshot()
        m1 = pattern_update(sq, isp)
        u, rba = graph("U", isp), graph("Rba", isp)
        assert n_bisimilar(m1, ("11", rba), m1, ("11", u), 0)
        assert not n_bisimilar(m1, ("11", rba), m1, ("10", u), 0)

    def test_first_round_neighbours_split_at_depth_one(self):
        # after one snapshot round, (11,Rba) and (11,U) satisfy the same
        # booleans but a depth-one formula tells them apart
        sq = sq_model()
        isp = immediate_snapshot()
        m1 = pattern_update(sq, isp)
        u, rba = graph("U", isp), graph("Rba", isp)
        f = knows("b", Var(P_A))
        assert satisfies(m1, ("11", u), f)
        assert not satisfies(m1, ("11", rba), f)
        assert not n_bisimilar(m1, ("11", rba), m1, ("11", u), 1)

    def test_second_round_neighbours_agree_at_depth_one(self):
        sq = sq_model()
        isp = immediate_snapshot()
        m2 = pattern_update(pattern_update(sq, isp), isp)
        u, rba = graph("U", isp), graph("Rba", isp)
        left = (("11", u), rba)
        mid = (("11", u), u)
        assert n_bisimilar(m2, left, m2, mid, 1)
        res = bisimilar(m2, left, m2, mid)
        assert not res.related
        assert res.distinguishing_bound is not None
        assert res.distinguishing_bound >= 2
        assert not n_bisimilar(m2, left, m2, mid, res.distinguishing_bound)

    def test_large_bound_agrees_with_unbounded(self):
        sq = sq_model()
        isp = immediate_snapshot()
        m1 = pattern_update(sq, isp)
        u, rba = graph("U", isp), graph("Rba", isp)
        assert not bisimilar(m1, ("11", rba), m1, ("11", u))
        assert not n_bisimilar(m1, ("11", rba), m1, ("11", u), 50)
        copy = renamed_copy(m1, "c")
        for w in m1.worlds:
            assert n_bisimilar(m1, w, copy, ("c", w), 50)
            assert bisimilar(m1, w, copy, ("c", w))

    def test_antitone_in_bound(self):
        rng = random.Random(37)
        for _ in range(15):
            m = random_local_model(rng, max_worlds=6)
            n = random_local_model(rng, max_worlds=6)
            if m.agents != n.agents:
                continue
            w, v = rng.choice(m.worlds), rng.choice(n.worlds)
            results = [n_bisimilar(m, w, n, v, k) for k in range(4)]
            for earlier, later in zip(results, results[1:]):
                if later:
                    assert earlier

    def test_bounded_agreement_on_shallow_formulas(self):
        rng = random.Random(41)
        checked = 0
        while checked < 40:
            m = random_local_model(rng, max_worlds=6)
            n = random_local_model(rng, max_worlds=6)
            if m.agents != n.agents:
                continue
            w, v = rng.choice(m.worlds), rng.choice(n.worlds)
            atoms = sorted(set(model_atoms(m)) | set(model_atoms(n)), key=str)
            for depth in range(3):
                if n_bisimilar(m, w, n, v, depth):
                    f = random_static_formula(rng, atoms, m.agents, depth=depth)
                    assert satisfies(m, w, f) == satisfies(n, v, f)
                    checked += 1


class TestExactDepth:
    def least_failing_depth(self, m, w, n, v):
        """Oracle: the first bound at which bounded bisimilarity fails, if any.

        Refinement of the union is stable after at most as many rounds as
        it has worlds, so a pair still related there is bisimilar.
        """
        for k in range(len(m.worlds) + len(n.worlds) + 1):
            if not n_bisimilar(m, w, n, v, k):
                return k
        return None

    def test_bound_is_least_failing_depth(self):
        rng = random.Random(53)
        depths = []
        while len(depths) < 80:
            m = random_local_model(rng, max_worlds=6)
            if rng.random() < 0.5:
                m = pattern_update(m, random_pattern(rng, m.agents, max_graphs=3))
            n = m if rng.random() < 0.5 else random_local_model(rng, max_worlds=6)
            if m.agents != n.agents:
                continue
            # prefer pairs that agree on atoms, so deeper splits show up
            w = rng.choice(m.worlds)
            same = [v for v in n.worlds
                    if n.valuation[v] == m.valuation[w] and (n, v) != (m, w)]
            v = rng.choice(same or n.worlds)
            res = bisimilar(m, w, n, v)
            depth = self.least_failing_depth(m, w, n, v)
            assert res.distinguishing_bound == depth
            assert res.related == (depth is None)
            depths.append(depth)
        assert None in depths and 0 in depths
        assert any(d is not None and d >= 2 for d in depths)

    def test_deep_split_on_snapshot_chain(self):
        m = sq_model()
        isp = immediate_snapshot()
        for _ in range(5):
            m = pattern_update(m, isp)
        assert len(m.worlds) == 972
        w, v = m.world_named("00.U.U.U.U.Rab"), m.world_named("00.U.U.U.U.Rba")
        res = bisimilar(m, w, m, v)
        assert not res.related
        assert res.distinguishing_bound == 121
        assert n_bisimilar(m, w, m, v, 120)
        assert not n_bisimilar(m, w, m, v, 121)


class TestDepthOneKey:
    def test_agrees_with_one_round_of_refinement(self):
        rng = random.Random(61)
        seen = {2: set(), 3: set()}
        for _ in range(150):
            m = random_local_model(rng, max_worlds=6)
            if rng.random() < 0.5:
                m = pattern_update(m, random_pattern(rng, m.agents, max_graphs=3))
            n = m if rng.random() < 0.3 else random_local_model(rng, max_worlds=6)
            if m.agents != n.agents:
                continue
            for w in m.worlds:
                for v in n.worlds:
                    same = _depth_one_key(m, w) == _depth_one_key(n, v)
                    assert same == n_bisimilar(m, w, n, v, 1)
                    seen[len(m.agents)].add(same)
        assert seen == {2: {True, False}, 3: {True, False}}

    def test_key_reads_group_classes(self):
        # at w1 the blocks of a and of b each hold a p_c-world; their meet does not
        m = images_meet_wider()
        val, of_a, of_b, of_c, of_ab, *_ = _depth_one_key(m, "w1")
        assert val == frozenset()
        assert of_a == of_b == {frozenset(), frozenset({P_C})}
        assert of_c == of_ab == {frozenset()}


def discrete_copy(model):
    """The model with every agent's relation made the identity."""
    return EpistemicModel(model.worlds, {a: [[w] for w in model.worlds] for a in model.agents},
                          model.valuation, agents=model.agents)


class TestRefineOracle:
    """The worklist engine against full signature rounds (``reference_refine``)."""

    def assert_agrees(self, models, pairs, every_bound=True, counting=False):
        """Check the engine against the reference; return the pairs' depths."""
        depths = []
        labels, split = _refine(models, counting=counting)
        ref_labels, ref_split = reference_refine(models, counting=counting)
        assert split is ref_split is None
        assert same_partition(labels, ref_labels)
        for k, l in pairs:
            _, depth = _refine(models, watch=(k, l), counting=counting)
            assert depth == reference_refine(models, watch=(k, l), counting=counting)[1]
            assert (depth is None) == (labels[k] == labels[l])
            depths.append(depth)
            if every_bound:
                bounds = range(len(labels) + 1)
            else:
                bounds = (0, depth - 1, depth) if depth else (0,)
            for bound in bounds:
                got, _ = _refine(models, max_rounds=bound, counting=counting)
                want, _ = reference_refine(models, max_rounds=bound, counting=counting)
                assert same_partition(got, want), bound
                # the n_bisimilar verdict at this bound
                assert (got[k] == got[l]) == (want[k] == want[l])
                if depth is not None:
                    assert (got[k] == got[l]) == (bound < depth)
        return depths

    def random_models(self, rng, n_agents):
        m = random_local_model(rng, max_agents=n_agents, max_worlds=6)
        while len(m.agents) != n_agents:
            m = random_local_model(rng, max_agents=n_agents, max_worlds=6)
        if rng.random() < 0.5:
            m = pattern_update(m, random_pattern(rng, m.agents, max_graphs=3))
        pick = rng.random()
        if pick < 0.25:
            return [m]
        if pick < 0.4:
            return [discrete_copy(m)]
        other = m if pick < 0.6 else random_local_model(rng, max_agents=n_agents, max_worlds=6)
        if other.agents != m.agents:
            return [m]
        return [m, other]

    def test_random_unions_with_two_and_three_agents(self):
        # the same unions in set mode (bisimulation) and counting mode
        # (isomorphism colours)
        for counting in (False, True):
            rng = random.Random(59)
            depths = []
            for i in range(120):
                models = self.random_models(rng, 2 + i % 2)
                n = sum(len(m.worlds) for m in models)
                pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]
                depths.extend(self.assert_agrees(models, pairs, counting=counting))
            assert None in depths and 0 in depths
            assert any(d is not None and d >= 2 for d in depths)

    def test_counting_separates_block_sizes(self):
        # equal valuations; agent a has blocks of sizes 3+1 in one model and
        # 2+2 in the other: every block meets the one valuation class, but
        # not equally often
        def model(a_blocks):
            return EpistemicModel(["1", "2", "3", "4"],
                                  {"a": a_blocks, "b": [["1", "2", "3", "4"]]}, {})
        models = [model([["1", "2", "3"], ["4"]]), model([["1", "2"], ["3", "4"]])]
        sets, _ = _refine(models)
        counts, _ = _refine(models, counting=True)
        assert len(set(sets)) == 1
        assert len(set(counts)) > 1
        for counting, labels in ((False, sets), (True, counts)):
            assert same_partition(labels, reference_refine(models, counting=counting)[0])
        self.assert_agrees(models, [(0, 4), (0, 3), (4, 5)], counting=True)
        assert models_bisimilar(*models) and not isomorphic(*models)

    def test_all_identity_relations(self):
        rng = random.Random(61)
        for _ in range(10):
            m = discrete_copy(random_local_model(rng, max_worlds=5))
            n = len(m.worlds)
            self.assert_agrees([m, m], [(k, n + k) for k in range(n)] + [(0, n - 1)])

    def test_ladder_rung_against_induced_step(self):
        sq, isp = sq_model(), immediate_snapshot()
        u = induced_action_model(isp, [P_A, P_B])
        prev = sq
        for k in range(1, 5):
            rung = pattern_update(prev, isp)
            stepped = action_update(prev, u)
            n = len(rung.worlds)
            pairs = [(i, n + i) for i in range(0, n, max(1, n // 6))]
            self.assert_agrees([rung, stepped], pairs, every_bound=False)
            prev = rung


class TestCollectiveVsPlain:
    def plain_bisimilar(self, left, w, right, v):
        """Oracle: refinement over singleton groups only."""
        nodes = [(0, x) for x in left.worlds] + [(1, x) for x in right.worlds]
        models = (left, right)
        labels = {}
        vals = {}
        for i, x in nodes:
            labels[(i, x)] = vals.setdefault(models[i].valuation[x], len(vals))
        while True:
            sig = {}
            for i, x in nodes:
                parts = [labels[(i, x)]]
                for a in left.agents:
                    blk = models[i].block_of(a, x)
                    parts.append(frozenset(labels[(i, y)] for y in blk))
                sig[(i, x)] = tuple(parts)
            ids = {}
            new = {k: ids.setdefault(s, len(ids)) for k, s in sig.items()}
            if new == labels:
                break
            labels = new
        return labels[(0, w)] == labels[(1, v)]

    def test_collective_is_strictly_finer(self):
        p_c = Atom("p", "c")
        agents = ("a", "b", "c")
        one = EpistemicModel(
            ["u", "v"],
            {"a": [["u", "v"]], "b": [["u", "v"]], "c": [["u"], ["v"]]},
            {"u": {p_c}, "v": set()}, agents=agents)
        two = EpistemicModel(
            ["u1", "v1", "u2", "v2"],
            {"a": [["u1", "v1"], ["u2", "v2"]],
             "b": [["u1", "v2"], ["u2", "v1"]],
             "c": [["u1", "u2"], ["v1", "v2"]]},
            {"u1": {p_c}, "u2": {p_c}, "v1": set(), "v2": set()}, agents=agents)

        assert self.plain_bisimilar(one, "u", two, "u1")
        assert not bisimilar(one, "u", two, "u1")
        # the separating fact: together a and b pin the world down in one
        # model but not the other
        f = DKnow(frozenset("ab"), Var(p_c))
        assert satisfies(two, "u1", f)
        assert not satisfies(one, "u", f)

    def test_collective_implies_plain(self):
        rng = random.Random(43)
        for _ in range(15):
            m = random_local_model(rng, max_worlds=5)
            n = random_local_model(rng, max_worlds=5)
            if m.agents != n.agents:
                continue
            for w in m.worlds:
                for v in n.worlds:
                    if bisimilar(m, w, n, v):
                        assert self.plain_bisimilar(m, w, n, v)


class TestMinimize:
    def test_minimal_model_unchanged(self):
        sq = sq_model()
        isp = immediate_snapshot()
        m2 = pattern_update(pattern_update(sq, isp), isp)
        assert len(minimize(m2).worlds) == 36

    def test_deep_snapshot_rungs_are_minimal(self):
        # the refinement of Sq odot IS^7 takes over a thousand rounds
        m = sq_model()
        isp = immediate_snapshot()
        for k in range(1, 8):
            m = pattern_update(m, isp)
            if k >= 6:
                assert len(minimize(m).worlds) == len(m.worlds) == 4 * 3 ** k

    def test_union_of_copies_collapses(self):
        sq = sq_model()
        c = renamed_copy(sq, "c")
        union = EpistemicModel(
            list(sq.worlds) + list(c.worlds),
            {a: list(sq.relations[a]) + list(c.relations[a]) for a in sq.agents},
            {**sq.valuation, **c.valuation}, agents=sq.agents)
        small = minimize(union)
        assert len(small.worlds) == 4
        assert models_bisimilar(small, sq)

    def test_idempotent_and_faithful(self):
        rng = random.Random(47)
        for _ in range(15):
            m = random_local_model(rng)
            small = minimize(m)
            assert models_bisimilar(m, small)
            assert isomorphic(minimize(small), small)
            blocks = max_collective_bisimulation(small)
            assert all(len(b) == 1 for b in blocks)

    def test_identity_round_then_minimize(self):
        from epiupdate.fixtures import identity_pattern
        m = byz_initial_model()
        stepped = minimize(pattern_update(m, identity_pattern()))
        assert isomorphic(stepped, minimize(m))

    def test_minimize_keeps_the_type(self):
        # a history model's quotient is a history model of its round, which
        # steps by history rounds and rejects action modalities; a plain
        # model's quotient is plain
        from epiupdate.actions import skip_model
        from epiupdate.formulas import TRUE, ActionBox
        from epiupdate.history import HistoryModel
        rng = random.Random(2711)
        merged = 0
        for i in range(8):
            m = random_interpreted_system(rng, 2) if i % 2 else random_local_model(rng, 2)
            q = minimize(m)
            assert type(q) is EpistemicModel and q.columns is None
            p = random_pattern(rng, m.agents, max_graphs=2)
            for h in (history_power(m, p, 2), induced_chain(m, [p, p], model_atoms(m))):
                q = minimize(h)
                merged += len(q.worlds) < len(h.worlds)
                assert type(q) is HistoryModel and q.round == h.round == 2
                skip = ActionBox(skip_model(m.agents), "skip", TRUE)
                with pytest.raises(EpiupdateError, match="not interpreted in the history"):
                    satisfies(q, q.worlds[0], skip)
        assert merged


    def test_meet_of_images_rejected(self):
        m = images_meet_wider()
        assert max_collective_bisimulation(m) == (
            frozenset({"w1", "w2"}), frozenset({"v1", "v3"}))
        # D{a,b} ~p_c holds at w1; a quotient by those classes has to fail it
        assert satisfies(m, "w1", DKnow(frozenset("ab"), Neg(Var(P_C))))
        with pytest.raises(EpiupdateError) as err:
            minimize(m)
        assert str(err.value) == (
            "minimize: no model without bisimilar worlds is bisimilar to this "
            "one: the quotient's D{a,b} would relate w1 and v1, but no such "
            "block of the model meets both their classes")


def with_copies(rng, m):
    """``m`` with every world repeated one to three times, in shuffled order:
    the same valuations, some of them at several worlds."""
    pairs = [((w, k), m.valuation[w]) for w in m.worlds for k in range(rng.randint(1, 3))]
    rng.shuffle(pairs)
    return interpreted_on(pairs, m.agents)


class TestInterpretedSystemFastPath:
    """Whole interpreted systems are compared by their valuations."""

    def random_system(self, rng, n_agents):
        m = random_interpreted_system(rng, max_agents=n_agents)
        while len(m.agents) != n_agents:
            m = random_interpreted_system(rng, max_agents=n_agents)
        return m

    def test_agrees_with_refinement_on_seeded_pairs(self):
        rng = random.Random(71)
        for n_agents in (2, 3):
            outcomes = set()
            for _ in range(60):
                m = self.random_system(rng, n_agents)
                pick = rng.random()
                if pick < 0.4:
                    other = with_copies(rng, m)
                elif pick < 0.7 and len(m.worlds) > 1:
                    keep = rng.sample(m.worlds, len(m.worlds) - 1)
                    other = interpreted_on([(w, m.valuation[w]) for w in keep], m.agents)
                else:
                    other = self.random_system(rng, n_agents)
                assert is_interpreted_system(m) and is_interpreted_system(other)
                labels, _ = reference_refine([m, other])
                n = len(m.worlds)
                want = set(labels[:n]) == set(labels[n:])
                assert models_bisimilar(m, other) is want
                outcomes.add(want)
            assert outcomes == {True, False}, n_agents

    def test_minimize_merges_exactly_equal_valuations(self):
        """The refined quotient of an interpreted system keeps one world per
        valuation, the first that holds it: the fact the whole-model check
        relies on."""
        rng = random.Random(73)
        systems = [with_copies(rng, self.random_system(rng, 2 + i % 2)) for i in range(30)]
        assert any(len(set(m.vals)) < len(m.vals) for m in systems)
        for m in systems:
            first = {}
            for w, val in zip(m.worlds, m.vals):
                first.setdefault(val, w)
            got = minimize(m)
            assert sorted(zip(got.vals, got.worlds), key=repr) == sorted(
                ((val, w) for val, w in first.items()), key=repr)
            assert models_bisimilar(got, m)

    def test_agent_sets_must_match(self):
        two = full_interpreted_system([P_A, P_B])
        three = full_interpreted_system([P_A, P_B, P_C])
        assert is_interpreted_system(two) and is_interpreted_system(three)
        with pytest.raises(ValueError):
            models_bisimilar(two, three)

    def test_history_round_and_induced_chain_without_refinement(self, monkeypatch):
        sq, isp = sq_model(), immediate_snapshot()
        h = history_power(sq, isp, 3)
        chain = induced_chain(sq, [isp] * 3, [P_A, P_B])

        def refuse(*args, **kwargs):
            raise AssertionError("refined")

        monkeypatch.setattr(bisim, "_refine", refuse)
        assert models_bisimilar(h.model, chain)


class TestIsomorphic:
    def test_renamed(self):
        sq = sq_model()
        assert isomorphic(sq, renamed_copy(sq, "c"))

    def test_size_mismatch(self):
        sq = sq_model()
        assert not isomorphic(sq, pattern_update(sq, immediate_snapshot()))

    def test_valuation_matters(self):
        m = byz_initial_model()
        flipped = EpistemicModel(
            ["w1", "w2"],
            {"a": [["w1"], ["w2"]], "b": [["w1", "w2"]]},
            {"w1": set(), "w2": set()}, agents=m.agents)
        assert not isomorphic(m, flipped)

    def test_structure_matters(self):
        agents = ("a", "b")
        chain = EpistemicModel(
            ["1", "2", "3", "4"],
            {"a": [["1", "2"], ["3", "4"]], "b": [["1"], ["2", "3"], ["4"]]},
            {}, agents=agents)
        ring = EpistemicModel(
            ["1", "2", "3", "4"],
            {"a": [["1", "2"], ["3", "4"]], "b": [["1", "4"], ["2", "3"]]},
            {}, agents=agents)
        assert not isomorphic(chain, ring)
        assert isomorphic(ring, ring)

    def test_colours_compare_across_models(self):
        # one world each, told apart only by p_a
        with_p = EpistemicModel(["w"], {"a": [["w"]], "b": [["w"]]}, {"w": {P_A}})
        without = EpistemicModel(["w"], {"a": [["w"]], "b": [["w"]]}, {})
        assert not models_bisimilar(with_p, without)
        assert not isomorphic(with_p, without)

    def test_isomorphic_with_colours_numbered_differently(self):
        def line(marked):
            return EpistemicModel(
                ["1", "2", "3"], {"a": [["1"], ["2"], ["3"]], "b": [["1", "2", "3"]]},
                {marked: {P_A}})
        assert isomorphic(line("1"), line("3"))

    def test_reversed_world_order(self):
        rng = random.Random(5)
        for _ in range(30):
            m = random_local_model(rng)
            reversed_copy = EpistemicModel(
                list(reversed(m.worlds)), m.relations, m.valuation, agents=m.agents)
            assert isomorphic(m, reversed_copy)
            assert isomorphic(reversed_copy, m)

    def test_isomorphic_implies_bisimilar(self):
        # small models, so that many pairs are isomorphic
        rng = random.Random(17)
        found = 0
        for _ in range(200):
            m, o = (random_local_model(rng, max_agents=2, max_atoms_per_agent=1,
                                       max_worlds=3) for _ in range(2))
            if isomorphic(m, o):
                found += 1
                assert models_bisimilar(m, o)
        assert found >= 5

    def test_agrees_with_brute_force(self):
        rng = random.Random(23)
        verdicts = set()
        for i in range(300):
            n_agents = 2 + i % 2
            m = random_local_model(rng, max_agents=n_agents, max_atoms_per_agent=1,
                                   max_worlds=6)
            if rng.random() < 0.5:
                # a renamed copy with shuffled worlds and blocks
                worlds = list(m.worlds)
                rng.shuffle(worlds)
                rename = {w: ("c", w) for w in worlds}
                relations = {}
                for a in m.agents:
                    blocks = [[rename[w] for w in blk] for blk in m.relations[a]]
                    rng.shuffle(blocks)
                    relations[a] = blocks
                o = EpistemicModel([rename[w] for w in worlds], relations,
                                   {rename[w]: m.valuation[w] for w in worlds},
                                   agents=m.agents)
            else:
                o = random_local_model(rng, max_agents=n_agents, max_atoms_per_agent=1,
                                       max_worlds=6)
                while o.agents != m.agents or len(o.worlds) != len(m.worlds):
                    o = random_local_model(rng, max_agents=n_agents,
                                           max_atoms_per_agent=1, max_worlds=6)
            want = brute_isomorphic(m, o)
            assert isomorphic(m, o) == want
            assert isomorphic(o, m) == want
            verdicts.add((len(m.agents), want))
        assert verdicts == {(2, True), (2, False), (3, True), (3, False)}

    def test_colour_ties_left_to_the_search(self):
        # a and b pair the worlds alternately around cycles, so every world
        # gets one colour; only the search tells one cycle from two
        def cycles(*lengths):
            worlds, a, b = [], [], []
            for c, size in enumerate(lengths):
                ring = [f"{c}.{i}" for i in range(size)]
                worlds += ring
                a += [ring[i:i + 2] for i in range(0, size, 2)]
                b += [[ring[i], ring[(i + 1) % size]] for i in range(1, size, 2)]
            return EpistemicModel(worlds, {"a": a, "b": b}, {})
        labels, _ = _refine([cycles(8), cycles(4, 4)], counting=True)
        assert len(set(labels)) == 1
        assert not isomorphic(cycles(8), cycles(4, 4))
        assert not isomorphic(cycles(4, 4, 4), cycles(6, 6))
        assert isomorphic(cycles(4, 8), cycles(8, 4))

    def test_large_models_without_recursion(self):
        # one search step per world: 2,916 worlds, beyond the recursion limit
        sq, isp = sq_model(), immediate_snapshot()
        r5 = sq
        for _ in range(5):
            r5 = pattern_update(r5, isp)
        r6 = pattern_update(r5, isp)
        reversed_copy = EpistemicModel(
            list(reversed(r6.worlds)), r6.relations, r6.valuation, agents=r6.agents)
        assert len(r6.worlds) == 2916
        assert isomorphic(r6, reversed_copy)
        stepped = action_update(r5, induced_action_model(isp, [P_A, P_B]))
        assert len(stepped.worlds) == 2916
        assert not isomorphic(r6, stepped)
