import gc
import random
import weakref
from collections import Counter

import pytest

from epiupdate import (
    ActionModel, ActionUpdate, Atom, CommPattern, EpiupdateError, EpistemicModel,
    MultiPointedActionModel, Neg, PatternUpdate, PointedModel, Var, announce,
    bisimilar, check_circular_chain, disj, find_equivalent_pattern,
    fresh_variable_counterexample, full_interpreted_system,
    identity_graph, induced_action_model, minimize, models_bisimilar,
    pattern_update, skip_model, universal_graph, update_equivalent_on,
    update_results, whether_announce, witness_round, DKnow,
)
from epiupdate.fixtures import (
    byz_initial_model, byz_pattern, immediate_snapshot, reveal_base_model,
    sq_model, P_A, P_B, Q_A,
)
from epiupdate import bisim, search
from epiupdate.bisim import pointed_sets_match
from epiupdate.search import candidate_patterns, pattern_verdicts

from genlib import reference_sets_match

AB = ("a", "b")
ABC = ("a", "b", "c")
P_C = Atom("p", "c")


def graph(name, pattern):
    return next(g for g in pattern.graphs if g.name == name)


def pairwise_sets_match(xs, ys):
    """Oracle: one ``bisimilar`` call per pair of results.

    Every x has a bisimilar y and every y a bisimilar x; empty matches
    only empty.
    """
    if not xs or not ys:
        return not xs and not ys
    return (all(any(bisimilar(x.model, x.point, y.model, y.point) for y in ys)
                for x in xs)
            and all(any(bisimilar(x.model, x.point, y.model, y.point) for x in xs)
                    for y in ys))


class TestUpdateResults:
    def test_pattern_unpointed_yields_one_per_graph(self):
        sq = sq_model()
        isp = immediate_snapshot()
        results = update_results(PatternUpdate(isp), PointedModel(sq, "11"))
        assert len(results) == 3
        assert {r.point for r in results} == {("11", g) for g in isp.graphs}

    def test_pattern_pointed_yields_one(self):
        byz = byz_pattern()
        m = byz_initial_model()
        results = update_results(PatternUpdate(byz, graph("I", byz)),
                                 PointedModel(m, "w1"))
        assert len(results) == 1

    def test_action_results_respect_preconditions(self):
        m = byz_initial_model()
        u = announce(Var(P_A), AB)
        spec = ActionUpdate(MultiPointedActionModel(u, frozenset(u.actions)))
        assert len(update_results(spec, PointedModel(m, "w1"))) == 1
        assert update_results(spec, PointedModel(m, "w2")) == []

    def test_inexecutable_target_is_structural_inequivalence(self):
        m = byz_initial_model()
        u = announce(Var(P_A), AB)
        target = ActionUpdate(MultiPointedActionModel(u, frozenset(u.actions)))
        trivial = PatternUpdate(CommPattern([identity_graph(AB)]))
        assert not update_equivalent_on([PointedModel(m, "w2")], trivial, target)


class TestUpdateResultsOrder:
    SCRIPT = (
        "from epiupdate import ActionModel, ActionUpdate, MultiPointedActionModel,"
        " PointedModel, update_results\n"
        "from epiupdate.formulas import TRUE\n"
        "from epiupdate.fixtures import sq_model\n"
        "acts = ['e1', 'e2', 'e3']\n"
        "u = ActionModel(acts, {a: [[e] for e in acts] for a in 'ab'},"
        " {e: TRUE for e in acts})\n"
        "spec = ActionUpdate(MultiPointedActionModel(u, frozenset(acts)))\n"
        "print([r.point for r in update_results(spec, PointedModel(sq_model(), '11'))])\n")

    def test_action_results_in_model_order_under_any_hash_seed(self):
        import os
        import subprocess
        import sys

        import epiupdate
        src = os.path.dirname(os.path.dirname(os.path.abspath(epiupdate.__file__)))
        outs = [subprocess.run([sys.executable, "-c", self.SCRIPT], check=True,
                               capture_output=True, text=True,
                               env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
                               ).stdout
                for seed in ("0", "1", "3")]
        assert outs == ["[('11', 'e1'), ('11', 'e2'), ('11', 'e3')]\n"] * 3

    def test_only_live_points_kept(self):
        acts = ["e1", "e2", "e3"]
        pre = {"e1": Var(P_A), "e2": Var(P_A), "e3": Neg(Var(P_A))}
        u = ActionModel(acts, {a: [[e] for e in acts] for a in AB}, pre)
        spec = ActionUpdate(MultiPointedActionModel(u, frozenset(["e3", "e1"])))
        results = update_results(spec, PointedModel(sq_model(), "11"))
        assert [r.point for r in results] == [("11", "e1")]
        results = update_results(spec, PointedModel(sq_model(), "01"))
        assert [r.point for r in results] == [("01", "e3")]


class TestUpdateResultsMemo:
    """A spec builds its results once per base, for as long as it lives."""

    @staticmethod
    def count_builds(monkeypatch):
        """Count the products ``update_results`` builds, by wrapping the
        product builders as ``search`` calls them."""
        built = Counter()
        for name in ("pattern_update", "action_update"):
            def counted(*args, _real=getattr(search, name), _name=name):
                built[_name] += 1
                return _real(*args)
            monkeypatch.setattr(search, name, counted)
        return built

    @staticmethod
    def specs():
        u = announce(Var(P_A), AB)
        return [PatternUpdate(immediate_snapshot()),
                ActionUpdate(MultiPointedActionModel(u, frozenset(u.actions)))]

    def test_second_call_reuses_the_product(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        base = PointedModel(sq_model(), "11")
        pattern_spec, action_spec = self.specs()
        for spec in (pattern_spec, action_spec):
            first, second = update_results(spec, base), update_results(spec, base)
            assert first == second
            assert all(x.model is y.model for x, y in zip(first, second))
        assert built == {"pattern_update": 1, "action_update": 1}
        # another base is another build
        update_results(pattern_spec, PointedModel(sq_model(), "11"))
        assert built["pattern_update"] == 2

    def test_callers_cannot_change_the_memo(self):
        base = PointedModel(sq_model(), "11")
        spec = PatternUpdate(immediate_snapshot())
        results = update_results(spec, base)
        results.clear()
        assert len(update_results(spec, base)) == 3

    def test_memo_takes_no_part_in_equality(self):
        base = PointedModel(sq_model(), "11")
        pattern_spec, action_spec = self.specs()
        for used, fresh in ((pattern_spec, PatternUpdate(pattern_spec.pattern)),
                            (action_spec, ActionUpdate(action_spec.target))):
            update_results(used, base)
            assert used == fresh
            assert hash(used) == hash(fresh)
            assert repr(used) == repr(fresh)

    def test_candidate_product_dies_with_the_spec(self):
        base = PointedModel(sq_model(), "11")
        target = PatternUpdate(byz_pattern())
        cand = PatternUpdate(immediate_snapshot())
        update_equivalent_on([base], cand, target)
        cand_product = weakref.ref(update_results(cand, base)[0].model)
        target_product = weakref.ref(update_results(target, base)[0].model)
        del cand
        gc.collect()
        assert cand_product() is None
        assert target_product() is not None

    def test_inexecutable_target_builds_nothing(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        _, spec = self.specs()
        base = PointedModel(byz_initial_model(), "w2")
        assert update_results(spec, base) == []
        assert update_results(spec, base) == []
        assert not built

    def test_not_a_spec_rejected(self):
        with pytest.raises(TypeError, match="not an update spec"):
            update_results(byz_pattern(), PointedModel(sq_model(), "11"))


class TestSharedRefinement:
    def test_agrees_with_pairwise_matching(self):
        sq3 = full_interpreted_system([P_A, P_B, P_C])
        # the announcement of p_a | p_b is inexecutable at 001
        bases = [PointedModel(sq3, w) for w in ("110", "011", "001")]
        candidates = list(candidate_patterns(ABC, 2))
        rng = random.Random(59)
        target = rng.choice([c for c in candidates if len(c.graphs) == 2])
        sample = rng.sample(candidates, 40) + [target]
        ann = announce(disj(Var(P_A), Var(P_B)), ABC)
        u = induced_action_model(target, [P_A, P_B, P_C])
        targets = [
            ActionUpdate(MultiPointedActionModel(ann, frozenset(ann.actions))),
            PatternUpdate(target),
            ActionUpdate(MultiPointedActionModel(u, frozenset(u.actions))),
        ]
        verdicts = set()
        for spec in targets:
            for pattern in sample:
                cand = PatternUpdate(pattern)
                want = [pairwise_sets_match(update_results(cand, base),
                                            update_results(spec, base))
                        for base in bases]
                for base, ok in zip(bases, want):
                    assert update_equivalent_on([base], cand, spec) == ok
                assert update_equivalent_on(bases, cand, spec) == all(want)
                verdicts.update(want)
        assert verdicts == {True, False}

    def test_empty_matches_only_empty(self):
        sq = sq_model()
        x = PointedModel(sq, "11")
        assert pointed_sets_match([], [])
        assert not pointed_sets_match([x], [])
        assert not pointed_sets_match([], [x])

    def test_agent_sets_must_agree(self):
        sq = sq_model()
        other = full_interpreted_system([], agents=ABC)
        with pytest.raises(ValueError):
            pointed_sets_match([PointedModel(sq, "11")],
                               [PointedModel(other, other.worlds[0])])


class TestDepthOneRefutation:
    """The matcher against ``genlib.reference_sets_match``, which refines the
    union for every comparison."""

    def test_agrees_with_union_refinement(self):
        sq3 = full_interpreted_system([P_A, P_B, P_C])
        bases = [PointedModel(sq3, w) for w in ("110", "011")]
        candidates = list(candidate_patterns(ABC, 2))[:80]
        target = next(c for c in candidates if len(c.graphs) == 2)
        ann = announce(disj(Var(P_A), Var(P_B)), ABC)
        u = induced_action_model(target, [P_A, P_B, P_C])
        targets = [
            ActionUpdate(MultiPointedActionModel(ann, frozenset(ann.actions))),
            PatternUpdate(target),
            ActionUpdate(MultiPointedActionModel(u, frozenset(u.actions))),
        ]
        verdicts = Counter()
        for spec in targets:
            for pattern in candidates:
                cand = PatternUpdate(pattern)
                for base in bases:
                    xs, ys = update_results(cand, base), update_results(spec, base)
                    ok = reference_sets_match(xs, ys)
                    assert pointed_sets_match(xs, ys) == ok
                    verdicts[ok] += 1
        assert verdicts[True] >= 4 and verdicts[False] > 400

    @staticmethod
    def count_refines(monkeypatch):
        calls = []

        def counted(*args, _real=bisim._refine, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)
        monkeypatch.setattr(bisim, "_refine", counted)
        return calls

    def test_refuted_at_depth_one_without_refining(self, monkeypatch):
        sq3 = full_interpreted_system([P_A, P_B, P_C])
        base = PointedModel(sq3, "110")
        silent, loud = (PatternUpdate(CommPattern([g]))
                        for g in (identity_graph(ABC), universal_graph(ABC)))
        xs, ys = update_results(silent, base), update_results(loud, base)
        calls = self.count_refines(monkeypatch)
        assert not pointed_sets_match(xs, ys)
        assert calls == []

    def test_hit_still_refines(self, monkeypatch):
        sq3 = full_interpreted_system([P_A, P_B, P_C])
        base = PointedModel(sq3, "110")
        pattern = list(candidate_patterns(ABC, 2))[30]
        xs = update_results(PatternUpdate(pattern), base)
        ys = update_results(PatternUpdate(pattern), base)
        assert xs[0].model is not ys[0].model
        calls = self.count_refines(monkeypatch)
        assert pointed_sets_match(xs, ys)
        assert len(calls) == 1


class TestFindEquivalentPattern:
    def test_skip_matches_the_silent_round(self):
        sq = sq_model()
        sk = skip_model(AB)
        target = ActionUpdate(MultiPointedActionModel(sk, frozenset(sk.actions)))
        found = find_equivalent_pattern([PointedModel(sq, "11")], target)
        assert found is not None
        assert {g.name for g in found.graphs} == {"I"}

    def test_joint_announcement_unmatched(self):
        sq = sq_model()
        u = announce(disj(Var(P_A), Var(P_B)), AB)
        target = ActionUpdate(MultiPointedActionModel(u, frozenset(u.actions)))
        assert find_equivalent_pattern([PointedModel(sq, "11")], target) is None

    def test_partial_reveal_unmatched(self):
        m = reveal_base_model()
        u = whether_announce(Var(P_A), AB)
        target = ActionUpdate(MultiPointedActionModel(u, frozenset(u.actions)))
        assert find_equivalent_pattern([PointedModel(m, "11")], target) is None

    def test_pattern_matches_itself(self):
        sq = sq_model()
        byz = byz_pattern()
        found = find_equivalent_pattern([PointedModel(sq, "11")],
                                        PatternUpdate(byz))
        assert found == byz

    def test_candidate_enumeration_is_deterministic(self):
        names = [tuple(g.name for g in p.graphs)
                 for p in candidate_patterns(AB, None)]
        assert len(names) == 15
        assert names[0] == ("I",)
        assert names == [tuple(g.name for g in p.graphs)
                         for p in candidate_patterns(AB, None)]

    def test_size_cap_limits_search(self):
        caps = sum(1 for _ in candidate_patterns(AB, 2))
        assert caps == 4 + 6

    @pytest.mark.parametrize("cap", [0, -1])
    def test_size_cap_below_one_rejected_at_the_call(self, cap):
        bases = [PointedModel(sq_model(), "11")]
        message = f"pattern size cap must be at least 1, not {cap}"
        with pytest.raises(ValueError, match=message):
            candidate_patterns(AB, cap)
        with pytest.raises(ValueError, match=message):
            pattern_verdicts(bases, PatternUpdate(byz_pattern()), cap)

    def test_mismatched_bases_rejected(self):
        sq = sq_model()
        other = full_interpreted_system([], agents=("a", "b", "c"))
        with pytest.raises(ValueError):
            find_equivalent_pattern(
                [PointedModel(sq, "11"), PointedModel(other, other.worlds[0])],
                PatternUpdate(byz_pattern()))


class TestWitnessRound:
    def test_boolean_preconditions(self):
        u = induced_action_model(immediate_snapshot(), [P_A, P_B])
        assert witness_round(u) == 1

    def test_depth_two_preconditions(self):
        deep = announce(DKnow(frozenset("a"), DKnow(frozenset("b"), Var(P_A))), AB)
        assert witness_round(deep) == 2

    def test_any_boolean_model(self):
        assert witness_round(skip_model(AB)) == 1


class TestCircularChain:
    def test_square_is_minimal_chain(self):
        assert check_circular_chain(sq_model())

    def test_iterated_snapshot_stays_circular(self):
        m = sq_model()
        isp = immediate_snapshot()
        for _ in range(5):
            m = pattern_update(m, isp)
            assert check_circular_chain(m)

    def test_induced_product_breaks_the_circle(self):
        sq = sq_model()
        isp = immediate_snapshot()
        m1 = pattern_update(sq, isp)
        from epiupdate import action_update
        prod = action_update(m1, induced_action_model(isp, [P_A, P_B]))
        assert not check_circular_chain(prod)

    def test_two_worlds_is_not_a_chain(self):
        assert not check_circular_chain(byz_initial_model())

    def test_disconnected_pairs_rejected(self):
        m = EpistemicModel(
            ["1", "2", "3", "4"],
            {"a": [["1", "2"], ["3", "4"]], "b": [["1", "2"], ["3", "4"]]},
            {}, agents=AB)
        assert not check_circular_chain(m)

    def test_requires_two_agents(self):
        m = full_interpreted_system([], agents=("a", "b", "c"))
        with pytest.raises(ValueError):
            check_circular_chain(m)


class TestFreshVariable:
    def test_byz_induced_model_refuted(self):
        u = induced_action_model(byz_pattern(), [P_A])
        left, right = fresh_variable_counterexample(u, [P_A, Q_A])
        assert not models_bisimilar(left.model, right.model)
        # delivery column keeps b's uncertainty only on the action side
        assert sorted(len(b) for b in left.model.relations["b"]) == [1, 1, 2]
        assert sorted(len(b) for b in right.model.relations["b"]) == [2, 2]

    def test_skip_refuted_too(self):
        left, right = fresh_variable_counterexample(skip_model(AB), [P_A, Q_A])
        assert not models_bisimilar(left.model, right.model)

    def test_no_fresh_atom_is_an_error(self):
        u = announce(Var(P_A), AB)
        with pytest.raises(EpiupdateError, match="absent"):
            fresh_variable_counterexample(u, [P_A])


class TestSizeBoundReplay:
    def test_single_round_cannot_reach_double_round_size(self):
        sq = sq_model()
        isp = immediate_snapshot()
        twice = pattern_update(pattern_update(sq, isp), isp)
        sizes = [len(pattern_update(sq, p).worlds)
                 for p in candidate_patterns(AB, None)]
        assert max(sizes) == 16
        assert len(minimize(twice).worlds) == 36

    def test_copying_the_double_round_into_an_action_model_replays_it(self):
        from epiupdate import action_update, isomorphic, model_as_action_model
        sq = sq_model()
        isp = immediate_snapshot()
        twice = pattern_update(pattern_update(sq, isp), isp)
        u = model_as_action_model(twice, [P_A, P_B])
        assert isomorphic(action_update(sq, u), twice)
