import random

import pytest

from epiupdate import (
    Conj, DKnow, EpiupdateError, Neg, PatternBox, Var, is_iunf,
    iunf_translate, knows, satisfies,
)
from epiupdate.fixtures import byz_pattern, immediate_snapshot, P_A, P_B

from genlib import (
    model_atoms, random_local_model, random_pattern, random_pattern_formula,
)


def graph(name, pattern):
    return next(g for g in pattern.graphs if g.name == name)


class TestTranslationShape:
    def test_atom_under_modality_is_fixed(self):
        byz = byz_pattern()
        f = PatternBox(byz, graph("I", byz), Var(P_A))
        assert iunf_translate(f) == f

    def test_conjunction_distributes(self):
        byz = byz_pattern()
        i = graph("I", byz)
        f = PatternBox(byz, i, Conj(Var(P_A), Var(P_B)))
        assert iunf_translate(f) == Conj(PatternBox(byz, i, Var(P_A)),
                                         PatternBox(byz, i, Var(P_B)))

    def test_negation_commutes(self):
        byz = byz_pattern()
        i = graph("I", byz)
        f = PatternBox(byz, i, Neg(Var(P_A)))
        assert iunf_translate(f) == Neg(PatternBox(byz, i, Var(P_A)))

    def test_knowledge_clause_quantifies_alternatives(self):
        # pushing through b's knowledge after the simultaneous graph: b heard
        # from both, and cannot exclude the a-to-b graph, which gives the
        # same reception; distributed knowledge goes to the senders heard
        isp = immediate_snapshot()
        u, rab = graph("U", isp), graph("Rab", isp)
        f = PatternBox(isp, u, knows("b", Var(P_A)))
        expected = Conj(
            DKnow(frozenset("ab"), PatternBox(isp, rab, Var(P_A))),
            DKnow(frozenset("ab"), PatternBox(isp, u, Var(P_A))),
        )
        assert iunf_translate(f) == expected

    def test_stacked_modalities_stay_chained(self):
        byz = byz_pattern()
        isp = immediate_snapshot()
        f = PatternBox(byz, graph("I", byz),
                       PatternBox(isp, graph("U", isp), Var(P_A)))
        assert iunf_translate(f) == f
        assert is_iunf(f)

    def test_iff_chain_translated_once_per_node(self, monkeypatch):
        # a chain of n links is a tree of 2^n nodes; counting calls shows
        # that each node is translated once and pushed once per graph
        from epiupdate import iunf
        from epiupdate.formulas import iff, subformulas
        isp = immediate_snapshot()
        f = Var(P_A)
        for _ in range(40):
            f = iff(f, knows("b", Var(P_B)))
        nodes = len(list(subformulas(f)))
        calls = []
        for name in ("_translate", "_push"):
            real = getattr(iunf, name)
            monkeypatch.setattr(iunf, name,
                                lambda *args, real=real: calls.append(args) or real(*args))
        t = iunf_translate(PatternBox(isp, graph("U", isp), f))
        assert is_iunf(t)
        assert len(calls) <= 2 * (1 + len(isp.graphs)) * nodes + 2

    def test_action_modalities_rejected(self):
        from epiupdate import skip_model
        from epiupdate.formulas import ActionBox
        sk = skip_model(("a", "b"))
        with pytest.raises(EpiupdateError):
            iunf_translate(ActionBox(sk, "skip", Var(P_A)))


class TestNormalFormChecker:
    def test_positive(self):
        byz = byz_pattern()
        i = graph("I", byz)
        assert is_iunf(Var(P_A))
        assert is_iunf(PatternBox(byz, i, knows("b", Var(P_A))))
        assert is_iunf(DKnow(frozenset("a"), PatternBox(byz, i, Var(P_A))))

    def test_negative(self):
        byz = byz_pattern()
        i = graph("I", byz)
        inner = PatternBox(byz, i, Var(P_A))
        assert not is_iunf(PatternBox(byz, i, Conj(Var(P_A), inner)))
        assert not is_iunf(PatternBox(byz, i, knows("a", inner)))


class TestSemanticAgreement:
    def test_random_formulas_agree_everywhere(self):
        rng = random.Random(61)
        patterns_cache = {}
        for _ in range(60):
            m = random_local_model(rng, max_agents=2, max_worlds=4)
            if m.agents not in patterns_cache:
                patterns_cache[m.agents] = [
                    random_pattern(rng, m.agents, max_graphs=3) for _ in range(3)]
            pats = patterns_cache[m.agents]
            f = random_pattern_formula(rng, model_atoms(m), m.agents, pats,
                                       dyn_depth=3, depth=2)
            t = iunf_translate(f)
            assert is_iunf(t)
            for w in m.worlds:
                assert satisfies(m, w, f) == satisfies(m, w, t)

    def test_single_pattern_blocks_stay_uniform(self):
        rng = random.Random(67)
        isp = immediate_snapshot()

        def chains_uniform(f, inside=None):
            if isinstance(f, Var) or not hasattr(f, "sub") and not isinstance(f, Conj):
                return True
            if isinstance(f, PatternBox):
                if inside is not None and f.pattern != inside:
                    return False
                return chains_uniform(f.sub, f.pattern)
            if isinstance(f, Conj):
                return chains_uniform(f.left, None) and chains_uniform(f.right, None)
            if isinstance(f, (Neg, DKnow)):
                return chains_uniform(f.sub, None)
            return True

        for _ in range(40):
            m = random_local_model(rng, max_agents=2, max_worlds=4)
            f = random_pattern_formula(rng, model_atoms(m), m.agents, [isp],
                                       dyn_depth=2, depth=2)
            t = iunf_translate(f)
            assert chains_uniform(t)
