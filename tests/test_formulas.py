import pytest

from epiupdate import (
    Conj, DKnow, Neg, PatternBox, Var, conj, description, disj,
    formula_atoms, iff, implies, knows, modal_depth,
)
from epiupdate.actions import announce, induced_action_model
from epiupdate.fixtures import byz_pattern, P_A, P_B
from epiupdate.formulas import TRUE, action_model_depth, has_dynamic, subformulas
from epiupdate.iunf import is_iunf


class TestDescriptions:
    def test_single_positive(self):
        assert description({P_A}, {P_A}) == Var(P_A)

    def test_single_negative(self):
        assert description(set(), {P_A}) == Neg(Var(P_A))

    def test_mixed(self):
        assert description({P_A}, {P_A, P_B}) == Conj(Var(P_A), Neg(Var(P_B)))

    def test_empty_is_true(self):
        assert description(set(), set()) == TRUE

    def test_subset_required(self):
        with pytest.raises(ValueError):
            description({P_A}, {P_B})

    def test_order_is_canonical(self):
        d1 = description({P_B, P_A}, {P_A, P_B})
        d2 = description({P_A, P_B}, {P_B, P_A})
        assert d1 == d2 == Conj(Var(P_A), Var(P_B))


class TestModalDepth:
    def test_atom(self):
        assert modal_depth(Var(P_A)) == 0

    def test_nested_knowledge(self):
        f = DKnow(frozenset("a"), DKnow(frozenset("b"), Var(P_A)))
        assert modal_depth(f) == 2

    def test_pattern_modality_adds_nothing(self):
        byz = byz_pattern()
        f = PatternBox(byz, byz.graphs[0], knows("b", Var(P_A)))
        assert modal_depth(f) == 1

    def test_action_modality_adds_model_depth(self):
        from epiupdate.formulas import ActionBox
        u = induced_action_model(byz_pattern(), [P_A])
        assert action_model_depth(u) == 0
        f = ActionBox(u, u.actions[0], knows("b", Var(P_A)))
        assert modal_depth(f) == 1
        deep = announce(DKnow(frozenset("a"), DKnow(frozenset("b"), Var(P_A))),
                        ("a", "b"))
        assert action_model_depth(deep) == 2
        g = ActionBox(deep, "ann", knows("b", Var(P_A)))
        assert modal_depth(g) == 3


class TestSugar:
    def test_disj_expansion(self):
        f = disj(Var(P_A), Var(P_B))
        assert f == Neg(Conj(Neg(Var(P_A)), Neg(Var(P_B))))

    def test_implies_iff(self):
        a, b = Var(P_A), Var(P_B)
        assert implies(a, b) == disj(Neg(a), b)
        assert iff(a, b) == Conj(implies(a, b), implies(b, a))

    def test_empty_conj_is_true(self):
        assert conj() == TRUE

    def test_dknow_requires_agents(self):
        with pytest.raises(ValueError):
            DKnow(frozenset(), Var(P_A))

    def test_pattern_box_checks_membership(self):
        byz = byz_pattern()
        from epiupdate import universal_graph
        with pytest.raises(ValueError):
            PatternBox(byz, universal_graph(("a", "b")), Var(P_A))


class TestInspection:
    def test_atoms_of_action_preconditions_counted(self):
        from epiupdate.formulas import ActionBox
        u = announce(Var(P_B), ("a", "b"))
        f = ActionBox(u, "ann", Var(P_A))
        assert formula_atoms(f) == {P_A, P_B}

    def test_has_dynamic(self):
        byz = byz_pattern()
        assert not has_dynamic(DKnow(frozenset("a"), Var(P_A)))
        assert has_dynamic(PatternBox(byz, byz.graphs[0], Var(P_A)))

    def test_iff_chain_walked_once_per_subformula(self):
        # iff shares its operands, so a chain of n links has O(n) distinct
        # subformulas but a tree of 2^n nodes
        f = Var(P_A)
        for _ in range(40):
            f = iff(f, Var(P_B))
        byz = byz_pattern()
        boxed = PatternBox(byz, byz.graphs[0], f)
        # the asserts name no formula: printing a chain's tree is exponential
        ids = [id(g) for g in subformulas(f)]
        atoms = formula_atoms(f)
        checks = (has_dynamic(f), is_iunf(f), announce(f, ("a", "b")).pre["ann"] is f,
                  has_dynamic(boxed), is_iunf(boxed),
                  is_iunf(PatternBox(byz, byz.graphs[0], Conj(f, boxed))))
        assert len(ids) == len(set(ids)) < 20 * 40
        assert atoms == {P_A, P_B}
        assert checks == (False, True, True, True, True, False)

    def test_walk_includes_action_preconditions(self):
        from epiupdate.formulas import ActionBox
        u = announce(Var(P_B), ("a", "b"))
        f = ActionBox(u, "ann", Var(P_A))
        assert [type(g).__name__ for g in subformulas(f)] == ["ActionBox", "Var", "Var"]
        with pytest.raises(TypeError):
            list(subformulas(Conj(Var(P_A), "p_b")))
