import random
import sys

import pytest

from epiupdate import (
    Conj, DKnow, FormulaSyntaxError, Neg, PatternBox, Top, Var, dual_knows,
    format_formula, knows, satisfies,
)
from epiupdate.fixtures import P_A, P_B, sq_model
from epiupdate.history import View
from epiupdate.parser import MAX_NESTING
from epiupdate.workspace import default_workspace

from genlib import random_static_formula


@pytest.fixture()
def ws():
    return default_workspace()


class TestCore:
    def test_atom(self, ws):
        assert ws.parse("p_a") == Var(P_A)

    def test_dual_knowledge_nesting(self, ws):
        f = ws.parse("hK a hK b ~p_a")
        assert f == dual_knows("a", dual_knows("b", Neg(Var(P_A))))

    def test_distributed_knowledge(self, ws):
        assert ws.parse("D{a,b} p_a") == DKnow(frozenset("ab"), Var(P_A))
        assert ws.parse("K a p_a") == knows("a", Var(P_A))

    def test_pattern_modality_with_literal(self, ws):
        f = ws.parse("[IS:{a->b}] (p_a & p_b)")
        isp = ws.patterns["IS"]
        rab = isp.graph_named("Rab")
        assert f == PatternBox(isp, rab, Conj(Var(P_A), Var(P_B)))

    def test_pattern_modality_with_name(self, ws):
        f = ws.parse("[Byz:I] p_a")
        byz = ws.patterns["Byz"]
        assert f == PatternBox(byz, byz.graph_named("I"), Var(P_A))

    def test_unpointed_pattern_expands_to_conjunction(self, ws):
        f = ws.parse("[Byz] p_a")
        byz = ws.patterns["Byz"]
        parts = [PatternBox(byz, g, Var(P_A)) for g in byz.graphs]
        assert f == Conj(parts[0], parts[1])

    def test_action_modality(self, ws):
        from epiupdate.formulas import ActionBox
        f = ws.parse("[skip.skip] p_a")
        assert f == ActionBox(ws.action_models["skip"], "skip", Var(P_A))
        g = ws.parse("[skip] p_a")
        assert g == ActionBox(ws.action_models["skip"], "skip", Var(P_A))

    def test_constants(self, ws):
        assert ws.parse("true") == Top()
        assert ws.parse("false") == Neg(Top())

    def test_operators(self, ws):
        a, b = Var(P_A), Var(P_B)
        assert ws.parse("(p_a & p_b)") == Conj(a, b)
        assert ws.parse("(p_a | p_b)") == Neg(Conj(Neg(a), Neg(b)))
        assert ws.parse("(p_a -> p_b)") == Neg(Conj(Neg(Neg(a)), Neg(b)))

    def test_history_variable(self, ws):
        f = ws.parse("ab_b")
        assert isinstance(f, Var)
        hv = f.atom
        assert isinstance(hv, View)
        assert hv.owner == "b" and hv.is_abstract
        assert str(hv) == "ab_b"
        g = ws.parse("a_a")
        assert isinstance(g.atom, View)


class TestErrors:
    def test_unknown_atom(self, ws):
        with pytest.raises(FormulaSyntaxError, match="unknown atom"):
            ws.parse("zz_q")

    def test_unknown_agent(self, ws):
        with pytest.raises(FormulaSyntaxError, match="unknown agent"):
            ws.parse("D{a,z} p_a")

    def test_unknown_bracket_name(self, ws):
        with pytest.raises(FormulaSyntaxError, match="unknown pattern or action model"):
            ws.parse("[Nope] p_a")

    def test_graph_not_in_pattern(self, ws):
        with pytest.raises(FormulaSyntaxError, match="not in the pattern"):
            ws.parse("[Byz:{b->a}] p_a")

    def test_unknown_graph_name(self, ws):
        # the pattern's own lookup, re-raised at the graph name's position
        with pytest.raises(FormulaSyntaxError) as exc:
            ws.parse("(p_a & [IS:Rab] [Byz:  nope] p_a)")
        assert str(exc.value) == "pattern has no graph named 'nope' (at position 23)"
        assert exc.value.position == 23

    def test_position_reported(self, ws):
        with pytest.raises(FormulaSyntaxError, match="position"):
            ws.parse("(p_a &")

    def test_trailing_input(self, ws):
        with pytest.raises(FormulaSyntaxError, match="trailing"):
            ws.parse("p_a p_b")

    def test_unknown_action(self, ws):
        with pytest.raises(FormulaSyntaxError, match="no action"):
            ws.parse("[skip.jump] p_a")

    @pytest.mark.parametrize("prefix, suffix", [
        ("~", ""), ("hK a ", ""), ("hD{a,b} ", ""), ("(p_b -> ", ")"),
        ("(", " -> p_b)"),
    ])
    def test_formula_at_nesting_limit(self, ws, prefix, suffix):
        # the deepest accepted formulas still evaluate and print under
        # Python's default recursion limit
        assert sys.getrecursionlimit() == 1000
        text = prefix * MAX_NESTING + "p_a" + suffix * MAX_NESTING
        f = ws.parse(text)
        satisfies(sq_model(), "11", f)
        assert format_formula(f)
        with pytest.raises(FormulaSyntaxError, match=f"deeper than {MAX_NESTING}"):
            ws.parse("~" + text)


class TestRoundTrip:
    def test_fixed_examples(self, ws):
        for text in [
            "p_a", "~p_a", "(p_a & p_b)", "D{a,b} p_a", "hK a hK b ~p_a",
            "[IS:{a->b}] (p_a & p_b)", "[Byz:I] p_a", "(p_a <-> p_b)",
            "true", "[skip] (q_a | ~q_a)", "ab_b",
        ]:
            f = ws.parse(text)
            assert ws.parse(format_formula(f)) == f

    def test_random_static_formulas(self, ws):
        rng = random.Random(5)
        atoms = list(ws.atom_set)
        for _ in range(100):
            f = random_static_formula(rng, atoms, ws.agents, depth=4)
            assert ws.parse(format_formula(f)) == f
