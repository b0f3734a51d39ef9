import json

import pytest

from epiupdate import UnknownNameError, isomorphic, world_name
from epiupdate.fixtures import sq_model, byz_pattern, immediate_snapshot
from epiupdate.history import history_power
from epiupdate.workspace import (
    Workspace, action_model_from_json, action_model_to_json, default_workspace,
    load_workspace, model_from_json, model_to_json, resolve_model_expr,
)

SAMPLE = {
    "agents": ["a", "b"],
    "atoms": [{"base": "p", "owner": "a"}, {"base": "q", "owner": "a"}],
    "models": {
        "M2": {
            "worlds": [{"id": "w1", "val": ["p_a", "q_a"]},
                       {"id": "w2", "val": ["p_a"]}],
            "relations": {"a": [["w1"], ["w2"]], "b": [["w1", "w2"]]},
        }
    },
    "patterns": {"Send": ["{}", "{a->b}"]},
    "action_models": {
        "reveal": {
            "actions": [{"id": "yes", "pre": "p_a"}, {"id": "no", "pre": "~p_a"}],
            "relations": {"a": [["yes"], ["no"]], "b": [["yes"], ["no"]]},
        }
    },
    "formulas": {"goal": "K b p_a"},
}


class TestJsonModels:
    def test_round_trip(self):
        sq = sq_model()
        doc = model_to_json(sq)
        back = model_from_json(doc, tuple(doc["agents"]),
                               {f"{a['base']}_{a['owner']}":
                                __import__("epiupdate").Atom(a["base"], a["owner"])
                                for a in doc["atoms"]})
        assert isomorphic(sq, back)

    def test_relations_are_block_lists(self):
        doc = model_to_json(sq_model())
        assert doc["relations"]["a"] == [["00", "01"], ["10", "11"]]

    def test_unknown_atom_rejected(self):
        bad = {"worlds": [{"id": "w", "val": ["zz_a"]}], "relations": {"a": [["w"]]}}
        with pytest.raises(UnknownNameError):
            model_from_json(bad, ("a",), {})

    def test_history_atoms_listed_separately(self):
        h = history_power(sq_model(), immediate_snapshot(), 1)
        doc = model_to_json(h.model)
        assert "history_atoms" in doc
        assert "a_a" in doc["history_atoms"]
        assert all("." not in name or name.startswith("(")
                   for name in doc["history_atoms"])
        base_names = {f"{a['base']}_{a['owner']}" for a in doc["atoms"]}
        assert base_names == {"p_a", "p_b"}


class TestWorkspaceLoading:
    def test_load(self, tmp_path):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(SAMPLE))
        ws = load_workspace(path)
        assert set(ws.models) == {"M2"}
        assert len(ws.patterns["Send"].graphs) == 2
        assert set(ws.action_models) == {"reveal"}
        assert ws.parse(ws.formulas["goal"]) is not None

    def test_duplicate_names_rejected(self):
        with pytest.raises(UnknownNameError, match="duplicate"):
            Workspace(("a",), [], models={"X": sq_model()},
                      patterns={"X": byz_pattern()})

    def test_action_model_round_trip(self):
        ws = default_workspace()
        u = ws.action_models["skip"]
        doc = action_model_to_json(u)
        back = action_model_from_json(doc, ws.agents, ws, name="skip")
        assert back.actions == u.actions
        assert back.pre == {e: u.pre[e] for e in u.actions}


class TestModelExpressions:
    def test_odot_chain(self):
        ws = default_workspace()
        m = resolve_model_expr(ws, "Sq odot IS odot IS")
        assert len(m.worlds) == 36

    def test_otimes_induced(self):
        ws = default_workspace()
        left = resolve_model_expr(ws, "M odot Byz")
        right = resolve_model_expr(ws, "M otimes U(Byz)")
        assert isomorphic(left, right)

    def test_named_action_model(self):
        ws = default_workspace()
        m = resolve_model_expr(ws, "Sq otimes skip")
        assert isomorphic(m, ws.models["Sq"])

    def test_errors(self):
        ws = default_workspace()
        for text in ["Nope", "Sq odot Nope", "Sq frob IS", "Sq otimes U(Nope",
                     "Sq otimes U(Nope)"]:
            with pytest.raises(UnknownNameError):
                resolve_model_expr(ws, text)

    def test_action_step_that_leaves_no_world(self):
        # the library update is partial; the expression refuses its empty result
        from epiupdate import EpiupdateError, action_update, announce
        ws = default_workspace()
        ws.action_models["absurd"] = announce(ws.parse("(p_a & ~p_a)"), ws.agents, name="absurd")
        assert action_update(ws.models["Sq"], ws.action_models["absurd"]).is_empty
        with pytest.raises(EpiupdateError, match="^update with 'absurd' produced an empty model$"):
            resolve_model_expr(ws, "Sq odot IS otimes absurd odot IS")


class TestDefaultWorkspace:
    def test_contents(self):
        ws = default_workspace()
        assert set(ws.models) == {"Sq", "M"}
        assert set(ws.patterns) == {"I", "U", "Byz", "IS"}
        assert set(ws.action_models) == {"skip"}
        assert "q_a" in ws.atoms

    def test_world_lookup_by_name(self):
        ws = default_workspace()
        m = resolve_model_expr(ws, "Sq odot IS")
        w = m.world_named("11.U")
        assert world_name(w) == "11.U"


class TestDotExport:
    def test_model_dot_escapes_and_sorts(self):
        from epiupdate.dot import model_dot
        out1 = model_dot(sq_model())
        out2 = model_dot(sq_model())
        assert out1 == out2
        assert '"11" [label="11\\np_a p_b"];' in out1
        assert '"00" -- "01" [label="a"];' in out1
        assert "\npre" not in out1

    def test_action_model_dot(self):
        from epiupdate import induced_action_model
        from epiupdate.dot import action_model_dot
        from epiupdate.fixtures import P_A
        u = induced_action_model(byz_pattern(), [P_A])
        out = action_model_dot(u)
        assert out == action_model_dot(u)
        assert '"(I,{p_a})" [label="(I,{p_a})\\npre: p_a"];' in out
        assert out.count("--") == 3
        assert out == (
            'graph actions {\n'
            '  node [shape=ellipse];\n'
            '  "(I,{p_a})" [label="(I,{p_a})\\npre: p_a"];\n'
            '  "(I,{})" [label="(I,{})\\npre: ~p_a"];\n'
            '  "(Rab,{p_a})" [label="(Rab,{p_a})\\npre: p_a"];\n'
            '  "(Rab,{})" [label="(Rab,{})\\npre: ~p_a"];\n'
            '  "(I,{p_a})" -- "(I,{})" [label="b"];\n'
            '  "(I,{p_a})" -- "(Rab,{p_a})" [label="a"];\n'
            '  "(I,{})" -- "(Rab,{})" [label="a"];\n'
            '}\n')

    def test_action_box_prints_induced_action(self):
        from epiupdate import ActionBox, Var, format_formula, induced_action_model
        from epiupdate.fixtures import P_A, P_B
        u = induced_action_model(byz_pattern(), [P_A])
        fired = next(e for e in u.actions if e[0].name == "I" and e[1])
        assert format_formula(ActionBox(u, fired, Var(P_B))) == "[U(Byz).(I,{p_a})] p_b"

    def test_composed_actions_print_alike_under_any_hash_seed(self):
        import os
        import subprocess
        import sys

        import epiupdate
        script = (
            "import json\n"
            "from epiupdate import compose, induced_action_model\n"
            "from epiupdate.dot import action_model_dot\n"
            "from epiupdate.fixtures import P_A, P_B, immediate_snapshot, skip\n"
            "from epiupdate.workspace import action_model_to_json\n"
            "c = compose(induced_action_model(immediate_snapshot(), [P_A, P_B]), skip())\n"
            "print(json.dumps(action_model_to_json(c)))\n"
            "print(action_model_dot(c))\n"
            "from epiupdate import EpistemicModel, LocalityError\n"
            "try:\n"
            "    EpistemicModel(['u', 'v', 'x', 'y'], {'a': [['u', 'v', 'x', 'y']]},\n"
            "                   {'u': [P_A], 'x': [P_A]})\n"
            "except LocalityError as e:\n"
            "    print(e)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(epiupdate.__file__)))
        outs = [subprocess.run([sys.executable, "-c", script], check=True,
                               capture_output=True, text=True,
                               env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
                               ).stdout
                for seed in ("0", "2")]
        assert outs[0] == outs[1]
        assert '"id": "((Rab,{p_a,p_b}), \'skip\')"' in outs[0]
        assert "worlds u and v are indistinguishable for agent a" in outs[0]
