import json
import time

import pytest

from epiupdate.cli import main
from epiupdate.parser import MAX_NESTING

WS_WITH_ABSURD = {
    "agents": ["a", "b"],
    "atoms": [{"base": "p", "owner": "a"}],
    "models": {
        "M": {
            "worlds": [{"id": "w1", "val": ["p_a"]}, {"id": "w2", "val": []}],
            "relations": {"a": [["w1"], ["w2"]], "b": [["w1", "w2"]]},
        }
    },
    "action_models": {
        "absurd": {
            "actions": [{"id": "e", "pre": "(p_a & ~p_a)"}],
            "relations": {"a": [["e"]], "b": [["e"]]},
        }
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestUpdate:
    def test_double_snapshot(self, capsys):
        code, out, _ = run(capsys, "update", "Sq", "--with", "IS", "--with", "IS")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["worlds"]) == 36

    def test_action_step(self, capsys):
        code, out, _ = run(capsys, "update", "M", "--with-action", "skip")
        assert code == 0
        assert len(json.loads(out)["worlds"]) == 2

    def test_history_round(self, capsys):
        code, out, _ = run(capsys, "update", "Sq", "--history", "--with", "IS")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["worlds"]) == 12
        assert "a_a" in doc["history_atoms"]

    def test_rounds_flag(self, capsys):
        code, out, _ = run(capsys, "update", "Sq", "--with", "IS", "--rounds", "2")
        assert code == 0
        assert len(json.loads(out)["worlds"]) == 36

    def test_rounds_below_one_rejected(self, capsys):
        for rounds in ("0", "-1"):
            code, out, err = run(capsys, "update", "Sq", "--with", "IS",
                                 "--rounds", rounds)
            assert code == 2 and out == ""
            assert err == "error: --rounds must be at least 1\n"

    def test_history_or_rounds_without_a_step_rejected(self, capsys):
        # both act on the steps, so without one they would be ignored
        for flags, named in ((["--history"], "--history"), (["--rounds", "1"], "--rounds"),
                             (["--history", "--rounds", "3"], "--history")):
            code, out, err = run(capsys, "update", "Sq", *flags)
            assert code == 2 and out == ""
            assert err == f"error: {named} needs a --with or --with-action step\n"
        code, _, err = run(capsys, "update", "Sq", "--rounds", "0")
        assert code == 2 and err == "error: --rounds must be at least 1\n"
        # with no flag, update prints the model as it is
        code, out, err = run(capsys, "update", "Sq")
        assert code == 0 and err == "" and len(json.loads(out)["worlds"]) == 4

    @pytest.mark.parametrize("cap", ["abc", "-5", "1.5"])
    def test_malformed_world_cap_exits_two(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("EPIUPDATE_MAX_WORLDS", cap)
        code, out, err = run(capsys, "update", "Sq", "--with", "IS")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "EPIUPDATE_MAX_WORLDS" in err

    def test_empty_product_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(WS_WITH_ABSURD))
        code, _, err = run(capsys, "--workspace", str(path),
                           "update", "M", "--with-action", "absurd")
        assert code == 2
        assert "empty" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "update", "Sq", "--with", "IS",
                           "-o", str(target))
        assert code == 0 and out == ""
        assert len(json.loads(target.read_text())["worlds"]) == 12


class TestEmptyActionStep:
    """An action step that leaves no world is one error, with one text, in
    every command that builds a model, not an empty model that answers
    every ``--valid`` query vacuously."""

    @pytest.mark.parametrize("argv", [
        ["update", "M", "--with-action", "absurd"],
        ["check", "M otimes absurd", "--valid", "p_a"],
        ["check", "M otimes absurd", "--valid", "~p_a"],
        ["check", "M otimes absurd", "w1", "p_a"],
        ["dot", "M otimes absurd"],
        ["minimize", "M otimes absurd"],
        ["bisim", "M otimes absurd", "M"],
        ["search", "--bases", "M otimes absurd:w1", "--target", "action:absurd"],
    ])
    def test_exits_two(self, capsys, tmp_path, argv):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(WS_WITH_ABSURD))
        code, out, err = run(capsys, "--workspace", str(path), *argv)
        assert (code, out, err) == (
            2, "", "error: update with 'absurd' produced an empty model\n")


class TestCheck:
    def test_true_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", "Sq", "11", "(p_a & p_b)")
        assert code == 0 and out.strip() == "true"

    def test_false_exits_one(self, capsys):
        code, out, _ = run(capsys, "check", "Sq", "00", "(p_a & p_b)")
        assert code == 1 and out.strip() == "false"

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "Sq", "11", "(p_a &")
        assert code == 2 and "error" in err

    def test_nesting_limit_exits_two(self, capsys):
        from epiupdate.parser import MAX_NESTING
        code, out, _ = run(capsys, "check", "Sq", "11", "~" * MAX_NESTING + "p_a")
        assert code == 0 and out.strip() == "true"
        for depth in (MAX_NESTING + 1, 3000):
            code, out, err = run(capsys, "check", "Sq", "11", "~" * depth + "p_a")
            assert code == 2 and out == ""
            assert err.startswith(f"error: formula nested deeper than {MAX_NESTING}")

    def test_unknown_world_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "Sq", "99", "p_a")
        assert code == 2

    def test_valid_takes_no_world(self, capsys):
        # p_a holds at 11, so a world ignored would print a verdict
        code, out, err = run(capsys, "check", "Sq", "11", "p_a", "--valid")
        assert (code, out, err) == (2, "", "error: --valid takes no world\n")

    def test_valid_mode(self, capsys):
        code, out, _ = run(capsys, "check", "Sq", "--valid",
                           "(D{a,b} p_a <-> p_a)")
        assert code == 0 and out.strip() == "true"

    def test_distinguishing_pair(self, capsys):
        code, _, _ = run(capsys, "check", "Sq odot IS odot IS", "11.U.Rba",
                         "hK a hK b ~p_a")
        assert code == 1
        code, _, _ = run(capsys, "check", "Sq odot IS otimes U(IS)",
                         "11.U.(Rba,{p_a,p_b})", "hK a hK b ~p_a")
        assert code == 0


class TestBisim:
    def test_iso_verdict_beyond_the_recursion_limit(self, capsys):
        deep = " odot ".join(["Sq"] + ["IS"] * 6)  # 2,916 worlds
        code, out, _ = run(capsys, "bisim", deep, deep, "--iso")
        assert code == 0 and out == "isomorphic\n"

    def test_iso_verdict(self, capsys):
        code, out, _ = run(capsys, "bisim", "M odot Byz", "M otimes U(Byz)",
                           "--iso")
        assert code == 0 and out.strip() == "isomorphic"

    def test_whole_model_negative(self, capsys):
        code, out, _ = run(capsys, "bisim", "Sq odot IS odot IS",
                           "Sq odot IS otimes U(IS)")
        assert code == 1 and "not bisimilar" in out

    def test_self_bisimilar(self, capsys):
        code, out, _ = run(capsys, "bisim", "Sq", "Sq")
        assert code == 0 and out.strip() == "bisimilar"

    def test_pointed_with_witness(self, capsys):
        code, out, _ = run(capsys, "bisim", "Sq", "Sq",
                           "--point1", "11", "--point2", "11", "--witness")
        assert code == 0
        assert "11 ~ 11" in out

    def test_bounded(self, capsys):
        code, out, _ = run(capsys, "bisim", "Sq odot IS", "Sq odot IS",
                           "--point1", "11.Rba", "--point2", "11.U",
                           "--bound", "0")
        assert code == 0 and "0-bisimilar" in out
        code, out, _ = run(capsys, "bisim", "Sq odot IS", "Sq odot IS",
                           "--point1", "11.Rba", "--point2", "11.U",
                           "--bound", "1")
        assert code == 1

    @pytest.mark.parametrize("flags", [
        ["--iso", "--point1", "11", "--point2", "00"],
        ["--iso", "--point1", "11"],
        ["--iso", "--bound", "1"],
        ["--iso", "--witness"],
        ["--bound", "0"],
        ["--witness"],
        ["--point1", "11", "--point2", "11", "--bound", "1", "--witness"],
    ])
    def test_ignored_flags_exit_two(self, capsys, flags):
        code, out, err = run(capsys, "bisim", "Sq", "Sq", *flags)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_exact_distinguishing_depth(self, capsys):
        chain = "Sq" + " odot IS" * 5
        code, out, _ = run(capsys, "bisim", chain, chain,
                           "--point1", "00.U.U.U.U.Rab",
                           "--point2", "00.U.U.U.U.Rba")
        assert code == 1
        assert out.strip() == "not bisimilar (distinguished at depth 121)"


class TestInduce:
    def test_byz(self, capsys):
        code, out, _ = run(capsys, "induce", "Byz", "--atoms", "p_a")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["actions"]) == 4
        pres = {a["pre"] for a in doc["actions"]}
        assert pres == {"p_a", "~p_a"}

    def test_snapshot_default_atoms(self, capsys):
        code, out, _ = run(capsys, "induce", "IS")
        assert code == 0
        assert len(json.loads(out)["actions"]) == 3 * 2 ** 3

    def test_round_two_uses_history_variables(self, capsys):
        code, out, _ = run(capsys, "induce", "Byz", "--atoms", "p_a",
                           "--round", "2")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["actions"]) > 4
        assert any("_b" in a["pre"] or "ab_b" in a["pre"] for a in doc["actions"])

    def test_history_universe_under_the_world_cap(self, capsys, monkeypatch):
        # the round-5 universe is read off four IS rounds on the 8-world
        # interpreted system; the third has 216 worlds
        monkeypatch.setenv("EPIUPDATE_MAX_WORLDS", "100")
        code, out, err = run(capsys, "induce", "IS", "--round", "5")
        assert (code, out) == (2, "")
        assert err == ("error: product would have 216 worlds, exceeding the cap of 100 "
                       "(raise EPIUPDATE_MAX_WORLDS to override)\n")

    def test_huge_induced_size_written_as_a_power(self, capsys):
        code, out, err = run(capsys, "induce", "IS", "--round", "3")
        assert (code, out) == (2, "")
        assert err == ("error: induced action model would have 3 * 2^95 actions, exceeding "
                       "the cap of 100000 (raise EPIUPDATE_MAX_WORLDS to override)\n")

    def test_induced_size_under_the_world_cap(self, capsys, monkeypatch):
        # round 2 of Byz (two graphs) over p_a ranges over p_a and five history variables
        monkeypatch.setenv("EPIUPDATE_MAX_WORLDS", "100")
        code, out, err = run(capsys, "induce", "Byz", "--round", "2", "--atoms", "p_a")
        assert (code, out) == (2, "")
        assert err == ("error: induced action model would have 128 actions, exceeding "
                       "the cap of 100 (raise EPIUPDATE_MAX_WORLDS to override)\n")

    def test_small_world_cap_prints_short_preconditions(self, capsys, monkeypatch):
        # 8 actions fit a cap of 10; printed characters are held to the
        # default cap, so their 13-character preconditions print
        monkeypatch.setenv("EPIUPDATE_MAX_WORLDS", "10")
        code, out, err = run(capsys, "induce", "Byz", "--atoms", "p_a,p_b")
        assert (code, err) == (0, "")
        pres = [a["pre"] for a in json.loads(out)["actions"]]
        assert len(pres) == 8 and "(p_a & ~p_b)" in pres

    def test_round_two_action_ids_distinct_and_seed_free(self):
        # history variables that print alike differ in their leaf content,
        # which the ids show
        import os
        import subprocess
        import sys

        import epiupdate
        src = os.path.dirname(os.path.dirname(os.path.abspath(epiupdate.__file__)))
        script = "import sys; from epiupdate.cli import main; sys.exit(main(sys.argv[1:]))"
        outs = [subprocess.run(
                    [sys.executable, "-c", script, "induce", "Byz", "--round", "2",
                     "--atoms", "p_a"],
                    check=True, capture_output=True, text=True,
                    env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
                for seed in ("0", "1")]
        assert outs[0] == outs[1]
        ids = [a["id"] for a in json.loads(outs[0])["actions"]]
        assert len(ids) == len(set(ids)) == 128
        assert "(Rab,{a_a[],a_a[p_a],ab_b[p_a|],ab_b[|],b_b[],p_a})" in ids


class TestOtherCommands:
    def test_minimize(self, capsys):
        code, out, _ = run(capsys, "minimize", "Sq odot I")
        assert code == 0
        assert len(json.loads(out)["worlds"]) == 4

    def test_minimize_without_minimal_model_exits_two(self, capsys, tmp_path):
        # the meet of the agents' images is wider than the image of their meet
        path = tmp_path / "ws.json"
        path.write_text(json.dumps({
            "agents": ["a", "b", "c"], "atoms": [{"base": "p", "owner": "c"}],
            "models": {"M": {
                "worlds": [{"id": "w1"}, {"id": "w2"}, {"id": "v1", "val": ["p_c"]},
                           {"id": "v3", "val": ["p_c"]}],
                "relations": {"a": [["w1", "v1"], ["w2", "v3"]],
                              "b": [["w1", "v3"], ["w2", "v1"]],
                              "c": [["w1", "w2"], ["v1", "v3"]]}}}}))
        code, out, err = run(capsys, "--workspace", str(path), "minimize", "M")
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: minimize: ") and "D{a,b}" in err
        assert "w1 and v1" in err

    def test_iunf(self, capsys):
        code, out, _ = run(capsys, "iunf", "[IS:{a->b,b->a}] D{b} p_a")
        assert code == 0
        assert "D{a,b}" in out

    def test_dot_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "dot", "Sq")
        code2, out2, _ = run(capsys, "dot", "Sq")
        assert code1 == code2 == 0
        assert out1 == out2
        assert '"00" -- "01" [label="a"]' in out1
        assert out1.count("--") == 4

    def test_search_no_equivalent(self, capsys):
        code, out, _ = run(capsys, "search", "--bases", "Sq:11",
                           "--target", "announce:(p_a | p_b)")
        assert code == 1
        assert "no equivalent found within search space" in out
        assert out.count("no") >= 15  # one table row per candidate

    def test_search_finds_silent_round(self, capsys):
        code, out, _ = run(capsys, "search", "--bases", "Sq:11",
                           "--target", "action:skip")
        assert code == 0
        assert "equivalent pattern found: I" in out

    def test_search_dot_dump(self, capsys, tmp_path):
        out_dir = tmp_path / "dots"
        code, _, _ = run(capsys, "search", "--bases", "Sq:11",
                         "--target", "pattern:Byz", "--dump-dot", str(out_dir))
        assert code == 0
        dumped = list(out_dir.glob("*.dot"))
        assert len(dumped) == 2
        assert dumped[0].read_text().startswith("graph model {")

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_search_cap_below_one_exits_two(self, capsys, cap):
        code, out, err = run(capsys, "search", "--bases", "Sq:11",
                             "--target", "pattern:Byz", "--max-pattern-size", cap)
        assert code == 2 and out == ""
        assert err == f"error: pattern size cap must be at least 1, not {cap}\n"

    def test_five_agent_search_exits_two(self, capsys, tmp_path):
        # 2^20 graphs on five agents: refused before any is built
        path = tmp_path / "ws.json"
        path.write_text(json.dumps({
            "agents": list("abcde"),
            "models": {"M": {"worlds": [{"id": "w"}],
                             "relations": {a: [["w"]] for a in "abcde"}}},
            "patterns": {"P": ["{}"]}}))
        code, out, err = run(capsys, "--workspace", str(path), "search",
                             "--bases", "M:w", "--target", "pattern:P")
        assert (code, out) == (2, "")
        assert err == ("error: enumeration would have 1048576 graphs, exceeding the cap "
                       "of 100000 (raise EPIUPDATE_MAX_WORLDS to override)\n")

    @pytest.mark.parametrize("argv", [
        ("dot", "Sq odot"),
        ("dot", "Sq otimes"),
        ("search", "--bases", "Sq odot:11", "--target", "pattern:Byz"),
    ])
    def test_missing_operand_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: missing operand after ")


class TestUnknownNames:
    """Every name route exits 2 with empty stdout and one exact stderr line,
    under a world cap of 10, below the 12 worlds of ``Sq odot IS``: every
    name is checked before any product is built."""

    @pytest.mark.parametrize("argv, message", [
        (["update", "Nope"], "unknown model 'Nope'"),
        (["update", "Sq", "--with", "Nope"], "unknown pattern 'Nope'"),
        (["update", "Sq", "--with-action", "Nope"], "unknown action model 'Nope'"),
        (["dot", "Nope odot IS"], "unknown model 'Nope'"),
        (["dot", "Sq odot Nope"], "unknown pattern 'Nope'"),
        (["dot", "Sq otimes Nope"], "unknown action model 'Nope'"),
        (["dot", "Sq otimes U(Nope)"], "unknown pattern 'Nope'"),
        (["dot", "Sq odot U(IS)"], "'odot' takes a pattern, but U(IS) is an action model"),
        (["search", "--bases", "Nope:11", "--target", "pattern:Byz"],
         "unknown model 'Nope'"),
        (["search", "--bases", "Sq:11", "--target", "pattern:Nope"],
         "unknown pattern 'Nope'"),
        (["search", "--bases", "Sq:11", "--target", "action:Nope"],
         "unknown action model 'Nope'"),
        (["induce", "Nope"], "unknown pattern 'Nope'"),
        (["induce", "IS", "--atoms", "p_a,zz_q"], "unknown atom 'zz_q'"),
        (["check", "Sq", "11", "zz_q"], "unknown atom 'zz_q' (at position 0)"),
        (["check", "Sq", "11", "(p_a & ab_ab)"], "unknown atom 'ab_ab' (at position 7)"),
        (["check", "Sq", "11", "(p_a & K z p_a)"], "unknown agent 'z' (at position 9)"),
        (["check", "Sq", "11", "D{a,z} p_a"], "unknown agent 'z' (at position 4)"),
        (["check", "Sq", "11", "[Nope] p_a"],
         "unknown pattern or action model 'Nope' (at position 1)"),
        (["iunf", "[IS:Rab] zz_q"], "unknown atom 'zz_q' (at position 9)"),
        # a name after the first step, and the --history rule, fail before
        # that step's product is built
        (["dot", "Sq odot IS odot Nope"], "unknown pattern 'Nope'"),
        (["dot", "Sq odot IS otimes U(Nope)"], "unknown pattern 'Nope'"),
        (["update", "Sq", "--history", "--with", "IS", "--with", "IS", "--with-action", "skip"],
         "--history pipelines accept pattern steps only"),
        (["check", "Sq", "99", "p_a"], "unknown world '99'"),
        (["bisim", "Sq", "Sq", "--point1", "11", "--point2", "99"], "unknown world '99'"),
        (["search", "--bases", "Sq:99", "--target", "pattern:Byz"], "unknown world '99'"),
        # every argument's names, before the first product of any of them
        (["check", "Sq odot IS", "11.U", "zz_q"], "unknown atom 'zz_q' (at position 0)"),
        (["bisim", "Sq odot IS", "Sq odot Nope"], "unknown pattern 'Nope'"),
        (["search", "--bases", "Sq odot IS:11.U", "--target", "pattern:Nope"],
         "unknown pattern 'Nope'"),
        # no agent can be named K, so the grammar's word is an unknown agent
        (["check", "Sq", "11", "K K p_a"], "unknown agent 'K' (at position 2)"),
    ])
    def test_exits_two(self, capsys, monkeypatch, argv, message):
        monkeypatch.setenv("EPIUPDATE_MAX_WORLDS", "10")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


class TestAcrossHashSeeds:
    """Output does not follow hash order: history variables hash their
    owner's name, so sets of them iterate differently under each seed."""

    # (exit code, argv); "WS_WITH_ABSURD" stands for that workspace's file
    COMMANDS = [
        (0, ["update", "Sq", "--history", "--with", "IS", "--rounds", "3"]),
        (0, ["update", "Sq", "--history", "--with", "IS", "--rounds", "2"]),
        (0, ["induce", "Byz", "--round", "2", "--atoms", "p_a"]),
        (2, ["induce", "IS", "--round", "2"]),
        (1, ["check", "Sq odot IS", "11.Rab", "[IS:Rab] ab_b"]),
        (0, ["update", "Sq", "--with", "IS", "--with-action", "skip", "--with", "IS"]),
        (0, ["dot", "Sq odot IS odot IS"]),
        (0, ["minimize", "Sq odot IS odot IS"]),
        (0, ["update", "Sq", "--history", "--with", "Byz", "--rounds", "3"]),
        (0, ["minimize", "Sq"]),
        (0, ["bisim", "Sq", "Sq"]),
        (0, ["iunf", "[IS:{a->b,b->a}] D{b} p_a"]),
        (1, ["search", "--bases", "Sq:11", "--target", "announce:(p_a | p_b)"]),
        (0, ["search", "--bases", "Sq:11", "--target", "action:skip"]),
        (0, ["bisim", "M odot Byz", "M otimes U(Byz)", "--iso"]),
        (0, ["bisim", "Sq", "Sq", "--point1", "11", "--point2", "11", "--witness"]),
        (0, ["check", "Sq", "--valid", "(D{a,b} p_a <-> p_a)"]),
        (0, ["induce", "Byz", "--atoms", "p_a"]),
        (2, ["dot", "Sq odot IS odot Nope"]),
        (2, ["dot", "Sq odot IS otimes U(Nope)"]),
        (2, ["update", "Sq", "--history", "--with", "IS", "--with", "IS", "--with-action", "skip"]),
        (2, ["--workspace", "WS_WITH_ABSURD", "check", "M otimes absurd", "--valid", "p_a"]),
        (2, ["--workspace", "WS_WITH_ABSURD", "dot", "M otimes absurd"]),
        (2, ["check", "Sq", "11", "K K p_a"]),
        # the README's command block
        (0, ["update", "Sq", "--with", "IS", "--with", "IS"]),
        (0, ["update", "M", "--with-action", "skip"]),
        (1, ["check", "Sq odot IS odot IS", "11.U.Rba", "hK a hK b ~p_a"]),
        (1, ["bisim", "Sq odot IS odot IS", "Sq odot IS otimes U(IS)"]),
        (1, ["bisim", "Sq odot IS", "Sq odot IS", "--point1", "11.Rba", "--point2", "11.U",
             "--bound", "1"]),
        (0, ["search", "--bases", "Sq:11", "--target", "pattern:Byz"]),
        (0, ["induce", "IS", "--round", "2", "--atoms", "p_a"]),
        (2, ["update", "Sq", "--history", "--with", "U", "--rounds", "30"]),
        (2, ["update", "Sq", "--history", "--rounds", "3"]),
    ]

    def test_outputs_agree_across_hash_seeds(self, tmp_path):
        import os
        import subprocess
        import sys

        import epiupdate
        src = os.path.dirname(os.path.dirname(os.path.abspath(epiupdate.__file__)))
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(WS_WITH_ABSURD))
        argvs = [[str(path) if arg == "WS_WITH_ABSURD" else arg for arg in argv]
                 for _, argv in self.COMMANDS]
        script = (
            "import contextlib, hashlib, io, json, sys\n"
            "from epiupdate.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        code = main(argv)\n"
            "    text = repr((code, out.getvalue(), err.getvalue()))\n"
            "    print(code, hashlib.sha256(text.encode()).hexdigest())\n")
        procs = [subprocess.Popen(
                     [sys.executable, "-c", script, json.dumps(argvs)],
                     stdout=subprocess.PIPE, text=True,
                     env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
                 for seed in ("0", "1", "2")]
        outs = [proc.communicate()[0].split("\n")[:-1] for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0, 0]
        assert outs[0] == outs[1] == outs[2]
        assert [int(line.split()[0]) for line in outs[0]] == [code for code, _ in self.COMMANDS]


class TestDeepNesting:
    """Long model expressions and long histories keep the exit-code
    contract: output, or exit 2 with empty stdout and one ``error:`` line."""

    @pytest.mark.parametrize("command", ["dot", "minimize"])
    def test_a_long_expression_prints(self, capsys, command):
        code, out, err = run(capsys, command, "Sq" + " odot I" * 1100)
        assert code == 0 and out and err == ""

    def test_many_update_rounds_print(self, capsys):
        code, out, err = run(capsys, "update", "Sq", "--with", "I", "--rounds", "1000")
        assert code == 0 and err == ""
        assert json.loads(out)["worlds"][0]["id"] == "00" + ".I" * 1000

    def test_a_deep_history_prints_or_exits_two(self, capsys):
        # each view nests 500 deep; printing one may pass Python's recursion
        # limit, depending on how many frames the interpreter spends per call
        start = time.perf_counter()
        code, out, err = run(capsys, "update", "Sq", "--history", "--with", "I",
                             "--rounds", "500")
        assert time.perf_counter() - start < 5
        if code == 2:
            assert out == "" and err == "error: nested too deeply for Python's recursion limit\n"
        else:
            assert code == 0 and len(json.loads(out)["worlds"]) == 4 and err == ""

    @pytest.mark.parametrize("rounds", [500, 600])
    def test_a_deeper_history_prints(self, capsys, rounds):
        # views are rendered without one Python frame per round
        start = time.perf_counter()
        code, out, err = run(capsys, "update", "Sq", "--history", "--with", "I",
                             "--rounds", str(rounds))
        assert time.perf_counter() - start < 5
        assert code == 0 and err == ""
        printed = json.loads(out)
        assert len(printed["worlds"]) == 4
        assert max(map(len, printed["history_atoms"])) == 2 * rounds + 3

    def test_printing_history_variables_past_the_cap_exits_two(self, capsys):
        # with U, the largest view after n rounds prints 2^(n+2) - 2 characters
        code, out, err = run(capsys, "update", "Sq", "--history", "--with", "U",
                             "--rounds", "14")
        assert code == 0 and err == ""
        assert max(map(len, json.loads(out)["history_atoms"])) == 2 ** 16 - 2
        for rounds in (15, 30):
            start = time.perf_counter()
            code, out, err = run(capsys, "update", "Sq", "--history", "--with", "U",
                                 "--rounds", str(rounds))
            assert time.perf_counter() - start < 5
            assert (code, out) == (2, "")
            assert err == (f"error: history variable would print {2 ** (rounds + 2) - 2} "
                           "characters, exceeding the cap of 100000 (raise "
                           "EPIUPDATE_MAX_WORLDS to override)\n")


def _workspace(**models):
    return {"agents": ["a", "b"], "atoms": [{"base": "p", "owner": "a"}],
            "models": models}


def _model(worlds=({"id": "w1", "val": ["p_a"]}, {"id": "w2"}), **relations):
    return {"worlds": list(worlds),
            "relations": {"a": [["w1"], ["w2"]], "b": [["w1", "w2"]], **relations}}


def _action(pre):
    return {"x": {"actions": [{"id": "e", "pre": pre}],
                  "relations": {"a": [["e"]], "b": [["e"]]}}}


def _drop(doc, *path):
    *parents, last = path
    inner = doc
    for key in parents:
        inner = inner[key]
    del inner[last]
    return doc


class TestWorkspaceContract:
    """Malformed workspaces exit 2 with a message naming the fault."""

    @pytest.mark.parametrize("doc, message", [
        (_drop(_workspace(M=_model()), "agents"), "agents: missing"),
        (_drop(_workspace(M=_model()), "models", "M", "worlds"),
         "models.M.worlds: missing"),
        (_drop(_workspace(M=_model()), "models", "M", "relations"),
         "models.M.relations: missing"),
        (_workspace(M=_model(worlds=[{"id": "w1"}, {"val": []}])),
         "models.M.worlds[1].id: missing"),
        (_workspace(M=_model(worlds=[{"id": "w1", "val": "p_a"}, {"id": "w2"}])),
         "models.M.worlds[0].val: expected a list"),
        (_workspace(M=_model(worlds=[{"id": "w1", "val": [1]}, {"id": "w2"}])),
         "models.M.worlds[0].val[0]: expected a string"),
        ({**_workspace(), "patterns": {"P": ["{a->b}", 7]}},
         "patterns.P[1]: expected a string"),
        (_workspace(M=_model(a=[["w1", "zz"], ["w2"]])),
         "relation of agent a names unknown world 'zz'"),
        (_workspace(M=_model(a=[["w1"], ["w2"], []])),
         "empty block in relation of agent a"),
        (_workspace(M=_model(a=[["w1", "w2"], ["w2"]])),
         "overlapping blocks in relation of agent a"),
        ({**_workspace(M=_model()), "agents": ["a", "b", "a"]}, "duplicate agent 'a'"),
        ({**_workspace(), "atoms": {"base": "p", "owner": "a"}}, "atoms: expected a list"),
        ({**_workspace(), "patterns": {"P": []}},
         "a communication pattern must contain at least one graph"),
        ({**_workspace(), "patterns": {"P": ["{a->z}"]}}, "edge (a,z) mentions an unknown agent"),
        ({**_workspace(), "patterns": {"P": ["a->b"]}}, "bad graph literal 'a->b'"),
        (_workspace(M=_drop(_model(), "relations", "b")),
         "relations must cover exactly the agent set"),
        (_workspace(M=_model(worlds=[{"id": 1}, {"id": "w2"}])),
         "models.M.worlds[0].id: expected a string"),
        ({**_workspace(), "action_models": _action("(p_a &")},
         "unexpected 'end of input' (at position 6)"),
        ({**_workspace(), "patterns": {"P": ["{a->b}"]}, "action_models": _action("[P] p_a")},
         "precondition of action 'e' contains a dynamic modality"),
        ({**_workspace(M=_model()), "patterns": {"M": ["{a->b}"]}},
         "duplicate workspace names: ['M']"),
        ([_workspace()], "workspace: expected an object"),
        ({**_workspace(), "formulas": {"goal": "(p_a & zz_q"}},
         "unknown atom 'zz_q' (at position 7)"),
        ({**_workspace(), "atoms": [{"base": "p", "owner": "a"}, {"base": "q", "owner": "z"}]},
         "atom 'q_z' is owned by unknown agent 'z'"),
        # the name table is checked before any model is built
        ({**_workspace(M=_model(worlds=[{"id": "w1", "val": ["p_a", "q_z"]}, {"id": "w2"}])),
          "atoms": [{"base": "p", "owner": "a"}, {"base": "q", "owner": "z"}]},
         "atom 'q_z' is owned by unknown agent 'z'"),
        (_workspace(M=_model(worlds=[{"id": "w1", "val": ["zz_q"]}, {"id": "w2"}])),
         "unknown atom 'zz_q'"),
        ({**_workspace(), "atoms": [{"base": "p_x", "owner": "a"}]},
         "atom base 'p_x' cannot be written in a formula"),
        ({**_workspace(), "atoms": [{"base": "", "owner": "a"}]},
         "atom base '' cannot be written in a formula"),
        ({**_workspace(), "agents": ["a", "a b"]}, "agent 'a b' cannot be written in a formula"),
        *[({**_workspace(), "agents": ["a", "b", word]},
           f"agent {word!r} cannot be written in a formula")
          for word in ("K", "D", "hK", "hD", "true", "false")],
    ])
    def test_exits_two(self, capsys, tmp_path, doc, message):
        # every command loads the workspace first, so each rejects it alike
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc))
        for argv in (["dot", "M"], ["check", "M", "w1", "p_a"], ["update", "M"],
                     ["minimize", "M"], ["bisim", "M", "M"], ["induce", "I"], ["iunf", "p_a"],
                     ["search", "--bases", "M:w1", "--target", "announce:p_a"]):
            code, out, err = run(capsys, "--workspace", str(path), *argv)
            assert (code, out, err) == (2, "", f"error: {message}\n"), argv

    def test_nested_too_deeply_exits_two(self, capsys, tmp_path):
        # json.dumps cannot write this document, so it is not a case above
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, "--workspace", str(path), "check", "Sq", "11", "p_a")
        assert code == 2 and out == ""
        assert err == "error: workspace: nested too deeply\n"

    def test_well_formed_sample_loads(self, capsys, tmp_path):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(_workspace(M=_model())))
        code, out, _ = run(capsys, "--workspace", str(path), "dot", "M")
        assert code == 0 and out.startswith("graph model {")


def _iff_chain(links):
    text = "p_a"
    for _ in range(links):
        text = f"({text} <-> p_b)"
    return text


# (formula, the one error line it gives in every command, or None)
PATHOLOGICAL = [
    pytest.param("~" * MAX_NESTING + "p_a", None, id="nesting-limit"),
    pytest.param("~" * (MAX_NESTING + 1) + "p_a",
                 f"formula nested deeper than {MAX_NESTING} levels "
                 f"(at position {MAX_NESTING + 1})", id="past-nesting-limit"),
    pytest.param(_iff_chain(40), None, id="iff-chain-40"),
    pytest.param("D{z} p_a", "unknown agent 'z' (at position 2)", id="D{z}"),
    pytest.param("D{} p_a", "expected IDENT, found '}' (at position 2)", id="D{}"),
    pytest.param("K p_a", "expected IDENT, found 'p_a' (at position 2)", id="K"),
    pytest.param("K K p_a", "unknown agent 'K' (at position 2)", id="K-K"),
]


class TestPathologicalFormulas:
    """Every command that reads a formula prints a verdict with empty
    stderr, or exits 2 with empty stdout and one ``error:`` line."""

    @pytest.mark.parametrize("formula, message", PATHOLOGICAL)
    def test_verdict_or_one_error(self, capsys, tmp_path, formula, message):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps({
            **_workspace(M=_model()), "formulas": {"goal": formula},
            "atoms": [{"base": "p", "owner": "a"}, {"base": "p", "owner": "b"}]}))
        for argv in (["check", "Sq", "11", formula], ["check", "Sq", "--valid", formula],
                     ["iunf", formula],
                     ["search", "--bases", "Sq:11", "--target", f"announce:{formula}"],
                     ["--workspace", str(path), "check", "M", "w1", "p_a"]):
            code, out, err = run(capsys, *argv)
            if message is not None:  # one text for the fault, whatever the command
                assert (code, out, err) == (2, "", f"error: {message}\n"), argv[0]
            elif code == 2:
                assert out == "" and err.count("\n") == 1 and err.startswith("error: "), argv[0]
            else:
                assert code in (0, 1) and out and err == "", argv[0]

    def test_printing_past_the_cap_exits_two(self, capsys, monkeypatch):
        # the chain would print about 2^45 characters: refused before any is built
        code, out, err = run(capsys, "iunf", _iff_chain(40))
        assert (code, out) == (2, "")
        assert err == ("error: formula would print 35184372088803 characters, exceeding the "
                       "cap of 100000 (raise EPIUPDATE_MAX_WORLDS to override)\n")
        monkeypatch.setenv("EPIUPDATE_MAX_WORLDS", "10")
        code, out, err = run(capsys, "iunf", _iff_chain(40))
        assert (code, out) == (2, "")
        assert err == ("error: formula would print 35184372088803 characters, exceeding the "
                       "cap of 10 (raise EPIUPDATE_MAX_WORLDS to override)\n")
