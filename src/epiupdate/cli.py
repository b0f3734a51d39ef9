"""Command-line front end.

Subcommands: update, check, bisim, induce, minimize, iunf, search, dot.
Exit codes are a stable contract: 0 for a positive answer, 1 for a
negative one, 2 for any error (bad references, syntax errors, an action
step that leaves no world, a product, printed formula or printed
history variable past the cap, input nested past Python's recursion
limit).
Every command builds its models through ``workspace.build_model_expr``;
``update`` turns its ``--with`` and ``--with-action`` flags into the
``odot`` and ``otimes`` steps of a model expression.
"""
from __future__ import annotations

import argparse
import json
import sys

from .actions import induced_action_model, MultiPointedActionModel, announce, whether_announce
from .bisim import bisimilar, isomorphic, minimize, models_bisimilar, n_bisimilar
from .dot import model_dot
from .errors import EpiupdateError
from .formulas import format_formula
from .history import history_atoms_below, history_start
from .iunf import iunf_translate
from .models import PointedModel, atom_named, full_interpreted_system, world_name
from .search import (
    ActionUpdate, PatternUpdate, default_pattern_size_cap, pattern_verdicts, update_results,
)
from .semantics import satisfies, valid_on
from .workspace import (
    OPERAND_KINDS, Workspace, action_model_to_json, build_model_expr, default_workspace,
    load_workspace, model_to_json, parse_model_expr, resolve_model_expr,
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="epiupdate",
                                description="epistemic model update workbench")
    p.add_argument("--workspace", metavar="FILE",
                   help="workspace JSON file (default: built-in fixtures)")
    sub = p.add_subparsers(dest="command", required=True)

    up = sub.add_parser("update", help="apply a pipeline of updates to a model")
    up.add_argument("model")
    # both flags append to one list, so the steps keep their order
    up.add_argument("--with", dest="steps", metavar="PATTERN", action="append",
                    type=lambda name: ("odot", name), help="pattern update step (repeatable)")
    up.add_argument("--with-action", dest="steps", metavar="ACTION", action="append",
                    type=lambda name: ("otimes", name),
                    help="action model update step (repeatable)")
    up.add_argument("--history", action="store_true",
                    help="record history variables round by round")
    up.add_argument("--rounds", type=int,
                    help="repeat the whole step sequence this many times (default 1)")
    up.add_argument("-o", "--output", metavar="FILE")

    ck = sub.add_parser("check", help="evaluate a formula")
    ck.add_argument("model", help="model name or expression (odot/otimes)")
    ck.add_argument("world", nargs="?", help="evaluation point (omit with --valid)")
    ck.add_argument("formula")
    ck.add_argument("--valid", action="store_true",
                    help="check truth at every world instead of one point")

    bs = sub.add_parser("bisim", help="compare two models")
    bs.add_argument("left")
    bs.add_argument("right")
    bs.add_argument("--point1")
    bs.add_argument("--point2")
    bs.add_argument("--bound", type=int)
    bs.add_argument("--iso", action="store_true", help="check isomorphism instead")
    bs.add_argument("--witness", action="store_true",
                    help="print the witness relation when bisimilar")

    ind = sub.add_parser("induce", help="emit the action model induced by a pattern")
    ind.add_argument("pattern")
    ind.add_argument("--round", type=int, default=1,
                     help="induced model for this round of iterated execution")
    ind.add_argument("--atoms", help="comma-separated atom names (default: workspace)")
    ind.add_argument("-o", "--output", metavar="FILE")

    mn = sub.add_parser("minimize", help="quotient by the coarsest bisimulation")
    mn.add_argument("model")
    mn.add_argument("-o", "--output", metavar="FILE")

    iu = sub.add_parser("iunf", help="translate to iterated update normal form")
    iu.add_argument("formula")

    se = sub.add_parser("search", help="search for an update-equivalent pattern")
    se.add_argument("--bases", required=True, metavar="MODEL:WORLD,...",
                    help="comma-separated pointed base models")
    se.add_argument("--target", required=True, metavar="SPEC",
                    help="one of announce:FORMULA, whether:FORMULA, "
                         "action:NAME, pattern:NAME[:GRAPH]")
    se.add_argument("--max-pattern-size", type=int)
    se.add_argument("--dump-dot", metavar="DIR",
                    help="write DOT renderings of the target's update results")

    dt = sub.add_parser("dot", help="emit a DOT rendering of a model")
    dt.add_argument("model")
    dt.add_argument("-o", "--output", metavar="FILE")

    return p


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_update(ws: Workspace, args) -> int:
    if args.rounds is not None and args.rounds < 1:
        raise EpiupdateError("--rounds must be at least 1")
    if not args.steps and (args.history or args.rounds is not None):
        flag = "--history" if args.history else "--rounds"
        raise EpiupdateError(f"{flag} needs a --with or --with-action step")
    current = ws.lookup("model", args.model)
    steps = []
    for op, name in args.steps or []:
        if args.history and op != "odot":
            raise EpiupdateError("--history pipelines accept pattern steps only")
        steps.append((op, ws.lookup(OPERAND_KINDS[op], name)))
    if args.history:
        current = history_start(current)
    current = build_model_expr(ws, current, steps * (args.rounds or 1))
    _emit(json.dumps(model_to_json(current), indent=2) + "\n", args.output)
    return 0


def cmd_check(ws: Workspace, args) -> int:
    if args.valid and args.world is not None:
        raise EpiupdateError("--valid takes no world")
    if not args.valid and args.world is None:
        raise EpiupdateError("a world is required unless --valid is given")
    base, steps = parse_model_expr(ws, args.model)
    f = ws.parse(args.formula)
    model = build_model_expr(ws, base, steps)
    result = (valid_on(model, f) if args.valid
              else satisfies(model, model.world_named(args.world), f))
    print("true" if result else "false")
    return 0 if result else 1


def cmd_bisim(ws: Workspace, args) -> int:
    if (args.point1 is None) != (args.point2 is None):
        raise EpiupdateError("give both points or neither")
    pointed = args.point1 is not None
    bounded = args.bound is not None
    if args.iso and (pointed or bounded or args.witness):
        raise EpiupdateError("--iso takes no --point1, --point2, --bound or --witness")
    if (bounded or args.witness) and not pointed:
        raise EpiupdateError("--bound or --witness needs --point1 and --point2")
    if bounded and args.witness:
        raise EpiupdateError("--bound and --witness cannot be combined")
    left, right = parse_model_expr(ws, args.left), parse_model_expr(ws, args.right)
    left, right = build_model_expr(ws, *left), build_model_expr(ws, *right)
    if args.iso:
        ok = isomorphic(left, right)
        print("isomorphic" if ok else "not isomorphic")
        return 0 if ok else 1
    if pointed:
        w = left.world_named(args.point1)
        v = right.world_named(args.point2)
        if args.bound is not None:
            ok = n_bisimilar(left, w, right, v, args.bound)
            print(f"{args.bound}-bisimilar" if ok else f"not {args.bound}-bisimilar")
            return 0 if ok else 1
        res = bisimilar(left, w, right, v, want_witness=args.witness)
        if res.related:
            print("bisimilar")
            if args.witness and res.witness is not None:
                for u, x in sorted(res.witness,
                                   key=lambda p: (world_name(p[0]), world_name(p[1]))):
                    print(f"  {world_name(u)} ~ {world_name(x)}")
            return 0
        msg = "not bisimilar"
        if res.distinguishing_bound is not None:
            msg += f" (distinguished at depth {res.distinguishing_bound})"
        print(msg)
        return 1
    ok = models_bisimilar(left, right)
    print("bisimilar" if ok else "not bisimilar")
    return 0 if ok else 1


def cmd_induce(ws: Workspace, args) -> int:
    pattern = ws.lookup("pattern", args.pattern)
    if args.atoms is not None:
        atoms = {atom_named(ws.atoms, name)
                 for name in filter(None, (s.strip() for s in args.atoms.split(",")))}
    else:
        atoms = set(ws.atom_set)
    if args.round < 1:
        raise EpiupdateError("--round must be at least 1")
    if args.round > 1:
        base = full_interpreted_system(atoms, agents=ws.agents)
        atoms |= history_atoms_below([pattern] * (args.round - 1), base)
    model = induced_action_model(pattern, atoms)
    _emit(json.dumps(action_model_to_json(model), indent=2) + "\n", args.output)
    return 0


def cmd_minimize(ws: Workspace, args) -> int:
    model = resolve_model_expr(ws, args.model)
    _emit(json.dumps(model_to_json(minimize(model)), indent=2) + "\n", args.output)
    return 0


def cmd_iunf(ws: Workspace, args) -> int:
    print(format_formula(iunf_translate(ws.parse(args.formula))))
    return 0


def _parse_target(ws: Workspace, spec: str):
    kind, _, rest = spec.partition(":")
    if not rest:
        raise EpiupdateError(
            "target must be announce:FORMULA, whether:FORMULA, action:NAME "
            "or pattern:NAME[:GRAPH]")
    if kind == "pattern":
        pname, _, gname = rest.partition(":")
        pattern = ws.lookup("pattern", pname)
        graph = pattern.graph_named(gname) if gname else None
        return PatternUpdate(pattern, graph)
    if kind == "announce":
        u = announce(ws.parse(rest), ws.agents)
    elif kind == "whether":
        u = whether_announce(ws.parse(rest), ws.agents)
    elif kind == "action":
        u = ws.lookup("action model", rest)
    else:
        raise EpiupdateError(f"unknown target kind {kind!r}")
    return ActionUpdate(MultiPointedActionModel(u, frozenset(u.actions)))


def cmd_search(ws: Workspace, args) -> int:
    refs = []
    for ref in filter(None, (s.strip() for s in args.bases.split(","))):
        if ":" not in ref:
            raise EpiupdateError("base references have the form MODEL:WORLD")
        mname, wname = ref.rsplit(":", 1)
        refs.append((parse_model_expr(ws, mname.strip()), wname.strip()))
    if not refs:
        raise EpiupdateError("at least one base is required")
    target = _parse_target(ws, args.target)
    models = [build_model_expr(ws, *expr) for expr, _ in refs]
    bases = [PointedModel(m, m.world_named(w)) for m, (_, w) in zip(models, refs)]
    agents = bases[0].model.agents
    cap = args.max_pattern_size
    if cap is None:
        cap = default_pattern_size_cap(len(agents))

    verdicts = pattern_verdicts(bases, target, cap)
    print(f"target: {args.target}")
    print(f"bases:  {len(bases)}")
    print("pattern                      equivalent")
    found = None
    for pattern, ok in verdicts:
        label = "{" + ", ".join(g.name for g in pattern.graphs) + "}"
        print(f"{label:28} {'yes' if ok else 'no'}")
        if ok and found is None:
            found = pattern

    if args.dump_dot:
        import os
        os.makedirs(args.dump_dot, exist_ok=True)
        for i, base in enumerate(bases):
            for j, res in enumerate(update_results(target, base)):
                path = os.path.join(args.dump_dot, f"target-base{i}-result{j}.dot")
                with open(path, "w") as fh:
                    fh.write(model_dot(res.model))

    if found is not None:
        print("result: equivalent pattern found: "
              + ", ".join(g.name for g in found.graphs))
        return 0
    scope = f"patterns of size <= {cap}" if cap is not None else "all patterns"
    print(f"result: no equivalent found within search space ({scope})")
    return 1


def cmd_dot(ws: Workspace, args) -> int:
    model = resolve_model_expr(ws, args.model)
    _emit(model_dot(model), args.output)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ws = load_workspace(args.workspace) if args.workspace else default_workspace()
        return globals()[f"cmd_{args.command}"](ws, args)  # NAME runs cmd_NAME
    except (EpiupdateError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: nested too deeply for Python's recursion limit", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
