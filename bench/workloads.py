"""The three workloads and the known answers their verdicts are checked against.

Each workload is a single-threaded closed loop: the next call into
``epiupdate`` starts when the previous one has returned.  ``setup`` builds
the seeded inputs (timed as part of ``setup_s``); ``run`` makes the calls
and checks every verdict against a hand-written answer or an independent
route through the library.  Sizes are ``full`` (the benchmark) and
``smoke`` (the benchmark's own tests).
"""
from __future__ import annotations

import json
import random
from types import SimpleNamespace
from typing import NamedTuple

from epiupdate import (
    ActionUpdate, Atom, MultiPointedActionModel, PatternUpdate, Var, action_update,
    announce, apply_induced, check_circular_chain, disj, full_interpreted_system,
    history_start, history_update, induced_action_model, is_interpreted_system,
    minimize, models_bisimilar, pattern_update, realized_history_atoms,
    update_equivalent_on, valid_on,
)
from epiupdate.dot import model_dot
from epiupdate.fixtures import P_A, P_B, immediate_snapshot, sq_model
from epiupdate.history import induced_round_product
from epiupdate.models import PointedModel
from epiupdate.search import candidate_patterns
from epiupdate.workspace import default_workspace, model_from_json, model_to_json

from family import SEED, family_like, iter_family, model_atoms


class Verdicts:
    """Counts verdicts checked and keeps the first few failures."""

    KEEP = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, label: str, got, expected) -> None:
        self.attempted += 1
        if got != expected:
            self._fail(f"{label}: got {got!r}, expected {expected!r}")

    def error(self, label: str, exc: Exception) -> None:
        self.attempted += 1
        self._fail(f"{label}: {type(exc).__name__}: {exc}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < self.KEEP:
            self.failures.append(message)


def _worlds(model) -> dict:
    return {"worlds": len(model.worlds)}


def _bytes(text: str) -> dict:
    return {"bytes": len(text.encode())}


# -- snapshot_ladder ------------------------------------------------------------

class LadderSize(NamedTuple):
    top: int           # rungs k = 1..top, by pattern_update and apply_induced
    materialized: int  # action_update and models_bisimilar for k <= this
    minimized: int     # the rung passed to minimize
    nested: int        # the K a K b ... and [IS] ... validities for k <= this
    local: int         # the D{a,b} validity for k <= this
    serialized: int    # the rung written to JSON and DOT


LADDER = {"full": LadderSize(8, 5, 5, 5, 5, 5), "smoke": LadderSize(3, 2, 2, 2, 3, 3)}

# Validities of every rung: a knows whether p_a (locality), and so does
# every K-chain above it (necessitation); locality survives one more IS
# round; distributed knowledge of a and b about p_a is p_a itself.
NESTED_KNOW = "K a K b (K a p_a | K a ~p_a)"
PATTERN_KNOW = "[IS] (K b p_b | K b ~p_b)"
LOCAL_DK = "(D{a,b} p_a <-> p_a)"


def rung_size(k: int) -> int:
    """|Sq odot IS^k| = 4 * 3^k, and every rung is already minimal."""
    return 4 * 3 ** k


def dump_json(model) -> str:
    return json.dumps(model_to_json(model))


def load_json(text: str, agents, atoms_by_name):
    return model_from_json(json.loads(text), agents, atoms_by_name)


def ladder_setup(seed: int, size: str, tr):
    """The ladder has no random input: every seed runs the same ladder."""
    isp = immediate_snapshot()
    return SimpleNamespace(
        size=LADDER[size], sq=sq_model(), isp=isp, ws=default_workspace(),
        u=tr.call("actions.induced_action_model", induced_action_model, isp, [P_A, P_B]))


def ladder_run(inp, tr, v: Verdicts) -> None:
    """Rung by rung, keeping only the latest rung alive.

    The whole ladder is one item.  Its rungs differ threefold in size, so
    a percentile over them would only name one rung, and rungs of 0.1 s
    read 30% apart from pass to pass on a shared machine.
    """
    z = inp.size
    atoms = frozenset({P_A, P_B})
    with tr.item("ladder"):
        formulas = [(text, tr.call("parser.parse", inp.ws.parse, text), top)
                    for text, top in ((NESTED_KNOW, z.nested), (PATTERN_KNOW, z.nested),
                                      (LOCAL_DK, z.local))]
        rung = None
        for k in range(z.top + 1):
            rung = _ladder_rung(k, rung, inp, atoms, formulas, tr, v)


def _ladder_rung(k, prev, inp, atoms, formulas, tr, v: Verdicts):
    """Build rung k from rung k - 1 and check everything asked of it."""
    z = inp.size
    if k == 0:
        rung = inp.sq
    else:
        rung = tr.call("comm.pattern_update", pattern_update, prev, inp.isp, qty=_worlds)
        lazy = tr.call("actions.apply_induced", apply_induced, prev, inp.isp, atoms,
                       qty=_worlds)
        v.check(f"|rung {k}|", len(rung.worlds), rung_size(k))
        v.check(f"|lazy induced product {k}|", len(lazy.worlds), rung_size(k))
        if k <= z.materialized:
            product = tr.call("actions.action_update", action_update, prev, inp.u,
                              qty=_worlds)
            v.check(f"lazy = materialized product {k}", lazy.worlds == product.worlds, True)
            # one IS round is the induced product; iterated rounds are not
            v.check(f"rung {k} bisimilar to rung {k - 1} x U(IS)",
                    tr.call("bisim.models_bisimilar", models_bisimilar, rung, product), k == 1)
    v.check(f"rung {k} circular",
            tr.call("search.check_circular_chain", check_circular_chain, rung), True)
    v.check(f"rung {k} interpreted system",
            tr.call("models.is_interpreted_system", is_interpreted_system, rung), k == 0)
    for text, f, top in formulas:
        if k <= top:
            v.check(f"{text} valid on rung {k}",
                    tr.call("semantics.valid_on", valid_on, rung, f,
                            qty=lambda _: {"worlds": len(rung.worlds)}), True)
    if k == z.minimized:
        minimal = tr.call("bisim.minimize", minimize, rung, qty=_worlds)
        v.check(f"|minimize(rung {k})|", len(minimal.worlds), rung_size(k))
    if k == z.serialized:
        text = tr.call("workspace.model_to_json", dump_json, rung, qty=_bytes)
        back = tr.call("workspace.model_from_json", load_json, text, rung.agents,
                       inp.ws.atoms, qty=_worlds)
        v.check(f"rung {k} JSON round trip",
                tr.call("workspace.model_to_json", dump_json, back, qty=_bytes) == text, True)
        dot = tr.call("dot.model_dot", model_dot, rung, qty=_bytes)
        # a circular chain has one two-world block per agent and world pair:
        # n node lines, n edge lines, three lines of frame
        n = len(rung.worlds)
        v.check(f"rung {k} DOT lines", (dot.count("\n"), dot.count(" -- ")), (2 * n + 3, n))
    return rung


# -- history_family -------------------------------------------------------------

HISTORY = {"full": 40, "smoke": 3}
ROUNDS = 3
# Items whose last round would exceed this many worlds are left to
# acceptance 7: the largest (14,749 worlds) alone takes a third of the
# first 40 systems' time, and a few such items would set the whole figure.
MAX_LAST_ROUND = 3000


def last_round_worlds(member) -> int:
    return len(member.model.worlds) * len(member.pattern.graphs) ** ROUNDS


def history_setup(seed: int, size: str, tr):
    """The first N systems of acceptance 7's family whose last round stays
    within ``MAX_LAST_ROUND`` worlds, with fresh contents from the seed.

    Each system keeps the shape of its reference system (agents, atoms,
    number of worlds, pattern) and draws which worlds it keeps from the
    seed, so every seed does about the same work.  At ``SEED`` the items are the
    reference systems themselves.
    """
    prefix, fits = [], 0
    for m in iter_family(SEED):
        prefix.append(m.shape)
        fits += last_round_worlds(m) <= MAX_LAST_ROUND
        if fits == HISTORY[size]:
            break
    return [m for m in family_like(seed, prefix) if last_round_worlds(m) <= MAX_LAST_ROUND]


def history_run(members, tr, v: Verdicts) -> None:
    for i, (m, p, _) in enumerate(members):
        with tr.item(f"system{i}"):
            try:
                _history_item(i, m, p, tr, v)
            except Exception as exc:  # counted as a failed verdict; the loop goes on
                v.error(f"system {i}", exc)


def _history_item(i, m, p, tr, v: Verdicts) -> None:
    atoms = frozenset(model_atoms(m))
    h = tr.call("history.history_start", history_start, m)
    chain = m
    for n in range(1, ROUNDS + 1):
        r = f"r{n}"
        h = tr.call("history.history_update", history_update, h, p, tag=r,
                    qty=lambda hm: _worlds(hm.model))
        v.check(f"system {i} {r}: interpreted system",
                tr.call("models.is_interpreted_system", is_interpreted_system, h.model), True)
        seen = tr.call("history.realized_history_atoms", realized_history_atoms, chain,
                       qty=lambda s: {"count": len(s)})
        chain = tr.call("history.induced_round_product", induced_round_product,
                        chain, p, atoms | seen, m, n - 1, tag=r, qty=_worlds)
        v.check(f"system {i} {r}: history round bisimilar to induced chain",
                tr.call("bisim.models_bisimilar", models_bisimilar, h.model, chain, tag=r),
                True)
        expected = len(m.worlds) * len(p.graphs) ** n
        v.check(f"system {i} {r}: |history model|", len(h.model.worlds), expected)
        v.check(f"system {i} {r}: |induced chain|", len(chain.worlds), expected)


# -- pattern_search -------------------------------------------------------------

SEARCH = {"full": None, "smoke": 80}
AGENTS3 = ("a", "b", "c")
ATOMS3 = tuple(Atom("p", a) for a in AGENTS3)
MAX_PATTERN_SIZE = 2


def search_setup(seed: int, size: str, tr):
    """Sq3, two seeded base points, the candidates and the three targets.

    Both base points satisfy the announced formula, so every target is
    executable on every base and each call compares update results,
    whatever the seed.
    """
    rng = random.Random(seed)
    sq3 = full_interpreted_system(ATOMS3)
    live = [w for w in sq3.worlds if sq3.valuation[w] & {ATOMS3[0], ATOMS3[1]}]
    bases = [PointedModel(sq3, w) for w in rng.sample(live, 2)]
    candidates = list(candidate_patterns(AGENTS3, MAX_PATTERN_SIZE))[:SEARCH[size]]
    target = rng.choice([c for c in candidates if len(c.graphs) == 2])
    u = tr.call("actions.induced_action_model", induced_action_model, target, ATOMS3)
    ann = announce(disj(Var(ATOMS3[0]), Var(ATOMS3[1])), AGENTS3)
    targets = {
        "announce": ActionUpdate(MultiPointedActionModel(ann, frozenset(ann.actions))),
        "pattern": PatternUpdate(target),
        "induced": ActionUpdate(MultiPointedActionModel(u, frozenset(u.actions))),
    }
    return SimpleNamespace(bases=bases, candidates=candidates, target=target,
                           targets=targets)


def search_run(inp, tr, v: Verdicts) -> None:
    """Every candidate against every target; no early stop, as ``epiupdate search``.

    An item is one candidate: its three calls, one per target.  The three
    targets' calls form separate clusters of times, and a median over
    single calls falls in the gap between them.
    """
    verdicts = {}
    for name, spec in inp.targets.items():
        got = verdicts[name] = []
        for j, p in enumerate(inp.candidates):
            with tr.item(f"candidate {j}"):
                try:
                    got.append(tr.call("search.update_equivalent_on", update_equivalent_on,
                                       inp.bases, PatternUpdate(p), spec, tag=name))
                except Exception as exc:  # counted as a failed verdict; the loop goes on
                    got.append(None)
                    v.error(f"{name} candidate {j}", exc)
    for j, ok in enumerate(verdicts["announce"]):
        if ok is not None:
            v.check(f"candidate {j} matches an announcement", ok, False)
    # the one-round theorem: a pattern round equals its induced product on
    # interpreted systems, so T and U(T) have the same equivalent patterns
    for j, (a, b) in enumerate(zip(verdicts["pattern"], verdicts["induced"])):
        if a is not None and b is not None:
            v.check(f"candidate {j}: U(T) agrees with T", b, a)
    own = inp.candidates.index(inp.target)
    v.check("T among its own hits", verdicts["pattern"][own], True)

    calls = sum(len(got) for got in verdicts.values())
    hits = sum(ok is True for got in verdicts.values() for ok in got)
    tr.counts.update({"search.candidates": calls, "search.hits": hits,
                      "search.hit_ratio": hits / calls})


WORKLOADS = {
    "snapshot_ladder": (ladder_setup, ladder_run),
    "history_family": (history_setup, history_run),
    "pattern_search": (search_setup, search_run),
}
