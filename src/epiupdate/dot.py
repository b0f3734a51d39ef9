"""Deterministic DOT export for models and action models.

Per agent, every pair of worlds inside a non-singleton block yields one
undirected edge labeled with the agent's name; reflexive edges are
omitted.  Nodes and edges are emitted in sorted order so that repeated
runs diff cleanly.
"""
from __future__ import annotations

from itertools import combinations

from .formulas import format_formula
from .models import EpistemicModel, world_name, _component_name


def _quote(s: str) -> str:
    return '"' + s.replace('"', r'\"').replace("\n", r"\n") + '"'


def _graph_dot(kind: str, shape: str, model, elements, name, text) -> str:
    """DOT for worlds or actions: a node per element, labeled
    ``text(x, name(x))``, and an edge per agent and pair of elements in one
    of its blocks."""
    lines = [f"graph {kind} {{", f"  node [shape={shape}];"]
    for x in sorted(elements, key=name):
        label = name(x)
        lines.append(f"  {_quote(label)} [label={_quote(text(x, label))}];")
    edges = []
    for a in model.agents:
        for blk in model.relations[a]:
            if len(blk) < 2:
                continue
            for u, v in combinations(sorted(blk, key=name), 2):
                edges.append((name(u), name(v), a))
    for u, v, a in sorted(edges):
        lines.append(f"  {_quote(u)} -- {_quote(v)} [label={_quote(a)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def model_dot(model: EpistemicModel) -> str:
    def text(w, label):
        vals = " ".join(sorted(str(p) for p in model.valuation[w]))
        return label + ("\n" + vals if vals else "")
    return _graph_dot("model", "box", model, model.worlds, world_name, text)


def action_model_dot(model) -> str:
    return _graph_dot("actions", "ellipse", model, model.actions, _component_name,
                      lambda e, label: label + "\npre: " + format_formula(model.pre[e]))
