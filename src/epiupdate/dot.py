"""Deterministic DOT export for models and action models.

Per agent, every pair of worlds inside a non-singleton block yields one
undirected edge labeled with the agent's name; reflexive edges are
omitted.  Nodes and edges are emitted in sorted order so that repeated
runs diff cleanly.
"""
from __future__ import annotations

from itertools import combinations

from .formulas import format_formula
from .models import EpistemicModel, blocks_of, world_name, _component_name


def _quote(s: str) -> str:
    return '"' + s.replace('"', r'\"').replace("\n", r"\n") + '"'


def _graph_dot(kind: str, shape: str, model, names: list, texts: list) -> str:
    """DOT for worlds or actions, given each element's name and label text
    by position: a node per element and an edge per agent and pair of
    elements in one of its blocks."""
    lines = [f"graph {kind} {{", f"  node [shape={shape}];"]
    for i in sorted(range(len(names)), key=names.__getitem__):
        lines.append(f"  {_quote(names[i])} [label={_quote(texts[i])}];")
    edges = []
    for a in model.agents:
        for blk in blocks_of(range(len(names)), model.labels[a]):
            edges += [(u, v, a) for u, v in combinations(sorted(names[k] for k in blk), 2)]
    for u, v, a in sorted(edges):
        lines.append(f"  {_quote(u)} -- {_quote(v)} [label={_quote(a)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def model_dot(model: EpistemicModel) -> str:
    names = list(map(world_name, model.worlds))
    atoms = (" ".join(sorted(map(str, val))) for val in model.vals)
    texts = [x + ("\n" + shown if shown else "") for x, shown in zip(names, atoms)]
    return _graph_dot("model", "box", model, names, texts)


def action_model_dot(model) -> str:
    names = list(map(_component_name, model.actions))
    texts = [x + "\npre: " + format_formula(model.pre[e]) for x, e in zip(names, model.actions)]
    return _graph_dot("actions", "ellipse", model, names, texts)
