"""Workbench for epistemic model updates.

Models with agent-owned atoms, communication patterns and action models
as update mechanisms, a model checker with distributed knowledge,
collective bisimulation, history-based round semantics, and brute-force
update-equivalence search.
"""

from .actions import (
    ActionModel, MultiPointedActionModel, action_update, announce,
    apply_induced, compose, induced_action_model, model_as_action_model,
    skip_model, whether_announce,
)
from .bisim import (
    BisimResult, bisimilar, isomorphic, max_collective_bisimulation,
    minimize, models_bisimilar, n_bisimilar,
)
from .comm import (
    CommGraph, CommPattern, enumerate_graphs, identity_graph, make_graph,
    parse_graph_literal, pattern_update, receivers_from, universal_graph,
)
from .errors import (
    EmptyModelError, EpiupdateError, FormulaSyntaxError, LocalityError,
    ModelCapError, UnknownNameError,
)
from .formulas import (
    ActionBox, Conj, DKnow, Formula, Neg, PatternBox, Top, Var, conj,
    description, disj, dual_dknow, dual_knows, format_formula, formula_atoms,
    iff, implies, knows, modal_depth, pattern_box_all, action_box_all,
)
from .history import (
    HistoryModel, View, atom_holds, history_atoms_below, history_power,
    history_start, history_update, induced_chain, realized_history_atoms,
    round_variables, view_of,
)
from .iunf import is_iunf, iunf_translate
from .models import (
    Atom, EpistemicModel, PointedModel, full_interpreted_system,
    group_relation, is_interpreted_system, is_local, world_name,
)
from .parser import parse_formula
from .search import (
    ActionUpdate, PatternUpdate, check_circular_chain,
    find_equivalent_pattern, fresh_variable_counterexample, update_equivalent_on,
    update_results, witness_round,
)
from .semantics import extension, satisfies, valid_on
from .workspace import Workspace, default_workspace, load_workspace

__version__ = "0.1.0"
