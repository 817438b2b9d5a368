"""Interacting two-walker quantum walk games.

Two distinguishable coined walkers evolve on a 1D lattice; the players'
strategies are their coin rotation angles, an interaction phase operator
couples them, and payoffs are expectations of transport observables.  The
package simulates the dynamics, computes payoff landscapes, and locates and
classifies equilibria.
"""

from .dynamics import WalkConfig, evolve, evolve_single
from .equilibrium import (
    StrategyGrid,
    WalkEvaluator,
    best_responses,
    find_stationary,
    jacobian_at,
    learn,
    surface_from_evaluator,
)
from .games import GameKind, GameSpec, payoff
from .hilbert import (
    Boundary,
    JointDistribution,
    LatticeGeometry,
    measure_joint,
)
from .interactions import InteractionKind, InteractionSpec

__all__ = [
    "Boundary",
    "GameKind",
    "GameSpec",
    "InteractionKind",
    "InteractionSpec",
    "JointDistribution",
    "LatticeGeometry",
    "StrategyGrid",
    "WalkConfig",
    "WalkEvaluator",
    "best_responses",
    "evolve",
    "evolve_single",
    "find_stationary",
    "jacobian_at",
    "learn",
    "measure_joint",
    "payoff",
    "surface_from_evaluator",
]
