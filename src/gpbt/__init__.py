"""Genealogical population-based training: adaptive hyperparameter schedules in a single run."""

from .baselines import NonadaptiveConfig, PbtConfig, run_nonadaptive, run_pbt
from .genealogy import AgentRecord, GenealogyTree
from .orchestrator import (
    CurvePoint,
    DynamicC,
    DynamicCState,
    EarlyStopConfig,
    FixedC,
    RunConfig,
    RunResult,
    convergence_gate,
    median_gate,
    plan_generation,
    run,
)
from .searchers import History, SearcherConfig, suggest
from .space import Dimension, HpVector, SearchSpace
from .trainers import TrainerSpec, make_trainer

__all__ = [
    "AgentRecord",
    "CurvePoint",
    "Dimension",
    "DynamicC",
    "DynamicCState",
    "EarlyStopConfig",
    "FixedC",
    "GenealogyTree",
    "History",
    "HpVector",
    "NonadaptiveConfig",
    "PbtConfig",
    "RunConfig",
    "RunResult",
    "SearchSpace",
    "SearcherConfig",
    "TrainerSpec",
    "convergence_gate",
    "make_trainer",
    "median_gate",
    "plan_generation",
    "run",
    "run_nonadaptive",
    "run_pbt",
    "suggest",
]

__version__ = "0.1.0"
