"""Desk-scale synthetic teacher-student distillation experiments."""

from .data import (
    Dataset,
    EdgeAmbiguity,
    HarnessConfig,
    SceneStack,
    binned_mixture,
    gen_dataset,
    load_dataset,
    sample_edge_value,
    save_dataset,
)
from .experiments import (
    SCHEMES,
    ExperimentReport,
    evaluate,
    run_cell,
    run_seed,
    train,
    train_teacher,
)
from .models import LinearLocalizer, init_localizer

__all__ = [
    "Dataset",
    "EdgeAmbiguity",
    "HarnessConfig",
    "SceneStack",
    "binned_mixture",
    "gen_dataset",
    "load_dataset",
    "sample_edge_value",
    "save_dataset",
    "SCHEMES",
    "ExperimentReport",
    "evaluate",
    "run_cell",
    "run_seed",
    "train",
    "train_teacher",
    "LinearLocalizer",
    "init_localizer",
]
